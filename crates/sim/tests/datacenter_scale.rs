//! The paper's planner and the simulator at datacenter scale: 12 000 nodes
//! (the node count of the sgdxbc storage-simulation sweep) and 2 000 (7, 4)
//! files. π lives on each file's placement, so the plan holds 7 entries per
//! file, and nothing the optimizer or the engine allocates grows with
//! files × nodes.

use sprout_optimizer::{FileModel, Optimizer, OptimizerConfig, StorageModel};
use sprout_queueing::dist::ServiceDistribution;
use sprout_sim::{CacheScheme, PlannedCache, SimConfig, SimFile, Simulation};

const NODES: usize = 12_000;
const FILES: usize = 2_000;
const N: usize = 7;
const K: usize = 4;

#[test]
fn twelve_thousand_nodes_plan_and_simulate_on_placement_sized_rows() {
    // The paper's twelve service rates, repeated over the nodes.
    let paper = sprout_workload::spec::paper_server_service_rates();
    let services: Vec<ServiceDistribution> = (0..NODES)
        .map(|j| ServiceDistribution::exponential(paper[j % paper.len()]))
        .collect();
    // Chunk c of the 14 000 lands on node 7919·c mod 12 000 (7919 is prime
    // to 12 000): every file's seven hosts are distinct, every node hosts
    // one or two chunks, and placement order is not node order.
    let files: Vec<SimFile> = (0..FILES)
        .map(|i| {
            let placement = (0..N).map(|r| ((i * N + r) * 7919) % NODES).collect();
            SimFile::new(0.008 * (1.0 + (i % 5) as f64 * 0.2), K, placement)
        })
        .collect();

    // Uniform π (k/n on every host) keeps every node below ρ = 0.5.
    let mut load = vec![0.0; NODES];
    for f in &files {
        for &j in &f.placement {
            load[j] += f.arrival_rate * K as f64 / N as f64;
        }
    }
    let busiest = (0..NODES)
        .map(|j| load[j] / paper[j % paper.len()])
        .fold(0.0, f64::max);
    assert!(busiest < 0.5, "uniform utilization {busiest}");

    let model = StorageModel::new(
        services.iter().map(|s| s.moments()).collect(),
        files
            .iter()
            .map(|f| FileModel::new(f.arrival_rate, f.k, f.placement.clone()))
            .collect(),
    )
    .unwrap();
    let plan = Optimizer::new(OptimizerConfig::fast())
        .run(&model, 200)
        .unwrap();
    assert!(plan.cache_chunks_used() > 0 && plan.cache_chunks_used() <= 200);
    assert_eq!(plan.scheduling.len(), FILES);
    for (i, row) in plan.scheduling.iter().enumerate() {
        assert_eq!(row.len(), N, "file {i}: one entry per placement entry");
        let reads: f64 = row.iter().sum();
        let expected = (K - plan.cached_chunks[i]) as f64;
        assert!(
            (reads - expected).abs() < 1e-6,
            "file {i}: reads {reads}, k - d = {expected}"
        );
    }

    let plan = PlannedCache {
        cached_chunks: plan.cached_chunks,
        scheduling: plan.scheduling,
    };
    let report = Simulation::new(
        services,
        files,
        CacheScheme::Functional(plan),
        SimConfig::new(400.0, 12_000),
    )
    .run();
    assert!(report.completed_requests > 1_000);
    assert_eq!(report.failed_requests, 0);
    assert!(
        report.slots.cache_total > 0,
        "the plan's cache serves reads"
    );
}

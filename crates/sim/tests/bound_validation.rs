//! Cross-crate validation: the analytical latency bound of Lemma 1 (as used
//! by the optimizer) must upper-bound the latency measured by the
//! discrete-event simulator, and optimizer-driven functional caching must
//! beat the no-cache configuration in simulation.

use sprout_optimizer::{CachePlan, FileModel, Optimizer, OptimizerConfig, StorageModel};
use sprout_queueing::dist::ServiceDistribution;
use sprout_sim::{CacheScheme, PlannedCache, SimConfig, SimFile, Simulation};

fn service_rates() -> Vec<f64> {
    vec![0.5, 0.5, 0.4, 0.4, 0.3, 0.3]
}

fn build_model(num_files: usize, rate: f64) -> (StorageModel, Vec<SimFile>) {
    let nodes: Vec<_> = service_rates()
        .iter()
        .map(|&mu| ServiceDistribution::exponential(mu).moments())
        .collect();
    let mut files = Vec::new();
    let mut sim_files = Vec::new();
    for i in 0..num_files {
        let placement: Vec<usize> = (0..4).map(|j| (i + j) % 6).collect();
        files.push(FileModel::new(rate, 3, placement.clone()));
        sim_files.push(SimFile::new(rate, 3, placement));
    }
    (StorageModel::new(nodes, files).unwrap(), sim_files)
}

fn dists() -> Vec<ServiceDistribution> {
    service_rates()
        .iter()
        .map(|&mu| ServiceDistribution::exponential(mu))
        .collect()
}

/// Functional caching of `plan`'s cache counts, reading with the plan's
/// `π` rows.
fn functional(plan: &CachePlan) -> CacheScheme {
    CacheScheme::Functional(PlannedCache {
        cached_chunks: plan.cached_chunks.clone(),
        scheduling: plan.scheduling.clone(),
    })
}

/// Functional caching of `plan`'s cache counts, reading uniformly:
/// `(k_i − d_i) / n_i` from each of file `i`'s hosts.
fn functional_uniform(plan: &CachePlan, files: &[SimFile]) -> CacheScheme {
    let rows = files.iter().zip(&plan.cached_chunks);
    CacheScheme::Functional(PlannedCache {
        cached_chunks: plan.cached_chunks.clone(),
        scheduling: rows
            .map(|(f, &d)| {
                let n = f.placement.len();
                vec![(f.k - d) as f64 / n as f64; n]
            })
            .collect(),
    })
}

#[test]
fn analytic_bound_dominates_simulated_mean_latency() {
    let (model, sim_files) = build_model(6, 0.05);
    let plan = Optimizer::new(OptimizerConfig::default())
        .run(&model, 6)
        .unwrap();

    let sim = Simulation::new(
        dists(),
        sim_files,
        functional(&plan),
        SimConfig::new(200_000.0, 11),
    );
    let report = sim.run();
    assert!(report.completed_requests > 1000);
    assert!(
        plan.objective >= report.overall.mean * 0.95,
        "bound {} should not be materially below the simulated mean {}",
        plan.objective,
        report.overall.mean
    );
}

#[test]
fn optimized_functional_caching_beats_no_cache_in_simulation() {
    let (model, sim_files) = build_model(8, 0.06);
    let plan = Optimizer::new(OptimizerConfig::default())
        .run(&model, 8)
        .unwrap();
    assert!(plan.cache_chunks_used() > 0);

    let cached = Simulation::new(
        dists(),
        sim_files.clone(),
        functional(&plan),
        SimConfig::new(100_000.0, 21),
    )
    .run();
    let uncached = Simulation::new(
        dists(),
        sim_files,
        CacheScheme::NoCache,
        SimConfig::new(100_000.0, 21),
    )
    .run();
    assert!(
        cached.overall.mean < uncached.overall.mean,
        "functional caching ({}) should beat no caching ({})",
        cached.overall.mean,
        uncached.overall.mean
    );
}

#[test]
fn probabilistic_scheduling_beats_uniform_scheduling_on_heterogeneous_nodes() {
    let (model, sim_files) = build_model(6, 0.06);
    let plan = Optimizer::new(OptimizerConfig::default())
        .run(&model, 3)
        .unwrap();

    let probabilistic = Simulation::new(
        dists(),
        sim_files.clone(),
        functional(&plan),
        SimConfig::new(150_000.0, 31),
    )
    .run();
    let uniform = Simulation::new(
        dists(),
        sim_files.clone(),
        functional_uniform(&plan, &sim_files),
        SimConfig::new(150_000.0, 31),
    )
    .run();
    assert!(
        probabilistic.overall.mean <= uniform.overall.mean * 1.05,
        "optimized scheduling ({}) should not lose to uniform ({})",
        probabilistic.overall.mean,
        uniform.overall.mean
    );
}

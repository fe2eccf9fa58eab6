//! Integration tests for the streaming runtime: event-heap residency,
//! bit-identical determinism, thread-count invariance of the replication
//! runner, and shard-count invariance of the sharded engine.

use sprout_queueing::dist::ServiceDistribution;
use sprout_sim::{CacheScheme, SimConfig, SimFile, Simulation};

fn nodes(n: usize, rate: f64) -> Vec<ServiceDistribution> {
    vec![ServiceDistribution::exponential(rate); n]
}

fn files(count: usize, rate: f64, k: usize, m: usize) -> Vec<SimFile> {
    (0..count)
        .map(|i| {
            let placement: Vec<usize> = (0..m).map(|j| (i + j) % m).collect();
            SimFile::new(rate, k, placement)
        })
        .collect()
}

/// The acceptance bar of the streaming refactor: a horizon producing more
/// than a million arrivals runs without materializing a trace — the event
/// heap never holds more than one arrival per file plus one completion per
/// node, i.e. O(files), not O(requests).
#[test]
fn million_request_horizon_keeps_event_heap_at_o_files() {
    let num_files = 8;
    let num_nodes = 4;
    // 8 files x 15 req/s x 9000 s ≈ 1.08 M arrivals; k = 1 keeps the
    // per-node load at 30 chunk/s against a service rate of 45/s (ρ ≈ 0.67).
    let sim = Simulation::new(
        nodes(num_nodes, 45.0),
        files(num_files, 15.0, 1, num_nodes),
        CacheScheme::NoCache,
        SimConfig::new(9_000.0, 2024),
    );
    let report = sim.run();
    assert!(
        report.completed_requests >= 1_000_000,
        "horizon should produce >= 1M requests, got {}",
        report.completed_requests
    );
    assert!(
        report.peak_event_queue <= num_files + num_nodes,
        "event heap must stay O(files + nodes): peak {} vs {} files + {} nodes",
        report.peak_event_queue,
        num_files,
        num_nodes
    );
    assert_eq!(report.failed_requests, 0);
}

/// Same seed ⇒ bit-identical report, run after run.
#[test]
fn same_seed_gives_bit_identical_reports() {
    let build = || {
        Simulation::new(
            nodes(6, 0.5),
            files(5, 0.06, 2, 6),
            CacheScheme::ceph_lru(8),
            SimConfig::new(30_000.0, 424_242),
        )
    };
    let a = build().run();
    let b = build().run();
    assert_eq!(a, b, "identical seeds must give bit-identical reports");
    // A different seed must not (statistically impossible at this horizon).
    let c = Simulation::new(
        nodes(6, 0.5),
        files(5, 0.06, 2, 6),
        CacheScheme::ceph_lru(8),
        SimConfig::new(30_000.0, 424_243),
    )
    .run();
    assert_ne!(a.completed_requests, c.completed_requests);
}

/// The sharded engine at streaming scale: many files split across disjoint
/// placement groups run as parallel epoch-synchronized event loops. The
/// reported heap/in-flight peaks are per *logical shard* — bounded by
/// O(files_in_shard + nodes_in_shard), far below the global file count — and
/// the whole report, counters included, is bit-identical to the unsharded
/// run.
#[test]
fn many_file_sharded_run_bounds_per_shard_heap_and_matches_unsharded() {
    let groups = 8;
    let nodes_per_group = 2;
    let files_per_group = 8;
    let build = |shards: usize| {
        // 64 files at 2 req/s, k = 1 on 2 nodes per group: 8 chunk/s per
        // node against a service rate of 10/s (ρ = 0.8), ~256k requests.
        let mut grouped = Vec::new();
        for g in 0..groups {
            for _ in 0..files_per_group {
                let placement: Vec<usize> = (0..nodes_per_group)
                    .map(|j| g * nodes_per_group + j)
                    .collect();
                grouped.push(SimFile::new(2.0, 1, placement));
            }
        }
        Simulation::new(
            nodes(groups * nodes_per_group, 10.0),
            grouped,
            CacheScheme::NoCache,
            SimConfig::new(2_000.0, 7).with_shards(shards),
        )
    };

    let unsharded = build(1).run();
    assert!(
        unsharded.completed_requests > 100_000,
        "the horizon should produce a six-figure request count, got {}",
        unsharded.completed_requests
    );
    assert_eq!(unsharded.logical_shards, groups);
    assert!(
        unsharded.peak_event_queue <= files_per_group + nodes_per_group,
        "per-shard heap peak {} must be O(files_in_shard + nodes_in_shard), \
         not O(total files)",
        unsharded.peak_event_queue
    );

    for shards in [2, 8] {
        let sharded = build(shards).run();
        assert_eq!(
            sharded.completed_requests, unsharded.completed_requests,
            "summed counters must match the unsharded run at {shards} shards"
        );
        assert_eq!(
            sharded.node_chunks_served, unsharded.node_chunks_served,
            "per-node chunk counts must match at {shards} shards"
        );
        assert_eq!(
            sharded, unsharded,
            "the full report must be bit-identical at {shards} shards"
        );
    }
}

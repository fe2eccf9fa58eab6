//! Integration tests for the streaming runtime: event-heap residency,
//! bit-identical determinism, and golden values for a run over disjoint
//! placement groups.

use sprout_queueing::dist::ServiceDistribution;
use sprout_sim::{
    check_report, CacheScheme, EngineBounds, Scenario, SimConfig, SimFile, Simulation,
};

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

/// Golden values for a multi-component input: 16 disjoint placement groups
/// of 4 nodes, 128 (4,2)-coded files each, node 0 failing at h/3 and
/// recovering at 2h/3. No oracle artifact covers a disconnected placement
/// graph, so its counters and latency bits are pinned here; the queue and
/// in-flight peaks stay far below the ~100k requests the horizon produces.
#[test]
fn disjoint_group_churn_run_matches_golden_values() {
    let (groups, nodes_per_group, files_per_group) = (16, 4, 128);
    let horizon = 200.0;
    let mut grouped = Vec::new();
    for g in 0..groups {
        for _ in 0..files_per_group {
            let placement: Vec<usize> = (0..nodes_per_group)
                .map(|j| g * nodes_per_group + j)
                .collect();
            grouped.push(SimFile::new(0.25, 2, placement));
        }
    }
    let scenario = Scenario::default()
        .node_down(horizon / 3.0, 0)
        .node_up(2.0 * horizon / 3.0, 0);
    let report = Simulation::new(
        nodes(groups * nodes_per_group, 25.0),
        grouped,
        CacheScheme::NoCache,
        SimConfig::new(horizon, 2016),
    )
    .with_scenario(scenario)
    .run();

    assert_eq!(report.completed_requests, 102_195);
    assert_eq!(report.failed_requests, 0);
    assert_eq!(report.overall.mean.to_bits(), 0x3fc5_1442_1725_6fcb);
    assert_eq!(report.overall.p99.to_bits(), 0x3fe3_544c_bea2_b400);
    assert_eq!(
        report.node_chunks_served,
        [
            2083, 3446, 3447, 3440, 3201, 3114, 3227, 3182, 3205, 3211, 3249, 3273, 3253, 3261,
            3189, 3261, 3170, 3222, 3275, 3165, 3101, 3194, 3117, 3232, 3260, 3239, 3270, 3279,
            3270, 3200, 3208, 3280, 3180, 3255, 3181, 3248, 3123, 3171, 3206, 3160, 3087, 3176,
            3191, 3120, 3260, 3264, 3166, 3082, 3186, 3194, 3211, 3141, 3249, 3066, 3236, 3219,
            3227, 3203, 3181, 3247, 3190, 3119, 3136, 3191
        ]
    );
    let bounds = EngineBounds::for_run(
        groups * files_per_group,
        groups * nodes_per_group,
        2,
        0,
        1_000,
    );
    check_report(&report, bounds).expect("peaks stay O(files + nodes)");
}

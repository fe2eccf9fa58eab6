//! Integration tests for the streaming runtime: event-queue residency,
//! bit-identical determinism, and golden values for a run over disjoint
//! placement groups.

use sprout_queueing::dist::ServiceDistribution;
use sprout_sim::{
    check_report, CacheScheme, EngineBounds, PlannedCache, Scenario, ScenarioAction, SimConfig,
    SimFile, Simulation,
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
/// queue never holds more than one arrival per file, i.e. O(files), not
/// O(requests).
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
        report.peak_event_queue <= num_files,
        "event queue must stay O(files): peak {} vs {} files",
        report.peak_event_queue,
        num_files
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
            CacheScheme::LruReplicated { capacity_chunks: 8 },
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
        CacheScheme::LruReplicated { capacity_chunks: 8 },
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
    let bounds = EngineBounds::for_run(groups * files_per_group, 2, 0, 1_000);
    check_report(&report, bounds).expect("peaks stay O(files)");
}

/// Golden values for the paths the disjoint-group golden does not reach:
/// exact caching, a swap to an LRU tier that promotes and evicts, rate
/// shifts for every file and for one file, and two nodes with the same
/// deterministic service time, so chunk completions tie exactly.
#[test]
fn exact_to_lru_swap_with_rate_shifts_matches_golden_values() {
    let (num_files, m, k) = (12, 6, 2);
    let horizon = 4_000.0;
    let mut service = nodes(m, 2.0);
    service[0] = ServiceDistribution::deterministic(0.4);
    service[1] = ServiceDistribution::deterministic(0.4);
    let files = files(num_files, 0.25, k, m);
    // Even files keep one exact copy, whose host cannot serve the request;
    // the remaining k − d reads spread over the other hosts.
    let cached: Vec<usize> = (0..num_files).map(|i| (i + 1) % 2).collect();
    let scheduling = cached
        .iter()
        .map(|&d| {
            let share = (k - d) as f64 / (m - d) as f64;
            (0..m).map(|r| if r < d { 0.0 } else { share }).collect()
        })
        .collect();
    let exact = CacheScheme::Exact(PlannedCache {
        cached_chunks: cached,
        scheduling,
    });
    let mut scenario = Scenario::default()
        // Footprint 4 chunks per object: two resident objects of twelve.
        .swap_scheme(
            horizon / 4.0,
            CacheScheme::LruReplicated { capacity_chunks: 8 },
        )
        .set_rates(horizon / 2.0, vec![0.35; num_files]);
    scenario.push(
        3.0 * horizon / 4.0,
        ScenarioAction::SetFileRate { file: 3, rate: 1.0 },
    );
    let report = Simulation::new(service, files, exact, SimConfig::new(horizon, 2028))
        .with_scenario(scenario)
        .run();

    assert_eq!(report.overall.mean.to_bits(), 0x3ff2_0ff2_a922_badc);
    assert_eq!(report.overall.p95.to_bits(), 0x400b_d75a_72cd_4400);
    assert_eq!(report.overall.p99.to_bits(), 0x4014_a7f2_e9c1_7200);
    assert_eq!(report.overall.max.to_bits(), 0x4021_837c_5698_df00);
    let utilization: Vec<u64> = report
        .node_utilization
        .iter()
        .map(|u| u.to_bits())
        .collect();
    assert_eq!(
        utilization,
        [
            0x3fd9_c28f_5c28_f761,
            0x3fda_6cf4_1f21_2f41,
            0x3fdf_81b2_eda7_6c81,
            0x3fe0_6a5a_b636_d7dd,
            0x3fe0_36b9_9702_10e3,
            0x3fe0_9d3a_df70_4ea1
        ]
    );
    assert_eq!(report.completed_requests, 15_154);
    assert_eq!(report.full_cache_hits, 2_226);
    assert_eq!(report.failed_requests, 0);
    assert_eq!(report.cache_promotions, 9_926);
    assert_eq!(report.cache_evictions, 9_924);
    assert_eq!(report.peak_in_flight, 25);
}

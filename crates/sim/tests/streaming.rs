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
    assert_eq!(report.overall.mean.to_bits(), 0x3fc5_24b0_0590_a71c);
    assert_eq!(report.overall.p99.to_bits(), 0x3fe5_98e8_93bf_6600);
    assert_eq!(
        report.node_chunks_served,
        [
            2122, 3580, 3142, 3572, 3165, 3197, 3165, 3197, 3188, 3281, 3188, 3281, 3238, 3244,
            3238, 3244, 3245, 3171, 3245, 3171, 3089, 3233, 3089, 3233, 3267, 3257, 3267, 3257,
            3261, 3218, 3261, 3218, 3178, 3254, 3178, 3254, 3170, 3160, 3170, 3160, 3124, 3163,
            3124, 3163, 3199, 3187, 3199, 3187, 3158, 3208, 3158, 3208, 3165, 3220, 3165, 3220,
            3221, 3208, 3221, 3208, 3173, 3145, 3173, 3145
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

    assert_eq!(report.overall.mean.to_bits(), 0x3ff2_41e4_3815_4d6b);
    assert_eq!(report.overall.p95.to_bits(), 0x400d_b1e4_1dde_3400);
    assert_eq!(report.overall.p99.to_bits(), 0x4016_8067_5f1e_fc00);
    assert_eq!(report.overall.max.to_bits(), 0x4023_90dd_d9a4_1a00);
    let utilization: Vec<u64> = report
        .node_utilization
        .iter()
        .map(|u| u.to_bits())
        .collect();
    assert_eq!(
        utilization,
        [
            0x3fd9_a6b5_0b0f_2953,
            0x3fda_8db8_bac7_129d,
            0x3fdf_5bc7_c769_348a,
            0x3fe0_5f55_998e_0054,
            0x3fe0_514e_27ec_c36d,
            0x3fe0_9e75_50c1_e885
        ]
    );
    assert_eq!(report.completed_requests, 15_154);
    assert_eq!(report.full_cache_hits, 2_226);
    assert_eq!(report.failed_requests, 0);
    assert_eq!(report.cache_promotions, 9_926);
    assert_eq!(report.cache_evictions, 9_924);
    assert_eq!(report.peak_in_flight, 24);
}

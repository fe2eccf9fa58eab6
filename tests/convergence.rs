//! Convergence properties of Algorithm 1 (the claims behind Fig. 3).
//!
//! The paper reports that the algorithm converges within 20 outer iterations
//! at tolerance 0.01 across cache sizes, that warm-starting from the previous
//! cache size helps, and that the objective decreases monotonically (up to
//! the tolerance) along the run.

use sprout::optimizer::{CachePlan, Optimizer, OptimizerConfig};
use sprout::queueing::ServiceDistribution;
use sprout::sim::SimConfig;
use sprout::spec::paper_simulation_spec;
use sprout::{CachePolicy, FileConfig, SproutSystem, SystemSpec};

#[test]
fn converges_within_twenty_iterations_across_cache_sizes() {
    // A scaled-down version of the paper's setup (the 1000-file instance is
    // exercised by the benchmark harness, not the test suite): 40 files whose
    // rates are scaled so the 12 paper servers carry the paper's load.
    let mut previous_plan = None;
    for cache in [2usize, 4, 8, 12, 16] {
        let mut spec = paper_simulation_spec(40, cache);
        spec.seed = 1;
        let system = SproutSystem::new(spec).unwrap();

        let config = OptimizerConfig::default();
        let plan = match &previous_plan {
            Some(prev) => Optimizer::new(config)
                .warm_start(prev)
                .run(system.model(), cache)
                .unwrap(),
            None => system.optimize_with(&config).unwrap(),
        };
        assert!(
            plan.trace.outer_iterations() <= 20,
            "cache {cache}: took {} iterations",
            plan.trace.outer_iterations()
        );
        for w in plan.trace.outer_objectives.windows(2) {
            assert!(
                w[1] <= w[0] + config.tolerance + 1e-9,
                "cache {cache}: objective increased beyond tolerance: {w:?}"
            );
        }
        previous_plan = Some(plan);
    }
}

#[test]
fn paper_scale_spec_is_stable_and_optimizable_at_reduced_size() {
    // The full paper-scale spec (1000 files) is expensive; 100 files at the
    // same per-node load still exercise the grouped arrival rates and the
    // 12 heterogeneous servers.
    let spec = paper_simulation_spec(100, 50);
    let system = SproutSystem::new(spec).unwrap();
    let plan = system.optimize_with(&OptimizerConfig::fast()).unwrap();
    assert!(plan.cache_chunks_used() <= 50);
    assert!(plan.objective.is_finite());
    assert!(plan.trace.outer_iterations() >= 1);
}

#[test]
fn warm_start_does_not_regress_the_objective() {
    let spec = SystemSpec::builder()
        .node_service_rates(&[0.5, 0.5, 0.4, 0.4, 0.3, 0.3])
        .uniform_files(10, 2, 4, 0.04)
        .cache_capacity_chunks(8)
        .seed(2)
        .build()
        .unwrap();
    let system = SproutSystem::new(spec).unwrap();
    let cold = system.optimize().unwrap();
    let warm = Optimizer::default()
        .warm_start(&cold)
        .run(system.model(), system.spec().cache_capacity_chunks)
        .unwrap();
    assert!(warm.objective <= cold.objective + OptimizerConfig::default().tolerance);
}

#[test]
fn objective_decreases_as_convex_function_of_cache_size() {
    // Fig. 4 claim: latency decreases with cache size with diminishing
    // returns. We check monotone decrease and that the first chunk of cache
    // saves at least as much as the last chunk (discrete convexity, sampled).
    let mut objectives = Vec::new();
    for cache in [0usize, 4, 8, 12, 16, 20] {
        let spec = SystemSpec::builder()
            .node_service_rates(&[0.5, 0.5, 0.4, 0.4, 0.3, 0.3])
            .uniform_files(10, 2, 4, 0.045)
            .cache_capacity_chunks(cache)
            .seed(6)
            .build()
            .unwrap();
        let plan = SproutSystem::new(spec).unwrap().optimize().unwrap();
        objectives.push(plan.objective);
    }
    for w in objectives.windows(2) {
        assert!(
            w[1] <= w[0] + 0.02,
            "latency must not increase with cache: {objectives:?}"
        );
    }
    let first_gain = objectives[0] - objectives[1];
    let last_gain = objectives[objectives.len() - 2] - objectives[objectives.len() - 1];
    assert!(
        first_gain + 0.05 >= last_gain,
        "diminishing returns expected: first gain {first_gain}, last gain {last_gain}"
    );
}

/// The §V-A instance the benchmark's `paper-plan-sim` workload plans
/// (benchmark/src/plansim.rs): 250 files under a (7, 4) code with rates × 4
/// so every node carries the paper's 1000-file load, cache 125 chunks.
fn benchmark_instance() -> SproutSystem {
    SproutSystem::new(paper_simulation_spec(250, 125)).unwrap()
}

#[test]
fn planner_work_on_the_benchmark_instance_is_bounded_and_repeats_exactly() {
    // Work is asserted as counts, which no machine's clock can move.
    let system = benchmark_instance();
    let plan = system.optimize().unwrap();
    let trace = &plan.trace;
    assert_eq!(
        *trace,
        system.optimize().unwrap().trace,
        "counts and objectives must repeat exactly run to run"
    );
    assert!(
        trace.gradient_iterations <= 600,
        "{} gradient iterations",
        trace.gradient_iterations
    );
    assert!(trace.line_search_probes >= trace.gradient_iterations);
    assert_eq!(
        trace.projections,
        trace.line_search_probes + trace.rounding_rounds + 1,
        "one projection per probe, one per Prob Π solve, one for the starting point"
    );
    // Each projection evaluates its aggregate once at ν = 0 and once per
    // bisection step. Bisecting [0, top] down to adjacent floats takes about
    // one step per mantissa bit (53) when ν lies within a binade or two of
    // top, as it does here.
    assert!(trace.nu_probes >= trace.projections);
    assert!(
        trace.nu_probes <= 64 * trace.projections,
        "{} ν probes over {} projections",
        trace.nu_probes,
        trace.projections
    );
    assert!(
        (plan.objective - 59.91).abs() <= 0.005 * 59.91,
        "objective {} is not within 0.5 % of 59.91",
        plan.objective
    );
    let report = system.simulate_with_config(
        CachePolicy::Functional,
        Some(&plan),
        SimConfig::new(2.0e5, 1),
    );
    assert!(
        report.overall.mean <= plan.objective,
        "simulated mean {} exceeds the bound {}",
        report.overall.mean,
        plan.objective
    );
}

#[test]
fn benchmark_instance_plan_and_simulation_match_golden_values() {
    // Bit-exact golden values: a change to how the plan is stored or
    // sampled, rather than to what it computes, must leave every one of
    // them unchanged.
    let system = benchmark_instance();
    let plan = system.optimize().unwrap();
    let report = system.simulate_with_config(
        CachePolicy::Functional,
        Some(&plan),
        SimConfig::new(2.0e4, 7),
    );
    assert_eq!(
        plan.objective.to_bits(),
        0x404d_f48b_12dd_d9d2,
        "59.910494192433944"
    );
    // 31 files cache all k = 4 chunks and file 203 caches one: 125 chunks.
    let whole: Vec<usize> = (0..250).filter(|&i| plan.cached_chunks[i] == 4).collect();
    assert_eq!(
        whole,
        [
            28, 38, 48, 53, 58, 68, 75, 81, 85, 95, 118, 121, 123, 128, 131, 136, 138, 143, 148,
            171, 173, 178, 188, 201, 205, 223, 230, 238, 241, 246, 248,
        ]
    );
    assert_eq!(plan.cached_chunks[203], 1);
    assert_eq!(plan.cache_chunks_used(), 125);
    assert_eq!(plan.trace.gradient_iterations, 462);
    assert_eq!(
        report.overall.mean.to_bits(),
        0x4044_b80f_33d2_e4d2,
        "41.437963941550734"
    );
    // Lemma 1 at the marginals each scheme samples: the plan's own
    // objective, exact caching of the same cache counts at its own optimum
    // (its copied hosts serve no reads), uniform reads with no cache; no
    // model for the LRU tier.
    let bound = |policy, plan| {
        let scheme = system.cache_scheme(policy, plan).unwrap();
        system.bound(&scheme).unwrap().map(|b| b.objective)
    };
    let functional = bound(CachePolicy::Functional, Some(&plan)).unwrap();
    assert_eq!(functional.to_bits(), plan.objective.to_bits());
    let exact = bound(CachePolicy::Exact, Some(&plan)).unwrap();
    assert!((exact - 59.96528050166779).abs() < 1e-9, "{exact}");
    let none = bound(CachePolicy::None, None).unwrap();
    assert!((none - 163.78768180729912).abs() < 1e-9, "{none}");
    assert_eq!(bound(CachePolicy::LruReplicated, None), None);
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    words
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// FNV-1a over the plan's `cached_chunks` and the bits of its `scheduling`,
/// `z` and `objective`.
fn plan_fingerprint(plan: &sprout::optimizer::CachePlan) -> u64 {
    let cached = plan.cached_chunks.iter().map(|&d| d as u64);
    let floats = plan.scheduling.iter().flatten().chain(&plan.z);
    fnv1a(cached.chain(floats.chain([&plan.objective]).map(|v| v.to_bits())))
}

#[test]
fn benchmark_instance_plan_is_pinned_to_the_bit() {
    // Every cache count and every bit of π, z and the objective: a faster
    // projection or solve must return this very plan, on every SIMD width.
    let plan = benchmark_instance().optimize().unwrap();
    // Recorded at the commit before the entry-major `ν` aggregate.
    assert_eq!(
        plan_fingerprint(&plan),
        0x9d93_b39f_a2ec_a2a8,
        "{:#018x}",
        plan_fingerprint(&plan)
    );
}

/// Five nodes, one per service law, under six files on explicit placements
/// whose 13 data chunks compete for a 4-chunk cache: every law's moments and
/// Λ-derivatives feed the plan.
fn mixed_law_instance() -> SproutSystem {
    let spec = SystemSpec::builder()
        .node_services(vec![
            ServiceDistribution::exponential(0.8),
            ServiceDistribution::deterministic(1.0),
            ServiceDistribution::uniform(0.5, 2.0),
            ServiceDistribution::gamma(2.0, 0.6),
            ServiceDistribution::shifted_exponential(0.4, 1.5),
        ])
        .file(FileConfig::new(0.20, 3, 2, 0).with_placement(vec![0, 1, 2]))
        .file(FileConfig::new(0.15, 3, 2, 0).with_placement(vec![1, 2, 3]))
        .file(FileConfig::new(0.10, 4, 2, 0).with_placement(vec![2, 3, 4, 0]))
        .file(FileConfig::new(0.18, 3, 2, 0).with_placement(vec![3, 4, 0]))
        .file(FileConfig::new(0.12, 4, 3, 0).with_placement(vec![4, 0, 1, 2]))
        .file(FileConfig::new(0.08, 3, 2, 0).with_placement(vec![0, 2, 4]))
        .cache_capacity_chunks(4)
        .build()
        .unwrap();
    SproutSystem::new(spec).unwrap()
}

#[test]
fn mixed_service_law_plan_and_evaluation_are_pinned_to_the_bit() {
    // The §V-A pin above runs exponential service only; this one holds the
    // planner and Lemma 1 to the bit under every service law.
    let system = mixed_law_instance();
    let plan = system.optimize().unwrap();
    assert_eq!(plan.cache_chunks_used(), 4, "the cache binds");
    assert_eq!(
        plan_fingerprint(&plan),
        0xe56d_4766_7c00_1353,
        "{:#018x}",
        plan_fingerprint(&plan)
    );
    let rows = vec![
        vec![0.5, 1.0, 0.5],
        vec![1.0, 0.25, 0.75],
        vec![0.5, 0.5, 0.5, 0.5],
        vec![0.0, 1.0, 1.0],
        vec![0.75, 0.75, 0.75, 0.75],
        vec![1.0, 0.0, 0.5],
    ];
    let evaluated = CachePlan::evaluate(system.model(), rows).unwrap();
    let per_file = evaluated.per_file_latency.iter().map(|u| u.to_bits());
    let digest = [plan_fingerprint(&evaluated), fnv1a(per_file)];
    assert_eq!(
        digest,
        [0xcbba_4cad_a3c0_98a7, 0xc933_bbad_1922_5e5d],
        "{digest:#018x?}"
    );
}

/// FNV-1a over every field of a simulation report: counts as `u64`s,
/// floats by their bits, each summary field by field.
fn report_fingerprint(report: &sprout::sim::SimReport) -> u64 {
    let summary = |s: &sprout::sim::LatencySummary| {
        let floats = [s.mean, s.std_dev, s.p50, s.p95, s.p99, s.max];
        std::iter::once(s.count as u64).chain(floats.map(f64::to_bits))
    };
    let slots = &report.slots;
    let words = summary(&report.overall)
        .chain(report.per_file.iter().flat_map(summary))
        .chain(report.node_utilization.iter().map(|u| u.to_bits()))
        .chain(slots.slot_length.map(f64::to_bits))
        .chain(
            slots
                .cache_chunks
                .iter()
                .chain(&slots.storage_chunks)
                .copied(),
        )
        .chain([slots.cache_total, slots.storage_total])
        .chain([report.full_cache_hits, report.completed_requests])
        .chain(report.node_chunks_served.iter().copied())
        .chain([report.failed_requests, report.reconstruction_failures])
        .chain([report.peak_event_queue as u64, report.peak_in_flight as u64])
        .chain([report.cache_promotions, report.cache_evictions]);
    fnv1a(words)
}

#[test]
fn benchmark_instance_simulation_is_pinned_to_the_bit() {
    // Every field of the report under the optimized plan: a faster event
    // queue, sampler or summary must reproduce this very run.
    let system = benchmark_instance();
    let plan = system.optimize().unwrap();
    let report = system.simulate_with_config(
        CachePolicy::Functional,
        Some(&plan),
        SimConfig::new(2.0e5, 7),
    );
    assert_eq!(report.peak_event_queue, 250);
    // Recorded at the commit before the calendar event queue.
    assert_eq!(
        report_fingerprint(&report),
        0x122b_d5e2_b887_bbcb,
        "{:#018x}",
        report_fingerprint(&report)
    );
}

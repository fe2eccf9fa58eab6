//! Convergence properties of Algorithm 1 (the claims behind Fig. 3).
//!
//! The paper reports that the algorithm converges within 20 outer iterations
//! at tolerance 0.01 across cache sizes, that warm-starting from the previous
//! cache size helps, and that the objective decreases monotonically (up to
//! the tolerance) along the run.

use sprout::optimizer::OptimizerConfig;
use sprout::sim::SimConfig;
use sprout::spec::paper_simulation_spec;
use sprout::{CachePolicy, SproutSystem, SystemSpec};

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
            Some(prev) => system.optimize_warm(&config, prev).unwrap(),
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
    let warm = system
        .optimize_warm(&OptimizerConfig::default(), &cold)
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
}

/// FNV-1a over the plan's `cached_chunks` and the bits of its `scheduling`,
/// `z` and `objective`.
fn plan_fingerprint(plan: &sprout::optimizer::CachePlan) -> u64 {
    let cached = plan.cached_chunks.iter().map(|&d| d as u64);
    let floats = plan.scheduling.iter().flatten().chain(&plan.z);
    let words = cached.chain(floats.chain([&plan.objective]).map(|v| v.to_bits()));
    words
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
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

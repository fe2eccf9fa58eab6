//! Time-bin adaptation: the cache plan follows arrival-rate changes, as in
//! the paper's Table I / Fig. 5 experiment, and the sliding-window estimator
//! detects the rate changes that should trigger re-optimization.
//!
//! A schedule runs as a scenario ([`ScenarioSpec::time_bins`]): bin 1 runs
//! the optimized plan, and every later bin the plan its `Reoptimize` swaps
//! in, re-planned from the plan in force by `SproutSystem::replan`.

use sprout::optimizer::{CachePlan, OptimizerConfig};
use sprout::scenario::cache_transition;
use sprout::workload::arrivals::PoissonArrivals;
use sprout::workload::estimator::SlidingWindowEstimator;
use sprout::workload::timebins::{table_i_schedule, RateSchedule, TimeBin};
use sprout::{CachePolicy, ScenarioSpec, SproutSystem, SystemSpec};

fn base_system(num_files: usize, cache_chunks: usize) -> SproutSystem {
    let spec = SystemSpec::builder()
        .node_service_rates(&[0.5, 0.5, 0.45, 0.45, 0.4, 0.4, 0.35, 0.35])
        .uniform_files(num_files, 2, 4, 0.01)
        .cache_capacity_chunks(cache_chunks)
        .seed(41)
        .build()
        .unwrap();
    SproutSystem::new(spec).unwrap()
}

/// Fig. 5's system: ten (7, 4) files on the paper's 12 servers, 12 cache
/// chunks.
fn table_i_system() -> SproutSystem {
    let spec = SystemSpec::builder()
        .paper_servers()
        .uniform_files(10, 4, 7, 0.000_15)
        .cache_capacity_chunks(12)
        .seed(5)
        .build()
        .unwrap();
    SproutSystem::new(spec).unwrap()
}

/// Each bin's plan under functional caching, priced by
/// `SproutSystem::bound` at the bin's rates: bin 1's is the optimized plan,
/// each later bin's the scheme its scenario swaps in.
fn bin_plans(system: &SproutSystem, schedule: &RateSchedule) -> Vec<CachePlan> {
    let bins = schedule.bins();
    let first = system.with_arrival_rates(&bins[0].rates).unwrap();
    let plan = first.optimize().unwrap();
    let scenario = ScenarioSpec::time_bins("bins", schedule)
        .compile(
            &first,
            CachePolicy::Functional,
            Some(&plan),
            &OptimizerConfig::default(),
        )
        .unwrap();
    let initial = first
        .cache_scheme(CachePolicy::Functional, Some(&plan))
        .unwrap();
    let schemes = std::iter::once(&initial).chain(scenario.swapped_schemes());
    let plans = bins.iter().zip(schemes).map(|(bin, scheme)| {
        let system = system.with_arrival_rates(&bin.rates).unwrap();
        system
            .bound(scheme)
            .unwrap()
            .expect("a planned scheme is bounded")
    });
    let plans: Vec<CachePlan> = plans.collect();
    assert_eq!(plans.len(), bins.len(), "one plan per bin");
    plans
}

#[test]
fn cache_allocation_tracks_rate_changes_across_bins() {
    let system = base_system(10, 8);
    // Scale the Table I rates up so the 8-chunk cache is contended.
    let schedule = RateSchedule::new(
        table_i_schedule(100.0)
            .bins()
            .iter()
            .map(|b| TimeBin::new(b.duration, b.rates.iter().map(|r| r * 400.0).collect()))
            .collect(),
    );
    let plans = bin_plans(&system, &schedule);
    assert_eq!(plans.len(), 3);

    for (bin, (plan, timebin)) in plans.iter().zip(schedule.bins()).enumerate() {
        assert!(plan.cache_chunks_used() <= 8);
        // Hot files (higher arrival rate) should never get fewer cached
        // chunks than the coldest file in the same bin.
        let rates = &timebin.rates;
        let max_rate = rates.iter().cloned().fold(0.0, f64::max);
        let min_rate = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let hottest = rates.iter().position(|&r| r == max_rate).unwrap();
        let coldest = rates.iter().position(|&r| r == min_rate).unwrap();
        assert!(
            plan.cached_chunks[hottest] >= plan.cached_chunks[coldest],
            "bin {bin}: hottest file {hottest} has {:?}",
            plan.cached_chunks
        );
    }

    // In bin 3 files 2 and 7 jump to the highest rate (0.00025 scaled); they
    // must hold at least as many chunks as they did in bin 2.
    let bin2 = &plans[1].cached_chunks;
    let bin3 = &plans[2].cached_chunks;
    assert!(bin3[1] >= bin2[1]);
    assert!(bin3[6] >= bin2[6]);
}

#[test]
fn bin_transitions_conserve_cache_occupancy() {
    let system = base_system(6, 5);
    let schedule = RateSchedule::new(vec![
        TimeBin::new(50.0, vec![0.08, 0.01, 0.01, 0.01, 0.01, 0.01]),
        TimeBin::new(50.0, vec![0.01, 0.08, 0.01, 0.01, 0.01, 0.01]),
        TimeBin::new(50.0, vec![0.01, 0.01, 0.01, 0.01, 0.08, 0.08]),
    ]);
    let plans = bin_plans(&system, &schedule);
    for pair in plans.windows(2) {
        let before: usize = pair[0].cached_chunks.iter().sum();
        let after: usize = pair[1].cached_chunks.iter().sum();
        let (removed, added) = cache_transition(&pair[0].cached_chunks, &pair[1].cached_chunks);
        assert_eq!(
            before + added - removed,
            after,
            "chunk bookkeeping must balance across the boundary"
        );
    }
}

/// At Table I × 100 (the `time_varying_workload` example's rates) a cold
/// solve of bin 3 overloads node 9; the re-plan warm-starts from bin 2's plan
/// instead, so the scenario compiles and bin 3's bound is no worse than a
/// warm start alone reaches (35.54 s).
#[test]
fn table_i_at_100x_replans_every_bin() {
    let plans = bin_plans(&table_i_system(), &table_i_schedule(100.0).scaled(100.0));
    let bin3 = plans[2].objective;
    assert!(bin3 <= 35.54, "bin 3 bound {bin3}");
    assert!(plans.iter().all(|p| p.cache_chunks_used() <= 12));
}

/// At Fig. 5's Table I × 60 a warm start alone keeps bin 2's cache into bin
/// 3 (29.57 s); the re-plan also solves cold and keeps the better plan.
#[test]
fn table_i_at_60x_bin_3_takes_the_better_start() {
    let plans = bin_plans(&table_i_system(), &table_i_schedule(100.0).scaled(60.0));
    let bin3 = plans[2].objective;
    assert!(bin3 <= 24.34, "bin 3 bound {bin3}");
}

#[test]
fn sliding_window_estimator_triggers_rebinning_on_real_traces() {
    // Generate a two-phase Poisson trace and confirm the estimator (a) tracks
    // the true rates and (b) flags the phase change.
    let mut gen = PoissonArrivals::new(3);
    let phase1 = [0.2, 0.02];
    let phase2 = [0.02, 0.4];
    let mut trace = gen.generate(&phase1, 500.0);
    for mut req in gen.generate(&phase2, 500.0) {
        req.time += 500.0;
        trace.push(req);
    }

    let mut estimator = SlidingWindowEstimator::new(2, 100.0, 0.6);
    let mut change_detected_at = None;
    for req in &trace {
        if estimator.observe(req.time, req.file) && req.time > 450.0 && change_detected_at.is_none()
        {
            change_detected_at = Some(req.time);
        }
        if req.time < 450.0 && req.time > 400.0 {
            // After warm-up, the estimates should be near the true phase-1 rates.
            let rates = estimator.rates();
            assert!((rates[0] - 0.2).abs() < 0.1);
        }
    }
    let t = change_detected_at.expect("the rate change must be detected");
    assert!(
        t < 700.0,
        "the change at t=500 should be detected within two window lengths, got {t}"
    );
}

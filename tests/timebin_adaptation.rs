//! Time-bin adaptation: the cache plan follows arrival-rate changes, as in
//! the paper's Table I / Fig. 5 experiment, and the sliding-window estimator
//! detects the rate changes that should trigger re-optimization.

use sprout::optimizer::OptimizerConfig;
use sprout::workload::arrivals::PoissonArrivals;
use sprout::workload::estimator::SlidingWindowEstimator;
use sprout::workload::timebins::{table_i_schedule, RateSchedule, TimeBin};
use sprout::{SproutSystem, SystemSpec, TimeBinManager};

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

#[test]
fn cache_allocation_tracks_rate_changes_across_bins() {
    let system = base_system(10, 8);
    let manager = TimeBinManager::new(system, OptimizerConfig::default());
    // Scale the Table I rates up so the 8-chunk cache is contended.
    let schedule = RateSchedule::new(
        table_i_schedule(100.0)
            .bins()
            .iter()
            .map(|b| TimeBin::new(b.duration, b.rates.iter().map(|r| r * 400.0).collect()))
            .collect(),
    );
    let outcomes = manager.run(&schedule).unwrap();
    assert_eq!(outcomes.len(), 3);

    for outcome in &outcomes {
        assert!(outcome.plan.cache_chunks_used() <= 8);
        // Hot files (higher arrival rate) should never get fewer cached
        // chunks than the coldest file in the same bin.
        let max_rate = outcome.rates.iter().cloned().fold(0.0, f64::max);
        let min_rate = outcome.rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let hottest = outcome.rates.iter().position(|&r| r == max_rate).unwrap();
        let coldest = outcome.rates.iter().position(|&r| r == min_rate).unwrap();
        assert!(
            outcome.plan.cached_chunks[hottest] >= outcome.plan.cached_chunks[coldest],
            "bin {}: hottest file {} has {:?}",
            outcome.bin,
            hottest,
            outcome.plan.cached_chunks
        );
    }

    // In bin 3 files 2 and 7 jump to the highest rate (0.00025 scaled); they
    // must hold at least as many chunks as they did in bin 2.
    let bin2 = &outcomes[1].plan.cached_chunks;
    let bin3 = &outcomes[2].plan.cached_chunks;
    assert!(bin3[1] >= bin2[1]);
    assert!(bin3[6] >= bin2[6]);
}

#[test]
fn bin_transitions_conserve_cache_occupancy() {
    let system = base_system(6, 5);
    let manager = TimeBinManager::new(system, OptimizerConfig::default());
    let schedule = RateSchedule::new(vec![
        TimeBin::new(50.0, vec![0.08, 0.01, 0.01, 0.01, 0.01, 0.01]),
        TimeBin::new(50.0, vec![0.01, 0.08, 0.01, 0.01, 0.01, 0.01]),
        TimeBin::new(50.0, vec![0.01, 0.01, 0.01, 0.01, 0.08, 0.08]),
    ]);
    let outcomes = manager.run(&schedule).unwrap();
    for pair in outcomes.windows(2) {
        let before: usize = pair[0].plan.cached_chunks.iter().sum();
        let after: usize = pair[1].plan.cached_chunks.iter().sum();
        assert_eq!(
            before + pair[1].chunks_added() - pair[1].chunks_removed(),
            after,
            "chunk bookkeeping must balance across the boundary"
        );
    }
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

//! Table I + Fig. 5 — Evolution of cache content across three time bins.
//!
//! Ten files whose arrival rates follow Table I of the paper; the cache plan
//! is recomputed at every bin and the per-file cache occupancy is reported.
//! The paper observes that the files whose rates rise gain cache chunks and
//! the files whose rates drop lose them.
//!
//! One sweep cell per time bin. The schedule runs as a scenario
//! ([`ScenarioSpec::time_bins`]): bin 1 runs the optimized plan, and each
//! later bin the plan its `Reoptimize` swaps in, which
//! [`SproutSystem::replan`] solves both cold and warm from the plan in
//! force, keeping the better. Each cell compiles the schedule prefix up to
//! its bin — five cheap optimizations at most — and prices its bin's scheme
//! with [`SproutSystem::bound`] at the bin's rates, so the cells stay
//! independent (parallel, coordinate-seeded).
//!
//! Artifact: `FIG_05.json` — per bin, the latency bound and eviction/fill
//! counts as metrics plus the per-file rates and cache occupancy as series.

use crate::FigureCli;
use sprout::optimizer::OptimizerConfig;
use sprout::scenario::cache_transition;
use sprout::sim::sweep::{Sample, SweepGrid, SweepReport, SweepTimings};
use sprout::workload::timebins::table_i_schedule;
use sprout::{CachePolicy, ScenarioSpec, SproutSystem, SystemSpec};

/// The paper's published per-file rates (~1.5e-4/s) put negligible load on
/// the 12 servers when only 10 files exist, so — as in our EXPERIMENTS.md
/// note — rates are boosted 60x to recreate realistic contention while
/// keeping the *relative* Table I structure intact.
const RATE_BOOST: f64 = 60.0;
const CACHE_CHUNKS: usize = 12;

fn table_i_system() -> SproutSystem {
    let spec = SystemSpec::builder()
        .paper_servers()
        .uniform_files(10, 4, 7, 0.000_15)
        .cache_capacity_chunks(CACHE_CHUNKS)
        .seed(5)
        .build()
        .expect("valid spec");
    SproutSystem::new(spec).expect("valid system")
}

/// Runs the sweep and returns its report; the dispatcher adds the run meta
/// and writes the artifact.
pub fn run(cli: &FigureCli) -> (SweepReport, Option<SweepTimings>) {
    let schedule = table_i_schedule(100.0).scaled(RATE_BOOST);

    let grid = SweepGrid::named("fig05_cache_evolution", 5)
        .axis("bin", (1..=schedule.len()).map(|b| b.to_string()));
    let report = grid.run(
        cli.threads_or(FigureCli::available_threads()),
        |cell, _, _| {
            let bin: usize = cell.coord("bin").parse().expect("axis label");
            let prefix = schedule.truncated(bin);
            let bins = prefix.bins();
            let system = table_i_system();
            let first = system
                .with_arrival_rates(&bins[0].rates)
                .expect("one rate per file");
            let plan = first.optimize().expect("stable system");
            let scenario = ScenarioSpec::time_bins("table_i", &prefix)
                .compile(
                    &first,
                    CachePolicy::Functional,
                    Some(&plan),
                    &OptimizerConfig::default(),
                )
                .expect("every bin re-plans");
            let initial = first
                .cache_scheme(CachePolicy::Functional, Some(&plan))
                .expect("a functional plan is its own scheme");
            let schemes = std::iter::once(&initial).chain(scenario.swapped_schemes());
            let plans: Vec<_> = bins
                .iter()
                .zip(schemes)
                .map(|(timebin, scheme)| {
                    let system = system.with_arrival_rates(&timebin.rates);
                    let bound = system.and_then(|s| s.bound(scheme));
                    bound.expect("stable bin").expect("a planned scheme")
                })
                .collect();
            let current = plans.last().expect("at least one bin ran");
            let (evicted, added) = match plans.len() {
                1 => (0, 0),
                n => cache_transition(&plans[n - 2].cached_chunks, &current.cached_chunks),
            };
            Sample::new()
                .metric("latency_bound_s", current.objective)
                .metric("cache_used_chunks", current.cache_chunks_used() as f64)
                .metric("chunks_evicted", evicted as f64)
                .metric("chunks_added", added as f64)
                .series(
                    "arrival_rate_paper",
                    bins[bin - 1].rates.iter().map(|r| r / RATE_BOOST).collect(),
                )
                .series(
                    "cached_chunks",
                    current.cached_chunks.iter().map(|&c| c as f64).collect(),
                )
        },
    );

    let report = report
        .with_meta("cache_capacity_chunks", CACHE_CHUNKS.to_string())
        .with_meta("rate_boost", format!("{RATE_BOOST}"))
        .with_meta(
            "series",
            "arrival_rate_paper and cached_chunks are per-file (files 1..10)",
        )
        .with_note(
            "paper shape: bin 1 favours files 4 & 9; bin 2 favours 1, 2, 6, 7; bin 3 favours \
             2, 7 (and 9)",
        );
    (report, None)
}

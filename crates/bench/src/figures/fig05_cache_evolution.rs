//! Table I + Fig. 5 — Evolution of cache content across three time bins.
//!
//! Ten files whose arrival rates follow Table I of the paper; the cache plan
//! is recomputed at every bin and the per-file cache occupancy is reported.
//! The paper observes that the files whose rates rise gain cache chunks and
//! the files whose rates drop lose them.
//!
//! One sweep cell per time bin. Re-optimization warm-starts from the
//! previous bin's plan, so each cell replays the schedule prefix up to its
//! bin through [`TimeBinManager`] — three cheap optimizations at most, and
//! the cells stay independent (parallel, coordinate-seeded).
//!
//! Artifact: `FIG_05.json` — per bin, the latency bound and eviction/fill
//! counts as metrics plus the per-file rates and cache occupancy as series.

use crate::FigureCli;
use sprout::optimizer::OptimizerConfig;
use sprout::sim::sweep::{Sample, SweepGrid, SweepReport, SweepTimings};
use sprout::workload::timebins::table_i_schedule;
use sprout::{SproutSystem, SystemSpec, TimeBinManager};

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
            let manager = TimeBinManager::new(table_i_system(), OptimizerConfig::default());
            let outcomes = manager
                .run(&schedule.truncated(bin))
                .expect("stable system");
            let outcome = outcomes.last().expect("at least one bin ran");
            Sample::new()
                .metric("latency_bound_s", outcome.plan.objective)
                .metric("cache_used_chunks", outcome.plan.cache_chunks_used() as f64)
                .metric("chunks_evicted", outcome.chunks_removed() as f64)
                .metric("chunks_added", outcome.chunks_added() as f64)
                .series(
                    "arrival_rate_paper",
                    outcome.rates.iter().map(|r| r / RATE_BOOST).collect(),
                )
                .series(
                    "cached_chunks",
                    outcome
                        .plan
                        .cached_chunks
                        .iter()
                        .map(|&c| c as f64)
                        .collect(),
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

//! Fig. 4 — Average latency versus cache size.
//!
//! The paper sweeps the cache from 0 to 4000 chunks (4 chunks per file × 1000
//! files) and shows the average latency falling from ~23 s to 0 s as a convex,
//! diminishing-returns curve.
//!
//! One sweep cell per cache size (each optimized cold, in parallel).
//! Artifact: `FIG_04.json` — cache size (in paper chunks) against the
//! optimized mean latency bound.

use crate::{paper_system, scale_cache, FigureCli};
use sprout::optimizer::OptimizerConfig;
use sprout::sim::sweep::{Sample, SweepGrid, SweepReport, SweepTimings};

/// Runs the sweep and returns its report; the dispatcher adds the run meta
/// and writes the artifact.
pub fn run(cli: &FigureCli) -> (SweepReport, Option<SweepTimings>) {
    let sweep = [
        0usize, 250, 500, 750, 1000, 1500, 2000, 2500, 3000, 3500, 4000,
    ];

    let grid = SweepGrid::named("fig04_latency_vs_cache", 2016)
        .axis("cache_chunks_paper", sweep.iter().map(|c| c.to_string()));
    let config = OptimizerConfig::default();
    let report = grid.run(
        cli.threads_or(FigureCli::available_threads()),
        |cell, _, _| {
            let paper_c: usize = cell
                .coord("cache_chunks_paper")
                .parse()
                .expect("axis label");
            let cache = if paper_c == 0 {
                0
            } else {
                scale_cache(paper_c)
            };
            let plan = paper_system(cache)
                .optimize_with(&config)
                .expect("stable system");
            Sample::new().metric("latency_s", plan.objective)
        },
    );

    let series: Vec<f64> = report
        .rows
        .iter()
        .map(|row| row.metric("latency_s").expect("metric present").mean)
        .collect();
    let first = series.first().copied().unwrap_or(0.0);
    let last = series.last().copied().unwrap_or(0.0);
    let monotone = series.windows(2).all(|w| w[1] <= w[0] + 0.05);
    let report = report
        .with_note(
            "paper shape: ~23 s with no cache, 0 s once all 4 chunks of every file fit \
             (4000 chunks)",
        )
        .with_note(format!(
            "measured: {first:.2} s with no cache, {last:.2} s at full capacity"
        ))
        .with_note(format!("monotone non-increasing: {monotone}"));
    (report, None)
}

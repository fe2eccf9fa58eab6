//! Fig. 3 — Convergence of Algorithm 1 for different cache sizes.
//!
//! The paper runs its cache optimizer on 1000 files (100 MB, (7,4) code, 12
//! heterogeneous servers) for cache sizes C = 100..700 chunks of 25 MB and
//! plots the objective (average latency bound) per iteration; it converges
//! within 20 iterations at tolerance 0.01.
//!
//! One sweep cell per cache size, each optimizing cold from the default
//! start, so the whole axis runs in parallel. The paper's warm start from
//! the previous size is sequential and does not reach the same plans: at
//! 1000 files its bound is 0.04–1.37 % below cold for C = 200…700, with
//! different `d_i`.
//!
//! Artifact: `FIG_03.json` — per cache size, the iteration count and final
//! bound as metrics plus the full per-iteration objective trace as a series.

use crate::{paper_system, scale_cache, FigureCli};
use sprout::optimizer::OptimizerConfig;
use sprout::sim::sweep::{Sample, SweepGrid, SweepReport, SweepTimings};

/// Runs the sweep and returns its report; the dispatcher adds the run meta
/// and writes the artifact.
pub fn run(cli: &FigureCli) -> (SweepReport, SweepTimings) {
    let paper_sizes = [100usize, 200, 300, 400, 500, 600, 700];

    let grid = SweepGrid::named("fig03_convergence", 2016).axis(
        "cache_chunks_paper",
        paper_sizes.iter().map(|c| c.to_string()),
    );
    let config = OptimizerConfig::default();
    let (report, timings) = grid.run(
        cli.threads_or(FigureCli::available_threads()),
        |cell, _, _| {
            let paper_c: usize = cell
                .coord("cache_chunks_paper")
                .parse()
                .expect("axis label");
            let system = paper_system(scale_cache(paper_c));
            let plan = system
                .optimize_with(&config)
                .expect("the paper's simulation setup is stable");
            Sample::new()
                .metric("latency_bound_s", plan.objective)
                .metric("outer_iterations", plan.trace.outer_iterations() as f64)
                .series("objective_trace", plan.trace.outer_objectives.clone())
        },
    );

    let worst = report
        .rows
        .iter()
        .map(|row| row.metric("outer_iterations").expect("metric present").mean)
        .fold(0.0f64, f64::max);
    let report = report
        .with_meta(
            "objective",
            "mean latency bound (seconds); series = per-iteration objective",
        )
        .with_note("paper claim: convergence within 20 iterations (tolerance 0.01)")
        .with_note(format!("measured: worst case {worst:.0} iterations"));
    (report, timings)
}

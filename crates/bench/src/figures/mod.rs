//! The paper's evaluation as a table: one row per figure/table reproducer.
//!
//! Each row is keyed by the `"sweep"` name its artifact carries and points at
//! a `run` function that builds the sweep grid, executes it on the
//! work-stealing pool and returns the report (plus the wall-clock timing
//! side-channel for the rows that record one). The `sprout-bench` binary
//! walks this table — `list`, `all` and every per-figure invocation read it,
//! so there is no second list of figure names anywhere (CI included).

use sprout::sim::sweep::{SweepReport, SweepTimings};

use crate::FigureCli;

pub mod bench_coding;
pub mod bench_scenarios;
pub mod fig03_convergence;
pub mod fig04_latency_vs_cache;
pub mod fig05_cache_evolution;
pub mod fig06_placement_sensitivity;
pub mod fig07_chunk_scheduling;
pub mod fig09_service_time_cdf;
pub mod fig10_latency_vs_object_size;
pub mod fig11_latency_vs_load;
pub mod fig_churn;
pub mod tab05_cache_latency;

/// One row of the figure table.
#[derive(Debug)]
pub struct Figure {
    /// The row's name on the command line — the `"sweep"` name inside its
    /// artifact.
    pub name: &'static str,
    /// Default artifact path of a full-scale run (see
    /// [`FigureCli::artifact_path`] for `--out` and `--quick`).
    pub artifact: &'static str,
    /// Whether the instance size follows `SPROUT_SCALE`; such rows record
    /// the scale in their artifact's meta.
    pub scaled: bool,
    /// Runs the sweep.
    pub run: fn(&FigureCli) -> (SweepReport, Option<SweepTimings>),
}

/// Every reproducer, in the paper's order.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "fig03_convergence",
        artifact: "FIG_03.json",
        scaled: true,
        run: fig03_convergence::run,
    },
    Figure {
        name: "fig04_latency_vs_cache",
        artifact: "FIG_04.json",
        scaled: true,
        run: fig04_latency_vs_cache::run,
    },
    Figure {
        name: "fig05_cache_evolution",
        artifact: "FIG_05.json",
        scaled: false,
        run: fig05_cache_evolution::run,
    },
    Figure {
        name: "fig06_placement_sensitivity",
        artifact: "FIG_06.json",
        scaled: false,
        run: fig06_placement_sensitivity::run,
    },
    Figure {
        name: "fig07_chunk_scheduling",
        artifact: "FIG_07.json",
        scaled: true,
        run: fig07_chunk_scheduling::run,
    },
    Figure {
        name: "fig09_service_time_cdf",
        artifact: "FIG_09.json",
        scaled: false,
        run: fig09_service_time_cdf::run,
    },
    Figure {
        name: "fig10_latency_vs_object_size",
        artifact: "FIG_10.json",
        scaled: true,
        run: fig10_latency_vs_object_size::run,
    },
    Figure {
        name: "fig11_latency_vs_load",
        artifact: "FIG_11.json",
        scaled: true,
        run: fig11_latency_vs_load::run,
    },
    Figure {
        name: "fig_churn",
        artifact: "FIG_churn.json",
        scaled: true,
        run: fig_churn::run,
    },
    Figure {
        name: "tab05_cache_latency",
        artifact: "TAB_05.json",
        scaled: false,
        run: tab05_cache_latency::run,
    },
    Figure {
        name: "bench_scenarios",
        artifact: "BENCH_scenarios.json",
        scaled: true,
        run: bench_scenarios::run,
    },
    Figure {
        name: "bench_coding",
        artifact: "BENCH_coding.json",
        scaled: false,
        run: bench_coding::run,
    },
];

impl Figure {
    /// Runs the row and stamps the run meta every artifact starts with:
    /// `scale` (scaled rows only), then `quick`, then the row's own keys.
    pub fn run_with_meta(&self, cli: &FigureCli) -> (SweepReport, Option<SweepTimings>) {
        let (mut report, timings) = (self.run)(cli);
        let mut meta = Vec::with_capacity(report.meta.len() + 2);
        if self.scaled {
            let scale = if crate::paper_scale() {
                "paper"
            } else {
                "reduced"
            };
            meta.push(("scale".to_string(), scale.to_string()));
        }
        meta.push(("quick".to_string(), cli.quick.to_string()));
        meta.append(&mut report.meta);
        report.meta = meta;
        (report, timings)
    }
}

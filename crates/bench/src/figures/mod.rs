//! The paper's evaluation as a table: one row per figure/table reproducer.
//!
//! Each row is keyed by the `"sweep"` name its artifact carries and points at
//! a `run` function that builds the sweep grid, executes it on the
//! work-stealing pool and returns the report (plus the wall-clock timing
//! side-channel for the rows that record one). The `sprout-bench` binary
//! walks this table — `list`, `all` and every per-figure invocation read it,
//! so there is no second list of figure names anywhere (CI included).

use sprout::optimizer::OptimizerConfig;
use sprout::sim::sweep::{Sample, SweepReport, SweepTimings};
use sprout::sim::SimConfig;
use sprout::{CachePolicy, SproutSystem};

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

/// How figures 10 and 11 read their byte cells ([`policy_cell`]).
const BYTE_CELLS_NOTE: &str = "byte cells replay each point on the real erasure-coded store with \
     shrunk payloads: identical hit/miss decisions, every request decode-verified (their \
     latency_ms uses the shrunk-payload SSD cache model; the figure's numbers are the analytic \
     rows).";

/// One cell of the policy-comparison figures (10 and 11): plans `policy` on
/// `system`, simulates it — on the byte-accurate store when `byte_backend`,
/// where every completed request must decode-verify — and samples the mean
/// latency beside the paper's value (`paper` = (functional, LRU)) and the
/// policy's analytic bound, if [`SproutSystem::bound`] gives one.
fn policy_cell(
    system: &SproutSystem,
    policy: CachePolicy,
    config: SimConfig,
    byte_backend: bool,
    paper: (f64, f64),
) -> Sample {
    let plan = (policy == CachePolicy::Functional).then(|| {
        // Latencies span milliseconds to minutes across the cells, so
        // tighten the convergence tolerance relative to the paper's 0.01 s.
        let mut opt_config = OptimizerConfig::default();
        opt_config.tolerance = 1e-4;
        system.optimize_with(&opt_config).expect("stable system")
    });
    let sim = system.simulation(policy, plan.as_ref(), config);
    let report = if byte_backend {
        let mut backend = system
            .byte_backend(sim.scheme(), config.seed)
            .expect("every policy is byte-modelled");
        let report = sim.run_on(&mut backend);
        assert_eq!(
            report.reconstruction_failures, 0,
            "every completed request must decode-verify"
        );
        report
    } else {
        sim.run()
    };
    let mut sample = Sample::new()
        .metric("latency_ms", report.overall.mean * 1e3)
        .metric("paper_ms", if plan.is_some() { paper.0 } else { paper.1 })
        .counter("completed", report.completed_requests)
        .counter("cache_promotions", report.cache_promotions)
        .counter("cache_evictions", report.cache_evictions);
    if byte_backend {
        sample = sample.counter("reconstruction_failures", report.reconstruction_failures);
    }
    if let Ok(Some(bound)) = system.bound(sim.scheme()) {
        sample = sample.metric("analytic_bound_ms", bound.objective * 1e3);
    }
    sample
}

/// Mean relative latency reduction of functional caching over the LRU tier
/// across the analytic rows of every point on `axis`.
fn mean_gain_over_lru(report: &SweepReport, axis: &str) -> f64 {
    let latency = |point: &str, policy| {
        let row = report.find_row(&[(axis, point), ("policy", policy), ("backend", "analytic")]);
        Some(row?.metric("latency_ms")?.mean)
    };
    let points = report.axes.iter().find(|a| a.name == axis);
    let gains: Vec<f64> = (points.expect("a swept axis").values)
        .iter()
        .filter_map(|point| {
            let (functional, lru) = (latency(point, "functional")?, latency(point, "lru")?);
            (lru > 0.0).then(|| 1.0 - functional / lru)
        })
        .collect();
    gains.iter().sum::<f64>() / gains.len().max(1) as f64
}

//! Scenario-suite snapshot, emitted as `BENCH_scenarios.json`.
//!
//! Runs the streaming runtime through a small suite of dynamic scenarios on
//! the paper's §V-A system — steady state, mid-horizon node churn (analytic
//! *and* byte-accurate), and a flash crowd with an online re-optimization —
//! as one [`SimSweep`]: scenario × backend cells, each as R seeded
//! replications on the work-stealing pool, recording mean latency ± 95 % CI,
//! throughput counters and the event-queue/in-flight high-water marks (the
//! streaming-arrivals and pooled-allocation regression guards).
//!
//! The artifact is the determinism canary of the whole sweep subsystem: CI
//! runs this row with `--threads 1`, `2` and `4` and requires every JSON
//! file to be byte-identical to the single-thread reference.
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p sprout-bench -- bench_scenarios \
//!     [--quick] [--threads N] [--out PATH]
//! ```

use crate::{paper_system, scale_cache, FigureCli};
use sprout::sim::sweep::{SweepReport, SweepTimings};
use sprout::sim::SimConfig;
use sprout::{ScenarioActionSpec, ScenarioSpec, SimSweep, SproutSystem, SweepBackend};

fn churn(horizon: f64) -> ScenarioSpec {
    ScenarioSpec::named("node_churn")
        .at(horizon / 3.0, ScenarioActionSpec::NodeDown { node: 0 })
        .at(2.0 * horizon / 3.0, ScenarioActionSpec::NodeUp { node: 0 })
}

fn flash_crowd(system: &SproutSystem, horizon: f64) -> ScenarioSpec {
    // The ten hottest files double their arrival rate halfway through, and
    // the optimizer is re-run online against the new rates.
    let mut rates: Vec<f64> = system.spec().files.iter().map(|f| f.arrival_rate).collect();
    let mut hottest: Vec<usize> = (0..rates.len()).collect();
    hottest.sort_by(|&a, &b| rates[b].partial_cmp(&rates[a]).expect("rates are finite"));
    for &f in hottest.iter().take(10) {
        rates[f] *= 2.0;
    }
    ScenarioSpec::named("flash_crowd_reoptimize")
        .at(horizon / 2.0, ScenarioActionSpec::SetRates { rates })
        .at(horizon / 2.0, ScenarioActionSpec::Reoptimize)
}

/// Runs the sweep and returns its report; the dispatcher adds the run meta
/// and writes the artifact.
pub fn run(cli: &FigureCli) -> (SweepReport, Option<SweepTimings>) {
    let horizon = if cli.quick { 10_000.0 } else { 50_000.0 };
    let replications = if cli.quick { 4 } else { 8 };
    let byte_replications = if cli.quick { 2 } else { 4 };

    let system = paper_system(scale_cache(500));
    let sweep = SimSweep::new("bench_scenarios", &system, SimConfig::new(horizon, 2016))
        .scenarios(vec![
            ScenarioSpec::named("steady"),
            churn(horizon),
            flash_crowd(&system, horizon),
        ])
        .backends(vec![SweepBackend::Analytic, SweepBackend::Byte])
        // The paper spec declares 100 MB objects; storing real bytes at that
        // size would need ~20 GB, so the byte leg runs the same system shape
        // with 64 KiB objects — plans, placements and scheduling decisions are
        // size-independent, only the stored payloads shrink.
        .byte_object_bytes(64 * 1024)
        .replications(replications)
        .byte_replications(byte_replications);

    // Byte-accurate replications (with per-request decode verification) are
    // expensive, so the byte leg covers the node-churn scenario only.
    let cells: Vec<_> = sweep
        .cells()
        .into_iter()
        .filter(|c| c.coord("backend") == "analytic" || c.coord("scenario") == "node_churn")
        .collect();
    let (report, timings) = sweep
        .run_cells_timed(cells, cli.threads_or(FigureCli::available_threads()))
        .expect("the paper system is stable under every suite scenario");

    let spec = system.spec();
    let report = report
        .with_meta(
            "system",
            format!(
                "{} nodes, {} files, ({}, {}) code",
                spec.node_services.len(),
                spec.files.len(),
                spec.files[0].n,
                spec.files[0].k
            ),
        )
        .with_meta("horizon_s", format!("{horizon}"))
        .with_note(
            "byte cells decode-verify every completed request against the stored payloads; \
             reconstruction_failures must stay 0",
        );
    // The timing side-channel is written next to the artifact but never
    // committed or diffed — the JSON artifact itself stays byte-identical
    // across thread counts (the determinism canary above).
    (report, Some(timings))
}

//! `FIG_churn` — the placement-strategy zoo raced under node churn.
//!
//! Races every placement strategy (the paper's random placement groups,
//! consistent-hash ring, power-of-two-choices, XOR proximity and zone
//! anti-affinity) over the paper system while nodes fail and recover at
//! increasing churn rates. Each cell reports the simulated latency under
//! degraded reads plus the analytic rebalance cost (`rebalance_bytes`:
//! bytes the strategy would move to restore its preferred placement after
//! each membership change). Byte-backend cells decode-verify every
//! completed request against real stored bytes.
//!
//! ```text
//! cargo run --release -p sprout-bench -- fig_churn         # full grid
//! cargo run --release -p sprout-bench -- fig_churn --quick # CI-sized grid
//! ```
//!
//! The emitted `FIG_churn.json` is byte-identical for any `--threads` value
//! (cell seeds derive from grid coordinates, not worker schedule).

use crate::{paper_system, scale_cache, FigureCli};
use sprout::sim::sweep::{SweepReport, SweepTimings};
use sprout::sim::SimConfig;
use sprout::{PlacementChoice, ScenarioActionSpec, ScenarioSpec, SimSweep, SweepBackend};

/// A churn scenario with `cycles` non-overlapping down/up cycles: cycle `j`
/// takes node `j % num_nodes` down for the middle half of its slice of the
/// horizon, so at most one node is offline at a time and the (7, 4) code
/// always keeps a quorum.
fn churn(cycles: usize, num_nodes: usize, horizon: f64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::named(format!("churn{cycles}"));
    for j in 0..cycles {
        let node = j % num_nodes;
        let slice = horizon / cycles as f64;
        let start = j as f64 * slice;
        spec = spec
            .at(start + 0.25 * slice, ScenarioActionSpec::NodeDown { node })
            .at(start + 0.75 * slice, ScenarioActionSpec::NodeUp { node });
    }
    spec
}

/// Runs the sweep and returns its report; the dispatcher adds the run meta
/// and writes the artifact.
pub fn run(cli: &FigureCli) -> (SweepReport, Option<SweepTimings>) {
    let horizon = if cli.quick { 6_000.0 } else { 24_000.0 };
    let replications = if cli.quick { 2 } else { 4 };
    let byte_replications = if cli.quick { 1 } else { 2 };

    let system = paper_system(scale_cache(500));
    let num_nodes = system.spec().node_services.len();

    let sweep = SimSweep::new("fig_churn", &system, SimConfig::new(horizon, 2016))
        .scenarios(
            [0usize, 1, 2, 4]
                .into_iter()
                .map(|cycles| churn(cycles, num_nodes, horizon))
                .collect(),
        )
        .placements(vec![
            PlacementChoice::default(), // the paper baseline: random groups
            PlacementChoice::ConsistentHash { vnodes: 64 },
            PlacementChoice::TwoChoices,
            PlacementChoice::XorProximity,
            PlacementChoice::AntiAffinity { zones: 3 },
        ])
        .backends(vec![SweepBackend::Analytic, SweepBackend::Byte])
        // Byte cells store real coded payloads; 64 KiB objects keep the leg
        // affordable while plans, placements and scheduling stay identical
        // to the 100 MB shape (rebalance bytes are priced on the spec's
        // declared 100 MB files either way).
        .byte_object_bytes(64 * 1024)
        .replications(replications)
        .byte_replications(byte_replications);

    // Byte replications decode-verify every request, so the byte leg covers
    // the churn extremes only; the analytic leg runs the full grid.
    let cells: Vec<_> = sweep
        .cells()
        .into_iter()
        .filter(|c| {
            c.coord("backend") == "analytic"
                || c.coord("scenario") == "churn0"
                || c.coord("scenario") == "churn4"
        })
        .collect();
    let (report, timings) = sweep
        .run_cells_timed(cells, cli.threads_or(FigureCli::available_threads()))
        .expect("the paper system is stable under every churn scenario");

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
            "scenario churnN = N non-overlapping single-node down/up cycles; \
             rebalance_* metrics price the strategy's analytic re-placement response \
             to each membership change (the simulation itself serves degraded reads \
             from surviving chunks without moving data)",
        )
        .with_note(
            "byte cells decode-verify every completed request against the stored \
             payloads; reconstruction_failures must stay 0",
        );
    (report, Some(timings))
}

//! `paper-plan-sim`: the analytic and simulated layers. Builds the paper's
//! §V-A system, optimizes a functional-cache plan (Algorithm 1), then
//! samples the same system in the event-driven simulator. No serving code
//! runs here.

use std::time::Instant;

use sprout::optimizer::CachePlan;
use sprout::sim::{SimConfig, SimReport};
use sprout::workload::spec::{paper_server_service_rates, paper_simulation_rates, MB};
use sprout::{CachePolicyChoice, SproutSystem, SystemSpec};

use crate::stats::{median, most};
use crate::trace::Tracer;
use crate::Outcome;

/// Files of the reduced instance. The paper has 1000; per-file rates are
/// scaled by `1000 / FILES` so every node carries the paper's load.
const FILES: usize = 250;
const PAPER_FILES: usize = 1000;
/// Cache size in chunks: half a chunk per file, the paper's default ratio.
const CACHE_CHUNKS: usize = FILES / 2;
/// Seed of the paper's set-up (placement); `--seed` seeds the simulation.
const SPEC_SEED: u64 = 2016;
/// Simulated seconds per second of `--seconds` budget (≈ 140k requests).
const HORIZON_PER_BUDGET_S: f64 = 1.0e6;
const KEPT_REPS: usize = 3;
const WARMUP_SHARE: f64 = 0.5;

fn build_system() -> SproutSystem {
    let spec = SystemSpec::builder()
        .node_service_rates(&paper_server_service_rates())
        .paper_files(FILES, 7, 4, 100 * MB)
        .cache_capacity_chunks(CACHE_CHUNKS)
        .seed(SPEC_SEED)
        .build()
        .expect("the paper's set-up is a valid specification");
    let rates: Vec<f64> = paper_simulation_rates(FILES)
        .iter()
        .map(|r| r * (PAPER_FILES / FILES) as f64)
        .collect();
    SproutSystem::new(spec)
        .and_then(|system| system.with_arrival_rates(&rates))
        .expect("the paper's system builds")
}

/// One repetition: set-up (build + plan) then the timed simulation.
struct Rep {
    build_s: f64,
    optimize_s: f64,
    run_s: f64,
    plan: CachePlan,
    report: SimReport,
}

fn repetition(seed: u64, horizon: f64, tracer: &mut Tracer) -> Rep {
    let t = Instant::now();
    let (_, system) = tracer.span("core.system_build", None, 0, build_system);
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (_, plan) = tracer.span("optimizer.optimize", None, 0, || {
        system.optimize().expect("optimizer converges")
    });
    let optimize_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (_, report) = tracer.span("sim.run", None, 0, || {
        system.simulate_with_config(
            CachePolicyChoice::Functional,
            Some(&plan),
            SimConfig::new(horizon, seed),
        )
    });
    Rep {
        build_s,
        optimize_s,
        run_s: t.elapsed().as_secs_f64(),
        plan,
        report,
    }
}

/// Simulated arrivals, failures among them, and the violated invariants.
fn gate(rep: &Rep, outcome: &mut Outcome) {
    let r = &rep.report;
    let failed = r.failed_requests + r.reconstruction_failures;
    outcome.attempted += r.completed_requests + r.failed_requests;
    outcome.failed += failed;
    if failed != 0 {
        outcome.violations.push(format!(
            "sim: failed_requests {} + reconstruction_failures {}",
            r.failed_requests, r.reconstruction_failures
        ));
    }
    // The paper's claim: the analytic bound the plan minimises holds.
    if r.overall.mean > rep.plan.objective {
        outcome.violations.push(format!(
            "sim: simulated mean {} exceeds the analytic bound {}",
            r.overall.mean, rep.plan.objective
        ));
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool, spans_out: Option<&str>) -> Outcome {
    let horizon = HORIZON_PER_BUDGET_S * seconds;
    let mut tracer = Tracer::default();
    let mut outcome = Outcome::default();
    // The traced run keeps one repetition after the warm-up: its per-layer
    // numbers are single measurements, not bounded medians.
    let kept = if traced { 1 } else { KEPT_REPS };
    let mut reps = Vec::new();
    for rep in 0..=kept {
        let share = if rep == 0 { WARMUP_SHARE } else { 1.0 };
        let done = repetition(seed, horizon * share, &mut tracer);
        gate(&done, &mut outcome);
        if rep > 0 {
            reps.push(done);
        }
    }
    let last = reps.last().expect("at least one kept repetition");
    let each = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    let req_per_s = most(&each(|r| r.report.completed_requests as f64 / r.run_s));

    outcome.metrics = if traced {
        if let Some(path) = spans_out {
            if let Err(e) = tracer.write_json(path) {
                outcome
                    .violations
                    .push(format!("cannot write spans to {path}: {e}"));
            }
        }
        vec![
            ("core.system_build_s", last.build_s),
            ("optimizer.optimize_s", last.optimize_s),
            (
                "optimizer.gradient_iterations",
                last.plan.trace.gradient_iterations as f64,
            ),
            ("queueing.bound_s", last.plan.objective),
            ("sim.run_s", last.run_s),
            ("sim.req_per_s", req_per_s),
            ("sim.completed", last.report.completed_requests as f64),
            ("sim.peak_event_queue", last.report.peak_event_queue as f64),
            ("sim.peak_in_flight", last.report.peak_in_flight as f64),
            ("sim.full_cache_hits", last.report.full_cache_hits as f64),
            (
                "sim.mean_over_bound",
                last.report.overall.mean / last.plan.objective,
            ),
            (
                "fail_ratio",
                outcome.failed as f64 / outcome.attempted.max(1) as f64,
            ),
        ]
    } else {
        for (name, f) in [
            ("build_s", (|r| r.build_s) as fn(&Rep) -> f64),
            ("optimize_s", |r| r.optimize_s),
            ("run_s", |r| r.run_s),
        ] {
            println!("  {name} repetitions: {:?}", each(f));
        }
        vec![
            ("setup_s", median(&each(|r| r.build_s + r.optimize_s))),
            // An operation here is a simulated request: its latency is the
            // modelled one, in the simulator's virtual time.
            ("op_mean_us", last.report.overall.mean * 1e6),
            ("op_p95_us", last.report.overall.p95 * 1e6),
            ("sat_ops_per_s", req_per_s),
            ("model_mean_s", last.report.overall.mean),
            ("peak_rss_mb", crate::stats::peak_rss_mib()),
        ]
    };
    outcome
}

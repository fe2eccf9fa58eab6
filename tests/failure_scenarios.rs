//! Failure-scenario integration tests: a storage node goes down
//! mid-horizon. The byte-accurate backend must keep reconstructing objects
//! from the surviving chunks (degraded reads through the real erasure
//! decoder); the analytic backend must show the latency shift the lost
//! service capacity implies.

use sprout::optimizer::OptimizerConfig;
use sprout::{
    CachePolicy, ScenarioActionSpec, ScenarioSpec, SimSweep, SproutSystem, SweepBackend, SystemSpec,
};
use sprout_sim::{Scenario, SimConfig};

fn system(seed: u64) -> SproutSystem {
    let spec = SystemSpec::builder()
        .node_service_rates(&[0.6, 0.6, 0.5, 0.5, 0.4, 0.4])
        .uniform_files(6, 2, 4, 0.08)
        .cache_capacity_chunks(4)
        .seed(seed)
        .build()
        .unwrap();
    SproutSystem::new(spec).unwrap()
}

fn compile(spec: &ScenarioSpec, system: &SproutSystem, policy: CachePolicy) -> Scenario {
    let optimizer = OptimizerConfig::default();
    let plan = policy.is_planned().then(|| system.optimize().unwrap());
    spec.compile(system, policy, plan.as_ref(), &optimizer)
        .unwrap()
}

fn churn_spec(horizon: f64, node: usize) -> ScenarioSpec {
    ScenarioSpec::named("mid-horizon node churn")
        .at(horizon / 3.0, ScenarioActionSpec::NodeDown { node })
        .at(2.0 * horizon / 3.0, ScenarioActionSpec::NodeUp { node })
}

#[test]
fn degraded_reads_still_reconstruct_on_the_byte_backend() {
    let system = system(9);
    let plan = system.optimize().unwrap();
    let horizon = 15_000.0;
    let scenario = compile(&churn_spec(horizon, 0), &system, CachePolicy::Functional);
    let sim = system
        .simulation(
            CachePolicy::Functional,
            Some(&plan),
            SimConfig::new(horizon, 31),
        )
        .with_scenario(scenario);

    let mut backend = system.byte_backend(sim.scheme(), 31).unwrap();
    let report = sim.run_on(&mut backend);

    assert!(report.completed_requests > 500);
    assert_eq!(
        report.failed_requests, 0,
        "(4, 2) placements tolerate one failed node"
    );
    assert_eq!(
        report.reconstruction_failures, 0,
        "every degraded read must decode to the original bytes"
    );
    // The failed node really was avoided while down: it serves fewer chunks
    // than in an undisturbed run with the same seed.
    let undisturbed = system
        .simulation(
            CachePolicy::Functional,
            Some(&plan),
            SimConfig::new(horizon, 31),
        )
        .run();
    assert!(
        report.node_chunks_served[0] < undisturbed.node_chunks_served[0],
        "downed node served {} chunks vs {} undisturbed",
        report.node_chunks_served[0],
        undisturbed.node_chunks_served[0]
    );
}

#[test]
fn latency_shifts_as_expected_on_the_analytic_backend() {
    let system = system(9);
    let horizon = 30_000.0;
    let scenario = compile(&churn_spec(horizon, 0), &system, CachePolicy::None);
    let build = |with_failure: bool| {
        let sim = system.simulation(CachePolicy::None, None, SimConfig::new(horizon, 17));
        if with_failure {
            sim.with_scenario(scenario.clone())
        } else {
            sim
        }
    };
    let baseline = build(false).run();
    let degraded = build(true).run();

    assert_eq!(degraded.failed_requests, 0);
    assert!(
        degraded.overall.mean > baseline.overall.mean,
        "losing a node must raise mean latency: {} vs {}",
        degraded.overall.mean,
        baseline.overall.mean
    );
    // The surviving nodes absorb the displaced load.
    let displaced: u64 = baseline.node_chunks_served[0] - degraded.node_chunks_served[0];
    assert!(displaced > 0);
    let absorbed: i64 = (1..6)
        .map(|n| degraded.node_chunks_served[n] as i64 - baseline.node_chunks_served[n] as i64)
        .sum();
    assert!(
        absorbed > 0,
        "other nodes must pick up chunks the failed node lost"
    );
}

#[test]
fn reoptimization_after_a_rate_shift_recovers_cache_effectiveness() {
    let system = system(9);
    let plan = system.optimize().unwrap();
    let horizon = 20_000.0;
    // Halfway through, file 0 becomes 4x hotter (hotter still would tip the
    // optimizer's stability check); the scenario immediately re-runs the
    // optimizer against the new rates and swaps the plan in.
    let mut hot_rates: Vec<f64> = system.spec().files.iter().map(|f| f.arrival_rate).collect();
    hot_rates[0] *= 4.0;
    let spec = ScenarioSpec::named("flash crowd")
        .at(
            horizon / 2.0,
            ScenarioActionSpec::SetRates { rates: hot_rates },
        )
        .at(horizon / 2.0, ScenarioActionSpec::Reoptimize);
    let scenario = compile(&spec, &system, CachePolicy::Functional);
    let report = system
        .simulation(
            CachePolicy::Functional,
            Some(&plan),
            SimConfig::new(horizon, 13),
        )
        .with_scenario(scenario)
        .run();
    assert!(report.completed_requests > 500);
    assert_eq!(report.failed_requests, 0);
    // The swapped plan keeps latency bounded under the heavier load.
    assert!(report.overall.mean.is_finite());
    assert!(report.slots.cache_fraction() > 0.0, "cache stays in use");
}

#[test]
fn reoptimize_while_a_node_is_down_excludes_it_from_the_swapped_plan() {
    // Regression: `Reoptimize` used to hand Algorithm 1 the full node set
    // even when the event order left nodes down, so the swapped-in plan
    // scheduled reads onto failed nodes. The compiled plan must carry zero
    // scheduling probability on every node that is down at the reoptimize
    // point — and regain it after the node recovers.
    let system = system(9);
    let spec = ScenarioSpec::named("degraded reoptimize")
        .at(10.0, ScenarioActionSpec::NodeDown { node: 0 })
        .at(20.0, ScenarioActionSpec::Reoptimize)
        .at(30.0, ScenarioActionSpec::NodeUp { node: 0 })
        .at(40.0, ScenarioActionSpec::Reoptimize);
    let scenario = compile(&spec, &system, CachePolicy::Functional);

    let scheduling_of = |idx: usize| match &scenario.events()[idx].action {
        sprout_sim::ScenarioAction::SwapScheme {
            scheme: sprout_sim::CacheScheme::Functional(plan),
        } => plan.scheduling.clone(),
        other => panic!("expected a functional plan swap, got {other:?}"),
    };

    // The full-membership plan (what the buggy path produced) does schedule
    // reads on node 0, so this test fails without the exclusion.
    let full = system.optimize().unwrap();
    assert!(
        entries_on(&system, &full.scheduling, 0)
            .iter()
            .any(|&p| p > 1e-9),
        "node 0 carries load under full membership; the assertion below is vacuous otherwise"
    );

    let degraded = entries_on(&system, &scheduling_of(1), 0);
    assert!(!degraded.is_empty(), "node 0 hosts chunks of some file");
    assert!(
        degraded.iter().all(|&p| p == 0.0),
        "a file schedules reads onto the down node: {degraded:?}"
    );

    // After recovery the next reoptimize may use node 0 again.
    let recovered = entries_on(&system, &scheduling_of(3), 0);
    assert!(
        recovered.iter().any(|&p| p > 1e-9),
        "recovered node should carry load again"
    );
}

#[test]
fn reoptimize_changes_nothing_under_a_policy_without_a_plan() {
    // Regression: `Reoptimize` used to swap a functional plan into every
    // run, so a no-cache or LRU cell became a functional-cache cell at its
    // first re-optimization point. Both scenarios share one name, so every
    // cell runs on the same seeds and the reports must be identical.
    let system = system(9);
    let horizon = 10_000.0;
    let report = |scenario: ScenarioSpec| {
        SimSweep::new("unplanned", &system, SimConfig::new(horizon, 7))
            .scenarios(vec![scenario])
            .policies(vec![CachePolicy::None, CachePolicy::LruReplicated])
            .backends(vec![SweepBackend::Analytic, SweepBackend::Byte])
            .byte_object_bytes(4 * 1024)
            .run(2)
            .unwrap()
            .to_json()
    };
    let steady = ScenarioSpec::named("run");
    let reoptimized = steady
        .clone()
        .at(horizon / 2.0, ScenarioActionSpec::Reoptimize);
    assert_eq!(report(reoptimized), report(steady));
}

/// Each file's scheduling entry at `node`'s position in its placement, for
/// the files `node` hosts. Every row must align with its file's placement.
fn entries_on(system: &SproutSystem, rows: &[Vec<f64>], node: usize) -> Vec<f64> {
    let files = rows.iter().zip(system.placements());
    files
        .filter_map(|(row, placement)| {
            assert_eq!(row.len(), placement.len(), "rows align with placements");
            let position = placement.iter().position(|&n| n == node)?;
            Some(row[position])
        })
        .collect()
}

#[test]
fn replan_rejects_unreconstructible_files() {
    // (4, 2) code: a file keeps only 1 of 4 hosts when 3 of them fail —
    // fewer than k = 2, so the degraded model must be rejected, not solved.
    let system = system(9);
    let placement = system.placements()[0].clone();
    let down: Vec<usize> = placement[..3].to_vec();
    let err = system
        .replan(
            &OptimizerConfig::default(),
            Some(&system.optimize().unwrap()),
            &down,
        )
        .unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("needs k"), "unexpected error: {msg}");
}

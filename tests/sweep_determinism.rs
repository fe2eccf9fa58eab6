//! The sweep subsystem's headline guarantee, proven at the facade level:
//! a [`SweepReport`] serializes to **byte-identical JSON for any worker
//! count** — the work-stealing pool changes wall-clock time, never the
//! numbers — plus the empty-grid edge case.

use sprout::sim::SimConfig;
use sprout::{CachePolicy, ScenarioActionSpec, ScenarioSpec, SimSweep, SproutSystem, SystemSpec};

fn small_system() -> SproutSystem {
    let spec = SystemSpec::builder()
        .node_service_rates(&[0.6, 0.6, 0.45, 0.45, 0.3, 0.3])
        .uniform_files(6, 2, 4, 0.04)
        .cache_capacity_chunks(6)
        .seed(3)
        .build()
        .expect("valid spec");
    SproutSystem::new(spec).expect("valid system")
}

fn twelve_cell_sweep() -> SimSweep {
    // 2 scenarios × 2 policies × 3 cache sizes × 1 load × 1 backend
    // = 12 cells, 2 replications each (24 tasks on the pool).
    SimSweep::new(
        "determinism_guarantee",
        &small_system(),
        SimConfig::new(1_500.0, 42),
    )
    .scenarios(vec![
        ScenarioSpec::named("steady"),
        ScenarioSpec::named("churn")
            .at(400.0, ScenarioActionSpec::NodeDown { node: 0 })
            .at(1_100.0, ScenarioActionSpec::NodeUp { node: 0 }),
    ])
    .policies(vec![CachePolicy::Functional, CachePolicy::None])
    .cache_sizes(vec![2, 4, 6])
    .replications(2)
}

#[test]
fn twelve_cell_grid_is_bit_identical_for_one_and_four_workers() {
    let sweep = twelve_cell_sweep();
    assert_eq!(
        sweep.cells().len(),
        12,
        "the guarantee covers a ≥12-cell grid"
    );

    let serial = sweep.run(1).expect("stable system").0.to_json();
    let parallel = sweep.run(4).expect("stable system").0.to_json();
    assert_eq!(
        serial, parallel,
        "SweepReport JSON must be byte-identical for 1 vs 4 worker threads"
    );

    // The report really carries 12 populated rows, not a trivially-equal
    // empty document.
    let (report, _) = sweep.run(4).expect("stable system");
    assert_eq!(report.rows.len(), 12);
    for row in &report.rows {
        assert_eq!(row.replications, 2);
        assert!(row.counter("completed").expect("counter present") > 0);
        assert!(row.metric("mean_latency_s").expect("metric present").mean > 0.0);
    }
    // And an oversubscribed pool (more workers than tasks) changes nothing.
    assert_eq!(sweep.run(64).expect("stable system").0.to_json(), serial);
}

#[test]
fn empty_cell_list_yields_a_valid_empty_report() {
    let sweep = twelve_cell_sweep();
    let (report, _) = sweep.run_cells(Vec::new(), 4).expect("nothing can fail");
    assert!(report.rows.is_empty());
    let json = report.to_json();
    assert!(json.contains("\"sweep\": \"determinism_guarantee\""));
    assert!(
        json.contains("\"rows\": [\n  ]"),
        "rows array must stay valid JSON"
    );
}

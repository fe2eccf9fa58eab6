//! Every committed scenario file under `scenarios/` must load through the
//! real serde stack, compile onto its system, and run end to end — the same
//! contract the CI smoke leg enforces via `sprout-bench scenario --quick`.

use sprout::loader::RunSpec;
use std::path::PathBuf;

fn scenario_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("scenarios")
}

fn scenario_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(scenario_dir())
        .expect("scenarios/ exists at the workspace root")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    files.sort();
    files
}

#[test]
fn the_library_contains_the_six_committed_scenarios() {
    let names: Vec<String> = scenario_files()
        .iter()
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    for expected in [
        "cascading_failures",
        "churn_storm",
        "correlated_zone_failures",
        "diurnal_wave",
        "flash_crowd",
        "regional_outage",
    ] {
        assert!(names.contains(&expected.to_string()), "missing {expected}");
    }
}

#[test]
fn every_committed_scenario_loads_and_runs_quick() {
    for path in scenario_files() {
        let spec = RunSpec::load(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(!spec.name.is_empty(), "{}: empty name", path.display());

        let sweep = spec
            .to_sweep(true)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let report = sweep
            .run(2)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(!report.rows.is_empty(), "{}: no rows", path.display());
        for row in &report.rows {
            let latency = row.metric("mean_latency_s").expect("mean_latency_s metric");
            assert!(
                latency.mean.is_finite() && latency.mean > 0.0,
                "{}: cell {:?} reported latency {}",
                path.display(),
                row.coords,
                latency.mean
            );
        }
    }
}

//! `sprout-bench check <files>` — compares freshly generated
//! `SCENARIO_*.json` artifacts against the committed latency baselines in
//! `scenarios/BASELINES.json`.
//!
//! The committed scenario runs are seeded and advance virtual time, so a
//! `--quick` run of the same spec on any machine reproduces the same mean
//! latencies; a drift beyond the tolerance means the *code* changed the
//! numbers, not the runner. CI regenerates every artifact and runs this
//! checker; a deliberate model change re-records with `--update`.
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p sprout-bench -- check SCENARIO_a.json [SCENARIO_b.json ...] \
//!     [--baselines scenarios/BASELINES.json] [--update]
//! ```
//!
//! Exit status: `0` when every per-cell `mean_latency_s` is within
//! [`TOLERANCE`] (relative) of its baseline (or after a successful `--update`),
//! `1` on any drift, missing baseline, or malformed artifact.

use std::collections::BTreeMap;

use serde_json::Value;

const DEFAULT_BASELINES: &str = "scenarios/BASELINES.json";
/// Relative drift of a cell's mean latency that still counts as a match.
const TOLERANCE: f64 = 0.02;

/// scenario name -> (cell label -> mean_latency_s)
type Baselines = BTreeMap<String, BTreeMap<String, f64>>;

fn cell_label(cell: &Value) -> String {
    let Value::Object(map) = cell else {
        die("row cell is not an object")
    };
    // BTreeMap iteration is already key-sorted, so the label is canonical.
    map.iter()
        .map(|(k, v)| format!("{k}={}", v.as_str().unwrap_or("?")))
        .collect::<Vec<String>>()
        .join(",")
}

/// Extracts `(scenario name, cell -> mean_latency_s)` from one artifact.
fn read_artifact(path: &str) -> (String, BTreeMap<String, f64>) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let root: Value = serde_json::from_str(&text)
        .unwrap_or_else(|e| die(&format!("{path}: not valid JSON: {e}")));
    let name = root
        .get("sweep")
        .and_then(Value::as_str)
        .unwrap_or_else(|| die(&format!("{path}: missing \"sweep\" name")))
        .to_string();
    let rows = root
        .get("rows")
        .and_then(Value::as_array)
        .unwrap_or_else(|| die(&format!("{path}: missing \"rows\"")));
    let mut cells = BTreeMap::new();
    for row in rows {
        let mean = row
            .get("metrics")
            .and_then(|m| m.get("mean_latency_s"))
            .and_then(|m| m.get("mean"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| die(&format!("{path}: row without mean_latency_s")));
        let cell = row
            .get("cell")
            .unwrap_or_else(|| die(&format!("{path}: row without cell")));
        cells.insert(cell_label(cell), mean);
    }
    if cells.is_empty() {
        die(&format!("{path}: artifact has no rows"));
    }
    (name, cells)
}

/// The baselines file as `--update` writes it: two-space-indented JSON with
/// sorted keys and a trailing newline.
fn render(baselines: &Baselines) -> String {
    let root: Value = baselines
        .iter()
        .map(|(name, cells)| {
            let cells = cells
                .iter()
                .map(|(cell, &mean)| (cell.clone(), Value::from(mean)))
                .collect();
            (name.clone(), cells)
        })
        .collect();
    format!("{root:#}\n")
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// Runs the `check` subcommand on the arguments after its name.
pub fn run(args: Vec<String>) {
    let mut artifacts: Vec<String> = Vec::new();
    let mut baselines_path = DEFAULT_BASELINES.to_string();
    let mut update = false;

    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baselines" => {
                baselines_path = args
                    .next()
                    .unwrap_or_else(|| die("--baselines needs a path"));
            }
            "--update" => update = true,
            other if other.starts_with("--") => die(&format!("unknown flag {other}")),
            path => artifacts.push(path.to_string()),
        }
    }
    if artifacts.is_empty() {
        die("no SCENARIO_*.json artifacts given");
    }

    let fresh: Baselines = artifacts.iter().map(|path| read_artifact(path)).collect();

    if update {
        std::fs::write(&baselines_path, render(&fresh))
            .unwrap_or_else(|e| die(&format!("cannot write {baselines_path}: {e}")));
        println!(
            "recorded {} scenario baseline(s) to {baselines_path}",
            fresh.len()
        );
        return;
    }

    let text = std::fs::read_to_string(&baselines_path).unwrap_or_else(|e| {
        die(&format!(
            "cannot read {baselines_path}: {e} (run with --update to record)"
        ))
    });
    let committed: Baselines = serde_json::from_str(&text)
        .unwrap_or_else(|e| die(&format!("{baselines_path}: malformed: {e}")));

    let mut failures = 0usize;
    let mut checked = 0usize;
    for (name, cells) in &fresh {
        let Some(expected_cells) = committed.get(name) else {
            eprintln!("FAIL {name}: no committed baseline (run with --update)");
            failures += 1;
            continue;
        };
        for (cell, &mean) in cells {
            let Some(&expected) = expected_cells.get(cell) else {
                eprintln!("FAIL {name} [{cell}]: cell missing from baseline");
                failures += 1;
                continue;
            };
            checked += 1;
            let drift = (mean - expected).abs() / expected.abs().max(1e-12);
            if drift > TOLERANCE {
                eprintln!(
                    "FAIL {name} [{cell}]: mean_latency_s {mean:.6} vs baseline \
                     {expected:.6} (drift {:.2}% > {:.2}%)",
                    drift * 100.0,
                    TOLERANCE * 100.0
                );
                failures += 1;
            } else {
                println!(
                    "ok   {name} [{cell}]: {mean:.6} within {:.2}% of {expected:.6}",
                    TOLERANCE * 100.0
                );
            }
        }
    }

    if failures > 0 {
        eprintln!("{failures} baseline check(s) failed ({checked} compared)");
        std::process::exit(1);
    }
    println!("all {checked} scenario latency cell(s) match the committed baselines");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_reproduces_the_committed_baselines_byte_for_byte() {
        let committed = include_str!("../../../scenarios/BASELINES.json");
        let baselines: Baselines = serde_json::from_str(committed).unwrap();
        assert_eq!(render(&baselines), committed);
    }
}

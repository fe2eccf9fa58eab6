//! The repository's benchmark. One workload per invocation:
//!
//! ```sh
//! benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out PATH] [--spans PATH]
//! benchmark --list
//! benchmark --compare A.jsonl B.jsonl
//! ```
//!
//! `--trace 0` prints the end-to-end metrics (tracing off), `--trace 1` the
//! per-layer ones from a separate traced run. Every metric is printed by
//! name with its unit; the last line of standard output is one JSON object
//! `{correct, attempted, failed, metrics}`. Any correctness violation prints
//! its counter and makes the exit code non-zero. See README.md beside the
//! manifest for the load shape and what each number means.

mod compare;
mod load;
mod pin;
mod plansim;
mod serving;
mod spec;
mod stats;
mod trace;

use std::io::Write;
use std::process::ExitCode;

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Violated invariants, each with the counter that broke it.
    pub violations: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
}

/// Runs `workload` once; `None` for an unknown name.
fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    spans_out: Option<&str>,
) -> Option<Outcome> {
    if workload == "paper-plan-sim" {
        return Some(plansim::run(seed, seconds, traced, spans_out));
    }
    let shape = serving::SHAPES.iter().find(|s| s.name == workload)?;
    Some(if traced {
        serving::run_traced(shape, seed, seconds, spans_out)
    } else {
        serving::run_end_to_end(shape, seed, seconds)
    })
}

/// The metrics the contract asks for in this mode, in table order, as
/// `(name, unit, value)`. A per-layer metric the workload has no work for
/// reads 0; an end-to-end metric must always be measured.
fn contract_metrics(outcome: &Outcome, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
    let value_of = |name: &str| {
        outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    };
    if traced {
        spec::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, value_of(m.name).unwrap_or(0.0)))
            .collect()
    } else {
        spec::END_TO_END
            .iter()
            .map(|m| {
                let value = value_of(m.name)
                    .unwrap_or_else(|| panic!("end-to-end metric {} was not measured", m.name));
                (m.name, m.unit, value)
            })
            .collect()
    }
}

fn result_json(outcome: &Outcome, correct: bool, metrics: &[(&str, &str, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
    spans: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: benchmark --workload NAME --seed N --seconds S --trace 0|1 [--out PATH] [--spans PATH]\n       \
         benchmark --list\n       benchmark --compare A.jsonl B.jsonl"
    );
    std::process::exit(2);
}

fn parse_run_args(mut args: impl Iterator<Item = String>) -> Args {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        traced: false,
        out: None,
        spans: None,
    };
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => parsed.workload = value,
            "--seed" => parsed.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                parsed.seconds = value.parse().unwrap_or_else(|_| usage());
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    usage();
                }
            }
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out" => parsed.out = Some(value),
            "--spans" => parsed.spans = Some(value),
            _ => usage(),
        }
    }
    parsed
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    match args.peek().map(String::as_str) {
        Some("--list") => {
            spec::print_list();
            return ExitCode::SUCCESS;
        }
        Some("--compare") => {
            let (Some(a), Some(b)) = (args.nth(1), args.next()) else {
                usage()
            };
            return compare::run(&a, &b);
        }
        _ => {}
    }
    let args = parse_run_args(args);
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    let meta = format!(
        "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"simd_level\": \"{}\", \"kernel\": \"{}\", \"workers\": {}, \"available_parallelism\": {parallelism}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        sprout::gf::simd_level(),
        sprout::gf::Kernel::auto(),
        load::WORKERS,
    );
    println!("run {{{meta}}}");

    let Some(outcome) = run_workload(
        &args.workload,
        args.seed,
        args.seconds,
        args.traced,
        args.spans.as_deref(),
    ) else {
        eprintln!("unknown workload {:?}; see --list", args.workload);
        return ExitCode::from(2);
    };

    let metrics = contract_metrics(&outcome, args.traced);
    for (name, unit, value) in &metrics {
        println!("{name} {value} {unit}");
    }
    let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    if !finite {
        println!("VIOLATION a metric is not a finite number");
    }
    for violation in &outcome.violations {
        println!("VIOLATION {violation}");
    }
    let correct = outcome.violations.is_empty() && outcome.failed == 0 && finite;
    let result = result_json(&outcome, correct, &metrics);
    if let (true, Some(path)) = (correct, &args.out) {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| writeln!(file, "{{{meta}, \"result\": {result}}}"));
        if let Err(e) = appended {
            eprintln!("cannot append to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload runs green in both modes on a budget too short for its
    /// numbers to mean anything, and emits every metric its mode promises.
    #[test]
    fn every_workload_passes_its_own_gate_on_a_short_budget() {
        for workload in &spec::WORKLOADS {
            for traced in [false, true] {
                let outcome = run_workload(workload.name, 11, 0.5, traced, None)
                    .expect("listed workloads are runnable");
                assert_eq!(
                    outcome.violations,
                    Vec::<String>::new(),
                    "{} traced={traced}",
                    workload.name
                );
                assert_eq!(outcome.failed, 0, "{}", workload.name);
                assert!(outcome.attempted >= 1, "{}", workload.name);
                let metrics = contract_metrics(&outcome, traced);
                assert!(metrics.iter().all(|(_, _, v)| v.is_finite()));
                // Every emitted name is one the tables know.
                let known: Vec<&str> = metrics.iter().map(|m| m.0).collect();
                for (name, _) in &outcome.metrics {
                    assert!(known.contains(name), "{name} is not in the tables");
                }
                if !traced {
                    assert!(metrics.iter().all(|(_, _, v)| *v != 0.0), "{metrics:?}");
                }
                let json: serde_json::Value =
                    serde_json::from_str(&result_json(&outcome, true, &metrics))
                        .expect("the result line is JSON");
                assert_eq!(
                    json.get("attempted").and_then(serde_json::Value::as_u64),
                    Some(outcome.attempted)
                );
            }
        }
        assert!(run_workload("no-such-workload", 1, 0.5, false, None).is_none());
    }
}

//! `sprout-bench fuzz` — the seeded scenario fuzzer's CI entry point.
//!
//! Generates bounded random systems + event streams with
//! [`sprout::ScenarioFuzzer`] and checks every engine invariant on each one:
//! event-queue and in-flight high-water bounds (on the analytic and the
//! byte run of each case), byte-backend/analytic agreement on every
//! decision (LRU promotions and evictions included), and decode
//! verification of every completed request. Any violation prints the case
//! seed (replay it with `--seed <that seed> --iterations 1`) and exits
//! non-zero.
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p sprout-bench -- fuzz [--iterations N] [--seed S]
//! ```
//!
//! `--iterations` defaults to 50 and `--seed` (decimal or `0x`-prefixed hex)
//! to [`sprout::fuzz::DEFAULT_BASE_SEED`]; CI passes both, so a CI failure
//! reproduces locally with the same command line.

use sprout::fuzz::{ScenarioFuzzer, DEFAULT_BASE_SEED};

fn parse_seed(value: &str) -> Option<u64> {
    match value
        .strip_prefix("0x")
        .or_else(|| value.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => value.parse().ok(),
    }
}

/// Runs the `fuzz` subcommand on the arguments after its name.
pub fn run(args: Vec<String>) {
    let mut iterations = 50usize;
    let mut base_seed = DEFAULT_BASE_SEED;

    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value_of = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--iterations" => {
                let value = value_of("--iterations");
                iterations = value.parse().unwrap_or_else(|_| {
                    eprintln!("error: --iterations expects a number, got '{value}'");
                    std::process::exit(2);
                });
            }
            "--seed" => {
                let value = value_of("--seed");
                base_seed = parse_seed(&value).unwrap_or_else(|| {
                    eprintln!("error: --seed expects a u64 (decimal or 0x hex), got '{value}'");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument '{other}' (supported: --iterations N, --seed S)");
                std::process::exit(2);
            }
        }
    }

    println!("# fuzz: {iterations} iterations, base seed {base_seed:#018x}");
    let fuzzer = ScenarioFuzzer::new(base_seed);
    let mut total_completed = 0u64;
    let mut total_failed = 0u64;
    let mut total_events = 0usize;
    for index in 0..iterations {
        let case = fuzzer.case(index);
        match ScenarioFuzzer::run_case(&case) {
            Ok(stats) => {
                println!(
                    "case {index:>4} seed {seed:#018x}: ok ({nodes} nodes, {files} files, \
                     ({n},{k}) code, {events} events, {completed} completed)",
                    seed = case.seed,
                    nodes = case.spec.node_services.len(),
                    files = case.spec.files.len(),
                    n = case.spec.files[0].n,
                    k = case.spec.files[0].k,
                    events = stats.events,
                    completed = stats.completed,
                );
                total_completed += stats.completed;
                total_failed += stats.failed;
                total_events += stats.events;
            }
            Err(failure) => {
                eprintln!("case {index} FAILED: {failure}");
                eprintln!(
                    "replay: sprout-bench fuzz --seed {:#x} --iterations {}",
                    base_seed,
                    index + 1
                );
                std::process::exit(1);
            }
        }
    }
    println!(
        "# all {iterations} cases passed: {total_completed} completed requests, \
         {total_failed} scheduled-while-down failures, {total_events} scenario events"
    );
}

//! `sprout-bench scenario <file>` — runs one committed scenario file end to
//! end and emits its sweep artifact.
//!
//! This is the CI smoke leg for the `scenarios/` library: every file under
//! `scenarios/` must load through the real serde stack, compile onto its
//! system, and run — `scenario scenarios/<name>.toml --quick` proves it
//! in seconds. Without `--quick` the scenario runs at its full declared
//! horizon, which is how the committed specs are meant to be studied.
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p sprout-bench -- scenario \
//!     scenarios/flash_crowd.toml [--quick] [--threads N] [--out PATH]
//! ```
//!
//! The artifact defaults to `SCENARIO_<name>.json` in the working directory
//! (`SCENARIO_<name>.quick.json` with `--quick`); exit status is non-zero on any load, validation, or run error
//! so CI fails loudly on a broken spec.

use sprout::loader::RunSpec;
use sprout_bench::{emit_with_timings, FigureCli};

/// Runs the `scenario` subcommand on the arguments after its name.
pub fn run(mut args: Vec<String>) {
    let path = match args.first() {
        Some(first) if !first.starts_with("--") => args.remove(0),
        _ => {
            eprintln!(
                "usage: sprout-bench scenario <scenario.toml|.json> [--quick] [--threads N] [--out PATH]"
            );
            std::process::exit(2);
        }
    };
    let cli = FigureCli::from_args(args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });

    let spec = RunSpec::load(&path).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let sweep = spec.to_sweep(cli.quick).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

    let (report, timings) = sweep
        .run_timed(cli.threads_or(FigureCli::available_threads()))
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
    let report = report
        .with_meta("scenario_file", path.as_str())
        .with_meta("quick", cli.quick.to_string());

    let default_out = format!("SCENARIO_{}.json", spec.name);
    emit_with_timings(&report, &timings, &cli.artifact_path(&default_out));
}

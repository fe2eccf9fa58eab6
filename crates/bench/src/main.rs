//! `sprout-bench` — the one experiment binary.
//!
//! ```sh
//! cargo run --release -p sprout-bench -- list
//! cargo run --release -p sprout-bench -- <name>… | all \
//!     [--quick] [--threads N] [--out PATH]
//! cargo run --release -p sprout-bench -- scenario <file> [--quick] [--threads N] [--out PATH]
//! cargo run --release -p sprout-bench -- fuzz [--iterations N] [--seed S]
//! cargo run --release -p sprout-bench -- check <files>… [--baselines PATH] [--update]
//! ```
//!
//! Figure names are the rows of [`FIGURES`]; each selected row runs through
//! the shared harness and writes its artifact to the row's default path
//! (`<stem>.quick.json` under `--quick`) or to `--out`.

#![forbid(unsafe_code)]

mod check;
mod fuzz;
mod scenario;

use sprout_bench::figures::{Figure, FIGURES};
use sprout_bench::{emit, FigureCli};

/// The `list` output: one `name<TAB>default artifact` line per table row.
fn list() -> String {
    FIGURES
        .iter()
        .map(|fig| format!("{}\t{}\n", fig.name, fig.artifact))
        .collect()
}

/// Resolves figure names to table rows; `all` alone selects every row.
fn select(names: &[String]) -> Result<Vec<&'static Figure>, String> {
    if names == ["all"] {
        return Ok(FIGURES.iter().collect());
    }
    names
        .iter()
        .map(|name| {
            FIGURES.iter().find(|fig| fig.name == name).ok_or_else(|| {
                let valid: Vec<&str> = FIGURES.iter().map(|fig| fig.name).collect();
                format!(
                    "unknown figure '{name}' (valid: {}; or all, list, scenario, fuzz, check)",
                    valid.join(", ")
                )
            })
        })
        .collect()
}

/// Runs the figures named by the leading positional arguments with the
/// common flags that follow them.
fn run_figures(mut args: Vec<String>) -> Result<(), String> {
    let flags = args.split_off(
        args.iter()
            .position(|arg| arg.starts_with("--"))
            .unwrap_or(args.len()),
    );
    let figures = select(&args)?;
    let cli = FigureCli::from_args(flags)?;
    if cli.out.is_some() && figures.len() > 1 {
        return Err(format!(
            "--out names one file but {} figures are selected; run them one at a time or drop --out",
            figures.len()
        ));
    }
    for fig in figures {
        let (report, timings) = fig.run_with_meta(&cli);
        emit(&report, &timings, &cli.artifact_path(fig.artifact));
    }
    Ok(())
}

fn run(mut args: Vec<String>) -> Result<(), String> {
    let Some(first) = args.first().cloned() else {
        return Err(
            "usage: sprout-bench <figure>… | all | list | scenario <file> | fuzz | check <files>… \
             (see `sprout-bench list` for the figure names)"
                .to_string(),
        );
    };
    match first.as_str() {
        "list" => print!("{}", list()),
        "scenario" => scenario::run(args.split_off(1)),
        "fuzz" => fuzz::run(args.split_off(1)),
        "check" => check::run(args.split_off(1)),
        _ => run_figures(args)?,
    }
    Ok(())
}

fn main() {
    if let Err(msg) = run(std::env::args().skip(1).collect()) {
        eprintln!("error: {msg}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn table_names_and_default_artifacts_are_unique() {
        let names: HashSet<&str> = FIGURES.iter().map(|fig| fig.name).collect();
        let artifacts: HashSet<&str> = FIGURES.iter().map(|fig| fig.artifact).collect();
        assert_eq!(names.len(), FIGURES.len());
        assert_eq!(artifacts.len(), FIGURES.len());
        for reserved in ["all", "list", "scenario", "fuzz", "check"] {
            assert!(!names.contains(reserved), "{reserved} is a subcommand");
        }
    }

    #[test]
    fn list_prints_exactly_the_table() {
        let listed = list();
        let lines: Vec<&str> = listed.lines().collect();
        assert_eq!(lines.len(), FIGURES.len());
        for (line, fig) in lines.iter().zip(FIGURES) {
            assert_eq!(*line, format!("{}\t{}", fig.name, fig.artifact));
        }
    }

    #[test]
    fn all_selects_every_row_and_names_select_their_rows() {
        let all = select(&args(&["all"])).expect("all is valid");
        assert_eq!(all.len(), FIGURES.len());
        let two = select(&args(&["fig_churn", "fig03_convergence"])).expect("both are rows");
        let names: Vec<&str> = two.iter().map(|fig| fig.name).collect();
        assert_eq!(names, ["fig_churn", "fig03_convergence"]);
    }

    #[test]
    fn an_unknown_name_is_an_error_naming_the_valid_ones() {
        let err = run(args(&["fig99_nope", "--quick"])).expect_err("no such row");
        assert!(err.contains("'fig99_nope'"), "{err}");
        for fig in FIGURES {
            assert!(err.contains(fig.name), "{err} should name {}", fig.name);
        }
        assert!(run(Vec::new()).is_err(), "no arguments is a usage error");
    }

    #[test]
    fn a_bad_flag_is_an_error_before_anything_runs() {
        let err = run(args(&["fig03_convergence", "--help"])).expect_err("no such flag");
        assert!(err.contains("unknown argument '--help'"), "{err}");
        let err = run(args(&["fig03_convergence", "--threads"])).expect_err("no value");
        assert!(err.contains("--threads"), "{err}");
        let err = run(args(&["fig03_convergence", "--quick", "--out"])).expect_err("no path");
        assert!(err.contains("--out"), "{err}");
    }

    #[test]
    fn out_with_two_figures_is_rejected_before_anything_runs() {
        let err = run(args(&[
            "tab05_cache_latency",
            "fig09_service_time_cdf",
            "--out",
            "x.json",
        ]))
        .expect_err("one path cannot hold two artifacts");
        assert!(err.contains("--out"), "{err}");
        assert!(run(args(&["all", "--quick", "--out", "x.json"])).is_err());
        assert!(!std::path::Path::new("x.json").exists());
    }

    #[test]
    fn the_dispatcher_writes_the_bytes_the_row_function_returns() {
        let dir = std::env::temp_dir().join("sprout_bench_dispatch_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("tab05.json");
        let out = out.to_str().unwrap();
        run(args(&["tab05_cache_latency", "--out", out])).expect("the row runs");

        let cli = FigureCli::from_args(args(&["--out", out])).expect("valid flags");
        let (mut direct, _) = sprout_bench::figures::tab05_cache_latency::run(&cli);
        // Every row writes its wall-clock side-channel beside the artifact.
        assert!(dir.join("tab05.timing.json").exists());
        direct
            .meta
            .insert(0, ("quick".to_string(), "false".to_string()));
        assert_eq!(std::fs::read_to_string(out).unwrap(), direct.to_json());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

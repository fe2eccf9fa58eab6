//! The shared CLI + artifact harness of the figure/table reproducers.
//!
//! Every row of [`FIGURES`](crate::figures::FIGURES) is one `SweepGrid` (or
//! [`SimSweep`](sprout::SimSweep)) plus a cell task; this module supplies the
//! parts they share:
//!
//! * [`FigureCli`] — the common flags `--quick`, `--threads N`,
//!   `--out PATH` (plus the `SPROUT_SCALE=paper` environment switch the suite
//!   has always honoured), and [`FigureCli::artifact_path`], the one place
//!   that decides where an artifact lands.
//! * [`emit`] — writes the [`SweepReport`] JSON artifact and its
//!   [`SweepTimings`] side-channel, and prints a human-readable table of the
//!   same rows to stdout.
//!
//! The JSON artifact is the machine-readable record CI uploads and diffs; it
//! contains nothing scheduling-dependent, so running the same figure with
//! different `--threads` values must produce byte-identical files.

use sprout::sim::sweep::{SweepReport, SweepTimings};

/// Parsed common command-line flags of a figure run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FigureCli {
    /// `--quick`: shrink horizons/replications to CI smoke scale (artifact
    /// shape is unchanged).
    pub quick: bool,
    /// `--threads N`: worker count for the sweep pool (results never depend
    /// on it). `None` when not given; see [`FigureCli::threads_or`].
    pub threads: Option<usize>,
    /// `--out PATH`: where to write the JSON artifact. `None` means the
    /// figure's default (see [`FigureCli::artifact_path`]).
    pub out: Option<String>,
}

impl FigureCli {
    /// Parses an explicit argument list.
    ///
    /// # Errors
    ///
    /// Returns a usage message for an unknown argument (`--help` included)
    /// and for a missing or malformed `--threads` / `--out` value, so a
    /// typo'd invocation cannot silently run the wrong experiment.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut cli = FigureCli {
            quick: false,
            threads: None,
            out: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => cli.quick = true,
                "--threads" => {
                    let value = args.next().ok_or("--threads requires a value")?;
                    match value.parse() {
                        Ok(0) => return Err("--threads must be at least 1".into()),
                        Ok(threads) => cli.threads = Some(threads),
                        Err(_) => return Err(format!("--threads expects a number, got '{value}'")),
                    }
                }
                "--out" => cli.out = Some(args.next().ok_or("--out requires a path")?),
                other => {
                    return Err(format!(
                        "unknown argument '{other}' (supported: --quick, --threads N, --out PATH)"
                    ))
                }
            }
        }
        Ok(cli)
    }

    /// The worker count to use: the `--threads` flag, or `default` when the
    /// flag is absent. Timing-sensitive benchmarks pass 1; simulation sweeps
    /// pass [`FigureCli::available_threads`].
    pub fn threads_or(&self, default: usize) -> usize {
        self.threads.unwrap_or(default).max(1)
    }

    /// The machine's available parallelism (the default for simulation and
    /// optimization sweeps, whose results are thread-count-invariant).
    pub fn available_threads() -> usize {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    }

    /// The artifact path: the `--out` flag, else the figure's default — on a
    /// `--quick` run `<stem>.quick.json`, so a smoke run never overwrites the
    /// full-scale artifact of the same figure (three of which are committed
    /// and `cmp`-checked by CI).
    pub fn artifact_path(&self, default: &str) -> String {
        match (&self.out, self.quick) {
            (Some(out), _) => out.clone(),
            (None, false) => default.to_string(),
            (None, true) => match default.strip_suffix(".json") {
                Some(stem) => format!("{stem}.quick.json"),
                None => format!("{default}.quick.json"),
            },
        }
    }
}

/// Writes the report's JSON artifact to `out_path` and prints the rows as a
/// tab-separated table (axes, then metric means) with the notes as trailing
/// `#` comment lines — the format the original reproducers printed, now
/// derived from the same structured report CI consumes. The wall-clock
/// [`SweepTimings`] side-channel goes next to the artifact (see
/// [`timing_path`]), with a slowest-cells summary on stderr.
///
/// # Panics
///
/// Panics if either artifact cannot be written.
pub fn emit(report: &SweepReport, timings: &SweepTimings, out_path: &str) {
    std::fs::write(out_path, report.to_json())
        .unwrap_or_else(|e| panic!("failed to write {out_path}: {e}"));

    println!("# {}", report.name);
    for (key, value) in &report.meta {
        println!("# {key}: {value}");
    }
    if let Some(first) = report.rows.first() {
        // Metric columns are the first-seen-ordered union across rows (rows
        // may differ, e.g. only functional-policy cells carry the analytic
        // bound), and every row prints by column name so the table stays
        // rectangular — absent metrics print as "-".
        let mut metric_columns: Vec<String> = Vec::new();
        for row in &report.rows {
            for (name, _) in &row.metrics {
                if !metric_columns.contains(name) {
                    metric_columns.push(name.clone());
                }
            }
        }
        let mut columns: Vec<String> = first.coords.iter().map(|(axis, _)| axis.clone()).collect();
        columns.extend(metric_columns.iter().cloned());
        println!("{}", columns.join("\t"));
        for row in &report.rows {
            let mut fields: Vec<String> =
                row.coords.iter().map(|(_, value)| value.clone()).collect();
            fields.extend(metric_columns.iter().map(|name| {
                row.metric(name)
                    .map_or_else(|| "-".to_string(), |m| format!("{:.6}", m.mean))
            }));
            println!("{}", fields.join("\t"));
        }
    }
    for note in &report.notes {
        println!("# {note}");
    }
    eprintln!("wrote {out_path}");
    let timing_out = timing_path(out_path);
    std::fs::write(&timing_out, timings.to_json())
        .unwrap_or_else(|e| panic!("failed to write {timing_out}: {e}"));
    eprintln!("{}", timings.summary(5));
    eprintln!("wrote {timing_out}");
}

/// The side-channel artifact path for a figure artifact: `FIG_10.json` →
/// `FIG_10.timing.json`. Timing artifacts are never committed or diffed
/// (wall times differ run to run); CI uploads them next to the figure JSONs
/// so slow cells stay visible.
pub fn timing_path(out_path: &str) -> String {
    match out_path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.timing.json"),
        None => format!("{out_path}.timing.json"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> impl Iterator<Item = String> + use<> {
        list.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    fn parse(list: &[&str]) -> FigureCli {
        FigureCli::from_args(args(list)).expect("valid flags")
    }

    #[test]
    fn parses_the_common_flags() {
        let cli = parse(&[]);
        assert_eq!(
            cli,
            FigureCli {
                quick: false,
                threads: None,
                out: None
            }
        );
        let cli = parse(&["--quick", "--threads", "4", "--out", "x.json"]);
        assert!(cli.quick);
        assert_eq!(cli.threads, Some(4));
        assert_eq!(cli.out.as_deref(), Some("x.json"));
        assert_eq!(cli.threads_or(8), 4);
        assert_eq!(cli.artifact_path("default.json"), "x.json");
        let cli = parse(&["--threads", "2"]);
        assert_eq!(cli.threads_or(8), 2);
        assert_eq!(cli.artifact_path("default.json"), "default.json");
    }

    #[test]
    fn a_quick_run_defaults_to_a_quick_artifact_path() {
        let cli = parse(&["--quick"]);
        assert_eq!(cli.threads_or(8), 8);
        assert_eq!(
            cli.artifact_path("BENCH_scenarios.json"),
            "BENCH_scenarios.quick.json"
        );
        assert_eq!(
            timing_path(&cli.artifact_path("FIG_churn.json")),
            "FIG_churn.quick.timing.json"
        );
        let cli = parse(&["--quick", "--out", "x.json"]);
        assert_eq!(cli.artifact_path("FIG_churn.json"), "x.json");
    }

    fn parse_err(list: &[&str]) -> String {
        FigureCli::from_args(args(list)).expect_err("invalid flags")
    }

    #[test]
    fn an_unknown_argument_is_an_error() {
        for flag in ["--qick", "--help"] {
            let err = parse_err(&["--quick", flag]);
            assert!(err.contains(&format!("unknown argument '{flag}'")), "{err}");
            assert!(err.contains("--threads N"), "{err} should name the flags");
        }
    }

    #[test]
    fn a_missing_or_malformed_value_is_an_error() {
        assert!(parse_err(&["--threads", "many"]).contains("expects a number"));
        assert!(parse_err(&["--threads", "0"]).contains("at least 1"));
        assert!(parse_err(&["--threads"]).contains("requires a value"));
        assert!(parse_err(&["--out"]).contains("requires a path"));
    }

    #[test]
    fn emit_writes_the_artifact_and_prints_rows() {
        use sprout::sim::sweep::{Sample, SweepGrid};
        let grid = SweepGrid::named("emit_test", 1).axis("x", ["a", "b"]);
        let (report, timings) = grid.run(2, |cell, _, _| {
            Sample::new().metric("value", cell.idx("x") as f64)
        });
        let report = report.with_note("a note");
        let dir = std::env::temp_dir().join("sprout_harness_emit_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        emit(&report, &timings, path.to_str().unwrap());
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(written, report.to_json());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn timing_paths_derive_from_the_artifact_path() {
        assert_eq!(timing_path("FIG_10.json"), "FIG_10.timing.json");
        assert_eq!(timing_path("out/custom"), "out/custom.timing.json");
    }

    #[test]
    fn emit_with_timings_writes_the_side_channel() {
        use sprout::sim::sweep::{Sample, SweepGrid};
        let grid = SweepGrid::named("emit_timed_test", 1).axis("x", ["a", "b"]);
        let (report, timings) = grid.run(2, |cell, _, _| {
            Sample::new().metric("value", cell.idx("x") as f64)
        });
        let dir = std::env::temp_dir().join("sprout_harness_emit_timed_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        emit(&report, &timings, path.to_str().unwrap());
        let timing_json = std::fs::read_to_string(dir.join("report.timing.json")).unwrap();
        assert_eq!(timing_json, timings.to_json());
        assert!(timing_json.contains("\"wall_s\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! Loading declarative run specifications (scenario files) from TOML/JSON.
//!
//! A *scenario file* is one self-contained experiment: the system to build
//! (`[system]` knobs), how long to simulate it (`[sim]`), what happens along
//! the way (`[scenario]` — a [`ScenarioSpec`]), and optionally which axes to
//! sweep (`[sweep]`) or which CSV request trace to replay (`[trace]`). The
//! committed library under `scenarios/` at the workspace root holds one TOML
//! file per named scenario; `cargo run -p sprout-bench -- scenario <file>`
//! executes one end to end.
//!
//! Files are read (never written) through the vendored serde stack: `.toml`
//! files parse with the `toml` crate, `.json` files with `serde_json`,
//! chosen by file extension in [`RunSpec::load`]. Unknown keys are rejected
//! (the derive layer treats them as typed errors), so a typo'd knob fails
//! the load instead of silently running the default experiment.

use serde::Deserialize;
use std::fmt;
use std::path::Path;

use crate::error::SproutError;
use crate::scenario::ScenarioSpec;
use crate::spec::{SystemSpec, SystemSpecBuilder};
use crate::sweep::{SimSweep, SweepBackend};
use crate::system::SproutSystem;
use sprout_cluster::{CachePolicy, PlacementChoice};
use sprout_sim::SimConfig;
use sprout_workload::spec::MB;

/// A typed error from loading a run specification.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadError {
    /// The file could not be read.
    Io {
        /// The path that failed.
        path: String,
        /// The I/O error, stringified (keeps the error `Clone`).
        message: String,
    },
    /// The file extension is neither `.toml` nor `.json`.
    UnsupportedFormat {
        /// The offending path.
        path: String,
    },
    /// The bytes did not parse as the expected format, or parsed into an
    /// unknown/mis-typed field. Carries the parser's positioned message.
    Parse {
        /// The path (or `"<string>"` for in-memory sources).
        path: String,
        /// The format-crate error message, with line/column when available.
        message: String,
    },
    /// The file parsed but describes an invalid system or scenario.
    Invalid(SproutError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io { path, message } => write!(f, "failed to read {path}: {message}"),
            LoadError::UnsupportedFormat { path } => {
                write!(f, "{path}: unsupported extension (expected .toml or .json)")
            }
            LoadError::Parse { path, message } => write!(f, "{path}: {message}"),
            LoadError::Invalid(e) => write!(f, "invalid run spec: {e}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SproutError> for LoadError {
    fn from(e: SproutError) -> Self {
        LoadError::Invalid(e)
    }
}

/// System-construction knobs: everything [`SystemSpecBuilder`] needs,
/// expressed compactly enough to write by hand. Omitted knobs fall back to
/// the paper's §V-A setup (12 heterogeneous servers, (7,4)-coded 100 MB
/// files with the grouped arrival rates, seed 2016).
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub(crate) struct SystemKnobs {
    /// Number of files in the population.
    pub num_files: usize,
    /// Cache capacity in chunks.
    pub cache_chunks: usize,
    /// Coded chunks per file; default 7.
    pub n: Option<usize>,
    /// Data chunks per file; default 4.
    pub k: Option<usize>,
    /// File size in decimal megabytes; default 100.
    pub size_mb: Option<u64>,
    /// Per-node service rates (chunks/second, exponential). `None` uses the
    /// paper's 12 measured servers.
    pub node_service_rates: Option<Vec<f64>>,
    /// A single arrival rate for every file. `None` cycles the paper's
    /// grouped per-file rates.
    pub uniform_rate: Option<f64>,
    /// Multiplier applied to every arrival rate after construction — the
    /// knob that keeps per-node load constant when `num_files` shrinks
    /// below the paper's 1000.
    pub rate_scale: Option<f64>,
    /// Placement/simulation seed; default 2016 (the paper year).
    pub seed: Option<u64>,
    /// Strategy placing files without an explicit placement; default the
    /// paper's random placement groups.
    pub placement: Option<PlacementChoice>,
}

impl SystemKnobs {
    /// Builds the [`SystemSpec`] the knobs describe.
    ///
    /// # Errors
    ///
    /// Propagates [`SproutError::InvalidSpec`] from the builder (zero files,
    /// invalid code, more chunks than nodes, …) and rejects non-finite or
    /// negative `uniform_rate`/`rate_scale`.
    pub fn build(&self) -> Result<SystemSpec, SproutError> {
        for (name, value) in [
            ("uniform_rate", self.uniform_rate),
            ("rate_scale", self.rate_scale),
        ] {
            if let Some(v) = value {
                if !v.is_finite() || v < 0.0 {
                    return Err(SproutError::InvalidSpec(format!(
                        "{name} must be finite and non-negative, got {v}"
                    )));
                }
            }
        }
        let n = self.n.unwrap_or(7);
        let k = self.k.unwrap_or(4);
        let size_mb = self.size_mb.unwrap_or(100);
        let size_bytes = size_mb.checked_mul(MB).ok_or_else(|| {
            SproutError::InvalidSpec(format!("size_mb = {size_mb} overflows a byte count"))
        })?;
        let mut builder: SystemSpecBuilder = SystemSpec::builder();
        match &self.node_service_rates {
            Some(rates) => builder.node_service_rates(rates),
            None => builder.paper_servers(),
        };
        match self.uniform_rate {
            Some(rate) => {
                for _ in 0..self.num_files {
                    builder.file(crate::spec::FileConfig::new(rate, n, k, size_bytes));
                }
            }
            None => {
                builder.paper_files(self.num_files, n, k, size_bytes);
            }
        }
        builder
            .cache_capacity_chunks(self.cache_chunks)
            .seed(self.seed.unwrap_or(2016));
        if let Some(placement) = &self.placement {
            builder.placement_strategy(placement.clone());
        }
        let mut spec = builder.build()?;
        let scale = self.rate_scale.unwrap_or(1.0);
        for file in &mut spec.files {
            file.arrival_rate *= scale;
        }
        Ok(spec)
    }
}

/// Simulation-length knobs lowered onto a [`SimConfig`].
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub(crate) struct SimKnobs {
    /// Simulated horizon in seconds.
    pub horizon: f64,
    /// Horizon substituted under `--quick` (CI smoke); default `horizon/10`,
    /// floored at 200 simulated seconds.
    pub quick_horizon: Option<f64>,
    /// RNG seed; default the system seed.
    pub seed: Option<u64>,
    /// Warm-up cut; default 5 % of the horizon in force.
    pub warmup: Option<f64>,
    /// Mean cache-chunk read latency in seconds; default 0.
    pub cache_chunk_latency: Option<f64>,
    /// Slot length in seconds of the per-slot chunk-source series (Fig. 7);
    /// default none — only run totals are kept and no series is emitted.
    pub slot_length: Option<f64>,
}

impl SimKnobs {
    /// Lowers the knobs onto a [`SimConfig`].
    ///
    /// # Errors
    ///
    /// Returns a configuration that breaks [`SimConfig::check`] (the one
    /// rule the engine also applies when a run starts: horizon, slot length
    /// within [`sprout_sim::config::slot_count`]'s bound, warm-up before the
    /// horizon in force, cache latency) as [`SproutError::InvalidSpec`]: a
    /// loadable file must not panic, and no value is silently clamped.
    pub fn config(&self, default_seed: u64, quick: bool) -> Result<SimConfig, SproutError> {
        let horizon = if quick {
            self.quick_horizon
                .unwrap_or_else(|| (self.horizon / 10.0).max(200.0))
        } else {
            self.horizon
        };
        // Built field by field: `SimConfig::new` asserts what `check` reports.
        let config = SimConfig {
            horizon,
            seed: self.seed.unwrap_or(default_seed),
            warmup: self
                .warmup
                .unwrap_or(horizon * SimConfig::DEFAULT_WARMUP_SHARE),
            cache_chunk_latency: self.cache_chunk_latency.unwrap_or(0.0),
            slot_length: self.slot_length,
        };
        config.check().map_err(SproutError::InvalidSpec)?;
        Ok(config)
    }
}

/// Optional sweep axes. Every omitted axis keeps [`SimSweep`]'s default
/// (the single point the base system describes).
#[derive(Debug, Clone, PartialEq, Default, Deserialize)]
pub(crate) struct SweepKnobs {
    /// Cache-policy axis.
    pub policies: Option<Vec<CachePolicy>>,
    /// Cache-size axis (chunks).
    pub cache_sizes: Option<Vec<usize>>,
    /// Load-multiplier axis.
    pub load_points: Option<Vec<f64>>,
    /// Backend axis.
    pub backends: Option<Vec<SweepBackend>>,
    /// Placement-strategy axis.
    pub placements: Option<Vec<PlacementChoice>>,
    /// Replications per cell; default 1.
    pub replications: Option<usize>,
    /// Replication override for byte-backend cells.
    pub byte_replications: Option<usize>,
    /// Byte-backend cells rescale every file to this size (decimal MB).
    pub byte_object_mb: Option<u64>,
}

/// Replay knobs for a CSV request trace (`time_s,file` records; see
/// [`sprout_workload::trace`]). The trace is folded into per-file binned
/// rates and spliced into the scenario as `SetRates` events at every bin
/// boundary after the first.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub(crate) struct TraceKnobs {
    /// Path to the CSV file, resolved relative to the spec file's directory
    /// (absolute paths pass through).
    pub path: String,
    /// Width of the rate-estimation bins in trace seconds.
    pub bin_seconds: f64,
    /// Multiplier from trace time to simulated time; default 1. A 24-hour
    /// trace replayed into a 2 000 s horizon uses `2000 / 86_400`.
    pub time_scale: Option<f64>,
    /// Multiplier applied to the binned rates; default compensates
    /// `time_scale` so total requests are preserved (`1 / time_scale`).
    pub rate_scale: Option<f64>,
}

/// One declarative, file-loadable experiment.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct RunSpec {
    /// Experiment name (artifact key; defaults `scenario.name` when absent).
    pub name: String,
    /// System-construction knobs.
    pub(crate) system: SystemKnobs,
    /// Simulation-length knobs.
    pub(crate) sim: SimKnobs,
    /// What happens during the run; `None` is the steady scenario.
    pub scenario: Option<ScenarioSpec>,
    /// Optional sweep axes.
    pub(crate) sweep: Option<SweepKnobs>,
    /// Optional CSV trace replay.
    pub(crate) trace: Option<TraceKnobs>,
}

impl RunSpec {
    /// Parses a TOML run specification.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError::Parse`] with the parser's line/column message on
    /// malformed input or unknown/mis-typed fields.
    pub fn from_toml_str(text: &str) -> Result<Self, LoadError> {
        toml::from_str(text).map_err(|e| LoadError::Parse {
            path: "<toml>".into(),
            message: e.to_string(),
        })
    }

    /// Parses a JSON run specification.
    ///
    /// # Errors
    ///
    /// As [`RunSpec::from_toml_str`].
    pub fn from_json_str(text: &str) -> Result<Self, LoadError> {
        serde_json::from_str(text).map_err(|e| LoadError::Parse {
            path: "<json>".into(),
            message: e.to_string(),
        })
    }

    /// Loads a run specification from a `.toml` or `.json` file (dispatch on
    /// extension) and resolves any `[trace]` path relative to the file.
    ///
    /// # Errors
    ///
    /// [`LoadError::Io`] when the file cannot be read,
    /// [`LoadError::UnsupportedFormat`] for other extensions, and
    /// [`LoadError::Parse`] (with the path substituted in) on bad content.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, LoadError> {
        let path = path.as_ref();
        let shown = path.display().to_string();
        let text = std::fs::read_to_string(path).map_err(|e| LoadError::Io {
            path: shown.clone(),
            message: e.to_string(),
        })?;
        let mut spec = match path.extension().and_then(|e| e.to_str()) {
            Some("toml") => Self::from_toml_str(&text),
            Some("json") => Self::from_json_str(&text),
            _ => Err(LoadError::UnsupportedFormat {
                path: shown.clone(),
            }),
        }
        .map_err(|e| match e {
            LoadError::Parse { message, .. } => LoadError::Parse {
                path: shown.clone(),
                message,
            },
            other => other,
        })?;
        if let (Some(trace), Some(dir)) = (spec.trace.as_mut(), path.parent()) {
            let trace_path = Path::new(&trace.path);
            if trace_path.is_relative() {
                trace.path = dir.join(trace_path).display().to_string();
            }
        }
        Ok(spec)
    }

    /// Builds the system and the effective scenario: the declared
    /// [`ScenarioSpec`] (or an empty one named after the run) with any CSV
    /// trace spliced in as `SetRates` events at bin boundaries.
    ///
    /// # Errors
    ///
    /// Propagates build errors as [`LoadError::Invalid`] and trace read or
    /// parse failures as [`LoadError::Io`] / [`LoadError::Parse`].
    pub(crate) fn realize(&self) -> Result<(SproutSystem, ScenarioSpec), LoadError> {
        let spec = self.system.build()?;
        let system = SproutSystem::new(spec)?;
        let mut scenario = self
            .scenario
            .clone()
            .unwrap_or_else(|| ScenarioSpec::named(&self.name));
        if scenario.name.is_empty() {
            scenario.name.clone_from(&self.name);
        }
        if let Some(trace) = &self.trace {
            let text = std::fs::read_to_string(&trace.path).map_err(|e| LoadError::Io {
                path: trace.path.clone(),
                message: e.to_string(),
            })?;
            let events =
                sprout_workload::trace::parse_trace_csv(&text).map_err(|e| LoadError::Parse {
                    path: trace.path.clone(),
                    message: e.to_string(),
                })?;
            let schedule = sprout_workload::trace::binned_rate_schedule(
                &events,
                system.spec().files.len(),
                trace.bin_seconds,
            )
            .map_err(|e| LoadError::Parse {
                path: trace.path.clone(),
                message: e.to_string(),
            })?;
            let time_scale = trace.time_scale.unwrap_or(1.0);
            if !time_scale.is_finite() || time_scale <= 0.0 {
                return Err(LoadError::Invalid(SproutError::InvalidSpec(format!(
                    "trace time_scale must be positive and finite, got {time_scale}"
                ))));
            }
            let rate_scale = trace.rate_scale.unwrap_or(1.0 / time_scale);
            if !rate_scale.is_finite() || rate_scale < 0.0 {
                return Err(LoadError::Invalid(SproutError::InvalidSpec(format!(
                    "trace rate_scale must be finite and non-negative, got {rate_scale}"
                ))));
            }
            // Bin 0's rates are the system's own; each later bin is a
            // `SetRates` event at its start.
            for (b, bin) in schedule.bins().iter().enumerate().skip(1) {
                scenario = scenario.at(
                    b as f64 * trace.bin_seconds * time_scale,
                    crate::scenario::ScenarioActionSpec::SetRates {
                        rates: bin.rates.iter().map(|r| r * rate_scale).collect(),
                    },
                );
            }
        }
        Ok((system, scenario))
    }

    /// Assembles the [`SimSweep`] this file describes: the realized system
    /// and scenario with the `[sweep]` axes applied.
    ///
    /// # Errors
    ///
    /// Build errors and axes or counts that break a sweep rule (checked here
    /// so a loadable file fails at load, not at run) are
    /// [`LoadError::Invalid`]; trace read or parse failures are
    /// [`LoadError::Io`] / [`LoadError::Parse`].
    pub fn to_sweep(&self, quick: bool) -> Result<SimSweep, LoadError> {
        let (system, scenario) = self.realize()?;
        let config = self.sim.config(system.spec().seed, quick)?;
        let mut sweep = SimSweep::new(&self.name, &system, config).scenarios(vec![scenario]);
        if let Some(knobs) = &self.sweep {
            if let Some(policies) = &knobs.policies {
                sweep = sweep.policies(policies.clone());
            }
            if let Some(sizes) = &knobs.cache_sizes {
                sweep = sweep.cache_sizes(sizes.clone());
            }
            if let Some(points) = &knobs.load_points {
                sweep = sweep.load_points(points.clone());
            }
            if let Some(backends) = &knobs.backends {
                sweep = sweep.backends(backends.clone());
            }
            if let Some(placements) = &knobs.placements {
                sweep = sweep.placements(placements.clone());
            }
            if let Some(reps) = knobs.replications {
                sweep = sweep.replications(reps);
            }
            if let Some(reps) = knobs.byte_replications {
                sweep = sweep.byte_replications(reps);
            }
            if let Some(mb) = knobs.byte_object_mb {
                let bytes = mb.checked_mul(MB).ok_or_else(|| {
                    SproutError::InvalidSpec(format!(
                        "byte_object_mb = {mb} overflows a byte count"
                    ))
                })?;
                sweep = sweep.byte_object_bytes(bytes);
            }
        }
        sweep.check()?;
        Ok(sweep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
name = "minimal"

[system]
num_files = 10
cache_chunks = 8

[sim]
horizon = 400.0
"#;

    #[test]
    fn minimal_toml_loads_paper_defaults() {
        let spec = RunSpec::from_toml_str(MINIMAL).unwrap();
        assert_eq!(spec.name, "minimal");
        let (system, scenario) = spec.realize().unwrap();
        assert_eq!(system.spec().node_services.len(), 12);
        assert_eq!(system.spec().files.len(), 10);
        assert!(system.spec().files.iter().all(|f| f.n == 7 && f.k == 4));
        assert_eq!(system.spec().seed, 2016);
        assert_eq!(scenario.name, "minimal");
        assert!(scenario.events.is_empty());
        let config = spec.sim.config(system.spec().seed, false).unwrap();
        assert_eq!(config.horizon, 400.0);
        assert_eq!(config.seed, 2016);
        // --quick shrinks the horizon but never below the floor.
        let quick = spec.sim.config(system.spec().seed, true).unwrap();
        assert_eq!(quick.horizon, 200.0);
    }

    #[test]
    fn full_spec_round_trips_through_both_formats() {
        let text = r#"
name = "full"

[system]
num_files = 20
cache_chunks = 16
n = 6
k = 3
size_mb = 50
uniform_rate = 0.002
rate_scale = 2.0
seed = 7

[system.placement]
ConsistentHash = { vnodes = 32 }

[sim]
horizon = 600.0
warmup = 30.0

[scenario]
name = "wave"

[[scenario.events]]
at = 100.0
[scenario.events.action.ScaleRates]
factor = 3.0

[[scenario.events]]
at = 150.0
action = "Reoptimize"

[sweep]
policies = ["Functional", "None"]
load_points = [0.5, 1.0]
replications = 2
"#;
        let spec = RunSpec::from_toml_str(text).unwrap();
        assert_eq!(
            spec.system.placement,
            Some(PlacementChoice::ConsistentHash { vnodes: 32 })
        );
        let scenario = spec.scenario.as_ref().unwrap();
        assert_eq!(scenario.events.len(), 2);

        // The same spec written as JSON loads to the same value.
        let json = r#"{
  "name": "full",
  "system": {
    "num_files": 20, "cache_chunks": 16, "n": 6, "k": 3, "size_mb": 50,
    "uniform_rate": 0.002, "rate_scale": 2.0, "seed": 7,
    "placement": {"ConsistentHash": {"vnodes": 32}}
  },
  "sim": {"horizon": 600.0, "warmup": 30.0},
  "scenario": {"name": "wave", "events": [
    {"at": 100.0, "action": {"ScaleRates": {"factor": 3.0}}},
    {"at": 150.0, "action": "Reoptimize"}
  ]},
  "sweep": {"policies": ["Functional", "None"], "load_points": [0.5, 1.0], "replications": 2}
}"#;
        assert_eq!(RunSpec::from_json_str(json).unwrap(), spec);

        // The sweep assembles and carries the declared axes.
        let sweep = spec.to_sweep(true).unwrap();
        assert_eq!(sweep.grid().cells().len(), 2 * 2);
    }

    #[test]
    fn policies_load_every_cache_policy_variant() {
        let spec = RunSpec::from_toml_str(&format!(
            "{MINIMAL}\n[sweep]\npolicies = [\"Functional\", \"Exact\", \"LruReplicated\", \"None\"]\n"
        ))
        .unwrap();
        assert_eq!(
            spec.sweep.unwrap().policies,
            Some(vec![
                CachePolicy::Functional,
                CachePolicy::Exact,
                CachePolicy::LruReplicated,
                CachePolicy::None,
            ])
        );
    }

    #[test]
    fn unknown_keys_and_bad_types_are_typed_parse_errors() {
        let unknown = RunSpec::from_toml_str(&MINIMAL.replace("horizon", "horizont"));
        assert!(
            matches!(unknown, Err(LoadError::Parse { .. })),
            "{unknown:?}"
        );
        // A `[sim]` key this loader once accepted is unknown now: an old run
        // file fails with a positioned parse error, not silently.
        let retired = RunSpec::from_toml_str(&format!("{MINIMAL}shards = 2\n"));
        assert!(
            matches!(retired, Err(LoadError::Parse { .. })),
            "{retired:?}"
        );
        let bad_type = RunSpec::from_toml_str(&MINIMAL.replace("10", "\"ten\""));
        assert!(matches!(bad_type, Err(LoadError::Parse { .. })));
        let bad_json = RunSpec::from_json_str("{\"name\": ");
        assert!(matches!(bad_json, Err(LoadError::Parse { .. })));
    }

    #[test]
    fn invalid_knobs_are_invalid_spec_not_panics() {
        let zero_files =
            RunSpec::from_toml_str(&MINIMAL.replace("num_files = 10", "num_files = 0"))
                .unwrap()
                .realize();
        assert!(matches!(zero_files, Err(LoadError::Invalid(_))));
        let bad_rate = RunSpec::from_toml_str(
            &MINIMAL.replace("cache_chunks = 8", "cache_chunks = 8\nuniform_rate = -1.0"),
        )
        .unwrap()
        .realize();
        assert!(matches!(bad_rate, Err(LoadError::Invalid(_))));
        let bad_horizon =
            RunSpec::from_toml_str(&MINIMAL.replace("horizon = 400.0", "horizon = -1.0")).unwrap();
        assert!(bad_horizon.to_sweep(false).is_err());
        let empty_axis = RunSpec::from_toml_str(&format!("{MINIMAL}\n[sweep]\npolicies = []\n"))
            .unwrap()
            .to_sweep(false);
        assert!(matches!(empty_axis, Err(LoadError::Invalid(_))));
    }

    #[test]
    fn load_dispatches_on_extension() {
        let dir = std::env::temp_dir().join("sprout-loader-test");
        std::fs::create_dir_all(&dir).unwrap();
        let toml_path = dir.join("spec.toml");
        std::fs::write(&toml_path, MINIMAL).unwrap();
        assert_eq!(RunSpec::load(&toml_path).unwrap().name, "minimal");

        let json_path = dir.join("spec.json");
        std::fs::write(
            &json_path,
            r#"{"name": "minimal", "system": {"num_files": 10, "cache_chunks": 8},
                "sim": {"horizon": 400.0}}"#,
        )
        .unwrap();
        assert_eq!(
            RunSpec::load(&json_path).unwrap(),
            RunSpec::from_toml_str(MINIMAL).unwrap()
        );

        let yaml_path = dir.join("spec.yaml");
        std::fs::write(&yaml_path, "name: nope").unwrap();
        assert!(matches!(
            RunSpec::load(&yaml_path),
            Err(LoadError::UnsupportedFormat { .. })
        ));
        assert!(matches!(
            RunSpec::load(dir.join("missing.toml")),
            Err(LoadError::Io { .. })
        ));
    }

    #[test]
    fn trace_knobs_splice_set_rates_events_into_the_scenario() {
        let dir = std::env::temp_dir().join("sprout-loader-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("requests.csv"),
            "time_s,file\n1.0,0\n3.0,1\n5.0,0\n5.5,0\n",
        )
        .unwrap();
        let text = r#"
name = "replayed"

[system]
num_files = 2
cache_chunks = 4
n = 3
k = 2

[sim]
horizon = 100.0

[trace]
path = "requests.csv"
bin_seconds = 2.0
"#;
        let spec_path = dir.join("replayed.toml");
        std::fs::write(&spec_path, text).unwrap();
        let spec = RunSpec::load(&spec_path).unwrap();
        let (_, scenario) = spec.realize().unwrap();
        // Bins: [0,2) [2,4) [4,6) -> SetRates events at t=2 and t=4.
        assert_eq!(scenario.events.len(), 2);
        assert_eq!(scenario.events[0].at, 2.0);
        match &scenario.events[1].action {
            crate::scenario::ScenarioActionSpec::SetRates { rates } => {
                assert!((rates[0] - 1.0).abs() < 1e-12, "{rates:?}");
                assert!((rates[1] - 0.0).abs() < 1e-12);
            }
            other => panic!("expected SetRates, got {other:?}"),
        }

        // A malformed trace is a positioned parse error, not a panic.
        std::fs::write(dir.join("requests.csv"), "1.0,0\nbroken\n").unwrap();
        let err = RunSpec::load(&spec_path).unwrap().realize();
        assert!(matches!(err, Err(LoadError::Parse { .. })), "{err:?}");
    }
}

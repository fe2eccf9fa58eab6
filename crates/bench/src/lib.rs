//! The paper's evaluation, reproduced: the figure table and the helpers its
//! rows share.
//!
//! Every figure/table of the paper is one row of [`figures::FIGURES`] — a
//! declarative sweep grid executed on the work-stealing pool of
//! [`sprout::sim::sweep`] — and the one `sprout-bench` binary
//! (`cargo run --release -p sprout-bench -- <name>… | all | list`) runs the
//! selected rows through the shared [`harness`]: every row accepts `--quick`,
//! `--threads N` and `--out PATH`, writes a machine-readable
//! `FIG_*.json` / `TAB_*.json` / `BENCH_*.json` artifact whose bytes are
//! independent of the worker count, and prints the same rows as a
//! tab-separated table for eyeballing/plotting. The same binary runs the
//! committed scenario files (`scenario <file>`), the seeded scenario fuzzer
//! (`fuzz`) and the scenario-baseline checker (`check <files>`).
//!
//! All experiments also accept the environment variable `SPROUT_SCALE`:
//! * `SPROUT_SCALE=paper` — the paper's full problem sizes (r = 1000 files);
//!   slower, but matches the evaluation section exactly.
//! * unset or any other value — a proportionally scaled-down instance that
//!   preserves per-node load (and therefore the *shape* of every result)
//!   while finishing in seconds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod harness;

pub use harness::{emit, emit_with_timings, timing_path, FigureCli};

use sprout::optimizer::OptimizerConfig;
use sprout::{SproutSystem, SystemSpec};

/// Number of files used by the "simulation" experiments (Figs. 3–7).
pub fn simulation_file_count() -> usize {
    if paper_scale() {
        1000
    } else {
        100
    }
}

/// Whether the full paper-scale instances were requested.
pub fn paper_scale() -> bool {
    std::env::var("SPROUT_SCALE")
        .map(|v| v == "paper")
        .unwrap_or(false)
}

/// Scaling factor applied to the paper's per-file arrival rates so that a
/// reduced file population puts the same load on the 12 servers as the
/// paper's 1000 files do.
pub fn rate_scale() -> f64 {
    1000.0 / simulation_file_count() as f64
}

/// The optimizer configuration used by the experiments (the paper's
/// tolerance of 0.01).
pub fn experiment_config() -> OptimizerConfig {
    OptimizerConfig::default()
}

/// Builds the paper's §V-A simulation system: 12 heterogeneous servers,
/// (7, 4)-coded 100 MB files with the grouped arrival rates, and the given
/// cache size (in chunks of 25 MB).
pub fn paper_system(cache_chunks: usize) -> SproutSystem {
    let count = simulation_file_count();
    let spec = SystemSpec::builder()
        .node_service_rates(&sprout::workload::spec::paper_server_service_rates())
        .paper_files(count, 7, 4, 100 * sprout::workload::spec::MB)
        .cache_capacity_chunks(cache_chunks)
        .seed(2016)
        .build()
        .expect("paper spec is valid");
    let system = SproutSystem::new(spec).expect("paper system is valid");
    let rates: Vec<f64> = system
        .spec()
        .files
        .iter()
        .map(|f| f.arrival_rate * rate_scale())
        .collect();
    system
        .with_arrival_rates(&rates)
        .expect("rate rescaling preserves validity")
}

/// Scales a paper cache size (given in chunks for 1000 files) down to the
/// reduced file population so cache pressure stays comparable.
pub fn scale_cache(paper_chunks: usize) -> usize {
    ((paper_chunks as f64) / rate_scale()).round().max(1.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_scale_preserves_aggregate_load() {
        let system = paper_system(10);
        let total = system.model().total_arrival_rate();
        // The paper's aggregate arrival rate is ~0.1416 regardless of scale.
        assert!((total - 0.1416).abs() < 2e-3, "total = {total}");
    }

    #[test]
    fn cache_scaling_is_proportional() {
        assert_eq!(scale_cache(500), (500.0 / rate_scale()).round() as usize);
        assert!(scale_cache(1) >= 1);
    }

    #[test]
    fn experiment_config_matches_paper_tolerance() {
        assert!((experiment_config().tolerance - 0.01).abs() < 1e-12);
    }
}

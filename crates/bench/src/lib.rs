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

pub use harness::{emit, timing_path, FigureCli};

use sprout::spec::paper_simulation_spec;
use sprout::SproutSystem;

/// Number of files used by the "simulation" experiments (Figs. 3–7).
pub(crate) fn simulation_file_count() -> usize {
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

/// Builds the paper's §V-A simulation system at the scale's file count
/// ([`paper_simulation_spec`]: rates scaled to the paper's per-node load)
/// with the given cache size (in chunks of 25 MB).
pub fn paper_system(cache_chunks: usize) -> SproutSystem {
    SproutSystem::new(paper_simulation_spec(simulation_file_count(), cache_chunks))
        .expect("paper system is valid")
}

/// Scales a paper cache size (given in chunks for 1000 files) down to the
/// reduced file population so cache pressure stays comparable.
pub fn scale_cache(paper_chunks: usize) -> usize {
    ((paper_chunks * simulation_file_count()) as f64 / 1000.0)
        .round()
        .max(1.0) as usize
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
        assert_eq!(scale_cache(1000), simulation_file_count());
        assert_eq!(scale_cache(500), simulation_file_count() / 2);
        assert!(scale_cache(1) >= 1);
    }
}

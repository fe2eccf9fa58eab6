//! Table V — Chunk read latency from the SSD cache.
//!
//! The paper measures the read latency of different chunk sizes from the SAS
//! SSDs used as the cache device and argues it is negligible compared with
//! the HDD-backed OSD reads of Table IV (which justifies ignoring cache-read
//! latency in the optimization). One sweep cell per chunk size compares the
//! model's values with the paper's and reports the HDD/SSD ratio.
//!
//! Artifact: `TAB_05.json`.

use crate::FigureCli;
use sprout::cluster::DeviceModel;
use sprout::sim::sweep::{Sample, SweepGrid, SweepReport, SweepTimings};

/// Runs the sweep and returns its report; the dispatcher adds the run meta
/// and writes the artifact.
pub fn run(cli: &FigureCli) -> (SweepReport, SweepTimings) {
    let table = sprout::workload::spec::table_v_ssd_latency_ms();

    let grid = SweepGrid::named("tab05_cache_latency", 5).axis(
        "chunk_size_mb",
        table
            .iter()
            .map(|(bytes, _)| (bytes / 1_000_000).to_string()),
    );
    let (report, timings) = grid.run(
        cli.threads_or(FigureCli::available_threads()),
        |cell, _, _| {
            let (bytes, paper_ms) = table[cell.idx("chunk_size_mb")];
            let ssd_ms = DeviceModel::ssd().mean_service_time(bytes) * 1e3;
            let hdd_ms = DeviceModel::hdd().mean_service_time(bytes) * 1e3;
            Sample::new()
                .metric("paper_ssd_ms", paper_ms)
                .metric("model_ssd_ms", ssd_ms)
                .metric("model_hdd_ms", hdd_ms)
                .metric("hdd_over_ssd", hdd_ms / ssd_ms)
        },
    );

    let report = report.with_note(
        "paper conclusion: cache reads are 3-20x faster than OSD reads at every chunk \
             size, so cache-read latency can be neglected when optimizing the placement.",
    );
    (report, timings)
}

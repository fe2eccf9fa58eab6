//! Fig. 10 — Average access latency versus object size: optimized functional
//! caching vs Ceph's LRU cache-tier baseline vs the analytical bound.
//!
//! The paper stores 1000 objects of each Table III size class on its (7,4)
//! Ceph pool with a 10 GB cache, replays the trace-derived arrival rates for
//! 1800 s, and reports the mean access latency of (i) optimal functional
//! caching, (ii) the LRU replicated cache tier, and (iii) the analytical
//! bound. Latency grows with object size and functional caching wins at every
//! size (26 % on average).
//!
//! Sweep grid: object size class × policy {functional, lru} × backend
//! {analytic, byte}. The analytic cells carry the figure's latency numbers;
//! the byte cells re-run each `(size, policy)` point on the real
//! erasure-coded store — LRU hits decided by the engine's tier and read from
//! the stored data rows, every completed request decoded and verified
//! against the original payload. Byte-cell payloads are shrunk (plans,
//! placements and hit/miss decisions are size-independent) so the integrity
//! leg stays affordable at every size class. Artifact: `FIG_10.json` (+ non-diffed
//! `FIG_10.timing.json`).

use crate::{paper_scale, FigureCli};
use sprout::queueing::dist::ServiceDistribution;
use sprout::sim::sweep::{SweepGrid, SweepReport, SweepTimings};
use sprout::sim::SimConfig;
use sprout::{CachePolicy, FileConfig, SproutSystem, SweepBackend, SystemSpec};

/// Paper-reported mean access latency (milliseconds) per object size for
/// optimized caching and the Ceph cache-tier baseline.
const PAPER_MS: [(&str, f64, f64); 5] = [
    ("4MB", 8.0, 10.0),
    ("16MB", 384.0, 430.0),
    ("64MB", 2182.0, 2833.0),
    ("256MB", 7901.0, 11163.0),
    ("1GB", 21516.0, 39021.0),
];

const POLICIES: [CachePolicy; 2] = [CachePolicy::Functional, CachePolicy::LruReplicated];

const BACKENDS: [SweepBackend; 2] = [SweepBackend::Analytic, SweepBackend::Byte];

/// Payload size of byte-backend cells: decisions and plans are
/// size-independent, so small payloads verify the same request sequence.
const BYTE_OBJECT_BYTES: u64 = 16 * 1024;

/// Runs the sweep and returns its report; the dispatcher adds the run meta
/// and writes the artifact.
pub fn run(cli: &FigureCli) -> (SweepReport, SweepTimings) {
    let objects = match (paper_scale(), cli.quick) {
        (true, _) => 1000,
        (false, false) => 100,
        (false, true) => 50,
    };
    let horizon = if cli.quick { 300.0 } else { 1800.0 };
    let population_scale = 1000.0 / objects as f64;
    // The paper's testbed is driven hard enough that queueing dominates (its
    // reported latencies are 3-20x the bare chunk service time). The Table III
    // trace rates alone leave a 12-node cluster nearly idle, so each size
    // class is scaled to a common no-cache storage utilization (~70 %), which
    // recreates the paper's operating regime while preserving the class's
    // relative popularity within the trace.
    let target_utilization = 0.70;
    let cache_bytes = 10.0 * 1e9 / population_scale;

    let classes = sprout::workload::spec::table_iii_object_classes();
    let grid = SweepGrid::named("fig10_latency_vs_object_size", 10)
        .axis("object_size", classes.iter().map(|c| c.label.to_string()))
        .axis("policy", POLICIES.iter().map(CachePolicy::label))
        .axis("backend", BACKENDS.iter().map(SweepBackend::label));
    let (report, timings) = grid.run(
        cli.threads_or(FigureCli::available_threads()),
        |cell, _, seed| {
            let class = &classes[cell.idx("object_size")];
            let policy = POLICIES[cell.idx("policy")];
            let backend = BACKENDS[cell.idx("backend")];
            let (paper_label, opt_ms, lru_ms) = PAPER_MS[cell.idx("object_size")];
            assert_eq!(
                class.label, paper_label,
                "PAPER_MS must stay positionally aligned with table_iii_object_classes()"
            );
            let chunk_bytes = class.size_bytes.div_ceil(4);
            let hdd = sprout::cluster::DeviceModel::hdd().service_moments(chunk_bytes);
            let ssd = sprout::cluster::DeviceModel::ssd().mean_service_time(chunk_bytes);
            let node_service = ServiceDistribution::from_mean_variance(hdd.mean, hdd.variance());
            let cache_chunks = ((cache_bytes / chunk_bytes as f64) as usize).max(1);
            // Scale this class's per-object rate so that, without any cache,
            // the 12 nodes run at the target utilization.
            let rate = target_utilization * 12.0 / (4.0 * hdd.mean * objects as f64);

            let mut builder = SystemSpec::builder();
            builder
                .node_services(vec![node_service; 12])
                .cache_capacity_chunks(cache_chunks)
                .seed(10);
            for _ in 0..objects {
                builder.file(FileConfig::new(rate, 7, 4, class.size_bytes));
            }
            let system =
                SproutSystem::new(builder.build().expect("valid spec")).expect("valid system");

            let config = SimConfig::new(horizon, seed).with_cache_latency(ssd);
            let paper = (opt_ms, lru_ms);
            super::policy_sample(&system, policy, config, backend, BYTE_OBJECT_BYTES, paper)
                .expect("every policy plans and runs on this system")
        },
    );

    let avg = super::mean_gain_over_lru(&report, "object_size");
    let report = report
        .with_meta("objects", objects.to_string())
        .with_meta("horizon_s", format!("{horizon}"))
        .with_meta("byte_object_bytes", BYTE_OBJECT_BYTES.to_string())
        .with_note(
            "paper shape: latency grows with object size; optimal caching beats the LRU cache \
             tier at every size (26% average improvement).",
        )
        .with_note(super::BYTE_CELLS_NOTE)
        .with_note(format!("measured average improvement: {:.1}%", avg * 100.0));
    (report, timings)
}

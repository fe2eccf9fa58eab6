//! Fig. 11 — Average access latency versus workload intensity.
//!
//! The paper fixes 64 MB objects (1000 of them, 10 GB cache) and sweeps the
//! aggregate read request arrival rate over {0.5, 1, 2, 4, 8} requests/second.
//! Latency grows steeply with load and optimal functional caching beats the
//! LRU cache tier at every intensity (23.86 % average reduction).
//!
//! Sweep grid: aggregate rate × policy {functional, lru} × backend
//! {analytic, byte}. Analytic cells carry the figure's latency numbers; byte
//! cells re-run each point on the real erasure-coded store (LRU hits decided
//! by the engine's tier, per-request decode verification) with shrunk
//! payloads.
//! Artifact: `FIG_11.json` (+ non-diffed `FIG_11.timing.json`).

use crate::{paper_scale, FigureCli};
use sprout::queueing::dist::ServiceDistribution;
use sprout::sim::sweep::{SweepGrid, SweepReport, SweepTimings};
use sprout::sim::SimConfig;
use sprout::{CachePolicy, FileConfig, SproutSystem, SweepBackend, SystemSpec};

/// Paper-reported mean latency (ms): (aggregate rate, optimized, LRU baseline).
const PAPER_MS: [(f64, f64, f64); 5] = [
    (0.5, 2055.0, 2800.0),
    (1.0, 4730.0, 6510.0),
    (2.0, 18379.0, 24179.0),
    (4.0, 44679.0, 58917.0),
    (8.0, 112172.0, 135468.0),
];

const POLICIES: [CachePolicy; 2] = [CachePolicy::Functional, CachePolicy::LruReplicated];

const BACKENDS: [SweepBackend; 2] = [SweepBackend::Analytic, SweepBackend::Byte];

/// Payload size of byte-backend cells (see fig10: decisions are
/// size-independent, so small payloads verify the same request sequence).
const BYTE_OBJECT_BYTES: u64 = 64 * 1024;

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
    let object_bytes = 64 * sprout::workload::spec::MB;
    let chunk_bytes = object_bytes / 4;
    let hdd = sprout::cluster::DeviceModel::hdd().service_moments(chunk_bytes);
    let ssd = sprout::cluster::DeviceModel::ssd().mean_service_time(chunk_bytes);
    let node_service = ServiceDistribution::from_mean_variance(hdd.mean, hdd.variance());
    let cache_chunks = ((10.0 * 1e9 / population_scale / chunk_bytes as f64) as usize).max(1);
    // The paper's testbed saturates well below an aggregate rate of 8 req/s
    // (its latencies reach 100+ seconds); our 12-node model with the Table IV
    // service times only reaches ~40 % utilization at that rate, so the sweep
    // is scaled by a constant factor that places its top point at ~70 %
    // utilization — the same qualitative regime, with the paper's labels kept.
    let load_factor = 1.8;

    let grid = SweepGrid::named("fig11_latency_vs_load", 11)
        .axis(
            "aggregate_rate",
            PAPER_MS.iter().map(|(rate, _, _)| format!("{rate}")),
        )
        .axis("policy", POLICIES.iter().map(CachePolicy::label))
        .axis("backend", BACKENDS.iter().map(SweepBackend::label));
    let (report, timings) = grid.run(
        cli.threads_or(FigureCli::available_threads()),
        |cell, _, seed| {
            let (aggregate, opt_ms, lru_ms) = PAPER_MS[cell.idx("aggregate_rate")];
            let policy = POLICIES[cell.idx("policy")];
            let backend = BACKENDS[cell.idx("backend")];
            let per_object = aggregate * load_factor / objects as f64;
            let mut builder = SystemSpec::builder();
            builder
                .node_services(vec![node_service; 12])
                .cache_capacity_chunks(cache_chunks)
                .seed(11);
            for _ in 0..objects {
                builder.file(FileConfig::new(per_object, 7, 4, object_bytes));
            }
            let system =
                SproutSystem::new(builder.build().expect("valid spec")).expect("valid system");

            let config = SimConfig::new(horizon, seed).with_cache_latency(ssd);
            let paper = (opt_ms, lru_ms);
            super::policy_sample(&system, policy, config, backend, BYTE_OBJECT_BYTES, paper)
                .expect("every policy plans and runs on this system")
        },
    );

    let avg = super::mean_gain_over_lru(&report, "aggregate_rate");
    let report = report
        .with_meta("objects", objects.to_string())
        .with_meta("horizon_s", format!("{horizon}"))
        .with_meta("load_factor", format!("{load_factor}"))
        .with_meta("byte_object_bytes", BYTE_OBJECT_BYTES.to_string())
        .with_note(
            "paper shape: latency rises steeply with load; optimal caching beats LRU at every \
             intensity (23.86% average).",
        )
        .with_note(super::BYTE_CELLS_NOTE)
        .with_note(format!("measured average improvement: {:.1}%", avg * 100.0));
    (report, timings)
}

//! Fig. 9 + Table IV — Chunk service-time distribution at an HDD OSD.
//!
//! The paper measures the CDF of chunk read service times on its Ceph testbed
//! for chunk sizes of 1, 4, 16 and 64 MB (256 MB is reported separately) and
//! tabulates the mean and variance (Table IV). Our HDD device model is
//! calibrated to those numbers; one sweep cell per chunk size samples it and
//! reports both the CDF points and the mean/variance comparison.
//!
//! Artifact: `FIG_09.json` — per chunk size, model-vs-paper moments as
//! metrics and the service-time CDF (at the percentiles in `cdf_levels`) as
//! a series.

use crate::FigureCli;
use rand::SeedableRng;
use sprout::cluster::DeviceModel;
use sprout::sim::sweep::{Sample, SweepGrid, SweepReport, SweepTimings};

const CDF_LEVELS: [usize; 9] = [1, 5, 10, 25, 50, 75, 90, 95, 99];

/// Runs the sweep and returns its report; the dispatcher adds the run meta
/// and writes the artifact.
pub fn run(cli: &FigureCli) -> (SweepReport, Option<SweepTimings>) {
    let sizes_mb = [1u64, 4, 16, 64];
    let samples_per_size = if cli.quick { 4_000 } else { 20_000 };

    let grid = SweepGrid::named("fig09_service_time_cdf", 9)
        .axis("chunk_size_mb", sizes_mb.iter().map(|m| m.to_string()));
    let report = grid.run(
        cli.threads_or(FigureCli::available_threads()),
        |cell, _, seed| {
            let mb: u64 = cell.coord("chunk_size_mb").parse().expect("axis label");
            let bytes = mb * 1_000_000;
            let device = DeviceModel::hdd();
            let dist = device.service_distribution(bytes);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut samples: Vec<f64> = (0..samples_per_size)
                .map(|_| dist.sample(&mut rng))
                .collect();
            samples.sort_by(|a, b| a.partial_cmp(b).expect("service times are finite"));
            let cdf: Vec<f64> = CDF_LEVELS
                .iter()
                .map(|&pct| samples[(samples.len() - 1) * pct / 100])
                .collect();

            let moments = device.service_moments(bytes);
            let (paper_mean_ms, paper_var_ms2) = sprout::workload::spec::table_iv_hdd_service_ms()
                .into_iter()
                .find(|&(b, _, _)| b == bytes)
                .map(|(_, mean, var)| (mean, var))
                .expect("every swept size is a Table IV calibration point");
            Sample::new()
                .metric("model_mean_ms", moments.mean * 1e3)
                .metric("model_var_ms2", moments.variance() * 1e6)
                .metric("paper_mean_ms", paper_mean_ms)
                .metric("paper_var_ms2", paper_var_ms2)
                .series("cdf_service_time_s", cdf)
        },
    );

    let report = report
        .with_meta("samples_per_size", samples_per_size.to_string())
        .with_meta(
            "cdf_levels",
            CDF_LEVELS
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(","),
        )
        .with_note(
            "the model reproduces Table IV exactly at the calibration points and interpolates \
             between them",
        );
    (report, None)
}

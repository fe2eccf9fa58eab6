//! Fig. 6 — Cache placement depends on content placement, not only on
//! arrival rates.
//!
//! Ten (7,4)-coded files on 12 servers: files 1–3 are placed on the first
//! seven servers, the remaining files on the last seven (so servers 6 and 7
//! host chunks of every file). The arrival rate of the first two files is
//! swept over the paper's six values while the others stay fixed; the paper
//! shows that the first two files only start earning cache chunks once their
//! rate is high enough to outweigh their lightly-loaded placement.
//!
//! One sweep cell per swept arrival rate. Artifact: `FIG_06.json` — per
//! rate, the cache chunks earned by files 1–2, 3–4 and 5–10.

use crate::FigureCli;
use sprout::optimizer::OptimizerConfig;
use sprout::sim::sweep::{Sample, SweepGrid, SweepReport, SweepTimings};
use sprout::{FileConfig, SproutSystem, SystemSpec};

/// As in fig05, rates are boosted so that 10 files create the per-node load
/// the paper's full population would; the *relative* rates are unchanged.
const RATE_BOOST: f64 = 60.0;
const CACHE_CHUNKS: usize = 10;

fn system_with_first_two_at(lambda: f64) -> SproutSystem {
    let mut builder = SystemSpec::builder();
    builder
        .paper_servers()
        .cache_capacity_chunks(CACHE_CHUNKS)
        .seed(6);
    let first_seven: Vec<usize> = (0..7).collect();
    let last_seven: Vec<usize> = (5..12).collect();
    for i in 0..10usize {
        // Fixed rates: files 3-4 at 0.0000962, files 5-10 at 0.0001042.
        let (rate, placement) = match i {
            0 | 1 => (lambda, first_seven.clone()),
            2 => (0.000_096_2, first_seven.clone()),
            3 => (0.000_096_2, last_seven.clone()),
            _ => (0.000_104_2, last_seven.clone()),
        };
        builder.file(
            FileConfig::new(rate * RATE_BOOST, 7, 4, 100 * sprout::workload::spec::MB)
                .with_placement(placement),
        );
    }
    SproutSystem::new(builder.build().expect("valid spec")).expect("valid system")
}

/// Runs the sweep and returns its report; the dispatcher adds the run meta
/// and writes the artifact.
pub fn run(cli: &FigureCli) -> (SweepReport, SweepTimings) {
    // The paper's swept arrival rates for files 1-2 (requests/second).
    let sweep = [
        0.000_125,
        0.000_156_3,
        0.000_178_6,
        0.000_208_3,
        0.000_25,
        0.000_277_8,
    ];

    let grid = SweepGrid::named("fig06_placement_sensitivity", 6).axis(
        "lambda_first_two_paper",
        sweep.iter().map(|l| format!("{l:.7}")),
    );
    let (report, timings) = grid.run(
        cli.threads_or(FigureCli::available_threads()),
        |cell, _, _| {
            let lambda: f64 = cell
                .coord("lambda_first_two_paper")
                .parse()
                .expect("axis label");
            let plan = system_with_first_two_at(lambda)
                .optimize_with(&OptimizerConfig::default())
                .expect("stable system");
            let d = &plan.cached_chunks;
            Sample::new()
                .metric("chunks_files_1_2", d[..2].iter().sum::<usize>() as f64)
                .metric("chunks_files_3_4", d[2..4].iter().sum::<usize>() as f64)
                .metric("chunks_files_5_10", d[4..].iter().sum::<usize>() as f64)
        },
    );

    let report = report
        .with_meta("cache_capacity_chunks", CACHE_CHUNKS.to_string())
        .with_meta("rate_boost", format!("{RATE_BOOST}"))
        .with_note(
            "paper shape: at the lowest rate the first two files get no cache despite having \
             the highest arrival rate (their servers are lightly loaded); their share grows \
             with the rate.",
        );
    (report, timings)
}

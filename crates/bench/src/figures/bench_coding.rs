//! Coding-layer throughput snapshot, emitted as `BENCH_coding.json`.
//!
//! Measures MB/s for the three coding-hot-path operations — `encode`,
//! `decode` (2 cache + 2 storage chunks, and the `k` data rows of a
//! whole-object cache hit) and `cache_chunks` (d = 2) — for
//! the parity rows alone (`encode_rows`: `encode_rows_into` on pre-split data
//! into reused buffers, i.e. `encode` without its copies and allocations) and
//! for the object checksum every put records and every get verifies
//! (`checksum`; kernel-independent, measured in every cell so it sits
//! beside the decode it follows) over a `kernel × size` grid:
//!
//! * **kernel** — every slice-kernel rung (`scalar`, `word`, `simd`), so
//!   the ladder's rung-over-rung speedup is tracked from one JSON artifact.
//!   `SPROUT_KERNEL=<name>` restricts the axis to one rung.
//! * **size_bytes** — 64 KiB, 1 MiB and 8 MiB objects.
//!
//! Every operation is one pass on the calling thread, as a store codes it.
//!
//! Every cell runs 3 replications, so the emitted `std_dev`/`ci95` are real
//! run-to-run spread, and records the decode-matrix memo's hit/miss counters
//! (summed across replications).
//!
//! The grid runs on the shared sweep harness, but **defaults to
//! `--threads 1`**: unlike the simulation sweeps, these cells measure
//! wall-clock throughput, and concurrent cells would contend for cores and
//! corrupt each other's numbers. (`--threads` is still honoured for a quick
//! parallel smoke where absolute numbers do not matter.)
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p sprout-bench -- bench_coding [--quick] [--out PATH]
//! ```

use std::time::Instant;

use crate::FigureCli;
use sprout::cluster::checksum64;
use sprout::erasure::{stripe, Chunk, CodeParams, Kernel, ReedSolomon};
use sprout::sim::sweep::{Sample, SweepGrid, SweepReport, SweepTimings};

const SIZES: [usize; 3] = [64 * 1024, 1024 * 1024, 8 * 1024 * 1024];
const CACHE_CHUNKS: usize = 2;
const REPLICATIONS: usize = 3;

/// Runs `f` repeatedly until the time budget is spent and returns MB/s
/// (throughput of `bytes` of input per call).
fn throughput(bytes: usize, budget_secs: f64, mut f: impl FnMut()) -> f64 {
    // Warm-up: populate lazy tables, page in buffers, settle the allocator.
    f();
    let mut iters = 0u64;
    let start = Instant::now();
    loop {
        f();
        iters += 1;
        if start.elapsed().as_secs_f64() >= budget_secs && iters >= 3 {
            break;
        }
    }
    (bytes as f64 * iters as f64) / start.elapsed().as_secs_f64() / 1e6
}

/// Runs the sweep and returns its report; the dispatcher adds the run meta
/// and writes the artifact.
pub fn run(cli: &FigureCli) -> (SweepReport, SweepTimings) {
    let budget = if cli.quick { 0.05 } else { 0.5 };
    let params = CodeParams::new(7, 4).expect("(7, 4) is a valid code");

    // SPROUT_KERNEL pins the kernel axis to a single rung (e.g. the CI
    // fallback leg benches only `word`); unset, every rung is measured.
    let kernels: Vec<Kernel> = match Kernel::from_env() {
        Ok(Some(k)) => vec![k],
        Ok(None) => Kernel::ALL.to_vec(),
        Err(msg) => {
            eprintln!("bench_coding: {msg}");
            std::process::exit(2);
        }
    };

    let grid = SweepGrid::named("bench_coding", 0)
        .axis("kernel", kernels.iter().map(|k| k.name()))
        .axis("size_bytes", SIZES.iter().map(|s| s.to_string()))
        .replications(REPLICATIONS);
    let (report, timings) = grid.run(cli.threads_or(1), |cell, _, _| {
        let kernel = kernels[cell.idx("kernel")];
        let size = SIZES[cell.idx("size_bytes")];
        let codec = ReedSolomon::with_kernel(params, kernel).expect("valid kernel");
        let data: Vec<u8> = (0..size).map(|i| (i * 31 + 7) as u8).collect();

        let encode = throughput(size, budget, || {
            std::hint::black_box(codec.encode(&data).unwrap());
        });
        // The coding loop alone: split once, parity rows into reused buffers.
        let (split, chunk_len) = stripe::split(&data, params.k());
        let split: Vec<&[u8]> = split.iter().map(Vec::as_slice).collect();
        let parity_rows: Vec<usize> = (params.k()..params.n()).collect();
        let mut parity = vec![vec![0u8; chunk_len]; parity_rows.len()];
        let encode_rows = throughput(size, budget, || {
            let mut outs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
            codec.encode_rows_into(&split, &parity_rows, &mut outs);
            std::hint::black_box(&mut outs);
        });
        let cache = throughput(size, budget, || {
            std::hint::black_box(codec.cache_chunks(&data, CACHE_CHUNKS).unwrap());
        });

        // Decode from a non-systematic mix: 2 cache chunks + the last 2
        // storage (parity) chunks, so real GF work happens on every row.
        let stored = codec.encode(&data).unwrap();
        let mut have: Vec<Chunk> = codec.cache_chunks(&data, CACHE_CHUNKS).unwrap();
        have.push(stored.chunks()[5].clone());
        have.push(stored.chunks()[6].clone());
        let decode = throughput(size, budget, || {
            std::hint::black_box(codec.decode(&have, size).unwrap());
        });
        // Decode from the k data rows: a hit on a file cached whole, which
        // copies every row and inverts nothing (the memo is not touched).
        let data_rows = &stored.chunks()[..params.k()];
        let decode_data_rows = throughput(size, budget, || {
            std::hint::black_box(codec.decode(data_rows, size).unwrap());
        });

        let checksum = throughput(size, budget, || {
            std::hint::black_box(checksum64(std::hint::black_box(&data)));
        });

        // The decode-matrix memo: every decode above reuses one row subset,
        // so a healthy memo shows exactly 1 miss and the rest hits.
        let (memo_hits, memo_misses) = codec.decode_memo_stats();
        Sample::new()
            .metric("encode_mb_per_s", encode)
            .metric("encode_rows_mb_per_s", encode_rows)
            .metric("cache_chunks_mb_per_s", cache)
            .metric("decode_mb_per_s", decode)
            .metric("decode_data_rows_mb_per_s", decode_data_rows)
            .metric("checksum_mb_per_s", checksum)
            .counter("decode_memo_hits", memo_hits)
            .counter("decode_memo_misses", memo_misses)
    });

    let simd = sprout::gf::simd_level();
    let report = report
        .with_meta("code", "(7, 4), cache_chunks_d = 2")
        .with_meta("unit", "MB/s of object bytes per operation")
        .with_meta("replications", REPLICATIONS.to_string())
        .with_meta("simd_level", simd.name())
        .with_meta(
            "cores",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        )
        .with_note(
            "wall-clock throughput: numbers vary run to run (no thresholds gated on them) \
             and are only comparable within a --threads 1 run",
        )
        .with_note(
            "retired threads axis: striped coding (64 KiB stripes on a scoped pool of 2 or 4 \
             threads) was deleted, so every row is one pass on one thread. Its last rows, on a \
             2-core avx512-gfni host, over the 1-thread row: simd encode 0.55x / decode \
             0.50x at 1 MiB on 2 threads and 0.43x / 0.32x on 4, at most 1.05x / 1.21x at \
             8 MiB; it won only on the word rung (2 threads: 1.24x / 1.54x at 1 MiB, \
             1.36x / 1.48x at 8 MiB), which no default store runs",
        )
        .with_note(
            "decode_memo_hits/misses count decode-matrix memo lookups per cell (summed over \
             replications); misses stay at 1 per distinct row subset",
        )
        .with_note(
            "checksum_mb_per_s: sprout_cluster::checksum64 (8 u64 lanes), single-threaded, \
             independent of the kernel axis. fnv1a_reference_mb_per_s: the \
             byte-serial FNV-1a it replaced in PR 23 measured 794 / 777 / 729 MB/s at \
             64 KiB / 1 MiB / 8 MiB on the same host with the same throughput() helper \
             (one-off; that hash is no longer in the tree)",
        )
        .with_note(
            "decode_data_rows_mb_per_s: decode from the k stored data rows, the bytes of a \
             whole-object cache hit; each row is copied into place and no decode matrix is \
             inverted or looked up, so the memo counters count decode_mb_per_s's calls only",
        )
        .with_note(
            "encode_rows_mb_per_s: the n - k parity rows of encode on data split once, into \
             buffers reused across calls; the gap to encode_mb_per_s is encode's split copy and \
             the fresh chunk buffers it allocates (page faults from 1 MiB up)",
        );
    let report = match simd {
        sprout::gf::SimdLevel::None => report.with_note(
            "simd fallback: no usable SIMD level on this host (or SPROUT_DISABLE_SIMD set) — \
             the `simd` kernel rows measure its word-kernel fallback path",
        ),
        sprout::gf::SimdLevel::Avx512Gfni => report.with_note(
            "simd rows on avx512-gfni: one vgf2p8affineqb per 64 bytes per coefficient \
             (the 0x11D bit matrix, not gf2p8mul's AES polynomial), and every coding loop is \
             one fused dot-product pass that reads each source once and writes each output once",
        ),
        _ => report.with_note(
            "simd rows on ssse3/avx2: pshufb/vpshufb nibble tables, and every coding loop is \
             one fused dot-product pass that reads each source once and writes each output once",
        ),
    };
    (report, timings)
}

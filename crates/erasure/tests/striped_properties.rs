//! Differential property tests for striped (multi-threaded) coding and for
//! `encode_rows_into` edge cases.
//!
//! Striping is one codec setting, `ReedSolomon::with_striping`. A codec with
//! it on must be **byte-identical** to one with it off — which is itself
//! proven byte-identical to the scalar reference in `coding_properties.rs` —
//! on every coding entry point, for:
//!
//! * every kernel (scalar, word, simd);
//! * `k` from 1 to 8 data chunks with `n = k + 3`, so every source count the
//!   fused SIMD dot product takes is covered beside the (7, 4) code;
//! * arbitrary file lengths, including 0, lengths below `k`, and lengths
//!   whose chunk length is not a multiple of the 8-byte word or 32-byte
//!   SIMD block;
//! * stripe lengths from 1 byte (every stripe is a kernel tail) up to
//!   larger than the chunk (striping degenerates to a single pass);
//! * any worker-thread count, including `0` (the machine's parallelism).

use proptest::prelude::*;
use sprout_erasure::{Chunk, CodeParams, Kernel, ReedSolomon, StripeOpts};

fn sample_file(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 + 7) as u8).collect()
}

fn code(k: usize, kernel: Kernel) -> ReedSolomon {
    ReedSolomon::with_kernel(CodeParams::new(k + 3, k).unwrap(), kernel).unwrap()
}

/// `rows` of `codec` coded into dirty buffers (every byte must be written).
fn rows_into(
    codec: &ReedSolomon,
    data: &[&[u8]],
    rows: &[usize],
    chunk_len: usize,
) -> Vec<Vec<u8>> {
    let mut bufs = vec![vec![0xEEu8; chunk_len]; rows.len()];
    let mut outs: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
    codec.encode_rows_into(data, rows, &mut outs);
    bufs
}

/// A codec with striping off and one with `stripe_len`/`threads` striping.
fn codecs(
    k: usize,
    kernel_idx: usize,
    stripe_len: usize,
    threads: usize,
) -> (ReedSolomon, ReedSolomon) {
    let kernel = Kernel::ALL[kernel_idx];
    let plain = code(k, kernel).with_striping(None);
    let striped = code(k, kernel).with_striping(Some(StripeOpts::new(stripe_len, threads)));
    (plain, striped)
}

proptest! {
    #[test]
    fn encode_striped_is_byte_identical(
        len in 0usize..2048,
        stripe_len in 1usize..300,
        threads in 0usize..5,
        kernel_idx in 0usize..Kernel::ALL.len(),
        k in 1usize..=8,
    ) {
        let (plain, striped) = codecs(k, kernel_idx, stripe_len, threads);
        let file = sample_file(len);
        let want = plain.encode(&file).unwrap();
        prop_assert_eq!(&striped.encode(&file).unwrap(), &want);
        prop_assert_eq!(&striped.encode_owned(file.clone(), None).unwrap(), &want);
    }

    #[test]
    fn decode_striped_is_byte_identical(
        len in 0usize..2048,
        stripe_len in 1usize..300,
        threads in 0usize..5,
        skip in 0usize..4,
        kernel_idx in 0usize..Kernel::ALL.len(),
        k in 1usize..=8,
    ) {
        let (plain, striped) = codecs(k, kernel_idx, stripe_len, threads);
        let file = sample_file(len);
        let encoded = plain.encode(&file).unwrap();
        // A sliding k-subset that includes parity rows, so real GF work runs.
        let subset: Vec<Chunk> = encoded.chunks().iter().skip(skip).take(k).cloned().collect();
        let want = plain.decode(&subset, len).unwrap();
        prop_assert_eq!(&want, &file);
        prop_assert_eq!(&striped.decode(&subset, len).unwrap(), &want);
        // decode_into a dirty reused buffer.
        let mut reused = vec![0xA5u8; len + 7];
        striped.decode_into(&subset, len, &mut reused).unwrap();
        prop_assert_eq!(&reused, &file);
    }

    #[test]
    fn encode_rows_striped_into_matches_single_pass(
        chunk_len in 0usize..700,
        stripe_len in 1usize..130,
        threads in 0usize..5,
        kernel_idx in 0usize..Kernel::ALL.len(),
        k in 1usize..=8,
    ) {
        let (plain, striped) = codecs(k, kernel_idx, stripe_len, threads);
        let data: Vec<Vec<u8>> = (0..k)
            .map(|j| (0..chunk_len).map(|i| (i * 31 + j * 17 + 3) as u8).collect())
            .collect();
        let data_refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        // Parity and cache rows: a systematic row would be a plain copy.
        let rows = [k, k + 2, 2 * k + 2];
        prop_assert_eq!(
            rows_into(&striped, &data_refs, &rows, chunk_len),
            rows_into(&plain, &data_refs, &rows, chunk_len)
        );
    }

    #[test]
    fn auto_striping_is_invisible_in_the_bytes(
        len in 0usize..2048,
        stripe_len in 1usize..300,
        threads in 0usize..5,
        skip in 0usize..4,
        d_seed in 0usize..9,
        kernel_idx in 0usize..Kernel::ALL.len(),
        k in 1usize..=8,
    ) {
        // End to end (encode -> cache -> decode): the cache-chunk paths of
        // a striped codec, from the file and from a k-subset of chunks.
        let (plain, striped) = codecs(k, kernel_idx, stripe_len, threads);
        let file = sample_file(len);
        let d = d_seed % (k + 1);
        let encoded = striped.encode(&file).unwrap();
        let subset: Vec<Chunk> = encoded.chunks().iter().skip(skip).take(k).cloned().collect();
        let cached = plain.cache_chunks(&file, d).unwrap();
        prop_assert_eq!(&striped.cache_chunks(&file, d).unwrap(), &cached);
        prop_assert_eq!(&striped.cache_chunks_from_chunks(&subset, d).unwrap(), &cached);
        prop_assert_eq!(&striped.decode(&subset, len).unwrap(), &file);
    }
}

/// Satellite: `encode_rows_into` edge cases on every kernel — zero-length
/// objects, objects smaller than `k`, and deliberately unaligned chunk
/// lengths (neither 8-byte word nor 16/32-byte SIMD multiples).
#[test]
fn encode_rows_into_edge_cases_on_every_kernel() {
    // Chunk lengths straddling the word (8) and SIMD block (16/32) sizes.
    let edge_chunk_lens = [0usize, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 65];
    for kernel in Kernel::ALL {
        let rs = ReedSolomon::with_kernel(CodeParams::new(7, 4).unwrap(), kernel).unwrap();
        let reference =
            ReedSolomon::with_kernel(CodeParams::new(7, 4).unwrap(), Kernel::Scalar).unwrap();
        for &chunk_len in &edge_chunk_lens {
            let data: Vec<Vec<u8>> = (0..4)
                .map(|j| {
                    (0..chunk_len)
                        .map(|i| (i * 37 + j * 11 + 5) as u8)
                        .collect()
                })
                .collect();
            let data_refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let rows: Vec<usize> = vec![0, 4, 5, 6, 8, 10];
            let mut want = vec![vec![0u8; chunk_len]; rows.len()];
            {
                let mut outs: Vec<&mut [u8]> = want.iter_mut().map(Vec::as_mut_slice).collect();
                reference.encode_rows_into(&data_refs, &rows, &mut outs);
            }
            let mut got = vec![vec![0xA5u8; chunk_len]; rows.len()];
            {
                let mut outs: Vec<&mut [u8]> = got.iter_mut().map(Vec::as_mut_slice).collect();
                rs.encode_rows_into(&data_refs, &rows, &mut outs);
            }
            assert_eq!(got, want, "kernel {kernel} chunk_len {chunk_len}");
        }
    }
}

/// Satellite: whole-file encode of zero-length and smaller-than-`k` objects
/// on every kernel, striped and not.
#[test]
fn tiny_objects_round_trip_on_every_kernel() {
    for kernel in Kernel::ALL {
        let rs = ReedSolomon::with_kernel(CodeParams::new(7, 4).unwrap(), kernel).unwrap();
        let encoder = rs.clone().with_striping(Some(StripeOpts::new(3, 4)));
        let decoder = rs.clone().with_striping(Some(StripeOpts::new(2, 3)));
        // len < k means chunk_len 1 with padding; len 0 means empty chunks.
        for len in [0usize, 1, 2, 3] {
            let file = sample_file(len);
            for encoded in [rs.encode(&file).unwrap(), encoder.encode(&file).unwrap()] {
                assert_eq!(encoded.original_len(), len, "kernel {kernel} len {len}");
                let subset: Vec<Chunk> = encoded.chunks()[3..7].to_vec();
                assert_eq!(rs.decode(&subset, len).unwrap(), file);
                assert_eq!(decoder.decode(&subset, len).unwrap(), file);
            }
        }
    }
}

/// Striped decode must hit the same decode-matrix memo as the single-pass
/// path (one miss, then hits — the elimination is never re-run per stripe).
#[test]
fn striped_decode_shares_the_matrix_memo() {
    let rs = ReedSolomon::new(CodeParams::new(7, 4).unwrap())
        .unwrap()
        .with_striping(Some(StripeOpts::new(256, 4)));
    let file = sample_file(4096);
    let encoded = rs.encode(&file).unwrap();
    let subset: Vec<Chunk> = encoded.chunks()[2..6].to_vec();
    for _ in 0..3 {
        assert_eq!(rs.decode(&subset, file.len()).unwrap(), file);
    }
    let (hits, misses) = rs.decode_memo_stats();
    assert_eq!((hits, misses), (2, 1));
}

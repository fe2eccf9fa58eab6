//! Property-based tests for the erasure-coding invariants that functional
//! caching depends on.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sprout_erasure::{Chunk, CodeParams, Kernel, ReedSolomon};

/// Strategy producing valid (n, k) pairs small enough for exhaustive checks.
fn params() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=6).prop_flat_map(|k| (k..=k + 5, Just(k)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn round_trip_from_random_k_subset(
        (n, k) in params(),
        file in proptest::collection::vec(any::<u8>(), 0..300),
        seed in any::<u64>(),
    ) {
        let rs = ReedSolomon::new(CodeParams::new(n, k).unwrap()).unwrap();
        let encoded = rs.encode(&file).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut chunks: Vec<Chunk> = encoded.chunks().to_vec();
        chunks.shuffle(&mut rng);
        chunks.truncate(k);
        prop_assert_eq!(rs.decode(&chunks, file.len()).unwrap(), file);
    }

    #[test]
    fn functional_cache_plus_storage_subset_decodes(
        (n, k) in params(),
        d in 0usize..=6,
        file in proptest::collection::vec(any::<u8>(), 1..300),
        seed in any::<u64>(),
    ) {
        let d = d.min(k);
        let codec = ReedSolomon::new(CodeParams::new(n, k).unwrap()).unwrap();
        let stored = codec.encode(&file).unwrap();
        let cached = codec.cache_chunks(&file, d).unwrap();
        prop_assert_eq!(cached.len(), d);

        // take the d cache chunks and a random set of k - d storage chunks
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut storage: Vec<Chunk> = stored.chunks().to_vec();
        storage.shuffle(&mut rng);
        let mut have = cached;
        have.extend(storage.into_iter().take(k - d));
        prop_assert_eq!(codec.decode(&have, file.len()).unwrap(), file);
    }

    #[test]
    fn verify_accepts_encoded_chunks((n, k) in params(), file in proptest::collection::vec(any::<u8>(), 1..200)) {
        let rs = ReedSolomon::new(CodeParams::new(n, k).unwrap()).unwrap();
        let encoded = rs.encode(&file).unwrap();
        prop_assert!(rs.verify(encoded.chunks()).unwrap());
    }

    #[test]
    fn corrupting_one_chunk_is_detected_by_verify(
        (n, k) in params(),
        file in proptest::collection::vec(any::<u8>(), 8..200),
        byte in any::<u8>(),
    ) {
        prop_assume!(n > k); // with n == k there is no redundancy to detect corruption
        prop_assume!(byte != 0);
        let rs = ReedSolomon::new(CodeParams::new(n, k).unwrap()).unwrap();
        let encoded = rs.encode(&file).unwrap();
        let mut chunks = encoded.chunks().to_vec();
        let mut payload = chunks[n - 1].data.to_vec();
        payload[0] ^= byte;
        chunks[n - 1] = Chunk::new(chunks[n - 1].id, payload);
        prop_assert!(!rs.verify(&chunks).unwrap());
    }

    #[test]
    fn public_results_are_kernel_independent(
        (n, k) in params(),
        d in 0usize..=6,
        file in proptest::collection::vec(any::<u8>(), 0..300),
        seed in any::<u64>(),
    ) {
        // encode / decode / cache_chunks must be byte-identical across every
        // slice kernel (the word kernel is differentially tested against the
        // scalar reference end to end, not just per-slice).
        let d = d.min(k);
        let reference = ReedSolomon::with_kernel(
            CodeParams::new(n, k).unwrap(),
            Kernel::Scalar,
        ).unwrap();
        let want_encoded = reference.encode(&file).unwrap();
        let want_cached = reference.cache_chunks(&file, d).unwrap();

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut have: Vec<Chunk> = want_cached.clone();
        let mut storage: Vec<Chunk> = want_encoded.chunks().to_vec();
        storage.shuffle(&mut rng);
        have.extend(storage.iter().take(k - d).cloned());
        let want_decoded = reference.decode(&have, file.len()).unwrap();
        prop_assert_eq!(&want_decoded, &file);

        let codec = ReedSolomon::with_kernel(
            CodeParams::new(n, k).unwrap(),
            Kernel::Word,
        ).unwrap();
        prop_assert_eq!(codec.encode(&file).unwrap(), want_encoded);
        prop_assert_eq!(codec.cache_chunks(&file, d).unwrap(), want_cached);
        prop_assert_eq!(codec.decode(&have, file.len()).unwrap(), want_decoded);
    }

    #[test]
    fn cache_chunk_payloads_differ_from_storage_chunks(
        file in proptest::collection::vec(any::<u8>(), 32..200),
    ) {
        // Functional cache chunks are *functions* of the data, not copies of
        // stored chunks; for a systematic (7,4) code the cache rows are
        // distinct generator rows so payloads differ from every storage chunk
        // (except for degenerate all-equal data, excluded by prop_assume).
        prop_assume!(file.windows(2).any(|w| w[0] != w[1]));
        let codec = ReedSolomon::new(CodeParams::new(7, 4).unwrap()).unwrap();
        let stored = codec.encode(&file).unwrap();
        let cached = codec.cache_chunks(&file, 4).unwrap();
        for c in &cached {
            for s in stored.chunks() {
                prop_assert_ne!(&c.data, &s.data);
            }
        }
    }
}

/// `encode_rows_into` edge cases on every kernel — zero-length objects,
/// objects smaller than `k`, and deliberately unaligned chunk lengths
/// (neither 8-byte word nor 16/32-byte SIMD multiples).
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

/// Whole-file encode of zero-length and smaller-than-`k` objects on every
/// kernel, decoded from parity rows.
#[test]
fn tiny_objects_round_trip_on_every_kernel() {
    for kernel in Kernel::ALL {
        let rs = ReedSolomon::with_kernel(CodeParams::new(7, 4).unwrap(), kernel).unwrap();
        // len < k means chunk_len 1 with padding; len 0 means empty chunks.
        for len in [0usize, 1, 2, 3] {
            let file: Vec<u8> = (0..len).map(|i| (i * 131 + 7) as u8).collect();
            let encoded = rs.encode(&file).unwrap();
            assert_eq!(encoded.original_len(), len, "kernel {kernel} len {len}");
            let subset: Vec<Chunk> = encoded.chunks()[3..7].to_vec();
            assert_eq!(rs.decode(&subset, len).unwrap(), file);
        }
    }
}

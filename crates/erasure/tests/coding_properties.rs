//! Property-based tests for the erasure-coding invariants that functional
//! caching depends on.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sprout_erasure::{Chunk, CodeParams, FunctionalCacheCodec, Kernel, ReedSolomon};

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
        let codec = FunctionalCacheCodec::new(CodeParams::new(n, k).unwrap()).unwrap();
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
        let reference = FunctionalCacheCodec::with_kernel(
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

        let codec = FunctionalCacheCodec::with_kernel(
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
        let codec = FunctionalCacheCodec::new(CodeParams::new(7, 4).unwrap()).unwrap();
        let stored = codec.encode(&file).unwrap();
        let cached = codec.cache_chunks(&file, 4).unwrap();
        for c in &cached {
            for s in stored.chunks() {
                prop_assert_ne!(&c.data, &s.data);
            }
        }
    }
}

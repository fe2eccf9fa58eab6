//! The owned-buffer coding entry points against their borrowed twins:
//! `encode_owned` must produce exactly `encode`'s chunks (the data chunks
//! as views of the caller's payload, the parity in a recycled spare when
//! one of the exact size is given), and `decode_into` must return exactly
//! what `decode` returns whatever the reused buffer held before.

use proptest::prelude::*;
use sprout_erasure::{Chunk, CodeParams, Kernel, ReedSolomon, StripeOpts};

fn sample_file(len: usize, salt: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 + salt * 17 + 7) as u8).collect()
}

fn code(n: usize, k: usize, kernel: Kernel) -> ReedSolomon {
    ReedSolomon::with_kernel(CodeParams::new(n, k).unwrap(), kernel).unwrap()
}

#[test]
fn owned_encode_equals_encode_on_every_kernel() {
    let lengths = (0..=257).chain([64 * 1024 + 13, 1 << 20]);
    for len in lengths {
        let file = sample_file(len, 1);
        for kernel in Kernel::ALL {
            for (n, k) in [(7, 4), (5, 3)] {
                let rs = code(n, k, kernel);
                let want = rs.encode(&file).unwrap();
                let got = rs.encode_owned(file.clone(), None).unwrap();
                assert_eq!(got, want, "len {len}, ({n}, {k}), {kernel}");
            }
        }
    }
}

#[test]
fn owned_encode_equals_encode_when_striped() {
    for len in [64 * 1024 + 13, 1 << 20] {
        let file = sample_file(len, 2);
        let rs = code(7, 4, Kernel::auto()).with_striping(Some(StripeOpts::new(4096, 2)));
        assert_eq!(
            rs.encode_owned(file.clone(), None).unwrap(),
            rs.encode(&file).unwrap(),
            "len {len}"
        );
    }
}

#[test]
fn owned_data_chunks_view_the_payload_and_parity_shares_one_buffer() {
    let rs = code(7, 4, Kernel::auto());
    // 1001 bytes pad to 4 × 251; spare capacity keeps the pad in place.
    let mut file = Vec::with_capacity(1004);
    file.extend(sample_file(1001, 3));
    let base = file.as_ptr() as usize;
    let encoded = rs.encode_owned(file, None).unwrap();
    let chunk_len = encoded.chunk_len();
    assert_eq!(chunk_len, 251);
    let chunks = encoded.chunks();
    for (i, chunk) in chunks[..4].iter().enumerate() {
        assert_eq!(
            chunk.data.as_ptr() as usize,
            base + i * chunk_len,
            "data chunk {i} must be a view of the payload"
        );
    }
    assert!(chunks[3].data[chunk_len - 3..].iter().all(|&b| b == 0));
    let parity = chunks[4].data.as_ptr() as usize;
    for (i, chunk) in chunks[4..].iter().enumerate() {
        assert_eq!(
            chunk.data.as_ptr() as usize,
            parity + i * chunk_len,
            "parity chunk {i} must be a view of the one parity buffer"
        );
    }
}

#[test]
fn an_exact_size_spare_holds_the_parity_whatever_it_held_before() {
    let file = sample_file(1 << 20, 4);
    for kernel in Kernel::ALL {
        let rs = code(7, 4, kernel);
        let want = rs.encode(&file).unwrap();
        let parity_len = 3 * want.chunk_len();
        // A full dirty buffer, and one whose length covers a single row
        // (what a reclaimed parity row view gives back).
        let mut short = vec![0x5Au8; parity_len];
        short.truncate(want.chunk_len());
        for spare in [vec![0xC3u8; parity_len], short] {
            let base = spare.as_ptr() as usize;
            let got = rs.encode_owned(file.clone(), Some(spare)).unwrap();
            assert_eq!(got, want, "{kernel}");
            assert_eq!(
                got.chunks()[4].data.as_ptr() as usize,
                base,
                "the parity rows must be coded into the spare ({kernel})"
            );
        }
    }
}

#[test]
fn a_spare_of_another_size_is_not_used() {
    let rs = code(7, 4, Kernel::auto());
    let file = sample_file(64 * 1024 + 13, 5);
    let want = rs.encode(&file).unwrap();
    let parity_len = 3 * want.chunk_len();
    for capacity in [parity_len - 1, parity_len + 1, 3 << 20, 0] {
        let spare = Vec::with_capacity(capacity);
        let base = spare.as_ptr() as usize;
        let got = rs.encode_owned(file.clone(), Some(spare)).unwrap();
        assert_eq!(got, want, "capacity {capacity}");
        assert_eq!(got.chunks()[4].data.len(), want.chunk_len());
        assert_ne!(
            got.chunks()[4].data.as_ptr() as usize,
            base,
            "a spare of capacity {capacity} must not hold a parity of {parity_len} bytes"
        );
    }
}

#[test]
fn decode_into_a_reused_dirty_buffer_returns_what_decode_returns() {
    for kernel in Kernel::ALL {
        let rs = code(7, 4, kernel);
        // Longer than any object below and full of garbage.
        let mut buf = vec![0xA5u8; (1 << 20) + 4096];
        let first = buf.as_ptr();
        let sizes = [1 << 20, 4096, 64 * 1024 + 13, 1 << 20];
        for (step, &len) in sizes.iter().enumerate() {
            let file = sample_file(len, step);
            let encoded = rs.encode(&file).unwrap();
            // A different mix of data and parity rows at every step.
            let subset: Vec<Chunk> = encoded.chunks()[step..step + 4].to_vec();
            let want = rs.decode(&subset, len).unwrap();
            assert_eq!(want, file);
            rs.decode_into(&subset, len, &mut buf).unwrap();
            assert_eq!(buf, want, "step {step}, len {len}, {kernel}");
            assert_eq!(
                buf.as_ptr(),
                first,
                "a buffer with room is reused, not replaced"
            );
        }
    }
}

#[test]
fn decode_into_a_small_buffer_grows_it() {
    let rs = code(7, 4, Kernel::auto());
    let file = sample_file(64 * 1024 + 13, 9);
    let encoded = rs.encode(&file).unwrap();
    let mut buf = vec![0xFFu8; 10];
    rs.decode_into(&encoded.chunks()[3..7], file.len(), &mut buf)
        .unwrap();
    assert_eq!(buf, file);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn owned_encode_equals_encode_for_any_code(
        (n, k) in (1usize..=6).prop_flat_map(|k| (k..=k + 5, Just(k))),
        file in proptest::collection::vec(any::<u8>(), 0..=257),
    ) {
        for kernel in Kernel::ALL {
            let rs = code(n, k, kernel);
            prop_assert_eq!(rs.encode_owned(file.clone(), None).unwrap(), rs.encode(&file).unwrap());
        }
    }

    #[test]
    fn a_spare_never_changes_the_coded_bytes(
        (n, k) in (1usize..=6).prop_flat_map(|k| (k..=k + 5, Just(k))),
        file in proptest::collection::vec(any::<u8>(), 0..=257),
        fill in any::<u8>(),
        spare_len in 0usize..=1600,
        capacity_slack in 0usize..=2,
    ) {
        let rs = code(n, k, Kernel::auto());
        let mut spare = Vec::with_capacity(spare_len + capacity_slack);
        spare.resize(spare_len, fill);
        prop_assert_eq!(rs.encode_owned(file.clone(), Some(spare)).unwrap(), rs.encode(&file).unwrap());
    }
}

//! Differential and sensitivity tests for the object checksum.
//!
//! [`checksum64`] (block-at-a-time, `LANES` words per step) must equal
//! [`checksum64_reference`] (one word at a time, built byte by byte) on:
//!
//! * every length 0..=257 — empty, all-tail, below/at/past one word, one
//!   block (`8 * LANES` bytes) and several blocks plus every remainder;
//! * every start offset 0..8, so word loads never rely on alignment;
//! * the serving sizes, 64 KiB and 1 MiB.
//!
//! And it must notice what an integrity check is for: a flipped bit, two
//! words that changed places, bytes appended.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sprout_cluster::checksum::{checksum64, checksum64_reference, LANES};

fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen()).collect()
}

#[test]
fn fast_path_equals_the_reference_on_every_length_and_offset() {
    let buffer = random_bytes(257 + 8, 1);
    for offset in 0..8 {
        for len in 0..=257 {
            let data = &buffer[offset..offset + len];
            assert_eq!(
                checksum64(data),
                checksum64_reference(data),
                "offset {offset}, length {len}"
            );
        }
    }
}

#[test]
fn fast_path_equals_the_reference_at_serving_sizes() {
    for (len, seed) in [(64 * 1024, 2), (1024 * 1024, 3)] {
        let buffer = random_bytes(len + 8, seed);
        for offset in [0, 1, 7] {
            let data = &buffer[offset..offset + len];
            assert_eq!(
                checksum64(data),
                checksum64_reference(data),
                "offset {offset}, length {len}"
            );
        }
    }
}

#[test]
fn the_empty_slice_has_a_fixed_sum() {
    // Pins the definition's constants (lane seeds, multiplier, rotation,
    // fold seed, avalanche); computed independently of both implementations.
    const EMPTY_SUM: u64 = 0x1413_17E2_B9A3_2701;
    assert_eq!(checksum64(&[]), EMPTY_SUM);
    assert_eq!(checksum64_reference(&[]), EMPTY_SUM);
}

#[test]
fn any_single_bit_flip_changes_the_sum() {
    // Lengths with a partial tail word, a partial block and whole blocks.
    for len in [1, 7, 8, 9, 63, 64, 65, 200, 257] {
        let data = random_bytes(len, 4);
        let sum = checksum64(&data);
        for bit in 0..len * 8 {
            let mut flipped = data.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum64(&flipped), sum, "length {len}, bit {bit}");
        }
    }
    // At 64 KiB: every bit of a few bytes spread over the object.
    let data = random_bytes(64 * 1024, 5);
    let sum = checksum64(&data);
    for byte in [0, 1, 4_099, 32_768, 65_535] {
        for bit in 0..8 {
            let mut flipped = data.clone();
            flipped[byte] ^= 1 << bit;
            assert_ne!(checksum64(&flipped), sum, "byte {byte}, bit {bit}");
        }
    }
}

#[test]
fn swapping_two_distinct_words_changes_the_sum() {
    let words = 6 * LANES + 3;
    let data = random_bytes(words * 8, 6);
    let sum = checksum64(&data);
    // Every pair: same lane (`a % LANES == b % LANES`) and different lanes.
    let (mut same_lane, mut cross_lane) = (0, 0);
    for a in 0..words {
        for b in a + 1..words {
            let (wa, wb) = (a * 8..a * 8 + 8, b * 8..b * 8 + 8);
            assert_ne!(data[wa.clone()], data[wb.clone()], "random words differ");
            let mut swapped = data.clone();
            swapped[wa.clone()].copy_from_slice(&data[wb.clone()]);
            swapped[wb].copy_from_slice(&data[wa]);
            assert_ne!(checksum64(&swapped), sum, "words {a} and {b}");
            if a % LANES == b % LANES {
                same_lane += 1;
            } else {
                cross_lane += 1;
            }
        }
    }
    assert!(same_lane > 0 && cross_lane > 0, "both kinds of swap ran");
}

#[test]
fn appending_zero_bytes_changes_the_sum() {
    // Within the zero-padded tail word the words are unchanged and only the
    // folded length differs; past it, new all-zero words appear.
    for len in [0, 1, 5, 8, 64, 100] {
        let data = random_bytes(len, 7);
        let sum = checksum64(&data);
        let mut longer = data.clone();
        for extra in 1..=2 * 8 * LANES {
            longer.push(0);
            assert_ne!(checksum64(&longer), sum, "length {len} + {extra} zeros");
        }
    }
}

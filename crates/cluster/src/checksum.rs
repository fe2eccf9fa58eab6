//! The object checksum: a word-parallel multiply–rotate hash.
//!
//! Every `put` records [`checksum64`] of the object's bytes in its metadata
//! and every `get` checks the decoded bytes against it, so the hash sits on
//! the serving hot path next to a multi-GB/s GF(2^8) decode and has to run
//! at memory speed. A byte-serial hash (one dependent multiply per byte)
//! cannot; this one reads little-endian `u64` words and deals them
//! round-robin onto [`LANES`] independent lanes.
//!
//! Definition (what [`checksum64_reference`] spells out one word at a time):
//!
//! 1. the input is cut into little-endian `u64` words; a last partial word
//!    is padded with zero bytes;
//! 2. word `j` goes to lane `j % LANES`, whose state becomes
//!    `rotl(state, ROTATE) + word * MULTIPLIER`; lane `i` starts at
//!    `LANE_SEEDS[i]`. The multiply is of the *word*, so it is off the
//!    lane's dependency chain (rotate + add): scalar cores overlap the
//!    multiplies of a block, and where LLVM vectorizes the lanes a slow
//!    vector multiply (AVX-512 `vpmullq`) costs throughput, not latency;
//! 3. the byte length and then every lane are folded, in lane order, into
//!    one accumulator with `rotl((acc ^ x) * MULTIPLIER, ROTATE)`, and the
//!    accumulator goes through a final avalanche.
//!
//! Every step is a bijection of the state for a fixed word and of the word
//! for a fixed state, and so are the fold and the avalanche: changing any
//! single word (so any single bit), or the length alone, always changes the
//! sum. It is an integrity check against torn and mixed-version reads, not
//! a cryptographic hash.

/// Independent multiply–rotate lanes the words are dealt onto.
pub const LANES: usize = 8;

/// Odd 64-bit multiplier (the golden-ratio constant).
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;
/// Left rotation per step; coprime to 64, so a bit visits every position.
const ROTATE: u32 = 29;
/// Accumulator start of the final fold.
const FOLD_SEED: u64 = 0x5350_524F_5554_3634; // "SPROUT64"
/// Initial lane states: distinct, so equal words on different lanes differ.
const LANE_SEEDS: [u64; LANES] = [
    0x243F_6A88_85A3_08D3,
    0x1319_8A2E_0370_7344,
    0xA409_3822_299F_31D0,
    0x082E_FA98_EC4E_6C89,
    0x4528_21E6_38D0_1377,
    0xBE54_66CF_34E9_0C6C,
    0xC0AC_29B7_C97C_50DD,
    0x3F84_D5B5_B547_0917,
];

/// One word into its lane.
#[inline(always)]
fn absorb(lane: u64, word: u64) -> u64 {
    lane.rotate_left(ROTATE)
        .wrapping_add(word.wrapping_mul(MULTIPLIER))
}

/// Folds the length and the lanes into one word and avalanches it.
fn finish(len: usize, lanes: &[u64; LANES]) -> u64 {
    let mut acc = FOLD_SEED ^ len as u64;
    for &lane in lanes {
        acc = (acc ^ lane).wrapping_mul(MULTIPLIER).rotate_left(ROTATE);
    }
    // splitmix64's finalizer: every input bit reaches every output bit.
    acc ^= acc >> 30;
    acc = acc.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    acc ^= acc >> 27;
    acc = acc.wrapping_mul(0x94D0_49BB_1331_11EB);
    acc ^ (acc >> 31)
}

fn word_of(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte slice"))
}

/// The 64-bit checksum of `data` (see the module docs for the definition).
pub fn checksum64(data: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    // One block = one word for every lane, so a block's lane updates are
    // independent of each other.
    let mut blocks = data.chunks_exact(8 * LANES);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = absorb(*lane, word_of(word));
        }
    }
    // Less than a block is left: fewer than LANES whole words, then at most
    // one partial word, zero-padded.
    for (lane, bytes) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut padded = [0u8; 8];
        padded[..bytes.len()].copy_from_slice(bytes);
        *lane = absorb(*lane, u64::from_le_bytes(padded));
    }
    finish(data.len(), &lanes)
}

/// The same sum computed the obvious way — one word at a time, each built
/// byte by byte, the lane picked by `j % LANES`. The property tests hold
/// [`checksum64`] to it on every length and alignment, exactly as the GF
/// slice kernels are held to their scalar rung.
pub fn checksum64_reference(data: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    for (j, bytes) in data.chunks(8).enumerate() {
        let mut word = 0u64;
        for (i, &byte) in bytes.iter().enumerate() {
            word |= u64::from(byte) << (8 * i);
        }
        lanes[j % LANES] = absorb(lanes[j % LANES], word);
    }
    finish(data.len(), &lanes)
}

//! Explicit-SIMD GF(2^8) block kernels: the nibble-table shuffle, the GFNI
//! affine transform, and one fused dot product over both.
//!
//! Two ways to multiply a vector of bytes by a constant `c`:
//!
//! * **Nibble tables** (Plank et al., "Screaming Fast Galois Field
//!   Arithmetic Using Intel SIMD Instructions", FAST'13; the kernel at the
//!   heart of ISA-L). A product splits over the nibbles of `x`,
//!
//!   ```text
//!   c * x == lo[x & 0xF] ^ hi[x >> 4]
//!   ```
//!
//!   and both 16-entry tables fit in one register, so one byte shuffle
//!   (`pshufb` / `vpshufb`) does 16 (SSSE3) or 32 (AVX2) lookups. Each
//!   product costs two shuffles, two masks, a shift and an xor.
//! * **GFNI affine transform** (AVX-512 + GFNI). Multiplication by a fixed
//!   `c` is linear over GF(2), so it is an 8×8 bit matrix `A` with
//!   `c * x == A · x`. `vgf2p8affineqb` applies such a matrix to all 64 bytes
//!   of a register in one instruction. [`MulTable::affine`] stores `A` in
//!   the instruction's layout: the row producing output bit `i` sits in
//!   byte `7 − i` of the `u64`. The transform works for *any* field
//!   polynomial, ours included (0x11D). The neighbouring `vgf2p8mulb` is
//!   not used: it hardwires the AES polynomial 0x11B and would give wrong
//!   products here.
//!
//! Every rung provides the same three loops, written once over a private
//! `Rung` trait of block primitives (load, store, xor, multiply):
//!
//! * `mul_acc` — `dst ^= c * src`;
//! * `mul` — `dst = c * src`;
//! * `dot` — `outs[r] = Σ_j c[r][j] * srcs[j]` for up to [`MAX_DOT`]
//!   sources and outputs. At each block offset it loads every source once,
//!   multiplies it into one accumulator register per output, and stores each
//!   output once: one pass over the data, where a row-at-a-time loop makes
//!   `rows × srcs` passes and re-reads every output `srcs − 1` times.
//!
//! The functions here process only the SIMD-block-aligned *prefix* of a
//! slice and report how many bytes they handled; the caller
//! ([`kernel`](crate::kernel)) finishes the tail with the portable word
//! kernel. On hardware without SSSE3 — or when the `SPROUT_DISABLE_SIMD`
//! environment variable is set — the prefix is empty and the whole slice
//! takes the portable path, so [`Kernel::Simd`](crate::Kernel::Simd) is
//! always safe to select.
//!
//! This is the only module in the crate allowed to use `unsafe` (the crate
//! is otherwise `#![deny(unsafe_code)]`): the intrinsics require it, every
//! unsafe block is commented with its safety argument, and the differential
//! tests below and in `tests/kernel_properties.rs` prove every rung
//! byte-identical to the scalar reference.

use std::sync::OnceLock;

use crate::field::Gf256;
use crate::kernel::MulTable;

/// Most sources, and most outputs, one fused dot-product pass takes; larger
/// shapes run the per-row loop.
pub const MAX_DOT: usize = 8;

/// The SIMD instruction-set rung detected on the running CPU, lowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// No usable SIMD: non-x86 target, a CPU without SSSE3, or detection
    /// disabled via `SPROUT_DISABLE_SIMD`.
    None,
    /// SSE + SSSE3 `pshufb`: 16 bytes per shuffle.
    Ssse3,
    /// AVX2 `vpshufb`: 32 bytes per shuffle.
    Avx2,
    /// AVX-512 `vgf2p8affineqb`: 64 bytes per instruction.
    Avx512Gfni,
}

impl SimdLevel {
    /// Every rung, lowest first.
    pub(crate) const ALL: [SimdLevel; 4] = [
        SimdLevel::None,
        SimdLevel::Ssse3,
        SimdLevel::Avx2,
        SimdLevel::Avx512Gfni,
    ];

    /// Stable lower-case name (used in benchmark artifact metadata).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::None => "none",
            SimdLevel::Ssse3 => "ssse3",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512Gfni => "avx512-gfni",
        }
    }

    /// Bytes per SIMD block (`0` for [`SimdLevel::None`]).
    fn block_len(self) -> usize {
        match self {
            SimdLevel::None => 0,
            SimdLevel::Ssse3 => 16,
            SimdLevel::Avx2 => 32,
            SimdLevel::Avx512Gfni => 64,
        }
    }

    /// The longest prefix of `len` bytes made of whole blocks.
    fn prefix(self, len: usize) -> usize {
        match self.block_len() {
            0 => 0,
            block => len - len % block,
        }
    }
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// `true` when `SPROUT_DISABLE_SIMD` asks for the portable fallback (any
/// value except empty, `0` or `false` disables SIMD).
fn disabled_by_env() -> bool {
    match std::env::var("SPROUT_DISABLE_SIMD") {
        Ok(v) => !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false")),
        Err(_) => false,
    }
}

/// The SIMD level of the running CPU, detected once per process.
///
/// Honors `SPROUT_DISABLE_SIMD` (read at first call): when set, reports
/// [`SimdLevel::None`] so every kernel — including an explicitly selected
/// [`Kernel::Simd`](crate::Kernel::Simd) — runs the portable word path.
/// This is the hook CI's fallback leg uses to keep the portable path
/// covered on SIMD-capable runners.
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if disabled_by_env() {
            return SimdLevel::None;
        }
        SimdLevel::ALL
            .into_iter()
            .rev()
            .find(|&level| cpu_has(level))
            .unwrap_or(SimdLevel::None)
    })
}

/// Whether [`Kernel::Simd`](crate::Kernel::Simd) has real SIMD behind it on
/// this CPU (`simd_level() != SimdLevel::None`).
pub(crate) fn simd_available() -> bool {
    simd_level() != SimdLevel::None
}

/// Whether the running CPU has every instruction `level`'s kernels use.
#[cfg(target_arch = "x86_64")]
fn cpu_has(level: SimdLevel) -> bool {
    match level {
        SimdLevel::None => true,
        SimdLevel::Ssse3 => is_x86_feature_detected!("ssse3"),
        SimdLevel::Avx2 => is_x86_feature_detected!("avx2"),
        SimdLevel::Avx512Gfni => {
            is_x86_feature_detected!("gfni")
                && is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_has(level: SimdLevel) -> bool {
    level == SimdLevel::None
}

/// Multiply–accumulate (`dst[i] ^= c * src[i]`) over the SIMD-block prefix
/// of the slices; returns the number of bytes processed (a multiple of the
/// detected block size, `0` when SIMD is unavailable).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[allow(unsafe_code)]
pub(crate) fn mul_acc_prefix(t: &MulTable, src: &[u8], dst: &mut [u8]) -> usize {
    // SAFETY: `simd_level` reports only a rung the CPU has.
    unsafe { mul_acc_at(simd_level(), t, src, dst) }
}

/// Multiply–overwrite (`dst[i] = c * src[i]`) over the SIMD-block prefix;
/// returns the number of bytes processed. See [`mul_acc_prefix`], whose
/// panics it shares.
#[allow(unsafe_code)]
pub(crate) fn mul_prefix(t: &MulTable, src: &[u8], dst: &mut [u8]) -> usize {
    // SAFETY: `simd_level` reports only a rung the CPU has.
    unsafe { mul_at(simd_level(), t, src, dst) }
}

/// Fused dot product (`outs[r] = Σ_j coeffs[r * srcs.len() + j] * srcs[j]`)
/// over the SIMD-block prefix; returns the number of bytes of every output
/// written. Returns `0`, touching nothing, when SIMD is unavailable or the
/// shape has no sources, no outputs, or more than [`MAX_DOT`] of either.
///
/// # Panics
///
/// Panics on a fused shape whose slices differ in length or whose `coeffs`
/// is not `outs.len() × srcs.len()`.
#[allow(unsafe_code)]
pub(crate) fn dot_prefix(coeffs: &[Gf256], srcs: &[&[u8]], outs: &mut [&mut [u8]]) -> usize {
    // SAFETY: `simd_level` reports only a rung the CPU has.
    unsafe { dot_at(simd_level(), coeffs, srcs, outs) }
}

/// [`mul_acc_prefix`] on an explicit rung.
///
/// # Safety
///
/// The running CPU must have `level` (`cpu_has(level)`).
#[allow(unsafe_code)]
unsafe fn mul_acc_at(level: SimdLevel, t: &MulTable, src: &[u8], dst: &mut [u8]) -> usize {
    assert_eq!(src.len(), dst.len(), "equal-length slices");
    let done = level.prefix(src.len());
    if done == 0 {
        return 0;
    }
    let (s, d) = (src.as_ptr(), dst.as_mut_ptr());
    // SAFETY: the caller vouches for the rung; the first `done` bytes are in
    // bounds of both slices (asserted equal lengths), which cannot overlap
    // (one is borrowed mutably); `done` is a whole number of blocks.
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Ssse3 => x86::ssse3::mul_acc(t, s, d, done),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => x86::avx2::mul_acc(t, s, d, done),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512Gfni => x86::gfni::mul_acc(t, s, d, done),
        _ => return 0,
    }
    done
}

/// [`mul_prefix`] on an explicit rung.
///
/// # Safety
///
/// As [`mul_acc_at`].
#[allow(unsafe_code)]
unsafe fn mul_at(level: SimdLevel, t: &MulTable, src: &[u8], dst: &mut [u8]) -> usize {
    assert_eq!(src.len(), dst.len(), "equal-length slices");
    let done = level.prefix(src.len());
    if done == 0 {
        return 0;
    }
    let (s, d) = (src.as_ptr(), dst.as_mut_ptr());
    // SAFETY: as in `mul_acc_at`.
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Ssse3 => x86::ssse3::mul(t, s, d, done),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => x86::avx2::mul(t, s, d, done),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512Gfni => x86::gfni::mul(t, s, d, done),
        _ => return 0,
    }
    done
}

/// [`dot_prefix`] on an explicit rung.
///
/// # Safety
///
/// As [`mul_acc_at`].
#[allow(unsafe_code)]
unsafe fn dot_at(
    level: SimdLevel,
    coeffs: &[Gf256],
    srcs: &[&[u8]],
    outs: &mut [&mut [u8]],
) -> usize {
    let (rows, cols) = (outs.len(), srcs.len());
    if rows == 0 || cols == 0 || rows > MAX_DOT || cols > MAX_DOT {
        return 0;
    }
    assert_eq!(coeffs.len(), rows * cols, "one coefficient per pair");
    let len = srcs[0].len();
    assert!(
        srcs.iter().all(|s| s.len() == len) && outs.iter().all(|o| o.len() == len),
        "equal-length slices"
    );
    let done = level.prefix(len);
    if done == 0 {
        return 0;
    }
    let mut src_ptrs = [std::ptr::null::<u8>(); MAX_DOT];
    for (p, s) in src_ptrs.iter_mut().zip(srcs) {
        *p = s.as_ptr();
    }
    let mut out_ptrs = [std::ptr::null_mut::<u8>(); MAX_DOT];
    for (p, o) in out_ptrs.iter_mut().zip(outs.iter_mut()) {
        *p = o.as_mut_ptr();
    }
    let (s, o) = (&src_ptrs[..cols], &out_ptrs[..rows]);
    // SAFETY: the caller vouches for the rung; the first `done` bytes are in
    // bounds of every slice (asserted equal lengths); the outputs are
    // distinct `&mut` borrows, so no output overlaps a source or another
    // output; `done` is a whole number of blocks.
    match level {
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Ssse3 => x86::ssse3::dot(coeffs, s, o, done),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => x86::avx2::dot(coeffs, s, o, done),
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512Gfni => x86::gfni::dot(coeffs, s, o, done),
        _ => return 0,
    }
    done
}

/// The x86-64 intrinsic bodies.
///
/// # Safety
///
/// Every `unsafe fn` here requires of its caller: (a) the rung's CPU
/// features were detected at runtime, (b) `len` bytes are readable from
/// every source and writable at every destination, which overlap nothing
/// else. Only whole blocks are processed, so callers pass a multiple of the
/// block size. `dot` also requires `1 <= srcs.len() <= MAX_DOT` and
/// `coeffs.len() == ROWS * srcs.len()`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use std::arch::x86_64::*;
    use std::mem::MaybeUninit;

    use super::MAX_DOT;
    use crate::field::Gf256;
    use crate::kernel::MulTable;

    /// One rung's block primitives. The loops below are written once over
    /// this trait and instantiated per rung inside a `#[target_feature]`
    /// entry point, so every primitive inlines into code compiled for that
    /// rung's instructions.
    ///
    /// # Safety
    ///
    /// Every method needs the rung's CPU features; `load` and `store` need
    /// `LEN` bytes readable or writable at the pointer.
    pub(super) trait Rung {
        /// Bytes per block.
        const LEN: usize;
        /// One block of bytes.
        type V: Copy;
        /// A coefficient in the form [`Rung::mul`] consumes.
        type M: Copy;
        unsafe fn constant(t: &MulTable) -> Self::M;
        unsafe fn load(p: *const u8) -> Self::V;
        unsafe fn store(p: *mut u8, v: Self::V);
        unsafe fn xor(a: Self::V, b: Self::V) -> Self::V;
        /// `c * v` for the coefficient `m` was made from.
        unsafe fn mul(m: Self::M, v: Self::V) -> Self::V;
    }

    /// SSSE3: 16-byte nibble-table shuffles.
    pub(super) struct Ssse3;

    impl Rung for Ssse3 {
        const LEN: usize = 16;
        type V = __m128i;
        type M = (__m128i, __m128i);

        #[inline(always)]
        unsafe fn constant(t: &MulTable) -> Self::M {
            (
                _mm_loadu_si128(t.lo.as_ptr().cast()),
                _mm_loadu_si128(t.hi.as_ptr().cast()),
            )
        }
        #[inline(always)]
        unsafe fn load(p: *const u8) -> Self::V {
            _mm_loadu_si128(p.cast())
        }
        #[inline(always)]
        unsafe fn store(p: *mut u8, v: Self::V) {
            _mm_storeu_si128(p.cast(), v);
        }
        #[inline(always)]
        unsafe fn xor(a: Self::V, b: Self::V) -> Self::V {
            _mm_xor_si128(a, b)
        }
        #[inline(always)]
        unsafe fn mul((lo, hi): Self::M, v: Self::V) -> Self::V {
            let mask = _mm_set1_epi8(0x0F);
            _mm_xor_si128(
                _mm_shuffle_epi8(lo, _mm_and_si128(v, mask)),
                _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(v, 4), mask)),
            )
        }
    }

    /// AVX2: 32-byte nibble-table shuffles. The 16-entry tables are
    /// broadcast to both 128-bit lanes, so the in-lane `vpshufb` looks up
    /// the same table in each lane.
    pub(super) struct Avx2;

    impl Rung for Avx2 {
        const LEN: usize = 32;
        type V = __m256i;
        type M = (__m256i, __m256i);

        #[inline(always)]
        unsafe fn constant(t: &MulTable) -> Self::M {
            (
                _mm256_broadcastsi128_si256(_mm_loadu_si128(t.lo.as_ptr().cast())),
                _mm256_broadcastsi128_si256(_mm_loadu_si128(t.hi.as_ptr().cast())),
            )
        }
        #[inline(always)]
        unsafe fn load(p: *const u8) -> Self::V {
            _mm256_loadu_si256(p.cast())
        }
        #[inline(always)]
        unsafe fn store(p: *mut u8, v: Self::V) {
            _mm256_storeu_si256(p.cast(), v);
        }
        #[inline(always)]
        unsafe fn xor(a: Self::V, b: Self::V) -> Self::V {
            _mm256_xor_si256(a, b)
        }
        #[inline(always)]
        unsafe fn mul((lo, hi): Self::M, v: Self::V) -> Self::V {
            let mask = _mm256_set1_epi8(0x0F);
            _mm256_xor_si256(
                _mm256_shuffle_epi8(lo, _mm256_and_si256(v, mask)),
                _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64(v, 4), mask)),
            )
        }
    }

    /// AVX-512 + GFNI: one `vgf2p8affineqb` multiplies 64 bytes by the
    /// coefficient's bit matrix, broadcast to every 64-bit lane.
    pub(super) struct Gfni;

    impl Rung for Gfni {
        const LEN: usize = 64;
        type V = __m512i;
        type M = __m512i;

        #[inline(always)]
        unsafe fn constant(t: &MulTable) -> Self::M {
            _mm512_set1_epi64(t.affine as i64)
        }
        #[inline(always)]
        unsafe fn load(p: *const u8) -> Self::V {
            _mm512_loadu_si512(p.cast())
        }
        #[inline(always)]
        unsafe fn store(p: *mut u8, v: Self::V) {
            _mm512_storeu_si512(p.cast(), v);
        }
        #[inline(always)]
        unsafe fn xor(a: Self::V, b: Self::V) -> Self::V {
            _mm512_xor_si512(a, b)
        }
        #[inline(always)]
        unsafe fn mul(m: Self::M, v: Self::V) -> Self::V {
            _mm512_gf2p8affine_epi64_epi8(v, m, 0)
        }
    }

    /// `dst[0..len] ^= c * src[0..len]`.
    ///
    /// # Safety
    ///
    /// As the module.
    #[inline(always)]
    pub(super) unsafe fn mul_acc<R: Rung>(t: &MulTable, src: *const u8, dst: *mut u8, len: usize) {
        let m = R::constant(t);
        let mut off = 0;
        // `off + LEN <= len`, not `off < len`: a block never reads or
        // writes past `len`, even if `len` were not a whole number of blocks.
        while off + R::LEN <= len {
            let d = dst.add(off);
            R::store(d, R::xor(R::load(d), R::mul(m, R::load(src.add(off)))));
            off += R::LEN;
        }
    }

    /// `dst[0..len] = c * src[0..len]`.
    ///
    /// # Safety
    ///
    /// As the module.
    #[inline(always)]
    pub(super) unsafe fn mul<R: Rung>(t: &MulTable, src: *const u8, dst: *mut u8, len: usize) {
        let m = R::constant(t);
        let mut off = 0;
        while off + R::LEN <= len {
            R::store(dst.add(off), R::mul(m, R::load(src.add(off))));
            off += R::LEN;
        }
    }

    /// `outs[r][0..len] = Σ_j coeffs[r * srcs.len() + j] * srcs[j][0..len]`
    /// for `ROWS` outputs: every source block is loaded once and folded into
    /// `ROWS` accumulator registers, and every output block is stored once.
    /// Two blocks are coded per step, on independent accumulators, so their
    /// multiplies overlap; an odd last block is coded alone.
    ///
    /// # Safety
    ///
    /// As the module, with `outs.len() == ROWS`.
    #[inline(always)]
    pub(super) unsafe fn dot<R: Rung, const ROWS: usize>(
        coeffs: &[Gf256],
        srcs: &[*const u8],
        outs: &[*mut u8],
        len: usize,
    ) {
        let cols = srcs.len();
        // Column-major: `consts[j][r]` multiplies source `j` into output `r`.
        // Only the `cols` columns in use are built, and only they are read.
        let mut consts = [[MaybeUninit::<R::M>::uninit(); ROWS]; MAX_DOT];
        for (j, column) in consts.iter_mut().take(cols).enumerate() {
            for (r, m) in column.iter_mut().enumerate() {
                m.write(R::constant(MulTable::for_coeff(coeffs[r * cols + j])));
            }
        }
        let mut off = 0;
        while off + 2 * R::LEN <= len {
            dot_blocks::<R, ROWS, 2>(&consts, srcs, outs, off);
            off += 2 * R::LEN;
        }
        if off + R::LEN <= len {
            dot_blocks::<R, ROWS, 1>(&consts, srcs, outs, off);
        }
    }

    /// One step of [`dot`]: codes the `BLOCKS` blocks from byte `off`.
    ///
    /// # Safety
    ///
    /// As [`dot`], with `BLOCKS` whole blocks in bounds from `off` and
    /// `consts`' first `srcs.len()` columns written.
    #[inline(always)]
    unsafe fn dot_blocks<R: Rung, const ROWS: usize, const BLOCKS: usize>(
        consts: &[[MaybeUninit<R::M>; ROWS]; MAX_DOT],
        srcs: &[*const u8],
        outs: &[*mut u8],
        off: usize,
    ) {
        let load = |src: *const u8| -> [R::V; BLOCKS] {
            std::array::from_fn(|b| R::load(src.add(off + b * R::LEN)))
        };
        let v = load(srcs[0]);
        // SAFETY (every `assume_init` here): the caller wrote the first
        // `srcs.len()` columns, and only columns zipped with `srcs` are read.
        let mut acc: [[R::V; BLOCKS]; ROWS] =
            std::array::from_fn(|r| v.map(|v| R::mul(consts[0][r].assume_init(), v)));
        for (&src, column) in srcs.iter().zip(consts).skip(1) {
            let v = load(src);
            for (row, m) in acc.iter_mut().zip(column) {
                let m = m.assume_init();
                for (a, &v) in row.iter_mut().zip(&v) {
                    *a = R::xor(*a, R::mul(m, v));
                }
            }
        }
        for (&out, row) in outs.iter().zip(&acc) {
            for (b, &a) in row.iter().enumerate() {
                R::store(out.add(off + b * R::LEN), a);
            }
        }
    }

    /// The `#[target_feature]` entry points of one rung: each instantiates a
    /// generic loop above for that rung, so its primitives compile to the
    /// rung's instructions. Their safety contract is the module's.
    macro_rules! entry_points {
        ($module:ident, $rung:ty, $features:literal) => {
            pub(super) mod $module {
                use super::*;

                /// `dst ^= c * src` on this rung.
                ///
                /// # Safety
                ///
                /// As the module.
                #[target_feature(enable = $features)]
                pub(in crate::simd) unsafe fn mul_acc(
                    t: &MulTable,
                    src: *const u8,
                    dst: *mut u8,
                    len: usize,
                ) {
                    super::mul_acc::<$rung>(t, src, dst, len);
                }

                /// `dst = c * src` on this rung.
                ///
                /// # Safety
                ///
                /// As the module.
                #[target_feature(enable = $features)]
                pub(in crate::simd) unsafe fn mul(
                    t: &MulTable,
                    src: *const u8,
                    dst: *mut u8,
                    len: usize,
                ) {
                    super::mul::<$rung>(t, src, dst, len);
                }

                /// The fused dot product on this rung: one monomorphised
                /// loop per output count keeps the accumulators in
                /// registers.
                ///
                /// # Safety
                ///
                /// As the module.
                #[target_feature(enable = $features)]
                pub(in crate::simd) unsafe fn dot(
                    coeffs: &[Gf256],
                    srcs: &[*const u8],
                    outs: &[*mut u8],
                    len: usize,
                ) {
                    match outs.len() {
                        1 => super::dot::<$rung, 1>(coeffs, srcs, outs, len),
                        2 => super::dot::<$rung, 2>(coeffs, srcs, outs, len),
                        3 => super::dot::<$rung, 3>(coeffs, srcs, outs, len),
                        4 => super::dot::<$rung, 4>(coeffs, srcs, outs, len),
                        5 => super::dot::<$rung, 5>(coeffs, srcs, outs, len),
                        6 => super::dot::<$rung, 6>(coeffs, srcs, outs, len),
                        7 => super::dot::<$rung, 7>(coeffs, srcs, outs, len),
                        8 => super::dot::<$rung, 8>(coeffs, srcs, outs, len),
                        rows => unreachable!("dot_at admits 1..={MAX_DOT} outputs, got {rows}"),
                    }
                }
            }
        };
    }

    entry_points!(ssse3, Ssse3, "ssse3");
    entry_points!(avx2, Avx2, "avx2");
    entry_points!(gfni, Gfni, "gfni,avx512f,avx512bw");
}

#[cfg(test)]
#[allow(unsafe_code)] // calls each rung's entry point directly
mod tests {
    use super::*;
    use crate::kernel::{mul_acc_slice, mul_slice, Kernel};

    /// Every rung this CPU can run that is at or below the detected one, so
    /// `SPROUT_DISABLE_SIMD` narrows the set to [`SimdLevel::None`].
    fn rungs() -> Vec<SimdLevel> {
        SimdLevel::ALL
            .into_iter()
            .filter(|&level| level <= simd_level() && cpu_has(level))
            .collect()
    }

    fn bytes(len: usize, seed: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i.wrapping_mul(37) ^ seed.wrapping_mul(101) ^ (i >> 8)) as u8)
            .collect()
    }

    /// Coefficients covering 0, 1 and a spread of other values.
    fn coeffs(n: usize, seed: usize) -> Vec<Gf256> {
        (0..n)
            .map(|i| {
                Gf256::new(match (i + seed) % 5 {
                    0 => 0,
                    1 => 1,
                    _ => (i * 29 + seed * 13 + 2) as u8,
                })
            })
            .collect()
    }

    /// The reference the SIMD rungs must equal: the scalar per-row loop.
    fn dot_reference(coeffs: &[Gf256], srcs: &[&[u8]], outs: &mut [Vec<u8>]) {
        for (out, row) in outs.iter_mut().zip(coeffs.chunks(srcs.len())) {
            out.fill(0);
            for (&c, src) in row.iter().zip(srcs) {
                mul_acc_slice(Kernel::Scalar, c, src, out);
            }
        }
    }

    /// Runs one rung's fused prefix, finishes the tail with the scalar loop,
    /// and compares every output with the reference.
    fn check_dot(level: SimdLevel, rows: usize, cols: usize, len: usize, offset: usize) {
        let c = coeffs(rows * cols, rows + cols + len);
        let src_bufs: Vec<Vec<u8>> = (0..cols).map(|j| bytes(len + offset, j)).collect();
        let srcs: Vec<&[u8]> = src_bufs.iter().map(|s| &s[offset..]).collect();
        let mut want = vec![vec![0u8; len]; rows];
        dot_reference(&c, &srcs, &mut want);

        let mut got_bufs = vec![vec![0xA5u8; len + offset]; rows];
        let mut outs: Vec<&mut [u8]> = got_bufs.iter_mut().map(|o| &mut o[offset..]).collect();
        // SAFETY: `rungs()` yields only levels the CPU has.
        let done = unsafe { dot_at(level, &c, &srcs, &mut outs) };
        assert_eq!(
            done,
            if rows.max(cols) > MAX_DOT {
                0
            } else {
                level.prefix(len)
            }
        );
        for (out, row) in outs.iter_mut().zip(c.chunks(cols)) {
            assert!(
                out[done..].iter().all(|&b| b == 0xA5),
                "tail must be untouched"
            );
            out[done..].fill(0);
            for (&k, src) in row.iter().zip(&srcs) {
                mul_acc_slice(Kernel::Scalar, k, &src[done..], &mut out[done..]);
            }
        }
        for (r, (got, want)) in got_bufs.iter().zip(&want).enumerate() {
            assert!(
                got[..offset].iter().all(|&b| b == 0xA5),
                "bytes before the offset"
            );
            assert!(
                &got[offset..] == want.as_slice(),
                "{level} rows={rows} cols={cols} len={len} offset={offset}: output {r}"
            );
        }
    }

    #[test]
    fn level_is_stable_and_named() {
        let level = simd_level();
        // CI runs this test with --nocapture to log the rung it covered.
        println!("detected simd_level: {level}");
        assert_eq!(level, simd_level(), "detection must be cached");
        assert!(cpu_has(level));
        assert!(SimdLevel::ALL.iter().any(|l| l.name() == level.name()));
        assert_eq!(simd_available(), level != SimdLevel::None);
        assert_eq!(SimdLevel::Avx2.to_string(), "avx2");
        assert_eq!(SimdLevel::Avx512Gfni.to_string(), "avx512-gfni");
        assert!(SimdLevel::ALL.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn prefix_is_block_aligned_and_in_bounds() {
        let t = MulTable::for_coeff(Gf256::new(0x8E));
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 64, 257] {
            let src: Vec<u8> = (0..len).map(|i| (i * 37 + 5) as u8).collect();
            let mut dst = vec![0u8; len];
            let done = mul_acc_prefix(t, &src, &mut dst);
            assert!(done <= len, "len={len}");
            assert!(done.is_multiple_of(16), "len={len} done={done}");
            // Bytes past the prefix are untouched.
            assert!(dst[done..].iter().all(|&b| b == 0), "len={len}");
            // The prefix matches the full table.
            for (i, &b) in dst[..done].iter().enumerate() {
                assert_eq!(b, t.full[src[i] as usize], "len={len} i={i}");
            }
            let mut over = vec![0xA5u8; len];
            let done = mul_prefix(t, &src, &mut over);
            for (i, &b) in over[..done].iter().enumerate() {
                assert_eq!(b, t.full[src[i] as usize], "overwrite len={len} i={i}");
            }
            assert!(over[done..].iter().all(|&b| b == 0xA5), "len={len}");
        }
    }

    #[test]
    fn affine_matrix_applied_in_scalar_code_is_the_product() {
        // Output bit `i` is the parity of row byte `7 - i` masked by `x`.
        fn apply(a: u64, x: u8) -> u8 {
            (0..8).fold(0u8, |acc, i| {
                let row = (a >> (8 * (7 - i))) as u8;
                acc | ((((row & x).count_ones() & 1) as u8) << i)
            })
        }
        for c in 0..=255u8 {
            let t = MulTable::for_coeff(Gf256::new(c));
            for x in 0..=255u8 {
                assert_eq!(apply(t.affine, x), t.full[x as usize], "c={c} x={x}");
            }
        }
    }

    #[test]
    fn mul_and_mul_acc_rungs_match_the_scalar_reference() {
        let lens: Vec<usize> = (0..=257).chain([64 * 1024, (1 << 20) + 13]).collect();
        for level in rungs() {
            for &len in &lens {
                let offset = len % 8;
                let c = Gf256::new([0u8, 1, 0x1D, 0x8E, 0xFF][len % 5]);
                let t = MulTable::for_coeff(c);
                let src = bytes(len + offset, 1);
                let src = &src[offset..];

                let mut want = bytes(len, 2);
                let mut got = bytes(len + offset, 2);
                let got = &mut got[offset..];
                got.copy_from_slice(&want);
                mul_acc_slice(Kernel::Scalar, c, src, &mut want);
                // SAFETY: `rungs()` yields only levels the CPU has.
                let done = unsafe { mul_acc_at(level, t, src, got) };
                assert_eq!(done, level.prefix(len));
                mul_acc_slice(Kernel::Scalar, c, &src[done..], &mut got[done..]);
                assert!(got == want.as_slice(), "mul_acc {level} len={len} c={c}");

                let mut want = vec![0u8; len];
                mul_slice(Kernel::Scalar, c, src, &mut want);
                got.fill(0x5A);
                // SAFETY: as above.
                let done = unsafe { mul_at(level, t, src, got) };
                assert!(got[done..].iter().all(|&b| b == 0x5A), "tail untouched");
                mul_slice(Kernel::Scalar, c, &src[done..], &mut got[done..]);
                assert!(got == want.as_slice(), "mul {level} len={len} c={c}");
            }
        }
    }

    #[test]
    fn dot_rungs_match_the_scalar_reference_for_every_shape() {
        for level in rungs() {
            for rows in 1..=MAX_DOT {
                for cols in 1..=MAX_DOT {
                    for len in [0, 1, 63, 64, 65, 130, 257] {
                        check_dot(level, rows, cols, len, (rows + cols + len) % 8);
                    }
                }
            }
        }
    }

    #[test]
    fn dot_rungs_match_on_every_length_and_offset() {
        for level in rungs() {
            for len in 0..=257 {
                for offset in 0..8 {
                    check_dot(level, 3, 4, len, offset);
                }
            }
            check_dot(level, 4, 4, 64 * 1024, 3);
            check_dot(level, 3, 4, (1 << 20) + 13, 5);
        }
    }

    #[test]
    fn oversized_dot_shapes_take_the_fallback() {
        for level in rungs() {
            check_dot(level, 2, MAX_DOT + 1, 200, 1);
            check_dot(level, MAX_DOT + 1, 2, 200, 0);
        }
    }
}

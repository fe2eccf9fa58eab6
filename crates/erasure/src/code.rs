//! Systematic `(n, k)` Reed–Solomon codes built from an extended
//! `(n + k, k)` MDS generator.
//!
//! Following §III of the paper, the generator has `n + k` rows so that the
//! `n` storage chunks use rows `0..n` and up to `k` *functional cache* chunks
//! can later be produced from rows `n..n + k` without touching the stored
//! chunks. Any `k` distinct rows of the generator are linearly independent,
//! so any `k` chunks — from storage, cache, or a mix — reconstruct the file.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use sprout_gf::simd::MAX_DOT;
use sprout_gf::{builders, kernel, Gf256, Kernel, Matrix};

use crate::chunk::{Chunk, ChunkId};
use crate::error::CodingError;
use crate::stripe;

/// Validated `(n, k)` erasure-code parameters.
///
/// `n` is the number of chunks stored on storage nodes and `k` the number of
/// data chunks required to reconstruct a file. The extended generator used
/// internally has `n + k` rows, so `n + k` must not exceed 255.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CodeParams {
    n: usize,
    k: usize,
}

impl CodeParams {
    /// Creates validated code parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::InvalidParams`] if `k == 0`, `n < k`, or
    /// `n + k > 255`.
    pub fn new(n: usize, k: usize) -> Result<Self, CodingError> {
        if k == 0 {
            return Err(CodingError::InvalidParams {
                n,
                k,
                reason: "k must be at least 1",
            });
        }
        if n < k {
            return Err(CodingError::InvalidParams {
                n,
                k,
                reason: "n must be at least k",
            });
        }
        if n + k > 255 {
            return Err(CodingError::InvalidParams {
                n,
                k,
                reason: "n + k must not exceed 255 for GF(2^8)",
            });
        }
        Ok(CodeParams { n, k })
    }

    /// Number of chunks stored on storage nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of data chunks needed to reconstruct a file.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Storage redundancy factor `n / k`.
    pub fn redundancy(&self) -> f64 {
        self.n as f64 / self.k as f64
    }

    /// Total number of rows in the extended generator (`n + k`).
    #[inline]
    pub(crate) fn extended_rows(&self) -> usize {
        self.n + self.k
    }
}

impl std::fmt::Display for CodeParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.n, self.k)
    }
}

/// The result of encoding a file: the `n` storage chunks plus the metadata
/// needed to decode (original length and per-chunk length).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedFile {
    chunks: Vec<Chunk>,
    original_len: usize,
    chunk_len: usize,
}

impl EncodedFile {
    /// The `n` storage chunks.
    pub fn chunks(&self) -> &[Chunk] {
        &self.chunks
    }

    /// Consumes the encoded file and returns its chunks.
    pub fn into_chunks(self) -> Vec<Chunk> {
        self.chunks
    }

    /// Original (pre-padding) file length in bytes.
    pub fn original_len(&self) -> usize {
        self.original_len
    }

    /// Length of each chunk in bytes.
    pub fn chunk_len(&self) -> usize {
        self.chunk_len
    }
}

/// A systematic `(n, k)` Reed–Solomon MDS code with an extended generator
/// that reserves `k` extra rows for functional cache chunks
/// ([`ReedSolomon::cache_chunks`]): the crate's one codec.
///
/// # Example
///
/// ```
/// use sprout_erasure::{CodeParams, ReedSolomon};
///
/// let rs = ReedSolomon::new(CodeParams::new(7, 4)?)?;
/// let file: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
/// let encoded = rs.encode(&file)?;
///
/// // Reconstruct from an arbitrary subset of 4 chunks.
/// let subset: Vec<_> = encoded.chunks().iter().skip(2).take(4).cloned().collect();
/// assert_eq!(rs.decode(&subset, file.len())?, file);
/// # Ok::<(), sprout_erasure::CodingError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    params: CodeParams,
    /// Extended `(n + k) × k` systematic generator matrix.
    generator: Matrix,
    /// Slice kernel used for all bulk GF(2^8) work.
    kernel: Kernel,
    /// This codec's key in every thread's decode-matrix memo
    /// ([`DECODE_MEMO`]). Clones share it, so a codec cloned into several
    /// components still amortizes each Gaussian elimination.
    id: u64,
}

/// Source of [`ReedSolomon`] ids: every codec built gets a fresh one.
static NEXT_CODEC_ID: AtomicU64 = AtomicU64::new(0);

/// A set of generator rows as a 256-bit mask (bit `r` set when row `r` is
/// in the set). Row indices are below `n + k <= 255`.
type RowMask = [u64; 4];

/// Bounded memo mapping (codec id, row subset) to the inverse of the
/// codec's generator sub-matrix for those rows (in ascending order).
///
/// Real request streams decode the same cache/storage row mixes over and
/// over (the scheduler only has `n + d choose k` subsets to pick from, and
/// heavily skews toward the fastest nodes), so the O(k³) elimination is
/// almost always a hit after warm-up. Each thread keeps its own memo
/// ([`DECODE_MEMO`]): a hit takes no lock and writes no memory another
/// thread reads, at the price of one elimination per subset per thread.
#[derive(Debug, Default)]
struct InverseMemo {
    /// Each entry's inverse and how often it was hit.
    entries: HashMap<(u64, RowMask), (Rc<Matrix>, u64)>,
    /// Misses per codec id.
    misses: HashMap<u64, u64>,
}

/// Most inverted matrices one thread's memo keeps, over all codecs. A full
/// memo is flushed whole — entries and counters — before the next insert;
/// a serving thread decodes a handful of subsets, so this is rare.
const DECODE_MEMO_CAP: usize = 64;

thread_local! {
    /// The calling thread's decode-matrix memo.
    static DECODE_MEMO: RefCell<InverseMemo> = RefCell::new(InverseMemo::default());
}

impl ReedSolomon {
    /// Builds the code for the given parameters, using the default kernel.
    ///
    /// # Errors
    ///
    /// Currently construction cannot fail for validated [`CodeParams`], but
    /// the `Result` is kept so that alternative generator constructions
    /// (e.g. user-supplied matrices) can report errors uniformly.
    pub fn new(params: CodeParams) -> Result<Self, CodingError> {
        Self::with_kernel(params, Kernel::default())
    }

    /// Builds the code with an explicit slice [`Kernel`] (used by the
    /// differential tests and kernel-vs-kernel benchmarks).
    ///
    /// # Errors
    ///
    /// See [`ReedSolomon::new`].
    pub fn with_kernel(params: CodeParams, kernel: Kernel) -> Result<Self, CodingError> {
        let generator = builders::systematic_mds(params.extended_rows(), params.k());
        Ok(ReedSolomon {
            params,
            generator,
            kernel,
            id: NEXT_CODEC_ID.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// The codec unchanged: every coding call is one pass on the calling
    /// thread. Kept so callers that turned striping off still compile; the
    /// parameter has no `Some` value, so `None` is the only argument. It
    /// goes in ROADMAP item 10(b).
    #[must_use]
    pub fn with_striping(self, _off: Option<std::convert::Infallible>) -> Self {
        self
    }

    /// The code parameters.
    pub fn params(&self) -> CodeParams {
        self.params
    }

    /// The slice kernel used for bulk GF(2^8) work.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// `(hits, misses)` of this codec (and its clones) in the calling
    /// thread's decode-matrix memo, since that memo was last flushed. Each
    /// thread counts only its own decodes.
    pub fn decode_memo_stats(&self) -> (u64, u64) {
        DECODE_MEMO.with(|memo| {
            let memo = memo.borrow();
            let hits = memo
                .entries
                .iter()
                .filter(|((id, _), _)| *id == self.id)
                .map(|(_, (_, hits))| hits)
                .sum();
            (hits, memo.misses.get(&self.id).copied().unwrap_or(0))
        })
    }

    /// The extended `(n + k) × k` generator matrix.
    pub fn generator(&self) -> &Matrix {
        &self.generator
    }

    /// Encodes a file into its `n` storage chunks.
    ///
    /// The file is copied once, into a buffer with room for its zero
    /// padding, and encoded by [`ReedSolomon::encode_owned`]: the `k` data
    /// chunks share that one allocation and the parity rows one more. A
    /// caller that owns the file should call [`ReedSolomon::encode_owned`]
    /// itself, which skips the copy.
    ///
    /// # Errors
    ///
    /// This operation does not currently fail; the `Result` mirrors
    /// [`ReedSolomon::decode`] for API symmetry.
    pub fn encode(&self, file: &[u8]) -> Result<EncodedFile, CodingError> {
        let k = self.params.k();
        let mut owned = Vec::with_capacity(k * stripe::chunk_len(file.len(), k));
        owned.extend_from_slice(file);
        self.encode_owned(owned, None)
    }

    /// Encodes a file the caller hands over, without copying it: the file
    /// is zero-padded in place to `k · chunk_len` bytes and the `k` data
    /// chunks are views of it ([`Bytes::slice`]), so they share its one
    /// allocation. The parity rows share one more.
    ///
    /// A `spare` whose capacity is exactly the parity size,
    /// `(n − k) · chunk_len`, becomes that second allocation: the parity is
    /// coded into it and nothing is allocated. Its bytes past `spare.len()`
    /// are zeroed first (a spare taken back from one parity row view
    /// re-zeroes the other rows' already mapped memory); its contents never
    /// reach the output. A spare of any other capacity is dropped and the
    /// parity gets a fresh buffer, so a small object never pins a large one.
    ///
    /// # Errors
    ///
    /// See [`ReedSolomon::encode`].
    pub fn encode_owned(
        &self,
        mut file: Vec<u8>,
        spare: Option<Vec<u8>>,
    ) -> Result<EncodedFile, CodingError> {
        let k = self.params.k();
        let original_len = file.len();
        let chunk_len = stripe::chunk_len(original_len, k);
        file.resize(k * chunk_len, 0);
        let parity = self.parity_chunks(&stripe::views(&file, k), chunk_len, spare);
        let mut chunks = row_views(Bytes::from(file), 0, k, chunk_len);
        chunks.extend(parity);
        Ok(EncodedFile {
            chunks,
            original_len,
            chunk_len,
        })
    }

    /// The `n - k` parity chunks of the given data chunks, coded into one
    /// buffer that every parity chunk views: `spare` when its capacity is
    /// exactly the parity size, else a fresh one.
    fn parity_chunks(
        &self,
        data: &[&[u8]],
        chunk_len: usize,
        spare: Option<Vec<u8>>,
    ) -> Vec<Chunk> {
        let (k, n) = (self.params.k(), self.params.n());
        let rows: Vec<usize> = (k..n).collect();
        let len = rows.len() * chunk_len;
        let mut parity = match spare {
            Some(mut spare) if spare.capacity() == len => {
                spare.resize(len, 0);
                spare
            }
            _ => vec![0u8; len],
        };
        if chunk_len > 0 {
            let mut outs: Vec<&mut [u8]> = parity.chunks_mut(chunk_len).collect();
            self.encode_rows_into(data, &rows, &mut outs);
        }
        row_views(Bytes::from(parity), k, rows.len(), chunk_len)
    }

    /// Encodes the listed generator rows into caller-provided output
    /// buffers, allocating nothing.
    ///
    /// This is the primitive behind storage chunks (rows `0..n`) and
    /// functional cache chunks (rows `n..n + d`). Each output buffer is
    /// fully overwritten (callers do not need to zero it). Per-coefficient
    /// multiplication tables are the process-wide lazy tables from
    /// [`sprout_gf::MulTable`], so repeated calls with the same generator
    /// rows reuse them with no per-call setup.
    ///
    /// # Panics
    ///
    /// Panics if `data_chunks.len() != k`, the data chunks have unequal
    /// lengths, `outputs.len() != rows.len()`, an output buffer's length
    /// differs from the chunk length, or a row index exceeds `n + k`.
    pub fn encode_rows_into(
        &self,
        data_chunks: &[&[u8]],
        rows: &[usize],
        outputs: &mut [&mut [u8]],
    ) {
        let k = self.params.k();
        assert_eq!(data_chunks.len(), k, "expected exactly k data chunks");
        let chunk_len = data_chunks.first().map_or(0, |c| c.len());
        assert!(
            data_chunks.iter().all(|c| c.len() == chunk_len),
            "all data chunks must have the same length"
        );
        assert_eq!(
            outputs.len(),
            rows.len(),
            "expected one output buffer per row"
        );
        for (&row, out) in rows.iter().zip(outputs.iter()) {
            assert!(
                row < self.params.extended_rows(),
                "generator row {row} out of range"
            );
            assert_eq!(
                out.len(),
                chunk_len,
                "output buffer length must equal the chunk length"
            );
        }
        let coeffs: Vec<Gf256> = rows
            .iter()
            .flat_map(|&row| self.generator.row(row))
            .copied()
            .collect();
        kernel::dot_slices(self.kernel, &coeffs, data_chunks, outputs);
    }

    /// Decodes the original file from any `k` distinct chunks.
    ///
    /// Chunks may come from storage rows, cache rows, or a mix; only `k`
    /// distinct generator rows are required. Extra chunks beyond `k` are
    /// ignored (the first `k` distinct rows are used).
    ///
    /// # Errors
    ///
    /// * [`CodingError::NotEnoughChunks`] if fewer than `k` distinct rows are present.
    /// * [`CodingError::InvalidChunkIndex`] if a row index is out of range.
    /// * [`CodingError::ChunkSizeMismatch`] if payload lengths differ.
    /// * [`CodingError::InvalidFileLength`] if `original_len` exceeds `k * chunk_len`.
    pub fn decode(&self, chunks: &[Chunk], original_len: usize) -> Result<Vec<u8>, CodingError> {
        let mut out = Vec::new();
        self.decode_into(chunks, original_len, &mut out)?;
        Ok(out)
    }

    /// [`ReedSolomon::decode`] into a caller's buffer, so a caller that
    /// decodes over and over (a serving worker) reuses one allocation. The
    /// chunks come as references, so a caller can mix chunks it owns with
    /// chunks it borrows (a store's snapshot) without cloning either.
    ///
    /// Generator rows `0..k` are the identity, so a selected row below `k`
    /// *is* that data chunk, whatever its source (a stored data row, or an
    /// LRU or whole-object cache entry): it is copied into place, and only
    /// the data rows missing from the selection are coded, from their rows
    /// of the inverse. A selection of the `k` data rows is a copy and
    /// inverts nothing. The bytes are those of the full inverse either way.
    /// For `k` up to [`sprout_gf::simd::MAX_DOT`] a decode into a buffer
    /// with room allocates nothing.
    ///
    /// On success `out` holds exactly the decoded file; whatever it held
    /// before is overwritten, never read. A buffer whose capacity is too
    /// small is replaced by a fresh zeroed one. On error `out` is left in
    /// an unspecified state.
    ///
    /// # Errors
    ///
    /// See [`ReedSolomon::decode`].
    pub fn decode_into<'a>(
        &self,
        chunks: impl IntoIterator<Item = &'a Chunk>,
        original_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodingError> {
        let k = self.params.k();
        let max = self.params.extended_rows();

        // Collect the first k distinct rows as (row, payload). Row indices
        // are below `n + k <= 255` (checked by `CodeParams::new`), so a
        // 256-bit mask records which rows were already taken.
        let mut selected_stack = [(0, &[][..]); MAX_DOT];
        let mut selected_heap = Vec::new();
        let selected = scratch(&mut selected_stack, &mut selected_heap, k);
        let mut have = 0;
        let mut seen = [0u64; 4];
        for chunk in chunks {
            let index = chunk.id.index;
            if index >= max {
                return Err(CodingError::InvalidChunkIndex { index, max });
            }
            let (word, bit) = (index / 64, 1u64 << (index % 64));
            if seen[word] & bit != 0 {
                // A duplicate row is legal input if we already have it; only
                // flag it as an error when it prevents reaching k rows.
                continue;
            }
            seen[word] |= bit;
            selected[have] = (index, chunk.data.as_ref());
            have += 1;
            if have == k {
                break;
            }
        }
        if have < k {
            return Err(CodingError::NotEnoughChunks { have, need: k });
        }

        let chunk_len = selected[0].1.len();
        for &(_, payload) in selected.iter() {
            if payload.len() != chunk_len {
                return Err(CodingError::ChunkSizeMismatch {
                    expected: chunk_len,
                    found: payload.len(),
                });
            }
        }
        if original_len > k * chunk_len {
            return Err(CodingError::InvalidFileLength {
                requested: original_len,
                available: k * chunk_len,
            });
        }

        // Sorting the selected chunks by row makes the decode matrix a pure
        // function of the row *subset* (the memo key is its mask, `seen`) —
        // and leaves the decoded bytes unchanged, since permuting the
        // equation system permutes the inverse's columns identically. It
        // also puts the systematic rows first, in data-row order.
        selected.sort_unstable_by_key(|&(row, _)| row);
        let systematic = selected.iter().take_while(|&&(row, _)| row < k).count();
        let inv = if systematic < k {
            Some(self.decode_matrix(seen, selected)?)
        } else {
            None
        };

        // Data chunk i occupies bytes i*chunk_len..(i+1)*chunk_len of one
        // flat output buffer, so no per-chunk buffers or join copy are
        // needed. Every byte is overwritten, so a reused buffer is only
        // resized; a too-small one is replaced by a fresh zeroed (calloc'd)
        // allocation, which is cheaper than growing and zeroing it.
        let len = k * chunk_len;
        if out.capacity() < len {
            *out = vec![0u8; len];
        } else {
            out.resize(len, 0);
        }
        if chunk_len > 0 {
            // Missing data chunk i = sum_j inv[i][j] * selected[j].
            let missing = k - systematic;
            let mut coeffs_stack = [Gf256::default(); MAX_DOT * MAX_DOT];
            let mut coeffs_heap = Vec::new();
            let coeffs = scratch(&mut coeffs_stack, &mut coeffs_heap, missing * k);
            let mut outs_stack: [&mut [u8]; MAX_DOT] = Default::default();
            let mut outs_heap = Vec::new();
            let outs = scratch(&mut outs_stack, &mut outs_heap, missing);
            let mut copies = selected[..systematic].iter().peekable();
            let mut next = 0;
            for (row, data_chunk) in out.chunks_mut(chunk_len).enumerate() {
                if let Some(&(_, payload)) = copies.next_if(|&&(r, _)| r == row) {
                    data_chunk.copy_from_slice(payload);
                } else {
                    let inv = inv
                        .as_deref()
                        .expect("a missing data row has a decode matrix");
                    coeffs[next * k..(next + 1) * k].copy_from_slice(inv.row(row));
                    outs[next] = data_chunk;
                    next += 1;
                }
            }
            if missing > 0 {
                let mut srcs_stack: [&[u8]; MAX_DOT] = Default::default();
                let mut srcs_heap = Vec::new();
                let srcs = scratch(&mut srcs_stack, &mut srcs_heap, k);
                for (src, &(_, payload)) in srcs.iter_mut().zip(selected.iter()) {
                    *src = payload;
                }
                kernel::dot_slices(self.kernel, coeffs, srcs, outs);
            }
        }
        out.truncate(original_len);
        Ok(())
    }

    /// The inverse of the generator sub-matrix for the rows of `selected`
    /// (sorted by row; `rows` is their mask), served from the calling
    /// thread's memo when this thread has decoded the same mix of
    /// cache/storage rows with this codec before.
    fn decode_matrix(
        &self,
        rows: RowMask,
        selected: &[(usize, &[u8])],
    ) -> Result<Rc<Matrix>, CodingError> {
        let key = (self.id, rows);
        DECODE_MEMO.with(|memo| {
            let mut memo = memo.borrow_mut();
            if let Some((inverse, hits)) = memo.entries.get_mut(&key) {
                *hits += 1;
                return Ok(Rc::clone(inverse));
            }
            let indices: Vec<usize> = selected.iter().map(|&(row, _)| row).collect();
            let inverse = Rc::new(
                self.generator
                    .select_rows(&indices)
                    .inverted()
                    .map_err(|_| CodingError::SingularDecodeMatrix)?,
            );
            if memo.entries.len() >= DECODE_MEMO_CAP {
                *memo = InverseMemo::default();
            }
            *memo.misses.entry(self.id).or_default() += 1;
            memo.entries.insert(key, (Rc::clone(&inverse), 0));
            Ok(inverse)
        })
    }

    /// Verifies that a set of chunks is consistent with a single codeword,
    /// i.e. decoding from one `k`-subset and re-encoding reproduces all the
    /// supplied chunks.
    ///
    /// # Errors
    ///
    /// Propagates decode errors; returns `Ok(false)` when the chunks are
    /// inconsistent.
    pub fn verify(&self, chunks: &[Chunk]) -> Result<bool, CodingError> {
        if chunks.is_empty() {
            return Ok(true);
        }
        let chunk_len = chunks[0].len();
        let file = self.decode(chunks, self.params.k() * chunk_len)?;
        let data_chunks = stripe::views(&file, self.params.k());
        let mut expect = vec![0u8; chunk_len];
        for chunk in chunks {
            self.encode_rows_into(&data_chunks, &[chunk.id.index], &mut [&mut expect]);
            if expect != chunk.data.as_ref() {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// Storage chunks for rows `first_row..first_row + count`, each a
/// `chunk_len`-byte view of `buf` (row `first_row + i` at offset
/// `i · chunk_len`).
fn row_views(buf: Bytes, first_row: usize, count: usize, chunk_len: usize) -> Vec<Chunk> {
    (0..count)
        .map(|i| {
            Chunk::new(
                ChunkId::storage(first_row + i),
                buf.slice(i * chunk_len..(i + 1) * chunk_len),
            )
        })
        .collect()
}

/// `len` default slots: a prefix of `stack` when it is long enough, else
/// `heap` grown to `len`.
fn scratch<'s, T: Default, const N: usize>(
    stack: &'s mut [T; N],
    heap: &'s mut Vec<T>,
    len: usize,
) -> &'s mut [T] {
    if len <= N {
        &mut stack[..len]
    } else {
        heap.resize_with(len, T::default);
        heap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkSource;

    fn sample_file(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 7) as u8).collect()
    }

    #[test]
    fn params_validation() {
        assert!(CodeParams::new(7, 4).is_ok());
        assert!(CodeParams::new(4, 4).is_ok());
        assert!(matches!(
            CodeParams::new(3, 4),
            Err(CodingError::InvalidParams { .. })
        ));
        assert!(matches!(
            CodeParams::new(5, 0),
            Err(CodingError::InvalidParams { .. })
        ));
        assert!(matches!(
            CodeParams::new(200, 100),
            Err(CodingError::InvalidParams { .. })
        ));
        let p = CodeParams::new(7, 4).unwrap();
        assert_eq!(p.n(), 7);
        assert_eq!(p.k(), 4);
        assert_eq!(p.extended_rows(), 11);
        assert!((p.redundancy() - 1.75).abs() < 1e-12);
        assert_eq!(p.to_string(), "(7, 4)");
    }

    #[test]
    fn encode_produces_systematic_prefix() {
        let rs = ReedSolomon::new(CodeParams::new(6, 5).unwrap()).unwrap();
        let file = sample_file(50);
        let encoded = rs.encode(&file).unwrap();
        assert_eq!(encoded.chunks().len(), 6);
        let (data_chunks, clen) = stripe::split(&file, 5);
        assert_eq!(encoded.chunk_len(), clen);
        // first k chunks are the data chunks themselves (systematic code)
        for (i, data_chunk) in data_chunks.iter().enumerate() {
            assert_eq!(encoded.chunks()[i].data.as_ref(), &data_chunk[..]);
        }
    }

    #[test]
    fn decode_from_any_k_subset() {
        let rs = ReedSolomon::new(CodeParams::new(7, 4).unwrap()).unwrap();
        let file = sample_file(123);
        let encoded = rs.encode(&file).unwrap();
        // every 4-subset of the 7 storage chunks decodes
        let idx: Vec<usize> = (0..7).collect();
        for a in 0..7 {
            for b in a + 1..7 {
                for c in b + 1..7 {
                    for d in c + 1..7 {
                        let subset: Vec<Chunk> = [a, b, c, d]
                            .iter()
                            .map(|&i| encoded.chunks()[idx[i]].clone())
                            .collect();
                        assert_eq!(rs.decode(&subset, file.len()).unwrap(), file);
                    }
                }
            }
        }
    }

    #[test]
    fn decode_with_fewer_chunks_fails() {
        let rs = ReedSolomon::new(CodeParams::new(7, 4).unwrap()).unwrap();
        let file = sample_file(64);
        let encoded = rs.encode(&file).unwrap();
        let subset: Vec<Chunk> = encoded.chunks()[..3].to_vec();
        assert_eq!(
            rs.decode(&subset, file.len()).unwrap_err(),
            CodingError::NotEnoughChunks { have: 3, need: 4 }
        );
    }

    #[test]
    fn duplicate_rows_do_not_count_twice() {
        let rs = ReedSolomon::new(CodeParams::new(7, 4).unwrap()).unwrap();
        let file = sample_file(64);
        let encoded = rs.encode(&file).unwrap();
        let mut subset: Vec<Chunk> = encoded.chunks()[..3].to_vec();
        subset.push(encoded.chunks()[0].clone());
        assert!(matches!(
            rs.decode(&subset, file.len()),
            Err(CodingError::NotEnoughChunks { have: 3, need: 4 })
        ));
        subset.push(encoded.chunks()[5].clone());
        assert_eq!(rs.decode(&subset, file.len()).unwrap(), file);
    }

    #[test]
    fn invalid_chunk_index_is_rejected() {
        let rs = ReedSolomon::new(CodeParams::new(7, 4).unwrap()).unwrap();
        let file = sample_file(16);
        let encoded = rs.encode(&file).unwrap();
        let mut subset: Vec<Chunk> = encoded.chunks()[..4].to_vec();
        subset[0] = Chunk::new(ChunkId::storage(99), subset[0].data.clone());
        assert!(matches!(
            rs.decode(&subset, file.len()),
            Err(CodingError::InvalidChunkIndex { index: 99, .. })
        ));
    }

    #[test]
    fn chunk_size_mismatch_is_rejected() {
        let rs = ReedSolomon::new(CodeParams::new(7, 4).unwrap()).unwrap();
        let file = sample_file(40);
        let encoded = rs.encode(&file).unwrap();
        let mut subset: Vec<Chunk> = encoded.chunks()[..4].to_vec();
        subset[2] = Chunk::new(subset[2].id, vec![0u8; 3]);
        assert!(matches!(
            rs.decode(&subset, file.len()),
            Err(CodingError::ChunkSizeMismatch { .. })
        ));
    }

    #[test]
    fn invalid_file_length_is_rejected() {
        let rs = ReedSolomon::new(CodeParams::new(6, 3).unwrap()).unwrap();
        let file = sample_file(30);
        let encoded = rs.encode(&file).unwrap();
        let subset: Vec<Chunk> = encoded.chunks()[..3].to_vec();
        assert!(matches!(
            rs.decode(&subset, 10_000),
            Err(CodingError::InvalidFileLength { .. })
        ));
    }

    #[test]
    fn empty_file_round_trips() {
        let rs = ReedSolomon::new(CodeParams::new(5, 3).unwrap()).unwrap();
        let encoded = rs.encode(&[]).unwrap();
        assert_eq!(encoded.original_len(), 0);
        let subset: Vec<Chunk> = encoded.chunks()[2..5].to_vec();
        assert!(rs.decode(&subset, 0).unwrap().is_empty());
    }

    #[test]
    fn verify_accepts_consistent_and_rejects_corrupted() {
        let rs = ReedSolomon::new(CodeParams::new(7, 4).unwrap()).unwrap();
        let file = sample_file(97);
        let encoded = rs.encode(&file).unwrap();
        assert!(rs.verify(encoded.chunks()).unwrap());
        let mut corrupted = encoded.chunks().to_vec();
        let mut bytes = corrupted[6].data.to_vec();
        bytes[0] ^= 0xFF;
        corrupted[6] = Chunk::new(corrupted[6].id, bytes);
        assert!(!rs.verify(&corrupted).unwrap());
        assert!(rs.verify(&[]).unwrap());
    }

    /// A single coded chunk for generator row `row` of a raw file: the
    /// reference the rows of [`ReedSolomon::encode`] are tested against.
    fn encode_row_from_file(rs: &ReedSolomon, file: &[u8], row: usize) -> Chunk {
        let (data_chunks, chunk_len) = stripe::split(file, rs.params().k());
        let data_refs: Vec<&[u8]> = data_chunks.iter().map(Vec::as_slice).collect();
        let mut payload = vec![0u8; chunk_len];
        rs.encode_rows_into(&data_refs, &[row], &mut [&mut payload]);
        let source = if row < rs.params().n() {
            ChunkSource::Storage
        } else {
            ChunkSource::Cache
        };
        Chunk::new(ChunkId { index: row, source }, payload)
    }

    #[test]
    fn encode_row_from_file_matches_encode() {
        let rs = ReedSolomon::new(CodeParams::new(7, 4).unwrap()).unwrap();
        let file = sample_file(77);
        let encoded = rs.encode(&file).unwrap();
        for row in 0..7 {
            let chunk = encode_row_from_file(&rs, &file, row);
            assert_eq!(chunk.data, encoded.chunks()[row].data);
            assert_eq!(chunk.id.source, ChunkSource::Storage);
        }
        let cache_chunk = encode_row_from_file(&rs, &file, 8);
        assert_eq!(cache_chunk.id.source, ChunkSource::Cache);
    }

    /// Entries the calling thread's memo holds for `rs` and its clones.
    fn memo_len(rs: &ReedSolomon) -> usize {
        DECODE_MEMO.with(|memo| {
            memo.borrow()
                .entries
                .keys()
                .filter(|(id, _)| *id == rs.id)
                .count()
        })
    }

    #[test]
    fn decode_memo_caches_row_subsets() {
        let rs = ReedSolomon::new(CodeParams::new(7, 4).unwrap()).unwrap();
        let file = sample_file(64);
        let encoded = rs.encode(&file).unwrap();
        let subset: Vec<Chunk> = encoded.chunks()[1..5].to_vec();
        assert_eq!(memo_len(&rs), 0);
        for _ in 0..5 {
            assert_eq!(rs.decode(&subset, file.len()).unwrap(), file);
        }
        assert_eq!(memo_len(&rs), 1);
        let (hits, misses) = rs.decode_memo_stats();
        assert_eq!((hits, misses), (4, 1));
        // Chunk order does not create a new entry: the key is the sorted set.
        let mut shuffled = subset.clone();
        shuffled.reverse();
        assert_eq!(rs.decode(&shuffled, file.len()).unwrap(), file);
        assert_eq!(memo_len(&rs), 1);
        // A different subset adds a second entry.
        let other: Vec<Chunk> = encoded.chunks()[3..7].to_vec();
        assert_eq!(rs.decode(&other, file.len()).unwrap(), file);
        assert_eq!(memo_len(&rs), 2);
        // Clones share the memo.
        let clone = rs.clone();
        assert_eq!(memo_len(&clone), 2);
        assert_eq!(clone.decode(&other, file.len()).unwrap(), file);
        assert_eq!(rs.decode_memo_stats(), (6, 2));
        // A codec built apart from it does not.
        let fresh = ReedSolomon::new(CodeParams::new(7, 4).unwrap()).unwrap();
        assert_eq!(memo_len(&fresh), 0);
    }

    #[test]
    fn each_thread_keeps_its_own_decode_memo() {
        let rs = ReedSolomon::new(CodeParams::new(7, 4).unwrap()).unwrap();
        let file = sample_file(200);
        let encoded = rs.encode(&file).unwrap();
        let subset: Vec<Chunk> = encoded.chunks()[2..6].to_vec();
        assert_eq!(rs.decode(&subset, file.len()).unwrap(), file);
        assert_eq!(rs.decode_memo_stats(), (0, 1));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert_eq!(rs.decode_memo_stats(), (0, 0));
                assert_eq!(rs.decode(&subset, file.len()).unwrap(), file);
                assert_eq!(rs.decode(&subset, file.len()).unwrap(), file);
                assert_eq!(rs.decode_memo_stats(), (1, 1));
            });
        });
        assert_eq!(rs.decode_memo_stats(), (0, 1));
        assert_eq!(memo_len(&rs), 1);
    }

    #[test]
    fn decode_memo_is_bounded() {
        // (16, 2): plenty of 2-subsets to overflow the 64-entry memo.
        let rs = ReedSolomon::new(CodeParams::new(16, 2).unwrap()).unwrap();
        let file = sample_file(32);
        let encoded = rs.encode(&file).unwrap();
        for a in 0..16 {
            for b in a + 1..16 {
                let subset = vec![encoded.chunks()[a].clone(), encoded.chunks()[b].clone()];
                assert_eq!(rs.decode(&subset, file.len()).unwrap(), file);
            }
        }
        assert!(DECODE_MEMO.with(|memo| memo.borrow().entries.len()) <= 64);
    }

    #[test]
    fn every_kernel_produces_identical_chunks_and_decodes() {
        let file = sample_file(1000 + 13); // unaligned tail
        let reference =
            ReedSolomon::with_kernel(CodeParams::new(7, 4).unwrap(), sprout_gf::Kernel::Scalar)
                .unwrap();
        let want = reference.encode(&file).unwrap();
        for kernel in sprout_gf::Kernel::ALL {
            let rs = ReedSolomon::with_kernel(CodeParams::new(7, 4).unwrap(), kernel).unwrap();
            assert_eq!(rs.kernel(), kernel);
            let got = rs.encode(&file).unwrap();
            assert_eq!(got, want, "encode must be byte-identical for {kernel}");
            let subset: Vec<Chunk> = got.chunks()[2..6].to_vec();
            assert_eq!(rs.decode(&subset, file.len()).unwrap(), file);
        }
    }

    #[test]
    fn encode_rows_into_matches_encode_and_cache_chunks() {
        let rs = ReedSolomon::new(CodeParams::new(7, 4).unwrap()).unwrap();
        let file = sample_file(301);
        let (data_chunks, chunk_len) = stripe::split(&file, 4);
        // Storage rows 0, 3, 6 and cache row 9 (the third cache chunk).
        let rows = vec![0usize, 3, 6, 9];
        let encoded = rs.encode(&file).unwrap();
        let cached = rs.cache_chunks(&file, 3).unwrap();
        let want: Vec<&[u8]> = [
            &encoded.chunks()[0],
            &encoded.chunks()[3],
            &encoded.chunks()[6],
            &cached[2],
        ]
        .iter()
        .map(|c| c.data.as_ref())
        .collect();
        let data_refs: Vec<&[u8]> = data_chunks.iter().map(Vec::as_slice).collect();
        // Dirty buffers: encode_rows_into must fully overwrite them.
        let mut bufs = vec![vec![0xEEu8; chunk_len]; rows.len()];
        let mut outs: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
        rs.encode_rows_into(&data_refs, &rows, &mut outs);
        assert_eq!(bufs, want);
    }

    #[test]
    #[should_panic(expected = "one output buffer per row")]
    fn encode_rows_into_requires_matching_outputs() {
        let rs = ReedSolomon::new(CodeParams::new(5, 2).unwrap()).unwrap();
        let data = [vec![1u8, 2], vec![3u8, 4]];
        let data_refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let mut buf = vec![0u8; 2];
        let mut outs: Vec<&mut [u8]> = vec![&mut buf];
        rs.encode_rows_into(&data_refs, &[0, 1], &mut outs);
    }

    /// The decode `decode_into` replaced: the full `k × k` inverse pushed
    /// through one `dot_slices`, systematic rows included.
    fn full_inverse_decode(rs: &ReedSolomon, chunks: &[Chunk], original_len: usize) -> Vec<u8> {
        let k = rs.params().k();
        let mut selected: Vec<&Chunk> = chunks.iter().collect();
        selected.sort_by_key(|c| c.id.index);
        let rows: Vec<usize> = selected.iter().map(|c| c.id.index).collect();
        let inv = rs.generator().select_rows(&rows).inverted().unwrap();
        let chunk_len = selected[0].len();
        let mut out = vec![0u8; k * chunk_len];
        if chunk_len > 0 {
            let srcs: Vec<&[u8]> = selected.iter().map(|c| c.data.as_ref()).collect();
            let mut outs: Vec<&mut [u8]> = out.chunks_mut(chunk_len).collect();
            kernel::dot_slices(rs.kernel(), inv.as_slice(), &srcs, &mut outs);
        }
        out.truncate(original_len);
        out
    }

    /// Every row of the extended code for `file`: storage rows `0..n`, then
    /// cache rows `n..n + k`.
    fn all_rows(rs: &ReedSolomon, file: &[u8]) -> Vec<Chunk> {
        let mut rows = rs.encode(file).unwrap().into_chunks();
        rows.extend(rs.cache_chunks(file, rs.params().k()).unwrap());
        rows
    }

    /// Decodes `rows` (data rows tagged as cache chunks when `cache_ids`,
    /// as an LRU or whole-object entry carries them) into a dirty buffer
    /// and holds the bytes to the full-inverse reference and the file. A
    /// selection of the `k` data rows must not touch the decode memo.
    fn check_decode(rs: &ReedSolomon, rows: &[Chunk], file: &[u8], cache_ids: bool) {
        let k = rs.params().k();
        let chunks: Vec<Chunk> = rows
            .iter()
            .map(|c| match c.id.index {
                row if cache_ids && row < k => Chunk::new(ChunkId::cache(row), c.data.clone()),
                _ => c.clone(),
            })
            .collect();
        let memo = rs.decode_memo_stats();
        let mut out = vec![0xA5u8; file.len() + 7];
        rs.decode_into(&chunks, file.len(), &mut out).unwrap();
        let label = (rs.params(), rs.kernel(), file.len());
        assert_eq!(
            out,
            file,
            "{label:?} rows {:?}",
            chunks.iter().map(|c| c.id).collect::<Vec<_>>()
        );
        assert_eq!(
            out,
            full_inverse_decode(rs, &chunks, file.len()),
            "{label:?}"
        );
        if chunks.iter().all(|c| c.id.index < k) {
            assert_eq!(
                rs.decode_memo_stats(),
                memo,
                "{label:?}: systematic decode used the memo"
            );
        }
    }

    /// The `k`-subsets of `0..total`, in lexicographic order.
    fn subsets(total: usize, k: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut combo: Vec<usize> = (0..k).collect();
        loop {
            out.push(combo.clone());
            let Some(i) = (0..k).rev().find(|&i| combo[i] < total - k + i) else {
                return out;
            };
            combo[i] += 1;
            for j in i + 1..k {
                combo[j] = combo[j - 1] + 1;
            }
        }
    }

    #[test]
    fn decode_into_equals_the_full_inverse_on_every_subset() {
        let lens: Vec<usize> = (0..=300).chain([64 << 10]).collect();
        for (n, k) in [(4, 2), (7, 4)] {
            for kernel in Kernel::ALL {
                let rs = ReedSolomon::with_kernel(CodeParams::new(n, k).unwrap(), kernel).unwrap();
                let subsets = subsets(n + k, k);
                for &len in &lens {
                    let file = sample_file(len);
                    let rows = all_rows(&rs, &file);
                    // Every subset at 64 KiB and the short lengths of (4, 2);
                    // (7, 4)'s 330 subsets take turns over the short lengths.
                    let stride = if len > 300 || n == 4 { 1 } else { 7 };
                    for (i, subset) in subsets
                        .iter()
                        .enumerate()
                        .skip(len % stride)
                        .step_by(stride)
                    {
                        let picked: Vec<Chunk> = subset.iter().map(|&r| rows[r].clone()).collect();
                        check_decode(&rs, &picked, &file, i % 2 == 1);
                    }
                }
            }
        }
    }

    #[test]
    fn decode_into_equals_the_full_inverse_on_random_subsets() {
        // (12, 8) has k = MAX_DOT, so its scratch lives on the stack;
        // (14, 10) takes the heap path.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for (n, k) in [(12, 8), (14, 10)] {
            for kernel in Kernel::ALL {
                let rs = ReedSolomon::with_kernel(CodeParams::new(n, k).unwrap(), kernel).unwrap();
                for len in (0..=300).step_by(13).chain([64 << 10]) {
                    let file = sample_file(len);
                    let rows = all_rows(&rs, &file);
                    for draw in 0..6 {
                        let mut order: Vec<usize> = (0..n + k).collect();
                        for i in (1..order.len()).rev() {
                            order.swap(i, next(i + 1));
                        }
                        // One draw in three is the k data rows: a whole hit.
                        let picked: Vec<Chunk> = match draw % 3 {
                            0 => rows[..k].to_vec(),
                            _ => order[..k].iter().map(|&r| rows[r].clone()).collect(),
                        };
                        check_decode(&rs, &picked, &file, draw % 2 == 0);
                    }
                }
            }
        }
    }

    #[test]
    fn a_data_row_selection_decodes_by_copy_in_any_order() {
        let rs = ReedSolomon::new(CodeParams::new(7, 4).unwrap()).unwrap();
        let file = sample_file(4001);
        let rows = all_rows(&rs, &file);
        let memo = rs.decode_memo_stats();
        let mut reversed: Vec<Chunk> = rows[..4].to_vec();
        reversed.reverse();
        // A duplicate row ahead of the rest changes nothing.
        reversed.insert(1, rows[3].clone());
        assert_eq!(rs.decode(&reversed, file.len()).unwrap(), file);
        assert_eq!(rs.decode_memo_stats(), memo);
    }

    #[test]
    fn into_chunks_moves_out() {
        let rs = ReedSolomon::new(CodeParams::new(5, 2).unwrap()).unwrap();
        let encoded = rs.encode(&sample_file(10)).unwrap();
        assert_eq!(encoded.clone().into_chunks().len(), 5);
    }
}

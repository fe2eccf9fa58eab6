//! Systematic `(n, k)` Reed–Solomon codes built from an extended
//! `(n + k, k)` MDS generator.
//!
//! Following §III of the paper, the generator has `n + k` rows so that the
//! `n` storage chunks use rows `0..n` and up to `k` *functional cache* chunks
//! can later be produced from rows `n..n + k` without touching the stored
//! chunks. Any `k` distinct rows of the generator are linearly independent,
//! so any `k` chunks — from storage, cache, or a mix — reconstruct the file.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use bytes::Bytes;
use sprout_gf::{builders, kernel, Gf256, Kernel, Matrix};

use crate::chunk::{Chunk, ChunkId};
use crate::error::CodingError;
use crate::stripe;
use crate::striped::{self, StripeOpts};

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
/// that reserves `k` extra rows for functional cache chunks.
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
    /// When set, `encode`/`decode`/`encode_rows` automatically stripe large
    /// objects across a scoped thread pool (see [`StripeOpts`]). `None`
    /// keeps every operation a single pass on the calling thread.
    striping: Option<StripeOpts>,
    /// Memo of inverted decode matrices, keyed by the row subset.
    ///
    /// Shared (via `Arc`) between clones of the code, so a codec cloned into
    /// several components still amortizes Gaussian eliminations.
    decode_memo: Arc<Mutex<InverseMemo>>,
}

/// A set of generator rows as a 256-bit mask (bit `r` set when row `r` is
/// in the set). Row indices are below `n + k <= 255`.
type RowMask = [u64; 4];

/// Bounded LRU memo mapping a row subset to the inverse of the
/// corresponding generator sub-matrix (rows in ascending order).
///
/// Real request streams decode the same cache/storage row mixes over and
/// over (the scheduler only has `n + d choose k` subsets to pick from, and
/// heavily skews toward the fastest nodes), so the O(k³) elimination is
/// almost always a cache hit after warm-up.
#[derive(Debug, Default)]
struct InverseMemo {
    entries: HashMap<RowMask, MemoEntry>,
    clock: u64,
    hits: u64,
    misses: u64,
}

#[derive(Debug)]
struct MemoEntry {
    inverse: Arc<Matrix>,
    last_used: u64,
}

/// Maximum number of inverted matrices kept per code.
const DECODE_MEMO_CAP: usize = 64;

impl InverseMemo {
    fn get(&mut self, rows: &RowMask) -> Option<Arc<Matrix>> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.get_mut(rows) {
            Some(entry) => {
                entry.last_used = clock;
                self.hits += 1;
                Some(Arc::clone(&entry.inverse))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, rows: RowMask, inverse: Arc<Matrix>) {
        if self.entries.len() >= DECODE_MEMO_CAP {
            // Evict the least recently used subset (linear scan: the memo is
            // small and eviction is rare).
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k)
            {
                self.entries.remove(&victim);
            }
        }
        let clock = self.clock;
        self.entries.insert(
            rows,
            MemoEntry {
                inverse,
                last_used: clock,
            },
        );
    }
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
            striping: None,
            decode_memo: Arc::new(Mutex::new(InverseMemo::default())),
        })
    }

    /// Enables (or disables, with `None`) automatic striped coding: with
    /// options set, [`ReedSolomon::encode`], [`ReedSolomon::decode`] and
    /// [`ReedSolomon::encode_rows`] fan multi-stripe objects out over a
    /// scoped thread pool. Results are byte-identical either way; only
    /// throughput changes.
    #[must_use]
    pub fn with_striping(mut self, striping: Option<StripeOpts>) -> Self {
        self.set_striping(striping);
        self
    }

    /// Switches automatic striping. See [`ReedSolomon::with_striping`].
    pub(crate) fn set_striping(&mut self, striping: Option<StripeOpts>) {
        self.striping = striping;
    }

    /// The automatic striping options, if enabled.
    pub fn striping(&self) -> Option<StripeOpts> {
        self.striping
    }

    /// The code parameters.
    pub fn params(&self) -> CodeParams {
        self.params
    }

    /// The slice kernel used for bulk GF(2^8) work.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// `(hits, misses)` counters of the decode-matrix memo.
    pub fn decode_memo_stats(&self) -> (u64, u64) {
        let memo = self.memo();
        (memo.hits, memo.misses)
    }

    /// The decode-matrix memo. A thread that panicked while holding it
    /// cannot have left a wrong entry behind — every entry is the
    /// deterministic inverse of its key, and an interrupted insert or
    /// eviction only loses entries — so a poisoned lock is recovered, not
    /// propagated.
    fn memo(&self) -> MutexGuard<'_, InverseMemo> {
        self.decode_memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The extended `(n + k) × k` generator matrix.
    pub fn generator(&self) -> &Matrix {
        &self.generator
    }

    /// Encodes a file into its `n` storage chunks.
    ///
    /// The systematic prefix is produced without any GF arithmetic: the
    /// first `k` payloads are the split data chunks themselves, moved (not
    /// copied) into their [`Chunk`]s. Only the `n - k` parity rows run
    /// through the multiply kernel, into one buffer that the parity chunks
    /// view. A caller that owns the file should use
    /// [`ReedSolomon::encode_owned`], which skips the split copy too.
    ///
    /// # Errors
    ///
    /// This operation does not currently fail; the `Result` mirrors
    /// [`ReedSolomon::decode`] for API symmetry.
    pub fn encode(&self, file: &[u8]) -> Result<EncodedFile, CodingError> {
        self.encode_impl(file, self.striping)
    }

    /// Encodes a file with explicitly striped, multi-threaded parity
    /// computation (regardless of the code's automatic-striping setting).
    ///
    /// The object's chunk length is partitioned into stripes of
    /// `opts.stripe_len` bytes and the parity rows of each stripe are
    /// encoded concurrently on a scoped thread pool writing disjoint
    /// sub-slices of the final chunk buffers — no per-stripe allocation and
    /// no reassembly copy. The result is byte-identical to
    /// [`ReedSolomon::encode`].
    ///
    /// # Errors
    ///
    /// See [`ReedSolomon::encode`].
    pub fn encode_striped(
        &self,
        file: &[u8],
        opts: StripeOpts,
    ) -> Result<EncodedFile, CodingError> {
        self.encode_impl(file, Some(opts))
    }

    fn encode_impl(
        &self,
        file: &[u8],
        striping: Option<StripeOpts>,
    ) -> Result<EncodedFile, CodingError> {
        let (data_chunks, chunk_len) = stripe::split(file, self.params.k());
        let data_refs: Vec<&[u8]> = data_chunks.iter().map(Vec::as_slice).collect();
        // Parity rows first (they read every data chunk) ...
        let parity = self.parity_chunks(&data_refs, chunk_len, striping);
        // ... then the data chunks are moved into the systematic prefix.
        let mut chunks: Vec<Chunk> = data_chunks
            .into_iter()
            .enumerate()
            .map(|(row, data)| Chunk::new(ChunkId::storage(row), data))
            .collect();
        chunks.extend(parity);
        Ok(EncodedFile {
            chunks,
            original_len: file.len(),
            chunk_len,
        })
    }

    /// Encodes a file the caller hands over, without copying it: the file
    /// is zero-padded in place to `k · chunk_len` bytes and the `k` data
    /// chunks are views of it ([`Bytes::slice`]), so they share its one
    /// allocation. The parity rows share one more. Byte-identical to
    /// [`ReedSolomon::encode`].
    ///
    /// # Errors
    ///
    /// See [`ReedSolomon::encode`].
    pub fn encode_owned(&self, mut file: Vec<u8>) -> Result<EncodedFile, CodingError> {
        let k = self.params.k();
        let original_len = file.len();
        let chunk_len = stripe::chunk_len(original_len, k);
        file.resize(k * chunk_len, 0);
        let parity = self.parity_chunks(&stripe::views(&file, k), chunk_len, self.striping);
        let mut chunks = row_views(Bytes::from(file), 0, k, chunk_len);
        chunks.extend(parity);
        Ok(EncodedFile {
            chunks,
            original_len,
            chunk_len,
        })
    }

    /// The `n - k` parity chunks of the given data chunks, coded into one
    /// buffer that every parity chunk views.
    fn parity_chunks(
        &self,
        data: &[&[u8]],
        chunk_len: usize,
        striping: Option<StripeOpts>,
    ) -> Vec<Chunk> {
        let (k, n) = (self.params.k(), self.params.n());
        let rows: Vec<usize> = (k..n).collect();
        let mut parity = vec![0u8; rows.len() * chunk_len];
        if chunk_len > 0 {
            let mut outs: Vec<&mut [u8]> = parity.chunks_mut(chunk_len).collect();
            match striping {
                Some(opts) => self.encode_rows_striped_into(data, &rows, &mut outs, opts),
                None => self.encode_rows_into(data, &rows, &mut outs),
            }
        }
        row_views(Bytes::from(parity), k, rows.len(), chunk_len)
    }

    /// Encodes the listed generator rows against already-split data chunks.
    ///
    /// This is the primitive used both for storage chunks (rows `0..n`) and
    /// functional cache chunks (rows `n..n+d`). Allocates one payload per
    /// row; the zero-copy variant is [`ReedSolomon::encode_rows_into`].
    ///
    /// # Panics
    ///
    /// Panics if `data_chunks.len() != k`, the chunks have unequal lengths,
    /// or a row index exceeds `n + k`.
    pub fn encode_rows(&self, data_chunks: &[Vec<u8>], rows: &[usize]) -> Vec<Vec<u8>> {
        let data_refs: Vec<&[u8]> = data_chunks.iter().map(Vec::as_slice).collect();
        self.encode_rows_from(&data_refs, rows)
    }

    /// [`ReedSolomon::encode_rows`] over borrowed data chunks (e.g. views
    /// of one decoded buffer): one fresh payload per row.
    pub(crate) fn encode_rows_from(&self, data_chunks: &[&[u8]], rows: &[usize]) -> Vec<Vec<u8>> {
        let chunk_len = data_chunks.first().map_or(0, |c| c.len());
        let mut payloads: Vec<Vec<u8>> = rows.iter().map(|_| vec![0u8; chunk_len]).collect();
        let mut outs: Vec<&mut [u8]> = payloads.iter_mut().map(Vec::as_mut_slice).collect();
        match self.striping {
            Some(opts) => self.encode_rows_striped_into(data_chunks, rows, &mut outs, opts),
            None => self.encode_rows_into(data_chunks, rows, &mut outs),
        }
        payloads
    }

    /// Encodes the listed generator rows into caller-provided output
    /// buffers, allocating nothing.
    ///
    /// Each output buffer is fully overwritten (callers do not need to zero
    /// it). Per-coefficient multiplication tables are the process-wide lazy
    /// tables from [`sprout_gf::MulTable`], so a stripe of calls with the
    /// same generator rows reuses them with no per-call setup.
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
        let coeffs = self.row_coeffs(rows, outputs, chunk_len);
        kernel::dot_slices(self.kernel, &coeffs, data_chunks, outputs);
    }

    /// The generator coefficients of `rows`, row-major, after checking each
    /// row index and output length.
    fn row_coeffs(&self, rows: &[usize], outputs: &[&mut [u8]], chunk_len: usize) -> Vec<Gf256> {
        for (&row, out) in rows.iter().zip(outputs) {
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
        rows.iter()
            .flat_map(|&row| self.generator.row(row))
            .copied()
            .collect()
    }

    /// The striped, multi-threaded variant of
    /// [`ReedSolomon::encode_rows_into`]: the chunk length is partitioned
    /// into `opts.stripe_len`-byte stripes, and each stripe's slice of every
    /// output row is encoded concurrently on a scoped thread pool.
    ///
    /// Stripes are disjoint byte ranges of caller-provided buffers, so
    /// nothing is allocated per stripe and the result is byte-identical to
    /// the single-pass variant for any thread count. Objects that produce at
    /// most one stripe (or `opts` resolving to one worker) run inline.
    ///
    /// # Panics
    ///
    /// As [`ReedSolomon::encode_rows_into`].
    pub fn encode_rows_striped_into(
        &self,
        data_chunks: &[&[u8]],
        rows: &[usize],
        outputs: &mut [&mut [u8]],
        opts: StripeOpts,
    ) {
        let chunk_len = data_chunks.first().map_or(0, |c| c.len());
        let ranges = stripe::stripe_ranges(chunk_len, opts.stripe_len);
        let workers = opts.effective_threads().min(ranges.len()).max(1);
        if workers == 1 {
            self.encode_rows_into(data_chunks, rows, outputs);
            return;
        }
        // Same contract checks as the single-pass variant (it is not called
        // here, so they must run up front — before buffers are carved).
        assert_eq!(
            data_chunks.len(),
            self.params.k(),
            "expected exactly k data chunks"
        );
        assert!(
            data_chunks.iter().all(|c| c.len() == chunk_len),
            "all data chunks must have the same length"
        );
        assert_eq!(
            outputs.len(),
            rows.len(),
            "expected one output buffer per row"
        );
        let coeffs = self.row_coeffs(rows, outputs, chunk_len);
        let tasks = striped::carve(outputs, &ranges);
        striped::run_tasks(tasks, workers, |range, outs| {
            let srcs: Vec<&[u8]> = data_chunks.iter().map(|d| &d[range.clone()]).collect();
            kernel::dot_slices(self.kernel, &coeffs, &srcs, outs);
        });
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
        self.decode_impl(chunks, original_len, self.striping, &mut out)?;
        Ok(out)
    }

    /// [`ReedSolomon::decode`] into a caller's buffer, so a caller that
    /// decodes over and over (a serving worker) reuses one allocation.
    ///
    /// On success `out` holds exactly the decoded file; whatever it held
    /// before is overwritten, never read. A buffer whose capacity is too
    /// small is replaced by a fresh zeroed one. On error `out` is left in
    /// an unspecified state.
    ///
    /// # Errors
    ///
    /// See [`ReedSolomon::decode`].
    pub fn decode_into(
        &self,
        chunks: &[Chunk],
        original_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodingError> {
        self.decode_impl(chunks, original_len, self.striping, out)
    }

    /// Decodes with explicitly striped, multi-threaded reconstruction
    /// (regardless of the code's automatic-striping setting).
    ///
    /// The inverse decode matrix is computed (or memo-served) once; the
    /// chunk length is then partitioned into `opts.stripe_len`-byte stripes
    /// reconstructed concurrently into disjoint sub-slices of the flat
    /// output buffer. Byte-identical to [`ReedSolomon::decode`].
    ///
    /// # Errors
    ///
    /// See [`ReedSolomon::decode`].
    pub fn decode_striped(
        &self,
        chunks: &[Chunk],
        original_len: usize,
        opts: StripeOpts,
    ) -> Result<Vec<u8>, CodingError> {
        let mut out = Vec::new();
        self.decode_impl(chunks, original_len, Some(opts), &mut out)?;
        Ok(out)
    }

    fn decode_impl(
        &self,
        chunks: &[Chunk],
        original_len: usize,
        striping: Option<StripeOpts>,
        flat: &mut Vec<u8>,
    ) -> Result<(), CodingError> {
        let k = self.params.k();
        let max = self.params.extended_rows();

        // Collect the first k distinct rows. Row indices are below
        // `n + k <= 255` (checked by `CodeParams::new`), so a 256-bit mask
        // records which rows were already taken.
        let mut selected: Vec<&Chunk> = Vec::with_capacity(k);
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
            selected.push(chunk);
            if selected.len() == k {
                break;
            }
        }
        if selected.len() < k {
            return Err(CodingError::NotEnoughChunks {
                have: selected.len(),
                need: k,
            });
        }

        let chunk_len = selected[0].len();
        for chunk in &selected {
            if chunk.len() != chunk_len {
                return Err(CodingError::ChunkSizeMismatch {
                    expected: chunk_len,
                    found: chunk.len(),
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
        // equation system permutes the inverse's columns identically.
        selected.sort_by_key(|c| c.id.index);
        let inv = self.decode_matrix(seen, &selected)?;

        // data_chunk[i] = sum_j inv[i][j] * selected[j], written directly
        // into one flat output buffer (chunk i occupies bytes
        // i*chunk_len..(i+1)*chunk_len of the decoded file), so no per-chunk
        // buffers or join copy are needed. Every byte is overwritten, so a
        // reused buffer is only resized; a too-small one is replaced by a
        // fresh zeroed (calloc'd) allocation, which is cheaper than growing
        // and zeroing it.
        let len = k * chunk_len;
        if flat.capacity() < len {
            *flat = vec![0u8; len];
        } else {
            flat.resize(len, 0);
        }
        if chunk_len > 0 {
            let srcs: Vec<&[u8]> = selected.iter().map(|c| c.data.as_ref()).collect();
            let mut data_slices: Vec<&mut [u8]> = flat.chunks_mut(chunk_len).collect();
            let ranges = striping
                .map(|opts| stripe::stripe_ranges(chunk_len, opts.stripe_len))
                .unwrap_or_default();
            let workers =
                striping.map_or(1, |opts| opts.effective_threads().min(ranges.len()).max(1));
            if workers > 1 {
                // Striped: carve each logical data chunk of the flat buffer
                // along the stripe ranges and reconstruct stripes concurrently.
                let tasks = striped::carve(&mut data_slices, &ranges);
                striped::run_tasks(tasks, workers, |range, outs| {
                    let srcs: Vec<&[u8]> = srcs.iter().map(|s| &s[range.clone()]).collect();
                    kernel::dot_slices(self.kernel, inv.as_slice(), &srcs, outs);
                });
            } else {
                kernel::dot_slices(self.kernel, inv.as_slice(), &srcs, &mut data_slices);
            }
        }
        flat.truncate(original_len);
        Ok(())
    }

    /// The inverse of the generator sub-matrix for the rows of `selected`
    /// (sorted by row; `rows` is their mask), served from the LRU memo when
    /// the same mix of cache/storage rows has been decoded before.
    fn decode_matrix(
        &self,
        rows: RowMask,
        selected: &[&Chunk],
    ) -> Result<Arc<Matrix>, CodingError> {
        if let Some(inverse) = self.memo().get(&rows) {
            return Ok(inverse);
        }
        // Miss: run the O(k³) elimination *outside* the lock so concurrent
        // decodes (and memo hits) are never serialized behind it. A racing
        // decode of the same subset may recompute the inverse; that is
        // harmless — the result is deterministic and insert is last-wins.
        let indices: Vec<usize> = selected.iter().map(|c| c.id.index).collect();
        let sub = self.generator.select_rows(&indices);
        let inverse = Arc::new(
            sub.inverted()
                .map_err(|_| CodingError::SingularDecodeMatrix)?,
        );
        self.memo().insert(rows, Arc::clone(&inverse));
        Ok(inverse)
    }

    /// Produces a single coded chunk for the given generator row from a raw file.
    ///
    /// The reference that the rows of [`ReedSolomon::encode`] are tested
    /// against.
    #[cfg(test)]
    pub(crate) fn encode_row_from_file(&self, file: &[u8], row: usize) -> Chunk {
        use crate::chunk::ChunkSource;
        let (data_chunks, _) = stripe::split(file, self.params.k());
        let payload = self.encode_rows(&data_chunks, &[row]).remove(0);
        let source = if row < self.params.n() {
            ChunkSource::Storage
        } else {
            ChunkSource::Cache
        };
        Chunk::new(ChunkId { index: row, source }, Bytes::from(payload))
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
        let (data_chunks, _) = stripe::split(&file, self.params.k());
        for chunk in chunks {
            let expect = self.encode_rows(&data_chunks, &[chunk.id.index]).remove(0);
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

    #[test]
    fn encode_row_from_file_matches_encode() {
        let rs = ReedSolomon::new(CodeParams::new(7, 4).unwrap()).unwrap();
        let file = sample_file(77);
        let encoded = rs.encode(&file).unwrap();
        for row in 0..7 {
            let chunk = rs.encode_row_from_file(&file, row);
            assert_eq!(chunk.data, encoded.chunks()[row].data);
            assert_eq!(chunk.id.source, ChunkSource::Storage);
        }
        let cache_chunk = rs.encode_row_from_file(&file, 8);
        assert_eq!(cache_chunk.id.source, ChunkSource::Cache);
    }

    #[test]
    fn decode_memo_caches_row_subsets() {
        let rs = ReedSolomon::new(CodeParams::new(7, 4).unwrap()).unwrap();
        let file = sample_file(64);
        let encoded = rs.encode(&file).unwrap();
        let subset: Vec<Chunk> = encoded.chunks()[1..5].to_vec();
        assert_eq!(rs.memo().entries.len(), 0);
        for _ in 0..5 {
            assert_eq!(rs.decode(&subset, file.len()).unwrap(), file);
        }
        assert_eq!(rs.memo().entries.len(), 1);
        let (hits, misses) = rs.decode_memo_stats();
        assert_eq!((hits, misses), (4, 1));
        // Chunk order does not create a new entry: the key is the sorted set.
        let mut shuffled = subset.clone();
        shuffled.reverse();
        assert_eq!(rs.decode(&shuffled, file.len()).unwrap(), file);
        assert_eq!(rs.memo().entries.len(), 1);
        // A different subset adds a second entry.
        let other: Vec<Chunk> = encoded.chunks()[3..7].to_vec();
        assert_eq!(rs.decode(&other, file.len()).unwrap(), file);
        assert_eq!(rs.memo().entries.len(), 2);
        // Clones share the memo.
        let clone = rs.clone();
        assert_eq!(clone.memo().entries.len(), 2);
    }

    #[test]
    fn decode_survives_a_poisoned_memo() {
        let rs = ReedSolomon::new(CodeParams::new(7, 4).unwrap()).unwrap();
        let file = sample_file(200);
        let encoded = rs.encode(&file).unwrap();
        let subset: Vec<Chunk> = encoded.chunks()[2..6].to_vec();
        assert_eq!(rs.decode(&subset, file.len()).unwrap(), file);

        let memo = Arc::clone(&rs.decode_memo);
        let panicked = std::thread::spawn(move || {
            let _guard = memo.lock().unwrap();
            panic!("a decoding thread dies holding the memo");
        })
        .join();
        assert!(panicked.is_err());
        assert!(rs.decode_memo.is_poisoned());

        // The memoized inverse is still served, and a new subset still
        // inverts and inserts.
        assert_eq!(rs.decode(&subset, file.len()).unwrap(), file);
        let other: Vec<Chunk> = encoded.chunks()[3..7].to_vec();
        assert_eq!(rs.decode(&other, file.len()).unwrap(), file);
        assert_eq!(rs.decode_memo_stats(), (1, 2));
        assert_eq!(rs.memo().entries.len(), 2);
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
        assert!(rs.memo().entries.len() <= 64);
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
    fn encode_rows_into_matches_encode_rows() {
        let rs = ReedSolomon::new(CodeParams::new(7, 4).unwrap()).unwrap();
        let file = sample_file(301);
        let (data_chunks, chunk_len) = stripe::split(&file, 4);
        let rows = vec![0usize, 3, 6, 9];
        let want = rs.encode_rows(&data_chunks, &rows);
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

    #[test]
    fn into_chunks_moves_out() {
        let rs = ReedSolomon::new(CodeParams::new(5, 2).unwrap()).unwrap();
        let encoded = rs.encode(&sample_file(10)).unwrap();
        assert_eq!(encoded.clone().into_chunks().len(), 5);
    }
}

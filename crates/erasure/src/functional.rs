//! Functional-cache chunk construction.
//!
//! Under *functional caching* (§III of the paper), a compute server caches
//! `d ≤ k` **new** coded chunks of file `i` such that the `n` chunks on the
//! storage nodes together with the `d` cached chunks form an `(n + d, k)` MDS
//! code. A read then only needs `k − d` chunks from the storage nodes — any
//! `k − d` of all `n`, not `k − d` of a reduced set as with exact caching.
//!
//! The [`FunctionalCacheCodec`] wraps a [`ReedSolomon`] code whose generator
//! already has `n + k` rows; cache chunks simply use rows `n..n + d`.

use sprout_gf::Kernel;

use crate::chunk::{Chunk, ChunkId};
use crate::code::{CodeParams, EncodedFile, ReedSolomon};
use crate::error::CodingError;
use crate::stripe;
use crate::striped::StripeOpts;

/// Encoder/decoder for files stored with an `(n, k)` code plus up to `k`
/// functional cache chunks.
///
/// # Example
///
/// ```
/// use sprout_erasure::{CodeParams, FunctionalCacheCodec};
///
/// let codec = FunctionalCacheCodec::new(CodeParams::new(7, 4)?)?;
/// let file: Vec<u8> = (0u8..200).collect();
/// let stored = codec.encode(&file)?;
/// let cached = codec.cache_chunks(&file, 2)?;
///
/// // Read path: 2 cache chunks + any 2 of the 7 storage chunks.
/// let mut have = cached;
/// have.push(stored.chunks()[6].clone());
/// have.push(stored.chunks()[0].clone());
/// assert_eq!(codec.decode(&have, file.len())?, file);
/// # Ok::<(), sprout_erasure::CodingError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FunctionalCacheCodec {
    code: ReedSolomon,
}

impl FunctionalCacheCodec {
    /// Creates a codec for the given `(n, k)` parameters.
    ///
    /// # Errors
    ///
    /// Propagates [`CodingError::InvalidParams`] from code construction.
    pub fn new(params: CodeParams) -> Result<Self, CodingError> {
        Ok(FunctionalCacheCodec {
            code: ReedSolomon::new(params)?,
        })
    }

    /// Creates a codec with an explicit slice [`Kernel`] (results are
    /// byte-identical across kernels; only throughput changes).
    ///
    /// # Errors
    ///
    /// Propagates [`CodingError::InvalidParams`] from code construction.
    pub fn with_kernel(params: CodeParams, kernel: Kernel) -> Result<Self, CodingError> {
        Ok(FunctionalCacheCodec {
            code: ReedSolomon::with_kernel(params, kernel)?,
        })
    }

    /// The slice kernel used for bulk GF(2^8) work.
    pub fn kernel(&self) -> Kernel {
        self.code.kernel()
    }

    /// Enables (or disables, with `None`) automatic striped coding of large
    /// objects. See [`ReedSolomon::with_striping`].
    #[must_use]
    pub fn with_striping(mut self, striping: Option<StripeOpts>) -> Self {
        self.set_striping(striping);
        self
    }

    /// Switches automatic striping. See [`ReedSolomon::set_striping`].
    pub(crate) fn set_striping(&mut self, striping: Option<StripeOpts>) {
        self.code.set_striping(striping);
    }

    /// The automatic striping options, if enabled.
    pub fn striping(&self) -> Option<StripeOpts> {
        self.code.striping()
    }

    /// Encodes a file with explicitly striped, multi-threaded parity
    /// computation. See [`ReedSolomon::encode_striped`].
    ///
    /// # Errors
    ///
    /// Propagates errors from [`ReedSolomon::encode_striped`].
    pub fn encode_striped(
        &self,
        file: &[u8],
        opts: StripeOpts,
    ) -> Result<EncodedFile, CodingError> {
        self.code.encode_striped(file, opts)
    }

    /// Decodes with explicitly striped, multi-threaded reconstruction. See
    /// [`ReedSolomon::decode_striped`].
    ///
    /// # Errors
    ///
    /// Propagates errors from [`ReedSolomon::decode_striped`].
    pub fn decode_striped(
        &self,
        chunks: &[Chunk],
        original_len: usize,
        opts: StripeOpts,
    ) -> Result<Vec<u8>, CodingError> {
        self.code.decode_striped(chunks, original_len, opts)
    }

    /// The code parameters.
    pub fn params(&self) -> CodeParams {
        self.code.params()
    }

    /// Access to the underlying Reed–Solomon code.
    pub fn code(&self) -> &ReedSolomon {
        &self.code
    }

    /// Encodes a file into its `n` storage chunks.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`ReedSolomon::encode`].
    pub fn encode(&self, file: &[u8]) -> Result<EncodedFile, CodingError> {
        self.code.encode(file)
    }

    /// Encodes a file the caller hands over; its data chunks are views of
    /// it. See [`ReedSolomon::encode_owned`].
    ///
    /// # Errors
    ///
    /// Propagates errors from [`ReedSolomon::encode_owned`].
    pub fn encode_owned(&self, file: Vec<u8>) -> Result<EncodedFile, CodingError> {
        self.code.encode_owned(file)
    }

    /// Produces `d` functional cache chunks for a file.
    ///
    /// The chunks use generator rows `n..n + d`, so together with the storage
    /// chunks they form an `(n + d, k)` MDS code.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::TooManyCacheChunks`] if `d > k`.
    pub fn cache_chunks(&self, file: &[u8], d: usize) -> Result<Vec<Chunk>, CodingError> {
        self.check_cache_chunks(d)?;
        let (data_chunks, _) = stripe::split(file, self.code.params().k());
        let data_refs: Vec<&[u8]> = data_chunks.iter().map(Vec::as_slice).collect();
        Ok(self.cache_rows(&data_refs, d))
    }

    fn check_cache_chunks(&self, d: usize) -> Result<(), CodingError> {
        let k = self.code.params().k();
        if d > k {
            return Err(CodingError::TooManyCacheChunks {
                requested: d,
                max: k,
            });
        }
        Ok(())
    }

    /// Cache rows `n..n + d` coded from the `k` data chunks, one payload
    /// per chunk (each cached chunk owns its bytes).
    fn cache_rows(&self, data_chunks: &[&[u8]], d: usize) -> Vec<Chunk> {
        let n = self.code.params().n();
        let rows: Vec<usize> = (n..n + d).collect();
        let payloads = self.code.encode_rows_from(data_chunks, &rows);
        rows.into_iter()
            .zip(payloads)
            .map(|(row, payload)| Chunk::new(ChunkId::cache(row), payload))
            .collect()
    }

    /// Produces functional cache chunks from already-available storage chunks
    /// (any `k` of them), without access to the original file.
    ///
    /// This is the "update on the fly when a file request is processed" path
    /// of §III: when a file is first read in a new time bin, the chunks just
    /// gathered are re-encoded into the cache rows.
    ///
    /// # Errors
    ///
    /// Propagates decode errors, and [`CodingError::TooManyCacheChunks`] if
    /// `d > k`.
    pub fn cache_chunks_from_chunks(
        &self,
        available: &[Chunk],
        d: usize,
    ) -> Result<Vec<Chunk>, CodingError> {
        self.check_cache_chunks(d)?;
        // The decode is exactly k whole data chunks, so the cache rows are
        // coded from views of it — no split copy.
        let k = self.code.params().k();
        let chunk_len = available.first().map_or(0, Chunk::len);
        let file = self.code.decode(available, k * chunk_len)?;
        Ok(self.cache_rows(&stripe::views(&file, k), d))
    }

    /// Decodes a file from any `k` distinct chunks (storage and/or cache).
    ///
    /// # Errors
    ///
    /// Propagates errors from [`ReedSolomon::decode`].
    pub fn decode(&self, chunks: &[Chunk], original_len: usize) -> Result<Vec<u8>, CodingError> {
        self.code.decode(chunks, original_len)
    }

    /// Decodes into a caller's (reused) buffer. See
    /// [`ReedSolomon::decode_into`].
    ///
    /// # Errors
    ///
    /// Propagates errors from [`ReedSolomon::decode_into`].
    pub fn decode_into(
        &self,
        chunks: &[Chunk],
        original_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), CodingError> {
        self.code.decode_into(chunks, original_len, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkSource;

    fn sample_file(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 17 + 3) as u8).collect()
    }

    #[test]
    fn paper_illustration_6_5_code() {
        // The (6,5) example of Fig. 2: 2 cache chunks + any 3 of the 6
        // storage chunks recover the file.
        let codec = FunctionalCacheCodec::new(CodeParams::new(6, 5).unwrap()).unwrap();
        let file = sample_file(100);
        let stored = codec.encode(&file).unwrap();
        let cached = codec.cache_chunks(&file, 2).unwrap();
        assert_eq!(cached.len(), 2);
        assert!(cached.iter().all(|c| c.id.source == ChunkSource::Cache));

        for a in 0..6 {
            for b in a + 1..6 {
                for c in b + 1..6 {
                    let mut have = cached.clone();
                    have.push(stored.chunks()[a].clone());
                    have.push(stored.chunks()[b].clone());
                    have.push(stored.chunks()[c].clone());
                    assert_eq!(codec.decode(&have, file.len()).unwrap(), file);
                }
            }
        }
    }

    #[test]
    fn full_cache_serves_file_without_storage() {
        let codec = FunctionalCacheCodec::new(CodeParams::new(7, 4).unwrap()).unwrap();
        let file = sample_file(257);
        let cached = codec.cache_chunks(&file, 4).unwrap();
        assert_eq!(codec.decode(&cached, file.len()).unwrap(), file);
    }

    #[test]
    fn too_many_cache_chunks_is_rejected() {
        let codec = FunctionalCacheCodec::new(CodeParams::new(7, 4).unwrap()).unwrap();
        assert!(matches!(
            codec.cache_chunks(&sample_file(10), 5),
            Err(CodingError::TooManyCacheChunks {
                requested: 5,
                max: 4
            })
        ));
    }

    #[test]
    fn cache_chunks_from_storage_chunks_match_direct_construction() {
        let codec = FunctionalCacheCodec::new(CodeParams::new(7, 4).unwrap()).unwrap();
        let file = sample_file(333);
        let stored = codec.encode(&file).unwrap();
        let direct = codec.cache_chunks(&file, 3).unwrap();
        // Rebuild from a non-systematic subset of storage chunks.
        let subset: Vec<Chunk> = stored.chunks()[3..7].to_vec();
        let rebuilt = codec.cache_chunks_from_chunks(&subset, 3).unwrap();
        assert_eq!(direct, rebuilt);
    }

    #[test]
    fn mixed_cache_and_storage_chunks_form_mds_code() {
        // Every subset of size k drawn from the n + d chunks decodes.
        let codec = FunctionalCacheCodec::new(CodeParams::new(6, 4).unwrap()).unwrap();
        let file = sample_file(64);
        let stored = codec.encode(&file).unwrap();
        let cached = codec.cache_chunks(&file, 2).unwrap();
        let mut all: Vec<Chunk> = stored.chunks().to_vec();
        all.extend(cached);
        let total = all.len(); // 8
        let k = 4;
        let mut combo: Vec<usize> = (0..k).collect();
        loop {
            let subset: Vec<Chunk> = combo.iter().map(|&i| all[i].clone()).collect();
            assert_eq!(codec.decode(&subset, file.len()).unwrap(), file);
            let mut i = k;
            loop {
                if i == 0 {
                    return;
                }
                i -= 1;
                if combo[i] != i + total - k {
                    combo[i] += 1;
                    for j in i + 1..k {
                        combo[j] = combo[j - 1] + 1;
                    }
                    break;
                }
            }
        }
    }

    #[test]
    fn zero_cache_chunks_is_empty() {
        let codec = FunctionalCacheCodec::new(CodeParams::new(7, 4).unwrap()).unwrap();
        assert!(codec.cache_chunks(&sample_file(10), 0).unwrap().is_empty());
    }
}

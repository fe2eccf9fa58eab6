//! Functional-cache chunk construction (§III of the paper) on the one
//! codec, [`ReedSolomon`]: cache chunks are rows `n..n + d` of the extended
//! `(n + k, k)` generator it already holds, not a second code.

use crate::chunk::{Chunk, ChunkId};
use crate::code::ReedSolomon;
use crate::error::CodingError;
use crate::stripe;

/// [`ReedSolomon`] under the name it had when cache chunks were built by a
/// wrapper type; kept for callers written against that name (the
/// `benchmark/` harness).
///
/// ```
/// use sprout_erasure::{CodeParams, FunctionalCacheCodec, Kernel, ReedSolomon};
///
/// let codec: ReedSolomon =
///     FunctionalCacheCodec::with_kernel(CodeParams::new(7, 4)?, Kernel::Scalar)?.with_striping(None);
/// assert_eq!(codec.params().n(), 7);
/// # Ok::<(), sprout_erasure::CodingError>(())
/// ```
pub type FunctionalCacheCodec = ReedSolomon;

impl ReedSolomon {
    /// Produces `d` functional cache chunks for a file.
    ///
    /// Under *functional caching*, a compute server caches `d ≤ k` **new**
    /// coded chunks of a file such that the `n` chunks on the storage nodes
    /// together with the `d` cached chunks form an `(n + d, k)` MDS code. A
    /// read then only needs `k − d` chunks from the storage nodes — any
    /// `k − d` of all `n`, not `k − d` of a reduced set as with exact
    /// caching. The cached chunks are generator rows `n..n + d`, so the
    /// stored chunks never change.
    ///
    /// # Example
    ///
    /// ```
    /// use sprout_erasure::{CodeParams, ReedSolomon};
    ///
    /// let codec = ReedSolomon::new(CodeParams::new(7, 4)?)?;
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
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::TooManyCacheChunks`] if `d > k`.
    pub fn cache_chunks(&self, file: &[u8], d: usize) -> Result<Vec<Chunk>, CodingError> {
        self.check_cache_chunks(d)?;
        let (data_chunks, _) = stripe::split(file, self.params().k());
        let data_refs: Vec<&[u8]> = data_chunks.iter().map(Vec::as_slice).collect();
        Ok(self.cache_rows(&data_refs, d))
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
        let k = self.params().k();
        let chunk_len = available.first().map_or(0, Chunk::len);
        let file = self.decode(available, k * chunk_len)?;
        Ok(self.cache_rows(&stripe::views(&file, k), d))
    }

    fn check_cache_chunks(&self, d: usize) -> Result<(), CodingError> {
        let k = self.params().k();
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
        let n = self.params().n();
        let rows: Vec<usize> = (n..n + d).collect();
        let chunk_len = data_chunks.first().map_or(0, |c| c.len());
        let mut payloads: Vec<Vec<u8>> = rows.iter().map(|_| vec![0u8; chunk_len]).collect();
        let mut outs: Vec<&mut [u8]> = payloads.iter_mut().map(Vec::as_mut_slice).collect();
        self.encode_rows_into(data_chunks, &rows, &mut outs);
        rows.into_iter()
            .zip(payloads)
            .map(|(row, payload)| Chunk::new(ChunkId::cache(row), payload))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkSource;
    use crate::code::CodeParams;

    fn sample_file(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 17 + 3) as u8).collect()
    }

    #[test]
    fn paper_illustration_6_5_code() {
        // The (6,5) example of Fig. 2: 2 cache chunks + any 3 of the 6
        // storage chunks recover the file.
        let codec = ReedSolomon::new(CodeParams::new(6, 5).unwrap()).unwrap();
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
        let codec = ReedSolomon::new(CodeParams::new(7, 4).unwrap()).unwrap();
        let file = sample_file(257);
        let cached = codec.cache_chunks(&file, 4).unwrap();
        assert_eq!(codec.decode(&cached, file.len()).unwrap(), file);
    }

    #[test]
    fn too_many_cache_chunks_is_rejected() {
        let codec = ReedSolomon::new(CodeParams::new(7, 4).unwrap()).unwrap();
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
        let codec = ReedSolomon::new(CodeParams::new(7, 4).unwrap()).unwrap();
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
        let codec = ReedSolomon::new(CodeParams::new(6, 4).unwrap()).unwrap();
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
        let codec = ReedSolomon::new(CodeParams::new(7, 4).unwrap()).unwrap();
        assert!(codec.cache_chunks(&sample_file(10), 0).unwrap().is_empty());
    }
}

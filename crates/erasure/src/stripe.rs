//! Splitting files into fixed-size data chunks (stripes).
//!
//! The paper assumes each file is partitioned into `k` fixed-size chunks
//! before encoding (§III). Files whose length is not a multiple of `k` are
//! zero-padded; the original length is carried separately so the padding can
//! be stripped after decoding.

/// Splits `data` into exactly `k` equal-length chunks, zero-padding the tail.
///
/// Returns the chunk payloads and the per-chunk length. An empty file yields
/// `k` empty chunks.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn split(data: &[u8], k: usize) -> (Vec<Vec<u8>>, usize) {
    assert!(k > 0, "cannot split a file into zero chunks");
    let chunk_len = data.len().div_ceil(k);
    let mut chunks = Vec::with_capacity(k);
    for i in 0..k {
        let start = (i * chunk_len).min(data.len());
        let end = ((i + 1) * chunk_len).min(data.len());
        let mut chunk = data[start..end].to_vec();
        chunk.resize(chunk_len, 0);
        chunks.push(chunk);
    }
    (chunks, chunk_len)
}

/// The `k` equal-length data chunks of an already padded buffer, as views
/// (the zero-copy counterpart of [`split`] for a buffer of exactly
/// `k · chunk_len` bytes).
///
/// # Panics
///
/// Panics if `k == 0` or `data.len()` is not a multiple of `k`.
pub(crate) fn views(data: &[u8], k: usize) -> Vec<&[u8]> {
    assert!(k > 0, "cannot split a file into zero chunks");
    assert_eq!(data.len() % k, 0, "a padded buffer holds k whole chunks");
    let chunk_len = data.len() / k;
    (0..k)
        .map(|i| &data[i * chunk_len..(i + 1) * chunk_len])
        .collect()
}

/// Returns the chunk size (in bytes) for a file of `file_len` bytes split
/// into `k` chunks, matching [`split`].
pub fn chunk_len(file_len: usize, k: usize) -> usize {
    assert!(k > 0, "cannot split a file into zero chunks");
    file_len.div_ceil(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_and_join_round_trip() {
        for len in [0usize, 1, 4, 5, 19, 100, 101] {
            for k in [1usize, 2, 4, 5, 7] {
                let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
                let (chunks, clen) = split(&data, k);
                assert_eq!(chunks.len(), k);
                assert!(chunks.iter().all(|c| c.len() == clen));
                assert_eq!(clen, chunk_len(len, k));
                assert_eq!(chunks.concat()[..len], data, "len={len} k={k}");
            }
        }
    }

    #[test]
    fn views_match_split_of_a_padded_buffer() {
        for len in [0usize, 4, 20, 100] {
            let data: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let (chunks, _) = split(&data, 4);
            assert_eq!(views(&data, 4), chunks, "len={len}");
        }
    }

    #[test]
    fn empty_file_produces_empty_chunks() {
        let (chunks, clen) = split(&[], 4);
        assert_eq!(clen, 0);
        assert!(chunks.iter().all(Vec::is_empty));
    }

    #[test]
    fn padding_is_zero() {
        let data = vec![0xFFu8; 5];
        let (chunks, clen) = split(&data, 4);
        assert_eq!(clen, 2);
        // 8 bytes total, last 3 are padding zeros
        let flat: Vec<u8> = chunks.concat();
        assert_eq!(&flat[..5], &data[..]);
        assert!(flat[5..].iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "zero chunks")]
    fn split_with_zero_k_panics() {
        let _ = split(&[1, 2, 3], 0);
    }
}

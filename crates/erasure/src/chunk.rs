//! Chunk types shared by the coding, cluster and simulation layers.

use bytes::Bytes;
use std::fmt;

/// Where a chunk lives / was served from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum ChunkSource {
    /// The chunk is one of the `n` chunks stored on storage nodes.
    Storage,
    /// The chunk is a functional (or exact) chunk held in a compute-server cache.
    Cache,
}

impl fmt::Display for ChunkSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkSource::Storage => write!(f, "storage"),
            ChunkSource::Cache => write!(f, "cache"),
        }
    }
}

/// Identifier of a coded chunk within a file's extended `(n + k, k)` code.
///
/// Indices `0..n` are storage chunks; indices `n..n+k` are reserved for
/// functional cache chunks. The index selects the generator row that produced
/// the chunk, which is all the decoder needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkId {
    /// Row of the extended generator matrix that produced this chunk.
    pub index: usize,
    /// Whether the chunk is a storage chunk or a cache chunk.
    pub(crate) source: ChunkSource,
}

impl ChunkId {
    /// Creates a storage-chunk identifier.
    pub fn storage(index: usize) -> Self {
        ChunkId {
            index,
            source: ChunkSource::Storage,
        }
    }

    /// Creates a cache-chunk identifier.
    pub fn cache(index: usize) -> Self {
        ChunkId {
            index,
            source: ChunkSource::Cache,
        }
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.source, self.index)
    }
}

/// A coded chunk: generator-row index plus payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Identity of the chunk (generator row and source).
    pub id: ChunkId,
    /// Chunk payload.
    pub data: Bytes,
}

impl Chunk {
    /// Creates a new chunk.
    pub fn new(id: ChunkId, data: impl Into<Bytes>) -> Self {
        Chunk {
            id,
            data: data.into(),
        }
    }

    /// Chunk payload length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_id_constructors() {
        let s = ChunkId::storage(3);
        assert_eq!(s.index, 3);
        assert_eq!(s.source, ChunkSource::Storage);
        let c = ChunkId::cache(9);
        assert_eq!(c.source, ChunkSource::Cache);
        assert_eq!(format!("{s}"), "storage#3");
        assert_eq!(format!("{c}"), "cache#9");
    }

    #[test]
    fn chunk_len_and_empty() {
        let c = Chunk::new(ChunkId::storage(0), vec![1u8, 2, 3]);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        let e = Chunk::new(ChunkId::cache(1), Vec::<u8>::new());
        assert!(e.is_empty());
    }

    #[test]
    fn chunk_source_ordering_and_display() {
        assert!(ChunkSource::Storage < ChunkSource::Cache);
        assert_eq!(ChunkSource::Storage.to_string(), "storage");
        assert_eq!(ChunkSource::Cache.to_string(), "cache");
    }
}

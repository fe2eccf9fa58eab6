//! Error type for the cluster substrate.

use std::fmt;

use sprout_erasure::CodingError;

/// Errors returned by the erasure-coded object store.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// The cluster configuration is invalid.
    InvalidConfig(String),
    /// The requested object does not exist.
    UnknownObject(u64),
    /// Not enough live nodes hold chunks of the object to reconstruct it.
    NotEnoughReplicas {
        /// The object being read.
        object: u64,
        /// Chunks available (storage + cache).
        available: usize,
        /// Chunks required (`k`).
        required: usize,
    },
    /// The bytes a read reconstructed do not hash to the checksum recorded
    /// with the object's metadata: the read raced an overwrite of the same
    /// object (chunks of two versions) or a stored chunk is corrupt. The
    /// bytes are withheld; a retry reads the settled version.
    ChecksumMismatch {
        /// The object being read.
        object: u64,
    },
    /// An error bubbled up from the erasure-coding layer.
    Coding(CodingError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::InvalidConfig(msg) => write!(f, "invalid cluster configuration: {msg}"),
            ClusterError::UnknownObject(id) => write!(f, "object {id} does not exist"),
            ClusterError::NotEnoughReplicas {
                object,
                available,
                required,
            } => write!(
                f,
                "object {object}: only {available} chunks available but {required} required"
            ),
            ClusterError::ChecksumMismatch { object } => write!(
                f,
                "object {object}: reconstructed bytes do not match the recorded checksum"
            ),
            ClusterError::Coding(e) => write!(f, "coding error: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Coding(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodingError> for ClusterError {
    fn from(e: CodingError) -> Self {
        ClusterError::Coding(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = ClusterError::UnknownObject(9);
        assert!(e.to_string().contains("object 9"));
        assert!(e.source().is_none());
        let c: ClusterError = CodingError::NotEnoughChunks { have: 1, need: 4 }.into();
        assert!(c.to_string().contains("coding error"));
        assert!(c.source().is_some());
        assert!(ClusterError::InvalidConfig("bad".into())
            .to_string()
            .contains("bad"));
        assert!(ClusterError::NotEnoughReplicas {
            object: 1,
            available: 2,
            required: 4
        }
        .to_string()
        .contains("2 chunks"));
        assert!(ClusterError::ChecksumMismatch { object: 5 }
            .to_string()
            .contains("object 5"));
    }
}

//! Reed–Solomon MDS erasure codes and *functional cache* chunk construction.
//!
//! This crate implements the coding layer of the Sprout system:
//!
//! * [`CodeParams`] — validated `(n, k)` code parameters.
//! * [`ReedSolomon`] — the one codec: a systematic `(n, k)` MDS code built
//!   from an `(n + k, k)` generator, so that up to `k` additional
//!   *functional cache* chunks ([`ReedSolomon::cache_chunks`]) can be
//!   produced without changing the chunks already stored on the storage
//!   nodes (exactly the construction described in §III of the paper), and
//!   a file decodes from any `k` chunks drawn from storage *and* cache.
//!   Striping large objects over threads is one codec setting,
//!   [`ReedSolomon::with_striping`] ([`StripeOpts`]).
//!   [`FunctionalCacheCodec`] is an alias of it.
//! * [`stripe`] — splitting a file (byte buffer) into `k` equal-size data
//!   chunks with padding, and re-assembling it.
//!
//! # Example: the paper's (6, 5) illustration
//!
//! ```
//! use sprout_erasure::{CodeParams, ReedSolomon};
//!
//! // A file using a (6, 5) MDS code, with a cache that holds d = 2 chunks.
//! let params = CodeParams::new(6, 5).unwrap();
//! let codec = ReedSolomon::new(params).unwrap();
//! let file = b"hello functional caching world!".to_vec();
//!
//! let encoded = codec.encode(&file).unwrap();
//! let cached = codec.cache_chunks(&file, 2).unwrap();
//!
//! // Any 3 storage chunks + the 2 cache chunks recover the file.
//! let mut available: Vec<_> = cached.into_iter().collect();
//! available.extend(encoded.chunks().iter().take(3).cloned());
//! let recovered = codec.decode(&available, file.len()).unwrap();
//! assert_eq!(recovered, file);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunk;
pub mod code;
pub mod error;
pub mod functional;
pub mod stripe;
pub mod striped;

pub use chunk::{Chunk, ChunkId};
pub use code::{CodeParams, EncodedFile, ReedSolomon};
pub use error::CodingError;
pub use functional::FunctionalCacheCodec;
pub use striped::StripeOpts;
// Re-exported so coding callers can pick a slice kernel without a direct
// `sprout-gf` dependency.
pub use sprout_gf::Kernel;

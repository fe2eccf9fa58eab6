//! An in-memory erasure-coded object store — the substrate that stands in
//! for the paper's Ceph testbed.
//!
//! The paper prototypes functional caching on a 12-OSD Ceph cluster with an
//! SSD cache tier. We cannot ship that testbed, so this crate rebuilds the
//! pieces of it that the evaluation actually exercises:
//!
//! * [`device`] — per-device chunk service-time models (HDD-backed OSDs and
//!   the SSD cache) calibrated to the measurements in Tables IV and V of the
//!   paper, with arbitrary chunk sizes handled by interpolation.
//! * [`placement`] — the [`Placement`] strategy seam: a zoo of deterministic
//!   chunk-placement policies (the legacy CRUSH-like placement-group map,
//!   consistent hashing, two-choices, XOR proximity, zone anti-affinity)
//!   plus the rebalance hook that prices membership changes.
//! * [`fifo`] — [`FifoQueue`], one FIFO server in virtual time (Lindley's
//!   recursion): the node model the store and the simulation engine share.
//! * [`node`] — storage nodes that hold real chunk bytes and serve reads
//!   through a [`FifoQueue`].
//! * [`tier`] — [`LruTier`] (promotion, eviction, hit lookup, capacity
//!   accounting, replication): the source of truth for LRU decisions shared
//!   with the simulation engine.
//! * [`cache`] — [`CachePolicy`], the one cache-policy type from run spec to
//!   store, and the cache tier itself: functional (coded chunks), exact
//!   (copies of stored chunks), LRU replicated (Ceph's cache-tier baseline),
//!   or none.
//! * [`handle`] — the erasure-coded object store itself, [`StoreHandle`]
//!   (`Send + Sync`, clones share one cluster): `put` splits, encodes and
//!   places chunks; `get` schedules chunk reads (respecting the cache),
//!   decodes, verifies and reports the request latency.
//! * [`store`] — the store's [`ClusterConfig`] (plus builder) and the
//!   [`ReadOutcome`] a `get` returns.
//!
//! Everything operates on real bytes with real Reed–Solomon coding, so data
//! integrity through the cache/storage paths is tested end to end; latency
//! is tracked in virtual time so experiments are deterministic and fast.
//!
//! Chunk payloads are reference-counted `bytes::Bytes` buffers: a chunk is
//! encoded once and then *shared* — node storage, the cache tier and
//! in-flight reads all clone the same `Chunk` in O(1) without copying
//! payload bytes, so `store_chunk`/read paths never deep-copy data.
//!
//! # Example
//!
//! ```
//! use sprout_cluster::{CachePolicy, ClusterConfig, StoreHandle};
//!
//! let config = ClusterConfig::builder()
//!     .nodes(6)
//!     .code(5, 4)
//!     .cache_policy(CachePolicy::Functional)
//!     .cache_capacity_bytes(64 * 1024)
//!     .seed(7)
//!     .build();
//! let store = StoreHandle::new(config)?;
//! let data = vec![42u8; 10_000];
//! store.put(1, &data)?;
//! store.set_cached_chunks(1, 2)?;
//! let read = store.get(1, 0.0)?;
//! assert_eq!(read.data, data);
//! assert!(read.cache_chunks_used == 2);
//! # Ok::<(), sprout_cluster::ClusterError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod checksum;
pub mod device;
pub mod error;
pub mod fifo;
pub mod handle;
pub mod node;
pub mod placement;
pub mod store;
pub mod tier;

pub use cache::{CachePolicy, LRU_REPLICATION};
pub use checksum::checksum64;
pub use device::DeviceModel;
pub use error::ClusterError;
pub use fifo::FifoQueue;
pub use handle::StoreHandle;
pub use placement::{
    ClusterView, ObjectDesc, Placement, PlacementChoice, PlacementMap, RebalanceReport,
};
pub use store::{ClusterConfig, ClusterConfigBuilder, ReadOutcome};
pub use tier::{Admission, LruTier, TierStats};
// Re-exported so store configurers can pick a coding kernel / striping
// without a direct `sprout-erasure` dependency.
pub use sprout_erasure::{Kernel, StripeOpts};

//! The erasure-coded object store: [`StoreHandle`], a cheaply clonable
//! `Send + Sync` handle over lock-sharded shared state.
//!
//! One store serves both the worker pool and the single-owner simulation
//! backend, so the interior is sharded and independent requests never
//! contend on a single big lock:
//!
//! * **Per-node locks** — each [`StorageNode`] (chunk map + FIFO queue
//!   clock) sits behind its own `RwLock`. Two gets that read disjoint nodes
//!   take disjoint locks; candidate probing takes brief read locks and only
//!   the actual chunk read (which advances the queue) takes a write lock.
//! * **Striped object metadata** — the object → (length, placement,
//!   checksum) map is split into [`META_STRIPES`] hash stripes, each behind
//!   its own `RwLock`, so puts of different objects rarely serialize. A
//!   reader takes one snapshot of the three under the stripe's read lock
//!   (two word copies and an `Arc` bump — nothing is allocated).
//! * **Cache tier** — the [`Cache`] (LRU recency + payload chunks) sits
//!   behind one `Mutex`; every lookup mutates recency and counters, so a
//!   shared lock buys nothing. Critical sections are kept to map/recency
//!   updates — decode never happens under it.
//! * **Codec** — the [`FunctionalCacheCodec`] is immutable and internally
//!   shares its decode-matrix memo behind an `Arc<Mutex<_>>`, so all
//!   workers reuse each O(k³) inversion.
//! * **Membership view** — a small `RwLock<ClusterView>` snapshot used for
//!   placement decisions.
//!
//! Lock discipline: at most one node lock is held at a time, metadata
//! stripe locks are only held around metadata mutation plus the node-map
//! updates that must stay atomic with it (put/delete), and the cache lock
//! is never taken while a node lock is held. No lock is held across an
//! encode, a decode or a checksum. That ordering (stripe → node → cache)
//! is acyclic, so the structure cannot deadlock.
//!
//! Integrity: the object's [`checksum64`] lives *with* its length and
//! placement. `put` computes it beside the encode, outside every lock, and
//! publishes all three together under the object's stripe lock; `get`
//! checks the bytes it decoded against the snapshot it started from. A get
//! does not hold the stripe lock while it reads nodes, so a racing
//! overwrite can hand it chunks of two versions (or the new version's
//! chunks under the old snapshot): the checksum turns that into
//! [`ClusterError::ChecksumMismatch`] — a typed error the caller may retry
//! — instead of wrong bytes. Making the race itself invisible
//! (generation-tagged chunks) is a separate ROADMAP item.
//!
//! Every method takes `&self`; [`StoreHandle::get`] derives a per-request
//! RNG from an atomic ticket, so service-time samples are deterministic per
//! ticket and readers never share RNG state.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sprout_erasure::{Chunk, CodeParams, FunctionalCacheCodec, Kernel};

use crate::cache::{Cache, CachePolicy, CacheStats};
use crate::checksum::checksum64;
use crate::error::ClusterError;
use crate::node::StorageNode;
use crate::placement::{ClusterView, Placement};
use crate::store::{ClusterConfig, ReadOutcome};

/// Number of hash stripes the object-metadata map is split into. A small
/// power of two: object ids are mixed before striping, so any id
/// distribution spreads evenly.
pub const META_STRIPES: usize = 16;

/// Salt folded into the per-request RNG derivation of [`StoreHandle::get`].
const REQUEST_RNG_SALT: u64 = 0x5EED_0DD5_EED0_0DD5;

/// Metadata kept per stored object, published as one unit under the
/// object's stripe lock. Cloning is allocation-free.
#[derive(Debug, Clone)]
struct ObjectMeta {
    len: usize,
    placement: Arc<[usize]>,
    /// [`checksum64`] of the object's bytes.
    checksum: u64,
}

fn stripe_of(object: u64) -> usize {
    // Fibonacci-hash the id so sequential object ids spread over stripes.
    (object.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % META_STRIPES
}

/// Splits decoded object bytes into the `k` data chunks a cache-tier
/// promotion installs (generator rows `0..k` of the systematic code).
fn data_chunks_of(data: &[u8], k: usize) -> Vec<Chunk> {
    let (data_chunks, _) = sprout_erasure::stripe::split(data, k);
    data_chunks
        .into_iter()
        .enumerate()
        .map(|(i, payload)| Chunk::new(sprout_erasure::ChunkId::cache(i), payload))
        .collect()
}

/// The shared interior. Private: all access goes through [`StoreHandle`].
#[derive(Debug)]
struct StoreShared {
    config: ClusterConfig,
    codec: FunctionalCacheCodec,
    placement: Box<dyn Placement>,
    nodes: Vec<RwLock<StorageNode>>,
    meta: Vec<RwLock<HashMap<u64, ObjectMeta>>>,
    view: RwLock<ClusterView>,
    cache: Mutex<Cache>,
    /// Ticket counter deriving one RNG stream per concurrent request.
    ticket: AtomicU64,
}

/// A cheaply clonable, `Send + Sync` handle to a lock-sharded
/// erasure-coded store.
///
/// Cloning bumps one `Arc`; all clones observe the same cluster.
#[derive(Debug, Clone)]
pub struct StoreHandle {
    shared: Arc<StoreShared>,
}

impl StoreHandle {
    /// Creates an empty cluster.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] for inconsistent parameters
    /// (no nodes, `n > num_nodes`, device-list length mismatch) and
    /// propagates invalid `(n, k)` pairs as [`ClusterError::Coding`].
    pub fn new(config: ClusterConfig) -> Result<Self, ClusterError> {
        if config.num_nodes == 0 {
            return Err(ClusterError::InvalidConfig("no storage nodes".into()));
        }
        if config.n > config.num_nodes {
            return Err(ClusterError::InvalidConfig(format!(
                "n = {} exceeds the number of nodes {}",
                config.n, config.num_nodes
            )));
        }
        if config.devices.len() != config.num_nodes {
            return Err(ClusterError::InvalidConfig(format!(
                "expected {} device models, got {}",
                config.num_nodes,
                config.devices.len()
            )));
        }
        let params = CodeParams::new(config.n, config.k)?;
        // The codec rides the best kernel the CPU supports (unless pinned)
        // and stripes large objects across threads; both choices affect
        // throughput only — coded bytes are kernel- and stripe-invariant.
        let codec = FunctionalCacheCodec::with_kernel(
            params,
            config.coding_kernel.unwrap_or_else(Kernel::auto),
        )?
        .with_striping(config.striping);
        let nodes = config
            .devices
            .iter()
            .enumerate()
            .map(|(id, &device)| RwLock::new(StorageNode::new(id, device)))
            .collect();
        let placement = config.placement.build(config.num_nodes, config.seed);
        let view = RwLock::new(ClusterView::all_online(config.num_nodes));
        let cache = Mutex::new(Cache::new(config.cache_policy, config.cache_capacity_bytes));
        let meta = (0..META_STRIPES)
            .map(|_| RwLock::new(HashMap::new()))
            .collect();
        Ok(StoreHandle {
            shared: Arc::new(StoreShared {
                config,
                codec,
                placement,
                nodes,
                meta,
                view,
                cache,
                ticket: AtomicU64::new(0),
            }),
        })
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.shared.config
    }

    /// The erasure-code parameters.
    pub fn code_params(&self) -> CodeParams {
        self.shared.codec.params()
    }

    /// The GF(2^8) slice kernel the store's codec resolved to (the config's
    /// pin, or [`Kernel::auto`]'s pick for this CPU).
    pub fn coding_kernel(&self) -> Kernel {
        self.shared.codec.kernel()
    }

    /// Number of stored objects.
    pub fn num_objects(&self) -> usize {
        self.shared
            .meta
            .iter()
            .map(|s| s.read().expect("meta stripe lock poisoned").len())
            .sum()
    }

    /// Read access to a storage node (a lock guard; hold it briefly).
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    pub fn node(&self, id: usize) -> RwLockReadGuard<'_, StorageNode> {
        self.shared.nodes[id].read().expect("node lock poisoned")
    }

    /// Access to the cache tier (a lock guard; hold it briefly).
    pub fn cache(&self) -> MutexGuard<'_, Cache> {
        self.shared.cache.lock().expect("cache lock poisoned")
    }

    /// Cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache().stats()
    }

    /// The nodes hosting an object's chunks (chunk row `i` on entry `i`).
    pub fn object_placement(&self, object: u64) -> Option<Vec<usize>> {
        self.meta_of(object).map(|m| m.placement.to_vec())
    }

    /// The stored length of an object in bytes.
    pub fn object_len(&self, object: u64) -> Option<usize> {
        self.meta_of(object).map(|m| m.len)
    }

    fn meta_of(&self, object: u64) -> Option<ObjectMeta> {
        self.shared.meta[stripe_of(object)]
            .read()
            .expect("meta stripe lock poisoned")
            .get(&object)
            .cloned()
    }

    /// The chunk of `object` hosted on `node` (the row the placement assigns
    /// to that node), if the node holds it. Management path: no queueing or
    /// latency accounting — external schedulers (the simulation engine's
    /// byte-accurate backend) fetch bytes this way after deciding the timing
    /// themselves. The returned chunk shares the stored payload (`Bytes` is
    /// refcounted), so this is O(1) and copies nothing.
    pub fn chunk_on_node(&self, object: u64, node: usize) -> Option<Chunk> {
        let meta = self.meta_of(object)?;
        let row = meta.placement.iter().position(|&n| n == node)?;
        self.shared.nodes[node]
            .read()
            .expect("node lock poisoned")
            .chunk(object, row)
            .cloned()
    }

    /// Decodes an object from caller-gathered chunks (any `k` distinct rows
    /// of the extended code), trimming to the object's stored length.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownObject`] for unknown objects and
    /// propagates coding errors (too few chunks, duplicate rows).
    pub fn decode_with_chunks(
        &self,
        object: u64,
        chunks: &[Chunk],
    ) -> Result<Vec<u8>, ClusterError> {
        let meta = self
            .meta_of(object)
            .ok_or(ClusterError::UnknownObject(object))?;
        Ok(self.shared.codec.decode(chunks, meta.len)?)
    }

    /// Writes an object, placing its `n` coded chunks via the placement map.
    ///
    /// # Errors
    ///
    /// Propagates coding errors.
    pub fn put(&self, object: u64, data: &[u8]) -> Result<(), ClusterError> {
        let view = self.shared.view.read().expect("view lock poisoned").clone();
        let placement = self
            .shared
            .placement
            .place(object, self.shared.config.n, &view);
        self.put_with_placement(object, data, placement)
    }

    /// Writes an object onto an explicit list of `n` distinct nodes (used by
    /// experiments that control placement, e.g. Fig. 6 of the paper).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InvalidConfig`] if the placement list is not
    /// `n` distinct, valid node ids; propagates coding errors.
    pub fn put_with_placement(
        &self,
        object: u64,
        data: &[u8],
        placement: Vec<usize>,
    ) -> Result<(), ClusterError> {
        let s = &*self.shared;
        if placement.len() != s.config.n {
            return Err(ClusterError::InvalidConfig(format!(
                "placement lists {} nodes but the code stores n = {} chunks",
                placement.len(),
                s.config.n
            )));
        }
        let mut seen = HashSet::new();
        for &node in &placement {
            if node >= s.config.num_nodes || !seen.insert(node) {
                return Err(ClusterError::InvalidConfig(format!(
                    "invalid or duplicate node {node} in placement"
                )));
            }
        }
        // Encode and checksum outside every lock: they are the expensive
        // part, and chunks are *moved* onto their nodes — payloads are
        // `Bytes` (`Arc`-backed since PR 2), so no byte is copied below.
        let encoded = s.codec.encode(data)?;
        let checksum = checksum64(data);
        // The object's stripe lock makes replace-or-insert atomic: a
        // concurrent put of the same object serializes here, so node chunk
        // maps and metadata (checksum included) can never disagree about
        // the live version once the lock is released.
        let mut stripe = self.shared.meta[stripe_of(object)]
            .write()
            .expect("meta stripe lock poisoned");
        if let Some(old) = stripe.remove(&object) {
            for &node in old.placement.iter() {
                s.nodes[node]
                    .write()
                    .expect("node lock poisoned")
                    .remove_object(object);
            }
        }
        for (chunk, &node) in encoded.into_chunks().into_iter().zip(&placement) {
            s.nodes[node]
                .write()
                .expect("node lock poisoned")
                .store_chunk(object, chunk);
        }
        stripe.insert(
            object,
            ObjectMeta {
                len: data.len(),
                placement: placement.into(),
                checksum,
            },
        );
        drop(stripe);
        self.cache().remove(object);
        Ok(())
    }

    /// Deletes an object from the storage nodes and the cache.
    pub fn delete(&self, object: u64) {
        let mut stripe = self.shared.meta[stripe_of(object)]
            .write()
            .expect("meta stripe lock poisoned");
        if let Some(meta) = stripe.remove(&object) {
            for &node in meta.placement.iter() {
                self.shared.nodes[node]
                    .write()
                    .expect("node lock poisoned")
                    .remove_object(object);
            }
        }
        drop(stripe);
        self.cache().remove(object);
    }

    /// Marks a storage node failed (offline) or recovered.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    pub fn set_node_online(&self, node: usize, online: bool) {
        self.shared.nodes[node]
            .write()
            .expect("node lock poisoned")
            .set_online(online);
        let mut view = self.shared.view.write().expect("view lock poisoned");
        *view = view.with_node_online(node, online);
    }

    /// The placement strategy writes route through.
    pub fn placement_strategy(&self) -> &dyn Placement {
        self.shared.placement.as_ref()
    }

    /// Gathers every storage chunk of `object` currently present on online
    /// *and* offline nodes (management path; clones are refcount bumps).
    fn gather_available(&self, meta: &ObjectMeta, object: u64) -> Vec<Chunk> {
        let mut available = Vec::new();
        for &node in meta.placement.iter() {
            let guard = self.shared.nodes[node].read().expect("node lock poisoned");
            for index in guard.chunk_indices(object) {
                if let Some(chunk) = guard.chunk(object, index) {
                    available.push(chunk.clone());
                }
            }
        }
        available
    }

    /// Installs `d` planner-chosen chunks of an object into the cache
    /// (functional or exact caching). `d = 0` removes the object's cache
    /// entry. Chunk contents are rebuilt from the chunks currently on the
    /// storage nodes, mirroring the paper's lazy population on first access.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::InvalidConfig`] if the cache policy is not
    ///   planner-managed or the chunks do not fit the cache.
    /// * [`ClusterError::UnknownObject`] if the object does not exist.
    /// * Propagated coding errors (e.g. `d > k`).
    pub fn set_cached_chunks(&self, object: u64, d: usize) -> Result<(), ClusterError> {
        let s = &*self.shared;
        if !s.config.cache_policy.is_planned() {
            return Err(ClusterError::InvalidConfig(
                "set_cached_chunks requires the functional or exact cache policy".into(),
            ));
        }
        let meta = self
            .meta_of(object)
            .ok_or(ClusterError::UnknownObject(object))?;
        if d == 0 {
            self.cache().remove(object);
            return Ok(());
        }
        let available = self.gather_available(&meta, object);
        let chunks = match s.config.cache_policy {
            CachePolicy::Functional => s.codec.cache_chunks_from_chunks(&available, d)?,
            CachePolicy::Exact => {
                // Copy the first d storage chunks verbatim.
                let mut copies: Vec<Chunk> = available
                    .into_iter()
                    .filter(|c| c.id.index < d.min(s.config.n))
                    .collect();
                copies.sort_by_key(|c| c.id.index);
                copies.truncate(d);
                if copies.len() < d {
                    return Err(ClusterError::NotEnoughReplicas {
                        object,
                        available: copies.len(),
                        required: d,
                    });
                }
                copies
            }
            _ => unreachable!("checked is_planned above"),
        };
        if self.cache().install_planned(object, chunks) {
            Ok(())
        } else {
            Err(ClusterError::InvalidConfig(format!(
                "cache capacity exceeded while installing {d} chunks of object {object}"
            )))
        }
    }

    /// Reads an object at virtual time `now`, honouring the cache policy, and
    /// returns the reconstructed bytes together with the request latency.
    ///
    /// Each call draws a ticket from an atomic counter and seeds an
    /// independent `StdRng` from it, so parallel readers never share (or
    /// lock) RNG state. Latency samples are therefore deterministic per
    /// *ticket*, not per wall-clock interleaving.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::UnknownObject`] if the object was never written.
    /// * [`ClusterError::NotEnoughReplicas`] if node failures (or a racing
    ///   delete) leave fewer than `k` chunks reachable.
    /// * [`ClusterError::ChecksumMismatch`] if the reconstructed bytes do not
    ///   hash to the checksum published with the metadata this read started
    ///   from (a racing overwrite of the same object) — never wrong bytes.
    /// * Propagated coding errors on reconstruction.
    pub fn get(&self, object: u64, now: f64) -> Result<ReadOutcome, ClusterError> {
        let ticket = self.shared.ticket.fetch_add(1, Ordering::Relaxed);
        let rng = &mut StdRng::seed_from_u64(
            self.shared.config.seed ^ REQUEST_RNG_SALT ^ ticket.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let s = &*self.shared;
        let meta = self
            .meta_of(object)
            .ok_or(ClusterError::UnknownObject(object))?;
        let k = s.config.k;

        // 1. Chunks available from the cache (one short lock: recency +
        // counters update and refcounted payload clones).
        let cached: Vec<Chunk> = match s.config.cache_policy {
            CachePolicy::None => Vec::new(),
            _ => self.cache().lookup(object),
        };
        let lru = s.config.cache_policy == CachePolicy::LruReplicated;

        // Cache-resident LRU objects (or fully functional-cached objects) are
        // served without touching storage.
        if cached.len() >= k {
            let cache_latency = self.cache_read_latency(&cached[..k], rng);
            let data = self.decode_verified(object, &cached, &meta)?;
            return Ok(ReadOutcome {
                data,
                latency: cache_latency,
                storage_chunks_used: 0,
                cache_chunks_used: k,
                nodes_used: Vec::new(),
            });
        }

        let needed_from_storage = k - cached.len();

        // 2. Candidate storage chunks: for exact caching the cached rows are
        // copies of storage rows, so their hosts cannot contribute new rows
        // (a scan of fewer than k cached rows). Probing takes one brief
        // *read* lock per placed node.
        let exact = s.config.cache_policy == CachePolicy::Exact;
        // (queue delay, node, row)
        let mut candidates: Vec<(f64, usize, usize)> = Vec::with_capacity(meta.placement.len());
        for (row, &node) in meta.placement.iter().enumerate() {
            if exact && cached.iter().any(|c| c.id.index == row) {
                continue;
            }
            let guard = s.nodes[node].read().expect("node lock poisoned");
            if !guard.is_online() || !guard.has_chunk(object, row) {
                continue;
            }
            candidates.push((guard.queue_delay(now), node, row));
        }
        if candidates.len() < needed_from_storage {
            return Err(ClusterError::NotEnoughReplicas {
                object,
                available: candidates.len() + cached.len(),
                required: k,
            });
        }
        // Least-busy-first selection (the "optimal request scheduling" the
        // functional-caching example in §III argues for).
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
        candidates.truncate(needed_from_storage);

        // 3. Issue the storage reads and take the fork-join maximum. One
        // write lock per selected node, taken one at a time; a chunk that a
        // racing delete/failure snatched between probe and read degrades to
        // a clean NotEnoughReplicas instead of a panic.
        let mut storage_chunks = Vec::with_capacity(needed_from_storage);
        let mut nodes_used = Vec::with_capacity(needed_from_storage);
        let mut finish = now;
        for &(_, node, row) in &candidates {
            let served = s.nodes[node]
                .write()
                .expect("node lock poisoned")
                .read(object, row, now, rng);
            match served {
                Some((chunk, done)) => {
                    finish = finish.max(done);
                    storage_chunks.push(chunk);
                    nodes_used.push(node);
                }
                None => {
                    return Err(ClusterError::NotEnoughReplicas {
                        object,
                        available: cached.len() + storage_chunks.len(),
                        required: k,
                    });
                }
            }
        }
        let storage_latency = finish - now;
        let cache_latency = self.cache_read_latency(&cached, rng);
        let latency = storage_latency.max(cache_latency);

        // 4. Reconstruct and verify — no lock held.
        let cache_chunks_used = cached.len();
        let mut all = cached;
        all.extend(storage_chunks);
        let data = self.decode_verified(object, &all, &meta)?;

        // 5. LRU promotion on a miss: the whole object enters the cache tier.
        if lru {
            let chunks = data_chunks_of(&data, k);
            self.cache().promote_lru(object, chunks);
        }

        Ok(ReadOutcome {
            data,
            latency,
            storage_chunks_used: needed_from_storage,
            cache_chunks_used,
            nodes_used,
        })
    }

    /// Promotes a whole object into the cache tier *unconditionally* — the
    /// mirror of an admission decided by an external
    /// [`LruTier`](crate::LruTier) (the simulation engine's; see
    /// [`crate::tier`]). The object's `k` data chunks are rebuilt from
    /// whatever storage chunks are present (management path: no queueing or
    /// latency accounting) and installed without consulting this cache's own
    /// admission policy.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownObject`] for unknown objects and
    /// propagates decode errors when too few chunks survive.
    pub fn promote_object(&self, object: u64) -> Result<(), ClusterError> {
        let meta = self
            .meta_of(object)
            .ok_or(ClusterError::UnknownObject(object))?;
        let available = self.gather_available(&meta, object);
        let data = self.shared.codec.decode(&available, meta.len)?;
        let chunks = data_chunks_of(&data, self.shared.config.k);
        self.cache().mirror_promote(object, chunks);
        Ok(())
    }

    /// Evicts an object from the cache tier — the mirror of an eviction
    /// decided by an external [`LruTier`](crate::LruTier). Returns
    /// whether it was resident.
    pub fn evict_cached(&self, object: u64) -> bool {
        self.cache().mirror_evict(object)
    }

    /// Drops every cache entry (e.g. when a scenario swaps the cache scheme
    /// mid-run and the tier restarts cold).
    pub fn reset_cache(&self) {
        self.cache().clear();
    }

    /// Decodes `chunks` to the snapshot's length and checks the bytes
    /// against the snapshot's checksum.
    fn decode_verified(
        &self,
        object: u64,
        chunks: &[Chunk],
        meta: &ObjectMeta,
    ) -> Result<Vec<u8>, ClusterError> {
        let data = self.shared.codec.decode(chunks, meta.len)?;
        if checksum64(&data) != meta.checksum {
            return Err(ClusterError::ChecksumMismatch { object });
        }
        Ok(data)
    }

    /// Fork-join maximum of per-chunk cache-device reads.
    fn cache_read_latency(&self, chunks: &[Chunk], rng: &mut StdRng) -> f64 {
        chunks
            .iter()
            .map(|c| {
                self.shared
                    .config
                    .cache_device
                    .service_distribution(c.len() as u64)
                    .sample(rng)
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceModel;

    fn handle(policy: CachePolicy) -> StoreHandle {
        let config = ClusterConfig::builder()
            .nodes(8)
            .code(7, 4)
            .uniform_device(DeviceModel::exponential(0.010))
            .cache_policy(policy)
            .cache_capacity_bytes(1_000_000)
            .seed(11)
            .build();
        StoreHandle::new(config).unwrap()
    }

    #[test]
    fn handle_is_send_sync_and_clonable() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<StoreHandle>();
    }

    #[test]
    fn clones_observe_the_same_store() {
        let a = handle(CachePolicy::None);
        let b = a.clone();
        a.put(1, &[7u8; 4096]).unwrap();
        assert_eq!(b.num_objects(), 1);
        assert_eq!(b.get(1, 0.0).unwrap().data, vec![7u8; 4096]);
        b.delete(1);
        assert_eq!(a.num_objects(), 0);
    }

    #[test]
    fn stripes_spread_object_ids() {
        let hit: HashSet<usize> = (0u64..256).map(stripe_of).collect();
        assert!(hit.len() > META_STRIPES / 2, "ids should span most stripes");
        assert!(hit.iter().all(|&s| s < META_STRIPES));
    }

    #[test]
    fn concurrent_gets_from_many_threads_all_verify() {
        let h = handle(CachePolicy::Functional);
        let payload: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        for object in 0..6u64 {
            h.put(object, &payload).unwrap();
            h.set_cached_chunks(object, (object % 3) as usize).unwrap();
        }
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = h.clone();
                let payload = payload.clone();
                scope.spawn(move || {
                    for i in 0..50u64 {
                        let object = (t + i) % 6;
                        let out = h.get(object, i as f64).unwrap();
                        assert_eq!(out.data, payload, "decode must verify under concurrency");
                    }
                });
            }
        });
    }

    #[test]
    fn racing_delete_degrades_to_a_clean_error() {
        let h = handle(CachePolicy::None);
        h.put(3, &[9u8; 8192]).unwrap();
        let reader = h.clone();
        std::thread::scope(|scope| {
            let r = scope.spawn(move || {
                let mut ok = 0u32;
                for i in 0..200 {
                    match reader.get(3, i as f64) {
                        Ok(out) => {
                            assert_eq!(out.data, vec![9u8; 8192]);
                            ok += 1;
                        }
                        Err(
                            ClusterError::UnknownObject(_) | ClusterError::NotEnoughReplicas { .. },
                        ) => {}
                        Err(other) => panic!("unexpected error under race: {other:?}"),
                    }
                }
                ok
            });
            scope.spawn(|| {
                for _ in 0..20 {
                    h.delete(3);
                    h.put(3, &[9u8; 8192]).unwrap();
                }
            });
            let _ = r.join().unwrap();
        });
    }
}

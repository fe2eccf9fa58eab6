//! The erasure-coded object store: [`StoreHandle`], a cheaply clonable
//! `Send + Sync` handle over lock-sharded shared state.
//!
//! One store serves both the worker pool and the single-owner simulation
//! backend, so the interior is sharded and independent requests never
//! contend on a single big lock:
//!
//! * **Lock-free nodes** — each [`StorageNode`] keeps its online flag,
//!   FIFO queue clock, hosted-chunk count and read count in atomics, and
//!   every method takes `&self`. Candidate probing is plain loads; a chunk
//!   read advances the node's clock by one compare-and-swap, so two reads
//!   racing on one node get distinct finish times in FIFO order.
//! * **Striped object metadata** — the object → (length, placement, chunks,
//!   checksum) map is split into `META_STRIPES` (16) hash stripes, each
//!   behind its own `RwLock`, so puts of different objects rarely serialize.
//!   It is the one chunk index: row `i` of an object's chunks is hosted on
//!   its `i`-th placed node. A reader takes one snapshot of the four under
//!   the stripe's read lock (two word copies and two `Arc` bumps — nothing
//!   is allocated).
//! * **Cache tier** — the [`Cache`] (LRU recency + payload chunks) sits
//!   behind one `Mutex`; every lookup mutates recency and counters, so a
//!   shared lock buys nothing. Critical sections are kept to map/recency
//!   updates — decode never happens under it.
//! * **Codec** — the [`ReedSolomon`] is immutable; each worker thread keeps
//!   its own memo of decode matrices, so a memo hit takes no lock and a
//!   worker inverts each row subset once.
//! * **Membership view** — a small `RwLock<ClusterView>` snapshot used for
//!   placement decisions.
//! * **Spare parity buffers** — a `Mutex` over the parity allocations of
//!   replaced versions that nothing else holds. A put pops one to code its
//!   parity into and pushes back the version it replaced, so a steady
//!   stream of same-size overwrites maps no fresh parity pages.
//!
//! Lock discipline: a get takes the object's stripe read lock (for the
//! snapshot) and, under a cache policy, the cache lock, one after the
//! other; the node probe and the chunk reads take none. Metadata stripe
//! locks are held around metadata mutation plus the hosted-chunk counts of
//! the object's own nodes (put/delete). The spare list's lock is held for
//! one pop or one push. No lock is held across an encode, a decode or a
//! checksum, and no method holds two locks at once, so the structure
//! cannot deadlock.
//!
//! Integrity: the object's [`checksum64`] lives *with* its length,
//! placement and chunks. `put` computes it beside the encode, outside every
//! lock, and publishes all four together under the object's stripe lock;
//! `get` decodes the storage chunks of the snapshot it started from and
//! checks the bytes against that snapshot's checksum. A racing overwrite
//! replaces the snapshot, never the chunks inside it, so a storage-only
//! read returns one whole version. Cached chunks are looked up apart from
//! the snapshot, so under a cache a racing overwrite can still pair them
//! with another version's storage chunks: the checksum turns that into
//! [`ClusterError::ChecksumMismatch`] — a typed error the caller may retry
//! — instead of wrong bytes.
//!
//! Every method takes `&self`; [`StoreHandle::get`] derives a per-request
//! RNG from an atomic ticket, so service-time samples are deterministic per
//! ticket and readers never share RNG state.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sprout_erasure::{Chunk, CodeParams, CodingError, EncodedFile, Kernel, ReedSolomon};

use crate::cache::{Cache, CachePolicy, CacheStats};
use crate::checksum::checksum64;
use crate::error::ClusterError;
use crate::node::StorageNode;
use crate::placement::{ClusterView, Placement};
use crate::store::{ClusterConfig, ReadOutcome};

/// Number of hash stripes the object-metadata map is split into. A small
/// power of two: object ids are mixed before striping, so any id
/// distribution spreads evenly.
pub(crate) const META_STRIPES: usize = 16;

/// Salt folded into the per-request RNG derivation of [`StoreHandle::get`].
const REQUEST_RNG_SALT: u64 = 0x5EED_0DD5_EED0_0DD5;

/// Metadata kept per stored object, published as one unit under the
/// object's stripe lock. Cloning is allocation-free.
#[derive(Debug, Clone)]
struct ObjectMeta {
    len: usize,
    placement: Arc<[usize]>,
    /// The coded chunks: row `i` is hosted on `placement[i]`.
    chunks: Arc<[Chunk]>,
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
    codec: ReedSolomon,
    placement: Box<dyn Placement>,
    nodes: Vec<StorageNode>,
    meta: Vec<RwLock<HashMap<u64, ObjectMeta>>>,
    view: RwLock<ClusterView>,
    cache: Mutex<Cache>,
    /// Parity buffers of replaced versions that no reader holds, for the
    /// next puts to code into ([`StoreHandle::put_vec`]). Every put takes
    /// at most one and gives back at most one, so the list never holds more
    /// buffers than there were puts at once.
    spares: Mutex<Vec<Vec<u8>>>,
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
        // The codec rides the best kernel the CPU supports (unless pinned);
        // that affects throughput only — coded bytes are kernel-invariant.
        let codec =
            ReedSolomon::with_kernel(params, config.coding_kernel.unwrap_or_else(Kernel::auto))?;
        let nodes = config
            .devices
            .iter()
            .map(|&device| StorageNode::new(device))
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
                spares: Mutex::new(Vec::new()),
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

    /// A storage node (its counters are live: reads on other threads move
    /// them).
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    pub fn node(&self, id: usize) -> &StorageNode {
        &self.shared.nodes[id]
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
        Some(meta.chunks[row].clone())
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
    /// Returns [`ClusterError::InvalidConfig`] if the map cannot place `n`
    /// distinct nodes; propagates coding errors.
    pub fn put(&self, object: u64, data: &[u8]) -> Result<(), ClusterError> {
        self.put_with_placement(object, data, self.place(object))
    }

    /// [`StoreHandle::put`] of a payload the caller hands over: the `k`
    /// data chunks stored are views of `data` itself, so nothing is copied.
    ///
    /// The parity rows are coded into a recycled buffer when the store has
    /// one of exactly their size: the parity allocation of a version an
    /// earlier put replaced ([`StoreHandle::put`] and
    /// [`StoreHandle::put_with_placement`] recycle the same way). Otherwise
    /// they get a fresh buffer. Recycling moves no coded byte, RNG draw or
    /// latency; it saves the page faults of mapping a fresh parity buffer.
    ///
    /// # Errors
    ///
    /// As [`StoreHandle::put`].
    pub fn put_vec(&self, object: u64, data: Vec<u8>) -> Result<(), ClusterError> {
        let placement = self.place(object);
        self.check_placement(&placement)?;
        // The checksum is taken before the encode consumes the payload.
        let checksum = checksum64(&data);
        let encoded = self.shared.codec.encode_owned(data, self.take_spare())?;
        self.publish(object, encoded, checksum, placement);
        Ok(())
    }

    /// The nodes the placement map assigns `object`'s `n` chunks to.
    fn place(&self, object: u64) -> Vec<usize> {
        let view = self.shared.view.read().expect("view lock poisoned").clone();
        self.shared
            .placement
            .place(object, self.shared.config.n, &view)
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
        self.check_placement(&placement)?;
        // `encode`'s one padded copy, handed to `encode_owned` with a spare.
        let k = self.shared.config.k;
        let mut owned = Vec::with_capacity(k * sprout_erasure::stripe::chunk_len(data.len(), k));
        owned.extend_from_slice(data);
        let encoded = self.shared.codec.encode_owned(owned, self.take_spare())?;
        let checksum = checksum64(data);
        self.publish(object, encoded, checksum, placement);
        Ok(())
    }

    /// Checks that `placement` lists `n` distinct, valid node ids.
    fn check_placement(&self, placement: &[usize]) -> Result<(), ClusterError> {
        let s = &*self.shared;
        if placement.len() != s.config.n {
            return Err(ClusterError::InvalidConfig(format!(
                "placement lists {} nodes but the code stores n = {} chunks",
                placement.len(),
                s.config.n
            )));
        }
        let mut seen = HashSet::new();
        for &node in placement {
            if node >= s.config.num_nodes || !seen.insert(node) {
                return Err(ClusterError::InvalidConfig(format!(
                    "invalid or duplicate node {node} in placement"
                )));
            }
        }
        Ok(())
    }

    /// Publishes an encoded object's chunks on `placement` together with
    /// its length and checksum. Encode and checksum happen before, outside
    /// every lock: they are the expensive part. Chunks are *moved* into the
    /// metadata — payloads are refcounted `Bytes` views — so no byte is
    /// copied here.
    ///
    /// The replaced version's parity buffer goes to the store's spare list
    /// for the next put, after its cache entry is removed, and only if
    /// nothing else holds it: a reader still holding the old snapshot, or
    /// any chunk of its parity (say from [`StoreHandle::chunk_on_node`]),
    /// keeps those bytes, and that buffer is simply freed when the last
    /// holder drops it.
    fn publish(&self, object: u64, encoded: EncodedFile, checksum: u64, placement: Vec<usize>) {
        let meta = ObjectMeta {
            len: encoded.original_len(),
            placement: placement.into(),
            chunks: encoded.into_chunks().into(),
            checksum,
        };
        // The object's stripe lock makes replace-or-insert atomic: a
        // concurrent put of the same object serializes here, so the nodes'
        // hosted-chunk counts follow the live version once it is released.
        let mut stripe = self.shared.meta[stripe_of(object)]
            .write()
            .expect("meta stripe lock poisoned");
        for &node in meta.placement.iter() {
            self.node(node).host_chunk();
        }
        // The replaced version is freed after the lock is released.
        let old = stripe.insert(object, meta);
        if let Some(old) = &old {
            self.release_chunks(old);
        }
        drop(stripe);
        self.cache().remove(object);
        if let Some(spare) = old.and_then(|old| self.reclaim_parity(old)) {
            self.spares().push(spare);
        }
    }

    fn spares(&self) -> MutexGuard<'_, Vec<Vec<u8>>> {
        self.shared.spares.lock().expect("spare list lock poisoned")
    }

    /// A recycled parity buffer for a put to code into, if the store has
    /// one ([`ReedSolomon::encode_owned`] drops it unless its size fits).
    /// A function of its own so the list's guard is dropped before the
    /// encode: as a temporary in the encode's argument list it would be
    /// held to the end of that statement.
    fn take_spare(&self) -> Option<Vec<u8>> {
        self.spares().pop()
    }

    /// The parity allocation of a replaced version, if this is its last
    /// holder: the snapshot's chunk list must be unique (no reader holds
    /// the snapshot) and so must the parity buffer once the snapshot's own
    /// views of it are dropped (no one holds a parity chunk).
    fn reclaim_parity(&self, old: ObjectMeta) -> Option<Vec<u8>> {
        let mut chunks = old.chunks;
        let parity = Arc::get_mut(&mut chunks)?.get_mut(self.shared.config.k..)?;
        let (first, rest) = parity.split_first_mut()?;
        for chunk in rest {
            chunk.data = Default::default();
        }
        let buffer = std::mem::take(&mut first.data);
        buffer.is_unique().then(|| buffer.into())
    }

    /// Deletes an object from the storage nodes and the cache.
    pub fn delete(&self, object: u64) {
        let mut stripe = self.shared.meta[stripe_of(object)]
            .write()
            .expect("meta stripe lock poisoned");
        let old = stripe.remove(&object);
        if let Some(old) = &old {
            self.release_chunks(old);
        }
        drop(stripe);
        self.cache().remove(object);
    }

    /// Uncounts a replaced or deleted version's chunks on its nodes.
    fn release_chunks(&self, meta: &ObjectMeta) {
        for &node in meta.placement.iter() {
            self.node(node).release_chunk();
        }
    }

    /// Marks a storage node failed (offline) or recovered.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range.
    pub fn set_node_online(&self, node: usize, online: bool) {
        self.node(node).set_online(online);
        let mut view = self.shared.view.write().expect("view lock poisoned");
        *view = view.with_node_online(node, online);
    }

    /// The placement strategy writes route through.
    pub fn placement_strategy(&self) -> &dyn Placement {
        self.shared.placement.as_ref()
    }

    /// Installs `d` planner-chosen chunks of an object into the cache
    /// (functional or exact caching). `d = 0` removes the object's cache
    /// entry. Chunk contents are rebuilt from the object's storage chunks,
    /// online or not, mirroring the paper's lazy population on first access.
    ///
    /// Exact caching, and functional caching of a whole object (`d = k`),
    /// install the snapshot's first `d` rows themselves: refcounted views of
    /// the stored chunks, so nothing is coded or copied. A file cached whole
    /// is never read beside storage rows, so its `k` data rows serve a hit
    /// as well as `k` newly coded rows would, and decode by a copy. Only a
    /// partial functional entry (`0 < d < k`) codes rows `n..n + d`.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::InvalidConfig`] if the cache policy is not
    ///   planner-managed or the chunks do not fit the cache.
    /// * [`ClusterError::UnknownObject`] if the object does not exist.
    /// * [`ClusterError::Coding`] with
    ///   [`CodingError::TooManyCacheChunks`] if `d > k`, under either policy.
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
        let k = s.config.k;
        let chunks = match s.config.cache_policy {
            CachePolicy::Functional if d != k => {
                s.codec.cache_chunks_from_chunks(&meta.chunks, d)?
            }
            CachePolicy::Functional | CachePolicy::Exact => {
                if d > k {
                    return Err(CodingError::TooManyCacheChunks {
                        requested: d,
                        max: k,
                    }
                    .into());
                }
                meta.chunks[..d].to_vec()
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

    /// Installs a whole cache plan — the one install path of serving and
    /// simulation: object `i` gets `cached_chunks[i]` chunks
    /// ([`StoreHandle::set_cached_chunks`]); objects not stored are skipped.
    ///
    /// # Errors
    ///
    /// Returns the first other error (policy, capacity, `d > k`); the
    /// objects before it keep their new chunks.
    pub fn install_plan(&self, cached_chunks: &[usize]) -> Result<(), ClusterError> {
        for (object, &d) in cached_chunks.iter().enumerate() {
            match self.set_cached_chunks(object as u64, d) {
                Ok(()) | Err(ClusterError::UnknownObject(_)) => {}
                Err(other) => return Err(other),
            }
        }
        Ok(())
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
        self.get_with_buffer(object, now, Vec::new())
    }

    /// [`StoreHandle::get`] that decodes into `buf` and returns it as
    /// [`ReadOutcome::data`], so a caller that reads in a loop (a serving
    /// worker) reuses one allocation: pass the previous outcome's `data`
    /// back in. `buf`'s contents are overwritten, never read; on an error
    /// it is dropped. Same reads, same RNG draws and same errors as `get`.
    ///
    /// # Errors
    ///
    /// See [`StoreHandle::get`].
    pub fn get_with_buffer(
        &self,
        object: u64,
        now: f64,
        buf: Vec<u8>,
    ) -> Result<ReadOutcome, ClusterError> {
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
            let data = self.decode_verified(object, &cached, &meta, buf)?;
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
        // (a scan of fewer than k cached rows). Every placed node hosts its
        // row of the snapshot, so probing asks only for the online flag and
        // the queue delay: two atomic loads per placed node, no lock.
        let exact = s.config.cache_policy == CachePolicy::Exact;
        // (queue delay, node, row)
        let mut candidates: Vec<(f64, usize, usize)> = Vec::with_capacity(meta.placement.len());
        for (row, &node) in meta.placement.iter().enumerate() {
            if exact && cached.iter().any(|c| c.id.index == row) {
                continue;
            }
            let node_state = self.node(node);
            if !node_state.is_online() {
                continue;
            }
            candidates.push((node_state.queue_delay(now), node, row));
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

        // 3. Issue the storage reads and take the fork-join maximum; the
        // snapshot's chunks, borrowed, join the cached ones. Each read is
        // one compare-and-swap of the node's clock; a node that a racing
        // failure took offline between probe and read degrades to a clean
        // NotEnoughReplicas instead of a panic.
        let cache_chunks_used = cached.len();
        let mut chunks: Vec<&Chunk> = Vec::with_capacity(k);
        chunks.extend(&cached);
        let mut nodes_used = Vec::with_capacity(needed_from_storage);
        let mut finish = now;
        for &(_, node, row) in &candidates {
            let chunk = &meta.chunks[row];
            let Some(done) = self.node(node).read(chunk, now, rng) else {
                return Err(ClusterError::NotEnoughReplicas {
                    object,
                    available: chunks.len(),
                    required: k,
                });
            };
            finish = finish.max(done);
            chunks.push(chunk);
            nodes_used.push(node);
        }
        let cache_latency = self.cache_read_latency(&cached, rng);
        let latency = (finish - now).max(cache_latency);

        // 4. Reconstruct and verify — no lock held.
        let data = self.decode_verified(object, chunks, &meta, buf)?;

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

    /// Drops every cache entry (e.g. when a plan swapped in mid-run cannot
    /// be installed, so no object is served from a mix of plans).
    pub fn reset_cache(&self) {
        self.cache().clear();
    }

    /// Decodes `chunks` into `data`, to the snapshot's length, and checks
    /// the bytes against the snapshot's checksum.
    fn decode_verified<'a>(
        &self,
        object: u64,
        chunks: impl IntoIterator<Item = &'a Chunk>,
        meta: &ObjectMeta,
        mut data: Vec<u8>,
    ) -> Result<Vec<u8>, ClusterError> {
        self.shared.codec.decode_into(chunks, meta.len, &mut data)?;
        if checksum64(&data) != meta.checksum {
            return Err(ClusterError::ChecksumMismatch { object });
        }
        Ok(data)
    }

    /// Fork-join maximum of per-chunk cache-device reads. An object's
    /// chunks share one length, so the device's distribution is built once.
    fn cache_read_latency(&self, chunks: &[Chunk], rng: &mut StdRng) -> f64 {
        let Some(first) = chunks.first() else {
            return 0.0;
        };
        let device = self.shared.config.cache_device;
        let dist = device.service_distribution(first.len() as u64);
        chunks.iter().map(|_| dist.sample(rng)).fold(0.0, f64::max)
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

    /// FNV-1a over a sequence of words.
    fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0100_0000_01B3)
        })
    }

    /// 200 gets from a store with two nodes offline and functional-cache
    /// depths 0 to k. The expected values were recorded before chunk
    /// payloads moved from per-node maps into the object metadata: the
    /// candidate order, the least-busy tie-breaking and the RNG draw order
    /// of a get must not move, so latencies match to the bit.
    #[test]
    fn degraded_functional_reads_are_pinned() {
        let h = handle(CachePolicy::Functional);
        let payload = |object: u64| -> Vec<u8> {
            (0..3_000 + 517 * object as usize)
                .map(|i| (i as u64 * 31 + object) as u8)
                .collect()
        };
        for object in 0..24u64 {
            h.put(object, &payload(object)).unwrap();
            h.set_cached_chunks(object, (object % 5) as usize).unwrap();
        }
        h.set_node_online(2, false);
        h.set_node_online(5, false);
        let mut words = Vec::new();
        let (mut storage, mut cache) = (0, 0);
        for i in 0..200u64 {
            let object = i * 7 % 24;
            let out = h.get(object, i as f64 * 0.004).unwrap();
            assert_eq!(out.data, payload(object));
            storage += out.storage_chunks_used;
            cache += out.cache_chunks_used;
            words.push(out.latency.to_bits());
            words.push(out.storage_chunks_used as u64);
            words.push(out.cache_chunks_used as u64);
            words.extend(out.nodes_used.iter().map(|&n| n as u64));
        }
        assert_eq!((storage, cache), (416, 384));
        assert_eq!(fingerprint(words), 0x0D12_1D2C_A438_35EB);
    }

    /// A whole-object hit reads `k` chunks from the cache device and waits
    /// for the slowest. The values were recorded before the device's
    /// distribution was built once per get instead of once per chunk: the
    /// draws and their order must not move, so the latencies match to the
    /// bit.
    #[test]
    fn a_full_cache_hit_latency_is_pinned() {
        let h = handle(CachePolicy::Functional);
        assert_eq!(h.config().cache_device, DeviceModel::ssd());
        let data: Vec<u8> = (0..64 * 1024 + 3).map(|i| (i * 13) as u8).collect();
        h.put(6, &data).unwrap();
        h.set_cached_chunks(6, 4).unwrap();
        let bits: Vec<u64> = (0..3)
            .map(|i| {
                let out = h.get(6, f64::from(i)).unwrap();
                assert_eq!((out.cache_chunks_used, out.storage_chunks_used), (4, 0));
                out.latency.to_bits()
            })
            .collect();
        assert_eq!(
            bits,
            [
                0x3F01_318C_7108_4D9C,
                0x3F01_4D3D_358B_84BE,
                0x3F00_039F_F68C_FB3F
            ]
        );
    }

    #[test]
    fn hosted_chunk_counts_follow_puts_overwrites_and_deletes() {
        let h = handle(CachePolicy::None);
        for object in 0..10u64 {
            h.put(object, &[object as u8; 5_000]).unwrap();
        }
        // Overwrites, half of them onto other nodes.
        for object in (0..10u64).step_by(2) {
            h.put_with_placement(object, &[1; 3_000], (1..8).collect())
                .unwrap();
            h.put(object + 1, &[2; 2_000]).unwrap();
        }
        for object in (0..10u64).step_by(3) {
            h.delete(object);
        }
        h.delete(99);
        assert_eq!(h.num_objects(), 6);
        let hosted: usize = (0..8).map(|i| h.node(i).num_chunks()).sum();
        assert_eq!(hosted, 7 * h.num_objects());
        assert!((0..8).all(|node| h.chunk_on_node(3, node).is_none()));
        let placement = h.object_placement(4).unwrap();
        assert_eq!(&placement[..], &(1..8).collect::<Vec<_>>()[..]);
        assert!(h.chunk_on_node(4, 0).is_none());
        for (row, &node) in placement.iter().enumerate() {
            assert_eq!(h.chunk_on_node(4, node).unwrap().id.index, row);
        }
    }

    #[test]
    fn read_shares_the_stored_payload_without_copying() {
        let h = handle(CachePolicy::None);
        h.put(1, &[5u8; 4_096]).unwrap();
        let node = h.object_placement(1).unwrap()[0];
        let first = h.chunk_on_node(1, node).unwrap();
        let again = h.chunk_on_node(1, node).unwrap();
        assert_eq!(
            first.data.as_ptr(),
            again.data.as_ptr(),
            "a handed-out chunk must alias the stored allocation (refcount bump, not a copy)"
        );
    }

    /// The address of `object`'s first parity row (row `k`), which views
    /// the start of its parity buffer. The chunk is dropped before return.
    fn parity_address(h: &StoreHandle, object: u64) -> usize {
        let node = h.object_placement(object).unwrap()[h.config().k];
        h.chunk_on_node(object, node).unwrap().data.as_ptr() as usize
    }

    #[test]
    fn an_overwrite_hands_its_parity_buffer_to_the_next_put() {
        let h = handle(CachePolicy::None);
        let payload = |salt: u8| vec![salt; 64 * 1024];
        h.put(1, &payload(1)).unwrap();
        let replaced = parity_address(&h, 1);
        h.put_vec(1, payload(2)).unwrap();
        assert_eq!(h.spares().len(), 1, "the replaced parity is a spare");
        h.put(2, &payload(3)).unwrap();
        assert_eq!(parity_address(&h, 2), replaced, "put codes into the spare");
        assert!(h.spares().is_empty());
        let replaced = parity_address(&h, 1);
        h.put_vec(1, payload(4)).unwrap();
        h.put_vec(3, payload(5)).unwrap();
        assert_eq!(parity_address(&h, 3), replaced, "put_vec codes into it too");
        for (object, salt) in [(1, 4), (2, 3), (3, 5)] {
            assert_eq!(h.get(object, 0.0).unwrap().data, payload(salt));
        }
    }

    #[test]
    fn a_parity_row_a_reader_holds_is_not_recycled() {
        let h = handle(CachePolicy::None);
        h.put(1, &[7u8; 64 * 1024]).unwrap();
        // Row 5, the second parity row: holding any view of the buffer pins it.
        let node = h.object_placement(1).unwrap()[5];
        let held = h.chunk_on_node(1, node).unwrap();
        let bytes = held.data.to_vec();
        let buffer = held.data.as_ptr() as usize - 16 * 1024;
        h.put(1, &[8u8; 64 * 1024]).unwrap();
        assert!(h.spares().is_empty(), "a held parity buffer is no spare");
        for object in 2..6 {
            h.put_vec(object, vec![object as u8; 64 * 1024]).unwrap();
            h.put(1, &[object as u8; 64 * 1024]).unwrap();
        }
        assert_eq!(held.data.to_vec(), bytes, "held parity bytes must not move");
        assert!((1..6).all(|object| parity_address(&h, object) != buffer));
    }

    #[test]
    fn sequential_overwrites_keep_at_most_one_spare_and_deletes_add_none() {
        let h = handle(CachePolicy::Functional);
        for i in 0..1_000u64 {
            let object = i % 5;
            let data = vec![i as u8; 4_096];
            if i % 2 == 0 {
                h.put(object, &data).unwrap();
            } else {
                h.put_vec(object, data).unwrap();
            }
            if i % 7 == 0 {
                h.set_cached_chunks(object, (i % 5) as usize).unwrap();
            }
            assert!(
                h.spares().len() <= 1,
                "{} spares after put {i}",
                h.spares().len()
            );
        }
        let spares = h.spares().len();
        for object in 0..5 {
            h.delete(object);
        }
        assert_eq!(h.spares().len(), spares, "a delete gives no buffer back");
        assert_eq!(h.num_objects(), 0);
    }

    #[test]
    fn a_spare_of_another_size_is_never_reused() {
        let h = handle(CachePolicy::None);
        h.put(1, &[1u8; 4_096]).unwrap();
        let small = parity_address(&h, 1);
        h.put(1, &[2u8; 4_096]).unwrap();
        assert_eq!(h.spares().len(), 1);
        let big: Vec<u8> = (0..8_192u32).map(|i| (i % 253) as u8).collect();
        h.put_vec(2, big.clone()).unwrap();
        assert_ne!(
            parity_address(&h, 2),
            small,
            "a 3 KiB spare cannot hold 6 KiB"
        );
        assert!(h.spares().is_empty(), "the mismatched spare is dropped");
        h.put(2, &[3u8; 4_000]).unwrap();
        assert_eq!(h.get(2, 0.0).unwrap().data, vec![3u8; 4_000]);
        assert_eq!(h.get(1, 0.0).unwrap().data, vec![2u8; 4_096]);
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

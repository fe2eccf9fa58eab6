//! Compute-server cache tiers.
//!
//! Three cache designs from the paper are modeled, plus "no cache":
//!
//! * **Functional** — the cache holds `d_i` *new* coded chunks per object,
//!   chosen by the optimizer, so the cached chunks plus any `k_i − d_i`
//!   storage chunks reconstruct the object (§III). An object cached whole
//!   (`d_i = k_i`) is never read beside storage chunks, so its entry is the
//!   object's stored data rows, shared rather than coded.
//! * **Exact** — the cache holds copies of `d_i` of the object's storage
//!   chunks; those chunks' host nodes can no longer contribute to a read.
//! * **LRU replicated** — Ceph's cache-tier baseline: whole objects are
//!   promoted into the cache on access ([`LRU_REPLICATION`] copies each, the
//!   tier's redundancy) and the least-recently-used objects are evicted when
//!   space runs out.
//!
//! Capacity is tracked in bytes. [`Cache`] stores the payload chunks; all
//! residency decisions and accounting delegate to the shared
//! [`LruTier`], the same implementation the simulation
//! engine drives — see [`crate::tier`]. Reads from the cache device are
//! sampled from the SSD model but never queue — the paper argues cache-read
//! latency is negligible compared to HDD OSD reads, and Table V confirms it.

use std::collections::HashMap;

use serde::Deserialize;
use sprout_erasure::Chunk;

use crate::tier::{Admission, LruTier, TierStats};

/// Replicas the LRU cache tier keeps of each promoted object: the paper's
/// Ceph baseline is a dual-replicated cache tier (§VI).
pub const LRU_REPLICATION: u32 = 2;

/// Which caching scheme a run uses — the one cache-policy type, from a run
/// spec's `[sweep] policies` through the simulator to the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Deserialize)]
pub enum CachePolicy {
    /// No cache at all; every read hits the storage nodes.
    None,
    /// Functional caching: optimizer-chosen counts of newly coded chunks.
    /// A file cached whole keeps its `k` stored data rows instead: they are
    /// shared with storage, and a hit decodes them by a copy.
    Functional,
    /// Exact caching: optimizer-chosen counts of copied storage chunks.
    Exact,
    /// Ceph-style LRU cache tier keeping [`LRU_REPLICATION`] replicas of
    /// each promoted object.
    LruReplicated,
}

impl CachePolicy {
    /// Whether this policy stores planner-chosen chunks (functional/exact),
    /// and so needs an optimized plan.
    pub fn is_planned(&self) -> bool {
        matches!(self, CachePolicy::Functional | CachePolicy::Exact)
    }

    /// The policy's axis label in sweep artifacts.
    pub fn label(&self) -> &'static str {
        match self {
            CachePolicy::None => "no_cache",
            CachePolicy::Functional => "functional",
            CachePolicy::Exact => "exact",
            CachePolicy::LruReplicated => "lru",
        }
    }
}

/// Statistics kept by the cache — the embedded tier's counters, re-exported
/// under the cache's historical name.
pub(crate) type CacheStats = TierStats;

/// The cache tier of one compute server: payload chunks per resident object,
/// with residency decided by the embedded [`LruTier`].
#[derive(Debug, Clone)]
pub struct Cache {
    tier: LruTier,
    chunks: HashMap<u64, Vec<Chunk>>,
}

fn chunk_bytes(chunks: &[Chunk]) -> u64 {
    chunks.iter().map(|c| c.len() as u64).sum()
}

impl Cache {
    /// Creates an empty cache with the given policy and byte capacity. Only
    /// the LRU tier replicates what it holds; planner-managed chunks are
    /// already the redundancy.
    pub fn new(policy: CachePolicy, capacity_bytes: u64) -> Self {
        let replication = match policy {
            CachePolicy::LruReplicated => LRU_REPLICATION,
            _ => 1,
        };
        Cache {
            tier: LruTier::new(capacity_bytes, replication),
            chunks: HashMap::new(),
        }
    }

    /// Bytes currently occupied (LRU footprints include replication).
    pub fn used_bytes(&self) -> u64 {
        self.tier.used()
    }

    /// Hit/miss/promotion/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.tier.stats()
    }

    /// The cached chunks of `object` (empty if not resident). Records a hit
    /// or miss and refreshes recency.
    pub fn lookup(&mut self, object: u64) -> Vec<Chunk> {
        if self.tier.touch(object) {
            self.chunks.get(&object).cloned().unwrap_or_default()
        } else {
            Vec::new()
        }
    }

    /// Read-only peek that does not touch statistics or recency.
    pub fn peek(&self, object: u64) -> Option<&[Chunk]> {
        self.chunks.get(&object).map(Vec::as_slice)
    }

    /// Installs planner-chosen chunks for an object (functional or exact
    /// caching). Replaces any previous entry. Returns `false` (and leaves the
    /// cache unchanged) if the chunks do not fit in the remaining capacity.
    pub(crate) fn install_planned(&mut self, object: u64, chunks: Vec<Chunk>) -> bool {
        if chunks.is_empty() {
            self.remove(object);
            return true;
        }
        if !self.tier.install(object, chunk_bytes(&chunks)) {
            return false;
        }
        self.chunks.insert(object, chunks);
        true
    }

    /// Promotes a whole object into an LRU cache (called after a cache-miss
    /// read completes). The object's footprint is `bytes × replication`;
    /// least-recently-used objects are evicted until it fits. Objects larger
    /// than the whole cache are not admitted. Returns the tier's admission
    /// outcome (victims and whether the object is now resident).
    pub(crate) fn promote_lru(&mut self, object: u64, chunks: Vec<Chunk>) -> Admission {
        let resident = self.chunks.contains_key(&object);
        let admission = self.tier.admit(object, chunk_bytes(&chunks));
        // Keep tier residency and payloads in sync: victims lose theirs.
        for victim in &admission.evicted {
            self.chunks.remove(victim);
        }
        if admission.admitted && !resident {
            self.chunks.insert(object, chunks);
        }
        admission
    }

    /// Removes an object from the cache (management path, not counted as an
    /// eviction); returns whether it was resident.
    pub fn remove(&mut self, object: u64) -> bool {
        self.chunks.remove(&object);
        self.tier.remove(object)
    }

    /// Drops everything (counters survive).
    pub fn clear(&mut self) {
        self.chunks.clear();
        self.tier.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprout_erasure::ChunkId;

    fn chunk(index: usize, len: usize) -> Chunk {
        Chunk::new(ChunkId::cache(index), vec![1u8; len])
    }

    #[test]
    fn policy_helpers() {
        assert!(CachePolicy::Functional.is_planned());
        assert!(CachePolicy::Exact.is_planned());
        assert!(!CachePolicy::None.is_planned());
        assert!(!CachePolicy::LruReplicated.is_planned());
        let labels = [
            CachePolicy::None,
            CachePolicy::Functional,
            CachePolicy::Exact,
            CachePolicy::LruReplicated,
        ]
        .map(|p| p.label());
        assert_eq!(labels, ["no_cache", "functional", "exact", "lru"]);
    }

    #[test]
    fn lru_footprint_is_bytes_times_the_replication_constant() {
        let mut lru = Cache::new(CachePolicy::LruReplicated, 10_000);
        assert!(
            lru.promote_lru(1, vec![chunk(0, 300), chunk(1, 300)])
                .admitted
        );
        assert_eq!(lru.used_bytes(), 600 * u64::from(LRU_REPLICATION));
        // Planner-managed chunks are not replicated.
        let mut planned = Cache::new(CachePolicy::Functional, 10_000);
        assert!(planned.install_planned(1, vec![chunk(7, 300), chunk(8, 300)]));
        assert_eq!(planned.used_bytes(), 600);
    }

    #[test]
    fn planned_install_and_lookup() {
        let mut cache = Cache::new(CachePolicy::Functional, 1000);
        assert!(cache.install_planned(1, vec![chunk(7, 300), chunk(8, 300)]));
        assert_eq!(cache.used_bytes(), 600);
        assert_eq!(cache.peek(1).map_or(0, <[_]>::len), 2);
        assert_eq!(cache.lookup(1).len(), 2);
        assert_eq!(cache.lookup(2).len(), 0);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);

        // replacing shrinks usage
        assert!(cache.install_planned(1, vec![chunk(7, 300)]));
        assert_eq!(cache.used_bytes(), 300);
        // installing empty removes
        assert!(cache.install_planned(1, vec![]));
        assert_eq!(cache.used_bytes(), 0);
        assert!(cache.peek(1).is_none());
    }

    #[test]
    fn planned_install_respects_capacity() {
        let mut cache = Cache::new(CachePolicy::Functional, 500);
        assert!(cache.install_planned(1, vec![chunk(7, 300)]));
        assert!(!cache.install_planned(2, vec![chunk(7, 300)]));
        assert_eq!(cache.peek(2).map_or(0, <[_]>::len), 0);
        assert_eq!(cache.used_bytes(), 300);
        // replacing object 1 with something bigger but within capacity works
        assert!(cache.install_planned(1, vec![chunk(7, 450)]));
        assert_eq!(cache.used_bytes(), 450);
    }

    #[test]
    fn lru_promotion_and_eviction() {
        let mut cache = Cache::new(CachePolicy::LruReplicated, 1000);
        // each object is 200 bytes * 2 replication = 400
        assert!(cache.promote_lru(1, vec![chunk(0, 200)]).admitted);
        assert!(cache.promote_lru(2, vec![chunk(0, 200)]).admitted);
        assert_eq!(cache.used_bytes(), 800);
        // touch object 1 so object 2 becomes the LRU victim
        let _ = cache.lookup(1);
        let admission = cache.promote_lru(3, vec![chunk(0, 200)]);
        assert_eq!(admission.evicted, vec![2]);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.peek(2).is_none(), "object 2 should have been evicted");
        assert!(cache.peek(1).is_some());
        assert!(cache.peek(3).is_some());
        // Object 3 is now the most recently used: the next victim is 1.
        assert_eq!(cache.promote_lru(4, vec![chunk(0, 200)]).evicted, vec![1]);
    }

    #[test]
    fn lru_does_not_admit_objects_larger_than_capacity() {
        let mut cache = Cache::new(CachePolicy::LruReplicated, 100);
        assert!(!cache.promote_lru(1, vec![chunk(0, 200)]).admitted);
        assert_eq!(cache.used_bytes(), 0);
        assert!(cache.peek(1).is_none());
    }

    #[test]
    fn promoting_resident_object_only_refreshes_recency() {
        let mut cache = Cache::new(CachePolicy::LruReplicated, 1000);
        assert!(cache.promote_lru(1, vec![chunk(0, 100)]).admitted);
        let used = cache.used_bytes();
        assert!(cache.promote_lru(1, vec![chunk(0, 100)]).admitted);
        assert_eq!(cache.used_bytes(), used);
        assert_eq!(cache.stats().promotions, 1);
    }

    #[test]
    fn cache_tier_trait_is_implemented_by_the_cache() {
        let mut cache = Cache::new(CachePolicy::LruReplicated, 1000);
        // A promotion that evicts drops the victim's payload too.
        assert!(cache.promote_lru(1, vec![chunk(0, 400)]).admitted);
        let admission = cache.promote_lru(2, vec![chunk(0, 400)]);
        assert!(admission.admitted);
        assert_eq!(admission.evicted, vec![1]);
        assert!(cache.peek(1).is_none(), "victim payload must be dropped");
    }

    #[test]
    fn clear_and_remove() {
        let mut cache = Cache::new(CachePolicy::Functional, 1000);
        cache.install_planned(1, vec![chunk(7, 100)]);
        cache.install_planned(2, vec![chunk(7, 100)]);
        assert!(cache.remove(1));
        assert!(!cache.remove(1));
        assert_eq!(cache.used_bytes(), 100);
        assert_eq!(cache.stats().evictions, 0, "a removal is not an eviction");
        cache.clear();
        assert_eq!(cache.used_bytes(), 0);
        assert!(cache.peek(2).is_none() && !cache.tier.contains(2));
    }
}

//! The cache-tier abstraction shared by the analytic and byte-accurate paths.
//!
//! The paper's baseline (Figs. 10/11, Table V) is Ceph's cache tier: whole
//! objects are *promoted* into the cache when a read misses, replicated
//! `replication` times for the tier's own redundancy, and *evicted*
//! least-recently-used when capacity runs out. Before this module existed the
//! repo carried two divergent copies of that logic — byte-granular inside
//! [`Cache`](crate::cache::Cache) and chunk-granular inside the simulation
//! engine — so the two paths could silently disagree on hit/miss decisions.
//!
//! [`LruTier`] is the one implementation (hit lookup, admission with LRU
//! eviction, capacity accounting, replication). The simulation engine
//! drives an `LruTier` directly (weights are chunk counts) and the
//! cluster's `Cache` delegates its byte accounting to an embedded `LruTier`
//! (weights are payload bytes). A byte-accurate simulation keeps no second
//! copy: the engine's tier decides every hit, and the byte-accurate
//! `StoreBackend` settles each one from the object's stored data rows — the
//! differential root test checks the decisions request by request.
//!
//! Weights are plain `u64`s: the unit (bytes, chunks) is the caller's choice
//! and every comparison scales linearly with it, so two tiers fed the same
//! access sequence with proportionally scaled weights and capacity make
//! identical decisions.

use std::collections::HashMap;

/// Counters every tier keeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Lookups that found the object resident.
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
    /// Objects promoted (admitted) into the tier.
    pub promotions: u64,
    /// Objects evicted by LRU pressure during an admission.
    pub evictions: u64,
}

/// Outcome of a [`LruTier::admit`] attempt.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Admission {
    /// Whether the object is resident after the call (newly promoted or
    /// already present and refreshed).
    pub admitted: bool,
    /// Objects evicted to make room, in eviction order.
    pub evicted: Vec<u64>,
}

#[derive(Debug, Clone, Copy)]
struct TierEntry {
    /// Footprint (weight × replication) charged against the capacity.
    footprint: u64,
    last_access: u64,
}

/// Byte-accurate LRU bookkeeping: tracks *residency and weight*, not payload
/// bytes — payload storage (if any) wraps the tier, as
/// [`Cache`](crate::cache::Cache) does.
///
/// Eviction picks the minimum `last_access` tick; ticks strictly increase, so
/// the victim is unique and the policy is deterministic regardless of hash
/// iteration order.
#[derive(Debug, Clone)]
pub struct LruTier {
    capacity: u64,
    replication: u32,
    used: u64,
    clock: u64,
    entries: HashMap<u64, TierEntry>,
    stats: TierStats,
}

impl LruTier {
    /// Creates an empty tier.
    ///
    /// # Panics
    ///
    /// Panics if `replication == 0`.
    pub fn new(capacity: u64, replication: u32) -> Self {
        assert!(replication > 0, "tier replication must be at least 1");
        LruTier {
            capacity,
            replication,
            used: 0,
            clock: 0,
            entries: HashMap::new(),
            stats: TierStats::default(),
        }
    }

    /// Installs or replaces an entry *without* LRU eviction, refusing (and
    /// leaving the tier unchanged) if it would exceed capacity. This is the
    /// planner-managed path (functional/exact cache contents), which never
    /// competes through the LRU policy. Replication is not applied: planned
    /// chunks are already the redundancy.
    pub fn install(&mut self, object: u64, weight: u64) -> bool {
        let existing = self.entries.get(&object).map_or(0, |e| e.footprint);
        if self.used - existing + weight > self.capacity {
            return false;
        }
        self.clock += 1;
        self.used = self.used - existing + weight;
        self.entries.insert(
            object,
            TierEntry {
                footprint: weight,
                last_access: self.clock,
            },
        );
        true
    }

    /// Removes an entry without counting an eviction (management delete).
    pub fn remove(&mut self, object: u64) -> bool {
        match self.entries.remove(&object) {
            Some(entry) => {
                self.used -= entry.footprint;
                true
            }
            None => false,
        }
    }

    /// Drops everything (counters survive).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.used = 0;
    }

    fn evict_lru(&mut self) -> Option<u64> {
        let victim = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_access)
            .map(|(&id, _)| id)?;
        self.remove(victim);
        self.stats.evictions += 1;
        Some(victim)
    }

    /// Tier capacity, in the implementation's weight unit.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Weight currently occupied (footprints include replication).
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Replication factor applied to every admitted object's footprint.
    pub fn replication(&self) -> u32 {
        self.replication
    }

    /// Whether `object` is resident. No statistics or recency side effects.
    pub fn contains(&self, object: u64) -> bool {
        self.entries.contains_key(&object)
    }

    /// Hit lookup: records a hit (refreshing recency) or a miss and returns
    /// whether the object was resident.
    pub fn touch(&mut self, object: u64) -> bool {
        self.clock += 1;
        match self.entries.get_mut(&object) {
            Some(entry) => {
                entry.last_access = self.clock;
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Tries to admit an object of logical size `weight` (footprint
    /// `weight × replication`), evicting least-recently-used residents until
    /// it fits. Objects whose footprint exceeds the whole tier are not
    /// admitted and evict nothing. Admitting a resident object only
    /// refreshes its recency.
    pub fn admit(&mut self, object: u64, weight: u64) -> Admission {
        if let Some(entry) = self.entries.get_mut(&object) {
            self.clock += 1;
            entry.last_access = self.clock;
            return Admission {
                admitted: true,
                evicted: Vec::new(),
            };
        }
        let footprint = weight.saturating_mul(self.replication as u64);
        if footprint > self.capacity {
            return Admission::default();
        }
        let mut evicted = Vec::new();
        while self.used + footprint > self.capacity {
            match self.evict_lru() {
                Some(victim) => evicted.push(victim),
                None => break,
            }
        }
        if self.used + footprint > self.capacity {
            return Admission {
                admitted: false,
                evicted,
            };
        }
        self.clock += 1;
        self.used += footprint;
        self.entries.insert(
            object,
            TierEntry {
                footprint,
                last_access: self.clock,
            },
        );
        self.stats.promotions += 1;
        Admission {
            admitted: true,
            evicted,
        }
    }

    /// Hit/miss/promotion/eviction counters.
    pub fn stats(&self) -> TierStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Resident objects of `tier`, least recently used first.
    fn resident_objects(tier: &LruTier) -> Vec<u64> {
        let mut ids: Vec<(u64, u64)> = tier
            .entries
            .iter()
            .map(|(&id, e)| (e.last_access, id))
            .collect();
        ids.sort_unstable();
        ids.into_iter().map(|(_, id)| id).collect()
    }

    #[test]
    fn admit_touch_and_lru_eviction_order() {
        let mut tier = LruTier::new(10, 1);
        assert!(tier.admit(1, 4).admitted);
        assert!(tier.admit(2, 4).admitted);
        assert_eq!(tier.used(), 8);
        // Touch 1 so 2 becomes the victim.
        assert!(tier.touch(1));
        let adm = tier.admit(3, 4);
        assert!(adm.admitted);
        assert_eq!(adm.evicted, vec![2]);
        assert!(tier.contains(1) && tier.contains(3) && !tier.contains(2));
        assert_eq!(resident_objects(&tier), vec![1, 3]);
        let stats = tier.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.promotions, 3);
        assert_eq!(stats.evictions, 1);
    }

    #[test]
    fn replication_multiplies_the_footprint() {
        let mut tier = LruTier::new(10, 2);
        assert_eq!(tier.replication(), 2);
        assert!(tier.admit(1, 4).admitted);
        assert_eq!(tier.used(), 8, "footprint is weight x replication");
        // A second 4-weight object (footprint 8) evicts the first.
        let adm = tier.admit(2, 4);
        assert!(adm.admitted);
        assert_eq!(adm.evicted, vec![1]);
        assert_eq!(tier.used(), 8);
    }

    #[test]
    fn objects_larger_than_the_tier_are_not_admitted_and_evict_nothing() {
        let mut tier = LruTier::new(10, 2);
        assert!(tier.admit(1, 2).admitted);
        let adm = tier.admit(2, 6); // footprint 12 > 10
        assert!(!adm.admitted);
        assert!(adm.evicted.is_empty(), "an oversized object evicts nothing");
        assert!(tier.contains(1));
        assert_eq!(tier.stats().evictions, 0);
    }

    #[test]
    fn admitting_a_resident_object_refreshes_recency_only() {
        let mut tier = LruTier::new(10, 1);
        assert!(tier.admit(1, 4).admitted);
        assert!(tier.admit(2, 4).admitted);
        let adm = tier.admit(1, 4);
        assert!(adm.admitted && adm.evicted.is_empty());
        assert_eq!(tier.used(), 8);
        assert_eq!(tier.stats().promotions, 2, "a refresh is not a promotion");
        assert_eq!(resident_objects(&tier), vec![2, 1]);
    }

    #[test]
    fn touch_records_hits_and_misses() {
        let mut tier = LruTier::new(10, 1);
        assert!(!tier.touch(7));
        assert!(tier.admit(7, 1).admitted);
        assert!(tier.touch(7));
        let stats = tier.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn install_is_capacity_checked_and_eviction_free() {
        let mut tier = LruTier::new(10, 2);
        assert!(tier.install(1, 6));
        assert_eq!(tier.used(), 6, "install does not apply replication");
        assert!(!tier.install(2, 6), "no room and no eviction");
        assert!(tier.contains(1) && !tier.contains(2));
        assert!(tier.install(1, 9), "replace may grow within capacity");
        assert_eq!(tier.used(), 9);
        tier.clear();
        assert_eq!(tier.used(), 0);
        assert!(resident_objects(&tier).is_empty());
    }

    #[test]
    fn scaled_weights_make_identical_decisions() {
        // The unit-agnosticism the engine/store split relies on: chunks vs
        // bytes, same decisions when everything scales by the chunk length.
        let scale = 4096u64;
        let mut chunks = LruTier::new(6, 2);
        let mut bytes = LruTier::new(6 * scale, 2);
        let accesses = [1u64, 2, 1, 3, 2, 4, 1, 5, 3, 1, 2];
        for &obj in &accesses {
            let hit_a = chunks.touch(obj);
            let hit_b = bytes.touch(obj);
            assert_eq!(hit_a, hit_b, "hit decision diverged at object {obj}");
            if !hit_a {
                let a = chunks.admit(obj, 1);
                let b = bytes.admit(obj, scale);
                assert_eq!(a.admitted, b.admitted);
                assert_eq!(a.evicted, b.evicted);
            }
        }
        assert_eq!(resident_objects(&chunks), resident_objects(&bytes));
        assert_eq!(chunks.stats(), bytes.stats());
    }
}

//! The placement-strategy zoo.
//!
//! Four contenders plus a constraint wrapper, all deterministic in
//! `(seed, object_id, membership view)`:
//!
//! * [`RandomGroups`] — the paper baseline: the CRUSH-like placement-group
//!   map, bit-for-bit identical to the legacy [`PlacementMap`] on a fully
//!   online cluster, walking past offline nodes under churn.
//! * `ConsistentHashRing` — virtual-node consistent hashing; a membership
//!   change moves only the chunks that hashed next to the changed node.
//! * [`TwoChoices`] — power-of-two-choices by chunk load: each slot hashes
//!   two candidates and takes the less-loaded one (the ingest policy of
//!   Kademlia-style storage simulators).
//! * [`XorProximity`] — nodes ranked by `node_key ^ object_key`, the overlay
//!   `find` of those same simulators.
//! * [`AntiAffinity`] — a wrapper constraining any inner strategy to spread
//!   chunks across failure zones before doubling up in one.

use super::map::{splitmix64, PlacementMap};
use super::{ClusterView, Placement};

/// Salt mixed into per-strategy hash streams so strategies sharing a seed do
/// not shadow each other's choices.
const RING_SALT: u64 = 0x52494E47_u64; // "RING"
const XOR_SALT: u64 = 0x584F522D_u64; // "XOR-"
const CHOICE_SALT: u64 = 0x32434849_u64; // "2CHI"

fn assert_view(view: &ClusterView, num_nodes: usize, name: &str) {
    assert_eq!(
        view.num_nodes(),
        num_nodes,
        "{name} was built for {num_nodes} nodes but the view has {}",
        view.num_nodes()
    );
}

fn assert_fits(n: usize, view: &ClusterView, name: &str) {
    assert!(
        n <= view.online_count(),
        "{name} cannot place {n} chunks on {} online nodes",
        view.online_count()
    );
}

/// The legacy CRUSH-like placement-group map as a [`Placement`] strategy.
///
/// On a fully online cluster `place` returns exactly what the historical
/// [`PlacementMap::place`] returned for the same `(num_nodes, groups, seed)`
/// — the differential test in `tests/placement_properties.rs` pins this
/// bit-for-bit, which is what keeps every pre-existing figure artifact
/// byte-identical. Under churn the strategy walks the object's
/// placement-group permutation past offline nodes.
#[derive(Debug, Clone)]
pub struct RandomGroups {
    map: PlacementMap,
}

impl RandomGroups {
    /// Builds the strategy; `groups = None` uses the default group count.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0` or `groups == Some(0)`.
    pub fn new(num_nodes: usize, groups: Option<usize>, seed: u64) -> Self {
        let map = match groups {
            Some(g) => PlacementMap::with_groups(num_nodes, g, seed),
            None => PlacementMap::new(num_nodes, seed),
        };
        RandomGroups { map }
    }

    /// The underlying placement-group map.
    pub fn map(&self) -> &PlacementMap {
        &self.map
    }
}

impl Placement for RandomGroups {
    fn name(&self) -> String {
        "random".into()
    }

    fn place(&self, object_id: u64, n: usize, view: &ClusterView) -> Vec<usize> {
        assert_view(view, self.map.num_nodes(), "RandomGroups");
        assert_fits(n, view, "RandomGroups");
        self.map
            .permutation(object_id)
            .iter()
            .copied()
            .filter(|&node| view.is_online(node))
            .take(n)
            .collect()
    }
}

/// Consistent hashing with virtual nodes.
///
/// Every physical node owns `vnodes` pseudo-random points on a `u64` ring;
/// an object hashes to a point and walks clockwise collecting the first `n`
/// distinct online nodes. Removing a node only re-homes the chunks that
/// walked through its points, which is the bounded-rebalance property the
/// churn figure measures.
#[derive(Debug, Clone)]
pub(crate) struct ConsistentHashRing {
    num_nodes: usize,
    vnodes: usize,
    seed: u64,
    /// `(ring position, node)`, sorted by position.
    ring: Vec<(u64, usize)>,
}

impl ConsistentHashRing {
    /// Builds a ring with `vnodes` virtual nodes per physical node.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0` or `vnodes == 0`.
    pub fn new(num_nodes: usize, vnodes: usize, seed: u64) -> Self {
        assert!(num_nodes > 0, "need at least one node");
        assert!(vnodes > 0, "need at least one virtual node per node");
        let mut ring = Vec::with_capacity(num_nodes * vnodes);
        for node in 0..num_nodes {
            for v in 0..vnodes {
                let key = splitmix64(
                    seed ^ RING_SALT
                        ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ (v as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
                );
                ring.push((key, node));
            }
        }
        ring.sort_unstable();
        ConsistentHashRing {
            num_nodes,
            vnodes,
            seed,
            ring,
        }
    }
}

impl Placement for ConsistentHashRing {
    fn name(&self) -> String {
        format!("ring{}", self.vnodes)
    }

    fn place(&self, object_id: u64, n: usize, view: &ClusterView) -> Vec<usize> {
        assert_view(view, self.num_nodes, "ConsistentHashRing");
        assert_fits(n, view, "ConsistentHashRing");
        let point = splitmix64(object_id ^ splitmix64(self.seed ^ RING_SALT));
        let start = self.ring.partition_point(|&(key, _)| key < point);
        let mut chosen = Vec::with_capacity(n);
        for i in 0..self.ring.len() {
            let (_, node) = self.ring[(start + i) % self.ring.len()];
            if view.is_online(node) && !chosen.contains(&node) {
                chosen.push(node);
                if chosen.len() == n {
                    break;
                }
            }
        }
        chosen
    }
}

/// Power-of-two-choices by chunk load.
///
/// Each chunk slot hashes two candidate nodes from the online, not-yet-used
/// set and stores on the one carrying fewer chunks. The load ledger threads
/// through [`Placement::place_batch`] in object order, which is what makes
/// the strategy deterministic; a lone [`Placement::place`] call sees an
/// empty ledger (pure tie-breaking by hash order).
#[derive(Debug, Clone)]
pub struct TwoChoices {
    num_nodes: usize,
    seed: u64,
}

impl TwoChoices {
    /// Builds the strategy.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0`.
    pub fn new(num_nodes: usize, seed: u64) -> Self {
        assert!(num_nodes > 0, "need at least one node");
        TwoChoices { num_nodes, seed }
    }

    /// Places one object, consulting and updating the chunk-load ledger.
    fn place_with_loads(
        &self,
        object_id: u64,
        n: usize,
        view: &ClusterView,
        loads: &mut [u64],
    ) -> Vec<usize> {
        assert_view(view, self.num_nodes, "TwoChoices");
        assert_fits(n, view, "TwoChoices");
        let mut chosen: Vec<usize> = Vec::with_capacity(n);
        let mut state = splitmix64(object_id ^ splitmix64(self.seed ^ CHOICE_SALT));
        for _slot in 0..n {
            let eligible: Vec<usize> = view
                .online_nodes()
                .filter(|node| !chosen.contains(node))
                .collect();
            state = splitmix64(state);
            let a = eligible[(state % eligible.len() as u64) as usize];
            state = splitmix64(state);
            let b = eligible[(state % eligible.len() as u64) as usize];
            // Less-loaded candidate wins; ties break on the lower node id so
            // the choice never depends on draw order.
            let pick = match loads[a].cmp(&loads[b]) {
                std::cmp::Ordering::Less => a,
                std::cmp::Ordering::Greater => b,
                std::cmp::Ordering::Equal => a.min(b),
            };
            loads[pick] += 1;
            chosen.push(pick);
        }
        chosen
    }
}

impl Placement for TwoChoices {
    fn name(&self) -> String {
        "two_choice".into()
    }

    fn place(&self, object_id: u64, n: usize, view: &ClusterView) -> Vec<usize> {
        let mut loads = vec![0u64; self.num_nodes];
        self.place_with_loads(object_id, n, view, &mut loads)
    }

    fn place_batch(&self, objects: &[(u64, usize)], view: &ClusterView) -> Vec<Vec<usize>> {
        let mut loads = vec![0u64; self.num_nodes];
        objects
            .iter()
            .map(|&(id, n)| self.place_with_loads(id, n, view, &mut loads))
            .collect()
    }
}

/// XOR-proximity placement: rank nodes by `node_key ^ object_key`.
///
/// Every node gets a stable pseudo-random key; an object's chunks go to the
/// `n` online nodes whose keys are XOR-closest to the object's key. Like the
/// ring, removing a node disturbs only the objects that had it in their
/// closest set.
#[derive(Debug, Clone)]
pub struct XorProximity {
    node_keys: Vec<u64>,
    seed: u64,
}

impl XorProximity {
    /// Builds the strategy.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0`.
    pub fn new(num_nodes: usize, seed: u64) -> Self {
        assert!(num_nodes > 0, "need at least one node");
        let node_keys = (0..num_nodes)
            .map(|node| {
                splitmix64(seed ^ XOR_SALT ^ (node as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            })
            .collect();
        XorProximity { node_keys, seed }
    }
}

impl Placement for XorProximity {
    fn name(&self) -> String {
        "xor".into()
    }

    fn place(&self, object_id: u64, n: usize, view: &ClusterView) -> Vec<usize> {
        assert_view(view, self.node_keys.len(), "XorProximity");
        assert_fits(n, view, "XorProximity");
        let object_key = splitmix64(object_id ^ splitmix64(self.seed ^ XOR_SALT));
        let mut ranked: Vec<(u64, usize)> = view
            .online_nodes()
            .map(|node| (self.node_keys[node] ^ object_key, node))
            .collect();
        ranked.sort_unstable();
        ranked.truncate(n);
        ranked.into_iter().map(|(_, node)| node).collect()
    }
}

/// Zone anti-affinity as a constraint wrapper over any inner strategy.
///
/// Nodes are striped round-robin into `zones` failure zones (`zone = node %
/// zones`, the rack layout of an ironbucket-style deployment). The wrapper
/// asks the inner strategy for its full preference order over online nodes,
/// then fills chunk slots zone-capped: no zone receives a second chunk until
/// every zone with online capacity has one, no third until every zone has
/// two, and so on.
#[derive(Debug)]
pub struct AntiAffinity {
    zones: usize,
    inner: Box<dyn Placement>,
}

impl AntiAffinity {
    /// Wraps `inner` with a `zones`-zone spread constraint.
    ///
    /// # Panics
    ///
    /// Panics if `zones == 0`.
    pub fn new(zones: usize, inner: Box<dyn Placement>) -> Self {
        assert!(zones > 0, "need at least one zone");
        AntiAffinity { zones, inner }
    }

    /// The zone a node belongs to.
    pub(crate) fn zone_of(&self, node: usize) -> usize {
        node % self.zones
    }
}

impl Placement for AntiAffinity {
    fn name(&self) -> String {
        format!("zones{}({})", self.zones, self.inner.name())
    }

    fn place(&self, object_id: u64, n: usize, view: &ClusterView) -> Vec<usize> {
        assert_fits(n, view, "AntiAffinity");
        // The inner strategy's preference order over every online node.
        let preference = self.inner.place(object_id, view.online_count(), view);
        let mut chosen: Vec<usize> = Vec::with_capacity(n);
        let mut per_zone = vec![0usize; self.zones];
        let mut cap = 1usize;
        while chosen.len() < n {
            let before = chosen.len();
            for &node in &preference {
                if chosen.len() == n {
                    break;
                }
                if per_zone[self.zone_of(node)] < cap && !chosen.contains(&node) {
                    per_zone[self.zone_of(node)] += 1;
                    chosen.push(node);
                }
            }
            // Every zone at the cap and still short: raise the cap. The
            // fits-check above guarantees this terminates.
            assert!(
                chosen.len() > before || cap < view.online_count(),
                "anti-affinity failed to fill {n} slots from {} online nodes",
                view.online_count()
            );
            cap += 1;
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn distinct_online(nodes: &[usize], view: &ClusterView) {
        let unique: HashSet<_> = nodes.iter().collect();
        assert_eq!(unique.len(), nodes.len(), "duplicate node in {nodes:?}");
        assert!(
            nodes.iter().all(|&n| view.is_online(n)),
            "offline in {nodes:?}"
        );
    }

    #[test]
    fn random_groups_skips_offline_nodes() {
        let strategy = RandomGroups::new(8, None, 3);
        let full = ClusterView::all_online(8);
        for id in 0..100u64 {
            let placed = strategy.place(id, 5, &full);
            let degraded = full.with_node_online(placed[0], false);
            let replaced = strategy.place(id, 5, &degraded);
            distinct_online(&replaced, &degraded);
            // The surviving prefix keeps its order; one new node fills in.
            assert_eq!(replaced[..4], placed[1..5]);
        }
    }

    #[test]
    fn ring_walk_is_stable_under_unrelated_failures() {
        let strategy = ConsistentHashRing::new(12, 32, 9);
        let full = ClusterView::all_online(12);
        let mut disturbed = 0usize;
        for id in 0..200u64 {
            let placed = strategy.place(id, 4, &full);
            distinct_online(&placed, &full);
            // Failing a node outside the placement leaves it untouched.
            let outside = (0..12).find(|n| !placed.contains(n)).unwrap();
            let degraded = full.with_node_online(outside, false);
            if strategy.place(id, 4, &degraded) != placed {
                disturbed += 1;
            }
        }
        assert_eq!(disturbed, 0, "ring moved objects that lost no node");
    }

    #[test]
    fn two_choices_balances_load_across_a_batch() {
        let strategy = TwoChoices::new(10, 1);
        let view = ClusterView::all_online(10);
        let batch: Vec<(u64, usize)> = (0..500).map(|id| (id, 4)).collect();
        let placements = strategy.place_batch(&batch, &view);
        let mut counts = [0usize; 10];
        for placement in &placements {
            distinct_online(placement, &view);
            for &node in placement {
                counts[node] += 1;
            }
        }
        let expected = 500.0 * 4.0 / 10.0;
        for (node, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() / expected < 0.05,
                "two-choices node {node} holds {c}, expected ~{expected}"
            );
        }
        // Batch placement is idempotent: same batch, same answer.
        assert_eq!(placements, strategy.place_batch(&batch, &view));
    }

    #[test]
    fn xor_ranking_only_moves_objects_that_lost_a_node() {
        let strategy = XorProximity::new(12, 5);
        let full = ClusterView::all_online(12);
        let degraded = full.with_node_online(3, false);
        for id in 0..200u64 {
            let placed = strategy.place(id, 4, &full);
            distinct_online(&placed, &full);
            let replaced = strategy.place(id, 4, &degraded);
            if placed.contains(&3) {
                assert_ne!(placed, replaced);
            } else {
                assert_eq!(placed, replaced, "object {id} moved without losing a node");
            }
        }
    }

    #[test]
    fn anti_affinity_spreads_chunks_across_zones() {
        let inner = Box::new(ConsistentHashRing::new(12, 32, 7));
        let strategy = AntiAffinity::new(3, inner);
        let view = ClusterView::all_online(12);
        for id in 0..100u64 {
            let placed = strategy.place(id, 6, &view);
            distinct_online(&placed, &view);
            let mut per_zone = [0usize; 3];
            for &node in &placed {
                per_zone[node % 3] += 1;
            }
            // 6 chunks over 3 zones: exactly 2 per zone.
            assert_eq!(per_zone, [2, 2, 2], "object {id}: {placed:?}");
        }
    }

    #[test]
    fn anti_affinity_relaxes_the_cap_when_a_zone_dies() {
        let inner = Box::new(ConsistentHashRing::new(6, 32, 7));
        let strategy = AntiAffinity::new(3, inner);
        // Kill zone 0 entirely (nodes 0 and 3): 4 chunks must still fit on
        // the remaining 4 nodes in zones 1 and 2.
        let view = ClusterView::all_online(6)
            .with_node_online(0, false)
            .with_node_online(3, false);
        let placed = strategy.place(9, 4, &view);
        distinct_online(&placed, &view);
        assert_eq!(placed.len(), 4);
    }

    #[test]
    #[should_panic(expected = "online nodes")]
    fn oversubscribed_placement_panics() {
        let strategy = ConsistentHashRing::new(4, 8, 0);
        let view = ClusterView::all_online(4).with_node_online(1, false);
        let _ = strategy.place(1, 4, &view);
    }

    #[test]
    #[should_panic(expected = "built for")]
    fn mismatched_view_panics() {
        let strategy = XorProximity::new(4, 0);
        let _ = strategy.place(1, 2, &ClusterView::all_online(5));
    }
}

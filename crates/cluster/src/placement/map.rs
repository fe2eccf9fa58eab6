//! CRUSH-like pseudo-random chunk placement via placement groups.
//!
//! Ceph maps every object to a *placement group* (PG) and every PG to an
//! ordered list of OSDs via the CRUSH algorithm, so that data spreads
//! uniformly and placement is computable from the object id alone. The same
//! structure is reproduced here with a deterministic hash in place of CRUSH:
//! an object id hashes to a PG, and each PG owns a pseudo-random permutation
//! of the nodes whose prefix of length `n` hosts the object's chunks.

/// Number of placement groups per OSD recommended by the Ceph formula the
/// paper quotes (`#PG = #OSD * 100 / m`); we keep the spirit by defaulting to
/// 100 placement groups per node.
pub(crate) const DEFAULT_PGS_PER_NODE: usize = 100;

/// Deterministic placement of objects onto storage nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementMap {
    num_nodes: usize,
    /// Node permutation per placement group.
    groups: Vec<Vec<usize>>,
}

impl PlacementMap {
    /// Creates a placement map with the default number of placement groups.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0`.
    pub fn new(num_nodes: usize, seed: u64) -> Self {
        Self::with_groups(num_nodes, num_nodes * DEFAULT_PGS_PER_NODE, seed)
    }

    /// Creates a placement map with an explicit number of placement groups.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0` or `num_groups == 0`.
    pub fn with_groups(num_nodes: usize, num_groups: usize, seed: u64) -> Self {
        assert!(num_nodes > 0, "need at least one node");
        assert!(num_groups > 0, "need at least one placement group");
        let groups = (0..num_groups)
            .map(|g| pseudo_random_permutation(num_nodes, seed ^ (g as u64).wrapping_mul(0x9E37)))
            .collect();
        PlacementMap { num_nodes, groups }
    }

    /// Number of storage nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The placement group an object belongs to.
    pub(crate) fn placement_group(&self, object_id: u64) -> usize {
        (splitmix64(object_id) % self.groups.len() as u64) as usize
    }

    /// The `n` distinct nodes hosting the chunks of `object_id`, in chunk order.
    ///
    /// # Panics
    ///
    /// Panics if `n > num_nodes` (chunks must land on distinct nodes).
    pub fn place(&self, object_id: u64, n: usize) -> Vec<usize> {
        assert!(
            n <= self.num_nodes,
            "cannot place {n} chunks on {} distinct nodes",
            self.num_nodes
        );
        let pg = self.placement_group(object_id);
        self.groups[pg][..n].to_vec()
    }

    /// The full node permutation of `object_id`'s placement group. The
    /// [`RandomGroups`](super::strategies::RandomGroups) strategy walks this
    /// permutation past offline nodes under churn; its prefix of length `n`
    /// is exactly [`PlacementMap::place`].
    pub(crate) fn permutation(&self, object_id: u64) -> &[usize] {
        &self.groups[self.placement_group(object_id)]
    }
}

/// A fixed-size permutation generated by repeated Fisher–Yates draws from a
/// splitmix64 stream.
fn pseudo_random_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut state = seed.wrapping_add(0x6A09_E667_F3BC_C909);
    for i in (1..n).rev() {
        state = splitmix64(state);
        let j = (state % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn placement_uses_distinct_nodes() {
        let map = PlacementMap::new(12, 1);
        for id in 0..500u64 {
            let nodes = map.place(id, 7);
            let unique: HashSet<_> = nodes.iter().collect();
            assert_eq!(unique.len(), 7, "object {id} reuses a node");
            assert!(nodes.iter().all(|&n| n < 12));
        }
    }

    #[test]
    fn placement_is_deterministic() {
        let a = PlacementMap::new(12, 42);
        let b = PlacementMap::new(12, 42);
        for id in 0..100u64 {
            assert_eq!(a.place(id, 7), b.place(id, 7));
        }
        let c = PlacementMap::new(12, 43);
        let differs = (0..100u64).any(|id| a.place(id, 7) != c.place(id, 7));
        assert!(differs, "different seeds should change placement");
    }

    #[test]
    fn load_spreads_roughly_uniformly() {
        let map = PlacementMap::new(12, 7);
        let mut counts = [0usize; 12];
        let objects = 6000u64;
        for id in 0..objects {
            for node in map.place(id, 7) {
                counts[node] += 1;
            }
        }
        let expected = objects as f64 * 7.0 / 12.0;
        for (node, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() / expected < 0.10,
                "node {node} holds {c} chunks, expected about {expected}"
            );
        }
    }

    #[test]
    fn placement_group_formula() {
        let map = PlacementMap::new(12, 3);
        assert_eq!(map.groups.len(), 1200);
        assert_eq!(map.num_nodes(), 12);
        let custom = PlacementMap::with_groups(12, 256, 3);
        assert_eq!(custom.groups.len(), 256);
        for id in 0..50u64 {
            assert!(custom.placement_group(id) < 256);
        }
    }

    #[test]
    #[should_panic(expected = "distinct nodes")]
    fn oversubscribed_placement_panics() {
        let map = PlacementMap::new(4, 0);
        let _ = map.place(1, 5);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_cluster_panics() {
        let _ = PlacementMap::new(0, 0);
    }
}

//! Placement strategies: where an object's coded chunks live.
//!
//! The paper evaluates Algorithm 1 over one *fixed* pseudo-random placement
//! (the CRUSH-like [`PlacementMap`]). Real clusters choose from a whole
//! family of policies — consistent-hash rings, load-aware two-choices,
//! XOR-proximity overlays, rack/zone anti-affinity — and the interesting
//! question is how each behaves **under node churn**: how much latency a
//! failure costs, and how many bytes the strategy wants to move to restore
//! its invariant. This module makes that seam first-class:
//!
//! * [`ClusterView`] — the membership snapshot a strategy places against
//!   (node count plus per-node online flags).
//! * [`Placement`] — the strategy contract: a deterministic, seed-derived
//!   `place(object_id, n, &ClusterView) -> Vec<usize>` plus a rebalance hook
//!   [`Placement::on_membership_change`] reporting the chunks/bytes that
//!   must move when membership changes.
//! * [`PlacementChoice`] — the configuration enum consumed by
//!   `ClusterConfig` and `sprout::SystemSpec`, and loadable from run-spec
//!   files; [`PlacementChoice::build`]
//!   instantiates the strategy for a concrete cluster.
//! * [`strategies`] — the zoo: [`RandomGroups`] (the legacy placement map,
//!   bit-for-bit), `ConsistentHashRing`, [`TwoChoices`], [`XorProximity`],
//!   and the [`AntiAffinity`] constraint wrapper.
//!
//! Every strategy is a pure function of `(seed, object_id, view)` — or, for
//! load-aware strategies, of the deterministic batch order — so placements
//! are reproducible across runs, threads and processes.

#![warn(missing_docs)]

pub mod map;
pub mod strategies;

pub use map::PlacementMap;
use strategies::ConsistentHashRing;
pub use strategies::{AntiAffinity, RandomGroups, TwoChoices, XorProximity};

use serde::Deserialize;

/// A membership snapshot: how many nodes the cluster has and which of them
/// are currently online. Strategies place only onto online nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterView {
    online: Vec<bool>,
}

impl ClusterView {
    /// A view with every node online.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0`.
    pub fn all_online(num_nodes: usize) -> Self {
        assert!(num_nodes > 0, "need at least one node");
        ClusterView {
            online: vec![true; num_nodes],
        }
    }

    /// Total number of nodes (online or not).
    pub fn num_nodes(&self) -> usize {
        self.online.len()
    }

    /// Whether `node` is online. Out-of-range nodes are offline.
    pub fn is_online(&self, node: usize) -> bool {
        self.online.get(node).copied().unwrap_or(false)
    }

    /// Number of online nodes.
    pub fn online_count(&self) -> usize {
        self.online.iter().filter(|&&o| o).count()
    }

    /// Returns a copy of the view with `node`'s online flag changed.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn with_node_online(&self, node: usize, online: bool) -> Self {
        let mut next = self.clone();
        next.online[node] = online;
        next
    }

    /// Online node ids, ascending.
    pub(crate) fn online_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.online
            .iter()
            .enumerate()
            .filter(|(_, &o)| o)
            .map(|(i, _)| i)
    }
}

/// One object a rebalance computation considers: its id, how many chunks it
/// stores, and how large each chunk is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectDesc {
    /// Object id (the value fed to [`Placement::place`]).
    pub id: u64,
    /// Number of stored chunks `n`.
    pub n: usize,
    /// Bytes per chunk (for rebalance byte accounting).
    pub chunk_bytes: u64,
}

/// What a membership change costs: the chunks (and bytes) that land on nodes
/// they were not on before and therefore have to be copied over the network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Objects whose placement changed at all.
    pub objects_moved: u64,
    /// Chunks that moved to a node that did not hold them before.
    pub moved_chunks: u64,
    /// Bytes behind those chunks.
    pub moved_bytes: u64,
}

impl RebalanceReport {
    /// Accumulates another report into this one.
    pub fn absorb(&mut self, other: RebalanceReport) {
        self.objects_moved += other.objects_moved;
        self.moved_chunks += other.moved_chunks;
        self.moved_bytes += other.moved_bytes;
    }
}

/// A deterministic, seed-derived placement strategy.
///
/// Implementations are built for a concrete cluster (node count and seed,
/// via [`PlacementChoice::build`] or the strategy constructors) and must be
/// pure in `(object_id, view)` — two calls with the same arguments return
/// the same nodes. Load-aware strategies keep their load ledger inside
/// [`Placement::place_batch`], whose deterministic object order stands in
/// for arrival order.
pub trait Placement: std::fmt::Debug + Send + Sync {
    /// A short stable label (used as sweep-axis value and artifact key).
    fn name(&self) -> String;

    /// The `n` distinct **online** nodes hosting the chunks of `object_id`,
    /// in chunk order.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the number of online nodes in `view`, or if the
    /// view's node count disagrees with the cluster the strategy was built
    /// for.
    fn place(&self, object_id: u64, n: usize, view: &ClusterView) -> Vec<usize>;

    /// Places a whole batch in order. The default maps [`Placement::place`]
    /// over the batch; load-aware strategies override it to thread their
    /// load ledger through the batch deterministically.
    fn place_batch(&self, objects: &[(u64, usize)], view: &ClusterView) -> Vec<Vec<usize>> {
        objects
            .iter()
            .map(|&(id, n)| self.place(id, n, view))
            .collect()
    }

    /// The rebalance hook: how many chunks/bytes move when membership
    /// changes from `before` to `after`. The default re-places every object
    /// under both views and counts chunks that land on new nodes.
    fn on_membership_change(
        &self,
        objects: &[ObjectDesc],
        before: &ClusterView,
        after: &ClusterView,
    ) -> RebalanceReport {
        let batch: Vec<(u64, usize)> = objects.iter().map(|o| (o.id, o.n)).collect();
        let old = self.place_batch(&batch, before);
        let new = self.place_batch(&batch, after);
        let mut report = RebalanceReport::default();
        for ((object, old_nodes), new_nodes) in objects.iter().zip(&old).zip(&new) {
            let moved = new_nodes
                .iter()
                .filter(|node| !old_nodes.contains(node))
                .count() as u64;
            if moved > 0 {
                report.objects_moved += 1;
                report.moved_chunks += moved;
                report.moved_bytes += moved * object.chunk_bytes;
            }
        }
        report
    }
}

/// Strategy configuration, the form `ClusterConfig` and `SystemSpec` carry
/// and the one run-spec files name (`placement` / `placements` knobs; it
/// derives `Deserialize` for that). [`PlacementChoice::build`] turns it into
/// a boxed [`Placement`] for a concrete cluster.
#[derive(Debug, Clone, PartialEq, Eq, Deserialize)]
pub enum PlacementChoice {
    /// The legacy CRUSH-like placement-group map (the paper's baseline);
    /// `groups = None` uses the default 100 groups per node. Placements are
    /// bit-for-bit identical to the historical [`PlacementMap`] on a fully
    /// online cluster.
    RandomGroups {
        /// Explicit placement-group count, or `None` for the default.
        groups: Option<usize>,
    },
    /// A consistent-hash ring with `vnodes` virtual nodes per physical node.
    ConsistentHash {
        /// Virtual nodes per physical node (more = smoother balance).
        vnodes: usize,
    },
    /// Power-of-two-choices by chunk load, hashed candidates per slot.
    TwoChoices,
    /// XOR-proximity: nodes ranked by `node_key ^ object_key` (the overlay
    /// `find` of Kademlia-style storage simulations).
    XorProximity,
    /// Zone anti-affinity constraint wrapped around the consistent-hash
    /// ring: nodes are striped into `zones` zones round-robin and chunks
    /// spread across zones before doubling up in any one.
    AntiAffinity {
        /// Number of zones the nodes are striped into.
        zones: usize,
    },
}

impl Default for PlacementChoice {
    fn default() -> Self {
        PlacementChoice::RandomGroups { groups: None }
    }
}

impl PlacementChoice {
    /// A short stable label (sweep-axis value, artifact key).
    pub fn label(&self) -> String {
        match self {
            PlacementChoice::RandomGroups { .. } => "random".into(),
            PlacementChoice::ConsistentHash { vnodes } => format!("ring{vnodes}"),
            PlacementChoice::TwoChoices => "two_choice".into(),
            PlacementChoice::XorProximity => "xor".into(),
            PlacementChoice::AntiAffinity { zones } => format!("zones{zones}"),
        }
    }

    /// Instantiates the strategy for a cluster of `num_nodes` nodes with the
    /// given seed.
    ///
    /// # Panics
    ///
    /// Panics if `num_nodes == 0` or a strategy parameter is degenerate
    /// (zero `vnodes` or `zones`).
    pub fn build(&self, num_nodes: usize, seed: u64) -> Box<dyn Placement> {
        match *self {
            PlacementChoice::RandomGroups { groups } => {
                Box::new(RandomGroups::new(num_nodes, groups, seed))
            }
            PlacementChoice::ConsistentHash { vnodes } => {
                Box::new(ConsistentHashRing::new(num_nodes, vnodes, seed))
            }
            PlacementChoice::TwoChoices => Box::new(TwoChoices::new(num_nodes, seed)),
            PlacementChoice::XorProximity => Box::new(XorProximity::new(num_nodes, seed)),
            PlacementChoice::AntiAffinity { zones } => Box::new(AntiAffinity::new(
                zones,
                Box::new(ConsistentHashRing::new(num_nodes, 64, seed)),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_tracks_membership() {
        let view = ClusterView::all_online(4);
        assert_eq!(view.num_nodes(), 4);
        assert_eq!(view.online_count(), 4);
        let degraded = view.with_node_online(2, false);
        assert!(!degraded.is_online(2));
        assert!(degraded.is_online(1));
        assert_eq!(degraded.online_count(), 3);
        assert_eq!(degraded.online_nodes().collect::<Vec<_>>(), vec![0, 1, 3]);
        assert!(!degraded.is_online(99));
    }

    #[test]
    fn choice_labels_are_distinct_and_stable() {
        let choices = [
            PlacementChoice::default(),
            PlacementChoice::ConsistentHash { vnodes: 64 },
            PlacementChoice::TwoChoices,
            PlacementChoice::XorProximity,
            PlacementChoice::AntiAffinity { zones: 3 },
        ];
        let labels: Vec<String> = choices.iter().map(|c| c.label()).collect();
        assert_eq!(
            labels,
            vec!["random", "ring64", "two_choice", "xor", "zones3"]
        );
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }

    #[test]
    fn every_choice_builds_and_places() {
        for choice in [
            PlacementChoice::default(),
            PlacementChoice::ConsistentHash { vnodes: 16 },
            PlacementChoice::TwoChoices,
            PlacementChoice::XorProximity,
            PlacementChoice::AntiAffinity { zones: 4 },
        ] {
            let strategy = choice.build(8, 7);
            let view = ClusterView::all_online(8);
            let nodes = strategy.place(42, 5, &view);
            assert_eq!(nodes.len(), 5, "{}", strategy.name());
            let unique: std::collections::HashSet<_> = nodes.iter().collect();
            assert_eq!(unique.len(), 5, "{}", strategy.name());
        }
    }

    #[test]
    fn rebalance_report_absorbs() {
        let mut total = RebalanceReport::default();
        total.absorb(RebalanceReport {
            objects_moved: 1,
            moved_chunks: 2,
            moved_bytes: 200,
        });
        total.absorb(RebalanceReport {
            objects_moved: 3,
            moved_chunks: 4,
            moved_bytes: 400,
        });
        assert_eq!(total.objects_moved, 4);
        assert_eq!(total.moved_chunks, 6);
        assert_eq!(total.moved_bytes, 600);
    }
}

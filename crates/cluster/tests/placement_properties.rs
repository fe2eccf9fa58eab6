//! Property tests for the placement-strategy zoo.
//!
//! The anchor is the differential test proving the `RandomGroups` strategy
//! reproduces the legacy `PlacementMap` bit-for-bit — that identity is what
//! keeps every artifact generated before the strategy API byte-identical.
//! The rest are per-strategy properties: distinct online nodes, seed
//! stability, and bounded rebalance under single-node churn.

use sprout_cluster::placement::strategies::RandomGroups;
use sprout_cluster::{ClusterView, ObjectDesc, Placement, PlacementChoice, PlacementMap};

const NUM_NODES: usize = 12;
const OBJECTS: u64 = 500;

/// Every strategy on the axis, by its serde-able choice.
fn zoo() -> Vec<PlacementChoice> {
    vec![
        PlacementChoice::RandomGroups { groups: None },
        PlacementChoice::ConsistentHash { vnodes: 64 },
        PlacementChoice::TwoChoices,
        PlacementChoice::XorProximity,
        PlacementChoice::AntiAffinity { zones: 3 },
    ]
}

#[test]
fn random_groups_reproduces_the_legacy_placement_map_bit_for_bit() {
    let view = ClusterView::all_online(NUM_NODES);
    for seed in [0u64, 1, 42, 2016] {
        let legacy = PlacementMap::new(NUM_NODES, seed);
        let strategy = PlacementChoice::RandomGroups { groups: None }.build(NUM_NODES, seed);
        for n in [4usize, 7] {
            for id in 0..OBJECTS {
                assert_eq!(
                    legacy.place(id, n),
                    strategy.place(id, n, &view),
                    "seed {seed}, n {n}, object {id}"
                );
            }
        }
    }
}

#[test]
fn random_groups_reproduces_explicit_group_counts_too() {
    let view = ClusterView::all_online(NUM_NODES);
    let legacy = PlacementMap::with_groups(NUM_NODES, 256, 7);
    let strategy = PlacementChoice::RandomGroups { groups: Some(256) }.build(NUM_NODES, 7);
    let direct = RandomGroups::new(NUM_NODES, Some(256), 7);
    for id in 0..OBJECTS {
        assert_eq!(legacy.place(id, 7), strategy.place(id, 7, &view));
        assert_eq!(legacy.place(id, 7), direct.place(id, 7, &view));
    }
}

#[test]
fn every_strategy_places_n_distinct_online_nodes() {
    let full = ClusterView::all_online(NUM_NODES);
    let degraded = full.with_node_online(2, false).with_node_online(9, false);
    for choice in zoo() {
        let strategy = choice.build(NUM_NODES, 11);
        for view in [&full, &degraded] {
            for id in 0..OBJECTS {
                let nodes = strategy.place(id, 7, view);
                assert_eq!(nodes.len(), 7, "{}: object {id}", strategy.name());
                let mut unique = nodes.clone();
                unique.sort_unstable();
                unique.dedup();
                assert_eq!(unique.len(), 7, "{}: duplicate node", strategy.name());
                assert!(
                    nodes.iter().all(|&n| view.is_online(n)),
                    "{}: placed on an offline node",
                    strategy.name()
                );
            }
        }
    }
}

#[test]
fn every_strategy_is_seed_stable_and_seed_sensitive() {
    let view = ClusterView::all_online(NUM_NODES);
    for choice in zoo() {
        let a = choice.build(NUM_NODES, 5);
        let b = choice.build(NUM_NODES, 5);
        let c = choice.build(NUM_NODES, 6);
        let mut differs = false;
        for id in 0..200u64 {
            assert_eq!(
                a.place(id, 7, &view),
                b.place(id, 7, &view),
                "{}: same seed must reproduce",
                a.name()
            );
            differs |= a.place(id, 7, &view) != c.place(id, 7, &view);
        }
        assert!(differs, "{}: seed must matter", a.name());
    }
}

#[test]
fn batch_placement_matches_grid_shape_and_is_deterministic() {
    let view = ClusterView::all_online(NUM_NODES);
    let objects: Vec<(u64, usize)> = (0..OBJECTS).map(|id| (id, 7)).collect();
    for choice in zoo() {
        let strategy = choice.build(NUM_NODES, 3);
        let once = strategy.place_batch(&objects, &view);
        let twice = strategy.place_batch(&objects, &view);
        assert_eq!(
            once,
            twice,
            "{}: batch must be deterministic",
            strategy.name()
        );
        assert_eq!(once.len(), objects.len());
        assert!(once.iter().all(|p| p.len() == 7));
    }
}

#[test]
fn single_node_churn_rebalance_is_bounded() {
    let before = ClusterView::all_online(NUM_NODES);
    let after = before.with_node_online(4, false);
    let objects: Vec<ObjectDesc> = (0..OBJECTS)
        .map(|id| ObjectDesc {
            id,
            n: 7,
            chunk_bytes: 1 << 20,
        })
        .collect();
    for choice in zoo() {
        let strategy = choice.build(NUM_NODES, 13);
        let affected = (0..OBJECTS)
            .filter(|&id| strategy.place(id, 7, &before).contains(&4))
            .count() as u64;
        let report = strategy.on_membership_change(&objects, &before, &after);
        assert!(
            report.objects_moved >= affected,
            "{}: every object that lost a host must move",
            strategy.name()
        );
        assert!(
            report.moved_chunks <= 7 * OBJECTS,
            "{}: cannot move more than every chunk",
            strategy.name()
        );
        assert_eq!(report.moved_bytes, report.moved_chunks * (1 << 20));
        // Prefix-walk and ranking strategies are minimally disruptive: only
        // the objects that lost their host move, and each replaces exactly
        // the one lost chunk. (Two-choices re-runs its load ledger and the
        // zone wrapper re-stripes, so they may cascade further.)
        let minimal = matches!(
            choice,
            PlacementChoice::RandomGroups { .. }
                | PlacementChoice::ConsistentHash { .. }
                | PlacementChoice::XorProximity
        );
        if minimal {
            assert_eq!(
                report.objects_moved,
                affected,
                "{}: only objects that lost a host may move",
                strategy.name()
            );
            assert_eq!(
                report.moved_chunks,
                affected,
                "{}: exactly one replacement chunk per affected object",
                strategy.name()
            );
        }
    }
}

#[test]
fn recovery_rebalance_restores_the_original_placement() {
    // Down then up must be a round trip for pure (stateless) strategies:
    // re-placing under the recovered view equals the original placement, so
    // the recovery rebalance moves chunks straight back.
    let full = ClusterView::all_online(NUM_NODES);
    let degraded = full.with_node_online(4, false);
    for choice in zoo() {
        let strategy = choice.build(NUM_NODES, 17);
        for id in 0..200u64 {
            let original = strategy.place(id, 7, &full);
            let recovered = strategy.place(id, 7, &full);
            assert_eq!(original, recovered, "{}", strategy.name());
            // And the degraded placement never uses the down node.
            assert!(!strategy.place(id, 7, &degraded).contains(&4));
        }
    }
}

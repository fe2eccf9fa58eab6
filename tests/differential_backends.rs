//! Differential test between the analytic and byte-accurate backends.
//!
//! Chunk-source decisions (which requests are served by the cache and which
//! storage nodes serve the rest) are made by the engine from its own
//! planning RNG; backends only supply service times and bytes. Two runs with
//! the same seed — one on the analytic backend, one driving the real
//! `StoreHandle` — must therefore make **identical** decisions, while
//! the byte-accurate run additionally decodes and verifies every request's
//! actual coded bytes.
//!
//! For the Ceph-style LRU tier the engine's `LruTier` additionally decides
//! promotions and evictions and mirrors them into the store, so the
//! byte-accurate run must reproduce the *entire* hit/promotion/eviction
//! sequence and serve every declared hit from real cached data chunks.

use sprout::{CachePolicyChoice, SproutSystem, SystemSpec};
use sprout_sim::{Scenario, SimConfig};

fn system() -> SproutSystem {
    let spec = SystemSpec::builder()
        .node_service_rates(&[0.6, 0.6, 0.45, 0.45, 0.3, 0.3])
        .uniform_files(6, 2, 4, 0.04)
        .cache_capacity_chunks(6)
        .seed(3)
        .build()
        .unwrap();
    SproutSystem::new(spec).unwrap()
}

#[test]
fn analytic_and_byte_backends_make_identical_chunk_source_decisions() {
    let system = system();
    let plan = system.optimize().unwrap();
    let config = SimConfig::new(15_000.0, 77).with_slot_length(5.0);
    let sim = system.simulation(CachePolicyChoice::Functional, Some(&plan), config);

    let analytic = sim.run();
    let mut backend = system
        .byte_backend(CachePolicyChoice::Functional, Some(&plan), 77)
        .unwrap();
    let byte = sim.run_on(&mut backend);

    // Identical decisions, slot by slot...
    assert_eq!(analytic.slots.cache_chunks.len(), 3_000);
    assert_eq!(analytic.slots, byte.slots, "chunk-source slot counts");
    assert_eq!(
        analytic.node_chunks_served, byte.node_chunks_served,
        "per-node chunk assignments"
    );
    assert_eq!(analytic.completed_requests, byte.completed_requests);
    assert_eq!(analytic.full_cache_hits, byte.full_cache_hits);
    assert_eq!(analytic.failed_requests, 0);
    assert_eq!(byte.failed_requests, 0);

    // ...and every byte-accurate request decoded back to the original bytes.
    assert_eq!(byte.reconstruction_failures, 0);
    assert_eq!(backend.failed_reconstructions(), 0);
    assert_eq!(
        backend.verified_reconstructions(),
        byte.completed_requests,
        "every completed request must be byte-verified"
    );
    assert!(byte.completed_requests > 500, "the run must be non-trivial");
}

#[test]
fn decisions_stay_identical_under_a_node_failure_scenario() {
    let system = system();
    let plan = system.optimize().unwrap();
    let config = SimConfig::new(12_000.0, 5).with_slot_length(5.0);
    let scenario = Scenario::default()
        .node_down(4_000.0, 0)
        .node_up(8_000.0, 0);
    let sim = system
        .simulation(CachePolicyChoice::Functional, Some(&plan), config)
        .with_scenario(scenario);

    let analytic = sim.run();
    let mut backend = system
        .byte_backend(CachePolicyChoice::Functional, Some(&plan), 5)
        .unwrap();
    let byte = sim.run_on(&mut backend);

    assert_eq!(analytic.slots, byte.slots);
    assert_eq!(analytic.node_chunks_served, byte.node_chunks_served);
    assert_eq!(analytic.completed_requests, byte.completed_requests);
    assert_eq!(analytic.failed_requests, byte.failed_requests);
    assert_eq!(
        byte.reconstruction_failures, 0,
        "degraded reads reconstruct"
    );
}

#[test]
fn without_a_cache_both_backends_produce_the_same_report() {
    // Without cache reads every random draw of the byte backend is a node
    // service time, taken from the same per-node streams as the analytic
    // backend's: the two reports are equal field by field, latencies
    // included, through a node failure and recovery.
    let system = system();
    let config = SimConfig::new(12_000.0, 9).with_slot_length(5.0);
    let scenario = Scenario::default()
        .node_down(4_000.0, 2)
        .node_up(8_000.0, 2);
    let sim = system
        .simulation(CachePolicyChoice::NoCache, None, config)
        .with_scenario(scenario);

    let analytic = sim.run();
    let mut backend = system
        .byte_backend(CachePolicyChoice::NoCache, None, 9)
        .unwrap();
    let byte = sim.run_on(&mut backend);

    assert_eq!(analytic, byte);
    assert_eq!(backend.verified_reconstructions(), byte.completed_requests);
    assert!(byte.completed_requests > 500, "the run must be non-trivial");
}

#[test]
fn node_utilization_is_backend_independent_under_functional_caching() {
    // Cache reads draw from the byte backend's own stream, so latencies
    // differ between the backends, but every node serves the same reads
    // with the same service times.
    let system = system();
    let plan = system.optimize().unwrap();
    let config = SimConfig::new(12_000.0, 17);
    let sim = system.simulation(CachePolicyChoice::Functional, Some(&plan), config);

    let analytic = sim.run();
    let mut backend = system
        .byte_backend(CachePolicyChoice::Functional, Some(&plan), 17)
        .unwrap();
    let byte = sim.run_on(&mut backend);

    let bits = |u: &[f64]| u.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&analytic.node_utilization),
        bits(&byte.node_utilization)
    );
    assert!(analytic.slots.cache_total > 0, "the plan must cache chunks");
    assert_eq!(byte.reconstruction_failures, 0);
}

#[test]
fn lru_tier_decisions_are_identical_and_byte_verified() {
    // The paper's baseline, byte-accurate: the engine's LruTier is the single
    // source of truth for hit/miss/promotion/eviction decisions, mirrored
    // into the store's cache, so the analytic and byte runs must agree on
    // the full decision sequence while the byte run decodes every request
    // (hits from real cached data chunks, misses from storage chunks).
    let system = system();
    let config = SimConfig::new(15_000.0, 21).with_slot_length(5.0);
    let sim = system.simulation(CachePolicyChoice::LruReplicated, None, config);

    let analytic = sim.run();
    let mut backend = system
        .byte_backend(CachePolicyChoice::LruReplicated, None, 21)
        .unwrap();
    let byte = sim.run_on(&mut backend);

    // Identical hit/miss decisions...
    assert_eq!(analytic.slots, byte.slots, "chunk-source slot counts");
    assert_eq!(analytic.node_chunks_served, byte.node_chunks_served);
    assert_eq!(analytic.completed_requests, byte.completed_requests);
    assert_eq!(analytic.full_cache_hits, byte.full_cache_hits);
    // ...and the identical promotion/eviction sequence, mirrored 1:1 into
    // the store's cache tier.
    assert_eq!(analytic.cache_promotions, byte.cache_promotions);
    assert_eq!(analytic.cache_evictions, byte.cache_evictions);
    assert_eq!(backend.tier_promotions(), byte.cache_promotions);
    assert_eq!(backend.tier_evictions(), byte.cache_evictions);
    assert_eq!(backend.tier_mirror_failures(), 0);

    // The run must exercise the tier: hits, promotions and capacity churn.
    assert!(analytic.full_cache_hits > 0, "LRU hits must occur");
    assert!(analytic.cache_promotions > 1, "objects must be promoted");
    assert!(
        analytic.cache_evictions > 0,
        "the tier must evict under churn"
    );

    // Every request — hit or miss — decoded back to the original bytes.
    assert_eq!(byte.reconstruction_failures, 0);
    assert_eq!(backend.failed_reconstructions(), 0);
    assert_eq!(backend.verified_reconstructions(), byte.completed_requests);
    assert!(byte.completed_requests > 500, "the run must be non-trivial");

    // The mirrored residency stays within the engine tier's object count.
    let resident = backend.store().cache_stats();
    assert_eq!(resident.promotions, byte.cache_promotions);
    assert_eq!(resident.evictions, byte.cache_evictions);
}

#[test]
fn byte_backend_validates_plan_requirements() {
    let system = system();
    let plan = system.optimize().unwrap();
    // Planned policies need a plan.
    assert!(system
        .byte_backend(CachePolicyChoice::Functional, None, 1)
        .is_err());
    // Every policy is supported once its inputs are in place — including the
    // formerly-rejected LRU tier.
    assert!(system
        .byte_backend(CachePolicyChoice::NoCache, None, 1)
        .is_ok());
    assert!(system
        .byte_backend(CachePolicyChoice::Exact, Some(&plan), 1)
        .is_ok());
    assert!(system
        .byte_backend(CachePolicyChoice::LruReplicated, None, 1)
        .is_ok());
}

#[test]
fn swapping_to_the_lru_scheme_mid_run_stays_byte_verified() {
    // A scenario flips the running system from no caching to the LRU tier;
    // the byte backend drops its cache cold and then mirrors the fresh
    // tier's decisions, so every request still decode-verifies.
    let system = system();
    let config = SimConfig::new(10_000.0, 13).with_slot_length(5.0);
    let scenario = sprout_sim::Scenario::default().swap_scheme(
        5_000.0,
        sprout_sim::CacheScheme::ceph_lru(system.spec().cache_capacity_chunks),
    );
    let sim = system
        .simulation(CachePolicyChoice::NoCache, None, config)
        .with_scenario(scenario);

    let analytic = sim.run();
    let mut backend = system
        .byte_backend(CachePolicyChoice::NoCache, None, 13)
        .unwrap();
    let byte = sim.run_on(&mut backend);

    assert_eq!(analytic.slots, byte.slots);
    assert_eq!(analytic.cache_promotions, byte.cache_promotions);
    assert!(
        byte.cache_promotions > 0,
        "the swapped-in tier must promote"
    );
    assert_eq!(byte.reconstruction_failures, 0);
    assert_eq!(backend.tier_mirror_failures(), 0);
    assert_eq!(backend.verified_reconstructions(), byte.completed_requests);
}

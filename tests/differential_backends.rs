//! Differential test between the analytic and byte-accurate backends.
//!
//! Chunk-source decisions (which requests are served by the cache and which
//! storage nodes serve the rest) and node service times come from the
//! engine's own RNG streams; backends only settle bytes. Two runs with the
//! same seed — one with abstract chunks, one settling on the real
//! `StoreHandle` — must therefore make **identical** decisions, while
//! the byte-accurate run additionally decodes and verifies every request's
//! actual coded bytes.
//!
//! For the Ceph-style LRU tier the engine's `LruTier` additionally decides
//! promotions and evictions, so the byte-accurate run must reproduce the
//! *entire* hit/promotion/eviction sequence and decode every declared hit
//! from the object's real data chunks.

use sprout::{CachePolicy, SproutSystem, SystemSpec};
use sprout_sim::{Scenario, SimConfig, SimReport, Simulation};

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

/// Runs `sim` with abstract chunks and on the byte backend built from its
/// own scheme and seed.
fn run_both(system: &SproutSystem, sim: &Simulation) -> (SimReport, SimReport) {
    let mut backend = system
        .byte_backend(sim.scheme(), sim.config().seed)
        .unwrap();
    let byte = sim.run_on(&mut backend);
    (sim.run(), byte)
}

#[test]
fn analytic_and_byte_backends_make_identical_chunk_source_decisions() {
    let system = system();
    let plan = system.optimize().unwrap();
    let config = SimConfig::new(15_000.0, 77).with_slot_length(5.0);
    let sim = system.simulation(CachePolicy::Functional, Some(&plan), config);

    let (analytic, byte) = run_both(&system, &sim);

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
    assert_eq!(
        byte.reconstruction_failures, 0,
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
        .simulation(CachePolicy::Functional, Some(&plan), config)
        .with_scenario(scenario);

    let (analytic, byte) = run_both(&system, &sim);

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
    // Without cache reads the byte backend draws nothing, and node service
    // comes from the engine's per-node streams in both runs: the two
    // reports are equal field by field, latencies included, through a node
    // failure and recovery.
    let system = system();
    let config = SimConfig::new(12_000.0, 9).with_slot_length(5.0);
    let scenario = Scenario::default()
        .node_down(4_000.0, 2)
        .node_up(8_000.0, 2);
    let sim = system
        .simulation(CachePolicy::None, None, config)
        .with_scenario(scenario);

    let (analytic, byte) = run_both(&system, &sim);

    assert_eq!(analytic, byte);
    assert_eq!(byte.reconstruction_failures, 0);
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
    let sim = system.simulation(CachePolicy::Functional, Some(&plan), config);

    let (analytic, byte) = run_both(&system, &sim);

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
    // source of truth for hit/miss/promotion/eviction decisions, so the
    // analytic and byte runs must agree on the full decision sequence while
    // the byte run decodes every request (hits from the object's data rows,
    // misses from the storage chunks the engine chose).
    let system = system();
    let config = SimConfig::new(15_000.0, 21).with_slot_length(5.0);
    let sim = system.simulation(CachePolicy::LruReplicated, None, config);

    let (analytic, byte) = run_both(&system, &sim);

    // Identical hit/miss decisions...
    assert_eq!(analytic.slots, byte.slots, "chunk-source slot counts");
    assert_eq!(analytic.node_chunks_served, byte.node_chunks_served);
    assert_eq!(analytic.completed_requests, byte.completed_requests);
    assert_eq!(analytic.full_cache_hits, byte.full_cache_hits);
    // ...and the identical promotion/eviction sequence.
    assert_eq!(analytic.cache_promotions, byte.cache_promotions);
    assert_eq!(analytic.cache_evictions, byte.cache_evictions);

    // The run must exercise the tier: hits, promotions and capacity churn.
    assert!(analytic.full_cache_hits > 0, "LRU hits must occur");
    assert!(analytic.cache_promotions > 1, "objects must be promoted");
    assert!(
        analytic.cache_evictions > 0,
        "the tier must evict under churn"
    );

    // Every request — hit or miss — decoded back to the original bytes.
    assert_eq!(byte.reconstruction_failures, 0);
    assert!(byte.completed_requests > 500, "the run must be non-trivial");
}

#[test]
fn byte_backend_validates_plan_requirements() {
    let system = system();
    let plan = system.optimize().unwrap();
    // A planned scheme carries its plan, so a missing plan cannot reach the
    // backend. Every scheme is supported and installs cleanly — including
    // the formerly-rejected LRU tier.
    for policy in [
        CachePolicy::None,
        CachePolicy::Functional,
        CachePolicy::Exact,
        CachePolicy::LruReplicated,
    ] {
        let scheme = system.cache_scheme(policy, Some(&plan)).unwrap();
        assert!(system.byte_backend(&scheme, 1).is_ok(), "{policy:?}");
    }
}

#[test]
fn swapping_to_the_lru_scheme_mid_run_stays_byte_verified() {
    // A scenario flips the running system from no caching to the LRU tier;
    // the byte backend then settles the fresh tier's hits from the stored
    // data rows, so every request still decode-verifies.
    let system = system();
    let config = SimConfig::new(10_000.0, 13).with_slot_length(5.0);
    let scenario = sprout_sim::Scenario::default().swap_scheme(
        5_000.0,
        sprout_sim::CacheScheme::LruReplicated {
            capacity_chunks: system.spec().cache_capacity_chunks,
        },
    );
    let sim = system
        .simulation(CachePolicy::None, None, config)
        .with_scenario(scenario);

    let (analytic, byte) = run_both(&system, &sim);

    assert_eq!(analytic.slots, byte.slots);
    assert_eq!(analytic.cache_promotions, byte.cache_promotions);
    assert!(
        byte.cache_promotions > 0,
        "the swapped-in tier must promote"
    );
    assert!(byte.full_cache_hits > 0, "the swapped-in tier must hit");
    assert_eq!(byte.reconstruction_failures, 0);
}

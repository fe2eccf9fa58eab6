//! Cross-policy latency ordering: the qualitative claims of the paper's
//! evaluation must hold in our reproduction.
//!
//! * Functional caching is no worse than exact caching with the same chunk
//!   counts (§I: "the latency with functional caching is no higher than the
//!   strategy where part of the chunks on the servers are cached as such").
//! * Optimized functional caching beats the LRU whole-object baseline when
//!   the cache cannot hold the working set (the Fig. 10/11 comparison).
//! * Every caching policy beats no caching.

use sprout::{SproutSystem, SystemSpec};

fn system(cache_chunks: usize, rate: f64) -> SproutSystem {
    let spec = SystemSpec::builder()
        .node_service_rates(&[0.55, 0.55, 0.45, 0.45, 0.35, 0.35])
        .uniform_files(12, 2, 4, rate)
        .cache_capacity_chunks(cache_chunks)
        .seed(23)
        .build()
        .unwrap();
    SproutSystem::new(spec).unwrap()
}

#[test]
fn functional_beats_or_matches_exact_caching() {
    let system = system(8, 0.04);
    let plan = system.optimize().unwrap();
    let cmp = system.compare_policies(&plan, 80_000.0, 13).unwrap();
    assert!(
        cmp.functional.overall.mean <= cmp.exact.overall.mean * 1.05,
        "functional {} should not lose to exact {}",
        cmp.functional.overall.mean,
        cmp.exact.overall.mean
    );
}

#[test]
fn functional_beats_lru_when_cache_is_scarce() {
    // 12 files x 2 chunks = 24 chunks of demand; an 8-chunk cache (and LRU's
    // dual replication makes it effectively 4 objects) cannot hold the
    // working set, which is where optimized partial caching wins.
    let system = system(8, 0.05);
    let plan = system.optimize().unwrap();
    let cmp = system.compare_policies(&plan, 80_000.0, 29).unwrap();
    assert!(
        cmp.functional.overall.mean < cmp.lru.overall.mean,
        "functional {} should beat LRU {}",
        cmp.functional.overall.mean,
        cmp.lru.overall.mean
    );
    // The paper reports ~25 % average improvement; we only require a clear win.
    assert!(cmp.improvement_over_lru() > 0.05);
}

#[test]
fn every_caching_policy_beats_no_cache() {
    let system = system(8, 0.05);
    let plan = system.optimize().unwrap();
    let cmp = system.compare_policies(&plan, 60_000.0, 31).unwrap();
    assert!(cmp.functional.overall.mean < cmp.no_cache.overall.mean);
    assert!(cmp.exact.overall.mean < cmp.no_cache.overall.mean);
    assert!(cmp.lru.overall.mean <= cmp.no_cache.overall.mean * 1.02);
}

#[test]
fn latency_grows_with_load_for_every_policy() {
    let light = system(8, 0.02);
    let heavy = system(8, 0.06);
    let plan_light = light.optimize().unwrap();
    let plan_heavy = heavy.optimize().unwrap();
    let cmp_light = light.compare_policies(&plan_light, 50_000.0, 37).unwrap();
    let cmp_heavy = heavy.compare_policies(&plan_heavy, 50_000.0, 37).unwrap();
    assert!(cmp_heavy.functional.overall.mean > cmp_light.functional.overall.mean);
    assert!(cmp_heavy.no_cache.overall.mean > cmp_light.no_cache.overall.mean);
    assert!(cmp_heavy.lru.overall.mean > cmp_light.lru.overall.mean);
}

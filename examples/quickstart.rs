//! Quickstart: optimize a functional-cache placement for a small cluster and
//! validate it by simulation.
//!
//! Run with `cargo run --example quickstart`.

use sprout::{CachePolicy, SproutSystem, SystemSpec};

fn main() -> Result<(), sprout::SproutError> {
    // A cluster of 6 heterogeneous storage nodes (chunk service rates in
    // chunks/second) holding 12 files coded with a (4, 2) MDS code, and a
    // compute-server cache that can hold 8 chunks.
    let spec = SystemSpec::builder()
        .node_service_rates(&[0.60, 0.60, 0.45, 0.45, 0.30, 0.30])
        .uniform_files(12, 2, 4, 0.03)
        .cache_capacity_chunks(8)
        .seed(42)
        .build()?;
    let system = SproutSystem::new(spec)?;

    // Run Algorithm 1: choose d_i (cached chunks per file) and pi_{i,j}
    // (request-scheduling probabilities) to minimize the mean-latency bound.
    let plan = system.optimize()?;
    println!("== Sprout quickstart ==");
    println!("cache chunks used      : {}", plan.cache_chunks_used());
    println!("analytic latency bound : {:.3} s", plan.objective);
    println!("outer iterations       : {}", plan.trace.outer_iterations());
    println!("cached chunks per file : {:?}", plan.cached_chunks);

    // Validate with the discrete-event simulator and compare against the
    // no-cache configuration and Ceph's LRU cache-tier baseline.
    let cmp = system.compare_policies(&plan, 50_000.0, 7)?;
    let policies = [
        (
            "functional caching",
            CachePolicy::Functional,
            &cmp.functional,
        ),
        ("exact caching", CachePolicy::Exact, &cmp.exact),
        ("LRU cache tier", CachePolicy::LruReplicated, &cmp.lru),
        ("no cache", CachePolicy::None, &cmp.no_cache),
    ];
    // Each scheme's Lemma 1 bound, at the reads the simulator samples (the
    // LRU tier has no model).
    println!("\nsimulated mean latency (Lemma 1 bound):");
    for (name, policy, report) in policies {
        let bound = system.bound(&system.cache_scheme(policy, Some(&plan))?)?;
        let bound = bound.map_or("no model".into(), |b| format!("{:.3} s", b.objective));
        println!("  {name:<21}: {:.3} s ({bound})", report.overall.mean);
    }
    println!(
        "  improvement over LRU : {:.1} %",
        cmp.improvement_over_lru() * 100.0
    );
    Ok(())
}

//! Video-on-demand proxy caching — the motivating scenario of the paper's
//! introduction (Fig. 1): a video library with Zipf-skewed popularity where
//! ~20 % of the titles receive ~80 % of the requests, stored with a (7, 4)
//! erasure code behind a proxy cache.
//!
//! The example shows how the optimizer apportions the cache across titles —
//! hot titles get several functional chunks, cold ones none — and how much
//! latency that saves compared with caching whole files LRU-style.
//!
//! Run with `cargo run --example video_cdn`.

use sprout::workload::zipf::ZipfPopularity;
use sprout::{FileConfig, SproutSystem, SystemSpec};

fn main() -> Result<(), sprout::SproutError> {
    let num_titles = 40;
    let aggregate_rate = 0.9; // requests per second across the whole library
    let popularity = ZipfPopularity::new(num_titles, 1.1);
    let rates = popularity.arrival_rates(aggregate_rate);

    // 12 storage nodes with the paper's measured heterogeneous service rates,
    // scaled up because video chunks are read at proxy speed.
    let node_rates: Vec<f64> = sprout::workload::spec::paper_server_service_rates()
        .into_iter()
        .map(|r| r * 10.0)
        .collect();

    let mut builder = SystemSpec::builder();
    builder
        .node_service_rates(&node_rates)
        .cache_capacity_chunks(40)
        .seed(2024);
    for &rate in &rates {
        builder.file(FileConfig::new(
            rate,
            7,
            4,
            100 * sprout::workload::spec::MB,
        ));
    }
    let system = SproutSystem::new(builder.build()?)?;

    let plan = system.optimize()?;
    println!("== Video CDN functional caching ==");
    println!(
        "top-8 titles hold {:.0}% of the traffic",
        popularity.head_mass(8) * 100.0
    );
    println!(
        "cache capacity: 40 chunks; used: {}",
        plan.cache_chunks_used()
    );
    println!("\nrank  arrival-rate  cached-chunks  latency-bound");
    for rank in [0usize, 1, 2, 3, 7, 15, 31, 39] {
        println!(
            "{:>4}  {:>11.4}  {:>13}  {:>12.3}s",
            rank, rates[rank], plan.cached_chunks[rank], plan.per_file_latency[rank]
        );
    }

    let cmp = system.compare_policies(&plan, 20_000.0, 3)?;
    println!("\nsimulated mean latency across the library:");
    println!(
        "  functional caching : {:.3} s",
        cmp.functional.overall.mean
    );
    println!("  LRU whole-object   : {:.3} s", cmp.lru.overall.mean);
    println!("  no cache           : {:.3} s", cmp.no_cache.overall.mean);
    println!(
        "  functional vs LRU  : {:.1} % lower",
        cmp.improvement_over_lru() * 100.0
    );

    // Show that the hottest title is mostly cache-resident while the coldest
    // is served from storage only.
    let hottest = plan.cached_chunks[0];
    let coldest = plan.cached_chunks[num_titles - 1];
    println!("\nhottest title caches {hottest} chunks; coldest caches {coldest}");
    Ok(())
}

//! Time-varying workload: re-optimize the cache at every time bin.
//!
//! Reproduces the structure of the paper's Table I / Fig. 5 experiment: ten
//! files whose arrival rates change over three time bins; the cache content
//! follows the load (files whose rate increases gain chunks, files whose
//! rate drops lose them), with evictions at the bin boundary and lazy fills
//! on first access.
//!
//! Run with `cargo run --example time_varying_workload`.

use sprout::optimizer::OptimizerConfig;
use sprout::scenario::cache_transition;
use sprout::workload::timebins::table_i_schedule;
use sprout::{CachePolicy, ScenarioSpec, SproutSystem, SystemSpec};

fn main() -> Result<(), sprout::SproutError> {
    // Ten 100 MB files with a (7, 4) code on the paper's 12 servers, cache of
    // 12 chunks so that contention between files is visible.
    let spec = SystemSpec::builder()
        .paper_servers()
        .uniform_files(10, 4, 7, 0.000_15)
        .cache_capacity_chunks(12)
        .seed(5)
        .build()?;
    let system = SproutSystem::new(spec)?;

    // The three-bin schedule of Table I (rates scaled up so that the cache
    // decisions are visible at simulation scale).
    let schedule = table_i_schedule(100.0).scaled(100.0);
    let bins = schedule.bins();

    // Bin 1 runs the optimized plan; each later bin re-plans at its boundary
    // (a rate shift and a `Reoptimize`), from the plan in force.
    let first = system.with_arrival_rates(&bins[0].rates)?;
    let plan = first.optimize()?;
    let scenario = ScenarioSpec::time_bins("table_i", &schedule).compile(
        &first,
        CachePolicy::Functional,
        Some(&plan),
        &OptimizerConfig::default(),
    )?;
    let initial = first.cache_scheme(CachePolicy::Functional, Some(&plan))?;
    let schemes = std::iter::once(&initial).chain(scenario.swapped_schemes());

    println!("== Cache evolution across time bins (Table I scenario) ==");
    let mut previous: Option<Vec<usize>> = None;
    for (bin, (timebin, scheme)) in bins.iter().zip(schemes).enumerate() {
        let plan = system
            .with_arrival_rates(&timebin.rates)?
            .bound(scheme)?
            .expect("a planned scheme has a bound");
        println!("\n-- time bin {} --", bin + 1);
        println!("file :  1   2   3   4   5   6   7   8   9  10");
        let rates: Vec<String> = timebin
            .rates
            .iter()
            .map(|r| format!("{:.0}", r * 1e4))
            .collect();
        println!("rate (1e-4/s): {}", rates.join("  "));
        let chunks: Vec<String> = plan
            .cached_chunks
            .iter()
            .map(|c| format!("{c:>3}"))
            .collect();
        println!("cached chunks: {}", chunks.join(" "));
        println!(
            "latency bound: {:.2} s, cache used {}/{}",
            plan.objective,
            plan.cache_chunks_used(),
            12
        );
        if let Some(before) = &previous {
            let (evicted, filled) = cache_transition(before, &plan.cached_chunks);
            println!(
                "transition: {evicted} chunks evicted at the boundary, \
                 {filled} filled lazily on access"
            );
        }
        previous = Some(plan.cached_chunks);
    }
    Ok(())
}

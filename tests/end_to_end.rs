//! End-to-end integration tests across the whole workspace: spec → optimizer
//! → analytic bound → discrete-event simulation → byte-level cluster.

use sprout::cluster::{CachePolicy, ClusterConfig, DeviceModel, StoreHandle};
use sprout::optimizer::OptimizerConfig;
use sprout::sim::{CacheScheme, PlannedCache, SimConfig, SimFile, Simulation};
use sprout::{SproutSystem, SystemSpec};

fn build_system(files: usize, cache_chunks: usize) -> SproutSystem {
    let spec = SystemSpec::builder()
        .node_service_rates(&[0.6, 0.6, 0.5, 0.5, 0.4, 0.4, 0.3, 0.3])
        .uniform_files(files, 2, 4, 0.03)
        .cache_capacity_chunks(cache_chunks)
        .seed(17)
        .build()
        .unwrap();
    SproutSystem::new(spec).unwrap()
}

#[test]
fn analytic_bound_upper_bounds_simulated_latency_end_to_end() {
    // Every scheme with known read marginals, simulated as it is bounded:
    // functional caching with the plan's π and with uniform reads, exact
    // caching, and no cache.
    let system = build_system(10, 10);
    let plan = system.optimize().unwrap();
    let files: Vec<SimFile> = (system.spec().files.iter().zip(system.placements()))
        .map(|(f, p)| SimFile::new(f.arrival_rate, f.k, p.clone()))
        .collect();
    // The plan's cache counts read uniformly: (k − d) / n from each host.
    let uniform = PlannedCache {
        cached_chunks: plan.cached_chunks.clone(),
        scheduling: (files.iter().zip(&plan.cached_chunks))
            .map(|(f, &d)| {
                let n = f.placement.len();
                vec![(f.k - d) as f64 / n as f64; n]
            })
            .collect(),
    };
    let schemes = [
        system
            .cache_scheme(CachePolicy::Functional, Some(&plan))
            .unwrap(),
        CacheScheme::Functional(uniform),
        system
            .cache_scheme(CachePolicy::Exact, Some(&plan))
            .unwrap(),
        CacheScheme::NoCache,
    ];
    for (i, scheme) in schemes.into_iter().enumerate() {
        let bound = system.bound(&scheme).unwrap().unwrap().objective;
        if i == 0 {
            assert_eq!(
                bound, plan.objective,
                "functional caching's bound is its plan's"
            );
        }
        let nodes = system.spec().node_services.clone();
        let config = SimConfig::new(120_000.0, 9);
        let report = Simulation::new(nodes, files.clone(), scheme.clone(), config).run();
        assert!(report.completed_requests > 2_000);
        assert!(
            bound >= report.overall.mean * 0.95,
            "{scheme:?}: bound {bound} vs simulated {}",
            report.overall.mean
        );
    }
}

#[test]
fn more_cache_never_hurts_the_analytic_objective() {
    let mut prev = f64::INFINITY;
    for cache in [0usize, 4, 8, 16, 20] {
        let system = build_system(10, cache);
        let plan = system.optimize().unwrap();
        assert!(
            plan.objective <= prev + 0.05,
            "objective should not increase with cache size: {} -> {}",
            prev,
            plan.objective
        );
        prev = prev.min(plan.objective);
    }
}

#[test]
fn optimizer_plan_is_feasible_for_the_cluster_substrate() {
    // The plan computed by the abstract optimizer can actually be installed
    // into the byte-level store and every object stays readable.
    let system = build_system(8, 6);
    let plan = system.optimize().unwrap();

    let chunk_bytes = 1024u64;
    let config = ClusterConfig::builder()
        .nodes(8)
        .code(4, 2)
        .uniform_device(DeviceModel::exponential(0.01))
        .cache_policy(CachePolicy::Functional)
        .cache_capacity_bytes(6 * chunk_bytes)
        .seed(17)
        .build();
    let store = StoreHandle::new(config).unwrap();

    for (i, placement) in system.placements().iter().enumerate() {
        let data: Vec<u8> = (0..2 * chunk_bytes as usize)
            .map(|b| (b + i) as u8)
            .collect();
        store
            .put_with_placement(i as u64, &data, placement.clone())
            .unwrap();
    }
    store.install_plan(&plan.cached_chunks).unwrap();
    for (i, &d) in plan.cached_chunks.iter().enumerate() {
        let out = store.get(i as u64, 0.0).unwrap();
        assert_eq!(out.cache_chunks_used, d.min(2));
        assert_eq!(out.data.len(), 2 * chunk_bytes as usize);
    }
    assert!(store.cache().used_bytes() <= 6 * chunk_bytes);
}

#[test]
fn fast_config_still_produces_valid_plans() {
    let system = build_system(12, 8);
    let plan = system.optimize_with(&OptimizerConfig::fast()).unwrap();
    assert!(plan.cache_chunks_used() <= 8);
    for (i, row) in plan.scheduling.iter().enumerate() {
        let sum: f64 = row.iter().sum();
        let expected = system.model().files()[i].k as f64 - plan.cached_chunks[i] as f64;
        assert!(
            (sum - expected).abs() < 1e-3,
            "file {i}: {sum} vs {expected}"
        );
    }
}

#[test]
fn full_cache_capacity_caches_everything_and_zeroes_latency() {
    let system = build_system(6, 100);
    let plan = system.optimize().unwrap();
    assert!(plan.objective < 1e-6);
    let scheme = system
        .cache_scheme(CachePolicy::Functional, Some(&plan))
        .unwrap();
    let report = system.simulation(scheme, SimConfig::new(5_000.0, 4)).run();
    assert_eq!(report.overall.mean, 0.0);
    assert_eq!(report.full_cache_hits, report.completed_requests);
}

//! Workspace-wiring smoke test: exercises the public `sprout` facade
//! end-to-end (build a spec, optimize a cache plan, validate by simulation)
//! so the re-export surface promised by `core/src/lib.rs` is itself under
//! test. If a re-export disappears or a layer crate is unplugged from the
//! workspace, this file stops compiling.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use sprout::{CachePolicy, ScenarioSpec, SproutSystem, SystemSpec};

/// The spec builder, optimizer and simulator are reachable through the
/// facade alone, and the pipeline produces self-consistent numbers.
#[test]
fn facade_spec_optimize_simulate_pipeline() {
    let spec = SystemSpec::builder()
        .node_service_rates(&[0.5, 0.5, 0.4, 0.4, 0.3, 0.3])
        .uniform_files(8, 2, 4, 0.04)
        .cache_capacity_chunks(8)
        .build()
        .expect("spec is valid");
    let system = SproutSystem::new(spec).expect("system builds from spec");

    let plan = system.optimize().expect("optimization succeeds");
    assert!(
        plan.cache_chunks_used() <= 8,
        "plan respects cache capacity"
    );
    assert!(plan.objective > 0.0, "latency bound is positive");

    let report = system.simulate(CachePolicy::Functional, Some(&plan), 20_000.0, 7);
    assert!(report.completed_requests > 0, "simulation served requests");
    assert!(
        report.overall.mean <= plan.objective * 1.1 + 0.5,
        "simulated mean {} should be consistent with bound {}",
        report.overall.mean,
        plan.objective
    );
}

/// Every layer crate re-exported by the facade is actually the crate the
/// rest of the workspace links against (type identity across re-exports).
#[test]
fn facade_reexports_are_usable() {
    // Coding layer.
    let params = sprout::erasure::CodeParams::new(4, 2).expect("(4, 2) is a valid code");
    let rs = sprout::erasure::ReedSolomon::new(params).expect("code constructs");
    let encoded = rs.encode(&[1, 2, 3, 4]).expect("encode succeeds");
    let chunks = encoded.chunks();
    assert_eq!(chunks.len(), 4);
    let decoded = rs.decode(&chunks[..2], 4).expect("any k chunks decode");
    assert_eq!(decoded, vec![1, 2, 3, 4]);

    // Field layer.
    let a = sprout::gf::Gf256::new(7);
    let b = sprout::gf::Gf256::new(9);
    assert_eq!(a + b, b + a);

    // Analysis layer.
    let dist = sprout::queueing::dist::ServiceDistribution::exponential(0.5);
    assert!((dist.mean() - 2.0).abs() < 1e-12);

    // Workload layer.
    let schedule = sprout::workload::timebins::table_i_schedule(50.0);
    assert!(!schedule.is_empty(), "Table I schedule has bins");
}

/// A time-binned schedule re-plans the cache at every bin boundary through
/// the facade's scenario compiler.
#[test]
fn facade_time_bins_replan_each_bin() {
    let spec = SystemSpec::builder()
        .node_service_rates(&[0.5, 0.5, 0.4, 0.4])
        .uniform_files(4, 2, 4, 0.02)
        .cache_capacity_chunks(4)
        .build()
        .expect("spec is valid");
    let system = SproutSystem::new(spec).expect("system builds");
    let schedule = sprout::workload::timebins::RateSchedule::new(vec![
        sprout::workload::timebins::TimeBin::new(50.0, vec![0.02; 4]),
        sprout::workload::timebins::TimeBin::new(50.0, vec![0.03; 4]),
    ]);
    let plan = system.optimize().expect("bin 1 optimizes");
    let scenario = ScenarioSpec::time_bins("two bins", &schedule)
        .compile(
            &system,
            CachePolicy::Functional,
            Some(&plan),
            &sprout::optimizer::OptimizerConfig::default(),
        )
        .expect("all bins optimize");
    assert_eq!(
        1 + scenario.swapped_schemes().count(),
        2,
        "one plan per time bin"
    );
}

/// Collects every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source directory is readable") {
        let path = entry.expect("directory entry is readable").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Marks `file` and every file its `mod name;` declarations lead to.
fn mark_reachable(file: &Path, seen: &mut HashSet<PathBuf>) {
    if !seen.insert(file.to_path_buf()) {
        return;
    }
    let dir = file.parent().expect("source files have a parent");
    let stem = file
        .file_stem()
        .and_then(|s| s.to_str())
        .expect("utf-8 name");
    // `lib.rs`, `main.rs` and `mod.rs` own their directory; `foo.rs` owns `foo/`.
    let children = match stem {
        "lib" | "main" | "mod" => dir.to_path_buf(),
        _ => dir.join(stem),
    };
    let source = std::fs::read_to_string(file).expect("source file is readable");
    for line in source.lines() {
        let decl = line.trim();
        let decl = decl.strip_prefix("pub(crate) ").unwrap_or(decl);
        let decl = decl.strip_prefix("pub ").unwrap_or(decl);
        let Some(name) = decl
            .strip_prefix("mod ")
            .and_then(|rest| rest.strip_suffix(';'))
        else {
            continue;
        };
        for candidate in [
            children.join(format!("{name}.rs")),
            children.join(name).join("mod.rs"),
        ] {
            if candidate.is_file() {
                mark_reachable(&candidate, seen);
            }
        }
    }
}

/// Every source file of every crate is part of its crate's module tree: a
/// file no `mod` declaration reaches is never compiled, so it rots silently.
#[test]
fn every_crate_source_file_is_in_the_module_tree() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/core has a parent");
    let mut orphans = Vec::new();
    let mut checked = 0;
    for entry in std::fs::read_dir(crates).expect("crates/ is readable") {
        let src = entry
            .expect("directory entry is readable")
            .path()
            .join("src");
        if !src.is_dir() {
            continue;
        }
        let mut seen = HashSet::new();
        for root in ["lib.rs", "main.rs"] {
            if src.join(root).is_file() {
                mark_reachable(&src.join(root), &mut seen);
            }
        }
        let mut files = Vec::new();
        rust_files(&src, &mut files);
        checked += files.len();
        orphans.extend(files.into_iter().filter(|f| !seen.contains(f)));
    }
    assert!(
        checked > 50,
        "walked only {checked} files: wrong directory?"
    );
    assert!(
        orphans.is_empty(),
        "source files no `mod` declaration reaches (never compiled): {orphans:?}"
    );
}

//! A seeded scenario fuzzer: bounded random systems and event streams,
//! checked against the engine's invariants on every run.
//!
//! Each case draws a small random system (nodes, service rates, a uniform
//! `(n, k)` code, object sizes from odd-padded 1 KB up to 128 KB, a cache
//! tier sized anywhere from thrashing to oversized, arrival rates well
//! inside the stability region, a placement strategy, a cache policy) and
//! a bounded random scenario
//! (failures/recoveries that never take more than `nodes - n` hosts down at
//! once, load waves, single-file spikes, re-optimization points under the
//! case's own policy wherever every file keeps `k` online hosts), then runs
//! it twice: once on the analytic backend and once on the byte-accurate
//! backend. The invariants:
//!
//! * the byte run makes identical chunk-source and LRU tier decisions
//!   (slots, node reads, completions, full-cache hits, failures, promotions
//!   and evictions) and **decode-verifies every completed request**: its
//!   report counts zero `reconstruction_failures`;
//! * both reports respect the engine's resource bounds
//!   ([`sprout_sim::EngineBounds`]): the event queue stays
//!   `O(files)` and the in-flight population stays capped.
//!
//! Everything is deterministic from one base seed: case `i` of base `b` is
//! `fuzz_case_seed(b, i)`, so a CI failure line like `case 17 of base
//! 0xSPROUT` replays locally with the same numbers.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sprout_sim::{check_report, replication_seed, EngineBounds, InvariantViolation, SimConfig};

use crate::error::SproutError;
use crate::scenario::{ScenarioActionSpec, ScenarioSpec};
use crate::spec::{FileConfig, SystemSpec};
use crate::sweep::SweepBackend;
use crate::system::SproutSystem;
use sprout_cluster::{CachePolicy, PlacementChoice};

/// The default base seed of the fuzzer (what `sprout-bench fuzz` runs
/// without `--seed`, and the seed CI passes).
pub const DEFAULT_BASE_SEED: u64 = 0x5950_0117_2016_0001;

/// The seed of case `index` under `base` — decorrelated so neighbouring
/// cases share nothing.
pub(crate) fn fuzz_case_seed(base: u64, index: usize) -> u64 {
    replication_seed(base, index)
}

/// One generated fuzz case: a complete, runnable experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// The case seed everything below was drawn from (and the run seed).
    pub seed: u64,
    /// The generated system.
    pub spec: SystemSpec,
    /// The generated event stream.
    pub scenario: ScenarioSpec,
    /// The cache policy under test.
    pub policy: CachePolicy,
    /// Run length and sampling parameters.
    pub config: SimConfig,
    /// Cap on concurrently in-flight requests for the bounds check.
    pub in_flight_cap: usize,
}

/// Why a fuzz case failed.
#[derive(Debug, Clone, PartialEq)]
pub enum FuzzFailure {
    /// The generated case did not build/compile — a generator or stack bug
    /// either way, so it fails the run rather than being skipped.
    Build {
        /// The offending case seed.
        seed: u64,
        /// The underlying error.
        error: SproutError,
    },
    /// An engine invariant was violated.
    Invariant {
        /// The offending case seed.
        seed: u64,
        /// Which of the case's two runs violated it.
        backend: SweepBackend,
        /// The violation.
        violation: InvariantViolation,
    },
    /// The byte backend diverged from the analytic run's decisions.
    ByteDivergence {
        /// The offending case seed.
        seed: u64,
        /// First diverging report field.
        field: &'static str,
    },
}

impl std::fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FuzzFailure::Build { seed, error } => {
                write!(f, "case {seed:#018x}: failed to build: {error}")
            }
            FuzzFailure::Invariant {
                seed,
                backend,
                violation,
            } => write!(
                f,
                "case {seed:#018x} ({} backend): {violation}",
                backend.label()
            ),
            FuzzFailure::ByteDivergence { seed, field } => write!(
                f,
                "case {seed:#018x}: byte backend diverged from analytic decisions at '{field}'"
            ),
        }
    }
}

impl std::error::Error for FuzzFailure {}

/// What one passing case exercised (aggregated by [`ScenarioFuzzer::run`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FuzzStats {
    /// Completed requests across the analytic reference run.
    pub completed: u64,
    /// Requests that failed for lack of online hosts (failure scenarios).
    pub failed: u64,
    /// Scenario events in the case.
    pub events: usize,
}

/// A deterministic, seeded scenario fuzzer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioFuzzer {
    base_seed: u64,
}

impl ScenarioFuzzer {
    /// Creates a fuzzer over a base seed.
    pub fn new(base_seed: u64) -> Self {
        ScenarioFuzzer { base_seed }
    }

    /// The fuzzer's base seed.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// Generates case `index` (pure: the same `(base, index)` always yields
    /// the same case).
    pub fn case(&self, index: usize) -> FuzzCase {
        let seed = fuzz_case_seed(self.base_seed, index);
        let mut rng = StdRng::seed_from_u64(seed);

        // --- the system ---
        let num_nodes: usize = rng.gen_range(4..=10);
        let rates: Vec<f64> = (0..num_nodes).map(|_| rng.gen_range(0.3..1.0)).collect();
        let capacity: f64 = rates.iter().sum();
        let k: usize = rng.gen_range(1..=3);
        let n: usize = rng.gen_range(k..=(k + 3).min(num_nodes));
        let num_files: usize = rng.gen_range(3..=12);
        // Byte-backend object-size axis: odd sizes exercise chunk padding
        // (`size % k != 0`), the large end exercises chunks past 64 KiB.
        let size_bytes = *pick(&mut rng, &[1_000u64, 3_177, 4_096, 16_384, 65_536, 131_072]);
        // Aggregate chunk load well inside stability, so degraded phases and
        // load waves stay optimizable.
        let target_utilization = rng.gen_range(0.05..0.22);
        let per_file_chunk_rate = target_utilization * capacity / num_files as f64;
        let files: Vec<FileConfig> = (0..num_files)
            .map(|_| {
                let jitter = rng.gen_range(0.5..1.5);
                FileConfig::new(per_file_chunk_rate * jitter / k as f64, n, k, size_bytes)
            })
            .collect();
        // LRU-tier-capacity axis, in three deliberate regimes: a thrashing
        // tier that can hold at most one object's chunks, the historical
        // contended range, and an oversized tier where everything fits and
        // eviction never fires.
        let cache_chunks = match rng.gen_range(0..3) {
            0 => rng.gen_range(1..=k),
            1 => rng.gen_range(1..=num_files * k),
            _ => num_files * n + rng.gen_range(0..=n),
        };
        let placement = match rng.gen_range(0..5) {
            0 => PlacementChoice::RandomGroups { groups: None },
            1 => PlacementChoice::ConsistentHash {
                vnodes: *pick(&mut rng, &[16usize, 32, 64]),
            },
            2 => PlacementChoice::TwoChoices,
            3 => PlacementChoice::XorProximity,
            _ => PlacementChoice::AntiAffinity {
                zones: rng.gen_range(2..=4.min(num_nodes)),
            },
        };
        let policy = *pick(
            &mut rng,
            &[
                CachePolicy::Functional,
                CachePolicy::Exact,
                CachePolicy::LruReplicated,
                CachePolicy::None,
            ],
        );

        let mut builder = SystemSpec::builder();
        builder
            .node_service_rates(&rates)
            .cache_capacity_chunks(cache_chunks)
            .seed(seed)
            .placement_strategy(placement);
        for file in files {
            builder.file(file);
        }
        let spec = builder
            .build()
            .expect("the generator only draws valid specs");

        // --- the scenario ---
        let horizon: f64 = rng.gen_range(1_500.0..3_000.0);
        let max_down = num_nodes - n;
        let mut down: Vec<usize> = Vec::new();
        let mut cumulative_scale = 1.0_f64;
        let mut scenario = ScenarioSpec::named(format!("fuzz_{index}"));
        let num_events: usize = rng.gen_range(0..=5);
        for _ in 0..num_events {
            let at = rng.gen_range(0.05..0.95) * horizon;
            let action = match rng.gen_range(0..5) {
                0 if down.len() < max_down => {
                    let node = loop {
                        let candidate = rng.gen_range(0..num_nodes);
                        if !down.contains(&candidate) {
                            break candidate;
                        }
                    };
                    down.push(node);
                    ScenarioActionSpec::NodeDown { node }
                }
                1 if !down.is_empty() => {
                    let node = down.swap_remove(rng.gen_range(0..down.len()));
                    ScenarioActionSpec::NodeUp { node }
                }
                2 => {
                    let factor = rng.gen_range(0.6..1.4);
                    if cumulative_scale * factor > 1.6 {
                        continue;
                    }
                    cumulative_scale *= factor;
                    ScenarioActionSpec::ScaleRates { factor }
                }
                3 => ScenarioActionSpec::SetFileRate {
                    file: rng.gen_range(0..num_files),
                    rate: per_file_chunk_rate / k as f64 * rng.gen_range(0.0..2.0),
                },
                4 => ScenarioActionSpec::Reoptimize,
                _ => continue,
            };
            scenario = scenario.at(at, action);
        }
        // Algorithm 1 has no plan for a file it cannot reconstruct, so keep
        // re-optimization points only if no time can see more than n − k of
        // a file's hosts down (events compile in time order, not this one).
        let downed: BTreeSet<usize> = scenario
            .events
            .iter()
            .filter_map(|e| match e.action {
                ScenarioActionSpec::NodeDown { node } => Some(node),
                _ => None,
            })
            .collect();
        if downed.len() > n - k {
            scenario
                .events
                .retain(|e| e.action != ScenarioActionSpec::Reoptimize);
        }

        FuzzCase {
            seed,
            spec,
            scenario,
            policy,
            // Per-slot series, so the byte-vs-analytic check below compares
            // decisions slot by slot, not just run totals.
            config: SimConfig::new(horizon, seed).with_slot_length(5.0),
            in_flight_cap: 200 + 20 * num_nodes,
        }
    }

    /// Runs one case against every invariant.
    ///
    /// # Errors
    ///
    /// Returns the first [`FuzzFailure`], which carries the case seed.
    pub fn run_case(case: &FuzzCase) -> Result<FuzzStats, FuzzFailure> {
        let rate_events = case
            .scenario
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.action,
                    ScenarioActionSpec::SetRates { .. }
                        | ScenarioActionSpec::SetFileRate { .. }
                        | ScenarioActionSpec::ScaleRates { .. }
                )
            })
            .count();
        let bounds = EngineBounds::for_run(
            case.spec.files.len(),
            case.scenario.events.len(),
            rate_events,
            case.in_flight_cap,
        );
        Self::run_case_with_bounds(case, bounds)
    }

    /// [`ScenarioFuzzer::run_case`] with explicit [`EngineBounds`] — the
    /// hook the harness tests use to prove a violated invariant fails a run
    /// instead of being swallowed.
    ///
    /// # Errors
    ///
    /// See [`ScenarioFuzzer::run_case`].
    pub(crate) fn run_case_with_bounds(
        case: &FuzzCase,
        bounds: EngineBounds,
    ) -> Result<FuzzStats, FuzzFailure> {
        let build = |e: SproutError| FuzzFailure::Build {
            seed: case.seed,
            error: e,
        };
        let system = SproutSystem::new(case.spec.clone()).map_err(build)?;
        let plan = match case.policy.is_planned() {
            true => Some(system.optimize().map_err(build)?),
            false => None,
        };
        let compiled = case
            .scenario
            .compile(
                &system,
                case.policy,
                plan.as_ref(),
                &crate::optimizer::OptimizerConfig::default(),
            )
            .map_err(build)?;

        let scheme = system
            .cache_scheme(case.policy, plan.as_ref())
            .map_err(build)?;
        let sim = system
            .simulation_of(scheme, case.config)
            .with_scenario(compiled);
        let check = |report, backend| {
            check_report(report, bounds).map_err(|violation| FuzzFailure::Invariant {
                seed: case.seed,
                backend,
                violation,
            })
        };
        let analytic = sim.run();
        check(&analytic, SweepBackend::Analytic)?;

        // The byte-accurate leg: identical decisions, every request verified.
        let mut backend = system
            .byte_backend(sim.scheme(), case.seed)
            .map_err(build)?;
        let byte = sim.run_on(&mut backend);
        check(&byte, SweepBackend::Byte)?;
        let diverged = if byte.slots != analytic.slots {
            Some("slots")
        } else if byte.node_chunks_served != analytic.node_chunks_served {
            Some("node_chunks_served")
        } else if byte.completed_requests != analytic.completed_requests {
            Some("completed_requests")
        } else if byte.full_cache_hits != analytic.full_cache_hits {
            Some("full_cache_hits")
        } else if byte.failed_requests != analytic.failed_requests {
            Some("failed_requests")
        } else if byte.cache_promotions != analytic.cache_promotions {
            Some("cache_promotions")
        } else if byte.cache_evictions != analytic.cache_evictions {
            Some("cache_evictions")
        } else {
            None
        };
        if let Some(field) = diverged {
            return Err(FuzzFailure::ByteDivergence {
                seed: case.seed,
                field,
            });
        }

        Ok(FuzzStats {
            completed: analytic.completed_requests,
            failed: analytic.failed_requests,
            events: case.scenario.events.len(),
        })
    }

    /// Generates and runs `iterations` cases, aggregating their stats.
    ///
    /// # Errors
    ///
    /// Returns the first failing case's [`FuzzFailure`].
    pub fn run(&self, iterations: usize) -> Result<FuzzStats, FuzzFailure> {
        let mut total = FuzzStats::default();
        for index in 0..iterations {
            let stats = Self::run_case(&self.case(index))?;
            total.completed += stats.completed;
            total.failed += stats.failed;
            total.events += stats.events;
        }
        Ok(total)
    }
}

fn pick<'a, T, R: Rng>(rng: &mut R, choices: &'a [T]) -> &'a T {
    &choices[rng.gen_range(0..choices.len())]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_exact_case_whose_solve_overloads_a_host_is_a_build_failure() {
        let case = FuzzCase {
            seed: 7,
            spec: crate::system::exact_overload_spec(),
            scenario: ScenarioSpec::named("steady"),
            policy: CachePolicy::Exact,
            config: SimConfig::new(100.0, 7),
            in_flight_cap: 64,
        };
        // A typed failure, not a panic, whichever solve overloads first.
        let Err(FuzzFailure::Build { seed, error }) = ScenarioFuzzer::run_case(&case) else {
            panic!("expected a build failure");
        };
        assert_eq!(seed, 7);
        crate::system::assert_exact_overload(&error);
    }

    #[test]
    fn case_generation_is_deterministic_and_bounded() {
        let fuzzer = ScenarioFuzzer::new(42);
        let mut sizes = std::collections::BTreeSet::new();
        let mut tier_regimes = [false; 3];
        for index in 0..32 {
            let a = fuzzer.case(index);
            let b = fuzzer.case(index);
            assert_eq!(a, b, "case {index} must be reproducible");
            let nodes = a.spec.node_services.len();
            assert!((4..=10).contains(&nodes));
            assert!((3..=12).contains(&a.spec.files.len()));
            let n = a.spec.files[0].n;
            let k = a.spec.files[0].k;
            assert!(a.spec.files.iter().all(|f| f.n == n), "uniform (n, k)");
            assert!(n <= nodes);
            assert!(a.scenario.events.len() <= 5);
            sizes.insert(a.spec.files[0].size_bytes);
            let cap = a.spec.cache_capacity_chunks;
            let num_files = a.spec.files.len();
            if cap <= k {
                tier_regimes[0] = true;
            } else if cap <= num_files * k {
                tier_regimes[1] = true;
            } else {
                tier_regimes[2] = true;
            }
        }
        // The object-size and tier-capacity axes both get real coverage in a
        // small batch: several distinct sizes, and tiers from thrashing
        // through contended to oversized.
        assert!(
            sizes.len() >= 3,
            "expected >= 3 object sizes, got {sizes:?}"
        );
        assert!(
            tier_regimes.iter().all(|&hit| hit),
            "all three tier-capacity regimes must appear: {tier_regimes:?}"
        );
        // Different bases give different cases.
        assert_ne!(
            ScenarioFuzzer::new(1).case(0),
            ScenarioFuzzer::new(2).case(0)
        );
    }

    #[test]
    fn a_batch_of_cases_passes_every_invariant() {
        let fuzzer = ScenarioFuzzer::new(DEFAULT_BASE_SEED);
        let stats = fuzzer.run(6).expect("every invariant holds");
        assert!(stats.completed > 0, "the batch must exercise the engine");
    }

    #[test]
    fn a_deliberately_broken_invariant_fails_the_case() {
        let fuzzer = ScenarioFuzzer::new(DEFAULT_BASE_SEED);
        let case = fuzzer.case(0);
        let absurd = EngineBounds {
            event_queue: 0,
            in_flight: 0,
        };
        let failure =
            ScenarioFuzzer::run_case_with_bounds(&case, absurd).expect_err("zero bounds must fail");
        match failure {
            FuzzFailure::Invariant {
                seed, violation, ..
            } => {
                assert_eq!(seed, case.seed, "the failure names the replay seed");
                assert!(matches!(
                    violation,
                    InvariantViolation::EventQueueBound { .. }
                        | InvariantViolation::InFlightBound { .. }
                ));
            }
            other => panic!("expected an invariant failure, got {other}"),
        }
    }
}

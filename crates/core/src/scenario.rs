//! High-level, serde-loadable scenario descriptions.
//!
//! A [`ScenarioSpec`] describes *what happens* over a run — node failures
//! and recoveries, arrival-rate shifts at time-bin boundaries, and
//! re-optimization points — without committing to a cache plan.
//! [`ScenarioSpec::compile`] lowers it onto a concrete system and the run's
//! cache policy: under a planned policy every
//! [`ScenarioActionSpec::Reoptimize`] re-plans from the plan in force with
//! [`SproutSystem::replan`] against the arrival rates and failed nodes of
//! that point, and becomes an online plan swap in the resulting
//! [`sprout_sim::Scenario`]. A time-binned workload (the paper's Table I)
//! is [`ScenarioSpec::time_bins`]: a rate shift and a re-plan at every bin
//! boundary, so each bin's plan is the scheme of its swap.

use serde::Deserialize;
use sprout_cluster::CachePolicy;
use sprout_optimizer::{CachePlan, OptimizerConfig};
use sprout_sim::{Scenario, ScenarioAction};
use sprout_workload::timebins::RateSchedule;

use crate::error::SproutError;
use crate::system::SproutSystem;

/// One high-level action.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub enum ScenarioActionSpec {
    /// A storage node fails.
    NodeDown {
        /// The failing node.
        node: usize,
    },
    /// A failed node recovers.
    NodeUp {
        /// The recovering node.
        node: usize,
    },
    /// Every file's arrival rate changes (a time-bin boundary).
    SetRates {
        /// New per-file rates.
        rates: Vec<f64>,
    },
    /// One file's arrival rate changes (a flash crowd on a single object).
    SetFileRate {
        /// The file whose rate changes.
        file: usize,
        /// The new rate (requests/second).
        rate: f64,
    },
    /// Every file's arrival rate is multiplied by a factor — the natural way
    /// for a hand-written scenario file to express a load wave without
    /// spelling out per-file rate vectors.
    ScaleRates {
        /// Multiplier applied to every rate in force at this point.
        factor: f64,
    },
    /// Re-plan from the plan in force against the rates and failed nodes
    /// of this point ([`SproutSystem::replan`]) and swap the result in
    /// online, under the run's own policy. A no-op under a policy without a
    /// plan (no cache, LRU).
    Reoptimize,
}

/// A timed high-level action.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct ScenarioEventSpec {
    /// Simulated time at which the action fires.
    pub at: f64,
    /// The action.
    pub action: ScenarioActionSpec,
}

/// A named, serde-loadable scenario description.
#[derive(Debug, Clone, PartialEq, Default, Deserialize)]
pub struct ScenarioSpec {
    /// Human-readable scenario name (used in benchmark artifacts).
    pub name: String,
    /// Timed actions; compilation sorts them by time (stable).
    pub events: Vec<ScenarioEventSpec>,
}

impl ScenarioSpec {
    /// Creates an empty scenario with a name.
    pub fn named(name: impl Into<String>) -> Self {
        ScenarioSpec {
            name: name.into(),
            events: Vec::new(),
        }
    }

    /// Appends an action.
    pub fn at(mut self, at: f64, action: ScenarioActionSpec) -> Self {
        self.events.push(ScenarioEventSpec { at, action });
        self
    }

    /// A time-binned workload as a scenario: at the start of every bin
    /// after the first, a [`ScenarioActionSpec::SetRates`] to the bin's
    /// rates and a [`ScenarioActionSpec::Reoptimize`]. The first bin's
    /// rates are the system's own: compile onto
    /// `system.with_arrival_rates(&schedule.bins()[0].rates)`.
    pub fn time_bins(name: impl Into<String>, schedule: &RateSchedule) -> Self {
        let mut spec = ScenarioSpec::named(name);
        let mut start = 0.0;
        for pair in schedule.bins().windows(2) {
            start += pair[0].duration;
            let rates = pair[1].rates.clone();
            spec = spec
                .at(start, ScenarioActionSpec::SetRates { rates })
                .at(start, ScenarioActionSpec::Reoptimize);
        }
        spec
    }

    /// Lowers the description onto a system run under `policy` from `plan`,
    /// the plan in force at t = 0: checks each lowered action with
    /// [`ScenarioAction::check`], tracks the arrival rates and failed nodes
    /// in force, and turns every [`ScenarioActionSpec::Reoptimize`] into a
    /// plan swap of `policy`'s kind, re-planned by [`SproutSystem::replan`]
    /// from the plan in force at that point (none: a cold solve). An
    /// unplanned policy has nothing to re-plan, so its `Reoptimize` points
    /// compile to no event.
    ///
    /// # Errors
    ///
    /// Returns [`SproutError::InvalidSpec`] for an event time or a
    /// `ScaleRates` factor that is not finite and non-negative, or an action
    /// that breaks [`ScenarioAction::check`] (out-of-range nodes or files,
    /// mis-sized rate vectors, rates that are not finite and non-negative),
    /// and propagates [`SproutSystem::replan`]'s errors from
    /// re-optimization points.
    pub fn compile(
        &self,
        system: &SproutSystem,
        policy: CachePolicy,
        plan: Option<&CachePlan>,
        optimizer: &OptimizerConfig,
    ) -> Result<Scenario, SproutError> {
        let num_nodes = system.spec().node_services.len();
        let num_files = system.spec().files.len();
        let invalid = |message: String| {
            SproutError::InvalidSpec(format!("scenario '{}': {message}", self.name))
        };
        for event in &self.events {
            if !event.at.is_finite() || event.at < 0.0 {
                return Err(invalid(format!("event at invalid time {}", event.at)));
            }
        }
        let mut ordered: Vec<&ScenarioEventSpec> = self.events.iter().collect();
        ordered.sort_by(|a, b| {
            a.at.partial_cmp(&b.at)
                .expect("times were checked to be finite above")
        });

        let mut rates: Vec<f64> = system.spec().files.iter().map(|f| f.arrival_rate).collect();
        let mut down: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        let mut replanned: Option<CachePlan> = None;
        let mut compiled = Vec::with_capacity(ordered.len());
        for event in ordered {
            let action = match &event.action {
                ScenarioActionSpec::NodeDown { node } => ScenarioAction::NodeDown { node: *node },
                ScenarioActionSpec::NodeUp { node } => ScenarioAction::NodeUp { node: *node },
                ScenarioActionSpec::SetRates { rates } => ScenarioAction::SetRates {
                    rates: rates.clone(),
                },
                ScenarioActionSpec::SetFileRate { file, rate } => ScenarioAction::SetFileRate {
                    file: *file,
                    rate: *rate,
                },
                ScenarioActionSpec::ScaleRates { factor } => {
                    if !factor.is_finite() || *factor < 0.0 {
                        return Err(invalid(format!("scales rates by invalid factor {factor}")));
                    }
                    ScenarioAction::SetRates {
                        rates: rates.iter().map(|r| r * factor).collect(),
                    }
                }
                ScenarioActionSpec::Reoptimize if !policy.is_planned() => continue,
                ScenarioActionSpec::Reoptimize => {
                    // Failure-aware: nodes down at this point in the event
                    // order are excluded from the recompiled plan, so the
                    // swapped-in scheme never schedules reads onto them.
                    let current = system.with_arrival_rates(&rates)?;
                    let excluded: Vec<usize> = down.iter().copied().collect();
                    let in_force = replanned.as_ref().or(plan);
                    let next = current.replan(optimizer, in_force, &excluded)?;
                    let scheme = current.cache_scheme(policy, Some(&next))?;
                    replanned = Some(next);
                    ScenarioAction::SwapScheme { scheme }
                }
            };
            // Checked before the tracked state moves, so nothing indexes out
            // of range and no re-plan sees a rejected rate.
            action.check(num_nodes, num_files).map_err(invalid)?;
            match &action {
                ScenarioAction::NodeDown { node } => {
                    down.insert(*node);
                }
                ScenarioAction::NodeUp { node } => {
                    down.remove(node);
                }
                ScenarioAction::SetRates { rates: next } => rates.clone_from(next),
                ScenarioAction::SetFileRate { file, rate } => rates[*file] = *rate,
                ScenarioAction::SwapScheme { .. } => {}
            }
            compiled.push(sprout_sim::ScenarioEvent {
                at: event.at,
                action,
            });
        }
        Ok(Scenario::new(compiled))
    }
}

/// The chunk moves of a plan swap from `before` to `after` cached chunks per
/// file, as `(evicted, filled)`: content whose allocation shrinks is evicted
/// at the swap, and content whose allocation grows is filled lazily, when
/// the file is next read, so the swap itself adds no network traffic
/// (§III). `before + filled − evicted` is `after`'s total.
pub fn cache_transition(before: &[usize], after: &[usize]) -> (usize, usize) {
    let moves = before.iter().zip(after);
    moves.fold((0, 0), |(evicted, filled), (&b, &a)| {
        (evicted + b.saturating_sub(a), filled + a.saturating_sub(b))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SystemSpec;
    use sprout_workload::timebins::TimeBin;

    fn system() -> SproutSystem {
        let spec = SystemSpec::builder()
            .node_service_rates(&[0.6, 0.6, 0.45, 0.45, 0.3, 0.3])
            .uniform_files(4, 2, 4, 0.04)
            .cache_capacity_chunks(4)
            .seed(5)
            .build()
            .unwrap();
        SproutSystem::new(spec).unwrap()
    }

    /// Compiles `spec` for a functional-caching run of `sys` from its
    /// optimized plan.
    fn compile(spec: &ScenarioSpec, sys: &SproutSystem) -> Result<Scenario, SproutError> {
        let plan = sys.optimize()?;
        let config = OptimizerConfig::default();
        spec.compile(sys, CachePolicy::Functional, Some(&plan), &config)
    }

    #[test]
    fn compile_orders_events_and_lowers_reoptimize_to_a_plan_swap() {
        let sys = system();
        let spec = ScenarioSpec::named("churn")
            .at(200.0, ScenarioActionSpec::Reoptimize)
            .at(
                150.0,
                ScenarioActionSpec::SetRates {
                    rates: vec![0.2, 0.01, 0.01, 0.01],
                },
            )
            .at(50.0, ScenarioActionSpec::NodeDown { node: 1 })
            .at(300.0, ScenarioActionSpec::NodeUp { node: 1 });
        let scenario = compile(&spec, &sys).unwrap();
        let times: Vec<f64> = scenario.events().iter().map(|e| e.at).collect();
        assert_eq!(times, vec![50.0, 150.0, 200.0, 300.0]);
        // The reoptimize point swaps in a functional scheme reflecting the
        // shifted rates (file 0 is hot, so it gets cache share).
        match &scenario.events()[2].action {
            ScenarioAction::SwapScheme {
                scheme: sprout_sim::CacheScheme::Functional(plan),
            } => {
                let d = &plan.cached_chunks;
                assert_eq!(d.len(), 4);
                assert!(d[0] >= d[2], "hot file favoured: {d:?}");
            }
            other => panic!("expected a functional plan swap, got {other:?}"),
        }
    }

    #[test]
    fn reoptimize_replans_under_the_runs_own_policy() {
        let sys = system();
        let spec = ScenarioSpec::named("replan").at(10.0, ScenarioActionSpec::Reoptimize);
        let plan = sys.optimize().unwrap();
        let events = |policy| {
            let scenario = spec.compile(&sys, policy, Some(&plan), &OptimizerConfig::default());
            scenario.unwrap().events().to_vec()
        };
        assert!(matches!(
            events(CachePolicy::Exact)[0].action,
            ScenarioAction::SwapScheme {
                scheme: sprout_sim::CacheScheme::Exact(_)
            }
        ));
        // Nothing to re-plan without a plan: the point compiles to no event.
        assert!(events(CachePolicy::None).is_empty());
        assert!(events(CachePolicy::LruReplicated).is_empty());
    }

    #[test]
    fn cache_follows_the_hot_files_across_bins() {
        // Bin 1: file 0 hot. Bin 2: file 3 hot.
        let schedule = RateSchedule::new(vec![
            TimeBin::new(100.0, vec![0.20, 0.01, 0.01, 0.01]),
            TimeBin::new(100.0, vec![0.01, 0.01, 0.01, 0.20]),
        ]);
        let spec = SystemSpec::builder()
            .node_service_rates(&[0.5, 0.5, 0.4, 0.4, 0.35, 0.35])
            .uniform_files(4, 2, 4, 0.02)
            .cache_capacity_chunks(4)
            .seed(8)
            .build()
            .unwrap();
        let sys = SproutSystem::new(spec).unwrap();
        let sys = sys.with_arrival_rates(&schedule.bins()[0].rates).unwrap();
        let scenario = ScenarioSpec::time_bins("hot files", &schedule);
        let compiled = compile(&scenario, &sys).unwrap();
        let times: Vec<f64> = compiled.events().iter().map(|e| e.at).collect();
        assert_eq!(times, [100.0, 100.0], "one rate shift and one swap");
        let first = sys.optimize().unwrap().cached_chunks;
        let swaps: Vec<_> = compiled.swapped_schemes().collect();
        assert_eq!(swaps.len(), 1, "bin 1 runs the t = 0 plan");
        let bin2 = sys.with_arrival_rates(&schedule.bins()[1].rates).unwrap();
        let second = &bin2.bound(swaps[0]).unwrap().unwrap().cached_chunks;
        assert_eq!(second.len(), 4);
        assert!(
            first[0] >= first[3],
            "bin 1 should favour file 0: {first:?}"
        );
        assert!(
            second[3] >= second[0],
            "bin 2 should favour file 3: {second:?}"
        );
        // Conservation: chunks added/removed are consistent with the plans.
        let (removed, added) = cache_transition(&first, second);
        let used0: usize = first.iter().sum();
        let used1: usize = second.iter().sum();
        assert_eq!(used0 + added - removed, used1);
    }

    #[test]
    fn cache_transition_arithmetic() {
        assert_eq!(cache_transition(&[3], &[1]), (2, 0));
        assert_eq!(cache_transition(&[0], &[4]), (0, 4));
        assert_eq!(cache_transition(&[3, 0, 2], &[1, 4, 2]), (2, 4));
    }

    #[test]
    fn scale_and_single_file_rates_lower_onto_the_tracked_rate_vector() {
        let sys = system();
        let spec = ScenarioSpec::named("wave")
            .at(10.0, ScenarioActionSpec::ScaleRates { factor: 2.0 })
            .at(20.0, ScenarioActionSpec::SetFileRate { file: 1, rate: 0.5 })
            .at(30.0, ScenarioActionSpec::ScaleRates { factor: 0.5 });
        let scenario = compile(&spec, &sys).unwrap();
        match &scenario.events()[0].action {
            ScenarioAction::SetRates { rates } => {
                assert!(rates.iter().all(|&r| (r - 0.08).abs() < 1e-12));
            }
            other => panic!("expected SetRates, got {other:?}"),
        }
        match &scenario.events()[1].action {
            ScenarioAction::SetFileRate { file: 1, rate } => {
                assert!((rate - 0.5).abs() < 1e-12);
            }
            other => panic!("expected SetFileRate on file 1, got {other:?}"),
        }
        // The final scale applies to the vector *including* the single-file
        // override from the previous event.
        match &scenario.events()[2].action {
            ScenarioAction::SetRates { rates } => {
                assert!((rates[0] - 0.04).abs() < 1e-12);
                assert!((rates[1] - 0.25).abs() < 1e-12);
            }
            other => panic!("expected SetRates, got {other:?}"),
        }

        let bad_file = ScenarioSpec::named("x").at(
            1.0,
            ScenarioActionSpec::SetFileRate {
                file: 99,
                rate: 0.1,
            },
        );
        assert!(compile(&bad_file, &sys).is_err());
        for factor in [-1.0, f64::NAN, f64::INFINITY] {
            let bad = ScenarioSpec::named("x").at(1.0, ScenarioActionSpec::ScaleRates { factor });
            assert!(compile(&bad, &sys).is_err());
        }
    }

    #[test]
    fn compile_rejects_bad_indices_and_rate_lengths() {
        let sys = system();
        let bad_node = ScenarioSpec::named("x").at(1.0, ScenarioActionSpec::NodeDown { node: 17 });
        assert!(matches!(
            compile(&bad_node, &sys),
            Err(SproutError::InvalidSpec(_))
        ));
        let bad_rates = ScenarioSpec::named("y").at(
            1.0,
            ScenarioActionSpec::SetRates {
                rates: vec![0.1; 3],
            },
        );
        assert!(matches!(
            compile(&bad_rates, &sys),
            Err(SproutError::InvalidSpec(_))
        ));
        // A loadable spec with a bad time must error, not panic.
        let bad_time = ScenarioSpec::named("z").at(-5.0, ScenarioActionSpec::NodeDown { node: 0 });
        assert!(matches!(
            compile(&bad_time, &sys),
            Err(SproutError::InvalidSpec(_))
        ));
        for at in [f64::NAN, f64::INFINITY] {
            let bad_time = ScenarioSpec::named("w").at(at, ScenarioActionSpec::Reoptimize);
            assert!(matches!(
                compile(&bad_time, &sys),
                Err(SproutError::InvalidSpec(_))
            ));
        }
        // Negative, NaN or infinite rates must also error rather than panic
        // or stall the clock downstream.
        for bad in [-0.1, f64::NAN, f64::INFINITY] {
            let bad_rate = ScenarioSpec::named("v").at(
                1.0,
                ScenarioActionSpec::SetRates {
                    rates: vec![0.1, bad, 0.1, 0.1],
                },
            );
            assert!(matches!(
                compile(&bad_rate, &sys),
                Err(SproutError::InvalidSpec(_))
            ));
            let bad_file_rate = ScenarioSpec::named("u")
                .at(1.0, ScenarioActionSpec::SetFileRate { file: 2, rate: bad })
                .at(2.0, ScenarioActionSpec::Reoptimize);
            assert!(matches!(
                compile(&bad_file_rate, &sys),
                Err(SproutError::InvalidSpec(_))
            ));
        }
        // A finite factor can still overflow a tracked rate to infinity.
        let overflow = ScenarioSpec::named("t")
            .at(1.0, ScenarioActionSpec::ScaleRates { factor: 1e308 })
            .at(2.0, ScenarioActionSpec::ScaleRates { factor: 1e308 });
        assert!(matches!(
            compile(&overflow, &sys),
            Err(SproutError::InvalidSpec(_))
        ));
    }
}

//! High-level, serde-loadable scenario descriptions.
//!
//! A [`ScenarioSpec`] describes *what happens* over a run — node failures
//! and recoveries, arrival-rate shifts at time-bin boundaries, and
//! re-optimization points — without committing to a cache plan.
//! [`ScenarioSpec::compile`] lowers it onto a concrete system: every
//! [`ScenarioActionSpec::Reoptimize`] runs Algorithm 1 (via the
//! [`SproutSystem`] facade) against the arrival rates in force at that
//! point and becomes an online plan swap in the resulting
//! [`sprout_sim::Scenario`].

use serde::Deserialize;
use sprout_optimizer::OptimizerConfig;
use sprout_sim::{Scenario, ScenarioAction};

use crate::error::SproutError;
use crate::system::{CachePolicyChoice, SproutSystem};

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
    /// Re-run the optimizer against the rates in force at this point and
    /// swap the resulting functional-caching plan in online.
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

    /// Lowers the description onto a system: validates indices, tracks the
    /// arrival rates in force, and turns every [`ScenarioActionSpec::Reoptimize`]
    /// into a concrete plan swap computed by Algorithm 1.
    ///
    /// # Errors
    ///
    /// Returns [`SproutError::InvalidSpec`] for out-of-range nodes or
    /// mis-sized rate vectors, and propagates optimizer errors from
    /// re-optimization points.
    pub fn compile(
        &self,
        system: &SproutSystem,
        optimizer: &OptimizerConfig,
    ) -> Result<Scenario, SproutError> {
        let num_nodes = system.spec().node_services.len();
        let num_files = system.spec().files.len();
        for event in &self.events {
            if event.at.is_nan() || event.at < 0.0 {
                return Err(SproutError::InvalidSpec(format!(
                    "scenario '{}' has an event at invalid time {}",
                    self.name, event.at
                )));
            }
        }
        let mut ordered: Vec<&ScenarioEventSpec> = self.events.iter().collect();
        ordered.sort_by(|a, b| {
            a.at.partial_cmp(&b.at)
                .expect("times were checked against NaN above")
        });

        let mut rates: Vec<f64> = system.spec().files.iter().map(|f| f.arrival_rate).collect();
        let mut down: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        let mut compiled = Vec::with_capacity(ordered.len());
        for event in ordered {
            let action = match &event.action {
                ScenarioActionSpec::NodeDown { node } => {
                    if *node >= num_nodes {
                        return Err(SproutError::InvalidSpec(format!(
                            "scenario '{}' fails node {node} but the system has {num_nodes}",
                            self.name
                        )));
                    }
                    down.insert(*node);
                    ScenarioAction::NodeDown { node: *node }
                }
                ScenarioActionSpec::NodeUp { node } => {
                    if *node >= num_nodes {
                        return Err(SproutError::InvalidSpec(format!(
                            "scenario '{}' recovers node {node} but the system has {num_nodes}",
                            self.name
                        )));
                    }
                    down.remove(node);
                    ScenarioAction::NodeUp { node: *node }
                }
                ScenarioActionSpec::SetRates { rates: next } => {
                    if next.len() != num_files {
                        return Err(SproutError::InvalidSpec(format!(
                            "scenario '{}' sets {} rates but the system has {num_files} files",
                            self.name,
                            next.len()
                        )));
                    }
                    // Loadable input must error here, not panic later in
                    // Scenario::validate.
                    if next.iter().any(|r| r.is_nan() || *r < 0.0) {
                        return Err(SproutError::InvalidSpec(format!(
                            "scenario '{}' sets a negative or NaN arrival rate",
                            self.name
                        )));
                    }
                    rates.clone_from(next);
                    ScenarioAction::SetRates {
                        rates: next.clone(),
                    }
                }
                ScenarioActionSpec::SetFileRate { file, rate } => {
                    if *file >= num_files {
                        return Err(SproutError::InvalidSpec(format!(
                            "scenario '{}' sets the rate of file {file} but the system has {num_files} files",
                            self.name
                        )));
                    }
                    if rate.is_nan() || *rate < 0.0 {
                        return Err(SproutError::InvalidSpec(format!(
                            "scenario '{}' sets a negative or NaN arrival rate",
                            self.name
                        )));
                    }
                    rates[*file] = *rate;
                    ScenarioAction::SetFileRate {
                        file: *file,
                        rate: *rate,
                    }
                }
                ScenarioActionSpec::ScaleRates { factor } => {
                    if !factor.is_finite() || *factor < 0.0 {
                        return Err(SproutError::InvalidSpec(format!(
                            "scenario '{}' scales rates by invalid factor {factor}",
                            self.name
                        )));
                    }
                    for r in &mut rates {
                        *r *= factor;
                    }
                    ScenarioAction::SetRates {
                        rates: rates.clone(),
                    }
                }
                ScenarioActionSpec::Reoptimize => {
                    // Failure-aware: nodes down at this point in the event
                    // order are excluded from the recompiled plan, so the
                    // swapped-in scheme never schedules reads onto them.
                    let current = system.with_arrival_rates(&rates)?;
                    let excluded: Vec<usize> = down.iter().copied().collect();
                    let plan = current.optimize_excluding(optimizer, &excluded)?;
                    let scheme = current.cache_scheme(CachePolicyChoice::Functional, Some(&plan));
                    ScenarioAction::SwapScheme { scheme }
                }
            };
            compiled.push(sprout_sim::ScenarioEvent {
                at: event.at,
                action,
            });
        }
        Ok(Scenario::new(compiled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SystemSpec;

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
        let scenario = spec.compile(&sys, &OptimizerConfig::default()).unwrap();
        let times: Vec<f64> = scenario.events().iter().map(|e| e.at).collect();
        assert_eq!(times, vec![50.0, 150.0, 200.0, 300.0]);
        // The reoptimize point swaps in a functional scheme reflecting the
        // shifted rates (file 0 is hot, so it gets cache share).
        match &scenario.events()[2].action {
            ScenarioAction::SwapScheme {
                scheme: sprout_sim::CacheScheme::Functional { cached_chunks, .. },
            } => {
                assert_eq!(cached_chunks.len(), 4);
                assert!(
                    cached_chunks[0] >= cached_chunks[2],
                    "hot file favoured: {cached_chunks:?}"
                );
            }
            other => panic!("expected a functional plan swap, got {other:?}"),
        }
    }

    #[test]
    fn scale_and_single_file_rates_lower_onto_the_tracked_rate_vector() {
        let sys = system();
        let spec = ScenarioSpec::named("wave")
            .at(10.0, ScenarioActionSpec::ScaleRates { factor: 2.0 })
            .at(20.0, ScenarioActionSpec::SetFileRate { file: 1, rate: 0.5 })
            .at(30.0, ScenarioActionSpec::ScaleRates { factor: 0.5 });
        let scenario = spec.compile(&sys, &OptimizerConfig::default()).unwrap();
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
        assert!(bad_file.compile(&sys, &OptimizerConfig::default()).is_err());
        for factor in [-1.0, f64::NAN, f64::INFINITY] {
            let bad = ScenarioSpec::named("x").at(1.0, ScenarioActionSpec::ScaleRates { factor });
            assert!(bad.compile(&sys, &OptimizerConfig::default()).is_err());
        }
    }

    #[test]
    fn compile_rejects_bad_indices_and_rate_lengths() {
        let sys = system();
        let bad_node = ScenarioSpec::named("x").at(1.0, ScenarioActionSpec::NodeDown { node: 17 });
        assert!(matches!(
            bad_node.compile(&sys, &OptimizerConfig::default()),
            Err(SproutError::InvalidSpec(_))
        ));
        let bad_rates = ScenarioSpec::named("y").at(
            1.0,
            ScenarioActionSpec::SetRates {
                rates: vec![0.1; 3],
            },
        );
        assert!(matches!(
            bad_rates.compile(&sys, &OptimizerConfig::default()),
            Err(SproutError::InvalidSpec(_))
        ));
        // A loadable spec with a bad time must error, not panic.
        let bad_time = ScenarioSpec::named("z").at(-5.0, ScenarioActionSpec::NodeDown { node: 0 });
        assert!(matches!(
            bad_time.compile(&sys, &OptimizerConfig::default()),
            Err(SproutError::InvalidSpec(_))
        ));
        let nan_time = ScenarioSpec::named("w").at(f64::NAN, ScenarioActionSpec::Reoptimize);
        assert!(matches!(
            nan_time.compile(&sys, &OptimizerConfig::default()),
            Err(SproutError::InvalidSpec(_))
        ));
        // Negative or NaN rates must also error rather than panic downstream.
        for bad in [-0.1, f64::NAN] {
            let bad_rate = ScenarioSpec::named("v").at(
                1.0,
                ScenarioActionSpec::SetRates {
                    rates: vec![0.1, bad, 0.1, 0.1],
                },
            );
            assert!(matches!(
                bad_rate.compile(&sys, &OptimizerConfig::default()),
                Err(SproutError::InvalidSpec(_))
            ));
        }
    }
}

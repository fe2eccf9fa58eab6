//! Dynamic scenarios: timed events injected into a simulation run.
//!
//! A [`Scenario`] is a time-ordered list of [`ScenarioAction`]s — node
//! failures and recoveries, arrival-rate shifts at time-bin boundaries, and
//! cache-plan swaps. The engine schedules them in its event queue alongside
//! arrivals and completions, so scenario effects interleave deterministically
//! with the workload.
//!
//! These types are not loaded from files: the `sprout` facade crate's
//! `ScenarioSpec` is the TOML/JSON form (the committed files under
//! `scenarios/` are the canonical examples). It also holds the higher-level
//! actions (e.g. "re-run the optimizer at this bin boundary") and compiles
//! them down to these primitive actions.

use crate::engine::SimFile;
use crate::policy::CacheScheme;

/// One timed action.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioAction {
    /// A storage node fails: it stops accepting new chunk reads (queued reads
    /// drain).
    NodeDown {
        /// The failing node.
        node: usize,
    },
    /// A failed storage node recovers.
    NodeUp {
        /// The recovering node.
        node: usize,
    },
    /// Every file's arrival rate changes (a time-bin boundary). By Poisson
    /// memorylessness the engine discards each file's pending arrival and
    /// redraws it at the new rate, which holds until the next change.
    SetRates {
        /// New per-file rates (length must equal the file count).
        rates: Vec<f64>,
    },
    /// One file's arrival rate changes.
    SetFileRate {
        /// The file whose rate changes.
        file: usize,
        /// The new rate (requests/second).
        rate: f64,
    },
    /// The cache plan is swapped online: the engine plans subsequent requests
    /// with the new scheme and the backend re-installs cache contents.
    SwapScheme {
        /// The scheme in force from this point on.
        scheme: CacheScheme,
    },
}

impl ScenarioAction {
    /// Checks the action against a system of `num_nodes` nodes and
    /// `num_files` files: node and file indices in range, one rate per file,
    /// and every rate finite and non-negative. A swapped-in scheme is checked
    /// against the files by [`CacheScheme::validate`] instead.
    ///
    /// # Errors
    ///
    /// Returns the first broken rule as a message.
    pub fn check(&self, num_nodes: usize, num_files: usize) -> Result<(), String> {
        match self {
            ScenarioAction::NodeDown { node } | ScenarioAction::NodeUp { node } => {
                if *node >= num_nodes {
                    return Err(format!(
                        "scenario references node {node} but the system has {num_nodes}"
                    ));
                }
            }
            ScenarioAction::SetRates { rates } => {
                if rates.len() != num_files {
                    return Err(format!(
                        "scenario rate vector covers {} files, system has {num_files}",
                        rates.len()
                    ));
                }
                for &rate in rates {
                    check_rate(rate)?;
                }
            }
            ScenarioAction::SetFileRate { file, rate } => {
                if *file >= num_files {
                    return Err(format!(
                        "scenario references file {file} but the system has {num_files}"
                    ));
                }
                check_rate(*rate)?;
            }
            ScenarioAction::SwapScheme { .. } => {}
        }
        Ok(())
    }
}

/// The one rule for an arrival rate: finite and non-negative. An infinite
/// rate would draw every arrival at the current time and never advance the
/// clock.
pub(crate) fn check_rate(rate: f64) -> Result<(), String> {
    if rate.is_finite() && rate >= 0.0 {
        Ok(())
    } else {
        Err(format!(
            "arrival rate {rate} is not finite and non-negative"
        ))
    }
}

/// A timed scenario event.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioEvent {
    /// Simulated time at which the action fires.
    pub at: f64,
    /// The action.
    pub action: ScenarioAction,
}

/// A time-ordered scenario. Construction sorts events by time (stable, so
/// same-time events keep their declaration order).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Scenario {
    events: Vec<ScenarioEvent>,
}

impl Scenario {
    /// Creates a scenario from events (sorted by firing time, stable).
    ///
    /// # Panics
    ///
    /// Panics if an event time is negative or NaN.
    pub fn new(mut events: Vec<ScenarioEvent>) -> Self {
        for e in &events {
            assert!(
                e.at >= 0.0 && !e.at.is_nan(),
                "scenario event time must be non-negative"
            );
        }
        events.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("times are not NaN"));
        Scenario { events }
    }

    /// The events, in firing order.
    pub fn events(&self) -> &[ScenarioEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the scenario has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends an action at `at` (re-sorting lazily at the next run is not
    /// needed: insertion keeps the list sorted).
    pub fn push(&mut self, at: f64, action: ScenarioAction) -> &mut Self {
        assert!(
            at >= 0.0 && !at.is_nan(),
            "scenario event time must be non-negative"
        );
        let pos = self.events.partition_point(|e| e.at <= at);
        self.events.insert(pos, ScenarioEvent { at, action });
        self
    }

    /// Convenience: node failure at `at`.
    pub fn node_down(mut self, at: f64, node: usize) -> Self {
        self.push(at, ScenarioAction::NodeDown { node });
        self
    }

    /// Convenience: node recovery at `at`.
    pub fn node_up(mut self, at: f64, node: usize) -> Self {
        self.push(at, ScenarioAction::NodeUp { node });
        self
    }

    /// Convenience: rate shift at `at`.
    pub fn set_rates(mut self, at: f64, rates: Vec<f64>) -> Self {
        self.push(at, ScenarioAction::SetRates { rates });
        self
    }

    /// Convenience: cache-plan swap at `at`.
    pub fn swap_scheme(mut self, at: f64, scheme: CacheScheme) -> Self {
        self.push(at, ScenarioAction::SwapScheme { scheme });
        self
    }

    /// The schemes the scenario swaps in, in time order.
    pub fn swapped_schemes(&self) -> impl Iterator<Item = &CacheScheme> {
        self.events.iter().filter_map(|e| match &e.action {
            ScenarioAction::SwapScheme { scheme } => Some(scheme),
            _ => None,
        })
    }

    /// Validates the scenario against a system shape; called by the engine.
    ///
    /// # Panics
    ///
    /// Panics with [`ScenarioAction::check`]'s message on the first action
    /// that breaks its rule, or if a swapped-in scheme fails
    /// [`CacheScheme::validate`].
    pub(crate) fn validate(&self, num_nodes: usize, files: &[SimFile]) {
        for e in &self.events {
            if let Err(message) = e.action.check(num_nodes, files.len()) {
                panic!("{message}");
            }
            if let ScenarioAction::SwapScheme { scheme } = &e.action {
                scheme.validate(files);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files() -> Vec<SimFile> {
        vec![SimFile::new(0.1, 1, vec![0, 1]); 2]
    }

    #[test]
    fn construction_sorts_and_builders_insert_in_order() {
        let s = Scenario::new(vec![
            ScenarioEvent {
                at: 50.0,
                action: ScenarioAction::NodeUp { node: 1 },
            },
            ScenarioEvent {
                at: 10.0,
                action: ScenarioAction::NodeDown { node: 1 },
            },
        ]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.events()[0].at, 10.0);
        assert_eq!(s.events()[1].at, 50.0);

        let s = Scenario::default()
            .node_up(50.0, 0)
            .node_down(10.0, 0)
            .set_rates(30.0, vec![0.1]);
        let times: Vec<f64> = s.events().iter().map(|e| e.at).collect();
        assert_eq!(times, vec![10.0, 30.0, 50.0]);
        assert!(!s.is_empty());
    }

    #[test]
    fn same_time_events_keep_declaration_order() {
        let s = Scenario::default().node_down(5.0, 0).node_up(5.0, 1);
        assert!(matches!(
            s.events()[0].action,
            ScenarioAction::NodeDown { node: 0 }
        ));
        assert!(matches!(
            s.events()[1].action,
            ScenarioAction::NodeUp { node: 1 }
        ));
    }

    #[test]
    fn validate_accepts_well_formed_scenarios() {
        Scenario::default()
            .node_down(1.0, 2)
            .set_rates(2.0, vec![0.1, 0.2])
            .swap_scheme(3.0, CacheScheme::NoCache)
            .validate(3, &files());
    }

    #[test]
    #[should_panic(expected = "references node")]
    fn validate_rejects_bad_node() {
        Scenario::default().node_down(1.0, 7).validate(3, &files());
    }

    #[test]
    #[should_panic(expected = "covers")]
    fn validate_rejects_bad_rate_length() {
        Scenario::default()
            .set_rates(1.0, vec![0.1])
            .validate(3, &files());
    }

    #[test]
    fn check_rejects_rates_that_are_not_finite_and_non_negative() {
        for bad in [-0.1, f64::NAN, f64::INFINITY] {
            let set = ScenarioAction::SetRates {
                rates: vec![0.1, bad],
            };
            let one = ScenarioAction::SetFileRate { file: 1, rate: bad };
            for action in [set, one] {
                let err = action.check(3, 2).expect_err("bad rate accepted");
                assert!(err.contains("not finite and non-negative"), "{err}");
            }
        }
        let bad_file = ScenarioAction::SetFileRate { file: 2, rate: 0.1 };
        assert!(bad_file
            .check(3, 2)
            .unwrap_err()
            .contains("references file"));
        assert_eq!(
            ScenarioAction::SetFileRate { file: 1, rate: 0.0 }.check(3, 2),
            Ok(())
        );
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_event_time_panics() {
        let _ = Scenario::default().node_down(-1.0, 0);
    }

    #[test]
    #[should_panic(expected = "scheduling rows")]
    fn validate_rejects_swapped_scheme_with_short_scheduling() {
        use crate::policy::PlannedCache;
        Scenario::default()
            .swap_scheme(
                1.0,
                CacheScheme::Exact(PlannedCache {
                    cached_chunks: vec![],
                    scheduling: vec![],
                }),
            )
            .validate(3, &files());
    }
}

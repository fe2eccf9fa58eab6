//! Typed engine invariants: the properties every run must satisfy, as
//! `Result`-returning checks instead of scattered `assert!`s.
//!
//! The scenario fuzzer (and any CI harness) needs violations to be *values*
//! it can collect, print with the offending seed, and turn into a failing
//! exit code — a panic inside a worker thread loses the seed context. Each
//! check here returns the first [`InvariantViolation`] it finds.
//!
//! The invariants themselves are the engine's documented contracts:
//!
//! * the pending-event queue stays `O(files)` under streaming arrivals
//!   (plus the scenario's own events) — arrivals are the engine's only
//!   events, so it must never scale with the total request count or the
//!   node count;
//! * the in-flight request population stays under a cap derived from the
//!   offered load (a load check: overload grows it);
//! * every completed request's bytes reconstruct (byte-accurate backends).

use crate::engine::SimReport;
use std::fmt;

/// One violated engine invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum InvariantViolation {
    /// The pending-event queue grew past its structural bound.
    EventQueueBound {
        /// Observed high-water mark.
        peak: usize,
        /// The bound it must stay under.
        bound: usize,
    },
    /// The in-flight request population grew past the supplied cap.
    InFlightBound {
        /// Observed high-water mark.
        peak: usize,
        /// The cap it must stay under.
        bound: usize,
    },
    /// A backend reported a failed byte reconstruction.
    ReconstructionFailures {
        /// Number of failed reconstructions.
        count: u64,
    },
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantViolation::EventQueueBound { peak, bound } => write!(
                f,
                "peak event queue {peak} exceeds its structural bound {bound}"
            ),
            InvariantViolation::InFlightBound { peak, bound } => {
                write!(f, "peak in-flight requests {peak} exceeds the cap {bound}")
            }
            InvariantViolation::ReconstructionFailures { count } => {
                write!(f, "{count} byte reconstruction(s) failed to verify")
            }
        }
    }
}

impl std::error::Error for InvariantViolation {}

/// Per-run resource bounds derived from the workload's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineBounds {
    /// Bound on the pending-event high-water mark. The structural guarantee
    /// is `files + scenario events + O(1)`; see [`EngineBounds::for_run`].
    pub event_queue: usize,
    /// Cap on concurrently in-flight requests. Not structural — overload can
    /// grow it — so callers derive it from the load they offered.
    pub in_flight: usize,
}

impl EngineBounds {
    /// The bounds for a run over `files` files with `scenario_events` timed
    /// events (of which `rate_events` change arrival rates), capping
    /// in-flight requests at `in_flight`.
    ///
    /// The event-queue bound is
    /// `files * (1 + rate_events) + scenario_events + 4`: one pending
    /// arrival per file, the scenario's own timed events, and a small
    /// constant for bookkeeping events (warm-up cut, horizon end). No node
    /// event is ever queued: a request's reads settle when it arrives. Each
    /// rate shift re-primes every affected file's arrival stream at a new
    /// epoch while the superseded arrival event is discarded only when it
    /// pops, so up to one stale arrival per file per rate event can
    /// transiently share the queue.
    pub fn for_run(
        files: usize,
        scenario_events: usize,
        rate_events: usize,
        in_flight: usize,
    ) -> Self {
        EngineBounds {
            event_queue: files * (1 + rate_events) + scenario_events + 4,
            in_flight,
        }
    }
}

/// Checks one report against the engine bounds and the zero-failed-decode
/// contract.
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn check_report(report: &SimReport, bounds: EngineBounds) -> Result<(), InvariantViolation> {
    if report.peak_event_queue > bounds.event_queue {
        return Err(InvariantViolation::EventQueueBound {
            peak: report.peak_event_queue,
            bound: bounds.event_queue,
        });
    }
    if report.peak_in_flight > bounds.in_flight {
        return Err(InvariantViolation::InFlightBound {
            peak: report.peak_in_flight,
            bound: bounds.in_flight,
        });
    }
    if report.reconstruction_failures > 0 {
        return Err(InvariantViolation::ReconstructionFailures {
            count: report.reconstruction_failures,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::{SimFile, Simulation};
    use crate::policy::CacheScheme;
    use sprout_queueing::dist::ServiceDistribution;

    fn run() -> SimReport {
        let files = vec![
            SimFile::new(0.05, 2, vec![0, 1, 2]),
            SimFile::new(0.05, 2, vec![1, 2, 3]),
            SimFile::new(0.05, 2, vec![0, 2, 3]),
        ];
        let nodes = vec![ServiceDistribution::exponential(0.5); 4];
        Simulation::new(
            nodes,
            files,
            CacheScheme::NoCache,
            SimConfig::new(4_000.0, 11),
        )
        .run()
    }

    #[test]
    fn healthy_run_passes_all_checks() {
        check_report(&run(), EngineBounds::for_run(3, 0, 0, 200)).unwrap();
    }

    #[test]
    fn violations_are_reported_not_panicked() {
        let report = run();
        let tight = EngineBounds {
            event_queue: 0,
            in_flight: 200,
        };
        assert!(matches!(
            check_report(&report, tight),
            Err(InvariantViolation::EventQueueBound { .. })
        ));
        let tight = EngineBounds {
            event_queue: 100,
            in_flight: 0,
        };
        assert!(matches!(
            check_report(&report, tight),
            Err(InvariantViolation::InFlightBound { .. })
        ));

        let mut broken = run();
        broken.reconstruction_failures = 3;
        let bounds = EngineBounds::for_run(3, 0, 0, 200);
        assert_eq!(
            check_report(&broken, bounds),
            Err(InvariantViolation::ReconstructionFailures { count: 3 })
        );
    }
}

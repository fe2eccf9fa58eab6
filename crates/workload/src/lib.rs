//! Workload modeling for the Sprout experiments.
//!
//! The paper drives both its simulations and its Ceph prototype with
//! synthetic workloads characterised by per-file Poisson request arrivals
//! whose rates change between *time bins* (§III). This crate provides:
//!
//! * [`spec`] — the paper's workload numbers: the rate groups and server
//!   service rates of its simulation section, the object-size mix of
//!   Table III and the testbed measurements of Tables IV and V.
//! * [`arrivals`] — homogeneous and non-homogeneous Poisson arrival
//!   generation, producing request traces.
//! * [`timebins`] — time-binned rate schedules (e.g. the three-bin scenario
//!   of Table I) and helpers to iterate over bins.
//! * [`estimator`] — the sliding-window arrival-rate estimator with
//!   change-point detection that triggers new time bins.
//! * [`zipf`] — Zipf popularity distributions for skewed-access scenarios.
//!
//! # Example
//!
//! ```
//! use sprout_workload::arrivals::PoissonArrivals;
//! use sprout_workload::spec::paper_simulation_rates;
//!
//! let rates = paper_simulation_rates(1000);
//! assert_eq!(rates.len(), 1000);
//! // aggregate arrival rate of the paper's simulation: ~0.1416 req/s
//! let total: f64 = rates.iter().sum();
//! assert!((total - 0.1416).abs() < 1e-3);
//!
//! let mut gen = PoissonArrivals::new(42);
//! let trace = gen.generate(&rates, 1000.0);
//! assert!(!trace.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod estimator;
pub mod spec;
pub mod timebins;
pub mod trace;
pub mod zipf;

pub use arrivals::{ArrivalStream, PoissonArrivals, RateProfile, Request};
pub use estimator::SlidingWindowEstimator;
pub use timebins::{RateSchedule, TimeBin};
pub use trace::{binned_rate_profiles, parse_trace_csv, TraceError, TraceEvent};
pub use zipf::ZipfPopularity;

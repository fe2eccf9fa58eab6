//! Workload modeling for the Sprout experiments.
//!
//! The paper drives both its simulations and its Ceph prototype with
//! synthetic workloads characterised by per-file Poisson request arrivals
//! whose rates change between *time bins* (§III). This crate provides:
//!
//! * [`spec`] — the paper's workload numbers: the rate groups and server
//!   service rates of its simulation section, the object-size mix of
//!   Table III and the testbed measurements of Tables IV and V.
//! * [`arrivals`] — Poisson arrival generation: whole request traces, and
//!   lazy constant-rate per-file streams.
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
//! use sprout_workload::timebins::table_i_schedule;
//!
//! // Table I: ten files whose rates change over three 100 s bins (Fig. 5).
//! let schedule = table_i_schedule(100.0);
//! assert_eq!((schedule.len(), schedule.num_files()), (3, 10));
//!
//! // A Poisson trace of the first bin, its rates boosted 1000x.
//! let busy = schedule.scaled(1000.0);
//! let bin = &busy.bins()[0];
//! let trace = PoissonArrivals::new(42).generate(&bin.rates, bin.duration);
//! assert!(!trace.is_empty());
//! assert!(trace.iter().all(|r| r.time < bin.duration && r.file < 10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod estimator;
pub mod spec;
pub mod timebins;
pub mod trace;
pub mod zipf;

pub use arrivals::{ArrivalStream, PoissonArrivals, Request};
pub use estimator::SlidingWindowEstimator;
pub use timebins::{RateSchedule, TimeBin};
pub use trace::{binned_rate_schedule, parse_trace_csv, TraceError, TraceEvent};
pub use zipf::ZipfPopularity;

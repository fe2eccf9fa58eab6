//! Queueing-theoretic latency analysis for erasure-coded storage.
//!
//! This crate implements the analytical machinery of §IV of the Sprout paper:
//!
//! * [`dist`] — chunk service-time distributions with their first three
//!   moments (`E[X] = 1/µ`, `E[X²] = Γ²`, `E[X³] = Γ̂³`) and sampling support
//!   for the discrete-event simulator.
//! * [`mg1`] — M/G/1 queue-delay moments under Poisson chunk arrivals
//!   (Eqs. (3) and (4) of the paper, derived from the Pollaczek–Khinchine
//!   transform), together with their derivatives with respect to the node
//!   arrival rate `Λ_j`, which the optimizer's gradient needs.
//! * [`bound`] — the order-statistic upper bound on per-file latency
//!   (Lemma 1): the one per-file term at a given auxiliary variable `z`,
//!   its closed-form sub-gradient, and the minimizing `z ≥ 0`.
//! * [`stability`] — queue-stability checks (`ρ_j < 1`).
//!
//! # Example
//!
//! ```
//! use sprout_queueing::dist::ServiceDistribution;
//! use sprout_queueing::mg1::queue_delay_moments;
//! use sprout_queueing::bound::{latency_bound_given_z, optimal_z, SchedulingTerm};
//!
//! // Two storage nodes with exponential service, one loaded more than the other.
//! let fast = ServiceDistribution::exponential(0.1).moments();
//! let slow = ServiceDistribution::exponential(0.06).moments();
//! let q_fast = queue_delay_moments(0.02, &fast)?;
//! let q_slow = queue_delay_moments(0.02, &slow)?;
//!
//! // A file that reads one chunk from each node with probability 1.
//! let terms = vec![
//!     SchedulingTerm { probability: 1.0, delay: q_fast },
//!     SchedulingTerm { probability: 1.0, delay: q_slow },
//! ];
//! // Lemma 1's bound is the per-file term at its minimizing z.
//! let bound = latency_bound_given_z(optimal_z(&terms), terms);
//! assert!(bound >= q_slow.mean);
//! # Ok::<(), sprout_queueing::stability::StabilityError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bound;
pub mod dist;
pub mod mg1;
pub mod stability;

pub use bound::{latency_bound_given_z, SchedulingTerm};
pub use dist::{ServiceDistribution, ServiceMoments};
pub use mg1::{queue_delay_moments, QueueDelayMoments};
pub use stability::StabilityError;

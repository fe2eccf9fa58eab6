//! Queueing-theoretic latency analysis for erasure-coded storage.
//!
//! This crate implements the analytical machinery of §IV of the Sprout paper:
//!
//! * [`dist`] — chunk service-time distributions with their first three
//!   moments (`E[X] = 1/µ`, `E[X²] = Γ²`, `E[X³] = Γ̂³`) and sampling support
//!   for the discrete-event simulator.
//! * [`mg1`] — one node's M/G/1 queue under Poisson chunk arrivals,
//!   [`NodeQueue`]: the queue-delay moments of Eqs. (3) and (4) (from the
//!   Pollaczek–Khinchine transform), their derivatives in the node arrival
//!   rate `Λ_j`, and the node's excess in Lemma 1 with its derivatives,
//!   which the optimizer's gradient needs.
//! * [`bound`] — the order-statistic upper bound on per-file latency
//!   (Lemma 1): the one per-file term at a given auxiliary variable `z`,
//!   a sum of node excesses, and the minimizing `z ≥ 0`.
//! * [`stability`] — the error for an overloaded node (`ρ_j ≥ 1`).
//!
//! # Example
//!
//! ```
//! use sprout_queueing::bound::{latency_bound_given_z, optimal_z};
//! use sprout_queueing::dist::ServiceDistribution;
//! use sprout_queueing::mg1::NodeQueue;
//!
//! // Two storage nodes with exponential service, one loaded more than the other.
//! let fast = ServiceDistribution::exponential(0.1).moments();
//! let slow = ServiceDistribution::exponential(0.06).moments();
//! let q_fast = NodeQueue::new(0, 0.02, &fast)?;
//! let q_slow = NodeQueue::new(1, 0.02, &slow)?;
//!
//! // A file that reads one chunk from each node with probability 1.
//! let pairs = [(1.0, &q_fast), (1.0, &q_slow)];
//! // Lemma 1's bound is the per-file term at its minimizing z.
//! let bound = latency_bound_given_z(optimal_z(pairs), pairs);
//! assert!(bound >= q_slow.mean());
//! # Ok::<(), sprout_queueing::stability::StabilityError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bound;
pub mod dist;
pub mod mg1;
pub mod stability;

pub use bound::latency_bound_given_z;
pub use dist::{ServiceDistribution, ServiceMoments};
pub use mg1::NodeQueue;
pub use stability::StabilityError;

//! Cache-content optimization for erasure-coded storage with functional
//! caching (§IV of the Sprout paper).
//!
//! Given a [`StorageModel`] (per-node service-time moments, per-file arrival
//! rates, erasure-code parameters and chunk placement) and a cache capacity
//! `C` (in chunks), the optimizer decides
//!
//! * `d_i` — how many functional chunks of file `i` to keep in the cache, and
//! * `π_{i,j}` — the probability that a file-`i` request reads a chunk from
//!   storage node `j`,
//!
//! to minimize the arrival-rate-weighted mean latency bound of Lemma 1,
//! subject to `Σ_i d_i ≤ C`, `Σ_j π_{i,j} = k_i − d_i`, `π_{i,j} ∈ [0, 1]`,
//! `π_{i,j} = 0` for nodes not hosting file `i`, and integer `d_i`.
//!
//! The solution method follows Algorithm 1 of the paper:
//!
//! 1. **Prob Z** — for fixed `π`, the auxiliary variables `z_i` separate per
//!    file and each 1-D convex problem is solved exactly (bisection on the
//!    monotone derivative, clamped at zero).
//! 2. **Prob Π** — for fixed `z`, minimize over `π` with the integer
//!    constraint relaxed, by projected gradient descent with an exact
//!    Euclidean projection onto the constraint polytope.
//! 3. **Rounding** — iteratively pin `Σ_j π_{i,j}` to an integer for the
//!    file(s) with the largest fractional part and re-solve, until every
//!    `d_i` is an integer.
//! 4. Repeat 1–3 until the objective improves by less than a tolerance.
//!
//! [`CachePlan::evaluate`] is the bound at any scheduling, and a plan is that
//! evaluation at Algorithm 1's rows.
//!
//! # Example
//!
//! ```
//! use sprout_optimizer::{FileModel, Optimizer, OptimizerConfig, StorageModel};
//! use sprout_queueing::dist::ServiceDistribution;
//!
//! // Four nodes, two files with a (3, 2) code each.
//! let nodes = vec![
//!     ServiceDistribution::exponential(1.0).moments(),
//!     ServiceDistribution::exponential(0.8).moments(),
//!     ServiceDistribution::exponential(0.5).moments(),
//!     ServiceDistribution::exponential(0.4).moments(),
//! ];
//! let files = vec![
//!     FileModel::new(0.05, 2, vec![0, 1, 2]),
//!     FileModel::new(0.20, 2, vec![1, 2, 3]),
//! ];
//! let model = StorageModel::new(nodes, files)?;
//! let plan = Optimizer::new(OptimizerConfig::default()).run(&model, 1)?;
//! assert_eq!(plan.cached_chunks.iter().sum::<usize>(), 1);
//! # Ok::<(), sprout_optimizer::OptimizerError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm1;
pub mod config;
pub mod error;
pub mod model;
mod objective;
mod prob_pi;
mod prob_z;
mod projection;
pub mod solution;

pub use algorithm1::Optimizer;
pub use config::OptimizerConfig;
pub use error::OptimizerError;
pub use model::{FileModel, StorageModel};
pub use solution::{CachePlan, ConvergenceTrace};

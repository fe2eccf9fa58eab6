//! # Sprout — functional caching for erasure-coded storage
//!
//! This crate is the public entry point of a from-scratch reproduction of
//! *"Sprout: A Functional Caching Approach to Minimize Service Latency in
//! Erasure-Coded Storage"* (Aggarwal, Chen, Lan, Xiang — IEEE ICDCS 2016).
//!
//! A file stored with an `(n, k)` MDS erasure code can be reconstructed from
//! any `k` of its `n` coded chunks. *Functional caching* places `d` **newly
//! coded** chunks of a file in a compute-server cache such that the cached
//! chunks plus the stored chunks form an `(n + d, k)` MDS code: a read then
//! needs only `k − d` chunks from *any* of the `n` storage nodes, which both
//! shortens the fork-join critical path and increases scheduling freedom.
//! Sprout chooses, for every file, how many chunks to cache (`d_i`) and with
//! which probabilities to read from each node (`π_{i,j}`), minimizing an
//! analytical upper bound on mean service latency.
//!
//! The workspace is organised in layers, all re-exported here:
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | coding | [`erasure`] (over [`gf`]) | Reed–Solomon codes, functional cache chunks |
//! | analysis | [`queueing`] | service-time moments, M/G/1 delays, Lemma 1 bound |
//! | optimization | [`optimizer`] | Prob Z, Prob Π, Algorithm 1 |
//! | substrate | [`cluster`] | in-memory erasure-coded object store (Ceph substitute) |
//! | evaluation | [`sim`], [`workload`] | discrete-event simulator, workload generators |
//!
//! The types in this crate glue those layers together:
//!
//! * [`SystemSpec`] / [`SproutSystem`] — describe a cluster + file population
//!   and run the optimize → analyze → simulate pipeline.
//! * [`ScenarioSpec`] — what happens over a run (node churn, rate shifts,
//!   re-optimization points); [`ScenarioSpec::time_bins`] re-plans the cache
//!   at every time bin of a workload schedule through
//!   [`SproutSystem::replan`], and each bin's plan is the scheme its swap
//!   installs.
//!
//! # Quickstart
//!
//! ```
//! use sprout::sim::SimConfig;
//! use sprout::{CachePolicy, SystemSpec, SproutSystem};
//! use sprout_queueing::dist::ServiceDistribution;
//!
//! // Six heterogeneous storage nodes, eight files with a (4, 2) code.
//! let spec = SystemSpec::builder()
//!     .node_service_rates(&[0.5, 0.5, 0.4, 0.4, 0.3, 0.3])
//!     .uniform_files(8, 2, 4, 0.04)
//!     .cache_capacity_chunks(8)
//!     .build()?;
//! let system = SproutSystem::new(spec)?;
//!
//! // Optimal functional-cache placement for this time bin.
//! let plan = system.optimize()?;
//! assert!(plan.cache_chunks_used() <= 8);
//!
//! // Validate by discrete-event simulation: resolve the policy's scheme,
//! // then build and run its simulation.
//! let scheme = system.cache_scheme(CachePolicy::Functional, Some(&plan))?;
//! let report = system.simulation(scheme, SimConfig::new(20_000.0, 7)).run();
//! assert!(report.overall.mean <= plan.objective * 1.1 + 0.5);
//! # Ok::<(), sprout::SproutError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod error;
pub mod fuzz;
pub mod loader;
pub mod scenario;
pub mod serve;
pub mod spec;
pub mod sweep;
pub mod system;

pub use backend::StoreBackend;
pub use error::SproutError;
pub use fuzz::ScenarioFuzzer;
pub use loader::{LoadError, RunSpec};
pub use scenario::{ScenarioActionSpec, ScenarioEventSpec, ScenarioSpec};
pub use serve::{LatencyHistogram, ServeOpts, ServePlan, ServeReport, Sproutd};
pub use spec::{FileConfig, SystemSpec, SystemSpecBuilder};
pub use sprout_cluster::{CachePolicy, ClusterView, Placement, PlacementChoice, RebalanceReport};
pub use sweep::{SimSweep, SweepBackend};
pub use system::{CachePolicyChoice, PlannedCell, PolicyComparison, SproutSystem};

// Re-export the layer crates under stable names so downstream users only
// need a dependency on `sprout`.
pub use sprout_cluster as cluster;
pub use sprout_erasure as erasure;
pub use sprout_gf as gf;
pub use sprout_optimizer as optimizer;
pub use sprout_queueing as queueing;
pub use sprout_sim as sim;
pub use sprout_workload as workload;

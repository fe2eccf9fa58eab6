//! Discrete-event simulation of an erasure-coded storage cluster with
//! caching.
//!
//! The simulator realizes exactly the stochastic model analysed in §III–IV of
//! the paper: Poisson file-request arrivals, per-node FIFO queues with
//! general service-time distributions, and probabilistic scheduling of each
//! request's `k_i − d_i` chunk reads onto distinct storage nodes, with the
//! remaining `d_i` chunks served by the compute-server cache. It is used to
//!
//! * validate that the Lemma 1 bound really upper-bounds simulated latency,
//! * compare functional caching against exact caching, Ceph-style LRU
//!   replicated caching and no caching (Figs. 10 and 11), and
//! * reproduce the chunk-scheduling dynamics of Fig. 7.
//!
//! # Example
//!
//! ```
//! use sprout_queueing::dist::ServiceDistribution;
//! use sprout_sim::{CacheScheme, SimConfig, SimFile, Simulation};
//!
//! let nodes = vec![ServiceDistribution::exponential(0.5); 4];
//! let files = vec![SimFile::new(0.05, 2, vec![0, 1, 2, 3])];
//! let sim = Simulation::new(nodes, files, CacheScheme::NoCache, SimConfig::new(20_000.0, 7));
//! let report = sim.run();
//! assert!(report.overall.mean > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod config;
pub mod engine;
pub mod event;
pub mod invariants;
pub mod metrics;
pub mod policy;
pub mod replicate;
pub mod scenario;
pub mod scheduler;
pub mod sweep;

pub use backend::{ChunkBackend, FinishedRequest};
pub use config::SimConfig;
pub use engine::{replication_seed, SimFile, SimReport, Simulation};
pub use invariants::{check_report, EngineBounds, InvariantViolation};
pub use metrics::{LatencySummary, SlotCounts};
pub use policy::CacheScheme;
pub use replicate::MeanCi;
pub use scenario::{Scenario, ScenarioAction, ScenarioEvent};
pub use sweep::{CellTiming, Sample, SweepCell, SweepGrid, SweepReport, SweepRow, SweepTimings};

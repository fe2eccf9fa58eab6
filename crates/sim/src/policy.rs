//! Cache schemes the simulator can run.

use crate::engine::SimFile;

/// How chunk reads are scheduled onto storage nodes when a plan is in force.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingRule {
    /// Probabilistic scheduling with the plan's `π_{i,j}` marginals (the
    /// policy analysed by the paper).
    Probabilistic,
    /// Load-oblivious: `k_i − d_i` distinct hosting nodes chosen uniformly at
    /// random (ablation baseline).
    Uniform,
}

/// The caching scheme simulated for the whole system.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheScheme {
    /// No cache: every request reads `k_i` chunks from storage, scheduled
    /// uniformly over the file's hosting nodes.
    NoCache,
    /// A planner-provided placement (functional caching): file `i` has
    /// `cached_chunks[i]` coded chunks in the cache and schedules its
    /// remaining reads with the given marginals.
    Functional {
        /// Number of cached (functional) chunks per file.
        cached_chunks: Vec<usize>,
        /// Scheduling marginals `π_{i,j}`, one row per file aligned with its
        /// placement: entry `r` belongs to the node hosting chunk row `r`
        /// (the layout of the optimizer's `CachePlan::scheduling`).
        scheduling: Vec<Vec<f64>>,
        /// How to turn the marginals into per-request node sets.
        rule: SchedulingRule,
    },
    /// Exact caching: like `Functional`, but the cached chunks are copies of
    /// the first `d_i` storage chunks, so those hosting nodes cannot serve
    /// the request. Only a row's entries past the first `d_i` are sampled.
    Exact {
        /// Number of cached (copied) chunks per file.
        cached_chunks: Vec<usize>,
        /// Scheduling marginals, laid out as in `Functional`.
        scheduling: Vec<Vec<f64>>,
    },
    /// Ceph-style LRU replicated cache tier: whole objects are promoted on
    /// access and evicted least-recently-used; a cache-resident object is
    /// served entirely from the cache.
    LruReplicated {
        /// Cache capacity in chunks (of the simulated chunk size).
        capacity_chunks: usize,
        /// Replication factor of the cache tier (the paper's baseline uses 2).
        replication: u32,
    },
}

impl CacheScheme {
    /// The paper's baseline: dual-replicated LRU cache tier.
    pub fn ceph_lru(capacity_chunks: usize) -> Self {
        CacheScheme::LruReplicated {
            capacity_chunks,
            replication: 2,
        }
    }

    /// Number of cached chunks for `file` under this scheme at plan time
    /// (LRU caching is dynamic, so it reports 0 here).
    pub fn planned_cache_chunks(&self, file: usize) -> usize {
        match self {
            CacheScheme::Functional { cached_chunks, .. }
            | CacheScheme::Exact { cached_chunks, .. } => {
                cached_chunks.get(file).copied().unwrap_or(0)
            }
            _ => 0,
        }
    }

    /// Checks the scheme can plan requests for `files`: the planned schemes
    /// sample `scheduling[file]` against the file's placement on every
    /// arrival, so a missing or misaligned row must fail fast here rather
    /// than mid-run.
    ///
    /// # Panics
    ///
    /// Panics if a Functional/Exact scheduling matrix has fewer rows than
    /// there are files, or a row's length differs from its file's placement.
    pub fn validate(&self, files: &[SimFile]) {
        match self {
            CacheScheme::Functional { scheduling, .. } | CacheScheme::Exact { scheduling, .. } => {
                assert!(
                    scheduling.len() >= files.len(),
                    "cache scheme has {} scheduling rows but the system has {} files",
                    scheduling.len(),
                    files.len()
                );
                for (i, (row, file)) in scheduling.iter().zip(files).enumerate() {
                    assert_eq!(
                        row.len(),
                        file.placement.len(),
                        "scheduling row {i} must have one entry per placement entry"
                    );
                }
            }
            CacheScheme::NoCache | CacheScheme::LruReplicated { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceph_lru_baseline_uses_dual_replication() {
        let s = CacheScheme::ceph_lru(100);
        assert_eq!(
            s,
            CacheScheme::LruReplicated {
                capacity_chunks: 100,
                replication: 2
            }
        );
        assert_eq!(s.planned_cache_chunks(3), 0);
    }

    #[test]
    fn planned_cache_chunks_lookup() {
        let s = CacheScheme::Functional {
            cached_chunks: vec![1, 2, 0],
            scheduling: vec![vec![]; 3],
            rule: SchedulingRule::Probabilistic,
        };
        assert_eq!(s.planned_cache_chunks(0), 1);
        assert_eq!(s.planned_cache_chunks(1), 2);
        assert_eq!(s.planned_cache_chunks(9), 0);
        assert_eq!(CacheScheme::NoCache.planned_cache_chunks(0), 0);
    }

    #[test]
    #[should_panic(expected = "one entry per placement entry")]
    fn validate_rejects_a_row_misaligned_with_its_placement() {
        let files = vec![SimFile::new(0.1, 2, vec![3, 0, 5])];
        // A node-indexed row (length m = 6) is not a placement-aligned one.
        CacheScheme::Exact {
            cached_chunks: vec![1],
            scheduling: vec![vec![0.0, 0.5, 0.0, 0.0, 0.0, 0.5]],
        }
        .validate(&files);
    }
}

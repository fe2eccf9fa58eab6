//! Cache schemes the simulator can run, and the one read rule they share.
//!
//! Every scheme states which hosts a request reads through
//! [`CacheScheme::read_rows`]: one placement-aligned row of read marginals
//! per file. The engine draws each request's reads from its file's row by
//! Madow's systematic sampling, and Lemma 1's evaluator
//! (`CachePlan::evaluate`, through `SproutSystem::bound`) bounds the same
//! rows. A planned scheme carries one [`PlannedCache`]: `d_i` cached chunks
//! per file plus the scheduling marginals `π_{i,j}` its remaining
//! `k_i − d_i` reads follow. Under functional caching any host may serve
//! those reads, and the plan is Algorithm 1's. Exact caching copies the
//! first `d_i` chunks, so their hosts cannot serve; its rows are its own
//! Algorithm 1 solve over the other hosts (`SproutSystem::cache_scheme`),
//! with the same `d_i`. No cache and an LRU miss read
//! `k_i / n_i` from each host. [`CacheScheme::validate`] checks a scheme
//! once, at the boundary, so the engine samples it as it is.

use sprout_cluster::CachePolicy;

use crate::engine::SimFile;

/// A cache plan as the simulator runs it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedCache {
    /// Number of cached chunks per file (`d_i`).
    pub cached_chunks: Vec<usize>,
    /// Scheduling marginals `π_{i,j}`, one row per file aligned with its
    /// placement: entry `r` belongs to the node hosting chunk row `r`
    /// (the layout of the optimizer's `CachePlan::scheduling`).
    pub scheduling: Vec<Vec<f64>>,
}

/// The caching scheme simulated for the whole system.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheScheme {
    /// No cache: every request reads `k_i` chunks from storage, `k_i / n_i`
    /// from each of the file's hosts, drawn systematically.
    NoCache,
    /// Functional caching: file `i` has `d_i` newly coded chunks in the
    /// cache, so any `k_i − d_i` of its hosts complete a request; they are
    /// drawn systematically with the plan's marginals.
    Functional(PlannedCache),
    /// Exact caching: the cached chunks are copies of the first `d_i`
    /// storage chunks, so those hosting nodes cannot serve the request.
    /// Only a row's entries past the first `d_i` are sampled; a plan built
    /// by `SproutSystem::cache_scheme` holds there Algorithm 1's optimum
    /// for those hosts alone.
    Exact(PlannedCache),
    /// Ceph-style LRU cache tier: whole objects are promoted on access, each
    /// weighing [`LRU_REPLICATION`](sprout_cluster::LRU_REPLICATION) replicas,
    /// and evicted least-recently-used; a cache-resident object is served
    /// entirely from the cache. A miss reads `k_i` chunks, `k_i / n_i` from
    /// each of the file's hosts, drawn systematically.
    LruReplicated {
        /// Cache capacity in chunks (of the simulated chunk size).
        capacity_chunks: usize,
    },
}

impl CacheScheme {
    /// The store cache policy that holds this scheme's cached chunks.
    pub fn policy(&self) -> CachePolicy {
        match self {
            CacheScheme::NoCache => CachePolicy::None,
            CacheScheme::Functional(_) => CachePolicy::Functional,
            CacheScheme::Exact(_) => CachePolicy::Exact,
            CacheScheme::LruReplicated { .. } => CachePolicy::LruReplicated,
        }
    }

    /// Where a file with `d` cached chunks starts reading its placement:
    /// the hosts of exactly-cached rows cannot serve the request.
    pub(crate) fn first_eligible(&self, d: usize) -> usize {
        match self {
            CacheScheme::Exact(_) => d,
            _ => 0,
        }
    }

    /// The read marginals of every file, one row per file aligned with its
    /// placement: entry `r` is the probability that a request reads the
    /// node hosting chunk row `r` (for the LRU tier, a miss). `k_i / n_i`
    /// per host with no cache and for LRU misses, the plan's rows under
    /// functional caching, and the plan's rows with the first `d_i` entries
    /// zeroed under exact caching. The engine samples these rows and Lemma 1
    /// bounds them.
    pub fn read_rows(&self, files: &[SimFile]) -> Vec<Vec<f64>> {
        match self {
            CacheScheme::NoCache | CacheScheme::LruReplicated { .. } => files
                .iter()
                .map(|f| {
                    let n = f.placement.len();
                    vec![f.k as f64 / n as f64; n]
                })
                .collect(),
            CacheScheme::Functional(plan) => plan.scheduling.clone(),
            CacheScheme::Exact(plan) => {
                let mut rows = plan.scheduling.clone();
                for (row, &d) in rows.iter_mut().zip(&plan.cached_chunks) {
                    row.iter_mut().take(d).for_each(|p| *p = 0.0);
                }
                rows
            }
        }
    }

    /// Checks the scheme can plan requests for `files`: the engine samples
    /// [`read_rows`](Self::read_rows)`[file]` against the file's placement
    /// on every arrival, so a missing, misaligned or infeasible row must
    /// fail fast here rather than mid-run.
    ///
    /// # Errors
    ///
    /// The first broken rule, unless a Functional/Exact plan has one
    /// scheduling row and one `d_i ≤ k_i` per file and each row has one
    /// entry per placement entry, and every file's read marginals lie in
    /// `[0, 1]` within 1e-9 and sum to `k_i − d_i` within 1e-6 (`d_i = 0`
    /// without a plan, so a fully cached file reads nothing).
    pub fn validate(&self, files: &[SimFile]) -> Result<(), String> {
        let cached = |i: usize| match self {
            CacheScheme::Functional(plan) | CacheScheme::Exact(plan) => plan.cached_chunks[i],
            _ => 0,
        };
        if let CacheScheme::Functional(plan) | CacheScheme::Exact(plan) = self {
            let (rows, counts, n) = (plan.scheduling.len(), plan.cached_chunks.len(), files.len());
            if rows != n || counts != n {
                return Err(format!(
                    "cache scheme has {rows} scheduling rows and {counts} cached-chunk counts but \
                     the system has {n} files"
                ));
            }
            for (i, file) in files.iter().enumerate() {
                if plan.scheduling[i].len() != file.placement.len() {
                    return Err(format!(
                        "scheduling row {i} must have one entry per placement entry"
                    ));
                }
                let d = cached(i);
                if d > file.k {
                    return Err(format!("file {i} caches {d} chunks but k = {}", file.k));
                }
            }
        }
        for (i, (file, row)) in files.iter().zip(self.read_rows(files)).enumerate() {
            if let Some(p) = row.iter().find(|p| !(-1e-9..=1.0 + 1e-9).contains(*p)) {
                return Err(format!(
                    "file {i} reads a host with marginal {p}, out of [0, 1]"
                ));
            }
            let reads: f64 = row.iter().sum();
            let needed = (file.k - cached(i)) as f64;
            if (reads - needed).abs() >= 1e-6 {
                return Err(format!(
                    "file {i} schedules {reads} reads but needs k − d = {needed}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Validates one (k, 3-host) file planned with `cached_chunks`.
    fn check(scheme: fn(PlannedCache) -> CacheScheme, k: usize, d: Vec<usize>, row: Vec<f64>) {
        let scheme = scheme(PlannedCache {
            cached_chunks: d,
            scheduling: vec![row],
        });
        if let Err(message) = scheme.validate(&[SimFile::new(0.1, k, vec![3, 0, 5])]) {
            panic!("{message}");
        }
    }

    #[test]
    fn validate_accepts_rows_that_schedule_the_missing_reads() {
        check(CacheScheme::Functional, 2, vec![1], vec![0.5, 0.25, 0.25]);
        // Exact samples only past the copied row; its entry is ignored.
        check(CacheScheme::Exact, 2, vec![1], vec![0.9, 0.5, 0.5]);
        // A fully cached file reads nothing.
        check(CacheScheme::Exact, 2, vec![2], vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "one entry per placement entry")]
    fn validate_rejects_a_row_misaligned_with_its_placement() {
        // A node-indexed row (length m = 6) is not a placement-aligned one.
        check(CacheScheme::Exact, 2, vec![1], vec![0.25; 6]);
    }

    #[test]
    #[should_panic(expected = "cached-chunk counts")]
    fn validate_rejects_a_short_cached_chunks() {
        check(CacheScheme::Exact, 2, vec![], vec![0.5, 0.25, 0.25]);
    }

    #[test]
    #[should_panic(expected = "caches 3 chunks but k = 2")]
    fn validate_rejects_more_cached_chunks_than_k() {
        check(CacheScheme::Exact, 2, vec![3], vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "needs k − d = 1")]
    fn validate_rejects_a_functional_row_missing_k_minus_d() {
        // The whole row is sampled: 2 reads where k − d = 1 are needed.
        check(CacheScheme::Functional, 2, vec![1], vec![1.0, 0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "needs k − d = 1")]
    fn validate_rejects_an_exact_shifted_row_missing_k_minus_d() {
        // The row sums to k − d, but its sampled part (past the copied row)
        // holds only half a read.
        check(CacheScheme::Exact, 2, vec![1], vec![0.5, 0.25, 0.25]);
    }

    #[test]
    #[should_panic(expected = "file 0 reads a host with marginal 1.5, out of [0, 1]")]
    fn validate_rejects_a_marginal_out_of_range() {
        // The row sums to k − d = 2, but no host can be read 1.5 times.
        check(CacheScheme::Functional, 2, vec![0], vec![1.5, 0.5, 0.0]);
    }

    #[test]
    fn no_cache_and_lru_misses_read_k_over_n_from_every_host() {
        let files = [
            SimFile::new(0.1, 2, vec![3, 0, 5, 1]),
            SimFile::new(0.1, 3, vec![2, 4, 0]),
        ];
        let lru = CacheScheme::LruReplicated { capacity_chunks: 4 };
        for scheme in [CacheScheme::NoCache, lru] {
            assert_eq!(scheme.read_rows(&files), [vec![0.5; 4], vec![1.0; 3]]);
            assert_eq!(scheme.validate(&files), Ok(()));
        }
    }

    #[test]
    fn exact_rows_zero_the_copied_hosts() {
        let plan = PlannedCache {
            cached_chunks: vec![1, 0],
            scheduling: vec![vec![0.9, 0.5, 0.5], vec![0.5, 0.25, 0.25]],
        };
        let files = [
            SimFile::new(0.1, 2, vec![3, 0, 5]),
            SimFile::new(0.1, 1, vec![1, 2, 4]),
        ];
        let exact = CacheScheme::Exact(plan.clone()).read_rows(&files);
        assert_eq!(exact, [vec![0.0, 0.5, 0.5], vec![0.5, 0.25, 0.25]]);
        assert_eq!(
            CacheScheme::Functional(plan.clone()).read_rows(&files),
            plan.scheduling
        );
    }
}

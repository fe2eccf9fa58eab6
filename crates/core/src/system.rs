//! The [`SproutSystem`] facade: optimize → analyze → simulate.

use sprout_cluster::{CachePolicy, ClusterView, ObjectDesc, RebalanceReport};
use sprout_optimizer::{CachePlan, FileModel, Optimizer, OptimizerConfig, StorageModel};
use sprout_sim::policy::SchedulingRule;
use sprout_sim::{CacheScheme, SimConfig, SimFile, SimReport, Simulation};

use crate::error::SproutError;
use crate::spec::SystemSpec;

/// The former name of [`CachePolicy`], kept while `benchmark/` still names
/// it.
pub type CachePolicyChoice = CachePolicy;

/// Simulated latency of every policy on the same workload, plus the analytic
/// bound for the functional plan — the comparison behind Figs. 10 and 11.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyComparison {
    /// Functional caching (optimized plan).
    pub functional: SimReport,
    /// Exact caching with the same cache counts.
    pub exact: SimReport,
    /// LRU replicated cache tier.
    pub lru: SimReport,
    /// No cache at all.
    pub no_cache: SimReport,
    /// The analytical mean-latency bound of the functional plan.
    pub analytic_bound: f64,
}

impl PolicyComparison {
    /// Relative latency reduction of functional caching over the LRU
    /// baseline (the headline number of the paper's evaluation, ~25 %).
    pub fn improvement_over_lru(&self) -> f64 {
        if self.lru.overall.mean <= 0.0 {
            0.0
        } else {
            1.0 - self.functional.overall.mean / self.lru.overall.mean
        }
    }
}

/// A configured storage system: spec, resolved placement and analytic model.
#[derive(Debug, Clone)]
pub struct SproutSystem {
    spec: SystemSpec,
    placements: Vec<Vec<usize>>,
    model: StorageModel,
}

impl SproutSystem {
    /// Builds a system from a validated specification.
    ///
    /// # Errors
    ///
    /// Returns [`SproutError::InvalidSpec`] for malformed placements and
    /// propagates model-validation errors.
    pub fn new(spec: SystemSpec) -> Result<Self, SproutError> {
        let placements = spec.resolved_placements()?;
        let nodes = spec
            .node_services
            .iter()
            .map(|d| d.moments())
            .collect::<Vec<_>>();
        let files = spec
            .files
            .iter()
            .zip(&placements)
            .map(|(f, p)| FileModel::new(f.arrival_rate, f.k, p.clone()))
            .collect();
        let model = StorageModel::new(nodes, files)?;
        Ok(SproutSystem {
            spec,
            placements,
            model,
        })
    }

    /// The system specification.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// The analytic storage model (arrival rates, moments, placement).
    pub fn model(&self) -> &StorageModel {
        &self.model
    }

    /// The resolved per-file placements.
    pub fn placements(&self) -> &[Vec<usize>] {
        &self.placements
    }

    /// Runs Algorithm 1 with the default configuration.
    ///
    /// # Errors
    ///
    /// Propagates optimizer errors (e.g. an unstable system).
    pub fn optimize(&self) -> Result<CachePlan, SproutError> {
        self.optimize_with(&OptimizerConfig::default())
    }

    /// Runs Algorithm 1 with a custom configuration.
    ///
    /// # Errors
    ///
    /// Propagates optimizer errors.
    pub fn optimize_with(&self, config: &OptimizerConfig) -> Result<CachePlan, SproutError> {
        Ok(Optimizer::new(*config).run(&self.model, self.spec.cache_capacity_chunks)?)
    }

    /// Runs Algorithm 1 warm-started from a previous plan's scheduling (the
    /// paper warm-starts across cache sizes in its convergence experiment).
    ///
    /// # Errors
    ///
    /// Propagates optimizer errors.
    pub fn optimize_warm(
        &self,
        config: &OptimizerConfig,
        previous: &CachePlan,
    ) -> Result<CachePlan, SproutError> {
        Ok(Optimizer::new(*config)
            .warm_start(previous)
            .run(&self.model, self.spec.cache_capacity_chunks)?)
    }

    /// Runs Algorithm 1 on a *degraded* model: the nodes in `down` are
    /// removed from every file's candidate set, so the plan schedules no
    /// storage read onto a failed node. The degraded model's rows cover only
    /// the surviving hosts; they are mapped back onto each file's full
    /// placement with probability zero at every down node's position, so the
    /// plan drops into the simulation engine unchanged. An empty `down` list
    /// is exactly [`optimize_with`](Self::optimize_with).
    ///
    /// # Errors
    ///
    /// Returns [`SproutError::InvalidSpec`] if a file retains fewer than `k`
    /// online hosts (it cannot be reconstructed from storage at all);
    /// propagates optimizer errors.
    pub fn optimize_excluding(
        &self,
        config: &OptimizerConfig,
        down: &[usize],
    ) -> Result<CachePlan, SproutError> {
        if down.is_empty() {
            return self.optimize_with(config);
        }
        let nodes = self
            .spec
            .node_services
            .iter()
            .map(|d| d.moments())
            .collect::<Vec<_>>();
        let files = self
            .spec
            .files
            .iter()
            .zip(&self.placements)
            .enumerate()
            .map(|(i, (f, p))| {
                let surviving: Vec<usize> =
                    p.iter().copied().filter(|n| !down.contains(n)).collect();
                if surviving.len() < f.k {
                    return Err(SproutError::InvalidSpec(format!(
                        "file {i} keeps only {} of {} hosts with nodes {down:?} down \
                         but needs k = {}",
                        surviving.len(),
                        p.len(),
                        f.k
                    )));
                }
                Ok(FileModel::new(f.arrival_rate, f.k, surviving))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let degraded = StorageModel::new(nodes, files)?;
        let mut plan = Optimizer::new(*config).run(&degraded, self.spec.cache_capacity_chunks)?;
        for (row, placement) in plan.scheduling.iter_mut().zip(&self.placements) {
            let mut surviving = std::mem::take(row).into_iter();
            *row = placement
                .iter()
                .map(|n| {
                    if down.contains(n) {
                        0.0
                    } else {
                        surviving.next().expect("one entry per surviving host")
                    }
                })
                .collect();
        }
        Ok(plan)
    }

    /// Prices the rebalance the spec's placement strategy would perform on a
    /// membership change: every auto-placed file is re-placed under `before`
    /// and `after` views and chunks landing on new nodes are counted (files
    /// with an explicit placement are pinned and never move). Chunk sizes
    /// come from each file's `size_bytes`.
    pub fn rebalance_report(&self, before: &ClusterView, after: &ClusterView) -> RebalanceReport {
        let strategy = self
            .spec
            .placement
            .build(self.spec.node_services.len().max(1), self.spec.seed);
        let objects: Vec<ObjectDesc> = self
            .spec
            .files
            .iter()
            .enumerate()
            .filter(|(_, f)| f.placement.is_none())
            .map(|(i, f)| ObjectDesc {
                id: i as u64,
                n: f.n,
                chunk_bytes: f.size_bytes.div_ceil(f.k.max(1) as u64),
            })
            .collect();
        strategy.on_membership_change(&objects, before, after)
    }

    /// Returns a copy of the system with new per-file arrival rates (a new
    /// time bin).
    ///
    /// # Errors
    ///
    /// Returns [`SproutError::InvalidSpec`] if the rate vector length does
    /// not match the number of files.
    pub fn with_arrival_rates(&self, rates: &[f64]) -> Result<Self, SproutError> {
        if rates.len() != self.spec.files.len() {
            return Err(SproutError::InvalidSpec(format!(
                "expected {} arrival rates, got {}",
                self.spec.files.len(),
                rates.len()
            )));
        }
        let mut spec = self.spec.clone();
        for (f, &r) in spec.files.iter_mut().zip(rates) {
            f.arrival_rate = r;
        }
        SproutSystem::new(spec)
    }

    /// Simulates the system under the given policy. `plan` is required for
    /// [`CachePolicy::Functional`] and [`CachePolicy::Exact`];
    /// it is ignored by the other policies.
    ///
    /// # Panics
    ///
    /// Panics if a plan is required but not supplied.
    pub fn simulate(
        &self,
        policy: CachePolicy,
        plan: Option<&CachePlan>,
        horizon: f64,
        seed: u64,
    ) -> SimReport {
        self.simulate_with_config(policy, plan, SimConfig::new(horizon, seed))
    }

    /// Like [`SproutSystem::simulate`] but with full control over the
    /// simulation configuration (warm-up, cache-read latency, slot length).
    ///
    /// # Panics
    ///
    /// Panics if a plan is required but not supplied.
    pub fn simulate_with_config(
        &self,
        policy: CachePolicy,
        plan: Option<&CachePlan>,
        config: SimConfig,
    ) -> SimReport {
        self.simulation(policy, plan, config).run()
    }

    /// Builds the configured [`Simulation`] without running it, so callers
    /// can attach a [`sprout_sim::Scenario`], a rate schedule, or run it on
    /// an explicit backend (e.g. [`crate::backend::StoreBackend`]) or the
    /// replication runner.
    ///
    /// # Panics
    ///
    /// Panics if a plan is required but not supplied.
    pub fn simulation(
        &self,
        policy: CachePolicy,
        plan: Option<&CachePlan>,
        config: SimConfig,
    ) -> Simulation {
        let scheme = self.cache_scheme(policy, plan);
        let sim_files: Vec<SimFile> = self
            .spec
            .files
            .iter()
            .zip(&self.placements)
            .map(|(f, p)| SimFile::new(f.arrival_rate, f.k, p.clone()))
            .collect();
        Simulation::new(self.spec.node_services.clone(), sim_files, scheme, config)
    }

    /// Builds a byte-accurate [`StoreBackend`](crate::backend::StoreBackend)
    /// for this system: every file's actual coded bytes are written onto an
    /// [`sprout_cluster::StoreHandle`] (object id = file index, the
    /// system's resolved placements), and the plan's cache chunks are
    /// installed. Run it with [`Simulation::run_on`] against the simulation
    /// built by [`SproutSystem::simulation`] for the same policy and plan.
    ///
    /// Every policy is supported, including
    /// [`CachePolicy::LruReplicated`]: the engine's LRU tier decides
    /// hits, promotions and evictions and mirrors them into the store, whose
    /// cache then serves (and decode-verifies) the hit requests from real
    /// data chunks.
    ///
    /// Files with `size_bytes = 0` get
    /// [`crate::backend::DEFAULT_OBJECT_BYTES`]-byte synthetic payloads; all
    /// payload bytes are deterministic in the spec seed.
    ///
    /// # Errors
    ///
    /// Returns [`SproutError::InvalidSpec`] if files disagree on `(n, k)` or
    /// a required plan is missing; propagates cluster and coding errors.
    pub fn byte_backend(
        &self,
        policy: CachePolicy,
        plan: Option<&CachePlan>,
        seed: u64,
    ) -> Result<crate::backend::StoreBackend, SproutError> {
        use crate::backend::{
            populate_store, synthetic_payload, StoreBackend, DEFAULT_OBJECT_BYTES,
        };

        let first = &self.spec.files[0];
        let (n, k) = (first.n, first.k);
        if !self.spec.files.iter().all(|f| f.n == n && f.k == k) {
            return Err(SproutError::InvalidSpec(
                "the byte-accurate backend requires a uniform (n, k) across files".into(),
            ));
        }
        if policy.is_planned() && plan.is_none() {
            return Err(SproutError::InvalidSpec(format!(
                "policy {policy:?} requires an optimized plan"
            )));
        }

        let payloads: Vec<Vec<u8>> = self
            .spec
            .files
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let len = if f.size_bytes == 0 {
                    DEFAULT_OBJECT_BYTES
                } else {
                    f.size_bytes
                } as usize;
                synthetic_payload(i, len, self.spec.seed)
            })
            .collect();
        let total_bytes: u64 = payloads.iter().map(|p| p.len() as u64).sum();
        let cache_capacity_bytes = match policy {
            // The spec's chunk budget translated to bytes. Residency is
            // decided by the engine's tier and mirrored in (so this value is
            // accounting, not admission), but it keeps the store's
            // used-bytes figure honest against the spec's budget.
            CachePolicy::LruReplicated => {
                let max_chunk = payloads
                    .iter()
                    .map(|p| p.len().div_ceil(k) as u64)
                    .max()
                    .unwrap_or(1);
                (self.spec.cache_capacity_chunks as u64).max(1) * max_chunk.max(1)
            }
            // Generous: planner-managed caches hold at most k of n chunks
            // per object, so total object bytes always fit.
            _ => total_bytes.max(1) * 2,
        };

        let config = sprout_cluster::ClusterConfig::builder()
            .nodes(self.spec.node_services.len())
            .code(n, k)
            .uniform_device(sprout_cluster::DeviceModel::ssd())
            .cache_policy(policy)
            .cache_capacity_bytes(cache_capacity_bytes)
            .seed(self.spec.seed)
            .build();
        let plan_counts = plan.map(|p| p.cached_chunks.as_slice());
        let store = populate_store(config, &self.placements, &payloads, plan_counts)?;
        Ok(StoreBackend::new(store, payloads, seed))
    }

    /// Simulates all four policies on the same workload and reports the
    /// comparison (plus the analytic bound of the supplied functional plan).
    pub fn compare_policies(&self, plan: &CachePlan, horizon: f64, seed: u64) -> PolicyComparison {
        PolicyComparison {
            functional: self.simulate(CachePolicy::Functional, Some(plan), horizon, seed),
            exact: self.simulate(CachePolicy::Exact, Some(plan), horizon, seed),
            lru: self.simulate(CachePolicy::LruReplicated, None, horizon, seed),
            no_cache: self.simulate(CachePolicy::None, None, horizon, seed),
            analytic_bound: plan.objective,
        }
    }

    /// The engine-level [`CacheScheme`] a policy resolves to. `plan` is
    /// required for [`CachePolicy::Functional`] and [`CachePolicy::Exact`];
    /// it is ignored by the other policies. Used directly when building
    /// scenario plan swaps.
    ///
    /// # Panics
    ///
    /// Panics if a plan is required but not supplied.
    pub fn cache_scheme(&self, policy: CachePolicy, plan: Option<&CachePlan>) -> CacheScheme {
        match policy {
            CachePolicy::None => CacheScheme::NoCache,
            CachePolicy::LruReplicated => CacheScheme::LruReplicated {
                capacity_chunks: self.spec.cache_capacity_chunks,
            },
            CachePolicy::Functional => {
                let plan = plan.expect("the functional policy requires an optimized plan");
                CacheScheme::Functional {
                    cached_chunks: plan.cached_chunks.clone(),
                    scheduling: plan.scheduling.clone(),
                    rule: SchedulingRule::Probabilistic,
                }
            }
            CachePolicy::Exact => {
                let plan = plan.expect("the exact policy requires an optimized plan");
                // Exact caching pins copies of the first d_i chunks; the
                // remaining reads spread uniformly over the other hosts.
                let scheduling: Vec<Vec<f64>> = self
                    .spec
                    .files
                    .iter()
                    .zip(&self.placements)
                    .enumerate()
                    .map(|(i, (f, p))| {
                        let d = plan.cached_chunks.get(i).copied().unwrap_or(0).min(f.k);
                        let mut row = vec![0.0; p.len()];
                        let eligible = &mut row[d.min(p.len())..];
                        if !eligible.is_empty() && f.k > d {
                            let prob = (f.k - d) as f64 / eligible.len() as f64;
                            eligible.fill(prob.min(1.0));
                        }
                        row
                    })
                    .collect();
                CacheScheme::Exact {
                    cached_chunks: plan.cached_chunks.clone(),
                    scheduling,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SystemSpec;

    fn small_system() -> SproutSystem {
        let spec = SystemSpec::builder()
            .node_service_rates(&[0.6, 0.6, 0.45, 0.45, 0.3, 0.3])
            .uniform_files(6, 2, 4, 0.04)
            .cache_capacity_chunks(6)
            .seed(3)
            .build()
            .unwrap();
        SproutSystem::new(spec).unwrap()
    }

    #[test]
    fn optimize_and_simulate_pipeline() {
        let system = small_system();
        let plan = system.optimize().unwrap();
        assert!(plan.cache_chunks_used() <= 6);
        let report = system.simulate(CachePolicy::Functional, Some(&plan), 30_000.0, 1);
        assert!(report.completed_requests > 100);
        // The analytic objective is an upper bound on the simulated mean.
        assert!(plan.objective >= report.overall.mean * 0.9);
    }

    #[test]
    fn policy_comparison_orders_policies_sensibly() {
        let system = small_system();
        let plan = system.optimize().unwrap();
        let cmp = system.compare_policies(&plan, 40_000.0, 5);
        // Functional caching should not lose to no caching.
        assert!(cmp.functional.overall.mean <= cmp.no_cache.overall.mean * 1.05);
        // Functional caching should not lose to exact caching with the same counts.
        assert!(cmp.functional.overall.mean <= cmp.exact.overall.mean * 1.10);
        assert!(cmp.analytic_bound > 0.0);
        // improvement metric is well defined
        let imp = cmp.improvement_over_lru();
        assert!(imp <= 1.0);
    }

    #[test]
    fn with_arrival_rates_builds_a_new_bin() {
        let system = small_system();
        let rates = vec![0.01; 6];
        let next = system.with_arrival_rates(&rates).unwrap();
        assert!((next.model().total_arrival_rate() - 0.06).abs() < 1e-12);
        assert!(system.with_arrival_rates(&[0.1]).is_err());
        // placements are preserved across bins
        assert_eq!(system.placements(), next.placements());
    }

    #[test]
    #[should_panic(expected = "requires an optimized plan")]
    fn functional_simulation_without_plan_panics() {
        let system = small_system();
        let _ = system.simulate(CachePolicy::Functional, None, 100.0, 0);
    }
}

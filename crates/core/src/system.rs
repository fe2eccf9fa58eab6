//! The [`SproutSystem`] facade: optimize → analyze → simulate.

use sprout_cluster::{CachePolicy, ClusterView, ObjectDesc, RebalanceReport};
use sprout_optimizer::{CachePlan, FileModel, Optimizer, OptimizerConfig, StorageModel};
use sprout_sim::{CacheScheme, PlannedCache, SimConfig, SimFile, SimReport, Simulation};

use crate::error::SproutError;
use crate::spec::SystemSpec;

/// The former name of [`CachePolicy`], kept while `benchmark/` still names
/// it.
pub type CachePolicyChoice = CachePolicy;

/// Simulated latency of every policy on the same workload — the comparison
/// behind Figs. 10 and 11. Each policy's bound is [`SproutSystem::bound`].
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyComparison {
    /// Functional caching (optimized plan).
    pub functional: SimReport,
    /// Exact caching of the same cache counts, its remaining reads at their
    /// own optimum ([`SproutSystem::cache_scheme`]).
    pub exact: SimReport,
    /// LRU replicated cache tier.
    pub lru: SimReport,
    /// No cache at all.
    pub no_cache: SimReport,
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

    /// Re-plans the cache at a bin boundary: Algorithm 1 on the model of the
    /// hosts that survive `down` (each down node leaves every file's
    /// candidate set, so no storage read is scheduled onto it), run from a
    /// cold start and, given the `previous` plan in force, from its rows
    /// restricted to the surviving hosts. The warm plan is kept only when
    /// its objective is strictly lower, and a start that fails is skipped.
    /// The rows come back on each file's full placement with probability
    /// zero at every down node's position, so the plan drops into the
    /// simulation engine unchanged. With `previous: None` this is the cold
    /// solve alone; with `down` empty as well it is
    /// [`optimize_with`](Self::optimize_with). Exact caching's rows in
    /// [`cache_scheme`](Self::cache_scheme) come from the same residual solve.
    ///
    /// # Errors
    ///
    /// Returns [`SproutError::InvalidSpec`] if a file retains fewer than `k`
    /// online hosts (it cannot be reconstructed from storage at all), and
    /// the cold start's optimizer error if both starts fail.
    pub fn replan(
        &self,
        config: &OptimizerConfig,
        previous: Option<&CachePlan>,
        down: &[usize],
    ) -> Result<CachePlan, SproutError> {
        let reads: Vec<usize> = self.spec.files.iter().map(|f| f.k).collect();
        let keep = |i: usize, r: usize| !down.contains(&self.placements[i][r]);
        let capacity = self.spec.cache_capacity_chunks;
        self.solve_residual(config, capacity, keep, &reads, previous)
    }

    /// Algorithm 1 on the residual model in which file `i` reads `reads[i]`
    /// chunks from its placement rows `r` with `keep(i, r)`, started as
    /// [`replan`](Self::replan) says. Files with no reads are left out and
    /// every node stays, so an overload names a real node. The rows come
    /// back on full placements, zero at every row left out; the plan's other
    /// per-file fields list only the files that read. Errors as `replan`'s.
    fn solve_residual(
        &self,
        config: &OptimizerConfig,
        capacity: usize,
        keep: impl Fn(usize, usize) -> bool,
        reads: &[usize],
        previous: Option<&CachePlan>,
    ) -> Result<CachePlan, SproutError> {
        let kept: Vec<(usize, Vec<usize>)> = (self.placements.iter().enumerate())
            .filter(|&(i, _)| reads[i] > 0)
            .map(|(i, p)| (i, (0..p.len()).filter(|&r| keep(i, r)).collect()))
            .collect();
        let files = kept.iter().map(|(i, rows)| {
            let hosts = rows.iter().map(|&r| self.placements[*i][r]).collect();
            FileModel::new(self.spec.files[*i].arrival_rate, reads[*i], hosts)
        });
        let model = StorageModel::new(self.model.nodes().to_vec(), files.collect())
            .map_err(|e| SproutError::InvalidSpec(e.to_string()))?;
        let optimizer = Optimizer::new(*config);
        let cold = optimizer.run(&model, capacity);
        let warm = previous.and_then(|previous| {
            let row = |(i, rows): &(usize, Vec<usize>)| {
                let row = previous.scheduling.get(*i)?;
                rows.iter().map(|&r| row.get(r).copied()).collect()
            };
            let start = CachePlan {
                scheduling: kept.iter().map(row).collect::<Option<_>>()?,
                ..previous.clone()
            };
            Some(optimizer.clone().warm_start(&start).run(&model, capacity))
        });
        let mut plan = match (cold, warm) {
            (Ok(cold), Some(Ok(warm))) if warm.objective < cold.objective => warm,
            (Ok(cold), _) => cold,
            (Err(_), Some(Ok(warm))) => warm,
            (Err(e), _) => return Err(e.into()),
        };
        let mut full: Vec<Vec<f64>> = self.placements.iter().map(|p| vec![0.0; p.len()]).collect();
        for ((i, rows), solved) in kept.iter().zip(&plan.scheduling) {
            rows.iter().zip(solved).for_each(|(&r, &p)| full[*i][r] = p);
        }
        plan.scheduling = full;
        Ok(plan)
    }

    /// Prices the rebalance the spec's placement strategy would perform on a
    /// membership change: every auto-placed file is re-placed under `before`
    /// and `after` views and chunks landing on new nodes are counted (files
    /// with an explicit placement are pinned and never move). Chunk sizes
    /// come from each file's `size_bytes`.
    pub(crate) fn rebalance_report(
        &self,
        before: &ClusterView,
        after: &ClusterView,
    ) -> RebalanceReport {
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
    /// Panics if a plan is required but not supplied or exact caching's
    /// solve fails ([`cache_scheme`](Self::cache_scheme)).
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
    /// Panics if a plan is required but not supplied or exact caching's
    /// solve fails ([`cache_scheme`](Self::cache_scheme)).
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
    /// Panics if a plan is required but not supplied or exact caching's
    /// solve fails ([`cache_scheme`](Self::cache_scheme)).
    pub fn simulation(
        &self,
        policy: CachePolicy,
        plan: Option<&CachePlan>,
        config: SimConfig,
    ) -> Simulation {
        let scheme = self
            .cache_scheme(policy, plan)
            .unwrap_or_else(|e| panic!("policy {policy:?} has no scheme: {e}"));
        self.simulation_of(scheme, config)
    }

    /// The [`Simulation`] of this system under an already resolved scheme:
    /// the one builder behind [`SproutSystem::simulation`] and the callers
    /// that return [`SproutSystem::cache_scheme`]'s error instead of
    /// panicking (sweep cells, fuzz cases).
    pub(crate) fn simulation_of(&self, scheme: CacheScheme, config: SimConfig) -> Simulation {
        Simulation::new(
            self.spec.node_services.clone(),
            self.sim_files(),
            scheme,
            config,
        )
    }

    /// Every file as the simulator sees it: rate, `k` and placement.
    fn sim_files(&self) -> Vec<SimFile> {
        let files = self.spec.files.iter().zip(&self.placements);
        files
            .map(|(f, p)| SimFile::new(f.arrival_rate, f.k, p.clone()))
            .collect()
    }

    /// Builds a byte-accurate [`StoreBackend`](crate::backend::StoreBackend)
    /// for this system: every file's actual coded bytes are written onto an
    /// [`sprout_cluster::StoreHandle`] (object id = file index, the
    /// system's resolved placements) whose cache policy is
    /// [`CacheScheme::policy`], and a planned `scheme`'s cached chunks are
    /// installed through [`sprout_cluster::StoreHandle::install_plan`], as a
    /// mid-run plan swap installs them. Pass the scheme of the simulation it
    /// runs under ([`Simulation::scheme`]).
    ///
    /// Every scheme is supported, including
    /// [`CacheScheme::LruReplicated`]: the engine's LRU tier decides
    /// hits, promotions and evictions, and each hit settles (and
    /// decode-verifies) from the object's stored data rows.
    ///
    /// Files with `size_bytes = 0` get
    /// 4096-byte synthetic payloads (`DEFAULT_OBJECT_BYTES`); all
    /// payload bytes are deterministic in the spec seed.
    ///
    /// # Errors
    ///
    /// Returns [`SproutError::InvalidSpec`] if files disagree on `(n, k)`;
    /// propagates cluster and coding errors, those of installing the plan
    /// included.
    pub fn byte_backend(
        &self,
        scheme: &CacheScheme,
        seed: u64,
    ) -> Result<crate::backend::StoreBackend, SproutError> {
        use crate::backend::{synthetic_payload, StoreBackend, DEFAULT_OBJECT_BYTES};

        let first = &self.spec.files[0];
        let (n, k) = (first.n, first.k);
        if !self.spec.files.iter().all(|f| f.n == n && f.k == k) {
            return Err(SproutError::InvalidSpec(
                "the byte-accurate backend requires a uniform (n, k) across files".into(),
            ));
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
        // Generous: planner-managed caches hold at most k of n chunks per
        // object, so total object bytes always fit. An LRU store's cache
        // stays empty: the engine's tier decides every hit.
        let cache_capacity_bytes = total_bytes.max(1) * 2;

        let config = sprout_cluster::ClusterConfig::builder()
            .nodes(self.spec.node_services.len())
            .code(n, k)
            .uniform_device(sprout_cluster::DeviceModel::ssd())
            .cache_policy(scheme.policy())
            .cache_capacity_bytes(cache_capacity_bytes)
            .seed(self.spec.seed)
            .build();
        let store = sprout_cluster::StoreHandle::new(config)?;
        for (file, (placement, payload)) in self.placements.iter().zip(&payloads).enumerate() {
            store.put_with_placement(file as u64, payload, placement.clone())?;
        }
        if let CacheScheme::Functional(plan) | CacheScheme::Exact(plan) = scheme {
            store.install_plan(&plan.cached_chunks)?;
        }
        Ok(StoreBackend::new(store, payloads, seed))
    }

    /// Simulates all four policies on the same workload and reports the
    /// comparison; panics if exact caching's solve fails.
    pub fn compare_policies(&self, plan: &CachePlan, horizon: f64, seed: u64) -> PolicyComparison {
        PolicyComparison {
            functional: self.simulate(CachePolicy::Functional, Some(plan), horizon, seed),
            exact: self.simulate(CachePolicy::Exact, Some(plan), horizon, seed),
            lru: self.simulate(CachePolicy::LruReplicated, None, horizon, seed),
            no_cache: self.simulate(CachePolicy::None, None, horizon, seed),
        }
    }

    /// Lemma 1's bound for `scheme`: [`CachePlan::evaluate`] at the read
    /// marginals the engine samples, the scheme's
    /// [`CacheScheme::read_rows`] (so a functional plan's bound is its
    /// objective, to the bit). `None` for the LRU tier, whose hits the rows
    /// do not describe.
    ///
    /// # Errors
    ///
    /// Those of [`CachePlan::evaluate`], an overloaded node among them.
    pub fn bound(&self, scheme: &CacheScheme) -> Result<Option<CachePlan>, SproutError> {
        if let CacheScheme::LruReplicated { .. } = scheme {
            return Ok(None);
        }
        let rows = scheme.read_rows(&self.sim_files());
        Ok(Some(CachePlan::evaluate(&self.model, rows)?))
    }

    /// The engine-level [`CacheScheme`] a policy resolves to. `plan` is
    /// required for [`CachePolicy::Functional`] and [`CachePolicy::Exact`];
    /// it is ignored by the other policies. Used directly when building
    /// scenario plan swaps.
    ///
    /// Exact caching copies the plan's first `d_i` placement rows and reads
    /// the other `k_i − d_i` chunks from the remaining hosts at their own
    /// optimum: Algorithm 1 with no cache and the default configuration.
    ///
    /// # Errors
    ///
    /// The exact solve's optimizer error, e.g. a node its reads overload.
    ///
    /// # Panics
    ///
    /// Panics if a plan is required but not supplied.
    pub fn cache_scheme(
        &self,
        policy: CachePolicy,
        plan: Option<&CachePlan>,
    ) -> Result<CacheScheme, SproutError> {
        match policy {
            CachePolicy::None => Ok(CacheScheme::NoCache),
            CachePolicy::LruReplicated => Ok(CacheScheme::LruReplicated {
                capacity_chunks: self.spec.cache_capacity_chunks,
            }),
            CachePolicy::Functional | CachePolicy::Exact => {
                let plan =
                    plan.unwrap_or_else(|| panic!("policy {policy:?} requires an optimized plan"));
                let mut planned = PlannedCache {
                    cached_chunks: plan.cached_chunks.clone(),
                    scheduling: plan.scheduling.clone(),
                };
                if policy == CachePolicy::Functional {
                    return Ok(CacheScheme::Functional(planned));
                }
                let files = self.spec.files.iter().zip(&plan.cached_chunks);
                let reads: Vec<usize> = files.map(|(f, &d)| f.k - d).collect();
                if reads.iter().any(|&r| r > 0) {
                    let keep = |i: usize, r: usize| r >= plan.cached_chunks[i];
                    let exact =
                        self.solve_residual(&OptimizerConfig::default(), 0, keep, &reads, None)?;
                    planned.scheduling = exact.scheduling;
                }
                Ok(CacheScheme::Exact(planned))
            }
        }
    }
}

/// One (4, 2) file with one chunk cached: functional caching reads its
/// other chunk from the fast node 0, but exact caching copies node 0's
/// chunk and must spread λ = 0.09 reads over nodes 1–3, which serve 0.06
/// chunks/s together, so its solve overloads one of them.
#[cfg(test)]
pub(crate) fn exact_overload_spec() -> SystemSpec {
    SystemSpec::builder()
        .node_service_rates(&[1.0, 0.02, 0.02, 0.02])
        .file(crate::spec::FileConfig::new(0.09, 4, 2, 0).with_placement(vec![0, 1, 2, 3]))
        .cache_capacity_chunks(1)
        .build()
        .unwrap()
}

/// Asserts `err` overloads one of the slow nodes 1–3 of
/// [`exact_overload_spec`]: exact caching's residual solve does, and so does
/// Algorithm 1's uniform cold start there (ρ = 2.25 on node 1).
#[cfg(test)]
pub(crate) fn assert_exact_overload(err: &SproutError) {
    let SproutError::Optimizer(sprout_optimizer::OptimizerError::UnstableSystem { node, .. }) = err
    else {
        panic!("expected an overload, got {err:?}");
    };
    assert!((1..=3).contains(node), "node {node}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SystemSpec;
    use proptest::prelude::*;
    use sprout_optimizer::OptimizerError;

    /// Algorithm 1's relative search loss against exact caching at its own
    /// `π`: at most 1.48e-3 over 200 000 random systems in the ranges of
    /// `exact_caching_is_bounded_by_no_cache`.
    const SEARCH_LOSS: f64 = 2e-3;

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
        // Each policy's bound: the plan's objective for functional caching,
        // a looser one for exact caching (its rows are feasible for the
        // functional problem), a looser one still with no cache, none for
        // LRU; and each bounds its own simulated mean.
        let bound = |policy, plan| {
            let scheme = system.cache_scheme(policy, plan).unwrap();
            system.bound(&scheme).unwrap().map(|b| b.objective)
        };
        let functional = bound(CachePolicy::Functional, Some(&plan)).unwrap();
        let exact = bound(CachePolicy::Exact, Some(&plan)).unwrap();
        let none = bound(CachePolicy::None, None).unwrap();
        assert_eq!(functional.to_bits(), plan.objective.to_bits());
        assert!(0.0 < functional && functional <= exact && exact <= none);
        assert_eq!(bound(CachePolicy::LruReplicated, None), None);
        assert!(functional >= cmp.functional.overall.mean * 0.9);
        assert!(exact >= cmp.exact.overall.mean * 0.9);
        assert!(none >= cmp.no_cache.overall.mean * 0.9);
        // improvement metric is well defined
        let imp = cmp.improvement_over_lru();
        assert!(imp <= 1.0);
    }

    #[test]
    fn the_engine_samples_the_rows_the_bound_evaluates() {
        // Each node serves H · Σ_i λ_i · read_rows[i][r] reads over the rows
        // r it hosts: a Poisson count (each request reads a host at most
        // once), checked within 4 σ for every scheme with read rows.
        let system = small_system();
        let plan = system.optimize().unwrap();
        assert!(plan.cache_chunks_used() > 0);
        let files = system.sim_files();
        let functional = system
            .cache_scheme(CachePolicy::Functional, Some(&plan))
            .unwrap();
        let CacheScheme::Functional(planned) = &functional else {
            unreachable!("a functional policy resolves to a functional scheme")
        };
        let uniform = PlannedCache {
            cached_chunks: planned.cached_chunks.clone(),
            scheduling: (files.iter().zip(&planned.cached_chunks))
                .map(|(f, &d)| vec![(f.k - d) as f64 / f.placement.len() as f64; f.placement.len()])
                .collect(),
        };
        let schemes = [
            CacheScheme::NoCache,
            functional.clone(),
            CacheScheme::Functional(uniform),
            system
                .cache_scheme(CachePolicy::Exact, Some(&plan))
                .unwrap(),
        ];
        let horizon = 200_000.0;
        for scheme in schemes {
            let rows = scheme.read_rows(&files);
            let bound = system.bound(&scheme).unwrap().unwrap();
            let evaluated = CachePlan::evaluate(&system.model, rows.clone()).unwrap();
            assert_eq!(bound.objective.to_bits(), evaluated.objective.to_bits());
            assert_eq!(bound.per_file_latency, evaluated.per_file_latency);
            let config = SimConfig::new(horizon, 13);
            let sim = Simulation::new(
                system.spec.node_services.clone(),
                files.clone(),
                scheme.clone(),
                config,
            );
            let served = sim.run().node_chunks_served;
            let mut expected = vec![0.0; served.len()];
            for (file, row) in files.iter().zip(&rows) {
                for (&node, &p) in file.placement.iter().zip(row) {
                    expected[node] += horizon * file.arrival_rate * p;
                }
            }
            for (node, (&got, &want)) in served.iter().zip(&expected).enumerate() {
                assert!(
                    (got as f64 - want).abs() <= 4.0 * want.sqrt(),
                    "{scheme:?}: node {node} served {got} reads, rows predict {want}"
                );
            }
        }
    }

    #[test]
    fn an_overloaded_scheme_has_no_bound_and_names_its_node() {
        // Four hosts per (4, 2) file, node 3 the slowest: uniform reads send
        // it 2 · 0.06 · 2/4 = 0.06 chunks/s against a rate of 0.05.
        let spec = SystemSpec::builder()
            .node_service_rates(&[1.0, 1.0, 1.0, 0.05])
            .uniform_files(2, 2, 4, 0.06)
            .cache_capacity_chunks(2)
            .build()
            .unwrap();
        let system = SproutSystem::new(spec).unwrap();
        let err = system.bound(&CacheScheme::NoCache).unwrap_err();
        let SproutError::Optimizer(OptimizerError::UnstableSystem { node, utilization }) = err
        else {
            panic!("expected an overload, got {err:?}");
        };
        assert_eq!(node, 3);
        assert!((utilization - 1.2).abs() < 1e-9, "{utilization}");
        // Rows that read the other three hosts only are stable.
        let scheduling = system.placements().iter();
        let planned = PlannedCache {
            cached_chunks: vec![0; 2],
            scheduling: scheduling
                .map(|p| {
                    p.iter()
                        .map(|&j| if j == 3 { 0.0 } else { 2.0 / 3.0 })
                        .collect()
                })
                .collect(),
        };
        let scheme = CacheScheme::Functional(planned);
        let bound = system.bound(&scheme).unwrap().unwrap();
        assert!(bound.objective.is_finite() && bound.objective > 0.0);
        assert_eq!(bound.cached_chunks, [0, 0]);
    }

    #[test]
    fn exact_caching_that_overloads_its_remaining_hosts_is_an_error() {
        let system = SproutSystem::new(exact_overload_spec()).unwrap();
        let plan = CachePlan::evaluate(system.model(), vec![vec![1.0, 0.0, 0.0, 0.0]]).unwrap();
        assert_eq!(plan.cached_chunks, [1]);
        let functional = system.cache_scheme(CachePolicy::Functional, Some(&plan));
        assert!(system.bound(&functional.unwrap()).unwrap().is_some());
        let err = system
            .cache_scheme(CachePolicy::Exact, Some(&plan))
            .unwrap_err();
        assert_exact_overload(&err);
    }

    /// An `f64` from anywhere: the edges of `[0, 1]`, just past them, the
    /// non-finite values, and arbitrary bit patterns.
    fn any_entry() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-1e-6),
            Just(-0.0),
            Just(1.0),
            Just(1.0 + 1e-9),
            0.0f64..=1.0,
            -2.0f64..3.0,
            any::<u64>().prop_map(f64::from_bits),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `CachePlan::evaluate` is the one evaluator of Lemma 1, and it
        /// never panics: rows of probabilities that read at most `k` chunks
        /// give a finite bound or an overload, anything else is
        /// `InvalidModel`.
        #[test]
        fn evaluate_never_panics_on_arbitrary_rows(
            arbitrary in proptest::collection::vec(any_entry(), 4),
            probabilities in proptest::collection::vec(0.0f64..=1.0, 4),
        ) {
            let system = SproutSystem::new(exact_overload_spec()).unwrap();
            let k = system.model().files()[0].k as f64;
            for row in [arbitrary, probabilities] {
                let valid = row.iter().all(|p| (0.0..=1.0).contains(p))
                    && row.iter().sum::<f64>() <= k * (1.0 + 1e-12);
                let rows = vec![row];
                match CachePlan::evaluate(system.model(), rows.clone()) {
                    Ok(plan) => {
                        prop_assert!(valid, "{rows:?} priced");
                        prop_assert!(plan.objective.is_finite(), "{rows:?}: {}", plan.objective);
                    }
                    Err(OptimizerError::UnstableSystem { .. }) => {
                        prop_assert!(valid, "{rows:?} reached the queues");
                    }
                    Err(OptimizerError::InvalidModel(_)) => {
                        prop_assert!(!valid, "{rows:?} rejected");
                    }
                    Err(err) => prop_assert!(false, "{rows:?}: {err:?}"),
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Lemma 1 is monotone in `π` and in the node moments. The naive
        /// exact rows (`0` on the `d` copied hosts, `(k − d)/(n − d) ≤ k/n`
        /// on the others) are elementwise at most no-cache's, and they are
        /// the exact solve's cold start, which Algorithm 1 never ends above:
        /// exact caching at its own `π` ≤ naive ≤ no cache. Functional
        /// caching may read every host, so its plan is at most exact's up to
        /// Algorithm 1's search loss.
        #[test]
        fn exact_caching_is_bounded_by_no_cache(
            rates in proptest::collection::vec(0.3f64..1.0, 4..8),
            files in 1usize..8,
            k in 1usize..4,
            extra in 0usize..3,
            rate in 0.005f64..0.04,
            cache in 0usize..12,
            seed in 0u64..1_000,
        ) {
            let n = (k + extra).min(rates.len());
            let k = k.min(n);
            let spec = SystemSpec::builder()
                .node_service_rates(&rates)
                .uniform_files(files, k, n, rate)
                .cache_capacity_chunks(cache)
                .seed(seed)
                .build()
                .unwrap();
            let system = SproutSystem::new(spec).unwrap();
            let plan = system.optimize().unwrap();
            let exact = system.cache_scheme(CachePolicy::Exact, Some(&plan)).unwrap();
            let exact = system.bound(&exact).unwrap().unwrap();
            let naive = PlannedCache {
                cached_chunks: plan.cached_chunks.clone(),
                scheduling: (plan.cached_chunks.iter())
                    .map(|&d| {
                        let row = |r| if r < d { 0.0 } else { (k - d) as f64 / (n - d) as f64 };
                        (0..n).map(row).collect()
                    })
                    .collect(),
            };
            let naive = system.bound(&CacheScheme::Exact(naive)).unwrap().unwrap();
            let none = system.bound(&CacheScheme::NoCache).unwrap().unwrap();
            prop_assert!(
                exact.objective <= naive.objective * (1.0 + 1e-12),
                "exact {} > naive {}", exact.objective, naive.objective
            );
            prop_assert!(
                naive.objective <= none.objective * (1.0 + 1e-12),
                "naive {} > no cache {}", naive.objective, none.objective
            );
            prop_assert!(
                plan.objective <= exact.objective * (1.0 + SEARCH_LOSS),
                "functional {} > exact {}", plan.objective, exact.objective
            );
            prop_assert_eq!(exact.cached_chunks, plan.cached_chunks);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(50))]

        /// A re-plan from the previous bin's plan is no worse than either of
        /// its starts run alone, its cold start alone is `Optimizer::run` on
        /// the surviving hosts to the bit, and a file left with fewer than
        /// `k` hosts is a spec error, not a solve.
        #[test]
        fn replan_keeps_the_better_start_and_its_cold_start_is_algorithm_1(
            rates in proptest::collection::vec(0.3f64..1.0, 4..=8),
            files in 1usize..=6,
            k in 1usize..4,
            extra in 1usize..4,
            rate in 0.005f64..0.03,
            shift in proptest::collection::vec(0.2f64..2.0, 6),
            cache in 0usize..8,
            downs in 0usize..3,
            seed in 0u64..1_000,
        ) {
            let n = (k + extra).min(rates.len());
            let spec = SystemSpec::builder()
                .node_service_rates(&rates)
                .uniform_files(files, k.min(n - 1), n, rate)
                .cache_capacity_chunks(cache)
                .seed(seed)
                .build()
                .unwrap();
            let previous_bin = SproutSystem::new(spec).unwrap();
            let Ok(previous) = previous_bin.optimize() else {
                return;
            };
            let bin_rates: Vec<f64> = (0..files).map(|i| rate * shift[i]).collect();
            let system = previous_bin.with_arrival_rates(&bin_rates).unwrap();
            let down: Vec<usize> = (0..downs)
                .map(|i| (seed as usize + 3 * i) % rates.len())
                .collect();
            let config = OptimizerConfig::default();

            let replanned = system.replan(&config, Some(&previous), &down);
            let fresh = system.replan(&config, None, &down);
            // The surviving hosts' model and rows, built here on their own.
            let kept = |p: &[usize]| -> Vec<usize> {
                (0..p.len()).filter(|&r| !down.contains(&p[r])).collect()
            };
            let surviving = |rows: &[Vec<f64>]| -> Vec<Vec<f64>> {
                let rows = rows.iter().zip(system.placements());
                rows.map(|(row, p)| kept(p).iter().map(|&r| row[r]).collect()).collect()
            };
            let files = (system.spec().files.iter().zip(system.placements()))
                .map(|(f, p)| FileModel::new(f.arrival_rate, f.k, kept(p).iter().map(|&r| p[r]).collect()))
                .collect();
            let Ok(model) = StorageModel::new(system.model().nodes().to_vec(), files) else {
                prop_assert!(matches!(replanned, Err(SproutError::InvalidSpec(_))));
                prop_assert!(matches!(fresh, Err(SproutError::InvalidSpec(_))));
                return;
            };
            let capacity = system.spec().cache_capacity_chunks;
            let cold = Optimizer::new(config).run(&model, capacity);
            let start = CachePlan {
                scheduling: surviving(&previous.scheduling),
                ..previous.clone()
            };
            let warm = Optimizer::new(config).warm_start(&start).run(&model, capacity);
            let best = [&cold, &warm]
                .into_iter()
                .filter_map(|r| r.as_ref().ok())
                .map(|plan| plan.objective)
                .reduce(f64::min);
            match best {
                None => prop_assert!(replanned.is_err()),
                Some(best) => prop_assert!(replanned.unwrap().objective <= best),
            }

            match cold {
                Err(_) => prop_assert!(fresh.is_err()),
                Ok(cold) => {
                    let fresh = fresh.unwrap();
                    prop_assert_eq!(fresh.objective.to_bits(), cold.objective.to_bits());
                    prop_assert_eq!(&fresh.cached_chunks, &cold.cached_chunks);
                    prop_assert_eq!(&fresh.trace, &cold.trace);
                    prop_assert_eq!(surviving(&fresh.scheduling), cold.scheduling);
                    // Every down node's entry is a zero in the full rows.
                    let rows = fresh.scheduling.iter().zip(system.placements());
                    for (row, placement) in rows {
                        for (&p, node) in row.iter().zip(placement) {
                            prop_assert!(!down.contains(node) || p == 0.0);
                        }
                    }
                }
            }

            // The first file keeps k − 1 hosts: unreconstructible from storage.
            let placement = &system.placements()[0];
            let lost = &placement[..placement.len() - system.spec().files[0].k + 1];
            let err = system.replan(&config, Some(&previous), lost).unwrap_err();
            let message = format!("{err}");
            prop_assert!(matches!(err, SproutError::InvalidSpec(_)), "{message}");
            prop_assert!(message.contains("needs k"), "{message}");
        }
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

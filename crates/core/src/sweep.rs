//! Scenario-level parameter sweeps over a [`SproutSystem`].
//!
//! [`SimSweep`] instantiates the generic work-stealing sweep engine
//! ([`sprout_sim::sweep`]) for the paper's evaluation grid: the cartesian
//! product of **scenario × policy × cache size × load point × backend** over
//! one base system. Every cell
//!
//! 1. rescales the base spec to its cache size and load point,
//! 2. runs Algorithm 1 when the cell's policy needs a plan,
//! 3. compiles its [`ScenarioSpec`] against the rescaled system, the
//!    cell's policy and that plan (so `Reoptimize` events re-plan the cell's
//!    own rates under its own policy, from the plan in force), and
//! 4. runs its replications — on the analytic backend, or byte-accurately on
//!    a real [`StoreBackend`](crate::backend::StoreBackend) with per-request
//!    decode verification.
//!
//! A row's `analytic_bound_s` is [`SproutSystem::bound`] of the cell's
//! starting scheme: functional, exact and no-cache rows carry their own
//! scheme's bound unless it overloads a node; LRU rows carry none.
//!
//! Cell setup (system build, optimization, scenario compilation) happens once
//! per cell no matter how many replications it has or which worker reaches it
//! first; `cells × replications` form one task set on the pool, so a slow
//! cell's replications spread across workers. Seeds derive from cell
//! coordinates, making the resulting [`SweepReport`] bit-identical for any
//! worker count.

use std::sync::OnceLock;

use sprout_cluster::{CachePolicy, ClusterView, PlacementChoice, RebalanceReport};
use sprout_optimizer::{CachePlan, OptimizerConfig};
use sprout_sim::sweep::{Sample, SweepCell, SweepGrid, SweepReport, SweepTimings};
use sprout_sim::{SimConfig, SimReport, Simulation};

use crate::error::SproutError;
use crate::scenario::{ScenarioActionSpec, ScenarioSpec};
use crate::spec::SystemSpec;
use crate::system::SproutSystem;

/// Which chunk-service backend a sweep cell runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Deserialize)]
pub enum SweepBackend {
    /// Sampled service times only (fast; the default).
    Analytic,
    /// A real erasure-coded store: every completed request decodes its
    /// chunks and verifies the reconstructed bytes.
    Byte,
}

impl SweepBackend {
    /// The axis label of this backend.
    pub fn label(&self) -> &'static str {
        match self {
            SweepBackend::Analytic => "analytic",
            SweepBackend::Byte => "byte",
        }
    }
}

/// A declarative scenario/policy/cache/load/backend sweep over one base
/// system. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct SimSweep {
    name: String,
    base: SystemSpec,
    config: SimConfig,
    optimizer: OptimizerConfig,
    scenarios: Vec<ScenarioSpec>,
    policies: Vec<CachePolicy>,
    cache_sizes: Vec<usize>,
    load_points: Vec<f64>,
    backends: Vec<SweepBackend>,
    /// Optional placement axis. `None` (the default) omits the axis entirely
    /// so legacy grids keep their coordinate-derived cell seeds and artifacts
    /// stay byte-identical.
    placements: Option<Vec<PlacementChoice>>,
    replications: usize,
    byte_replications: Option<usize>,
    byte_object_bytes: Option<u64>,
}

/// Everything a cell's replications share, built once per cell by whichever
/// worker gets there first (the result is seed-independent, so it does not
/// matter which).
#[derive(Debug)]
struct CellContext {
    sim: Simulation,
    /// Lemma 1's bound of the cell's starting scheme, if it has one.
    bound: Option<CachePlan>,
    /// The (possibly size-rescaled) system to build byte backends from;
    /// `None` for analytic cells.
    byte_system: Option<SproutSystem>,
    /// Total analytic rebalance cost of the cell's churn events under the
    /// cell's placement strategy; attached only when the sweep has a
    /// placement axis.
    rebalance: Option<RebalanceReport>,
}

impl SimSweep {
    /// Creates a sweep over `system`'s spec with a simulation-config
    /// template (`config.seed` doubles as the grid's base seed). Defaults:
    /// one steady scenario, the functional policy, the spec's own cache
    /// size, load ×1, the analytic backend, one replication per cell.
    pub fn new(name: impl Into<String>, system: &SproutSystem, config: SimConfig) -> Self {
        SimSweep {
            name: name.into(),
            base: system.spec().clone(),
            config,
            optimizer: OptimizerConfig::default(),
            scenarios: vec![ScenarioSpec::named("steady")],
            policies: vec![CachePolicy::Functional],
            cache_sizes: vec![system.spec().cache_capacity_chunks],
            load_points: vec![1.0],
            backends: vec![SweepBackend::Analytic],
            placements: None,
            replications: 1,
            byte_replications: None,
            byte_object_bytes: None,
        }
    }

    /// Sets the scenario axis (scenario names are its labels).
    pub fn scenarios(mut self, scenarios: Vec<ScenarioSpec>) -> Self {
        self.scenarios = scenarios;
        self
    }

    /// Sets the cache-policy axis.
    pub fn policies(mut self, policies: Vec<CachePolicy>) -> Self {
        self.policies = policies;
        self
    }

    /// Sets the cache-size axis (capacity in chunks).
    pub fn cache_sizes(mut self, sizes: Vec<usize>) -> Self {
        self.cache_sizes = sizes;
        self
    }

    /// Sets the load axis: each point multiplies every file's arrival rate.
    pub fn load_points(mut self, points: Vec<f64>) -> Self {
        self.load_points = points;
        self
    }

    /// Sets the backend axis.
    pub fn backends(mut self, backends: Vec<SweepBackend>) -> Self {
        self.backends = backends;
        self
    }

    /// Adds a placement-strategy axis: each cell's system uses its strategy
    /// for auto-placed files, and churn scenarios report the strategy's
    /// analytic rebalance cost (`rebalance_*` metrics). Configuring this
    /// axis changes every cell's coordinate-derived seed, so it is opt-in;
    /// sweeps without it are byte-identical to earlier releases.
    pub fn placements(mut self, placements: Vec<PlacementChoice>) -> Self {
        self.placements = Some(placements);
        self
    }

    /// Sets the replications per cell.
    pub fn replications(mut self, replications: usize) -> Self {
        self.replications = replications;
        self
    }

    /// Overrides the replication count of byte-backend cells (they cost far
    /// more than analytic ones).
    pub fn byte_replications(mut self, replications: usize) -> Self {
        self.byte_replications = Some(replications);
        self
    }

    /// Rescales every file to this many bytes on byte-backend cells only
    /// (plans, placements and scheduling are size-independent, so shrinking
    /// payloads keeps the byte leg affordable at paper shapes).
    pub fn byte_object_bytes(mut self, bytes: u64) -> Self {
        self.byte_object_bytes = Some(bytes);
        self
    }

    /// Replaces the optimizer configuration used for plans and `Reoptimize`
    /// scenario events.
    pub fn optimizer(mut self, config: OptimizerConfig) -> Self {
        self.optimizer = config;
        self
    }

    /// Checks the axes and counts: every grid rule of
    /// [`SweepGrid::check`] on the labels the grid carries (so load points
    /// `1.0` and `1.00` collide as `"1"`), load points finite and
    /// non-negative, and positive byte-cell replications and byte sizes.
    pub(crate) fn check(&self) -> Result<(), SproutError> {
        let invalid = |msg: &str| Err(SproutError::InvalidSpec(msg.into()));
        if self.load_points.iter().any(|p| !p.is_finite() || *p < 0.0) {
            return invalid("load points must be finite and non-negative");
        }
        if self.byte_replications == Some(0) {
            return invalid("byte replications must be positive");
        }
        if self.byte_object_bytes == Some(0) {
            return invalid("byte objects must be non-empty");
        }
        self.grid().check().map_err(SproutError::InvalidSpec)
    }

    /// The sweep grid: axes `scenario`, (`placement` when configured),
    /// `policy`, `cache_chunks`, `load`, `backend`, in that order, seeded
    /// from the config seed.
    pub(crate) fn grid(&self) -> SweepGrid {
        let mut grid = SweepGrid::named(&self.name, self.config.seed)
            .axis("scenario", self.scenarios.iter().map(|s| s.name.clone()));
        if let Some(placements) = &self.placements {
            grid = grid.axis("placement", placements.iter().map(|p| p.label()));
        }
        grid.axis("policy", self.policies.iter().map(CachePolicy::label))
            .axis(
                "cache_chunks",
                self.cache_sizes.iter().map(|c| c.to_string()),
            )
            .axis("load", self.load_points.iter().map(|l| format!("{l}")))
            .axis("backend", self.backends.iter().map(|b| b.label()))
            .replications(self.replications)
    }

    /// The grid's cells with byte-replication overrides applied. Filter this
    /// list (e.g. to skip invalid scenario/backend combinations) and pass it
    /// to [`SimSweep::run_cells`].
    ///
    /// # Panics
    ///
    /// Panics if an axis breaks a rule of [`SweepGrid::check`]; the `run*`
    /// methods return that as an error instead.
    pub fn cells(&self) -> Vec<SweepCell> {
        let mut cells = self.grid().cells();
        if let Some(byte_reps) = self.byte_replications {
            for cell in &mut cells {
                if cell.coord("backend") == SweepBackend::Byte.label() {
                    cell.replications = byte_reps;
                }
            }
        }
        cells
    }

    /// Runs the full grid across `threads` workers.
    ///
    /// # Errors
    ///
    /// Returns [`SproutError::InvalidSpec`] for an axis or count that
    /// breaks a rule (an empty axis, two values with one label, a negative
    /// load point, zero replications), and propagates the first cell-setup
    /// error (invalid rescaled spec, an unstable system under optimization, a
    /// scenario that does not compile, or a byte-backend cell with a policy
    /// the byte store cannot model).
    pub fn run(&self, threads: usize) -> Result<SweepReport, SproutError> {
        Ok(self.run_timed(threads)?.0)
    }

    /// Like [`SimSweep::run`], additionally returning the wall-clock
    /// [`SweepTimings`] side-channel (per-cell wall seconds; never part of
    /// the deterministic report).
    ///
    /// # Errors
    ///
    /// See [`SimSweep::run`].
    pub fn run_timed(&self, threads: usize) -> Result<(SweepReport, SweepTimings), SproutError> {
        self.check()?;
        self.run_cells_timed(self.cells(), threads)
    }

    /// Runs an explicit (e.g. filtered) cell list across `threads` workers.
    ///
    /// # Errors
    ///
    /// See [`SimSweep::run`].
    pub fn run_cells(
        &self,
        cells: Vec<SweepCell>,
        threads: usize,
    ) -> Result<SweepReport, SproutError> {
        Ok(self.run_cells_timed(cells, threads)?.0)
    }

    /// Like [`SimSweep::run_cells`], additionally returning the wall-clock
    /// [`SweepTimings`] side-channel.
    ///
    /// # Errors
    ///
    /// See [`SimSweep::run`].
    pub fn run_cells_timed(
        &self,
        cells: Vec<SweepCell>,
        threads: usize,
    ) -> Result<(SweepReport, SweepTimings), SproutError> {
        self.check()?;
        let grid = self.grid();
        // Contexts are keyed by full-grid cell index so filtered subsets
        // resolve without remapping; each is built at most once, by whichever
        // worker arrives first.
        let contexts: Vec<OnceLock<Result<CellContext, SproutError>>> =
            (0..grid.len()).map(|_| OnceLock::new()).collect();

        let outcome = grid.run_cells_timed(cells, threads, |cell, _rep, seed| {
            match contexts[cell.index].get_or_init(|| self.build_context(cell)) {
                Ok(ctx) => self.run_replication(ctx, seed),
                // The error is surfaced after the sweep; emit an empty
                // sample so sibling cells still complete.
                Err(_) => Sample::new(),
            }
        });

        for context in &contexts {
            if let Some(Err(e)) = context.get() {
                return Err(e.clone());
            }
        }
        Ok(outcome)
    }

    /// Builds one cell's shared context: rescaled system, optional plan,
    /// compiled scenario, simulation and its bound, optional byte system.
    fn build_context(&self, cell: &SweepCell) -> Result<CellContext, SproutError> {
        let scenario_spec = &self.scenarios[cell.idx("scenario")];
        let policy = self.policies[cell.idx("policy")];
        let cache_chunks = self.cache_sizes[cell.idx("cache_chunks")];
        let load = self.load_points[cell.idx("load")];
        let backend = self.backends[cell.idx("backend")];

        let mut spec = self.base.clone();
        spec.cache_capacity_chunks = cache_chunks;
        for file in &mut spec.files {
            file.arrival_rate *= load;
        }
        if let Some(placements) = &self.placements {
            spec.placement = placements[cell.idx("placement")].clone();
        }
        let system = SproutSystem::new(spec)?;
        let plan = if policy.is_planned() {
            Some(system.optimize_with(&self.optimizer)?)
        } else {
            None
        };
        let scenario = scenario_spec.compile(&system, policy, plan.as_ref(), &self.optimizer)?;
        let sim = system
            .simulation(policy, plan.as_ref(), self.config)
            .with_scenario(scenario);
        // The scheme fits the system by construction, so an error is an
        // overloaded node, which has no finite bound.
        let bound = system.bound(sim.scheme()).ok().flatten();

        let byte_system = match backend {
            SweepBackend::Analytic => None,
            SweepBackend::Byte => {
                let mut byte_spec = system.spec().clone();
                if let Some(bytes) = self.byte_object_bytes {
                    for file in &mut byte_spec.files {
                        file.size_bytes = bytes;
                    }
                }
                Some(SproutSystem::new(byte_spec)?)
            }
        };
        let rebalance = self
            .placements
            .as_ref()
            .map(|_| Self::churn_rebalance(&system, scenario_spec));
        Ok(CellContext {
            sim,
            bound,
            byte_system,
            rebalance,
        })
    }

    /// Replays a scenario's membership events in time order and sums the
    /// rebalance the system's placement strategy would perform at each one —
    /// the strategy-response cost a real cluster would pay in data movement.
    fn churn_rebalance(system: &SproutSystem, scenario: &ScenarioSpec) -> RebalanceReport {
        let mut ordered: Vec<_> = scenario.events.iter().collect();
        ordered.sort_by(|a, b| a.at.total_cmp(&b.at));
        let mut view = ClusterView::all_online(system.spec().node_services.len());
        let mut total = RebalanceReport::default();
        for event in ordered {
            let after = match &event.action {
                ScenarioActionSpec::NodeDown { node } => view.with_node_online(*node, false),
                ScenarioActionSpec::NodeUp { node } => view.with_node_online(*node, true),
                _ => continue,
            };
            total.absorb(system.rebalance_report(&view, &after));
            view = after;
        }
        total
    }

    /// Runs one replication of a cell and folds its report into a sample.
    fn run_replication(&self, ctx: &CellContext, seed: u64) -> Sample {
        let report = match &ctx.byte_system {
            None => ctx.sim.clone().with_seed(seed).run(),
            Some(byte_system) => {
                let mut backend = byte_system
                    .byte_backend(ctx.sim.scheme(), seed)
                    .expect("byte-cell preconditions were validated at context build");
                let report = ctx.sim.clone().with_seed(seed).run_on(&mut backend);
                assert_eq!(
                    report.reconstruction_failures, 0,
                    "the byte backend must decode-verify every completed request"
                );
                report
            }
        };
        self.sample_from(&report, ctx)
    }

    fn sample_from(&self, report: &SimReport, ctx: &CellContext) -> Sample {
        let mut sample = Sample::new()
            .metric("mean_latency_s", report.overall.mean)
            .metric("p95_latency_s", report.overall.p95)
            .metric("cache_fraction", report.slots.cache_fraction());
        if let Some(bound) = &ctx.bound {
            sample = sample.metric("analytic_bound_s", bound.objective);
        }
        if let Some(rebalance) = &ctx.rebalance {
            sample = sample
                .metric("rebalance_objects", rebalance.objects_moved as f64)
                .metric("rebalance_chunks", rebalance.moved_chunks as f64)
                .metric("rebalance_bytes", rebalance.moved_bytes as f64);
        }
        sample = sample
            .counter("completed", report.completed_requests)
            .counter("failed", report.failed_requests)
            .counter("reconstruction_failures", report.reconstruction_failures)
            .counter("full_cache_hits", report.full_cache_hits)
            .counter("cache_promotions", report.cache_promotions)
            .counter("cache_evictions", report.cache_evictions)
            .maximum("peak_event_queue", report.peak_event_queue as u64)
            .maximum("peak_in_flight", report.peak_in_flight as u64);
        // Per-slot counts exist only when the config set a slot length.
        if report.slots.slot_length.is_some() {
            sample = sample
                .series(
                    "cache_chunks_per_slot",
                    report
                        .slots
                        .cache_chunks
                        .iter()
                        .map(|&c| c as f64)
                        .collect(),
                )
                .series(
                    "storage_chunks_per_slot",
                    report
                        .slots
                        .storage_chunks
                        .iter()
                        .map(|&c| c as f64)
                        .collect(),
                );
        }
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioActionSpec;
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
    fn grid_axes_cover_the_five_dimensions() {
        let system = small_system();
        let sweep = SimSweep::new("axes", &system, SimConfig::new(100.0, 1))
            .scenarios(vec![
                ScenarioSpec::named("steady"),
                ScenarioSpec::named("churn").at(50.0, ScenarioActionSpec::NodeDown { node: 0 }),
            ])
            .policies(vec![CachePolicy::Functional, CachePolicy::None])
            .cache_sizes(vec![2, 6])
            .load_points(vec![0.5, 1.0])
            .backends(vec![SweepBackend::Analytic, SweepBackend::Byte]);
        let grid = sweep.grid();
        let names: Vec<&str> = grid.axes().iter().map(|a| a.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["scenario", "policy", "cache_chunks", "load", "backend"]
        );
        assert_eq!(grid.len(), 2 * 2 * 2 * 2 * 2);
        assert_eq!(grid.axes()[3].values, vec!["0.5", "1"]);
    }

    #[test]
    fn placement_axis_is_opt_in_and_slots_in_after_scenario() {
        let system = small_system();
        let base = SimSweep::new("zoo", &system, SimConfig::new(100.0, 1)).cache_sizes(vec![2, 6]);
        // Without the axis the grid keeps the legacy five dimensions (and
        // therefore the legacy coordinate-derived cell seeds).
        let legacy: Vec<String> = base.grid().axes().iter().map(|a| a.name.clone()).collect();
        assert_eq!(
            legacy,
            vec!["scenario", "policy", "cache_chunks", "load", "backend"]
        );
        let sweep = base.placements(vec![
            PlacementChoice::default(),
            PlacementChoice::ConsistentHash { vnodes: 64 },
        ]);
        let names: Vec<String> = sweep.grid().axes().iter().map(|a| a.name.clone()).collect();
        assert_eq!(
            names,
            vec![
                "scenario",
                "placement",
                "policy",
                "cache_chunks",
                "load",
                "backend"
            ]
        );
        assert_eq!(sweep.grid().len(), 2 * 2);
        assert_eq!(sweep.grid().axes()[1].values, vec!["random", "ring64"]);
    }

    #[test]
    fn placement_cells_run_and_report_rebalance_under_churn() {
        let spec = SystemSpec::builder()
            .node_service_rates(&[0.6, 0.6, 0.45, 0.45, 0.3, 0.3])
            .uniform_files(6, 2, 4, 0.04)
            .cache_capacity_chunks(6)
            .seed(3)
            .build()
            .unwrap();
        let mut spec = spec;
        for f in &mut spec.files {
            f.size_bytes = 8 * 1024;
        }
        let system = SproutSystem::new(spec).unwrap();
        let report = SimSweep::new("churn", &system, SimConfig::new(2_000.0, 7))
            .scenarios(vec![
                ScenarioSpec::named("steady"),
                ScenarioSpec::named("churn")
                    .at(500.0, ScenarioActionSpec::NodeDown { node: 0 })
                    .at(1_500.0, ScenarioActionSpec::NodeUp { node: 0 }),
            ])
            .placements(vec![
                PlacementChoice::default(),
                PlacementChoice::XorProximity,
            ])
            .run(2)
            .unwrap();
        assert_eq!(report.rows.len(), 4);
        for row in &report.rows {
            assert!(row.counter("completed").unwrap() > 0);
            let rebalance = row.metric("rebalance_chunks").unwrap().mean;
            if row.coord("scenario") == "steady" {
                assert_eq!(rebalance, 0.0, "no churn, no movement");
            } else {
                // A down/up cycle re-places at least one object's chunks
                // under every strategy in the zoo.
                assert!(rebalance > 0.0, "{}: no rebalance", row.coord("placement"));
                assert!(row.metric("rebalance_bytes").unwrap().mean > 0.0);
            }
        }
        // Placement changes the system, so latency samples differ by strategy.
        let random = report
            .find_row(&[("scenario", "churn"), ("placement", "random")])
            .unwrap();
        let xor = report
            .find_row(&[("scenario", "churn"), ("placement", "xor")])
            .unwrap();
        assert_ne!(
            random.metric("mean_latency_s").unwrap().mean,
            xor.metric("mean_latency_s").unwrap().mean
        );
    }

    #[test]
    fn placement_axis_report_is_bit_identical_across_worker_counts() {
        let system = small_system();
        let sweep = SimSweep::new("det_zoo", &system, SimConfig::new(1_000.0, 11))
            .scenarios(vec![ScenarioSpec::named("churn")
                .at(200.0, ScenarioActionSpec::NodeDown { node: 0 })
                .at(800.0, ScenarioActionSpec::NodeUp { node: 0 })])
            .placements(vec![
                PlacementChoice::default(),
                PlacementChoice::TwoChoices,
                PlacementChoice::AntiAffinity { zones: 3 },
            ])
            .replications(2);
        let one = sweep.run(1).unwrap().to_json();
        let four = sweep.run(4).unwrap().to_json();
        assert_eq!(one, four);
    }

    #[test]
    fn sweep_runs_and_reports_cells_with_standard_metrics() {
        let system = small_system();
        let report = SimSweep::new("small", &system, SimConfig::new(3_000.0, 7))
            .policies(vec![
                CachePolicy::Functional,
                CachePolicy::Exact,
                CachePolicy::None,
            ])
            .cache_sizes(vec![2, 6])
            .replications(2)
            .run(4)
            .unwrap();
        assert_eq!(report.rows.len(), 6);
        for row in &report.rows {
            assert!(row.counter("completed").unwrap() > 0);
            let mean = row.metric("mean_latency_s").unwrap();
            assert_eq!(mean.replications, 2);
            assert!(mean.mean > 0.0);
        }
        // Every cell carries its own scheme's analytic bound.
        let bound = |policy| {
            let row = report.find_row(&[("policy", policy), ("cache_chunks", "6")]);
            row.unwrap().metric("analytic_bound_s").unwrap().mean
        };
        let plan = system.optimize().unwrap();
        let exact = system
            .cache_scheme(CachePolicy::Exact, Some(&plan))
            .unwrap();
        assert_eq!(
            bound("exact"),
            system.bound(&exact).unwrap().unwrap().objective
        );
        let functional = report
            .find_row(&[("policy", "functional"), ("cache_chunks", "6")])
            .unwrap();
        assert!(bound("functional") > 0.0);
        assert!(bound("exact") >= bound("functional"));
        assert!(bound("no_cache") >= bound("exact"));
        // More cache must not hurt the functional policy.
        let tight = report
            .find_row(&[("policy", "functional"), ("cache_chunks", "2")])
            .unwrap();
        assert!(
            functional.metric("mean_latency_s").unwrap().mean
                <= tight.metric("mean_latency_s").unwrap().mean * 1.10
        );
    }

    #[test]
    fn report_is_bit_identical_across_worker_counts() {
        let system = small_system();
        let sweep = SimSweep::new("det", &system, SimConfig::new(2_000.0, 11))
            .scenarios(vec![
                ScenarioSpec::named("steady"),
                ScenarioSpec::named("churn")
                    .at(500.0, ScenarioActionSpec::NodeDown { node: 0 })
                    .at(1_500.0, ScenarioActionSpec::NodeUp { node: 0 }),
            ])
            .cache_sizes(vec![2, 6])
            .replications(3);
        let one = sweep.run(1).unwrap().to_json();
        let four = sweep.run(4).unwrap().to_json();
        assert_eq!(one, four);
    }

    #[test]
    fn byte_cells_decode_verify_and_match_grid_filtering() {
        let system = small_system();
        let sweep = SimSweep::new("byte", &system, SimConfig::new(1_500.0, 5))
            .scenarios(vec![
                ScenarioSpec::named("steady"),
                ScenarioSpec::named("churn")
                    .at(500.0, ScenarioActionSpec::NodeDown { node: 0 })
                    .at(1_000.0, ScenarioActionSpec::NodeUp { node: 0 }),
            ])
            .backends(vec![SweepBackend::Analytic, SweepBackend::Byte])
            .byte_object_bytes(4 * 1024)
            .replications(2)
            .byte_replications(1);
        // Filter: byte backend only for the churn scenario.
        let cells: Vec<_> = sweep
            .cells()
            .into_iter()
            .filter(|c| c.coord("backend") == "analytic" || c.coord("scenario") == "churn")
            .collect();
        assert_eq!(cells.len(), 3);
        let report = sweep.run_cells(cells, 3).unwrap();
        assert_eq!(report.rows.len(), 3);
        let byte_row = report.find_row(&[("backend", "byte")]).unwrap();
        assert_eq!(byte_row.coord("scenario"), "churn");
        assert_eq!(byte_row.replications, 1);
        assert_eq!(byte_row.counter("reconstruction_failures"), Some(0));
        assert!(byte_row.counter("completed").unwrap() > 0);
    }

    #[test]
    fn setup_errors_are_surfaced_not_swallowed() {
        let system = small_system();
        // A scenario that fails an out-of-range node cannot compile.
        let bad =
            SimSweep::new("bad", &system, SimConfig::new(100.0, 1))
                .scenarios(vec![ScenarioSpec::named("broken")
                    .at(1.0, ScenarioActionSpec::NodeDown { node: 99 })]);
        assert!(matches!(bad.run(2), Err(SproutError::InvalidSpec(_))));
    }

    #[test]
    fn every_bad_axis_is_an_invalid_spec_error_not_a_panic() {
        let system = small_system();
        let base = || SimSweep::new("bad_axes", &system, SimConfig::new(100.0, 1));
        let bad: Vec<(&str, SimSweep)> = vec![
            ("no scenarios", base().scenarios(vec![])),
            (
                "two scenarios with one name",
                base().scenarios(vec![ScenarioSpec::named("s"), ScenarioSpec::named("s")]),
            ),
            ("no policies", base().policies(vec![])),
            (
                "duplicate policy",
                base().policies(vec![CachePolicy::None, CachePolicy::None]),
            ),
            ("no cache sizes", base().cache_sizes(vec![])),
            ("duplicate cache size", base().cache_sizes(vec![2, 2])),
            ("no load points", base().load_points(vec![])),
            (
                "load points with one label",
                base().load_points(vec![1.0, 1.00]),
            ),
            ("negative load point", base().load_points(vec![-0.5])),
            ("NaN load point", base().load_points(vec![f64::NAN])),
            (
                "infinite load point",
                base().load_points(vec![f64::INFINITY]),
            ),
            ("no backends", base().backends(vec![])),
            (
                "duplicate backend",
                base().backends(vec![SweepBackend::Byte, SweepBackend::Byte]),
            ),
            ("no placements", base().placements(vec![])),
            (
                "duplicate placement",
                base().placements(vec![
                    PlacementChoice::TwoChoices,
                    PlacementChoice::TwoChoices,
                ]),
            ),
            ("zero replications", base().replications(0)),
            ("zero byte replications", base().byte_replications(0)),
            ("empty byte objects", base().byte_object_bytes(0)),
        ];
        for (label, sweep) in bad {
            let run = std::panic::catch_unwind(|| sweep.run(1))
                .unwrap_or_else(|_| panic!("{label}: run panicked"));
            assert!(
                matches!(run, Err(SproutError::InvalidSpec(_))),
                "{label}: {run:?}"
            );
            assert!(matches!(
                sweep.run_cells(Vec::new(), 1),
                Err(SproutError::InvalidSpec(_))
            ));
        }
        assert!(base().run(1).is_ok());
    }

    #[test]
    fn lru_cells_run_byte_accurately_with_decode_verification() {
        // The formerly-rejected combination: the LRU tier on the byte
        // backend. Cell seeds derive from coordinates, so the analytic and
        // byte cells are distinct sample paths; same-seed decision equality
        // is proved by the differential root test. Here the byte leg must
        // promote/evict through the engine's tier, serve hits from the
        // stored data rows and decode-verify every request (the run itself
        // asserts zero reconstruction failures).
        let system = small_system();
        let report = SimSweep::new("lru", &system, SimConfig::new(2_000.0, 9))
            .policies(vec![CachePolicy::LruReplicated])
            .backends(vec![SweepBackend::Analytic, SweepBackend::Byte])
            .byte_object_bytes(2 * 1024)
            .run(2)
            .unwrap();
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert!(row.counter("completed").unwrap() > 0);
            assert_eq!(row.counter("reconstruction_failures"), Some(0));
            assert!(
                row.counter("cache_promotions").unwrap() > 0,
                "LRU cells must promote on {}",
                row.coord("backend")
            );
            assert!(row.counter("full_cache_hits").unwrap() > 0);
        }
    }

    #[test]
    fn slot_series_are_recorded_on_request() {
        let system = small_system();
        let config = SimConfig::new(500.0, 2);
        let report = SimSweep::new("slots", &system, config.with_slot_length(5.0))
            .run(2)
            .unwrap();
        let row = &report.rows[0];
        let cache = row.series("cache_chunks_per_slot").unwrap();
        let storage = row.series("storage_chunks_per_slot").unwrap();
        assert_eq!(cache.len(), 100);
        assert_eq!(storage.len(), 100);
        assert!(storage.iter().sum::<f64>() > 0.0);

        let report = SimSweep::new("slots", &system, config).run(2).unwrap();
        assert!(
            report.rows[0].series.is_empty(),
            "no slot length, no series"
        );
    }
}

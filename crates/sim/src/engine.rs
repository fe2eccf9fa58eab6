//! The discrete-event simulation engine: one event loop per run.
//!
//! The engine is a *streaming*, *backend-generic*, *scenario-driven* runtime:
//!
//! * **Streaming arrivals** — each file keeps exactly one pending arrival
//!   event (drawn lazily from an arrival stream), and arrivals are the only
//!   events, so event-queue residency is O(files) regardless of how many
//!   requests the horizon produces. [`SimReport::peak_event_queue`] records
//!   the high-water mark as a regression guard. The queue is a calendar
//!   queue whose slots are a few mean gaps of the merged arrival stream
//!   (`Σ λ_f`, re-derived at every rate change), so a pop costs O(1)
//!   instead of a heap's O(log files) chain of compares.
//! * **Requests settle at arrival** — each storage node is a FIFO queue
//!   without preemption, so a chunk read's finish time is fixed when it is
//!   queued (Lindley's recursion, in the [`FifoQueue`] that a chunk read
//!   from the cluster store advances too). The engine plans a request, queues
//!   its reads, and records its latency — the slowest read, or the cache
//!   read — in the same step; no per-chunk completion event exists.
//! * **One node model** — the engine owns every storage node: its FIFO
//!   queue, its service-time distribution and RNG stream, and its online
//!   flag. A [`ChunkBackend`] only settles bytes (decode and verify, cache
//!   device reads), so a run with and without a byte-accurate backend on the
//!   same seed makes identical chunk-source decisions with identical node
//!   service times.
//! * **Dynamic scenarios** — timed [`Scenario`] events (node failures and
//!   recoveries, arrival-rate shifts, online cache-plan swaps) apply at
//!   deterministic epoch edges between event-loop drains.
//! * **Per-entity randomness** — every random stream is keyed per entity
//!   (`stream_seed`/`plan_seed` per file, `service_seed` per node), so
//!   a file's arrivals and planning draws and a node's service draws are
//!   independent of how events of other entities interleave.
//! * **Memory independent of the horizon** — a run holds O(files + nodes +
//!   in-flight requests) of state — an in-flight request is one completion
//!   time, kept for [`SimReport::peak_in_flight`] — plus the post-warm-up
//!   latency samples its percentiles need, kept once as integer keys in
//!   `f64::total_cmp` order: the report sorts each file's keys in place and
//!   summarises the overall distribution from one concatenated buffer.
//!   Per-slot chunk-source series ([`SlotCounts`]) grow with the horizon and
//!   exist only when [`SimConfig::with_slot_length`] asks for them;
//!   otherwise only their exact totals are kept.
//! * **Read rows are compiled at install** — every scheme's
//!   [`CacheScheme::read_rows`] become a table of cumulative marks when the
//!   run starts or a scenario swaps the scheme in, so a request draws one
//!   uniform and walks its file's marks; an out-of-range marginal fails
//!   [`CacheScheme::validate`] when the simulation or its scenario is built,
//!   not mid-run.
//!
//! A run is a single-threaded loop; parallelism lives one level up, across
//! cells × replications in the [`sweep`](crate::sweep) runner.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sprout_cluster::{FifoQueue, LruTier, LRU_REPLICATION};
use sprout_queueing::dist::ServiceDistribution;
use sprout_workload::arrivals::ArrivalStream;

use crate::backend::{ChunkBackend, FinishedRequest};
use crate::config::SimConfig;
use crate::event::EventQueue;
use crate::metrics::{order_key, summarize_per_file, LatencySummary, SlotCounts};
use crate::policy::CacheScheme;
use crate::scenario::{check_rate, Scenario, ScenarioAction};
use crate::scheduler::SystematicTable;

/// A file as seen by the simulator: its arrival rate, code dimension `k` and
/// the storage nodes hosting its chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct SimFile {
    /// Request arrival rate (requests per second).
    pub arrival_rate: f64,
    /// Number of chunks needed to reconstruct the file.
    pub k: usize,
    /// Hosting storage nodes (chunk row `i` lives on `placement[i]`).
    pub placement: Vec<usize>,
}

impl SimFile {
    /// Creates a file description.
    pub fn new(arrival_rate: f64, k: usize, placement: Vec<usize>) -> Self {
        SimFile {
            arrival_rate,
            k,
            placement,
        }
    }
}

/// Everything measured during a run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Latency summary over all completed, post-warm-up requests.
    pub overall: LatencySummary,
    /// Per-file latency summaries.
    pub per_file: Vec<LatencySummary>,
    /// Per-node busy fraction over the horizon.
    pub node_utilization: Vec<f64>,
    /// Chunk-source totals, plus per-slot series (Fig. 7) when the config
    /// set a slot length.
    pub slots: SlotCounts,
    /// Requests served entirely from the cache.
    pub full_cache_hits: u64,
    /// Total completed requests (including warm-up).
    pub completed_requests: u64,
    /// Chunks scheduled onto each storage node (the engine's chunk-source
    /// decisions; backend-independent for a fixed seed).
    pub node_chunks_served: Vec<u64>,
    /// Requests that could not be served because node failures left fewer
    /// than the needed number of online hosts.
    pub failed_requests: u64,
    /// Completed requests whose backend reconstruction failed (always zero
    /// for [`Simulation::run`], which settles no bytes).
    pub reconstruction_failures: u64,
    /// High-water mark of pending events. Arrivals are the only events, one
    /// pending per file (plus superseded arrivals after a rate shift), so
    /// this is O(files), *not* O(total requests).
    pub peak_event_queue: usize,
    /// High-water mark of requests in flight: the most requests with a
    /// storage read whose arrival ≤ t < completion at any time t. A load
    /// measure (it grows under overload); full cache hits complete at
    /// arrival and never count.
    pub peak_in_flight: usize,
    /// Objects promoted into the LRU cache tier (zero for other schemes).
    pub cache_promotions: u64,
    /// Objects evicted from the LRU cache tier by admission pressure.
    pub cache_evictions: u64,
}

/// SplitMix64 finalizer: decorrelates seeds derived from a base seed.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seed of replication `r` derived from a base seed — what the
/// [`sweep`](crate::sweep) runner gives each replication of a cell.
pub fn replication_seed(base: u64, replication: usize) -> u64 {
    splitmix64(base ^ (replication as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// Mixes a base seed with an arbitrary salt (the sweep runner's
/// coordinate hash) into a decorrelated derived seed.
pub(crate) fn mix_seed(base: u64, salt: u64) -> u64 {
    splitmix64(base ^ salt.wrapping_mul(0x2545_F491_4F6C_DD1D))
}

/// Seed of a file's arrival stream. Per-file streams keep a file's arrivals
/// independent of the event interleaving: adding, removing or re-rating
/// another file never moves them.
pub(crate) fn stream_seed(base: u64, file: usize) -> u64 {
    splitmix64(base ^ (file as u64).wrapping_mul(0xA24B_AED4_963E_E407))
}

/// Seed of a file's request-planning RNG (chunk-source sampling and offline
/// repair draws). One stream per file, so a file's planning decisions depend
/// only on its own request sequence — never on other files' interleaved
/// arrivals.
pub(crate) fn plan_seed(base: u64, file: usize) -> u64 {
    splitmix64(base ^ 0x5EED ^ (file as u64).wrapping_mul(0x9E6C_63D0_876A_3F6B))
}

/// Seed of a node's service-time RNG (the engine keeps one stream per node).
/// A node's service draws depend only on its own read sequence — independent
/// of the event interleaving, like the per-file streams above.
pub(crate) fn service_seed(base: u64, node: usize) -> u64 {
    splitmix64(base ^ 0x5E2F_1CE5 ^ (node as u64).wrapping_mul(0xFF51_AFD7_ED55_8CCD))
}

/// A configured simulation, ready to run.
#[derive(Debug, Clone)]
pub struct Simulation {
    pub(crate) nodes: Vec<ServiceDistribution>,
    pub(crate) files: Vec<SimFile>,
    pub(crate) scheme: CacheScheme,
    pub(crate) config: SimConfig,
    pub(crate) scenario: Scenario,
}

impl Simulation {
    /// Creates a simulation.
    ///
    /// # Panics
    ///
    /// Panics if a file references a node out of range, has `k = 0`, is
    /// hosted on fewer than `k` nodes, or has an arrival rate that is not
    /// finite and non-negative.
    pub fn new(
        nodes: Vec<ServiceDistribution>,
        files: Vec<SimFile>,
        scheme: CacheScheme,
        config: SimConfig,
    ) -> Self {
        for (i, f) in files.iter().enumerate() {
            assert!(f.k > 0, "file {i} has k = 0");
            assert!(
                f.placement.len() >= f.k,
                "file {i} is hosted on fewer than k nodes"
            );
            assert!(
                f.placement.iter().all(|&n| n < nodes.len()),
                "file {i} references a node out of range"
            );
            if let Err(message) = check_rate(f.arrival_rate) {
                panic!("file {i}: {message}");
            }
        }
        scheme.validate(&files);
        Simulation {
            nodes,
            files,
            scheme,
            config,
            scenario: Scenario::default(),
        }
    }

    /// Attaches a dynamic scenario (node failures, rate shifts, plan swaps).
    ///
    /// # Panics
    ///
    /// Panics if an action breaks [`ScenarioAction::check`] (nodes or files
    /// out of range, a mis-sized rate vector, a rate that is not finite and
    /// non-negative) or a swapped-in scheme does not fit the files.
    pub fn with_scenario(mut self, scenario: Scenario) -> Self {
        scenario.validate(self.nodes.len(), &self.files);
        self.scenario = scenario;
        self
    }

    /// Replaces the run seed (used by the replication runner).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The cache scheme the run starts with.
    pub fn scheme(&self) -> &CacheScheme {
        &self.scheme
    }

    /// Runs the simulation with abstract chunks (no byte settlement) and
    /// returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the configuration breaks [`SimConfig::check`].
    pub fn run(&self) -> SimReport {
        self.run_on(&mut Abstract(self.nodes.len()))
    }

    /// Runs the simulation on an explicit backend (e.g. the byte-accurate
    /// `StoreBackend` of the facade crate).
    ///
    /// # Panics
    ///
    /// Panics if the configuration breaks [`SimConfig::check`] (a warm-up
    /// at or past the horizon, a negative or non-finite value) or the
    /// backend's node count differs from the simulation's.
    pub fn run_on<B: ChunkBackend>(&self, backend: &mut B) -> SimReport {
        if let Err(message) = self.config.check() {
            panic!("{message}");
        }
        assert_eq!(
            backend.num_nodes(),
            self.nodes.len(),
            "backend has {} nodes but the simulation has {}",
            backend.num_nodes(),
            self.nodes.len()
        );
        EventLoop::new(self, backend).run()
    }
}

/// The next request of a file arrives — the engine's only event. The epoch
/// stamps the arrival-stream generation: rate-shift actions bump it, so
/// stale pre-shift arrivals are discarded when popped.
#[derive(Debug, Clone, PartialEq)]
struct Arrival {
    file: usize,
    epoch: u32,
}

/// The backend [`Simulation::run`] drives (over this many nodes): chunks
/// stay abstract, so every default hook of [`ChunkBackend`] applies.
pub(crate) struct Abstract(pub(crate) usize);

impl ChunkBackend for Abstract {
    fn num_nodes(&self) -> usize {
        self.0
    }
}

/// One storage node as the engine models it (the FIFO queue of Lemma 1).
#[derive(Debug)]
struct NodeModel {
    queue: FifoQueue,
    service: ServiceDistribution,
    /// Seeded from `(run seed, node)` only ([`service_seed`]).
    rng: StdRng,
    online: bool,
}

impl NodeModel {
    /// One model per node of `services`, for run seed `seed`.
    fn for_run(services: &[ServiceDistribution], seed: u64) -> Vec<NodeModel> {
        services
            .iter()
            .enumerate()
            .map(|(node, &service)| NodeModel {
                queue: FifoQueue::default(),
                service,
                rng: StdRng::seed_from_u64(service_seed(seed, node)),
                online: true,
            })
            .collect()
    }

    /// Queues one chunk read at `now` and returns when it finishes.
    fn serve(&mut self, now: f64) -> f64 {
        let service = self.service.sample(&mut self.rng);
        self.queue.serve(now, service)
    }
}

/// Completion times of the requests still in flight, kept only for
/// [`SimReport::peak_in_flight`].
#[derive(Debug, Default)]
struct InFlight {
    /// Min-heap of completion times as `f64` bits: the times are finite and
    /// ≥ +0.0, where bit order is numeric order.
    done: BinaryHeap<Reverse<u64>>,
    peak: usize,
}

impl InFlight {
    /// Admits a request arriving at `now` and completing at `done`, after
    /// retiring every request completed by `now`.
    fn admit(&mut self, now: f64, done: f64) {
        while self.done.peek().is_some_and(|t| t.0 <= now.to_bits()) {
            self.done.pop();
        }
        self.done.push(Reverse(done.to_bits()));
        self.peak = self.peak.max(self.done.len());
    }
}

/// The engine's LRU cache tier for [`CacheScheme::LruReplicated`]: the same
/// [`LruTier`] implementation the cluster's byte-accurate `Cache` runs, here
/// with *chunks* as the weight unit (the abstract model has no byte sizes).
/// The tier's decisions scale linearly with the unit, so a byte-weighted
/// tier fed the same access sequence makes the same decisions — see
/// `sprout_cluster::tier`.
fn lru_tier_for(scheme: &CacheScheme) -> Option<LruTier> {
    match scheme {
        CacheScheme::LruReplicated { capacity_chunks } => {
            Some(LruTier::new(*capacity_chunks as u64, LRU_REPLICATION))
        }
        _ => None,
    }
}

/// Reusable buffers for the per-arrival planning step.
///
/// `plan_request` runs once per simulated request — millions of times at the
/// paper's horizons — so its working sets (the sampled index set, the chosen
/// node list and the offline-repair pool) live here instead of being
/// allocated per call.
#[derive(Debug, Default)]
struct PlanScratch {
    picks: Vec<usize>,
    /// Online candidates used to repair a plan that picked failed nodes.
    avail: Vec<usize>,
    /// Output: the storage nodes chosen to serve the request.
    nodes: Vec<usize>,
}

/// The state of one run: every file's arrival stream and planning RNG, the
/// node models, the event queue and the statistics the report is built from.
struct EventLoop<'a, B: ChunkBackend> {
    sim: &'a Simulation,
    backend: &'a mut B,
    scheme: CacheScheme,
    /// The systematic sampler of the installed scheme's read rows.
    systematic: SystematicTable,
    streams: Vec<ArrivalStream>,
    epochs: Vec<u32>,
    plan_rngs: Vec<StdRng>,
    events: EventQueue<Arrival>,
    peak_events: usize,
    nodes: Vec<NodeModel>,
    in_flight: InFlight,
    /// Post-warm-up latencies per file, as [`order_key`]s.
    latencies: Vec<Vec<u64>>,
    slots: SlotCounts,
    node_chunks_served: Vec<u64>,
    full_cache_hits: u64,
    completed: u64,
    failed: u64,
    reconstruction_failures: u64,
    tier: Option<LruTier>,
    cache_promotions: u64,
    cache_evictions: u64,
    scratch: PlanScratch,
}

impl<'a, B: ChunkBackend> EventLoop<'a, B> {
    fn new(sim: &'a Simulation, backend: &'a mut B) -> Self {
        let seed = sim.config.seed;
        let num_files = sim.files.len();
        let streams = (0..num_files)
            .map(|f| ArrivalStream::new(sim.files[f].arrival_rate, stream_seed(seed, f)))
            .collect();
        let plan_rngs = (0..num_files)
            .map(|f| StdRng::seed_from_u64(plan_seed(seed, f)))
            .collect();
        EventLoop {
            sim,
            backend,
            tier: lru_tier_for(&sim.scheme),
            scheme: sim.scheme.clone(),
            systematic: SystematicTable::new(&sim.scheme.read_rows(&sim.files)),
            streams,
            epochs: vec![0u32; num_files],
            plan_rngs,
            events: EventQueue::new(),
            peak_events: 0,
            nodes: NodeModel::for_run(&sim.nodes, seed),
            in_flight: InFlight::default(),
            latencies: vec![Vec::new(); num_files],
            slots: SlotCounts::new(sim.config.horizon, sim.config.slot_length),
            node_chunks_served: vec![0u64; sim.nodes.len()],
            full_cache_hits: 0,
            completed: 0,
            failed: 0,
            reconstruction_failures: 0,
            cache_promotions: 0,
            cache_evictions: 0,
            scratch: PlanScratch::default(),
        }
    }

    fn run(mut self) -> SimReport {
        let horizon = self.sim.config.horizon;
        // One lazily-sampled arrival stream per file; exactly one pending
        // arrival event per file lives in the queue at any time.
        for file in 0..self.streams.len() {
            if let Some(t) = self.streams[file].next_arrival(0.0, horizon) {
                self.events.push(t, Arrival { file, epoch: 0 });
            }
        }
        self.retune_events();

        // Epoch edges are the scenario's firing times (inside the horizon).
        // Events strictly before an edge drain first; the edge's actions
        // apply (in declaration order), then the loop resumes — so same-time
        // workload events observe the scenario effects.
        let sim = self.sim;
        for edge in sim.scenario.events().iter().take_while(|e| e.at < horizon) {
            self.drain_before(edge.at);
            self.apply_action(edge.at, &edge.action);
        }
        self.drain_before(f64::INFINITY);
        self.into_report()
    }

    /// Handles every event firing strictly before `limit`.
    fn drain_before(&mut self, limit: f64) {
        while self.events.next_time().is_some_and(|t| t < limit) {
            // The queue only shrinks here, so its length before each pop
            // passes through every high-water mark.
            self.peak_events = self.peak_events.max(self.events.len());
            let (now, arrival) = self.events.pop().expect("a peeked event pops");
            self.arrive(now, arrival);
        }
    }

    /// Plans a request of `file` arriving at `now` and settles it in the same
    /// step: its reads are queued, so its completion time — and latency — is
    /// already known.
    fn arrive(&mut self, now: f64, Arrival { file, epoch }: Arrival) {
        if epoch != self.epochs[file] {
            return; // stale arrival from before a rate shift
        }
        // Keep the stream primed: schedule this file's next arrival before
        // processing the current one.
        if let Some(t) = self.streams[file].next_arrival(now, self.sim.config.horizon) {
            self.events.push(t, Arrival { file, epoch });
        }
        let Some(cache_chunks) = self.plan_request(file) else {
            self.failed += 1;
            return;
        };
        let storage_nodes = &self.scratch.nodes;
        self.slots
            .record(now, cache_chunks as u64, storage_nodes.len() as u64);
        let cache_latency = if cache_chunks > 0 {
            self.backend
                .sample_cache_read(file, cache_chunks)
                .unwrap_or(self.sim.config.cache_chunk_latency)
        } else {
            0.0
        };
        let latency = if storage_nodes.is_empty() {
            self.full_cache_hits += 1;
            cache_latency
        } else {
            // The request completes with its slowest read (or the cache read).
            let mut done = now + cache_latency;
            for &node in storage_nodes {
                self.node_chunks_served[node] += 1;
                done = done.max(self.nodes[node].serve(now));
            }
            self.in_flight.admit(now, done);
            done - now
        };
        if !self.backend.finish_request(FinishedRequest {
            file,
            cache_chunks,
            storage_nodes,
        }) {
            self.reconstruction_failures += 1;
        }
        self.completed += 1;
        if now >= self.sim.config.warmup {
            debug_assert!(latency.is_finite() && latency >= 0.0);
            self.latencies[file].push(order_key(latency));
        }
    }

    /// Applies one scenario action at epoch edge `at`.
    fn apply_action(&mut self, at: f64, action: &ScenarioAction) {
        match action {
            // Reads already queued on a failing node still finish at their
            // queued times; planning just stops selecting it.
            ScenarioAction::NodeDown { node } => self.nodes[*node].online = false,
            ScenarioAction::NodeUp { node } => self.nodes[*node].online = true,
            ScenarioAction::SetRates { rates } => {
                for (file, &rate) in rates.iter().enumerate() {
                    self.retarget(file, rate, at);
                }
                self.retune_events();
            }
            ScenarioAction::SetFileRate { file, rate } => {
                self.retarget(*file, *rate, at);
                self.retune_events();
            }
            ScenarioAction::SwapScheme { scheme } => {
                // Promotion/eviction counts accumulate across swaps (a swap
                // restarts the tier cold).
                self.retire_tier();
                self.scheme = scheme.clone();
                self.systematic = SystematicTable::new(&scheme.read_rows(&self.sim.files));
                self.tier = lru_tier_for(&self.scheme);
                self.backend.apply_scheme(&self.scheme);
            }
        }
    }

    /// Folds the current tier's promotion/eviction counts into the run totals
    /// and drops it.
    fn retire_tier(&mut self) {
        if let Some(old) = self.tier.take() {
            let stats = old.stats();
            self.cache_promotions += stats.promotions;
            self.cache_evictions += stats.evictions;
        }
    }

    /// Sizes the event queue's slots for the merged arrival stream at the
    /// rates now in force.
    fn retune_events(&mut self) {
        let total_rate = self.streams.iter().map(ArrivalStream::rate).sum();
        self.events.retune(total_rate);
    }

    /// Re-seats a file's arrival process at a new constant rate from `now`
    /// on. By Poisson memorylessness the pending pre-shift arrival can simply
    /// be discarded (the epoch bump invalidates it) and a fresh interarrival
    /// drawn at the new rate.
    fn retarget(&mut self, file: usize, rate: f64, now: f64) {
        self.epochs[file] = self.epochs[file].wrapping_add(1);
        self.streams[file].set_rate(rate);
        if let Some(t) = self.streams[file].next_arrival(now, self.sim.config.horizon) {
            self.events.push(
                t,
                Arrival {
                    file,
                    epoch: self.epochs[file],
                },
            );
        }
    }

    fn into_report(mut self) -> SimReport {
        self.retire_tier();
        let horizon = self.sim.config.horizon;
        let (overall, per_file) = summarize_per_file(self.latencies);
        SimReport {
            overall,
            per_file,
            node_utilization: self
                .nodes
                .iter()
                .map(|n| n.queue.utilization(horizon))
                .collect(),
            slots: self.slots,
            full_cache_hits: self.full_cache_hits,
            completed_requests: self.completed,
            node_chunks_served: self.node_chunks_served,
            failed_requests: self.failed,
            reconstruction_failures: self.reconstruction_failures,
            peak_event_queue: self.peak_events,
            peak_in_flight: self.in_flight.peak,
            cache_promotions: self.cache_promotions,
            cache_evictions: self.cache_evictions,
        }
    }

    /// Decides, for one request of `file`, how many chunks the
    /// cache serves and which storage nodes serve the rest (written to
    /// `scratch.nodes`). Returns `None` when node failures leave fewer online
    /// hosts than the request needs. All working sets live in `scratch`, so the
    /// arrival hot loop allocates nothing beyond per-request state.
    ///
    /// Every scheme is one selector: `d` chunks come from the cache and the
    /// other `k − d` from the hosts drawn systematically on the file's
    /// [`CacheScheme::read_rows`] row (the loop's [`SystematicTable`]), then
    /// repaired around offline nodes from the pool `placement[o..]` (`o = d`
    /// under exact caching, else 0). No cache and an LRU miss have `d = 0`
    /// and read `k / n` from each host, an LRU hit `d = k`.
    ///
    /// For [`CacheScheme::LruReplicated`] the loop's `tier` is the single source
    /// of truth for hit/miss/promotion/eviction decisions; backends see only
    /// its outcome, a hit's `d = k`.
    fn plan_request(&mut self, file: usize) -> Option<usize> {
        let spec = &self.sim.files[file];
        let scratch = &mut self.scratch;
        scratch.nodes.clear();
        let d = match &self.scheme {
            CacheScheme::NoCache => 0,
            CacheScheme::LruReplicated { .. } => {
                let tier = self.tier.as_mut().expect("an LRU scheme always has a tier");
                if tier.touch(file as u64) {
                    spec.k
                } else {
                    0
                }
            }
            CacheScheme::Functional(plan) | CacheScheme::Exact(plan) => plan.cached_chunks[file],
        };
        if d == spec.k {
            return Some(d);
        }
        let rng = &mut self.plan_rngs[file];
        self.systematic.sample_into(file, rng, &mut scratch.picks);
        scratch
            .nodes
            .extend(scratch.picks.iter().map(|&i| spec.placement[i]));
        let pool = &spec.placement[self.scheme.first_eligible(d)..];
        if !repair_offline(pool, &self.nodes, rng, scratch) {
            return None;
        }
        // Only an LRU miss reaches here with a tier: promote the object.
        if let Some(tier) = self.tier.as_mut() {
            tier.admit(file as u64, spec.k as u64);
        }
        Some(d)
    }
}

/// Replaces planned reads that landed on offline nodes with draws from
/// the online remainder of `pool`. Returns `false` (degraded beyond
/// repair) when fewer online candidates exist than chunks are needed.
/// Draws happen only when a failure is actually present, so runs without
/// scenarios consume each file's planning RNG exactly as before.
fn repair_offline(
    pool: &[usize],
    nodes: &[NodeModel],
    rng: &mut StdRng,
    scratch: &mut PlanScratch,
) -> bool {
    if scratch.nodes.iter().all(|&n| nodes[n].online) {
        return true;
    }
    let target = scratch.nodes.len();
    scratch.nodes.retain(|&n| nodes[n].online);
    scratch.avail.clear();
    scratch.avail.extend(
        pool.iter()
            .copied()
            .filter(|&n| nodes[n].online && !scratch.nodes.contains(&n)),
    );
    while scratch.nodes.len() < target {
        if scratch.avail.is_empty() {
            return false;
        }
        let j = rng.gen_range(0..scratch.avail.len());
        scratch.nodes.push(scratch.avail.swap_remove(j));
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PlannedCache;

    fn nodes(n: usize, rate: f64) -> Vec<ServiceDistribution> {
        vec![ServiceDistribution::exponential(rate); n]
    }

    fn simple_files(count: usize, rate: f64, k: usize, m: usize) -> Vec<SimFile> {
        (0..count)
            .map(|i| {
                let placement: Vec<usize> = (0..m).map(|j| (i + j) % m).collect();
                SimFile::new(rate, k, placement)
            })
            .collect()
    }

    /// Scheduling rows spreading `reads` storage reads uniformly over each
    /// file's placement.
    fn uniform_rows(files: &[SimFile], reads: f64) -> Vec<Vec<f64>> {
        let rows = files.iter().map(|f| f.placement.len());
        rows.map(|n| vec![reads / n as f64; n]).collect()
    }

    /// Functional caching of `cached_chunks` with reads drawn on `scheduling`.
    fn functional(cached_chunks: Vec<usize>, scheduling: Vec<Vec<f64>>) -> CacheScheme {
        CacheScheme::Functional(PlannedCache {
            cached_chunks,
            scheduling,
        })
    }

    #[test]
    fn no_cache_latency_close_to_mm1_fork_join_bounds() {
        // Single file, k = 1, one node: the system is exactly M/M/1 and the
        // mean sojourn time is 1/(mu - lambda).
        let sim = Simulation::new(
            vec![ServiceDistribution::exponential(1.0)],
            vec![SimFile::new(0.5, 1, vec![0])],
            CacheScheme::NoCache,
            SimConfig::new(200_000.0, 42),
        );
        let report = sim.run();
        let expect = 1.0 / (1.0 - 0.5);
        assert!(
            (report.overall.mean - expect).abs() / expect < 0.05,
            "M/M/1 sojourn {} vs {expect}",
            report.overall.mean
        );
        assert!(report.node_utilization[0] > 0.45 && report.node_utilization[0] < 0.55);
        assert_eq!(report.failed_requests, 0);
        assert_eq!(report.reconstruction_failures, 0);
        assert_eq!(
            report.node_chunks_served[0], report.completed_requests,
            "every request reads one chunk from the only node"
        );
    }

    #[test]
    fn fork_join_latency_exceeds_single_chunk_latency() {
        let nodes = nodes(6, 0.5);
        let one = Simulation::new(
            nodes.clone(),
            vec![SimFile::new(0.05, 1, vec![0, 1, 2, 3, 4, 5])],
            CacheScheme::NoCache,
            SimConfig::new(100_000.0, 1),
        )
        .run();
        let four = Simulation::new(
            nodes,
            vec![SimFile::new(0.05, 4, vec![0, 1, 2, 3, 4, 5])],
            CacheScheme::NoCache,
            SimConfig::new(100_000.0, 1),
        )
        .run();
        assert!(four.overall.mean > one.overall.mean);
    }

    #[test]
    fn functional_caching_reduces_latency_monotonically_in_d() {
        let m = 6;
        let files = simple_files(4, 0.05, 4, m);
        let service = nodes(m, 0.5);
        let mut prev = f64::INFINITY;
        for d in 0..=4usize {
            let cached = vec![d; 4];
            // spread the remaining k - d reads uniformly
            let scheduling = uniform_rows(&files, (4 - d) as f64);
            let report = Simulation::new(
                service.clone(),
                files.clone(),
                functional(cached, scheduling),
                SimConfig::new(50_000.0, 3),
            )
            .run();
            assert!(
                report.overall.mean <= prev + 0.2,
                "latency should fall as d grows: d={d}, {} vs {prev}",
                report.overall.mean
            );
            prev = report.overall.mean;
            if d == 4 {
                assert_eq!(
                    report.overall.mean, 0.0,
                    "fully cached files have zero latency"
                );
                assert!(report.full_cache_hits > 0);
            }
        }
    }

    #[test]
    fn slot_counts_track_cache_share() {
        let m = 6;
        let files = simple_files(3, 0.05, 4, m);
        let scheduling = uniform_rows(&files, 2.0);
        let report = Simulation::new(
            nodes(m, 0.5),
            files,
            functional(vec![2, 2, 2], scheduling),
            SimConfig::new(20_000.0, 9),
        )
        .run();
        // Half of each request's 4 chunks come from the cache.
        assert!((report.slots.cache_fraction() - 0.5).abs() < 0.02);
    }

    #[test]
    fn per_slot_series_are_opt_in_and_change_nothing_else() {
        // 1e7 s is 2 M slots per series: without a slot length the report
        // keeps only the two totals.
        let m = 4;
        let files = simple_files(2, 1e-4, 2, m);
        let scheduling = uniform_rows(&files, 1.0);
        let scheme = functional(vec![1, 1], scheduling);
        let horizon = 1e7;
        let run =
            |config| Simulation::new(nodes(m, 0.5), files.clone(), scheme.clone(), config).run();
        let totals = run(SimConfig::new(horizon, 31));
        let series = run(SimConfig::new(horizon, 31).with_slot_length(5.0));

        assert!(totals.slots.cache_chunks.is_empty());
        assert!(totals.slots.storage_chunks.is_empty());
        assert!(totals.slots.cache_total > 0 && totals.slots.storage_total > 0);
        let slots = (horizon / 5.0).ceil() as usize;
        assert_eq!(series.slots.cache_chunks.len(), slots);
        assert_eq!(series.slots.storage_chunks.len(), slots);
        assert_eq!(
            series.slots.cache_chunks.iter().sum::<u64>(),
            series.slots.cache_total
        );
        assert_eq!(
            series.slots.storage_chunks.iter().sum::<u64>(),
            series.slots.storage_total
        );
        assert_eq!(series.slots.cache_total, totals.slots.cache_total);
        assert_eq!(series.slots.storage_total, totals.slots.storage_total);
        assert_eq!(
            series.slots.cache_fraction().to_bits(),
            totals.slots.cache_fraction().to_bits()
        );
        assert_eq!(series.overall.mean.to_bits(), totals.overall.mean.to_bits());
        assert_eq!(
            SimReport {
                slots: totals.slots.clone(),
                ..series
            },
            totals,
            "every field but the series is identical"
        );
    }

    #[test]
    fn lru_cache_hits_after_first_access_when_capacity_allows() {
        let m = 4;
        let files = simple_files(2, 0.05, 2, m);
        let report = Simulation::new(
            nodes(m, 0.5),
            files,
            CacheScheme::LruReplicated {
                capacity_chunks: 100,
            },
            SimConfig::new(20_000.0, 5),
        )
        .run();
        // After both files are promoted every request is a full cache hit.
        assert!(report.full_cache_hits > report.completed_requests / 2);
        assert!(report.overall.mean < 1.0);
    }

    #[test]
    fn lru_tier_reports_promotions_and_evictions() {
        let m = 4;
        let files = simple_files(4, 0.05, 2, m);
        // Capacity 4 chunks at replication 2 and k = 2 means a footprint of 4
        // per object: exactly one resident object, so promotions churn.
        let report = Simulation::new(
            nodes(m, 0.5),
            files.clone(),
            CacheScheme::LruReplicated { capacity_chunks: 4 },
            SimConfig::new(20_000.0, 5),
        )
        .run();
        assert!(report.cache_promotions > 1, "objects must be promoted");
        assert!(report.cache_evictions > 0, "the tier must churn");
        assert!(
            report.cache_promotions - report.cache_evictions <= 1,
            "at most one object fits the tier"
        );
        let none = Simulation::new(
            nodes(m, 0.5),
            files,
            CacheScheme::NoCache,
            SimConfig::new(1_000.0, 5),
        )
        .run();
        assert_eq!(none.cache_promotions, 0);
        assert_eq!(none.cache_evictions, 0);
    }

    #[test]
    fn lru_cache_with_tiny_capacity_behaves_like_no_cache() {
        let m = 4;
        let files = simple_files(4, 0.05, 2, m);
        let tiny = Simulation::new(
            nodes(m, 0.5),
            files.clone(),
            CacheScheme::LruReplicated { capacity_chunks: 1 },
            SimConfig::new(20_000.0, 6),
        )
        .run();
        let none = Simulation::new(
            nodes(m, 0.5),
            files,
            CacheScheme::NoCache,
            SimConfig::new(20_000.0, 6),
        )
        .run();
        assert!((tiny.overall.mean - none.overall.mean).abs() / none.overall.mean < 0.25);
        assert_eq!(tiny.full_cache_hits, 0);
    }

    #[test]
    fn deterministic_across_runs_with_same_seed() {
        let files = simple_files(3, 0.05, 2, 4);
        let a = Simulation::new(
            nodes(4, 0.5),
            files.clone(),
            CacheScheme::NoCache,
            SimConfig::new(5_000.0, 77),
        )
        .run();
        let b = Simulation::new(
            nodes(4, 0.5),
            files,
            CacheScheme::NoCache,
            SimConfig::new(5_000.0, 77),
        )
        .run();
        assert_eq!(a, b, "same seed must give a bit-identical report");
    }

    #[test]
    fn in_flight_requests_stay_bounded_over_long_horizons() {
        // ~20k requests over the horizon, but only a handful in flight at
        // once: the peak measures concurrency, not the request count.
        let files = simple_files(8, 0.5, 2, 6);
        let report = Simulation::new(
            nodes(6, 2.0),
            files,
            CacheScheme::NoCache,
            SimConfig::new(10_000.0, 4),
        )
        .run();
        assert!(report.completed_requests > 10_000);
        assert!(
            report.peak_in_flight < 200,
            "peak in-flight {} should be far below the {} completed requests",
            report.peak_in_flight,
            report.completed_requests
        );
    }

    #[test]
    fn event_heap_holds_one_pending_arrival_per_file() {
        let files = simple_files(8, 0.5, 2, 6);
        let report = Simulation::new(
            nodes(6, 2.0),
            files,
            CacheScheme::NoCache,
            SimConfig::new(10_000.0, 4),
        )
        .run();
        assert!(report.completed_requests > 10_000);
        // Arrivals are the only events: one pending per file, no node events.
        assert_eq!(report.peak_event_queue, 8);
    }

    #[test]
    fn node_queues_follow_lindleys_recursion() {
        // One deterministic node and one k = 1 file: every request waits for
        // the reads queued before it, so each latency is the node's backlog
        // at arrival plus one service time.
        let mut queue = FifoQueue::default();
        assert_eq!(queue.serve(1.0, 2.0), 3.0);
        assert_eq!(queue.serve(2.0, 2.0), 5.0);
        assert_eq!(queue.serve(9.0, 2.0), 11.0);
        assert_eq!(queue.utilization(12.0), 0.5);
        // The engine's node model draws its service and queues it the same way.
        let mut node = NodeModel::for_run(&[ServiceDistribution::deterministic(2.0)], 0);
        for now in [1.0, 2.0, 9.0] {
            node[0].serve(now);
        }
        assert_eq!(node[0].queue, queue);

        let mut in_flight = InFlight::default();
        in_flight.admit(1.0, 3.0);
        in_flight.admit(2.0, 5.0);
        // A request completing exactly at an arrival no longer counts.
        in_flight.admit(5.0, 7.0);
        assert_eq!(in_flight.peak, 2);
        in_flight.admit(6.0, 8.0);
        assert_eq!(in_flight.peak, 2);
        in_flight.admit(6.5, 9.0);
        assert_eq!(in_flight.peak, 3);
    }

    #[test]
    fn service_samples_are_positive_and_seed_deterministic() {
        let mut a = NodeModel::for_run(&nodes(2, 0.5), 9);
        let mut b = NodeModel::for_run(&nodes(2, 0.5), 9);
        let mut now = 0.0;
        for _ in 0..100 {
            // Each read arrives after the last one finished, so its finish
            // time is its arrival plus one service draw.
            let done = a[0].serve(now);
            assert!(done > now);
            assert_eq!(done, b[0].serve(now));
            now = done + 1.0;
        }
    }

    #[test]
    fn per_node_service_streams_are_independent() {
        // Interleaving reads on other nodes must not perturb a node's own
        // service-time stream.
        let mut solo = NodeModel::for_run(&nodes(3, 0.5), 77);
        let mut mixed = NodeModel::for_run(&nodes(3, 0.5), 77);
        for i in 0..50 {
            let now = f64::from(i);
            if i % 2 == 0 {
                mixed[1].serve(now);
                mixed[2].serve(now);
            }
            assert_eq!(solo[0].serve(now), mixed[0].serve(now));
        }
    }

    #[test]
    fn node_failure_degrades_and_recovery_restores_service() {
        let files = simple_files(3, 0.1, 2, 4);
        let horizon = 40_000.0;
        let baseline = Simulation::new(
            nodes(4, 0.6),
            files.clone(),
            CacheScheme::NoCache,
            SimConfig::new(horizon, 12),
        );
        let with_failure = baseline.clone().with_scenario(
            Scenario::default()
                .node_down(10_000.0, 0)
                .node_up(30_000.0, 0),
        );
        let a = baseline.run();
        let b = with_failure.run();
        assert_eq!(b.failed_requests, 0, "3 online hosts still cover k = 2");
        assert!(
            b.node_chunks_served[0] < a.node_chunks_served[0],
            "the failed node must serve fewer chunks ({} vs {})",
            b.node_chunks_served[0],
            a.node_chunks_served[0]
        );
        assert!(
            b.overall.mean > a.overall.mean,
            "losing a node concentrates load and raises latency ({} vs {})",
            b.overall.mean,
            a.overall.mean
        );
    }

    #[test]
    fn failure_beyond_redundancy_fails_requests() {
        let sim = Simulation::new(
            nodes(2, 0.8),
            vec![SimFile::new(0.2, 2, vec![0, 1])],
            CacheScheme::NoCache,
            SimConfig::new(2_000.0, 3),
        )
        .with_scenario(Scenario::default().node_down(500.0, 0));
        let report = sim.run();
        assert!(report.failed_requests > 0);
        assert!(report.completed_requests > 0);
    }

    #[test]
    fn rate_shift_scenario_changes_throughput() {
        let sim = Simulation::new(
            nodes(4, 2.0),
            simple_files(2, 0.5, 1, 4),
            CacheScheme::NoCache,
            SimConfig::new(10_000.0, 8),
        )
        .with_scenario(Scenario::default().set_rates(5_000.0, vec![2.0, 2.0]));
        let report = sim.run();
        let base = Simulation::new(
            nodes(4, 2.0),
            simple_files(2, 0.5, 1, 4),
            CacheScheme::NoCache,
            SimConfig::new(10_000.0, 8),
        )
        .run();
        // Doubling both rates halfway through adds ~1.5e4 requests over the
        // baseline's ~1e4; allow generous slack.
        assert!(
            report.completed_requests as f64 > base.completed_requests as f64 * 1.8,
            "{} vs {}",
            report.completed_requests,
            base.completed_requests
        );
    }

    #[test]
    fn swap_scheme_scenario_takes_effect() {
        let m = 4;
        let files = simple_files(2, 0.2, 2, m);
        let scheduling = uniform_rows(&files, 0.0);
        let full_cache = functional(vec![2, 2], scheduling);
        let sim = Simulation::new(
            nodes(m, 0.8),
            files,
            CacheScheme::NoCache,
            SimConfig::new(10_000.0, 21).with_warmup(0.0),
        )
        .with_scenario(Scenario::default().swap_scheme(5_000.0, full_cache));
        let report = sim.run();
        assert!(
            report.full_cache_hits > 0,
            "after the swap every request is a full cache hit"
        );
        let frac = report.full_cache_hits as f64 / report.completed_requests as f64;
        assert!(
            (frac - 0.5).abs() < 0.1,
            "~half the horizon runs fully cached, got {frac}"
        );
    }

    #[test]
    fn no_cache_is_the_selector_with_nothing_cached() {
        // No cache reads its k / n rows exactly as functional caching with
        // every d_i = 0 reads the same rows: one sampler and one repair, so
        // both runs are bit-identical — churn included.
        let m = 5;
        let files = simple_files(4, 0.2, 3, m);
        let empty = functional(vec![0; 4], uniform_rows(&files, 3.0));
        let churn = Scenario::default()
            .node_down(1_000.0, 1)
            .node_down(2_000.0, 3)
            .node_up(3_000.0, 1);
        let config = SimConfig::new(5_000.0, 8);
        let run = |scheme| {
            Simulation::new(nodes(m, 1.0), files.clone(), scheme, config)
                .with_scenario(churn.clone())
                .run()
        };
        let none = run(CacheScheme::NoCache);
        assert!(none.completed_requests > 1_000);
        assert!(none.node_chunks_served[3] < none.node_chunks_served[0]);
        assert_eq!(run(empty), none);
    }

    /// Counts the engine's settlements and fails every third one.
    struct Counting {
        nodes: usize,
        settled: u64,
        failed: u64,
    }

    impl ChunkBackend for Counting {
        fn num_nodes(&self) -> usize {
            self.nodes
        }

        fn finish_request(&mut self, _: FinishedRequest<'_>) -> bool {
            self.settled += 1;
            let ok = !self.settled.is_multiple_of(3);
            self.failed += u64::from(!ok);
            ok
        }
    }

    #[test]
    fn every_completed_request_is_settled_once_and_each_failure_counted() {
        // The report is the one account of a backend's settlements: one per
        // completed request (full-cache hits included, failed requests
        // excluded), each `false` one reconstruction failure.
        let m = 4;
        let files = simple_files(3, 0.1, 2, m);
        let cached = vec![2, 1, 0];
        let scheduling = cached.iter().map(|&d| vec![(2 - d) as f64 / m as f64; m]);
        let schemes = [
            CacheScheme::NoCache,
            functional(cached.clone(), scheduling.collect()),
            // One resident object at a time: hits and misses both occur.
            CacheScheme::LruReplicated { capacity_chunks: 4 },
        ];
        // Three of four nodes down for a while: requests that need a storage
        // read fail, full-cache hits still complete.
        let outage = Scenario::default()
            .node_down(4_000.0, 0)
            .node_down(4_000.0, 1)
            .node_down(4_000.0, 2)
            .node_up(7_000.0, 0)
            .node_up(7_000.0, 1)
            .node_up(7_000.0, 2);
        for scheme in schemes {
            let sim = Simulation::new(
                nodes(m, 0.6),
                files.clone(),
                scheme,
                SimConfig::new(12_000.0, 4),
            )
            .with_scenario(outage.clone());
            let mut backend = Counting {
                nodes: m,
                settled: 0,
                failed: 0,
            };
            let report = sim.run_on(&mut backend);
            let label = sim.scheme().policy().label();
            assert!(
                report.failed_requests > 0,
                "{label}: the outage fails requests"
            );
            assert_eq!(backend.settled, report.completed_requests, "{label}");
            assert_eq!(backend.failed, report.reconstruction_failures, "{label}");
            assert!(report.reconstruction_failures > 0, "{label}");
            if !matches!(sim.scheme(), CacheScheme::NoCache) {
                assert!(report.full_cache_hits > 0, "{label}: full-cache hits occur");
            }
        }
    }

    #[test]
    #[should_panic(expected = "fewer than k")]
    fn invalid_file_panics() {
        let _ = Simulation::new(
            nodes(2, 0.5),
            vec![SimFile::new(0.1, 3, vec![0, 1])],
            CacheScheme::NoCache,
            SimConfig::new(10.0, 0),
        );
    }

    #[test]
    #[should_panic(expected = "file 0 reads a host with marginal 1.5, out of [0, 1]")]
    fn a_swapped_in_row_out_of_range_is_rejected_before_the_run() {
        // The row sums to k − d = 2, so only the range check catches it:
        // when the scenario is attached, not at the swap mid-run.
        let bad = functional(vec![0], vec![vec![1.5, 0.5, 0.0]]);
        let _ = Simulation::new(
            nodes(3, 1.0),
            vec![SimFile::new(0.1, 2, vec![0, 1, 2])],
            CacheScheme::NoCache,
            SimConfig::new(10.0, 1),
        )
        .with_scenario(Scenario::default().swap_scheme(5.0, bad));
    }

    #[test]
    #[should_panic(expected = "file 0: arrival rate inf is not finite")]
    fn infinite_arrival_rate_panics_instead_of_stalling_the_clock() {
        let _ = Simulation::new(
            nodes(3, 1.0),
            vec![SimFile::new(f64::INFINITY, 1, vec![0, 1])],
            CacheScheme::NoCache,
            SimConfig::new(10.0, 1),
        );
    }

    #[test]
    #[should_panic(expected = "warmup must be finite, non-negative and before the 10 s horizon")]
    fn a_warmup_at_the_horizon_panics_when_the_run_starts() {
        let sim = Simulation::new(
            nodes(2, 0.5),
            vec![SimFile::new(0.1, 1, vec![0, 1])],
            CacheScheme::NoCache,
            SimConfig::new(10.0, 0).with_warmup(10.0),
        );
        let _ = sim.run();
    }

    #[test]
    #[should_panic(expected = "cache_chunk_latency must be finite and non-negative, got -1")]
    fn a_negative_cache_latency_panics_when_the_run_starts() {
        let sim = Simulation::new(
            nodes(2, 0.5),
            vec![SimFile::new(0.1, 1, vec![0, 1])],
            CacheScheme::NoCache,
            SimConfig::new(10.0, 0).with_cache_latency(-1.0),
        );
        let _ = sim.run();
    }

    #[test]
    #[should_panic(expected = "references node")]
    fn scenario_with_bad_node_panics() {
        let _ = Simulation::new(
            nodes(2, 0.5),
            vec![SimFile::new(0.1, 1, vec![0, 1])],
            CacheScheme::NoCache,
            SimConfig::new(10.0, 0),
        )
        .with_scenario(Scenario::default().node_down(1.0, 9));
    }
}

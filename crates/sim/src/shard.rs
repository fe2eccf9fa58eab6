//! Sharded execution of the simulation: intra-replication parallelism with
//! epoch-synchronized event loops.
//!
//! The streaming engine keeps only O(files + nodes) state, and the sweep
//! runner parallelizes *across* cells and replications — but a single
//! replication used to be one thread. This module shards the replication
//! itself:
//!
//! 1. **Partition.** [`ShardPlan`] splits the cluster into *logical shards*:
//!    the connected components of the file–node placement graph (two files
//!    share a component iff their placements share a node, transitively).
//!    Components are exact — no cross-component interaction exists in the
//!    model — so the decomposition is lossless, unlike rate-splitting
//!    approximations. A globally coupled cache scheme
//!    ([`CacheScheme::LruReplicated`], whose tier spans all files) forces a
//!    single component.
//! 2. **Pack.** The `shards` knob ([`crate::SimConfig::shards`]) packs the
//!    components onto `min(shards, components)` event loops (longest
//!    processing time first). Packing is unobservable in results.
//! 3. **Run.** Each loop owns its files' arrival streams, planning RNGs, node
//!    queues and event heap. Loops synchronize conservatively at **epoch
//!    edges** — the firing times of scenario events — via a barrier: every
//!    loop drains strictly past its own events up to the edge, waits, then
//!    applies the edge's actions (NodeDown/NodeUp/SetRates/SwapScheme)
//!    locally. Scenario effects therefore land at deterministic epoch
//!    boundaries in every loop, exactly as they interleave in the one-loop
//!    run.
//!
//! **Determinism contract:** [`SimReport`] is bit-identical at any shard
//! count. This holds because every random stream is keyed per entity — one
//! arrival stream and one planning RNG per *file*, one service RNG per *node*
//! ([`AnalyticBackend`]) — and a node belongs to exactly one component, so a
//! component's event trajectory is invariant under any packing. The
//! single-loop path and the sharded path run the same per-component code and
//! merge per-entity results in global order.
//!
//! Byte-accurate backends run through [`Simulation::run_on`], which always
//! uses one loop (their service RNG is global); their reports are trivially
//! shard-invariant.

use std::collections::VecDeque;
use std::sync::{Barrier, Mutex};
use std::thread;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sprout_cluster::LruTier;
use sprout_workload::arrivals::{ArrivalStream, RateProfile};

use crate::backend::{AnalyticBackend, ChunkBackend, FinishedRequest};
use crate::engine::{plan_seed, stream_seed, SimFile, SimReport, Simulation};
use crate::event::EventQueue;
use crate::metrics::{LatencySummary, SlotCounts};
use crate::policy::{CacheScheme, SchedulingRule};
use crate::scenario::ScenarioAction;
use crate::scheduler::{systematic_sample_into, uniform_sample_into};

/// Whether a scheme couples all files through shared cache state (the LRU
/// tier is one global structure), forcing a single logical shard.
fn scheme_couples(scheme: &CacheScheme) -> bool {
    matches!(scheme, CacheScheme::LruReplicated { .. })
}

fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

/// The partition of a simulation into logical shards (placement-graph
/// connected components) and their packing onto execution loops.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Component of each file.
    comp_of_file: Vec<usize>,
    /// Component of each node; `None` for nodes hosting no file.
    comp_of_node: Vec<Option<usize>>,
    /// Number of components (components are numbered by first appearance in
    /// file order, so ids are placement-deterministic).
    num_components: usize,
    /// Execution groups: `groups[g]` lists the component ids loop `g` owns.
    groups: Vec<Vec<usize>>,
}

impl ShardPlan {
    /// Builds the plan for `sim` using its configured shard count.
    pub fn new(sim: &Simulation) -> Self {
        Self::with_shards(sim, sim.config().shards)
    }

    /// Builds the plan for `sim` packing components onto at most `shards`
    /// loops. The partition itself (and everything reported) is independent
    /// of `shards`; only the packing changes.
    pub fn with_shards(sim: &Simulation, shards: usize) -> Self {
        let num_files = sim.files.len();
        let num_nodes = sim.nodes.len();
        let coupled = scheme_couples(&sim.scheme)
            || sim.scenario.events().iter().any(|e| {
                matches!(&e.action, ScenarioAction::SwapScheme { scheme } if scheme_couples(scheme))
            });
        if coupled {
            return ShardPlan {
                comp_of_file: vec![0; num_files],
                comp_of_node: vec![Some(0); num_nodes],
                num_components: 1,
                groups: vec![vec![0]],
            };
        }

        let mut parent: Vec<usize> = (0..num_nodes).collect();
        for f in &sim.files {
            let first = f.placement[0];
            for &n in &f.placement[1..] {
                let (a, b) = (find(&mut parent, first), find(&mut parent, n));
                if a != b {
                    parent[a] = b;
                }
            }
        }
        let mut comp_of_root: Vec<Option<usize>> = vec![None; num_nodes];
        let mut comp_of_file = Vec::with_capacity(num_files);
        let mut comp_weight: Vec<usize> = Vec::new(); // files per component
        for f in &sim.files {
            let root = find(&mut parent, f.placement[0]);
            let comp = match comp_of_root[root] {
                Some(c) => c,
                None => {
                    let c = comp_weight.len();
                    comp_of_root[root] = Some(c);
                    comp_weight.push(0);
                    c
                }
            };
            comp_weight[comp] += 1;
            comp_of_file.push(comp);
        }
        let comp_of_node: Vec<Option<usize>> = (0..num_nodes)
            .map(|n| comp_of_root[find(&mut parent, n)])
            .collect();

        let num_components = comp_weight.len();
        let num_groups = shards.max(1).min(num_components).max(1);
        // Longest-processing-time packing: heaviest components first, each
        // onto the least-loaded loop. Deterministic (ties break on ids), and
        // unobservable in results either way.
        let mut order: Vec<usize> = (0..num_components).collect();
        order.sort_by_key(|&c| (std::cmp::Reverse(comp_weight[c]), c));
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); num_groups];
        let mut load = vec![0usize; num_groups];
        for c in order {
            let g = (0..num_groups)
                .min_by_key(|&g| (load[g], g))
                .expect("at least one group");
            groups[g].push(c);
            load[g] += comp_weight[c].max(1);
        }
        for g in &mut groups {
            g.sort_unstable();
        }
        ShardPlan {
            comp_of_file,
            comp_of_node,
            num_components,
            groups,
        }
    }

    /// Number of logical shards (placement-graph components).
    pub fn num_components(&self) -> usize {
        self.num_components
    }

    /// Number of event loops the components are packed onto.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// The logical shard owning `file`.
    pub fn component_of_file(&self, file: usize) -> usize {
        self.comp_of_file[file]
    }

    /// The logical shard owning `node`, or `None` if no file is placed on it.
    pub fn component_of_node(&self, node: usize) -> Option<usize> {
        self.comp_of_node[node]
    }
}

/// Runs a [`Simulation`] as epoch-synchronized sharded event loops on the
/// analytic backend, behind the same `run()`/[`SimReport`] surface.
///
/// [`Simulation::run`] constructs this internally; build one directly to
/// inspect the [`ShardPlan`]. Reports are bit-identical at any shard count
/// (see the [module docs](self)).
#[derive(Debug)]
pub struct ShardedEngine<'a> {
    sim: &'a Simulation,
    plan: ShardPlan,
}

impl<'a> ShardedEngine<'a> {
    /// Plans sharded execution of `sim` using its configured shard count.
    pub fn new(sim: &'a Simulation) -> Self {
        ShardedEngine {
            plan: ShardPlan::new(sim),
            sim,
        }
    }

    /// The partition and packing this engine will run.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Runs the simulation and returns the merged report.
    pub fn run(&self) -> SimReport {
        if self.plan.num_groups() <= 1 {
            let mut backend = AnalyticBackend::new(self.sim.nodes.clone(), self.sim.config.seed);
            return run_single(self.sim, &self.plan, &mut backend);
        }
        run_sharded(self.sim, &self.plan)
    }
}

/// Runs every component on one loop over `backend` (the classic path; also
/// the only path for byte-accurate backends, whose service RNG is global).
pub(crate) fn run_single<B: ChunkBackend>(
    sim: &Simulation,
    plan: &ShardPlan,
    backend: &mut B,
) -> SimReport {
    let owned = vec![true; plan.num_components];
    let outcome = run_loop(sim, plan, &owned, backend, None);
    merge_outcomes(sim, plan, vec![outcome])
}

/// Spawns one thread per execution group, each running its components on its
/// own analytic backend, with a barrier at every epoch edge (conservative
/// synchronization), then merges the partial outcomes.
fn run_sharded(sim: &Simulation, plan: &ShardPlan) -> SimReport {
    let barrier = Barrier::new(plan.groups.len());
    let outcomes: Vec<Mutex<Option<LoopOutcome>>> =
        plan.groups.iter().map(|_| Mutex::new(None)).collect();
    thread::scope(|scope| {
        for (g, comps) in plan.groups.iter().enumerate() {
            let barrier = &barrier;
            let slot = &outcomes[g];
            scope.spawn(move || {
                let mut owned = vec![false; plan.num_components];
                for &c in comps {
                    owned[c] = true;
                }
                // Every loop seeds the full per-node RNG vector identically;
                // each node is only ever sampled by its owning loop.
                let mut backend = AnalyticBackend::new(sim.nodes.clone(), sim.config.seed);
                let outcome = run_loop(sim, plan, &owned, &mut backend, Some(barrier));
                *slot.lock().expect("no poisoned outcome slot") = Some(outcome);
            });
        }
    });
    let outcomes = outcomes
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("no poisoned outcome slot")
                .expect("every loop stores its outcome")
        })
        .collect();
    merge_outcomes(sim, plan, outcomes)
}

#[derive(Debug, Clone, PartialEq)]
enum Event {
    /// The next request of a loop-local file arrives. The epoch stamps the
    /// arrival-stream generation: rate-shift actions bump it, so stale
    /// pre-shift arrivals are discarded when popped.
    Arrival { file: usize, epoch: u32 },
    /// A storage node finishes the chunk it was serving.
    NodeComplete(usize),
}

#[derive(Debug, Clone, Default)]
struct RequestState {
    /// Global file index (what backends and plans see).
    file: usize,
    /// Loop-local file index (what per-file accounting uses).
    local: usize,
    start: f64,
    outstanding: usize,
    last_completion: f64,
    cache_chunks: usize,
    nodes: Vec<usize>,
}

/// Free-list slab of in-flight request state.
///
/// The arrival hot path used to allocate twice per request — a fresh
/// `nodes` Vec clone plus `HashMap` bucket churn. The slab recycles whole
/// `RequestState` slots (including the `nodes` capacity), so steady-state
/// arrivals allocate nothing: slot count grows to the peak number of
/// concurrently in-flight requests and then stays flat.
///
/// Slot reuse without generation counters is sound because an id can only
/// reach a node queue from a live request, and the slot is released exactly
/// when its last queued chunk completes — no stale id can survive a release.
#[derive(Debug, Default)]
struct RequestSlab {
    slots: Vec<RequestState>,
    free: Vec<usize>,
}

impl RequestSlab {
    /// Claims a slot, reusing a freed one (and its `nodes` capacity) when
    /// available, and returns its id.
    #[allow(clippy::too_many_arguments)]
    fn insert(
        &mut self,
        file: usize,
        local: usize,
        start: f64,
        last_completion: f64,
        cache_chunks: usize,
        nodes: &[usize],
    ) -> u64 {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(RequestState::default());
                self.slots.len() - 1
            }
        };
        let state = &mut self.slots[slot];
        state.file = file;
        state.local = local;
        state.start = start;
        state.outstanding = nodes.len();
        state.last_completion = last_completion;
        state.cache_chunks = cache_chunks;
        state.nodes.clear();
        state.nodes.extend_from_slice(nodes);
        slot as u64
    }

    fn get_mut(&mut self, id: u64) -> &mut RequestState {
        &mut self.slots[id as usize]
    }

    /// Returns a slot (and its `nodes` buffer) to the free list for reuse by
    /// a later `insert`.
    fn release(&mut self, id: u64) {
        self.free.push(id as usize);
    }
}

#[derive(Debug, Default, Clone)]
struct NodeState {
    queue: VecDeque<u64>, // request ids waiting
    serving: Option<u64>,
    busy_time: f64,
}

/// Per-node FIFO service queues in virtual time. Service durations come from
/// the backend; this struct only sequences them.
#[derive(Debug, Default)]
struct ServiceQueues {
    nodes: Vec<NodeState>,
}

impl ServiceQueues {
    fn new(count: usize) -> Self {
        ServiceQueues {
            nodes: vec![NodeState::default(); count],
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn enqueue<B: ChunkBackend>(
        &mut self,
        node: usize,
        request: u64,
        now: f64,
        events: &mut EventQueue<Event>,
        backend: &mut B,
        comp: usize,
        load: &mut CompLoad,
    ) {
        if self.nodes[node].serving.is_none() {
            self.start(node, request, now, events, backend, comp, load);
        } else {
            self.nodes[node].queue.push_back(request);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn start<B: ChunkBackend>(
        &mut self,
        node: usize,
        request: u64,
        now: f64,
        events: &mut EventQueue<Event>,
        backend: &mut B,
        comp: usize,
        load: &mut CompLoad,
    ) {
        let service = backend.sample_service(node);
        let state = &mut self.nodes[node];
        state.serving = Some(request);
        state.busy_time += service;
        events.push(now + service, Event::NodeComplete(node));
        load.event_pushed(comp);
    }
}

/// Per-logical-shard high-water accounting: pending events and in-flight
/// requests per component, so the report's guards bound every shard rather
/// than only their sum.
#[derive(Debug)]
struct CompLoad {
    pending: Vec<usize>,
    peak_events: Vec<usize>,
    in_flight: Vec<usize>,
    peak_in_flight: Vec<usize>,
}

impl CompLoad {
    fn new(components: usize) -> Self {
        CompLoad {
            pending: vec![0; components],
            peak_events: vec![0; components],
            in_flight: vec![0; components],
            peak_in_flight: vec![0; components],
        }
    }

    fn event_pushed(&mut self, comp: usize) {
        self.pending[comp] += 1;
        self.peak_events[comp] = self.peak_events[comp].max(self.pending[comp]);
    }

    fn event_popped(&mut self, comp: usize) {
        self.pending[comp] -= 1;
    }

    fn request_opened(&mut self, comp: usize) {
        self.in_flight[comp] += 1;
        self.peak_in_flight[comp] = self.peak_in_flight[comp].max(self.in_flight[comp]);
    }

    fn request_closed(&mut self, comp: usize) {
        self.in_flight[comp] -= 1;
    }
}

/// Everything one event loop accumulates; merged across loops by
/// [`merge_outcomes`]. All fields are either per-entity (placed by global
/// id) or order-insensitive sums/maxima, which is what makes the merge
/// independent of the packing.
#[derive(Debug)]
struct LoopOutcome {
    /// `(global file, post-warm-up latencies)` for every owned file.
    latencies: Vec<(usize, Vec<f64>)>,
    /// Busy seconds per node (zero for unowned nodes).
    busy_time: Vec<f64>,
    slots: SlotCounts,
    node_chunks_served: Vec<u64>,
    full_cache_hits: u64,
    completed: u64,
    failed: u64,
    reconstruction_failures: u64,
    tier_promotions: u64,
    tier_evictions: u64,
    /// Peak pending events per component (owned components only nonzero).
    peak_events: Vec<usize>,
    /// Peak in-flight requests per component.
    peak_in_flight: Vec<usize>,
}

/// The engine's LRU cache tier for [`CacheScheme::LruReplicated`]: the same
/// [`LruTier`] implementation the cluster's byte-accurate `Cache` runs, here
/// with *chunks* as the weight unit (the abstract model has no byte sizes).
/// The tier's decisions scale linearly with the unit, so a byte-accurate
/// mirror fed the same access sequence stays in lockstep — see
/// `sprout_cluster::tier`.
fn lru_tier_for(scheme: &CacheScheme) -> Option<LruTier> {
    match scheme {
        CacheScheme::LruReplicated {
            capacity_chunks,
            replication,
        } => Some(LruTier::new(*capacity_chunks as u64, (*replication).max(1))),
        _ => None,
    }
}

/// Reusable buffers for the per-arrival planning step.
///
/// `plan_request` runs once per simulated request — millions of times at the
/// paper's horizons — so its working sets (sampling marginals, the sampled
/// index set, the chosen node list and the offline-repair pool) live here
/// instead of being allocated per call.
#[derive(Debug, Default)]
struct PlanScratch {
    marginals: Vec<f64>,
    picks: Vec<usize>,
    /// Online candidates used to repair a plan that picked failed nodes.
    avail: Vec<usize>,
    /// Output: the storage nodes chosen to serve the request.
    nodes: Vec<usize>,
}

/// One event loop over a subset of components (all of them on the single
/// path). `owned` masks components; `barrier`, when present, synchronizes
/// epoch edges with sibling loops.
fn run_loop<B: ChunkBackend>(
    sim: &Simulation,
    plan: &ShardPlan,
    owned: &[bool],
    backend: &mut B,
    barrier: Option<&Barrier>,
) -> LoopOutcome {
    let horizon = sim.config.horizon;
    let files: Vec<usize> = (0..sim.files.len())
        .filter(|&f| owned[plan.comp_of_file[f]])
        .collect();
    let comp_of_local: Vec<usize> = files.iter().map(|&f| plan.comp_of_file[f]).collect();
    let streams: Vec<ArrivalStream> = files
        .iter()
        .map(|&f| {
            let profile = match &sim.profiles {
                Some(p) => p[f].clone(),
                None => RateProfile::constant(sim.files[f].arrival_rate),
            };
            ArrivalStream::new(profile, stream_seed(sim.config.seed, f))
        })
        .collect();
    let plan_rngs: Vec<StdRng> = files
        .iter()
        .map(|&f| StdRng::seed_from_u64(plan_seed(sim.config.seed, f)))
        .collect();
    let scheme = sim.scheme.clone();
    let num_locals = files.len();
    let mut core = LoopCore {
        sim,
        plan,
        backend,
        files,
        comp_of_local,
        tier: lru_tier_for(&scheme),
        scheme,
        streams,
        epochs: vec![0u32; num_locals],
        plan_rngs,
        events: EventQueue::new(),
        queues: ServiceQueues::new(sim.nodes.len()),
        requests: RequestSlab::default(),
        latencies: vec![Vec::new(); num_locals],
        slots: SlotCounts::new(horizon, sim.config.slot_length),
        node_chunks_served: vec![0u64; sim.nodes.len()],
        full_cache_hits: 0,
        completed: 0,
        failed: 0,
        reconstruction_failures: 0,
        tier_promotions: 0,
        tier_evictions: 0,
        scratch: PlanScratch::default(),
        load: CompLoad::new(plan.num_components),
    };

    // One lazily-sampled arrival stream per owned file; exactly one pending
    // arrival event per file lives in the queue at any time.
    for local in 0..core.files.len() {
        if let Some(t) = core.streams[local].next_arrival(0.0, horizon) {
            core.events.push(
                t,
                Event::Arrival {
                    file: local,
                    epoch: 0,
                },
            );
            core.load.event_pushed(core.comp_of_local[local]);
        }
    }

    // Epoch edges are the scenario's firing times (inside the horizon).
    // Events strictly before an edge drain first; the edge's actions apply
    // (in declaration order), then the loop resumes — so same-time workload
    // events observe the scenario effects, exactly as in the legacy
    // in-queue ordering. The barrier makes the edge a conservative global
    // synchronization point across loops.
    let scenario = sim.scenario.events();
    let mut i = 0;
    while i < scenario.len() && scenario[i].at < horizon {
        let edge = scenario[i].at;
        let mut j = i;
        while j < scenario.len() && scenario[j].at == edge {
            j += 1;
        }
        core.drain_before(edge);
        if let Some(b) = barrier {
            b.wait();
        }
        for ev in &scenario[i..j] {
            core.apply_action(edge, &ev.action);
        }
        i = j;
    }
    core.drain_all();
    core.into_outcome()
}

struct LoopCore<'a, B: ChunkBackend> {
    sim: &'a Simulation,
    plan: &'a ShardPlan,
    backend: &'a mut B,
    /// Owned files, ascending global ids; events carry the local index.
    files: Vec<usize>,
    comp_of_local: Vec<usize>,
    scheme: CacheScheme,
    streams: Vec<ArrivalStream>,
    epochs: Vec<u32>,
    plan_rngs: Vec<StdRng>,
    events: EventQueue<Event>,
    queues: ServiceQueues,
    requests: RequestSlab,
    latencies: Vec<Vec<f64>>,
    slots: SlotCounts,
    node_chunks_served: Vec<u64>,
    full_cache_hits: u64,
    completed: u64,
    failed: u64,
    reconstruction_failures: u64,
    tier: Option<LruTier>,
    tier_promotions: u64,
    tier_evictions: u64,
    scratch: PlanScratch,
    load: CompLoad,
}

impl<B: ChunkBackend> LoopCore<'_, B> {
    /// Drains events with firing time strictly before `limit`.
    fn drain_before(&mut self, limit: f64) {
        while let Some(t) = self.events.next_time() {
            if t >= limit {
                break;
            }
            let (now, event) = self.events.pop().expect("a peeked event pops");
            self.handle(now, event);
        }
    }

    /// Drains the queue to exhaustion (the final epoch).
    fn drain_all(&mut self) {
        while let Some((now, event)) = self.events.pop() {
            self.handle(now, event);
        }
    }

    fn handle(&mut self, now: f64, event: Event) {
        match event {
            Event::Arrival { file: local, epoch } => {
                self.load.event_popped(self.comp_of_local[local]);
                if epoch != self.epochs[local] {
                    return; // stale arrival from before a rate shift
                }
                // Keep the stream primed: schedule this file's next arrival
                // before processing the current one.
                if let Some(t) = self.streams[local].next_arrival(now, self.sim.config.horizon) {
                    self.events.push(t, Event::Arrival { file: local, epoch });
                    self.load.event_pushed(self.comp_of_local[local]);
                }
                let global = self.files[local];
                match plan_request(
                    &self.sim.files,
                    global,
                    &self.scheme,
                    self.backend,
                    &mut self.plan_rngs[local],
                    &mut self.tier,
                    &mut self.scratch,
                ) {
                    None => self.failed += 1,
                    Some(cache_chunks) => {
                        self.slots.record(
                            now,
                            cache_chunks as u64,
                            self.scratch.nodes.len() as u64,
                        );
                        for &node in &self.scratch.nodes {
                            self.node_chunks_served[node] += 1;
                        }
                        let cache_latency = if cache_chunks > 0 {
                            self.backend
                                .sample_cache_read(global, cache_chunks)
                                .unwrap_or(self.sim.config.cache_chunk_latency)
                        } else {
                            0.0
                        };

                        if self.scratch.nodes.is_empty() {
                            // Served entirely from the cache.
                            if !self.backend.finish_request(FinishedRequest {
                                file: global,
                                cache_chunks,
                                storage_nodes: &[],
                            }) {
                                self.reconstruction_failures += 1;
                            }
                            self.full_cache_hits += 1;
                            self.completed += 1;
                            if now >= self.sim.config.warmup {
                                self.latencies[local].push(cache_latency);
                            }
                            return;
                        }

                        let id = self.requests.insert(
                            global,
                            local,
                            now,
                            now + cache_latency,
                            cache_chunks,
                            &self.scratch.nodes,
                        );
                        self.load.request_opened(self.comp_of_local[local]);
                        for &node in &self.scratch.nodes {
                            self.queues.enqueue(
                                node,
                                id,
                                now,
                                &mut self.events,
                                self.backend,
                                self.comp_of_local[local],
                                &mut self.load,
                            );
                        }
                    }
                }
            }
            Event::NodeComplete(node) => {
                let comp =
                    self.plan.comp_of_node[node].expect("completions only fire on placed nodes");
                self.load.event_popped(comp);
                let finished = self.queues.nodes[node]
                    .serving
                    .take()
                    .expect("completion without a job");
                let req = self.requests.get_mut(finished);
                req.outstanding -= 1;
                req.last_completion = req.last_completion.max(now);
                if req.outstanding == 0 {
                    if !self.backend.finish_request(FinishedRequest {
                        file: req.file,
                        cache_chunks: req.cache_chunks,
                        storage_nodes: &req.nodes,
                    }) {
                        self.reconstruction_failures += 1;
                    }
                    self.completed += 1;
                    if req.start >= self.sim.config.warmup {
                        self.latencies[req.local].push(req.last_completion - req.start);
                    }
                    self.requests.release(finished);
                    self.load.request_closed(comp);
                }
                // Start the next queued chunk, if any.
                if let Some(next) = self.queues.nodes[node].queue.pop_front() {
                    self.queues.start(
                        node,
                        next,
                        now,
                        &mut self.events,
                        self.backend,
                        comp,
                        &mut self.load,
                    );
                }
            }
        }
    }

    /// Applies one scenario action at epoch edge `at`. Actions are loop-local
    /// by construction: node flags apply to this loop's backend, rate shifts
    /// to owned files, scheme swaps to this loop's scheme clone. (A swap *to*
    /// a coupling scheme forces a single component at plan time, so it never
    /// reaches a multi-loop run.)
    fn apply_action(&mut self, at: f64, action: &ScenarioAction) {
        match action {
            ScenarioAction::NodeDown { node } => self.backend.set_node_online(*node, false),
            ScenarioAction::NodeUp { node } => self.backend.set_node_online(*node, true),
            ScenarioAction::SetRates { rates } => {
                for local in 0..self.files.len() {
                    if let Some(&rate) = rates.get(self.files[local]) {
                        self.retarget(local, rate, at);
                    }
                }
            }
            ScenarioAction::SetFileRate { file, rate } => {
                if let Ok(local) = self.files.binary_search(file) {
                    self.retarget(local, *rate, at);
                }
            }
            ScenarioAction::SwapScheme { scheme } => {
                // Promotion/eviction counts accumulate across swaps (a swap
                // restarts the tier cold).
                if let Some(old) = self.tier.take() {
                    let stats = old.stats();
                    self.tier_promotions += stats.promotions;
                    self.tier_evictions += stats.evictions;
                }
                self.scheme = scheme.clone();
                self.tier = lru_tier_for(&self.scheme);
                self.backend.apply_scheme(&self.scheme);
            }
        }
    }

    /// Re-seats a file's arrival process at a new constant rate from `now`
    /// on. By Poisson memorylessness the pending pre-shift arrival can simply
    /// be discarded (the epoch bump invalidates it) and a fresh interarrival
    /// drawn at the new rate.
    fn retarget(&mut self, local: usize, rate: f64, now: f64) {
        self.epochs[local] = self.epochs[local].wrapping_add(1);
        self.streams[local].set_rate(rate);
        if let Some(t) = self.streams[local].next_arrival(now, self.sim.config.horizon) {
            self.events.push(
                t,
                Event::Arrival {
                    file: local,
                    epoch: self.epochs[local],
                },
            );
            self.load.event_pushed(self.comp_of_local[local]);
        }
    }

    fn into_outcome(self) -> LoopOutcome {
        let mut tier_promotions = self.tier_promotions;
        let mut tier_evictions = self.tier_evictions;
        if let Some(tier) = &self.tier {
            let stats = tier.stats();
            tier_promotions += stats.promotions;
            tier_evictions += stats.evictions;
        }
        LoopOutcome {
            latencies: self.files.into_iter().zip(self.latencies).collect(),
            busy_time: self.queues.nodes.iter().map(|n| n.busy_time).collect(),
            slots: self.slots,
            node_chunks_served: self.node_chunks_served,
            full_cache_hits: self.full_cache_hits,
            completed: self.completed,
            failed: self.failed,
            reconstruction_failures: self.reconstruction_failures,
            tier_promotions,
            tier_evictions,
            peak_events: self.load.peak_events,
            peak_in_flight: self.load.peak_in_flight,
        }
    }
}

/// Merges per-loop outcomes into the report. Per-file and per-node data are
/// placed by global id, counters and slot counts are summed, peaks are
/// folded per component then maxed — all independent of loop count and
/// packing, which is what makes reports bit-identical at any shard count.
fn merge_outcomes(sim: &Simulation, plan: &ShardPlan, outcomes: Vec<LoopOutcome>) -> SimReport {
    let horizon = sim.config.horizon;
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); sim.files.len()];
    let mut busy = vec![0.0f64; sim.nodes.len()];
    let mut slots = SlotCounts::new(horizon, sim.config.slot_length);
    let mut node_chunks_served = vec![0u64; sim.nodes.len()];
    let mut full_cache_hits = 0u64;
    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut reconstruction_failures = 0u64;
    let mut tier_promotions = 0u64;
    let mut tier_evictions = 0u64;
    let mut peak_events = vec![0usize; plan.num_components];
    let mut peak_in_flight = vec![0usize; plan.num_components];
    for outcome in outcomes {
        for (global, samples) in outcome.latencies {
            latencies[global] = samples;
        }
        for (node, b) in outcome.busy_time.iter().enumerate() {
            busy[node] += b;
        }
        for (slot, c) in outcome.slots.cache_chunks.iter().enumerate() {
            slots.cache_chunks[slot] += c;
        }
        for (slot, c) in outcome.slots.storage_chunks.iter().enumerate() {
            slots.storage_chunks[slot] += c;
        }
        for (node, c) in outcome.node_chunks_served.iter().enumerate() {
            node_chunks_served[node] += c;
        }
        full_cache_hits += outcome.full_cache_hits;
        completed += outcome.completed;
        failed += outcome.failed;
        reconstruction_failures += outcome.reconstruction_failures;
        tier_promotions += outcome.tier_promotions;
        tier_evictions += outcome.tier_evictions;
        for (comp, p) in outcome.peak_events.iter().enumerate() {
            peak_events[comp] = peak_events[comp].max(*p);
        }
        for (comp, p) in outcome.peak_in_flight.iter().enumerate() {
            peak_in_flight[comp] = peak_in_flight[comp].max(*p);
        }
    }
    let all: Vec<f64> = latencies.iter().flatten().copied().collect();
    SimReport {
        overall: LatencySummary::from_samples(&all),
        per_file: latencies
            .iter()
            .map(|l| LatencySummary::from_samples(l))
            .collect(),
        node_utilization: busy.iter().map(|b| (b / horizon).min(1.0)).collect(),
        slots,
        full_cache_hits,
        completed_requests: completed,
        node_chunks_served,
        failed_requests: failed,
        reconstruction_failures,
        peak_event_queue: peak_events.iter().copied().max().unwrap_or(0),
        peak_in_flight: peak_in_flight.iter().copied().max().unwrap_or(0),
        logical_shards: plan.num_components,
        cache_promotions: tier_promotions,
        cache_evictions: tier_evictions,
    }
}

/// Decides, for one request of `file` (a global index), how many chunks the
/// cache serves and which storage nodes serve the rest (written to
/// `scratch.nodes`). Returns `None` when node failures leave fewer online
/// hosts than the request needs. All working sets live in `scratch`, so the
/// arrival hot loop allocates nothing beyond per-request state.
///
/// For [`CacheScheme::LruReplicated`] the loop's `tier` is the single source
/// of truth for hit/miss/promotion/eviction decisions; every admission and
/// eviction is mirrored into the backend ([`ChunkBackend::tier_promote`] /
/// [`ChunkBackend::tier_evict`]) so byte-accurate backends keep the same
/// objects resident.
fn plan_request<B: ChunkBackend>(
    files: &[SimFile],
    file: usize,
    scheme: &CacheScheme,
    backend: &mut B,
    rng: &mut StdRng,
    tier: &mut Option<LruTier>,
    scratch: &mut PlanScratch,
) -> Option<usize> {
    let spec = &files[file];
    scratch.nodes.clear();
    match scheme {
        CacheScheme::NoCache => {
            uniform_sample_into(spec.placement.len(), spec.k, rng, &mut scratch.picks);
            scratch
                .nodes
                .extend(scratch.picks.iter().map(|&i| spec.placement[i]));
            repair_offline(&spec.placement, backend, rng, scratch).then_some(0)
        }
        CacheScheme::Functional {
            cached_chunks,
            scheduling,
            rule,
        } => {
            let d = cached_chunks.get(file).copied().unwrap_or(0).min(spec.k);
            let needed = spec.k - d;
            if needed == 0 {
                return Some(d);
            }
            match rule {
                SchedulingRule::Probabilistic => {
                    scratch.marginals.clear();
                    scratch.marginals.extend(
                        spec.placement
                            .iter()
                            .map(|&j| scheduling[file].get(j).copied().unwrap_or(0.0)),
                    );
                    systematic_sample_into(&scratch.marginals, rng, &mut scratch.picks);
                }
                SchedulingRule::Uniform => {
                    uniform_sample_into(spec.placement.len(), needed, rng, &mut scratch.picks);
                }
            }
            scratch
                .nodes
                .extend(scratch.picks.iter().map(|&i| spec.placement[i]));
            repair_offline(&spec.placement, backend, rng, scratch).then_some(d)
        }
        CacheScheme::Exact {
            cached_chunks,
            scheduling,
        } => {
            let d = cached_chunks.get(file).copied().unwrap_or(0).min(spec.k);
            let needed = spec.k - d;
            if needed == 0 {
                return Some(d);
            }
            // The first d placement entries host the exactly-cached rows
            // and cannot serve the request.
            let eligible = &spec.placement[d..];
            scratch.marginals.clear();
            scratch.marginals.extend(
                eligible
                    .iter()
                    .map(|&j| scheduling[file].get(j).copied().unwrap_or(0.0)),
            );
            let total: f64 = scratch.marginals.iter().sum();
            if (total - needed as f64).abs() < 1e-6 {
                systematic_sample_into(&scratch.marginals, rng, &mut scratch.picks);
            } else {
                uniform_sample_into(
                    eligible.len(),
                    needed.min(eligible.len()),
                    rng,
                    &mut scratch.picks,
                );
            }
            scratch
                .nodes
                .extend(scratch.picks.iter().map(|&i| eligible[i]));
            repair_offline(eligible, backend, rng, scratch).then_some(d)
        }
        CacheScheme::LruReplicated { .. } => {
            let tier = tier.as_mut().expect("an LRU scheme always has a tier");
            if tier.touch(file as u64) {
                return Some(spec.k);
            }
            // Miss: read k chunks from storage, then promote the object.
            uniform_sample_into(spec.placement.len(), spec.k, rng, &mut scratch.picks);
            scratch
                .nodes
                .extend(scratch.picks.iter().map(|&i| spec.placement[i]));
            if !repair_offline(&spec.placement, backend, rng, scratch) {
                return None;
            }
            let admission = tier.admit(file as u64, spec.k as u64);
            for &victim in &admission.evicted {
                backend.tier_evict(victim as usize);
            }
            if admission.admitted {
                backend.tier_promote(file);
            }
            Some(0)
        }
    }
}

/// Replaces planned reads that landed on offline nodes with draws from
/// the online remainder of `pool`. Returns `false` (degraded beyond
/// repair) when fewer online candidates exist than chunks are needed.
/// Draws happen only when a failure is actually present, so runs without
/// scenarios consume each file's planning RNG exactly as before.
fn repair_offline<B: ChunkBackend>(
    pool: &[usize],
    backend: &B,
    rng: &mut StdRng,
    scratch: &mut PlanScratch,
) -> bool {
    if scratch.nodes.iter().all(|&n| backend.is_online(n)) {
        return true;
    }
    let target = scratch.nodes.len();
    scratch.nodes.retain(|&n| backend.is_online(n));
    scratch.avail.clear();
    scratch.avail.extend(
        pool.iter()
            .copied()
            .filter(|&n| backend.is_online(n) && !scratch.nodes.contains(&n)),
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
    use crate::config::SimConfig;
    use crate::scenario::Scenario;
    use sprout_queueing::dist::ServiceDistribution;

    /// `groups` disjoint node groups of `nodes_per` nodes; `files_per` files
    /// pinned inside each group (placement covers the whole group).
    fn grouped_sim(
        groups: usize,
        nodes_per: usize,
        files_per: usize,
        k: usize,
        rate: f64,
        config: SimConfig,
    ) -> Simulation {
        let nodes = vec![ServiceDistribution::exponential(1.0); groups * nodes_per];
        let mut files = Vec::new();
        for g in 0..groups {
            for _ in 0..files_per {
                let placement: Vec<usize> = (0..nodes_per).map(|j| g * nodes_per + j).collect();
                files.push(SimFile::new(rate, k, placement));
            }
        }
        Simulation::new(nodes, files, CacheScheme::NoCache, config)
    }

    #[test]
    fn plan_partitions_disjoint_placement_groups() {
        let sim = grouped_sim(4, 3, 5, 2, 0.1, SimConfig::new(100.0, 1));
        let plan = ShardPlan::with_shards(&sim, 4);
        assert_eq!(plan.num_components(), 4);
        assert_eq!(plan.num_groups(), 4);
        for f in 0..20 {
            assert_eq!(plan.component_of_file(f), f / 5);
        }
        for n in 0..12 {
            assert_eq!(plan.component_of_node(n), Some(n / 3));
        }
    }

    #[test]
    fn plan_packs_components_onto_requested_shards() {
        let sim = grouped_sim(5, 2, 3, 1, 0.1, SimConfig::new(100.0, 1));
        for shards in [1, 2, 3, 5, 16] {
            let plan = ShardPlan::with_shards(&sim, shards);
            assert_eq!(plan.num_components(), 5);
            assert_eq!(plan.num_groups(), shards.min(5));
            // Every component lands in exactly one group.
            let mut seen = vec![0usize; plan.num_components()];
            for g in &plan.groups {
                for &c in g {
                    seen[c] += 1;
                }
            }
            assert!(seen.iter().all(|&s| s == 1));
        }
    }

    #[test]
    fn overlapping_placements_and_lru_force_fewer_components() {
        // Files share node 2 across the two groups: one component.
        let nodes = vec![ServiceDistribution::exponential(1.0); 5];
        let files = vec![
            SimFile::new(0.1, 1, vec![0, 1, 2]),
            SimFile::new(0.1, 1, vec![2, 3, 4]),
        ];
        let sim = Simulation::new(nodes, files, CacheScheme::NoCache, SimConfig::new(100.0, 1));
        let plan = ShardPlan::with_shards(&sim, 8);
        assert_eq!(plan.num_components(), 1);

        // The global LRU tier couples every file: one component regardless
        // of placement.
        let sim = grouped_sim(4, 2, 2, 1, 0.1, SimConfig::new(100.0, 1));
        let lru = Simulation::new(
            vec![ServiceDistribution::exponential(1.0); 8],
            (0..8).map(|g| SimFile::new(0.1, 1, vec![g])).collect(),
            CacheScheme::ceph_lru(8),
            SimConfig::new(100.0, 1),
        );
        assert_eq!(ShardPlan::with_shards(&lru, 8).num_components(), 1);

        // A scenario that swaps *to* LRU mid-run couples the whole horizon.
        let swap =
            sim.with_scenario(Scenario::default().swap_scheme(50.0, CacheScheme::ceph_lru(8)));
        assert_eq!(ShardPlan::with_shards(&swap, 8).num_components(), 1);
    }

    #[test]
    fn sharded_run_is_bit_identical_to_single_loop() {
        let config = SimConfig::new(2_000.0, 42);
        let scenario = Scenario::default()
            .node_down(500.0, 0)
            .node_up(1_500.0, 0)
            .set_rates(1_000.0, vec![0.4; 18]);
        for shards in [2, 3, 8] {
            let single = grouped_sim(6, 2, 3, 2, 0.2, config)
                .with_scenario(scenario.clone())
                .run();
            let sharded = grouped_sim(6, 2, 3, 2, 0.2, config.with_shards(shards))
                .with_scenario(scenario.clone())
                .run();
            assert_eq!(
                single, sharded,
                "shards = {shards} must not change the report"
            );
            assert_eq!(single.logical_shards, 6);
        }
    }

    #[test]
    fn sharded_engine_exposes_its_plan() {
        let sim = grouped_sim(3, 2, 2, 1, 0.1, SimConfig::new(500.0, 7).with_shards(2));
        let engine = ShardedEngine::new(&sim);
        assert_eq!(engine.plan().num_components(), 3);
        assert_eq!(engine.plan().num_groups(), 2);
        let report = engine.run();
        assert_eq!(report, sim.run());
        assert_eq!(report.logical_shards, 3);
    }

    #[test]
    fn request_slab_recycles_slots_and_node_capacity() {
        let mut slab = RequestSlab::default();
        let a = slab.insert(0, 0, 0.0, 0.0, 1, &[1, 2, 3]);
        let b = slab.insert(1, 1, 0.5, 0.5, 0, &[4]);
        assert_eq!(slab.slots.len(), 2);
        slab.release(a);
        // The freed slot (and its nodes buffer) is reused, not reallocated.
        let c = slab.insert(2, 2, 1.0, 1.0, 2, &[5, 6]);
        assert_eq!(c, a);
        assert_eq!(slab.slots.len(), 2);
        assert_eq!(slab.get_mut(c).nodes, vec![5, 6]);
        assert_eq!(slab.get_mut(b).nodes, vec![4]);
    }
}

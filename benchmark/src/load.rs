//! Inputs and load generation for the serving workloads: seeded schedules,
//! payloads and plans, the fresh store + daemon every phase runs on, and the
//! paced (open-loop) and saturating generators.
//!
//! The load shape is fixed and sized for two cores: the calling thread is
//! the only generator and `Sproutd` runs two workers, pinned to one CPU
//! each. The paced generator *sleeps* to each due time and never spins, so
//! at most two threads are ever busy; the saturating generator keeps the
//! daemon's bounded queue full without ever blocking on it.

use std::time::{Duration, Instant};

use sprout::backend::synthetic_payload;
use sprout::cluster::{CachePolicy, ClusterConfig, DeviceModel, StoreHandle};
use sprout::workload::{PoissonArrivals, ZipfPopularity};
use sprout::{
    FileConfig, LatencyHistogram, ServeOpts, ServePlan, ServeReport, SproutSystem, Sproutd,
    SystemSpec,
};

use crate::pin;
use crate::trace::Tracer;

pub const NODES: usize = 12;
pub const CODE_N: usize = 7;
pub const CODE_K: usize = 4;
pub const WORKERS: usize = 2;
pub const QUEUE_DEPTH: usize = 256;
/// Mean chunk service time of every (virtual) storage device, seconds.
pub const DEVICE_MEAN_S: f64 = 0.025;
/// Node utilisation the modelled-latency replay rescales the schedule to.
pub const MODEL_UTILISATION: f64 = 0.6;
/// Placement seed of the analytic system a plan is optimized on. Only the
/// plan's per-object chunk counts reach the store, so this is held fixed:
/// the optimizer then does the same work whatever `--seed` says, and
/// `setup_s` does not vary with the seed.
const PLAN_SPEC_SEED: u64 = 2016;
/// The saturating generator tops the queue up once this many slots are free
/// and otherwise sleeps for [`REFILL_PAUSE`].
const REFILL_BATCH: usize = 8;
const REFILL_PAUSE: Duration = Duration::from_micros(100);

/// The fixed parameters of one serving workload.
#[derive(Debug)]
pub struct Shape {
    pub name: &'static str,
    pub objects: usize,
    pub object_bytes: usize,
    /// Zipf exponent of the get popularity (0 = uniform).
    pub zipf_exponent: f64,
    pub policy: CachePolicy,
    /// Chunks the optimizer may cache (0 = no plan is computed).
    pub cache_chunks: usize,
    /// Share of operations that are puts, in percent.
    pub put_percent: u64,
    /// Alternate plans A/B under load.
    pub swap_plans: bool,
    /// Nodes set offline after preload.
    pub offline_nodes: &'static [usize],
    /// Offered load of the paced phase, operations per second.
    pub paced_ops_per_s: f64,
    /// Whether the end-to-end latency metrics come from the paced phase; if
    /// not, they are read through the full queue of the saturating phase.
    pub latency_from_paced: bool,
    /// Gets replayed single-threaded for the modelled latency.
    pub replay_gets: usize,
    /// Operations walked with shadow spans in the traced run.
    pub walk_ops: usize,
}

impl Shape {
    pub fn chunk_bytes(&self) -> usize {
        self.object_bytes.div_ceil(CODE_K)
    }

    /// Objects stored: the get population, plus a same-sized put population
    /// when the workload writes. Puts rewrite objects no get reads, because
    /// a `StoreHandle::put` racing a `get` of the *same* object can leave the
    /// get fewer than `k` chunks for a moment and fail it; the benchmark's
    /// workloads must be ones on which no operation fails.
    pub fn stored_objects(&self) -> usize {
        if self.put_percent > 0 {
            2 * self.objects
        } else {
            self.objects
        }
    }

    /// Virtual seconds per scheduled second in the modelled-latency replay.
    pub fn virtual_time_scale(&self) -> f64 {
        let virtual_rate = MODEL_UTILISATION * NODES as f64 / (DEVICE_MEAN_S * CODE_K as f64);
        self.paced_ops_per_s / virtual_rate
    }
}

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// Due time in seconds from the start of the phase.
    pub due_s: f64,
    pub object: u64,
    pub put: bool,
}

/// splitmix64: the benchmark's only hash, used for put selection and for
/// deriving sub-seeds from `--seed`.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Whether request `index` of the schedule is a put.
pub fn is_put(seed: u64, index: usize, put_percent: u64) -> bool {
    mix(seed ^ mix(index as u64)) % 100 < put_percent
}

/// The seeded open-loop schedule: Poisson arrivals over `horizon_s` seconds
/// with Zipf-split per-object rates; a seeded hash of the request index
/// turns `put_percent` of them into puts of the shadow put population.
pub fn schedule(shape: &Shape, seed: u64, horizon_s: f64) -> Vec<Op> {
    let rates = ZipfPopularity::new(shape.objects, shape.zipf_exponent)
        .arrival_rates(shape.paced_ops_per_s);
    PoissonArrivals::new(mix(seed ^ 0xA221))
        .generate(&rates, horizon_s)
        .into_iter()
        .enumerate()
        .map(|(i, request)| {
            let put = is_put(seed, i, shape.put_percent);
            let object = if put {
                request.file + shape.objects
            } else {
                request.file
            };
            Op {
                due_s: request.time,
                object: object as u64,
                put,
            }
        })
        .collect()
}

/// Optimizes a functional-cache plan for per-object `rates`: the repo's own
/// Prob Z / Prob Π pipeline. Only relative popularity shapes the plan, so
/// rates are normalised to [`MODEL_UTILISATION`] of the virtual nodes.
fn optimize_plan(shape: &Shape, rates: &[f64], label: &str) -> ServePlan {
    let mu = 1.0 / DEVICE_MEAN_S;
    let aggregate: f64 = rates.iter().sum();
    let scale = MODEL_UTILISATION * NODES as f64 * mu / (CODE_K as f64 * aggregate);
    let mut builder = SystemSpec::builder();
    builder
        .node_service_rates(&[mu; NODES])
        .cache_capacity_chunks(shape.cache_chunks)
        .seed(PLAN_SPEC_SEED);
    for &rate in rates {
        builder.file(FileConfig::new(
            rate * scale,
            CODE_N,
            CODE_K,
            shape.object_bytes as u64,
        ));
    }
    let spec = builder.build().expect("serving spec validates");
    let system = SproutSystem::new(spec).expect("serving system builds");
    let plan = system.optimize().expect("optimizer converges");
    ServePlan::from_cache_plan(&plan, label)
}

/// Everything a repetition needs before its first timed operation, with the
/// wall time each part took.
#[derive(Debug)]
pub struct Inputs {
    pub payloads: Vec<Vec<u8>>,
    pub ops: Vec<Op>,
    /// Empty without a planned cache; `[A]`, or `[A, B]` when plans swap.
    pub plans: Vec<ServePlan>,
    pub payload_s: f64,
    pub generate_s: f64,
    pub optimize_s: f64,
}

pub fn build_inputs(shape: &Shape, seed: u64, horizon_s: f64) -> Inputs {
    let t = Instant::now();
    let payloads = (0..shape.stored_objects())
        .map(|object| synthetic_payload(object, shape.object_bytes, seed))
        .collect();
    let payload_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let ops = schedule(shape, seed, horizon_s);
    let generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut plans = Vec::new();
    if shape.cache_chunks > 0 {
        let rates = ZipfPopularity::new(shape.objects, shape.zipf_exponent)
            .arrival_rates(shape.paced_ops_per_s);
        plans.push(optimize_plan(shape, &rates, "hot-front"));
        if shape.swap_plans {
            // The same popularity rotated half a turn: a different hot set,
            // so a swap really moves cached chunks.
            let mut rotated = rates;
            rotated.rotate_left(shape.objects / 2);
            plans.push(optimize_plan(shape, &rotated, "hot-back"));
        }
    }
    let optimize_s = t.elapsed().as_secs_f64();

    Inputs {
        payloads,
        ops,
        plans,
        payload_s,
        generate_s,
        optimize_s,
    }
}

/// An empty store in the fixed configuration. Striping is off so the codec
/// never spawns threads of its own.
pub fn fresh_store(shape: &Shape, seed: u64) -> StoreHandle {
    // Plans are swapped object by object, so while one is being replaced the
    // cache briefly holds parts of both: give a swapping workload room for two.
    let plans_resident = if shape.swap_plans { 2 } else { 1 };
    let config = ClusterConfig::builder()
        .nodes(NODES)
        .code(CODE_N, CODE_K)
        .uniform_device(DeviceModel::exponential(DEVICE_MEAN_S))
        .cache_policy(shape.policy)
        .cache_capacity_bytes((plans_resident * shape.cache_chunks * shape.chunk_bytes()) as u64)
        .striping(None)
        .seed(mix(seed ^ 0x5703))
        .build();
    StoreHandle::new(config).expect("store configuration is valid")
}

/// A daemon over a fresh, preloaded store with plan A installed and the
/// workload's nodes offline; `preload_s` and `swap_idle_ms` time those steps.
pub struct Serving {
    pub daemon: Sproutd,
    pub preload_s: f64,
    pub swap_idle_ms: f64,
}

pub fn start_serving(shape: &Shape, inputs: &Inputs, seed: u64) -> Serving {
    let threads_before = pin::thread_ids();
    let daemon = Sproutd::start(
        fresh_store(shape, seed),
        ServeOpts::default()
            .workers(WORKERS)
            .queue_depth(QUEUE_DEPTH),
    );
    pin::pin_new_threads(&threads_before);
    let t = Instant::now();
    for (object, data) in inputs.payloads.iter().enumerate() {
        daemon
            .preload(object as u64, data)
            .expect("preload succeeds");
    }
    let preload_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    if let Some(plan) = inputs.plans.first() {
        daemon.swap_plan(plan.clone()).expect("plan A installs");
    }
    let swap_idle_ms = t.elapsed().as_secs_f64() * 1e3;
    let store = daemon.store();
    for &node in shape.offline_nodes {
        store.set_node_online(node, false);
    }
    Serving {
        daemon,
        preload_s,
        swap_idle_ms,
    }
}

/// What one timed phase produced.
#[derive(Debug)]
pub struct PhaseResult {
    pub report: ServeReport,
    /// First submit → `shutdown()` returned, seconds.
    pub elapsed_s: f64,
    /// Due → submit, microseconds (paced phases only).
    pub lateness: LatencyHistogram,
    /// Wall time of every `swap_plan` under load, milliseconds.
    pub swap_ms: Vec<f64>,
}

/// Alternates plans A/B every `every_s` seconds of a phase.
struct Swapper<'a> {
    plans: &'a [ServePlan],
    every_s: f64,
    done: usize,
    swap_ms: Vec<f64>,
}

impl<'a> Swapper<'a> {
    fn new(shape: &Shape, inputs: &'a Inputs, every_s: f64) -> Self {
        Swapper {
            plans: if shape.swap_plans { &inputs.plans } else { &[] },
            every_s,
            done: 0,
            swap_ms: Vec::new(),
        }
    }

    fn maybe_swap(&mut self, daemon: &Sproutd, elapsed_s: f64, tracer: &mut Option<&mut Tracer>) {
        if self.plans.is_empty() || elapsed_s < (self.done + 1) as f64 * self.every_s {
            return;
        }
        self.done += 1;
        // Plan A is installed before traffic, so the first swap brings in B.
        let plan = self.plans[self.done % self.plans.len()].clone();
        let span = tracer
            .as_mut()
            .map(|t| t.open("serve.swap_plan", None, u64::MAX));
        let t = Instant::now();
        daemon.swap_plan(plan).expect("plan swap applies");
        self.swap_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
            t.close(id);
        }
    }
}

fn submit(daemon: &Sproutd, inputs: &Inputs, op: &Op) {
    // A refused submit is counted by the daemon as dropped; the gate reads it.
    if op.put {
        daemon.submit_put(op.object, inputs.payloads[op.object as usize].clone());
    } else {
        daemon.submit_get(op.object);
    }
}

/// Sleeps to `deadline`, never spinning: on two cores a spinning generator
/// runs on a worker's CPU and its spin shows up as served latency.
fn wait_until(deadline: Instant) {
    if let Some(left) = deadline.checked_duration_since(Instant::now()) {
        std::thread::sleep(left);
    }
}

/// Open-loop phase: submits every operation due before `len_s` at its due
/// time. With a tracer, every `submit_*` and `swap_plan` call gets a span.
pub fn run_paced(
    serving: Serving,
    shape: &Shape,
    inputs: &Inputs,
    len_s: f64,
    swap_every_s: f64,
    mut tracer: Option<&mut Tracer>,
) -> PhaseResult {
    let daemon = serving.daemon;
    let mut swapper = Swapper::new(shape, inputs, swap_every_s);
    let mut lateness = LatencyHistogram::new();
    let start = Instant::now();
    for (i, op) in inputs.ops.iter().enumerate() {
        if op.due_s >= len_s {
            break;
        }
        let due = start + Duration::from_secs_f64(op.due_s);
        wait_until(due);
        lateness.record(due.elapsed().as_micros() as u64);
        match tracer.as_mut() {
            Some(t) => {
                t.span("serve.submit", None, i as u64, || {
                    submit(&daemon, inputs, op)
                });
            }
            None => submit(&daemon, inputs, op),
        }
        swapper.maybe_swap(&daemon, op.due_s, &mut tracer);
    }
    let report = daemon.shutdown();
    PhaseResult {
        report,
        elapsed_s: start.elapsed().as_secs_f64(),
        lateness,
        swap_ms: swapper.swap_ms,
    }
}

/// Saturating phase: cycles through the schedule's operations for `len_s`
/// seconds, keeping the queue full without ever blocking on it, then drains.
pub fn run_saturate(
    serving: Serving,
    shape: &Shape,
    inputs: &Inputs,
    len_s: f64,
    swap_every_s: f64,
) -> PhaseResult {
    let daemon = serving.daemon;
    let mut swapper = Swapper::new(shape, inputs, swap_every_s);
    let start = Instant::now();
    let mut next = inputs.ops.iter().cycle();
    loop {
        let elapsed_s = start.elapsed().as_secs_f64();
        if elapsed_s >= len_s {
            break;
        }
        swapper.maybe_swap(&daemon, elapsed_s, &mut None);
        // This thread is the only producer, so `room` submits cannot block.
        let room = QUEUE_DEPTH.saturating_sub(daemon.queue_len());
        if room < REFILL_BATCH {
            std::thread::sleep(REFILL_PAUSE);
            continue;
        }
        for op in next.by_ref().take(room) {
            submit(&daemon, inputs, op);
        }
    }
    let report = daemon.shutdown();
    PhaseResult {
        report,
        elapsed_s: start.elapsed().as_secs_f64(),
        lateness: LatencyHistogram::new(),
        swap_ms: swapper.swap_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::SHAPES;

    #[test]
    fn schedule_and_put_selection_are_pure_functions_of_the_seed() {
        for shape in &SHAPES {
            let a = schedule(shape, 7, 0.05);
            let b = schedule(shape, 7, 0.05);
            let c = schedule(shape, 8, 0.05);
            assert!(!a.is_empty(), "{}: empty schedule", shape.name);
            assert_eq!(a, b, "{}: same seed, different schedule", shape.name);
            assert_ne!(a, c, "{}: seed does not reach the schedule", shape.name);
            assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
            for op in &a {
                // Gets stay in the get population, puts in the shadow one.
                let population = op.object as usize / shape.objects;
                assert_eq!(population, usize::from(op.put), "{}", shape.name);
            }
        }
        let puts = (0..10_000).filter(|&i| is_put(3, i, 30)).count();
        assert!((2_800..3_200).contains(&puts), "30% puts, got {puts}");
        assert!((0..1_000).all(|i| is_put(3, i, 30) == is_put(3, i, 30)));
        assert!((0..1_000).all(|i| !is_put(3, i, 0)));
    }
}

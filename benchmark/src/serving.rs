//! The three serving workloads: end-to-end run, traced run, and the
//! correctness gate both share.

use std::hint::black_box;
use std::time::Instant;

use sprout::cluster::{CachePolicy, StoreHandle};
use sprout::erasure::FunctionalCacheCodec;
use sprout::gf::{kernel, Gf256};

use crate::load::{
    build_inputs, fresh_store, mix, run_paced, run_saturate, schedule, start_serving, Inputs, Op,
    PhaseResult, Shape, CODE_K, CODE_N, NODES, WORKERS,
};
use crate::pin;
use crate::stats::{interpolated_quantile_us, least, median, most};
use crate::trace::Tracer;
use crate::Outcome;

/// Kept repetitions of every timed phase; one shorter warm-up precedes them.
const KEPT_REPS: usize = 5;
/// The warm-up repetition's phases run this share of the full length.
const WARMUP_SHARE: f64 = 0.5;

pub const SHAPES: [Shape; 3] = [
    Shape {
        name: "read-zipf-64k",
        objects: 256,
        object_bytes: 64 * 1024,
        zipf_exponent: 0.9,
        policy: CachePolicy::Functional,
        cache_chunks: 256,
        put_percent: 0,
        swap_plans: false,
        offline_nodes: &[],
        paced_ops_per_s: 3_000.0,
        latency_from_paced: true,
        replay_gets: 20_000,
        walk_ops: 5_000,
    },
    Shape {
        name: "read-small-degraded",
        objects: 4096,
        object_bytes: 4 * 1024,
        zipf_exponent: 0.0,
        policy: CachePolicy::None,
        cache_chunks: 0,
        put_percent: 0,
        swap_plans: false,
        offline_nodes: &[3, 7],
        paced_ops_per_s: 5_000.0,
        // At this size a paced latency is the wake-up of an idle worker: it
        // moved 35 % with the machine's state between runs of one binary.
        latency_from_paced: false,
        replay_gets: 20_000,
        walk_ops: 5_000,
    },
    Shape {
        name: "mixed-rw-1m",
        objects: 32,
        object_bytes: 1024 * 1024,
        zipf_exponent: 0.9,
        policy: CachePolicy::Functional,
        cache_chunks: 32,
        put_percent: 30,
        swap_plans: true,
        offline_nodes: &[],
        paced_ops_per_s: 400.0,
        latency_from_paced: true,
        replay_gets: 6_000,
        walk_ops: 1_000,
    },
];

/// Phase lengths for a `--seconds` budget: the warm-up and kept repetitions
/// of paced + saturate together fill about nine tenths of it.
struct Phases {
    paced_s: f64,
    sat_s: f64,
    swap_every_s: f64,
}

impl Phases {
    fn for_budget(seconds: f64) -> Self {
        let paced_s = 0.12 * seconds;
        Phases {
            paced_s,
            sat_s: 0.0375 * seconds,
            swap_every_s: paced_s / 4.0,
        }
    }
}

/// The correctness gate: operations attempted and failed, and every
/// violated invariant with its counter.
#[derive(Debug, Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    errors: u64,
    dropped: u64,
    unverified: u64,
    violations: Vec<String>,
}

impl Gate {
    fn check_phase(&mut self, label: &str, phase: &PhaseResult) {
        let r = &phase.report;
        let unverified = r.completed - r.verified;
        self.attempted += r.submitted + r.dropped;
        self.failed += r.errors + r.dropped + unverified;
        self.errors += r.errors;
        self.dropped += r.dropped;
        self.unverified += unverified;
        if unverified != 0 {
            self.violations.push(format!(
                "{label}: verified {} != completed {}",
                r.verified, r.completed
            ));
        }
        if r.submitted != r.completed + r.errors {
            self.violations.push(format!(
                "{label}: submitted {} != completed {} + errors {}",
                r.submitted, r.completed, r.errors
            ));
        }
        if r.errors != 0 {
            self.violations
                .push(format!("{label}: errors {}", r.errors));
        }
        if r.dropped != 0 {
            self.violations
                .push(format!("{label}: dropped {}", r.dropped));
        }
    }

    /// One directly issued operation (replay or walk).
    fn check_direct(&mut self, label: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.violations.len() < 16 {
                self.violations
                    .push(format!("{label}: wrong or missing bytes"));
            }
        }
    }
}

/// A fresh store holding every object, plan A and the offline nodes, for
/// the single-threaded replay and walk. Returns the mean
/// `set_cached_chunks` time in microseconds.
fn direct_store(shape: &Shape, inputs: &Inputs, seed: u64) -> (StoreHandle, f64) {
    let store = fresh_store(shape, seed);
    for (object, data) in inputs.payloads.iter().enumerate() {
        store.put(object as u64, data).expect("put succeeds");
    }
    let mut install_us = 0.0;
    if let Some(plan) = inputs.plans.first() {
        let t = Instant::now();
        for (object, &d) in plan.cached_chunks.iter().enumerate() {
            store
                .set_cached_chunks(object as u64, d)
                .expect("plan chunk installs");
        }
        install_us = t.elapsed().as_secs_f64() * 1e6 / plan.cached_chunks.len() as f64;
    }
    for &node in shape.offline_nodes {
        store.set_node_online(node, false);
    }
    (store, install_us)
}

/// The paper's objective: mean modelled (`ReadOutcome.latency`) latency of
/// the first `replay_gets` scheduled gets, issued single-threaded at virtual
/// times rescaled to the model's node utilisation. Deterministic in the seed.
fn replay_model_latency(shape: &Shape, inputs: &Inputs, seed: u64, gate: &mut Gate) -> f64 {
    let (store, _) = direct_store(shape, inputs, seed);
    let scale = shape.virtual_time_scale();
    // The paced phases' schedule may hold fewer gets than the replay wants.
    let get_share = 1.0 - shape.put_percent as f64 / 100.0;
    let horizon_s = 1.1 * shape.replay_gets as f64 / (get_share * shape.paced_ops_per_s);
    let ops = schedule(shape, seed, horizon_s);
    let mut sum = 0.0;
    let mut gets = 0usize;
    for op in ops.iter().filter(|op| !op.put).take(shape.replay_gets) {
        let outcome = store.get(op.object, op.due_s * scale);
        let ok = match &outcome {
            Ok(o) => o.data == inputs.payloads[op.object as usize],
            Err(_) => false,
        };
        gate.check_direct("replay", ok);
        if let Ok(o) = outcome {
            sum += o.latency;
            gets += 1;
        }
    }
    sum / gets.max(1) as f64
}

fn finish(gate: Gate, metrics: Vec<(&'static str, f64)>) -> Outcome {
    Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        violations: gate.violations,
        metrics,
    }
}

/// The run that produces the end-to-end numbers: tracing off, every phase a
/// warm-up plus [`KEPT_REPS`] repetitions on a fresh store + daemon. Machine
/// interference can only lengthen a latency or lower a throughput, so the
/// least disturbed repetition is reported for those; set-up time is a median.
pub fn run_end_to_end(shape: &Shape, seed: u64, seconds: f64) -> Outcome {
    let phases = Phases::for_budget(seconds);
    let mut gate = Gate::default();
    let (mut setup_s, mut mean_us, mut p95_us, mut sat) = (vec![], vec![], vec![], vec![]);
    let mut invalid_paced = 0;
    let mut inputs = None;
    for rep in 0..=KEPT_REPS {
        let share = if rep == 0 { WARMUP_SHARE } else { 1.0 };
        // Set-up is redone from nothing every repetition, so `setup_s` can be
        // a median. Each repetition draws its own schedule from the seed: a schedule
        // shared by all of them would pass its luck (burstiness, put share)
        // to every repetition, and through them to the run's reading.
        let rep_seed = mix(seed ^ mix(rep as u64));
        let t = Instant::now();
        let rep_inputs = build_inputs(shape, rep_seed, phases.paced_s);
        let serving = start_serving(shape, &rep_inputs, rep_seed);
        let rep_setup_s = t.elapsed().as_secs_f64();

        let paced = run_paced(
            serving,
            shape,
            &rep_inputs,
            phases.paced_s * share,
            phases.swap_every_s,
            None,
        );
        gate.check_phase(&format!("paced rep {rep}"), &paced);
        let saturate = run_saturate(
            start_serving(shape, &rep_inputs, rep_seed),
            shape,
            &rep_inputs,
            phases.sat_s * share,
            phases.swap_every_s,
        );
        gate.check_phase(&format!("saturate rep {rep}"), &saturate);

        if rep > 0 {
            let latency = if shape.latency_from_paced {
                &paced.report.histogram
            } else {
                &saturate.report.histogram
            };
            setup_s.push(rep_setup_s);
            mean_us.push(latency.mean_us());
            p95_us.push(interpolated_quantile_us(latency, 0.95));
            sat.push(saturate.report.completed as f64 / saturate.elapsed_s);
            // A paced phase that hit backpressure measured a queue the
            // generator built, not the offered load.
            if paced.report.backpressure_waits > 0 {
                invalid_paced += 1;
                println!(
                    "paced rep {rep} INVALID: backpressure_waits = {}",
                    paced.report.backpressure_waits
                );
            }
        }
        inputs = Some(rep_inputs);
    }
    if invalid_paced * 2 > KEPT_REPS {
        gate.violations.push(format!(
            "{invalid_paced} of {KEPT_REPS} paced repetitions hit backpressure"
        ));
    }
    let inputs = inputs.expect("at least one repetition ran");
    let model_mean_s = replay_model_latency(shape, &inputs, seed, &mut gate);

    let metrics = vec![
        ("setup_s", median(&setup_s)),
        ("op_mean_us", least(&mean_us)),
        ("op_p95_us", least(&p95_us)),
        ("sat_ops_per_s", most(&sat)),
        ("model_mean_s", model_mean_s),
        ("peak_rss_mb", crate::stats::peak_rss_mib()),
    ];
    for (name, values) in [
        ("setup_s", &setup_s),
        ("op_mean_us", &mean_us),
        ("op_p95_us", &p95_us),
        ("sat_ops_per_s", &sat),
    ] {
        println!("  {name} repetitions: {values:?}");
    }
    finish(gate, metrics)
}

/// Counts taken at the walk's boundaries.
#[derive(Debug, Default)]
struct WalkCounts {
    gets: u64,
    puts: u64,
    cache_hits: u64,
    full_cache_gets: u64,
    cache_chunks: u64,
    storage_chunks: u64,
}

/// Walks the first `walk_ops` scheduled operations single-threaded over a
/// fresh store: a span around the real call, then shadow child spans that
/// re-issue its parts through public functions.
fn walk(
    shape: &Shape,
    inputs: &Inputs,
    store: &StoreHandle,
    tracer: &mut Tracer,
    gate: &mut Gate,
) -> WalkCounts {
    let kernel = store.coding_kernel();
    let codec = FunctionalCacheCodec::with_kernel(store.code_params(), kernel)
        .expect("code parameters are valid")
        .with_striping(None);
    // Any coefficient other than 0 and 1 takes the kernel's real path.
    let coeff = Gf256::new(0x53);
    let src = vec![0xA5u8; shape.chunk_bytes()];
    let mut dst = vec![0u8; shape.chunk_bytes()];
    let scale = shape.virtual_time_scale();
    let mut counts = WalkCounts::default();

    for (i, op) in inputs.ops.iter().take(shape.walk_ops).enumerate() {
        let request = i as u64;
        let payload = &inputs.payloads[op.object as usize];
        if op.put {
            counts.puts += 1;
            let (put, stored) = tracer.span("cluster.put", None, request, || {
                store.put(op.object, payload)
            });
            let (encode, encoded) = tracer.span("erasure.encode", Some(put), request, || {
                codec.encode(payload)
            });
            tracer.span("gf.mul", Some(encode), request, || {
                for _ in 0..(CODE_N - CODE_K) * CODE_K {
                    kernel::mul_acc_slice(kernel, coeff, black_box(&src), &mut dst);
                }
            });
            black_box(&dst);
            let ok = stored.is_ok() && encoded.is_ok_and(|e| e.chunks().len() == CODE_N);
            gate.check_direct("walk put", ok);
            continue;
        }

        counts.gets += 1;
        let (get, outcome) = tracer.span("cluster.get", None, request, || {
            store.get(op.object, op.due_s * scale)
        });
        let Ok(outcome) = outcome else {
            gate.check_direct("walk get", false);
            continue;
        };
        counts.cache_hits += u64::from(outcome.cache_chunks_used > 0);
        counts.full_cache_gets += u64::from(outcome.storage_chunks_used == 0);
        counts.cache_chunks += outcome.cache_chunks_used as u64;
        counts.storage_chunks += outcome.storage_chunks_used as u64;

        // The real get skips the cache entirely without a cache policy.
        let (_, mut chunks) = tracer.span("cluster.cache_lookup", Some(get), request, || {
            if shape.policy == CachePolicy::None {
                Vec::new()
            } else {
                store.cache().lookup(op.object)
            }
        });
        tracer.span("cluster.chunk_fetch", Some(get), request, || {
            for &node in &outcome.nodes_used {
                chunks.extend(store.chunk_on_node(op.object, node));
            }
        });
        let (decode, decoded) = tracer.span("erasure.decode", Some(get), request, || {
            store.decode_with_chunks(op.object, &chunks)
        });
        tracer.span("gf.mul_acc", Some(decode), request, || {
            for _ in 0..CODE_K * CODE_K {
                kernel::mul_acc_slice(kernel, coeff, black_box(&src), &mut dst);
            }
        });
        black_box(&dst);
        let ok = &outcome.data == payload && decoded.is_ok_and(|bytes| &bytes == payload);
        gate.check_direct("walk get", ok);
    }
    counts
}

/// Closed-loop direct gets for `len_s` seconds on `threads` threads;
/// returns completed gets per second.
fn direct_get_rate(store: &StoreHandle, ops: &[Op], threads: usize, len_s: f64) -> f64 {
    let gets: Vec<u64> = ops
        .iter()
        .filter(|op| !op.put)
        .map(|op| op.object)
        .collect();
    let start = Instant::now();
    let completed: u64 = std::thread::scope(|scope| {
        let threads_before = pin::thread_ids();
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let gets = &gets;
                scope.spawn(move || {
                    let mut done = 0u64;
                    // Each thread starts elsewhere in the schedule.
                    for &object in gets.iter().cycle().skip(t * gets.len() / threads) {
                        if start.elapsed().as_secs_f64() >= len_s {
                            break;
                        }
                        black_box(store.get(object, 0.0).expect("direct get succeeds"));
                        done += 1;
                    }
                    done
                })
            })
            .collect();
        pin::pin_new_threads(&threads_before);
        workers
            .into_iter()
            .map(|w| w.join().expect("direct-get thread panicked"))
            .sum()
    });
    completed as f64 / start.elapsed().as_secs_f64()
}

/// The traced run: one warm-up, then an untraced and a traced paced phase
/// (their difference is the tracing overhead), a saturating phase, the
/// single-threaded walk with shadow spans, and the direct-get scaling probe.
pub fn run_traced(shape: &Shape, seed: u64, seconds: f64, spans_out: Option<&str>) -> Outcome {
    let phases = Phases::for_budget(seconds);
    let mut gate = Gate::default();
    let mut tracer = Tracer::default();
    let inputs = build_inputs(shape, seed, phases.paced_s);

    let warmup = run_paced(
        start_serving(shape, &inputs, seed),
        shape,
        &inputs,
        phases.paced_s * WARMUP_SHARE,
        phases.swap_every_s,
        None,
    );
    gate.check_phase("paced warm-up", &warmup);

    let serving = start_serving(shape, &inputs, seed);
    let (preload_s, swap_idle_ms) = (serving.preload_s, serving.swap_idle_ms);
    let untraced = run_paced(
        serving,
        shape,
        &inputs,
        phases.paced_s,
        phases.swap_every_s,
        None,
    );
    gate.check_phase("paced untraced", &untraced);
    let traced = run_paced(
        start_serving(shape, &inputs, seed),
        shape,
        &inputs,
        phases.paced_s,
        phases.swap_every_s,
        Some(&mut tracer),
    );
    gate.check_phase("paced traced", &traced);
    let saturate = run_saturate(
        start_serving(shape, &inputs, seed),
        shape,
        &inputs,
        phases.sat_s,
        phases.swap_every_s,
    );
    gate.check_phase("saturate", &saturate);

    let (store, set_cached_chunks_us) = direct_store(shape, &inputs, seed);
    let counts = walk(shape, &inputs, &store, &mut tracer, &mut gate);
    let reads: Vec<f64> = (0..NODES)
        .map(|id| store.node(id).reads_served() as f64)
        .collect();
    let stored_bytes: usize = (0..NODES)
        .map(|id| store.node(id).num_chunks() * shape.chunk_bytes())
        .sum::<usize>()
        + store.cache().used_bytes() as usize;
    let scaling_len_s = phases.sat_s / 2.0;
    let one_thread = direct_get_rate(&store, &inputs.ops, 1, scaling_len_s);
    let two_threads = direct_get_rate(&store, &inputs.ops, 2, scaling_len_s);

    if let Some(path) = spans_out {
        if let Err(e) = tracer.write_json(path) {
            gate.violations
                .push(format!("cannot write spans to {path}: {e}"));
        }
    }

    let hist = &untraced.report.histogram;
    let op_mean_us = hist.mean_us();
    let sat_ops_per_s = saturate.report.completed as f64 / saturate.elapsed_s;
    let service_us = WORKERS as f64 * 1e6 / sat_ops_per_s;
    let ops = (counts.gets + counts.puts).max(1) as f64;
    let get_us = tracer.mean_us("cluster.get");
    let put_us = tracer.mean_us("cluster.put");
    let direct_us = (counts.gets as f64 * get_us + counts.puts as f64 * put_us) / ops;
    let gets = counts.gets.max(1) as f64;
    let decode_us = tracer.mean_us("erasure.decode");
    let mul_acc_us = tracer.mean_us("gf.mul_acc");
    // Bytes a decode produces / bytes k·k kernel passes stream, per second.
    let mb_per_s = |bytes: usize, us: f64| {
        if us > 0.0 {
            bytes as f64 / us
        } else {
            0.0
        }
    };
    let swaps = &traced.swap_ms;
    let user_bytes = (shape.stored_objects() * shape.object_bytes) as f64;

    let metrics = vec![
        ("serve.service_us", service_us),
        ("serve.overhead_us", service_us - direct_us),
        ("serve.submit_us", tracer.mean_us("serve.submit")),
        ("serve.queue_wait_us", op_mean_us - service_us),
        ("serve.op_mean_us", op_mean_us),
        ("serve.op_p50_us", interpolated_quantile_us(hist, 0.5)),
        ("serve.op_p95_us", interpolated_quantile_us(hist, 0.95)),
        ("serve.op_p99_us", interpolated_quantile_us(hist, 0.99)),
        ("serve.op_p999_us", interpolated_quantile_us(hist, 0.999)),
        ("serve.sat_ops_per_s", sat_ops_per_s),
        ("serve.gen_late_p99_us", untraced.lateness.quantile_us(0.99)),
        ("serve.gen_late_max_us", untraced.lateness.max_us() as f64),
        (
            "serve.backpressure_waits",
            untraced.report.backpressure_waits as f64,
        ),
        (
            "serve.swap_plan_ms",
            if swaps.is_empty() { 0.0 } else { median(swaps) },
        ),
        ("serve.swap_plan_idle_ms", swap_idle_ms),
        (
            "serve.swaps_under_load",
            (untraced.report.swaps_under_load + saturate.report.swaps_under_load) as f64,
        ),
        ("serve.errors", gate.errors as f64),
        ("serve.dropped", gate.dropped as f64),
        ("serve.unverified", gate.unverified as f64),
        ("serve.preload_s", preload_s),
        ("core.payload_s", inputs.payload_s),
        ("workload.generate_s", inputs.generate_s),
        ("workload.requests", inputs.ops.len() as f64),
        ("optimizer.optimize_s", inputs.optimize_s),
        ("cluster.set_cached_chunks_us", set_cached_chunks_us),
        ("cluster.get_us", get_us),
        (
            "cluster.get_p99_us",
            tracer.quantile_us("cluster.get", 0.99),
        ),
        ("cluster.get_self_us", tracer.mean_self_us("cluster.get")),
        ("cluster.direct_get_scaling_2t", two_threads / one_thread),
        (
            "cluster.cache_lookup_us",
            tracer.mean_us("cluster.cache_lookup"),
        ),
        ("cluster.cache_hit_ratio", counts.cache_hits as f64 / gets),
        (
            "cluster.cache_chunks_per_get",
            counts.cache_chunks as f64 / gets,
        ),
        (
            "cluster.storage_chunks_per_get",
            counts.storage_chunks as f64 / gets,
        ),
        (
            "cluster.full_cache_get_share",
            counts.full_cache_gets as f64 / gets,
        ),
        (
            "cluster.node_reads_imbalance",
            reads.iter().cloned().fold(0.0, f64::max) * NODES as f64
                / reads.iter().sum::<f64>().max(1.0),
        ),
        (
            "cluster.chunk_fetch_us",
            tracer.mean_us("cluster.chunk_fetch"),
        ),
        (
            "cluster.stored_bytes_per_user_byte",
            stored_bytes as f64 / user_bytes,
        ),
        ("cluster.put_us", put_us),
        ("cluster.put_self_us", tracer.mean_self_us("cluster.put")),
        ("erasure.encode_us", tracer.mean_us("erasure.encode")),
        (
            "erasure.encode_self_us",
            tracer.mean_self_us("erasure.encode"),
        ),
        ("erasure.decode_us", decode_us),
        (
            "erasure.decode_self_us",
            tracer.mean_self_us("erasure.decode"),
        ),
        (
            "erasure.decode_mb_per_s",
            mb_per_s(shape.object_bytes, decode_us),
        ),
        ("gf.mul_us", tracer.mean_us("gf.mul")),
        ("gf.mul_acc_us", mul_acc_us),
        (
            "gf.mul_acc_mb_per_s",
            mb_per_s(CODE_K * CODE_K * shape.chunk_bytes(), mul_acc_us),
        ),
        (
            "trace.overhead_pct",
            (traced.report.histogram.mean_us() / op_mean_us - 1.0) * 100.0,
        ),
        (
            "fail_ratio",
            gate.failed as f64 / gate.attempted.max(1) as f64,
        ),
    ];
    finish(gate, metrics)
}

//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics and the end-to-end metric each
//! should move. `BENCHMARK.json` at the repository root repeats the names,
//! units, directions and bounds; a unit test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    /// One sentence: why this workload exists.
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
    pub what: &'static str,
}

pub struct PerLayer {
    /// `<layer>.<metric>`; the layer is the crate or module measured.
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric this should move, and on which workload.
    pub moves: &'static str,
}

impl PerLayer {
    pub fn layer(&self) -> &'static str {
        self.name
            .split_once('.')
            .map_or("bench", |(layer, _)| layer)
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "read-zipf-64k",
        why: "the paper's case: Zipf(0.9) gets of 256 x 64 KiB objects under an optimizer plan, working set 4x the cache; every layer does some work",
    },
    Workload {
        name: "read-small-degraded",
        why: "overhead-bound and cache-bypassing: uniform gets of 4096 x 4 KiB objects, no cache, two nodes offline; a cache change must show no change here",
    },
    Workload {
        name: "mixed-rw-1m",
        why: "bytes-bound with writes beside reads: 70/30 get/put of 1 MiB objects while optimizer plans A/B swap under load; GF coding and the checksum dominate",
    },
    Workload {
        name: "paper-plan-sim",
        why: "the analytic and simulated layers: Algorithm 1 on the paper's section V-A system, then the event-driven simulator; no serving code runs, so serving changes must show no change here",
    },
];

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        what: "nothing -> first timed operation, redone every repetition, median of the kept ones: payloads, schedule, optimizer plan, store, preload, plan install; on paper-plan-sim system build + optimize()",
    },
    EndToEnd {
        name: "op_mean_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        what: "exact mean served latency (submit -> done) in the paced phase (read-small-degraded: through the full queue of the saturating phase); on paper-plan-sim the simulated mean latency of a request under the optimized plan",
    },
    EndToEnd {
        name: "op_p95_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        what: "p95 of the same latencies, linearly interpolated inside its histogram bucket (buckets are <= 6.25 % wide); at least 48 samples beyond it in every repetition",
    },
    EndToEnd {
        name: "sat_ops_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        what: "completed / (first submit -> shutdown() returned) with the queue kept full; on paper-plan-sim simulated requests per wall second",
    },
    EndToEnd {
        name: "model_mean_s",
        unit: "s",
        better: Lower,
        bound: 0.15,
        what: "the paper's objective: mean modelled latency (ReadOutcome.latency) of the first scheduled gets replayed single-threaded at 0.6 node utilisation; on paper-plan-sim SimReport.overall.mean; exact for a fixed seed",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.10,
        what: "VmHWM when the run ends",
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const SAT_AND_MEAN: &str =
    "sat_ops_per_s, op_mean_us: read-zipf-64k most, mixed-rw-1m; read-small-degraded only via the queue share";
const TAIL_PACED: &str = "op_p95_us on the paced phases";
const SWAPS: &str = "op_p95_us, setup_s on mixed-rw-1m; no swaps elsewhere, so no change";
const FAILS: &str = "the run's failed count: all serving workloads";
const SETUP: &str = "setup_s: all serving workloads";
const GET_PATH: &str =
    "sat_ops_per_s: read-small-degraded most; a tenth of the served get on read-zipf-64k";
const CACHE: &str =
    "model_mean_s, op_mean_us slightly: read-zipf-64k, mixed-rw-1m; zero cache calls on read-small-degraded";
const PUT_PATH: &str =
    "sat_ops_per_s, op_mean_us on mixed-rw-1m only; read-only workloads must not move";
const DECODE: &str =
    "sat_ops_per_s, op_mean_us: mixed-rw-1m most, a tenth of the served get on read-zipf-64k, nothing on read-small-degraded";
const PLAN: &str = "setup_s: paper-plan-sim most, read-zipf-64k and mixed-rw-1m";
const SIM: &str = "sat_ops_per_s, peak_rss_mb, model_mean_s on paper-plan-sim";

pub const PER_LAYER: [PerLayer; 59] = [
    layer("serve.service_us", "us", Lower, SAT_AND_MEAN),
    layer("serve.overhead_us", "us", Lower, SAT_AND_MEAN),
    layer("serve.submit_us", "us", Lower, TAIL_PACED),
    layer("serve.queue_wait_us", "us", Lower, TAIL_PACED),
    layer(
        "serve.op_mean_us",
        "us",
        Lower,
        "op_mean_us (the traced run's own untraced paced phase)",
    ),
    layer("serve.op_p50_us", "us", Lower, TAIL_PACED),
    layer("serve.op_p95_us", "us", Lower, TAIL_PACED),
    layer("serve.op_p99_us", "us", Lower, TAIL_PACED),
    layer("serve.op_p999_us", "us", Lower, TAIL_PACED),
    layer(
        "serve.sat_ops_per_s",
        "1/s",
        Higher,
        "sat_ops_per_s (the traced run's own saturating phase)",
    ),
    layer(
        "serve.gen_late_p99_us",
        "us",
        Lower,
        "validity of the paced phases",
    ),
    layer(
        "serve.gen_late_max_us",
        "us",
        Lower,
        "validity of the paced phases",
    ),
    layer(
        "serve.backpressure_waits",
        "count",
        Lower,
        "validity of the paced phases",
    ),
    layer("serve.swap_plan_ms", "ms", Lower, SWAPS),
    layer("serve.swap_plan_idle_ms", "ms", Lower, SWAPS),
    layer("serve.swaps_under_load", "count", Higher, SWAPS),
    layer("serve.errors", "count", Lower, FAILS),
    layer("serve.dropped", "count", Lower, FAILS),
    layer("serve.unverified", "count", Lower, FAILS),
    layer("serve.preload_s", "s", Lower, SETUP),
    layer("core.payload_s", "s", Lower, SETUP),
    layer(
        "core.system_build_s",
        "s",
        Lower,
        "setup_s on paper-plan-sim",
    ),
    layer("workload.generate_s", "s", Lower, SETUP),
    layer("workload.requests", "count", Higher, SETUP),
    layer("cluster.set_cached_chunks_us", "us", Lower, SWAPS),
    layer("cluster.get_us", "us", Lower, GET_PATH),
    layer("cluster.get_p99_us", "us", Lower, GET_PATH),
    layer("cluster.get_self_us", "us", Lower, GET_PATH),
    layer(
        "cluster.direct_get_scaling_2t",
        "ratio",
        Higher,
        "sat_ops_per_s: read-zipf-64k, read-small-degraded (lock contention)",
    ),
    layer("cluster.cache_lookup_us", "us", Lower, CACHE),
    layer("cluster.cache_hit_ratio", "ratio", Higher, CACHE),
    layer("cluster.cache_chunks_per_get", "count", Higher, CACHE),
    layer("cluster.storage_chunks_per_get", "count", Lower, CACHE),
    layer("cluster.full_cache_get_share", "ratio", Higher, CACHE),
    layer("cluster.node_reads_imbalance", "ratio", Lower, CACHE),
    layer(
        "cluster.chunk_fetch_us",
        "us",
        Lower,
        "sat_ops_per_s: all serving workloads",
    ),
    layer(
        "cluster.stored_bytes_per_user_byte",
        "ratio",
        Lower,
        "space guard: all serving workloads",
    ),
    layer("cluster.put_us", "us", Lower, PUT_PATH),
    layer("cluster.put_self_us", "us", Lower, PUT_PATH),
    layer("erasure.encode_us", "us", Lower, PUT_PATH),
    layer("erasure.encode_self_us", "us", Lower, PUT_PATH),
    layer("erasure.decode_us", "us", Lower, DECODE),
    layer("erasure.decode_self_us", "us", Lower, DECODE),
    layer("erasure.decode_mb_per_s", "MB/s", Higher, DECODE),
    layer("gf.mul_us", "us", Lower, PUT_PATH),
    layer("gf.mul_acc_us", "us", Lower, DECODE),
    layer("gf.mul_acc_mb_per_s", "MB/s", Higher, DECODE),
    layer("optimizer.optimize_s", "s", Lower, PLAN),
    layer("optimizer.gradient_iterations", "count", Lower, PLAN),
    layer(
        "queueing.bound_s",
        "s",
        Lower,
        "model_mean_s on paper-plan-sim (the bound the plan minimises)",
    ),
    layer("sim.run_s", "s", Lower, SIM),
    layer("sim.req_per_s", "1/s", Higher, SIM),
    layer("sim.completed", "count", Higher, SIM),
    layer("sim.peak_event_queue", "count", Lower, SIM),
    layer("sim.peak_in_flight", "count", Lower, SIM),
    layer("sim.full_cache_hits", "count", Higher, SIM),
    layer(
        "sim.mean_over_bound",
        "ratio",
        Lower,
        "must stay <= 1: the paper's bound holds",
    ),
    layer(
        "trace.overhead_pct",
        "%",
        Lower,
        "validity of the traced run",
    ),
    layer(
        "fail_ratio",
        "ratio",
        Lower,
        "failed / attempted of the traced run; 0 on every workload",
    ),
];

/// `--list`: every workload with its rationale, every metric with unit,
/// layer, bound and the end-to-end metric it should move.
pub fn print_list() {
    println!("workloads");
    for w in &WORKLOADS {
        println!("  {}: {}", w.name, w.why);
    }
    println!("end-to-end metrics (name [unit] better bound: definition)");
    for m in &END_TO_END {
        println!(
            "  {} [{}] {} {}: {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.what
        );
    }
    println!("per-layer metrics (name [unit] better layer: moves)");
    for m in &PER_LAYER {
        println!(
            "  {} [{}] {} {}: {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.layer(),
            m.moves
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn name_is_valid(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| name_is_valid(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
    }

    /// `BENCHMARK.json` must say exactly what `--list` says.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| {
            json.get(key)
                .and_then(Value::as_array)
                .expect("list")
                .to_vec()
        };
        let text_of = |v: &Value, key: &str| {
            v.get(key)
                .and_then(Value::as_str)
                .expect("string")
                .to_string()
        };

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text_of(m, "name"),
                    text_of(m, "unit"),
                    text_of(m, "better"),
                    m.get("bound").and_then(Value::as_f64).expect("bound"),
                )
            })
            .collect();
        let expected: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(end_to_end, expected);

        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
            .collect();
        let expected: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                )
            })
            .collect();
        assert_eq!(per_layer, expected);
    }
}

//! Hammer the lock-sharded [`StoreHandle`] from many threads at once —
//! mixed puts, decoding gets and per-object functional-cache swaps
//! (`set_cached_chunks`) racing each other, with the main thread sweeping
//! the whole plan in the middle of the storm.
//!
//! Contracts under fire:
//!
//! * every `get` reconstructs the exact bytes that were written, whatever
//!   the cache plan looked like at the instant it ran;
//! * the cache tier's counters balance exactly against the operations the
//!   threads performed: one hit-or-miss per get;
//! * thread-private objects written mid-storm read back verbatim;
//! * a `get` racing an overwrite of the *same* object returns one of the
//!   written versions or a typed error — never a mixture of the two, also
//!   when the plan caches the object whole — and, without a cache, always
//!   one of the versions;
//! * a `Sproutd` worker that decodes objects of mixed sizes into its one
//!   reused buffer, beside daemon puts whose payloads become their stored
//!   chunks, serves exactly the written bytes — under a racing overwriter
//!   and after it;
//! * a node read by many threads at once serves every read in turn: its
//!   lock-free FIFO clock loses no read and gives no two the same slot;
//! * an overwrite's parity buffer is the one the next put codes into, unless
//!   a reader still holds it: a held parity chunk keeps its bytes while
//!   same-size overwrites recycle every buffer no one holds.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sprout::backend::synthetic_payload;
use sprout::cluster::{CachePolicy, ClusterConfig, ClusterError, DeviceModel, StoreHandle};
use sprout::erasure::{CodeParams, ReedSolomon};
use sprout::{ServeOpts, ServePlan, Sproutd};

const NODES: usize = 12;
const CODE_N: usize = 7;
const CODE_K: usize = 4;
const SHARED_OBJECTS: u64 = 24;
const THREADS: usize = 8;
const OPS_PER_THREAD: usize = 240;
/// Thread-private object ids start here, one block per thread, so puts
/// never race gets for the same id with different bytes.
const PRIVATE_BASE: u64 = 10_000;

fn payload(object: u64) -> Vec<u8> {
    // Sizes straddle the stripe boundary and include odd (padded) lengths.
    let len = 6_000 + (object as usize % 7) * 2_345;
    synthetic_payload(object as usize, len, 41)
}

fn build_store() -> StoreHandle {
    let config = ClusterConfig::builder()
        .nodes(NODES)
        .code(CODE_N, CODE_K)
        .cache_policy(CachePolicy::Functional)
        .cache_capacity_bytes(64 * 1024 * 1024)
        .seed(77)
        .build();
    let store = StoreHandle::new(config).expect("store builds");
    for object in 0..SHARED_OBJECTS {
        store.put(object, &payload(object)).expect("preload put");
    }
    store
}

#[test]
fn a_thread_storm_with_live_plan_swaps_keeps_every_invariant() {
    let store = build_store();
    let gets = Arc::new(AtomicU64::new(0));
    let swaps = Arc::new(AtomicU64::new(0));

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = store.clone();
            let gets = Arc::clone(&gets);
            let swaps = Arc::clone(&swaps);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xABCD ^ t as u64);
                let mut next_private = PRIVATE_BASE + 1_000 * t as u64;
                for op in 0..OPS_PER_THREAD {
                    let object = rng.gen_range(0..SHARED_OBJECTS);
                    match rng.gen_range(0..10) {
                        // Decoding reads dominate; every one must verify.
                        0..=5 => {
                            let outcome = store
                                .get(object, op as f64)
                                .expect("shared objects stay readable");
                            gets.fetch_add(1, Ordering::Relaxed);
                            assert_eq!(
                                outcome.data,
                                payload(object),
                                "get({object}) must decode the written bytes"
                            );
                        }
                        // A per-object plan swap racing the other workers'.
                        6 | 7 => {
                            let d = rng.gen_range(0..=CODE_N - CODE_K);
                            store
                                .set_cached_chunks(object, d)
                                .expect("plan swap applies under load");
                            swaps.fetch_add(1, Ordering::Relaxed);
                        }
                        // Private put + immediate read-back.
                        _ => {
                            let id = next_private;
                            next_private += 1;
                            store.put(id, &payload(id)).expect("private put");
                            let outcome =
                                store.get(id, op as f64).expect("private object readable");
                            gets.fetch_add(1, Ordering::Relaxed);
                            assert_eq!(outcome.data, payload(id), "private read-back");
                        }
                    }
                }
            });
        }

        // Meanwhile: sweep the functional-cache plan across the shared
        // objects, twice, while the storm is running — exactly what a
        // mid-run re-optimization does to a live store.
        for sweep in 0..2u64 {
            for object in 0..SHARED_OBJECTS {
                let d = ((object + sweep) % ((CODE_N - CODE_K) as u64 + 1)) as usize;
                store
                    .set_cached_chunks(object, d)
                    .expect("plan swap applies under load");
            }
        }
    });

    // Cache counters balance exactly against what the threads did.
    let stats = store.cache_stats();
    let gets = gets.load(Ordering::Relaxed);
    let swaps = swaps.load(Ordering::Relaxed);
    assert!(gets > 0 && swaps > 0, "storm mix ran");
    assert_eq!(
        stats.hits + stats.misses,
        gets,
        "exactly one cache lookup per get"
    );

    // After the dust settles every shared object still decodes verbatim.
    for object in 0..SHARED_OBJECTS {
        let outcome = store.get(object, 1e6).expect("still readable");
        assert_eq!(outcome.data, payload(object), "post-storm verify");
    }
}

#[test]
fn clones_hammering_disjoint_objects_never_interfere() {
    let store = build_store();
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let store = store.clone();
            scope.spawn(move || {
                for i in 0..40u64 {
                    let id = PRIVATE_BASE + 100 * t + i;
                    store.put(id, &payload(id)).expect("put");
                    assert_eq!(store.get(id, i as f64).expect("get").data, payload(id));
                    store.delete(id);
                    assert!(store.object_placement(id).is_none(), "deleted for good");
                }
            });
        }
    });
    assert_eq!(
        store.num_objects(),
        SHARED_OBJECTS as usize,
        "only the preloaded objects remain"
    );
}

/// Threads that read one node with every read arriving at virtual time 0
/// are queued one behind another on the node's FIFO clock: read `i` in
/// queue order finishes at the sum of the first `i` service times. A lost
/// update of the clock (two reads starting from the same `busy_until`)
/// would end the queue before the sum of all service times, and could
/// hand two reads one slot.
#[test]
fn one_node_read_by_many_threads_serves_each_read_in_turn() {
    const READERS: usize = 4;
    const READS_PER_READER: usize = 25_000;
    // A (1, 1) code on one node: every get is one read of node 0, and with
    // `now = 0` its latency is that read's finish time.
    let config = ClusterConfig::builder()
        .nodes(1)
        .code(1, 1)
        .uniform_device(DeviceModel::exponential(0.000_2))
        .cache_policy(CachePolicy::None)
        .seed(5)
        .build();
    let store = StoreHandle::new(config).expect("store builds");
    let data = synthetic_payload(0, 64, 5);
    store.put(0, &data).expect("put");
    // The readers start together, so their reads overlap in wall time.
    let start = Barrier::new(READERS);
    let finishes: Vec<f64> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let store = store.clone();
                let (data, start) = (&data, &start);
                scope.spawn(move || {
                    start.wait();
                    (0..READS_PER_READER)
                        .map(|_| {
                            let out = store.get(0, 0.0).expect("get");
                            assert_eq!(&out.data, data);
                            out.latency
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        readers
            .into_iter()
            .flat_map(|r| r.join().expect("reader"))
            .collect()
    });
    let reads = READERS * READS_PER_READER;
    let node = store.node(0);
    assert_eq!(node.reads_served(), reads as u64);
    let mut sorted = finishes.clone();
    sorted.sort_by(f64::total_cmp);
    sorted.dedup();
    assert_eq!(sorted.len(), reads, "two reads were given one finish time");
    let last = sorted[reads - 1];
    assert_eq!(
        node.queue_delay(0.0),
        last,
        "the clock ends at the last finish"
    );
    // Every read arrived at 0 and the queue never idled, so the time spent
    // serving (the sum of all service times) is the last finish time.
    let horizon = 2.0 * last;
    let busy = node.utilization(horizon) * horizon;
    assert!(
        (busy - last).abs() < 1e-9,
        "served {busy} s of reads but the queue ends at {last} s"
    );
}

/// One thread overwrites object 1 alternately with two same-length payloads
/// while readers loop `get(1, _)`; returns how many reads succeeded.
fn overwrite_race(policy: CachePolicy, cached_chunks: usize) -> u64 {
    race_overwrites(policy, cached_chunks).0
}

/// [`overwrite_race`], returning how many reads succeeded and how many
/// ended in a typed error.
fn race_overwrites(policy: CachePolicy, cached_chunks: usize) -> (u64, u64) {
    const PUTS: usize = 3_000;
    const LEN: usize = 64 * 1024;
    const READERS: usize = 2;
    let config = ClusterConfig::builder()
        .nodes(NODES)
        .code(CODE_N, CODE_K)
        .cache_policy(policy)
        .cache_capacity_bytes(64 * 1024 * 1024)
        .seed(78)
        .build();
    let store = StoreHandle::new(config).expect("store builds");
    let versions = [synthetic_payload(1, LEN, 42), synthetic_payload(2, LEN, 43)];
    assert_ne!(versions[0], versions[1]);
    let write = |data: &[u8]| {
        store.put(1, data).expect("overwrite succeeds");
        if cached_chunks > 0 {
            store
                .set_cached_chunks(1, cached_chunks)
                .expect("plan chunks install after every overwrite");
        }
    };
    write(&versions[0]);

    let done = AtomicBool::new(false);
    let reads_ok = AtomicU64::new(0);
    let reads_failed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..READERS {
            scope.spawn(|| {
                let mut now = 0.0;
                while !done.load(Ordering::Acquire) {
                    now += 1.0;
                    match store.get(1, now) {
                        Ok(outcome) => {
                            assert!(
                                versions.contains(&outcome.data),
                                "a get racing an overwrite returned bytes of neither version"
                            );
                            reads_ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(
                            ClusterError::NotEnoughReplicas { .. }
                            | ClusterError::UnknownObject(_)
                            | ClusterError::ChecksumMismatch { .. },
                        ) => {
                            reads_failed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(other) => panic!("unexpected error under an overwrite: {other:?}"),
                    }
                }
            });
        }
        for i in 0..PUTS {
            write(&versions[(i + 1) % 2]);
        }
        done.store(true, Ordering::Release);
    });
    (
        reads_ok.load(Ordering::Relaxed),
        reads_failed.load(Ordering::Relaxed),
    )
}

/// A reader looks up cached chunks apart from the metadata snapshot whose
/// storage chunks it decodes, so under a cache plan an overwrite can hand
/// it chunks of two versions; the checksum kept with the snapshot turns
/// that into `ChecksumMismatch` instead of `Ok(mixed bytes)`. The
/// typed errors themselves (`NotEnoughReplicas`, `UnknownObject`,
/// `ChecksumMismatch`) are allowed here; without a cache none occurs (see
/// the next test).
#[test]
fn a_get_racing_an_overwrite_returns_one_version_or_a_typed_error() {
    let uncached = overwrite_race(CachePolicy::None, 0);
    let functional = overwrite_race(CachePolicy::Functional, 2);
    assert!(
        uncached > 0 && functional > 0,
        "some reads must land between overwrites ({uncached}, {functional})"
    );
}

/// Under a whole-object plan (`d = k`) the cache entry is the snapshot's
/// own data rows, installed again after every overwrite, so a hit can pair
/// one version's rows with the next version's checksum: it must end in
/// `ChecksumMismatch` (or read one whole version), never other bytes.
#[test]
fn a_whole_object_hit_racing_an_overwrite_returns_one_version_or_a_typed_error() {
    let (ok, _) = race_overwrites(CachePolicy::Functional, CODE_K);
    assert!(ok > 0, "some reads must land between overwrites");
}

/// Without a cache tier a get decodes the chunks of the metadata snapshot it
/// started from, and an overwrite replaces that snapshot (chunks, length,
/// checksum) as one unit: every read racing 3 000 overwrites returns one of
/// the two versions, and none fails.
#[test]
fn an_uncached_get_racing_overwrites_always_returns_one_version() {
    let (ok, failed) = race_overwrites(CachePolicy::None, 0);
    assert_eq!(failed, 0, "{failed} of {} racing reads failed", ok + failed);
    assert!(ok > 0, "some reads must land between overwrites");
}

/// Object sizes a worker's reused decode buffer must shrink and grow
/// between: 1 MiB, 4 KiB, and an odd length that needs padding.
const SERVED_SIZES: [usize; 3] = [1 << 20, 4096, 64 * 1024 + 13];
const SERVED_OBJECTS: u64 = 6;
/// Phase-1 rounds: a get of every served object, then one daemon put.
const SERVED_ROUNDS: u64 = 30;
/// Objects the phase-1 daemon writes through its own queue.
const DAEMON_PUT_BASE: u64 = 500;

struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

fn served_payload(object: u64, version: u64) -> Vec<u8> {
    let len = SERVED_SIZES[object as usize % SERVED_SIZES.len()];
    synthetic_payload(object as usize, len, 90 + version)
}

/// Phase 1: `workers` workers serve gets of mixed-size objects with daemon
/// puts interleaved, while one thread overwrites the objects being read
/// (two same-length versions, so a torn read is a checksum mismatch, not a
/// size error). Phase 2: a fresh daemon over the same store reads every
/// object back, after a plan swap, with nothing racing it.
fn served_buffer_reuse_race(workers: usize) {
    let config = ClusterConfig::builder()
        .nodes(NODES)
        .code(CODE_N, CODE_K)
        .cache_policy(CachePolicy::Functional)
        .cache_capacity_bytes(64 * 1024 * 1024)
        .seed(79)
        .build();
    let store = StoreHandle::new(config).expect("store builds");
    for object in 0..SERVED_OBJECTS {
        store
            .put(object, &served_payload(object, 0))
            .expect("preload");
    }
    // Deep enough for every request, so a submit never waits on a worker
    // (a worker that panics then fails `shutdown` instead of hanging it).
    let opts = ServeOpts::default().workers(workers).queue_depth(256);

    let daemon = Sproutd::start(store.clone(), opts.clone());
    let done = AtomicBool::new(false);
    let overwrites = AtomicU64::new(0);
    let report = std::thread::scope(|scope| {
        // Stops the overwriter when this closure ends, even by a panic.
        let _stop = StopOnDrop(&done);
        scope.spawn(|| {
            let mut version = 0;
            while !done.load(Ordering::Acquire) {
                version += 1;
                for object in 0..SERVED_OBJECTS {
                    let data = served_payload(object, version % 2);
                    store.put(object, &data).expect("overwrite succeeds");
                    overwrites.fetch_add(1, Ordering::Relaxed);
                }
            }
            // End on version 0, which phase 2 checks against.
            for object in 0..SERVED_OBJECTS {
                store
                    .put(object, &served_payload(object, 0))
                    .expect("final put");
            }
        });
        for round in 0..SERVED_ROUNDS {
            for object in 0..SERVED_OBJECTS {
                assert!(daemon.submit_get(object));
            }
            let id = DAEMON_PUT_BASE + round;
            assert!(daemon.submit_put(id, served_payload(id, 0)));
        }
        // The overwriter keeps going until the daemon has drained the queue.
        daemon.shutdown()
    });
    assert!(overwrites.load(Ordering::Relaxed) > 0, "the overwriter ran");
    assert_eq!(report.submitted, SERVED_ROUNDS * (SERVED_OBJECTS + 1));
    assert_eq!(
        report.submitted,
        report.completed + report.errors,
        "{workers} workers: every request completes or fails"
    );
    assert_eq!(
        report.verified, report.completed,
        "every completion verified"
    );
    assert_eq!(
        report.errors,
        report.checksum_mismatches + report.replica_shortfalls + report.unknown_objects,
        "{workers} workers: a failure under the race is one of the typed three"
    );
    assert!(
        report.completed >= SERVED_ROUNDS,
        "the daemon puts completed"
    );

    // Phase 2: no race. Every get — preloaded objects with two cached
    // chunks each, and the daemon-written ones — must decode verbatim.
    let daemon = Sproutd::start(store.clone(), opts);
    let plan = ServePlan {
        cached_chunks: vec![2; SERVED_OBJECTS as usize],
    };
    daemon.swap_plan(plan).expect("plan installs");
    let ids: Vec<u64> = (0..SERVED_OBJECTS)
        .chain(DAEMON_PUT_BASE..DAEMON_PUT_BASE + SERVED_ROUNDS)
        .collect();
    for _ in 0..3 {
        for &id in &ids {
            assert!(daemon.submit_get(id));
        }
    }
    let report = daemon.shutdown();
    assert_eq!(report.errors, 0, "{workers} workers: {report:?}");
    assert_eq!(report.completed, 3 * ids.len() as u64);
    for &id in &ids {
        let outcome = store.get(id, 0.0).expect("readable after the race");
        assert_eq!(outcome.data, served_payload(id, 0), "object {id}");
    }
}

/// Runs in CI's release loop and on the SIMD-fallback job, so buffer reuse
/// is exercised on every kernel rung.
#[test]
fn served_buffer_reuse_survives_a_racing_overwriter() {
    for workers in [1, 2] {
        served_buffer_reuse_race(workers);
    }
}

/// The address of `object`'s first parity row (row `k`), which views the
/// start of its parity buffer. The chunk is dropped before return.
fn parity_address(store: &StoreHandle, object: u64) -> usize {
    let node = store.object_placement(object).expect("stored")[CODE_K];
    let chunk = store.chunk_on_node(object, node).expect("hosted");
    chunk.data.as_ptr() as usize
}

/// Sequential same-size overwrites through `put` and `put_vec`: each one's
/// replaced parity buffer is the buffer the next put codes into, so after
/// the first overwrite no put allocates a parity buffer of its own.
#[test]
fn a_same_size_overwrite_hands_its_parity_buffer_to_the_next_put() {
    const LEN: usize = 256 * 1024;
    let store = build_store();
    store
        .put(100, &synthetic_payload(100, LEN, 1))
        .expect("put");
    for i in 0..40u64 {
        let replaced = parity_address(&store, 100);
        let data = synthetic_payload(100, LEN, 2 + i);
        if i % 2 == 0 {
            store.put(100, &data).expect("overwrite");
        } else {
            store.put_vec(100, data).expect("overwrite");
        }
        let next = 200 + i % 3;
        store
            .put_vec(next, synthetic_payload(next as usize, LEN, i))
            .expect("put");
        assert_eq!(
            parity_address(&store, next),
            replaced,
            "put {i} must code into the parity buffer the overwrite freed"
        );
    }
    for object in [100, 200, 201, 202] {
        let got = store.get(object, 0.0).expect("get").data;
        assert_eq!(got.len(), LEN, "object {object}");
    }
}

/// Recycled parity buffers under fire. One thread overwrites object 1 with
/// two same-size versions, alternating `put` and `put_vec`, so every
/// overwrite nobody reads hands its parity buffer to the next. Readers
/// `get` the object at one instant, so the least-busy choice rotates over
/// every row and reads parity too, and each holds parity chunks across
/// overwrites. A get returns one version's bytes or a typed error; a held
/// parity chunk is one version's row and keeps those bytes to the end.
#[test]
fn recycled_parity_buffers_never_change_bytes_a_reader_holds() {
    const PUTS: usize = 2_000;
    const LEN: usize = 64 * 1024;
    const READERS: usize = 3;
    const HELD: usize = 8;
    let config = ClusterConfig::builder()
        .nodes(NODES)
        .code(CODE_N, CODE_K)
        .cache_policy(CachePolicy::None)
        .seed(80)
        .build();
    let store = StoreHandle::new(config).expect("store builds");
    let versions = [synthetic_payload(5, LEN, 46), synthetic_payload(6, LEN, 47)];
    let codec = ReedSolomon::new(CodeParams::new(CODE_N, CODE_K).unwrap()).unwrap();
    let coded: Vec<_> = versions
        .iter()
        .map(|v| codec.encode(v).expect("encodes").into_chunks())
        .collect();
    store.put(1, &versions[0]).expect("put");
    let placement = store.object_placement(1).expect("stored");

    let done = AtomicBool::new(false);
    let reads_ok = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for reader in 0..READERS {
            let (store, done, reads_ok) = (&store, &done, &reads_ok);
            let (versions, coded, placement) = (&versions, &coded, &placement);
            scope.spawn(move || {
                let mut held = Vec::with_capacity(HELD);
                let mut i = reader;
                while !done.load(Ordering::Acquire) {
                    match store.get(1, 0.0) {
                        Ok(outcome) => {
                            assert!(
                                versions.contains(&outcome.data),
                                "a get racing a recycling overwrite returned bytes of neither version"
                            );
                            reads_ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(
                            ClusterError::NotEnoughReplicas { .. }
                            | ClusterError::UnknownObject(_)
                            | ClusterError::ChecksumMismatch { .. },
                        ) => {}
                        Err(other) => panic!("unexpected error under an overwrite: {other:?}"),
                    }
                    let row = CODE_K + i % (CODE_N - CODE_K);
                    let chunk = store.chunk_on_node(1, placement[row]).expect("hosted");
                    let version = (0..2)
                        .find(|&v| coded[v][row].data == chunk.data)
                        .expect("a parity chunk is one version's row");
                    if held.len() == HELD {
                        held.remove(i % HELD);
                    }
                    held.push((row, version, chunk));
                    for (row, version, chunk) in &held {
                        assert_eq!(
                            chunk.data, coded[*version][*row].data,
                            "a held parity chunk changed its bytes"
                        );
                    }
                    i += 1;
                }
            });
        }
        for i in 0..PUTS {
            let data = &versions[(i + 1) % 2];
            if i % 2 == 0 {
                store.put(1, data).expect("overwrite");
            } else {
                store.put_vec(1, data.clone()).expect("overwrite");
            }
        }
        done.store(true, Ordering::Release);
    });
    assert!(
        reads_ok.load(Ordering::Relaxed) > 0,
        "some reads must land between overwrites"
    );
    assert!(versions.contains(&store.get(1, 0.0).expect("get").data));
}

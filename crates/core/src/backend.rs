//! The byte-accurate simulation backend: the event loop of `sprout_sim`
//! settling its requests on the real store ([`StoreHandle`]).
//!
//! [`Simulation::run`](sprout_sim::Simulation::run) treats chunks as
//! abstract tokens; [`StoreBackend`] stores every object's actual coded
//! bytes on the cluster substrate, installs the plan's functional (or exact)
//! cache chunks, and — on every request, when the engine settles it at
//! planning time — fetches exactly the chunks the engine scheduled, decodes
//! them and verifies the reconstruction against the original payload.
//! Degraded reads after scenario node failures therefore exercise the real
//! erasure decoder, not a model of it.
//!
//! The backend is built from the simulation's own [`CacheScheme`]
//! ([`crate::SproutSystem::byte_backend`]) on a store of its
//! [`CacheScheme::policy`]. Every plan, the first and each mid-run swap
//! ([`ChunkBackend::apply_scheme`]), installs through
//! [`StoreHandle::install_plan`]; a swapped plan of another kind than the
//! store's, or one that fails midway, leaves the cache empty instead.
//!
//! For the Ceph-style LRU cache tier the engine's
//! [`LruTier`](sprout_cluster::LruTier) is the single source of truth, and
//! the store keeps no copy of it. A hit the engine declares holds a
//! whole-object replica, whose bytes are the object's `k` data rows — rows
//! `0..k` of the systematic code — so it settles (and decode-verifies) from
//! those rows of the stored snapshot, with the read latency sampled from
//! the cluster's SSD cache device model.
//!
//! The engine owns the node model (queues, node service draws, online
//! flags) and all planning randomness, so an analytic run and a
//! byte-accurate run with the same seed make identical chunk-source
//! decisions with identical node service times — see the differential root
//! test. Only the SSD cache reads draw from a stream of the backend's own.
//! The engine's report is the run's one account: each request this backend
//! fails to reconstruct is one of its `reconstruction_failures`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sprout_cluster::{CachePolicy, StoreHandle};
use sprout_erasure::Chunk;
use sprout_sim::{CacheScheme, ChunkBackend, FinishedRequest};

/// Default payload size for files whose spec declares `size_bytes = 0`
/// (abstract-model specs that never touched bytes before).
pub(crate) const DEFAULT_OBJECT_BYTES: u64 = 4096;

/// A [`ChunkBackend`] over the in-memory erasure-coded object store.
#[derive(Debug)]
pub struct StoreBackend {
    store: StoreHandle,
    /// Cache-device read draws ([`ChunkBackend::sample_cache_read`]).
    rng: StdRng,
    originals: Vec<Vec<u8>>,
    /// Per-file data-chunk length in bytes (drives the SSD cache-read model).
    chunk_lens: Vec<u64>,
    /// Whether the scheme in force is the LRU tier, whose hits settle from
    /// the stored data rows instead of the store's cache.
    lru: bool,
}

impl StoreBackend {
    /// Builds a backend from an already-populated store. `originals[file]` is
    /// the payload written for file `file` (object id `file as u64`), kept
    /// for reconstruction verification; `seed` feeds the cache-device reads.
    /// The store's cache policy names the scheme in force until
    /// [`ChunkBackend::apply_scheme`] swaps it.
    pub fn new(store: StoreHandle, originals: Vec<Vec<u8>>, seed: u64) -> Self {
        let k = store.config().k.max(1);
        let chunk_lens = originals
            .iter()
            .map(|p| p.len().div_ceil(k) as u64)
            .collect();
        StoreBackend {
            lru: store.config().cache_policy == CachePolicy::LruReplicated,
            store,
            rng: StdRng::seed_from_u64(seed ^ 0x570B_ACE0),
            originals,
            chunk_lens,
        }
    }

    /// The underlying store (cache statistics, node contents, ...).
    pub fn store(&self) -> &StoreHandle {
        &self.store
    }

    fn gather(&self, request: &FinishedRequest<'_>) -> Option<Vec<Chunk>> {
        let object = request.file as u64;
        let mut chunks: Vec<Chunk> =
            Vec::with_capacity(request.cache_chunks + request.storage_nodes.len());
        if request.cache_chunks > 0 && self.lru {
            // An LRU hit: the replica's bytes are the stored data rows.
            let placement = self.store.object_placement(object)?;
            for &node in placement.get(..request.cache_chunks)? {
                chunks.push(self.store.chunk_on_node(object, node)?);
            }
        } else if request.cache_chunks > 0 {
            let cache = self.store.cache();
            let cached = cache.peek(object)?;
            if cached.len() < request.cache_chunks {
                return None;
            }
            chunks.extend(cached.iter().take(request.cache_chunks).cloned());
        }
        for &node in request.storage_nodes {
            chunks.push(self.store.chunk_on_node(object, node)?);
        }
        Some(chunks)
    }
}

impl ChunkBackend for StoreBackend {
    fn num_nodes(&self) -> usize {
        self.store.config().num_nodes
    }

    fn sample_cache_read(&mut self, file: usize, chunks: usize) -> Option<f64> {
        // Cache chunks are read in parallel from the SSD tier device; the
        // request sees the fork-join maximum (mirrors the cluster's own
        // cache-read model).
        let bytes = self.chunk_lens.get(file).copied().unwrap_or(0);
        let dist = self.store.config().cache_device.service_distribution(bytes);
        Some(
            (0..chunks)
                .map(|_| dist.sample(&mut self.rng))
                .fold(0.0, f64::max),
        )
    }

    fn finish_request(&mut self, request: FinishedRequest<'_>) -> bool {
        self.gather(&request).is_some_and(|chunks| {
            self.store
                .decode_with_chunks(request.file as u64, &chunks)
                .is_ok_and(|data| data == self.originals[request.file])
        })
    }

    fn apply_scheme(&mut self, scheme: &CacheScheme) {
        self.lru = matches!(scheme, CacheScheme::LruReplicated { .. });
        let plan = match scheme {
            CacheScheme::Functional(plan) | CacheScheme::Exact(plan) => plan,
            // Neither reads the store's cache: without a cache the engine
            // plans no cache chunks, and LRU hits settle from the stored
            // data rows, so stale entries are harmless.
            CacheScheme::NoCache | CacheScheme::LruReplicated { .. } => return,
        };
        // A planned swap needs the store policy of its own kind: the cluster
        // cache policy fixes *what* a cached chunk is (newly coded rows vs
        // copies vs whole objects), and that is set at store construction.
        // On a mismatched store, drop any stale cache content (so no hit is
        // served from chunks of the wrong kind); the engine's planned hits
        // then surface as counted reconstruction failures instead of silent
        // decode mismatches. install_plan stops at its first error, so a
        // failed install is cleared the same way: no object is served from a
        // mix of plans.
        if scheme.policy() != self.store.config().cache_policy
            || self.store.install_plan(&plan.cached_chunks).is_err()
        {
            self.store.reset_cache();
        }
    }
}

/// Deterministic pseudo-random payload for file `file` (so reconstruction
/// checks catch any row mixup).
///
/// The bytes are the top bytes of one xorshift64* stream seeded from
/// `(file, seed)`; a seed whose start state is 0, xorshift's fixed point,
/// gives an all-zero payload. The stream is produced in groups of `LANES`
/// blocks of `BLOCK` bytes whose chains run side by side: xorshift is linear
/// over GF(2), so each block's start state is the previous block's advanced
/// `BLOCK` steps by one table lookup per state byte, and the bytes are those
/// of the one serial stream.
pub fn synthetic_payload(file: usize, len: usize, seed: u64) -> Vec<u8> {
    let mut state = payload_start(file, seed);
    let mut payload = Vec::with_capacity(len);
    let mut group = [0u8; BLOCK * LANES];
    for _ in 0..len / group.len() {
        let mut lanes = [0u64; LANES];
        for lane in &mut lanes {
            *lane = state;
            state = jump_block(state);
        }
        for i in 0..BLOCK {
            for (block, lane) in group.chunks_exact_mut(BLOCK).zip(&mut lanes) {
                *lane = xorshift(*lane);
                block[i] = payload_byte(*lane);
            }
        }
        payload.extend_from_slice(&group);
    }
    payload.extend((0..len % group.len()).map(|_| {
        state = xorshift(state);
        payload_byte(state)
    }));
    payload
}

/// Bytes per block: one lane's run of consecutive stream bytes.
const BLOCK: usize = 256;
/// Blocks whose chains [`synthetic_payload`] advances side by side.
const LANES: usize = 16;

fn payload_start(file: usize, seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(file as u64 + 1)
}

/// One xorshift64 step.
const fn xorshift(mut state: u64) -> u64 {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    state
}

/// xorshift64*'s output, top byte only.
fn payload_byte(state: u64) -> u8 {
    (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
}

/// The state `BLOCK` xorshift steps after `state`.
fn jump_block(state: u64) -> u64 {
    JUMP.iter()
        .zip(state.to_le_bytes())
        .fold(0, |jumped, (row, byte)| jumped ^ row[usize::from(byte)])
}

/// "Advance `BLOCK` steps" as a GF(2)-linear map, sliced by state byte:
/// `JUMP[i][b]` is the image of `b << 8i`, so the image of a state is the
/// xor of its 8 bytes' entries.
static JUMP: [[u64; 256]; 8] = jump_table();

const fn jump_table() -> [[u64; 256]; 8] {
    // The images of the 64 unit states ...
    let mut columns = [0u64; 64];
    let mut bit = 0;
    while bit < 64 {
        let mut state = 1u64 << bit;
        let mut step = 0;
        while step < BLOCK {
            state = xorshift(state);
            step += 1;
        }
        columns[bit] = state;
        bit += 1;
    }
    // ... and each byte value's image, built from the value without its
    // lowest set bit.
    let mut table = [[0u64; 256]; 8];
    let mut byte = 0;
    while byte < 8 {
        let mut value = 1usize;
        while value < 256 {
            let low = value.trailing_zeros() as usize;
            table[byte][value] = table[byte][value & (value - 1)] ^ columns[8 * byte + low];
            value += 1;
        }
        byte += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FileConfig, SystemSpec};
    use crate::system::SproutSystem;
    use sprout_cluster::Kernel;
    use sprout_sim::PlannedCache;

    fn system(object_bytes: u64) -> SproutSystem {
        let mut builder = SystemSpec::builder();
        builder
            .node_service_rates(&[0.5, 0.5, 0.5, 0.5])
            .cache_capacity_chunks(4)
            .seed(7);
        for _ in 0..3 {
            builder.file(FileConfig::new(0.05, 4, 2, object_bytes));
        }
        SproutSystem::new(builder.build().unwrap()).unwrap()
    }

    fn backend_for(object_bytes: u64, scheme: &CacheScheme) -> StoreBackend {
        system(object_bytes).byte_backend(scheme, 5).unwrap()
    }

    /// One cached chunk per (4, 2) file: the k − d = 1 remaining read
    /// spread over its 4 hosts.
    fn one_chunk_each() -> PlannedCache {
        PlannedCache {
            cached_chunks: vec![1; 3],
            scheduling: vec![vec![0.25; 4]; 3],
        }
    }

    /// Settles a planned hit of file 0 under [`one_chunk_each`]: its one
    /// cached chunk plus a read of row 1 (eligible under exact caching too).
    fn planned_hit(backend: &mut StoreBackend) -> bool {
        let node = backend.store().object_placement(0).unwrap()[1];
        backend.finish_request(FinishedRequest {
            file: 0,
            cache_chunks: 1,
            storage_nodes: &[node],
        })
    }

    #[test]
    fn planned_swap_onto_a_non_planned_store_is_counted_not_silent() {
        // Constructed with the no-cache store policy: a planned swap cannot
        // install chunks of the right kind, so it must clear the cache
        // instead of erroring file by file; each planned hit then fails to
        // reconstruct, which the engine counts.
        let mut backend = backend_for(4096, &CacheScheme::NoCache);
        backend.apply_scheme(&CacheScheme::Functional(one_chunk_each()));
        assert_eq!(backend.store().cache().used_bytes(), 0);
        assert!(!planned_hit(&mut backend));
    }

    #[test]
    fn planned_swap_of_the_other_planned_kind_is_counted_not_silent() {
        // A functional store codes new rows and an exact store copies stored
        // ones, so a plan of the other kind must not be installed as if it
        // were its own: the cache is cleared and planned hits fail.
        let functional = CacheScheme::Functional(one_chunk_each());
        let exact = CacheScheme::Exact(one_chunk_each());
        for (built, swapped) in [(&functional, &exact), (&exact, &functional)] {
            let mut backend = backend_for(4096, built);
            assert!(backend.store().cache().used_bytes() > 0, "{built:?}");
            assert!(planned_hit(&mut backend), "{built:?}");
            backend.apply_scheme(swapped);
            assert_eq!(backend.store().cache().used_bytes(), 0);
            assert!(!planned_hit(&mut backend), "{swapped:?}");
        }
    }

    #[test]
    fn a_plan_that_fails_to_install_leaves_no_object_on_the_old_plan() {
        // d = 3 > k = 2 fails at the last file, after the first two files
        // took their new chunks. Building a backend on it is an error...
        let mut bad = one_chunk_each();
        bad.cached_chunks = vec![2, 2, 3];
        assert!(system(4096)
            .byte_backend(&CacheScheme::Functional(bad.clone()), 5)
            .is_err());
        // ...and swapping it in clears the whole cache, so no planned hit
        // reconstructs.
        let mut backend = backend_for(4096, &CacheScheme::Functional(one_chunk_each()));
        backend.apply_scheme(&CacheScheme::Functional(bad));
        assert_eq!(backend.store().cache().used_bytes(), 0);
        assert!(!planned_hit(&mut backend));
    }

    #[test]
    fn lru_hits_settle_from_the_stored_data_rows() {
        // The engine's tier decides LRU hits; the store keeps no copy of it,
        // so a hit reads the k data rows from the stored snapshot — whether
        // the tier was there from the start or swapped in mid-run.
        let lru = CacheScheme::LruReplicated { capacity_chunks: 4 };
        let mut built = backend_for(4096, &lru);
        let mut swapped = backend_for(4096, &CacheScheme::Functional(one_chunk_each()));
        swapped.apply_scheme(&lru);
        for backend in [&mut built, &mut swapped] {
            for file in 0..3 {
                assert!(backend.finish_request(FinishedRequest {
                    file,
                    cache_chunks: 2,
                    storage_nodes: &[],
                }));
            }
        }
        assert_eq!(built.store().cache().used_bytes(), 0);
        // Swapping the tier out again settles cache chunks from the store's
        // cache once more.
        swapped.apply_scheme(&CacheScheme::Functional(one_chunk_each()));
        assert!(planned_hit(&mut swapped));
    }

    #[test]
    fn cache_reads_sample_the_ssd_model() {
        let mut backend = backend_for(1_000_000, &CacheScheme::NoCache);
        let latency = backend.sample_cache_read(0, 2).unwrap();
        assert!(latency > 0.0, "SSD cache reads take nonzero time");
        // Roughly the Table V scale for a 500 kB chunk: well under the ~6.7 ms
        // HDD read of a 1 MB chunk.
        assert!(latency < 0.005, "cache reads stay SSD-fast, got {latency}");
    }

    #[test]
    fn byte_backend_resolves_the_auto_kernel() {
        // The facade builds its store with the default coding config, so the
        // backend's kernel must be whatever `Kernel::auto()` picks here, and
        // striped large-object coding must be enabled.
        let backend = backend_for(4096, &CacheScheme::NoCache);
        assert_eq!(backend.store().coding_kernel(), Kernel::auto());
        assert!(backend.store().config().striping.is_some());
    }

    /// The reference the lanes are held to: the stream one step per byte.
    fn serial_payload(file: usize, len: usize, seed: u64) -> Vec<u8> {
        let mut state = payload_start(file, seed);
        (0..len)
            .map(|_| {
                state = xorshift(state);
                payload_byte(state)
            })
            .collect()
    }

    #[test]
    fn lanes_reproduce_the_serial_stream_at_every_length() {
        let max = 2 * BLOCK * LANES + 37;
        // The last seed starts file 0 at state 0, xorshift's fixed point.
        let zero_seed = 0x0E21_7C1E_66C8_8CC3;
        assert_eq!(payload_start(0, zero_seed), 0);
        for seed in [5, 41, u64::MAX, zero_seed] {
            let serial = serial_payload(0, max, seed);
            for len in 0..=max {
                assert_eq!(
                    synthetic_payload(0, len, seed),
                    serial[..len],
                    "seed {seed}, len {len}"
                );
            }
        }
        assert!(synthetic_payload(0, max, zero_seed).iter().all(|&b| b == 0));
    }

    #[test]
    fn synthetic_payloads_are_deterministic_and_distinct() {
        let a = synthetic_payload(0, 256, 7);
        let b = synthetic_payload(0, 256, 7);
        let c = synthetic_payload(1, 256, 7);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 256);
    }

    /// The payload bytes are an input of every seeded artifact (oracle
    /// files, `model_mean_s`, the store tests), so they are pinned by
    /// digest: a faster generator must reproduce them exactly.
    #[test]
    fn synthetic_payload_bytes_are_pinned() {
        // The benchmark's repetition seed `mix(seed ^ mix(rep))` for
        // `--seed 1`, repetition 1.
        const BENCH_SEED: u64 = 0xE9FD_6049_D65A_F21E;
        let golden: [(usize, usize, u64, u64); 8] = [
            (0, 0, 7, 0x1413_17E2_B9A3_2701),
            (3, 1, 41, 0x48E6_B999_1FEB_5BC6),
            (1, 4_095, 42, 0x7C9D_E94C_3556_2D24),
            (2, 4_096, 43, 0x765D_0AF5_A574_A980),
            (9, 30_000, 5, 0xE56B_C703_B11A_E8BA),
            (0, 8_000, 3, 0x48B3_AA25_8900_E65C),
            (17, 1 << 20, BENCH_SEED, 0xBC4A_7334_865A_AF6C),
            (255, 65_536, BENCH_SEED, 0xFD31_BA08_14C6_7767),
        ];
        for (file, len, seed, digest) in golden {
            let got = sprout_cluster::checksum64(&synthetic_payload(file, len, seed));
            assert_eq!(
                got, digest,
                "file {file}, len {len}, seed {seed}: {got:#018x}"
            );
        }
    }
}

//! The byte-accurate simulation backend: the event loop of `sprout_sim`
//! driving the real store ([`StoreHandle`]).
//!
//! The analytic backend treats chunks as abstract tokens; [`StoreBackend`]
//! stores every object's actual coded bytes on the cluster substrate,
//! installs the plan's functional (or exact) cache chunks, and — on every
//! request, when the engine settles it at planning time — fetches exactly
//! the chunks the engine scheduled, decodes them and verifies the
//! reconstruction against the original payload. Degraded reads after
//! scenario node failures therefore exercise the real erasure decoder, not
//! a model of it.
//!
//! For the Ceph-style LRU cache tier the engine's
//! [`LruTier`](sprout_cluster::LruTier) is the single source of truth: the
//! engine mirrors every promotion and eviction into this backend
//! ([`ChunkBackend::tier_promote`] / [`ChunkBackend::tier_evict`]), which
//! materializes or drops the object's real data chunks in the store's cache.
//! Engine-declared LRU hits are then served (and decode-verified) from those
//! cached bytes, with the read latency sampled from the cluster's SSD cache
//! device model.
//!
//! Planning randomness lives in the engine and service randomness in the
//! backend, so an analytic run and a byte-accurate run with the same seed
//! make identical chunk-source decisions — see the differential root test.
//! Node service times come from the analytic backend's per-node streams, so
//! they match too; only the SSD cache reads draw from a stream of their
//! own.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sprout_cluster::{CachePolicy, ClusterConfig, Kernel, StoreHandle};
use sprout_erasure::Chunk;
use sprout_queueing::dist::ServiceDistribution;
use sprout_sim::{AnalyticBackend, CacheScheme, ChunkBackend, FinishedRequest};

/// Default payload size for files whose spec declares `size_bytes = 0`
/// (abstract-model specs that never touched bytes before).
pub const DEFAULT_OBJECT_BYTES: u64 = 4096;

/// A [`ChunkBackend`] over the in-memory erasure-coded object store.
#[derive(Debug)]
pub struct StoreBackend {
    store: StoreHandle,
    /// Per-node service-time distributions shared with the analytic backend
    /// (keeps the differential comparison tight).
    service: Vec<ServiceDistribution>,
    /// Per-node service-time streams, seeded as the analytic backend's
    /// ([`AnalyticBackend::service_streams`]).
    service_rngs: Vec<StdRng>,
    /// Cache-device read draws ([`ChunkBackend::sample_cache_read`]).
    rng: StdRng,
    originals: Vec<Vec<u8>>,
    /// Per-file data-chunk length in bytes (drives the SSD cache-read model).
    chunk_lens: Vec<u64>,
    verified: u64,
    failed: u64,
    plan_apply_failures: u64,
    tier_promotions: u64,
    tier_evictions: u64,
    tier_mirror_failures: u64,
}

impl StoreBackend {
    /// Builds a backend from an already-populated store. `dists` are the
    /// per-node service-time distributions (usually the same ones the
    /// analytic backend uses, so latency statistics stay comparable);
    /// `originals[file]` is the payload written for file `file` (object id
    /// `file as u64`), kept for reconstruction verification.
    pub fn new(
        store: StoreHandle,
        dists: Vec<ServiceDistribution>,
        originals: Vec<Vec<u8>>,
        seed: u64,
    ) -> Self {
        assert_eq!(
            dists.len(),
            store.config().num_nodes,
            "one service distribution per storage node"
        );
        let k = store.config().k.max(1);
        let chunk_lens = originals
            .iter()
            .map(|p| p.len().div_ceil(k) as u64)
            .collect();
        StoreBackend {
            store,
            service_rngs: AnalyticBackend::service_streams(seed, dists.len()),
            service: dists,
            rng: StdRng::seed_from_u64(seed ^ 0x570B_ACE0),
            originals,
            chunk_lens,
            verified: 0,
            failed: 0,
            plan_apply_failures: 0,
            tier_promotions: 0,
            tier_evictions: 0,
            tier_mirror_failures: 0,
        }
    }

    /// The underlying store (cache statistics, node contents, ...).
    pub fn store(&self) -> &StoreHandle {
        &self.store
    }

    /// The GF(2^8) slice kernel the store's coder resolved to — with the
    /// default configuration, [`Kernel::auto`]'s pick for this CPU (SIMD on
    /// machines with AVX2/SSSE3, the word kernel otherwise).
    pub fn coding_kernel(&self) -> Kernel {
        self.store.coding_kernel()
    }

    /// Completed requests whose bytes decoded to the original payload.
    pub fn verified_reconstructions(&self) -> u64 {
        self.verified
    }

    /// Completed requests whose reconstruction failed (missing chunks or a
    /// mismatching decode).
    pub fn failed_reconstructions(&self) -> u64 {
        self.failed
    }

    /// Cache-plan swaps that could not be applied to the store (e.g. cache
    /// capacity exceeded).
    pub fn plan_apply_failures(&self) -> u64 {
        self.plan_apply_failures
    }

    /// Objects promoted into the store's cache tier, mirroring the engine's
    /// LRU admissions.
    pub fn tier_promotions(&self) -> u64 {
        self.tier_promotions
    }

    /// Objects dropped from the store's cache tier, mirroring the engine's
    /// LRU evictions.
    pub fn tier_evictions(&self) -> u64 {
        self.tier_evictions
    }

    /// Mirror operations that could not be applied (an eviction for an
    /// object the store never promoted, or a promotion that failed to
    /// decode) — always zero when engine and store are in lockstep.
    pub fn tier_mirror_failures(&self) -> u64 {
        self.tier_mirror_failures
    }

    fn gather(&self, request: &FinishedRequest<'_>) -> Option<Vec<Chunk>> {
        let object = request.file as u64;
        let mut chunks: Vec<Chunk> =
            Vec::with_capacity(request.cache_chunks + request.storage_nodes.len());
        if request.cache_chunks > 0 {
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

    fn is_online(&self, node: usize) -> bool {
        self.store.node(node).is_online()
    }

    fn set_node_online(&mut self, node: usize, online: bool) {
        self.store.set_node_online(node, online);
    }

    fn sample_service(&mut self, node: usize) -> f64 {
        self.service[node].sample(&mut self.service_rngs[node])
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

    fn tier_promote(&mut self, file: usize) {
        match self.store.promote_object(file as u64) {
            Ok(()) => self.tier_promotions += 1,
            Err(_) => self.tier_mirror_failures += 1,
        }
    }

    fn tier_evict(&mut self, file: usize) {
        if self.store.evict_cached(file as u64) {
            self.tier_evictions += 1;
        } else {
            self.tier_mirror_failures += 1;
        }
    }

    fn finish_request(&mut self, request: FinishedRequest<'_>) -> bool {
        let ok = match self.gather(&request) {
            Some(chunks) => self
                .store
                .decode_with_chunks(request.file as u64, &chunks)
                .map(|data| data == self.originals[request.file])
                .unwrap_or(false),
            None => false,
        };
        if ok {
            self.verified += 1;
        } else {
            self.failed += 1;
        }
        ok
    }

    fn apply_scheme(&mut self, scheme: &CacheScheme) {
        let counts = match scheme {
            CacheScheme::Functional { cached_chunks, .. }
            | CacheScheme::Exact { cached_chunks, .. } => cached_chunks.as_slice(),
            // A NoCache swap keeps no planner-managed content; stale store
            // cache entries are harmless because the engine stops planning
            // cache chunks.
            CacheScheme::NoCache => return,
            // An LRU swap restarts the engine's tier cold; drop everything so
            // the store's mirrored residency starts cold too and subsequent
            // tier_promote/tier_evict calls keep both sides in lockstep.
            CacheScheme::LruReplicated { .. } => {
                self.store.reset_cache();
                return;
            }
        };
        // A planned swap needs a planner-managed store policy: the cluster
        // cache policy fixes *what* a cached chunk is (newly coded rows vs
        // copies vs whole objects), and that is set at store construction.
        // On a mismatched store, drop any stale cache content (so no hit is
        // served from chunks of the wrong kind) and record one apply
        // failure; the engine's planned hits will then surface as counted
        // reconstruction failures instead of silent decode mismatches.
        if !self.store.config().cache_policy.is_planned() {
            self.store.reset_cache();
            self.plan_apply_failures += 1;
            return;
        }
        for (file, &d) in counts.iter().enumerate() {
            if file >= self.originals.len() {
                break;
            }
            if self.store.set_cached_chunks(file as u64, d).is_err() {
                self.plan_apply_failures += 1;
            }
        }
    }
}

/// Deterministic pseudo-random payload for file `file` (so reconstruction
/// checks catch any row mixup).
pub fn synthetic_payload(file: usize, len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(file as u64 + 1);
    (0..len)
        .map(|_| {
            // xorshift64*: cheap, full-period, good enough for test payloads
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u8
        })
        .collect()
}

/// Builds a populated store for a uniform-code file population.
///
/// Used by [`crate::SproutSystem::byte_backend`]; exposed for tests that
/// want direct control.
///
/// # Errors
///
/// Propagates cluster construction and write errors.
pub fn populate_store(
    config: ClusterConfig,
    placements: &[Vec<usize>],
    payloads: &[Vec<u8>],
    plan_counts: Option<&[usize]>,
) -> Result<StoreHandle, sprout_cluster::ClusterError> {
    let store = StoreHandle::new(config)?;
    for (file, (placement, payload)) in placements.iter().zip(payloads).enumerate() {
        store.put_with_placement(file as u64, payload, placement.clone())?;
    }
    if let Some(counts) = plan_counts {
        if store.config().cache_policy.is_planned() {
            for (file, &d) in counts.iter().enumerate().take(payloads.len()) {
                store.set_cached_chunks(file as u64, d)?;
            }
        }
    }
    Ok(store)
}

/// Maps a facade cache-policy choice onto the cluster substrate's policy.
pub fn cluster_policy_for(policy: crate::system::CachePolicyChoice) -> CachePolicy {
    match policy {
        crate::system::CachePolicyChoice::NoCache => CachePolicy::None,
        crate::system::CachePolicyChoice::Functional => CachePolicy::Functional,
        crate::system::CachePolicyChoice::Exact => CachePolicy::Exact,
        crate::system::CachePolicyChoice::LruReplicated => CachePolicy::ceph_baseline(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FileConfig, SystemSpec};
    use crate::system::{CachePolicyChoice, SproutSystem};
    use sprout_sim::ChunkBackend;

    fn byte_backend_for(object_bytes: u64) -> StoreBackend {
        let mut builder = SystemSpec::builder();
        builder
            .node_service_rates(&[0.5, 0.5, 0.5, 0.5])
            .cache_capacity_chunks(4)
            .seed(7);
        for _ in 0..3 {
            builder.file(FileConfig::new(0.05, 4, 2, object_bytes));
        }
        let system = SproutSystem::new(builder.build().unwrap()).unwrap();
        system
            .byte_backend(CachePolicyChoice::NoCache, None, 5)
            .unwrap()
    }

    #[test]
    fn planned_swap_onto_a_non_planned_store_is_counted_not_silent() {
        use sprout_sim::policy::SchedulingRule;
        // Constructed with the NoCache cluster policy: a planned swap cannot
        // install chunks of the right kind, so it must clear the cache and
        // count an apply failure instead of erroring file by file.
        let mut backend = byte_backend_for(4096);
        backend.apply_scheme(&CacheScheme::Functional {
            cached_chunks: vec![1; 3],
            // (4, 2) files: the k − d = 1 remaining read spread over 4 hosts.
            scheduling: vec![vec![0.25; 4]; 3],
            rule: SchedulingRule::Probabilistic,
        });
        assert_eq!(backend.plan_apply_failures(), 1);
        assert_eq!(backend.store().cache().used_bytes(), 0);
    }

    #[test]
    fn cache_reads_sample_the_ssd_model() {
        let mut backend = byte_backend_for(1_000_000);
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
        let backend = byte_backend_for(4096);
        assert_eq!(backend.coding_kernel(), Kernel::auto());
        assert!(backend.store().config().striping.is_some());
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

    #[test]
    fn policy_mapping_covers_every_policy() {
        use crate::system::CachePolicyChoice as C;
        assert_eq!(cluster_policy_for(C::NoCache), CachePolicy::None);
        assert_eq!(cluster_policy_for(C::Functional), CachePolicy::Functional);
        assert_eq!(cluster_policy_for(C::Exact), CachePolicy::Exact);
        assert_eq!(
            cluster_policy_for(C::LruReplicated),
            CachePolicy::ceph_baseline()
        );
    }
}

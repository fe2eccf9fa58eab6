//! The erasure-coded object store's static description ([`ClusterConfig`])
//! and read result ([`ReadOutcome`]); the store itself is
//! [`StoreHandle`](crate::StoreHandle).

use sprout_erasure::{Kernel, StripeOpts};

use crate::cache::CachePolicy;
use crate::device::DeviceModel;
use crate::placement::PlacementChoice;

/// Static description of a cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of storage nodes (OSDs).
    pub num_nodes: usize,
    /// Erasure-code parameter `n` (storage chunks per object).
    pub n: usize,
    /// Erasure-code parameter `k` (data chunks per object).
    pub k: usize,
    /// Per-node device models; length must equal `num_nodes`.
    pub devices: Vec<DeviceModel>,
    /// Cache policy at the compute server.
    pub cache_policy: CachePolicy,
    /// Cache capacity in bytes.
    pub cache_capacity_bytes: u64,
    /// Device model of the cache.
    pub cache_device: DeviceModel,
    /// Seed for placement and service-time sampling.
    pub seed: u64,
    /// Chunk-placement strategy (defaults to the paper's random placement
    /// groups, [`PlacementChoice::RandomGroups`]).
    pub placement: PlacementChoice,
    /// GF(2^8) slice kernel for all coding; `None` (the default) resolves
    /// to [`Kernel::auto`] — the best rung the running CPU supports.
    pub coding_kernel: Option<Kernel>,
    /// Striped multi-threaded coding for large objects; `Some` (the
    /// default) makes put/get of multi-MiB objects fan chunk-length stripes
    /// out over a scoped thread pool. Coded bytes are identical either way.
    pub striping: Option<StripeOpts>,
}

impl ClusterConfig {
    /// Starts building a configuration.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder::default()
    }
}

/// Builder for [`ClusterConfig`].
#[derive(Debug, Clone)]
pub struct ClusterConfigBuilder {
    num_nodes: usize,
    n: usize,
    k: usize,
    devices: Option<Vec<DeviceModel>>,
    cache_policy: CachePolicy,
    cache_capacity_bytes: u64,
    cache_device: DeviceModel,
    seed: u64,
    placement: PlacementChoice,
    coding_kernel: Option<Kernel>,
    striping: Option<StripeOpts>,
}

impl Default for ClusterConfigBuilder {
    fn default() -> Self {
        ClusterConfigBuilder {
            num_nodes: 12,
            n: 7,
            k: 4,
            devices: None,
            cache_policy: CachePolicy::Functional,
            cache_capacity_bytes: 10 * 1_000_000_000,
            cache_device: DeviceModel::ssd(),
            seed: 0,
            placement: PlacementChoice::default(),
            coding_kernel: None,
            striping: Some(StripeOpts::default()),
        }
    }
}

impl ClusterConfigBuilder {
    /// Sets the number of storage nodes.
    pub fn nodes(&mut self, num_nodes: usize) -> &mut Self {
        self.num_nodes = num_nodes;
        self
    }

    /// Sets the erasure code `(n, k)`.
    pub fn code(&mut self, n: usize, k: usize) -> &mut Self {
        self.n = n;
        self.k = k;
        self
    }

    /// Sets one device model for every node.
    pub fn uniform_device(&mut self, device: DeviceModel) -> &mut Self {
        self.devices = Some(vec![device; self.num_nodes]);
        self
    }

    /// Sets the cache policy.
    pub fn cache_policy(&mut self, policy: CachePolicy) -> &mut Self {
        self.cache_policy = policy;
        self
    }

    /// Sets the cache capacity in bytes.
    pub fn cache_capacity_bytes(&mut self, bytes: u64) -> &mut Self {
        self.cache_capacity_bytes = bytes;
        self
    }

    /// Sets the cache device model.
    pub fn cache_device(&mut self, device: DeviceModel) -> &mut Self {
        self.cache_device = device;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Sets the chunk-placement strategy.
    pub fn placement(&mut self, placement: PlacementChoice) -> &mut Self {
        self.placement = placement;
        self
    }

    /// Pins the GF(2^8) slice kernel (`None` → [`Kernel::auto`]).
    pub fn coding_kernel(&mut self, kernel: Option<Kernel>) -> &mut Self {
        self.coding_kernel = kernel;
        self
    }

    /// Configures striped multi-threaded coding of large objects (`None`
    /// disables it; the default is [`StripeOpts::default`]).
    pub fn striping(&mut self, striping: Option<StripeOpts>) -> &mut Self {
        self.striping = striping;
        self
    }

    /// Finalizes the configuration.
    pub fn build(&self) -> ClusterConfig {
        ClusterConfig {
            num_nodes: self.num_nodes,
            n: self.n,
            k: self.k,
            devices: self
                .devices
                .clone()
                .unwrap_or_else(|| vec![DeviceModel::hdd(); self.num_nodes]),
            cache_policy: self.cache_policy,
            cache_capacity_bytes: self.cache_capacity_bytes,
            cache_device: self.cache_device,
            seed: self.seed,
            placement: self.placement.clone(),
            coding_kernel: self.coding_kernel,
            striping: self.striping,
        }
    }
}

/// The result of a read.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadOutcome {
    /// The reconstructed object bytes.
    pub data: Vec<u8>,
    /// End-to-end latency of the read in virtual seconds.
    pub latency: f64,
    /// Number of chunks fetched from storage nodes.
    pub storage_chunks_used: usize,
    /// Number of chunks served by the cache.
    pub cache_chunks_used: usize,
    /// Storage nodes that served chunks, in the order they were selected.
    pub nodes_used: Vec<usize>,
}

#[cfg(test)]
mod tests {
    // Single-owner behaviour of `StoreHandle` (config in, `ReadOutcome` out);
    // its concurrency tests live next to it in `handle.rs`.
    use super::*;
    use crate::error::ClusterError;
    use crate::handle::StoreHandle;
    use sprout_erasure::{Chunk, CodingError};

    fn payload(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    fn store(policy: CachePolicy) -> StoreHandle {
        let config = ClusterConfig::builder()
            .nodes(8)
            .code(7, 4)
            .uniform_device(DeviceModel::exponential(0.010))
            .cache_policy(policy)
            .cache_capacity_bytes(1_000_000)
            .seed(11)
            .build();
        StoreHandle::new(config).unwrap()
    }

    #[test]
    fn put_get_round_trip_without_cache() {
        let s = store(CachePolicy::None);
        let data = payload(10_000, 1);
        s.put(1, &data).unwrap();
        assert_eq!(s.num_objects(), 1);
        let out = s.get(1, 0.0).unwrap();
        assert_eq!(out.data, data);
        assert_eq!(out.storage_chunks_used, 4);
        assert_eq!(out.cache_chunks_used, 0);
        assert!(out.latency > 0.0);
        assert_eq!(out.nodes_used.len(), 4);
    }

    #[test]
    fn striped_multi_mib_put_get_matches_unstriped() {
        // Defaults: kernel auto + striping on. Pin: scalar kernel, no
        // striping. Stored chunk bytes and read-back data must be identical.
        let data = payload(3 * 1024 * 1024 + 13, 7);
        let fast = store(CachePolicy::None);
        assert!(fast.config().striping.is_some(), "striping on by default");
        assert_eq!(fast.coding_kernel(), Kernel::auto());
        let pinned_config = ClusterConfig::builder()
            .nodes(8)
            .code(7, 4)
            .uniform_device(DeviceModel::exponential(0.010))
            .cache_policy(CachePolicy::None)
            .cache_capacity_bytes(1_000_000)
            .seed(11)
            .coding_kernel(Some(Kernel::Scalar))
            .striping(None)
            .build();
        let slow = StoreHandle::new(pinned_config).unwrap();
        assert_eq!(slow.coding_kernel(), Kernel::Scalar);
        fast.put(9, &data).unwrap();
        slow.put(9, &data).unwrap();
        for node in 0..8 {
            assert_eq!(
                fast.chunk_on_node(9, node).map(|c| c.data),
                slow.chunk_on_node(9, node).map(|c| c.data),
                "chunk bytes must be kernel- and stripe-invariant (node {node})"
            );
        }
        assert_eq!(fast.get(9, 0.0).unwrap().data, data);
        assert_eq!(slow.get(9, 0.0).unwrap().data, data);
    }

    #[test]
    fn unknown_object_is_an_error() {
        let s = store(CachePolicy::None);
        assert_eq!(
            s.get(404, 0.0).unwrap_err(),
            ClusterError::UnknownObject(404)
        );
    }

    #[test]
    fn functional_cache_serves_part_of_the_read() {
        let s = store(CachePolicy::Functional);
        let data = payload(20_000, 2);
        s.put(5, &data).unwrap();
        s.set_cached_chunks(5, 2).unwrap();
        assert_eq!(s.cache().peek(5).map_or(0, <[_]>::len), 2);
        let out = s.get(5, 0.0).unwrap();
        assert_eq!(out.data, data);
        assert_eq!(out.cache_chunks_used, 2);
        assert_eq!(out.storage_chunks_used, 2);
        // Fully cached: no storage reads at all.
        s.set_cached_chunks(5, 4).unwrap();
        let out = s.get(5, 0.0).unwrap();
        assert_eq!(out.data, data);
        assert_eq!(out.storage_chunks_used, 0);
        assert_eq!(out.cache_chunks_used, 4);
        // Shrinking back to zero removes the entry.
        s.set_cached_chunks(5, 0).unwrap();
        assert_eq!(s.cache().peek(5).map_or(0, <[_]>::len), 0);
    }

    #[test]
    fn exact_cache_excludes_hosts_of_cached_rows() {
        let s = store(CachePolicy::Exact);
        let data = payload(8_000, 3);
        s.put(9, &data).unwrap();
        s.set_cached_chunks(9, 2).unwrap();
        let placement = s.object_placement(9).unwrap().to_vec();
        let out = s.get(9, 0.0).unwrap();
        assert_eq!(out.data, data);
        assert_eq!(out.cache_chunks_used, 2);
        assert_eq!(out.storage_chunks_used, 2);
        // The hosts of rows 0 and 1 (the exact-cached rows) must not serve.
        assert!(!out.nodes_used.contains(&placement[0]));
        assert!(!out.nodes_used.contains(&placement[1]));
    }

    #[test]
    fn lru_cache_promotes_on_miss_and_hits_afterwards() {
        let s = store(CachePolicy::LruReplicated);
        let data = payload(4_000, 4);
        s.put(77, &data).unwrap();
        let miss = s.get(77, 0.0).unwrap();
        assert_eq!(miss.cache_chunks_used, 0);
        assert_eq!(miss.data, data);
        let hit = s.get(77, 100.0).unwrap();
        assert_eq!(hit.storage_chunks_used, 0);
        assert_eq!(hit.data, data);
        assert!(hit.latency < miss.latency);
        assert!(s.cache_stats().hits >= 1);
    }

    #[test]
    fn node_failures_are_tolerated_up_to_n_minus_k() {
        let s = store(CachePolicy::None);
        let data = payload(6_000, 5);
        s.put(3, &data).unwrap();
        let placement = s.object_placement(3).unwrap().to_vec();
        // (7,4): up to 3 node failures are fine.
        for &node in placement.iter().take(3) {
            s.set_node_online(node, false);
        }
        assert_eq!(s.get(3, 0.0).unwrap().data, data);
        // a fourth failure makes the object unreadable
        s.set_node_online(placement[3], false);
        assert!(matches!(
            s.get(3, 0.0).unwrap_err(),
            ClusterError::NotEnoughReplicas { required: 4, .. }
        ));
        // recovery restores readability
        s.set_node_online(placement[0], true);
        assert_eq!(s.get(3, 0.0).unwrap().data, data);
    }

    #[test]
    fn queueing_under_back_to_back_reads_increases_latency() {
        let s = store(CachePolicy::None);
        let data = payload(50_000, 6);
        s.put(8, &data).unwrap();
        let first = s.get(8, 0.0).unwrap().latency;
        // many reads at the same instant pile up in the FIFO queues
        let mut last = first;
        for _ in 0..20 {
            last = s.get(8, 0.0).unwrap().latency;
        }
        assert!(
            last > first,
            "queueing should grow latency: {first} -> {last}"
        );
        // reads far in the future see empty queues again
        let later = s.get(8, 1e9).unwrap().latency;
        assert!(later < last);
    }

    #[test]
    fn delete_removes_chunks_everywhere() {
        let s = store(CachePolicy::Functional);
        let data = payload(5_000, 7);
        s.put(2, &data).unwrap();
        s.set_cached_chunks(2, 1).unwrap();
        s.delete(2);
        assert_eq!(s.num_objects(), 0);
        assert!(matches!(s.get(2, 0.0), Err(ClusterError::UnknownObject(2))));
        assert_eq!(s.cache().peek(2).map_or(0, <[_]>::len), 0);
        let total_chunks: usize = (0..8).map(|i| s.node(i).num_chunks()).sum();
        assert_eq!(total_chunks, 0);
    }

    #[test]
    fn explicit_placement_is_honoured_and_validated() {
        let s = store(CachePolicy::None);
        let data = payload(3_000, 8);
        s.put_with_placement(1, &data, vec![0, 1, 2, 3, 4, 5, 6])
            .unwrap();
        assert_eq!(s.object_placement(1).unwrap(), &[0, 1, 2, 3, 4, 5, 6]);
        assert!(s.put_with_placement(2, &data, vec![0, 1, 2]).is_err());
        assert!(s
            .put_with_placement(2, &data, vec![0, 0, 1, 2, 3, 4, 5])
            .is_err());
        assert!(s
            .put_with_placement(2, &data, vec![0, 1, 2, 3, 4, 5, 99])
            .is_err());
    }

    #[test]
    fn set_cached_chunks_requires_planned_policy_and_known_object() {
        let s = store(CachePolicy::LruReplicated);
        let data = payload(1_000, 9);
        s.put(1, &data).unwrap();
        assert!(matches!(
            s.set_cached_chunks(1, 1),
            Err(ClusterError::InvalidConfig(_))
        ));
        let s = store(CachePolicy::Functional);
        assert!(matches!(
            s.set_cached_chunks(1, 1),
            Err(ClusterError::UnknownObject(1))
        ));
        s.put(1, &data).unwrap();
        assert!(matches!(
            s.set_cached_chunks(1, 9),
            Err(ClusterError::Coding(_))
        ));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut builder = ClusterConfig::builder();
        let bad = builder.nodes(3).code(7, 4).build();
        assert!(matches!(
            StoreHandle::new(bad),
            Err(ClusterError::InvalidConfig(_))
        ));
        let mut builder = ClusterConfig::builder();
        let mut cfg = builder.nodes(8).code(7, 4).build();
        cfg.devices.truncate(3);
        assert!(matches!(
            StoreHandle::new(cfg),
            Err(ClusterError::InvalidConfig(_))
        ));
        let mut builder = ClusterConfig::builder();
        let bad_code = builder.nodes(8).code(4, 7).build();
        assert!(matches!(
            StoreHandle::new(bad_code),
            Err(ClusterError::Coding(_))
        ));
    }

    #[test]
    fn chunk_on_node_follows_the_placement() {
        let s = store(CachePolicy::None);
        let data = payload(9_000, 12);
        s.put(4, &data).unwrap();
        let placement = s.object_placement(4).unwrap().to_vec();
        for (row, &node) in placement.iter().enumerate() {
            let c = s.chunk_on_node(4, node).unwrap();
            assert_eq!(c.id.index, row);
        }
        // A node outside the placement hosts nothing.
        let outside = (0..8).find(|n| !placement.contains(n)).unwrap();
        assert!(s.chunk_on_node(4, outside).is_none());
        assert!(s.chunk_on_node(999, placement[0]).is_none());
    }

    #[test]
    fn decode_with_chunks_reconstructs_from_any_k_rows() {
        let s = store(CachePolicy::None);
        let data = payload(11_000, 13);
        s.put(6, &data).unwrap();
        let placement = s.object_placement(6).unwrap().to_vec();
        // Gather rows 3..7 (parity-heavy subset) by node.
        let chunks: Vec<Chunk> = placement[3..7]
            .iter()
            .map(|&n| s.chunk_on_node(6, n).unwrap())
            .collect();
        assert_eq!(s.decode_with_chunks(6, &chunks).unwrap(), data);
        assert!(matches!(
            s.decode_with_chunks(7, &chunks),
            Err(ClusterError::UnknownObject(7))
        ));
        assert!(s.decode_with_chunks(6, &chunks[..2]).is_err());
    }

    #[test]
    fn stored_and_cached_chunks_share_payload_allocations() {
        let s = store(CachePolicy::Exact);
        let data = payload(12_000, 14);
        s.put(8, &data).unwrap();
        s.set_cached_chunks(8, 2).unwrap();
        let placement = s.object_placement(8).unwrap().to_vec();
        // Exact caching copies storage rows 0 and 1 into the cache: the cache
        // entry must alias the node's allocation, not duplicate it.
        let node_chunk_ptr = s.chunk_on_node(8, placement[0]).unwrap().data.as_ptr();
        let cache = s.cache();
        let cache_ptr = cache
            .peek(8)
            .unwrap()
            .iter()
            .find(|c| c.id.index == 0)
            .expect("row 0 is cached")
            .data
            .as_ptr();
        assert_eq!(
            cache_ptr, node_chunk_ptr,
            "exact-cached chunk must share the stored allocation"
        );
    }

    #[test]
    fn a_whole_object_functional_entry_is_the_stored_data_rows() {
        let s = store(CachePolicy::Functional);
        let data = payload(20_001, 15);
        s.put(3, &data).unwrap();
        s.set_cached_chunks(3, 4).unwrap();
        let placement = s.object_placement(3).unwrap();
        // Nothing is coded: the entry views the stored rows 0..k.
        let cached = s.cache().lookup(3);
        assert_eq!(cached.len(), 4);
        for (row, chunk) in cached.iter().enumerate() {
            assert_eq!(chunk.id.index, row);
            let stored = s.chunk_on_node(3, placement[row]).unwrap();
            assert_eq!(chunk.data.as_ptr(), stored.data.as_ptr());
            assert_eq!(chunk.len(), stored.len());
        }
        // A full hit returns the written bytes without a storage read.
        let out = s.get(3, 0.0).unwrap();
        assert_eq!(out.data, data);
        assert_eq!((out.cache_chunks_used, out.storage_chunks_used), (4, 0));
        assert!(out.nodes_used.is_empty());
        // A partial entry still codes rows n..n + d.
        s.set_cached_chunks(3, 3).unwrap();
        let rows: Vec<usize> = s
            .cache()
            .peek(3)
            .unwrap()
            .iter()
            .map(|c| c.id.index)
            .collect();
        assert_eq!(rows, vec![7, 8, 9]);
    }

    #[test]
    fn an_overwrite_drops_a_whole_object_entry() {
        let s = store(CachePolicy::Functional);
        let first = payload(9_000, 16);
        let second = payload(9_000, 17);
        s.put(4, &first).unwrap();
        s.set_cached_chunks(4, 4).unwrap();
        assert_eq!(s.get(4, 0.0).unwrap().data, first);
        s.put(4, &second).unwrap();
        assert!(
            s.cache().peek(4).is_none(),
            "the old version's rows stay cached"
        );
        let out = s.get(4, 1.0).unwrap();
        assert_eq!(out.data, second);
        assert_eq!(out.cache_chunks_used, 0);
        s.set_cached_chunks(4, 4).unwrap();
        assert_eq!(s.get(4, 2.0).unwrap().data, second);
    }

    #[test]
    fn exact_caching_rejects_more_than_k_chunks() {
        let s = store(CachePolicy::Exact);
        s.put(2, &payload(5_000, 18)).unwrap();
        assert_eq!(
            s.set_cached_chunks(2, 5),
            Err(ClusterError::Coding(CodingError::TooManyCacheChunks {
                requested: 5,
                max: 4
            }))
        );
        assert!(s.cache().peek(2).is_none());
        s.set_cached_chunks(2, 4).unwrap();
        assert_eq!(s.cache().peek(2).map_or(0, <[_]>::len), 4);
    }

    #[test]
    fn overwriting_an_object_replaces_its_contents() {
        let s = store(CachePolicy::None);
        let first = payload(2_000, 10);
        let second = payload(3_000, 11);
        s.put(6, &first).unwrap();
        s.put(6, &second).unwrap();
        assert_eq!(s.get(6, 0.0).unwrap().data, second);
        assert_eq!(s.num_objects(), 1);
    }
}

//! System specifications: nodes, files, codes, placement and cache size.

use sprout_cluster::{ClusterView, PlacementChoice};
use sprout_queueing::dist::ServiceDistribution;

use crate::error::SproutError;

/// Per-file configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FileConfig {
    /// Request arrival rate in the current time bin (requests/second).
    pub arrival_rate: f64,
    /// Data chunks `k` needed to reconstruct the file.
    pub k: usize,
    /// Coded chunks `n` stored on storage nodes.
    pub n: usize,
    /// File size in bytes (used by the cluster substrate and byte-based
    /// cache accounting; irrelevant to the abstract latency model).
    pub size_bytes: u64,
    /// Explicit placement onto nodes; `None` lets the CRUSH-like placement
    /// map decide.
    pub placement: Option<Vec<usize>>,
}

impl FileConfig {
    /// Creates a file configuration with automatic placement.
    pub fn new(arrival_rate: f64, n: usize, k: usize, size_bytes: u64) -> Self {
        FileConfig {
            arrival_rate,
            k,
            n,
            size_bytes,
            placement: None,
        }
    }

    /// Pins the file to an explicit set of nodes.
    pub fn with_placement(mut self, placement: Vec<usize>) -> Self {
        self.placement = Some(placement);
        self
    }
}

/// A complete description of the storage system for one time bin.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemSpec {
    /// Per-node chunk service-time distributions.
    pub node_services: Vec<ServiceDistribution>,
    /// The file population.
    pub files: Vec<FileConfig>,
    /// Cache capacity in chunks.
    pub cache_capacity_chunks: usize,
    /// Seed used for placement and simulation reproducibility.
    pub seed: u64,
    /// Strategy assigning chunks of files without an explicit placement to
    /// nodes (defaults to the paper's random placement groups).
    pub placement: PlacementChoice,
}

impl SystemSpec {
    /// Starts building a specification.
    pub fn builder() -> SystemSpecBuilder {
        SystemSpecBuilder::default()
    }

    /// Resolves every file's placement: files without an explicit placement
    /// are assigned one by the configured [`PlacementChoice`] strategy with
    /// every node online. File `i` places as object id `i`; auto-placed files
    /// go through [`Placement::place_batch`](sprout_cluster::Placement) in
    /// file order so load-aware strategies spread the whole population.
    ///
    /// # Errors
    ///
    /// Returns [`SproutError::InvalidSpec`] if an explicit placement is
    /// malformed (wrong length, duplicate or out-of-range nodes) or if a file
    /// needs more nodes than the cluster has.
    pub(crate) fn resolved_placements(&self) -> Result<Vec<Vec<usize>>, SproutError> {
        self.resolved_placements_under(&ClusterView::all_online(self.node_services.len().max(1)))
    }

    /// [`resolved_placements`](Self::resolved_placements) under an explicit
    /// membership view: auto-placed files only land on online nodes. The view
    /// must describe this spec's cluster.
    ///
    /// # Errors
    ///
    /// As [`resolved_placements`](Self::resolved_placements); additionally if
    /// a file needs more nodes than the view has online.
    pub(crate) fn resolved_placements_under(
        &self,
        view: &ClusterView,
    ) -> Result<Vec<Vec<usize>>, SproutError> {
        let strategy = self
            .placement
            .build(self.node_services.len().max(1), self.seed);
        let mut out: Vec<Option<Vec<usize>>> = Vec::with_capacity(self.files.len());
        let mut auto: Vec<(u64, usize)> = Vec::new();
        for (i, file) in self.files.iter().enumerate() {
            if file.n > self.node_services.len() {
                return Err(SproutError::InvalidSpec(format!(
                    "file {i} needs {} nodes but the cluster has {}",
                    file.n,
                    self.node_services.len()
                )));
            }
            if file.n > view.online_count() {
                return Err(SproutError::InvalidSpec(format!(
                    "file {i} needs {} nodes but only {} are online",
                    file.n,
                    view.online_count()
                )));
            }
            match &file.placement {
                Some(p) => {
                    if p.len() != file.n {
                        return Err(SproutError::InvalidSpec(format!(
                            "file {i}: placement lists {} nodes but n = {}",
                            p.len(),
                            file.n
                        )));
                    }
                    let mut seen = std::collections::HashSet::new();
                    for &node in p {
                        if node >= self.node_services.len() || !seen.insert(node) {
                            return Err(SproutError::InvalidSpec(format!(
                                "file {i}: invalid or duplicate node {node} in placement"
                            )));
                        }
                    }
                    out.push(Some(p.clone()));
                }
                None => {
                    auto.push((i as u64, file.n));
                    out.push(None);
                }
            }
        }
        let placed = strategy.place_batch(&auto, view);
        for ((i, _), placement) in auto.into_iter().zip(placed) {
            out[i as usize] = Some(placement);
        }
        Ok(out
            .into_iter()
            .map(|p| p.expect("every slot filled"))
            .collect())
    }
}

/// Builder for [`SystemSpec`].
#[derive(Debug, Clone, Default)]
pub struct SystemSpecBuilder {
    node_services: Vec<ServiceDistribution>,
    files: Vec<FileConfig>,
    cache_capacity_chunks: usize,
    seed: u64,
    placement: PlacementChoice,
}

impl SystemSpecBuilder {
    /// Sets per-node exponential service rates (chunks per second), the way
    /// the paper's simulation section specifies its 12 servers.
    pub fn node_service_rates(&mut self, rates: &[f64]) -> &mut Self {
        self.node_services = rates
            .iter()
            .map(|&mu| ServiceDistribution::exponential(mu))
            .collect();
        self
    }

    /// Sets the paper's 12 heterogeneous servers (§V-A): exponential chunk
    /// service at the measured rates of
    /// [`paper_server_service_rates`](sprout_workload::spec::paper_server_service_rates).
    pub fn paper_servers(&mut self) -> &mut Self {
        self.node_service_rates(&sprout_workload::spec::paper_server_service_rates())
    }

    /// Sets arbitrary per-node service distributions.
    pub fn node_services(&mut self, services: Vec<ServiceDistribution>) -> &mut Self {
        self.node_services = services;
        self
    }

    /// Adds one file.
    pub fn file(&mut self, file: FileConfig) -> &mut Self {
        self.files.push(file);
        self
    }

    /// Adds `count` identical files (automatic placement) with the given code
    /// and arrival rate.
    pub fn uniform_files(
        &mut self,
        count: usize,
        k: usize,
        n: usize,
        arrival_rate: f64,
    ) -> &mut Self {
        for _ in 0..count {
            self.files.push(FileConfig::new(arrival_rate, n, k, 0));
        }
        self
    }

    /// Adds files with the paper's grouped simulation arrival rates
    /// (`{0.000156, 0.000156, 0.000125, 0.000167, 0.000104}` cycling).
    pub fn paper_files(&mut self, count: usize, n: usize, k: usize, size_bytes: u64) -> &mut Self {
        for rate in sprout_workload::spec::paper_simulation_rates(count) {
            self.files.push(FileConfig::new(rate, n, k, size_bytes));
        }
        self
    }

    /// Sets the cache capacity in chunks.
    pub fn cache_capacity_chunks(&mut self, chunks: usize) -> &mut Self {
        self.cache_capacity_chunks = chunks;
        self
    }

    /// Sets the seed used for placement and simulations.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Sets the chunk-placement strategy for files without an explicit
    /// placement (defaults to the paper's random placement groups).
    pub fn placement_strategy(&mut self, placement: PlacementChoice) -> &mut Self {
        self.placement = placement;
        self
    }

    /// Validates and builds the specification.
    ///
    /// # Errors
    ///
    /// Returns [`SproutError::InvalidSpec`] if there are no nodes, no files,
    /// or a file has `k = 0` or `n < k`.
    pub fn build(&self) -> Result<SystemSpec, SproutError> {
        if self.node_services.is_empty() {
            return Err(SproutError::InvalidSpec("no storage nodes".into()));
        }
        if self.files.is_empty() {
            return Err(SproutError::InvalidSpec("no files".into()));
        }
        for (i, f) in self.files.iter().enumerate() {
            if f.k == 0 || f.n < f.k {
                return Err(SproutError::InvalidSpec(format!(
                    "file {i} has invalid code ({}, {})",
                    f.n, f.k
                )));
            }
        }
        let spec = SystemSpec {
            node_services: self.node_services.clone(),
            files: self.files.clone(),
            cache_capacity_chunks: self.cache_capacity_chunks,
            seed: self.seed,
            placement: self.placement.clone(),
        };
        // Validate explicit placements eagerly so errors surface at build time.
        spec.resolved_placements()?;
        Ok(spec)
    }
}

/// The paper's §V-A simulation setup: 12 heterogeneous servers, `num_files`
/// files of 100 MB each with a (7, 4) code, and a cache of `cache_chunks`
/// chunks (the paper's default is 1000 files and 500 chunks of 25 MB). The
/// grouped per-file rates are scaled by `1000 / num_files`, so every node
/// carries the paper's 1000-file load at any file count; at 1000 files the
/// rates are the published ones.
///
/// # Panics
///
/// Panics if `num_files` is zero.
pub fn paper_simulation_spec(num_files: usize, cache_chunks: usize) -> SystemSpec {
    let mut spec = SystemSpec::builder()
        .paper_servers()
        .paper_files(num_files, 7, 4, 100 * sprout_workload::spec::MB)
        .cache_capacity_chunks(cache_chunks)
        .seed(2016)
        .build()
        .expect("the paper's simulation setup is a valid specification");
    let scale = 1000.0 / num_files as f64;
    for file in &mut spec.files {
        file.arrival_rate *= scale;
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_happy_path() {
        let spec = SystemSpec::builder()
            .node_service_rates(&[0.1, 0.2, 0.3, 0.4])
            .uniform_files(3, 2, 3, 0.01)
            .cache_capacity_chunks(4)
            .seed(1)
            .build()
            .unwrap();
        assert_eq!(spec.node_services.len(), 4);
        assert_eq!(spec.files.len(), 3);
        let placements = spec.resolved_placements().unwrap();
        assert!(placements.iter().all(|p| p.len() == 3));
    }

    #[test]
    fn explicit_placement_is_respected_and_validated() {
        let mut builder = SystemSpec::builder();
        builder
            .node_service_rates(&[0.1, 0.2, 0.3, 0.4])
            .file(FileConfig::new(0.01, 3, 2, 0).with_placement(vec![3, 1, 0]))
            .cache_capacity_chunks(0);
        let spec = builder.build().unwrap();
        assert_eq!(spec.resolved_placements().unwrap()[0], vec![3, 1, 0]);

        let mut bad = SystemSpec::builder();
        bad.node_service_rates(&[0.1, 0.2])
            .file(FileConfig::new(0.01, 2, 2, 0).with_placement(vec![0, 0]));
        assert!(matches!(bad.build(), Err(SproutError::InvalidSpec(_))));
    }

    #[test]
    fn invalid_specs_are_rejected() {
        assert!(SystemSpec::builder().build().is_err());
        assert!(SystemSpec::builder()
            .node_service_rates(&[0.1])
            .build()
            .is_err());
        assert!(SystemSpec::builder()
            .node_service_rates(&[0.1])
            .uniform_files(1, 0, 2, 0.1)
            .build()
            .is_err());
        assert!(SystemSpec::builder()
            .node_service_rates(&[0.1])
            .uniform_files(1, 3, 2, 0.1)
            .build()
            .is_err());
        // n larger than cluster
        assert!(SystemSpec::builder()
            .node_service_rates(&[0.1, 0.1])
            .uniform_files(1, 2, 3, 0.1)
            .build()
            .is_err());
    }

    #[test]
    fn placement_strategy_changes_auto_placements_only() {
        let mut base = SystemSpec::builder();
        base.node_service_rates(&[0.1; 12])
            .uniform_files(50, 4, 7, 0.01)
            .file(FileConfig::new(0.01, 7, 4, 0).with_placement(vec![0, 1, 2, 3, 4, 5, 6]))
            .cache_capacity_chunks(4)
            .seed(9);
        let random = base.build().unwrap();
        let ring = base
            .placement_strategy(PlacementChoice::ConsistentHash { vnodes: 64 })
            .build()
            .unwrap();
        let a = random.resolved_placements().unwrap();
        let b = ring.resolved_placements().unwrap();
        // The pinned file keeps its placement under every strategy…
        assert_eq!(a[50], vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(b[50], vec![0, 1, 2, 3, 4, 5, 6]);
        // …while at least one auto-placed file moves.
        assert_ne!(a, b);
        assert!(b.iter().all(|p| p.len() == 7));
    }

    #[test]
    fn placements_under_a_degraded_view_avoid_the_down_node() {
        let spec = SystemSpec::builder()
            .node_service_rates(&[0.1; 12])
            .uniform_files(20, 4, 7, 0.01)
            .cache_capacity_chunks(4)
            .seed(9)
            .build()
            .unwrap();
        let view = ClusterView::all_online(12).with_node_online(3, false);
        let placements = spec.resolved_placements_under(&view).unwrap();
        assert!(placements.iter().all(|p| !p.contains(&3)));
        assert!(placements.iter().all(|p| p.len() == 7));
    }

    #[test]
    fn paper_spec_matches_the_described_setup() {
        let spec = paper_simulation_spec(1000, 500);
        assert_eq!(spec.node_services.len(), 12);
        assert_eq!(spec.files.len(), 1000);
        assert!(spec.files.iter().all(|f| f.n == 7 && f.k == 4));
        let total: f64 = spec.files.iter().map(|f| f.arrival_rate).sum();
        assert!((total - 0.1416).abs() < 1e-3);
        assert_eq!(spec.cache_capacity_chunks, 500);
    }

    #[test]
    fn paper_spec_equals_the_hand_built_instances() {
        use sprout_workload::spec::{paper_server_service_rates, paper_simulation_rates, MB};
        // The §V-A instance as benchmark/src/plansim.rs builds it by hand.
        let by_hand = |files: usize, cache: usize| {
            SystemSpec::builder()
                .node_service_rates(&paper_server_service_rates())
                .paper_files(files, 7, 4, 100 * MB)
                .cache_capacity_chunks(cache)
                .seed(2016)
                .build()
                .unwrap()
        };
        assert_eq!(paper_simulation_spec(1000, 500), by_hand(1000, 500));
        // At 250 files it then multiplies every rate by 1000 / 250.
        let mut reduced = by_hand(250, 125);
        for (file, rate) in reduced.files.iter_mut().zip(paper_simulation_rates(250)) {
            file.arrival_rate = rate * 4.0;
        }
        assert_eq!(paper_simulation_spec(250, 125), reduced);
    }
}

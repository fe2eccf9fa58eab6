//! The storage-system model the optimizer works against.

use sprout_queueing::dist::ServiceMoments;

use crate::error::OptimizerError;

/// Per-file parameters: arrival rate, number of data chunks `k_i`, and the
/// set of storage nodes `S_i` holding its `n_i` coded chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct FileModel {
    /// Request arrival rate `λ_i` (requests per second) in the current time bin.
    pub arrival_rate: f64,
    /// Number of data chunks `k_i` needed to reconstruct the file.
    pub k: usize,
    /// Storage nodes hosting the file's `n_i = |S_i|` coded chunks.
    pub placement: Vec<usize>,
}

impl FileModel {
    /// Creates a file model.
    pub fn new(arrival_rate: f64, k: usize, placement: Vec<usize>) -> Self {
        FileModel {
            arrival_rate,
            k,
            placement,
        }
    }

    /// Number of coded chunks stored for this file (`n_i`).
    pub fn n(&self) -> usize {
        self.placement.len()
    }
}

/// The full system model for one time bin: per-node service-time moments and
/// per-file arrival rates, code parameters and placement.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageModel {
    nodes: Vec<ServiceMoments>,
    files: Vec<FileModel>,
}

/// Relative roundoff a scheduling row's sum may carry past `k_i`. Rows
/// that read exactly `k_i` chunks summed to at most `k_i (1 + 8.9e-16)` in
/// the repository's tests and oracle runs, and a sum of at most 255 entries
/// errs by under 3e-14 of `k_i`.
pub(crate) const ROW_SUM_SLACK: f64 = 1e-12;

impl StorageModel {
    /// Validates and creates a model.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizerError::InvalidModel`] if
    /// * there are no nodes or no files,
    /// * a file references a node index out of range or lists a node twice,
    /// * a file has `k = 0` or fewer hosting nodes than `k`,
    /// * an arrival rate is negative or not finite.
    pub fn new(nodes: Vec<ServiceMoments>, files: Vec<FileModel>) -> Result<Self, OptimizerError> {
        if nodes.is_empty() {
            return Err(OptimizerError::InvalidModel("no storage nodes".into()));
        }
        if files.is_empty() {
            return Err(OptimizerError::InvalidModel("no files".into()));
        }
        for (i, file) in files.iter().enumerate() {
            if !(file.arrival_rate.is_finite() && file.arrival_rate >= 0.0) {
                return Err(OptimizerError::InvalidModel(format!(
                    "file {i} has invalid arrival rate {}",
                    file.arrival_rate
                )));
            }
            if file.k == 0 {
                return Err(OptimizerError::InvalidModel(format!("file {i} has k = 0")));
            }
            if file.placement.len() < file.k {
                return Err(OptimizerError::InvalidModel(format!(
                    "file {i} is placed on {} nodes but needs k = {}",
                    file.placement.len(),
                    file.k
                )));
            }
            let mut seen = std::collections::HashSet::new();
            for &node in &file.placement {
                if node >= nodes.len() {
                    return Err(OptimizerError::InvalidModel(format!(
                        "file {i} references node {node} but only {} nodes exist",
                        nodes.len()
                    )));
                }
                if !seen.insert(node) {
                    return Err(OptimizerError::InvalidModel(format!(
                        "file {i} lists node {node} twice"
                    )));
                }
            }
        }
        Ok(StorageModel { nodes, files })
    }

    /// Per-node service-time moments.
    pub fn nodes(&self) -> &[ServiceMoments] {
        &self.nodes
    }

    /// Per-file models.
    pub fn files(&self) -> &[FileModel] {
        &self.files
    }

    /// Number of storage nodes `m`.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of files `r`.
    pub fn num_files(&self) -> usize {
        self.files.len()
    }

    /// Aggregate arrival rate `λ̂ = Σ_i λ_i`.
    pub fn total_arrival_rate(&self) -> f64 {
        self.files.iter().map(|f| f.arrival_rate).sum()
    }

    /// Maximum number of chunks the cache could ever usefully hold
    /// (`Σ_i k_i`).
    pub(crate) fn max_useful_cache(&self) -> usize {
        self.files.iter().map(|f| f.k).sum()
    }

    /// Each file with its row of a flat buffer of scheduling probabilities.
    ///
    /// The optimizer stores `π` as one flat buffer: file `i`'s row is `n_i`
    /// entries, entry `r` for the node `placement[r]`, and the files' rows
    /// are concatenated in file order. No entry exists for a node outside a
    /// file's placement set, where `π_{i,j}` is zero by definition.
    pub(crate) fn rows<'a>(
        &'a self,
        flat: &'a [f64],
    ) -> impl Iterator<Item = (&'a FileModel, &'a [f64])> {
        let mut rest = flat;
        self.files.iter().map(move |f| {
            let (row, tail) = rest.split_at(f.placement.len());
            rest = tail;
            (f, row)
        })
    }

    /// `rows`, one per file, as the flat buffer of [`rows`](Self::rows), or
    /// [`OptimizerError::InvalidModel`] if they are not a scheduling: one
    /// row per file, one entry per placement entry, every entry a
    /// probability in `[0, 1]`, and each row summing to at most `k_i`.
    ///
    /// A row sum may pass `k_i` by [`ROW_SUM_SLACK`] times `k_i`, for the
    /// roundoff of summing rows that read exactly `k_i` chunks.
    pub(crate) fn flatten(&self, rows: &[Vec<f64>]) -> Result<Vec<f64>, OptimizerError> {
        let mut fits = rows.iter().zip(&self.files).map(|(r, f)| r.len() == f.n());
        if rows.len() != self.files.len() || !fits.all(|ok| ok) {
            return Err(OptimizerError::InvalidModel(
                "a scheduling needs one row per file and one entry per placement entry".into(),
            ));
        }
        for (i, (row, f)) in rows.iter().zip(&self.files).enumerate() {
            if let Some(p) = row.iter().find(|p| !(0.0..=1.0).contains(*p)) {
                return Err(OptimizerError::InvalidModel(format!(
                    "file {i}: scheduling probability {p} is not in [0, 1]"
                )));
            }
            let reads: f64 = row.iter().sum();
            let k = f.k as f64;
            if reads > k * (1.0 + ROW_SUM_SLACK) {
                return Err(OptimizerError::InvalidModel(format!(
                    "file {i}: its row reads {reads} chunks, more than k = {k}"
                )));
            }
        }
        Ok(rows.concat())
    }

    /// Where each file's row of the flat buffer starts, plus the total count.
    pub(crate) fn row_offsets(&self) -> Vec<usize> {
        let mut offsets = vec![0];
        for f in &self.files {
            offsets.push(offsets[offsets.len() - 1] + f.placement.len());
        }
        offsets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sprout_queueing::dist::ServiceDistribution;

    fn moments(rate: f64) -> ServiceMoments {
        ServiceDistribution::exponential(rate).moments()
    }

    #[test]
    fn valid_model_builds() {
        let m = StorageModel::new(
            vec![moments(0.1), moments(0.2), moments(0.3)],
            vec![FileModel::new(0.01, 2, vec![0, 1, 2])],
        )
        .unwrap();
        assert_eq!(m.num_nodes(), 3);
        assert_eq!(m.num_files(), 1);
        assert_eq!(m.files()[0].n(), 3);
        assert!((m.total_arrival_rate() - 0.01).abs() < 1e-15);
        assert_eq!(m.max_useful_cache(), 2);
    }

    #[test]
    fn rejects_empty_nodes_and_files() {
        assert!(StorageModel::new(vec![], vec![FileModel::new(0.1, 1, vec![0])]).is_err());
        assert!(StorageModel::new(vec![moments(0.1)], vec![]).is_err());
    }

    #[test]
    fn rejects_bad_placement() {
        // node out of range
        assert!(
            StorageModel::new(vec![moments(0.1)], vec![FileModel::new(0.1, 1, vec![3])]).is_err()
        );
        // duplicate node
        assert!(StorageModel::new(
            vec![moments(0.1), moments(0.1)],
            vec![FileModel::new(0.1, 1, vec![0, 0])]
        )
        .is_err());
        // fewer nodes than k
        assert!(StorageModel::new(
            vec![moments(0.1), moments(0.1)],
            vec![FileModel::new(0.1, 3, vec![0, 1])]
        )
        .is_err());
        // k == 0
        assert!(
            StorageModel::new(vec![moments(0.1)], vec![FileModel::new(0.1, 0, vec![0])]).is_err()
        );
    }

    #[test]
    fn rejects_bad_arrival_rates() {
        assert!(
            StorageModel::new(vec![moments(0.1)], vec![FileModel::new(-1.0, 1, vec![0])]).is_err()
        );
        assert!(StorageModel::new(
            vec![moments(0.1)],
            vec![FileModel::new(f64::NAN, 1, vec![0])]
        )
        .is_err());
    }
}

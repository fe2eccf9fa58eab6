//! The weighted mean-latency objective of Eq. (6) and its analytic gradient.
//!
//! For scheduling probabilities `π` and auxiliary variables `z`, the
//! objective is
//!
//! ```text
//! F(π, z) = Σ_i (λ_i / λ̂) [ z_i + Σ_{j ∈ S_i} π_{i,j} excess_j(z_i) ]
//! excess_j(z) = ½ [ (E[Q_j] − z) + sqrt((E[Q_j] − z)² + Var[Q_j]) ]
//! ```
//!
//! where node `j`'s queue, [`NodeQueue`], depends on `π` only through the
//! node arrival rate `Λ_j = Σ_i λ_i π_{i,j}` (the M/G/1 formulas of
//! Eqs. (3)–(4)). Its [`excess`](NodeQueue::excess) and
//! [`excess_dlambda`](NodeQueue::excess_dlambda) are all the gradient needs.
//!
//! `π_{i,j}` exists only on file `i`'s placement set `S_i`: every function
//! here takes `π` as the optimizer's flat buffer, file `i`'s `n_i` entries in
//! placement order (entry `r` for node `placement[r]`) and the files
//! concatenated. A [`CachePlan`](crate::CachePlan)'s `scheduling` rows are
//! the same entries, so `plan.scheduling.concat()` is such a buffer.

use sprout_queueing::bound::latency_bound_given_z;
use sprout_queueing::mg1::NodeQueue;
use sprout_queueing::stability::StabilityError;

use crate::model::StorageModel;

/// Detailed result of evaluating the objective at a point.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ObjectiveBreakdown {
    /// The weighted mean latency bound (the value of Eq. (6)).
    pub total: f64,
    /// Per-file latency bounds `U_i` evaluated at the supplied `z_i`.
    pub per_file: Vec<f64>,
}

/// Per-node chunk arrival rates `Λ_j` and queues at one scheduling point.
/// Every quantity of the objective and of its gradient depends on `π`
/// through these, so a point that was evaluated keeps them for the gradient
/// taken there next.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeState {
    pub(crate) rates: Vec<f64>,
    pub(crate) queues: Vec<NodeQueue>,
}

impl NodeState {
    /// Recomputes the state at scheduling probabilities `pi`, reusing the
    /// buffers.
    pub(crate) fn update(
        &mut self,
        model: &StorageModel,
        pi: &[f64],
    ) -> Result<(), StabilityError> {
        self.rates.clear();
        self.rates.resize(model.num_nodes(), 0.0);
        for (file, row) in model.rows(pi) {
            for (&j, &p) in file.placement.iter().zip(row) {
                self.rates[j] += file.arrival_rate * p;
            }
        }
        self.queues.clear();
        for (j, (&lambda, service)) in self.rates.iter().zip(model.nodes()).enumerate() {
            self.queues.push(NodeQueue::new(j, lambda, service)?);
        }
        Ok(())
    }
}

/// The per-file Lemma 1 bounds `U_i` at `pi` and `z`, given the node queues
/// `pi` produces: Lemma 1's per-file term, [`latency_bound_given_z`], on
/// each file's placement.
fn file_bounds<'a>(
    model: &'a StorageModel,
    pi: &'a [f64],
    z: &'a [f64],
    queues: &'a [NodeQueue],
) -> impl Iterator<Item = f64> + 'a {
    model.rows(pi).zip(z).map(move |((file, row), &z_i)| {
        let pairs = file.placement.iter().zip(row);
        latency_bound_given_z(z_i, pairs.map(|(&j, &p)| (p, &queues[j])))
    })
}

/// `Σ_i (λ_i / λ̂) U_i`.
fn weighted_mean(model: &StorageModel, bounds: impl Iterator<Item = f64>) -> f64 {
    let total_rate = model.total_arrival_rate();
    let mut total = 0.0;
    for (file, u_i) in model.files().iter().zip(bounds) {
        if total_rate > 0.0 {
            total += file.arrival_rate / total_rate * u_i;
        }
    }
    total
}

/// The objective at `pi` whose node queues are `queues`.
pub(crate) fn total(model: &StorageModel, pi: &[f64], z: &[f64], queues: &[NodeQueue]) -> f64 {
    weighted_mean(model, file_bounds(model, pi, z, queues))
}

/// Evaluates the objective and per-file bounds at `(π, z)`, with `pi` the
/// flat buffer described in the [module docs](self).
///
/// # Errors
///
/// Returns [`StabilityError`] if the scheduling overloads a node.
///
/// # Panics
///
/// Panics if `pi` or `z` have shapes inconsistent with the model.
pub(crate) fn evaluate(
    model: &StorageModel,
    pi: &[f64],
    z: &[f64],
) -> Result<ObjectiveBreakdown, StabilityError> {
    assert_eq!(z.len(), model.num_files(), "z must have one entry per file");
    let mut state = NodeState::default();
    state.update(model, pi)?;
    let per_file: Vec<f64> = file_bounds(model, pi, z, &state.queues).collect();
    Ok(ObjectiveBreakdown {
        total: weighted_mean(model, per_file.iter().copied()),
        per_file,
    })
}

/// Writes the gradient with respect to `π` at `pi`, whose node state is
/// `state`, into `grad` (one entry per entry of `pi`). `sensitivity` is a
/// node-sized buffer reused from one call to the next.
pub(crate) fn gradient_into(
    model: &StorageModel,
    pi: &[f64],
    z: &[f64],
    state: &NodeState,
    sensitivity: &mut Vec<f64>,
    grad: &mut [f64],
) {
    let queues = &state.queues;
    let total_rate = model.total_arrival_rate().max(f64::MIN_POSITIVE);

    // Per-node aggregate sensitivity S_j = Σ_i (λ_i π_{i,j} / λ̂) d excess_j(z_i) / dΛ_j.
    sensitivity.clear();
    sensitivity.resize(model.num_nodes(), 0.0);
    for ((file, row), &z_i) in model.rows(pi).zip(z) {
        for (&j, &p) in file.placement.iter().zip(row) {
            if p <= 0.0 {
                continue;
            }
            sensitivity[j] += file.arrival_rate * p / total_rate * queues[j].excess_dlambda(z_i);
        }
    }

    let mut slot = grad.iter_mut();
    for (file, &z_i) in model.files().iter().zip(z) {
        for (&j, g) in file.placement.iter().zip(&mut slot) {
            let direct = file.arrival_rate / total_rate * queues[j].excess(z_i);
            *g = direct + file.arrival_rate * sensitivity[j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileModel;
    use crate::prob_pi::uniform_initial_pi;
    use sprout_queueing::dist::ServiceDistribution;

    fn two_file_model() -> StorageModel {
        let nodes = vec![
            ServiceDistribution::exponential(1.0).moments(),
            ServiceDistribution::exponential(0.5).moments(),
            ServiceDistribution::exponential(0.25).moments(),
        ];
        let files = vec![
            FileModel::new(0.05, 2, vec![0, 1, 2]),
            FileModel::new(0.10, 2, vec![0, 1, 2]),
        ];
        StorageModel::new(nodes, files).unwrap()
    }

    fn state_at(model: &StorageModel, pi: &[f64]) -> NodeState {
        let mut state = NodeState::default();
        state.update(model, pi).unwrap();
        state
    }

    #[test]
    fn node_rates_sum_weighted_probabilities() {
        let model = two_file_model();
        let pi = uniform_initial_pi(&model);
        let expect = 0.05 * 2.0 / 3.0 + 0.10 * 2.0 / 3.0;
        for r in state_at(&model, &pi).rates {
            assert!((r - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn objective_is_weighted_average_of_per_file_bounds() {
        let model = two_file_model();
        let pi = uniform_initial_pi(&model);
        let z = vec![0.0, 0.0];
        let b = evaluate(&model, &pi, &z).unwrap();
        let expect = (0.05 * b.per_file[0] + 0.10 * b.per_file[1]) / 0.15;
        assert!((b.total - expect).abs() < 1e-12);
        assert!(b.per_file.iter().all(|&u| u > 0.0));
    }

    #[test]
    fn caching_more_reduces_objective() {
        // Reducing file 2's storage reads (more cache chunks) lowers latency.
        let model = two_file_model();
        let full = uniform_initial_pi(&model);
        let mut cached = full.clone();
        for v in &mut cached[3..] {
            *v *= 0.5; // file 1's sum drops from 2 to 1, i.e. one chunk cached
        }
        let z = vec![0.0, 0.0];
        let f_full = evaluate(&model, &full, &z).unwrap().total;
        let f_cached = evaluate(&model, &cached, &z).unwrap().total;
        assert!(f_cached < f_full);
    }

    #[test]
    fn overload_is_detected_with_node_index() {
        // Both files read nodes 0 and 2 with probability 1: node 0 carries
        // 0.8 < 1.0, node 2 carries 0.8 > 0.25 and is unstable.
        let files = vec![
            FileModel::new(0.4, 2, vec![0, 1, 2]),
            FileModel::new(0.4, 2, vec![0, 1, 2]),
        ];
        let hot = StorageModel::new(two_file_model().nodes().to_vec(), files).unwrap();
        let pi = [1.0, 0.0, 1.0, 1.0, 0.0, 1.0];
        let err = evaluate(&hot, &pi, &[0.0, 0.0]).unwrap_err();
        assert_eq!(err.node, 2);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let model = two_file_model();
        let pi = uniform_initial_pi(&model);
        let z = vec![1.0, 2.0];
        let mut grad = vec![0.0; pi.len()];
        let state = state_at(&model, &pi);
        gradient_into(&model, &pi, &z, &state, &mut Vec::new(), &mut grad);
        let base = evaluate(&model, &pi, &z).unwrap().total;
        let h = 1e-6;
        for (slot, &g) in grad.iter().enumerate() {
            let mut bumped = pi.clone();
            bumped[slot] += h;
            let f = evaluate(&model, &bumped, &z).unwrap().total;
            let fd = (f - base) / h;
            assert!(
                (fd - g).abs() < 1e-4 * fd.abs().max(1.0),
                "entry {slot}: fd {fd} vs analytic {g}"
            );
        }
    }

    #[test]
    fn gradient_is_zero_outside_placement() {
        // π has no entry off the placement: a file on nodes {0, 1} of three
        // gets two gradient entries, and node 2 receives no load.
        let nodes = vec![ServiceDistribution::exponential(1.0).moments(); 3];
        let files = vec![FileModel::new(0.1, 1, vec![0, 1])];
        let model = StorageModel::new(nodes, files).unwrap();
        let pi = [0.5, 0.5];
        let state = state_at(&model, &pi);
        assert_eq!(state.rates[2], 0.0);
        let mut grad = [f64::NAN; 2];
        gradient_into(&model, &pi, &[0.0], &state, &mut Vec::new(), &mut grad);
        assert!(grad.iter().all(|g| g.is_finite() && *g > 0.0));
    }
}

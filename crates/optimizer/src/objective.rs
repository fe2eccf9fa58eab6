//! The weighted mean-latency objective of Eq. (6) and its analytic gradient.
//!
//! For scheduling probabilities `π` and auxiliary variables `z`, the
//! objective is
//!
//! ```text
//! F(π, z) = Σ_i (λ_i / λ̂) z_i
//!         + Σ_i Σ_{j ∈ S_i} (λ_i π_{i,j} / 2 λ̂) [ X_{i,j} + sqrt(X_{i,j}² + Y_j) ]
//! X_{i,j} = E[Q_j] − z_i,     Y_j = Var[Q_j]
//! ```
//!
//! where the queue moments depend on the node arrival rates
//! `Λ_j = Σ_i λ_i π_{i,j}` through the M/G/1 formulas of Eqs. (3)–(4).
//!
//! `π_{i,j}` exists only on file `i`'s placement set `S_i`: every function
//! here takes `π` as the optimizer's flat buffer, file `i`'s `n_i` entries in
//! placement order (entry `r` for node `placement[r]`) and the files
//! concatenated. A [`CachePlan`](crate::CachePlan)'s `scheduling` rows are
//! the same entries, so `plan.scheduling.concat()` is such a buffer.

use sprout_queueing::bound::{latency_bound_given_z, SchedulingTerm};
use sprout_queueing::mg1::{
    mean_delay_derivative, queue_delay_moments, variance_delay_derivative, QueueDelayMoments,
};
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

/// Per-node chunk arrival rates `Λ_j` and queue-delay moments at one
/// scheduling point. Every quantity of the objective and of its gradient
/// depends on `π` through these, so a point that was evaluated keeps them for
/// the gradient taken there next.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeState {
    pub(crate) rates: Vec<f64>,
    pub(crate) delays: Vec<QueueDelayMoments>,
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
        self.delays.clear();
        for (j, (&lambda, service)) in self.rates.iter().zip(model.nodes()).enumerate() {
            let moments = queue_delay_moments(lambda, service);
            self.delays
                .push(moments.map_err(|e| StabilityError { node: j, ..e })?);
        }
        Ok(())
    }
}

/// The per-file Lemma 1 bounds `U_i` at `pi` and `z`, given the queue-delay
/// moments `pi` produces: Lemma 1's per-file term,
/// [`latency_bound_given_z`], on each file's placement.
fn file_bounds<'a>(
    model: &'a StorageModel,
    pi: &'a [f64],
    z: &'a [f64],
    delays: &'a [QueueDelayMoments],
) -> impl Iterator<Item = f64> + 'a {
    model.rows(pi).zip(z).map(move |((file, row), &z_i)| {
        let terms = file.placement.iter().zip(row);
        latency_bound_given_z(
            z_i,
            terms.map(|(&j, &probability)| SchedulingTerm {
                probability,
                delay: delays[j],
            }),
        )
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

/// The objective at `pi` whose queue-delay moments are `delays`.
pub(crate) fn total(
    model: &StorageModel,
    pi: &[f64],
    z: &[f64],
    delays: &[QueueDelayMoments],
) -> f64 {
    weighted_mean(model, file_bounds(model, pi, z, delays))
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
    let per_file: Vec<f64> = file_bounds(model, pi, z, &state.delays).collect();
    Ok(ObjectiveBreakdown {
        total: weighted_mean(model, per_file.iter().copied()),
        per_file,
    })
}

/// Node-sized buffers [`gradient_into`] reuses from one call to the next.
#[derive(Debug, Clone, Default)]
pub(crate) struct GradientScratch {
    /// `dE[Q_j]/dΛ_j`.
    d_mean: Vec<f64>,
    /// `dVar[Q_j]/dΛ_j`.
    d_var: Vec<f64>,
    /// Per-node aggregate sensitivity `S_j`.
    node_sensitivity: Vec<f64>,
}

/// Writes the gradient with respect to `π` at `pi`, whose node state is
/// `state`, into `grad` (one entry per entry of `pi`).
pub(crate) fn gradient_into(
    model: &StorageModel,
    pi: &[f64],
    z: &[f64],
    state: &NodeState,
    scratch: &mut GradientScratch,
    grad: &mut [f64],
) {
    let NodeState { rates, delays } = state;
    let GradientScratch {
        d_mean,
        d_var,
        node_sensitivity,
    } = scratch;
    let total_rate = model.total_arrival_rate().max(f64::MIN_POSITIVE);

    // dE[Q_j]/dΛ_j and dVar[Q_j]/dΛ_j
    let nodes = || rates.iter().zip(model.nodes());
    d_mean.clear();
    d_mean.extend(nodes().map(|(&l, s)| mean_delay_derivative(l, s)));
    d_var.clear();
    d_var.extend(nodes().map(|(&l, s)| variance_delay_derivative(l, s)));

    // Per-node aggregate sensitivity:
    // S_j = Σ_i (λ_i π_{i,j} / 2λ̂) [ dE_j + (X_{i,j} dE_j + dV_j / 2) / sqrt(X_{i,j}² + Y_j) ]
    node_sensitivity.clear();
    node_sensitivity.resize(model.num_nodes(), 0.0);
    for ((file, row), &z_i) in model.rows(pi).zip(z) {
        for (&j, &p) in file.placement.iter().zip(row) {
            if p <= 0.0 {
                continue;
            }
            let x = delays[j].mean - z_i;
            let root = (x * x + delays[j].variance).sqrt().max(f64::MIN_POSITIVE);
            node_sensitivity[j] += file.arrival_rate * p / (2.0 * total_rate)
                * (d_mean[j] + (x * d_mean[j] + 0.5 * d_var[j]) / root);
        }
    }

    let mut slot = grad.iter_mut();
    for (file, &z_i) in model.files().iter().zip(z) {
        for (&j, g) in file.placement.iter().zip(&mut slot) {
            let x = delays[j].mean - z_i;
            let root = (x * x + delays[j].variance).sqrt();
            let direct = file.arrival_rate / (2.0 * total_rate) * (x + root);
            *g = direct + file.arrival_rate * node_sensitivity[j];
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
        let (state, mut scratch) = (state_at(&model, &pi), GradientScratch::default());
        gradient_into(&model, &pi, &z, &state, &mut scratch, &mut grad);
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
        let (mut grad, mut scratch) = ([f64::NAN; 2], GradientScratch::default());
        gradient_into(&model, &pi, &[0.0], &state, &mut scratch, &mut grad);
        assert!(grad.iter().all(|g| g.is_finite() && *g > 0.0));
    }
}

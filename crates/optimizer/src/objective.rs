//! The weighted mean-latency objective of Eq. (6) and its analytic gradient.
//!
//! For scheduling probabilities `π` (an `r × m` matrix, zero outside each
//! file's placement set) and auxiliary variables `z`, the objective is
//!
//! ```text
//! F(π, z) = Σ_i (λ_i / λ̂) z_i
//!         + Σ_i Σ_j (λ_i π_{i,j} / 2 λ̂) [ X_{i,j} + sqrt(X_{i,j}² + Y_j) ]
//! X_{i,j} = E[Q_j] − z_i,     Y_j = Var[Q_j]
//! ```
//!
//! where the queue moments depend on the node arrival rates
//! `Λ_j = Σ_i λ_i π_{i,j}` through the M/G/1 formulas of Eqs. (3)–(4).

use sprout_queueing::mg1::{
    mean_delay_derivative, queue_delay_moments, variance_delay_derivative, QueueDelayMoments,
};
use sprout_queueing::stability::StabilityError;

use crate::model::StorageModel;

/// Detailed result of evaluating the objective at a point.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveBreakdown {
    /// The weighted mean latency bound (the value of Eq. (6)).
    pub total: f64,
    /// Per-file latency bounds `U_i` evaluated at the supplied `z_i`.
    pub per_file: Vec<f64>,
    /// Per-node chunk arrival rates `Λ_j`.
    pub node_arrival_rates: Vec<f64>,
    /// Per-node queue-delay moments.
    pub node_delays: Vec<QueueDelayMoments>,
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
    /// Recomputes the state at restricted scheduling probabilities `pi` (see
    /// [`StorageModel::restrict`]), reusing the buffers.
    pub(crate) fn update(
        &mut self,
        model: &StorageModel,
        pi: &[f64],
    ) -> Result<(), StabilityError> {
        arrival_rates_into(model, pi, &mut self.rates);
        delay_moments_into(model, &self.rates, &mut self.delays)
    }

    fn at(model: &StorageModel, dense: &[Vec<f64>]) -> Result<(Vec<f64>, Self), StabilityError> {
        let pi = model.restrict(dense);
        let mut state = NodeState::default();
        state.update(model, &pi)?;
        Ok((pi, state))
    }
}

fn arrival_rates_into(model: &StorageModel, pi: &[f64], rates: &mut Vec<f64>) {
    rates.clear();
    rates.resize(model.num_nodes(), 0.0);
    for (file, row) in model.rows(pi) {
        for (&j, &p) in file.placement.iter().zip(row) {
            rates[j] += file.arrival_rate * p;
        }
    }
}

fn delay_moments_into(
    model: &StorageModel,
    node_rates: &[f64],
    delays: &mut Vec<QueueDelayMoments>,
) -> Result<(), StabilityError> {
    delays.clear();
    for (j, (&lambda, service)) in node_rates.iter().zip(model.nodes()).enumerate() {
        let moments = queue_delay_moments(lambda, service);
        delays.push(moments.map_err(|e| StabilityError { node: j, ..e })?);
    }
    Ok(())
}

/// Computes the per-node chunk arrival rates `Λ_j = Σ_i λ_i π_{i,j}`.
pub fn node_arrival_rates(model: &StorageModel, pi: &[Vec<f64>]) -> Vec<f64> {
    let mut rates = Vec::new();
    arrival_rates_into(model, &model.restrict(pi), &mut rates);
    rates
}

/// Computes the per-node queue-delay moments for the given scheduling.
///
/// # Errors
///
/// Returns [`StabilityError`] (with the node index filled in) if any node's
/// utilization reaches one.
pub fn node_delay_moments(
    model: &StorageModel,
    node_rates: &[f64],
) -> Result<Vec<QueueDelayMoments>, StabilityError> {
    let mut delays = Vec::new();
    delay_moments_into(model, node_rates, &mut delays)?;
    Ok(delays)
}

/// The per-file Lemma 1 bounds `U_i` at restricted `pi` and `z`, given the
/// queue-delay moments `pi` produces.
fn file_bounds<'a>(
    model: &'a StorageModel,
    pi: &'a [f64],
    z: &'a [f64],
    delays: &'a [QueueDelayMoments],
) -> impl Iterator<Item = f64> + 'a {
    model.rows(pi).zip(z).map(move |((file, row), &z_i)| {
        let mut u_i = z_i;
        for (&j, &p) in file.placement.iter().zip(row) {
            if p <= 0.0 {
                continue;
            }
            let x = delays[j].mean - z_i;
            u_i += p / 2.0 * (x + (x * x + delays[j].variance).sqrt());
        }
        u_i
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

/// The objective at restricted `pi` whose queue-delay moments are `delays`.
pub(crate) fn total(
    model: &StorageModel,
    pi: &[f64],
    z: &[f64],
    delays: &[QueueDelayMoments],
) -> f64 {
    weighted_mean(model, file_bounds(model, pi, z, delays))
}

/// Evaluates the objective and per-file bounds at `(π, z)`.
///
/// # Errors
///
/// Returns [`StabilityError`] if the scheduling overloads a node.
///
/// # Panics
///
/// Panics if `pi` or `z` have shapes inconsistent with the model.
pub fn evaluate(
    model: &StorageModel,
    pi: &[Vec<f64>],
    z: &[f64],
) -> Result<ObjectiveBreakdown, StabilityError> {
    assert_eq!(z.len(), model.num_files(), "z must have one entry per file");
    let (pi, state) = NodeState::at(model, pi)?;
    let per_file: Vec<f64> = file_bounds(model, &pi, z, &state.delays).collect();
    Ok(ObjectiveBreakdown {
        total: weighted_mean(model, per_file.iter().copied()),
        per_file,
        node_arrival_rates: state.rates,
        node_delays: state.delays,
    })
}

/// Analytic gradient of the objective with respect to `π`, evaluated at
/// `(π, z)`. Entries outside a file's placement set are zero.
///
/// # Errors
///
/// Returns [`StabilityError`] if the scheduling overloads a node.
///
/// # Panics
///
/// Panics if the shapes are inconsistent with the model.
pub fn gradient_pi(
    model: &StorageModel,
    pi: &[Vec<f64>],
    z: &[f64],
) -> Result<Vec<Vec<f64>>, StabilityError> {
    assert_eq!(z.len(), model.num_files(), "z must have one entry per file");
    let (pi, state) = NodeState::at(model, pi)?;
    let mut grad = vec![0.0; pi.len()];
    gradient_into(model, &pi, z, &state, &mut grad);
    Ok(model.expand(&grad))
}

/// Writes the gradient at restricted `pi`, whose node state is `state`, into
/// `grad` (same coordinates).
pub(crate) fn gradient_into(
    model: &StorageModel,
    pi: &[f64],
    z: &[f64],
    state: &NodeState,
    grad: &mut [f64],
) {
    let NodeState { rates, delays } = state;
    let total_rate = model.total_arrival_rate().max(f64::MIN_POSITIVE);

    // dE[Q_j]/dΛ_j and dVar[Q_j]/dΛ_j
    let d_mean: Vec<f64> = rates
        .iter()
        .zip(model.nodes())
        .map(|(&l, s)| mean_delay_derivative(l, s))
        .collect();
    let d_var: Vec<f64> = rates
        .iter()
        .zip(model.nodes())
        .map(|(&l, s)| variance_delay_derivative(l, s))
        .collect();

    // Per-node aggregate sensitivity:
    // S_j = Σ_i (λ_i π_{i,j} / 2λ̂) [ dE_j + (X_{i,j} dE_j + dV_j / 2) / sqrt(X_{i,j}² + Y_j) ]
    let mut node_sensitivity = vec![0.0; model.num_nodes()];
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

    fn uniform_pi(model: &StorageModel) -> Vec<Vec<f64>> {
        model
            .files()
            .iter()
            .map(|f| {
                let mut row = vec![0.0; model.num_nodes()];
                for &j in &f.placement {
                    row[j] = f.k as f64 / f.placement.len() as f64;
                }
                row
            })
            .collect()
    }

    #[test]
    fn node_rates_sum_weighted_probabilities() {
        let model = two_file_model();
        let pi = uniform_pi(&model);
        let rates = node_arrival_rates(&model, &pi);
        let expect = 0.05 * 2.0 / 3.0 + 0.10 * 2.0 / 3.0;
        for r in rates {
            assert!((r - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn objective_is_weighted_average_of_per_file_bounds() {
        let model = two_file_model();
        let pi = uniform_pi(&model);
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
        let full = uniform_pi(&model);
        let mut cached = full.clone();
        for v in cached[1].iter_mut() {
            *v *= 0.5; // sum drops from 2 to 1, i.e. one chunk cached
        }
        let z = vec![0.0, 0.0];
        let f_full = evaluate(&model, &full, &z).unwrap().total;
        let f_cached = evaluate(&model, &cached, &z).unwrap().total;
        assert!(f_cached < f_full);
    }

    #[test]
    fn overload_is_detected_with_node_index() {
        let model = two_file_model();
        let mut pi = uniform_pi(&model);
        // Push everything to node 2 (rate 0.25) with probability 1 and crank
        // arrival rates up by scaling pi is not possible (pi <= 1), so build an
        // overloaded model instead.
        let nodes = model.nodes().to_vec();
        let files = vec![
            FileModel::new(0.4, 2, vec![0, 1, 2]),
            FileModel::new(0.4, 2, vec![0, 1, 2]),
        ];
        let hot = StorageModel::new(nodes, files).unwrap();
        pi[0] = vec![1.0, 0.0, 1.0];
        pi[1] = vec![1.0, 1.0, 0.0];
        // node 0 load = 0.8 < 1.0 ok; make it worse:
        pi[1] = vec![1.0, 0.0, 1.0];
        // node 0: 0.8, node 2: 0.8 > 0.25 -> unstable at node 2
        let err = evaluate(&hot, &pi, &[0.0, 0.0]).unwrap_err();
        assert_eq!(err.node, 2);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let model = two_file_model();
        let pi = uniform_pi(&model);
        let z = vec![1.0, 2.0];
        let grad = gradient_pi(&model, &pi, &z).unwrap();
        let base = evaluate(&model, &pi, &z).unwrap().total;
        let h = 1e-6;
        for i in 0..model.num_files() {
            for &j in &model.files()[i].placement {
                let mut bumped = pi.clone();
                bumped[i][j] += h;
                let f = evaluate(&model, &bumped, &z).unwrap().total;
                let fd = (f - base) / h;
                assert!(
                    (fd - grad[i][j]).abs() < 1e-4 * fd.abs().max(1.0),
                    "file {i} node {j}: fd {fd} vs analytic {}",
                    grad[i][j]
                );
            }
        }
    }

    #[test]
    fn gradient_is_zero_outside_placement() {
        let nodes = vec![
            ServiceDistribution::exponential(1.0).moments(),
            ServiceDistribution::exponential(1.0).moments(),
            ServiceDistribution::exponential(1.0).moments(),
        ];
        let files = vec![FileModel::new(0.1, 1, vec![0, 1])];
        let model = StorageModel::new(nodes, files).unwrap();
        let pi = vec![vec![0.5, 0.5, 0.0]];
        let grad = gradient_pi(&model, &pi, &[0.0]).unwrap();
        assert_eq!(grad[0][2], 0.0);
    }
}

//! Prob Π: optimizing the scheduling probabilities `π` for fixed `z`.
//!
//! The relaxed problem (integer constraint dropped) is convex in `π` with a
//! polytope constraint set, and is solved by projected gradient descent with
//! a backtracking line search. The projection is the exact Euclidean
//! projection of [`crate::projection::project_flat`], which enforces the
//! per-file boxes `π_{i,j} ∈ [0, 1]`, the per-file sum bands
//! `K_{L,i} ≤ Σ_j π_{i,j} ≤ K_{U,i}`, and the cache-capacity coupling
//! `Σ_{i,j} π_{i,j} ≥ Σ_i k_i − C`.
//!
//! `π` is the optimizer's flat buffer: each file's placement entries only,
//! files concatenated (see [`crate::objective`]). The solve runs on buffers
//! allocated once per solve, the projection's and the gradient's scratch
//! included: a line-search probe writes, projects and evaluates its candidate
//! in place, and the accepted probe hands its node rates and delay moments to
//! the next gradient instead of having them recomputed.

use crate::config::OptimizerConfig;
use crate::error::OptimizerError;
use crate::model::StorageModel;
use crate::objective::{gradient_into, total, GradientScratch, NodeState};
use crate::projection::{project_flat, FileBand, ProjectionScratch};

/// Result of one Prob Π solve.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ProbPiOutcome {
    /// The optimized scheduling probabilities, one entry per placement
    /// entry of each file, files concatenated.
    pub pi: Vec<f64>,
    /// Objective value at the returned point.
    pub objective: f64,
    /// Number of projected-gradient iterations performed.
    pub iterations: usize,
    /// Number of line-search candidates projected and evaluated.
    pub line_search_probes: usize,
    /// Number of aggregate evaluations the projections' `ν` searches took.
    pub nu_probes: usize,
}

impl ProbPiOutcome {
    /// Projections the solve performed: its starting point and every probe.
    pub fn projections(&self) -> usize {
        self.line_search_probes + 1
    }
}

/// The coupling constraint's bound `Σ_i k_i − C` on the total storage reads.
pub(crate) fn aggregate_lo(model: &StorageModel, cache_capacity: usize) -> f64 {
    (model.max_useful_cache() as f64 - cache_capacity as f64).max(0.0)
}

/// Solves the relaxed Prob Π by projected gradient descent.
///
/// `initial_pi` must lie in (or near) the feasible set; it is projected once
/// before the first iteration.
///
/// # Errors
///
/// Returns [`OptimizerError::UnstableSystem`] if even the projected initial
/// point overloads a node — in that case no feasible stable scheduling was
/// found from this starting point.
pub(crate) fn solve(
    model: &StorageModel,
    z: &[f64],
    initial_pi: &[f64],
    bands: &[FileBand],
    cache_capacity: usize,
    config: &OptimizerConfig,
) -> Result<ProbPiOutcome, OptimizerError> {
    let offsets = model.row_offsets();
    let aggregate_lo = aggregate_lo(model, cache_capacity);
    let mut pi = initial_pi.to_vec();
    let mut projection = ProjectionScratch::default();
    let mut nu_probes = project_flat(&mut pi, &offsets, bands, aggregate_lo, &mut projection);
    let mut nodes = NodeState::default();
    nodes.update(model, &pi)?;
    let mut current = total(model, &pi, z, &nodes.delays);

    let mut grad = vec![0.0; pi.len()];
    let mut candidate = vec![0.0; pi.len()];
    let mut candidate_nodes = NodeState::default();
    let mut gradient = GradientScratch::default();
    let mut step = config.initial_step;
    let mut iterations = 0;
    let mut line_search_probes = 0;
    'descent: for _ in 0..config.max_gradient_iterations {
        iterations += 1;
        gradient_into(model, &pi, z, &nodes, &mut gradient, &mut grad);

        // Backtracking line search along the projection arc.
        let mut improved = false;
        let mut local_step = step;
        for _ in 0..40 {
            for ((c, &p), &g) in candidate.iter_mut().zip(&pi).zip(&grad) {
                *c = p - local_step * g;
            }
            nu_probes += project_flat(
                &mut candidate,
                &offsets,
                bands,
                aggregate_lo,
                &mut projection,
            );
            line_search_probes += 1;
            // An unstable candidate is worth +∞: the search rejects the step.
            let value = match candidate_nodes.update(model, &candidate) {
                Ok(()) => total(model, &candidate, z, &candidate_nodes.delays),
                Err(_) => f64::INFINITY,
            };
            if value < current - 1e-15 {
                // Accept; gently grow the step for the next iteration.
                let improvement = current - value;
                std::mem::swap(&mut pi, &mut candidate);
                std::mem::swap(&mut nodes, &mut candidate_nodes);
                current = value;
                step = (local_step * 1.5).min(1e6);
                improved = true;
                if improvement < config.gradient_tolerance * current.abs().max(1e-9) {
                    break 'descent;
                }
                break;
            }
            local_step *= 0.5;
            if local_step < 1e-14 {
                break;
            }
        }
        if !improved {
            break;
        }
    }

    Ok(ProbPiOutcome {
        pi,
        objective: current,
        iterations,
        line_search_probes,
        nu_probes,
    })
}

/// Builds a feasible, load-spreading starting point: each file splits its
/// `k_i` storage reads uniformly across its placement set (no caching).
pub(crate) fn uniform_initial_pi(model: &StorageModel) -> Vec<f64> {
    let rows = model.files().iter();
    rows.flat_map(|f| std::iter::repeat_n(f.k as f64 / f.n() as f64, f.n()))
        .collect()
}

/// Default per-file sum bands before any rounding: `0 ≤ Σ_j π_{i,j} ≤ k_i`.
pub(crate) fn initial_bands(model: &StorageModel) -> Vec<FileBand> {
    model
        .files()
        .iter()
        .map(|f| FileBand {
            lo: 0.0,
            hi: f.k as f64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileModel;
    use crate::objective::evaluate;
    use sprout_queueing::dist::ServiceDistribution;

    fn model() -> StorageModel {
        let nodes = vec![
            ServiceDistribution::exponential(1.0).moments(),
            ServiceDistribution::exponential(0.6).moments(),
            ServiceDistribution::exponential(0.3).moments(),
            ServiceDistribution::exponential(0.15).moments(),
        ];
        let files = vec![
            FileModel::new(0.03, 2, vec![0, 1, 2, 3]),
            FileModel::new(0.06, 2, vec![0, 1, 2, 3]),
        ];
        StorageModel::new(nodes, files).unwrap()
    }

    #[test]
    fn uniform_initial_point_is_feasible() {
        let m = model();
        let pi = uniform_initial_pi(&m);
        assert_eq!(pi.len(), 8, "one entry per placement entry");
        for (f, row) in m.rows(&pi) {
            let sum: f64 = row.iter().sum();
            assert!((sum - f.k as f64).abs() < 1e-12);
            assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn solve_reduces_objective_and_stays_feasible() {
        let m = model();
        let pi0 = uniform_initial_pi(&m);
        let bands = initial_bands(&m);
        let z = vec![0.0; m.num_files()];
        let before = evaluate(&m, &pi0, &z).unwrap().total;
        let out = solve(&m, &z, &pi0, &bands, 2, &OptimizerConfig::default()).unwrap();
        assert!(out.objective <= before + 1e-9);
        // feasibility: per-file sums within [0, k], coupling satisfied
        let mut total = 0.0;
        for (f, row) in m.rows(&out.pi) {
            let sum: f64 = row.iter().sum();
            assert!(sum <= f.k as f64 + 1e-6);
            assert!(sum >= -1e-9);
            assert!(row.iter().all(|&p| (-1e-9..=1.0 + 1e-9).contains(&p)));
            total += sum;
        }
        let aggregate_lo = (m.max_useful_cache() as f64 - 2.0).max(0.0);
        assert!(total >= aggregate_lo - 1e-5);
    }

    #[test]
    fn zero_cache_forces_full_storage_reads() {
        let m = model();
        let pi0 = uniform_initial_pi(&m);
        let bands = initial_bands(&m);
        let z = vec![0.0; m.num_files()];
        let out = solve(&m, &z, &pi0, &bands, 0, &OptimizerConfig::default()).unwrap();
        let total: f64 = out.pi.iter().sum();
        assert!(
            (total - m.max_useful_cache() as f64).abs() < 1e-5,
            "with no cache every chunk must come from storage, total = {total}"
        );
    }

    #[test]
    fn prefers_unloading_slow_nodes() {
        // With ample cache, the optimizer should route less traffic to the
        // slowest node than to the fastest one.
        let m = model();
        let pi0 = uniform_initial_pi(&m);
        let bands = initial_bands(&m);
        let z = vec![0.0; m.num_files()];
        let out = solve(&m, &z, &pi0, &bands, 2, &OptimizerConfig::default()).unwrap();
        let mut nodes = NodeState::default();
        nodes.update(&m, &out.pi).unwrap();
        let rates = nodes.rates;
        assert!(
            rates[3] <= rates[0] + 1e-9,
            "slowest node should not carry more load: {rates:?}"
        );
    }

    #[test]
    fn unstable_initial_point_is_an_error() {
        let nodes = vec![ServiceDistribution::exponential(0.01).moments()];
        let files = vec![FileModel::new(1.0, 1, vec![0])];
        let m = StorageModel::new(nodes, files).unwrap();
        let pi0 = uniform_initial_pi(&m);
        let bands = initial_bands(&m);
        let err = solve(&m, &[0.0], &pi0, &bands, 0, &OptimizerConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            OptimizerError::UnstableSystem { node: 0, .. }
        ));
    }
}

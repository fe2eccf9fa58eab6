//! Prob Z: optimizing the auxiliary variables `z_i` for fixed scheduling `π`.
//!
//! For fixed `π` the objective of Eq. (6) separates across files, and each
//! per-file term is exactly the Lemma 1 bound as a function of `z_i`. The
//! per-file problems are 1-D and convex, so rather than running the gradient
//! descent suggested in the paper we solve each of them exactly by bisection
//! on the monotone derivative (clamping at `z_i ≥ 0`), which is both faster
//! and free of step-size tuning.

use sprout_queueing::bound::{optimal_z, SchedulingTerm};
use sprout_queueing::stability::StabilityError;

use crate::model::StorageModel;
use crate::objective::NodeState;

/// Solves Prob Z exactly: returns the optimal `z_i ≥ 0` for every file given
/// the current scheduling `π` (the flat buffer of [`crate::objective`]).
///
/// # Errors
///
/// Returns [`StabilityError`] if the scheduling overloads a node.
pub(crate) fn solve(model: &StorageModel, pi: &[f64]) -> Result<Vec<f64>, StabilityError> {
    let mut nodes = NodeState::default();
    nodes.update(model, pi)?;
    // One file's Lemma 1 scheduling terms, rebuilt in place for every file.
    let mut terms: Vec<SchedulingTerm> = Vec::new();
    let z = model.rows(pi).map(|(file, row)| {
        terms.clear();
        terms.extend(
            file.placement
                .iter()
                .zip(row)
                .map(|(&j, &probability)| SchedulingTerm {
                    probability,
                    delay: nodes.delays[j],
                }),
        );
        optimal_z(&terms)
    });
    Ok(z.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileModel;
    use crate::objective::evaluate;
    use sprout_queueing::dist::ServiceDistribution;

    fn model() -> StorageModel {
        let nodes = vec![
            ServiceDistribution::exponential(0.5).moments(),
            ServiceDistribution::exponential(0.3).moments(),
            ServiceDistribution::exponential(0.2).moments(),
            ServiceDistribution::exponential(0.1).moments(),
        ];
        let files = vec![
            FileModel::new(0.02, 3, vec![0, 1, 2, 3]),
            FileModel::new(0.05, 2, vec![1, 2, 3]),
        ];
        StorageModel::new(nodes, files).unwrap()
    }

    #[test]
    fn prob_z_solution_is_nonnegative_and_optimal() {
        let model = model();
        let pi = crate::prob_pi::uniform_initial_pi(&model);
        let z = solve(&model, &pi).unwrap();
        assert_eq!(z.len(), 2);
        assert!(z.iter().all(|&v| v >= 0.0));

        // No perturbation of any z_i should decrease the objective.
        let base = evaluate(&model, &pi, &z).unwrap().total;
        for i in 0..z.len() {
            for delta in [-1.0, -0.1, 0.1, 1.0] {
                let mut alt = z.clone();
                alt[i] = (alt[i] + delta).max(0.0);
                let f = evaluate(&model, &pi, &alt).unwrap().total;
                assert!(
                    base <= f + 1e-9,
                    "perturbing z[{i}] by {delta} improved objective"
                );
            }
        }
    }

    #[test]
    fn prob_z_detects_instability() {
        let nodes = vec![ServiceDistribution::exponential(0.01).moments()];
        let files = vec![FileModel::new(0.5, 1, vec![0])];
        let model = StorageModel::new(nodes, files).unwrap();
        let pi = [1.0];
        assert!(solve(&model, &pi).is_err());
    }
}

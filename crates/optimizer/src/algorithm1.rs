//! Algorithm 1: alternating minimization over `z` and `π` with iterative
//! integer rounding of the cache allocation.

use crate::config::OptimizerConfig;
use crate::error::OptimizerError;
use crate::model::StorageModel;
use crate::objective::evaluate;
use crate::prob_pi::{self, aggregate_lo, initial_bands, uniform_initial_pi};
use crate::prob_z;
use crate::projection::{project_flat, FileBand, ProjectionScratch};
use crate::solution::{CachePlan, ConvergenceTrace};

/// Fractional parts below this threshold are treated as integers.
const INTEGER_TOL: f64 = 1e-6;

/// The outer loop's stop rule: an iteration that did not improve on the best
/// objective seen so far by at least `tolerance` ends the run. One-sided on
/// purpose — a rounded objective that settles *above* the best must stop the
/// loop too, and the best plan is what the run returns either way.
fn settled(best_objective: f64, objective: f64, tolerance: f64) -> bool {
    best_objective - objective < tolerance
}

/// Config-first entry point to Algorithm 1.
///
/// Carries the [`OptimizerConfig`] and an optional warm start, so call sites
/// configure once and run against any number of models:
///
/// ```
/// use sprout_optimizer::{FileModel, Optimizer, OptimizerConfig, StorageModel};
/// use sprout_queueing::dist::ServiceDistribution;
///
/// let nodes = vec![
///     ServiceDistribution::exponential(1.0).moments(),
///     ServiceDistribution::exponential(0.8).moments(),
///     ServiceDistribution::exponential(0.5).moments(),
/// ];
/// let files = vec![FileModel::new(0.05, 2, vec![0, 1, 2])];
/// let model = StorageModel::new(nodes, files)?;
/// let optimizer = Optimizer::new(OptimizerConfig::default());
/// let cold = optimizer.run(&model, 1)?;
/// let warm = optimizer.warm_start(&cold).run(&model, 2)?;
/// assert!(warm.objective <= cold.objective + 1e-9);
/// # Ok::<(), sprout_optimizer::OptimizerError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Optimizer {
    config: OptimizerConfig,
    initial_pi: Option<Vec<Vec<f64>>>,
}

impl Optimizer {
    /// Creates an optimizer with the given configuration and no warm start.
    pub fn new(config: OptimizerConfig) -> Self {
        Optimizer {
            config,
            initial_pi: None,
        }
    }

    /// The configuration this optimizer runs with.
    pub fn config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// Warm-starts from a previous plan's scheduling probabilities (the paper
    /// warm-starts across cache sizes in its convergence experiment).
    #[must_use]
    pub fn warm_start(mut self, plan: &CachePlan) -> Self {
        self.initial_pi = Some(plan.scheduling.clone());
        self
    }

    /// Runs Algorithm 1 on `model` with a cache of `cache_capacity` chunks.
    ///
    /// Values larger than `Σ_i k_i` are silently clamped (a bigger cache
    /// cannot help further). Starts from the warm-start point if one was set,
    /// otherwise from the default no-cache, uniform-scheduling point. The
    /// returned plan is [`CachePlan::evaluate`] at the best scheduling found,
    /// with the run's [`ConvergenceTrace`].
    ///
    /// # Errors
    ///
    /// * [`OptimizerError::UnstableSystem`] if the starting point overloads
    ///   a node.
    /// * [`OptimizerError::InvalidModel`] if a warm start does not have one
    ///   row per file with one entry per placement entry.
    pub fn run(
        &self,
        model: &StorageModel,
        cache_capacity: usize,
    ) -> Result<CachePlan, OptimizerError> {
        let initial_pi = match &self.initial_pi {
            Some(rows) => model.flatten(rows)?,
            None => uniform_initial_pi(model),
        };
        run_from(model, cache_capacity, &self.config, initial_pi)
    }
}

/// The implementation behind [`Optimizer::run`].
fn run_from(
    model: &StorageModel,
    cache_capacity: usize,
    config: &OptimizerConfig,
    mut pi: Vec<f64>,
) -> Result<CachePlan, OptimizerError> {
    let cache_capacity = cache_capacity.min(model.max_useful_cache());
    let mut trace = ConvergenceTrace::default();

    // Start from the supplied point projected onto the zero-rounding bands.
    let aggregate_lo = aggregate_lo(model, cache_capacity);
    trace.nu_probes += project_flat(
        &mut pi,
        &model.row_offsets(),
        &initial_bands(model),
        aggregate_lo,
        &mut ProjectionScratch::default(),
    );
    trace.projections += 1;
    // --- Prob Z: exact per-file minimization of the auxiliary variables,
    // here and at the end of every outer iteration, where `pi` last moved.
    let mut z = prob_z::solve(model, &pi)?;
    let mut best_objective = evaluate(model, &pi, &z)?.total;
    trace.outer_objectives.push(best_objective);
    let mut best_pi = pi.clone();

    for _ in 0..config.max_outer_iterations {
        // --- Inner loop: relaxed Prob Pi + iterative rounding.
        let mut bands = initial_bands(model);
        let mut rounds = 0usize;
        loop {
            rounds += 1;
            let outcome = prob_pi::solve(model, &z, &pi, &bands, cache_capacity, config)?;
            trace.gradient_iterations += outcome.iterations;
            trace.line_search_probes += outcome.line_search_probes;
            trace.projections += outcome.projections();
            trace.nu_probes += outcome.nu_probes;
            pi = outcome.pi;

            let fractional = fractional_files(model, &pi, &bands);
            if fractional.is_empty() {
                break;
            }
            let batch = config.rounding.batch_size(fractional.len());
            for &(i, sum) in fractional.iter().take(batch) {
                let target = sum.ceil().min(model.files()[i].k as f64);
                bands[i] = FileBand {
                    lo: target,
                    hi: target,
                };
            }
            if rounds > model.num_files() + 2 {
                // Safety net: should never trigger, every round pins at least one file.
                break;
            }
        }
        trace.rounding_rounds += rounds;

        // --- Outer convergence check on the (integer-feasible) objective.
        z = prob_z::solve(model, &pi)?;
        let objective = evaluate(model, &pi, &z)?.total;
        trace.outer_objectives.push(objective);
        let stop = settled(best_objective, objective, config.tolerance);
        if objective < best_objective {
            best_objective = objective;
            best_pi = pi.clone();
        }
        if stop {
            break;
        }
    }

    let rows = model.rows(&best_pi).map(|(_, row)| row.to_vec()).collect();
    Ok(CachePlan {
        trace,
        ..CachePlan::evaluate(model, rows)?
    })
}

/// Files whose storage-read total is still fractional, sorted by descending
/// fractional part (the rounding order of Algorithm 1). Files already pinned
/// (`lo == hi`) are skipped.
fn fractional_files(model: &StorageModel, pi: &[f64], bands: &[FileBand]) -> Vec<(usize, f64)> {
    let mut out: Vec<(usize, f64, f64)> = Vec::new();
    for (i, ((_, row), band)) in model.rows(pi).zip(bands).enumerate() {
        if (band.hi - band.lo).abs() < 1e-12 {
            continue;
        }
        let sum: f64 = row.iter().sum();
        let distance_to_integer = (sum - sum.round()).abs();
        if distance_to_integer > INTEGER_TOL {
            out.push((i, sum, sum - sum.floor()));
        }
    }
    out.sort_by(|a, b| b.2.total_cmp(&a.2));
    out.into_iter().map(|(i, sum, _)| (i, sum)).collect()
}

impl CachePlan {
    /// Lemma 1's bound (Eq. 6) for reads scheduled by `scheduling` (rows in
    /// [`CachePlan::scheduling`]'s layout): the plan they form, with
    /// `cached_chunks` `k_i − Σ_j π_{i,j}` (rounded), the rows' optimal `z`,
    /// and an empty trace. Algorithm 1 returns this evaluation at its rows,
    /// so every scheme whose read marginals are known is bounded by one code
    /// path.
    ///
    /// # Errors
    ///
    /// [`OptimizerError::InvalidModel`] unless there is one row per file with
    /// one entry per placement entry; [`OptimizerError::UnstableSystem`] if
    /// the rows overload a node.
    pub fn evaluate(
        model: &StorageModel,
        scheduling: Vec<Vec<f64>>,
    ) -> Result<CachePlan, OptimizerError> {
        let pi = model.flatten(&scheduling)?;
        let z = prob_z::solve(model, &pi)?;
        let bounds = evaluate(model, &pi, &z)?;
        let reads = scheduling.iter().map(|row| row.iter().sum::<f64>());
        let cached = model.files().iter().zip(reads);
        let cached_chunks = cached
            .map(|(f, reads)| (f.k as f64 - reads).round().max(0.0) as usize)
            .collect();
        Ok(CachePlan {
            cached_chunks,
            scheduling,
            z,
            objective: bounds.total,
            per_file_latency: bounds.per_file,
            trace: ConvergenceTrace::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FileModel, ROW_SUM_SLACK};
    use rand::{Rng, SeedableRng};
    use sprout_queueing::dist::ServiceDistribution;

    /// A small instance resembling the paper's setup: heterogeneous nodes,
    /// (7, 4)-like codes shrunk to (4, 2) for test speed.
    fn model(num_files: usize, rate_scale: f64) -> StorageModel {
        let service_rates = [0.1, 0.1, 0.09, 0.09, 0.067, 0.067];
        let nodes = service_rates
            .iter()
            .map(|&mu| ServiceDistribution::exponential(mu).moments())
            .collect();
        let files = (0..num_files)
            .map(|i| {
                let placement: Vec<usize> = (0..4).map(|j| (i + j) % 6).collect();
                let rate = rate_scale * (1.0 + (i % 5) as f64 * 0.2);
                FileModel::new(rate, 2, placement)
            })
            .collect();
        StorageModel::new(nodes, files).unwrap()
    }

    #[test]
    fn outer_loop_stops_unless_the_best_objective_improved_by_the_tolerance() {
        // improving by more than the tolerance: keep going
        assert!(!settled(60.0, 59.9, 0.01));
        // flat, or improving by less than the tolerance: stop
        assert!(settled(60.0, 60.0, 0.01));
        assert!(settled(60.0, 59.995, 0.01));
        // settled above the best by more than the tolerance (59.88 against a
        // best of 59.864 at 1000 files): stop, which `|Δ| < ε` never did
        assert!(settled(59.864, 59.88, 0.01));
    }

    #[test]
    fn cache_capacity_is_respected_and_fully_used_when_beneficial() {
        let m = model(6, 0.02);
        for capacity in [0usize, 1, 3, 6, 12] {
            let plan = Optimizer::default().run(&m, capacity).unwrap();
            let used = plan.cache_chunks_used();
            assert!(used <= capacity, "capacity {capacity}: used {used}");
            // every cached chunk count is within [0, k_i]
            for (d, f) in plan.cached_chunks.iter().zip(m.files()) {
                assert!(*d <= f.k);
            }
            if capacity > 0 && capacity <= m.max_useful_cache() {
                assert!(
                    used > 0,
                    "a non-trivial cache should be used (capacity {capacity})"
                );
            }
        }
    }

    #[test]
    fn latency_decreases_with_cache_size() {
        let m = model(8, 0.012);
        let mut prev = f64::INFINITY;
        for capacity in [0usize, 2, 4, 8, 16] {
            let plan = Optimizer::default().run(&m, capacity).unwrap();
            assert!(
                plan.objective <= prev + 0.05,
                "latency should not increase materially with more cache: {prev} -> {}",
                plan.objective
            );
            prev = prev.min(plan.objective);
        }
    }

    #[test]
    fn full_cache_gives_zero_latency() {
        let m = model(4, 0.02);
        let plan = Optimizer::default().run(&m, m.max_useful_cache()).unwrap();
        assert!(
            plan.objective < 1e-6,
            "all chunks cached should give ~0 latency, got {}",
            plan.objective
        );
        for (d, f) in plan.cached_chunks.iter().zip(m.files()) {
            assert_eq!(*d, f.k);
        }
    }

    #[test]
    fn scheduling_is_consistent_with_cache_allocation() {
        let m = model(6, 0.02);
        let plan = Optimizer::default().run(&m, 5).unwrap();
        for (i, f) in m.files().iter().enumerate() {
            let reads: f64 = plan.scheduling[i].iter().sum();
            let expected = f.k as f64 - plan.cached_chunks[i] as f64;
            assert!(
                (reads - expected).abs() < 1e-3,
                "file {i}: reads {reads} vs k - d = {expected}"
            );
            assert_eq!(
                plan.scheduling[i].len(),
                f.n(),
                "file {i}: one entry per host"
            );
            for &p in &plan.scheduling[i] {
                assert!((-1e-9..=1.0 + 1e-9).contains(&p));
            }
        }
    }

    #[test]
    fn converges_within_twenty_iterations() {
        // The paper reports convergence within 20 outer iterations at
        // tolerance 0.01 for its 1000-file instance; our smaller instances
        // must certainly meet that.
        let m = model(10, 0.01);
        let plan = Optimizer::default().run(&m, 8).unwrap();
        assert!(
            plan.trace.outer_iterations() <= 20,
            "took {} iterations",
            plan.trace.outer_iterations()
        );
        // objective history is non-increasing up to the tolerance
        for w in plan.trace.outer_objectives.windows(2) {
            assert!(w[1] <= w[0] + 0.011, "objective increased: {w:?}");
        }
    }

    #[test]
    fn higher_arrival_rate_files_get_cached_first() {
        // Two files on identical placements, one with a much higher rate: the
        // hot file should receive at least as many cache chunks.
        let nodes = (0..4)
            .map(|_| ServiceDistribution::exponential(0.1).moments())
            .collect();
        let files = vec![
            FileModel::new(0.001, 2, vec![0, 1, 2, 3]),
            FileModel::new(0.03, 2, vec![0, 1, 2, 3]),
        ];
        let m = StorageModel::new(nodes, files).unwrap();
        let plan = Optimizer::default().run(&m, 2).unwrap();
        assert!(
            plan.cached_chunks[1] >= plan.cached_chunks[0],
            "hot file should be cached at least as much: {:?}",
            plan.cached_chunks
        );
        assert!(plan.cached_chunks[1] >= 1);
    }

    #[test]
    fn warm_start_matches_or_beats_cold_start() {
        let m = model(8, 0.012);
        let optimizer = Optimizer::new(OptimizerConfig::default());
        let cold = optimizer.run(&m, 6).unwrap();
        let warm = optimizer.warm_start(&cold).run(&m, 6).unwrap();
        assert!(warm.objective <= cold.objective + 0.02);
    }

    #[test]
    fn unstable_model_is_reported() {
        let nodes = vec![
            ServiceDistribution::exponential(0.001).moments(),
            ServiceDistribution::exponential(0.001).moments(),
        ];
        let files = vec![FileModel::new(1.0, 2, vec![0, 1])];
        let m = StorageModel::new(nodes, files).unwrap();
        // Even with full caching allowed the initial (no-cache) point is
        // unstable; the optimizer reports the bottleneck.
        let err = Optimizer::default().run(&m, 0).unwrap_err();
        assert!(matches!(err, OptimizerError::UnstableSystem { .. }));
    }

    #[test]
    fn one_at_a_time_rounding_matches_fraction_rounding_quality() {
        let m = model(6, 0.02);
        let cfg = OptimizerConfig {
            rounding: crate::config::RoundingStrategy::OneAtATime,
            ..OptimizerConfig::default()
        };
        let one = Optimizer::new(cfg).run(&m, 4).unwrap();
        let frac = Optimizer::default().run(&m, 4).unwrap();
        assert!((one.objective - frac.objective).abs() < 0.5);
        assert!(one.cache_chunks_used() <= 4);
    }

    /// A random stable system: 4–7 exponential nodes, 2–6 files with
    /// `k ∈ 1..=3` on `k + 0..=2` consecutive nodes, and light rates.
    fn random_model(seed: u64) -> StorageModel {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = rng.gen_range(4usize..8);
        let nodes = (0..m)
            .map(|_| ServiceDistribution::exponential(rng.gen_range(0.5..1.0)).moments())
            .collect();
        let files = (0..rng.gen_range(2usize..7))
            .map(|_| {
                let k = rng.gen_range(1usize..4);
                let (n, first) = (k + rng.gen_range(0usize..3), rng.gen_range(0..m));
                let placement = (0..n).map(|r| (first + r) % m).collect();
                FileModel::new(rng.gen_range(0.01..0.05), k, placement)
            })
            .collect();
        StorageModel::new(nodes, files).unwrap()
    }

    #[test]
    fn evaluating_a_plans_rows_reproduces_the_plan_to_the_bit() {
        for seed in 0..16 {
            let model = random_model(seed);
            let capacity = seed as usize % (model.max_useful_cache() + 1);
            let plan = Optimizer::default().run(&model, capacity).unwrap();
            let again = CachePlan::evaluate(&model, plan.scheduling.clone()).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                again.objective.to_bits(),
                plan.objective.to_bits(),
                "seed {seed}"
            );
            assert_eq!(bits(&again.z), bits(&plan.z), "seed {seed}");
            assert_eq!(
                bits(&again.per_file_latency),
                bits(&plan.per_file_latency),
                "seed {seed}"
            );
            assert_eq!(again.cached_chunks, plan.cached_chunks, "seed {seed}");
            assert_eq!(again.trace, ConvergenceTrace::default());
        }
    }

    #[test]
    fn misshapen_rows_are_invalid_and_an_overload_names_its_node() {
        let nodes = vec![
            ServiceDistribution::exponential(1.0).moments(),
            ServiceDistribution::exponential(0.25).moments(),
            ServiceDistribution::exponential(1.0).moments(),
        ];
        let files = vec![FileModel::new(0.4, 2, vec![0, 1, 2])];
        let model = StorageModel::new(nodes, files).unwrap();
        for rows in [vec![], vec![vec![1.0; 3]; 2], vec![vec![1.0; 2]]] {
            let err = CachePlan::evaluate(&model, rows.clone()).unwrap_err();
            assert!(matches!(err, OptimizerError::InvalidModel(_)), "{rows:?}");
            let warm = CachePlan {
                scheduling: rows,
                ..CachePlan::evaluate(&model, vec![vec![1.0, 0.0, 1.0]]).unwrap()
            };
            let err = Optimizer::default().warm_start(&warm).run(&model, 0);
            assert!(matches!(err, Err(OptimizerError::InvalidModel(_))));
        }
        // Reading node 1 (rate 0.25) on every request loads it to 1.6.
        let err = CachePlan::evaluate(&model, vec![vec![1.0, 1.0, 0.0]]).unwrap_err();
        assert!(
            matches!(err, OptimizerError::UnstableSystem { node: 1, utilization } if utilization >= 1.0),
            "{err:?}"
        );
        // Rows that skip the slow node bound the file and cache nothing.
        let plan = CachePlan::evaluate(&model, vec![vec![1.0, 0.0, 1.0]]).unwrap();
        assert_eq!(plan.cached_chunks, [0]);
        assert!(plan.objective.is_finite() && plan.objective > 0.0);
        assert_eq!(plan.objective, plan.per_file_latency[0]);
    }

    #[test]
    fn rows_that_are_not_probabilities_are_invalid() {
        let nodes = vec![ServiceDistribution::exponential(1.0).moments(); 3];
        let files = vec![FileModel::new(0.4, 2, vec![0, 1, 2])];
        let model = StorageModel::new(nodes, files).unwrap();
        // A negative entry once reached the node queue's arrival-rate
        // assertion and aborted; entries above 1, non-finite entries and
        // rows reading more than k chunks were priced.
        let bad = [
            vec![-1e-6, 1.0, 1.0],
            vec![f64::NAN, 1.0, 0.0],
            vec![f64::INFINITY, 0.0, 0.0],
            vec![1.5, 0.5, 0.0],
            vec![1.0, 1.0, 0.5],
        ];
        for row in bad {
            let err = CachePlan::evaluate(&model, vec![row.clone()]).unwrap_err();
            assert!(matches!(err, OptimizerError::InvalidModel(_)), "{row:?}");
            let warm = CachePlan {
                scheduling: vec![row.clone()],
                ..CachePlan::evaluate(&model, vec![vec![1.0, 0.0, 1.0]]).unwrap()
            };
            let err = Optimizer::default().warm_start(&warm).run(&model, 0);
            assert!(
                matches!(err, Err(OptimizerError::InvalidModel(_))),
                "{row:?}"
            );
        }
        // Roundoff past k within the slack is a scheduling; -0.0 is zero.
        for row in [vec![1.0, 1.0, ROW_SUM_SLACK], vec![1.0, -0.0, 1.0]] {
            let plan = CachePlan::evaluate(&model, vec![row.clone()]).unwrap();
            assert!(plan.objective.is_finite(), "{row:?}");
        }
    }
}

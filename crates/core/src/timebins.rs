//! Re-optimizing the cache across time bins.
//!
//! The paper assumes time-scale separation: arrival rates are stationary
//! within a bin and the cache plan is recomputed at every bin boundary
//! (§III). Content whose allocation shrinks is evicted immediately; content
//! whose allocation grows is filled in lazily when the file is next accessed,
//! so the transition adds no extra network traffic. [`TimeBinManager`]
//! reproduces that behaviour and reports how the cache evolves — the data
//! behind Table I / Fig. 5.

use sprout_optimizer::{CachePlan, OptimizerConfig};
use sprout_workload::timebins::RateSchedule;

use crate::error::SproutError;
use crate::system::SproutSystem;

/// How a single file's cache allocation changes between two bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheDelta {
    /// File index.
    pub file: usize,
    /// Cached chunks in the previous bin.
    pub before: usize,
    /// Cached chunks in the new bin.
    pub after: usize,
}

impl CacheDelta {
    /// Chunks that must eventually be added (lazily, on first access).
    pub(crate) fn added(&self) -> usize {
        self.after.saturating_sub(self.before)
    }

    /// Chunks evicted at the bin boundary.
    pub fn removed(&self) -> usize {
        self.before.saturating_sub(self.after)
    }
}

/// The outcome of one time bin.
#[derive(Debug, Clone, PartialEq)]
pub struct BinOutcome {
    /// Index of the bin in the schedule.
    pub bin: usize,
    /// Arrival rates in force during the bin.
    pub rates: Vec<f64>,
    /// The optimized plan for the bin.
    pub plan: CachePlan,
    /// Per-file changes relative to the previous bin (empty for the first).
    pub deltas: Vec<CacheDelta>,
}

impl BinOutcome {
    /// Total chunks added across files (lazy fills).
    pub fn chunks_added(&self) -> usize {
        self.deltas.iter().map(CacheDelta::added).sum()
    }

    /// Total chunks evicted at the boundary.
    pub fn chunks_removed(&self) -> usize {
        self.deltas.iter().map(CacheDelta::removed).sum()
    }
}

/// Runs the optimizer at every bin of a rate schedule, warm-starting each bin
/// from the previous bin's plan.
#[derive(Debug, Clone)]
pub struct TimeBinManager {
    system: SproutSystem,
    config: OptimizerConfig,
}

impl TimeBinManager {
    /// Creates a manager for the given base system (its file population and
    /// placement are reused in every bin; only arrival rates change).
    pub fn new(system: SproutSystem, config: OptimizerConfig) -> Self {
        TimeBinManager { system, config }
    }

    /// Optimizes every bin of the schedule and reports the cache evolution.
    ///
    /// # Errors
    ///
    /// * [`SproutError::InvalidSpec`] if the schedule's file count differs
    ///   from the system's.
    /// * Propagated optimizer errors.
    pub fn run(&self, schedule: &RateSchedule) -> Result<Vec<BinOutcome>, SproutError> {
        if schedule.num_files() != self.system.spec().files.len() {
            return Err(SproutError::InvalidSpec(format!(
                "schedule covers {} files but the system has {}",
                schedule.num_files(),
                self.system.spec().files.len()
            )));
        }
        let mut outcomes = Vec::with_capacity(schedule.len());
        let mut previous: Option<CachePlan> = None;
        for (bin, timebin) in schedule.bins().iter().enumerate() {
            let system = self.system.with_arrival_rates(&timebin.rates)?;
            let plan = match &previous {
                Some(prev) => system.optimize_warm(&self.config, prev)?,
                None => system.optimize_with(&self.config)?,
            };
            let deltas = match &previous {
                Some(prev) => prev
                    .cached_chunks
                    .iter()
                    .zip(&plan.cached_chunks)
                    .enumerate()
                    .map(|(file, (&before, &after))| CacheDelta {
                        file,
                        before,
                        after,
                    })
                    .collect(),
                None => Vec::new(),
            };
            outcomes.push(BinOutcome {
                bin,
                rates: timebin.rates.clone(),
                plan: plan.clone(),
                deltas,
            });
            previous = Some(plan);
        }
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SystemSpec;
    use sprout_workload::timebins::{RateSchedule, TimeBin};

    fn system(num_files: usize) -> SproutSystem {
        let spec = SystemSpec::builder()
            .node_service_rates(&[0.5, 0.5, 0.4, 0.4, 0.35, 0.35])
            .uniform_files(num_files, 2, 4, 0.02)
            .cache_capacity_chunks(4)
            .seed(8)
            .build()
            .unwrap();
        SproutSystem::new(spec).unwrap()
    }

    #[test]
    fn cache_follows_the_hot_files_across_bins() {
        let system = system(4);
        let manager = TimeBinManager::new(system, OptimizerConfig::default());
        // Bin 1: file 0 hot. Bin 2: file 3 hot.
        let schedule = RateSchedule::new(vec![
            TimeBin::new(100.0, vec![0.20, 0.01, 0.01, 0.01]),
            TimeBin::new(100.0, vec![0.01, 0.01, 0.01, 0.20]),
        ]);
        let outcomes = manager.run(&schedule).unwrap();
        assert_eq!(outcomes.len(), 2);
        let first = &outcomes[0].plan.cached_chunks;
        let second = &outcomes[1].plan.cached_chunks;
        assert!(
            first[0] >= first[3],
            "bin 1 should favour file 0: {first:?}"
        );
        assert!(
            second[3] >= second[0],
            "bin 2 should favour file 3: {second:?}"
        );
        assert!(outcomes[0].deltas.is_empty());
        assert_eq!(outcomes[1].deltas.len(), 4);
        // Conservation: chunks added/removed are consistent with the plans.
        let added = outcomes[1].chunks_added();
        let removed = outcomes[1].chunks_removed();
        let used0: usize = first.iter().sum();
        let used1: usize = second.iter().sum();
        assert_eq!(used0 + added - removed, used1);
    }

    #[test]
    fn mismatched_schedule_is_rejected() {
        let system = system(3);
        let manager = TimeBinManager::new(system, OptimizerConfig::fast());
        let schedule = RateSchedule::new(vec![TimeBin::new(10.0, vec![0.1; 7])]);
        assert!(matches!(
            manager.run(&schedule),
            Err(SproutError::InvalidSpec(_))
        ));
    }

    #[test]
    fn delta_arithmetic() {
        let d = CacheDelta {
            file: 0,
            before: 3,
            after: 1,
        };
        assert_eq!(d.removed(), 2);
        assert_eq!(d.added(), 0);
        let d = CacheDelta {
            file: 1,
            before: 0,
            after: 4,
        };
        assert_eq!(d.added(), 4);
        assert_eq!(d.removed(), 0);
    }
}

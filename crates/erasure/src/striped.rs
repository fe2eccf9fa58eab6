//! Multi-threaded striped execution of slice-parallel coding work.
//!
//! Reed–Solomon encode and decode are byte-wise independent: output byte
//! `i` of every coded chunk depends only on byte `i` of each input chunk.
//! Large-object coding is therefore embarrassingly parallel along the chunk
//! length — the same stripe-per-block layout production object stores use.
//! This module provides the shared machinery:
//!
//! * [`StripeOpts`] — stripe length and worker-thread budget;
//! * `carve` — chops a set of output buffers into per-stripe sets of
//!   disjoint `&mut` sub-slices (no copying, no allocation per byte);
//! * `run_tasks` — executes the per-stripe closures on a scoped thread
//!   pool ([`std::thread::scope`]), workers taking contiguous stripe
//!   batches.
//!
//! Determinism is structural: stripes are disjoint byte ranges written in
//! place, so the result is identical for any worker count or scheduling
//! order — "reassembly" is the identity. The differential property test in
//! `tests/striped_properties.rs` proves a striped codec byte-identical to
//! an unstriped one.

use std::ops::Range;

/// Options for striped (multi-threaded) encode/decode of large objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeOpts {
    /// Bytes of each chunk processed per stripe task. Smaller stripes give
    /// better load balance; larger stripes amortize dispatch. The default
    /// (64 KiB) keeps a stripe's working set (k + parity buffers) inside L2.
    pub stripe_len: usize,
    /// Maximum worker threads; `0` means [`std::thread::available_parallelism`],
    /// resolved once when a codec takes the options. Coding never spawns
    /// more workers than there are stripes, and a single-stripe or
    /// single-thread call runs inline with no pool at all.
    pub threads: usize,
}

impl Default for StripeOpts {
    fn default() -> Self {
        StripeOpts {
            stripe_len: 64 * 1024,
            threads: 0,
        }
    }
}

impl StripeOpts {
    /// Creates options with an explicit stripe length and thread budget.
    ///
    /// # Panics
    ///
    /// Panics if `stripe_len == 0`.
    pub fn new(stripe_len: usize, threads: usize) -> Self {
        assert!(stripe_len > 0, "stripe length must be positive");
        StripeOpts {
            stripe_len,
            threads,
        }
    }

    /// These options with `threads: 0` replaced by the machine's available
    /// parallelism (which reads cgroup files, so it is asked once per codec,
    /// not once per call).
    pub(crate) fn resolved(self) -> Self {
        if self.threads > 0 {
            return self;
        }
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        StripeOpts { threads, ..self }
    }
}

/// One stripe's work item: the byte range it covers (relative to the chunk
/// length) and the matching sub-slice of every output buffer.
pub(crate) struct StripeTask<'a> {
    /// Byte range of the chunk this task covers.
    pub range: Range<usize>,
    /// `outputs[i][range]` for every output buffer, as disjoint `&mut`s.
    pub outs: Vec<&'a mut [u8]>,
}

/// Splits every output buffer along `ranges`, producing one [`StripeTask`]
/// per range whose `outs[i]` is `outputs[i][range]`.
///
/// The ranges must be consecutive and start at 0 (as produced by
/// [`crate::stripe::stripe_ranges`]); each buffer must be at least as long
/// as the last range's end.
///
/// # Panics
///
/// Panics if a buffer is too short for the ranges.
pub(crate) fn carve<'a>(
    outputs: &'a mut [&mut [u8]],
    ranges: &[Range<usize>],
) -> Vec<StripeTask<'a>> {
    let mut rest: Vec<&'a mut [u8]> = outputs.iter_mut().map(|o| &mut **o).collect();
    let mut tasks = Vec::with_capacity(ranges.len());
    for range in ranges {
        let mut outs = Vec::with_capacity(rest.len());
        for slot in rest.iter_mut() {
            let taken = std::mem::take(slot);
            let (head, tail) = taken.split_at_mut(range.len());
            outs.push(head);
            *slot = tail;
        }
        tasks.push(StripeTask {
            range: range.clone(),
            outs,
        });
    }
    tasks
}

/// Runs `work(range, outs)` for every task, fanned out over at most
/// `workers` scoped threads (contiguous stripe batches per worker).
///
/// With one worker or at most one task everything runs inline on the
/// calling thread — the hot small-object path never pays a spawn.
pub(crate) fn run_tasks<F>(tasks: Vec<StripeTask<'_>>, workers: usize, work: F)
where
    F: Fn(&Range<usize>, &mut [&mut [u8]]) + Sync,
{
    let workers = workers.min(tasks.len()).max(1);
    if workers == 1 {
        for mut task in tasks {
            work(&task.range, &mut task.outs);
        }
        return;
    }
    let per_worker = tasks.len().div_ceil(workers);
    let work = &work;
    std::thread::scope(|scope| {
        let mut iter = tasks.into_iter();
        loop {
            let batch: Vec<StripeTask<'_>> = iter.by_ref().take(per_worker).collect();
            if batch.is_empty() {
                break;
            }
            scope.spawn(move || {
                for mut task in batch {
                    work(&task.range, &mut task.outs);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stripe::stripe_ranges;

    #[test]
    fn default_opts_are_sane() {
        let opts = StripeOpts::default();
        assert_eq!(opts.stripe_len, 64 * 1024);
        assert!(opts.resolved().threads >= 1);
        assert_eq!(StripeOpts::new(8, 3).resolved(), StripeOpts::new(8, 3));
    }

    #[test]
    #[should_panic(expected = "stripe length must be positive")]
    fn zero_stripe_len_panics() {
        let _ = StripeOpts::new(0, 1);
    }

    #[test]
    fn carve_produces_disjoint_full_coverage() {
        let mut a = vec![0u8; 10];
        let mut b = vec![0u8; 10];
        let mut outs: Vec<&mut [u8]> = vec![&mut a, &mut b];
        let ranges = stripe_ranges(10, 4);
        let tasks = carve(&mut outs, &ranges);
        assert_eq!(tasks.len(), 3);
        for (task, want) in tasks.iter().zip([0..4, 4..8, 8..10]) {
            assert_eq!(task.range, want);
            assert_eq!(task.outs.len(), 2);
            assert!(task.outs.iter().all(|o| o.len() == task.range.len()));
        }
    }

    #[test]
    fn run_tasks_writes_every_byte_for_any_worker_count() {
        for workers in [1usize, 2, 3, 8] {
            let mut buf = vec![0u8; 100];
            let mut outs: Vec<&mut [u8]> = vec![&mut buf];
            let ranges = stripe_ranges(100, 7);
            let tasks = carve(&mut outs, &ranges);
            run_tasks(tasks, workers, |range, outs| {
                for (i, byte) in outs[0].iter_mut().enumerate() {
                    *byte = (range.start + i) as u8;
                }
            });
            let want: Vec<u8> = (0..100u8).collect();
            assert_eq!(buf, want, "workers={workers}");
        }
    }

    #[test]
    fn empty_task_set_is_a_no_op() {
        run_tasks(Vec::new(), 4, |_, _| panic!("no tasks to run"));
    }
}

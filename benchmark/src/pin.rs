//! Pins the daemon's worker threads to one CPU each.
//!
//! On the two-vCPU boxes this benchmark is sized for, the guest scheduler
//! sometimes leaves both workers (and the generator that wakes them) on one
//! CPU for a whole phase while the other CPU idles; saturated throughput then
//! reads exactly half, about one phase in four. That is placement luck, not
//! a property of the code under test, and no number of repetitions medians
//! it away. `Sproutd` spawns its workers itself, so they are found as the
//! thread ids that appeared across `Sproutd::start` and pinned from outside.
//! The generator thread stays unpinned.

/// Thread ids of this process, sorted.
pub fn thread_ids() -> Vec<i32> {
    let mut ids: Vec<i32> = std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| entry.file_name().to_str()?.parse().ok())
        .collect();
    ids.sort_unstable();
    ids
}

/// CPUs this process may run on (`Cpus_allowed_list`, e.g. `0-1,4`).
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    list.trim()
        .split(',')
        .filter_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            Some(lo.parse::<usize>().ok()?..=hi.parse::<usize>().ok()?)
        })
        .flatten()
        .collect()
}

#[cfg(target_os = "linux")]
fn pin_thread(tid: i32, cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    const WORDS: usize = 16;
    if cpu >= WORDS * 64 {
        return false;
    }
    let mut mask = [0u64; WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, properly aligned buffer of exactly the
    // `cpusetsize` bytes passed; the kernel only reads it. `tid` names a
    // thread of this process or the call fails with ESRCH, which is reported.
    unsafe { sched_setaffinity(tid, WORDS * 8, mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn pin_thread(_tid: i32, _cpu: usize) -> bool {
    false
}

/// Pins every thread that is not in `before` to its own allowed CPU, round
/// robin. Returns how many threads were pinned (0 where unsupported).
pub fn pin_new_threads(before: &[i32]) -> usize {
    let cpus = allowed_cpus();
    if cpus.is_empty() {
        return 0;
    }
    thread_ids()
        .into_iter()
        .filter(|tid| !before.contains(tid))
        .enumerate()
        .filter(|&(i, tid)| pin_thread(tid, cpus[i % cpus.len()]))
        .count()
}

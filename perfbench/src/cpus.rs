//! Timing single-threaded work on every CPU in turn.
//!
//! On a small VM the vCPUs do not run at the same speed: at one moment
//! set-up differed by up to 70% and single-threaded training by 30%
//! between the two vCPUs. A process's main thread mostly stays on one
//! vCPU, so a single-threaded time taken there depends on where the
//! process happened to land. Running each repetition on a thread pinned
//! to each allowed CPU in turn, and averaging the per-CPU medians,
//! removes that placement from the number. Multi-threaded work is not
//! pinned: its threads already spread over the CPUs.

use std::time::Instant;

/// `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on, or an empty list when the
/// mask cannot be read.
fn allowed() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer and its size
    // is passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread to `cpu`. If the kernel refuses, the thread
/// stays unpinned, which only brings back the placement effect.
fn pin(cpu: usize) {
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable `cpu_set_t`-sized buffer and its size
    // is passed; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
}

/// The CPUs to take turns on; a single `None` (run unpinned) when the
/// affinity mask cannot be read.
pub fn turns() -> Vec<Option<usize>> {
    let cpus: Vec<Option<usize>> = allowed().into_iter().map(Some).collect();
    if cpus.is_empty() {
        vec![None]
    } else {
        cpus
    }
}

/// Runs `f` on a fresh thread pinned to `cpu` (unpinned for `None`).
pub fn pinned<T: Send>(cpu: Option<usize>, f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        s.spawn(move || {
            if let Some(cpu) = cpu {
                pin(cpu);
            }
            f()
        })
        .join()
        .expect("pinned thread panicked")
    })
}

/// The mean over CPUs of each CPU's median, where `values[i]` was
/// measured on `turns[i % turns.len()]`; also returns the medians.
pub fn balanced(values: &[f64], turns: usize) -> (f64, Vec<f64>) {
    let medians: Vec<f64> = (0..turns.min(values.len()))
        .map(|c| {
            let on_cpu: Vec<f64> = values.iter().skip(c).step_by(turns).copied().collect();
            crate::spans::median(&on_cpu)
        })
        .collect();
    (crate::spans::mean(&medians), medians)
}

/// Times `setup` `rounds` times on each CPU in turn and returns the
/// balanced median in seconds, with the per-CPU medians. The set-up's
/// result is dropped after the clock stops.
pub fn setup_seconds<T>(rounds: usize, setup: impl Fn() -> T + Sync) -> (f64, Vec<f64>) {
    let turns = turns();
    let times: Vec<f64> = (0..rounds * turns.len())
        .map(|i| {
            pinned(turns[i % turns.len()], || {
                let t = Instant::now();
                let built = std::hint::black_box(setup());
                let secs = t.elapsed().as_secs_f64();
                drop(built);
                secs
            })
        })
        .collect();
    balanced(&times, turns.len())
}

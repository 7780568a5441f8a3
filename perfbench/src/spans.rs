//! In-memory span recording for the traced run, plus the small
//! statistics helpers every metric is reduced with.
//!
//! A span is one timed call into a layer, recorded by the benchmark's
//! adapters around the program's public functions. Each thread appends
//! to its own buffer; the buffers are registered once in a global list
//! so the main thread can drain them after the run, whether or not the
//! recording threads are still alive.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One timed call: layer function, start and end (ns since the process
/// epoch), the recording thread, and the batch it served.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u32,
    pub batch: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

fn registry() -> &'static Mutex<Vec<Buffer>> {
    static REGISTRY: OnceLock<Mutex<Vec<Buffer>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static LOCAL: (u32, Buffer) = {
        static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
        let buffer: Buffer = Arc::new(Mutex::new(Vec::with_capacity(4096)));
        registry()
            .lock()
            .expect("span registry poisoned by a panicking thread")
            .push(Arc::clone(&buffer));
        (NEXT_THREAD.fetch_add(1, Ordering::Relaxed), buffer)
    };
}

/// Nanoseconds since the process epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Appends a span to the calling thread's buffer.
pub fn record(name: &'static str, start_ns: u64, end_ns: u64, batch: u64) {
    LOCAL.with(|(thread, buffer)| {
        buffer
            .lock()
            .expect("span buffer poisoned by a panicking thread")
            .push(Span {
                name,
                start_ns,
                end_ns,
                thread: *thread,
                batch,
            })
    });
}

/// Takes every span recorded so far, on any thread, ordered by start.
pub fn drain() -> Vec<Span> {
    let buffers = registry()
        .lock()
        .expect("span registry poisoned by a panicking thread");
    let mut all: Vec<Span> = buffers
        .iter()
        .flat_map(|b| {
            std::mem::take(
                &mut *b
                    .lock()
                    .expect("span buffer poisoned by a panicking thread"),
            )
        })
        .collect();
    all.sort_by_key(|s| (s.start_ns, s.thread));
    all
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Step times (ns): the gaps between consecutive `marker` instants of
/// each thread.
pub fn step_gaps(recorded: &[Span], marker: &str) -> Vec<u64> {
    let mut last: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    let mut gaps = Vec::new();
    for s in recorded.iter().filter(|s| s.name == marker) {
        if let Some(prev) = last.insert(s.thread, s.start_ns) {
            gaps.push(s.start_ns - prev);
        }
    }
    gaps
}

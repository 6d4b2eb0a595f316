//! Minimal benchmark harness for the `benches/` targets.
//!
//! The build environment has no registry access, so Criterion is not
//! available; this provides the small subset the benches need — named
//! benchmarks, warm-up, a fixed sample count, and median/mean reporting —
//! with a Criterion-like API so the bench sources read the same way.
//!
//! Run with `cargo bench -p pretium-bench`. Results print as
//! `name  median  mean  (samples)` and a machine-readable `BENCH\t` line
//! per benchmark for scripts to scrape.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box as std_black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The system allocator with a counter in front: allocations and
/// reallocations are counted, frees are not (the contracts under test are
/// of the form "no new memory on this path"). A bench opts in with
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;` and
/// reads the counter through [`allocations`].
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations made so far by a bench running under
/// [`CountingAlloc`] (always 0 under any other allocator).
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Where and when a recorded number was taken, as JSON members (no
/// braces): core count, `git describe --always --dirty`, UTC date.
pub fn provenance_json() -> String {
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let commit = run("git", &["describe", "--always", "--dirty"]);
    let date = run("date", &["-u", "+%F"]);
    format!("\"cores\": {cores},\n  \"commit\": \"{commit}\",\n  \"date\": \"{date}\"")
}

/// Re-export so benches can `use pretium_bench::black_box`.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// One measured benchmark result.
#[derive(Debug, Clone)]
pub struct Measurement {
    pub name: String,
    pub samples: Vec<Duration>,
}

impl Measurement {
    pub fn median(&self) -> Duration {
        let mut s = self.samples.clone();
        s.sort();
        s[s.len() / 2]
    }

    pub fn mean(&self) -> Duration {
        let total: Duration = self.samples.iter().sum();
        total / self.samples.len() as u32
    }
}

/// Passed to the closure given to [`Harness::bench_function`]; call
/// [`Bencher::iter`] exactly once with the body to measure.
pub struct Bencher {
    samples: usize,
    min_iters: u64,
    recorded: Option<Vec<Duration>>,
}

impl Bencher {
    /// Measure `body`. Each sample runs the body enough times to exceed a
    /// minimum per-sample duration, then records the per-iteration time.
    pub fn iter<T>(&mut self, mut body: impl FnMut() -> T) {
        // Warm-up + calibration: find an iteration count that takes long
        // enough to time reliably.
        let mut iters = self.min_iters;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                std_black_box(body());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(5) || iters >= 1 << 20 {
                break;
            }
            iters *= 2;
        }
        let mut samples = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                std_black_box(body());
            }
            samples.push(start.elapsed() / iters as u32);
        }
        self.recorded = Some(samples);
    }
}

/// Collects and reports benchmarks; the harness analogue of `Criterion`.
pub struct Harness {
    samples: usize,
    results: Vec<Measurement>,
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

impl Harness {
    pub fn new() -> Self {
        Harness { samples: 10, results: Vec::new() }
    }

    /// Number of timed samples per benchmark (default 10).
    pub fn sample_size(mut self, n: usize) -> Self {
        self.samples = n.max(2);
        self
    }

    /// Run one named benchmark. Honors the usual bench-filter argument:
    /// `cargo bench -p pretium-bench -- <substring>` skips non-matching
    /// names.
    pub fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        if let Some(filter) = std::env::args().nth(1) {
            if !filter.starts_with('-') && !name.contains(&filter) {
                return self;
            }
        }
        let mut b = Bencher { samples: self.samples, min_iters: 1, recorded: None };
        f(&mut b);
        let samples = b.recorded.expect("bench closure must call Bencher::iter");
        let m = Measurement { name: name.to_string(), samples };
        println!(
            "{:<44} median {:>12?}  mean {:>12?}  ({} samples)",
            m.name,
            m.median(),
            m.mean(),
            m.samples.len()
        );
        println!("BENCH\t{}\t{}", m.name, m.median().as_nanos());
        self.results.push(m);
        self
    }

    /// All measurements so far, for benches that post-process (e.g. compute
    /// a warm/cold ratio).
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }

    /// Look up a finished measurement by exact name.
    pub fn get(&self, name: &str) -> Option<&Measurement> {
        self.results.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_measures_and_reports() {
        let mut h = Harness::new().sample_size(3);
        h.bench_function("noop", |b| b.iter(|| 1 + 1));
        let m = h.get("noop").expect("recorded");
        assert_eq!(m.samples.len(), 3);
        assert!(m.median() <= m.samples.iter().max().cloned().unwrap());
    }
}

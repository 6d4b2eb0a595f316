//! Parallel evaluation engine.
//!
//! The evaluation sweep grid — `(figure × axis point × scheme)` — is
//! embarrassingly parallel: every *cell* builds its own seeded scenario (or
//! shares an immutable one behind `Arc`) and solves independently. This
//! module executes a batch of such cells across worker threads and
//! reassembles the results **in declaration order**, so a parallel run is
//! bit-identical to a serial one:
//!
//! * each cell's randomness is a pure function of `(run seed, cell label)`
//!   via [`rand::derive_seed`] — never of thread identity or timing;
//! * results land in a slot indexed by the cell's declaration position, so
//!   completion order is invisible to the caller;
//! * a panicking cell aborts the batch and re-panics **with the cell's
//!   label** after all workers have parked — the pool itself is never
//!   poisoned, and the remaining cells' results are simply discarded.
//!
//! The scheduler is one shared cursor over the declaration-ordered cells:
//! a worker takes the next cell nobody has started, runs it, and leaves
//! when the cursor is exhausted. Cells are coarse-grained (whole scheme
//! solves, milliseconds to seconds), so one lock acquisition per cell is
//! noise, and handing cells out one at a time balances load as well as
//! stealing would.
//!
//! This is the workspace's one thread pool: the LP solver prices serially
//! (DESIGN.md §19).

use pretium_core::PoolTelemetry;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Number of workers to use when the caller does not specify `--jobs`:
/// whatever parallelism the host advertises.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// One unit of parallel work: a label (used for seed derivation upstream,
/// telemetry, and panic attribution) plus the closure that computes it.
pub struct Cell<T, E> {
    pub label: String,
    pub run: Box<dyn FnOnce() -> Result<T, E> + Send>,
}

impl<T, E> Cell<T, E> {
    pub fn new(
        label: impl Into<String>,
        run: impl FnOnce() -> Result<T, E> + Send + 'static,
    ) -> Self {
        Cell { label: label.into(), run: Box::new(run) }
    }
}

/// First panic observed in a worker, with the offending cell's label.
#[derive(Default)]
struct PanicSlot {
    first: Mutex<Option<(String, String)>>,
}

impl PanicSlot {
    fn record(&self, label: &str, payload: &(dyn std::any::Any + Send)) {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        let mut slot = self.first.lock().unwrap();
        if slot.is_none() {
            *slot = Some((label.to_string(), msg));
        }
    }
}

/// Execute `cells` on `jobs` workers and return their results in
/// declaration order, plus the pool's telemetry.
///
/// Determinism contract: the returned vector depends only on the cells
/// themselves — `jobs` and scheduling order affect wall clock and
/// telemetry, never results. `jobs <= 1` runs the same code path minus the
/// threads (one in-line worker), so `--jobs 1` is the serial reference the
/// determinism suite compares against.
///
/// A panic inside any cell cancels the not-yet-started cells, waits for
/// in-flight ones, then re-panics with the cell's label; the pool unwinds
/// cleanly rather than poisoning.
pub fn run_cells<T, E>(jobs: usize, cells: Vec<Cell<T, E>>) -> (Vec<Result<T, E>>, PoolTelemetry)
where
    T: Send,
    E: Send,
{
    let n = cells.len();
    let workers = jobs.max(1).min(n.max(1));
    let started = Instant::now();

    // One shared cursor: each worker takes the earliest cell nobody has
    // started. The lock is released before the cell runs.
    let queue = Mutex::new(cells.into_iter().enumerate());

    let results: Mutex<Vec<Option<Result<T, E>>>> = Mutex::new((0..n).map(|_| None).collect());
    let abort = AtomicBool::new(false);
    let panicked = PanicSlot::default();
    let telemetry = Mutex::new(PoolTelemetry { workers, ..Default::default() });

    let worker_loop = || {
        let mut local_cells = pretium_core::ModuleStats::default();
        let mut slowest = (String::new(), 0u128);
        loop {
            if abort.load(Ordering::Relaxed) {
                break;
            }
            let next = queue.lock().unwrap().next();
            let Some((index, cell)) = next else { break };
            let Cell { label, run } = cell;
            let t0 = Instant::now();
            match panic::catch_unwind(AssertUnwindSafe(run)) {
                Ok(result) => {
                    let elapsed = t0.elapsed();
                    local_cells.record(elapsed);
                    if elapsed.as_nanos() > slowest.1 {
                        slowest = (label, elapsed.as_nanos());
                    }
                    results.lock().unwrap()[index] = Some(result);
                }
                Err(payload) => {
                    panicked.record(&label, payload.as_ref());
                    abort.store(true, Ordering::Relaxed);
                    break;
                }
            }
        }
        let mut t = telemetry.lock().unwrap();
        if slowest.1 > t.cells.max_nanos {
            t.slowest_label = slowest.0;
        }
        t.cells.merge(&local_cells);
    };

    if workers <= 1 {
        worker_loop();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(worker_loop);
            }
        });
    }

    if let Some((label, msg)) = panicked.first.lock().unwrap().take() {
        panic::panic_any(format!("evaluation cell `{label}` panicked: {msg}"));
    }

    let mut telemetry = telemetry.into_inner().unwrap();
    telemetry.wall_nanos = started.elapsed().as_nanos();

    let results = results
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|slot| slot.expect("every cell ran exactly once"))
        .collect();
    (results, telemetry)
}

/// [`run_cells`] for infallible cells.
pub fn run_cells_ok<T: Send>(
    jobs: usize,
    cells: Vec<Cell<T, std::convert::Infallible>>,
) -> (Vec<T>, PoolTelemetry) {
    let (results, telemetry) = run_cells(jobs, cells);
    (results.into_iter().map(|r| r.unwrap()).collect(), telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_declaration_order() {
        let cells: Vec<Cell<usize, std::convert::Infallible>> = (0..64)
            .map(|i| {
                Cell::new(format!("cell/{i}"), move || {
                    // Uneven work so completion order differs from
                    // declaration order.
                    let spin = (i * 37) % 97;
                    let mut acc = 0u64;
                    for k in 0..spin * 1000 {
                        acc = acc.wrapping_add(k as u64);
                    }
                    std::hint::black_box(acc);
                    Ok(i)
                })
            })
            .collect();
        let (out, t) = run_cells_ok(8, cells);
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        assert_eq!(t.cells.calls, 64);
        assert!(t.workers >= 1);
    }

    #[test]
    fn one_worker_starts_cells_in_declaration_order() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let clock = Arc::new(AtomicUsize::new(0));
        let cells: Vec<Cell<usize, std::convert::Infallible>> = (0..32)
            .map(|i| {
                let clock = Arc::clone(&clock);
                Cell::new(format!("cell/{i}"), move || Ok(clock.fetch_add(1, Ordering::SeqCst)))
            })
            .collect();
        // Each cell returns the stamp it drew when it started; the cursor
        // hands cells out front to back, so stamp == declaration index.
        let (stamps, t) = run_cells_ok(1, cells);
        assert_eq!(stamps, (0..32).collect::<Vec<_>>());
        assert_eq!(t.workers, 1);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let make = || -> Vec<Cell<u64, std::convert::Infallible>> {
            (0..16)
                .map(|i| {
                    Cell::new(format!("c{i}"), move || {
                        let seed = rand::derive_seed(rand::DEFAULT_SEED, &format!("c{i}"));
                        Ok(seed.wrapping_mul(i as u64 + 1))
                    })
                })
                .collect()
        };
        let (a, _) = run_cells_ok(1, make());
        let (b, _) = run_cells_ok(8, make());
        assert_eq!(a, b);
    }

    #[test]
    fn errors_are_reported_per_cell() {
        let cells: Vec<Cell<u32, String>> = vec![
            Cell::new("good", || Ok(1)),
            Cell::new("bad", || Err("boom".to_string())),
            Cell::new("also-good", || Ok(3)),
        ];
        let (out, _) = run_cells(4, cells);
        assert_eq!(out[0], Ok(1));
        assert_eq!(out[1], Err("boom".to_string()));
        assert_eq!(out[2], Ok(3));
    }

    #[test]
    fn panic_carries_cell_label_and_pool_survives() {
        let build = |poison: bool| -> Vec<Cell<u32, String>> {
            (0..8)
                .map(|i| {
                    let label = format!("cell/{i}");
                    Cell::new(label, move || {
                        if poison && i == 5 {
                            panic!("injected failure");
                        }
                        Ok(i)
                    })
                })
                .collect()
        };
        let err = panic::catch_unwind(|| run_cells(4, build(true)))
            .expect_err("run must fail when a cell panics");
        let msg = err.downcast_ref::<String>().expect("string panic message");
        assert!(msg.contains("cell/5"), "panic message must name the cell: {msg}");
        assert!(msg.contains("injected failure"), "{msg}");
        // The engine is not poisoned: a fresh batch on the same thread
        // runs to completion.
        let (ok, t) = run_cells(4, build(false));
        assert_eq!(ok.len(), 8);
        assert!(ok.iter().all(|r| r.is_ok()));
        assert_eq!(t.cells.calls, 8);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn occupancy_reported_under_load() {
        let cells: Vec<Cell<u64, std::convert::Infallible>> = (0..8)
            .map(|i| {
                Cell::new(format!("w{i}"), move || {
                    let mut acc = 0u64;
                    for k in 0..200_000u64 {
                        acc = acc.wrapping_add(k ^ i);
                    }
                    Ok(std::hint::black_box(acc))
                })
            })
            .collect();
        let (_, t) = run_cells_ok(2, cells);
        assert!(t.occupancy() > 0.0 && t.occupancy() <= 1.0 + 1e-9, "{}", t.occupancy());
        assert!(!t.slowest_label.is_empty());
        assert!(t.wall() > Duration::ZERO);
    }
}

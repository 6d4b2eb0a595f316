//! Parallel evaluation engine.
//!
//! The evaluation sweep grid — `(figure × axis point × scheme)` — is
//! embarrassingly parallel: every *cell* builds its own seeded scenario and
//! solves independently. [`run_cells`] runs one function over a slice of
//! cell specs on a few worker threads and returns the results **in slice
//! order**, so a parallel run is bit-identical to a serial one:
//!
//! * each cell's randomness is a pure function of `(run seed, cell label)`
//!   via [`rand::derive_seed`] — never of thread identity or timing;
//! * every result is tagged with its spec's index and sorted back into
//!   slice order, so completion order is invisible to the caller;
//! * a panicking cell stops new claims; once every worker has joined, the
//!   panic is re-raised **with the cell's label**. The lowest panicking
//!   index wins, so the label does not depend on timing, and nothing is
//!   left poisoned.
//!
//! The scheduler is one atomic cursor over the slice: a worker claims the
//! next index nobody has claimed, runs it, and leaves when the cursor runs
//! past the end. Cells are coarse-grained (whole scheme solves,
//! milliseconds to seconds), so handing them out one at a time balances
//! load as well as stealing would. Workers share nothing else: each keeps
//! its own results, cell timings and first panic, and returns them from
//! the scoped join.
//!
//! This is the workspace's one thread pool: the LP solver prices serially
//! (DESIGN.md §19).

use pretium_core::ModuleStats;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Number of workers to use when the caller does not specify `--jobs`:
/// whatever parallelism the host advertises.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Counters of one [`run_cells`] call: how many worker threads ran, the
/// per-cell wall-clock distribution and the end-to-end wall time — enough
/// to compute pool occupancy (what fraction of `workers × wall` was spent
/// inside cells).
#[derive(Debug, Clone, Default)]
pub struct PoolTelemetry {
    /// Worker threads the pool ran with (1 = serial in-line execution).
    pub workers: usize,
    /// Per-cell wall-clock accumulator (`calls` = cells executed).
    pub cells: ModuleStats,
    /// Label of the slowest cell (the occupancy tail).
    pub slowest_label: String,
    /// End-to-end wall-clock of the pool run.
    pub wall: Duration,
}

impl PoolTelemetry {
    /// Fraction of total worker capacity (`workers × wall`) spent executing
    /// cells; 1.0 means no worker ever idled.
    pub fn occupancy(&self) -> f64 {
        let capacity = self.wall.as_nanos().saturating_mul(self.workers.max(1) as u128);
        if capacity == 0 {
            return 0.0;
        }
        self.cells.total_nanos as f64 / capacity as f64
    }

    /// The pool counters as `(field, value)` rows for table rendering.
    pub fn rows(&self) -> Vec<(String, String)> {
        vec![
            ("workers".into(), self.workers.to_string()),
            (
                "cells (count / mean / max)".into(),
                format!(
                    "{} / {:.1?} / {:.1?}",
                    self.cells.calls,
                    self.cells.mean(),
                    self.cells.max()
                ),
            ),
            ("slowest cell".into(), self.slowest_label.clone()),
            ("wall".into(), format!("{:.1?}", self.wall)),
            ("occupancy".into(), format!("{:.1}%", 100.0 * self.occupancy())),
        ]
    }
}

/// Run `run` over every item of `items` on `jobs` workers and return the
/// results in slice order, plus the pool's telemetry. `label` names a cell
/// in the telemetry and in a panic; it is called after the join, on the
/// caller's thread.
///
/// Determinism contract: the returned vector depends only on `items` and
/// `run` — `jobs` and scheduling order affect wall clock and telemetry,
/// never results. `jobs <= 1` runs the same worker in line (no thread), so
/// `--jobs 1` is the serial reference the determinism suite compares
/// against.
///
/// A panic inside any cell stops new claims and lets in-flight cells
/// finish; then the lowest panicking index is re-raised as
/// ``evaluation cell `{label}` panicked: {message}``.
pub fn run_cells<S: Sync, R: Send>(
    jobs: usize,
    items: &[S],
    label: impl Fn(&S) -> String,
    run: impl Fn(&S) -> R + Sync,
) -> (Vec<R>, PoolTelemetry) {
    let workers = jobs.clamp(1, items.len().max(1));
    let started = Instant::now();
    // Relaxed is enough: the cursor and the flag publish no data (results
    // travel through the join), and the cursor's increments are still
    // totally ordered, so every index below a claimed one is claimed.
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);

    // A worker hands back its `(index, wall time, result)` triples and its
    // first panic; nothing else is shared.
    let work = || {
        let (mut done, mut panicked) = (Vec::new(), None);
        while !stop.load(Ordering::Relaxed) {
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(index) else { break };
            let t0 = Instant::now();
            match panic::catch_unwind(AssertUnwindSafe(|| run(item))) {
                Ok(result) => done.push((index, t0.elapsed(), result)),
                Err(payload) => {
                    stop.store(true, Ordering::Relaxed);
                    panicked = Some((index, payload));
                    break;
                }
            }
        }
        (done, panicked)
    };

    let finished: Vec<_> = if workers == 1 {
        vec![work()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            // A worker catches every cell's panic, so a join error is a
            // fault of the pool itself: pass it on unchanged.
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| panic::resume_unwind(p)))
                .collect()
        })
    };
    let wall = started.elapsed();

    let (mut done, mut panics) = (Vec::with_capacity(items.len()), Vec::new());
    for (worker_done, worker_panic) in finished {
        done.extend(worker_done);
        panics.extend(worker_panic);
    }
    if let Some((index, payload)) = panics.into_iter().min_by_key(|&(index, _)| index) {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        let what = format!("evaluation cell `{}` panicked: {msg}", label(&items[index]));
        panic::resume_unwind(Box::new(what));
    }
    done.sort_unstable_by_key(|&(index, ..)| index);
    let mut telemetry = PoolTelemetry { workers, wall, ..Default::default() };
    for &(_, elapsed, _) in &done {
        telemetry.cells.record(elapsed);
    }
    if let Some(&(slowest, ..)) = done.iter().max_by_key(|&&(_, elapsed, _)| elapsed) {
        telemetry.slowest_label = label(&items[slowest]);
    }
    (done.into_iter().map(|(.., result)| result).collect(), telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `cell/{i}` for a slice of indices.
    fn cell_label(i: &usize) -> String {
        format!("cell/{i}")
    }

    #[test]
    fn results_come_back_in_declaration_order() {
        let items: Vec<usize> = (0..64).collect();
        let (out, t) = run_cells(8, &items, cell_label, |&i| {
            // Uneven work so completion order differs from declaration
            // order.
            let spin = (i * 37) % 97;
            let mut acc = 0u64;
            for k in 0..spin * 1000 {
                acc = acc.wrapping_add(k as u64);
            }
            std::hint::black_box(acc);
            i
        });
        assert_eq!(out, items);
        assert_eq!(t.cells.calls, 64);
        assert!(t.workers >= 1);
    }

    #[test]
    fn one_worker_starts_cells_in_declaration_order() {
        let clock = AtomicUsize::new(0);
        let items: Vec<usize> = (0..32).collect();
        // Each cell returns the stamp it drew when it started; the cursor
        // hands cells out front to back, so stamp == declaration index.
        let (stamps, t) =
            run_cells(1, &items, cell_label, |_| clock.fetch_add(1, Ordering::SeqCst));
        assert_eq!(stamps, items);
        assert_eq!(t.workers, 1);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<usize> = (0..16).collect();
        let cell = |&i: &usize| {
            let seed = rand::derive_seed(rand::DEFAULT_SEED, &format!("c{i}"));
            seed.wrapping_mul(i as u64 + 1)
        };
        let (a, _) = run_cells(1, &items, cell_label, cell);
        let (b, _) = run_cells(8, &items, cell_label, cell);
        assert_eq!(a, b);
    }

    #[test]
    fn errors_are_reported_per_cell() {
        let items = ["good", "bad", "also-good"];
        let (out, _) = run_cells(
            4,
            &items,
            |s| s.to_string(),
            |&s| if s == "bad" { Err("boom".to_string()) } else { Ok(s.len()) },
        );
        assert_eq!(out, vec![Ok(4), Err("boom".to_string()), Ok(9)]);
    }

    #[test]
    fn panic_carries_cell_label_and_pool_survives() {
        let items: Vec<usize> = (0..8).collect();
        let cell = |poison: bool| {
            move |&i: &usize| {
                if poison && i == 5 {
                    panic!("injected failure");
                }
                i
            }
        };
        let err = panic::catch_unwind(|| run_cells(4, &items, cell_label, cell(true)))
            .expect_err("run must fail when a cell panics");
        let msg = err.downcast_ref::<String>().expect("string panic message");
        assert!(msg.contains("cell/5"), "panic message must name the cell: {msg}");
        assert!(msg.contains("injected failure"), "{msg}");
        // The engine is not poisoned: a fresh batch on the same thread
        // runs to completion.
        let (ok, t) = run_cells(4, &items, cell_label, cell(false));
        assert_eq!(ok, items);
        assert_eq!(t.cells.calls, 8);
    }

    #[test]
    fn lowest_panicking_index_names_the_panic() {
        // At 4 jobs cell 2 waits until cell 6 has panicked, so the higher
        // index panics first; the report still names cell 2 at every job
        // count.
        let items: Vec<usize> = (0..12).collect();
        for jobs in [1, 4] {
            let six_panicked = AtomicBool::new(false);
            let err = panic::catch_unwind(|| {
                run_cells(jobs, &items, cell_label, |&i| {
                    if i == 2 {
                        while jobs > 1 && !six_panicked.load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        panic!("second failure");
                    }
                    if i == 6 {
                        six_panicked.store(true, Ordering::SeqCst);
                        panic!("first failure");
                    }
                    i
                })
            })
            .expect_err("run must fail when a cell panics");
            let msg = err.downcast_ref::<String>().expect("string panic message");
            assert_eq!(msg, "evaluation cell `cell/2` panicked: second failure", "jobs={jobs}");
        }
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn occupancy_reported_under_load() {
        let items: Vec<u64> = (0..8).collect();
        let (_, t) = run_cells(
            2,
            &items,
            |i| format!("w{i}"),
            |&i| {
                let mut acc = 0u64;
                for k in 0..200_000u64 {
                    acc = acc.wrapping_add(k ^ i);
                }
                std::hint::black_box(acc)
            },
        );
        assert!(t.occupancy() > 0.0 && t.occupancy() <= 1.0 + 1e-9, "{}", t.occupancy());
        assert!(!t.slowest_label.is_empty());
        assert!(t.wall > Duration::ZERO);
    }

    #[test]
    fn pool_occupancy_is_cell_time_over_capacity() {
        let mut p =
            PoolTelemetry { workers: 4, wall: Duration::from_nanos(1_000), ..Default::default() };
        p.cells.record(Duration::from_nanos(1_000));
        p.cells.record(Duration::from_nanos(1_000));
        assert!((p.occupancy() - 0.5).abs() < 1e-9, "{}", p.occupancy());
        assert_eq!(p.rows().len(), 5);
    }
}

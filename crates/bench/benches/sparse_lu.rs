//! Sparse LU with Markowitz pivoting + Forrest–Tomlin updates on LP-shaped
//! bases.
//!
//! Three staircase scenarios stress the kernels at three sizes: `wide`
//! (m = 600), `colgen` (m = 1600, the restricted-master scale of the removed
//! column-generation path) and `large` (m = 3200). Each basis mixes slack
//! singletons, interlocked multi-hop flow columns, and denser
//! percentile/CVaR columns, and factors with 2.3–5.8× fill — far denser
//! factors than the `e2e` workloads' LP bases, whose fill reads 1.01–1.08
//! (`lp.fill_in_ratio`). A fourth scenario, `schedule`, is shaped like
//! those: eight bases of m = 450 (SAM's on `wide_faulted` average 453),
//! 45% slacks, and flow columns of two or three entries on the rows after
//! their anchor, half of them with one more on one of the last 50 rows (a
//! job's demand row). They triangularize but for a bump on some bases: 91%
//! of the pivots are singletons and the fill is 1.02, against SAM's 88% and
//! 1.03. It times the refactorization alone, in nanoseconds per basis row,
//! and holds a warmed refactorization to zero allocations.
//!
//! Measured per scenario: refactorization wall-clock, FTRAN/BTRAN
//! wall-clock, nanoseconds per Forrest–Tomlin update (the update alone, on
//! a chain of exchanges; the three sizes show whether an update's cost
//! grows with `m`, as a shift of the pivot order would make it),
//! five capacity-shaped rows bordered onto the fresh factors
//! (`append_rows`, what a lazy-row round costs a carried solve in place of a
//! refactorization), and the fill-in ratio `nnz(L+U) / nnz(B)`. A counting
//! global allocator additionally asserts the scratch-reuse contract: after
//! one warm-up call, steady-state `ftran`/`btran`, `refactor`,
//! `append_row` **and `update`** perform **zero** heap allocations.
//!
//! The `reach` group times the two solves a simplex pivot issues — the
//! entering column's FTRAN (`ftran`, a sparse column) and one row of `B⁻¹`
//! (`btran_row`) — against the dense sweeps they replaced (`ftran_dense` of
//! the column scattered, `btran` of the unit vector), on each basis freshly
//! factorized and after 48 Forrest–Tomlin updates fed by the sparse kernel's
//! own spike. It asserts that every result is bitwise the sweep's (a zero's
//! sign aside) and that the warmed kernels allocate nothing; the time ratio
//! is recorded, with no floor.
//!
//! A third row, `resident_resolve`, measures the same contract one layer
//! up: 200 warm re-solves of a staircase LP through a `SolverSession`,
//! one appended row each, counting heap allocations and microseconds per
//! `solve` call (DESIGN.md §20: the session writes its optimum over the
//! last one and borders the factors from a workspace buffer, so the median
//! re-solve allocates nothing).
//!
//! Set `SPARSE_LU_SMOKE=1` for the CI mode: fewer samples, the
//! border-under-a-third-of-a-refactorization floor, the zero-allocation
//! floors (warmed FT updates included) and the reach kernels' bitwise
//! equality asserted, and no JSON written (a smoke run never clobbers
//! recorded numbers). Full mode writes `BENCH_sparse_lu.json`.

use std::time::{Duration, Instant};

use pretium_bench::{allocations, black_box, write_report, CountingAlloc};
use pretium_lp::simplex::basis::{Factorization, SparseCol};
use pretium_lp::{Cmp, LinExpr, Model, Restart, Sense, SolveOptions, SolverSession};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const PIVOT_TOL: f64 = 1e-9;
/// Rows bordered per `append_rows` sample: 73% of lazy-row rounds after the
/// second append five rows or fewer (ISSUE 24's trace of `large_days`).
const APPENDED_ROWS: usize = 5;
/// Acceptance floor: bordering them must cost under this share of
/// refactorizing the same basis.
const MAX_BORDER_SHARE_OF_REFACTOR: f64 = 1.0 / 3.0;
/// Ceiling on the median heap allocations of a warm session re-solve. The
/// session writes the optimum's values and duals into the buffers of the
/// last one, and the border's row buffer lives in the workspace, so the
/// median measures 0; the one allowed is room for a buffer that grows with
/// the model on that solve (vectors double, so that is rare). A cloned
/// `Solution` (2 vectors) would blow through it, as would a per-solve basis
/// snapshot or one allocation per pivot, column or row.
const MAX_ALLOCS_PER_RESOLVE: f64 = 1.0;
/// Exchanges in the Forrest–Tomlin chain: under the default cadence (96),
/// so only a refused update refactorizes inside it.
const FT_EXCHANGES: usize = 64;
/// Rows of the `schedule` bases: SAM's bases on `wide_faulted` average 453.
const SCHEDULE_ROWS: usize = 450;
/// Bases in the `schedule` set: whether a basis keeps a bump varies from
/// one draw to the next, as it does across SAM's steps.
const SCHEDULE_BASES: u64 = 8;

/// An LP-shaped basis: `slack_frac` of the columns are slack singletons,
/// `coupling_frac` are dense percentile/CVaR columns, the rest are
/// interlocked flow columns whose row patterns stride across the matrix.
/// Column `j` is anchored at row `j` with strict column dominance ⇒
/// nonsingular.
fn lp_column(m: usize, anchor: usize, extra: usize, local: bool, rng: &mut StdRng) -> SparseCol {
    let mut used = vec![anchor];
    let mut col: SparseCol = Vec::new();
    let mut mass = 0.0;
    for hop in 0..extra {
        // Flow columns occupy consecutive rows (a path's edge×time rows
        // form a staircase band, like the SAM LP's per-timestep capacity
        // rows); percentile columns couple rows across the whole matrix.
        let r = if local { (anchor + hop + 1) % m } else { (anchor + rng.gen_range(1..m)) % m };
        if !used.contains(&r) {
            used.push(r);
            let v = rng.gen_range(0.25..1.0) * if rng.gen_range(0..2) == 0 { -1.0 } else { 1.0 };
            mass += v.abs();
            col.push((r as u32, v));
        }
    }
    col.push((anchor as u32, mass * 2.0 + 1.0));
    col.sort_unstable_by_key(|&(i, _)| i);
    col
}

fn lp_basis(m: usize, slack_frac: f64, coupling_frac: f64, rng: &mut StdRng) -> Vec<SparseCol> {
    (0..m)
        .map(|j| {
            let class = rng.gen_range(0.0..1.0);
            let (extra, local) = if class < slack_frac {
                (0, true) // slack singleton
            } else if class < slack_frac + coupling_frac {
                (rng.gen_range(16..25), false) // percentile/CVaR coupling column
            } else {
                (rng.gen_range(4..8), true) // k-hop flow column
            };
            lp_column(m, j, extra, local, rng)
        })
        .collect()
}

fn as_refs(cols: &[SparseCol]) -> Vec<&SparseCol> {
    cols.iter().collect()
}

fn basis_nnz(cols: &[SparseCol]) -> usize {
    cols.iter().map(Vec::len).sum()
}

fn median_us(samples: &mut [Duration]) -> f64 {
    samples.sort();
    samples[samples.len() / 2].as_secs_f64() * 1e6
}

/// Per-solve microseconds of the pivot's two solves on one state of the
/// factors: the reach kernels and the sweeps they replaced.
struct ReachResult {
    state: &'static str,
    /// Mean nonzeros of `w` and of the row of `B⁻¹`, out of `m`.
    ftran_nnz: f64,
    btran_row_nnz: f64,
    ftran_us: f64,
    sweep_ftran_us: f64,
    btran_row_us: f64,
    sweep_btran_us: f64,
}

/// Equal bits, or both zero.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| x.to_bits() == y.to_bits() || x == y)
}

/// The `reach` group on the factors as they stand (see the module docs):
/// 64 entering flow columns and 64 rows of `B⁻¹`, checked bitwise against
/// the sweeps, then timed a pass of 64 solves per sample.
fn reach_group(
    (name, state): (&str, &'static str),
    f: &mut Factorization,
    m: usize,
    samples: usize,
    rng: &mut StdRng,
) -> ReachResult {
    let columns: Vec<SparseCol> = (0..64)
        .map(|_| {
            let (anchor, hops) = (rng.gen_range(0..m), rng.gen_range(4..8));
            lp_column(m, anchor, hops, true, rng)
        })
        .collect();
    let scattered: Vec<Vec<f64>> = columns
        .iter()
        .map(|col| {
            let mut dense = vec![0.0; m];
            col.iter().for_each(|&(i, v)| dense[i as usize] = v);
            dense
        })
        .collect();
    let positions: Vec<usize> = (0..64).map(|_| rng.gen_range(0..m)).collect();
    let units: Vec<Vec<f64>> = positions
        .iter()
        .map(|&pos| {
            let mut e = vec![0.0; m];
            e[pos] = 1.0;
            e
        })
        .collect();
    let (mut w, mut w_nz, mut rho, mut rho_nz, mut sweep) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut ftran_nnz, mut btran_row_nnz) = (0, 0);
    for (a, dense) in columns.iter().zip(&scattered) {
        f.ftran(a, &mut w, &mut w_nz);
        f.ftran_dense(dense, &mut sweep);
        assert!(same_bits(&w, &sweep), "{name} {state}: ftran differs from the sweep");
        ftran_nnz += w_nz.len();
    }
    for (&pos, e) in positions.iter().zip(&units) {
        f.btran_row(pos, &mut rho, &mut rho_nz);
        f.btran(e, &mut sweep);
        assert!(same_bits(&rho, &sweep), "{name} {state}: btran_row differs from the sweep");
        btran_row_nnz += rho_nz.len();
    }
    let allocs_before = allocations();
    for (a, &pos) in columns.iter().zip(&positions) {
        f.ftran(black_box(a), &mut w, &mut w_nz);
        f.btran_row(black_box(pos), &mut rho, &mut rho_nz);
    }
    let reach_allocs = allocations() - allocs_before;
    assert_eq!(
        reach_allocs, 0,
        "{name} {state}: warmed reach kernels allocated {reach_allocs} times"
    );

    let per_solve = |body: &mut dyn FnMut(usize)| {
        let mut passes: Vec<Duration> = (0..samples)
            .map(|_| {
                let t0 = Instant::now();
                (0..64).for_each(&mut *body);
                t0.elapsed() / 64
            })
            .collect();
        median_us(&mut passes)
    };
    ReachResult {
        state,
        ftran_nnz: ftran_nnz as f64 / 64.0,
        btran_row_nnz: btran_row_nnz as f64 / 64.0,
        ftran_us: per_solve(&mut |k| f.ftran(black_box(&columns[k]), &mut w, &mut w_nz)),
        sweep_ftran_us: per_solve(&mut |k| f.ftran_dense(black_box(&scattered[k]), &mut sweep)),
        btran_row_us: per_solve(&mut |k| {
            f.btran_row(black_box(positions[k]), &mut rho, &mut rho_nz)
        }),
        sweep_btran_us: per_solve(&mut |k| f.btran(black_box(&units[k]), &mut sweep)),
    }
}

struct ScenarioResult {
    name: &'static str,
    m: usize,
    basis_nnz: usize,
    fill_ratio: f64,
    sparse_refactor_us: f64,
    append_rows_us: f64,
    sparse_ftran_us: f64,
    sparse_btran_us: f64,
    ft_update_ns: f64,
    ft_updates_applied: u64,
    reach: Vec<ReachResult>,
}

fn run_scenario(name: &'static str, m: usize, refactor_samples: usize) -> ScenarioResult {
    let mut rng = StdRng::seed_from_u64(rand::derive_seed(rand::DEFAULT_SEED, name));
    let mut cols = lp_basis(m, 0.40, 0.10, &mut rng);
    let nnz = basis_nnz(&cols);
    let refs = as_refs(&cols);

    // --- refactorization ------------------------------------------------
    let mut sparse = Factorization::new(0, PIVOT_TOL);
    let mut sparse_t: Vec<Duration> = (0..refactor_samples)
        .map(|_| {
            let t0 = Instant::now();
            black_box(sparse.refactor(black_box(&refs))).unwrap();
            t0.elapsed()
        })
        .collect();
    let fill_ratio = sparse.factor_nnz() as f64 / nnz as f64;
    // The object is warm (it has factorized this basis before): doing it
    // again must not touch the heap.
    let allocs_before = allocations();
    sparse.refactor(&refs).unwrap();
    let refactor_allocs = allocations() - allocs_before;
    assert_eq!(refactor_allocs, 0, "{name}: a warmed refactor allocated {refactor_allocs} times");

    // --- bordered rows --------------------------------------------------
    // Capacity-shaped rows (unit entries on a handful of basis positions),
    // bordered onto the fresh factors; every sample starts from them again.
    let rows: Vec<Vec<(u32, f64)>> = (0..APPENDED_ROWS)
        .map(|_| {
            let mut at: Vec<u32> =
                (0..rng.gen_range(4..12)).map(|_| rng.gen_range(0..m as u32)).collect();
            at.sort_unstable();
            at.dedup();
            at.into_iter().map(|pos| (pos, 1.0)).collect()
        })
        .collect();
    let mut append_t: Vec<Duration> = Vec::new();
    let mut append_allocs = 0;
    for _ in 0..refactor_samples {
        sparse.refactor(&refs).unwrap();
        let allocs_before = allocations();
        let t0 = Instant::now();
        rows.iter().for_each(|row| sparse.append_row(black_box(row)));
        append_t.push(t0.elapsed());
        // Every sample after the first borders a warmed object.
        append_allocs = allocations() - allocs_before;
    }
    assert_eq!(append_allocs, 0, "{name}: a warmed border allocated {append_allocs} times");
    sparse.refactor(&refs).unwrap();
    println!("  [{name}] sparse factor nnz {}", sparse.factor_nnz());

    // --- FTRAN / BTRAN --------------------------------------------------
    let rhs: Vec<Vec<f64>> =
        (0..32).map(|_| (0..m).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
    let mut out = vec![0.0; m];
    // Warm up the kernels' scratch, then pin the zero-allocation contract
    // for their steady state.
    sparse.ftran_dense(&rhs[0], &mut out);
    sparse.btran(&rhs[0], &mut out);
    let allocs_before = allocations();
    for a in &rhs {
        sparse.ftran_dense(black_box(a), &mut out);
        black_box(&out);
        sparse.btran(black_box(a), &mut out);
        black_box(&out);
    }
    let steady_allocs = allocations() - allocs_before;
    assert_eq!(
        steady_allocs,
        0,
        "steady-state ftran/btran allocated {steady_allocs} times over {} solves",
        2 * rhs.len()
    );

    fn time_solves(
        rhs: &[Vec<f64>],
        out: &mut Vec<f64>,
        body: &mut dyn FnMut(&[f64], &mut Vec<f64>),
    ) -> f64 {
        let mut samples: Vec<Duration> = rhs
            .iter()
            .map(|a| {
                let t0 = Instant::now();
                body(a, out);
                black_box(&*out);
                t0.elapsed()
            })
            .collect();
        median_us(&mut samples)
    }
    let sparse_ftran_us = time_solves(&rhs, &mut out, &mut |a, o| sparse.ftran_dense(a, o));
    let sparse_btran_us = time_solves(&rhs, &mut out, &mut |a, o| sparse.btran(a, o));

    // --- Forrest–Tomlin update loop -------------------------------------
    // A chain of exchanges, each a fresh flow column entering at a random
    // position: the column's FTRAN (untimed), then the update alone, timed;
    // refactor on rejection or cadence, as the solver would. The chain runs
    // on a basis of slacks and flow columns only, which factors with almost
    // no fill, like the `e2e` workloads' LP bases (fill 1.01–1.08): the
    // staircase basis above fills more as `m` grows, and its row
    // eliminations would hide how an update's own cost scales. The chain
    // runs again and again from the same factors: the first pass warms the
    // buffers, and no later pass may allocate inside an update.
    let chain: Vec<(usize, SparseCol)> = (0..FT_EXCHANGES)
        .map(|_| {
            let (pos, hops) = (rng.gen_range(0..m), rng.gen_range(4..8));
            (pos, lp_column(m, pos, hops, true, &mut rng))
        })
        .collect();
    let start = lp_basis(m, 0.40, 0.0, &mut rng);
    let mut ft_cols = start.clone();
    let (mut w, mut w_nz) = (Vec::new(), Vec::new());
    let (mut update_t, mut applied, mut update_allocs) = (Vec::new(), 0u64, 0);
    for pass in 0..refactor_samples {
        ft_cols.clone_from(&start);
        sparse.refactor(&as_refs(&ft_cols)).unwrap();
        if pass == 0 {
            println!(
                "  [{name}] FT chain basis fill {:.3}",
                sparse.factor_nnz() as f64 / basis_nnz(&start) as f64
            );
        }
        applied = 0;
        for (pos, entering) in &chain {
            sparse.ftran(entering, &mut w, &mut w_nz);
            let allocs_before = allocations();
            let t0 = Instant::now();
            let ok = sparse.update(black_box(*pos));
            let (elapsed, allocs) = (t0.elapsed(), allocations() - allocs_before);
            if pass > 0 {
                update_t.push(elapsed);
                update_allocs += allocs;
            }
            if ok {
                ft_cols[*pos].clone_from(entering);
                applied += 1;
            }
            if !ok || sparse.wants_refactor() {
                sparse.refactor(&as_refs(&ft_cols)).unwrap();
            }
        }
    }
    assert_eq!(update_allocs, 0, "{name}: warmed FT updates allocated {update_allocs} times");

    // --- reach kernels: fresh, then after 48 spike-fed updates ------------
    sparse.refactor(&as_refs(&cols)).unwrap();
    let mut reach = vec![reach_group((name, "fresh"), &mut sparse, m, refactor_samples, &mut rng)];
    for _ in 0..48 {
        let (anchor, hops) = (rng.gen_range(0..m), rng.gen_range(4..8));
        let entering = lp_column(m, anchor, hops, true, &mut rng);
        sparse.ftran(&entering, &mut w, &mut w_nz);
        // Leave at the largest entry, so every update is taken.
        let pos = (0..m).max_by(|&p, &q| w[p].abs().total_cmp(&w[q].abs())).unwrap();
        assert!(sparse.update(pos), "{name}: an update was refused");
        cols[pos] = entering;
    }
    reach.push(reach_group((name, "ft48"), &mut sparse, m, refactor_samples, &mut rng));

    ScenarioResult {
        name,
        m,
        basis_nnz: nnz,
        fill_ratio,
        sparse_refactor_us: median_us(&mut sparse_t),
        append_rows_us: median_us(&mut append_t),
        sparse_ftran_us,
        sparse_btran_us,
        ft_update_ns: median_us(&mut update_t) * 1e3,
        ft_updates_applied: applied,
        reach,
    }
}

struct ScheduleResult {
    m: usize,
    basis_nnz: usize,
    fill_ratio: f64,
    refactor_us: f64,
    refactor_ns_per_row: f64,
}

/// A schedule-shaped basis (see the module docs), columns anchored on
/// their own rows and dominated there, so it is nonsingular.
fn schedule_basis(m: usize, rng: &mut StdRng) -> Vec<SparseCol> {
    (0..m)
        .map(|j| {
            if rng.gen_range(0.0..1.0) < 0.45 {
                return lp_column(m, j, 0, true, rng); // slack
            }
            let mut col = lp_column(m, j, rng.gen_range(1..3), true, rng);
            if rng.gen_range(0.0..1.0) < 0.5 {
                let demand = (m - 1 - rng.gen_range(0..50usize)) as u32;
                if col.iter().all(|&(i, _)| i != demand) {
                    col.push((demand, if rng.gen_range(0..2) == 0 { -0.5 } else { 0.5 }));
                    col.iter_mut().filter(|e| e.0 == j as u32).for_each(|e| e.1 += 1.0);
                }
            }
            col.sort_unstable_by_key(|&(i, _)| i);
            col
        })
        .collect()
}

/// The `schedule` scenario (see the module docs): refactorizations of
/// the set, after asserting that warmed ones allocate nothing; the median
/// pass over the set, per basis row.
fn schedule_scenario(samples: usize) -> ScheduleResult {
    let m = SCHEDULE_ROWS;
    let bases: Vec<Vec<SparseCol>> = (0..SCHEDULE_BASES)
        .map(|k| {
            let seed = rand::derive_seed(rand::DEFAULT_SEED ^ k, "schedule");
            schedule_basis(m, &mut StdRng::seed_from_u64(seed))
        })
        .collect();
    let refs: Vec<Vec<&SparseCol>> = bases.iter().map(|b| as_refs(b)).collect();
    let mut f = Factorization::new(0, PIVOT_TOL);
    refs.iter().for_each(|b| f.refactor(b).unwrap());
    let (before, allocs_before) = (f.stats(), allocations());
    refs.iter().for_each(|b| f.refactor(b).unwrap());
    let allocs = allocations() - allocs_before;
    assert_eq!(allocs, 0, "schedule: warmed refactors allocated {allocs} times");
    let set = f.stats().since(before);
    let mut t: Vec<Duration> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            refs.iter().for_each(|b| black_box(f.refactor(black_box(b))).unwrap());
            t0.elapsed() / SCHEDULE_BASES as u32
        })
        .collect();
    let refactor_us = median_us(&mut t);
    ScheduleResult {
        m,
        basis_nnz: set.basis_nnz as usize / SCHEDULE_BASES as usize,
        fill_ratio: set.fill_ratio(),
        refactor_us,
        refactor_ns_per_row: refactor_us * 1e3 / m as f64,
    }
}

struct ResolveResult {
    solves: usize,
    rows: usize,
    vars: usize,
    allocs_per_solve: f64,
    us_per_solve: f64,
    pivots_per_solve: f64,
}

/// 200 warm re-solves of a staircase LP (`jobs × steps` flows under per-job
/// demand rows and per-step capacity rows — the SAM shape), each after one
/// appended cutting row that binds at the current optimum. Counts what one
/// `SolverSession::solve` call allocates and how long it takes.
fn resident_resolve() -> ResolveResult {
    let (jobs, steps, solves) = (24usize, 16usize, 200usize);
    let mut rng = StdRng::seed_from_u64(rand::derive_seed(rand::DEFAULT_SEED, "resident_resolve"));
    let mut m = Model::new(Sense::Maximize);
    let mut x = Vec::new();
    for j in 0..jobs {
        let value = rng.gen_range(0.5..3.0);
        for t in 0..steps {
            x.push(m.add_var("", 0.0, rng.gen_range(1.0..4.0), value - 0.01 * t as f64));
        }
        let flows = LinExpr::from_terms((0..steps).map(|t| (1.0, x[j * steps + t])));
        m.add_row("", flows, Cmp::Le, rng.gen_range(6.0..18.0));
    }
    for t in 0..steps {
        let load = LinExpr::from_terms((0..jobs).map(|j| (1.0, x[j * steps + t])));
        m.add_row("", load, Cmp::Le, rng.gen_range(8.0..20.0));
    }
    let mut session = SolverSession::new(m);
    let opts = SolveOptions::default();
    session.solve(&opts).expect("staircase LP is feasible");
    let (mut allocs, mut times, mut pivots) = (Vec::new(), Vec::new(), 0u64);
    for _ in 0..solves {
        // Cut 10% off the load of a few random flows.
        let picked: Vec<_> = (0..4).map(|_| x[rng.gen_range(0..x.len())]).collect();
        let sol = session.cached_solution().expect("the last solve is current");
        let load: f64 = picked.iter().map(|&v| sol.value(v)).sum();
        let cut = LinExpr::from_terms(picked.iter().map(|&v| (1.0, v)));
        session.model_mut().add_row("", cut, Cmp::Le, 0.9 * load + 0.05);
        let before = allocations();
        let t0 = Instant::now();
        let sol = black_box(session.solve(&opts)).expect("cuts keep zero flow feasible");
        let iterations = sol.stats().iterations;
        times.push(t0.elapsed());
        allocs.push(allocations() - before);
        assert_ne!(session.last_restart(), Some(Restart::Cold), "re-solve fell back cold");
        pivots += iterations;
    }
    allocs.sort_unstable();
    ResolveResult {
        solves,
        rows: session.model().num_rows(),
        vars: session.model().num_vars(),
        allocs_per_solve: allocs[solves / 2] as f64,
        us_per_solve: median_us(&mut times),
        pivots_per_solve: pivots as f64 / solves as f64,
    }
}

fn main() {
    let smoke = std::env::var("SPARSE_LU_SMOKE").is_ok_and(|v| v == "1");
    let refactor_samples = if smoke { 3 } else { 15 };

    let results = [
        run_scenario("wide", 600, refactor_samples),
        run_scenario("colgen", 1600, refactor_samples),
        run_scenario("large", 3200, refactor_samples),
    ];
    for r in &results {
        println!(
            "{:<8} m={:<5} nnz={:<6} fill={:.3}  refactor {:.1}us  ftran {:.2}us  btran {:.2}us  \
             ft-update {:.0}ns ({} applied)  {APPENDED_ROWS} bordered rows {:.2}us",
            r.name,
            r.m,
            r.basis_nnz,
            r.fill_ratio,
            r.sparse_refactor_us,
            r.sparse_ftran_us,
            r.sparse_btran_us,
            r.ft_update_ns,
            r.ft_updates_applied,
            r.append_rows_us,
        );
        println!("BENCH\tsparse_lu_{}_fill_ratio\t{:.3}", r.name, r.fill_ratio);
        println!("BENCH\tsparse_lu_{}_refactor_us\t{:.1}", r.name, r.sparse_refactor_us);
        println!("BENCH\tsparse_lu_{}_ftran_us\t{:.2}", r.name, r.sparse_ftran_us);
        println!("BENCH\tsparse_lu_{}_btran_us\t{:.2}", r.name, r.sparse_btran_us);
        println!("BENCH\tsparse_lu_{}_ft_update_ns\t{:.0}", r.name, r.ft_update_ns);
        println!("BENCH\tsparse_lu_{}_append_rows_us\t{:.2}", r.name, r.append_rows_us);
        for g in &r.reach {
            println!(
                "  reach [{} {}] ftran {:.2}us (sweep {:.2}us, {:.1}x; {:.0} of {} nonzero)  \
                 btran_row {:.2}us (sweep {:.2}us, {:.1}x; {:.0} nonzero)",
                r.name,
                g.state,
                g.ftran_us,
                g.sweep_ftran_us,
                g.sweep_ftran_us / g.ftran_us.max(1e-9),
                g.ftran_nnz,
                r.m,
                g.btran_row_us,
                g.sweep_btran_us,
                g.sweep_btran_us / g.btran_row_us.max(1e-9),
                g.btran_row_nnz,
            );
            let key = format!("sparse_lu_{}_{}", r.name, g.state);
            println!("BENCH\t{key}_reach_ftran_us\t{:.3}", g.ftran_us);
            println!("BENCH\t{key}_sweep_ftran_us\t{:.3}", g.sweep_ftran_us);
            println!("BENCH\t{key}_reach_btran_row_us\t{:.3}", g.btran_row_us);
            println!("BENCH\t{key}_sweep_btran_us\t{:.3}", g.sweep_btran_us);
        }
        assert!(
            r.append_rows_us < MAX_BORDER_SHARE_OF_REFACTOR * r.sparse_refactor_us,
            "{}: bordering {APPENDED_ROWS} rows took {:.1}us, a refactorization {:.1}us",
            r.name,
            r.append_rows_us,
            r.sparse_refactor_us
        );
        assert!(r.ft_updates_applied > 0, "{}: no FT update was ever accepted", r.name);
        assert!(r.fill_ratio < 10.0, "{}: pathological fill {:.1}", r.name, r.fill_ratio);
    }
    let sched = schedule_scenario(if smoke { 5 } else { 100 });
    println!(
        "schedule {SCHEDULE_BASES} bases m={} nnz={} fill={:.3}  refactor {:.1}us = {:.0}ns per \
         basis row  (warmed refactor: 0 allocations)",
        sched.m, sched.basis_nnz, sched.fill_ratio, sched.refactor_us, sched.refactor_ns_per_row
    );
    println!("BENCH\tsparse_lu_schedule_fill_ratio\t{:.3}", sched.fill_ratio);
    println!("BENCH\tsparse_lu_schedule_refactor_ns_per_row\t{:.0}", sched.refactor_ns_per_row);
    assert!(
        sched.fill_ratio < 1.1,
        "schedule: fill {:.3} is not schedule-shaped",
        sched.fill_ratio
    );

    let by_m: Vec<String> =
        results.iter().map(|r| format!("m={} {:.0}ns", r.m, r.ft_update_ns)).collect();
    println!("ft-update per update: {}", by_m.join(", "));

    let rr = resident_resolve();
    println!(
        "resident_resolve: {} warm re-solves, final {} rows x {} vars, {:.1} pivots/solve: \
         {:.0} allocations/solve (median), {:.1}us/solve (median)",
        rr.solves, rr.rows, rr.vars, rr.pivots_per_solve, rr.allocs_per_solve, rr.us_per_solve
    );
    println!("BENCH\tsparse_lu_resident_resolve_allocs\t{:.0}", rr.allocs_per_solve);
    println!("BENCH\tsparse_lu_resident_resolve_us\t{:.1}", rr.us_per_solve);
    assert!(
        rr.allocs_per_solve <= MAX_ALLOCS_PER_RESOLVE,
        "a warm session re-solve allocated {} times (cap {MAX_ALLOCS_PER_RESOLVE})",
        rr.allocs_per_solve
    );

    if smoke {
        println!(
            "sparse_lu smoke: zero-allocation (ftran, btran, warmed refactor of every scenario \
             and of the schedule bases, warmed border, warmed FT update, reach kernels), reach \
             kernels bitwise equal to the sweeps, resident re-solve allocation cap, fill and \
             border under a third of a refactorization floors hold"
        );
        return;
    }

    let reach_cells = |r: &ScenarioResult| {
        let cells: Vec<String> = r
            .reach
            .iter()
            .map(|g| {
                format!(
                    "        {{ \"state\": \"{}\", \"ftran_nnz\": {:.1}, \"btran_row_nnz\": {:.1}, \
                     \"ftran_us\": {:.3}, \"sweep_ftran_us\": {:.3}, \"btran_row_us\": {:.3}, \
                     \"sweep_btran_us\": {:.3} }}",
                    g.state,
                    g.ftran_nnz,
                    g.btran_row_nnz,
                    g.ftran_us,
                    g.sweep_ftran_us,
                    g.btran_row_us,
                    g.sweep_btran_us
                )
            })
            .collect();
        cells.join(",\n")
    };
    let cell = |r: &ScenarioResult| {
        format!(
            "    {{\n      \"scenario\": \"{}\",\n      \"m\": {},\n      \"basis_nnz\": {},\n      \
             \"fill_ratio\": {:.3},\n      \"refactor_us\": {:.1},\n      \
             \"refactor_ns_per_row\": {:.0},\n      \
             \"ftran_us\": {:.2},\n      \"btran_us\": {:.2},\n      \
             \"ft_update_ns\": {:.0},\n      \"ft_updates_applied\": {},\n      \
             \"append_rows\": {APPENDED_ROWS},\n      \"append_rows_us\": {:.2},\n      \
             \"reach\": [\n{}\n      ]\n    }}",
            r.name,
            r.m,
            r.basis_nnz,
            r.fill_ratio,
            r.sparse_refactor_us,
            r.sparse_refactor_us * 1e3 / r.m as f64,
            r.sparse_ftran_us,
            r.sparse_btran_us,
            r.ft_update_ns,
            r.ft_updates_applied,
            r.append_rows_us,
            reach_cells(r),
        )
    };
    let mut scenarios: Vec<String> = results.iter().map(cell).collect();
    scenarios.push(format!(
        "    {{\n      \"scenario\": \"schedule\",\n      \"bases\": {SCHEDULE_BASES},\n      \
         \"m\": {},\n      \"basis_nnz\": {},\n      \
         \"fill_ratio\": {:.3},\n      \"refactor_us\": {:.1},\n      \
         \"refactor_ns_per_row\": {:.0}\n    }}",
        sched.m, sched.basis_nnz, sched.fill_ratio, sched.refactor_us, sched.refactor_ns_per_row,
    ));
    let members = format!(
        "\"steady_state_solve_allocations\": 0,\n  \
         \"allocations_per_warmed_refactor\": 0,\n  \
         \"allocations_per_warmed_border\": 0,\n  \
         \"allocations_per_warmed_ft_update\": 0,\n  \
         \"allocations_per_warmed_reach_solve\": 0,\n  \"scenarios\": [\n{}\n  ],\n  \
         \"resident_resolve\": {{\n    \"solves\": {},\n    \"rows\": {},\n    \"vars\": {},\n    \
         \"pivots_per_solve\": {:.1},\n    \"allocations_per_solve\": {:.0},\n    \
         \"us_per_solve\": {:.1}\n  }}",
        scenarios.join(",\n"),
        rr.solves,
        rr.rows,
        rr.vars,
        rr.pivots_per_solve,
        rr.allocs_per_solve,
        rr.us_per_solve,
    );
    write_report("sparse_lu", &members);
}

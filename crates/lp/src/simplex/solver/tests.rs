//! The solver's test-only helpers, and the tests of what `solver` keeps
//! itself: the certificate in `State::finish`, the singular-basis error,
//! what a reprice keeps, and the live set.

use super::*;
use crate::simplex::load_bounds;
use crate::{Cmp, LinExpr, Model, RowId, Sense, Var};

/// Deterministic xorshift64 stream in `[0, 1)`.
pub(super) struct Gen(pub(super) u64);

impl Gen {
    pub(super) fn unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A schedule-shaped model (value-weighted flows under demand and
/// capacity rows) solved cold, then hit with what SAM and the lazy-row
/// loop do to it: capacities drop, upper bounds shrink below the flow
/// they carried, a cutting row arrives — and, with `move_costs`, a fifth
/// of the columns are revalued. Returns it with its standard form synced
/// and a workspace holding the cold solve's terminal state, and the
/// change log of the mutations — what a carried [`warm_state`] starts
/// from.
pub(super) fn cut_case(
    seed: u64,
    max_etas: usize,
    move_costs: bool,
) -> (Model, Problem, Workspace, SolverTuning, Changes) {
    let mut g = Gen(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let (jobs, steps) = (4 + (g.unit() * 5.0) as usize, 4 + (g.unit() * 6.0) as usize);
    let mut model = Model::new(Sense::Maximize);
    let mut x: Vec<Var> = Vec::new();
    for j in 0..jobs {
        let value = 0.5 + 2.5 * g.unit();
        for t in 0..steps {
            x.push(model.add_var(&format!("x{j}_{t}"), 0.0, 1.0 + 5.0 * g.unit(), value));
        }
    }
    for j in 0..jobs {
        let e = LinExpr::from_terms((0..steps).map(|t| (1.0, x[j * steps + t])));
        model.add_row(&format!("dem{j}"), e, Cmp::Le, 2.0 + 8.0 * g.unit());
    }
    let caps: Vec<RowId> = (0..steps)
        .map(|t| {
            let e = LinExpr::from_terms((0..jobs).map(|j| (1.0, x[j * steps + t])));
            model.add_row(&format!("cap{t}"), e, Cmp::Le, 2.0 + 6.0 * g.unit())
        })
        .collect();

    let tuning = SolverTuning { max_etas, ..SolverTuning::default() };
    let mut ws = Workspace::default();
    let mut p = Problem::from_model(&model);
    load_bounds(&model, &mut ws);
    run(&mut p, &model, &SimplexOptions::default(), tuning, &mut ws).unwrap();
    (ws.owner_m, ws.owner_nstruct) = (p.m, p.nstruct);

    let mut changes = Changes::default();
    for &row in &caps {
        if g.unit() < 0.6 {
            model.set_rhs(row, 0.3 + 1.5 * g.unit());
            changes.rhs.push(row.0);
        }
    }
    for (j, &v) in x.iter().enumerate() {
        if g.unit() < 0.2 {
            model.set_bounds(v, 0.0, 0.5 * ws.x[j]);
            changes.bounds.push(v.0);
        }
    }
    let cut = LinExpr::from_terms(x.iter().step_by(3).map(|&v| (1.0, v)));
    model.add_row("cut", cut, Cmp::Le, 1.0 + 3.0 * g.unit());
    if move_costs {
        for &v in &x {
            if g.unit() < 0.2 {
                model.set_obj(v, 0.5 + 2.5 * g.unit());
                changes.costs.push(v.0);
            }
        }
    }

    assert!(p.sync(&model, &mut changes));
    (model, p, ws, tuning, changes)
}

/// A carried start moves `x_B` by the change it logged instead of solving
/// for it: each `cut_case` (cadences 2, 7 and 96, costs moved or not;
/// capacities and bounds moved, a cutting row appended), with a column
/// appended on odd seeds — resting at a lower bound of 0.5, in a demand
/// row and the cut — is stopped right after `warm_state`, and its basic
/// values must lie within `1e-9·(1 + |x|)` of a fresh solve of
/// `b − N·x_N` on a copy.
#[test]
fn carried_basics_match_a_fresh_solve() {
    // Starts that bordered and moved `x_B`: in all, with a `Δb` row, with
    // a row only a re-rested column moved, with a column appended.
    let mut counts = [0u32; 4];
    for seed in 1..=40u64 {
        for max_etas in [2, 7, 96] {
            for move_costs in [false, true] {
                let (mut model, mut p, mut ws, tuning, mut changes) =
                    cut_case(seed, max_etas, move_costs);
                if seed % 2 == 1 {
                    let late = model.add_var("late", 0.5, 2.0, 0.25);
                    let (dem, cut) = (RowId::from_index(0), RowId::from_index(p.m - 1));
                    model.add_term(dem, late, 1.0);
                    model.add_term(cut, late, 1.0);
                    changes.tails.extend([dem.0, cut.0]);
                    assert!(p.sync(&model, &mut changes));
                }
                let opts = SimplexOptions::default();
                let refactors = ws.factor.stats().refactors;
                let st = warm_state(&p, &model, &changes, &opts, tuning, &mut ws).unwrap();
                let at = format!("seed {seed}, cadence {max_etas}, costs {move_costs}");
                assert!(st.basics_match_a_fresh_solve(), "{at}");
                let delta = &st.ws.delta;
                if st.ws.factor.stats().refactors == refactors && !delta.is_empty() {
                    let logged = delta.iter().filter(|e| changes.rhs.contains(&e.0)).count();
                    counts[0] += 1;
                    counts[1] += u32::from(logged > 0);
                    counts[2] += u32::from(logged < delta.len());
                    counts[3] += u32::from(seed % 2 == 1);
                }
            }
        }
    }
    // Measured: 240 of the 240 starts, 240 with a `Δb` row, 222 with a
    // row only a re-rested column moved, 120 with a column appended.
    let [all, rhs, rested, appended] = counts;
    assert!(
        all >= 230 && rhs >= 230 && rested >= 200 && appended >= 110,
        "bordered starts that moved x_B: {counts:?}"
    );
}

/// A failed certificate in `finish` refactorizes and reprices, and the
/// exact prices may expose a column the maintained ones hid: `finish`
/// must then return to the primal loop, not hand back that basis as
/// optimal. Here the cost of a basic column carrying flow jumps under
/// the finished polish (the certificate's dual test catches it, as it
/// would a drifted `y`); after `finish`, a fresh reprice must find no
/// eligible column.
#[test]
fn finish_reenters_the_primal_loop_when_the_reprice_exposes_a_column() {
    let mut reentered = 0;
    for seed in 1..=12u64 {
        let (model, p, mut ws, tuning, changes) = cut_case(seed, 96, false);
        let opts = SimplexOptions::default();
        let mut st = warm_state(&p, &model, &changes, &opts, tuning, &mut ws).unwrap();
        st.box_dual_infeasible();
        st.dual_iterate(&p.cost).expect("zero flow stays feasible");
        st.iterate(&p.cost, false).unwrap();
        let busy = |k: &usize| *k < p.nstruct && st.ws.x[*k] > 1e-6;
        let k = st.ws.basis.iter().copied().find(busy).expect("some flow is basic");
        let mut cost = p.cost.clone();
        cost[k] = 10.0;
        let pivots = st.stats.iterations;
        let out = st.finish(&cost).unwrap();
        assert_eq!(out.terminal_refactors, 1, "seed {seed}");
        reentered += u32::from(st.stats.iterations > pivots);
        st.refactor().unwrap();
        st.reprice(&cost);
        let eligible: Vec<usize> = (0..p.n).filter(|&j| st.ws.eligible(j, opts.opt_tol)).collect();
        assert!(eligible.is_empty(), "seed {seed}: finish returned with {eligible:?} eligible");
    }
    assert_eq!(reentered, 12, "the moved cost exposed a column on every seed");
}

/// `finish` accepts the terminal `(x, y)` on the residual certificate and
/// refactorizes only when it fails: untouched, a dual restart ends without
/// a refactorization; with one basic value or one dual off by 1e-6 it
/// refactorizes and returns what the untouched run returned.
#[test]
fn finish_refactorizes_only_when_the_certificate_fails() {
    for seed in 1..=12u64 {
        let (model, p, start, tuning, changes) = cut_case(seed, 96, false);
        let opts = SimplexOptions::default();
        let finish_after = |perturb: &dyn Fn(&mut Workspace, usize, usize)| {
            let mut ws = start.clone();
            let mut st = warm_state(&p, &model, &changes, &opts, tuning, &mut ws).unwrap();
            st.box_dual_infeasible();
            st.dual_iterate(&p.cost).expect("zero flow stays feasible");
            assert!(st.ws.boxed.is_empty() && st.stats.dual_iterations > 0, "seed {seed}");
            st.iterate(&p.cost, false).unwrap();
            assert!(st.fresh && !st.settled, "seed {seed}");
            // A basic column and a row it has an entry in.
            let k = st.ws.basis[0];
            let i = p.with_col(k, |col| col[0].0 as usize);
            perturb(st.ws, k, i);
            let before = st.ws.factor.stats();
            let out = st.finish(&p.cost).unwrap();
            let refactors = st.ws.factor.stats().since(before).refactors;
            assert_eq!(refactors, out.terminal_refactors, "seed {seed}");
            (ws.x, ws.y, refactors)
        };
        let (x, y, refactors) = finish_after(&|_, _, _| {});
        assert_eq!(refactors, 0, "seed {seed}: certified without refactorizing");
        let moved_x = finish_after(&|ws, k, _| ws.x[k] += 1e-6);
        let moved_y = finish_after(&|ws, _, i| ws.y[i] += 1e-6);
        for (what, (x2, y2, refactors)) in [("x", moved_x), ("y", moved_y)] {
            assert_eq!(refactors, 1, "seed {seed}: perturbed {what} passed the certificate");
            let close = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(u, v)| (u - v).abs() <= 1e-9);
            assert!(close(&x, &x2) && close(&y, &y2), "seed {seed}: perturbed {what} survived");
        }
    }
}

/// A carried basis that holds two parallel structural columns is
/// singular: the carried start that refactorizes it (an appended row, one
/// update left) must return `SolveError::Numerical` naming one of the
/// two, not panic.
#[test]
fn a_singular_carried_basis_is_a_numerical_error_naming_its_column() {
    let mut model = Model::new(Sense::Maximize);
    let a = model.add_var("xa", 0.0, 4.0, 1.0);
    let b = model.add_var("xb", 0.0, 4.0, 2.0);
    let c = model.add_var("xc", 0.0, 4.0, 1.0);
    model.add_row("r0", LinExpr::from_terms([(1.0, a), (1.0, b), (1.0, c)]), Cmp::Le, 5.0);
    model.add_row("r1", LinExpr::from_terms([(2.0, a), (2.0, b), (-1.0, c)]), Cmp::Le, 6.0);
    let (opts, tuning) =
        (SimplexOptions::default(), SolverTuning { max_etas: 1, ..SolverTuning::default() });
    let mut p = Problem::from_model(&model);
    let mut ws = Workspace::default();
    load_bounds(&model, &mut ws);
    run(&mut p, &model, &opts, tuning, &mut ws).unwrap();
    (ws.owner_m, ws.owner_nstruct) = (p.m, p.nstruct);
    // Seat `xa` and `xb` at positions 0 and 1; whatever sat there rests.
    for (pos, k) in [(0, a.index()), (1, b.index())] {
        let out = ws.basis[pos];
        if out != k && ws.pos_of[k] < 0 {
            ws.pos_of[out] = -1;
            (ws.nb[out], ws.x[out]) = ws.rest_of(out);
            (ws.basis[pos], ws.pos_of[k]) = (k, pos as i32);
        }
    }
    assert_eq!(ws.basis, [a.index(), b.index()]);
    model.add_row("cut", LinExpr::from_terms([(1.0, a), (1.0, c)]), Cmp::Le, 3.0);
    let mut changes = Changes::default();
    assert!(p.sync(&model, &mut changes));
    let Err(SolveError::Numerical(msg)) = warm_state(&p, &model, &changes, &opts, tuning, &mut ws)
    else {
        panic!("a singular carried basis was not a numerical error");
    };
    assert!(msg.contains("no pivot for xa") || msg.contains("no pivot for xb"), "{msg}");
}

/// Reprice `st`, and a copy of its workspace that keeps nothing from
/// earlier reprices: the two must agree bit for bit on `y`, `d` and the
/// entering set. Returns the duals `st`'s kept prices were found under when
/// it took the reuse path.
fn reprice_against_a_full_one(st: &mut State, tuning: SolverTuning, at: &str) -> Option<Vec<f64>> {
    let (p, model, opts) = (st.p, st.model, st.opts);
    let kept = st.ws.priced.then(|| st.ws.y_priced.clone());
    let mut scratch = st.ws.clone();
    st.reprice(&p.cost);
    let mut full = State::new(p, model, opts, tuning, &mut scratch);
    full.ws.priced = false;
    full.reprice(&p.cost);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&st.ws.y), bits(&full.ws.y), "{at}: y");
    assert_eq!(bits(&st.ws.d), bits(&full.ws.d), "{at}: d");
    let set = |ws: &Workspace| (0..p.n).filter(|&j| ws.entering.contains(j)).collect();
    let (got, want): (Vec<usize>, Vec<usize>) = (set(st.ws), set(full.ws));
    assert_eq!(got, want, "{at}: entering set");
    kept
}

/// A reprice keeps the reduced costs and entering verdicts of the columns
/// whose duals did not move, and what it keeps must be what a full reprice
/// computes, bit for bit: each carried solve of a `cut_case` (cadences 2,
/// 7 and 96, costs moved or not) is stopped after one more pivot at a time,
/// in the dual loop or the polish, and where it stops and where it ends, a
/// reprice of its state must give the `d`, `y` and entering set that a
/// reprice of a copy which keeps nothing gives.
#[test]
fn reprice_reuses_exactly_what_a_full_reprice_computes() {
    let (mut reused, mut partial) = (0u64, 0u64);
    for seed in 1..=40u64 {
        for max_etas in [2, 7, 96] {
            for move_costs in [false, true] {
                let (model, p, start, tuning, changes) = cut_case(seed, max_etas, move_costs);
                let opts = SimplexOptions::default();
                for stop in 1.. {
                    let mut ws = start.clone();
                    let mut st = warm_state(&p, &model, &changes, &opts, tuning, &mut ws).unwrap();
                    st.max_iterations = stop;
                    let done = st.reoptimize(&p.cost).is_ok();
                    let ran_out = st.stats.iterations >= stop;
                    let at =
                        format!("seed {seed}, cadence {max_etas}, costs {move_costs}, stop {stop}");
                    if let Some(old) = reprice_against_a_full_one(&mut st, tuning, &at) {
                        reused += 1;
                        let moved =
                            st.ws.y.iter().zip(&old).filter(|(a, b)| a.to_bits() != b.to_bits());
                        partial += u64::from(old.len() == p.m && moved.count() < p.m);
                    }
                    if done || !ran_out {
                        break;
                    }
                }
            }
        }
    }
    // Measured: 3,704 reprices on the reuse path, 2,740 of them with some
    // dual unmoved.
    assert!(reused >= 3_500 && partial >= 2_500, "reuse-path reprices {reused}, partial {partial}");
}

/// A `cut_case` model with a row `−Σ x = −0.1` added, which the crash of
/// a cold solve opens an artificial for (with sign −1), so the solve runs
/// phase 1; returned with that row.
fn floored(seed: u64) -> (Model, RowId) {
    let (mut model, ..) = cut_case(seed, 96, false);
    let floor = LinExpr::from_terms((0..model.num_vars()).map(|j| (-1.0, Var::from_index(j))));
    let floor = model.add_row("floor", floor, Cmp::Eq, -0.1);
    (model, floor)
}

/// Give a `floored` model a column in its first row and the floor row,
/// and sync `p` to it: the change log a carried start appends it from.
fn append_late_column(model: &mut Model, floor: RowId, p: &mut Problem) -> Changes {
    let late = model.add_var("late", 0.0, 2.0, 0.25);
    let first = RowId::from_index(0);
    model.add_term(first, late, 1.0);
    model.add_term(floor, late, -1.0);
    let mut changes = Changes { tails: vec![first.0, floor.0], ..Changes::default() };
    assert!(p.sync(model, &mut changes));
    changes
}

/// What a cold solve leaves for the next reprice to keep, and what a
/// carried start appends: a `floored` model, whose crash opens the floor
/// row's artificial with sign −1 and the end of the cold solve flips it
/// back, is solved cold, then gets a column in its first row and the
/// floor row, and is solved carried. After each solve a reprice must
/// equal a full one — the flipped artificial and the appended column are
/// priced again even where no dual of theirs moved, and nothing phase 1
/// priced is kept.
#[test]
fn reprice_reuse_covers_flipped_artificials_and_appended_columns() {
    let mut reused = 0;
    for seed in 1..=40u64 {
        let (mut model, floor) = floored(seed);
        let opts = SimplexOptions::default();
        let tuning = SolverTuning::default();
        let mut p = Problem::from_model(&model);
        let mut ws = Workspace::default();
        load_bounds(&model, &mut ws);
        run(&mut p, &model, &opts, tuning, &mut ws).unwrap();
        (ws.owner_m, ws.owner_nstruct) = (p.m, p.nstruct);
        let at = format!("seed {seed}");
        let mut st = State::new(&p, &model, &opts, tuning, &mut ws);
        reused += u32::from(reprice_against_a_full_one(&mut st, tuning, &at).is_some());
        let changes = append_late_column(&mut model, floor, &mut p);
        let mut st = warm_state(&p, &model, &changes, &opts, tuning, &mut ws).unwrap();
        st.reoptimize(&p.cost).unwrap();
        reused += u32::from(reprice_against_a_full_one(&mut st, tuning, &at).is_some());
    }
    assert_eq!(reused, 80, "every check took the reuse path");
}

/// `live` holds exactly the columns that can enter — nonbasic and not
/// fixed — wherever a solve stops: each carried solve of a `cut_case`
/// (cadences 2, 7 and 96, costs moved or not) is stopped after one more
/// pivot at a time, once in the dual loop with its boxes still in place
/// and once through the polish; each cold solve of a `floored` model is
/// stopped the same way in phase 1 or phase 2, then solved carried with
/// a column appended. Every stop, every carried start before its first
/// pivot and every end must agree with a recount.
#[test]
fn live_set_matches_a_recount_after_every_pivot() {
    // Stops checked: carried dual loop, carried polish, cold.
    let mut checked = [0u64; 3];
    let ran_out = |st: &State, stop: u64| u64::from(st.stats.iterations >= stop);
    for seed in 1..=40u64 {
        for max_etas in [2, 7, 96] {
            for move_costs in [false, true] {
                let (model, p, start, tuning, changes) = cut_case(seed, max_etas, move_costs);
                let opts = SimplexOptions::default();
                for stop in 1.. {
                    let at =
                        format!("seed {seed}, cadence {max_etas}, costs {move_costs}, stop {stop}");
                    let mut ws = start.clone();
                    let mut st = warm_state(&p, &model, &changes, &opts, tuning, &mut ws).unwrap();
                    assert!(st.ws.live_is_exact(), "{at}: carried start");
                    st.box_dual_infeasible();
                    st.max_iterations = stop;
                    // Stopped, done, or infeasible under its boxes: each leaves
                    // a state to recount.
                    let _ = st.dual_iterate(&p.cost);
                    assert!(st.ws.live_is_exact(), "{at}: dual loop");
                    checked[0] += ran_out(&st, stop);
                    let mut ws = start.clone();
                    let mut st = warm_state(&p, &model, &changes, &opts, tuning, &mut ws).unwrap();
                    st.max_iterations = stop;
                    let done = st.reoptimize(&p.cost).is_ok();
                    assert!(st.ws.live_is_exact(), "{at}: polish");
                    checked[1] += ran_out(&st, stop);
                    if done || st.stats.iterations < stop {
                        break;
                    }
                }
            }
        }
        let (mut model, floor) = floored(seed);
        let tuning = SolverTuning::default();
        let cold = |max_iterations: u64| {
            let mut p = Problem::from_model(&model);
            let mut ws = Workspace::default();
            load_bounds(&model, &mut ws);
            let opts = SimplexOptions { max_iterations, ..SimplexOptions::default() };
            let out = run(&mut p, &model, &opts, tuning, &mut ws);
            (out, p, ws)
        };
        for stop in 1.. {
            let (out, _, ws) = cold(stop);
            assert!(ws.live_is_exact(), "seed {seed}, cold, stop {stop}");
            if out.is_ok() {
                break;
            }
            checked[2] += 1;
        }
        let (out, mut p, mut start) = cold(0);
        out.unwrap();
        (start.owner_m, start.owner_nstruct) = (p.m, p.nstruct);
        let changes = append_late_column(&mut model, floor, &mut p);
        let opts = SimplexOptions::default();
        let mut st = warm_state(&p, &model, &changes, &opts, tuning, &mut start).unwrap();
        assert!(st.ws.live_is_exact(), "seed {seed}: carried start with a column appended");
        st.reoptimize(&p.cost).unwrap();
        assert!(st.ws.live_is_exact(), "seed {seed}: carried solve with a column appended");
    }
    // Measured: 3,319 stops in the dual loop, 3,464 in the polish, 76 cold.
    let [dual, polish, cold] = checked;
    assert!(dual >= 3_000 && polish >= 3_000 && cold >= 60, "stops checked: {checked:?}");
}

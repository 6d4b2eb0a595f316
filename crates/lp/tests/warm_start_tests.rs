//! Warm-start correctness properties.
//!
//! A `SolverSession` re-solve must be indistinguishable from a cold solve of
//! the same mutated model: identical objective, primal values, and dual
//! values to 1e-7, and a full KKT certificate on every warm result. The
//! models are "schedule shaped" — flow variables with bounds, demand rows,
//! and capacity rows — mutated the way SAM and the lazy row loop mutate
//! them: RHS refreshes, bound fixes, appended rows, appended variables.

use pretium_lp::validate::check_optimal;
use pretium_lp::{
    Cmp, LinExpr, Model, Restart, RowId, Sense, SimplexOptions, Solution, SolveError, SolveOptions,
    SolverSession, SolverTuning, Var,
};

/// Deterministic xorshift64* stream in `[0, 1)`.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

struct ScheduleShaped {
    session: SolverSession,
    vars: Vec<Var>,
    demand_rows: Vec<RowId>,
    cap_rows: Vec<RowId>,
}

/// A small schedule-shaped LP: `jobs × steps` flow variables, one demand
/// row per job (`Σ_t X ≤ demand`), one capacity row per step over a random
/// subset of jobs (`Σ_j X ≤ cap`), maximizing value-weighted flow. Always
/// feasible (zero flow works).
fn schedule_shaped(g: &mut Gen) -> ScheduleShaped {
    let jobs = 2 + g.index(4);
    let steps = 2 + g.index(5);
    let mut m = Model::new(Sense::Maximize);
    let mut vars = Vec::new();
    for j in 0..jobs {
        let weight = g.range(0.5, 3.0);
        for t in 0..steps {
            vars.push(m.add_var(&format!("x_{j}_{t}"), 0.0, g.range(1.0, 6.0), weight));
        }
    }
    let mut demand_rows = Vec::new();
    for j in 0..jobs {
        let e = LinExpr::from_terms((0..steps).map(|t| (1.0, vars[j * steps + t])));
        demand_rows.push(m.add_row(&format!("dem{j}"), e, Cmp::Le, g.range(1.0, 8.0)));
    }
    let mut cap_rows = Vec::new();
    for t in 0..steps {
        let mut e = LinExpr::new();
        for j in 0..jobs {
            if g.chance(0.7) {
                e.add_term(1.0, vars[j * steps + t]);
            }
        }
        if !e.is_empty() {
            cap_rows.push(m.add_row(&format!("cap{t}"), e, Cmp::Le, g.range(1.0, 5.0)));
        }
    }
    ScheduleShaped { session: SolverSession::new(m), vars, demand_rows, cap_rows }
}

/// Apply one random mutation to the session's model, mirroring what SAM and
/// the lazy-row loop do between re-solves. `last` is the solution of the
/// previous solve (used to fix variables at *feasible* executed values, the
/// way SAM freezes past timesteps).
fn mutate(g: &mut Gen, s: &mut ScheduleShaped, last: &pretium_lp::Solution) {
    let m = s.session.model_mut();
    match g.index(5) {
        // Capacity refresh (SAM sees realized traffic / capacity loss).
        0 if !s.cap_rows.is_empty() => {
            let r = s.cap_rows[g.index(s.cap_rows.len())];
            m.set_rhs(r, g.range(0.5, 6.0));
        }
        // Fix a variable at (a fraction of) its executed value; every row is
        // `Le` with +1 coefficients, so reducing a variable stays feasible.
        1 => {
            let v = s.vars[g.index(s.vars.len())];
            if v.index() < last.values().len() {
                let fix = last.value(v) * g.unit();
                m.set_bounds(v, fix, fix);
            }
        }
        // Reweight a job (price updates shift the objective).
        2 => {
            let v = s.vars[g.index(s.vars.len())];
            m.set_obj(v, g.range(0.1, 4.0));
        }
        // Append a cutting row over existing variables (lazy capacity row).
        3 => {
            let mut e = LinExpr::new();
            for &v in &s.vars {
                if g.chance(0.3) {
                    e.add_term(1.0, v);
                }
            }
            if !e.is_empty() {
                let name = format!("cut{}", s.cap_rows.len() + 100);
                s.cap_rows.push(m.add_row(&name, e, Cmp::Le, g.range(1.0, 6.0)));
            }
        }
        // Append a variable tied into an existing row (new request).
        _ => {
            let name = format!("z{}", s.vars.len());
            let v = m.add_var(&name, 0.0, g.range(0.5, 3.0), g.range(0.5, 3.0));
            s.vars.push(v);
            if !s.demand_rows.is_empty() {
                let name = format!("zr{}", s.vars.len());
                s.demand_rows.push(m.add_row(&name, 1.0 * v, Cmp::Le, g.range(0.5, 4.0)));
            }
        }
    }
}

const TOL: f64 = 1e-7;

/// A cold solve of `model` on a thread of its own: on the session's thread
/// it would replace the terminal state the session's next solve carries,
/// and that solve would run cold too.
fn solve_elsewhere(model: &Model) -> Result<Solution, SolveError> {
    std::thread::scope(|scope| scope.spawn(|| model.solve()).join().unwrap())
}

/// Compare a warm session solve against a cold solve of the same model.
/// Returns the warm solution when one exists (the two must agree on
/// solvability as well as on the optimum).
fn assert_warm_matches_cold(
    seed: u64,
    step: usize,
    s: &mut ScheduleShaped,
    opts: &SolveOptions,
) -> Option<pretium_lp::Solution> {
    let warm_result = s.session.solve(opts).cloned();
    let cold_result = solve_elsewhere(s.session.model());
    let (warm, cold) = match (warm_result, cold_result) {
        (Ok(w), Ok(c)) => (w, c),
        (Err(we), Err(_ce)) => {
            // Both paths reject the model (e.g. a capacity refresh dropped
            // below already-fixed executed amounts) — agreement is the
            // property; there is nothing further to compare.
            let _ = we;
            return None;
        }
        (Ok(w), Err(ce)) => {
            panic!("seed {seed} step {step}: warm found {} but cold failed: {ce}", w.objective())
        }
        (Err(we), Ok(c)) => {
            panic!("seed {seed} step {step}: cold found {} but warm failed: {we}", c.objective())
        }
    };
    let scale = 1.0 + cold.objective().abs();
    assert!(
        (warm.objective() - cold.objective()).abs() <= TOL * scale,
        "seed {seed} step {step}: warm obj {} vs cold {} (restart {:?})",
        warm.objective(),
        cold.objective(),
        s.session.last_restart(),
    );
    // Primal and dual agreement. Degenerate optima can have multiple optimal
    // bases; compare objective-relevant quantities instead of raw vectors
    // when they disagree: both must satisfy KKT, and the dual objectives
    // must coincide. Start with direct comparison — on these dense random
    // instances the optimum is almost always unique — and fall back to the
    // KKT cross-check when vectors differ.
    let primal_close = warm
        .values()
        .iter()
        .zip(cold.values())
        .all(|(a, b)| (a - b).abs() <= 1e-6 * (1.0 + b.abs()));
    let dual_close =
        warm.duals().iter().zip(cold.duals()).all(|(a, b)| (a - b).abs() <= 1e-6 * (1.0 + b.abs()));
    if !(primal_close && dual_close) {
        // Alternative optimum: each solution must independently certify.
        let cold_violations = check_optimal(s.session.model(), &cold, TOL * 10.0);
        assert!(
            cold_violations.is_empty(),
            "seed {seed} step {step}: cold solution fails KKT: {cold_violations:?}"
        );
    }
    // Every warm result must carry a full KKT certificate regardless.
    let violations = check_optimal(s.session.model(), &warm, TOL * 10.0);
    assert!(
        violations.is_empty(),
        "seed {seed} step {step}: warm KKT violations (restart {:?}): {violations:?}",
        s.session.last_restart(),
    );
    Some(warm)
}

/// Runs at three refactorization cadences: the default (96, never reached
/// here), and 7 and 2, which refactorize — and so re-seed the reduced costs
/// and duals the dual simplex maintains — in the middle of its loop.
#[test]
fn warm_resolves_match_cold_across_random_mutations() {
    for max_etas in [96, 7, 2] {
        let opts = SolveOptions {
            tuning: SolverTuning { max_etas, ..SolverTuning::default() },
            ..SolveOptions::default()
        };
        let (mut warm_seen, mut dual_pivots) = (0u32, 0u64);
        for seed in 0..40 {
            let mut g = Gen::new(seed);
            let mut s = schedule_shaped(&mut g);
            // Initial cold solve to seat a basis.
            let Some(mut last) = assert_warm_matches_cold(seed, 0, &mut s, &opts) else {
                panic!("seed {seed}: base model must be feasible");
            };
            for step in 1..=6 {
                mutate(&mut g, &mut s, &last);
                if let Some(sol) = assert_warm_matches_cold(seed, step, &mut s, &opts) {
                    dual_pivots += sol.stats().dual_iterations;
                    last = sol;
                    if s.session.last_restart() != Some(Restart::Cold) {
                        warm_seen += 1;
                    }
                }
            }
        }
        // The warm path must actually be exercised, not fall back cold always.
        assert!(warm_seen > 100, "only {warm_seen} warm restarts in 240 mutated solves");
        assert!(dual_pivots > 50, "only {dual_pivots} dual pivots at cadence {max_etas}");
    }
}

#[test]
fn rhs_sweep_stays_warm_and_correct() {
    // A SAM-like sweep: the same capacity row tightens step by step.
    let mut g = Gen::new(0xBEEF);
    let mut s = schedule_shaped(&mut g);
    s.session.solve(&SolveOptions::default()).unwrap();
    let Some(&row) = s.cap_rows.first() else { return };
    for step in 0..10 {
        let rhs = 5.0 - 0.45 * step as f64;
        s.session.model_mut().set_rhs(row, rhs.max(0.1));
        assert_warm_matches_cold(0xBEEF, step, &mut s, &SolveOptions::default());
        assert_ne!(
            s.session.last_restart(),
            Some(Restart::Cold),
            "step {step} fell back to a cold solve"
        );
    }
    assert_eq!(s.session.stats().cold_starts, 1);
}

#[test]
fn growing_model_keeps_append_stable_basis() {
    // Interleave appended variables and rows with bound fixes — the case
    // where raw column indices shift (every slack moves up) and the carried
    // state must be moved to the grown layout.
    let mut g = Gen::new(0xFACE);
    let mut s = schedule_shaped(&mut g);
    assert_warm_matches_cold(0xFACE, 0, &mut s, &SolveOptions::default());
    for step in 0..8 {
        // Alternate append-variable and append-row mutations.
        if step % 2 == 0 {
            let name = format!("g{step}");
            let v = s.session.model_mut().add_var(&name, 0.0, 2.0, 1.5);
            s.vars.push(v);
            let rname = format!("gr{step}");
            s.session.model_mut().add_row(&rname, 1.0 * v, Cmp::Le, 1.0);
        } else {
            let mut e = LinExpr::new();
            for &v in s.vars.iter().step_by(2) {
                e.add_term(1.0, v);
            }
            let rname = format!("gc{step}");
            s.session.model_mut().add_row(&rname, e, Cmp::Le, g.range(2.0, 8.0));
        }
        assert_warm_matches_cold(0xFACE, step + 1, &mut s, &SolveOptions::default());
    }
}

// --- resident simplex state ------------------------------------------------

/// A solve that ends right after a refactorization — here the primal polish
/// pivots, then refactorizes to certify optimality against exact reduced
/// costs — does not refactorize the same basis again for its final duals.
/// The start carries (an old cost moved: it reprices in full and
/// refactorizes nothing), so the certificate's refactorization is the only
/// one; the result is pinned bit for bit.
#[test]
fn polish_that_certifies_by_refactor_skips_the_terminal_one() {
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_nonneg("x", 3.0);
    let y = m.add_nonneg("y", 2.0);
    let z = m.add_var("z", 0.0, 5.0, 1.0);
    m.add_row("r1", x + y + z, Cmp::Le, 4.0);
    m.add_row("r2", 1.0 * x + 3.0 * y, Cmp::Le, 6.0);
    m.add_row("r3", 2.0 * x + 1.0 * z, Cmp::Le, 7.0);
    let mut s = SolverSession::new(m);
    s.solve(&SolveOptions::default()).unwrap();
    s.model_mut().set_obj(y, 10.0);
    let sol = s.solve(&SolveOptions::default()).unwrap().clone();
    assert_eq!(s.last_restart(), Some(Restart::WarmPrimal));
    let st = sol.stats();
    assert_eq!((st.iterations, st.refactors, st.terminal_refactors), (2, 1, 0), "{st:?}");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(sol.objective().to_bits(), 22.0f64.to_bits());
    assert_eq!(bits(sol.values()), bits(&[0.0, 2.0, 2.0]));
    assert_eq!(bits(sol.duals()), bits(&[1.0, 3.0, -0.0]));
}

/// A bound flip moves `x` without touching the basis, so the factors are
/// current but the `x_B` of the last FTRAN is not: a solve that ends on one
/// must hand back basic values that follow the flip — maintained through it
/// and passed by the residual certificate, or recomputed. `z = x + y` is the
/// basic variable that shows it.
#[test]
fn solve_ending_on_a_bound_flip_returns_the_moved_basic_values() {
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_var("x", 0.0, 2.0, 1.0);
    let y = m.add_var("y", 0.0, 3.0, 1.0);
    let z = m.add_nonneg("z", 0.0);
    m.add_row("sum", x + y - z, Cmp::Eq, 0.0);
    let mut s = SolverSession::new(m);
    let first = s.solve(&SolveOptions::default()).unwrap();
    assert_eq!(first.values(), [2.0, 3.0, 5.0]);
    s.model_mut().set_obj(x, -1.0);
    let sol = s.solve(&SolveOptions::default()).unwrap().clone();
    assert_eq!(s.last_restart(), Some(Restart::WarmPrimal));
    assert_eq!((sol.stats().iterations, sol.stats().ft_updates), (1, 0), "one flip, no pivot");
    assert_eq!(sol.values(), [0.0, 3.0, 3.0]);
    assert!(check_optimal(s.model(), &sol, TOL).is_empty());
}

/// A failed solve syncs the resident standard form but leaves no stamp, so
/// the session's "appended since the last solve" marks fall behind it. A
/// term added *again* for a variable the failed solve had already copied
/// merges into a coefficient the resident form holds: the next solve must
/// not optimize that stale matrix. It runs cold — a failed predecessor
/// leaves nothing to carry — and rebuilds the form from the model.
#[test]
fn term_merged_after_a_failed_solve_reaches_the_resident_form() {
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_nonneg("x", 1.0);
    let r0 = m.add_row("r0", 1.0 * x, Cmp::Le, 4.0);
    let mut s = SolverSession::new(m);
    s.solve(&SolveOptions::default()).unwrap();
    let z = s.model_mut().add_var("z", 0.0, 5.0, 1.0);
    let floor = s.model_mut().add_row("floor", 1.0 * z, Cmp::Ge, 10.0); // z <= 5: infeasible
    s.model_mut().add_term(r0, z, 1.0);
    assert!(s.solve(&SolveOptions::default()).is_err());
    s.model_mut().set_rhs(floor, 1.0);
    s.model_mut().add_term(r0, z, 1.0); // r0 is now x + 2z <= 4
    let sol = s.solve(&SolveOptions::default()).unwrap().clone();
    assert_eq!(s.last_restart(), Some(Restart::Cold), "nothing to carry");
    let cold = s.model().solve().unwrap();
    assert_eq!(sol.objective().to_bits(), cold.objective().to_bits());
    assert_eq!((sol.value(x), sol.value(z)), (2.0, 1.0));
}

// --- dual pivots -----------------------------------------------------------

/// Six jobs × eight steps of equal-value flow under per-job demand rows and
/// per-step capacity rows — a transportation-shaped LP whose optimal bases
/// are heavily dual degenerate (every reduced cost is 0 or ±1) — solved, then
/// every capacity cut: the next solve is a dual restart of some 70 pivots.
fn grid_with_capacities_cut() -> SolverSession {
    let (jobs, steps) = (6, 8);
    let mut m = Model::new(Sense::Maximize);
    let x: Vec<Var> =
        (0..jobs * steps).map(|i| m.add_var(&format!("x{i}"), 0.0, 4.0, 1.0)).collect();
    for j in 0..jobs {
        let e = LinExpr::from_terms((0..steps).map(|t| (1.0, x[j * steps + t])));
        m.add_row(&format!("dem{j}"), e, Cmp::Le, 6.0 + j as f64);
    }
    let caps: Vec<RowId> = (0..steps)
        .map(|t| {
            let e = LinExpr::from_terms((0..jobs).map(|j| (1.0, x[j * steps + t])));
            m.add_row(&format!("cap{t}"), e, Cmp::Le, 9.0)
        })
        .collect();
    let mut s = SolverSession::new(m);
    s.solve(&SolveOptions::default()).unwrap();
    for (t, &row) in caps.iter().enumerate() {
        s.model_mut().set_rhs(row, 3.0 + 0.5 * t as f64);
    }
    s
}

/// A dual pivot costs one BTRAN — the pivot row, from which the reduced costs
/// and duals are carried along — so a warm dual restart of `k` pivots that
/// never refactorizes mid-solve spends at most `k + 3`: the seeding reprice
/// (none when the start is carried), the polish's reprice and the terminal
/// duals (none when the polish's are current). An uninterrupted RHS-only
/// restart also never refactorizes: it starts on the factors its
/// predecessor left and ends on the residual certificate.
#[test]
fn dual_pivot_costs_one_btran() {
    let mut s = grid_with_capacities_cut();
    let sol = s.solve(&SolveOptions::default()).unwrap().clone();
    assert_eq!(s.last_restart(), Some(Restart::WarmDual));
    let st = sol.stats();
    let k = st.dual_iterations;
    assert!(k >= 5, "only {k} dual pivots");
    assert_eq!(st.iterations, k, "the polish had nothing left to do");
    assert_eq!(st.refactors, 0, "carried start, certified end");
    assert!(st.btrans <= k + 3, "{} BTRANs for {k} dual pivots", st.btrans);
    assert_eq!(s.stats().dual_iterations, k);
    let cold = s.model().solve().unwrap();
    assert!((sol.objective() - cold.objective()).abs() <= TOL * (1.0 + cold.objective().abs()));
}

/// Degeneracy in the dual simplex is a dual step of zero — the entering
/// column's reduced cost already was — whatever the primal step. The parent
/// judged it on the primal step, which is positive whenever a row is
/// violated, so Bland's rule could never engage in the dual loop.
#[test]
fn dual_degenerate_restart_engages_blands_rule() {
    let mut s = grid_with_capacities_cut();
    let bland_at_once = SolveOptions {
        simplex: Some(SimplexOptions { bland_trigger: 0, ..SimplexOptions::default() }),
        ..SolveOptions::default()
    };
    let sol = s.solve(&bland_at_once).unwrap().clone();
    assert_eq!(s.last_restart(), Some(Restart::WarmDual));
    let st = sol.stats();
    assert_eq!(st.iterations, st.dual_iterations, "every pivot was a dual one");
    assert!(st.bland_pivots > 0, "no Bland pivot in {} dual pivots", st.dual_iterations);
    let cold = s.model().solve().unwrap();
    assert!((sol.objective() - cold.objective()).abs() <= TOL * (1.0 + cold.objective().abs()));
    assert!(check_optimal(s.model(), &sol, TOL * 10.0).is_empty());
}

//! Persistent solver sessions with warm-started re-optimization.
//!
//! A [`SolverSession`] owns a [`Model`] together with the basis of its last
//! solve. Incremental mutations (`set_rhs`, `set_bounds`, `set_obj`,
//! `add_row`, `add_var`) go through the session so it knows whether its
//! cached optimum still holds, and every re-solve picks the cheapest restart
//! that is still correct:
//!
//! * **objective-only changes** leave the basis primal feasible — primal
//!   simplex continues from it directly ([`Restart::WarmPrimal`]);
//! * **RHS / bound changes** leave the basis dual feasible — the dual
//!   simplex repairs primal feasibility ([`Restart::WarmDual`]); this is the
//!   SAM-timestep case, where capacities and executed amounts move between
//!   re-optimizations;
//! * **appended rows** seat their slack in the basis (duals of existing rows
//!   are unchanged, so dual feasibility survives) and restart dual — the
//!   lazy capacity-row case;
//! * **appended variables** rest at a bound; if that disturbs feasibility
//!   the dual/primal repair machinery handles it.
//!
//! Anything the warm path cannot absorb falls back to a full cold solve, so
//! a session solve always returns the same certified optimum a fresh
//! [`Model::solve`] would — warm starting is purely a performance property
//! (the property tests assert primal, dual, and objective agreement to
//! 1e-7).
//!
//! ```
//! use pretium_lp::{Cmp, Restart, SolveOptions, SolverSession, Model, Sense};
//!
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_nonneg("x", 3.0);
//! let y = m.add_nonneg("y", 2.0);
//! let cap = m.add_row("cap", x + y, Cmp::Le, 4.0);
//! let _r2 = m.add_row("r2", 1.0 * x + 3.0 * y, Cmp::Le, 6.0);
//! let mut session = SolverSession::new(m);
//! let first = session.solve(&SolveOptions::default()).unwrap();
//! assert!((first.objective() - 12.0).abs() < 1e-7);
//!
//! // Capacity changes re-optimize from the saved basis, not from scratch.
//! session.set_rhs(cap, 7.0);
//! let second = session.solve(&SolveOptions::default()).unwrap();
//! assert!((second.objective() - 18.0).abs() < 1e-7);
//! assert_eq!(session.last_restart(), Some(Restart::WarmDual));
//! ```

use crate::expr::{LinExpr, Var};
use crate::model::{Cmp, Model, RowId};
use crate::simplex::{
    solve_model_session, Problem, Restart, SimplexOptions, SolverTuning, WarmBasis,
};
use crate::solution::{Solution, SolveError};
use crate::stats::SessionStats;

/// Options for one [`SolverSession::solve`] call.
#[derive(Debug, Clone, Default)]
pub struct SolveOptions {
    /// Tolerances and limits; `None` means [`SimplexOptions::default`].
    pub simplex: Option<SimplexOptions>,
    /// Discard the saved basis and solve from scratch.
    pub force_cold: bool,
    /// Refactorization cadence and pricing workers; the all-zero default
    /// is the default kernel.
    pub tuning: SolverTuning,
}

impl SolveOptions {
    /// Options that cap the simplex at `max` iterations (fault injection /
    /// degraded-compute modelling, §4.4). The solver returns
    /// [`SolveError::IterationLimit`] instead of running to optimality when
    /// the cap is hit, so callers can degrade gracefully.
    pub fn with_iteration_limit(max: u64) -> Self {
        SolveOptions {
            simplex: Some(SimplexOptions { max_iterations: max, ..SimplexOptions::default() }),
            ..SolveOptions::default()
        }
    }
}

/// One column to append through [`SolverSession::add_generated_cols`].
///
/// The column's coefficients land in *existing* rows — pairing a fresh
/// column with pre-existing rows is the warm-safe growth direction (the
/// saved basis never references the new column, so it enters nonbasic at
/// bound and the next solve restarts warm).
#[derive(Debug, Clone)]
pub struct ColRequest {
    pub name: String,
    pub lb: f64,
    pub ub: f64,
    /// Objective coefficient of the new column.
    pub obj: f64,
    /// `(row, coefficient)` entries of the column.
    pub terms: Vec<(RowId, f64)>,
}

/// A [`Model`] plus the simplex state of its last solve: the saved basis
/// and the solver's standard form of the model. (The basis factorization
/// and the solver's scratch buffers are resident too, once per thread; the
/// thread's last solve leaves its terminal state there, and the session
/// that ran it continues from it if it is also the next to solve.)
///
/// Created with [`SolverSession::new`] (or [`Model::into_session`]); see the
/// [module docs](self) for the restart rules. The session exposes the same
/// mutators as [`Model`] — route all changes through it so the basis
/// snapshot, the resident standard form and the cached optimum stay
/// consistent. A warm re-solve copies only what was appended to the model
/// into the standard form and allocates nothing but the solution and the
/// basis snapshot it returns. A clone re-solves bit-identically from the
/// same starting stage: of a session and its clone, whichever solves second
/// reloads the saved basis where the first continued in place — the same
/// certified optimum, not the same bits (DESIGN.md §23).
#[derive(Debug, Clone)]
pub struct SolverSession {
    model: Model,
    basis: Option<WarmBasis>,
    /// Standard form of `model`, kept between solves and synced rather
    /// than rebuilt (DESIGN.md §20). Valid only together with `basis`:
    /// `solve_model_session` rebuilds it whenever it solves without one.
    resident: Problem,
    /// Something changed since the last solve: the cached optimum is stale.
    dirty: bool,
    /// The cost of a column the saved basis knows changed since the last
    /// solve: the reduced costs and duals that solve left behind are stale,
    /// so the next one reloads instead of carrying.
    old_cost_moved: bool,
    /// The merged ledgers of the solves that ran, plus the session's own
    /// counters (cache hits, generated columns).
    stats: SessionStats,
    last_restart: Option<Restart>,
    /// Model size at the last basis snapshot; columns/rows past these marks
    /// were appended afterwards and are never referenced by the saved basis.
    solved_vars: usize,
    solved_rows: usize,
    /// The most recent certified optimum of the current model state.
    /// Served verbatim by [`SolverSession::solve`] while the session is not
    /// `dirty`, and the reference point for [`SolverSession::fix_at_value`].
    last_solution: Option<Solution>,
}

// The parallel evaluation engine (`pretium-sim::par`) moves one session
// into each worker thread, so `SolverSession` must stay `Send + Sync`. A
// future field that loses those bounds — an `Rc` cache, a raw pointer —
// would silently force every sweep back to serial; fail the build instead.
const _: () = {
    const fn sealed<T: Send + Sync>() {}
    sealed::<SolverSession>();
    sealed::<SessionStats>();
};

impl SolverSession {
    /// Wrap a model in a fresh session (no saved basis; the first solve is
    /// cold).
    pub fn new(model: Model) -> Self {
        SolverSession {
            model,
            basis: None,
            resident: Problem::default(),
            dirty: false,
            old_cost_moved: false,
            stats: SessionStats::default(),
            last_restart: None,
            solved_vars: 0,
            solved_rows: 0,
            last_solution: None,
        }
    }

    /// The wrapped model (read-only; mutate through the session methods).
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// How the most recent solve restarted, if any solve has run.
    pub fn last_restart(&self) -> Option<Restart> {
        self.last_restart
    }

    /// Lifetime counters: the merge of the ledgers ([`Solution::stats`]) of
    /// the solves that ran, plus cache hits and generated columns.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Fold externally measured parallel-pricing counters into the
    /// session's stats. This is the hook for callers that run their own
    /// deterministic pricing fan-out *around* the session — the
    /// scheduler's column-generation oracle prices job blocks over the
    /// same sectioned pool — so all pricing parallelism reports through
    /// one set of telemetry rows.
    pub fn note_parallel_pricing(
        &mut self,
        sections: u64,
        steals: u64,
        serial_nanos: u64,
        par_nanos: u64,
    ) {
        self.stats.pricing_par_sections += sections;
        self.stats.pricing_par_steals += steals;
        self.stats.pricing_serial_nanos += serial_nanos;
        self.stats.pricing_par_nanos += par_nanos;
    }

    /// True when a basis from a previous solve is available for warm
    /// starting.
    pub fn has_basis(&self) -> bool {
        self.basis.is_some()
    }

    /// Drop the saved basis; the next solve runs cold. Also drops the
    /// cached solution, so the next solve really does run the simplex, and
    /// the resident standard form, which is only meaningful with the basis.
    pub fn invalidate(&mut self) {
        self.basis = None;
        self.last_solution = None;
        self.drop_resident();
    }

    /// Release the resident standard form but keep the saved basis: the
    /// next solve is still warm, only it rebuilds what this dropped.
    fn drop_resident(&mut self) {
        self.resident = Problem::default();
    }

    /// The certified optimum of the current model state, if no mutation has
    /// been recorded since it was computed.
    pub fn cached_solution(&self) -> Option<&Solution> {
        self.last_solution.as_ref().filter(|_| !self.dirty)
    }

    // --- mutators (mirror Model, and mark the cached optimum stale) --------

    /// See [`Model::add_var`].
    pub fn add_var(&mut self, name: &str, lb: f64, ub: f64, obj: f64) -> Var {
        self.dirty = true;
        self.model.add_var(name, lb, ub, obj)
    }

    /// See [`Model::add_nonneg`].
    pub fn add_nonneg(&mut self, name: &str, obj: f64) -> Var {
        self.add_var(name, 0.0, f64::INFINITY, obj)
    }

    /// See [`Model::add_free`].
    pub fn add_free(&mut self, name: &str, obj: f64) -> Var {
        self.add_var(name, f64::NEG_INFINITY, f64::INFINITY, obj)
    }

    /// See [`Model::add_row`].
    pub fn add_row(&mut self, name: &str, expr: impl Into<LinExpr>, cmp: Cmp, rhs: f64) -> RowId {
        self.dirty = true;
        self.model.add_row(name, expr, cmp, rhs)
    }

    /// See [`Model::add_term`]. Warm-start compatible whenever the variable
    /// *or* the row was appended after the last solve: the saved basis never
    /// references the new column/row pairing, so extending the matrix there
    /// leaves it reusable (a fresh nonbasic column, or a fresh row whose
    /// slack is seated basic with dual zero). Retrofitting a coefficient
    /// between a pre-existing row and a pre-existing variable rewrites the
    /// factorized basis matrix itself, so the basis is discarded and the
    /// next solve runs cold.
    pub fn add_term(&mut self, r: RowId, v: Var, coef: f64) {
        self.dirty = true;
        if v.index() < self.solved_vars && r.index() < self.solved_rows {
            self.invalidate();
        }
        // The resident standard form may be ahead of the saved basis (a
        // failed solve syncs it but snapshots nothing): a coefficient it has
        // already copied must not change under it.
        if v.index() < self.resident.nstruct && r.index() < self.resident.m {
            self.drop_resident();
        }
        self.model.add_term(r, v, coef);
    }

    /// See [`Model::set_obj`].
    pub fn set_obj(&mut self, v: Var, obj: f64) {
        self.dirty = true;
        self.old_cost_moved |= v.index() < self.solved_vars;
        self.model.set_obj(v, obj);
    }

    /// See [`Model::set_bounds`].
    pub fn set_bounds(&mut self, v: Var, lb: f64, ub: f64) {
        self.dirty = true;
        self.model.set_bounds(v, lb, ub);
    }

    /// Pin `v` to the single value `x` (bounds `[x, x]`), *without* marking
    /// the cached optimum stale when the pin provably preserves it: if the cached solution already has `v = x` (bitwise) and
    /// `x` lies inside the old bounds, fixing the variable there shrinks
    /// the feasible set while keeping the incumbent feasible — the cached
    /// primal/dual pair stays optimal (a fixed column's reduced cost is
    /// unconstrained). This is what lets a schedule session freeze already-
    /// executed timesteps at their planned values every step without
    /// forcing an LP re-solve when nothing actually moved.
    pub fn fix_at_value(&mut self, v: Var, x: f64) {
        let (lb, ub) = self.model.bounds(v);
        let already_pinned = lb == x && ub == x;
        // (A variable newer than the cached solution has no value in it.)
        let cached = self.last_solution.as_ref().and_then(|s| s.values.get(v.index()));
        let matches_cached = lb <= x && x <= ub && cached == Some(&x);
        self.dirty |= !(already_pinned || matches_cached);
        self.model.set_bounds(v, x, x);
    }

    /// See [`Model::set_rhs`].
    pub fn set_rhs(&mut self, r: RowId, rhs: f64) {
        self.dirty = true;
        self.model.set_rhs(r, rhs);
    }

    /// See [`Model::add_obj_offset`].
    pub fn add_obj_offset(&mut self, c: f64) {
        self.dirty = true;
        self.model.add_obj_offset(c);
    }

    /// Append-only access to the underlying model, for helpers that build
    /// structure directly on a [`Model`] (e.g. encoding builders that add a
    /// block of variables and rows). Whether anything was added is read off
    /// the model dimensions afterwards.
    ///
    /// The closure must only *append*: add variables, add rows, and touch
    /// the entries it added. Mutating pre-existing coefficients, bounds,
    /// RHS values, or objective entries through this hook bypasses mutation
    /// tracking and can silently corrupt warm restarts — use the session's
    /// own mutators for those.
    pub fn append_with<R>(&mut self, f: impl FnOnce(&mut Model) -> R) -> R {
        let (nv, nr) = (self.model.num_vars(), self.model.num_rows());
        let out = f(&mut self.model);
        self.dirty |= (nv, nr) != (self.model.num_vars(), self.model.num_rows());
        out
    }

    // --- solving ----------------------------------------------------------

    /// Re-optimize, reusing the saved basis when possible.
    ///
    /// The restart that actually ran is readable via
    /// [`SolverSession::last_restart`]; the result is always the certified
    /// optimum of the current model (warm failures fall back to a cold
    /// solve internally).
    pub fn solve(&mut self, opts: &SolveOptions) -> Result<Solution, SolveError> {
        // Nothing mutated since the last certified optimum: the cached
        // solution *is* the answer — skip the simplex entirely. (`invalidate`
        // drops it, so that a real cold solve follows.)
        if let Some(hit) = self.cached_solution().filter(|_| !opts.force_cold).cloned() {
            self.stats.cache_hits += 1;
            return Ok(hit);
        }
        let simplex = opts.simplex.clone().unwrap_or_default();
        let warm = if opts.force_cold { None } else { self.basis.as_ref() };
        let (solution, basis, restart) = solve_model_session(
            &self.model,
            &simplex,
            opts.tuning,
            warm,
            !self.old_cost_moved,
            &mut self.resident,
        )?;
        self.basis = Some(basis);
        self.old_cost_moved = false;
        self.stats.merge(solution.stats);
        self.last_restart = Some(restart);
        self.dirty = false;
        self.solved_vars = self.model.num_vars();
        self.solved_rows = self.model.num_rows();
        self.last_solution = Some(solution.clone());
        Ok(solution)
    }

    // --- column growth ----------------------------------------------------

    /// Append priced columns through the session's tracked growth path,
    /// returning their variables in request order. Each column lands as a
    /// fresh variable retrofitted into its (pre-existing) rows — warm-safe,
    /// because the saved basis never references the new column. Counts the
    /// columns into [`SessionStats::columns_generated`] and, when the batch
    /// is non-empty, one restricted-master round into
    /// [`SessionStats::colgen_rounds`].
    pub fn add_generated_cols(&mut self, requests: Vec<ColRequest>) -> Vec<Var> {
        if !requests.is_empty() {
            self.stats.colgen_rounds += 1;
        }
        requests
            .into_iter()
            .map(|c| {
                let v = self.add_var(&c.name, c.lb, c.ub, c.obj);
                for (r, coef) in c.terms {
                    self.add_term(r, v, coef);
                }
                self.stats.columns_generated += 1;
                v
            })
            .collect()
    }
}

impl From<Model> for SolverSession {
    fn from(model: Model) -> Self {
        SolverSession::new(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sense;

    fn toy() -> (SolverSession, Var, Var, RowId, RowId) {
        // max 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg("x", 3.0);
        let y = m.add_nonneg("y", 2.0);
        let r1 = m.add_row("r1", x + y, Cmp::Le, 4.0);
        let r2 = m.add_row("r2", 1.0 * x + 3.0 * y, Cmp::Le, 6.0);
        (SolverSession::new(m), x, y, r1, r2)
    }

    #[test]
    fn first_solve_is_cold_then_rhs_change_restarts_dual() {
        let (mut s, x, _y, r1, _r2) = toy();
        let sol = s.solve(&SolveOptions::default()).unwrap();
        assert!((sol.objective() - 12.0).abs() < 1e-7);
        assert_eq!(s.last_restart(), Some(Restart::Cold));

        // Relaxing r1 past what r2 allows pushes the old basis out of primal
        // feasibility (the r2 slack would go negative): dual restart.
        s.set_rhs(r1, 7.0);
        let sol2 = s.solve(&SolveOptions::default()).unwrap();
        assert!((sol2.objective() - 18.0).abs() < 1e-7);
        assert!((sol2.value(x) - 6.0).abs() < 1e-7);
        assert_eq!(s.last_restart(), Some(Restart::WarmDual));
        assert_eq!(s.stats().cold_starts, 1);
        assert_eq!(s.stats().warm_dual, 1);
    }

    #[test]
    fn rhs_slide_within_bounds_restarts_primal() {
        // Moving a binding RHS while every basic variable stays inside its
        // bounds keeps the basis primal feasible — no dual pass needed.
        let (mut s, x, _y, r1, _r2) = toy();
        s.solve(&SolveOptions::default()).unwrap();
        s.set_rhs(r1, 3.0);
        let sol = s.solve(&SolveOptions::default()).unwrap();
        assert!((sol.objective() - 9.0).abs() < 1e-7);
        assert!((sol.value(x) - 3.0).abs() < 1e-7);
        assert_eq!(s.last_restart(), Some(Restart::WarmPrimal));
    }

    #[test]
    fn obj_change_restarts_primal() {
        let (mut s, _x, y, _r1, _r2) = toy();
        s.solve(&SolveOptions::default()).unwrap();
        // Make y the attractive variable; the old basis stays primal
        // feasible so the restart must be primal.
        s.set_obj(y, 10.0);
        let sol = s.solve(&SolveOptions::default()).unwrap();
        assert_eq!(s.last_restart(), Some(Restart::WarmPrimal));
        // New optimum: y = 2 on r2, x = 0 → 20.
        assert!((sol.objective() - 20.0).abs() < 1e-7, "{}", sol.objective());
    }

    #[test]
    fn added_row_restarts_dual() {
        let (mut s, x, _y, _r1, _r2) = toy();
        let sol = s.solve(&SolveOptions::default()).unwrap();
        assert!((sol.value(x) - 4.0).abs() < 1e-7);
        // Cut off the current optimum.
        s.add_row("cut", 1.0 * x, Cmp::Le, 2.0);
        let sol2 = s.solve(&SolveOptions::default()).unwrap();
        assert_eq!(s.last_restart(), Some(Restart::WarmDual));
        assert!(sol2.value(x) <= 2.0 + 1e-7);
        // Agrees with a cold solve of the same model.
        let cold = s.model().solve().unwrap();
        assert!((sol2.objective() - cold.objective()).abs() < 1e-7);
    }

    #[test]
    fn added_var_reoptimizes_correctly() {
        let (mut s, _x, _y, r1, _r2) = toy();
        s.solve(&SolveOptions::default()).unwrap();
        // A new, very profitable variable entering r1.
        let z = s.add_var("z", 0.0, f64::INFINITY, 9.0);
        // It must participate in an existing row to be bounded — rebuild the
        // row relationship via a fresh row.
        s.add_row("zcap", 1.0 * z, Cmp::Le, 1.0);
        let sol = s.solve(&SolveOptions::default()).unwrap();
        let cold = s.model().solve().unwrap();
        assert!((sol.objective() - cold.objective()).abs() < 1e-7);
        assert!((sol.value(z) - 1.0).abs() < 1e-7);
        let _ = r1;
    }

    #[test]
    fn added_var_enters_existing_row_warm() {
        let (mut s, x, y, r1, _r2) = toy();
        s.solve(&SolveOptions::default()).unwrap();
        // New variable competing for r1's capacity: the column is fresh, so
        // the saved basis stays valid and the re-solve is warm.
        let z = s.add_var("z", 0.0, f64::INFINITY, 9.0);
        s.add_term(r1, z, 1.0);
        let sol = s.solve(&SolveOptions::default()).unwrap();
        assert_ne!(s.last_restart(), Some(Restart::Cold));
        let cold = s.model().solve().unwrap();
        assert!((sol.objective() - cold.objective()).abs() < 1e-7);
        // z (value 9) displaces x and y (values 3, 2) on r1 entirely.
        assert!((sol.value(z) - 4.0).abs() < 1e-7);
        let _ = (x, y);
    }

    #[test]
    fn retrofitting_old_column_invalidates_basis() {
        let (mut s, x, _y, _r1, r2) = toy();
        s.solve(&SolveOptions::default()).unwrap();
        assert!(s.has_basis());
        // x already exists and r2 already exists: the basis matrix changes.
        s.add_term(r2, x, 1.0);
        assert!(!s.has_basis());
        let sol = s.solve(&SolveOptions::default()).unwrap();
        assert_eq!(s.last_restart(), Some(Restart::Cold));
        let cold = s.model().solve().unwrap();
        assert!((sol.objective() - cold.objective()).abs() < 1e-7);
    }

    #[test]
    fn force_cold_ignores_basis() {
        let (mut s, _x, _y, r1, _r2) = toy();
        s.solve(&SolveOptions::default()).unwrap();
        s.set_rhs(r1, 3.0);
        let opts = SolveOptions { force_cold: true, ..Default::default() };
        s.solve(&opts).unwrap();
        assert_eq!(s.last_restart(), Some(Restart::Cold));
    }

    /// Every mutator, and an `append_with` that appends, makes the cached
    /// optimum stale; a solve makes the new one current.
    #[test]
    fn mutation_tracking_and_reset() {
        let (mut s, x, y, r1, _r2) = toy();
        assert!(s.cached_solution().is_none(), "nothing solved yet");
        type Mutator<'a> = (&'a str, &'a dyn Fn(&mut SolverSession));
        let mutators: [Mutator; 8] = [
            ("set_rhs", &|s| s.set_rhs(r1, 5.0)),
            ("set_bounds", &|s| s.set_bounds(x, 0.0, 3.0)),
            ("set_obj", &|s| s.set_obj(y, 2.5)),
            ("add_obj_offset", &|s| s.add_obj_offset(1.0)),
            ("add_var", &|s| {
                s.add_var("z", 0.0, 1.0, 0.0);
            }),
            ("add_row", &|s| {
                s.add_row("r3", x + y, Cmp::Le, 9.0);
            }),
            ("add_term", &|s| s.add_term(r1, x, 0.5)),
            ("append_with", &|s| {
                s.append_with(|m| m.add_var("w", 0.0, 1.0, 0.0));
            }),
        ];
        for (what, mutate) in mutators {
            s.solve(&SolveOptions::default()).unwrap();
            s.append_with(|_| ());
            assert!(s.cached_solution().is_some(), "{what}: an empty append is no mutation");
            mutate(&mut s);
            assert!(s.cached_solution().is_none(), "{what} kept the cached optimum");
        }
        let sol = s.solve(&SolveOptions::default()).unwrap();
        assert_eq!(s.cached_solution().map(Solution::values), Some(sol.values()));
    }

    #[test]
    fn infeasible_after_bound_fix_reported() {
        let (mut s, x, y, _r1, _r2) = toy();
        s.solve(&SolveOptions::default()).unwrap();
        // Force x + y >= 9 while x,y <= 4 each: infeasible.
        s.add_row("floor", x + y, Cmp::Ge, 9.0);
        s.set_bounds(x, 0.0, 4.0);
        s.set_bounds(y, 0.0, 4.0);
        let err = s.solve(&SolveOptions::default()).unwrap_err();
        assert!(matches!(err, SolveError::Infeasible { .. }), "{err}");
    }

    #[test]
    fn unchanged_resolve_is_a_cache_hit() {
        let (mut s, _x, _y, r1, _r2) = toy();
        let first = s.solve(&SolveOptions::default()).unwrap();
        let again = s.solve(&SolveOptions::default()).unwrap();
        // Bit-for-bit the same answer, zero additional simplex work.
        assert_eq!(first.values(), again.values());
        assert_eq!(first.duals(), again.duals());
        assert_eq!(s.stats().solves, 1);
        assert_eq!(s.stats().cache_hits, 1);
        // A mutation ends the cache's validity.
        s.set_rhs(r1, 5.0);
        s.solve(&SolveOptions::default()).unwrap();
        assert_eq!(s.stats().solves, 2);
        assert_eq!(s.stats().cache_hits, 1);
    }

    #[test]
    fn force_cold_bypasses_cache() {
        let (mut s, _x, _y, _r1, _r2) = toy();
        s.solve(&SolveOptions::default()).unwrap();
        let opts = SolveOptions { force_cold: true, ..Default::default() };
        s.solve(&opts).unwrap();
        assert_eq!(s.stats().cache_hits, 0);
        assert_eq!(s.stats().cold_starts, 2);
    }

    #[test]
    fn fix_at_cached_value_preserves_cache() {
        let (mut s, x, y, _r1, _r2) = toy();
        let sol = s.solve(&SolveOptions::default()).unwrap();
        // Pinning variables at their optimal values provably changes
        // nothing — the next solve is a pure cache hit.
        s.fix_at_value(x, sol.value(x));
        s.fix_at_value(y, sol.value(y));
        assert!(s.cached_solution().is_some());
        s.solve(&SolveOptions::default()).unwrap();
        assert_eq!(s.stats().cache_hits, 1);
        // Pinning off the cached value is a real bound mutation.
        s.fix_at_value(x, 1.0);
        assert!(s.cached_solution().is_none());
        let sol2 = s.solve(&SolveOptions::default()).unwrap();
        assert!((sol2.value(x) - 1.0).abs() < 1e-9);
        assert_eq!(s.stats().cache_hits, 1);
    }

    /// The surviving column-growth path: two columns appended into existing
    /// rows of a solved session re-solve warm to the optimum of a model that
    /// had them from the start, and count as one restricted-master round.
    #[test]
    fn generated_cols_enter_existing_rows_warm() {
        // Universe: columns worth 1, 2, 3, each taking one unit of a
        // capacity-2 row. The master starts with the worst; full optimum 5.
        let mut m = Model::new(Sense::Maximize);
        let x0 = m.add_var("x0", 0.0, 1.0, 1.0);
        let cap = m.add_row("cap", LinExpr::from(x0), Cmp::Le, 2.0);
        let mut full = m.clone();
        let mut s = SolverSession::new(m);
        let first = s.solve(&SolveOptions::default()).unwrap();
        assert!((first.objective() - 1.0).abs() < 1e-9);
        let requests: Vec<ColRequest> = [2.0, 3.0]
            .iter()
            .map(|&obj| ColRequest {
                name: format!("x{obj}"),
                lb: 0.0,
                ub: 1.0,
                obj,
                terms: vec![(cap, 1.0)],
            })
            .collect();
        for c in &requests {
            let v = full.add_var(&c.name, c.lb, c.ub, c.obj);
            full.add_term(cap, v, 1.0);
        }
        let added = s.add_generated_cols(requests);
        assert_eq!(added.len(), 2);
        let sol = s.solve(&SolveOptions::default()).unwrap();
        assert!(matches!(s.last_restart(), Some(Restart::WarmPrimal | Restart::WarmDual)));
        let fresh = full.solve().unwrap();
        assert!((sol.objective() - fresh.objective()).abs() < 1e-7);
        assert!((sol.objective() - 5.0).abs() < 1e-7, "{}", sol.objective());
        assert!(added.iter().all(|&v| (sol.value(v) - 1.0).abs() < 1e-7));
        assert_eq!((s.stats().columns_generated, s.stats().colgen_rounds), (2, 1));
        assert_eq!(s.stats().cold_starts, 1);
        // An empty batch is not a round.
        assert!(s.add_generated_cols(Vec::new()).is_empty());
        assert_eq!(s.stats().colgen_rounds, 1);
    }

    /// The toy solved cold, then warm after its first row moves, under
    /// `tuning`: the final objective's bits and the refactorizations of both
    /// solves.
    fn toy_under(tuning: SolverTuning) -> (u64, u64) {
        let (mut s, _x, _y, r1, _r2) = toy();
        let opts = SolveOptions { tuning, ..Default::default() };
        assert!((s.solve(&opts).unwrap().objective() - 12.0).abs() < 1e-7);
        s.set_rhs(r1, 7.0);
        let sol = s.solve(&opts).unwrap();
        assert!((sol.objective() - 18.0).abs() < 1e-7);
        (sol.objective().to_bits(), s.stats().refactors)
    }

    #[test]
    fn max_etas_overrides_refactor_cadence() {
        // A cadence of 1 refactorizes after every update: more often than
        // the default, and to the same optimum.
        let one = toy_under(SolverTuning { max_etas: 1, ..Default::default() });
        let default = toy_under(SolverTuning::default());
        assert!(one.1 > default.1, "cadence 1: {one:?}, default: {default:?}");
    }

    #[test]
    fn factor_counters_flow_into_session_stats() {
        let (mut s, _x, _y, _r1, _r2) = toy();
        s.solve(&SolveOptions::default()).unwrap();
        let st = s.stats();
        assert!(st.refactors >= 1, "cold solve refactorizes: {st:?}");
        assert!(st.basis_nnz >= 1 && st.factor_nnz >= st.basis_nnz, "{st:?}");
    }

    #[test]
    fn per_solve_factor_stats_sum_to_the_lifetime_counter() {
        // The factorization outlives every solve (it is the thread's), so a
        // solve must report only its own share. Twenty rounds, each a warm
        // re-solve after one appended row: the session's sums of the
        // per-solve stats equal what the one lifetime counter advanced by.
        // Uninterrupted, every round carries: its row borders the factors
        // and the refactorization cadence, not the solve count, sets how
        // often they are rebuilt.
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<Var> = (0..24).map(|j| m.add_var("x", 0.0, 10.0, 1.0 + j as f64)).collect();
        let mut s = SolverSession::new(m);
        let before = crate::simplex::lifetime_factor_stats();
        for next in 0..20 {
            let sol = s.solve(&SolveOptions::default()).unwrap();
            assert!(sol.value(vars[next]) > 1.0, "round {next} has nothing to cut");
            s.add_row("", vars[next] + 0.5 * vars[next + 2], Cmp::Le, 1.0);
        }
        s.solve(&SolveOptions::default()).unwrap();
        let life = crate::simplex::lifetime_factor_stats().since(before);
        let st = s.stats();
        assert_eq!(st.solves, 21, "{st:?}");
        assert_eq!(
            (
                st.refactors,
                st.basis_nnz,
                st.factor_nnz,
                st.ft_updates,
                st.pivot_rejections,
                st.bordered_rows
            ),
            (
                life.refactors,
                life.basis_nnz,
                life.factor_nnz,
                life.ft_updates,
                life.pivot_rejections,
                life.bordered_rows
            )
        );
        assert!(st.refactors < st.solves && st.ft_updates >= 20, "{st:?}");
        assert_eq!((st.carried, st.bordered_rows, st.terminal_refactors), (20, 20, 0), "{st:?}");
    }

    #[test]
    fn zero_cadence_and_zero_pricing_jobs_resolve_to_the_defaults() {
        // A zero cadence is `DEFAULT_MAX_ETAS` — same optimum, same
        // refactorization count — because `Factorization::set_limits` is the
        // one place that resolves it.
        let cadence = |max_etas| toy_under(SolverTuning { max_etas, ..Default::default() });
        assert_eq!(cadence(0), cadence(crate::simplex::basis::DEFAULT_MAX_ETAS));
        // Zero pricing workers run the serial path, and any worker count
        // reproduces it bitwise (the parallel layer reduces in section
        // order — DESIGN.md §19).
        let jobs = |pricing_jobs| toy_under(SolverTuning { pricing_jobs, ..Default::default() });
        assert_eq!(jobs(0), jobs(1));
        assert_eq!(jobs(0), jobs(8));
    }

    // --- resident simplex state: a session against a twin that rebuilds ------

    /// Deterministic xorshift64 stream.
    struct Gen(u64);

    impl Gen {
        fn unit(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }

        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * self.unit()
        }

        fn index(&mut self, n: usize) -> usize {
            (self.unit() * n as f64) as usize
        }

        fn chance(&mut self, p: f64) -> bool {
            self.unit() < p
        }
    }

    /// A small schedule-shaped LP: `jobs × steps` bounded flow variables, a
    /// demand row per job, a capacity row per step over a random subset of
    /// jobs, maximizing weighted flow. Always feasible (zero flow works).
    fn schedule_shaped(g: &mut Gen) -> Model {
        let (jobs, steps) = (2 + g.index(4), 2 + g.index(5));
        let mut m = Model::new(Sense::Maximize);
        let mut vars = Vec::new();
        for _ in 0..jobs {
            let weight = g.range(0.5, 3.0);
            vars.extend((0..steps).map(|_| m.add_var("x", 0.0, g.range(1.0, 6.0), weight)));
        }
        for j in 0..jobs {
            let e = LinExpr::from_terms((0..steps).map(|t| (1.0, vars[j * steps + t])));
            m.add_row("dem", e, Cmp::Le, g.range(1.0, 8.0));
        }
        for t in 0..steps {
            let picked = (0..jobs).filter(|_| g.chance(0.7)).map(|j| (1.0, vars[j * steps + t]));
            m.add_row("cap", LinExpr::from_terms(picked), Cmp::Le, g.range(1.0, 5.0));
        }
        m
    }

    /// One session mutation, replayable on several sessions.
    #[derive(Debug, Clone)]
    enum Op {
        AddVar {
            ub: f64,
            obj: f64,
        },
        /// A row over the listed variable indices.
        AddRow {
            vars: Vec<usize>,
            rhs: f64,
        },
        /// A coefficient between any row and any variable: old × old retrofits
        /// (and drops the basis), anything else is warm-safe.
        AddTerm {
            row: usize,
            var: usize,
            coef: f64,
        },
        SetBounds {
            var: usize,
            lb: f64,
            ub: f64,
        },
        /// Pin at this fraction of the cached value (1.0 keeps the cache).
        FixAtValue {
            var: usize,
            frac: f64,
        },
        /// `FixAtValue` with the value worked out ([`pinned`]).
        Pin {
            var: usize,
            at: f64,
        },
        SetRhs {
            row: usize,
            rhs: f64,
        },
        SetObj {
            var: usize,
            obj: f64,
        },
        /// A variable and its own row, added through `append_with`.
        Append {
            ub: f64,
            obj: f64,
            rhs: f64,
        },
        Invalidate,
    }

    /// `fresh` is the first variable added since the last solve (`nvars` when
    /// there is none): terms mostly go to fresh variables, the warm-safe case.
    fn random_op(g: &mut Gen, nvars: usize, nrows: usize, fresh: usize) -> Op {
        match g.index(16) {
            0 => Op::AddVar { ub: g.range(0.5, 4.0), obj: g.range(0.2, 3.0) },
            1 | 2 => Op::AddRow {
                vars: (0..nvars).filter(|_| g.chance(0.3)).collect(),
                rhs: g.range(1.0, 6.0),
            },
            3 | 4 => {
                let var = if fresh < nvars && g.chance(0.9) {
                    fresh + g.index(nvars - fresh)
                } else {
                    g.index(nvars)
                };
                Op::AddTerm { row: g.index(nrows), var, coef: g.range(0.5, 2.0) }
            }
            5 => {
                let lb = g.range(0.0, 0.5);
                Op::SetBounds { var: g.index(nvars), lb, ub: lb + g.range(0.0, 4.0) }
            }
            6 => Op::FixAtValue {
                var: g.index(nvars),
                frac: if g.chance(0.5) { 1.0 } else { g.unit() },
            },
            7 | 8 => Op::SetRhs { row: g.index(nrows), rhs: g.range(0.5, 7.0) },
            9 => Op::SetObj { var: g.index(nvars), obj: g.range(0.1, 4.0) },
            10 => {
                Op::Append { ub: g.range(0.5, 3.0), obj: g.range(0.5, 3.0), rhs: g.range(0.5, 4.0) }
            }
            11 => Op::Invalidate,
            _ => Op::AddVar { ub: g.range(0.5, 4.0), obj: g.range(0.2, 3.0) },
        }
    }

    /// `op` with a `FixAtValue` resolved against `s`'s cached solution, so
    /// that it replays the same on a session whose optimum is another vertex.
    fn pinned(op: &Op, s: &SolverSession) -> Op {
        match *op {
            Op::FixAtValue { var, frac } => {
                let v = Var::from_index(var);
                let at = s.cached_solution().map_or(0.0, |sol| sol.value(v) * frac);
                let (lb, ub) = s.model().bounds(v);
                Op::Pin { var, at: at.clamp(lb, ub) }
            }
            ref other => other.clone(),
        }
    }

    fn apply(op: &Op, s: &mut SolverSession) {
        let var = Var::from_index;
        match *op {
            Op::AddVar { ub, obj } => {
                s.add_var("v", 0.0, ub, obj);
            }
            Op::AddRow { ref vars, rhs } => {
                let e = LinExpr::from_terms(vars.iter().map(|&j| (1.0, var(j))));
                s.add_row("r", e, Cmp::Le, rhs);
            }
            Op::AddTerm { row, var: j, coef } => s.add_term(RowId::from_index(row), var(j), coef),
            Op::SetBounds { var: j, lb, ub } => s.set_bounds(var(j), lb, ub),
            Op::FixAtValue { .. } => apply(&pinned(op, s), s),
            Op::Pin { var: j, at } => s.fix_at_value(var(j), at),
            Op::SetRhs { row, rhs } => s.set_rhs(RowId::from_index(row), rhs),
            Op::SetObj { var: j, obj } => s.set_obj(var(j), obj),
            Op::Append { ub, obj, rhs } => s.append_with(|m| {
                let v = m.add_var("a", 0.0, ub, obj);
                m.add_row("ar", 1.0 * v, Cmp::Le, rhs);
            }),
            Op::Invalidate => s.invalidate(),
        }
    }

    /// Everything a solve reports, bit for bit (errors by their message), and
    /// its ledger.
    fn fingerprint(
        s: &mut SolverSession,
        opts: &SolveOptions,
    ) -> Result<(Vec<u64>, SessionStats), String> {
        let sol = s.solve(opts).map_err(|e| e.to_string())?;
        let mut bits = vec![sol.objective().to_bits()];
        bits.extend(sol.values().iter().map(|v| v.to_bits()));
        bits.extend(sol.duals().iter().map(|v| v.to_bits()));
        bits.extend(
            (0..sol.values().len()).map(|j| sol.reduced_cost(Var::from_index(j)).to_bits()),
        );
        bits.push(s.last_restart().map_or(9, |r| r as u64));
        Ok((bits, sol.stats()))
    }

    /// The resident standard form is an optimization only: a session that
    /// keeps it must report bitwise what a twin reports that is driven through
    /// the same mutations but rebuilds its standard form before every solve —
    /// and so must a clone taken mid-run, which carries the resident state
    /// with it. (Under debug assertions every sync additionally checks the
    /// resident problem against a fresh build.)
    #[test]
    fn resident_session_matches_rebuilding_twin_bitwise() {
        let opts = SolveOptions::default();
        let cold = SolveOptions { force_cold: true, ..SolveOptions::default() };
        let (mut solves, mut warm) = (0u32, 0u32);
        for seed in 0..60u64 {
            let mut g = Gen((0x5EED ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let base = schedule_shaped(&mut g);
            let mut resident = SolverSession::new(base.clone());
            let mut twin = SolverSession::new(base);
            let mut clone: Option<SolverSession> = None;
            for batch in 0..10 {
                let fresh = resident.model().num_vars();
                for _ in 0..1 + g.index(4) {
                    let m = resident.model();
                    let op = random_op(&mut g, m.num_vars(), m.num_rows(), fresh);
                    for s in [&mut resident, &mut twin].into_iter().chain(clone.as_mut()) {
                        apply(&op, s);
                    }
                }
                let opts = if g.chance(0.05) { &cold } else { &opts };
                twin.drop_resident();
                let want = fingerprint(&mut twin, opts);
                assert_eq!(fingerprint(&mut resident, opts), want, "seed {seed} batch {batch}");
                if let Some(c) = clone.as_mut() {
                    assert_eq!(fingerprint(c, opts), want, "seed {seed} batch {batch}: clone");
                }
                if batch == 4 {
                    clone = Some(resident.clone());
                }
                solves += 1;
                warm += (want.is_ok() && resident.last_restart() != Some(Restart::Cold)) as u32;
            }
        }
        assert!(warm * 2 > solves, "only {warm} of {solves} solves restarted warm");
    }

    /// One ledger per solve: a session's stats are the merge of the ledgers
    /// of the solves that ran, each counting one solve and one restart; a
    /// cache hit hands back the cached optimum with its original ledger and
    /// counts only itself; a failed solve counts nothing.
    #[test]
    fn solution_ledgers_sum_to_the_session() {
        let opts = SolveOptions::default();
        let (mut ran, mut hits) = (0u32, 0u32);
        for seed in 0..40u64 {
            let mut g = Gen((0x1ED6 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let mut s = SolverSession::new(schedule_shaped(&mut g));
            let mut sum = SessionStats::default();
            for batch in 0..10 {
                let fresh = s.model().num_vars();
                // No mutation at all a quarter of the time: a cache hit.
                for _ in 0..g.index(4) {
                    let m = s.model();
                    let op = random_op(&mut g, m.num_vars(), m.num_rows(), fresh);
                    apply(&op, &mut s);
                }
                let what = format!("seed {seed} batch {batch}");
                let cached = s.cached_solution().cloned();
                match (s.solve(&opts), cached) {
                    (Ok(sol), Some(cached)) => {
                        assert_eq!(sol.values(), cached.values(), "{what}");
                        assert_eq!(sol.stats(), cached.stats(), "{what}: a hit keeps its ledger");
                        sum.cache_hits += 1;
                        hits += 1;
                    }
                    (Ok(sol), None) => {
                        let ledger = sol.stats();
                        let restarts = [ledger.cold_starts, ledger.warm_primal, ledger.warm_dual];
                        assert_eq!(ledger.solves, 1, "{what}");
                        assert_eq!(restarts.iter().sum::<u64>(), 1, "{what}: {restarts:?}");
                        sum.merge(ledger);
                        ran += 1;
                    }
                    (Err(_), _) => {}
                }
                let st = s.stats();
                assert_eq!(st, sum, "{what}");
                let timing = |t: &SessionStats| (t.pricing_serial_nanos, t.pricing_par_nanos);
                assert_eq!(timing(&st), timing(&sum), "{what}");
            }
        }
        assert!(ran > 200 && hits > 40, "{ran} solves ran, {hits} cache hits");
        let cold = schedule_shaped(&mut Gen(7)).solve().unwrap().stats();
        assert_eq!((cold.solves, cold.cold_starts, cold.warm_primal + cold.warm_dual), (1, 1, 0));
    }

    /// The three counters of a solve's start and end, the degenerate dual
    /// pivots and the BTRANs are merged, compared and printed like their
    /// neighbours.
    #[test]
    fn carry_counters_are_merged_compared_and_rendered() {
        let st = SessionStats {
            carried: 7,
            bordered_rows: 11,
            terminal_refactors: 3,
            dual_degenerate: 5,
            btrans: 13,
            ..SessionStats::default()
        };
        let rows = st.rows();
        let row = |label: &str| rows.iter().find(|(l, _)| l == label).map(|(_, v)| v.as_str());
        assert_eq!(row("lp carried solves"), Some("7"));
        assert_eq!(row("lp bordered rows"), Some("11"));
        assert_eq!(row("lp terminal refactors"), Some("3"));
        assert_eq!(row("lp degenerate dual pivots"), Some("5"));
        assert_eq!(row("lp btrans"), Some("13"));
        assert_eq!(rows.len(), 24);
        let mut twice = st;
        twice.merge(st);
        assert_eq!((twice.carried, twice.bordered_rows, twice.terminal_refactors), (14, 22, 6));
        assert_eq!((twice.dual_degenerate, twice.btrans), (10, 26));
        for one in [
            SessionStats { dual_degenerate: 1, ..SessionStats::default() },
            SessionStats { btrans: 1, ..SessionStats::default() },
            SessionStats { carried: 1, ..SessionStats::default() },
            SessionStats { bordered_rows: 1, ..SessionStats::default() },
            SessionStats { terminal_refactors: 1, ..SessionStats::default() },
        ] {
            assert_ne!(one, SessionStats::default());
        }
    }

    // --- carried simplex state: continue in place, or reload ------------------

    /// Carrying is an optimization only. A session that solves uninterrupted
    /// continues, round after round, from the state its last solve left in
    /// the thread's workspace; its twin is driven through the same mutations
    /// but has a decoy session solve before each of its solves, so it finds
    /// the workspace owned by someone else and reloads its saved basis every
    /// time — the parent's path. Both must classify the restart the same way
    /// and return certified optima of equal value; not the same bits, because
    /// a degenerate LP has many optimal vertices.
    #[test]
    fn carrying_session_matches_reloading_twin() {
        use crate::validate::check_optimal;
        let opts = SolveOptions::default();
        let cold = SolveOptions { force_cold: true, ..SolveOptions::default() };
        let (mut eligible, mut carried, mut warm) = (0u64, 0u64, 0u64);
        for seed in 0..60u64 {
            let mut g = Gen((0xCA44 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let base = schedule_shaped(&mut g);
            // The uninterrupted run, recorded.
            let mut alone = SolverSession::new(base.clone());
            let mut script = Vec::new();
            let mut prev_ok = false;
            for _ in 0..10 {
                let (fresh, known) = (alone.model().num_vars(), alone.solved_vars);
                let mut old_cost_moved = false;
                let ops: Vec<Op> = (0..1 + g.index(4))
                    .map(|_| {
                        let m = alone.model();
                        let op =
                            pinned(&random_op(&mut g, m.num_vars(), m.num_rows(), fresh), &alone);
                        old_cost_moved |= matches!(op, Op::SetObj { var, .. } if var < known);
                        apply(&op, &mut alone);
                        op
                    })
                    .collect();
                let force_cold = g.chance(0.05);
                let before = alone.stats();
                let result = alone.solve(if force_cold { &cold } else { &opts });
                let did_carry = alone.stats().carried - before.carried == 1;
                // (A clean session answers from its cache and runs nothing.)
                let ran_warm = alone.stats().cold_starts == before.cold_starts
                    && alone.stats().solves - before.solves == 1;
                let may_carry = prev_ok && ran_warm && !old_cost_moved;
                assert!(may_carry || !did_carry, "seed {seed}: carried a solve that must reload");
                eligible += may_carry as u64;
                carried += did_carry as u64;
                prev_ok = result.is_ok();
                script.push((ops, force_cold, result, alone.last_restart()));
            }
            // The twin, interrupted before every solve.
            let mut twin = SolverSession::new(base.clone());
            let mut decoy = SolverSession::new(base);
            for (batch, (ops, force_cold, want, restart)) in script.into_iter().enumerate() {
                ops.iter().for_each(|op| apply(op, &mut twin));
                decoy.solve(&cold).unwrap();
                let got = twin.solve(if force_cold { &cold } else { &opts });
                let what = format!("seed {seed} batch {batch}");
                assert_eq!(got.is_ok(), want.is_ok(), "{what}: {got:?} vs {want:?}");
                let (Ok(got), Ok(want)) = (got, want) else { continue };
                assert_eq!(twin.last_restart(), restart, "{what}");
                let tol = 1e-9 * (1.0 + want.objective().abs());
                assert!((got.objective() - want.objective()).abs() <= tol, "{what}");
                for sol in [&got, &want] {
                    let bad = check_optimal(twin.model(), sol, 1e-7);
                    assert!(bad.is_empty(), "{what}: {bad:?}");
                }
                warm += (restart != Some(Restart::Cold)) as u64;
            }
            assert_eq!(twin.stats().carried, 0, "seed {seed}: the twin never owns the workspace");
        }
        assert!(
            warm > 300 && eligible * 10 > warm * 8,
            "{eligible} of {warm} warm solves eligible"
        );
        assert_eq!(carried, eligible, "a solve that may continue in place does");
    }

    /// The stamp rules, one each: what makes the next solve reload.
    #[test]
    fn only_the_last_solver_on_a_thread_carries() {
        let opts = SolveOptions::default();
        let carried = |s: &mut SolverSession, opts: &SolveOptions, rhs: f64| {
            let before = s.stats().carried;
            s.set_rhs(RowId::from_index(0), rhs);
            let obj = s.solve(opts).unwrap().objective();
            (s.stats().carried - before == 1, obj)
        };
        let (mut s, ..) = toy();
        s.solve(&opts).unwrap();
        assert!(carried(&mut s, &opts, 7.0).0, "uninterrupted: continues in place");

        // A clone and its original hold the same stamp: whichever solves first
        // finds the workspace its own, the other finds it taken.
        let mut twin = s.clone();
        let (first, obj) = carried(&mut twin, &opts, 3.0);
        let (second, obj2) = carried(&mut s, &opts, 3.0);
        assert!(first && !second, "clone {first}, original {second}");
        assert_eq!(obj, obj2);

        // Another thread has another workspace.
        std::thread::scope(|scope| {
            let moved = scope.spawn(|| carried(&mut s, &opts, 5.0).0);
            assert!(!moved.join().unwrap(), "solved on a new thread");
        });
        assert!(!carried(&mut s, &opts, 4.0).0, "and back: this workspace was the clone's since");
        assert!(carried(&mut s, &opts, 4.5).0);

        // A solve that fails owns nothing.
        let x = Var::from_index(0);
        let floor = s.add_row("floor", 1.0 * x, Cmp::Ge, 50.0);
        assert!(s.solve(&opts).is_err());
        s.set_rhs(floor, 0.0);
        assert!(!carried(&mut s, &opts, 4.0).0, "after an error");

        // Neither does a cold one carry, asked for or forced by `invalidate`.
        let cold = SolveOptions { force_cold: true, ..SolveOptions::default() };
        assert!(!carried(&mut s, &cold, 5.0).0, "force_cold");
        s.invalidate();
        assert!(!carried(&mut s, &opts, 6.0).0, "invalidate");
        assert!(carried(&mut s, &opts, 5.0).0);
    }
}

//! Persistent solver sessions with warm-started re-optimization.
//!
//! A [`SolverSession`] owns a [`Model`] together with the stamp of its last
//! solve. The model is mutated in place through [`SolverSession::model_mut`]:
//! each of its mutators logs what the next solve must re-read and voids the
//! cached optimum by itself. A re-solve does one of two things:
//!
//! * it **carries** when the thread's workspace still holds the terminal
//!   state of this session's last solve — the stamp matches: the session
//!   solved last on this thread, and that solve succeeded. It continues in
//!   place from that state, the model's appended rows bordered onto the
//!   factors, and pays for what changed since rather than for the whole
//!   LP: the model logs every mutation of a column or row that solve
//!   knew, and the carried start updates only the appended and logged
//!   entries of the standard form, the bounds and the rest states, and
//!   screens only those columns for dual infeasibility (DESIGN.md §23);
//! * otherwise it runs **cold**: the first solve, after
//!   [`SolverSession::invalidate`], a retrofitted old coefficient or a model
//!   replaced whole, after a failed solve, after another solve on this
//!   thread (an interleaved session, or the clone of this one that solved
//!   first), and on a thread the session moved to. A carried attempt that
//!   errs also ends cold.
//!
//! A carried solve picks the cheapest restart that is still correct:
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
//! Either way a session solve returns the same certified optimum a fresh
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
//! // Capacity changes re-optimize from the last basis, not from scratch.
//! session.model_mut().set_rhs(cap, 7.0);
//! let second = session.solve(&SolveOptions::default()).unwrap();
//! assert!((second.objective() - 18.0).abs() < 1e-7);
//! assert_eq!(session.last_restart(), Some(Restart::WarmDual));
//! ```

use crate::expr::Var;
use crate::model::Model;
use crate::simplex::{solve_model_session, Problem, Restart, SimplexOptions, SolverTuning};
use crate::solution::{Solution, SolveError};
use crate::stats::SessionStats;

/// Options for one [`SolverSession::solve`] call.
#[derive(Debug, Clone, Default)]
pub struct SolveOptions {
    /// Tolerances and limits; `None` means [`SimplexOptions::default`].
    pub simplex: Option<SimplexOptions>,
    /// Refactorization cadence; the all-zero default is the default
    /// kernel.
    pub tuning: SolverTuning,
}

impl SolveOptions {
    /// Options that cap the simplex at `max` iterations (fault injection /
    /// degraded-compute modelling, §4.4). The solver returns
    /// [`SolveError::IterationLimit`] instead of running to optimality when
    /// the cap is hit, so callers can degrade gracefully. A cap is at least
    /// one pivot: `max = 0` caps at one, since a `max_iterations` of `0`
    /// would select the automatic limit instead.
    pub fn with_iteration_limit(max: u64) -> Self {
        let max_iterations = max.max(1);
        SolveOptions {
            simplex: Some(SimplexOptions { max_iterations, ..SimplexOptions::default() }),
            ..SolveOptions::default()
        }
    }
}

/// A [`Model`] plus what its last solve left: the stamp of that solve and
/// the solver's standard form of the model. (The basis, its factorization
/// and the solver's scratch buffers are resident once per thread; the
/// thread's last solve leaves its terminal state there under its stamp, and
/// the session that ran it continues from it if it is also the next to
/// solve.)
///
/// Created with [`SolverSession::new`]; see the [module docs](self) for the
/// restart rules. The session holds only solve policy: the model logs every
/// mutation of a column or row the last solve knew (one the resident
/// standard form holds), and a carried re-solve brings into the standard
/// form and the carried bounds and rest states only what was appended and
/// what that log names (DESIGN.md §23), and writes the optimum it lends
/// out over the last one, in its buffers.
/// A clone holds the same stamp: of a session and its clone, whichever
/// solves first on the stamp's thread carries, and the other runs cold —
/// the same certified optimum, not the same bits (DESIGN.md §23).
#[derive(Debug, Clone)]
pub struct SolverSession {
    model: Model,
    /// Stamp of the last solve, `0` for none: the first solve, a failed one,
    /// or [`SolverSession::invalidate`]. The next solve carries exactly when
    /// the thread's workspace still holds the terminal state under it.
    stamp: u64,
    /// Standard form of `model`, kept between solves and synced rather
    /// than rebuilt (DESIGN.md §20). Valid only together with `stamp`: a
    /// solve that does not carry rebuilds it. While a stamp is held its
    /// sizes are the model's at the last solve: columns and rows past them
    /// were appended afterwards and are never referenced by its basis.
    resident: Problem,
    /// The merged ledgers of the solves that ran, plus the session's own
    /// counters (cache hits).
    stats: SessionStats,
    last_restart: Option<Restart>,
    /// The last certified optimum, overwritten in place by each solve that
    /// succeeds. Served by [`SolverSession::solve`] until the model moves,
    /// and the reference point for [`SolverSession::fix_at_value`].
    solution: Solution,
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
    /// Wrap a model in a fresh session (no stamp; the first solve is cold).
    /// The model's log starts empty, with no watermark.
    pub fn new(mut model: Model) -> Self {
        model.log.reset();
        SolverSession {
            model,
            stamp: 0,
            resident: Problem::default(),
            stats: SessionStats::default(),
            last_restart: None,
            solution: Solution::empty(),
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The wrapped model, to mutate: each of its mutators logs what the next
    /// solve must re-read and voids the cached optimum itself. A model
    /// assigned whole is solved cold.
    pub fn model_mut(&mut self) -> &mut Model {
        &mut self.model
    }

    /// How the most recent solve restarted, if any solve has run.
    pub fn last_restart(&self) -> Option<Restart> {
        self.last_restart
    }

    /// Lifetime counters: the merge of the ledgers ([`Solution::stats`]) of
    /// the solves that ran, plus cache hits.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Drop the stamp; the next solve runs cold. Also voids the cached
    /// solution, so the next solve really does run the simplex, and drops
    /// the resident standard form, which is only meaningful with the stamp.
    pub fn invalidate(&mut self) {
        self.stamp = 0;
        self.resident = Problem::default();
        self.model.log.reset();
    }

    /// The certified optimum of the current model state, if the model
    /// logged no mutation since it was computed.
    pub fn cached_solution(&self) -> Option<&Solution> {
        (!self.model.log.stale && self.model.log.stamp == self.stamp).then_some(&self.solution)
    }

    /// Pin `v` to the single value `x` (bounds `[x, x]`), *without* voiding
    /// the cached optimum when the pin provably preserves it: if the cached
    /// solution already has `v = x` (bitwise) and `x` lies inside the old
    /// bounds, fixing the variable there shrinks the feasible set while
    /// keeping the incumbent feasible — the cached primal/dual pair stays
    /// optimal (a fixed column's reduced cost is unconstrained). This is
    /// what lets a schedule session freeze already-executed timesteps at
    /// their planned values every step without forcing an LP re-solve when
    /// nothing actually moved.
    pub fn fix_at_value(&mut self, v: Var, x: f64) {
        let (lb, ub) = self.model.bounds(v);
        // (A variable newer than the cached solution has no value in it.)
        let cached = self.solution.values.get(v.index());
        let keeps = (lb == x && ub == x) || (lb <= x && x <= ub && cached == Some(&x));
        let stale = self.model.log.stale;
        self.model.set_bounds(v, x, x);
        self.model.log.stale = stale || !keeps;
    }

    /// Re-optimize: carry the last solve's terminal state when this
    /// thread still holds it, or run cold (the [module docs](self)); lend
    /// out the optimum, which the session holds until its next solve.
    ///
    /// The restart that actually ran is readable via
    /// [`SolverSession::last_restart`]; the result is always the certified
    /// optimum of the current model (a carried attempt that fails falls back
    /// to a cold solve internally).
    pub fn solve(&mut self, opts: &SolveOptions) -> Result<&Solution, SolveError> {
        // Nothing mutated since the last certified optimum: the cached
        // solution *is* the answer — skip the simplex entirely. (`invalidate`
        // voids it, so that a real cold solve follows.)
        if self.cached_solution().is_some() {
            self.stats.cache_hits += 1;
            return Ok(&self.solution);
        }
        // A retrofitted old coefficient or a model replaced whole: no carry.
        if self.model.log.stamp != self.stamp {
            self.invalidate();
        }
        let simplex = opts.simplex.clone().unwrap_or_default();
        // The log's buffers are lent to the solve and go back to the model
        // cleared: read by this solve, or void, since a solve that fails
        // leaves no stamp (it is taken) and the next one runs cold.
        let mut changes = std::mem::take(&mut self.model.log.changes);
        let result = solve_model_session(
            &self.model,
            &simplex,
            opts.tuning,
            std::mem::take(&mut self.stamp),
            &mut changes,
            &mut self.resident,
            &mut self.solution,
        );
        let log = &mut self.model.log;
        log.changes = changes;
        log.reset();
        let (stamp, restart) = result?;
        (log.stamp, log.seen, log.stale) = (stamp, (self.resident.m, self.resident.nstruct), false);
        self.stamp = stamp;
        self.stats.merge(self.solution.stats);
        self.last_restart = Some(restart);
        Ok(&self.solution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmp, LinExpr, RowId, Sense};

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
        s.model_mut().set_rhs(r1, 7.0);
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
        s.model_mut().set_rhs(r1, 3.0);
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
        s.model_mut().set_obj(y, 10.0);
        let sol = s.solve(&SolveOptions::default()).unwrap().clone();
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
        s.model_mut().add_row("cut", 1.0 * x, Cmp::Le, 2.0);
        let sol2 = s.solve(&SolveOptions::default()).unwrap().clone();
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
        let z = s.model_mut().add_var("z", 0.0, f64::INFINITY, 9.0);
        // It must participate in an existing row to be bounded — rebuild the
        // row relationship via a fresh row.
        s.model_mut().add_row("zcap", 1.0 * z, Cmp::Le, 1.0);
        let sol = s.solve(&SolveOptions::default()).unwrap().clone();
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
        // the last basis stays valid and the re-solve is warm.
        let z = s.model_mut().add_var("z", 0.0, f64::INFINITY, 9.0);
        s.model_mut().add_term(r1, z, 1.0);
        let sol = s.solve(&SolveOptions::default()).unwrap().clone();
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
        assert_eq!(s.model().log.stamp, s.stamp);
        // x already exists and r2 already exists: the basis matrix changes.
        s.model_mut().add_term(r2, x, 1.0);
        assert_eq!(s.model().log.stamp, 0);
        let sol = s.solve(&SolveOptions::default()).unwrap().clone();
        assert_eq!(s.last_restart(), Some(Restart::Cold));
        let cold = s.model().solve().unwrap();
        assert!((sol.objective() - cold.objective()).abs() < 1e-7);
    }

    /// `invalidate` is the one way to force a cold solve: a mutation the
    /// last basis would have absorbed warm still runs cold after it.
    #[test]
    fn force_cold_ignores_basis() {
        let (mut s, _x, _y, r1, _r2) = toy();
        s.solve(&SolveOptions::default()).unwrap();
        s.model_mut().set_rhs(r1, 3.0);
        s.invalidate();
        s.solve(&SolveOptions::default()).unwrap();
        assert_eq!(s.last_restart(), Some(Restart::Cold));
    }

    /// Every mutator of the model makes the cached optimum stale; a solve
    /// makes the new one current.
    #[test]
    fn mutation_tracking_and_reset() {
        let (mut s, x, y, r1, _r2) = toy();
        assert!(s.cached_solution().is_none(), "nothing solved yet");
        type Mutator<'a> = (&'a str, &'a dyn Fn(&mut Model));
        let mutators: [Mutator; 8] = [
            ("set_rhs", &|m| m.set_rhs(r1, 5.0)),
            ("set_bounds", &|m| m.set_bounds(x, 0.0, 3.0)),
            ("set_obj", &|m| m.set_obj(y, 2.5)),
            ("add_var", &|m| {
                m.add_var("z", 0.0, 1.0, 0.0);
            }),
            ("add_free", &|m| {
                m.add_free("w", 0.0);
            }),
            ("add_row", &|m| {
                m.add_row("r3", x + y, Cmp::Le, 9.0);
            }),
            ("add_term", &|m| m.add_term(r1, x, 0.5)),
            ("add_obj_offset", &|m| m.add_obj_offset(1.0)),
        ];
        for (what, mutate) in mutators {
            s.solve(&SolveOptions::default()).unwrap();
            let _ = s.model_mut();
            assert!(s.cached_solution().is_some(), "{what}: borrowing the model is no mutation");
            mutate(s.model_mut());
            assert!(s.cached_solution().is_none(), "{what} kept the cached optimum");
        }
        let sol: *const Solution = s.solve(&SolveOptions::default()).unwrap();
        // What the solve lends is the optimum the session holds, not a copy.
        assert!(s.cached_solution().is_some_and(|cached| std::ptr::eq(cached, sol)));
    }

    #[test]
    fn infeasible_after_bound_fix_reported() {
        let (mut s, x, y, _r1, _r2) = toy();
        s.solve(&SolveOptions::default()).unwrap();
        // Force x + y >= 9 while x,y <= 4 each: infeasible.
        s.model_mut().add_row("floor", x + y, Cmp::Ge, 9.0);
        s.model_mut().set_bounds(x, 0.0, 4.0);
        s.model_mut().set_bounds(y, 0.0, 4.0);
        let err = s.solve(&SolveOptions::default()).unwrap_err();
        assert!(matches!(err, SolveError::Infeasible { .. }), "{err}");
    }

    #[test]
    fn unchanged_resolve_is_a_cache_hit() {
        let (mut s, _x, _y, r1, _r2) = toy();
        let first = s.solve(&SolveOptions::default()).unwrap().clone();
        let again = s.solve(&SolveOptions::default()).unwrap();
        // Bit-for-bit the same answer, zero additional simplex work.
        assert_eq!(first.values(), again.values());
        assert_eq!(first.duals(), again.duals());
        assert_eq!(s.stats().solves, 1);
        assert_eq!(s.stats().cache_hits, 1);
        // A mutation ends the cache's validity.
        s.model_mut().set_rhs(r1, 5.0);
        s.solve(&SolveOptions::default()).unwrap();
        assert_eq!(s.stats().solves, 2);
        assert_eq!(s.stats().cache_hits, 1);
    }

    /// With nothing mutated, `invalidate` still runs the simplex, past the
    /// cached optimum.
    #[test]
    fn force_cold_bypasses_cache() {
        let (mut s, _x, _y, _r1, _r2) = toy();
        s.solve(&SolveOptions::default()).unwrap();
        s.invalidate();
        s.solve(&SolveOptions::default()).unwrap();
        assert_eq!(s.last_restart(), Some(Restart::Cold));
        assert_eq!(s.stats().cache_hits, 0);
        assert_eq!(s.stats().cold_starts, 2);
    }

    #[test]
    fn fix_at_cached_value_preserves_cache() {
        let (mut s, x, y, _r1, _r2) = toy();
        let sol = s.solve(&SolveOptions::default()).unwrap().clone();
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

    /// Column growth: two columns appended into existing rows of a solved
    /// session (as `ScheduleSession::add_job` does mid-run) re-solve warm
    /// to the optimum of a model that had them from the start.
    #[test]
    fn generated_cols_enter_existing_rows_warm() {
        // Universe: columns worth 1, 2, 3, each taking one unit of a
        // capacity-2 row. The session starts with the worst; full optimum 5.
        let mut m = Model::new(Sense::Maximize);
        let x0 = m.add_var("x0", 0.0, 1.0, 1.0);
        let cap = m.add_row("cap", LinExpr::from(x0), Cmp::Le, 2.0);
        let mut full = m.clone();
        let mut s = SolverSession::new(m);
        let first = s.solve(&SolveOptions::default()).unwrap();
        assert!((first.objective() - 1.0).abs() < 1e-9);
        let mut added = Vec::new();
        for obj in [2.0, 3.0] {
            let v = full.add_var(&format!("x{obj}"), 0.0, 1.0, obj);
            full.add_term(cap, v, 1.0);
            let v = s.model_mut().add_var(&format!("x{obj}"), 0.0, 1.0, obj);
            s.model_mut().add_term(cap, v, 1.0);
            added.push(v);
        }
        let sol = s.solve(&SolveOptions::default()).unwrap().clone();
        assert!(matches!(s.last_restart(), Some(Restart::WarmPrimal | Restart::WarmDual)));
        let fresh = full.solve().unwrap();
        assert!((sol.objective() - fresh.objective()).abs() < 1e-7);
        assert!((sol.objective() - 5.0).abs() < 1e-7, "{}", sol.objective());
        assert!(added.iter().all(|&v| (sol.value(v) - 1.0).abs() < 1e-7));
        assert_eq!(s.stats().cold_starts, 1);
        // Inert pins: nothing counts into them since column generation went.
        assert_eq!((s.stats().columns_generated, s.stats().colgen_rounds), (0, 0));
    }

    /// The toy solved cold, then warm after its first row moves, under
    /// `tuning`: the final objective's bits and the counters of both solves.
    fn toy_under(tuning: SolverTuning) -> (u64, SessionStats) {
        let (mut s, _x, _y, r1, _r2) = toy();
        let opts = SolveOptions { tuning, ..Default::default() };
        assert!((s.solve(&opts).unwrap().objective() - 12.0).abs() < 1e-7);
        s.model_mut().set_rhs(r1, 7.0);
        let sol = s.solve(&opts).unwrap();
        assert!((sol.objective() - 18.0).abs() < 1e-7);
        (sol.objective().to_bits(), s.stats())
    }

    #[test]
    fn max_etas_overrides_refactor_cadence() {
        // A cadence of 1 refactorizes after every update: more often than
        // the default, and to the same optimum.
        let one = toy_under(SolverTuning { max_etas: 1, ..Default::default() });
        let default = toy_under(SolverTuning::default());
        assert!(one.1.refactors > default.1.refactors, "cadence 1: {one:?}, default: {default:?}");
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
            s.model_mut().add_row("", vars[next] + 0.5 * vars[next + 2], Cmp::Le, 1.0);
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
        let warm = st.warm_primal + st.warm_dual;
        assert_eq!((warm, st.bordered_rows, st.terminal_refactors), (20, 20, 0), "{st:?}");
    }

    #[test]
    fn zero_cadence_and_zero_pricing_jobs_resolve_to_the_defaults() {
        // A zero cadence is `DEFAULT_MAX_ETAS` — same optimum, same
        // refactorization count — because `Factorization::set_limits` is the
        // one place that resolves it.
        let cadence = |max_etas| toy_under(SolverTuning { max_etas, ..Default::default() });
        assert_eq!(cadence(0), cadence(crate::simplex::basis::DEFAULT_MAX_ETAS));
        // `pricing_jobs` is inert: every worker count runs the one serial
        // pricing path, and the parallel-pricing counters stay at 0.
        let jobs = |pricing_jobs| toy_under(SolverTuning { pricing_jobs, ..Default::default() });
        assert_eq!(jobs(0), jobs(1));
        assert_eq!(jobs(0), jobs(8));
        for pricing_jobs in [0, 1, 8] {
            let (_, st) = jobs(pricing_jobs);
            let par = (st.pricing_par_sections, st.pricing_par_steals, st.pricing_par_nanos);
            assert_eq!(par, (0, 0, 0), "pricing_jobs={pricing_jobs}");
        }
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
        /// A variable and its own row.
        Append {
            ub: f64,
            obj: f64,
            rhs: f64,
        },
        AddObjOffset {
            c: f64,
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
            12 => Op::AddObjOffset { c: g.range(-2.0, 2.0) },
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
                s.model_mut().add_var("v", 0.0, ub, obj);
            }
            Op::AddRow { ref vars, rhs } => {
                let e = LinExpr::from_terms(vars.iter().map(|&j| (1.0, var(j))));
                s.model_mut().add_row("r", e, Cmp::Le, rhs);
            }
            Op::AddTerm { row, var: j, coef } => {
                s.model_mut().add_term(RowId::from_index(row), var(j), coef)
            }
            Op::SetBounds { var: j, lb, ub } => s.model_mut().set_bounds(var(j), lb, ub),
            Op::FixAtValue { .. } => apply(&pinned(op, s), s),
            Op::Pin { var: j, at } => s.fix_at_value(var(j), at),
            Op::SetRhs { row, rhs } => s.model_mut().set_rhs(RowId::from_index(row), rhs),
            Op::SetObj { var: j, obj } => s.model_mut().set_obj(var(j), obj),
            Op::Append { ub, obj, rhs } => {
                let m = s.model_mut();
                let v = m.add_var("a", 0.0, ub, obj);
                m.add_row("ar", 1.0 * v, Cmp::Le, rhs);
            }
            Op::AddObjOffset { c } => s.model_mut().add_obj_offset(c),
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
        let stats = sol.stats();
        bits.push(s.last_restart().map_or(9, |r| r as u64));
        Ok((bits, stats))
    }

    /// The resident standard form is an optimization only: a session that
    /// keeps it must report bitwise what a twin reports that is driven through
    /// the same mutations but rebuilds its standard form before every solve
    /// (the model's log keeps its own watermark) — and so must a clone
    /// taken mid-run, which carries the resident state with it. Each runs on
    /// a thread of its own, so each carries; the clone takes over from its
    /// original on the original's thread. (Under debug assertions every sync
    /// additionally checks the resident problem against a fresh build.)
    #[test]
    fn resident_session_matches_rebuilding_twin_bitwise() {
        #[derive(Clone, Copy)]
        enum Keep {
            Resident,
            Rebuild,
            CloneAtBatch4,
        }
        let opts = SolveOptions::default();
        let (mut solves, mut warm) = (0u32, 0u32);
        for seed in 0..60u64 {
            let mut g = Gen((0x5EED ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let base = schedule_shaped(&mut g);
            // The mutations of ten batches, drawn against the model they grow
            // (`shape` never solves: it only tracks the dimensions).
            let mut shape = SolverSession::new(base.clone());
            let script: Vec<Vec<Op>> = (0..10)
                .map(|_| {
                    let fresh = shape.model().num_vars();
                    (0..1 + g.index(4))
                        .map(|_| {
                            let m = shape.model();
                            let op = random_op(&mut g, m.num_vars(), m.num_rows(), fresh);
                            apply(&op, &mut shape);
                            op
                        })
                        .collect()
                })
                .collect();
            let run = |keep: Keep| {
                let mut s = SolverSession::new(base.clone());
                let mut out = Vec::new();
                for (batch, ops) in script.iter().enumerate() {
                    ops.iter().for_each(|op| apply(op, &mut s));
                    if let Keep::Rebuild = keep {
                        s.resident = Problem::default();
                    }
                    out.push(fingerprint(&mut s, &opts));
                    if let (Keep::CloneAtBatch4, 4) = (keep, batch) {
                        s = s.clone();
                    }
                }
                out
            };
            let [resident, twin, clone] = std::thread::scope(|scope| {
                [Keep::Resident, Keep::Rebuild, Keep::CloneAtBatch4]
                    .map(|keep| scope.spawn(move || run(keep)))
                    .map(|h| h.join().unwrap())
            });
            for (batch, want) in twin.iter().enumerate() {
                assert_eq!(&resident[batch], want, "seed {seed} batch {batch}");
                assert_eq!(&clone[batch], want, "seed {seed} batch {batch}: clone");
                solves += 1;
                let restart = want.as_ref().map(|(bits, _)| bits[bits.len() - 1]);
                warm += restart.is_ok_and(|r| r != Restart::Cold as u64) as u32;
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
                assert_eq!(st.pricing_serial_nanos, sum.pricing_serial_nanos, "{what}");
            }
        }
        assert!(ran > 200 && hits > 40, "{ran} solves ran, {hits} cache hits");
        let cold = schedule_shaped(&mut Gen(7)).solve().unwrap().stats();
        assert_eq!((cold.solves, cold.cold_starts, cold.warm_primal + cold.warm_dual), (1, 1, 0));
    }

    /// The two counters of a solve's start and end, the degenerate dual
    /// pivots and the BTRANs are merged, compared and printed like their
    /// neighbours.
    #[test]
    fn carry_counters_are_merged_compared_and_rendered() {
        let st = SessionStats {
            bordered_rows: 11,
            terminal_refactors: 3,
            dual_degenerate: 5,
            btrans: 13,
            ..SessionStats::default()
        };
        let rows = st.rows();
        let row = |label: &str| rows.iter().find(|(l, _)| l == label).map(|(_, v)| v.as_str());
        assert_eq!(row("lp bordered rows"), Some("11"));
        assert_eq!(row("lp terminal refactors"), Some("3"));
        assert_eq!(row("lp degenerate dual pivots"), Some("5"));
        assert_eq!(row("lp btrans"), Some("13"));
        assert_eq!(rows.len(), 19);
        let mut twice = st;
        twice.merge(st);
        assert_eq!((twice.bordered_rows, twice.terminal_refactors), (22, 6));
        assert_eq!((twice.dual_degenerate, twice.btrans), (10, 26));
        for one in [
            SessionStats { dual_degenerate: 1, ..SessionStats::default() },
            SessionStats { btrans: 1, ..SessionStats::default() },
            SessionStats { bordered_rows: 1, ..SessionStats::default() },
            SessionStats { terminal_refactors: 1, ..SessionStats::default() },
        ] {
            assert_ne!(one, SessionStats::default());
        }
    }

    // --- carried simplex state: continue in place, or run cold -------------

    /// Carrying is an optimization only. A session that solves uninterrupted
    /// continues, round after round, from the state its last solve left in
    /// the thread's workspace: every solve that holds a stamp — its
    /// predecessor succeeded, and no `invalidate` (asked for, or by a
    /// retrofitted old coefficient) came between — restarts warm, an old
    /// column's moved cost included. Each must return a certified optimum of
    /// the value a cold solve of the same model finds; not the same bits,
    /// because a degenerate LP has many optimal vertices. The cold references
    /// run once the session is done, so none of them takes its workspace.
    #[test]
    fn carrying_session_matches_cold_solves() {
        use crate::validate::check_optimal;
        let opts = SolveOptions::default();
        let (mut warm, mut repriced, mut compared) = (0u64, 0u64, 0u64);
        for seed in 0..60u64 {
            let mut g = Gen((0xCA44 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let mut s = SolverSession::new(schedule_shaped(&mut g));
            let mut script = Vec::new();
            for batch in 0..10 {
                let fresh = s.model().num_vars();
                for _ in 0..1 + g.index(4) {
                    let m = s.model();
                    let op = random_op(&mut g, m.num_vars(), m.num_rows(), fresh);
                    apply(&op, &mut s);
                }
                let log = &s.model().log;
                let (may_carry, cost_moved) =
                    (s.stamp != 0 && log.stamp == s.stamp, !log.changes.costs.is_empty());
                let before = s.stats();
                let result = s.solve(&opts).cloned();
                // (A clean session answers from its cache and runs nothing.)
                if s.stats().solves > before.solves {
                    let ran_warm = s.stats().cold_starts == before.cold_starts;
                    // A moved cost may leave the carried basis neither primal
                    // nor dual feasible, and the boxed dual pass then fail
                    // (2 of 41 here): those end cold.
                    let must_carry = may_carry && !cost_moved;
                    assert!(ran_warm <= may_carry && must_carry <= ran_warm, "seed {seed} {batch}");
                    warm += ran_warm as u64;
                    repriced += (ran_warm && cost_moved) as u64;
                }
                script.push((s.model().clone(), result));
            }
            for (batch, (model, got)) in script.into_iter().enumerate() {
                let want = model.solve();
                let what = format!("seed {seed} batch {batch}");
                assert_eq!(got.is_ok(), want.is_ok(), "{what}: {got:?} vs {want:?}");
                let (Ok(got), Ok(want)) = (got, want) else { continue };
                let tol = 1e-9 * (1.0 + want.objective().abs());
                assert!((got.objective() - want.objective()).abs() <= tol, "{what}");
                for sol in [&got, &want] {
                    let bad = check_optimal(&model, sol, 1e-7);
                    assert!(bad.is_empty(), "{what}: {bad:?}");
                }
                compared += 1;
            }
        }
        assert!(warm > 300 && repriced > 20 && compared > 450, "{warm} {repriced} {compared}");
    }

    /// The stamp rules, one each: what makes the next solve run cold. A
    /// session that finds its stamp gone — evicted by another session's solve,
    /// beaten to the workspace by its clone, moved to another thread, after a
    /// failed solve or `invalidate` — restarts `Cold`, to a certified optimum.
    #[test]
    fn only_the_last_solver_on_a_thread_carries() {
        use crate::validate::check_optimal;
        let opts = SolveOptions::default();
        let warm = |s: &mut SolverSession, rhs: f64| {
            s.model_mut().set_rhs(RowId::from_index(0), rhs);
            let sol = s.solve(&opts).unwrap().clone();
            assert!(check_optimal(s.model(), &sol, 1e-9).is_empty(), "rhs {rhs}");
            (s.last_restart() != Some(Restart::Cold), sol.objective())
        };
        let (mut s, ..) = toy();
        s.solve(&opts).unwrap();
        assert!(warm(&mut s, 7.0).0, "uninterrupted: continues in place");

        // Another session's solve on this thread evicts the state.
        let (mut other, ..) = toy();
        other.solve(&opts).unwrap();
        assert!(!warm(&mut s, 6.0).0, "evicted");
        assert!(warm(&mut s, 6.5).0);

        // A clone and its original hold the same stamp: whichever solves first
        // finds the workspace its own, the other finds it taken.
        let mut twin = s.clone();
        let (first, obj) = warm(&mut twin, 3.0);
        let (second, obj2) = warm(&mut s, 3.0);
        assert!(first && !second, "clone {first}, original {second}");
        assert_eq!(obj, obj2);

        // Another thread has another workspace.
        std::thread::scope(|scope| {
            let moved = scope.spawn(|| warm(&mut s, 5.0).0);
            assert!(!moved.join().unwrap(), "solved on a new thread");
        });
        assert!(!warm(&mut s, 4.0).0, "and back: this workspace was the clone's since");
        assert!(warm(&mut s, 4.5).0);

        // A solve that fails owns nothing.
        let x = Var::from_index(0);
        let floor = s.model_mut().add_row("floor", 1.0 * x, Cmp::Ge, 50.0);
        assert!(s.solve(&opts).is_err());
        s.model_mut().set_rhs(floor, 0.0);
        assert!(!warm(&mut s, 4.0).0, "after an error");

        // Neither does `invalidate` leave anything to carry.
        s.invalidate();
        assert!(!warm(&mut s, 6.0).0, "invalidate");
        assert!(warm(&mut s, 5.0).0);
    }

    /// An old column's cost moved: the duals and reduced costs the last solve
    /// left are stale, so the carried start reprices in full after bordering
    /// the row appended with it — and restarts warm to the optimum a cold
    /// solve of the same model finds. (That the reprice is what the dual loop
    /// then starts from is `solver::dual::tests::
    /// dual_loop_hands_over_exact_reduced_costs_and_duals`.)
    #[test]
    fn old_cost_change_carries_with_a_full_reprice() {
        let (mut s, x, y, _r1, _r2) = toy();
        s.solve(&SolveOptions::default()).unwrap();
        s.model_mut().set_obj(y, 10.0);
        s.model_mut().add_row("cut", 1.0 * x, Cmp::Le, 1.0);
        let before = s.stats();
        let sol = s.solve(&SolveOptions::default()).unwrap().clone();
        let st = s.stats();
        assert_ne!(s.last_restart(), Some(Restart::Cold));
        assert_eq!(st.bordered_rows - before.bordered_rows, 1, "carried: {st:?}");
        let cold = s.model().solve().unwrap();
        let tol = 1e-9 * (1.0 + cold.objective().abs());
        assert!((sol.objective() - cold.objective()).abs() <= tol);
        assert!((sol.objective() - 20.0).abs() <= tol, "{}", sol.objective());
    }

    /// `max x  s.t.  x <= 3`, solved: the optimum is 3.
    fn solved_cap() -> (SolverSession, RowId) {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg("x", 1.0);
        let cap = m.add_row("cap", 1.0 * x, Cmp::Le, 3.0);
        let mut s = SolverSession::new(m);
        assert_eq!(s.solve(&SolveOptions::default()).unwrap().objective(), 3.0);
        (s, cap)
    }

    /// An old row's right-hand side set in the batch that appends a column
    /// is logged like any other: the carried solve reads it and finds the
    /// optimum a fresh solve finds (5, not the stale 3).
    #[test]
    fn old_rhs_set_beside_an_appended_column_is_read() {
        let (mut s, cap) = solved_cap();
        let m = s.model_mut();
        m.add_var("z", 0.0, 1.0, 0.0);
        m.set_rhs(cap, 5.0);
        let got = s.solve(&SolveOptions::default()).unwrap().objective();
        assert_ne!(s.last_restart(), Some(Restart::Cold));
        let fresh = s.model().solve().unwrap().objective();
        assert_eq!((got, fresh), (5.0, 5.0));
    }

    /// A moved objective offset voids the cached optimum: the next solve
    /// reports what a fresh solve reports (13, not the cached 3).
    #[test]
    fn obj_offset_voids_the_cached_optimum() {
        let (mut s, _) = solved_cap();
        s.model_mut().add_obj_offset(10.0);
        assert!(s.cached_solution().is_none());
        let got = s.solve(&SolveOptions::default()).unwrap().objective();
        assert_eq!((got, s.model().solve().unwrap().objective()), (13.0, 13.0));
    }

    /// A model assigned whole through `model_mut` is no extension of the
    /// last solve's, even when it is shaped like one: it voids the cached
    /// optimum, and the next solve runs cold — whether it is new or another
    /// session's, solved or not.
    #[test]
    fn model_replaced_whole_is_solved_cold() {
        // `max x  s.t.  x <= cap,  x <= 2 cap`: `solved_cap`'s model plus a row.
        let bigger = |cap: f64| {
            let mut m = Model::new(Sense::Maximize);
            let x = m.add_nonneg("x", 1.0);
            m.add_row("cap", 1.0 * x, Cmp::Le, cap);
            m.add_row("spare", 1.0 * x, Cmp::Le, 2.0 * cap);
            m
        };
        let mut other = SolverSession::new(bigger(4.0));
        other.solve(&SolveOptions::default()).unwrap();
        for (model, want) in [(bigger(5.0), 5.0), (other.model().clone(), 4.0)] {
            // `s` solved last on this thread: only the replacement keeps it
            // from carrying.
            let (mut s, _) = solved_cap();
            *s.model_mut() = model;
            assert!(s.cached_solution().is_none(), "{want}");
            assert_eq!(s.solve(&SolveOptions::default()).unwrap().objective(), want);
            assert_eq!(s.last_restart(), Some(Restart::Cold), "{want}");
        }
    }
}

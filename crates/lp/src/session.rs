//! Persistent solver sessions with warm-started re-optimization.
//!
//! A [`SolverSession`] owns a [`Model`] together with the basis of its last
//! solve. Incremental mutations (`set_rhs`, `set_bounds`, `set_obj`,
//! `add_row`, `add_var`) go through the session so it can track which
//! mutation classes occurred, and every re-solve picks the cheapest restart
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
use crate::simplex::{solve_model_session, Problem, Restart, SimplexOptions, WarmBasis};
use crate::solution::{Solution, SolveError};

/// Grouped solver-tuning knobs of [`SolverSession::solve`]. Every field
/// follows the crate's `0 selects the default` convention, so the all-zero
/// [`SolverTuning::default`] changes nothing — callers override only the
/// knobs they care about and `..Default::default()` the rest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverTuning {
    /// Forrest–Tomlin updates a basis factorization accumulates before
    /// refactorizing; `0` inherits `refactor_every` from the effective
    /// simplex options (whose default is
    /// [`crate::simplex::basis::DEFAULT_MAX_ETAS`]), a nonzero value
    /// overrides it for this solve.
    pub max_etas: usize,
    /// Worker threads for the simplex's deterministic parallel-pricing
    /// layer; `0` inherits [`SimplexOptions::pricing_jobs`] from the
    /// effective simplex options (default 1, the serial path), a nonzero
    /// value overrides it. Any value produces bitwise-identical solves
    /// (DESIGN.md §19).
    pub pricing_jobs: usize,
}

/// Options for one [`SolverSession::solve`] call.
#[derive(Debug, Clone, Default)]
pub struct SolveOptions {
    /// Simplex parameter override; `None` uses the model's stored options.
    pub simplex: Option<SimplexOptions>,
    /// Discard the saved basis and solve from scratch.
    pub force_cold: bool,
    /// Grouped tuning knobs (refactorization cadence, pricing
    /// parallelism); the all-zero default leaves every knob at its built-in
    /// default.
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

/// Which mutation classes are pending since the last solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mutations {
    /// Objective coefficients or offset changed.
    pub obj: bool,
    /// A row right-hand side changed.
    pub rhs: bool,
    /// Variable bounds changed.
    pub bounds: bool,
    /// Rows appended since the last solve.
    pub added_rows: u32,
    /// Variables appended since the last solve.
    pub added_vars: u32,
    /// Coefficients retrofitted into rows since the last solve.
    pub new_terms: u32,
}

impl Mutations {
    /// True when nothing changed since the last solve.
    pub fn is_clean(&self) -> bool {
        *self == Mutations::default()
    }
}

/// Restart counters accumulated over the session's lifetime.
///
/// Equality compares only the *deterministic* counters: steal counts and
/// the serial/parallel wall-clock split depend on thread scheduling and
/// timer resolution, so they are excluded from `PartialEq` — two runs of
/// the same configuration compare equal even though their timing fields
/// differ. Section counts stay in the comparison; they derive from range
/// sizes alone and are reproducible.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Total solves (each round of a caller's generation loop is one).
    pub solves: u64,
    /// Solves that ran from a crash basis.
    pub cold_starts: u64,
    /// Warm restarts that needed only primal phase 2.
    pub warm_primal: u64,
    /// Warm restarts that ran the dual simplex first.
    pub warm_dual: u64,
    /// Total simplex iterations across all solves.
    pub iterations: u64,
    /// Those of them that were dual simplex pivots of warm restarts.
    pub dual_iterations: u64,
    /// Those dual pivots whose dual step `θ_d` was zero: degenerate, the
    /// duals and reduced costs did not move.
    pub dual_degenerate: u64,
    /// Total pricing work across all solves: columns examined by entering
    /// selection plus columns touched by incremental pivot-row updates.
    pub pricing_scans: u64,
    /// Iterations priced under the Bland's-rule anti-cycling fallback.
    pub bland_pivots: u64,
    /// Solves answered from the cached solution without touching the
    /// simplex (nothing mutated since the last certified optimum).
    pub cache_hits: u64,
    /// Always 0: counted the frozen-block submodel solves of incremental
    /// SAM, which PR 18 deleted. The field stays, and stays out of
    /// [`SessionStats::rows`], only because the frozen end-to-end benchmark
    /// (`e2ebench/src/layers.rs`) reads it as `lp.restricted`; it goes when
    /// the manifest drops that metric.
    pub restricted: u64,
    /// Columns appended through [`SolverSession::add_generated_cols`] (the
    /// colgen growth path).
    pub columns_generated: u64,
    /// Non-empty [`SolverSession::add_generated_cols`] batches — the
    /// restricted-master round count of the caller's pricing loop.
    pub colgen_rounds: u64,
    /// Sparse-LU refactorizations across all solves.
    pub refactors: u64,
    /// Cumulative nonzeros of the bases handed to refactorization.
    pub basis_nnz: u64,
    /// Cumulative nonzeros of the L/U factors produced (including the
    /// diagonal); `factor_nnz / basis_nnz` is the session fill-in ratio.
    pub factor_nnz: u64,
    /// Forrest–Tomlin basis-exchange updates applied in place.
    pub ft_updates: u64,
    /// FT updates rejected on a too-small new diagonal (each forces a
    /// refactorization).
    pub pivot_rejections: u64,
    /// Warm solves that continued from the state their predecessor left in
    /// the thread's workspace instead of reloading the saved basis
    /// (DESIGN.md §23); `warm_primal + warm_dual − carried` reloaded.
    pub carried: u64,
    /// Appended rows bordered onto the carried factors.
    pub bordered_rows: u64,
    /// Solves whose terminal `(x, y)` failed the residual certificate and
    /// was recomputed from a fresh factorization.
    pub terminal_refactors: u64,
    /// Sections executed by the deterministic parallel-pricing layer
    /// (simplex pricing sweeps plus any scheduler-side fan-out folded in
    /// via [`SolverSession::note_parallel_pricing`]). Deterministic for a
    /// fixed configuration.
    pub pricing_par_sections: u64,
    /// Parallel-pricing sections claimed by a worker other than the one
    /// they were seeded on. Timing-dependent; excluded from equality.
    pub pricing_par_steals: u64,
    /// Wall-clock nanoseconds of pricing invocations that ran the serial
    /// path. Timing-dependent; excluded from equality.
    pub pricing_serial_nanos: u64,
    /// Wall-clock nanoseconds of pricing invocations that fanned out over
    /// the worker pool. Timing-dependent; excluded from equality.
    pub pricing_par_nanos: u64,
}

impl PartialEq for SessionStats {
    fn eq(&self, other: &Self) -> bool {
        // Every counter except the timing-dependent trio (steals + the two
        // wall-clock buckets); see the type-level docs.
        self.solves == other.solves
            && self.cold_starts == other.cold_starts
            && self.warm_primal == other.warm_primal
            && self.warm_dual == other.warm_dual
            && self.iterations == other.iterations
            && self.dual_iterations == other.dual_iterations
            && self.dual_degenerate == other.dual_degenerate
            && self.pricing_scans == other.pricing_scans
            && self.bland_pivots == other.bland_pivots
            && self.cache_hits == other.cache_hits
            && self.columns_generated == other.columns_generated
            && self.colgen_rounds == other.colgen_rounds
            && self.refactors == other.refactors
            && self.basis_nnz == other.basis_nnz
            && self.factor_nnz == other.factor_nnz
            && self.ft_updates == other.ft_updates
            && self.pivot_rejections == other.pivot_rejections
            && self.carried == other.carried
            && self.bordered_rows == other.bordered_rows
            && self.terminal_refactors == other.terminal_refactors
            && self.pricing_par_sections == other.pricing_par_sections
    }
}

impl Eq for SessionStats {}

impl SessionStats {
    fn record(&mut self, restart: Restart, solution: &Solution) {
        self.solves += 1;
        self.iterations += solution.iterations();
        self.dual_iterations += solution.dual_iterations();
        self.dual_degenerate += solution.dual_degenerate();
        self.pricing_scans += solution.pricing_scans();
        self.bland_pivots += solution.bland_pivots();
        self.pricing_par_sections += solution.pricing_par_sections();
        self.pricing_par_steals += solution.pricing_par_steals();
        self.pricing_serial_nanos += solution.pricing_serial_nanos();
        self.pricing_par_nanos += solution.pricing_par_nanos();
        self.record_factor(solution.factor_stats());
        self.carried += solution.carried as u64;
        self.terminal_refactors += solution.terminal_refactor as u64;
        match restart {
            Restart::Cold => self.cold_starts += 1,
            Restart::WarmPrimal => self.warm_primal += 1,
            Restart::WarmDual => self.warm_dual += 1,
        }
    }

    fn record_factor(&mut self, fs: crate::simplex::basis::FactorStats) {
        self.refactors += fs.refactors;
        self.basis_nnz += fs.basis_nnz;
        self.factor_nnz += fs.factor_nnz;
        self.ft_updates += fs.ft_updates;
        self.pivot_rejections += fs.pivot_rejections;
        self.bordered_rows += fs.bordered_rows;
    }

    /// Fraction of solves that reused the previous basis.
    pub fn warm_fraction(&self) -> f64 {
        if self.solves == 0 {
            return 0.0;
        }
        (self.warm_primal + self.warm_dual) as f64 / self.solves as f64
    }

    /// Fold another counter set into this one (aggregating stats across
    /// several sessions, e.g. one per SAM window).
    pub fn merge(&mut self, other: SessionStats) {
        self.solves += other.solves;
        self.cold_starts += other.cold_starts;
        self.warm_primal += other.warm_primal;
        self.warm_dual += other.warm_dual;
        self.iterations += other.iterations;
        self.dual_iterations += other.dual_iterations;
        self.dual_degenerate += other.dual_degenerate;
        self.pricing_scans += other.pricing_scans;
        self.bland_pivots += other.bland_pivots;
        self.cache_hits += other.cache_hits;
        self.columns_generated += other.columns_generated;
        self.colgen_rounds += other.colgen_rounds;
        self.refactors += other.refactors;
        self.basis_nnz += other.basis_nnz;
        self.factor_nnz += other.factor_nnz;
        self.ft_updates += other.ft_updates;
        self.pivot_rejections += other.pivot_rejections;
        self.carried += other.carried;
        self.bordered_rows += other.bordered_rows;
        self.terminal_refactors += other.terminal_refactors;
        self.pricing_par_sections += other.pricing_par_sections;
        self.pricing_par_steals += other.pricing_par_steals;
        self.pricing_serial_nanos += other.pricing_serial_nanos;
        self.pricing_par_nanos += other.pricing_par_nanos;
    }

    /// Labelled counter rows for table rendering (`(label, value)`), in a
    /// stable order.
    pub fn rows(&self) -> Vec<(String, String)> {
        vec![
            ("lp solves".into(), self.solves.to_string()),
            ("cold starts".into(), self.cold_starts.to_string()),
            ("warm primal".into(), self.warm_primal.to_string()),
            ("warm dual".into(), self.warm_dual.to_string()),
            ("iterations".into(), self.iterations.to_string()),
            ("dual iterations".into(), self.dual_iterations.to_string()),
            ("lp degenerate dual pivots".into(), self.dual_degenerate.to_string()),
            ("pricing scans".into(), self.pricing_scans.to_string()),
            ("bland pivots".into(), self.bland_pivots.to_string()),
            ("cache hits".into(), self.cache_hits.to_string()),
            ("columns generated".into(), self.columns_generated.to_string()),
            ("colgen rounds".into(), self.colgen_rounds.to_string()),
            ("refactors".into(), self.refactors.to_string()),
            ("ft updates".into(), self.ft_updates.to_string()),
            ("pivot rejections".into(), self.pivot_rejections.to_string()),
            ("lp carried solves".into(), self.carried.to_string()),
            ("lp bordered rows".into(), self.bordered_rows.to_string()),
            ("lp terminal refactors".into(), self.terminal_refactors.to_string()),
            ("pricing par sections".into(), self.pricing_par_sections.to_string()),
            ("pricing par steals".into(), self.pricing_par_steals.to_string()),
            (
                "pricing wall serial/par".into(),
                format!(
                    "{:.1}ms / {:.1}ms",
                    self.pricing_serial_nanos as f64 / 1e6,
                    self.pricing_par_nanos as f64 / 1e6
                ),
            ),
            (
                "fill-in ratio".into(),
                format!("{:.3}", self.factor_nnz as f64 / self.basis_nnz.max(1) as f64),
            ),
            ("warm fraction".into(), format!("{:.3}", self.warm_fraction())),
        ]
    }
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
/// snapshot, the resident standard form and mutation tracking stay
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
    pending: Mutations,
    /// The cost of a column the saved basis knows changed since the last
    /// solve: the reduced costs and duals that solve left behind are stale,
    /// so the next one reloads instead of carrying.
    old_cost_moved: bool,
    stats: SessionStats,
    last_restart: Option<Restart>,
    /// Model size at the last basis snapshot; columns/rows past these marks
    /// were appended afterwards and are never referenced by the saved basis.
    solved_vars: usize,
    solved_rows: usize,
    /// The most recent certified optimum of the current model state.
    /// Served verbatim by [`SolverSession::solve`] when no mutation is
    /// pending, and the reference point for [`SolverSession::fix_at_value`].
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
            pending: Mutations::default(),
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

    /// Mutation classes pending since the last solve.
    pub fn pending_mutations(&self) -> Mutations {
        self.pending
    }

    /// How the most recent solve restarted, if any solve has run.
    pub fn last_restart(&self) -> Option<Restart> {
        self.last_restart
    }

    /// Lifetime restart counters.
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
        if self.pending.is_clean() {
            self.last_solution.as_ref()
        } else {
            None
        }
    }

    /// Mutable solver options of the wrapped model (does not invalidate the
    /// basis).
    pub fn options_mut(&mut self) -> &mut SimplexOptions {
        self.model.options_mut()
    }

    // --- mutators (mirror Model, with mutation-class tracking) ------------

    /// See [`Model::add_var`].
    pub fn add_var(&mut self, name: &str, lb: f64, ub: f64, obj: f64) -> Var {
        self.pending.added_vars += 1;
        if obj != 0.0 {
            self.pending.obj = true;
        }
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
        self.pending.added_rows += 1;
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
        self.pending.new_terms += 1;
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
        self.pending.obj = true;
        self.old_cost_moved |= v.index() < self.solved_vars;
        self.model.set_obj(v, obj);
    }

    /// See [`Model::set_bounds`].
    pub fn set_bounds(&mut self, v: Var, lb: f64, ub: f64) {
        self.pending.bounds = true;
        self.model.set_bounds(v, lb, ub);
    }

    /// Pin `v` to the single value `x` (bounds `[x, x]`), *without* marking
    /// a pending mutation when the pin provably preserves the cached
    /// optimum: if the cached solution already has `v = x` (bitwise) and
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
        if !(already_pinned || matches_cached) {
            self.pending.bounds = true;
        }
        self.model.set_bounds(v, x, x);
    }

    /// See [`Model::set_rhs`].
    pub fn set_rhs(&mut self, r: RowId, rhs: f64) {
        self.pending.rhs = true;
        self.model.set_rhs(r, rhs);
    }

    /// See [`Model::add_obj_offset`].
    pub fn add_obj_offset(&mut self, c: f64) {
        self.pending.obj = true;
        self.model.add_obj_offset(c);
    }

    /// Append-only access to the underlying model, for helpers that build
    /// structure directly on a [`Model`] (e.g. encoding builders that add a
    /// block of variables and rows). Additions are counted into the pending
    /// mutation set afterwards by diffing the model dimensions.
    ///
    /// The closure must only *append*: add variables, add rows, and touch
    /// the entries it added. Mutating pre-existing coefficients, bounds,
    /// RHS values, or objective entries through this hook bypasses mutation
    /// tracking and can silently corrupt warm restarts — use the session's
    /// own mutators for those.
    pub fn append_with<R>(&mut self, f: impl FnOnce(&mut Model) -> R) -> R {
        let (nv, nr) = (self.model.num_vars(), self.model.num_rows());
        let out = f(&mut self.model);
        self.pending.added_vars += (self.model.num_vars() - nv) as u32;
        self.pending.added_rows += (self.model.num_rows() - nr) as u32;
        out
    }

    // --- solving ----------------------------------------------------------

    /// The simplex options a solve under `opts` actually runs with: the
    /// per-call override (or the model's stored options), with each nonzero
    /// [`SolverTuning`] knob substituted in (`max_etas` → `refactor_every`,
    /// `pricing_jobs` → `pricing_jobs`).
    fn effective_simplex(&self, opts: &SolveOptions) -> SimplexOptions {
        let mut simplex = opts.simplex.clone().unwrap_or_else(|| self.model.options().clone());
        if opts.tuning.max_etas != 0 {
            simplex.refactor_every = opts.tuning.max_etas;
        }
        if opts.tuning.pricing_jobs != 0 {
            simplex.pricing_jobs = opts.tuning.pricing_jobs;
        }
        simplex
    }

    /// Re-optimize, reusing the saved basis when possible.
    ///
    /// The restart that actually ran is readable via
    /// [`SolverSession::last_restart`]; the result is always the certified
    /// optimum of the current model (warm failures fall back to a cold
    /// solve internally).
    pub fn solve(&mut self, opts: &SolveOptions) -> Result<Solution, SolveError> {
        // Nothing mutated since the last certified optimum: the cached
        // solution *is* the answer — skip the simplex entirely. (The basis
        // requirement makes `invalidate()` force a real cold solve.)
        if !opts.force_cold && self.pending.is_clean() && self.basis.is_some() {
            if let Some(cached) = &self.last_solution {
                self.stats.cache_hits += 1;
                return Ok(cached.clone());
            }
        }
        let simplex = self.effective_simplex(opts);
        let warm = if opts.force_cold { None } else { self.basis.as_ref() };
        let (solution, basis, restart) = solve_model_session(
            &self.model,
            &simplex,
            warm,
            !self.old_cost_moved,
            &mut self.resident,
        )?;
        self.basis = Some(basis);
        self.old_cost_moved = false;
        self.stats.record(restart, &solution);
        self.last_restart = Some(restart);
        self.pending = Mutations::default();
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
    use crate::simplex::Pricing;
    use crate::{Sense, Status};

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
        assert_eq!(sol.status(), Status::Optimal);
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

    #[test]
    fn mutation_tracking_and_reset() {
        let (mut s, x, _y, r1, _r2) = toy();
        assert!(s.pending_mutations().is_clean());
        s.set_rhs(r1, 5.0);
        s.set_bounds(x, 0.0, 3.0);
        let m = s.pending_mutations();
        assert!(m.rhs && m.bounds && !m.obj);
        s.solve(&SolveOptions::default()).unwrap();
        assert!(s.pending_mutations().is_clean());
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
        assert!(s.pending_mutations().is_clean());
        s.solve(&SolveOptions::default()).unwrap();
        assert_eq!(s.stats().cache_hits, 1);
        // Pinning off the cached value is a real bound mutation.
        s.fix_at_value(x, 1.0);
        assert!(s.pending_mutations().bounds);
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

    #[test]
    fn max_etas_overrides_refactor_cadence() {
        // A tiny max_etas forces refactorization every iteration — the
        // solve must still reach the same certified optimum.
        let (mut s, _x, _y, _r1, _r2) = toy();
        let opts = SolveOptions {
            tuning: SolverTuning { max_etas: 1, ..Default::default() },
            ..Default::default()
        };
        let sol = s.solve(&opts).unwrap();
        assert!((sol.objective() - 12.0).abs() < 1e-7);
        // And the default (0) leaves the model's cadence untouched.
        let eff = s.effective_simplex(&SolveOptions::default());
        assert_eq!(eff.refactor_every, s.model().options().refactor_every);
        let eff1 = s.effective_simplex(&opts);
        assert_eq!(eff1.refactor_every, 1);
    }

    #[test]
    fn default_cadence_is_the_shared_constant() {
        // The `0 → default` resolution lives in one place:
        // `basis::DEFAULT_MAX_ETAS` seeds the simplex default cadence, and
        // `Factorization::set_limits` substitutes it for a literal zero.
        assert_eq!(
            SimplexOptions::default().refactor_every,
            crate::simplex::basis::DEFAULT_MAX_ETAS
        );
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
        let run = |cadence: usize| {
            let (mut s, _x, _y, r1, _r2) = toy();
            let opts = SolveOptions {
                simplex: Some(SimplexOptions {
                    refactor_every: cadence,
                    ..SimplexOptions::default()
                }),
                ..Default::default()
            };
            s.solve(&opts).unwrap();
            s.set_rhs(r1, 7.0);
            let sol = s.solve(&opts).unwrap();
            (sol.objective().to_bits(), s.stats().refactors)
        };
        // A literal zero must behave exactly like the shared default —
        // same optimum, same refactorization count — because the
        // resolution happens once, inside `Factorization::set_limits`.
        let zero = run(0);
        assert_eq!(zero, run(crate::simplex::basis::DEFAULT_MAX_ETAS));
        // And a cadence of 1 reaches the kernel, not just the options.
        assert!(run(1).1 >= zero.1, "cadence 1 refactors at least as often");

        // `pricing_jobs` resolves through `effective_simplex` the same way:
        // zero is the serial default, and any worker count reproduces the
        // serial objective bitwise (the parallel layer reduces in section
        // order — DESIGN.md §19).
        let par = |jobs: usize| {
            let (mut s, _x, _y, r1, _r2) = toy();
            let opts = SolveOptions {
                tuning: SolverTuning { pricing_jobs: jobs, ..Default::default() },
                ..Default::default()
            };
            assert_eq!(s.effective_simplex(&opts).pricing_jobs, if jobs == 0 { 1 } else { jobs });
            s.solve(&opts).unwrap();
            s.set_rhs(r1, 7.0);
            s.solve(&opts).unwrap().objective().to_bits()
        };
        assert_eq!(par(0), par(8));
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

    /// Everything a solve reports, bit for bit (errors by their message).
    fn fingerprint(s: &mut SolverSession, opts: &SolveOptions) -> Result<Vec<u64>, String> {
        let sol = s.solve(opts).map_err(|e| e.to_string())?;
        let mut bits = vec![sol.objective().to_bits(), sol.iterations(), sol.pricing_scans()];
        bits.extend(sol.values().iter().map(|v| v.to_bits()));
        bits.extend(sol.duals().iter().map(|v| v.to_bits()));
        bits.extend(
            (0..sol.values().len()).map(|j| sol.reduced_cost(Var::from_index(j)).to_bits()),
        );
        let fs = sol.factor_stats();
        bits.extend([
            fs.refactors,
            fs.basis_nnz,
            fs.factor_nnz,
            fs.ft_updates,
            fs.pivot_rejections,
        ]);
        bits.push(s.last_restart().map_or(9, |r| r as u64));
        Ok(bits)
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

    /// The three counters of a solve's start and end, and the degenerate
    /// dual pivots, are merged, compared and printed like their neighbours.
    #[test]
    fn carry_counters_are_merged_compared_and_rendered() {
        let st = SessionStats {
            carried: 7,
            bordered_rows: 11,
            terminal_refactors: 3,
            dual_degenerate: 5,
            ..SessionStats::default()
        };
        let rows = st.rows();
        let row = |label: &str| rows.iter().find(|(l, _)| l == label).map(|(_, v)| v.as_str());
        assert_eq!(row("lp carried solves"), Some("7"));
        assert_eq!(row("lp bordered rows"), Some("11"));
        assert_eq!(row("lp terminal refactors"), Some("3"));
        assert_eq!(row("lp degenerate dual pivots"), Some("5"));
        assert_eq!(rows.len(), 23);
        let mut twice = st;
        twice.merge(st);
        assert_eq!((twice.carried, twice.bordered_rows, twice.terminal_refactors), (14, 22, 6));
        assert_eq!(twice.dual_degenerate, 10);
        for one in [
            SessionStats { dual_degenerate: 1, ..SessionStats::default() },
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

        // Dantzig pricing keeps no reduced costs: it neither continues from a
        // state nor leaves one to continue from.
        let dantzig = SolveOptions {
            simplex: Some(SimplexOptions { pricing: Pricing::Dantzig, ..Default::default() }),
            ..SolveOptions::default()
        };
        assert!(!carried(&mut s, &dantzig, 4.0).0, "Dantzig after Devex");
        assert!(!carried(&mut s, &dantzig, 5.0).0, "Dantzig after Dantzig");
        assert!(!carried(&mut s, &opts, 4.0).0, "Devex after Dantzig");
    }
}

//! Revised simplex method with bounded variables.
//!
//! The solver works on a *computational standard form*
//!
//! ```text
//! minimize    cᵀx
//! subject to  A·x = b          (one slack column per original row)
//!             l ≤ x ≤ u
//! ```
//!
//! built from a [`crate::Model`]. Feasibility is established with a crash
//! basis (slacks where the initial residual fits the slack bounds,
//! artificial columns elsewhere) followed by a phase-1 minimization of the
//! artificial sum; phase 2 then optimizes the true objective. Dual values
//! are recovered from the final basis via BTRAN.

pub mod basis;
mod solver;

use crate::model::{Cmp, Model, Sense};
use crate::solution::{Solution, SolveError};
use crate::stats::SessionStats;
use basis::arena::{grow, reserve_tight, SegArena};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Entering-variable pricing rule of the primal simplex: there is one.
///
/// Reduced costs are maintained from the pivot row after each pivot and
/// scored by Devex reference-framework weights; column sections are scanned
/// in rotation to keep a shortlist of attractive candidates, visiting only
/// the columns a maintained entering set holds, so one pivot examines the
/// candidates and that set's members in a section (DESIGN.md §14). The rule is a
/// pure function of `(options, model)` — no clocks, no randomness — so
/// solves stay bit-identical across processes and worker counts.
///
/// The enum and [`SimplexOptions::pricing`] stay only because the frozen
/// end-to-end benchmark names them (`e2ebench/src/probes.rs` copies
/// `PretiumConfig::pricing` into the field); there is nothing to choose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pricing {
    /// Partial Devex pricing.
    #[default]
    PartialDevex,
}

/// Tolerances and limits of a solve. The kernel's tuning — the
/// refactorization cadence — is [`SolverTuning`].
#[derive(Debug, Clone)]
pub struct SimplexOptions {
    /// Primal feasibility tolerance (bound violations up to this are
    /// accepted).
    pub feas_tol: f64,
    /// Reduced-cost (dual feasibility) tolerance.
    pub opt_tol: f64,
    /// Smallest acceptable pivot magnitude.
    pub pivot_tol: f64,
    /// Hard iteration cap; `0` selects an automatic limit scaled with the
    /// problem size.
    pub max_iterations: u64,
    /// Consecutive degenerate pivots before switching to Bland's rule.
    pub bland_trigger: u32,
    /// Entering-variable pricing rule (the only one; see [`Pricing`]).
    pub pricing: Pricing,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            feas_tol: 1e-7,
            opt_tol: 1e-8,
            pivot_tol: 1e-9,
            max_iterations: 0,
            bland_trigger: 1000,
            pricing: Pricing::PartialDevex,
        }
    }
}

/// The kernel's tuning knob, the one place a solve's refactorization
/// cadence is set. The all-zero [`SolverTuning::default`] is the default
/// kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverTuning {
    /// Forrest–Tomlin updates a basis factorization accumulates before
    /// refactorizing; `0` selects [`basis::DEFAULT_MAX_ETAS`].
    pub max_etas: usize,
    /// Inert: pricing is serial whatever this says, and nothing in the
    /// solver reads it. It counted the workers of the parallel-pricing
    /// layer, which is gone (DESIGN.md §19). The field stays only because
    /// the frozen end-to-end benchmark (`e2ebench/src/probes.rs`) sets it,
    /// and goes when that reader does.
    pub pricing_jobs: usize,
}

/// Standard-form problem fed to the iteration core.
///
/// Only the structural columns are stored. Slack `i` is the unit column
/// `e_i`; artificial `i` is `art_sign[i] · e_i`, its sign fixed at crash
/// time by the solver and reset to `+1` when that solve ends. The column
/// bounds are not here: a solve mutates them, so they live in its
/// workspace (loaded by `load_bounds`, or carried by a warm start) and
/// this struct stays fixed while the iterations run.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Problem {
    /// Number of rows (= equality constraints after slack insertion).
    pub m: usize,
    /// Total number of columns: structurals, slacks, artificials.
    pub n: usize,
    pub nstruct: usize,
    /// Index of the first slack column.
    pub slack_start: usize,
    /// Index of the first artificial column.
    pub art_start: usize,
    /// Sparse structural columns of `A`, `(row, value)` with rows strictly
    /// increasing.
    pub cols: SegArena<(u32, f64)>,
    pub art_sign: Vec<f64>,
    /// Phase-2 costs, already converted to minimization sense.
    pub cost: Vec<f64>,
    pub b: Vec<f64>,
    /// Terms of each model row already copied into `cols`.
    row_len: Vec<u32>,
}

impl Problem {
    /// Build the standard form from a model.
    pub fn from_model(model: &Model) -> Self {
        let mut p = Problem::default();
        let synced = p.sync(model, &mut Changes::default());
        debug_assert!(synced, "every model extends the empty problem");
        p
    }

    /// Bring the standard form of an earlier state of `model` up to date,
    /// in `O(appended nonzeros + logged changes)` plus a move of the slack
    /// and artificial costs when the layout grew. `model` must be that
    /// earlier state grown by appending — variables, rows, and terms of new
    /// variables in old rows (which sort to the tails of those rows) — with
    /// every other change in `changes`: set bounds, costs and right-hand
    /// sides, and the old rows that gained terms (sorted and deduplicated in
    /// place, so `sync` allocates nothing for them). Returns `false`, leaving
    /// `self` unusable, when `model` is smaller than the earlier state. The
    /// result equals [`Problem::from_model`] of the same model (a debug
    /// assertion checks it); the artificials are closed and positive, as a
    /// solve leaves them (`solver::run`).
    pub fn sync(&mut self, model: &Model, changes: &mut Changes) -> bool {
        let (m0, ns0) = (self.m, self.nstruct);
        let (m, nstruct) = (model.rows.len(), model.vars.len());
        if m < m0 || nstruct < ns0 {
            return false;
        }
        if self.cols.segments() == 0 {
            // First build: size every column exactly.
            let mut sizes = vec![0u32; nstruct];
            for t in model.rows.iter().flat_map(|r| &r.terms) {
                sizes[t.var.index()] += 1;
            }
            self.cols.layout(sizes.into_iter());
        } else {
            self.cols.add_segments(nstruct - ns0);
        }
        grow(&mut self.row_len, m, 0);
        // The old rows that gained terms, then the appended rows, in
        // ascending order: every column's entries stay sorted by row.
        let tails = &mut changes.tails;
        tails.retain(|&i| (i as usize) < m0);
        tails.sort_unstable();
        tails.dedup();
        for i in tails.iter().map(|&i| i as usize).chain(m0..m) {
            let (row, seen) = (&model.rows[i], &mut self.row_len[i]);
            for t in &row.terms[*seen as usize..] {
                debug_assert!(i >= m0 || t.var.index() >= ns0, "old row gained an old variable");
                self.cols.push(t.var.index(), (i as u32, t.coef));
            }
            *seen = row.terms.len() as u32;
        }

        let n = nstruct + 2 * m;
        let sign = match model.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        if n != self.n {
            // The slack and artificial costs (zero) move behind the
            // appended columns.
            self.cost.truncate(ns0);
            reserve_tight(&mut self.cost, n);
            self.cost.extend(model.vars[ns0..].iter().map(|v| sign * v.obj));
            self.cost.resize(n, 0.0);
        }
        for j in changes.costs.iter().map(|&j| j as usize).filter(|&j| j < ns0) {
            self.cost[j] = sign * model.vars[j].obj;
        }
        reserve_tight(&mut self.b, m);
        self.b.extend(model.rows[m0..].iter().map(|r| r.rhs));
        for i in changes.rhs.iter().map(|&i| i as usize).filter(|&i| i < m0) {
            self.b[i] = model.rows[i].rhs;
        }
        grow(&mut self.art_sign, m, 1.0);
        (self.m, self.nstruct, self.n) = (m, nstruct, n);
        (self.slack_start, self.art_start) = (nstruct, nstruct + m);
        debug_assert!(m0 + ns0 == 0 || *self == Problem::from_model(model));
        true
    }

    /// Run `f` on the entries of column `j` (rows strictly increasing).
    #[inline]
    pub fn with_col<R>(&self, j: usize, f: impl FnOnce(&[(u32, f64)]) -> R) -> R {
        if j < self.nstruct {
            f(self.cols.get(j))
        } else if j < self.art_start {
            f(&[((j - self.slack_start) as u32, 1.0)])
        } else {
            let i = j - self.art_start;
            f(&[(i as u32, self.art_sign[i])])
        }
    }

    /// Reduced cost `cost_j − yᵀ·a_j` of column `j` against the duals `y`.
    #[inline]
    pub fn reduced_cost(&self, j: usize, cost: &[f64], y: &[f64]) -> f64 {
        self.with_col(j, |col| col.iter().fold(cost[j], |d, &(i, v)| d - y[i as usize] * v))
    }
}

/// What a model changed since its last session solve, besides appending,
/// kept in its `model::Log`: the change log a carried solve reads instead
/// of rereading the model (DESIGN.md §23). Each list names pre-existing
/// columns or rows (appended ones are read whole); an index may repeat, and
/// an entry whose value did not move is harmless.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Changes {
    /// Columns whose bounds were set.
    pub bounds: Vec<u32>,
    /// Columns whose cost was set: the carried reduced costs and duals are
    /// stale, so the carried start reprices in full.
    pub costs: Vec<u32>,
    /// Rows whose right-hand side was set.
    pub rhs: Vec<u32>,
    /// Rows that gained a term of an appended column.
    pub tails: Vec<u32>,
}

/// How a session solve restarted the simplex method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Restart {
    /// Fresh crash basis and both phases.
    Cold,
    /// Previous basis was still primal feasible; primal phase 2 only.
    WarmPrimal,
    /// Previous basis was dual feasible; dual simplex repaired primal
    /// feasibility, then a primal polish finished.
    WarmDual,
}

thread_local! {
    /// The solver workspace — factorization, elimination arenas, every
    /// per-column and per-row scratch vector — shared by all solves on this
    /// thread. It need not belong to a session: an idle session pins only
    /// its standard form, and a thread holds one workspace the size of its
    /// largest LP (until it exits) rather than one per live session. What
    /// it carries from one solve to the next, besides its buffers, is the
    /// terminal state of the last solve under that solve's stamp — of use
    /// only to the session that ran it, and only if it solves next.
    static WORK: RefCell<solver::Workspace> = RefCell::default();
}

/// Source of solve stamps. A stamp names one solve and is only ever compared
/// for equality with the copy that solve left in its thread's workspace, so
/// it orders nothing and publishes nothing.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// Run `f` on this thread's workspace. No solve starts inside another (row
/// and column generators run between solves), so the borrow cannot fail.
fn with_workspace<R>(f: impl FnOnce(&mut solver::Workspace) -> R) -> R {
    WORK.with(|w| f(&mut w.borrow_mut()))
}

/// Lifetime counters of this thread's resident factorization.
#[cfg(test)]
pub(crate) fn lifetime_factor_stats() -> basis::FactorStats {
    with_workspace(|work| work.factor.stats())
}

/// Load the bounds a solve of `model` starts from into the workspace.
fn load_bounds(model: &Model, work: &mut solver::Workspace) {
    let n = model.vars.len() + 2 * model.rows.len();
    let (lb, ub) = (&mut work.lb, &mut work.ub);
    lb.clear();
    reserve_tight(lb, n);
    lb.extend(model.vars.iter().map(|v| v.lb));
    ub.clear();
    reserve_tight(ub, n);
    ub.extend(model.vars.iter().map(|v| v.ub));
    for row in &model.rows {
        let (slb, sub) = slack_bounds(row.cmp);
        lb.push(slb);
        ub.push(sub);
    }
    // Artificial columns: opened to [0, inf) only for rows that need one.
    lb.resize(n, 0.0);
    ub.resize(n, 0.0);
}

/// Bounds of the slack column of a row with comparison `cmp`: row + slack
/// = rhs.
pub(crate) fn slack_bounds(cmp: Cmp) -> (f64, f64) {
    match cmp {
        Cmp::Le => (0.0, f64::INFINITY),
        Cmp::Ge => (f64::NEG_INFINITY, 0.0),
        Cmp::Eq => (0.0, 0.0),
    }
}

/// Map a finished solve into `out` — its ledger completed with `solves`
/// and the counter of `restart`, its values and duals copied over `out`'s
/// in the model's sense and handles, into the buffers `out` already has —
/// and stamp the terminal state it leaves in the workspace as this solve's.
/// Returns the stamp.
fn conclude(
    model: &Model,
    problem: &Problem,
    work: &mut solver::Workspace,
    mut stats: SessionStats,
    restart: Restart,
    out: &mut Solution,
) -> u64 {
    work.owner = NEXT_STAMP.fetch_add(1, Ordering::Relaxed);
    (work.owner_m, work.owner_nstruct) = (problem.m, problem.nstruct);
    stats.solves = 1;
    match restart {
        Restart::Cold => stats.cold_starts = 1,
        Restart::WarmPrimal => stats.warm_primal = 1,
        Restart::WarmDual => stats.warm_dual = 1,
    }
    let sign = match model.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    out.values.clear();
    out.values.extend_from_slice(&work.x[..model.vars.len()]);
    out.objective =
        model.vars.iter().zip(&out.values).map(|(v, &x)| v.obj * x).sum::<f64>() + model.obj_offset;
    out.duals.clear();
    out.duals.extend(work.y.iter().map(|&y| sign * y));
    out.stats = stats;
    work.owner
}

/// Solve `model`: carry the terminal state of the solve stamped `stamp`,
/// or run cold. Writes the optimum over `out` (which keeps its old
/// contents when the solve fails) and returns the stamp of the terminal
/// state it leaves for the next call, and which restart ran.
///
/// A solve *carries* when this thread's workspace still holds the state
/// `stamp` names — no other solve ran here since — and `problem` is the
/// standard form that solve left, which `model` has only grown since, its
/// other changes logged in `changes` ([`Problem::sync`]). It continues in
/// place (`solver::warm_state`), paying for what `changes` and the appended
/// rows and columns name rather than for the whole LP: the appended rows
/// border the factors, the reduced costs and duals are inherited — or
/// repriced in full when the cost of a column that solve knew has changed —
/// and the start is classified (primal feasible → primal phase 2; dual
/// feasible → dual simplex and a primal polish).
///
/// Everything else runs *cold*, and rebuilds `problem` from the model: no
/// stamp (a first solve, `invalidate`, a retrofitted old coefficient, a
/// failed predecessor), a stamp another solve on this thread has replaced
/// since (an interleaved session, the clone that solved first), a session
/// moved to another thread, a model that shrank, and a carried attempt that
/// errs. The workspace's stamp is cleared before any attempt, so a solve
/// that fails leaves nothing to carry. Stamp `0` with an empty `Problem`
/// makes the call a one-shot solve.
///
/// A numerical failure of the cold solve (singular refactorization after
/// eta-file drift on a heavily degenerate basis) triggers one conservative
/// retry: larger pivot tolerance, more frequent refactorization, and
/// Bland's rule throughout.
pub(crate) fn solve_model_session(
    model: &Model,
    options: &SimplexOptions,
    tuning: SolverTuning,
    stamp: u64,
    changes: &mut Changes,
    problem: &mut Problem,
    out: &mut Solution,
) -> Result<(u64, Restart), SolveError> {
    // The solver borrows the model: its row storage is the row-major mirror
    // of the structural matrix (`RowData.terms`, sorted by column), and its
    // names name the errors.
    with_workspace(|work| {
        let held = std::mem::take(&mut work.owner);
        if stamp != 0 && stamp == held && problem.sync(model, changes) {
            let run = solver::warm_state(problem, model, changes, options, tuning, work)
                .and_then(|mut st| st.reoptimize(&problem.cost));
            if let Ok((stats, used_dual)) = run {
                let restart = if used_dual { Restart::WarmDual } else { Restart::WarmPrimal };
                return Ok((conclude(model, problem, work, stats, restart, out), restart));
            }
            // Fall through to a cold solve: correctness never depends on the
            // carried attempt succeeding.
        }
        let mut attempt = |options: &SimplexOptions, tuning: SolverTuning| {
            // Release the old standard form before building its replacement.
            *problem = Problem::default();
            *problem = Problem::from_model(model);
            load_bounds(model, work);
            solver::run(problem, model, options, tuning, work)
        };
        let stats = match attempt(options, tuning) {
            Ok(s) => s,
            Err(SolveError::Numerical(_)) => {
                let conservative = SimplexOptions {
                    pivot_tol: options.pivot_tol.max(1e-8),
                    bland_trigger: 0,
                    ..options.clone()
                };
                attempt(&conservative, SolverTuning { max_etas: 32, ..tuning })?
            }
            Err(e) => return Err(e),
        };
        Ok((conclude(model, problem, work, stats, Restart::Cold, out), Restart::Cold))
    })
}

//! The bounded-variable revised simplex iteration core.
//!
//! Works on the standard form produced by [`super::Problem::from_model`]:
//! a crash basis is built first (slacks where the initial residual fits,
//! artificials elsewhere), then phase 1 minimizes the artificial sum and
//! phase 2 the true cost vector. Anti-cycling falls back to Bland's rule
//! after a run of degenerate pivots.

use super::basis::arena::{grow, refill};
use super::basis::{BitQueue, FactorError, FactorStats, Factorization};
use super::{load_bounds, slack_bounds, Changes, Problem, SimplexOptions, SolverTuning};
use crate::model::{Model, RowData};
use crate::solution::SolveError;
use crate::stats::SessionStats;
use std::time::Instant;

/// Where a nonbasic variable currently rests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NbState {
    Lower,
    Upper,
    /// Free variable parked at zero.
    Free,
}

/// What the ratio test decided.
enum Step {
    /// Entering variable travels to its opposite bound; no basis change.
    BoundFlip { t: f64 },
    /// Basic variable at `position` leaves to `to_upper` after step `t`.
    Pivot { t: f64, position: usize, to_upper: bool },
    /// No finite blocking bound: the problem is unbounded.
    Unbounded,
}

/// Every buffer a solve needs, kept by the caller between solves so a
/// re-solve allocates nothing. A solve leaves its result in `x`, `y`,
/// `basis` and `nb`; a cold solve overwrites everything before reading
/// (only `stamp`, and `w` and `rho` being zero outside their nonzero lists,
/// are invariants), a solve that carries (`owner`) continues from `basis`,
/// `pos_of`, `nb`, `x`, `lb`, `ub`, `d`, `y` and the factors as they stand.
#[derive(Debug, Clone, Default)]
pub(crate) struct Workspace {
    /// Stamp of the solve whose terminal state this workspace holds, `0`
    /// for none, with that solve's row and structural-column counts.
    pub owner: u64,
    pub owner_m: usize,
    pub owner_nstruct: usize,
    /// Bounds of every column: loaded from the model before a cold solve,
    /// carried and updated where the model changed before a warm one. They
    /// are solve state — the warm start boxes columns, the crash opens
    /// artificials — so they live here, not in the resident [`Problem`].
    pub lb: Vec<f64>,
    pub ub: Vec<f64>,
    /// The columns a carried start moved to new bounds or appended,
    /// ascending: the only nonbasic columns it re-rests, and the only ones
    /// `box_dual_infeasible` judges unless it judges every column.
    moved: Vec<u32>,
    /// The optimality tolerance under which the terminal state holds no
    /// eligible column (the polish ended on an exact reprice and `finish`
    /// certified without refactorizing); `None` when it ended otherwise.
    screened: Option<f64>,
    /// Basic column per row position.
    basis: Vec<usize>,
    /// Column -> basis position, or -1 when nonbasic.
    pos_of: Vec<i32>,
    /// Current value of every column (structurals, slacks, artificials).
    pub x: Vec<f64>,
    /// Rest state of every column (meaningful for nonbasic ones).
    nb: Vec<NbState>,
    pub factor: Factorization,
    /// FTRAN of the entering column by basis position, zero outside `w_nz`
    /// (its nonzero positions, ascending).
    w: Vec<f64>,
    w_nz: Vec<u32>,
    /// Row duals for the internal minimization problem.
    pub y: Vec<f64>,
    // --- pricing state ----------------------------------------------------
    /// Maintained reduced cost per column: exact after `reprice`, updated
    /// from the pivot row after each pivot. Basic entries are stale.
    d: Vec<f64>,
    /// Devex reference-framework weight per column.
    gamma: Vec<f64>,
    /// The entering set: every column [`Workspace::eligible`] accepts, and
    /// maybe some it no longer does. `reprice` rebuilds it exactly; a
    /// pivot inserts every column whose `d` it moves, unjudged, and the
    /// pricing sweep drops a member that fails `eligible` when it visits
    /// it — so a pivot pays one bit per touched column, and the sweep
    /// judges members only. The dual loop's pivots leave it stale; the
    /// primal loop reprices before it prices.
    entering: BitQueue,
    /// Candidate shortlist for partial pricing.
    candidates: Vec<u32>,
    /// Membership flags for `candidates`.
    in_cands: Vec<bool>,
    /// The shortlist trim's `(Devex score, column)` buffer.
    scored: Vec<(f64, u32)>,
    // --- scratch ----------------------------------------------------------
    /// Basic cost vector for BTRAN (hoisted out of the iteration loop).
    cb: Vec<f64>,
    /// Pivot row of B⁻¹ in original row coordinates, zero outside `rho_nz`
    /// (its nonzero rows, ascending).
    rho: Vec<f64>,
    rho_nz: Vec<u32>,
    /// Pivot-row entries `alpha_j = rho · a_j`, valid where
    /// `alpha_stamp[j] == stamp`; `stamp` only ever grows.
    alpha: Vec<f64>,
    alpha_stamp: Vec<u64>,
    alpha_touched: Vec<u32>,
    stamp: u64,
    /// Right-hand side and solution of the `x_B` solve in `refactor`.
    resid: Vec<f64>,
    xb: Vec<f64>,
    /// An appended row's entries in the basic columns, `(basis position,
    /// value)`, as `State::inherit` borders the factors with it.
    border: Vec<(u32, f64)>,
    /// Bounds saved by `box_dual_infeasible`: `(column, lb, ub)`.
    boxed: Vec<(usize, f64, f64)>,
    /// Dual ratio-test candidates of the current pivot row:
    /// `(column, alpha, ratio)`.
    dual_cands: Vec<(u32, f64, f64)>,
    /// The dual loop's leaving-row candidates: exactly the basis positions
    /// whose value violates a bound by more than `feas_tol`.
    infeasible: BitQueue,
}

pub(crate) struct State<'a> {
    p: &'a Problem,
    /// Row-major mirror of the structural matrix (the model's own row
    /// storage, terms sorted by column), for sparse pivot-row passes. Slack
    /// and artificial entries are implicit.
    rows: &'a [RowData],
    opts: &'a SimplexOptions,
    ws: &'a mut Workspace,
    /// Counters so far (the factorization's are folded in by `finish`).
    stats: SessionStats,
    /// `box_dual_infeasible` judges every column, not only
    /// `Workspace::moved`: the carried start repriced, or the last solve
    /// did not end screened.
    screen_all: bool,
    max_iterations: u64,
    degenerate_run: u32,
    /// Cyclic column cursor for partial pricing sections.
    cursor: usize,
    /// No pivot since the last full reprice: the maintained reduced costs
    /// are exact, so an empty pricing result is a certified optimum.
    fresh: bool,
    /// Nothing moved since the last refactorization — no pivot, no bound
    /// flip — so the factors and `x_B` are already what refactorizing the
    /// current basis would produce.
    settled: bool,
    /// The factorization's lifetime counters when this solve began.
    factor_before: FactorStats,
}

const ZTOL: f64 = 1e-11;
/// Residual certificate of a terminal `(x, y)`, relative: a basic column's
/// reduced cost against `1 + |c_k|`, a row's `b_i − (A·x)_i` against
/// `1 + |b_i|`.
const CERT_DUAL_TOL: f64 = 1e-9;
const CERT_PRIMAL_TOL: f64 = 1e-9;
const DEGEN_STEP: f64 = 1e-10;

/// Partial pricing: the column range is scanned in sections of
/// `max(n / SECTIONS, SECTION_MIN)` columns.
const SECTIONS: usize = 16;
const SECTION_MIN: usize = 64;
/// Keep sweeping extra sections while the shortlist holds fewer
/// candidates than this …
const CANDS_MIN: usize = 8;
/// … and trim it back to the best-scoring this many when it overflows.
const CANDS_MAX: usize = 64;

/// The Devex pricing score `d² / γ` of a column with reduced cost `d` and
/// reference weight `gamma`.
#[inline]
fn devex_score(d: f64, gamma: f64) -> f64 {
    d * d / gamma
}

/// Partition `scored` (`(score, column)` pairs) so its first `keep` entries
/// are the best `keep` by score descending, ties to the lower column — the
/// set a sort on that key would put first, in no particular order.
/// `O(len)` expected, against the sort's `O(len log len)`.
fn keep_best(scored: &mut [(f64, u32)], keep: usize) {
    if keep < scored.len() {
        scored.select_nth_unstable_by(keep, |a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    }
}

pub(crate) fn run(
    problem: &mut Problem,
    rows: &[RowData],
    opts: &SimplexOptions,
    tuning: SolverTuning,
    ws: &mut Workspace,
    row_name: impl Fn(usize) -> String,
    var_name: impl Fn(usize) -> String,
) -> Result<SessionStats, SolveError> {
    let n = problem.n;

    // --- crash: place nonbasics at bounds, pick slack or artificial basis --
    let (x, nb) = (&mut ws.x, &mut ws.nb);
    refill(x, n, 0.0);
    refill(nb, n, NbState::Lower);
    for j in 0..problem.art_start {
        if ws.lb[j].is_finite() {
            x[j] = ws.lb[j];
            nb[j] = NbState::Lower;
        } else if ws.ub[j].is_finite() {
            x[j] = ws.ub[j];
            nb[j] = NbState::Upper;
        } else {
            x[j] = 0.0;
            nb[j] = NbState::Free;
        }
    }
    // Residual b - A·x over nonbasic structurals (slacks rest at 0).
    let mut beta = problem.b.clone();
    for (j, &xj) in x.iter().enumerate().take(problem.nstruct) {
        if xj != 0.0 {
            for &(i, v) in problem.cols.get(j) {
                beta[i as usize] -= v * xj;
            }
        }
    }
    ws.basis.clear();
    refill(&mut ws.pos_of, n, -1);
    let mut need_phase1 = false;
    for (i, &beta_i) in beta.iter().enumerate() {
        let s = problem.slack_start + i;
        let k = if beta_i >= ws.lb[s] - opts.feas_tol && beta_i <= ws.ub[s] + opts.feas_tol {
            x[s] = beta_i;
            s
        } else {
            let a = problem.art_start + i;
            problem.art_sign[i] = if beta_i >= 0.0 { 1.0 } else { -1.0 };
            ws.ub[a] = f64::INFINITY;
            x[a] = beta_i.abs();
            need_phase1 = true;
            a
        };
        ws.basis.push(k);
        ws.pos_of[k] = i as i32;
    }

    let p = &*problem; // fixed from here on: only the workspace moves
    let mut st = State::new(p, rows, opts, tuning, ws);
    st.refactor().map_err(|e| numerical(e, &row_name))?;

    // --- phase 1 ----------------------------------------------------------
    if need_phase1 {
        let phase1_cost: Vec<f64> = (0..n)
            .map(|j| if j >= st.p.art_start && st.ws.ub[j] > 0.0 { 1.0 } else { 0.0 })
            .collect();
        st.iterate(&phase1_cost, true, &var_name, &row_name)?;
        let residual: f64 = (st.p.art_start..n).map(|j| st.ws.x[j].max(0.0)).sum();
        let scale = 1.0 + st.p.b.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        if residual > st.opts.feas_tol * scale {
            return Err(SolveError::Infeasible { residual });
        }
    }
    // Close all artificials for phase 2 and snap them to zero (a basic one
    // may move, so the factors' `x_B` is no longer current).
    for j in st.p.art_start..n {
        st.ws.ub[j] = 0.0;
        st.ws.x[j] = 0.0;
    }
    st.settled = false;

    // --- phase 2 ----------------------------------------------------------
    st.iterate(&p.cost, false, &var_name, &row_name)?;
    let out = st.finish(&p.cost, &row_name, &var_name);
    // The crash's signs go with this solve: a carried start prices the
    // artificials positive (`State::inherit`), and `Problem::sync` appends
    // to the form as it is left here.
    problem.art_sign.fill(1.0);
    out
}

/// Re-optimize from a known basis instead of crashing one, first stage:
/// a checked basis with factors and `x_B`, every nonbasic column at rest on
/// a bound, for [`State::reoptimize`] to finish.
///
/// `ws` holds the terminal state of this session's previous solve, of a
/// problem that has only grown since into `problem`, its other changes in
/// `changes` (`model` is the model `problem` is the standard form of). The
/// start *carries* it, paying for what changed rather than for the whole
/// LP: it moves the state to the grown column layout
/// ([`Workspace::regrow`]), loads the bounds of the appended and logged
/// columns and re-rests those of them that are nonbasic; it inherits `d`
/// and `y` (an appended row's dual is 0, so only the appended columns are
/// priced) — or reprices in full when an old column's cost moved —
/// borders the factors with the appended rows, their slacks basic, and
/// takes `x_B` from one FTRAN. Debug assertions check every nonbasic
/// column at rest and the bounds against a full reload.
///
/// Any structural problem with the carried basis (a basic artificial, wrong
/// size, duplicate columns, singular matrix) is reported as an error; the
/// caller falls back to a cold [`run`].
pub(crate) fn warm_state<'a>(
    problem: &'a Problem,
    model: &'a Model,
    changes: &Changes,
    opts: &'a SimplexOptions,
    tuning: SolverTuning,
    ws: &'a mut Workspace,
    row_name: &impl Fn(usize) -> String,
) -> Result<State<'a>, SolveError> {
    let (m, n) = (problem.m, problem.n);
    let (m0, ns0) = (ws.owner_m, ws.owner_nstruct);
    if !ws.regrow(problem) {
        return Err(SolveError::Numerical("carried basis holds an artificial".into()));
    }
    if ws.basis.len() != m || ws.nb.len() != n {
        return Err(SolveError::Numerical("warm basis has wrong dimensions".into()));
    }
    if ws.basis.iter().enumerate().any(|(i, &k)| k >= n || ws.pos_of[k] != i as i32) {
        return Err(SolveError::Numerical("warm basis references invalid columns".into()));
    }
    debug_assert_eq!(ws.pos_of.iter().filter(|&&pos| pos >= 0).count(), m, "stray basic column");
    // The columns whose bounds moved, then the appended ones: load their
    // bounds, and the appended slacks', and rest the nonbasic ones on a
    // bound consistent with them. Every other nonbasic column is still at
    // the rest the last solve left it, under the same bounds.
    ws.moved.clear();
    ws.moved.extend(changes.bounds.iter().filter(|&&j| (j as usize) < ns0));
    ws.moved.sort_unstable();
    ws.moved.dedup();
    ws.moved.extend(ns0 as u32..problem.nstruct as u32);
    for idx in 0..ws.moved.len() {
        let j = ws.moved[idx] as usize;
        (ws.lb[j], ws.ub[j]) = (model.vars[j].lb, model.vars[j].ub);
        if ws.pos_of[j] < 0 {
            (ws.nb[j], ws.x[j]) = ws.rest_of(j);
        }
    }
    for (i, row) in model.rows.iter().enumerate().skip(m0) {
        let s = problem.slack_start + i;
        (ws.lb[s], ws.ub[s]) = slack_bounds(row.cmp);
    }
    debug_assert!(
        {
            let mut full = Workspace::default();
            load_bounds(model, &mut full);
            (full.lb, full.ub) == (ws.lb.clone(), ws.ub.clone())
        },
        "carried bounds differ from a reload"
    );
    debug_assert!(
        (0..n).all(|j| ws.pos_of[j] >= 0 || {
            let (state, x) = ws.rest_of(j);
            (state, x.to_bits()) == (ws.nb[j], ws.x[j].to_bits())
        }),
        "a nonbasic column is off the rest a full pass gives it"
    );

    let reprice = !changes.costs.is_empty();
    let screen_all = reprice || ws.screened != Some(opts.opt_tol);
    let mut st = State::new(problem, &model.rows, opts, tuning, ws);
    st.screen_all = screen_all;
    st.inherit(&problem.cost, reprice).map_err(|e| numerical(e, row_name))?;
    Ok(st)
}

/// Insert `count` copies of `fill` into `v` at `at`.
fn open_gap<T: Clone>(v: &mut Vec<T>, at: usize, count: usize, fill: T) {
    if count > 0 {
        grow(v, v.len() + count, fill);
        v[at..].rotate_right(count);
    }
}

impl Workspace {
    /// Is nonbasic column `j` eligible to enter, judged on the maintained
    /// reduced cost `d[j]` against the optimality tolerance `tol`: below
    /// `-tol` at a lower bound, above `tol` at an upper one, either when
    /// free?
    #[inline]
    fn eligible(&self, j: usize, tol: f64) -> bool {
        let (d, nb) = (self.d[j], self.nb[j]);
        // Non-short-circuit: no branch on the sign tests, which `reprice`
        // makes for every column.
        let improves = ((d < -tol) & (nb != NbState::Upper)) | ((d > tol) & (nb != NbState::Lower));
        improves && self.pos_of[j] < 0 && self.lb[j] != self.ub[j]
    }

    /// Where nonbasic column `j` rests under its current bounds: on the
    /// side it rested on when that bound is finite, else on a finite one,
    /// else free at zero.
    fn rest_of(&self, j: usize) -> (NbState, f64) {
        let (lb, ub) = (self.lb[j], self.ub[j]);
        match self.nb[j] {
            NbState::Lower if lb.is_finite() => (NbState::Lower, lb),
            NbState::Upper if ub.is_finite() => (NbState::Upper, ub),
            _ if lb.is_finite() => (NbState::Lower, lb),
            _ if ub.is_finite() => (NbState::Upper, ub),
            _ => (NbState::Free, 0.0),
        }
    }

    /// Shortlist the eligible members of the entering set in `lo..hi` that
    /// are not on the list yet, in ascending order, and drop the members
    /// that are not eligible; returns how many members it visited.
    fn admit(&mut self, lo: usize, hi: usize, tol: f64) -> u64 {
        let (mut from, mut visited) = (lo, 0);
        while let Some(j) = self.entering.next(from).filter(|&j| j < hi) {
            from = j + 1;
            visited += 1;
            if !self.eligible(j, tol) {
                self.entering.remove(j);
            } else if !self.in_cands[j] {
                self.in_cands[j] = true;
                self.candidates.push(j as u32);
            }
        }
        visited
    }

    /// Move the terminal state of the solve that owns this workspace —
    /// `basis`, `pos_of`, `nb`, `x`, `lb`, `ub`, `d` and `y` — to the
    /// column layout of `p`, the same problem grown by `dn` structurals and
    /// `dm` rows: the new structurals open a gap before the slacks
    /// (nonbasic, bounds and `d` for the caller to load and price), each new
    /// row seats its slack basic with a zero dual and closes its
    /// artificial. Returns `false`, with nothing moved, when an artificial
    /// is basic (its crash-time sign went with the previous standard form).
    fn regrow(&mut self, p: &Problem) -> bool {
        let (m0, ns0) = (self.owner_m, self.owner_nstruct);
        let (dm, dn) = (p.m - m0, p.nstruct - ns0);
        let n0 = ns0 + 2 * m0;
        debug_assert!(
            [self.nb.len(), self.d.len(), self.x.len(), self.pos_of.len(), self.lb.len()]
                .iter()
                .all(|&len| len == n0)
                && (self.ub.len(), self.y.len()) == (n0, m0)
        );
        if self.basis.iter().any(|&k| k >= ns0 + m0) {
            return false;
        }
        for k in self.basis.iter_mut().filter(|k| **k >= ns0) {
            *k += dn;
        }
        self.basis.extend((m0..p.m).map(|i| p.slack_start + i));
        for (at, count) in [(ns0, dn), (p.slack_start + m0, dm), (p.art_start + m0, dm)] {
            open_gap(&mut self.nb, at, count, NbState::Lower);
            open_gap(&mut self.d, at, count, 0.0);
            open_gap(&mut self.x, at, count, 0.0);
            open_gap(&mut self.pos_of, at, count, -1);
            open_gap(&mut self.lb, at, count, 0.0);
            open_gap(&mut self.ub, at, count, 0.0);
        }
        for i in m0..p.m {
            self.pos_of[p.slack_start + i] = i as i32;
        }
        grow(&mut self.y, p.m, 0.0);
        true
    }
}

fn numerical(e: FactorError, row_name: &impl Fn(usize) -> String) -> SolveError {
    match e {
        FactorError::Singular { position } => SolveError::Numerical(format!(
            "singular basis at elimination step {position} (row {})",
            row_name(position)
        )),
    }
}

impl<'a> State<'a> {
    fn new(
        p: &'a Problem,
        rows: &'a [RowData],
        opts: &'a SimplexOptions,
        tuning: SolverTuning,
        ws: &'a mut Workspace,
    ) -> Self {
        let max_iterations = if opts.max_iterations > 0 {
            opts.max_iterations
        } else {
            20_000 + 100 * (p.m as u64 + p.nstruct as u64)
        };
        ws.factor.set_limits(tuning.max_etas, opts.pivot_tol);
        let factor_before = ws.factor.stats();
        State {
            p,
            rows,
            opts,
            ws,
            stats: SessionStats::default(),
            screen_all: true,
            max_iterations,
            degenerate_run: 0,
            cursor: 0,
            fresh: false,
            settled: false,
            factor_before,
        }
    }

    /// The rest of a warm solve once [`warm_state`] has factorized the start
    /// basis. The start point is classified and the cheapest repair is run:
    ///
    /// * basic values within bounds → primal phase 2 directly (objective-only
    ///   changes keep the basis primal feasible);
    /// * primal infeasible → dual simplex drives the basic values back inside
    ///   their bounds without losing dual feasibility (RHS / bound changes and
    ///   appended cutting rows land here), then a primal phase-2 polish mops
    ///   up any residual reduced-cost violations. Nonbasic columns whose
    ///   reduced cost has the wrong sign (e.g. freshly added variables) are
    ///   temporarily fixed at their rest value so the dual iteration starts
    ///   dual feasible, and released for the polish.
    ///
    /// Returns the solve's ledger plus whether the dual simplex was needed.
    pub(crate) fn reoptimize(
        &mut self,
        cost: &[f64],
        row_name: &impl Fn(usize) -> String,
        var_name: &impl Fn(usize) -> String,
    ) -> Result<(SessionStats, bool), SolveError> {
        let feas = self.opts.feas_tol;
        let ws = &*self.ws;
        let primal_feasible =
            ws.basis.iter().all(|&k| ws.x[k] >= ws.lb[k] - feas && ws.x[k] <= ws.ub[k] + feas);
        if !primal_feasible {
            // Box away dual-infeasible nonbasics so the dual simplex starts from
            // a dual-feasible point; the primal polish below reconsiders them.
            self.box_dual_infeasible();
            let result = self.dual_iterate(cost, row_name);
            for idx in 0..self.ws.boxed.len() {
                let (j, lb, ub) = self.ws.boxed[idx];
                self.ws.lb[j] = lb;
                self.ws.ub[j] = ub;
            }
            match result {
                Ok(()) => {}
                Err(SolveError::Infeasible { residual }) if self.ws.boxed.is_empty() => {
                    // Nothing was boxed, so the verdict applies to the original
                    // problem: no entering column can repair the violated row.
                    return Err(SolveError::Infeasible { residual });
                }
                Err(_) => {
                    // With columns boxed the verdict only covers the restricted
                    // problem — let the caller re-solve cold for an authoritative
                    // answer.
                    return Err(SolveError::Numerical(
                        "dual warm start failed on the restricted problem".into(),
                    ));
                }
            }
        }
        // Primal phase 2: a no-op when the dual pass already reached optimality,
        // otherwise it repairs reduced-cost violations (objective changes, newly
        // added columns, boxed columns released above).
        self.iterate(cost, false, var_name, row_name)?;
        Ok((self.finish(cost, row_name, var_name)?, !primal_feasible))
    }

    /// The carried first stage of [`warm_state`], once [`Workspace::regrow`]
    /// has moved the previous solve's state to this problem's layout: border
    /// the factors with the appended rows — or refactorize, when the update
    /// file has no room for them — and solve for `x_B`; then price the
    /// appended columns against the inherited duals and reset the Devex
    /// framework and the candidate list as a `reprice` would, or, when
    /// `reprice` is set (an old column's cost moved, so the inherited `d`
    /// and `y` are stale), run that full `reprice`.
    fn inherit(&mut self, cost: &[f64], reprice: bool) -> Result<(), FactorError> {
        self.ensure_scratch();
        let (p, ws) = (self.p, &mut *self.ws);
        let m0 = ws.owner_m;
        if p.m - m0 >= ws.factor.updates_left() {
            self.refactor()?;
        } else {
            let (row, pos_of) = (&mut ws.border, &ws.pos_of);
            for terms in self.rows[m0..].iter().map(|r| &r.terms) {
                row.clear();
                row.extend(terms.iter().filter_map(|&(j, v)| {
                    u32::try_from(pos_of[j as usize]).ok().map(|pos| (pos, v))
                }));
                ws.factor.append_row(row);
            }
            self.solve_basics();
        }
        if reprice {
            self.reprice(cost);
            return Ok(());
        }
        let (p, ws) = (self.p, &mut *self.ws);
        for j in ws.owner_nstruct..p.nstruct {
            ws.d[j] = p.reduced_cost(j, cost, &ws.y);
        }
        // The artificials are closed and positive again (`Problem::sync`).
        for (i, &yi) in ws.y.iter().enumerate() {
            ws.d[p.art_start + i] = -yi;
        }
        ws.gamma.fill(1.0);
        self.clear_candidates();
        Ok(())
    }

    /// Terminal `x_B` and duals. Whatever moved since the last
    /// refactorization, the factors are not rebuilt to recompute them: the
    /// pair in hand is accepted when it satisfies the problem's own
    /// equations (`certified`), and only a failed certificate pays for a
    /// refactorization — after which the primal loop runs again from the
    /// exact reprice it starts with, since those prices may expose an
    /// eligible column the maintained ones hid, until the pair certifies.
    /// The ledger handed back folds in the factorization's work since this
    /// solve began (the factorization itself may be older).
    fn finish(
        &mut self,
        cost: &[f64],
        row_name: &impl Fn(usize) -> String,
        var_name: &impl Fn(usize) -> String,
    ) -> Result<SessionStats, SolveError> {
        loop {
            if !self.fresh {
                self.solve_duals(cost);
            }
            if self.settled || self.certified(cost) {
                break;
            }
            self.refactor().map_err(|e| numerical(e, row_name))?;
            self.stats.terminal_refactors += 1;
            self.iterate(cost, false, var_name, row_name)?;
        }
        self.ws.screened = (self.stats.terminal_refactors == 0).then_some(self.opts.opt_tol);
        let fs = self.ws.factor.stats().since(self.factor_before);
        Ok(SessionStats {
            refactors: fs.refactors,
            basis_nnz: fs.basis_nnz,
            factor_nnz: fs.factor_nnz,
            ft_updates: fs.ft_updates,
            pivot_rejections: fs.pivot_rejections,
            btrans: fs.btrans,
            bordered_rows: fs.bordered_rows,
            ..self.stats
        })
    }

    /// `y = c_B B⁻¹` by BTRAN.
    fn solve_duals(&mut self, cost: &[f64]) {
        let ws = &mut *self.ws;
        ws.cb.clear();
        ws.cb.extend(ws.basis.iter().map(|&k| cost[k]));
        ws.factor.btran(&ws.cb, &mut ws.y);
    }

    /// The residual certificate of the terminal pair, against the problem
    /// data and not the factors that produced it: every basic column's
    /// reduced cost vanishes under `y`, and `A·x = b` row by row. `O(nnz)`.
    fn certified(&mut self, cost: &[f64]) -> bool {
        let (p, ws) = (self.p, &*self.ws);
        let dual = |&k: &usize| {
            p.reduced_cost(k, cost, &ws.y).abs() <= CERT_DUAL_TOL * (1.0 + cost[k].abs())
        };
        if !ws.basis.iter().all(dual) {
            return false;
        }
        self.residual(true);
        let (r, b) = (&self.ws.resid, &self.p.b);
        r.iter().zip(b).all(|(ri, bi)| ri.abs() <= CERT_PRIMAL_TOL * (1.0 + bi.abs()))
    }

    /// `resid = b − Σ x_j·a_j`, over every column or the nonbasic ones only.
    fn residual(&mut self, with_basics: bool) {
        let (p, ws) = (self.p, &mut *self.ws);
        let r = &mut ws.resid;
        r.clear();
        r.extend_from_slice(&p.b);
        for (j, &xj) in ws.x.iter().enumerate() {
            if xj != 0.0 && (with_basics || ws.pos_of[j] < 0) {
                p.with_col(j, |col| col.iter().for_each(|&(i, v)| r[i as usize] -= v * xj));
            }
        }
    }

    /// Add one pricing call's wall clock to the solve's pricing wall.
    fn note_pricing_wall(&mut self, t0: Instant) {
        self.stats.pricing_serial_nanos += t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    }

    /// Size the pricing/pivot-row scratch buffers for the current problem
    /// dimensions (idempotent).
    fn ensure_scratch(&mut self) {
        let n = self.p.n;
        grow(&mut self.ws.alpha, n, 0.0);
        grow(&mut self.ws.alpha_stamp, n, 0);
        grow(&mut self.ws.d, n, 0.0);
        grow(&mut self.ws.gamma, n, 1.0);
        grow(&mut self.ws.in_cands, n, false);
    }

    /// Rebuild the LU factorization from the current basis and refresh the
    /// basic variable values from scratch (removes accumulated drift).
    fn refactor(&mut self) -> Result<(), FactorError> {
        let (p, ws) = (self.p, &mut *self.ws);
        let basis = &ws.basis;
        ws.factor.refactor_with(p.m, |pos, sink| p.with_col(basis[pos], sink))?;
        self.solve_basics();
        self.settled = true;
        Ok(())
    }

    /// `x_B = B⁻¹ (b - N x_N)` by FTRAN.
    fn solve_basics(&mut self) {
        self.residual(false);
        let ws = &mut *self.ws;
        ws.factor.ftran_dense(&ws.resid, &mut ws.xb);
        for (pos, &k) in ws.basis.iter().enumerate() {
            ws.x[k] = ws.xb[pos];
        }
    }

    /// Run simplex iterations with the given cost vector until optimal.
    fn iterate(
        &mut self,
        cost: &[f64],
        phase1: bool,
        var_name: &impl Fn(usize) -> String,
        row_name: &impl Fn(usize) -> String,
    ) -> Result<(), SolveError> {
        // Exact `y` and `d` to start from; pivots maintain them from the
        // pivot rows.
        self.reprice(cost);
        loop {
            if self.stats.iterations >= self.max_iterations {
                return Err(SolveError::IterationLimit { iterations: self.stats.iterations });
            }
            if self.ws.factor.wants_refactor() {
                self.refactor().map_err(|e| numerical(e, row_name))?;
                // The refactor cadence doubles as the pricing drift guard.
                self.reprice(cost);
            }
            let bland = self.degenerate_run > self.opts.bland_trigger;
            let picked = if bland { self.price_bland() } else { self.price_partial() };
            let Some((j, d)) = picked else {
                if !self.fresh {
                    // Maintained reduced costs may have drifted since the
                    // last factorization: certify optimality against exact
                    // values before declaring this phase done. Terminates
                    // because the repriced costs are exact (`fresh`).
                    self.refactor().map_err(|e| numerical(e, row_name))?;
                    self.reprice(cost);
                    continue;
                }
                return Ok(()); // optimal for this phase
            };
            if bland {
                self.stats.bland_pivots += 1;
            }
            // Direction of travel for the entering variable.
            let sigma = match self.ws.nb[j] {
                NbState::Lower => 1.0,
                NbState::Upper => -1.0,
                NbState::Free => {
                    if d < 0.0 {
                        1.0
                    } else {
                        -1.0
                    }
                }
            };
            self.ftran_column(j);
            match self.ratio_test(j, sigma, bland) {
                Step::Unbounded => {
                    if phase1 {
                        return Err(SolveError::Numerical(
                            "phase-1 objective unbounded (internal error)".into(),
                        ));
                    }
                    return Err(SolveError::Unbounded { var: var_name(j.min(self.p.nstruct)) });
                }
                Step::BoundFlip { t } => {
                    // No basis change: `y` and `d` stay exact as-is.
                    self.settled = false;
                    self.apply_step(sigma, t);
                    self.ws.x[j] = if sigma > 0.0 { self.ws.ub[j] } else { self.ws.lb[j] };
                    self.ws.nb[j] = if sigma > 0.0 { NbState::Upper } else { NbState::Lower };
                    // It entered on the sign its new bound rules out.
                    self.ws.entering.remove(j);
                    self.note_step(t);
                }
                Step::Pivot { t, position, to_upper } => {
                    // Needs the pre-pivot factorization, duals, and basis
                    // bookkeeping: must run before any of the updates below.
                    self.pivot_update(j, position);
                    self.settled = false;
                    self.apply_step(sigma, t);
                    let entering_value = self.ws.x[j] + sigma * t;
                    let leaving = self.ws.basis[position];
                    // Snap the leaving variable exactly onto its bound.
                    self.ws.x[leaving] =
                        if to_upper { self.ws.ub[leaving] } else { self.ws.lb[leaving] };
                    self.ws.nb[leaving] = if to_upper { NbState::Upper } else { NbState::Lower };
                    self.ws.pos_of[leaving] = -1;
                    self.ws.basis[position] = j;
                    self.ws.pos_of[j] = position as i32;
                    self.ws.x[j] = entering_value;
                    self.ws.entering.remove(j);
                    self.ws.entering.insert(leaving);
                    if !self.ws.factor.update(position) {
                        // Pivot too small for a stable eta: rebuild and, if
                        // the basis went bad, surface a numerical error.
                        self.refactor().map_err(|e| numerical(e, row_name))?;
                        self.reprice(cost);
                    }
                    self.note_step(t);
                }
            }
            self.stats.iterations += 1;
        }
    }

    /// Full pricing reset: recompute `y = c_B B⁻¹` and every reduced cost
    /// exactly, rebuild the entering set in the same pass, and reset the
    /// Devex reference framework (all weights back to 1) and the candidate
    /// list.
    fn reprice(&mut self, cost: &[f64]) {
        self.ensure_scratch();
        self.ws.cb.clear();
        self.ws.cb.extend(self.ws.basis.iter().map(|&k| cost[k]));
        {
            let (factor, cb, y) = (&mut self.ws.factor, &self.ws.cb, &mut self.ws.y);
            factor.btran(cb, y);
        }
        let t0 = Instant::now();
        let (p, ws, tol) = (self.p, &mut *self.ws, self.opts.opt_tol);
        let n = p.n;
        // Out of the workspace while the closure writes `d`; the words move
        // back, nothing allocates.
        let mut entering = std::mem::take(&mut ws.entering);
        entering.rebuild(n, |j| {
            ws.d[j] = p.reduced_cost(j, cost, &ws.y);
            ws.eligible(j, tol)
        });
        ws.entering = entering;
        for g in self.ws.gamma.iter_mut() {
            *g = 1.0;
        }
        self.note_pricing_wall(t0);
        self.clear_candidates();
        self.stats.pricing_scans += n as u64;
        self.fresh = true;
    }

    /// Empty the partial-pricing shortlist.
    fn clear_candidates(&mut self) {
        self.ws.candidates.clear();
        self.ws.in_cands.fill(false);
    }

    /// Does the entering set hold every column [`Workspace::eligible`]
    /// accepts? `O(n)`: for assertions.
    fn entering_covers_eligible(&self) -> bool {
        (0..self.p.n)
            .all(|j| self.ws.entering.contains(j) || !self.ws.eligible(j, self.opts.opt_tol))
    }

    /// FTRAN column `j` into `w`.
    fn ftran_column(&mut self, j: usize) {
        let (factor, w, w_nz) = (&mut self.ws.factor, &mut self.ws.w, &mut self.ws.w_nz);
        self.p.with_col(j, |col| factor.ftran(col, w, w_nz));
    }

    /// Row `position` of `B⁻¹` into `rho` (original row coordinates), and
    /// the sparse pivot row `alpha_j = rho · a_j` for every column with
    /// support in a row where `rho` is nonzero: structural terms come from
    /// the row-major mirror, the slack for row `i` is implicit with
    /// coefficient 1, and the artificial (when opened by the crash) carries
    /// its crash-time sign. Entries are valid where
    /// `alpha_stamp[j] == stamp`; `alpha_touched` lists them.
    fn pivot_row_pass(&mut self, position: usize) {
        let ws = &mut *self.ws;
        ws.factor.btran_row(position, &mut ws.rho, &mut ws.rho_nz);
        ws.stamp += 1;
        let stamp = ws.stamp;
        ws.alpha_touched.clear();
        for &i in &ws.rho_nz {
            let (i, rv) = (i as usize, ws.rho[i as usize]);
            for &(jc, v) in &self.rows[i].terms {
                let j = jc as usize;
                if ws.alpha_stamp[j] != stamp {
                    ws.alpha_stamp[j] = stamp;
                    ws.alpha[j] = 0.0;
                    ws.alpha_touched.push(jc);
                }
                ws.alpha[j] += rv * v;
            }
            let s = self.p.slack_start + i;
            ws.alpha_stamp[s] = stamp;
            ws.alpha[s] = rv;
            ws.alpha_touched.push(s as u32);
            let a = self.p.art_start + i;
            ws.alpha_stamp[a] = stamp;
            ws.alpha[a] = rv * self.p.art_sign[i];
            ws.alpha_touched.push(a as u32);
        }
        self.stats.pricing_scans += ws.alpha_touched.len() as u64;
    }

    /// Incremental pricing update for a basis exchange: entering column `q`
    /// (whose FTRAN is already in `ws.w`) replaces the basic variable at
    /// `position`. With `rho` the BTRAN'd pivot row and
    /// `theta_d = d_q / alpha_q`:
    ///
    /// * `d_j ← d_j − theta_d · alpha_j` for every nonbasic `j ≠ q`,
    /// * `d_leaving ← −theta_d` (its pivot-row entry is exactly 1),
    /// * `d_q ← 0`, `y ← y + theta_d · rho`,
    /// * Devex: `γ_j ← max(γ_j, (alpha_j/alpha_q)² γ_q)` for touched `j`,
    ///   and the leaving column gets `max(γ_q/alpha_q², 1)`.
    ///
    /// Every touched nonbasic `j ≠ q` joins the entering set, unjudged; the
    /// bookkeeping after it removes `q` and inserts the leaving column.
    /// Must run before the basis bookkeeping and eta update for this pivot.
    fn pivot_update(&mut self, q: usize, position: usize) {
        self.fresh = false;
        let alpha_q = self.ws.w[position];
        if alpha_q == 0.0 {
            // The eta update will reject this pivot and force a refactor,
            // which reprices from scratch anyway.
            return;
        }
        let theta_d = self.ws.d[q] / alpha_q;
        self.pivot_row_pass(position);
        let gamma_q = self.ws.gamma[q].max(1.0);
        let inv_aq = 1.0 / alpha_q;
        let ws = &mut *self.ws;
        for idx in 0..ws.alpha_touched.len() {
            let j = ws.alpha_touched[idx] as usize;
            if ws.pos_of[j] >= 0 || j == q {
                continue;
            }
            let aj = ws.alpha[j];
            ws.d[j] -= theta_d * aj;
            let r = aj * inv_aq;
            let cand = r * r * gamma_q;
            if cand > ws.gamma[j] {
                ws.gamma[j] = cand;
            }
            ws.entering.insert(j);
        }
        self.shift_duals(theta_d);
        let leaving = self.ws.basis[position];
        self.ws.d[leaving] = -theta_d;
        self.ws.gamma[leaving] = (gamma_q * inv_aq * inv_aq).max(1.0);
        self.ws.d[q] = 0.0;
    }

    /// `y ← y + theta_d · rho` for the pivot row `rho` in hand.
    fn shift_duals(&mut self, theta_d: f64) {
        if theta_d == 0.0 {
            return;
        }
        let ws = &mut *self.ws;
        for &i in &ws.rho_nz {
            ws.y[i as usize] += theta_d * ws.rho[i as usize];
        }
    }

    /// Bland's anti-cycling rule: the smallest-index eligible column, judged
    /// on the maintained `d[j]` (the drift guard in `iterate` re-certifies
    /// before declaring optimality) — the entering set's first eligible
    /// member.
    fn price_bland(&mut self) -> Option<(usize, f64)> {
        debug_assert!(self.entering_covers_eligible(), "an eligible column left the entering set");
        let ws = &mut *self.ws;
        let mut from = 0;
        while let Some(j) = ws.entering.next(from) {
            self.stats.pricing_scans += 1;
            if ws.eligible(j, self.opts.opt_tol) {
                return Some((j, ws.d[j]));
            }
            ws.entering.remove(j);
            from = j + 1;
        }
        None
    }

    /// Partial Devex pricing: prune the candidate shortlist, sweep one
    /// column section past the cursor every call (so every column is
    /// revisited within `SECTIONS` pivots and the shortlist never goes
    /// stale), keep sweeping while the list is thin, trim it to the best
    /// `CANDS_MAX` when it overflows, and pick the best Devex score among
    /// the survivors. The sweep walks the entering set's members in the
    /// section, not the section, so a pivot judges the candidates and the
    /// members of the sections swept (eligible columns and columns whose
    /// `d` moved since the last visit) and reads section / 64 words; the
    /// trim scores each candidate once and selects (`keep_best`) instead of
    /// sorting. A full wrap with an empty shortlist means no eligible
    /// column exists (by the maintained reduced costs).
    fn price_partial(&mut self) -> Option<(usize, f64)> {
        debug_assert!(self.entering_covers_eligible(), "an eligible column left the entering set");
        let t0 = Instant::now();
        let (ws, tol) = (&mut *self.ws, self.opts.opt_tol);
        // Drop candidates that went basic or lost eligibility.
        self.stats.pricing_scans += ws.candidates.len() as u64;
        let mut keep = 0;
        for idx in 0..ws.candidates.len() {
            let j = ws.candidates[idx] as usize;
            if ws.eligible(j, tol) {
                ws.candidates[keep] = ws.candidates[idx];
                keep += 1;
            } else {
                ws.in_cands[j] = false;
            }
        }
        ws.candidates.truncate(keep);
        // Sections of the cyclic column range, in the order a column-by-
        // column sweep would visit them; members join in that order.
        let n = self.p.n;
        let section = (n / SECTIONS).max(SECTION_MIN).min(n);
        let mut scanned = 0usize;
        while scanned < n {
            let len = section.min(n - scanned);
            let end = self.cursor + len;
            let mut visited = ws.admit(self.cursor, end.min(n), tol);
            if end > n {
                visited += ws.admit(0, end - n, tol);
            }
            self.stats.pricing_scans += visited;
            self.cursor = if end >= n { end - n } else { end };
            scanned += len;
            if ws.candidates.len() >= CANDS_MIN {
                break;
            }
        }
        // Trim to the best CANDS_MAX by current Devex score so the
        // shortlist keeps quality, not arrival order. The rank is a pure
        // function of the maintained (d, gamma) state with ties to the
        // lower index, so the surviving set — and hence the pivot
        // sequence — stays deterministic whatever the list's order.
        if ws.candidates.len() > CANDS_MAX {
            ws.scored.clear();
            ws.scored.extend(
                ws.candidates
                    .iter()
                    .map(|&j| (devex_score(ws.d[j as usize], ws.gamma[j as usize]), j)),
            );
            keep_best(&mut ws.scored, CANDS_MAX);
            for &(_, j) in &ws.scored[CANDS_MAX..] {
                ws.in_cands[j as usize] = false;
            }
            ws.candidates.clear();
            ws.candidates.extend(ws.scored[..CANDS_MAX].iter().map(|&(_, j)| j));
        }
        let mut best: Option<(usize, f64)> = None; // (j, score)
        for &j in &ws.candidates {
            let j = j as usize;
            let score = devex_score(ws.d[j], ws.gamma[j]);
            let better = match best {
                None => true,
                // The list's order is arrival and selection order, not
                // ascending: break exact ties by index explicitly.
                Some((bj, bs)) => score > bs || (score == bs && j < bj),
            };
            if better {
                best = Some((j, score));
            }
        }
        self.note_pricing_wall(t0);
        best.map(|(j, _)| (j, self.ws.d[j]))
    }

    /// Move all basic variables along the FTRAN direction by step `t`.
    fn apply_step(&mut self, sigma: f64, t: f64) {
        if t == 0.0 {
            return;
        }
        let ws = &mut *self.ws;
        for &pos in &ws.w_nz {
            let pos = pos as usize;
            ws.x[ws.basis[pos]] -= sigma * t * ws.w[pos];
        }
    }

    fn note_step(&mut self, t: f64) {
        if t <= DEGEN_STEP {
            self.degenerate_run = self.degenerate_run.saturating_add(1);
        } else {
            self.degenerate_run = 0;
        }
    }

    /// Temporarily fix every nonbasic column whose reduced cost violates
    /// dual feasibility at its current rest value — the columns
    /// [`Workspace::eligible`] accepts — saving the bounds in `ws.boxed` so
    /// the caller can restore them. The exact `d` and `y` the carried start
    /// left are what [`State::dual_iterate`] starts from.
    ///
    /// Only the columns the carried start moved or appended are judged,
    /// unless `screen_all`: every other nonbasic column keeps the `d`, rest
    /// state and bounds under which the last solve's polish found it not
    /// eligible, by the same test. A debug assertion compares the boxed set
    /// with a judgement of every column.
    fn box_dual_infeasible(&mut self) {
        let (n, tol) = (self.p.n, self.opts.opt_tol);
        let ws = &mut *self.ws;
        ws.boxed.clear();
        let judge = |ws: &mut Workspace, j: usize| {
            if ws.eligible(j, tol) {
                ws.boxed.push((j, ws.lb[j], ws.ub[j]));
            }
        };
        if self.screen_all {
            (0..n).for_each(|j| judge(ws, j));
        } else {
            for idx in 0..ws.moved.len() {
                judge(ws, ws.moved[idx] as usize);
            }
        }
        debug_assert!(
            ws.boxed.iter().map(|b| b.0).eq((0..n).filter(|&j| ws.eligible(j, tol))),
            "the boxed set differs from a judgement of every column"
        );
        for &(j, ..) in &ws.boxed {
            ws.lb[j] = ws.x[j];
            ws.ub[j] = ws.x[j];
        }
    }

    /// Dual ratio-test candidate: `(alpha_j, |d_j / alpha_j|)` when nonbasic
    /// column `j` of the current pivot row may move in the one direction,
    /// `sigma = -need · sign(alpha_j)`, that takes the leaving variable along
    /// `need` (its value changes by `-t · sigma · alpha_j`).
    fn dual_candidate(&self, j: usize, need: f64) -> Option<(f64, f64)> {
        let ws = &*self.ws;
        if ws.pos_of[j] >= 0 || ws.lb[j] == ws.ub[j] {
            return None;
        }
        let alpha = ws.alpha[j];
        if alpha.abs() <= self.opts.pivot_tol {
            return None;
        }
        let up = need * alpha < 0.0;
        let allowed = match ws.nb[j] {
            NbState::Lower => up,
            NbState::Upper => !up,
            NbState::Free => true,
        };
        allowed.then(|| (alpha, ws.d[j].abs() / alpha.abs()))
    }

    /// Bounded-variable dual simplex: starting from a dual-feasible basis
    /// whose basic values violate their bounds, repeatedly pivot the most
    /// violated basic variable out against the entering column chosen by the
    /// dual ratio test, until primal feasibility is restored.
    ///
    /// Expects exact `d` and `y` (from the carried start) and maintains
    /// them from the pivot row each pivot computes anyway, so a pivot costs
    /// one BTRAN, one FTRAN and work proportional to that row. They are
    /// recomputed after every refactorization in the loop, which bounds
    /// their drift; the caller's primal polish reprices before it certifies
    /// anything. The leaving-row candidates are kept the same way
    /// (`Workspace::infeasible`): recounted after every refactorization,
    /// updated at the positions a pivot moves.
    fn dual_iterate(
        &mut self,
        cost: &[f64],
        row_name: &impl Fn(usize) -> String,
    ) -> Result<(), SolveError> {
        let feas = self.opts.feas_tol;
        let mut recount = true;
        loop {
            if self.stats.iterations >= self.max_iterations {
                return Err(SolveError::IterationLimit { iterations: self.stats.iterations });
            }
            if self.ws.factor.wants_refactor() {
                self.refactor().map_err(|e| numerical(e, row_name))?;
                self.reprice(cost);
                recount = true;
            }
            if std::mem::take(&mut recount) {
                self.ws.infeasible.reset(self.p.m);
                for pos in 0..self.p.m {
                    self.mark_infeasible(pos);
                }
            }
            debug_assert!(
                (0..self.p.m).all(|pos| {
                    let (below, above) = self.violation(pos);
                    self.ws.infeasible.contains(pos) == (below.max(above) > feas)
                }),
                "the infeasible set differs from a recount"
            );
            let bland = self.degenerate_run > self.opts.bland_trigger;
            // Leaving variable: the basic value with the largest bound
            // violation (under Bland's rule, the violated one of smallest
            // index), scanned in position order as a full scan would.
            // `to_lower` records which bound it will land on.
            let mut leave: Option<(usize, f64, bool)> = None; // (pos, viol, to_lower)
            let mut from = 0;
            while let Some(pos) = self.ws.infeasible.next(from) {
                from = pos + 1;
                let k = self.ws.basis[pos];
                let (below, above) = self.violation(pos);
                let v = below.max(above);
                let better = |&(bp, bv, _): &(usize, f64, bool)| {
                    if bland {
                        k < self.ws.basis[bp]
                    } else {
                        v > bv
                    }
                };
                if v > feas && leave.as_ref().is_none_or(better) {
                    leave = Some((pos, v, below >= above));
                }
            }
            let Some((r, viol, to_lower)) = leave else {
                return Ok(()); // primal feasible
            };
            let k = self.ws.basis[r];
            let bound = if to_lower { self.ws.lb[k] } else { self.ws.ub[k] };
            // `need` is the direction the leaving value must move.
            let need = if to_lower { 1.0 } else { -1.0 };
            self.pivot_row_pass(r);
            // Dual ratio test over the pivot row's nonzeros: among columns
            // whose movement drives x_k toward its bound, the one whose
            // reduced cost hits zero first. Ties (ratio within ZTOL of the
            // minimum) go to the largest |alpha|, then the lowest index —
            // under Bland's rule straight to the lowest index — so the
            // choice does not depend on the order the row was built in.
            self.ws.dual_cands.clear();
            let mut min_ratio = f64::INFINITY;
            for idx in 0..self.ws.alpha_touched.len() {
                let j = self.ws.alpha_touched[idx];
                if let Some((alpha, ratio)) = self.dual_candidate(j as usize, need) {
                    min_ratio = min_ratio.min(ratio);
                    self.ws.dual_cands.push((j, alpha, ratio));
                }
            }
            let mut enter: Option<(u32, f64)> = None; // (j, alpha)
            for &(j, alpha, ratio) in &self.ws.dual_cands {
                let better = |&(bj, ba): &(u32, f64)| {
                    let (a, b) = (alpha.abs(), ba.abs());
                    if bland || a == b {
                        j < bj
                    } else {
                        a > b
                    }
                };
                if ratio <= min_ratio + ZTOL && enter.as_ref().is_none_or(better) {
                    enter = Some((j, alpha));
                }
            }
            let Some((q, alpha)) = enter else {
                // No column can repair the violated row: primal infeasible.
                return Err(SolveError::Infeasible { residual: viol });
            };
            if bland {
                self.stats.bland_pivots += 1;
            }
            let (q, sigma) = (q as usize, -need * alpha.signum());
            // Dual step, and the reduced costs and duals it moves: the same
            // update `pivot_update` makes for a primal pivot. A degenerate
            // step moves none of them.
            let theta_d = self.ws.d[q] / alpha;
            if theta_d == 0.0 {
                self.stats.dual_degenerate += 1;
            } else {
                for idx in 0..self.ws.alpha_touched.len() {
                    let j = self.ws.alpha_touched[idx] as usize;
                    if self.ws.pos_of[j] < 0 {
                        self.ws.d[j] -= theta_d * self.ws.alpha[j];
                    }
                }
            }
            self.shift_duals(theta_d);
            self.ws.d[k] = -theta_d;
            self.ws.d[q] = 0.0;
            self.fresh = false;
            // Step that lands the leaving variable exactly on its bound.
            let t = ((self.ws.x[k] - bound) / (sigma * alpha)).max(0.0);
            self.settled = false;
            self.ftran_column(q);
            self.apply_step(sigma, t);
            let entering_value = self.ws.x[q] + sigma * t;
            self.ws.x[k] = bound;
            self.ws.nb[k] = if to_lower { NbState::Lower } else { NbState::Upper };
            self.ws.pos_of[k] = -1;
            self.ws.basis[r] = q;
            self.ws.pos_of[q] = r as i32;
            self.ws.x[q] = entering_value;
            if self.ws.factor.update(r) {
                // The step moved the basic values at `w_nz`; position `r`
                // holds the entering column now.
                for idx in 0..self.ws.w_nz.len() {
                    self.mark_infeasible(self.ws.w_nz[idx] as usize);
                }
                self.mark_infeasible(r);
            } else {
                self.refactor().map_err(|e| numerical(e, row_name))?;
                self.reprice(cost);
                recount = true;
            }
            // A dual pivot is degenerate when the duals did not move.
            self.note_step(theta_d.abs());
            self.stats.iterations += 1;
            self.stats.dual_iterations += 1;
        }
    }

    /// How far the basic value at position `pos` lies below its lower bound
    /// and above its upper bound (positive where it violates one).
    fn violation(&self, pos: usize) -> (f64, f64) {
        let (ws, k) = (&*self.ws, self.ws.basis[pos]);
        (ws.lb[k] - ws.x[k], ws.x[k] - ws.ub[k])
    }

    /// Enter basis position `pos` in the dual loop's infeasible set, or drop
    /// it, by its value now.
    fn mark_infeasible(&mut self, pos: usize) {
        let (below, above) = self.violation(pos);
        if below.max(above) > self.opts.feas_tol {
            self.ws.infeasible.insert(pos);
        } else {
            self.ws.infeasible.remove(pos);
        }
    }

    /// Bounded-variable ratio test for entering column `j` moving in
    /// direction `sigma` along `ws.w`.
    fn ratio_test(&self, j: usize, sigma: f64, bland: bool) -> Step {
        let p = &*self.ws;
        // Bound-flip limit for the entering variable itself.
        let own_range = p.ub[j] - p.lb[j];
        let mut t_best = if own_range.is_finite() { own_range } else { f64::INFINITY };
        let mut leave: Option<(usize, bool, f64)> = None; // (position, to_upper, |w|)
        for &pos in &self.ws.w_nz {
            let (pos, wi) = (pos as usize, self.ws.w[pos as usize]);
            if wi.abs() <= ZTOL {
                continue;
            }
            let k = self.ws.basis[pos];
            let delta = sigma * wi; // x_k moves by -t·delta
            let (t, to_upper) = if delta > 0.0 {
                if p.lb[k] == f64::NEG_INFINITY {
                    continue;
                }
                (((self.ws.x[k] - p.lb[k]) / delta).max(0.0), false)
            } else {
                if p.ub[k] == f64::INFINITY {
                    continue;
                }
                (((p.ub[k] - self.ws.x[k]) / -delta).max(0.0), true)
            };
            let better = if bland {
                // Smallest t; ties by smallest variable index (Bland).
                t < t_best - ZTOL
                    || (t <= t_best + ZTOL
                        && leave.as_ref().is_none_or(|&(lp, _, _)| k < self.ws.basis[lp]))
            } else {
                // Smallest t; ties by largest pivot magnitude (stability).
                t < t_best - ZTOL
                    || (t <= t_best + ZTOL
                        && leave.as_ref().is_none_or(|&(_, _, wa)| wi.abs() > wa))
            };
            if t <= t_best + ZTOL && better {
                t_best = t.min(t_best);
                leave = Some((pos, to_upper, wi.abs()));
            }
        }
        if t_best.is_infinite() {
            return Step::Unbounded;
        }
        match leave {
            // The entering variable reaches its own opposite bound first.
            None => Step::BoundFlip { t: t_best },
            Some((position, to_upper, _)) => {
                if own_range.is_finite() && own_range < t_best - ZTOL {
                    Step::BoundFlip { t: own_range }
                } else {
                    Step::Pivot { t: t_best, position, to_upper }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::load_bounds;
    use crate::{Cmp, LinExpr, Model, RowId, Sense, Var};

    /// Deterministic xorshift64 stream in `[0, 1)`.
    struct Gen(u64);

    impl Gen {
        fn unit(&mut self) -> f64 {
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
    fn cut_case(
        seed: u64,
        max_etas: usize,
        move_costs: bool,
    ) -> (Model, Problem, Workspace, SolverTuning, Changes) {
        let name = |i: usize| i.to_string();
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
        run(&mut p, &model.rows, &SimplexOptions::default(), tuning, &mut ws, name, name).unwrap();
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

    /// The reduced costs and duals the dual loop carries from pivot row to
    /// pivot row must still be the exact ones when it hands over to the
    /// polish — whether it re-seeded them every other pivot (cadence 2),
    /// every seventh, or never (96), and whether the carried start inherited
    /// them or, costs having moved, repriced them.
    #[test]
    fn dual_loop_hands_over_exact_reduced_costs_and_duals() {
        let name = |i: usize| i.to_string();
        let (mut pivots, mut repriced) = ([0u64; 3], 0u32);
        for seed in 1..=40u64 {
            for (c, max_etas) in [2, 7, 96].into_iter().enumerate() {
                for move_costs in [false, true] {
                    let (model, p, mut ws, tuning, changes) = cut_case(seed, max_etas, move_costs);
                    let opts = SimplexOptions::default();
                    let mut st =
                        warm_state(&p, &model, &changes, &opts, tuning, &mut ws, &name).unwrap();
                    st.box_dual_infeasible();
                    let ran = st.dual_iterate(&p.cost, &name);
                    if move_costs {
                        // Boxed columns restrict the problem, which may then
                        // have no feasible point; the solve would go cold.
                        if ran.is_err() {
                            continue;
                        }
                        repriced += 1;
                    } else {
                        ran.expect("zero flow stays feasible");
                        pivots[c] += st.stats.dual_iterations;
                    }
                    let (d, y) = (st.ws.d.clone(), st.ws.y.clone());
                    st.refactor().unwrap();
                    st.reprice(&p.cost);
                    let tol = 1e-9 * (1.0 + p.cost.iter().fold(0.0f64, |a, &c| a.max(c.abs())));
                    let what = format!("seed {seed}, costs moved: {move_costs}");
                    for (i, (&kept, &exact)) in y.iter().zip(&st.ws.y).enumerate() {
                        assert!((kept - exact).abs() <= tol, "{what}: y[{i}] {kept} vs {exact}");
                    }
                    for j in (0..p.n).filter(|&j| st.ws.pos_of[j] < 0) {
                        let (kept, exact) = (d[j], st.ws.d[j]);
                        assert!((kept - exact).abs() <= tol, "{what}: d[{j}] {kept} vs {exact}");
                    }
                }
            }
        }
        assert!(pivots.iter().all(|&k| k > 200), "dual pivots per cadence: {pivots:?}");
        assert!(repriced > 40, "only {repriced} of 120 repriced starts ran the dual loop");
    }

    /// The entering set holds every eligible column at every pivot of the
    /// primal polish and after it, whatever the refactorization cadence:
    /// each warm solve of a `cut_case` is stopped after one more pivot at a
    /// time (`max_iterations`), and wherever it stops in the polish, and
    /// where it ends, a recount must find no eligible column outside it.
    #[test]
    fn entering_set_covers_a_recount_through_the_polish() {
        let name = |i: usize| i.to_string();
        let mut checked = [0u64; 3];
        for seed in 1..=100u64 {
            for ((c, max_etas), move_costs) in
                [2, 7, 96].into_iter().enumerate().flat_map(|c| [(c, false), (c, true)])
            {
                let (model, p, start, tuning, changes) = cut_case(seed, max_etas, move_costs);
                let opts = SimplexOptions::default();
                for stop in 1.. {
                    let mut ws = start.clone();
                    let mut st =
                        warm_state(&p, &model, &changes, &opts, tuning, &mut ws, &name).unwrap();
                    st.max_iterations = stop;
                    let done = match st.reoptimize(&p.cost, &name, &name) {
                        Err(SolveError::IterationLimit { .. }) => false,
                        Ok(_) => true,
                        // The dual loop stopped, or the boxed problem had no
                        // feasible point: no polish to look at.
                        Err(_) if st.stats.iterations < stop => break,
                        Err(_) => continue,
                    };
                    let at = format!("seed {seed}, cadence {max_etas}, stop {stop}");
                    assert!(st.entering_covers_eligible(), "{at}");
                    checked[c] += u64::from(!done);
                    if done {
                        break;
                    }
                }
            }
        }
        // Measured: 162, 184 and 162 mid-polish stops.
        assert!(checked.iter().all(|&k| k >= 150), "mid-polish stops per cadence: {checked:?}");
    }

    /// `keep_best` keeps the set a sort on (score descending, column
    /// ascending) puts first, on scores drawn from a handful of values so
    /// exact ties are the rule, for every length around the trim's size.
    #[test]
    fn keep_best_keeps_what_a_sort_keeps() {
        let mut g = Gen(0x7E1E_C7ED);
        let values = [0.0, 1e-18, 0.25, 1.0, 1.0 + f64::EPSILON, 3.5, f64::INFINITY];
        for len in 0..200usize {
            let mut cols: Vec<u32> = (0..len as u32).map(|j| j * 3 + 1).collect();
            for i in (1..len).rev() {
                cols.swap(i, (g.unit() * (i + 1) as f64) as usize);
            }
            let scored: Vec<(f64, u32)> =
                cols.iter().map(|&j| (values[(g.unit() * 7.0) as usize], j)).collect();
            for keep in [0, 1, 7, CANDS_MAX - 1, CANDS_MAX, len] {
                let mut sorted = scored.clone();
                sorted.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
                let mut want: Vec<u32> = sorted.iter().take(keep).map(|&(_, j)| j).collect();
                let mut picked = scored.clone();
                keep_best(&mut picked, keep);
                let mut got: Vec<u32> = picked.iter().take(keep).map(|&(_, j)| j).collect();
                want.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, want, "len {len}, keep {keep}");
            }
        }
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
        let name = |i: usize| i.to_string();
        let mut reentered = 0;
        for seed in 1..=12u64 {
            let (model, p, mut ws, tuning, changes) = cut_case(seed, 96, false);
            let opts = SimplexOptions::default();
            let mut st = warm_state(&p, &model, &changes, &opts, tuning, &mut ws, &name).unwrap();
            st.box_dual_infeasible();
            st.dual_iterate(&p.cost, &name).expect("zero flow stays feasible");
            st.iterate(&p.cost, false, &name, &name).unwrap();
            let busy = |k: &usize| *k < p.nstruct && st.ws.x[*k] > 1e-6;
            let k = st.ws.basis.iter().copied().find(busy).expect("some flow is basic");
            let mut cost = p.cost.clone();
            cost[k] = 10.0;
            let pivots = st.stats.iterations;
            let out = st.finish(&cost, &name, &name).unwrap();
            assert_eq!(out.terminal_refactors, 1, "seed {seed}");
            reentered += u32::from(st.stats.iterations > pivots);
            st.refactor().unwrap();
            st.reprice(&cost);
            let eligible: Vec<usize> =
                (0..p.n).filter(|&j| st.ws.eligible(j, opts.opt_tol)).collect();
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
        let name = |i: usize| i.to_string();
        for seed in 1..=12u64 {
            let (model, p, start, tuning, changes) = cut_case(seed, 96, false);
            let opts = SimplexOptions::default();
            let finish_after = |perturb: &dyn Fn(&mut Workspace, usize, usize)| {
                let mut ws = start.clone();
                let mut st =
                    warm_state(&p, &model, &changes, &opts, tuning, &mut ws, &name).unwrap();
                st.box_dual_infeasible();
                st.dual_iterate(&p.cost, &name).expect("zero flow stays feasible");
                assert!(st.ws.boxed.is_empty() && st.stats.dual_iterations > 0, "seed {seed}");
                st.iterate(&p.cost, false, &name, &name).unwrap();
                assert!(st.fresh && !st.settled, "seed {seed}");
                // A basic column and a row it has an entry in.
                let k = st.ws.basis[0];
                let i = p.with_col(k, |col| col[0].0 as usize);
                perturb(st.ws, k, i);
                let before = st.ws.factor.stats();
                let out = st.finish(&p.cost, &name, &name).unwrap();
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
                let close =
                    |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(u, v)| (u - v).abs() <= 1e-9);
                assert!(close(&x, &x2) && close(&y, &y2), "seed {seed}: perturbed {what} survived");
            }
        }
    }
}

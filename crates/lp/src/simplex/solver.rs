//! The bounded-variable revised simplex iteration core.
//!
//! Works on the standard form produced by [`super::Problem::from_model`]:
//! a crash basis is built first (slacks where the initial residual fits,
//! artificials elsewhere), then phase 1 minimizes the artificial sum and
//! phase 2 the true cost vector. Anti-cycling falls back to Bland's rule
//! after a run of degenerate pivots.

use super::basis::arena::{grow, refill};
use super::basis::{BitQueue, FactorError, FactorStats, Factorization};
use super::{Problem, SimplexOptions, SolverTuning};
use crate::model::RowData;
use crate::solution::SolveError;
use crate::stats::SessionStats;
use pretium_par as par;
use std::time::Instant;

/// Where a nonbasic variable currently rests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NbState {
    Lower,
    Upper,
    /// Free variable parked at zero.
    Free,
}

/// What one solve counted, and whether its reduced costs are exact. The
/// solution itself — `x`, the duals `y`, the terminal `basis` and rest
/// states `nb` — stays in the [`Workspace`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Outcome {
    /// The solve's ledger; the caller sets `solves` and the restart counter.
    pub stats: SessionStats,
    /// `Workspace::d` holds the reduced costs of the terminal `y` exactly
    /// (a full reprice, no pivot since).
    pub fresh: bool,
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
/// `basis` and `nb`; a solve that reloads overwrites everything before
/// reading (only `stamp`, and `w` and `rho` being zero outside their
/// nonzero lists, are invariants), a solve
/// that carries (`owner`) continues from `basis`, `nb`, `d`, `y` and the
/// factors as they stand.
#[derive(Debug, Clone, Default)]
pub(crate) struct Workspace {
    /// Stamp of the solve whose terminal state this workspace holds, `0`
    /// for none, with that solve's row and structural-column counts.
    pub owner: u64,
    pub owner_m: usize,
    pub owner_nstruct: usize,
    /// Bounds of every column, loaded from the model before each solve.
    /// They are solve state — the warm start boxes columns, the crash opens
    /// artificials — so they live here, not in the resident [`Problem`].
    pub lb: Vec<f64>,
    pub ub: Vec<f64>,
    /// Basic column per row position.
    pub basis: Vec<usize>,
    /// Column -> basis position, or -1 when nonbasic.
    pos_of: Vec<i32>,
    /// Current value of every column (structurals, slacks, artificials).
    pub x: Vec<f64>,
    /// Rest state of every column (meaningful for nonbasic ones).
    pub nb: Vec<NbState>,
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
    pub d: Vec<f64>,
    /// Devex reference-framework weight per column.
    gamma: Vec<f64>,
    /// Candidate shortlist for partial pricing.
    candidates: Vec<u32>,
    /// Membership flags for `candidates`.
    in_cands: Vec<bool>,
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
    /// Parallel-pricing workers ([`SolverTuning::pricing_jobs`]).
    jobs: usize,
    ws: &'a mut Workspace,
    /// Counters so far (the factorization's are folded in by `finish`).
    stats: SessionStats,
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

/// Read-only view of the pricing state, small enough to hand to the
/// sectioned parallel map: workers judge eligibility from shared slices
/// only, never seeing the problem or the factorization the full [`State`]
/// carries.
struct PriceView<'b> {
    d: &'b [f64],
    pos_of: &'b [i32],
    nb: &'b [NbState],
    in_cands: &'b [bool],
    lb: &'b [f64],
    ub: &'b [f64],
    tol: f64,
}

impl PriceView<'_> {
    /// Mirror of [`State::eligible`] over the shared slices.
    fn eligible(&self, j: usize) -> bool {
        if self.pos_of[j] >= 0 || self.lb[j] == self.ub[j] {
            return false;
        }
        let d = self.d[j];
        match self.nb[j] {
            NbState::Lower => d < -self.tol,
            NbState::Upper => d > self.tol,
            NbState::Free => d.abs() > self.tol,
        }
    }
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

pub(crate) fn run(
    problem: &mut Problem,
    rows: &[RowData],
    opts: &SimplexOptions,
    tuning: SolverTuning,
    ws: &mut Workspace,
    row_name: impl Fn(usize) -> String,
    var_name: impl Fn(usize) -> String,
) -> Result<Outcome, SolveError> {
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

    let problem = &*problem; // fixed from here on: only the workspace moves
    let mut st = State::new(problem, rows, opts, tuning, ws);
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
    st.iterate(&problem.cost, false, &var_name, &row_name)?;
    st.finish(&problem.cost, &row_name)
}

/// Re-optimize from a known basis instead of crashing one, first stage:
/// a checked basis with factors and `x_B`, every nonbasic column at rest on
/// a bound, for [`State::reoptimize`] to finish.
///
/// `ws.basis` gives the basic column per row position, `ws.nb` the rest
/// state of every column; both come from a previous solve of a
/// since-mutated problem. A *reload* takes the basis and rest states the
/// caller resolved from a snapshot, refactorizes, and leaves the reduced
/// costs to the first `reprice`. A *carry* — `ws` still holds the terminal
/// state of this session's previous solve, of a problem that has only grown
/// since and whose old costs are unchanged — moves that state to the grown
/// column layout, inherits `d` and `y` (an appended row's dual is 0, so only
/// the appended columns are priced), borders the factors with the appended
/// rows, their slacks basic, and takes `x_B` from one FTRAN.
///
/// Any structural problem with the supplied basis (wrong size, duplicate
/// columns, singular matrix) is reported as an error; callers are expected
/// to fall back — a carried start to a reloaded one, that to a cold [`run`].
pub(crate) fn warm_state<'a>(
    problem: &'a Problem,
    rows: &'a [RowData],
    opts: &'a SimplexOptions,
    tuning: SolverTuning,
    ws: &'a mut Workspace,
    carry: bool,
    row_name: &impl Fn(usize) -> String,
) -> Result<State<'a>, SolveError> {
    let m = problem.m;
    let n = problem.n;
    if carry && !ws.regrow(problem) {
        return Err(SolveError::Numerical("carried basis holds an artificial".into()));
    }
    if ws.basis.len() != m || ws.nb.len() != n {
        return Err(SolveError::Numerical("warm basis has wrong dimensions".into()));
    }
    refill(&mut ws.pos_of, n, -1);
    for (i, &k) in ws.basis.iter().enumerate() {
        if k >= n || ws.pos_of[k] >= 0 {
            return Err(SolveError::Numerical("warm basis references invalid columns".into()));
        }
        ws.pos_of[k] = i as i32;
    }
    // Rest nonbasic columns on a bound consistent with their current bounds
    // (bounds may have moved since the basis was recorded).
    refill(&mut ws.x, n, 0.0);
    for j in 0..n {
        if ws.pos_of[j] >= 0 {
            continue;
        }
        let (lb, ub) = (ws.lb[j], ws.ub[j]);
        let state = match ws.nb[j] {
            NbState::Lower if lb.is_finite() => NbState::Lower,
            NbState::Upper if ub.is_finite() => NbState::Upper,
            _ if lb.is_finite() => NbState::Lower,
            _ if ub.is_finite() => NbState::Upper,
            _ => NbState::Free,
        };
        ws.nb[j] = state;
        ws.x[j] = match state {
            NbState::Lower => lb,
            NbState::Upper => ub,
            NbState::Free => 0.0,
        };
    }

    let mut st = State::new(problem, rows, opts, tuning, ws);
    if carry {
        st.inherit(&problem.cost).map_err(|e| numerical(e, row_name))?;
    } else {
        st.refactor().map_err(|e| numerical(e, row_name))?;
    }
    Ok(st)
}

/// Insert `count` copies of `fill` into `v` at `at`.
fn open_gap<T: Clone>(v: &mut Vec<T>, at: usize, count: usize, fill: T) {
    grow(v, v.len() + count, fill);
    v[at..].rotate_right(count);
}

impl Workspace {
    /// Move the terminal `basis`, `nb`, `d` and `y` of the solve that owns
    /// this workspace to the column layout of `p`, the same problem grown by
    /// `dn` structurals and `dm` rows: the new structurals open a gap before
    /// the slacks (nonbasic, `d` to be priced by the caller), each new row
    /// seats its slack basic with a zero dual and closes its artificial.
    /// Returns `false`, with nothing moved, when an artificial is basic (its
    /// crash-time sign went with the previous standard form).
    fn regrow(&mut self, p: &Problem) -> bool {
        let (m0, ns0) = (self.owner_m, self.owner_nstruct);
        let (dm, dn) = (p.m - m0, p.nstruct - ns0);
        debug_assert_eq!(
            (self.nb.len(), self.d.len(), self.y.len()),
            (ns0 + 2 * m0, ns0 + 2 * m0, m0)
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
            jobs: tuning.pricing_jobs,
            ws,
            stats: SessionStats::default(),
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
    /// Returns the outcome plus whether the dual simplex was needed.
    pub(crate) fn reoptimize(
        &mut self,
        cost: &[f64],
        row_name: &impl Fn(usize) -> String,
        var_name: &impl Fn(usize) -> String,
    ) -> Result<(Outcome, bool), SolveError> {
        let feas = self.opts.feas_tol;
        let ws = &*self.ws;
        let primal_feasible =
            ws.basis.iter().all(|&k| ws.x[k] >= ws.lb[k] - feas && ws.x[k] <= ws.ub[k] + feas);
        if !primal_feasible {
            // Box away dual-infeasible nonbasics so the dual simplex starts from
            // a dual-feasible point; the primal polish below reconsiders them.
            self.box_dual_infeasible(cost);
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
        Ok((self.finish(cost, row_name)?, !primal_feasible))
    }

    /// The carried first stage of [`warm_state`], once [`Workspace::regrow`]
    /// has moved the previous solve's state to this problem's layout: price
    /// the appended columns against the inherited duals, reset the Devex
    /// framework and the candidate list as a `reprice` would, border the
    /// factors with the appended rows — or refactorize, when the update file
    /// has no room for them — and solve for `x_B`.
    fn inherit(&mut self, cost: &[f64]) -> Result<(), FactorError> {
        self.stats.carried = 1;
        self.ensure_scratch();
        let (p, ws) = (self.p, &mut *self.ws);
        let (m0, ns0) = (ws.owner_m, ws.owner_nstruct);
        for j in ns0..p.nstruct {
            ws.d[j] = p.reduced_cost(j, cost, &ws.y);
        }
        // The artificials are closed and positive again (`Problem::sync`).
        for (i, &yi) in ws.y.iter().enumerate() {
            ws.d[p.art_start + i] = -yi;
        }
        ws.gamma.fill(1.0);
        self.clear_candidates();
        let ws = &mut *self.ws;
        if p.m - m0 >= ws.factor.updates_left() {
            return self.refactor();
        }
        let mut row = Vec::new();
        for terms in self.rows[m0..].iter().map(|r| &r.terms) {
            row.clear();
            row.extend(terms.iter().filter_map(|&(j, v)| {
                u32::try_from(ws.pos_of[j as usize]).ok().map(|pos| (pos, v))
            }));
            ws.factor.append_row(&row);
        }
        self.solve_basics();
        Ok(())
    }

    /// Terminal `x_B` and duals. Whatever moved since the last
    /// refactorization, the factors are not rebuilt to recompute them: the
    /// pair in hand is accepted when it satisfies the problem's own
    /// equations (`certified`), and only a failed certificate pays for a
    /// refactorization. The ledger handed back folds in the factorization's
    /// work since this solve began (the factorization itself may be older).
    fn finish(
        &mut self,
        cost: &[f64],
        row_name: &impl Fn(usize) -> String,
    ) -> Result<Outcome, SolveError> {
        if !self.fresh {
            self.solve_duals(cost);
        }
        if !self.settled && !self.certified(cost) {
            self.refactor().map_err(|e| numerical(e, row_name))?;
            self.reprice(cost);
            self.stats.terminal_refactors = 1;
        }
        let fs = self.ws.factor.stats().since(self.factor_before);
        let stats = SessionStats {
            refactors: fs.refactors,
            basis_nnz: fs.basis_nnz,
            factor_nnz: fs.factor_nnz,
            ft_updates: fs.ft_updates,
            pivot_rejections: fs.pivot_rejections,
            btrans: fs.btrans,
            bordered_rows: fs.bordered_rows,
            ..self.stats
        };
        Ok(Outcome { stats, fresh: self.fresh })
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

    /// Shared-slice view for parallel pricing workers.
    fn view(&self) -> PriceView<'_> {
        PriceView {
            d: &self.ws.d,
            pos_of: &self.ws.pos_of,
            nb: &self.ws.nb,
            in_cands: &self.ws.in_cands,
            lb: &self.ws.lb,
            ub: &self.ws.ub,
            tol: self.opts.opt_tol,
        }
    }

    /// Fold one sectioned run's section/steal counters into the solve's.
    fn note_par_stats(&mut self, run: par::ParStats) {
        self.stats.pricing_par_sections += run.sections;
        self.stats.pricing_par_steals += run.steals;
    }

    /// Attribute one pricing call's wall clock to the serial or parallel
    /// bucket, depending on which path actually ran.
    fn note_pricing_wall(&mut self, t0: Instant, parallel: bool) {
        let nanos = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        if parallel {
            self.stats.pricing_par_nanos += nanos;
        } else {
            self.stats.pricing_serial_nanos += nanos;
        }
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
    /// exactly, and reset the Devex reference framework (all weights back
    /// to 1) and the candidate list.
    ///
    /// With `pricing_jobs > 1` the reduced-cost recompute and the weight
    /// refresh fan out over the sectioned parallel map: each worker owns a
    /// disjoint `d`/`gamma` chunk, and each `d[j]` is the same per-column
    /// sequential dot product as the serial loop — no accumulation crosses
    /// a section boundary, so the result is bitwise identical.
    fn reprice(&mut self, cost: &[f64]) {
        self.ensure_scratch();
        self.ws.cb.clear();
        self.ws.cb.extend(self.ws.basis.iter().map(|&k| cost[k]));
        {
            let (factor, cb, y) = (&mut self.ws.factor, &self.ws.cb, &mut self.ws.y);
            factor.btran(cb, y);
        }
        let t0 = Instant::now();
        let jobs = self.jobs;
        let n = self.p.n;
        let parallel = jobs > 1 && par::section_count(n) > 1;
        if parallel {
            let (p, y) = (self.p, &self.ws.y);
            let mut stats = par::for_each_section(&mut self.ws.d, jobs, |_, start, chunk| {
                for (off, slot) in chunk.iter_mut().enumerate() {
                    *slot = p.reduced_cost(start + off, cost, y);
                }
            });
            stats.merge(par::for_each_section(&mut self.ws.gamma, jobs, |_, _, chunk| {
                chunk.fill(1.0);
            }));
            self.note_par_stats(stats);
        } else {
            for j in 0..n {
                self.ws.d[j] = self.p.reduced_cost(j, cost, &self.ws.y);
            }
            for g in self.ws.gamma.iter_mut() {
                *g = 1.0;
            }
        }
        self.note_pricing_wall(t0, parallel);
        self.clear_candidates();
        self.stats.pricing_scans += n as u64;
        self.fresh = true;
    }

    /// Empty the partial-pricing shortlist.
    fn clear_candidates(&mut self) {
        self.ws.candidates.clear();
        self.ws.in_cands.fill(false);
    }

    /// Is nonbasic column `j` eligible to enter, judged on the maintained
    /// reduced cost `d[j]`?
    fn eligible(&self, j: usize) -> bool {
        if self.ws.pos_of[j] >= 0 || self.ws.lb[j] == self.ws.ub[j] {
            return false;
        }
        let tol = self.opts.opt_tol;
        let d = self.ws.d[j];
        match self.ws.nb[j] {
            NbState::Lower => d < -tol,
            NbState::Upper => d > tol,
            NbState::Free => d.abs() > tol,
        }
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
        for idx in 0..self.ws.alpha_touched.len() {
            let j = self.ws.alpha_touched[idx] as usize;
            if self.ws.pos_of[j] >= 0 || j == q {
                continue;
            }
            let aj = self.ws.alpha[j];
            self.ws.d[j] -= theta_d * aj;
            let r = aj * inv_aq;
            let cand = r * r * gamma_q;
            if cand > self.ws.gamma[j] {
                self.ws.gamma[j] = cand;
            }
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
    /// before declaring optimality).
    fn price_bland(&mut self) -> Option<(usize, f64)> {
        for j in 0..self.p.n {
            if self.ws.pos_of[j] >= 0 || self.ws.lb[j] == self.ws.ub[j] {
                continue;
            }
            self.stats.pricing_scans += 1;
            if self.eligible(j) {
                return Some((j, self.ws.d[j]));
            }
        }
        None
    }

    /// Partial Devex pricing: prune the candidate shortlist, sweep one
    /// column section past the cursor every call (so every column is
    /// revisited within `SECTIONS` pivots and the shortlist never goes
    /// stale), keep sweeping while the list is thin, and pick the best
    /// Devex score among the survivors — O(section + candidates) per
    /// pivot instead of O(n). A full wrap with an empty shortlist means no
    /// eligible column exists (by the maintained reduced costs).
    ///
    /// With `pricing_jobs > 1` each cyclic section's scan fans out over
    /// the sectioned parallel map: subsections return their eligible
    /// columns as lists, concatenated in subsection order — reproducing
    /// the serial cyclic insertion order exactly, including the
    /// between-section early exit (checked only at section boundaries,
    /// same as the serial sweep).
    fn price_partial(&mut self) -> Option<(usize, f64)> {
        let t0 = Instant::now();
        // Drop candidates that went basic or lost eligibility.
        let mut keep = 0;
        for idx in 0..self.ws.candidates.len() {
            let j = self.ws.candidates[idx] as usize;
            self.stats.pricing_scans += 1;
            if self.eligible(j) {
                self.ws.candidates[keep] = self.ws.candidates[idx];
                keep += 1;
            } else {
                self.ws.in_cands[j] = false;
            }
        }
        self.ws.candidates.truncate(keep);
        let n = self.p.n;
        let section = (n / SECTIONS).max(SECTION_MIN).min(n);
        let jobs = self.jobs;
        let parallel = jobs > 1 && par::section_count(section) > 1;
        let mut scanned = 0usize;
        while scanned < n {
            if parallel {
                let take = section.min(n - scanned);
                let start = self.cursor;
                let (parts, stats) = {
                    let view = self.view();
                    par::map_sections(take, jobs, |_, r| {
                        let mut found: Vec<u32> = Vec::new();
                        for off in r {
                            let j = (start + off) % n;
                            if !view.in_cands[j] && view.eligible(j) {
                                found.push(j as u32);
                            }
                        }
                        found
                    })
                };
                self.note_par_stats(stats);
                for j in parts.into_iter().flatten() {
                    self.ws.in_cands[j as usize] = true;
                    self.ws.candidates.push(j);
                }
                self.cursor = (start + take) % n;
                scanned += take;
                self.stats.pricing_scans += take as u64;
            } else {
                for _ in 0..section {
                    if scanned >= n {
                        break;
                    }
                    let j = self.cursor;
                    self.cursor += 1;
                    if self.cursor == n {
                        self.cursor = 0;
                    }
                    scanned += 1;
                    self.stats.pricing_scans += 1;
                    if !self.ws.in_cands[j] && self.eligible(j) {
                        self.ws.in_cands[j] = true;
                        self.ws.candidates.push(j as u32);
                    }
                }
            }
            if self.ws.candidates.len() >= CANDS_MIN {
                break;
            }
        }
        // Trim to the best CANDS_MAX by current Devex score so the
        // shortlist keeps quality, not arrival order. The sort key is a
        // pure function of the maintained (d, gamma) state, so the
        // surviving set — and hence the pivot sequence — stays
        // deterministic.
        if self.ws.candidates.len() > CANDS_MAX {
            let mut cands = std::mem::take(&mut self.ws.candidates);
            cands.sort_by(|&a, &b| {
                let (a, b) = (a as usize, b as usize);
                let sa = self.ws.d[a] * self.ws.d[a] / self.ws.gamma[a];
                let sb = self.ws.d[b] * self.ws.d[b] / self.ws.gamma[b];
                sb.partial_cmp(&sa).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
            });
            for &j in &cands[CANDS_MAX..] {
                self.ws.in_cands[j as usize] = false;
            }
            cands.truncate(CANDS_MAX);
            self.ws.candidates = cands;
        }
        let mut best: Option<(usize, f64)> = None; // (j, score)
        for idx in 0..self.ws.candidates.len() {
            let j = self.ws.candidates[idx] as usize;
            let dj = self.ws.d[j];
            let score = dj * dj / self.ws.gamma[j];
            let better = match best {
                None => true,
                // Insertion order is cyclic, not ascending: break exact
                // ties by index explicitly for determinism.
                Some((bj, bs)) => score > bs || (score == bs && j < bj),
            };
            if better {
                best = Some((j, score));
            }
        }
        self.note_pricing_wall(t0, parallel);
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
    /// dual feasibility at its current rest value, saving the bounds in
    /// `ws.boxed` so the caller can restore them. Reprices first unless the
    /// solve inherited its reduced costs; the exact `d` and `y` in hand are
    /// what [`State::dual_iterate`] starts from.
    fn box_dual_infeasible(&mut self, cost: &[f64]) {
        if self.stats.carried == 0 {
            self.reprice(cost);
        }
        let tol = self.opts.opt_tol;
        self.ws.boxed.clear();
        for j in 0..self.p.n {
            if self.ws.pos_of[j] >= 0 || self.ws.lb[j] == self.ws.ub[j] {
                continue;
            }
            let d = self.ws.d[j];
            let ok = match self.ws.nb[j] {
                NbState::Lower => d >= -tol,
                NbState::Upper => d <= tol,
                NbState::Free => d.abs() <= tol,
            };
            if !ok {
                self.ws.boxed.push((j, self.ws.lb[j], self.ws.ub[j]));
                self.ws.lb[j] = self.ws.x[j];
                self.ws.ub[j] = self.ws.x[j];
            }
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
    /// Expects exact `d` and `y` (from `box_dual_infeasible`) and maintains
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
    use crate::simplex::{load_bounds, resolve_warm, snapshot};
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
    /// they carried, a cutting row arrives. Returns it with its standard form
    /// and a workspace holding the resolved cold basis and the new bounds —
    /// what a reloading [`warm_state`] starts from.
    fn cut_case(seed: u64, max_etas: usize) -> (Model, Problem, Workspace, SolverTuning) {
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
        let basis = snapshot(&p, &ws);

        for &row in &caps {
            if g.unit() < 0.6 {
                model.set_rhs(row, 0.3 + 1.5 * g.unit());
            }
        }
        for (j, &v) in x.iter().enumerate() {
            if g.unit() < 0.2 {
                model.set_bounds(v, 0.0, 0.5 * ws.x[j]);
            }
        }
        let cut = LinExpr::from_terms(x.iter().step_by(3).map(|&v| (1.0, v)));
        model.add_row("cut", cut, Cmp::Le, 1.0 + 3.0 * g.unit());

        assert!(p.sync(&model) && resolve_warm(&mut p, &mut ws, &basis));
        load_bounds(&model, &mut ws);
        (model, p, ws, tuning)
    }

    /// The reduced costs and duals the dual loop carries from pivot row to
    /// pivot row must still be the exact ones when it hands over to the
    /// polish — whether it re-seeded them every other pivot (cadence 2),
    /// every seventh, or never (96).
    #[test]
    fn dual_loop_hands_over_exact_reduced_costs_and_duals() {
        let name = |i: usize| i.to_string();
        let mut pivots = [0u64; 3];
        for seed in 1..=40u64 {
            for (c, max_etas) in [2, 7, 96].into_iter().enumerate() {
                let (model, p, mut ws, tuning) = cut_case(seed, max_etas);
                let opts = SimplexOptions::default();
                let mut st =
                    warm_state(&p, &model.rows, &opts, tuning, &mut ws, false, &name).unwrap();
                st.box_dual_infeasible(&p.cost);
                st.dual_iterate(&p.cost, &name).expect("zero flow stays feasible");
                pivots[c] += st.stats.dual_iterations;
                let (d, y) = (st.ws.d.clone(), st.ws.y.clone());
                st.refactor().unwrap();
                st.reprice(&p.cost);
                let tol = 1e-9 * (1.0 + p.cost.iter().fold(0.0f64, |a, &c| a.max(c.abs())));
                for (i, (&kept, &exact)) in y.iter().zip(&st.ws.y).enumerate() {
                    assert!((kept - exact).abs() <= tol, "seed {seed}: y[{i}] {kept} vs {exact}");
                }
                for j in (0..p.n).filter(|&j| st.ws.pos_of[j] < 0) {
                    let (kept, exact) = (d[j], st.ws.d[j]);
                    assert!((kept - exact).abs() <= tol, "seed {seed}: d[{j}] {kept} vs {exact}");
                }
            }
        }
        assert!(pivots.iter().all(|&k| k > 200), "dual pivots per cadence: {pivots:?}");
    }

    /// `finish` accepts the terminal `(x, y)` on the residual certificate and
    /// refactorizes only when it fails: untouched, a dual restart ends without
    /// a refactorization; with one basic value or one dual off by 1e-6 it
    /// refactorizes and returns what the untouched run returned.
    #[test]
    fn finish_refactorizes_only_when_the_certificate_fails() {
        let name = |i: usize| i.to_string();
        for seed in 1..=12u64 {
            let (model, p, start, tuning) = cut_case(seed, 96);
            let opts = SimplexOptions::default();
            let finish_after = |perturb: &dyn Fn(&mut Workspace, usize, usize)| {
                let mut ws = start.clone();
                let mut st =
                    warm_state(&p, &model.rows, &opts, tuning, &mut ws, false, &name).unwrap();
                st.box_dual_infeasible(&p.cost);
                st.dual_iterate(&p.cost, &name).expect("zero flow stays feasible");
                assert!(st.ws.boxed.is_empty() && st.stats.dual_iterations > 0, "seed {seed}");
                st.iterate(&p.cost, false, &name, &name).unwrap();
                assert!(st.fresh && !st.settled, "seed {seed}");
                // A basic column and a row it has an entry in.
                let k = st.ws.basis[0];
                let i = p.with_col(k, |col| col[0].0 as usize);
                perturb(st.ws, k, i);
                let before = st.ws.factor.stats();
                let out = st.finish(&p.cost, &name).unwrap();
                let refactors = st.ws.factor.stats().since(before).refactors;
                assert_eq!(refactors, out.stats.terminal_refactors, "seed {seed}");
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

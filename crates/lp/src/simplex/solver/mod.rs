//! The bounded-variable revised simplex iteration core, on the standard
//! form produced by [`super::Problem::from_model`]. This module keeps what
//! both loops share — `Workspace`, `State`, the one pivot (`pivot_row_pass`,
//! `pivot_update`, `exchange`, `recover`) — with a warm solve's carried
//! start ([`warm_state`]) and the terminal certificate (`State::finish`);
//! `primal` holds the crash, both phases and the primal pricing, `dual` the
//! dual simplex that repairs a carried basis's primal feasibility.

use super::basis::arena::grow;
use super::basis::{BitQueue, FactorError, FactorStats, Factorization};
use super::{load_bounds, slack_bounds, Changes, Problem, SimplexOptions, SolverTuning};
use crate::expr::Var;
use crate::model::{Model, RowId};
use crate::solution::SolveError;
use crate::stats::SessionStats;
use std::time::Instant;

mod dual;
mod primal;

pub(crate) use primal::run;

/// Where a nonbasic variable currently rests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NbState {
    Lower,
    Upper,
    /// Free variable parked at zero.
    Free,
}

/// Every buffer a solve needs, kept by the caller between solves so a
/// re-solve allocates nothing. A solve leaves its result in `x`, `y`,
/// `basis` and `nb`; a cold solve overwrites everything before reading
/// (only `stamp`, and `w` and `rho` being zero outside their nonzero lists,
/// are invariants), a solve that carries (`owner`) continues from `basis`,
/// `pos_of`, `nb`, `x`, `lb`, `ub`, `live`, `d`, `y`, the factors and
/// `rhs`, the right-hand side its `x_B` solves, as they stand.
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
    /// The right-hand side `b` that `x` solves, `B·x_B = b − N·x_N`: a
    /// cold solve copies the problem's, a carried start brings the logged
    /// and appended rows up to date. Kept here rather than read from the
    /// last standard form, which a session may drop and rebuild.
    rhs: Vec<f64>,
    /// What a carried start changed of the old rows' `b − N·x_N`:
    /// `Δb − Σ a_j·Δx_j` over the logged right-hand sides and the nonbasic
    /// columns it re-rested, `(row, value)`, rows ascending and distinct.
    /// `x_B` moves by its FTRAN instead of being solved for again.
    delta: Vec<(u32, f64)>,
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
    /// FTRAN of the entering column by basis position (at a carried start,
    /// of `delta`), zero outside `w_nz` (its nonzero positions, ascending).
    w: Vec<f64>,
    w_nz: Vec<u32>,
    /// Row duals for the internal minimization problem.
    pub y: Vec<f64>,
    // --- pricing state ----------------------------------------------------
    /// Maintained reduced cost per column: exact after `reprice`, updated
    /// from the pivot row after each pivot for the `live` columns only.
    /// Basic and fixed entries are stale until the next reprice.
    d: Vec<f64>,
    /// Devex reference-framework weight per column.
    gamma: Vec<f64>,
    /// The entering set: every column [`Workspace::eligible`] accepts, and
    /// maybe some it no longer does. `reprice` makes it exact; a primal
    /// pivot inserts every column whose `d` it moves, unjudged, and the
    /// pricing sweep drops a member that fails `eligible` when it visits
    /// it — so a pivot pays one bit per touched column, and the sweep
    /// judges members only. A carried start only sizes it, and a dual
    /// pivot leaves it be: the primal loop reprices before it prices.
    entering: BitQueue,
    /// What the last reprice found: `d_priced` and `y_priced` are its `d`
    /// and `y` (before any pivot moved them), `priced_set` its exact
    /// entering set. The next reprice prices again only the columns with a
    /// term in a row whose dual moved, the slacks and artificials of such
    /// rows, and the columns in `touched`; every other column's fold runs
    /// over the same inputs, so it keeps its `d_priced` entry and verdict.
    d_priced: Vec<f64>,
    y_priced: Vec<f64>,
    priced_set: BitQueue,
    /// Every column whose `nb`, `pos_of`, `lb`, `ub` or column was written
    /// since the last reprice, and the columns a carried start appended:
    /// the verdicts `priced_set` holds for them may be out of date.
    touched: BitQueue,
    /// Per column: nonbasic and not fixed (`lb != ub`), the only columns
    /// that can enter. A pivot row lists only these, so between two
    /// reprices only their `d` is maintained. Refreshed by
    /// [`Workspace::touch`], with `touched`, wherever `pos_of`, `lb` or
    /// `ub` is written; a cold solve recounts it after the crash.
    live: Vec<bool>,
    /// `d_priced`, `y_priced` and `priced_set` price the cost vector being
    /// priced now. Cleared by a crash, by the switch from phase-1 to
    /// phase-2 costs and by a carried start whose costs moved; the next
    /// reprice then prices every column.
    priced: bool,
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
    /// The model `p` is the standard form of. Its rows are the row-major
    /// mirror of the structural matrix (terms sorted by column) for sparse
    /// pivot-row passes, slack and artificial entries implicit; its names
    /// are read only to name an error.
    model: &'a Model,
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
/// columns and re-rests those of them that are nonbasic, collecting what
/// that and the logged right-hand sides change of `b − N·x_N` on the old
/// rows (`Workspace::delta`); it inherits `d` and `y` (an appended row's
/// dual is 0, so only the appended columns are priced) — or reprices in
/// full when an old column's cost moved — moves `x_B` by one FTRAN of that
/// change, borders the factors with the appended rows, their slacks basic,
/// and sets each such slack from its own row. Debug assertions check every
/// nonbasic column at rest, the bounds against a full reload and `x_B`
/// against a full solve.
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
    // The logged right-hand sides that moved since `x` was solved for:
    // `Δb` on the old rows. The appended rows enter `rhs` whole.
    debug_assert_eq!(ws.rhs.len(), m0, "the carried right-hand side has the old row count");
    ws.delta.clear();
    for i in changes.rhs.iter().map(|&i| i as usize).filter(|&i| i < m0) {
        if problem.b[i] != ws.rhs[i] {
            ws.delta.push((i as u32, problem.b[i] - ws.rhs[i]));
            ws.rhs[i] = problem.b[i];
        }
    }
    ws.rhs.extend_from_slice(&problem.b[m0..]);
    // The columns whose bounds moved, then the appended ones (at 0 after
    // `regrow`): load their bounds, and the appended slacks', and rest the
    // nonbasic ones on a bound consistent with them, each move `Δx_j`
    // taking `a_j·Δx_j` off the old rows. Every other nonbasic column is
    // still at the rest the last solve left it, under the same bounds.
    ws.moved.clear();
    ws.moved.extend(changes.bounds.iter().filter(|&&j| (j as usize) < ns0));
    ws.moved.sort_unstable();
    ws.moved.dedup();
    ws.moved.extend(ns0 as u32..problem.nstruct as u32);
    for idx in 0..ws.moved.len() {
        let j = ws.moved[idx] as usize;
        (ws.lb[j], ws.ub[j]) = (model.vars[j].lb, model.vars[j].ub);
        if ws.pos_of[j] < 0 {
            let old = ws.x[j];
            (ws.nb[j], ws.x[j]) = ws.rest_of(j);
            let dx = ws.x[j] - old;
            if dx != 0.0 {
                let old_rows = problem.cols.get(j).iter().take_while(|e| (e.0 as usize) < m0);
                ws.delta.extend(old_rows.map(|&(i, v)| (i, -v * dx)));
            }
        }
        ws.touch(j);
    }
    // One entry per row for the FTRAN (rows distinct).
    ws.delta.sort_unstable_by_key(|e| e.0);
    ws.delta.dedup_by(|next, kept| {
        next.0 == kept.0 && {
            kept.1 += next.1;
            true
        }
    });
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
    let mut st = State::new(problem, model, opts, tuning, ws);
    st.screen_all = screen_all;
    st.inherit(&problem.cost, reprice)?;
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
        improves && self.is_live(j)
    }

    /// Can column `j` enter — is it nonbasic and not fixed? What `live[j]`
    /// holds, recounted.
    #[inline]
    fn is_live(&self, j: usize) -> bool {
        self.pos_of[j] < 0 && self.lb[j] != self.ub[j]
    }

    /// Note that column `j`'s `nb`, `pos_of`, `lb` or `ub` was written:
    /// it is priced again by the next reprice, and its `live` byte is
    /// refreshed.
    #[inline]
    fn touch(&mut self, j: usize) {
        self.touched.insert(j);
        self.live[j] = self.is_live(j);
    }

    /// Does `live` hold exactly the columns [`Workspace::is_live`] accepts?
    /// `O(n)`: for assertions.
    fn live_is_exact(&self) -> bool {
        self.live.len() == self.pos_of.len()
            && (0..self.live.len()).all(|j| self.live[j] == self.is_live(j))
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

    /// `resid = b − Σ x_j·a_j` over the columns of `p`, every one or the
    /// nonbasic ones only.
    fn residual(&mut self, p: &Problem, with_basics: bool) {
        let r = &mut self.resid;
        r.clear();
        r.extend_from_slice(&p.b);
        for (j, &xj) in self.x.iter().enumerate() {
            if xj != 0.0 && (with_basics || self.pos_of[j] < 0) {
                p.with_col(j, |col| col.iter().for_each(|&(i, v)| r[i as usize] -= v * xj));
            }
        }
    }

    /// `x_B = B⁻¹ (b - N x_N)` by FTRAN, from scratch.
    fn solve_basics(&mut self, p: &Problem) {
        self.residual(p, false);
        self.factor.ftran_dense(&self.resid, &mut self.xb);
        for (pos, &k) in self.basis.iter().enumerate() {
            self.x[k] = self.xb[pos];
        }
    }

    /// Move the terminal state of the solve that owns this workspace —
    /// `basis`, `pos_of`, `nb`, `x`, `lb`, `ub`, `d`, `y` and what its last
    /// reprice found — to the column layout of `p`, the same problem grown
    /// by `dn` structurals and `dm` rows: the new structurals open a gap
    /// before the slacks (nonbasic, bounds and `d` for the caller to load
    /// and price), each new row seats its slack basic with a zero dual and
    /// closes its artificial. Every new column is `touched`, and none is
    /// `live` (the caller's bound load refreshes the structurals). Returns
    /// `false`, with nothing moved, when an artificial is basic (its
    /// crash-time sign went with the previous standard form).
    fn regrow(&mut self, p: &Problem) -> bool {
        let (m0, ns0) = (self.owner_m, self.owner_nstruct);
        let (dm, dn) = (p.m - m0, p.nstruct - ns0);
        let n0 = ns0 + 2 * m0;
        debug_assert!(
            [self.nb.len(), self.d.len(), self.x.len(), self.pos_of.len(), self.lb.len()]
                .iter()
                .all(|&len| len == n0)
                && (self.ub.len(), self.live.len()) == (n0, n0)
                && (self.y.len(), self.d_priced.len()) == (m0, n0)
        );
        if self.basis.iter().any(|&k| k >= ns0 + m0) {
            return false;
        }
        for k in self.basis.iter_mut().filter(|k| **k >= ns0) {
            *k += dn;
        }
        self.basis.extend((m0..p.m).map(|i| p.slack_start + i));
        let mut len = n0;
        for (at, count) in [(ns0, dn), (p.slack_start + m0, dm), (p.art_start + m0, dm)] {
            open_gap(&mut self.nb, at, count, NbState::Lower);
            open_gap(&mut self.d, at, count, 0.0);
            open_gap(&mut self.d_priced, at, count, 0.0);
            open_gap(&mut self.x, at, count, 0.0);
            open_gap(&mut self.pos_of, at, count, -1);
            open_gap(&mut self.lb, at, count, 0.0);
            open_gap(&mut self.ub, at, count, 0.0);
            open_gap(&mut self.live, at, count, false);
            self.priced_set.open_gap(len, at, count, false);
            self.touched.open_gap(len, at, count, true);
            len += count;
        }
        for i in m0..p.m {
            self.pos_of[p.slack_start + i] = i as i32;
        }
        grow(&mut self.y, p.m, 0.0);
        true
    }
}

/// The name of column `j` of `p`, the standard form of `model`: its
/// variable's, or the slack or artificial of its row.
fn column_name(model: &Model, p: &Problem, j: usize) -> String {
    let row = |start: usize| model.row_name(RowId::from_index(j - start));
    if j < p.nstruct {
        model.var_name(Var::from_index(j))
    } else if j < p.art_start {
        format!("slack of {}", row(p.slack_start))
    } else {
        format!("artificial of {}", row(p.art_start))
    }
}

impl<'a> State<'a> {
    fn new(
        p: &'a Problem,
        model: &'a Model,
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
            model,
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
    pub(crate) fn reoptimize(&mut self, cost: &[f64]) -> Result<(SessionStats, bool), SolveError> {
        let feas = self.opts.feas_tol;
        let ws = &*self.ws;
        let primal_feasible =
            ws.basis.iter().all(|&k| ws.x[k] >= ws.lb[k] - feas && ws.x[k] <= ws.ub[k] + feas);
        if !primal_feasible {
            // Box away dual-infeasible nonbasics so the dual simplex starts from
            // a dual-feasible point; the primal polish below reconsiders them.
            self.box_dual_infeasible();
            let result = self.dual_iterate(cost);
            let ws = &mut *self.ws;
            for idx in 0..ws.boxed.len() {
                let (j, lb, ub) = ws.boxed[idx];
                (ws.lb[j], ws.ub[j]) = (lb, ub);
                ws.touch(j);
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
        self.iterate(cost, false)?;
        Ok((self.finish(cost)?, !primal_feasible))
    }

    /// The carried first stage of [`warm_state`], once [`Workspace::regrow`]
    /// has moved the previous solve's state to this problem's layout and
    /// the moved columns are re-rested: carry `x_B` into the bordered basis
    /// ([`State::carry_basics`]) — or refactorize, which solves for it
    /// afresh, when the update file has no room for the appended rows or a
    /// right-hand side moved to or from an infinite value (no finite `Δb`);
    /// then price
    /// the appended columns against the inherited duals, or, when
    /// `reprice` is set (an old column's cost moved, so the inherited `d`
    /// and `y` are stale, and so is what the last reprice found), run a
    /// full `reprice`. The Devex weights and the candidate list stay as
    /// they are: the polish's `reprice` resets them before any primal
    /// pricing reads them. Only the entering set is sized for the grown
    /// layout, for the dual pivots' exchanges to write into.
    fn inherit(&mut self, cost: &[f64], reprice: bool) -> Result<(), SolveError> {
        self.ensure_scratch();
        let ws = &*self.ws;
        let no_room = self.p.m - ws.owner_m >= ws.factor.updates_left();
        if no_room || ws.delta.iter().any(|e| !e.1.is_finite()) {
            self.refactor()?;
        } else {
            self.carry_basics();
        }
        if reprice {
            self.ws.priced = false;
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
        ws.entering.reset(p.n);
        Ok(())
    }

    /// `x_B` of the bordered basis from the carried one, paying for what
    /// changed: the old rows' basic values move by `B⁻¹·Δ`, `Δ` the change
    /// `warm_state` collected in `delta` (one reach-ordered FTRAN on the
    /// inherited factors); then the factors are bordered with the appended
    /// rows, and each appended row's basic slack takes `b_i − Σ a_ij·x_j`
    /// from its own row. Not bit-identical to solving `b − N·x_N` afresh —
    /// the carried `x_B` keeps the rounding its pivots left — so a debug
    /// assertion holds it within `1e-9·(1 + |x|)` of that solve, and
    /// `finish`'s residual certificate stands behind the solve's end.
    fn carry_basics(&mut self) {
        let (p, ws) = (self.p, &mut *self.ws);
        if !ws.delta.is_empty() {
            ws.factor.ftran(&ws.delta, &mut ws.w, &mut ws.w_nz);
            for &pos in &ws.w_nz {
                ws.x[ws.basis[pos as usize]] += ws.w[pos as usize];
            }
        }
        let (row, pos_of, x) = (&mut ws.border, &ws.pos_of, &mut ws.x);
        for (i, r) in self.model.rows.iter().enumerate().skip(ws.owner_m) {
            row.clear();
            row.extend(r.terms.iter().filter_map(|t| {
                u32::try_from(pos_of[t.var.index()]).ok().map(|pos| (pos, t.coef))
            }));
            ws.factor.append_row(row);
            x[p.slack_start + i] =
                r.terms.iter().fold(p.b[i], |s, t| s - t.coef * x[t.var.index()]);
        }
        debug_assert!(self.basics_match_a_fresh_solve(), "carried x_B is off a fresh solve");
    }

    /// Does every basic value lie within `1e-9·(1 + |x|)` of what
    /// [`Workspace::solve_basics`] finds on a copy of the workspace (or
    /// equal it, infinite)? For assertions.
    fn basics_match_a_fresh_solve(&self) -> bool {
        let mut fresh = self.ws.clone();
        fresh.solve_basics(self.p);
        let close = |a: f64, b: f64| a == b || (a - b).abs() <= 1e-9 * (1.0 + b.abs());
        self.ws.basis.iter().all(|&k| close(self.ws.x[k], fresh.x[k]))
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
    fn finish(&mut self, cost: &[f64]) -> Result<SessionStats, SolveError> {
        loop {
            if !self.fresh {
                self.solve_duals(cost);
            }
            if self.settled || self.certified(cost) {
                break;
            }
            self.refactor()?;
            self.stats.terminal_refactors += 1;
            self.iterate(cost, false)?;
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
        self.ws.residual(self.p, true);
        let (r, b) = (&self.ws.resid, &self.p.b);
        r.iter().zip(b).all(|(ri, bi)| ri.abs() <= CERT_PRIMAL_TOL * (1.0 + bi.abs()))
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
        grow(&mut self.ws.d_priced, n, 0.0);
        grow(&mut self.ws.gamma, n, 1.0);
        grow(&mut self.ws.in_cands, n, false);
    }

    /// Rebuild the LU factorization from the current basis and refresh the
    /// basic variable values from scratch (removes accumulated drift). A
    /// singular basis is a numerical error naming a column left without a
    /// pivot.
    fn refactor(&mut self) -> Result<(), SolveError> {
        let (p, ws) = (self.p, &mut *self.ws);
        let basis = &ws.basis;
        ws.factor.refactor_with(p.m, |pos, sink| p.with_col(basis[pos], sink)).map_err(
            |FactorError::Singular { position }| {
                let var = column_name(self.model, p, basis[position]);
                SolveError::Numerical(format!(
                    "singular basis: no pivot for {var} (position {position})"
                ))
            },
        )?;
        self.ws.solve_basics(p);
        self.settled = true;
        Ok(())
    }

    /// Refactorize and reprice: how both loops recover from a rejected
    /// eta, re-seed their prices at the refactorization cadence, and (the
    /// primal loop) make sure of an empty pricing pass. A singular basis is
    /// a numerical error.
    fn recover(&mut self, cost: &[f64]) -> Result<(), SolveError> {
        self.refactor()?;
        self.reprice(cost);
        Ok(())
    }

    /// Pricing reset: recompute `y = c_B B⁻¹` and every reduced cost
    /// exactly, make the entering set exact, and reset the Devex reference
    /// framework (all weights back to 1) and the candidate list.
    ///
    /// A reduced cost is `Problem::reduced_cost`'s fold of the column
    /// against `y`, so a column none of whose rows' duals moved since the
    /// last reprice — bit for bit — folds to the same bits it did then:
    /// only the columns with a term in a row whose dual moved, that row's
    /// slack and artificial, and the `touched` ones are priced and judged
    /// again; every other column keeps its `d_priced` entry and its
    /// `priced_set` verdict. Without `priced`, every column is touched: the
    /// full pass is this one. Every column's `d` is exact afterwards, dead
    /// ones included, although pivots maintain only the live ones. A debug
    /// assertion compares `d`, the entering set and `live` with a full
    /// recount.
    fn reprice(&mut self, cost: &[f64]) {
        // A flag is set only for a listed column, and the list's columns are
        // below `in_cands`'s length until `ensure_scratch` sizes it.
        let ws = &mut *self.ws;
        for &j in &ws.candidates {
            ws.in_cands[j as usize] = false;
        }
        ws.candidates.clear();
        self.ensure_scratch();
        debug_assert!(!self.ws.in_cands.contains(&true), "a shortlist flag outlived its column");
        self.solve_duals(cost);
        let t0 = Instant::now();
        let (p, rows, ws, tol) = (self.p, &self.model.rows, &mut *self.ws, self.opts.opt_tol);
        let n = p.n;
        if ws.priced {
            for (i, &yi) in ws.y.iter().enumerate() {
                if ws.y_priced.get(i).is_some_and(|old| old.to_bits() == yi.to_bits()) {
                    continue;
                }
                for t in &rows[i].terms {
                    ws.touched.insert(t.var.index());
                }
                ws.touched.insert(p.slack_start + i);
                ws.touched.insert(p.art_start + i);
            }
        } else {
            ws.touched.fill(n);
            ws.priced_set.reset(n);
        }
        ws.y_priced.clone_from(&ws.y);
        // Out of the workspace while the closure writes `d`; the words move
        // back, nothing allocates.
        let mut touched = std::mem::take(&mut ws.touched);
        touched.drain_up(|_, j| {
            let dj = p.reduced_cost(j, cost, &ws.y);
            (ws.d_priced[j], ws.d[j]) = (dj, dj);
            ws.priced_set.set(j, ws.eligible(j, tol));
        });
        ws.touched = touched;
        ws.d.copy_from_slice(&ws.d_priced);
        ws.entering.copy_from(&ws.priced_set);
        ws.priced = true;
        debug_assert!(
            (0..n).all(|j| {
                ws.d[j].to_bits() == p.reduced_cost(j, cost, &ws.y).to_bits()
                    && ws.entering.contains(j) == ws.eligible(j, tol)
            }) && ws.entering.next(n).is_none(),
            "a kept reduced cost or entering verdict differs from a full reprice"
        );
        debug_assert!(ws.live_is_exact(), "the live set differs from a recount");
        ws.gamma.fill(1.0);
        self.note_pricing_wall(t0);
        self.stats.pricing_scans += n as u64;
        self.fresh = true;
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
    /// the sparse pivot row `alpha_j = rho · a_j` for every `live` column
    /// with support in a row where `rho` is nonzero: structural terms come
    /// from the row-major mirror, the slack for row `i` is implicit with
    /// coefficient 1, and the artificial (when opened by the crash) carries
    /// its crash-time sign. Basic and fixed columns get no entry: nothing
    /// reads a pivot row's entry of a column that cannot enter. Entries are
    /// valid where `alpha_stamp[j] == stamp`; `alpha_touched` lists them.
    fn pivot_row_pass(&mut self, position: usize) {
        let (ws, rows) = (&mut *self.ws, &self.model.rows);
        ws.factor.btran_row(position, &mut ws.rho, &mut ws.rho_nz);
        ws.stamp += 1;
        let stamp = ws.stamp;
        ws.alpha_touched.clear();
        for &i in &ws.rho_nz {
            let (i, rv) = (i as usize, ws.rho[i as usize]);
            for t in &rows[i].terms {
                let (jc, v) = (t.var.0, t.coef);
                let j = jc as usize;
                if !ws.live[j] {
                    continue;
                }
                if ws.alpha_stamp[j] != stamp {
                    ws.alpha_stamp[j] = stamp;
                    ws.alpha[j] = 0.0;
                    ws.alpha_touched.push(jc);
                }
                ws.alpha[j] += rv * v;
            }
            let s = self.p.slack_start + i;
            if ws.live[s] {
                ws.alpha_stamp[s] = stamp;
                ws.alpha[s] = rv;
                ws.alpha_touched.push(s as u32);
            }
            let a = self.p.art_start + i;
            if ws.live[a] {
                ws.alpha_stamp[a] = stamp;
                ws.alpha[a] = rv * self.p.art_sign[i];
                ws.alpha_touched.push(a as u32);
            }
        }
        self.stats.pricing_scans += ws.alpha_touched.len() as u64;
    }

    /// The pricing update of a pivot, primal or dual: entering column `q`
    /// replaces the basic variable at `position`, on the pivot element
    /// `alpha_q` (nonzero), with the pivot row `rho`, `alpha` in hand
    /// ([`State::pivot_row_pass`]). With `theta_d = d_q / alpha_q`, which it
    /// returns:
    ///
    /// * `d_j ← d_j − theta_d · alpha_j` for every live `j ≠ q` (the row
    ///   lists no other; a dead column's `d` waits for the next reprice),
    /// * `d_leaving ← −theta_d` (its pivot-row entry is exactly 1),
    /// * `d_q ← 0`, `y ← y + theta_d · rho`,
    /// * on a `primal` pivot, Devex: `γ_j ← max(γ_j, (alpha_j/alpha_q)² γ_q)`
    ///   for listed `j`, and the leaving column gets `max(γ_q/alpha_q², 1)`;
    ///   every listed `j ≠ q` joins the entering set, unjudged.
    ///
    /// A dual pivot skips what only primal pricing reads — the weights and
    /// the entering set, which the polish's reprice (or a `recover`) resets
    /// before anything reads them — and, when `theta_d = 0`, the `d` pass,
    /// which would change at most the sign of a zero the dual ratio test
    /// reads as `|d_j|`. Must run before [`State::exchange`] for this pivot.
    fn pivot_update(&mut self, q: usize, position: usize, alpha_q: f64, primal: bool) -> f64 {
        self.fresh = false;
        let theta_d = self.ws.d[q] / alpha_q;
        let gamma_q = self.ws.gamma[q].max(1.0);
        let inv_aq = 1.0 / alpha_q;
        let ws = &mut *self.ws;
        if primal || theta_d != 0.0 {
            for idx in 0..ws.alpha_touched.len() {
                let j = ws.alpha_touched[idx] as usize;
                if j == q {
                    continue;
                }
                let aj = ws.alpha[j];
                ws.d[j] -= theta_d * aj;
                if primal {
                    let r = aj * inv_aq;
                    let cand = r * r * gamma_q;
                    if cand > ws.gamma[j] {
                        ws.gamma[j] = cand;
                    }
                    ws.entering.insert(j);
                }
            }
        }
        if theta_d != 0.0 {
            for &i in &ws.rho_nz {
                ws.y[i as usize] += theta_d * ws.rho[i as usize];
            }
        }
        let leaving = ws.basis[position];
        ws.d[leaving] = -theta_d;
        if primal {
            ws.gamma[leaving] = (gamma_q * inv_aq * inv_aq).max(1.0);
        }
        ws.d[q] = 0.0;
        theta_d
    }

    /// The basis exchange of a pivot, after its [`State::pivot_update`]:
    /// move the basic values by step `t` along the FTRAN of entering column
    /// `q` (in `w`) in direction `sigma`, snap the column leaving `position`
    /// exactly onto its upper bound (`to_upper`) or its lower one, seat `q`
    /// there, swap the two in the entering set, touch both (the next
    /// reprice prices them; `live` drops `q` and takes the leaving column
    /// unless it is fixed) and update the factors.
    /// Returns `false` when the update rejects the pivot (refactorize).
    fn exchange(&mut self, q: usize, position: usize, sigma: f64, t: f64, to_upper: bool) -> bool {
        self.settled = false;
        self.apply_step(sigma, t);
        let ws = &mut *self.ws;
        let leaving = ws.basis[position];
        (ws.x[leaving], ws.nb[leaving]) = if to_upper {
            (ws.ub[leaving], NbState::Upper)
        } else {
            (ws.lb[leaving], NbState::Lower)
        };
        ws.pos_of[leaving] = -1;
        ws.basis[position] = q;
        ws.pos_of[q] = position as i32;
        ws.x[q] += sigma * t;
        ws.entering.remove(q);
        ws.entering.insert(leaving);
        ws.touch(q);
        ws.touch(leaving);
        ws.factor.update(position)
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
        self.degenerate_run =
            if t <= DEGEN_STEP { self.degenerate_run.saturating_add(1) } else { 0 };
    }
}

#[cfg(test)]
mod tests;

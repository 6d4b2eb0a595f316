//! The primal simplex: the crash basis and both phases of a cold solve
//! ([`run`]), the loop that runs them and a warm solve's polish
//! (`State::iterate`), partial Devex and Bland pricing, and the bounded
//! ratio test.

use super::{column_name, NbState, State, Workspace, ZTOL};
use crate::model::Model;
use crate::simplex::basis::arena::refill;
use crate::simplex::{Problem, SimplexOptions, SolverTuning};
use crate::solution::SolveError;
use crate::stats::SessionStats;
use std::time::Instant;

/// Partial pricing: the column range is scanned in sections of
/// `max(n / SECTIONS, SECTION_MIN)` columns.
const SECTIONS: usize = 16;
const SECTION_MIN: usize = 64;
/// Keep sweeping extra sections while the shortlist holds fewer
/// candidates than this …
const CANDS_MIN: usize = 8;
/// … and trim it back to the best-scoring this many when it overflows.
const CANDS_MAX: usize = 64;

/// What the ratio test decided.
enum Step {
    /// Entering variable travels to its opposite bound; no basis change.
    BoundFlip { t: f64 },
    /// Basic variable at `position` leaves to `to_upper` after step `t`.
    Pivot { t: f64, position: usize, to_upper: bool },
    /// No finite blocking bound: the problem is unbounded.
    Unbounded,
}

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
    model: &Model,
    opts: &SimplexOptions,
    tuning: SolverTuning,
    ws: &mut Workspace,
) -> Result<SessionStats, SolveError> {
    let n = problem.n;

    // --- crash: place nonbasics at bounds, pick slack or artificial basis --
    // Every structural and slack column at rest: on its lower bound when
    // finite, else on its upper one, else free at zero (`rest_of` from
    // `Lower`). Nothing an earlier reprice found carries over.
    ws.priced = false;
    refill(&mut ws.x, n, 0.0);
    refill(&mut ws.nb, n, NbState::Lower);
    for j in 0..problem.art_start {
        (ws.nb[j], ws.x[j]) = ws.rest_of(j);
    }
    // The right-hand side this solve's `x` will solve, for the next carried
    // start to take `Δb` against.
    ws.rhs.clone_from(&problem.b);
    // Residual b - A·x over nonbasic structurals (slacks rest at 0).
    let mut beta = problem.b.clone();
    for (j, &xj) in ws.x.iter().enumerate().take(problem.nstruct) {
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
            ws.x[s] = beta_i;
            s
        } else {
            let a = problem.art_start + i;
            problem.art_sign[i] = if beta_i >= 0.0 { 1.0 } else { -1.0 };
            ws.ub[a] = f64::INFINITY;
            ws.x[a] = beta_i.abs();
            need_phase1 = true;
            a
        };
        ws.basis.push(k);
        ws.pos_of[k] = i as i32;
    }
    refill(&mut ws.live, n, false);
    for j in 0..n {
        ws.live[j] = ws.is_live(j);
    }

    let p = &*problem; // fixed from here on: only the workspace moves
    let mut st = State::new(p, model, opts, tuning, ws);
    st.refactor()?;

    // --- phase 1 ----------------------------------------------------------
    if need_phase1 {
        let phase1_cost: Vec<f64> = (0..n)
            .map(|j| if j >= st.p.art_start && st.ws.ub[j] > 0.0 { 1.0 } else { 0.0 })
            .collect();
        st.iterate(&phase1_cost, true)?;
        let residual: f64 = (st.p.art_start..n).map(|j| st.ws.x[j].max(0.0)).sum();
        let scale = 1.0 + st.p.b.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        if residual > st.opts.feas_tol * scale {
            return Err(SolveError::Infeasible { residual });
        }
    }
    // Close all artificials for phase 2 and snap them to zero (a basic one
    // may move, so the factors' `x_B` is no longer current). Phase 2 prices
    // other costs than phase 1: nothing phase 1 priced carries over.
    for j in st.p.art_start..n {
        st.ws.ub[j] = 0.0;
        st.ws.x[j] = 0.0;
        st.ws.live[j] = false;
    }
    st.settled = false;
    st.ws.priced = false;

    // --- phase 2 ----------------------------------------------------------
    st.iterate(&p.cost, false)?;
    let out = st.finish(&p.cost);
    // The crash's signs go with this solve: a carried start prices the
    // artificials positive (`State::inherit`), and `Problem::sync` appends
    // to the form as it is left here. An artificial whose column flips is
    // priced again by the next reprice.
    for i in (0..problem.m).filter(|&i| problem.art_sign[i] != 1.0) {
        ws.touched.insert(problem.art_start + i);
    }
    problem.art_sign.fill(1.0);
    out
}

impl Workspace {
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
}

impl State<'_> {
    /// Run simplex iterations with the given cost vector until optimal.
    pub(super) fn iterate(&mut self, cost: &[f64], phase1: bool) -> Result<(), SolveError> {
        // Exact `y` and `d` to start from; pivots maintain them from the
        // pivot rows.
        self.reprice(cost);
        loop {
            if self.stats.iterations >= self.max_iterations {
                return Err(SolveError::IterationLimit { iterations: self.stats.iterations });
            }
            if self.ws.factor.wants_refactor() {
                // The refactor cadence doubles as the pricing drift guard.
                self.recover(cost)?;
            }
            let bland = self.degenerate_run > self.opts.bland_trigger;
            let picked = if bland { self.price_bland() } else { self.price_partial() };
            let Some((j, d)) = picked else {
                if !self.fresh {
                    // Maintained reduced costs may have drifted since the
                    // last factorization: certify optimality against exact
                    // values before declaring this phase done. Terminates
                    // because the repriced costs are exact (`fresh`).
                    self.recover(cost)?;
                    continue;
                }
                return Ok(()); // optimal for this phase
            };
            if bland {
                self.stats.bland_pivots += 1;
            }
            // Direction of travel for the entering variable: against its
            // reduced cost, which is how `eligible` admitted it.
            let sigma = if d < 0.0 { 1.0 } else { -1.0 };
            self.ftran_column(j);
            match self.ratio_test(j, sigma, bland) {
                Step::Unbounded => {
                    if phase1 {
                        return Err(SolveError::Numerical(
                            "phase-1 objective unbounded (internal error)".into(),
                        ));
                    }
                    // The ray runs along a structural or a row's slack (phase 2
                    // keeps every artificial closed).
                    let var = column_name(self.model, self.p, j);
                    return Err(SolveError::Unbounded { var });
                }
                Step::BoundFlip { t } => {
                    // No basis change: `y` and `d` stay exact as-is.
                    self.settled = false;
                    self.apply_step(sigma, t);
                    self.ws.x[j] = if sigma > 0.0 { self.ws.ub[j] } else { self.ws.lb[j] };
                    self.ws.nb[j] = if sigma > 0.0 { NbState::Upper } else { NbState::Lower };
                    // It entered on the sign its new bound rules out.
                    self.ws.entering.remove(j);
                    self.ws.touched.insert(j);
                    self.note_step(t);
                }
                Step::Pivot { t, position, to_upper } => {
                    self.pivot_row_pass(position);
                    self.pivot_update(j, position, self.ws.w[position], true);
                    if !self.exchange(j, position, sigma, t, to_upper) {
                        // Pivot too small for a stable eta: rebuild and, if
                        // the basis went bad, surface a numerical error.
                        self.recover(cost)?;
                    }
                    self.note_step(t);
                }
            }
            self.stats.iterations += 1;
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
            // Smallest t; ties by smallest variable index under Bland's
            // rule, else by largest pivot magnitude (stability).
            let tie = |&(lp, _, wa): &(usize, bool, f64)| {
                if bland {
                    k < self.ws.basis[lp]
                } else {
                    wi.abs() > wa
                }
            };
            if t < t_best - ZTOL || (t <= t_best + ZTOL && leave.as_ref().is_none_or(tie)) {
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
    use super::super::tests::{cut_case, Gen};
    use super::super::warm_state;
    use super::*;

    /// The entering set holds every eligible column at every pivot of the
    /// primal polish and after it, whatever the refactorization cadence:
    /// each warm solve of a `cut_case` is stopped after one more pivot at a
    /// time (`max_iterations`), and wherever it stops in the polish, and
    /// where it ends, a recount must find no eligible column outside it.
    #[test]
    fn entering_set_covers_a_recount_through_the_polish() {
        let mut checked = [0u64; 3];
        for seed in 1..=100u64 {
            for ((c, max_etas), move_costs) in
                [2, 7, 96].into_iter().enumerate().flat_map(|c| [(c, false), (c, true)])
            {
                let (model, p, start, tuning, changes) = cut_case(seed, max_etas, move_costs);
                let opts = SimplexOptions::default();
                for stop in 1.. {
                    let mut ws = start.clone();
                    let mut st = warm_state(&p, &model, &changes, &opts, tuning, &mut ws).unwrap();
                    st.max_iterations = stop;
                    let done = match st.reoptimize(&p.cost) {
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
}

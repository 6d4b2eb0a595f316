//! The bounded-variable dual simplex of a warm solve whose carried basis
//! lost primal feasibility: boxing the dual-infeasible columns, the loop,
//! its ratio test and its leaving-row candidates.

use super::{NbState, State, Workspace, ZTOL};
use crate::solution::SolveError;

impl State<'_> {
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
    pub(super) fn box_dual_infeasible(&mut self) {
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
        for idx in 0..ws.boxed.len() {
            let j = ws.boxed[idx].0;
            ws.lb[j] = ws.x[j];
            ws.ub[j] = ws.x[j];
            ws.touch(j);
        }
    }

    /// Dual ratio-test candidate: `(alpha_j, |d_j / alpha_j|)` when nonbasic
    /// column `j` of the current pivot row may move in the one direction,
    /// `sigma = -need · sign(alpha_j)`, that takes the leaving variable along
    /// `need` (its value changes by `-t · sigma · alpha_j`). The pivot row
    /// lists live columns only, so `j` is nonbasic and not fixed.
    fn dual_candidate(&self, j: usize, need: f64) -> Option<(f64, f64)> {
        let ws = &*self.ws;
        debug_assert!(ws.is_live(j), "a pivot row lists a column that cannot enter");
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
    /// them from the pivot row each pivot computes anyway, by the primal
    /// loop's [`State::pivot_update`], so a pivot costs one BTRAN, one FTRAN
    /// and work proportional to that row. They are
    /// recomputed after every refactorization in the loop, which bounds
    /// their drift; the caller's primal polish reprices before it certifies
    /// anything. The leaving-row candidates are kept the same way
    /// (`Workspace::infeasible`): recounted after every refactorization,
    /// updated at the positions a pivot moves.
    pub(super) fn dual_iterate(&mut self, cost: &[f64]) -> Result<(), SolveError> {
        let feas = self.opts.feas_tol;
        let mut recount = true;
        loop {
            if self.stats.iterations >= self.max_iterations {
                return Err(SolveError::IterationLimit { iterations: self.stats.iterations });
            }
            if self.ws.factor.wants_refactor() {
                self.recover(cost)?;
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
            // The pricing update both loops share, on the pivot row's own
            // element (the primal loop passes the FTRAN's), without what
            // only primal pricing reads. A degenerate step moves no dual.
            let theta_d = self.pivot_update(q, r, alpha, false);
            if theta_d == 0.0 {
                self.stats.dual_degenerate += 1;
            }
            // Step that lands the leaving variable exactly on its bound.
            let t = ((self.ws.x[k] - bound) / (sigma * alpha)).max(0.0);
            self.ftran_column(q);
            if self.exchange(q, r, sigma, t, !to_lower) {
                // The step moved the basic values at `w_nz`; position `r`
                // holds the entering column now.
                for idx in 0..self.ws.w_nz.len() {
                    self.mark_infeasible(self.ws.w_nz[idx] as usize);
                }
                self.mark_infeasible(r);
            } else {
                self.recover(cost)?;
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
}

#[cfg(test)]
mod tests {
    use super::super::tests::cut_case;
    use super::super::warm_state;
    use crate::simplex::SimplexOptions;

    /// The reduced costs and duals the dual loop carries from pivot row to
    /// pivot row must still be the exact ones when it hands over to the
    /// polish — whether it re-seeded them every other pivot (cadence 2),
    /// every seventh, or never (96), and whether the carried start inherited
    /// them or, costs having moved, repriced them. A pivot row lists only
    /// live columns, so `d` is checked for those; every other nonbasic
    /// column must be closed (`lb == ub`), its `d` left for the polish's
    /// reprice.
    #[test]
    fn dual_loop_hands_over_exact_reduced_costs_and_duals() {
        let (mut pivots, mut repriced) = ([0u64; 3], 0u32);
        for seed in 1..=40u64 {
            for (c, max_etas) in [2, 7, 96].into_iter().enumerate() {
                for move_costs in [false, true] {
                    let (model, p, mut ws, tuning, changes) = cut_case(seed, max_etas, move_costs);
                    let opts = SimplexOptions::default();
                    let mut st = warm_state(&p, &model, &changes, &opts, tuning, &mut ws).unwrap();
                    st.box_dual_infeasible();
                    let ran = st.dual_iterate(&p.cost);
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
                    let (d, y, live) = (st.ws.d.clone(), st.ws.y.clone(), st.ws.live.clone());
                    for j in (0..p.n).filter(|&j| st.ws.pos_of[j] < 0 && !live[j]) {
                        assert_eq!(st.ws.lb[j], st.ws.ub[j], "seed {seed}: column {j} is open");
                    }
                    st.refactor().unwrap();
                    st.reprice(&p.cost);
                    let tol = 1e-9 * (1.0 + p.cost.iter().fold(0.0f64, |a, &c| a.max(c.abs())));
                    let what = format!("seed {seed}, costs moved: {move_costs}");
                    for (i, (&kept, &exact)) in y.iter().zip(&st.ws.y).enumerate() {
                        assert!((kept - exact).abs() <= tol, "{what}: y[{i}] {kept} vs {exact}");
                    }
                    for j in (0..p.n).filter(|&j| live[j]) {
                        let (kept, exact) = (d[j], st.ws.d[j]);
                        assert!((kept - exact).abs() <= tol, "{what}: d[{j}] {kept} vs {exact}");
                    }
                }
            }
        }
        assert!(pivots.iter().all(|&k| k > 200), "dual pivots per cadence: {pivots:?}");
        assert!(repriced > 40, "only {repriced} of 120 repriced starts ran the dual loop");
    }
}

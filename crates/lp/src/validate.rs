//! Independent optimality certification.
//!
//! Given a model and a candidate [`Solution`], these checks certify
//! optimality *without* trusting the solver's internal state:
//!
//! 0. **Finiteness** — the objective, every value and every dual is a
//!    finite number (every comparison below is false against NaN).
//! 1. **Primal feasibility** — every row and bound holds within tolerance.
//! 2. **Dual feasibility** — row duals have the sign their row type
//!    requires, and every variable's reduced cost `c_j - yᵀA_j` is
//!    consistent with the bound the variable rests at.
//! 3. **Complementary slackness** — slack rows have (near-)zero duals and
//!    interior variables have (near-)zero reduced costs.
//! 4. **Duality gap** — the primal objective equals the dual objective
//!    `bᵀy` plus the bound terms, to a relative tolerance.
//!
//! Together these are the KKT conditions for linear programming, which are
//! sufficient for global optimality. The LP test suites call
//! [`check_optimal`] / [`assert_optimal`] on solver output as their
//! reference, rather than comparing the solver with itself.

use crate::model::{Cmp, Model, RowId, Sense};
use crate::solution::Solution;
use crate::Var;

/// A violated optimality condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    NonFinite { what: String, value: f64 },
    RowInfeasible { row: String, lhs: f64, cmp: Cmp, rhs: f64 },
    BoundInfeasible { var: String, value: f64, lb: f64, ub: f64 },
    DualSign { row: String, dual: f64, cmp: Cmp },
    ReducedCostSign { var: String, reduced: f64, at: &'static str },
    Slackness { what: String, product: f64 },
    ObjectiveMismatch { reported: f64, recomputed: f64 },
    DualityGap { primal: f64, dual: f64 },
}

/// Check all KKT conditions; returns every violation found.
pub fn check_optimal(model: &Model, sol: &Solution, tol: f64) -> Vec<Violation> {
    let mut out = Vec::new();
    let x = sol.values();
    let sense_sign = match model.sense() {
        Sense::Maximize => 1.0,
        Sense::Minimize => -1.0,
    };
    // Scale tolerance by data magnitude for robustness on large problems.
    let scale = |v: f64| tol * (1.0 + v.abs());
    let lhs: Vec<f64> =
        (0..model.num_rows()).map(|i| model.row_lhs(RowId::from_index(i), x)).collect();

    // 0. Finiteness.
    if !sol.objective().is_finite() {
        out.push(Violation::NonFinite { what: "objective".into(), value: sol.objective() });
    }
    for (j, &value) in x.iter().enumerate().filter(|(_, v)| !v.is_finite()) {
        let what = format!("value of {}", model.var_name(Var::from_index(j)));
        out.push(Violation::NonFinite { what, value });
    }
    for (i, &value) in sol.duals().iter().enumerate().filter(|(_, v)| !v.is_finite()) {
        let what = format!("dual of {}", model.row_name(RowId::from_index(i)));
        out.push(Violation::NonFinite { what, value });
    }

    // 1. Primal feasibility.
    for (i, row) in model.rows.iter().enumerate() {
        let (lhs, rhs, cmp) = (lhs[i], row.rhs, row.cmp);
        let ok = match cmp {
            Cmp::Le => lhs <= rhs + scale(rhs),
            Cmp::Ge => lhs >= rhs - scale(rhs),
            Cmp::Eq => (lhs - rhs).abs() <= scale(rhs),
        };
        if !ok {
            let row = model.row_name(RowId::from_index(i));
            out.push(Violation::RowInfeasible { row, lhs, cmp, rhs });
        }
    }
    for (j, &val) in x.iter().enumerate().take(model.num_vars()) {
        let v = Var::from_index(j);
        let (lb, ub) = model.bounds(v);
        if val < lb - scale(lb) || val > ub + scale(ub) {
            out.push(Violation::BoundInfeasible { var: model.var_name(v), value: val, lb, ub });
        }
    }

    // 2. Dual sign conditions. With duals defined as d(obj)/d(rhs) in the
    // model's own sense: for Maximize, a <= row must have dual >= 0 and a
    // >= row dual <= 0 (Minimize flips both). Equality rows are free.
    for (i, row) in model.rows.iter().enumerate() {
        let r = RowId::from_index(i);
        let dual = sol.dual(r);
        let signed = sense_sign * dual;
        let ok = match row.cmp {
            Cmp::Le => signed >= -tol,
            Cmp::Ge => signed <= tol,
            Cmp::Eq => true,
        };
        if !ok {
            out.push(Violation::DualSign { row: model.row_name(r), dual, cmp: row.cmp });
        }
    }

    // 3. Reduced-cost sign + complementary slackness for variables.
    // reduced = c_j - yᵀ A_j (model sense). At optimum of a Maximize model:
    // at lower bound => reduced <= 0, at upper bound => reduced >= 0,
    // strictly interior => reduced == 0. On the way, the bound term of the
    // dual objective: each reduced cost times the bound its variable rests
    // at (an interior variable's reduced cost is zero, so it pairs with
    // its value).
    let reduced = reduced_costs(model, sol);
    let mut dual_objective = model.obj_offset;
    for (j, &val) in x.iter().enumerate().take(model.num_vars()) {
        let v = Var::from_index(j);
        let reduced = reduced[j];
        let (lb, ub) = model.bounds(v);
        let at_lb = lb.is_finite() && (val - lb).abs() <= scale(lb);
        let at_ub = ub.is_finite() && (val - ub).abs() <= scale(ub);
        let rtol = tol * (1.0 + model.obj_coef(v).abs()) * 10.0;
        let s = sense_sign * reduced;
        let rest = if at_lb {
            lb
        } else if at_ub {
            ub
        } else {
            val
        };
        dual_objective += reduced * rest;
        if at_lb && at_ub {
            // Fixed variable: any reduced cost is fine.
        } else if at_lb {
            if s > rtol {
                out.push(Violation::ReducedCostSign {
                    var: model.var_name(v),
                    reduced,
                    at: "lower",
                });
            }
        } else if at_ub {
            if s < -rtol {
                out.push(Violation::ReducedCostSign {
                    var: model.var_name(v),
                    reduced,
                    at: "upper",
                });
            }
        } else if s.abs() > rtol {
            out.push(Violation::Slackness {
                what: format!("interior var {}", model.var_name(v)),
                product: reduced,
            });
        }
    }

    // 4. Row slackness: non-binding row => dual ~ 0. On the way, the `bᵀy`
    // term of the dual objective (a row without a finite right-hand side
    // pairs its dual with its activity).
    for (i, row) in model.rows.iter().enumerate() {
        let (lhs, rhs) = (lhs[i], row.rhs);
        let dual = sol.dual(RowId::from_index(i));
        dual_objective += dual * if rhs.is_finite() { rhs } else { lhs };
        if row.cmp == Cmp::Eq {
            continue;
        }
        let slack = (rhs - lhs).abs();
        if slack > 1e-5 * (1.0 + rhs.abs()) && dual.abs() > 1e-5 * (1.0 + dual.abs()) {
            let product = slack * dual;
            if product.abs() > tol * 100.0 * (1.0 + rhs.abs()) {
                out.push(Violation::Slackness {
                    what: format!("row {}", model.row_name(RowId::from_index(i))),
                    product,
                });
            }
        }
    }

    // 5. Objective consistency and the duality gap: the reported objective
    // is `cᵀx`, and `cᵀx` is the dual objective. The gap catches what the
    // gates above let through — a row whose slack is under the slackness
    // gate but whose dual is not zero.
    let recomputed: f64 =
        (0..model.num_vars()).map(|j| model.obj_coef(Var::from_index(j)) * x[j]).sum::<f64>()
            + model.obj_offset;
    let close = |a: f64, b: f64| (a - b).abs() <= tol * (1.0 + a.abs()) * 10.0;
    if !close(recomputed, sol.objective()) {
        out.push(Violation::ObjectiveMismatch { reported: sol.objective(), recomputed });
    }
    if !close(recomputed, dual_objective) {
        out.push(Violation::DualityGap { primal: recomputed, dual: dual_objective });
    }

    out
}

/// Panic with a readable report if any KKT condition fails.
pub fn assert_optimal(model: &Model, sol: &Solution, tol: f64) {
    let violations = check_optimal(model, sol, tol);
    assert!(
        violations.is_empty(),
        "solution fails {} optimality condition(s):\n{:#?}",
        violations.len(),
        violations
    );
}

/// Every variable's reduced cost `c_j − yᵀA_j` (model sense), computed
/// from the duals in one pass over the rows: the rate of objective change
/// per unit increase of a variable off its bound. A [`Solution`] stores no
/// reduced costs; this is where they come from.
pub fn reduced_costs(model: &Model, sol: &Solution) -> Vec<f64> {
    let mut d: Vec<f64> = model.vars.iter().map(|v| v.obj).collect();
    for (row, &y) in model.rows.iter().zip(sol.duals()) {
        for t in &row.terms {
            d[t.var.index()] -= y * t.coef;
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Candidates the certificate must refuse although every gate it had
    /// before finiteness and the gap were checked let them through.
    #[test]
    fn nan_solutions_and_a_wrong_near_binding_dual_are_rejected() {
        // A NaN cost gives a NaN objective, and every comparison with NaN is
        // false. (`add_var` refuses NaN; this writes past it.)
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        m.add_row("cap", 1.0 * x, Cmp::Le, 2.0);
        m.vars[0].obj = f64::NAN;
        let sol = m.solve().expect("a NaN cost solves");
        assert!(sol.objective().is_nan());
        let bad = check_optimal(&m, &sol, 1e-6);
        assert!(bad.iter().any(|v| matches!(v, Violation::NonFinite { .. })), "{bad:?}");

        // max 1000x − 999 s.t. x ≤ 1 (binding), x ≤ 1 + 4e-6 (slack under
        // the slackness gate). The optimum prices the first row at 1000;
        // pricing the second at 1000 instead keeps every sign, reduced cost
        // and slackness gate satisfied, but its dual objective is 1.004.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg("x", 1000.0);
        m.add_obj_offset(-999.0);
        let tight = m.add_row("tight", 1.0 * x, Cmp::Le, 1.0);
        let near = m.add_row("near", 1.0 * x, Cmp::Le, 1.0 + 4e-6);
        let mut sol = m.solve().unwrap();
        assert_optimal(&m, &sol, 1e-6);
        assert_eq!((sol.duals[tight.index()], sol.duals[near.index()]), (1000.0, 0.0));
        sol.duals.swap(tight.index(), near.index());
        let bad = check_optimal(&m, &sol, 1e-6);
        assert!(
            matches!(bad.as_slice(), [Violation::DualityGap { .. }]),
            "only the gap sees the wrong dual: {bad:?}"
        );
    }

    /// The one-pass reduced costs equal the per-variable scan over the rows.
    #[test]
    fn reduced_costs_match_a_per_variable_scan() {
        let mut m = Model::new(Sense::Minimize);
        let v: Vec<Var> = (0..4).map(|j| m.add_var("v", 0.0, 5.0, 1.0 + j as f64)).collect();
        m.add_row("a", 2.0 * v[0] + 1.0 * v[2], Cmp::Ge, 1.0);
        m.add_row("b", 1.0 * v[1] - 3.0 * v[2] + 1.0 * v[3], Cmp::Ge, 2.0);
        m.add_row("c", 1.0 * v[0] + 1.0 * v[3], Cmp::Le, 4.0);
        let sol = m.solve().unwrap();
        assert_optimal(&m, &sol, 1e-7);
        for (j, &d) in reduced_costs(&m, &sol).iter().enumerate() {
            let scan = m.rows.iter().zip(sol.duals()).fold(m.vars[j].obj, |d, (row, &y)| {
                row.terms.iter().filter(|t| t.var.index() == j).fold(d, |d, t| d - y * t.coef)
            });
            assert_eq!(d.to_bits(), scan.to_bits(), "variable {j}");
        }
    }
}

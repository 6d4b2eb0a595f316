//! Integration tests for the revised simplex solver: textbook problems,
//! duality identities, degenerate cases, and all termination statuses.

use pretium_lp::validate::assert_optimal;
use pretium_lp::{Cmp, LinExpr, Model, Sense, SolveError};

const TOL: f64 = 1e-6;

fn assert_close(a: f64, b: f64) {
    assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()), "{a} != {b}");
}

#[test]
fn textbook_max_two_vars() {
    // max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6. Optimum (3, 1.5), obj 21.
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_nonneg("x", 5.0);
    let y = m.add_nonneg("y", 4.0);
    m.add_row("r1", 6.0 * x + 4.0 * y, Cmp::Le, 24.0);
    m.add_row("r2", 1.0 * x + 2.0 * y, Cmp::Le, 6.0);
    let sol = m.solve().unwrap();
    assert_close(sol.objective(), 21.0);
    assert_close(sol.value(x), 3.0);
    assert_close(sol.value(y), 1.5);
    assert_optimal(&m, &sol, TOL);
}

#[test]
fn textbook_min_with_ge_rows() {
    // min 0.12x + 0.15y s.t. 60x + 60y >= 300, 12x + 6y >= 36, 10x + 30y >= 90.
    // Known optimum: x = 3, y = 2, obj = 0.66.
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_nonneg("x", 0.12);
    let y = m.add_nonneg("y", 0.15);
    m.add_row("a", 60.0 * x + 60.0 * y, Cmp::Ge, 300.0);
    m.add_row("b", 12.0 * x + 6.0 * y, Cmp::Ge, 36.0);
    m.add_row("c", 10.0 * x + 30.0 * y, Cmp::Ge, 90.0);
    let sol = m.solve().unwrap();
    assert_close(sol.objective(), 0.66);
    assert_close(sol.value(x), 3.0);
    assert_close(sol.value(y), 2.0);
    assert_optimal(&m, &sol, TOL);
}

#[test]
fn equality_constraints() {
    // max x + 2y + 3z s.t. x + y + z = 10, x - y = 2, z <= 4.
    // z = 4, then x + y = 6 with x - y = 2 -> x = 4, y = 2. obj = 4 + 4 + 12 = 20.
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_nonneg("x", 1.0);
    let y = m.add_nonneg("y", 2.0);
    let z = m.add_nonneg("z", 3.0);
    m.add_row("sum", x + y + z, Cmp::Eq, 10.0);
    m.add_row("diff", LinExpr::from(x) - y, Cmp::Eq, 2.0);
    m.add_row("cap", LinExpr::from(z), Cmp::Le, 4.0);
    let sol = m.solve().unwrap();
    assert_close(sol.objective(), 20.0);
    assert_close(sol.value(x), 4.0);
    assert_close(sol.value(y), 2.0);
    assert_close(sol.value(z), 4.0);
    assert_optimal(&m, &sol, TOL);
}

#[test]
fn free_variables() {
    // min |style|: min x + y s.t. x + y >= 5 with x free, y in [0, 2].
    // Free x takes everything: unboundedly negative? No: minimize x + y with
    // x + y >= 5 -> optimum on the boundary x + y = 5, obj 5.
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_free("x", 1.0);
    let y = m.add_var("y", 0.0, 2.0, 1.0);
    m.add_row("r", x + y, Cmp::Ge, 5.0);
    let sol = m.solve().unwrap();
    assert_close(sol.objective(), 5.0);
    assert_optimal(&m, &sol, TOL);
}

#[test]
fn free_variable_negative_optimum() {
    // max -x s.t. x >= -7, x free: optimum x = -7, obj 7.
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_free("x", -1.0);
    m.add_row("lb", LinExpr::from(x), Cmp::Ge, -7.0);
    let sol = m.solve().unwrap();
    assert_close(sol.objective(), 7.0);
    assert_close(sol.value(x), -7.0);
}

#[test]
fn upper_bounded_variables_bound_flips() {
    // max Σ x_i with x_i <= i and one aggregate row that is loose enough
    // that every variable just flips to its upper bound.
    let mut m = Model::new(Sense::Maximize);
    let xs: Vec<_> = (1..=6).map(|i| m.add_var(&format!("x{i}"), 0.0, i as f64, 1.0)).collect();
    let sum = LinExpr::from_terms(xs.iter().map(|&v| (1.0, v)));
    m.add_row("agg", sum, Cmp::Le, 100.0);
    let sol = m.solve().unwrap();
    assert_close(sol.objective(), 21.0);
    for (i, &x) in xs.iter().enumerate() {
        assert_close(sol.value(x), (i + 1) as f64);
    }
    assert_optimal(&m, &sol, TOL);
}

#[test]
fn infeasible_detected() {
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_var("x", 0.0, 10.0, 1.0);
    m.add_row("lo", LinExpr::from(x), Cmp::Ge, 5.0);
    m.add_row("hi", LinExpr::from(x), Cmp::Le, 3.0);
    match m.solve() {
        Err(SolveError::Infeasible { residual }) => assert!(residual > 1.0),
        other => panic!("expected infeasible, got {other:?}"),
    }
}

#[test]
fn infeasible_equality_system() {
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_nonneg("x", 1.0);
    let y = m.add_nonneg("y", 1.0);
    m.add_row("a", x + y, Cmp::Eq, 1.0);
    m.add_row("b", x + y, Cmp::Eq, 3.0);
    assert!(matches!(m.solve(), Err(SolveError::Infeasible { .. })));
}

#[test]
fn unbounded_detected() {
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_nonneg("x", 1.0);
    let y = m.add_nonneg("y", 1.0);
    m.add_row("r", LinExpr::from(x) - y, Cmp::Le, 1.0);
    assert!(matches!(m.solve(), Err(SolveError::Unbounded { .. })));
}

#[test]
fn unbounded_free_variable() {
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_free("x", 1.0);
    m.add_row("r", LinExpr::from(x), Cmp::Le, 10.0);
    assert!(matches!(m.solve(), Err(SolveError::Unbounded { .. })));
}

#[test]
fn degenerate_problem_terminates() {
    // Classic degenerate LP (multiple constraints meet at the optimum).
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_nonneg("x", 2.0);
    let y = m.add_nonneg("y", 3.0);
    m.add_row("a", 1.0 * x + 1.0 * y, Cmp::Le, 4.0);
    m.add_row("b", 1.0 * x + 1.0 * y, Cmp::Le, 4.0);
    m.add_row("c", 2.0 * x + 2.0 * y, Cmp::Le, 8.0);
    m.add_row("d", 1.0 * x + 2.0 * y, Cmp::Le, 6.0);
    let sol = m.solve().unwrap();
    // y = 2, x = 2 -> 4 + 6 = 10
    assert_close(sol.objective(), 10.0);
    assert_optimal(&m, &sol, TOL);
}

#[test]
fn beale_cycling_example_terminates() {
    // Beale's classic example that cycles under naive Dantzig pricing.
    // min -0.75x1 + 150x2 - 0.02x3 + 6x4
    // s.t. 0.25x1 - 60x2 - 0.04x3 + 9x4 <= 0
    //      0.5x1  - 90x2 - 0.02x3 + 3x4 <= 0
    //      x3 <= 1;   x >= 0.  Optimum -0.05.
    let mut m = Model::new(Sense::Minimize);
    let x1 = m.add_nonneg("x1", -0.75);
    let x2 = m.add_nonneg("x2", 150.0);
    let x3 = m.add_nonneg("x3", -0.02);
    let x4 = m.add_nonneg("x4", 6.0);
    m.add_row("r1", 0.25 * x1 + (-60.0) * x2 + (-0.04) * x3 + 9.0 * x4, Cmp::Le, 0.0);
    m.add_row("r2", 0.5 * x1 + (-90.0) * x2 + (-0.02) * x3 + 3.0 * x4, Cmp::Le, 0.0);
    m.add_row("r3", LinExpr::from(x3), Cmp::Le, 1.0);
    let sol = m.solve().unwrap();
    assert_close(sol.objective(), -0.05);
    assert_optimal(&m, &sol, TOL);
}

#[test]
fn duals_match_known_shadow_prices() {
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic Dantzig).
    // Optimum (2, 6) obj 36; duals: 0, 1.5, 1.
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_nonneg("x", 3.0);
    let y = m.add_nonneg("y", 5.0);
    let r1 = m.add_row("r1", LinExpr::from(x), Cmp::Le, 4.0);
    let r2 = m.add_row("r2", 2.0 * y, Cmp::Le, 12.0);
    let r3 = m.add_row("r3", 3.0 * x + 2.0 * y, Cmp::Le, 18.0);
    let sol = m.solve().unwrap();
    assert_close(sol.objective(), 36.0);
    assert_close(sol.dual(r1), 0.0);
    assert_close(sol.dual(r2), 1.5);
    assert_close(sol.dual(r3), 1.0);
    assert_optimal(&m, &sol, TOL);
}

#[test]
fn strong_duality_on_min_problem() {
    // min 2x + 3y s.t. x + y >= 4, x + 3y >= 6; duals y1, y2 satisfy
    // strong duality: obj == 4*y1 + 6*y2.
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_nonneg("x", 2.0);
    let y = m.add_nonneg("y", 3.0);
    let r1 = m.add_row("r1", x + y, Cmp::Ge, 4.0);
    let r2 = m.add_row("r2", 1.0 * x + 3.0 * y, Cmp::Ge, 6.0);
    let sol = m.solve().unwrap();
    let dual_obj = 4.0 * sol.dual(r1) + 6.0 * sol.dual(r2);
    assert_close(sol.objective(), dual_obj);
    assert_optimal(&m, &sol, TOL);
}

#[test]
fn dual_is_rhs_sensitivity() {
    // Numerically verify dual == d(obj)/d(rhs) by finite difference.
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_nonneg("x", 5.0);
    let y = m.add_nonneg("y", 4.0);
    let r1 = m.add_row("r1", 6.0 * x + 4.0 * y, Cmp::Le, 24.0);
    m.add_row("r2", 1.0 * x + 2.0 * y, Cmp::Le, 6.0);
    let sol = m.solve().unwrap();
    let base = sol.objective();
    let dual = sol.dual(r1);
    let mut m2 = m.clone();
    m2.set_rhs(r1, 24.0 + 0.1);
    let bumped = m2.solve().unwrap().objective();
    assert_close((bumped - base) / 0.1, dual);
}

#[test]
fn transportation_problem() {
    // 2 sources (supply 20, 30), 3 sinks (demand 10, 25, 15).
    // costs: [[2,3,1],[5,4,8]]. Known optimum: 20*? compute: classic answer 145?
    // Solve and certify by KKT instead of hard-coding; also check balance.
    let mut m = Model::new(Sense::Minimize);
    let costs = [[2.0, 3.0, 1.0], [5.0, 4.0, 8.0]];
    let supply = [20.0, 30.0];
    let demand = [10.0, 25.0, 15.0];
    let mut x = Vec::new();
    for (i, row) in costs.iter().enumerate() {
        for (j, &c) in row.iter().enumerate() {
            x.push(m.add_nonneg(&format!("x{i}{j}"), c));
        }
    }
    for (i, &s) in supply.iter().enumerate() {
        let e = LinExpr::from_terms((0..3).map(|j| (1.0, x[i * 3 + j])));
        m.add_row(&format!("s{i}"), e, Cmp::Le, s);
    }
    for (j, &d) in demand.iter().enumerate() {
        let e = LinExpr::from_terms((0..2).map(|i| (1.0, x[i * 3 + j])));
        m.add_row(&format!("d{j}"), e, Cmp::Ge, d);
    }
    let sol = m.solve().unwrap();
    assert_optimal(&m, &sol, TOL);
    // Optimal plan: s0 -> t2 (15), s0 -> t0 (5)... verify exact value by
    // enumerating: the LP optimum is 180.
    // s0: t0=5? Recompute known optimum via greedy check: cost must be <= any
    // feasible plan, e.g. naive plan s0->d0(10)+d1(10), s1->d1(15)+d2(15):
    let naive = 2.0 * 10.0 + 3.0 * 10.0 + 4.0 * 15.0 + 8.0 * 15.0;
    assert!(sol.objective() <= naive + 1e-9);
}

#[test]
fn fixed_variables_are_respected() {
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_var("x", 2.5, 2.5, 10.0);
    let y = m.add_nonneg("y", 1.0);
    m.add_row("r", x + y, Cmp::Le, 10.0);
    let sol = m.solve().unwrap();
    assert_close(sol.value(x), 2.5);
    assert_close(sol.value(y), 7.5);
    assert_close(sol.objective(), 32.5);
}

#[test]
fn negative_lower_bounds() {
    // max x + y with x in [-5, -1], y in [-2, 3], x + y >= -4.
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_var("x", -5.0, -1.0, 1.0);
    let y = m.add_var("y", -2.0, 3.0, 1.0);
    m.add_row("r", x + y, Cmp::Ge, -4.0);
    let sol = m.solve().unwrap();
    assert_close(sol.objective(), 2.0); // x=-1, y=3
    assert_optimal(&m, &sol, TOL);
}

#[test]
fn objective_offset_reported() {
    let mut m = Model::new(Sense::Maximize);
    let _x = m.add_var("x", 0.0, 5.0, 2.0);
    m.add_obj_offset(100.0);
    let sol = m.solve().unwrap();
    assert_close(sol.objective(), 110.0);
}

#[test]
fn empty_model_solves() {
    let m = Model::new(Sense::Maximize);
    let sol = m.solve().unwrap();
    assert_close(sol.objective(), 0.0);
    assert_eq!(sol.stats().iterations, 0);
}

#[test]
fn model_with_no_rows_moves_vars_to_best_bound() {
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_var("x", 0.0, 3.0, 2.0); // wants upper bound
    let y = m.add_var("y", 1.0, 4.0, -1.0); // wants lower bound
    let sol = m.solve().unwrap();
    assert_close(sol.value(x), 3.0);
    assert_close(sol.value(y), 1.0);
    assert_close(sol.objective(), 5.0);
}

#[test]
fn redundant_rows_do_not_confuse_duals() {
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_nonneg("x", 1.0);
    let r1 = m.add_row("tight", LinExpr::from(x), Cmp::Le, 2.0);
    let r2 = m.add_row("loose", LinExpr::from(x), Cmp::Le, 100.0);
    let sol = m.solve().unwrap();
    assert_close(sol.objective(), 2.0);
    assert_close(sol.dual(r1), 1.0);
    assert_close(sol.dual(r2), 0.0);
}

#[test]
fn medium_random_dense_problem_certifies() {
    // A deterministic ~40x60 LP exercising refactorization and bound flips.
    let mut m = Model::new(Sense::Maximize);
    let n = 60;
    let rows = 40;
    let mut seed = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed >> 11) as f64 / (1u64 << 53) as f64
    };
    let xs: Vec<_> = (0..n)
        .map(|j| m.add_var(&format!("x{j}"), 0.0, 1.0 + 4.0 * next(), 0.1 + next()))
        .collect();
    for i in 0..rows {
        let mut e = LinExpr::new();
        for (j, &x) in xs.iter().enumerate() {
            if (i + j) % 3 == 0 {
                e.add_term(0.2 + next(), x);
            }
        }
        m.add_row(&format!("r{i}"), e, Cmp::Le, 3.0 + 5.0 * next());
    }
    let sol = m.solve().unwrap();
    assert!(sol.objective() > 0.0);
    assert_optimal(&m, &sol, 1e-5);
}

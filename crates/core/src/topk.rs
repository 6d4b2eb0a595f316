//! LP encodings of "sum of the k largest values" (§4.2, Theorem 4.2).
//!
//! The 95th-percentile link cost is non-convex (Theorem 4.1: NP-hard to
//! optimize exactly), so Pretium substitutes the *sum-of-top-k* proxy,
//! which admits a linear encoding. Two encodings are provided:
//!
//! * [`TopkEncoding::SortingNetwork`] — the paper's own construction
//!   (appendix proof of Theorem 4.2): `k` bubble-sort passes of linear
//!   comparators, `O(kT)` rows, three constraints per comparator (the
//!   paper notes this improves on prior work's five).
//! * [`TopkEncoding::CVar`] — the classical CVaR/quantile trick
//!   (`S ≥ k·u + Σ max(0, x_t − u)` minimized over `u`), `O(T)` rows.
//!
//! Both yield a variable `S` that, under minimization pressure, equals the
//! sum of the `k` largest inputs exactly. The property tests cross-check
//! the two encodings against a direct sort; the `lp_solver` bench's
//! `topk_encoding/{sorting_network,cvar}/*` cases time their solves.

use pretium_lp::{Cmp, LinExpr, Model, Name, Var};

/// Which top-k encoding the scheduling LPs use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopkEncoding {
    /// The paper's Theorem 4.2 construction (`O(kT)` rows).
    SortingNetwork,
    /// CVaR encoding (`O(T)` rows). Same optimum, smaller LP.
    CVar,
}

/// Add an upper bound `S ≥ sum of k largest of inputs` to `model` and
/// return `S`. Its columns and rows are named `name` followed by `_S`,
/// `_u`, `_s{t}`, `_ex{t}`, `_bound`, … (rendered only when read).
///
/// `S` is tight (equals the top-k sum) at any optimum in which the
/// objective strictly decreases in `S` — which is the case for all
/// Pretium LPs, where `S` enters the welfare objective with coefficient
/// `-C_e/k`.
///
/// # Panics
/// Panics if `inputs` is empty or `k == 0`.
pub fn topk_upper_bound<'n>(
    model: &mut Model,
    inputs: &[Var],
    k: usize,
    enc: TopkEncoding,
    name: impl Into<Name<'n>>,
) -> Var {
    assert!(!inputs.is_empty(), "top-k of an empty set");
    assert!(k >= 1, "k must be at least 1");
    let name = name.into();
    let t = inputs.len();
    if k >= t {
        // Degenerate: sum of everything.
        let s = model.add_nonneg(name.join("_S", []), 0.0);
        let mut e = LinExpr::with_capacity(t + 1);
        for &x in inputs {
            e.add_term(1.0, x);
        }
        model.add_row(name.join("_sumall", []), e.term(-1.0, s), Cmp::Le, 0.0);
        return s;
    }
    match enc {
        TopkEncoding::SortingNetwork => sorting_network(model, inputs, k, name),
        TopkEncoding::CVar => cvar(model, inputs, k, name),
    }
}

/// The paper's bubble-sort construction. Each comparator on `(a, b)`
/// introduces outputs `(m, M)` with
/// `a + b = m + M`, `m ≤ a`, `m ≤ b` — three rows, two new columns.
/// Pass `i` bubbles the i-th largest value to the end; after `k` passes the
/// bubbled maxima `F¹..Fᵏ` sum to (at least) the top-k sum.
fn sorting_network(model: &mut Model, inputs: &[Var], k: usize, name: Name<'_>) -> Var {
    let t = inputs.len();
    // Comparator `c` of pass `p` is tagged `_p{p}c{c}`.
    let mut comparator = |a: Var, b: Var, p: usize, c: usize| -> (Var, Var) {
        let m = model.add_nonneg(name.join("_p{}c{}_m", [p, c]), 0.0);
        let big = model.add_nonneg(name.join("_p{}c{}_M", [p, c]), 0.0);
        // a + b = m + M
        model.add_row(
            name.join("_p{}c{}_sum", [p, c]),
            LinExpr::new().term(1.0, a).term(1.0, b).term(-1.0, m).term(-1.0, big),
            Cmp::Eq,
            0.0,
        );
        // m <= a, m <= b
        model.add_row(
            name.join("_p{}c{}_le_a", [p, c]),
            LinExpr::new().term(1.0, m).term(-1.0, a),
            Cmp::Le,
            0.0,
        );
        model.add_row(
            name.join("_p{}c{}_le_b", [p, c]),
            LinExpr::new().term(1.0, m).term(-1.0, b),
            Cmp::Le,
            0.0,
        );
        (m, big)
    };

    let mut level: Vec<Var> = inputs.to_vec();
    let mut maxima: Vec<Var> = Vec::with_capacity(k);
    for pass in 0..k {
        debug_assert!(level.len() == t - pass);
        let mut next: Vec<Var> = Vec::with_capacity(level.len() - 1);
        // First comparator takes the first two inputs; each later one takes
        // the running maximum and the next input (bubble sort).
        let (m0, mut carry) = comparator(level[0], level[1], pass, 0);
        next.push(m0);
        for (j, &inp) in level.iter().enumerate().skip(2) {
            let (m, big) = comparator(carry, inp, pass, j - 1);
            next.push(m);
            carry = big;
        }
        maxima.push(carry);
        level = next;
    }
    let s = model.add_nonneg(name.join("_S", []), 0.0);
    // S >= F^1 + ... + F^k
    let mut e = LinExpr::with_capacity(k + 1);
    for &f in &maxima {
        e.add_term(1.0, f);
    }
    model.add_row(name.join("_topk", []), e.term(-1.0, s), Cmp::Le, 0.0);
    s
}

/// CVaR encoding: `S ≥ k·u + Σ_t s_t`, `s_t ≥ x_t − u`, `s_t ≥ 0`,
/// `u` free. Minimizing `S` sets `u` to the k-th largest input and `S` to
/// the exact top-k sum.
fn cvar(model: &mut Model, inputs: &[Var], k: usize, name: Name<'_>) -> Var {
    let u = model.add_free(name.join("_u", []), 0.0);
    let s = model.add_nonneg(name.join("_S", []), 0.0);
    // In column order, as the row keeps it.
    let mut total = LinExpr::with_capacity(inputs.len() + 2).term(k as f64, u).term(-1.0, s);
    for (t, &x) in inputs.iter().enumerate() {
        let st = model.add_nonneg(name.join("_s{}", [t]), 0.0);
        // x_t - u - s_t <= 0
        model.add_row(
            name.join("_ex{}", [t]),
            LinExpr::new().term(1.0, x).term(-1.0, u).term(-1.0, st),
            Cmp::Le,
            0.0,
        );
        total.add_term(1.0, st);
    }
    model.add_row(name.join("_bound", []), total, Cmp::Le, 0.0);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretium_lp::Sense;
    use pretium_net::percentile::top_k_sum;

    /// Minimize S with the inputs pinned at `values`; S must equal the
    /// top-k sum exactly.
    fn solve_topk(values: &[f64], k: usize, enc: TopkEncoding) -> (f64, usize, usize) {
        let mut m = Model::new(Sense::Minimize);
        let xs: Vec<Var> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| m.add_var(&format!("x{i}"), v, v, 0.0))
            .collect();
        let s = topk_upper_bound(&mut m, &xs, k, enc, "e0");
        m.set_obj(s, 1.0);
        let sol = m.solve().unwrap();
        (sol.value(s), m.num_rows(), m.num_vars())
    }

    #[test]
    fn both_encodings_match_direct_sort() {
        let values = [3.0, 9.0, 1.0, 7.0, 5.0, 5.0, 0.0, 2.0];
        for k in 1..=8 {
            let want = top_k_sum(&values, k);
            for enc in [TopkEncoding::SortingNetwork, TopkEncoding::CVar] {
                let (got, _, _) = solve_topk(&values, k, enc);
                assert!((got - want).abs() < 1e-7, "{enc:?} k={k}: got {got}, want {want}");
            }
        }
    }

    #[test]
    fn handles_ties_and_zeros() {
        let values = [0.0, 0.0, 4.0, 4.0, 4.0];
        for enc in [TopkEncoding::SortingNetwork, TopkEncoding::CVar] {
            let (got, _, _) = solve_topk(&values, 2, enc);
            assert!((got - 8.0).abs() < 1e-7, "{enc:?}: {got}");
        }
    }

    #[test]
    fn k_equals_t_sums_everything() {
        let values = [1.0, 2.0, 3.0];
        let (got, rows, _) = solve_topk(&values, 3, TopkEncoding::SortingNetwork);
        assert!((got - 6.0).abs() < 1e-9);
        assert_eq!(rows, 1, "degenerate case should emit a single row");
    }

    #[test]
    fn sorting_network_row_count_is_o_kt() {
        let values: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let k = 3;
        let (_, rows, _) = solve_topk(&values, k, TopkEncoding::SortingNetwork);
        // Pass i has (T - i - 1) comparators × 3 rows, plus the final bound:
        // exact count 3·(T-1 + T-2 + T-3) + 1 = 3·(3T - 6) + 1.
        let expect = 3 * (3 * 30 - 6) + 1;
        assert_eq!(rows, expect);
        assert!(rows <= 3 * k * 30 + 1, "must be O(kT)");
    }

    #[test]
    fn cvar_row_count_is_o_t() {
        let values: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let (_, rows, _) = solve_topk(&values, 3, TopkEncoding::CVar);
        assert_eq!(rows, 31); // T excess rows + 1 bound
    }

    #[test]
    fn interacts_with_optimization_pressure() {
        // max 2a + b - S where S >= top-1 of {a, b}, a,b <= 4: the cost term
        // should not stop a from reaching its bound (coef 2 > 1), and
        // S == max(a, b) == 4 at the optimum.
        for enc in [TopkEncoding::SortingNetwork, TopkEncoding::CVar] {
            let mut m = Model::new(Sense::Maximize);
            let a = m.add_var("a", 0.0, 4.0, 2.0);
            let b = m.add_var("b", 0.0, 4.0, 1.0);
            let s = topk_upper_bound(&mut m, &[a, b], 1, enc, "e");
            m.set_obj(s, -1.0);
            let sol = m.solve().unwrap();
            assert!((sol.value(a) - 4.0).abs() < 1e-7, "{enc:?}");
            // b's marginal value (1) equals S's marginal cost (1): any b with
            // S = max(a,b) = 4 is optimal; objective must be 2·4 + 4 - 4 = 8.
            assert!((sol.objective() - 8.0).abs() < 1e-7, "{enc:?}: {}", sol.objective());
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_inputs_rejected() {
        let mut m = Model::new(Sense::Minimize);
        topk_upper_bound(&mut m, &[], 1, TopkEncoding::CVar, "e");
    }
}

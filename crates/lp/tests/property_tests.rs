//! Property-based tests: random LPs with a known feasible point must solve
//! to a KKT-certified optimum that weakly dominates that point.
//!
//! The build environment has no registry access, so instead of `proptest`
//! these use a local deterministic xorshift generator: each property runs a
//! fixed number of randomized cases and reports the failing case's seed on
//! panic, which is enough to reproduce (the generator is seeded per case).

use pretium_lp::validate::{assert_optimal, check_optimal};
use pretium_lp::{Cmp, LinExpr, Model, Sense};

/// Deterministic xorshift64* stream in `[0, 1)`.
struct Gen(u64);

impl Gen {
    fn new(seed: u64) -> Self {
        Gen(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

const CASES: u64 = 64;

/// Build a random *feasible bounded* maximization LP:
/// variables x_j in [0, ub_j], rows a·x <= b with b = a·x0 + slack for a
/// random interior point x0, so feasibility is guaranteed by construction.
fn feasible_lp(g: &mut Gen) -> (Model, Vec<f64>, Vec<f64>) {
    let nvars = 2 + g.index(6);
    let nrows = 1 + g.index(9);
    let x0: Vec<f64> = (0..nvars).map(|_| g.range(0.0, 5.0)).collect();
    let objs: Vec<f64> = (0..nvars).map(|_| g.range(-1.0, 3.0)).collect();
    let mut m = Model::new(Sense::Maximize);
    let xs: Vec<_> =
        (0..nvars).map(|j| m.add_var(&format!("x{j}"), 0.0, x0[j] * 2.0 + 1.0, objs[j])).collect();
    for i in 0..nrows {
        let mut e = LinExpr::new();
        let mut lhs_at_x0 = 0.0;
        for (j, &x) in xs.iter().enumerate() {
            let c = g.range(-2.0, 2.0);
            if c.abs() > 0.05 {
                e.add_term(c, x);
                lhs_at_x0 += c * x0[j];
            }
        }
        m.add_row(&format!("r{i}"), e, Cmp::Le, lhs_at_x0 + g.range(0.0, 4.0));
    }
    (m, x0, objs)
}

#[test]
fn random_feasible_lps_reach_certified_optimum() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed);
        let (m, x0, objs) = feasible_lp(&mut g);
        let sol = m.solve().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        // Optimum dominates the known feasible point.
        let val_at_x0: f64 = objs.iter().zip(&x0).map(|(c, v)| c * v).sum();
        assert!(
            sol.objective() >= val_at_x0 - 1e-6 * (1.0 + val_at_x0.abs()),
            "seed {seed}: optimum {} below feasible point {val_at_x0}",
            sol.objective()
        );
        // Full KKT certification.
        let violations = check_optimal(&m, &sol, 1e-6);
        assert!(violations.is_empty(), "seed {seed}: KKT violations: {violations:?}");
    }
}

#[test]
fn strong_duality_holds_on_random_inequality_lps() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed ^ 0xA5A5);
        let nvars = 2 + g.index(4);
        let nrows = 1 + g.index(5);
        // All-positive data: max c·x, A x <= b, x >= 0 is always feasible
        // (x = 0) and bounded by the explicit upper bounds below.
        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> =
            (0..nvars).map(|j| m.add_nonneg(&format!("x{j}"), g.range(0.1, 2.0))).collect();
        let mut rows = Vec::new();
        let mut bs = Vec::new();
        for i in 0..nrows {
            let mut e = LinExpr::new();
            for &x in &xs {
                e.add_term(g.range(0.1, 2.0), x);
            }
            let b = g.range(0.5, 10.0);
            rows.push(m.add_row(&format!("r{i}"), e, Cmp::Le, b));
            bs.push(b);
        }
        for &x in &xs {
            m.set_bounds(x, 0.0, 50.0);
        }
        let sol = m.solve().unwrap();
        assert_optimal(&m, &sol, 1e-6);
        // Weak duality with bound terms: y·b + Σ ub_j·max(0, c_j - yᵀA_j)
        // must dominate the objective.
        let yb: f64 = rows.iter().zip(&bs).map(|(r, b)| sol.dual(*r) * b).sum();
        let bound_part: f64 = pretium_lp::validate::reduced_costs(&m, &sol)
            .iter()
            .map(|red| 50.0 * red.max(0.0))
            .sum();
        assert!(
            yb + bound_part >= sol.objective() - 1e-5 * (1.0 + sol.objective().abs()),
            "seed {seed}: weak duality violated: {yb} + {bound_part} < {}",
            sol.objective()
        );
    }
}

#[test]
fn minimize_maximize_symmetry() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed ^ 0x5A5A);
        let objs: Vec<f64> = (0..4).map(|_| g.range(-3.0, 3.0)).collect();
        let rhs = g.range(1.0, 10.0);
        // max c·x == -min (-c)·x on the same feasible set.
        let build = |sense: Sense, flip: f64| {
            let mut m = Model::new(sense);
            let xs: Vec<_> = objs
                .iter()
                .enumerate()
                .map(|(j, &c)| m.add_var(&format!("x{j}"), 0.0, 5.0, flip * c))
                .collect();
            let e = LinExpr::from_terms(xs.iter().map(|&x| (1.0, x)));
            m.add_row("sum", e, Cmp::Le, rhs);
            m.solve().unwrap().objective()
        };
        let maxed = build(Sense::Maximize, 1.0);
        let minned = build(Sense::Minimize, -1.0);
        assert!(
            (maxed + minned).abs() < 1e-6 * (1.0 + maxed.abs()),
            "seed {seed}: max {maxed} vs -min {minned}"
        );
    }
}

#[test]
fn equality_rows_hold_exactly() {
    for seed in 0..CASES {
        let mut g = Gen::new(seed ^ 0x3C3C);
        let target = g.range(0.5, 8.0);
        let objs: Vec<f64> = (0..5).map(|_| g.range(0.1, 2.0)).collect();
        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> = objs
            .iter()
            .enumerate()
            .map(|(j, &c)| m.add_var(&format!("x{j}"), 0.0, 10.0, c))
            .collect();
        let e = LinExpr::from_terms(xs.iter().map(|&x| (1.0, x)));
        m.add_row("eq", e, Cmp::Eq, target);
        let sol = m.solve().unwrap();
        let total: f64 = xs.iter().map(|&x| sol.value(x)).sum();
        assert!((total - target).abs() < 1e-7 * (1.0 + target), "seed {seed}");
        // Everything should go to the variable with the largest coefficient.
        let best = objs.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            (sol.objective() - best * target).abs() < 1e-6 * (1.0 + best * target),
            "seed {seed}: {} vs {}",
            sol.objective(),
            best * target
        );
    }
}

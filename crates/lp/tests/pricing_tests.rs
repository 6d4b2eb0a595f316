//! Pricing tests: the one pricing rule (partial Devex) reaches a
//! KKT-certified optimum on schedule-shaped LPs (the per-(job, path,
//! timestep) structure SAM produces), cold and across warm restarts; the
//! Bland's-rule anti-cycling escape hatch fires; wide random models
//! certify too; and a pivot prices a fraction of the columns.
//!
//! As with the other property suites, randomness comes from a local
//! deterministic xorshift stream (no registry access in the build
//! environment); every failing case reports its seed.

use pretium_lp::validate::check_optimal;
use pretium_lp::{Cmp, LinExpr, Model, RowId, Sense, SimplexOptions, SolveOptions, SolverSession};

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

/// Build a schedule-shaped LP: `jobs × paths × steps` flow variables,
/// per-(link, step) capacity rows over overlapping path supports, one
/// demand cap per job, and a guarantee floor per job softened by a
/// penalized shortfall variable — the same row/column structure SAM's
/// per-timestep re-optimizations produce.
fn schedule_lp(g: &mut Gen) -> Model {
    let jobs = 2 + g.index(5);
    let paths = 1 + g.index(3);
    let steps = 2 + g.index(5);
    let links = 2 + g.index(4);
    let mut m = Model::new(Sense::Maximize);
    // Flow variables with per-unit value minus a small path cost.
    let mut x = vec![vec![Vec::with_capacity(steps); paths]; jobs];
    let weights: Vec<f64> = (0..jobs).map(|_| g.range(0.5, 3.0)).collect();
    for (j, wj) in weights.iter().enumerate() {
        for (p, xp) in x[j].iter_mut().enumerate() {
            let cost = g.range(0.0, 0.4);
            for t in 0..steps {
                xp.push(m.add_var(&format!("x_{j}_{p}_{t}"), 0.0, f64::INFINITY, wj - cost));
            }
        }
    }
    // Each (job, path) crosses a couple of links; capacity rows couple the
    // flows that share a (link, step).
    let mut crossing = vec![vec![Vec::new(); steps]; links];
    for (j, xj) in x.iter().enumerate() {
        for (p, xp) in xj.iter().enumerate() {
            let l1 = (j + p) % links;
            let l2 = (j + p + 1 + g.index(links - 1)) % links;
            for (t, &v) in xp.iter().enumerate() {
                crossing[l1][t].push(v);
                if l2 != l1 {
                    crossing[l2][t].push(v);
                }
            }
        }
    }
    for (l, per_step) in crossing.iter().enumerate() {
        for (t, vars) in per_step.iter().enumerate() {
            if vars.is_empty() {
                continue;
            }
            let mut e = LinExpr::new();
            for &v in vars {
                e.add_term(1.0, v);
            }
            m.add_row(&format!("cap_{l}_{t}"), e, Cmp::Le, g.range(1.0, 6.0));
        }
    }
    // Demand cap and (soft) guarantee floor per job.
    for (j, xj) in x.iter().enumerate() {
        let mut total = LinExpr::new();
        for xp in xj {
            for &v in xp {
                total.add_term(1.0, v);
            }
        }
        let demand = g.range(2.0, 8.0);
        m.add_row(&format!("dem_{j}"), total.clone(), Cmp::Le, demand);
        let s = m.add_var(&format!("short_{j}"), 0.0, f64::INFINITY, -10.0 * weights[j]);
        total.add_term(1.0, s);
        m.add_row(&format!("guar_{j}"), total, Cmp::Ge, demand * g.range(0.2, 0.8));
    }
    m
}

/// Cold solves return KKT-certified optima: finite, primal feasible
/// (bounds included), dual feasible, complementary and gap-free.
#[test]
fn cold_solves_certify_on_schedule_shaped_lps() {
    for seed in 0..48 {
        let mut g = Gen::new(seed);
        let m = schedule_lp(&mut g);
        let sol = SolverSession::new(m.clone())
            .solve(&SolveOptions::default())
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let violations = check_optimal(&m, &sol, 1e-6);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
}

/// Warm restarts (the SAM timestep pattern: RHS moves, re-solve) return
/// certified optima of the mutated model, every one of them.
#[test]
fn warm_restarts_certify_across_rhs_moves() {
    let mut warm = 0;
    for seed in 0..16 {
        let mut g = Gen::new(seed ^ 0x5EED);
        let m = schedule_lp(&mut g);
        let nrows = m.num_rows();
        let mut sess = SolverSession::new(m);
        sess.solve(&SolveOptions::default()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        for _ in 0..4 {
            sess.set_rhs(RowId::from_index(g.index(nrows)), g.range(0.5, 4.0));
            let sol =
                sess.solve(&SolveOptions::default()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let violations = check_optimal(sess.model(), &sol, 1e-6);
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        }
        warm += sess.stats().warm_primal + sess.stats().warm_dual;
    }
    assert!(warm >= 48, "only {warm} of 64 re-solves restarted warm");
}

/// A crafted, massively degenerate LP: a cyclic chain `x_i <= x_{i+1}`
/// with zero right-hand sides forces every feasible point to have all
/// variables equal, so the walk from the all-slack crash basis to the
/// optimum is a run of zero-length steps. With `bland_trigger: 0` the
/// anti-cycling rule must engage under partial Devex — observable through
/// the `bland_pivots` counter — while still reaching the right optimum.
#[test]
fn bland_trigger_fires_under_devex_on_degenerate_lp() {
    let mut m = Model::new(Sense::Maximize);
    let n = 12;
    let xs: Vec<_> = (0..n)
        .map(|j| m.add_var(&format!("x{j}"), 0.0, f64::INFINITY, 1.0 + 0.01 * j as f64))
        .collect();
    // x_i - x_{i+1} <= 0 around a cycle: all variables must be equal.
    for i in 0..n {
        let mut e = LinExpr::new();
        e.add_term(1.0, xs[i]);
        e.add_term(-1.0, xs[(i + 1) % n]);
        m.add_row(&format!("chain{i}"), e, Cmp::Le, 0.0);
    }
    // One shared unit of capacity bounds the common level at 1/n.
    let mut cap = LinExpr::new();
    for &v in &xs {
        cap.add_term(1.0, v);
    }
    m.add_row("cap", cap, Cmp::Le, 1.0);
    // Reference optimum from a solve with the default (effectively
    // never-firing) trigger.
    let reference = m.solve().expect("reference solve");
    assert_eq!(reference.stats().bland_pivots, 0);
    let opts = SolveOptions {
        simplex: Some(SimplexOptions { bland_trigger: 0, ..Default::default() }),
        ..SolveOptions::default()
    };
    let sol = SolverSession::new(m.clone()).solve(&opts).unwrap();
    let reference = reference.objective();
    assert!(
        (sol.objective() - reference).abs() <= 1e-6 * (1.0 + reference.abs()),
        "objective {} vs reference {reference}",
        sol.objective()
    );
    assert!(check_optimal(&m, &sol, 1e-6).is_empty());
    assert!(sol.stats().bland_pivots > 0, "Bland fallback never engaged on a degenerate LP");
}

/// Wide random models (300–600 columns, 60–140 rows): the sectioned
/// partial sweep wraps the column range many times, and the optimum it
/// reaches must pass the KKT certificate. No other test here certifies a
/// model this wide.
#[test]
fn wide_random_models_reach_certified_optima() {
    for seed in 0..8u64 {
        let mut g = Gen::new(seed.wrapping_mul(0x9A17) | 1);
        let nvars = 300 + g.index(300);
        let mut m = Model::new(Sense::Maximize);
        let xs: Vec<_> =
            (0..nvars).map(|j| m.add_var(&format!("x{j}"), 0.0, 2.0, g.range(0.1, 3.0))).collect();
        let nrows = 60 + g.index(80);
        for i in 0..nrows {
            let mut e = LinExpr::new();
            for (j, &v) in xs.iter().enumerate() {
                if (j * 7 + i) % 16 == 0 {
                    e.add_term(g.range(0.2, 1.5), v);
                }
            }
            m.add_row(&format!("r{i}"), e, Cmp::Le, g.range(2.0, 10.0));
        }
        let sol = m.solve().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let violations = check_optimal(&m, &sol, 1e-6);
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
}

/// The pricing-scan counter reflects partial pricing's cost structure on a
/// larger model: a pivot examines a fraction of the `n` columns a full
/// rescan would.
#[test]
fn partial_pricing_scans_fewer_columns() {
    let mut g = Gen::new(0xC0FFEE);
    // A larger instance so sectioned scanning actually engages
    // (n > SECTION_MIN columns).
    let mut m = Model::new(Sense::Maximize);
    let nvars = 400;
    let xs: Vec<_> =
        (0..nvars).map(|j| m.add_var(&format!("x{j}"), 0.0, 2.0, g.range(0.1, 3.0))).collect();
    for i in 0..120 {
        let mut e = LinExpr::new();
        for (j, &v) in xs.iter().enumerate() {
            if (j * 7 + i) % 16 == 0 {
                e.add_term(g.range(0.2, 1.5), v);
            }
        }
        m.add_row(&format!("r{i}"), e, Cmp::Le, g.range(2.0, 10.0));
    }
    let sol = m.solve().unwrap();
    assert!(sol.stats().iterations > 0);
    // Structural and slack columns: what a full rescan prices per pivot.
    let n = m.num_vars() + m.num_rows();
    let per_iter = sol.stats().pricing_scans as f64 / sol.stats().iterations as f64;
    assert!(per_iter < n as f64 / 2.0, "partial pricing scanned {per_iter:.0} of {n} cols/iter");
}

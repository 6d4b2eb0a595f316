//! Simplex cost on SAM-shaped LPs: a cold solve under the one pricing rule
//! (partial Devex with a cyclic candidate list) of three schedule-shaped
//! models up to the size a SAM window re-optimization reaches, and a
//! `warm_dual_sweep` row per model: one session, capacities tightening
//! over [`SWEEP_STEPS`] re-solves, each a restart from the previous basis,
//! by the dual simplex when a cut binds — what SAM does per timestep. The
//! sweep asserts that a dual pivot costs one BTRAN (the pivot row; the
//! duals ride along).
//!
//! Reports wall-clock, simplex iterations, and pricing-scan work per row,
//! and writes `BENCH_lp_pricing.json` at the workspace root with its
//! provenance (cores, commit, date).
//!
//! Set `LP_PRICING_SMOKE=1` for the CI smoke mode: tiny sizes, few
//! samples, an iteration-count regression assertion, and no JSON (so a
//! smoke run never clobbers recorded numbers).

use pretium_bench::{black_box, provenance_json, Harness};
use pretium_lp::{Cmp, LinExpr, Model, Restart, RowId, Sense, SolveOptions, SolverSession};

/// Deterministic xorshift64* stream in `[0, 1)` (no registry access, so
/// the workspace carries its own tiny generator).
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

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }

    fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One size class of the schedule-shaped family SAM produces:
/// per-(job, path, timestep) flow variables, per-(link, step) capacity
/// rows over overlapping path supports, a demand cap per job, and a
/// guarantee floor softened by a penalized shortfall variable.
fn schedule_lp(jobs: usize, paths: usize, steps: usize, links: usize, seed: u64) -> Model {
    let mut g = Gen::new(seed);
    let mut m = Model::new(Sense::Maximize);
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

const SWEEP_STEPS: usize = 8;

/// Counters of a capacity sweep over `m`: after a cold solve, every step
/// cuts a rotating third of the capacity rows (the model's first rows) by a
/// fifth and re-solves warm. Returns `(iterations, pricing_scans)` summed
/// over the warm re-solves.
fn warm_dual_sweep(m: &Model) -> (u64, u64) {
    let caps = (0..m.num_rows())
        .take_while(|&i| m.row_name(RowId::from_index(i)).starts_with("cap_"))
        .count();
    let mut sess = SolverSession::new(m.clone());
    sess.solve(&SolveOptions::default()).unwrap();
    let (mut iterations, mut scans, mut dual_pivots) = (0, 0, 0);
    for step in 0..SWEEP_STEPS {
        for row in (step % 3..caps).step_by(3).map(RowId::from_index) {
            let rhs = sess.model().rhs(row);
            sess.set_rhs(row, 0.8 * rhs);
        }
        let sol = sess.solve(&SolveOptions::default()).unwrap();
        assert_ne!(sess.last_restart(), Some(Restart::Cold), "sweep step {step}");
        let fs = sol.factor_stats();
        // One BTRAN per pivot, one per reprice (the seeding one, one after
        // each refactorization inside a loop, the polish's own), one for the
        // terminal duals.
        assert!(
            fs.btrans <= sol.iterations() + fs.refactors + 1,
            "sweep step {step}: {} BTRANs for {} pivots ({} dual) and {} refactorizations",
            fs.btrans,
            sol.iterations(),
            sol.dual_iterations(),
            fs.refactors
        );
        iterations += sol.iterations();
        scans += sol.pricing_scans();
        dual_pivots += sol.dual_iterations();
    }
    assert!(dual_pivots * 2 > iterations, "{dual_pivots} dual pivots of {iterations}");
    (iterations, scans)
}

struct Record {
    model: &'static str,
    run: &'static str,
    vars: usize,
    rows: usize,
    iterations: u64,
    pricing_scans: u64,
    wall_secs: f64,
}

fn main() {
    let smoke = std::env::var_os("LP_PRICING_SMOKE").is_some();
    // (name, jobs, paths, steps, links): the large point matches a SAM
    // window re-optimization at evaluation scale (~60 active jobs, 3
    // paths each, a 16-step horizon).
    let sizes: &[(&str, usize, usize, usize, usize)] = if smoke {
        &[("smoke", 6, 2, 4, 4)]
    } else {
        &[("small", 8, 2, 8, 6), ("medium", 24, 3, 12, 10), ("large", 60, 3, 16, 14)]
    };
    let mut h = Harness::new().sample_size(if smoke { 3 } else { 10 });
    let mut records: Vec<Record> = Vec::new();

    for &(name, jobs, paths, steps, links) in sizes {
        let m = schedule_lp(jobs, paths, steps, links, 0xA11CE);
        // Counters come from one deterministic cold solve; wall-clock from
        // the harness over the same solve.
        let sol = SolverSession::new(m.clone())
            .solve(&SolveOptions::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let bench_name = format!("lp_pricing/{name}/cold");
        h.bench_function(&bench_name, |b| {
            b.iter(|| {
                let mut sess = SolverSession::new(m.clone());
                black_box(sess.solve(&SolveOptions::default()).unwrap().objective())
            });
        });
        records.push(Record {
            model: name,
            run: "cold",
            vars: m.num_vars(),
            rows: m.num_rows(),
            iterations: sol.iterations(),
            pricing_scans: sol.pricing_scans(),
            wall_secs: h.get(&bench_name).map(|r| r.median().as_secs_f64()).unwrap_or(0.0),
        });
        let (iterations, pricing_scans) = warm_dual_sweep(&m);
        let bench_name = format!("lp_pricing/{name}/warm_dual_sweep");
        h.bench_function(&bench_name, |b| b.iter(|| black_box(warm_dual_sweep(&m))));
        records.push(Record {
            model: name,
            run: "warm_dual_sweep",
            vars: m.num_vars(),
            rows: m.num_rows(),
            iterations,
            pricing_scans,
            wall_secs: h.get(&bench_name).map(|r| r.median().as_secs_f64()).unwrap_or(0.0),
        });
    }

    if smoke {
        // Regression guard for CI: the smoke model is fixed and the solver
        // deterministic, so iteration counts only move when the algorithm
        // does. Bounds carry ~2x headroom over the recorded counts.
        for r in &records {
            let cap = if r.run == "warm_dual_sweep" { 50 } else { 250 };
            assert!(
                r.iterations <= cap,
                "{}/{}: {} iterations exceeds regression cap {cap}",
                r.model,
                r.run,
                r.iterations
            );
        }
        println!("lp_pricing smoke: iteration caps hold");
        return;
    }

    // Hand-formatted JSON (the workspace builds offline, without serde).
    let mut rows = String::new();
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        rows.push_str(&format!(
            "    {{ \"model\": \"{}\", \"run\": \"{}\", \"vars\": {}, \"rows\": {}, \
             \"iterations\": {}, \"pricing_scans\": {}, \"wall_secs\": {:.6} }}{sep}\n",
            r.model, r.run, r.vars, r.rows, r.iterations, r.pricing_scans, r.wall_secs
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"lp_pricing\",\n  {},\n  \"results\": [\n{rows}  ]\n}}\n",
        provenance_json()
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_lp_pricing.json");
    std::fs::write(path, json).expect("write BENCH_lp_pricing.json");
    println!("wrote {path}");
}

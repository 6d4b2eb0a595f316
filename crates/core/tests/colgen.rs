//! Property test for lazy column generation (DESIGN.md §17): a restricted
//! master that seeds only each job's shortest path and prices the rest of
//! the `(path, timestep)` column universe lazily must land on an optimum
//! of the fully materialized LP, across randomized SAM-like sequences
//! that exercise faults, the §4.4 shed/relax degradation chain and
//! mid-run job arrivals.
//!
//! The invariant checked at every adopted solution: the colgen session's
//! objective equals the optimum of a *freshly built, fully materialized*
//! LP over the same remaining state (remaining demands and guarantees,
//! current capacities), plus the value of the flows already executed.
//! Objective equality is the complete correctness statement — the colgen
//! solution is feasible for the full-universe LP by construction, so a
//! matching objective proves it is one of its optima. Per-job deliveries
//! are *not* compared here: distinct optima of the same LP can split
//! deliveries differently across jobs (the deterministic unit tests in
//! the schedule module pin those down on non-degenerate instances).
//!
//! A second invariant: the session never materializes more than the full
//! column universe, and across the sequences it stays a *strict*
//! restriction — otherwise the equality above proved nothing about
//! pricing.

use pretium_core::schedule::solve;
use pretium_core::{ColumnGen, Job, ScheduleProblem, ScheduleSession, TopkEncoding};
use pretium_lp::SolveOptions;
use pretium_net::{k_shortest_paths, EdgeId, LinkCost, Network, NodeId, Path, TimeGrid, Timestep};
use rand::rngs::StdRng;
use rand::{DetHashSet, Rng, SeedableRng};

const HORIZON: usize = 12;
const STEPS: usize = 10;
const BASE_CAP: f64 = 10.0;
const SHORT_TOL: f64 = 1e-6;

/// A diamond S→{M1,M2}→T with a cross link M1→M2 (three loopless S→T
/// routes), owned links only. Owned links keep execution history
/// objective-neutral: alternate optima may split the same deliveries
/// across paths differently, and percentile-billed links would turn that
/// split into diverging cost constants for later steps. The percentile ×
/// colgen interplay is covered deterministically by the schedule-module
/// unit tests instead.
fn diamond_net() -> (Network, Vec<NodeId>) {
    let mut net = Network::new();
    let s = net.add_node("S", pretium_net::Region::NorthAmerica);
    let m1 = net.add_node("M1", pretium_net::Region::NorthAmerica);
    let m2 = net.add_node("M2", pretium_net::Region::Europe);
    let t = net.add_node("T", pretium_net::Region::Europe);
    net.add_edge(s, m1, BASE_CAP, LinkCost::owned());
    net.add_edge(m1, t, BASE_CAP, LinkCost::owned());
    net.add_edge(s, m2, BASE_CAP, LinkCost::owned());
    net.add_edge(m2, t, BASE_CAP, LinkCost::owned());
    net.add_edge(m1, m2, BASE_CAP, LinkCost::owned());
    (net, vec![s, m1, m2, t])
}

/// Candidate multi-path route sets: every entry gives a job at least two
/// admissible paths, so the restricted seed is a real restriction.
fn route_pool(net: &Network, n: &[NodeId]) -> Vec<Vec<Path>> {
    let st = k_shortest_paths(net, n[0], n[3], 3, &|_| 1.0);
    assert!(st.len() >= 3, "expected 3 S->T routes, got {}", st.len());
    let mt = k_shortest_paths(net, n[1], n[3], 2, &|_| 1.0);
    assert!(mt.len() >= 2, "expected 2 M1->T routes, got {}", mt.len());
    vec![st.clone(), st[..2].to_vec(), mt]
}

/// The optimum of a freshly built, fully materialized LP over the
/// remaining state: demands and guarantees minus what the session already
/// executed, solved from timestep `t` under the current capacities.
fn reference_optimum(
    net: &Network,
    grid: &TimeGrid,
    jobs: &[Job],
    exec_delivered: &[f64],
    t: Timestep,
    factors: &[f64],
    opts: &SolveOptions,
) -> f64 {
    let jobs_ref: Vec<Job> = jobs
        .iter()
        .zip(exec_delivered)
        .map(|(job, &done)| {
            let mut r = job.clone();
            r.start = job.start.max(t);
            r.min_units = (job.min_units - done).max(0.0);
            r.max_units = (job.max_units - done).max(0.0);
            r
        })
        .collect();
    let f = factors.to_vec();
    let cap = move |e: EdgeId, _t: Timestep| BASE_CAP * f[e.index()];
    let no_realized = |_: EdgeId, _: Timestep| 0.0;
    let problem = ScheduleProblem {
        net,
        grid,
        from: t,
        to: HORIZON,
        jobs: &jobs_ref,
        capacity: &cap,
        realized: &no_realized,
        topk: TopkEncoding::CVar,
        cost_scale: 1.0,
    };
    solve(&problem, opts).unwrap().objective
}

struct Coverage {
    generated: u64,
    strict_restriction: bool,
    relaxes: usize,
}

/// Drive one randomized sequence through a colgen session, checking every
/// adopted solution against the fully materialized reference optimum of
/// the same state.
fn run_sequence(seed: u64) -> Coverage {
    let (net, nodes) = diamond_net();
    let grid = TimeGrid::new(6, 30);
    let routes = route_pool(&net, &nodes);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut factors: Vec<f64> = vec![1.0; net.num_edges()];
    let mut cov = Coverage { generated: 0, strict_restriction: false, relaxes: 0 };

    let mut jobs = vec![
        Job::new(0, routes[0].clone(), 0, 5, 1.7, 4.0, 30.0),
        Job::new(1, routes[2].clone(), 0, 5, 1.1, 2.0, 15.0),
    ];
    let cap_of = |factors: &[f64]| {
        let f = factors.to_vec();
        move |e: EdgeId, _t: Timestep| BASE_CAP * f[e.index()]
    };
    let no_realized = |_: EdgeId, _: Timestep| 0.0;
    let opts = SolveOptions::default();
    let cap = cap_of(&factors);
    let problem = ScheduleProblem {
        net: &net,
        grid: &grid,
        from: 0,
        to: HORIZON,
        jobs: &jobs,
        capacity: &cap,
        realized: &no_realized,
        topk: TopkEncoding::CVar,
        cost_scale: 1.0,
    };
    let mut lazy = ScheduleSession::with_colgen(&problem, ColumnGen::On);
    let first = lazy.solve_step_with(&net, &cap, &no_realized, &opts).unwrap();
    drop(cap);
    // Units each job executed at frozen steps, and the plan those frozen
    // values come from (the final solution adopted in the previous step).
    let mut exec_delivered: Vec<f64> = vec![0.0; jobs.len()];
    let mut prev_flows = first.flows;
    let mut next_key = jobs.len();

    for t in 1..=STEPS {
        // Step t-1 executes before this step plans: its flows freeze.
        for (j, flows) in prev_flows.iter().enumerate() {
            exec_delivered[j] +=
                flows.iter().filter(|&&(_, ft, _)| ft == t - 1).map(|&(_, _, u)| u).sum::<f64>();
        }
        lazy.advance_to(t);

        // Accepts: 0-2 new multi-path jobs arriving at t.
        for _ in 0..rng.gen_range(0..3u32) {
            let r = rng.gen_range(0..routes.len());
            let deadline = (t + rng.gen_range(2..6usize)).min(HORIZON - 1);
            let weight = rng.gen_range(0.4..3.0);
            let max_units = rng.gen_range(3.0..16.0);
            let min_units =
                if rng.gen_bool(0.5) { max_units * rng.gen_range(0.2..0.8) } else { 0.0 };
            let job =
                Job::new(next_key, routes[r].clone(), t, deadline, weight, min_units, max_units);
            next_key += 1;
            jobs.push(job.clone());
            exec_delivered.push(0.0);
            lazy.add_job(job);
        }
        // Scripted crunch: a severe fault on M1→T plus a latecomer whose
        // guarantee cannot fit — forces the §4.4 shed/relax chain.
        if t == 4 {
            let e1 = net.find_edge(nodes[1], nodes[3]).unwrap();
            factors[e1.index()] = 0.1;
            let job =
                Job::new(next_key, routes[1].clone(), t, (t + 3).min(HORIZON - 1), 2.0, 9.0, 14.0);
            next_key += 1;
            jobs.push(job.clone());
            exec_delivered.push(0.0);
            lazy.add_job(job);
        }
        // Faults and repairs.
        if rng.gen_bool(0.6) {
            let e = EdgeId(rng.gen_range(0..net.num_edges() as u32));
            factors[e.index()] = if rng.gen_bool(0.35) {
                rng.gen_range(0.15..0.6)
            } else if rng.gen_bool(0.5) {
                rng.gen_range(0.6..1.0)
            } else {
                1.0
            };
        }

        let cap = cap_of(&factors);
        let mut sol = lazy.solve_step_with(&net, &cap, &no_realized, &opts).unwrap();

        // The session's objective counts executed flows at their frozen
        // values; the fresh reference starts from the remaining demands.
        let check = |obj: f64, when: &str, jobs: &[Job], exec: &[f64]| {
            let executed_value: f64 =
                jobs.iter().zip(exec).map(|(job, &done)| job.weight * done).sum();
            let reference = reference_optimum(&net, &grid, jobs, exec, t, &factors, &opts);
            let expect = reference + executed_value;
            assert!(
                (obj - expect).abs() <= 1e-6 * (1.0 + expect.abs()),
                "seed {seed} t {t} ({when}): colgen objective {obj} vs full-LP optimum {expect} \
                 (reference {reference} + executed {executed_value})"
            );
        };
        check(sol.objective, "step", &jobs, &exec_delivered);

        // §4.4 degradation: relax uncoverable guarantees by the reported
        // shortfall, warm re-solve, re-check against the (re-built)
        // reference.
        let mut handled: DetHashSet<usize> = DetHashSet::default();
        while sol.max_shortfall() > SHORT_TOL {
            let short: Vec<(usize, f64)> = sol
                .shortfall
                .iter()
                .enumerate()
                .filter(|&(j, &s)| s > SHORT_TOL && !handled.contains(&j))
                .map(|(j, &s)| (j, s))
                .collect();
            let Some(&(j, units)) = short.first() else { break };
            handled.insert(j);
            let waived = lazy.relax_guarantee(j, units);
            jobs[j].min_units = (jobs[j].min_units - waived).max(0.0);
            cov.relaxes += 1;
            if waived <= 0.0 {
                continue;
            }
            sol = lazy.solve_step_with(&net, &cap, &no_realized, &opts).unwrap();
            check(sol.objective, "post-relax", &jobs, &exec_delivered);
        }

        assert!(
            lazy.num_flow_columns() <= lazy.column_universe(),
            "seed {seed} t {t}: {} columns over a universe of {}",
            lazy.num_flow_columns(),
            lazy.column_universe()
        );
        prev_flows = sol.flows;
    }
    cov.generated = lazy.lp_stats().columns_generated;
    cov.strict_restriction = lazy.num_flow_columns() < lazy.column_universe();
    cov
}

#[test]
fn colgen_matches_full_materialization_across_sequences() {
    let mut generated = 0;
    let mut strict = 0;
    let mut relaxes = 0;
    for seed in [11, 23, 57] {
        let cov = run_sequence(seed);
        generated += cov.generated;
        strict += cov.strict_restriction as usize;
        relaxes += cov.relaxes;
    }
    // The sequences must actually exercise pricing, restriction and the
    // degradation chain — or the equality assertions above proved nothing.
    assert!(generated > 0, "pricing never generated a column across seeds");
    assert!(strict >= 1, "no sequence ended with a strict column restriction");
    assert!(relaxes >= 1, "degradation path never taken across seeds");
}

//! LP-solver microbenchmarks plus the Theorem 4.2 encoding ablation
//! (sorting network, O(kT) rows, vs CVaR, O(T) rows — same optimum), and
//! one exact check: the heap allocations of building a PC-shaped schedule
//! LP (`ScheduleSession::new` plus `materialize_contested`) per flow
//! column stay under `MAX_BUILD_ALLOCS_PER_COLUMN`. The frees of dropping
//! that session are reported per column, ungated.

use pretium_bench::{allocations, black_box, frees, CountingAlloc, Harness};
use pretium_core::{schedule, Job, ScheduleProblem, ScheduleSession};
use pretium_core::{topk_upper_bound, TopkEncoding};
use pretium_lp::{Cmp, LinExpr, Model, Sense, SolveOptions};
use pretium_net::{topology, EdgeId, Network, PathSet, TimeGrid};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Ceiling on the heap allocations per flow column of building the
/// schedule LP below the way PC builds its window's LP: 1.60 measured
/// (2.98 while each slot kept its own column list, 9.80 when every name
/// was a formatted `String` and every row was copied twice). A name
/// allocates nothing, a row once, and the session's column bookkeeping
/// lives in a few flat vectors that grow by doubling.
const MAX_BUILD_ALLOCS_PER_COLUMN: f64 = 2.0;

/// Balanced transportation problem with `n` sources and sinks.
fn transportation(n: usize) -> Model {
    let mut m = Model::new(Sense::Minimize);
    let mut vars = Vec::new();
    for i in 0..n {
        for j in 0..n {
            let cost = 1.0 + ((i * 7 + j * 13) % 10) as f64;
            vars.push(m.add_nonneg(&format!("x{i}_{j}"), cost));
        }
    }
    for i in 0..n {
        let e = LinExpr::from_terms((0..n).map(|j| (1.0, vars[i * n + j])));
        m.add_row(&format!("s{i}"), e, Cmp::Le, 10.0);
    }
    for j in 0..n {
        let e = LinExpr::from_terms((0..n).map(|i| (1.0, vars[i * n + j])));
        m.add_row(&format!("d{j}"), e, Cmp::Ge, 8.0);
    }
    m
}

fn bench_simplex(h: &mut Harness) {
    for n in [5usize, 10, 20] {
        let m = transportation(n);
        h.bench_function(&format!("simplex_transportation/{n}"), |b| {
            b.iter(|| black_box(m.solve().unwrap().objective()));
        });
    }
}

fn bench_topk_encodings(h: &mut Harness) {
    for (enc, name) in
        [(TopkEncoding::SortingNetwork, "sorting_network"), (TopkEncoding::CVar, "cvar")]
    {
        for t in [24usize, 48] {
            let k = (t as f64 * 0.1).ceil() as usize;
            h.bench_function(&format!("topk_encoding/{name}/{t}"), |b| {
                b.iter(|| {
                    let mut m = Model::new(Sense::Minimize);
                    let xs: Vec<_> = (0..t)
                        .map(|i| {
                            let v = ((i * 31) % 17) as f64;
                            m.add_var(&format!("x{i}"), v, v, 0.0)
                        })
                        .collect();
                    let s = topk_upper_bound(&mut m, &xs, k, enc, "e");
                    m.set_obj(s, 1.0);
                    black_box(m.solve().unwrap().value(s))
                });
            });
        }
    }
}

/// The fixed schedule input: 30 jobs on the 3-region evaluation topology
/// over 12 steps.
fn schedule_input() -> (Network, TimeGrid, Vec<Job>) {
    let net = topology::default_eval(3);
    let grid = TimeGrid::new(12, 30);
    let mut paths = PathSet::new(2);
    let nodes: Vec<_> = net.node_ids().collect();
    let mut jobs = Vec::new();
    for i in 0..30 {
        let s = nodes[i % nodes.len()];
        let d = nodes[(i * 5 + 3) % nodes.len()];
        if s == d {
            continue;
        }
        let p = paths.paths(&net, s, d);
        if p.is_empty() {
            continue;
        }
        jobs.push(Job::new(i, p, i % 6, 6 + i % 6, 1.0 + (i % 4) as f64, 0.0, 20.0));
    }
    (net, grid, jobs)
}

fn bench_lazy_schedule(h: &mut Harness) {
    let (net, grid, jobs) = schedule_input();
    h.bench_function("schedule_lp_30jobs_12steps", |b| {
        b.iter(|| {
            let cap = |e: EdgeId, _t: usize| net.edge(e).capacity * 0.9;
            let zero = |_: EdgeId, _: usize| 0.0;
            let problem = ScheduleProblem {
                net: &net,
                grid: &grid,
                from: 0,
                to: 12,
                jobs: &jobs,
                capacity: &cap,
                realized: &zero,
                topk: TopkEncoding::CVar,
                cost_scale: 1.0,
            };
            black_box(schedule::solve(&problem, &SolveOptions::default()).unwrap().objective)
        });
    });
}

/// Build the fixed schedule input's LP as PC builds a window's, counting
/// its heap allocations per flow column against the cap, then drop it and
/// report the frees per column.
fn check_build_allocations() {
    let (net, grid, jobs) = schedule_input();
    // Every link at a third of its capacity: most slots are contested.
    let cap = |e: EdgeId, _t: usize| net.edge(e).capacity / 3.0;
    let zero = |_: EdgeId, _: usize| 0.0;
    let problem = ScheduleProblem {
        net: &net,
        grid: &grid,
        from: 0,
        to: 12,
        jobs: &jobs,
        capacity: &cap,
        realized: &zero,
        topk: TopkEncoding::CVar,
        cost_scale: 1.0,
    };
    let before = allocations();
    let mut sess = ScheduleSession::new(&problem);
    sess.materialize_contested(&net, &cap, &zero);
    let allocs = allocations() - before;
    let (columns, rows) = (sess.num_flow_columns(), sess.lp().model().num_rows());
    let per_column = allocs as f64 / columns as f64;
    println!(
        "schedule LP build: {allocs} allocations for {columns} flow columns and {rows} rows \
         ({per_column:.2} per column, cap {MAX_BUILD_ALLOCS_PER_COLUMN})"
    );
    println!("BENCH\tschedule_build_allocs_per_column\t{per_column:.2}");
    let before = frees();
    drop(sess);
    let freed = frees() - before;
    let freed_per_column = freed as f64 / columns as f64;
    println!(
        "schedule LP drop: {freed} frees ({freed_per_column:.2} per flow column, reported, not gated)"
    );
    println!("BENCH\tschedule_drop_frees_per_column\t{freed_per_column:.2}");
    assert!(
        per_column <= MAX_BUILD_ALLOCS_PER_COLUMN,
        "building the schedule LP allocated {per_column:.2} times per flow column \
         (cap {MAX_BUILD_ALLOCS_PER_COLUMN})"
    );
}

fn main() {
    check_build_allocations();
    let mut h = Harness::new().sample_size(10);
    bench_simplex(&mut h);
    bench_topk_encodings(&mut h);
    bench_lazy_schedule(&mut h);
}

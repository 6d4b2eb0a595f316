//! Lazy column generation for the SAM restricted master (DESIGN.md §17)
//! vs full materialization: replay a fault-perturbed window of a wide
//! evaluation scenario — wider than any recorded LP in this repo, so the
//! column universe is at least 4x the largest previously materialized
//! model — re-planning every step either with every (path, timestep)
//! variable materialized up front (`ColumnGen::Off`, the pre-redesign
//! behavior) or with the restricted master seeded on shortest paths and
//! grown by dual pricing (`ColumnGen::On`).
//!
//! The headline numbers are the materialized-column fraction (the
//! restricted master must touch at most 25% of the universe) and the
//! per-step median wall-clock of both paths; every replay asserts exact
//! objective agreement step by step, because a smaller LP that solves a
//! different problem measures nothing. Writes `BENCH_colgen.json` at the
//! workspace root.
//!
//! Set `COLGEN_SMOKE=1` for the CI smoke mode: one replay per path, the
//! universe/fraction/agreement floors asserted, and no JSON (a smoke run
//! never clobbers recorded numbers).

use std::time::{Duration, Instant};

use pretium_bench::black_box;
use pretium_core::schedule::{Job, ScheduleProblem, ScheduleSession};
use pretium_core::{ColumnGen, TopkEncoding};
use pretium_lp::SolveOptions;
use pretium_net::{k_shortest_paths, EdgeId, Network, TimeGrid, Timestep};
use pretium_sim::ScenarioConfig;

const STEPS: usize = 24;
/// Re-plan steps actually replayed (the LP always spans the full
/// `STEPS` horizon — that is the scale under test; the replay length
/// only bounds how many times the fully-materialized baseline, which
/// pays the whole universe on every warm re-solve, gets timed).
const REPLAY_STEPS: usize = 8;
const K_PATHS: usize = 8;
const HEADROOM: f64 = 1.8;
const COST_SCALE: f64 = 0.25;
const FAULT_FACTOR: f64 = 0.9;
/// Acceptance floor from the redesign: the restricted master must finish
/// with at most this fraction of the column universe materialized.
const MAX_MATERIALIZED_FRACTION: f64 = 0.25;
/// The universe must be at least 4x the largest fully-materialized LP this
/// repo had recorded before the redesign (~2,940 flow variables).
const MIN_UNIVERSE: usize = 11_760;
/// Timed replays per path in full mode (per-step samples pool across
/// replays before taking the median).
const REPLAYS: usize = 5;

struct Replay {
    objective: f64,
    step_times: Vec<Duration>,
    materialized: usize,
    universe: usize,
    columns_generated: u64,
    colgen_rounds: u64,
}

fn window_jobs(net: &Network, requests: &[pretium_workload::Request]) -> Vec<Job> {
    requests
        .iter()
        .filter(|r| r.start < STEPS)
        .enumerate()
        .map(|(i, r)| {
            let paths = k_shortest_paths(net, r.src, r.dst, K_PATHS, &|_| 1.0);
            Job::new(
                i,
                paths,
                r.start,
                r.deadline.min(STEPS - 1),
                r.value,
                r.demand * 0.5,
                r.demand,
            )
        })
        .collect()
}

fn no_realized(_: EdgeId, _: Timestep) -> f64 {
    0.0
}

fn median(samples: &mut [Duration]) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

fn main() {
    let smoke = std::env::var_os("COLGEN_SMOKE").is_some();
    // The widest world in the bench suite: evaluation link capacities,
    // costs, and traffic over more regions, more active pairs, and more
    // paths per job than the incremental-SAM bench. Column generation is a
    // large-instance technique — the point is a universe too big to want
    // materialized — so the bench measures at the scale the technique is
    // for, and asserts that scale below.
    let mut cfg = ScenarioConfig::evaluation(rand::DEFAULT_SEED, 1.0);
    cfg.topology.nodes_per_region = vec![6, 5, 4, 3];
    cfg.traffic.pair_activity = 0.4;
    let scenario = cfg.build();
    let net = scenario.net.clone();
    let grid = TimeGrid::new(STEPS, 30);
    let jobs = window_jobs(&net, &scenario.requests);
    assert!(jobs.len() >= 8, "scenario produced too few jobs: {}", jobs.len());
    let base_cap = |e: EdgeId, _t: Timestep| net.edge(e).capacity * HEADROOM;

    let problem = ScheduleProblem {
        net: &net,
        grid: &grid,
        from: 0,
        to: STEPS,
        jobs: &jobs,
        capacity: &base_cap,
        realized: &no_realized,
        topk: TopkEncoding::CVar,
        cost_scale: COST_SCALE,
    };

    // `COLGEN_PROBE=1` prints the universe/seed shape of the current
    // constants without solving; `COLGEN_PROBE=solve` also times one cold
    // solve per mode. Both exist for retuning the scenario knobs above.
    if std::env::var_os("COLGEN_PROBE").is_some() {
        let probe = ScheduleSession::with_colgen(&problem, ColumnGen::On);
        println!(
            "probe: {} jobs, universe {} columns, seed {} columns",
            jobs.len(),
            probe.column_universe(),
            probe.num_flow_columns()
        );
        if std::env::var("COLGEN_PROBE").ok().as_deref() != Some("solve") {
            return;
        }
        let mut on = probe;
        let t0 = Instant::now();
        on.solve_step_with(&net, &base_cap, &no_realized, &SolveOptions::default()).unwrap();
        println!(
            "probe: colgen t=0 solve {:?}, materialized {}",
            t0.elapsed(),
            on.num_flow_columns()
        );
        let mut off = ScheduleSession::with_colgen(&problem, ColumnGen::Off);
        let t0 = Instant::now();
        off.solve_step_with(&net, &base_cap, &no_realized, &SolveOptions::default()).unwrap();
        println!("probe: full t=0 solve {:?}", t0.elapsed());
        return;
    }

    // Fault schedule as in the incremental bench: cycle over lightly-shared
    // edges that carry at least one job, so every step re-plans against
    // genuinely moved capacity and the pricing loop has real work.
    let mut crossing: Vec<(usize, EdgeId)> = net
        .edge_ids()
        .map(|e| (jobs.iter().filter(|j| j.paths.iter().any(|p| p.contains(e))).count(), e))
        .collect();
    crossing.sort_by_key(|&(c, e)| (c, e.0));
    let faulted: Vec<EdgeId> =
        crossing.iter().filter(|&&(c, _)| c > 0).take(4).map(|&(_, e)| e).collect();
    assert!(!faulted.is_empty(), "no edge carries any job");

    // Replay the fault-perturbed window end to end — including the initial
    // solve, which is where full materialization pays its bill — timing
    // each re-plan step.
    let run = |colgen: ColumnGen| -> Replay {
        let mut sess = ScheduleSession::with_colgen(&problem, colgen);
        let mut factors: Vec<f64> = vec![1.0; net.num_edges()];
        let mut replay = Replay {
            objective: 0.0,
            step_times: Vec::new(),
            materialized: 0,
            universe: 0,
            columns_generated: 0,
            colgen_rounds: 0,
        };
        for t in 0..REPLAY_STEPS {
            if t > 0 {
                sess.advance_to(t);
                let e = faulted[t % faulted.len()];
                factors[e.index()] = if factors[e.index()] < 1.0 { 1.0 } else { FAULT_FACTOR };
            }
            let cap =
                |e: EdgeId, _t: Timestep| net.edge(e).capacity * HEADROOM * factors[e.index()];
            let t0 = Instant::now();
            let sol =
                sess.solve_step_with(&net, &cap, &no_realized, &SolveOptions::default()).unwrap();
            replay.step_times.push(t0.elapsed());
            replay.objective += black_box(sol.objective);
        }
        replay.materialized = sess.num_flow_columns();
        replay.universe = sess.column_universe();
        replay.columns_generated = sess.lp_stats().columns_generated;
        replay.colgen_rounds = sess.lp_stats().colgen_rounds;
        replay
    };

    // Sanity before timing: the restricted master must agree with full
    // materialization on every step's optimum.
    let full = run(ColumnGen::Off);
    let lazy = run(ColumnGen::On);
    assert!(
        (full.objective - lazy.objective).abs() <= 1e-6 * (1.0 + full.objective.abs()),
        "objective drift: full {} vs colgen {}",
        full.objective,
        lazy.objective
    );
    assert_eq!(full.universe, lazy.universe, "both modes count the same universe");
    let fraction = lazy.materialized as f64 / lazy.universe as f64;
    println!(
        "colgen replay: {} jobs, universe {} columns, materialized {} ({:.1}%), \
         {} columns priced in over {} restricted-master rounds",
        jobs.len(),
        lazy.universe,
        lazy.materialized,
        fraction * 100.0,
        lazy.columns_generated,
        lazy.colgen_rounds,
    );
    assert!(
        lazy.universe >= MIN_UNIVERSE,
        "universe {} below the {MIN_UNIVERSE}-column scale floor",
        lazy.universe
    );
    assert!(
        fraction <= MAX_MATERIALIZED_FRACTION,
        "restricted master materialized {:.1}% of the universe (floor {:.0}%)",
        fraction * 100.0,
        MAX_MATERIALIZED_FRACTION * 100.0
    );
    assert!(lazy.columns_generated > 0, "the replay never priced a column");
    assert_eq!(full.materialized, full.universe, "Off mode materializes everything");

    let replays = if smoke { 1 } else { REPLAYS };
    let mut full_steps = full.step_times.clone();
    let mut lazy_steps = lazy.step_times.clone();
    for _ in 0..replays.saturating_sub(1) {
        full_steps.extend(run(ColumnGen::Off).step_times);
        lazy_steps.extend(run(ColumnGen::On).step_times);
    }
    let full_med = median(&mut full_steps);
    let lazy_med = median(&mut lazy_steps);
    let speedup = full_med.as_secs_f64() / lazy_med.as_secs_f64().max(1e-12);
    // The t=0 sample is the cold full-horizon solve — the step where full
    // materialization pays for the entire universe at once and the gap is
    // widest; the medians are the warm faulted re-plans.
    let full_cold = full.step_times[0];
    let lazy_cold = lazy.step_times[0];
    let cold_speedup = full_cold.as_secs_f64() / lazy_cold.as_secs_f64().max(1e-12);
    println!(
        "sam_step_full_materialization cold {full_cold:?}, median {full_med:?} over {} steps",
        full_steps.len()
    );
    println!(
        "sam_step_colgen               cold {lazy_cold:?}, median {lazy_med:?} over {} steps",
        lazy_steps.len()
    );
    println!("BENCH\tcolgen_universe_columns\t{}", lazy.universe);
    println!("BENCH\tcolgen_materialized_columns\t{}", lazy.materialized);
    println!("BENCH\tcolgen_materialized_fraction\t{fraction:.4}");
    println!("BENCH\tcolgen_rounds\t{}", lazy.colgen_rounds);
    println!("BENCH\tsam_step_full_median_us\t{:.1}", full_med.as_secs_f64() * 1e6);
    println!("BENCH\tsam_step_colgen_median_us\t{:.1}", lazy_med.as_secs_f64() * 1e6);
    println!("BENCH\tcolgen_step_speedup\t{speedup:.3}");
    println!("BENCH\tsam_cold_full_ms\t{:.1}", full_cold.as_secs_f64() * 1e3);
    println!("BENCH\tsam_cold_colgen_ms\t{:.1}", lazy_cold.as_secs_f64() * 1e3);
    println!("BENCH\tcolgen_cold_speedup\t{cold_speedup:.3}");

    if smoke {
        // The scale, fraction, and agreement floors above already ran; a
        // smoke pass is those floors on one replay, without touching the
        // recorded JSON. No wall-clock floor: the restricted master is a
        // memory/scale win first, and shared CI machines are noisy.
        println!("colgen smoke: universe, materialization, and agreement floors hold");
        return;
    }

    let json = format!(
        "{{\n  \"bench\": \"colgen\",\n  \"scenario\": \"evaluation-widest\",\n  \
         \"steps\": {STEPS},\n  \"jobs\": {},\n  \"replays\": {replays},\n  \
         \"universe_columns\": {},\n  \"materialized_columns\": {},\n  \
         \"materialized_fraction\": {fraction:.4},\n  \"columns_generated\": {},\n  \
         \"colgen_rounds\": {},\n  \"full_step_median_us\": {:.1},\n  \
         \"colgen_step_median_us\": {:.1},\n  \"step_speedup\": {speedup:.3},\n  \
         \"full_cold_solve_ms\": {:.1},\n  \"colgen_cold_solve_ms\": {:.1},\n  \
         \"cold_speedup\": {cold_speedup:.3}\n}}\n",
        jobs.len(),
        lazy.universe,
        lazy.materialized,
        lazy.columns_generated,
        lazy.colgen_rounds,
        full_med.as_secs_f64() * 1e6,
        lazy_med.as_secs_f64() * 1e6,
        full_cold.as_secs_f64() * 1e3,
        lazy_cold.as_secs_f64() * 1e3,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_colgen.json");
    std::fs::write(path, json).expect("write BENCH_colgen.json");
    println!("wrote {path}");
}

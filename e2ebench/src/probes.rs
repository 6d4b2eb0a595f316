//! Probes: direct calls into the lower layers' public functions, on inputs
//! taken from the workload, so that layers the replay only reaches through
//! `Pretium` get numbers of their own. Each probe runs [`PROBE_REPS`] times
//! under `probe:*` spans, calibrating the reference clock between calls, and
//! reports per-call floors like the replay does.

use crate::floors::{percentile, sorted, Floors};
use crate::metrics::{ns_to_ms, ns_to_us};
use crate::replay::ScheduleInput;
use crate::spans::{Kind, Recorder, NONE};
use crate::workloads::World;
use pretium_core::{PretiumConfig, ScheduleProblem, ScheduleSession};
use pretium_lp::{SimplexOptions, SolveError, SolveOptions, SolverTuning};
use pretium_net::paths::k_shortest_paths;
use pretium_net::{topology, EdgeId, NodeId, TimeGrid, Timestep};
use pretium_sim::ScenarioConfig;
use pretium_workload::{generate_requests, generate_trace, TrafficConfig};
use std::collections::BTreeSet;

pub const PROBE_REPS: usize = 3;

/// Warm re-solves the schedule probe times after its cold solve.
const WARM_STEPS: usize = 8;

/// Time `f` under a probe span and calibrate the reference clock after
/// it ([`probe_floors`] calibrates before the first call of a repetition).
fn timed<T>(rec: &mut Recorder, kind: Kind, index: u64, f: impl FnOnce() -> T) -> T {
    let out = rec.span(kind, NONE, index, f);
    rec.calibrate(NONE);
    out
}

/// Run `body` [`PROBE_REPS`] times and fold the spans it records.
fn probe_floors<E>(
    rec: &mut Recorder,
    mut body: impl FnMut(&mut Recorder) -> Result<(), E>,
) -> Result<Floors, E> {
    let mut floors = Floors::new();
    for _ in 0..PROBE_REPS {
        let mark = rec.len();
        rec.calibrate(NONE);
        body(rec)?;
        floors.fold(&rec.spans()[mark..]).expect("a probe repeats the same calls");
    }
    Ok(floors)
}

#[derive(Debug, Clone, Copy, Default)]
pub struct GenProbe {
    pub topology_ms: f64,
    pub trace_ms: f64,
    pub requests_ms: f64,
}

/// The three generators behind `ScenarioConfig::build`, called one by one.
pub fn generators(cfg: &ScenarioConfig, world: &World, rec: &mut Recorder) -> GenProbe {
    let floors = probe_floors(rec, |rec| {
        let net = timed(rec, Kind::ProbeTopology, NONE, || topology::region_wan(&cfg.topology));
        let grid = TimeGrid::new(cfg.steps_per_window, 30);
        let traffic =
            TrafficConfig { horizon: cfg.steps_per_window * cfg.windows, ..cfg.traffic.clone() };
        let trace = timed(rec, Kind::ProbeTrace, NONE, || {
            generate_trace(&net, &grid, &traffic).scaled(cfg.load_factor)
        });
        let requests = timed(rec, Kind::ProbeRequests, NONE, || {
            generate_requests(&trace, &grid, &cfg.requests)
        });
        assert_eq!(
            requests, world.scenario.requests,
            "the probe generates the workload's requests"
        );
        Ok::<(), std::convert::Infallible>(())
    })
    .unwrap_or_else(|never| match never {});
    GenProbe {
        topology_ms: ns_to_ms(floors.sum(Kind::ProbeTopology)),
        trace_ms: ns_to_ms(floors.sum(Kind::ProbeTrace)),
        requests_ms: ns_to_ms(floors.sum(Kind::ProbeRequests)),
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct KspProbe {
    pub pairs: usize,
    pub call_p50_us: f64,
    pub busy_ms: f64,
}

/// `k_shortest_paths` at the system's `k` and weight over the workload's
/// distinct (source, destination) pairs — the work behind a path-cache miss.
pub fn ksp(world: &World, cfg: &PretiumConfig, rec: &mut Recorder) -> KspProbe {
    let pairs: BTreeSet<(NodeId, NodeId)> =
        world.arrivals.iter().map(|a| (a.params.src, a.params.dst)).collect();
    let floors = probe_floors(rec, |rec| {
        for (i, &(src, dst)) in pairs.iter().enumerate() {
            // Microsecond calls: one calibration per 32 of them is plenty.
            let paths = rec.span(Kind::ProbeKsp, NONE, i as u64, || {
                k_shortest_paths(&world.scenario.net, src, dst, cfg.k_paths, &|_| 1.0)
            });
            assert!(!paths.is_empty(), "the topology is strongly connected");
            if i % 32 == 31 {
                rec.calibrate(NONE);
            }
        }
        rec.calibrate(NONE);
        Ok::<(), std::convert::Infallible>(())
    })
    .unwrap_or_else(|never| match never {});
    KspProbe {
        pairs: pairs.len(),
        call_p50_us: ns_to_us(percentile(&sorted(floors.of(Kind::ProbeKsp)), 0.5)),
        busy_ms: ns_to_ms(floors.sum(Kind::ProbeKsp)),
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct ScheduleProbe {
    pub jobs: usize,
    pub flow_columns: usize,
    pub model_build_ms: f64,
    pub cold_solve_ms: f64,
    pub warm_step_p50_ms: f64,
}

/// The solve options `Pretium` hands SAM under `cfg`.
fn sam_options(cfg: &PretiumConfig) -> SolveOptions {
    SolveOptions {
        simplex: Some(SimplexOptions { pricing: cfg.pricing, ..SimplexOptions::default() }),
        tuning: SolverTuning {
            max_etas: cfg.max_etas,
            pricing_jobs: cfg.pricing_jobs,
            ..SolverTuning::default()
        },
        ..SolveOptions::default()
    }
}

/// `ScheduleSession` over the jobs live at the replay's busiest step: build the model,
/// solve it cold, then advance step by step and re-solve warm, as SAM does
/// within a window.
pub fn schedule(
    world: &World,
    cfg: &PretiumConfig,
    input: &ScheduleInput,
    rec: &mut Recorder,
) -> Result<ScheduleProbe, SolveError> {
    let sc = &world.scenario;
    let capacity = |e: EdgeId, t: Timestep| input.state.sellable_capacity(e, t);
    let realized = |e: EdgeId, t: Timestep| input.usage.at(e, t);
    let problem = ScheduleProblem {
        net: &sc.net,
        grid: &sc.grid,
        from: input.now,
        to: sc.horizon,
        jobs: &input.jobs,
        capacity: &capacity,
        realized: &realized,
        topk: cfg.topk,
        cost_scale: cfg.cost_scale,
    };
    let opts = sam_options(cfg);
    let warm_steps = WARM_STEPS.min(sc.horizon - input.now - 1);
    let mut flow_columns = 0;
    let floors = probe_floors(rec, |rec| {
        let mut sess =
            timed(rec, Kind::ProbeScheduleBuild, NONE, || ScheduleSession::new(&problem));
        flow_columns = sess.num_flow_columns();
        timed(rec, Kind::ProbeScheduleCold, NONE, || {
            sess.solve_step_with(&sc.net, &capacity, &realized, &opts)
        })?;
        for i in 0..warm_steps {
            timed(rec, Kind::ProbeScheduleWarm, i as u64, || {
                sess.advance_to(input.now + i + 1);
                sess.solve_step_with(&sc.net, &capacity, &realized, &opts)
            })?;
        }
        Ok(())
    })?;
    Ok(ScheduleProbe {
        jobs: input.jobs.len(),
        flow_columns,
        model_build_ms: ns_to_ms(floors.sum(Kind::ProbeScheduleBuild)),
        cold_solve_ms: ns_to_ms(floors.sum(Kind::ProbeScheduleCold)),
        warm_step_p50_ms: ns_to_ms(percentile(&sorted(floors.of(Kind::ProbeScheduleWarm)), 0.5)),
    })
}

//! Deterministic fault injection for the §4.4 robustness study.
//!
//! A [`FaultPlan`] is a schedule of adverse events — link failures, partial
//! capacity degradations, request surges, solver iteration-limit pressure —
//! generated *once* from a seed and then replayed against a live
//! [`Pretium`] instance by the runner. Faults are data, not callbacks: the
//! plan is built before the run starts, so a faulted cell stays a pure
//! function of its spec and the determinism contract (bit-identical results
//! across `--jobs` counts) extends to every robustness experiment.
//!
//! Failure semantics are pessimistic surprises: when an outage starts the
//! system learns only that capacity is gone *from now on* (the loss is
//! injected through the end of the horizon), and recovery is a second
//! surprise that restores it. SAM therefore re-plans against worst-case
//! knowledge, exactly the §4.4 posture.

use crate::scenario::Scenario;
use pretium_core::Pretium;
use pretium_net::{EdgeId, Network, NodeId, TimeGrid, Timestep};
use pretium_workload::{Request, RequestId, RequestKind};
use rand::rngs::StdRng;
use rand::{derive_seed, Rng, SeedableRng};

/// Request ids at or above this offset are surge traffic injected by a
/// fault plan, not part of the scenario's request stream. Scenario ids are
/// dense from 0 and assigned as `u32`-range indices, so parking the surge
/// namespace past `u32::MAX` keeps the two disjoint even at (and far
/// beyond) the ~1M-request paper-scale traces; [`FaultPlan::apply_step`]
/// debug-asserts the invariant against the live system's contracts.
pub const SURGE_ID_OFFSET: u64 = 1 << 32;

/// One scheduled adverse event.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Total outage of a link over `[at, until)`.
    LinkFailure { edge: EdgeId, at: Timestep, until: Timestep },
    /// Partial loss: `fraction` of the link's sellable capacity is gone
    /// over `[at, until)`.
    CapacityDegradation { edge: EdgeId, at: Timestep, until: Timestep, fraction: f64 },
    /// A burst of unplanned demand arriving at `at`.
    RequestSurge { at: Timestep, requests: Vec<Request> },
    /// The SAM solver is iteration-limited over `[at, until)` (models a
    /// compute-budget squeeze on the controller; see
    /// `Pretium::set_solver_pressure`).
    SolverPressure { at: Timestep, until: Timestep, max_iterations: u64 },
}

/// Knobs of [`FaultPlan::generate`]. Rates are per (edge, window) for
/// capacity events and per window for surges/pressure.
#[derive(Debug, Clone)]
pub struct FaultPlanConfig {
    pub seed: u64,
    /// Probability that an outage starts on a given (edge, window).
    pub failure_rate: f64,
    /// Severity range: fraction of capacity removed (draws ≥ 0.95 become
    /// total [`FaultEvent::LinkFailure`]s). Ordered and clamped to `[0, 1]`
    /// by [`FaultPlan::generate`], like the rates.
    pub severity: (f64, f64),
    /// Outage duration range in timesteps (inclusive).
    pub duration: (usize, usize),
    /// Probability of a request surge in a given window.
    pub surge_rate: f64,
    /// Requests per surge.
    pub surge_requests: usize,
    /// Probability of solver pressure in a given window.
    pub pressure_rate: f64,
    /// Iteration cap while pressure is active.
    pub pressure_iterations: u64,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            seed: rand::DEFAULT_SEED,
            failure_rate: 0.0,
            severity: (0.5, 1.0),
            duration: (2, 6),
            surge_rate: 0.0,
            surge_requests: 4,
            pressure_rate: 0.0,
            pressure_iterations: 50,
        }
    }
}

impl FaultPlanConfig {
    /// The availability-sweep profile: capacity faults at `failure_rate`
    /// with outages long enough to outlast scheduling slack, plus a mild
    /// surge stream so degraded capacity is actually contended.
    pub fn availability(seed: u64, failure_rate: f64) -> Self {
        FaultPlanConfig {
            seed,
            failure_rate,
            severity: (0.7, 1.0),
            duration: (4, 10),
            surge_rate: failure_rate.min(0.5),
            ..Self::default()
        }
    }

    /// The admission-surge profile: no capacity faults, a surge in every
    /// window of `requests_per_step` requests — pure request-pressure on
    /// the admission front end (the surge experiment runs this at 10–100×
    /// the scenario's own arrival rate).
    pub fn surge(seed: u64, requests_per_surge: usize) -> Self {
        FaultPlanConfig {
            seed,
            surge_rate: 1.0,
            surge_requests: requests_per_surge,
            ..Self::default()
        }
    }
}

/// A deterministic schedule of [`FaultEvent`]s over one run's horizon.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    pub events: Vec<FaultEvent>,
    pub horizon: usize,
}

impl FaultPlan {
    /// The empty plan (a faulted runner with this plan is a healthy run).
    pub fn none(horizon: usize) -> Self {
        FaultPlan { events: Vec::new(), horizon }
    }

    /// A single total link failure over `[at, until)`.
    pub fn single_link_failure(
        edge: EdgeId,
        at: Timestep,
        until: Timestep,
        horizon: usize,
    ) -> Self {
        assert!(at < until, "empty failure interval");
        FaultPlan {
            events: vec![FaultEvent::LinkFailure { edge, at, until: until.min(horizon) }],
            horizon,
        }
    }

    /// Generate a plan from `cfg.seed`. Event draws walk (edge × window)
    /// and window grids in fixed index order, so the plan is a pure
    /// function of `(net shape, grid, horizon, cfg)` — never of thread
    /// scheduling. Per-edge outages never overlap (an edge must recover
    /// before it can fail again).
    pub fn generate(net: &Network, grid: &TimeGrid, horizon: usize, cfg: &FaultPlanConfig) -> Self {
        let mut events = Vec::new();
        let w = grid.steps_per_window;
        let windows = horizon.div_ceil(w);
        // A fraction of capacity: out-of-range ends clamp (NaN to 0), a
        // reversed pair swaps — a config never reaches a panic.
        let unit = |x: f64| if x.is_nan() { 0.0 } else { x.clamp(0.0, 1.0) };
        let (s0, s1) = (unit(cfg.severity.0), unit(cfg.severity.1));
        let (mildest, worst) = (s0.min(s1), s0.max(s1));

        let mut outages = StdRng::seed_from_u64(derive_seed(cfg.seed, "outages"));
        for e in net.edge_ids() {
            let mut next_free = 0usize;
            for win in 0..windows {
                if !outages.gen_bool(cfg.failure_rate.clamp(0.0, 1.0)) {
                    continue;
                }
                let at = win * w + outages.gen_range(0..w);
                let dur = outages.gen_range(cfg.duration.0..=cfg.duration.1.max(cfg.duration.0));
                let severity = outages.gen_range(mildest..=worst);
                if at < next_free || at >= horizon {
                    continue; // drawn but unusable: edge still down, or past horizon
                }
                let until = (at + dur.max(1)).min(horizon);
                events.push(if severity >= 0.95 {
                    FaultEvent::LinkFailure { edge: e, at, until }
                } else {
                    FaultEvent::CapacityDegradation { edge: e, at, until, fraction: severity }
                });
                next_free = until;
            }
        }

        let mut surges = StdRng::seed_from_u64(derive_seed(cfg.seed, "surge"));
        let mut surge_id = SURGE_ID_OFFSET;
        for win in 0..windows {
            if !surges.gen_bool(cfg.surge_rate.clamp(0.0, 1.0)) {
                continue;
            }
            let at = win * w + surges.gen_range(0..w);
            if at >= horizon {
                continue;
            }
            let requests = (0..cfg.surge_requests)
                .map(|_| {
                    let src = surges.gen_range(0..net.num_nodes());
                    let mut dst = surges.gen_range(0..net.num_nodes());
                    if dst == src {
                        dst = (dst + 1) % net.num_nodes();
                    }
                    let slack = surges.gen_range(3usize..=9);
                    let r = Request {
                        id: RequestId(surge_id),
                        src: NodeId(src as u32),
                        dst: NodeId(dst as u32),
                        demand: surges.gen_range(1.0..4.0),
                        value: surges.gen_range(0.5..1.5),
                        arrival: at,
                        start: at,
                        deadline: (at + slack).min(horizon - 1),
                        kind: RequestKind::Byte,
                    };
                    surge_id += 1;
                    r
                })
                .collect();
            events.push(FaultEvent::RequestSurge { at, requests });
        }

        let mut pressure = StdRng::seed_from_u64(derive_seed(cfg.seed, "pressure"));
        for win in 0..windows {
            if !pressure.gen_bool(cfg.pressure_rate.clamp(0.0, 1.0)) {
                continue;
            }
            let at = win * w;
            events.push(FaultEvent::SolverPressure {
                at,
                until: ((win + 1) * w).min(horizon),
                max_iterations: cfg.pressure_iterations,
            });
        }

        FaultPlan { events, horizon }
    }

    /// Convenience: generate against a scenario's own net/grid/horizon.
    pub fn for_scenario(scenario: &Scenario, cfg: &FaultPlanConfig) -> Self {
        debug_assert!(
            scenario.requests.iter().all(|r| r.id.0 < SURGE_ID_OFFSET),
            "scenario request ids must stay below SURGE_ID_OFFSET so surge \
             traffic cannot collide with them"
        );
        Self::generate(&scenario.net, &scenario.grid, scenario.horizon, cfg)
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Apply every event that fires at `now` to the live system: outages
    /// inject a pessimistic loss through the horizon, recoveries restore
    /// it, solver pressure toggles the SAM iteration cap. Surge requests
    /// are *returned* by [`FaultPlan::surges_at`] instead — admission is
    /// the runner's job.
    pub fn apply_step(&self, system: &mut Pretium, now: Timestep) {
        debug_assert!(
            self.surges_at(now).all(|r| {
                r.id.0 >= SURGE_ID_OFFSET && system.contracts().iter().all(|c| c.params.id != r.id)
            }),
            "surge ids must sit in the reserved namespace above SURGE_ID_OFFSET \
             and must not collide with an already-booked contract"
        );
        for ev in &self.events {
            match *ev {
                FaultEvent::LinkFailure { edge, at, until } => {
                    if at == now {
                        system.inject_capacity_loss(edge, now, self.horizon, 1.0);
                    }
                    if until == now {
                        system.restore_capacity(edge, now, self.horizon);
                    }
                }
                FaultEvent::CapacityDegradation { edge, at, until, fraction } => {
                    if at == now {
                        system.inject_capacity_loss(edge, now, self.horizon, fraction);
                    }
                    if until == now {
                        system.restore_capacity(edge, now, self.horizon);
                    }
                }
                FaultEvent::RequestSurge { .. } => {}
                FaultEvent::SolverPressure { at, until, max_iterations } => {
                    if at == now {
                        system.set_solver_pressure(Some(max_iterations));
                    }
                    if until == now {
                        system.set_solver_pressure(None);
                    }
                }
            }
        }
    }

    /// Does a capacity event (outage start or recovery) fire at `now`?
    /// The runner re-runs SAM immediately when one does — §4.2 treats link
    /// failures as re-optimization triggers, and until SAM re-plans, stale
    /// reservations on the dead link would be quoted against.
    pub fn capacity_event_at(&self, now: Timestep) -> bool {
        self.events.iter().any(|ev| match *ev {
            FaultEvent::LinkFailure { at, until, .. }
            | FaultEvent::CapacityDegradation { at, until, .. } => at == now || until == now,
            _ => false,
        })
    }

    /// Surge requests arriving at `now`, in plan order.
    pub fn surges_at(&self, now: Timestep) -> impl Iterator<Item = &Request> {
        self.events
            .iter()
            .filter_map(move |ev| match ev {
                FaultEvent::RequestSurge { at, requests } if *at == now => Some(requests.iter()),
                _ => None,
            })
            .flatten()
    }

    /// Is some capacity fault active at `t`? (Surges and solver pressure
    /// don't break the topology, so they don't contaminate price windows.)
    pub fn contaminates(&self, t: Timestep) -> bool {
        self.events.iter().any(|ev| match *ev {
            FaultEvent::LinkFailure { at, until, .. }
            | FaultEvent::CapacityDegradation { at, until, .. } => at <= t && t < until,
            _ => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;

    fn world() -> Scenario {
        ScenarioConfig::tiny(11).build()
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let sc = world();
        let cfg = FaultPlanConfig::availability(42, 0.4);
        let a = FaultPlan::for_scenario(&sc, &cfg);
        let b = FaultPlan::for_scenario(&sc, &cfg);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "rate 0.4 on {} edges produced no events", sc.net.num_edges());
        let other = FaultPlan::for_scenario(&sc, &FaultPlanConfig::availability(43, 0.4));
        assert_ne!(a, other, "different seeds must give different plans");
    }

    #[test]
    fn per_edge_outages_never_overlap() {
        let sc = world();
        let cfg = FaultPlanConfig { failure_rate: 0.9, ..FaultPlanConfig::availability(7, 0.9) };
        let plan = FaultPlan::for_scenario(&sc, &cfg);
        for e in sc.net.edge_ids() {
            let mut spans: Vec<(usize, usize)> = plan
                .events
                .iter()
                .filter_map(|ev| match *ev {
                    FaultEvent::LinkFailure { edge, at, until }
                    | FaultEvent::CapacityDegradation { edge, at, until, .. }
                        if edge == e =>
                    {
                        Some((at, until))
                    }
                    _ => None,
                })
                .collect();
            spans.sort_unstable();
            for pair in spans.windows(2) {
                assert!(pair[0].1 <= pair[1].0, "overlapping outages on {e:?}: {spans:?}");
            }
        }
    }

    #[test]
    fn zero_rates_generate_nothing() {
        let sc = world();
        let plan = FaultPlan::for_scenario(&sc, &FaultPlanConfig { seed: 3, ..Default::default() });
        assert!(plan.is_empty());
        assert!(!plan.contaminates(0));
    }

    #[test]
    fn contamination_matches_event_spans() {
        let plan = FaultPlan::single_link_failure(EdgeId(0), 4, 8, 24);
        assert!(!plan.contaminates(3));
        assert!(plan.contaminates(4));
        assert!(plan.contaminates(7));
        assert!(!plan.contaminates(8));
    }

    /// A faulted replay of `sc` under `plan` must finish with a clean audit.
    fn assert_replays_clean(sc: &Scenario, plan: &FaultPlan) {
        use crate::runner::{run_pretium_faulted, Variant};
        let cfg = pretium_core::PretiumConfig { audit: true, ..Default::default() };
        let run = run_pretium_faulted(sc, cfg, Variant::Full, plan).unwrap();
        let aud = run.audit().expect("cfg.audit = true");
        assert!(aud.is_clean(), "{:?}", aud.violations());
    }

    /// A plan for `sc` at failure rate 0.5 under the given severity range,
    /// checked to have drawn its degradations inside `expect`.
    fn plan_with_severity(
        sc: &Scenario,
        severity: (f64, f64),
        expect: std::ops::RangeInclusive<f64>,
    ) -> FaultPlan {
        let cfg = FaultPlanConfig { seed: 7, failure_rate: 0.5, severity, ..Default::default() };
        let plan = FaultPlan::for_scenario(sc, &cfg);
        let drawn: Vec<f64> = plan
            .events
            .iter()
            .filter_map(|ev| match *ev {
                FaultEvent::CapacityDegradation { fraction, .. } => Some(fraction),
                _ => None,
            })
            .collect();
        assert!(!drawn.is_empty());
        assert!(drawn.iter().all(|f| expect.contains(f)), "{drawn:?}");
        plan
    }

    #[test]
    fn out_of_range_severity_is_clamped() {
        let sc = ScenarioConfig::tiny(7).build();
        let mut plan = plan_with_severity(&sc, (-0.5, 0.5), 0.0..=0.5);
        // A hand-built event bypasses `generate`: the system clamps too.
        for (i, fraction) in [-0.5, 1.5, f64::NAN].into_iter().enumerate() {
            let (edge, at, until) = (EdgeId(i as u32), 1, sc.horizon);
            plan.events.push(FaultEvent::CapacityDegradation { edge, at, until, fraction });
        }
        assert_replays_clean(&sc, &plan);
    }

    #[test]
    fn reversed_severity_is_ordered() {
        let sc = ScenarioConfig::tiny(7).build();
        assert_replays_clean(&sc, &plan_with_severity(&sc, (0.8, 0.2), 0.2..=0.8));
    }

    #[test]
    fn surge_ids_stay_clear_of_scenario_requests() {
        let sc = world();
        let cfg = FaultPlanConfig { surge_rate: 1.0, ..FaultPlanConfig::default() };
        let plan = FaultPlan::for_scenario(&sc, &cfg);
        let surges: Vec<&Request> = (0..sc.horizon).flat_map(|t| plan.surges_at(t)).collect();
        assert!(!surges.is_empty());
        for r in &surges {
            assert!(r.id.0 >= SURGE_ID_OFFSET);
            assert!(r.deadline < sc.horizon);
            assert_ne!(r.src, r.dst);
        }
        for r in &sc.requests {
            assert!(r.id.0 < SURGE_ID_OFFSET);
        }
    }
}

//! The online Pretium runner: replays a request stream against a live
//! Pretium instance, driving the three module timescales exactly as §4
//! prescribes — RA at every arrival, SAM every timestep, PC at every
//! window boundary. [`replay`] is the one step loop; [`run_pretium`]
//! warm-starts its prices with a throwaway replay first.
//!
//! RA is batched per timestep: each step's arrivals are quoted off one
//! published [`pretium_core::AdmissionSnapshot`] and then admitted in
//! arrival order by the deterministic [`pretium_core::Sequencer`], which
//! re-quotes a ticket its predecessors' accepts made stale — bit-identical
//! to the serial quote→accept interleaving.
//!
//! A [`Hook`] observes the loop at its phase boundaries and takes no part
//! in it. The loop times each module call at its own boundaries and hands
//! the sample to the hook; the samples [`ModuleTimes`] keeps are the
//! paper's Table 4: RA is one request's quote (the time its ticket carries)
//! plus its sequenced admission, SAM is the step's `Sequencer::finish`, PC
//! is one `run_pc`.

use crate::faults::FaultPlan;
use crate::scenario::Scenario;
use pretium_baselines::Outcome;
use pretium_core::{Pretium, PretiumConfig, QuoteTicket, RequestParams, Sequencer};
use pretium_lp::SolveError;
use pretium_net::{Timestep, UsageTracker};
use pretium_workload::Request;
use std::time::{Duration, Instant};

/// Which user-response / module configuration to run (Figure 11 ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Full Pretium.
    Full,
    /// Pretium-NoMenu: customers must take all-or-nothing at the quoted
    /// total price.
    NoMenu,
    /// Pretium-NoSAM: the runner never calls the schedule adjustment
    /// module; preliminary schedules are final.
    NoSam,
}

impl Variant {
    pub fn label(self) -> &'static str {
        match self {
            Variant::Full => "Pretium",
            Variant::NoMenu => "Pretium-NoMenu",
            Variant::NoSam => "Pretium-NoSAM",
        }
    }
}

/// Result of an online run: the uniform outcome plus the live system (for
/// inspecting price series, contracts, telemetry, the auditor and the LP
/// counters).
pub struct PretiumRun {
    pub outcome: Outcome,
    pub system: Pretium,
    /// Request index -> contract index (None when not admitted).
    pub contract_of_request: Vec<Option<usize>>,
}

impl PretiumRun {
    /// Render the run's telemetry (and audit summary, when available) as a
    /// report section, followed by the LP solver counters.
    pub fn telemetry_report(&self, title: &str) -> String {
        let s = &self.system;
        let mut out = crate::report::render_telemetry(title, s.telemetry(), s.auditor());
        out.push_str(&crate::report::render_lp("lp solver", &s.lp_stats()));
        out
    }
}

/// An observer of [`replay`]'s phase boundaries. Every method does nothing
/// unless a hook overrides it; `()` observes nothing.
pub trait Hook {
    /// One request's RA: its quote (the time its ticket carries) plus its
    /// sequenced admission, a re-quote included. Called in batch order.
    fn ra(&mut self, _elapsed: Duration) {}
    /// The step's SAM (`Sequencer::finish`); never called under NoSAM.
    fn sam(&mut self, _elapsed: Duration) {}
    /// A window boundary's PC (`run_pc`).
    fn pc(&mut self, _elapsed: Duration) {}
    /// The end of step `now`, after its bytes moved.
    fn step_end(&mut self, _now: Timestep, _system: &Pretium) {}
}

impl Hook for () {}

/// Table 4's samples: the wall time of each module call of a replay, in
/// seconds and call order.
#[derive(Debug, Default)]
pub struct ModuleTimes {
    /// Per quoted request, in arrival order.
    pub ra: Vec<f64>,
    /// Per timestep; empty under NoSAM.
    pub sam: Vec<f64>,
    /// Per window boundary after the first window.
    pub pc: Vec<f64>,
}

impl Hook for ModuleTimes {
    fn ra(&mut self, elapsed: Duration) {
        self.ra.push(elapsed.as_secs_f64());
    }

    fn sam(&mut self, elapsed: Duration) {
        self.sam.push(elapsed.as_secs_f64());
    }

    fn pc(&mut self, elapsed: Duration) {
        self.pc.push(elapsed.as_secs_f64());
    }
}

/// Replay `scenario` through Pretium, warm-starting prices with one
/// throwaway pass (see [`replay`] for the raw cold-start run).
///
/// The paper's deployment has weeks of history behind its first measured
/// window; a fresh simulation has none, so a third or more of a short run
/// would otherwise be spent at uninformative cold-start prices. The warm-up
/// replays the same scenario once, lifts the final window's learned price
/// pattern, and seeds the measured run with it.
///
/// The warm-up pass runs *healthy* — prices are learned from the intact
/// topology, as a deployment's price history predates the fault — and
/// only the measured pass replays `faults` (§4.4) and reports to `hook`.
pub fn run_pretium(
    scenario: &Scenario,
    cfg: PretiumConfig,
    variant: Variant,
    faults: Option<&FaultPlan>,
    hook: &mut impl Hook,
) -> Result<PretiumRun, SolveError> {
    let warm = replay(scenario, cfg.clone(), variant, None, None, &mut ())?;
    let w = scenario.grid.steps_per_window;
    let last_window_start = scenario.horizon - w;
    let pattern: Vec<Vec<f64>> = scenario
        .net
        .edge_ids()
        .map(|e| (0..w).map(|s| warm.system.state().price(e, last_window_start + s)).collect())
        .collect();
    replay(scenario, cfg, variant, Some(&pattern), faults, hook)
}

/// Replay `scenario` through Pretium starting from the given price pattern
/// (per edge, per step-in-window), or from cold-start floors when `None`.
/// A [`FaultPlan`] replays its events against the live system: capacity
/// events fire before each step's admissions, and surge requests are quoted
/// and admitted after the step's scenario arrivals.
pub fn replay(
    scenario: &Scenario,
    cfg: PretiumConfig,
    variant: Variant,
    seed_pattern: Option<&[Vec<f64>]>,
    faults: Option<&FaultPlan>,
    hook: &mut impl Hook,
) -> Result<PretiumRun, SolveError> {
    // NoSAM never calls SAM: preliminary schedules are final.
    let sam = variant != Variant::NoSam;
    let mut system = Pretium::new(scenario.net.clone(), scenario.grid, scenario.horizon, cfg);
    if let Some(pattern) = seed_pattern {
        system.seed_prices(|e, s| pattern[e.index()][s]);
    }
    let mut usage = UsageTracker::new(scenario.net.num_edges(), scenario.horizon);
    let n = scenario.requests.len();
    let mut outcome = Outcome::new(variant.label(), n, scenario.net.num_edges(), scenario.horizon);
    let mut contract_of_request: Vec<Option<usize>> = vec![None; n];
    // Requests are sorted by arrival; walk them with a cursor.
    let mut next_req = 0usize;

    for t in 0..scenario.horizon {
        // Scheduled faults fire first: an outage starting at `t` must be
        // visible to everything that runs at `t` (PC freeze checks, quotes,
        // SAM re-planning). A capacity event triggers an immediate SAM
        // re-optimization — until SAM re-plans, reservations on the dead
        // link are stale and quotes would be made against a broken state.
        if let Some(plan) = faults {
            plan.apply_step(&mut system, t);
            if sam && plan.capacity_event_at(t) {
                system.run_sam(t, &usage)?;
            }
        }
        // Price computer at window boundaries (not at t=0: nothing to
        // learn yet).
        if scenario.grid.step_in_window(t) == 0 && t > 0 {
            let t0 = Instant::now();
            system.run_pc(t)?;
            hook.pc(t0.elapsed());
        }
        // Request admission for this step's arrivals: scenario requests
        // (in index order) and fault-plan surge traffic join one batch,
        // quoted off a single published snapshot and then sequenced in
        // batch order. Surges carry no scenario index: the scenario's
        // outcome does not count them.
        let mut batch: Vec<(&Request, Option<usize>)> = Vec::new();
        while next_req < n && scenario.requests[next_req].arrival == t {
            batch.push((&scenario.requests[next_req], Some(next_req)));
            next_req += 1;
        }
        if let Some(plan) = faults {
            batch.extend(plan.surges_at(t).map(|r| (r, None)));
        }
        // The snapshot is dropped before the batch is sequenced.
        let tickets: Vec<QuoteTicket> = if batch.is_empty() {
            Vec::new()
        } else {
            let snap = system.snapshot();
            batch.iter().map(|&(r, _)| snap.ticket(&RequestParams::from(r))).collect()
        };
        // The sequencer is created even on empty steps: `finish` runs the
        // step's SAM (NoSAM drops it unfinished).
        let mut seq = Sequencer::new(&mut system);
        for (ticket, &(r, ri)) in tickets.iter().zip(&batch) {
            let t0 = Instant::now();
            let admitted = seq.admit(ticket, |menu| match variant {
                // Surges always respond optimally, even under NoMenu.
                Variant::NoMenu if ri.is_some() => menu.all_or_nothing_purchase(r.value, r.demand),
                _ => menu.optimal_purchase(r.value, r.demand),
            });
            hook.ra(ticket.elapsed + t0.elapsed());
            if let (Some(id), Some(ri)) = (admitted, ri) {
                outcome.admitted[ri] = true;
                outcome.payments[ri] = seq.contract(id).payment;
                contract_of_request[ri] = Some(id.0);
            }
        }
        // Schedule adjustment.
        if sam {
            let t0 = Instant::now();
            seq.finish(t, &usage)?;
            hook.sam(t0.elapsed());
        }
        system.execute_step(t, &mut usage);
        hook.step_end(t, &system);
    }

    for (ri, ci) in contract_of_request.iter().enumerate() {
        if let Some(ci) = *ci {
            outcome.delivered[ri] = system.contracts()[ci].delivered;
        }
    }
    outcome.usage = usage;
    Ok(PretiumRun { outcome, system, contract_of_request })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlanConfig;
    use crate::scenario::ScenarioConfig;

    fn small() -> Scenario {
        ScenarioConfig::tiny(11).build()
    }

    fn healthy(sc: &Scenario, variant: Variant) -> PretiumRun {
        run_pretium(sc, PretiumConfig::default(), variant, None, &mut ()).unwrap()
    }

    #[test]
    fn run_completes_and_respects_capacity() {
        let sc = small();
        let run = healthy(&sc, Variant::Full);
        let violations = run.outcome.usage.capacity_violations(&sc.net, 1e-5);
        assert!(violations.is_empty(), "{violations:?}");
        // Someone must have been admitted and served.
        let served: f64 = run.outcome.delivered.iter().sum();
        assert!(served > 0.0);
        assert!(run.outcome.admitted.iter().any(|&a| a));
        assert_eq!(run.system.telemetry().pc.calls, 1);
    }

    #[test]
    fn guarantees_met_for_all_contracts() {
        let sc = small();
        let run = healthy(&sc, Variant::Full);
        for c in run.system.contracts() {
            assert!(
                c.guarantee_met(),
                "{:?}: delivered {} < guaranteed {}",
                c.params.id,
                c.delivered,
                c.guaranteed
            );
        }
    }

    #[test]
    fn payments_never_exceed_value_for_rational_users() {
        let sc = small();
        let run = healthy(&sc, Variant::Full);
        for (r, &paid) in sc.requests.iter().zip(&run.outcome.payments) {
            // Theorem 5.2 users never pay a marginal price above value, so
            // total payment <= value × purchased; delivered >= guaranteed
            // implies payment <= value × max(delivered, purchased).
            assert!(
                paid <= r.value * r.demand + 1e-6,
                "{:?}: paid {paid} > max willingness {}",
                r.id,
                r.value * r.demand
            );
        }
    }

    #[test]
    fn nomenu_admits_fewer_or_equal_requests() {
        let sc = small();
        let full = healthy(&sc, Variant::Full);
        let nomenu = healthy(&sc, Variant::NoMenu);
        let n_full = full.outcome.admitted.iter().filter(|&&a| a).count();
        let n_nomenu = nomenu.outcome.admitted.iter().filter(|&&a| a).count();
        // All-or-nothing can only lose customers at the margin (not a
        // theorem under different system paths, but holds on this seed and
        // documents the intended direction).
        assert!(n_nomenu <= n_full, "NoMenu admitted {n_nomenu} > Full {n_full}");
    }

    #[test]
    fn sam_loop_mostly_warm_starts() {
        let sc = small();
        let run = healthy(&sc, Variant::Full);
        let s = run.system.lp_stats();
        assert!(s.solves > 0, "{s:?}");
        // SAM re-solves every timestep off a carried session; the bulk of
        // the run's LP solves must reuse a basis rather than start cold.
        assert!(s.warm_primal + s.warm_dual > s.cold_starts, "warm starts did not dominate: {s:?}");
    }

    #[test]
    fn full_replay_is_audit_clean() {
        let sc = small();
        let cfg = PretiumConfig { audit: true, ..PretiumConfig::default() };
        let run = run_pretium(&sc, cfg, Variant::Full, None, &mut ()).unwrap();
        // A full replay must sweep every checkpoint without recording a
        // single invariant violation.
        let aud = run.system.auditor().expect("the config asks for auditing");
        assert!(aud.checks() > 0);
        assert!(aud.is_clean(), "violations: {:?}", aud.violations());
        let t = run.system.telemetry();
        assert!(t.accept.calls > 0);
        assert!(t.execute.calls as usize == sc.horizon);
        assert_eq!(t.audit_violations, 0);
        let rendered = run.telemetry_report("telemetry");
        assert!(rendered.contains("audit sweeps"));
        // One ledger per counter: no label may appear in both the module
        // table and the LP table, with or without an "lp " prefix.
        let mut labels: Vec<&str> = rendered
            .lines()
            .filter_map(|l| l.strip_prefix("  ")?.trim_start().split_once("  "))
            .map(|(label, _)| label.trim_end())
            .map(|label| label.strip_prefix("lp ").unwrap_or(label))
            .collect();
        assert!(labels.contains(&"refactors") && labels.contains(&"accepts admitted"));
        // How LP solves started and ended: SAM's session solves alone between
        // PC windows, so its solves after the first in a window carry, and
        // border the rows appended since.
        for label in ["bordered rows", "terminal refactors"] {
            assert!(labels.contains(&label), "no `{label}` row:\n{rendered}");
        }
        let s = run.system.lp_stats();
        assert!(s.warm_primal + s.warm_dual > 0 && s.bordered_rows > 0, "{rendered}");
        // Most dual pivots on these LPs are degenerate, but not all of them.
        assert!(0 < s.dual_degenerate && s.dual_degenerate <= s.dual_iterations, "{rendered}");
        let rows = labels.len();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), rows, "a counter is reported twice:\n{rendered}");
    }

    #[test]
    fn batch_quotes_copy_no_state() {
        // The replay drops each step's snapshot before the batch is
        // sequenced, so nothing still holds the state when the first accept
        // writes.
        let run = healthy(&small(), Variant::Full);
        let t = run.system.telemetry();
        assert!(t.snapshots > 0 && t.accepts_admitted > 0);
        assert_eq!(t.state_copies, 0);
    }

    #[test]
    fn table4_collects_samples() {
        // The replay `reproduce table4` times (cold, default config, no
        // faults), at a light load to keep the test quick: `ModuleTimes`
        // keeps one RA sample per request, one SAM sample per timestep, one
        // PC sample per window boundary after the first window.
        let sc = ScenarioConfig::evaluation(3, 0.2).build();
        let mut times = ModuleTimes::default();
        replay(&sc, PretiumConfig::default(), Variant::Full, None, None, &mut times).unwrap();
        assert!(!sc.requests.is_empty());
        assert_eq!(times.ra.len(), sc.requests.len());
        assert_eq!(times.sam.len(), sc.horizon);
        assert_eq!(times.pc.len(), sc.horizon / sc.grid.steps_per_window - 1);
    }

    #[test]
    fn nosam_variant_disables_sam() {
        // Healthy, and under a plan whose capacity events would trigger
        // SAM's fault re-plan in the other variants: SAM was never called,
        // not called and skipped.
        let sc = small();
        let cfg = FaultPlanConfig { seed: 4, failure_rate: 0.3, ..FaultPlanConfig::default() };
        let plan = FaultPlan::for_scenario(&sc, &cfg);
        assert!((0..sc.horizon).any(|t| plan.capacity_event_at(t)), "{plan:?}");
        for faults in [None, Some(&plan)] {
            let mut times = ModuleTimes::default();
            let run =
                run_pretium(&sc, PretiumConfig::default(), Variant::NoSam, faults, &mut times)
                    .unwrap();
            let t = run.system.telemetry();
            assert_eq!((t.sam.calls, t.sam_skipped), (0, 0), "faults: {}", faults.is_some());
            assert!(times.sam.is_empty());
            assert!(run.outcome.usage.capacity_violations(&sc.net, 1e-5).is_empty());
        }
    }
}

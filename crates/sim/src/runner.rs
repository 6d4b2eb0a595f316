//! The online Pretium runner: replays a request stream against a live
//! Pretium instance, driving the three module timescales exactly as §4
//! prescribes — RA at every arrival, SAM every timestep, PC at every
//! window boundary.
//!
//! RA is batched per timestep: each step's arrivals are quoted off one
//! published [`pretium_core::AdmissionSnapshot`] and then admitted in
//! arrival order by the deterministic [`pretium_core::Sequencer`], which
//! re-quotes a ticket its predecessors' accepts made stale — bit-identical
//! to the serial quote→accept interleaving.
//!
//! The loop times each module call at its own boundaries, and those samples
//! are the paper's Table 4: RA is one request's quote (the time its ticket
//! carries) plus its sequenced admission, SAM is the step's
//! `Sequencer::finish`, PC is one `run_pc`.

use crate::faults::FaultPlan;
use crate::scenario::Scenario;
use pretium_baselines::Outcome;
use pretium_core::{Pretium, PretiumConfig, QuoteTicket, RequestParams, Sequencer};
use pretium_lp::{SessionStats, SolveError};
use pretium_net::UsageTracker;
use std::time::Instant;

/// Sentinel request index for contracts that did not come from the
/// scenario's request stream (fault-plan surge traffic).
const SURGE_SENTINEL: usize = usize::MAX;

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
/// inspecting price series, contracts, etc.).
pub struct PretiumRun {
    pub outcome: Outcome,
    pub system: Pretium,
    /// Per contract, the `(timestep, units)` delivery history — used by the
    /// §5 incentive study to value only units arriving within the *true*
    /// deadline.
    pub delivery_log: Vec<Vec<(usize, f64)>>,
    /// Request index -> contract index (None when not admitted).
    pub contract_of_request: Vec<Option<usize>>,
    /// LP restart counters over the whole run (SAM sessions + PC solves):
    /// how many solves there were and how many reused a previous basis.
    pub lp_stats: SessionStats,
    /// Wall time of each quoted request's RA, in seconds: its ticket's
    /// quote time (`QuoteTicket::elapsed`) plus its sequenced admission (a
    /// re-quote included), in arrival order.
    pub ra_secs: Vec<f64>,
    /// Wall time of each timestep's SAM (`Sequencer::finish`), in seconds;
    /// empty under NoSAM.
    pub sam_secs: Vec<f64>,
    /// Wall time of each window boundary's PC (`run_pc`), in seconds.
    pub pc_secs: Vec<f64>,
}

impl PretiumRun {
    /// Per-module counters and timings accumulated over the run.
    pub fn telemetry(&self) -> &pretium_core::Telemetry {
        self.system.telemetry()
    }

    /// The invariant auditor, when auditing was enabled (always in
    /// debug/test builds, behind `PretiumConfig::audit` in release).
    pub fn audit(&self) -> Option<&pretium_core::Auditor> {
        self.system.auditor()
    }

    /// Render the run's telemetry (and audit summary, when available) as a
    /// report section, followed by the LP solver counters.
    pub fn telemetry_report(&self, title: &str) -> String {
        let mut out = crate::report::render_telemetry(title, self.telemetry(), self.audit());
        out.push_str(&crate::report::render_lp("lp solver", &self.lp_stats));
        out
    }
}

/// Replay `scenario` through Pretium, warm-starting prices with one
/// throwaway pass (see [`run_pretium_cold`] for the raw cold-start run).
///
/// The paper's deployment has weeks of history behind its first measured
/// window; a fresh simulation has none, so a third or more of a short run
/// would otherwise be spent at uninformative cold-start prices. The warm-up
/// replays the same scenario once, lifts the final window's learned price
/// pattern, and seeds the measured run with it.
pub fn run_pretium(
    scenario: &Scenario,
    cfg: PretiumConfig,
    variant: Variant,
) -> Result<PretiumRun, SolveError> {
    run_pretium_with_faults(scenario, cfg, variant, None)
}

/// Replay `scenario` under an injected [`FaultPlan`] (§4.4 robustness).
///
/// The warm-up pass runs *healthy* — prices are learned from the intact
/// topology, as a deployment's price history predates the fault — and only
/// the measured pass replays the plan.
pub fn run_pretium_faulted(
    scenario: &Scenario,
    cfg: PretiumConfig,
    variant: Variant,
    plan: &FaultPlan,
) -> Result<PretiumRun, SolveError> {
    run_pretium_with_faults(scenario, cfg, variant, Some(plan))
}

fn run_pretium_with_faults(
    scenario: &Scenario,
    cfg: PretiumConfig,
    variant: Variant,
    faults: Option<&FaultPlan>,
) -> Result<PretiumRun, SolveError> {
    let warm = run_pretium_cold(scenario, cfg.clone(), variant, None, None)?;
    let w = scenario.grid.steps_per_window;
    let last_window_start = scenario.horizon - w;
    let pattern: Vec<Vec<f64>> = scenario
        .net
        .edge_ids()
        .map(|e| (0..w).map(|s| warm.system.state().price(e, last_window_start + s)).collect())
        .collect();
    run_pretium_cold(scenario, cfg, variant, Some(&pattern), faults)
}

/// Replay `scenario` through Pretium starting from the given price pattern
/// (per edge, per step-in-window), or from cold-start floors when `None`.
/// A [`FaultPlan`] replays its events against the live system: capacity
/// events fire before each step's admissions, and surge requests are quoted
/// and admitted after the step's scenario arrivals.
pub fn run_pretium_cold(
    scenario: &Scenario,
    cfg: PretiumConfig,
    variant: Variant,
    seed_pattern: Option<&[Vec<f64>]>,
    faults: Option<&FaultPlan>,
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
    // Requests are sorted by arrival; walk them with a cursor.
    let mut next_req = 0usize;
    // Map contract -> request index for final accounting.
    let mut contract_req: Vec<usize> = Vec::new();
    let mut delivery_log: Vec<Vec<(usize, f64)>> = Vec::new();
    let mut prev_delivered: Vec<f64> = Vec::new();
    let (mut ra_secs, mut sam_secs, mut pc_secs) = (Vec::new(), Vec::new(), Vec::new());

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
            pc_secs.push(t0.elapsed().as_secs_f64());
        }
        // Request admission for this step's arrivals: scenario requests
        // (in index order) and fault-plan surge traffic join one batch,
        // quoted off a single published snapshot and then sequenced in
        // batch order. Surge contracts are accounted outside the
        // scenario's request indices (see SURGE_SENTINEL).
        let mut batch: Vec<(RequestParams, f64, f64, usize)> = Vec::new();
        while next_req < n && scenario.requests[next_req].arrival == t {
            let r = &scenario.requests[next_req];
            batch.push((RequestParams::from(r), r.value, r.demand, next_req));
            next_req += 1;
        }
        if let Some(plan) = faults {
            for r in plan.surges_at(t) {
                batch.push((RequestParams::from(r), r.value, r.demand, SURGE_SENTINEL));
            }
        }
        let tickets = quote_batch(&mut system, &batch);
        // The sequencer is created even on empty steps: `finish` runs the
        // step's SAM (NoSAM drops it unfinished).
        let mut seq = Sequencer::new(&mut system);
        for (ticket, &(_, value, demand, ri)) in tickets.iter().zip(&batch) {
            let t0 = Instant::now();
            let admitted = seq.admit(ticket, |menu| match variant {
                // Surges always respond optimally, even under NoMenu.
                Variant::NoMenu if ri != SURGE_SENTINEL => {
                    menu.all_or_nothing_purchase(value, demand)
                }
                _ => menu.optimal_purchase(value, demand),
            });
            ra_secs.push((ticket.elapsed + t0.elapsed()).as_secs_f64());
            if let Some(id) = admitted {
                if ri != SURGE_SENTINEL {
                    outcome.admitted[ri] = true;
                    outcome.payments[ri] = seq.contract(id).payment;
                }
                contract_req.push(ri);
            }
        }
        // Schedule adjustment.
        if sam {
            let t0 = Instant::now();
            seq.finish(t, &usage)?;
            sam_secs.push(t0.elapsed().as_secs_f64());
        }
        // Move bytes, logging per-contract deltas.
        system.execute_step(t, &mut usage);
        delivery_log.resize(system.contracts().len(), Vec::new());
        prev_delivered.resize(system.contracts().len(), 0.0);
        for (ci, c) in system.contracts().iter().enumerate() {
            let delta = c.delivered - prev_delivered[ci];
            if delta > 1e-12 {
                delivery_log[ci].push((t, delta));
                prev_delivered[ci] = c.delivered;
            }
        }
    }

    let mut contract_of_request: Vec<Option<usize>> = vec![None; n];
    for (ci, &ri) in contract_req.iter().enumerate() {
        if ri == SURGE_SENTINEL {
            continue; // surge traffic: not part of the scenario's outcome
        }
        outcome.delivered[ri] = system.contracts()[ci].delivered;
        contract_of_request[ri] = Some(ci);
    }
    outcome.usage = usage;
    delivery_log.resize(system.contracts().len(), Vec::new());
    let lp_stats = system.lp_stats();
    Ok(PretiumRun {
        outcome,
        system,
        delivery_log,
        contract_of_request,
        lp_stats,
        ra_secs,
        sam_secs,
        pc_secs,
    })
}

/// Quote one timestep's arrival batch off a single published snapshot, in
/// batch order; the snapshot is dropped before the batch is sequenced.
fn quote_batch(
    system: &mut Pretium,
    batch: &[(RequestParams, f64, f64, usize)],
) -> Vec<QuoteTicket> {
    if batch.is_empty() {
        return Vec::new();
    }
    let snap = system.snapshot();
    batch.iter().map(|(params, ..)| snap.ticket(params)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;

    fn small() -> Scenario {
        ScenarioConfig::tiny(11).build()
    }

    #[test]
    fn run_completes_and_respects_capacity() {
        let sc = small();
        let run = run_pretium(&sc, PretiumConfig::default(), Variant::Full).unwrap();
        let violations = run.outcome.usage.capacity_violations(&sc.net, 1e-5);
        assert!(violations.is_empty(), "{violations:?}");
        // Someone must have been admitted and served.
        let served: f64 = run.outcome.delivered.iter().sum();
        assert!(served > 0.0);
        assert!(run.outcome.admitted.iter().any(|&a| a));
        assert_eq!(run.system.pc_runs(), 1);
    }

    #[test]
    fn guarantees_met_for_all_contracts() {
        let sc = small();
        let run = run_pretium(&sc, PretiumConfig::default(), Variant::Full).unwrap();
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
        let run = run_pretium(&sc, PretiumConfig::default(), Variant::Full).unwrap();
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
        let full = run_pretium(&sc, PretiumConfig::default(), Variant::Full).unwrap();
        let nomenu = run_pretium(&sc, PretiumConfig::default(), Variant::NoMenu).unwrap();
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
        let run = run_pretium(&sc, PretiumConfig::default(), Variant::Full).unwrap();
        let s = run.lp_stats;
        assert!(s.solves > 0, "{s:?}");
        // SAM re-solves every timestep off a carried session; the bulk of
        // the run's LP solves must reuse a basis rather than start cold.
        assert!(s.warm_primal + s.warm_dual > s.cold_starts, "warm starts did not dominate: {s:?}");
    }

    #[test]
    fn full_replay_is_audit_clean() {
        let sc = small();
        let cfg = PretiumConfig { audit: true, ..PretiumConfig::default() };
        let run = run_pretium(&sc, cfg, Variant::Full).unwrap();
        // A full replay must sweep every checkpoint without recording a
        // single invariant violation.
        let aud = run.audit().expect("the config asks for auditing");
        assert!(aud.checks() > 0);
        assert!(aud.is_clean(), "violations: {:?}", aud.violations());
        let t = run.telemetry();
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
        let s = run.lp_stats;
        assert!(s.warm_primal + s.warm_dual > 0 && s.bordered_rows > 0, "{rendered}");
        // Most dual pivots on these LPs are degenerate, but not all of them.
        assert!(0 < s.dual_degenerate && s.dual_degenerate <= s.dual_iterations, "{rendered}");
        let rows = labels.len();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), rows, "a counter is reported twice:\n{rendered}");
    }

    #[test]
    fn quote_batch_copies_no_state() {
        // `quote_batch` drops its snapshot before the batch is sequenced, so
        // nothing still holds the state when the first accept writes.
        let run = run_pretium(&small(), PretiumConfig::default(), Variant::Full).unwrap();
        let t = run.telemetry();
        assert!(t.snapshots > 0 && t.accepts_admitted > 0);
        assert_eq!(t.state_copies, 0);
    }

    #[test]
    fn table4_collects_samples() {
        // The replay `reproduce table4` times (cold, default config, no
        // faults), at a light load to keep the test quick: one RA sample
        // per request, one SAM sample per timestep, one PC sample per
        // window boundary after the first window.
        let sc = ScenarioConfig::evaluation(3, 0.2).build();
        let run =
            run_pretium_cold(&sc, PretiumConfig::default(), Variant::Full, None, None).unwrap();
        assert!(!sc.requests.is_empty());
        assert_eq!(run.ra_secs.len(), sc.requests.len());
        assert_eq!(run.sam_secs.len(), sc.horizon);
        assert_eq!(run.pc_secs.len(), sc.horizon / sc.grid.steps_per_window - 1);
    }

    #[test]
    fn nosam_variant_disables_sam() {
        let sc = small();
        let run = run_pretium(&sc, PretiumConfig::default(), Variant::NoSam).unwrap();
        // SAM was never called, not called and skipped.
        let t = run.telemetry();
        assert_eq!((t.sam.calls, t.sam_skipped), (0, 0));
        assert!(run.sam_secs.is_empty());
        assert!(run.outcome.usage.capacity_violations(&sc.net, 1e-5).is_empty());
    }
}

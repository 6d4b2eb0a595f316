//! The online replay, written against the public API only: the step loop of
//! `pretium_sim::runner::run_pretium_cold` with a span around every call
//! into the system. One thread, one client, closed loop — each call is
//! issued when the previous one returns.

use crate::spans::{Kind, Recorder, NONE};
use crate::workloads::{Sender, World};
use pretium_core::{ContractId, Job, NetworkState, Pretium, PretiumConfig, QuoteTicket, Sequencer};
use pretium_lp::SolveError;
use pretium_net::UsageTracker;

/// What a finished replay leaves behind.
pub struct Rep {
    pub system: Pretium,
    pub usage: UsageTracker,
    /// Per organic request.
    pub admitted: Vec<bool>,
    pub payments: Vec<f64>,
    pub delivered: Vec<f64>,
    pub shoppers_admitted: usize,
    /// Input of the schedule probe, when capturing was asked for.
    pub captured: Option<ScheduleInput>,
}

/// The SAM problem as it stood at the start of the replay's busiest step
/// (the one with the most live contracts): their jobs, plus the state the
/// capacities and realized usage come from.
pub struct ScheduleInput {
    pub now: usize,
    pub jobs: Vec<Job>,
    pub state: NetworkState,
    pub usage: UsageTracker,
}

/// What must be identical in every repetition of one world. A repetition
/// that differs did other work, and its calls cannot be aligned with the
/// others'.
#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    pub admitted: usize,
    pub admitted_hash: u64,
    pub contracts: usize,
    pub delivered_units_bits: u64,
    pub payments_bits: u64,
    pub lp_iterations: u64,
    pub quotes: u64,
    pub requoted: u64,
}

impl Rep {
    pub fn delivered_units(&self) -> f64 {
        self.system.contracts().iter().map(|c| c.delivered).sum()
    }

    pub fn digest(&self) -> Digest {
        // FNV-1a over the admitted request indices.
        let mut h: u64 = 0xcbf29ce484222325;
        for (i, _) in self.admitted.iter().enumerate().filter(|(_, &a)| a) {
            h = (h ^ i as u64).wrapping_mul(0x100000001b3);
        }
        let t = self.system.telemetry();
        Digest {
            admitted: self.admitted.iter().filter(|&&a| a).count(),
            admitted_hash: h,
            contracts: self.system.contracts().len(),
            delivered_units_bits: self.delivered_units().to_bits(),
            payments_bits: self.system.total_payments().to_bits(),
            lp_iterations: self.system.lp_stats().iterations,
            quotes: t.quote.calls,
            requoted: t.quotes_requoted,
        }
    }
}

/// Replay `world` from the given price pattern (cold-start floors when
/// `None`). `faulted = false` is the healthy pass: no fault events and no
/// surge traffic, as `run_pretium_faulted` runs its warm-up.
pub fn replay(
    world: &World,
    cfg: &PretiumConfig,
    pattern: Option<&[Vec<f64>]>,
    faulted: bool,
    capture: bool,
    rec: &mut Recorder,
) -> Result<Rep, SolveError> {
    let sc = &world.scenario;
    let plan = world.plan.as_ref().filter(|_| faulted);
    let replay_span = rec.enter(Kind::Replay, NONE, NONE);

    // The reference clock is calibrated at every step boundary, so every
    // timed call sits between two calibrations (see `crate::clock`).
    rec.calibrate(NONE);
    let init = rec.enter(Kind::Init, NONE, NONE);
    let mut system = Pretium::new(sc.net.clone(), sc.grid, sc.horizon, cfg.clone());
    if let Some(pattern) = pattern {
        system.seed_prices(|e, s| pattern[e.index()][s]);
    }
    rec.exit(init);

    let mut usage = UsageTracker::new(sc.net.num_edges(), sc.horizon);
    let n = sc.requests.len();
    let mut admitted = vec![false; n];
    let mut payments = vec![0.0; n];
    let mut contract_of: Vec<(usize, ContractId)> = Vec::new();
    let mut shoppers_admitted = 0usize;
    let mut captured = None;

    for t in 0..sc.horizon {
        let step = t as u64;
        if capture {
            let live = system.contracts().iter().filter(|c| c.active_at(t)).count();
            if live > captured.as_ref().map_or(0, |c: &ScheduleInput| c.jobs.len()) {
                captured = Some(capture_schedule_input(&system, &usage, t));
            }
        }
        rec.calibrate(step);
        let step_span = rec.enter(Kind::Step, step, NONE);
        // Faults first: an outage starting at `t` must be visible to
        // everything that runs at `t`, and SAM re-plans at once so nothing
        // is quoted against reservations on a dead link.
        if let Some(plan) = plan {
            rec.span(Kind::FaultApply, step, NONE, || plan.apply_step(&mut system, t));
            if plan.capacity_event_at(t) {
                rec.span(Kind::SamFault, step, NONE, || system.run_sam(t, &usage))?;
            }
        }
        if sc.grid.step_in_window(t) == 0 && t > 0 {
            let solved_before = system.telemetry().pc.calls;
            let open = rec.enter(Kind::Pc, step, NONE);
            let result = system.run_pc(t);
            let solved = system.telemetry().pc.calls > solved_before;
            rec.exit_as(open, if solved { Kind::Pc } else { Kind::PcSkip });
            result?;
        }
        let batch: Vec<_> =
            world.batch(t).iter().filter(|a| faulted || a.sender != Sender::Surge).collect();
        let mut tickets: Vec<QuoteTicket> = Vec::with_capacity(batch.len());
        if !batch.is_empty() {
            let snap = rec.span(Kind::Snapshot, step, NONE, || system.snapshot());
            for a in &batch {
                tickets.push(rec.span(Kind::Quote, step, a.params.id.0, || snap.ticket(&a.params)));
            }
            rec.span(Kind::Absorb, step, NONE, || system.absorb_quotes(&snap));
        }
        // The sequencer is created on empty steps too: `finish` owns the
        // SAM cadence.
        let mut seq = Sequencer::new(&mut system);
        for (ticket, a) in tickets.iter().zip(&batch) {
            let open = rec.enter(Kind::Admit, step, a.params.id.0);
            let id = seq.admit(ticket, |menu| match a.sender {
                Sender::Shopper => 0.0,
                Sender::Organic(_) | Sender::Surge => menu.optimal_purchase(a.value, a.demand),
            });
            rec.exit(open);
            if let Some(id) = id {
                match a.sender {
                    Sender::Organic(ri) => {
                        admitted[ri] = true;
                        payments[ri] = seq.contract(id).payment;
                        contract_of.push((ri, id));
                    }
                    Sender::Surge => {}
                    Sender::Shopper => shoppers_admitted += 1,
                }
            }
        }
        rec.span(Kind::Sam, step, NONE, || seq.finish(t, &usage))?;
        rec.span(Kind::Execute, step, NONE, || system.execute_step(t, &mut usage));
        rec.exit(step_span);
    }
    rec.calibrate(NONE);
    rec.exit(replay_span);

    let mut delivered = vec![0.0; n];
    for &(ri, id) in &contract_of {
        delivered[ri] = system.contract(id).delivered;
    }
    Ok(Rep { system, usage, admitted, payments, delivered, shoppers_admitted, captured })
}

/// The price pattern a warm-up pass learned: per edge, the prices of the
/// final window (the `run_pretium` contract).
pub fn learned_pattern(world: &World, warm: &Rep) -> Vec<Vec<f64>> {
    let sc = &world.scenario;
    let w = sc.grid.steps_per_window;
    let last_window_start = sc.horizon - w;
    sc.net
        .edge_ids()
        .map(|e| (0..w).map(|s| warm.system.state().price(e, last_window_start + s)).collect())
        .collect()
}

fn capture_schedule_input(system: &Pretium, usage: &UsageTracker, now: usize) -> ScheduleInput {
    let jobs = system
        .contracts()
        .iter()
        .enumerate()
        .filter(|(_, c)| c.active_at(now))
        .map(|(i, c)| {
            Job::new(
                i,
                system.routes(ContractId(i)).to_vec(),
                c.params.start.max(now),
                c.params.deadline,
                c.lambda,
                c.guarantee_remaining(),
                c.demand_remaining(),
            )
        })
        .collect();
    ScheduleInput { now, jobs, state: system.state().clone(), usage: usage.clone() }
}

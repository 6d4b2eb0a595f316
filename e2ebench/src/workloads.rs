//! The four workloads and what a seed draws.
//!
//! A workload is a fixed world — topology, traffic trace, request stream and
//! fault plan, all generated from [`WORLD_SEED`] — plus window shoppers:
//! customers who ask for a quote and buy nothing. **The seed places the
//! window shoppers**: which requests are shadowed by how many of them.
//!
//! Why not draw the whole world from the seed: the time of an LP solve is a
//! chaotic function of its input. On a 30-node world with two cold PC
//! solves per replay, redrawing nothing but the customers' private values
//! moved the median PC solve between 316 ms and 1,134 ms and the replay
//! between 1.9 s and 3.3 s over six seeds — a handful of cold solves is no
//! law of large numbers to average that out, and a benchmark whose seeds
//! differ by 2x cannot see a 10% regression. Shoppers are requests the admission layer must serve in
//! full (snapshot, quote, staleness check, re-quote, rejection) but that
//! leave the network state untouched, so every seed replays the same
//! contracts and the same LPs while the quoting load around them differs.
//! The program under test receives only the generated inputs.

use pretium_core::RequestParams;
use pretium_sim::{FaultPlan, FaultPlanConfig, Scenario, ScenarioConfig};
use pretium_workload::RequestId;
use rand::rngs::StdRng;
use rand::{derive_seed, Rng, SeedableRng};

/// Seed of everything about a world that `--seed` does not draw.
pub const WORLD_SEED: u64 = rand::DEFAULT_SEED;

/// Ids of window-shopper clones start here, clear of organic ids (dense
/// from 0) and of fault-plan surge ids (from `1 << 32`).
pub const SHOPPER_ID_OFFSET: u64 = 1 << 40;

/// Who sent a request, which decides how it answers a menu.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sender {
    /// Request `i` of the scenario: buys `optimal_purchase(value, demand)`.
    Organic(usize),
    /// Fault-plan surge traffic: buys optimally, outside the scenario's
    /// outcome accounting.
    Surge,
    /// A window shopper: asks for a quote and buys nothing.
    Shopper,
}

/// One request as the replay loop issues it.
#[derive(Debug, Clone)]
pub struct Arrival {
    pub params: RequestParams,
    pub value: f64,
    pub demand: f64,
    pub sender: Sender,
}

/// Which layer the workload is there to load; the traced run asserts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dominant {
    /// `sam.share + pc.share >= 75%`.
    SamPlusPc,
    /// `sam.share >= 50%`, and the faulted path is exercised.
    SamFaulted,
    /// `pc.share >= 40%`.
    Pc,
    /// RA busy `>= 50%` of the replay.
    Ra,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub nodes_per_region: &'static [usize],
    /// `None` keeps `ScenarioConfig::evaluation`'s pair activity.
    pub pair_activity: Option<f64>,
    pub load_factor: f64,
    pub windows: usize,
    pub smoke_windows: usize,
    /// Per (edge, window) outage probability of the availability profile.
    pub failure_rate: Option<f64>,
    /// Mean window shoppers per organic request.
    pub shopper_rate: f64,
    /// Set-ups per run (`S`).
    pub setups: usize,
    pub dominant: Dominant,
    /// `(welfare, delivered_units)` at the commit that defined the
    /// benchmark; a replay must reach 0.98 of both. Shoppers leave the
    /// network state alone, so the pair is the same for every seed.
    pub reference: (f64, f64),
}

/// One request in ten is shadowed by a shopper on the workloads that are
/// not about RA: enough for the seed to matter to every RA metric, too
/// little to move a workload's layer shares.
const LIGHT_SHOPPING: f64 = 0.1;

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "eval_month",
        why: "Table-4 scale over 30 windows: small LPs, hundreds of warm SAM steps, 29 PC solves; per-call and warm-restart overheads show here",
        nodes_per_region: &[5, 4, 3],
        pair_activity: None,
        load_factor: 2.0,
        windows: 30,
        smoke_windows: 3,
        failure_rate: None,
        shopper_rate: LIGHT_SHOPPING,
        setups: 5,
        dominant: Dominant::SamPlusPc,
        reference: (8577.056158, 17043.815064),
    },
    Spec {
        name: "wide_faulted",
        why: "18 nodes under 2% link faults: dual restarts after capacity loss, shed/relax, PC freezes, stale tickets; the faulted SAM path",
        nodes_per_region: &[6, 5, 4, 3],
        pair_activity: Some(0.35),
        load_factor: 2.0,
        windows: 16,
        smoke_windows: 3,
        failure_rate: Some(0.02),
        shopper_rate: LIGHT_SHOPPING,
        setups: 2,
        dominant: Dominant::SamFaulted,
        reference: (18638.820255, 29181.464787),
    },
    Spec {
        name: "large_days",
        why: "30 nodes, 6 windows: five cold offline PC LPs of 65-160 ms are half the replay; cold solve, factorization, pricing; the largest LPs of the default path",
        nodes_per_region: &[9, 8, 7, 6],
        pair_activity: Some(0.15),
        load_factor: 1.0,
        windows: 6,
        smoke_windows: 2,
        failure_rate: None,
        shopper_rate: LIGHT_SHOPPING,
        setups: 4,
        dominant: Dominant::Pc,
        reference: (2431.823162, 6948.796383),
    },
    Spec {
        name: "quote_storm",
        why: "20 window shoppers per organic request: RA does most of the work, the LP little; menu, path cache, snapshot and sequencer show",
        nodes_per_region: &[5, 4, 3],
        pair_activity: None,
        load_factor: 1.0,
        windows: 16,
        smoke_windows: 3,
        failure_rate: None,
        shopper_rate: 20.0,
        setups: 3,
        dominant: Dominant::Ra,
        reference: (3011.029850, 5709.352079),
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    pub fn scenario_config(&self, smoke: bool) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::evaluation(WORLD_SEED, self.load_factor);
        cfg.topology.nodes_per_region =
            if smoke { vec![3, 3] } else { self.nodes_per_region.to_vec() };
        if let Some(a) = self.pair_activity {
            cfg.traffic.pair_activity = a;
        }
        cfg.windows = if smoke { self.smoke_windows } else { self.windows };
        cfg
    }

    pub fn fault_config(&self, smoke: bool) -> Option<FaultPlanConfig> {
        // The six-node smoke world has a tenth of the edges; a higher rate
        // keeps a handful of events in it.
        let rate = |r: f64| if smoke { 0.15 } else { r };
        self.failure_rate
            .map(|r| FaultPlanConfig::availability(derive_seed(WORLD_SEED, "faults"), rate(r)))
    }

    /// How many shoppers shadow one request: a coin flip below one per
    /// request, uniform within a tenth of `rate` around it from there on.
    fn shoppers_for(&self, rng: &mut StdRng) -> usize {
        if self.shopper_rate < 1.0 {
            usize::from(rng.gen_bool(self.shopper_rate))
        } else {
            let (rate, tenth) = (self.shopper_rate as usize, (self.shopper_rate / 10.0) as usize);
            rng.gen_range(rate - tenth..=rate + tenth)
        }
    }
}

/// Everything a replay reads. Built once per set-up, shared by every
/// repetition.
pub struct World {
    pub scenario: Scenario,
    pub plan: Option<FaultPlan>,
    /// Every request of the replay in issue order, shoppers before the
    /// organic request they clone, surges after their step's organic batch.
    pub arrivals: Vec<Arrival>,
    /// `arrivals[batch_start[t]..batch_start[t + 1]]` arrive at step `t`.
    pub batch_start: Vec<usize>,
}

impl World {
    pub fn build(spec: &Spec, scenario: Scenario, plan: Option<FaultPlan>, seed: u64) -> World {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, "shoppers"));
        let mut arrivals = Vec::new();
        let mut batch_start = Vec::with_capacity(scenario.horizon + 1);
        let mut next = 0usize;
        let mut shopper_id = SHOPPER_ID_OFFSET;
        for t in 0..scenario.horizon {
            batch_start.push(arrivals.len());
            while next < scenario.requests.len() && scenario.requests[next].arrival == t {
                let r = &scenario.requests[next];
                for _ in 0..spec.shoppers_for(&mut rng) {
                    let params =
                        RequestParams { id: RequestId(shopper_id), ..RequestParams::from(r) };
                    shopper_id += 1;
                    arrivals.push(Arrival {
                        params,
                        value: r.value,
                        demand: r.demand,
                        sender: Sender::Shopper,
                    });
                }
                arrivals.push(Arrival {
                    params: RequestParams::from(r),
                    value: r.value,
                    demand: r.demand,
                    sender: Sender::Organic(next),
                });
                next += 1;
            }
            if let Some(plan) = &plan {
                for r in plan.surges_at(t) {
                    arrivals.push(Arrival {
                        params: RequestParams::from(r),
                        value: r.value,
                        demand: r.demand,
                        sender: Sender::Surge,
                    });
                }
            }
        }
        batch_start.push(arrivals.len());
        assert_eq!(next, scenario.requests.len(), "requests must be sorted by arrival");
        World { scenario, plan, arrivals, batch_start }
    }

    pub fn batch(&self, t: usize) -> &[Arrival] {
        &self.arrivals[self.batch_start[t]..self.batch_start[t + 1]]
    }

    pub fn shoppers(&self) -> usize {
        self.arrivals.iter().filter(|a| a.sender == Sender::Shopper).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(name: &str, seed: u64, smoke: bool) -> World {
        let spec = spec(name).unwrap();
        let sc = spec.scenario_config(smoke).build();
        let plan = spec.fault_config(smoke).map(|fc| FaultPlan::for_scenario(&sc, &fc));
        World::build(spec, sc, plan, seed)
    }

    fn shopper_ids(w: &World) -> Vec<(usize, u64)> {
        w.arrivals
            .iter()
            .enumerate()
            .filter(|(_, a)| a.sender == Sender::Shopper)
            .map(|(i, a)| (i, a.params.id.0))
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_shoppers_same_world() {
        let w = |seed| world("quote_storm", seed, true);
        let (a, b, c) = (w(3), w(3), w(4));
        assert_eq!(shopper_ids(&a), shopper_ids(&b));
        assert_ne!(shopper_ids(&a), shopper_ids(&c));
        assert_eq!(a.scenario.requests, c.scenario.requests);
        // About twenty shoppers per organic request.
        let per_request = a.shoppers() as f64 / a.scenario.requests.len() as f64;
        assert!((19.0..21.0).contains(&per_request), "{per_request}");
    }

    #[test]
    fn light_shopping_shadows_about_one_request_in_ten() {
        let w = world("eval_month", 1, false);
        let share = w.shoppers() as f64 / w.scenario.requests.len() as f64;
        assert!((0.07..0.13).contains(&share), "{share}");
    }

    #[test]
    fn batches_cover_every_arrival_in_step_order() {
        let w = world("wide_faulted", 5, false);
        let plan = w.plan.as_ref().unwrap();
        let surges: usize = (0..w.scenario.horizon).map(|t| plan.surges_at(t).count()).sum();
        assert_eq!(w.arrivals.len(), w.scenario.requests.len() + surges + w.shoppers());
        for t in 0..w.scenario.horizon {
            assert!(w.batch(t).iter().all(|a| a.params.arrival == t));
        }
        // A shopper is its request's clone under an id nothing else uses.
        for (i, a) in w.arrivals.iter().enumerate().filter(|(_, a)| a.sender == Sender::Shopper) {
            assert!(a.params.id.0 >= SHOPPER_ID_OFFSET);
            let organic =
                w.arrivals[i..].iter().find(|b| matches!(b.sender, Sender::Organic(_))).unwrap();
            assert_eq!(
                (a.params.src, a.params.dst, a.params.deadline),
                (organic.params.src, organic.params.dst, organic.params.deadline)
            );
        }
    }
}

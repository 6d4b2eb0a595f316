//! Transfer requests and their generation from a traffic trace (§3.1, §6.1).
//!
//! A request asks the WAN to move `demand` units from `src` to `dst`
//! within `[start, deadline]` (timesteps, inclusive). The customer's value
//! per unit (`value`) is private — the provider never sees it; only the
//! oracular baselines and the welfare metric may read it.

use crate::tm::TrafficTrace;
use crate::values::ValueDist;
use pretium_net::{NodeId, TimeGrid, Timestep};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Identifier of a request, dense from 0 in arrival order.
///
/// Wide on purpose: synthetic traffic (fault-injected surges) claims ids
/// above [`u32::MAX`], so organic ids can grow to the paper-scale ~1M-plus
/// range — and far beyond — with no risk of colliding with the surge
/// namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl RequestId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Byte transfer vs constant-rate lease (§4.4: rate requests are handled
/// as one byte request per timestep of the lease).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestKind {
    /// Move `demand` units any time within the window.
    Byte,
    /// Sustain `rate` units per timestep for the whole window; `demand`
    /// equals `rate × window length`.
    Rate { rate: f64 },
}

/// One customer transfer request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub id: RequestId,
    pub src: NodeId,
    pub dst: NodeId,
    /// Total units to move (`d_i`).
    pub demand: f64,
    /// Private value per unit (`v_i`). The provider must not read this.
    pub value: f64,
    /// When the request is submitted (`a_i`).
    pub arrival: Timestep,
    /// First timestep data may move (`t¹_i ≥ a_i`).
    pub start: Timestep,
    /// Last timestep data may move (`t²_i`, inclusive).
    pub deadline: Timestep,
    pub kind: RequestKind,
}

impl Request {
    /// Number of timesteps available.
    pub fn window_len(&self) -> usize {
        self.deadline - self.start + 1
    }

    /// Slack beyond the minimum: a request needing its whole window has
    /// laxity 0 only when demand == capacity×len; here laxity is just the
    /// window length in steps (used by generators/tests).
    pub fn is_active_at(&self, t: Timestep) -> bool {
        t >= self.start && t <= self.deadline
    }
}

/// Parameters mapping a traffic trace to discrete requests.
#[derive(Debug, Clone)]
pub struct RequestConfig {
    /// Mean number of requests a pair's per-window volume is split into.
    pub requests_per_pair_window: f64,
    /// Deadline laxity: window length is `ceil(minimum_steps × laxity)`
    /// where `laxity` is drawn uniformly from this range. A laxity of 1
    /// means "exactly as long as a single-step transfer"; the paper's
    /// survey says 60% of transfers have strict (tight) deadlines.
    pub laxity_tight: (f64, f64),
    pub laxity_loose: (f64, f64),
    /// Fraction of requests with tight deadlines (Table 1: 60%).
    pub tight_fraction: f64,
    /// Minimum / maximum window length in steps.
    pub min_window: usize,
    pub max_window: usize,
    /// Distribution of per-unit values.
    pub value_dist: ValueDist,
    /// Fraction of requests that are rate leases instead of byte transfers.
    pub rate_fraction: f64,
    pub seed: u64,
}

impl Default for RequestConfig {
    fn default() -> Self {
        RequestConfig {
            requests_per_pair_window: 2.0,
            laxity_tight: (1.0, 2.0),
            laxity_loose: (2.0, 6.0),
            tight_fraction: 0.60,
            min_window: 2,
            max_window: 24,
            value_dist: ValueDist::Normal { mean: 1.0, std: 0.5, floor: 0.01 },
            rate_fraction: 0.0,
            seed: 7,
        }
    }
}

/// Convert a traffic trace into a request stream that mimics it: per pair
/// and window, the pair's volume is split into ~`requests_per_pair_window`
/// requests whose arrivals are sampled proportionally to the pair's demand
/// curve (so request load follows the diurnal shape).
pub fn generate_requests(
    trace: &TrafficTrace,
    grid: &TimeGrid,
    cfg: &RequestConfig,
) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out: Vec<Request> = Vec::new();
    let windows = trace.horizon.div_ceil(grid.steps_per_window);
    for pair in &trace.pairs {
        for w in 0..windows {
            let range = grid.window_range(w);
            let lo = range.start;
            let hi = range.end.min(trace.horizon);
            let volume: f64 = pair.demand[lo..hi].iter().sum();
            if volume <= 0.0 {
                continue;
            }
            // Number of requests: 1 + Poisson-ish around the mean.
            let n = sample_count(&mut rng, cfg.requests_per_pair_window);
            // Split volume into n random shares (stick-breaking).
            let mut shares = vec![0.0f64; n];
            for s in shares.iter_mut() {
                *s = rng.gen_range(0.2..1.0);
            }
            let total_share: f64 = shares.iter().sum();
            for share in shares {
                let demand = volume * share / total_share;
                // Arrival sampled proportional to the demand curve.
                let arrival = weighted_step(&mut rng, &pair.demand[lo..hi]) + lo;
                let tight = rng.gen_bool(cfg.tight_fraction.clamp(0.0, 1.0));
                let (llo, lhi) = if tight { cfg.laxity_tight } else { cfg.laxity_loose };
                let laxity = rng.gen_range(llo..=lhi);
                let len = ((cfg.min_window as f64 * laxity).ceil() as usize)
                    .clamp(cfg.min_window, cfg.max_window);
                let start = arrival;
                let deadline = (start + len - 1).min(trace.horizon - 1);
                let value = cfg.value_dist.sample(&mut rng);
                let kind = if rng.gen_bool(cfg.rate_fraction.clamp(0.0, 1.0)) {
                    RequestKind::Rate { rate: demand / (deadline - start + 1) as f64 }
                } else {
                    RequestKind::Byte
                };
                out.push(Request {
                    id: RequestId(0), // assigned after sorting
                    src: pair.src,
                    dst: pair.dst,
                    demand,
                    value,
                    arrival,
                    start,
                    deadline,
                    kind,
                });
            }
        }
    }
    // Arrival order defines request ids.
    out.sort_by_key(|r| (r.arrival, r.src, r.dst));
    for (i, r) in out.iter_mut().enumerate() {
        r.id = RequestId(i as u64);
    }
    out
}

/// `1 + Poisson(mean - 1)`-ish count via exponential gaps (always ≥ 1).
fn sample_count(rng: &mut StdRng, mean: f64) -> usize {
    let mean = mean.max(1.0);
    let mut n = 1usize;
    let mut acc = 0.0;
    loop {
        let u: f64 = 1.0 - rng.gen::<f64>();
        acc += -u.ln();
        if acc >= mean - 1.0 || n >= 64 {
            return n;
        }
        n += 1;
    }
}

/// Sample an index proportionally to the weights (all ≥ 0, not all zero).
fn weighted_step(rng: &mut StdRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return 0;
    }
    let mut target = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return i;
        }
        target -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tm::{generate_trace, TrafficConfig};
    use pretium_net::topology;

    fn requests_with(cfg: RequestConfig) -> (TrafficTrace, Vec<Request>, TimeGrid) {
        let net = topology::default_eval(3);
        let grid = TimeGrid::coarse_default();
        let trace =
            generate_trace(&net, &grid, &TrafficConfig { horizon: 96, ..Default::default() });
        let reqs = generate_requests(&trace, &grid, &cfg);
        (trace, reqs, grid)
    }

    #[test]
    fn volume_is_conserved() {
        let (trace, reqs, _) = requests_with(RequestConfig::default());
        let req_total: f64 = reqs.iter().map(|r| r.demand).sum();
        assert!(
            (req_total - trace.total()).abs() < 1e-6 * trace.total(),
            "requests {req_total} vs trace {}",
            trace.total()
        );
    }

    #[test]
    fn ids_dense_and_arrival_sorted() {
        let (_, reqs, _) = requests_with(RequestConfig::default());
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id.index(), i);
        }
        assert!(reqs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn windows_are_well_formed() {
        let (trace, reqs, _) = requests_with(RequestConfig::default());
        for r in &reqs {
            assert!(r.start >= r.arrival);
            assert!(r.deadline >= r.start);
            assert!(r.deadline < trace.horizon);
            assert!(r.demand > 0.0);
            assert!(r.value >= 0.0);
        }
    }

    #[test]
    fn tight_fraction_shapes_window_lengths() {
        let tight =
            RequestConfig { tight_fraction: 1.0, laxity_tight: (1.0, 1.0), ..Default::default() };
        let loose =
            RequestConfig { tight_fraction: 0.0, laxity_loose: (6.0, 6.0), ..Default::default() };
        let (_, rt, _) = requests_with(tight);
        let (_, rl, _) = requests_with(loose);
        let mean_t: f64 = rt.iter().map(|r| r.window_len() as f64).sum::<f64>() / rt.len() as f64;
        let mean_l: f64 = rl.iter().map(|r| r.window_len() as f64).sum::<f64>() / rl.len() as f64;
        assert!(mean_l > 2.0 * mean_t, "tight {mean_t} loose {mean_l}");
    }

    #[test]
    fn rate_requests_generated_when_configured() {
        let cfg = RequestConfig { rate_fraction: 1.0, ..Default::default() };
        let (_, reqs, _) = requests_with(cfg);
        assert!(!reqs.is_empty());
        for r in &reqs {
            match r.kind {
                RequestKind::Rate { rate } => {
                    assert!((rate * r.window_len() as f64 - r.demand).abs() < 1e-9 * r.demand);
                }
                RequestKind::Byte => panic!("expected rate request"),
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let (_, a, _) = requests_with(RequestConfig::default());
        let (_, b, _) = requests_with(RequestConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn active_range_helpers() {
        let r = Request {
            id: RequestId(0),
            src: NodeId(0),
            dst: NodeId(1),
            demand: 1.0,
            value: 1.0,
            arrival: 3,
            start: 4,
            deadline: 7,
            kind: RequestKind::Byte,
        };
        assert_eq!(r.window_len(), 4);
        assert!(r.is_active_at(4) && r.is_active_at(7));
        assert!(!r.is_active_at(3) && !r.is_active_at(8));
    }
}

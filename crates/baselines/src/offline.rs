//! The offline baselines of §6.1: one scheduling LP over the whole horizon,
//! solved with complete knowledge of every request.
//!
//! * **OPT** weighs each unit by the request's true value `v_i`: the
//!   welfare upper bound every figure normalizes against. (As in the
//!   paper, it is the best *tractable* offline bound: it linearizes the
//!   95th-percentile costs with the §4.2 proxy.)
//! * **NoPrices** is TE without pricing: the scheduler cannot learn
//!   values, so every unit weighs 1 (byte maximization minus costs).
//!   Nothing stops low-value traffic from claiming expensive capacity, so
//!   welfare can go negative.
//! * **Posted prices** (RegionOracle, PeakOracle): the same value-blind
//!   scheduler, but a request may move units only at steps whose posted
//!   price it can afford, and pays that price per unit moved.
//!   [`posted_price_oracle`] picks the two price levels in hindsight; the
//!   [`crate::region`] and [`crate::peak`] modules only say which
//!   `(request, step)` pays the high level.
//!
//! [`solve_offline`] is the one LP all four solve.

use crate::outcome::Outcome;
use pretium_core::{schedule, Job, ScheduleProblem, TopkEncoding};
use pretium_lp::{SolveError, SolveOptions};
use pretium_net::{EdgeId, Network, PathSet, TimeGrid, Timestep};
use pretium_workload::Request;

/// Routes per request: `PretiumConfig`'s default `k_paths`, for a fair
/// comparison.
pub const K_PATHS: usize = 3;

/// Price candidates per level in the posted-price oracles' grid.
pub const GRID_POINTS: usize = 4;

/// The knobs the evaluation varies for every baseline scheme.
#[derive(Debug, Clone)]
pub struct OfflineConfig {
    /// Fraction of capacity withheld for high-pri traffic, as in Pretium.
    pub highpri_fraction: f64,
    /// Multiplier on link costs (Figure 12 sweeps it).
    pub cost_scale: f64,
}

impl Default for OfflineConfig {
    fn default() -> Self {
        OfflineConfig { highpri_fraction: 0.10, cost_scale: 1.0 }
    }
}

/// What a request's units weigh in the offline LP, and what they pay.
#[derive(Clone, Copy)]
pub enum Weighting<'a> {
    /// The request's true value `v_i` per unit; nothing is paid (OPT).
    Value,
    /// 1 per unit; nothing is paid (NoPrices). An infinitesimal
    /// per-request jitter breaks the enormous tie degeneracy that would
    /// otherwise stall the simplex, without changing which byte-max optima
    /// are reachable.
    Bytes,
    /// [`Weighting::Bytes`] under a posted per-unit price per `(request,
    /// step)`: a request may move units only at steps whose price does not
    /// exceed its value, and pays that price per unit moved there. The
    /// §6.1 posted-price baselines "transfer the maximum amount of bytes
    /// before the deadlines while accounting for the 95th percentile
    /// costs": the price is their only value filter, which is why they
    /// underperform when low-value traffic clears the price but not the
    /// true cost.
    Posted(&'a dyn Fn(&Request, Timestep) -> f64),
}

/// Solve the offline scheduling LP over `0..horizon` (capacity less the
/// high-pri share, no realized usage, the CVaR cost proxy) and
/// materialize its deliveries, payments and link usage.
///
/// `None` when no request enters the LP: an empty horizon, or everyone
/// priced out.
pub fn solve_offline(
    net: &Network,
    grid: &TimeGrid,
    horizon: usize,
    requests: &[Request],
    cfg: &OfflineConfig,
    scheme: &str,
    weighting: Weighting<'_>,
) -> Result<Option<Outcome>, SolveError> {
    if horizon == 0 {
        return Ok(None);
    }
    let mut paths = PathSet::new(K_PATHS);
    let mut jobs = Vec::with_capacity(requests.len());
    for (i, r) in requests.iter().enumerate() {
        let p = paths.paths(net, r.src, r.dst);
        if p.is_empty() {
            continue;
        }
        let deadline = r.deadline.min(horizon - 1);
        let bytes = 1.0 + (r.id.index() % 97) as f64 * 1e-6;
        let (weight, allowed_steps) = match weighting {
            Weighting::Value => (r.value, None),
            Weighting::Bytes => (bytes, None),
            Weighting::Posted(price_of) => {
                let affordable: Vec<Timestep> =
                    (r.start..=deadline).filter(|&t| price_of(r, t) <= r.value + 1e-12).collect();
                if affordable.is_empty() {
                    continue;
                }
                (bytes, Some(affordable))
            }
        };
        jobs.push(Job {
            allowed_steps,
            ..Job::new(i, p, r.start, deadline, weight, 0.0, r.demand)
        });
    }
    if jobs.is_empty() {
        return Ok(None);
    }
    let frac = 1.0 - cfg.highpri_fraction;
    let capacity = move |e: EdgeId, _t: Timestep| net.edge(e).capacity * frac;
    let zero = |_: EdgeId, _: Timestep| 0.0;
    let problem = ScheduleProblem {
        net,
        grid,
        from: 0,
        to: horizon,
        jobs: &jobs,
        capacity: &capacity,
        realized: &zero,
        topk: TopkEncoding::CVar,
        cost_scale: cfg.cost_scale,
    };
    let sol = schedule::solve(&problem, &SolveOptions::default())?;
    let mut out = Outcome::new(scheme, requests.len(), net.num_edges(), horizon);
    for ((job, &delivered), flows) in jobs.iter().zip(&sol.delivered).zip(&sol.flows) {
        let ri = job.key;
        out.delivered[ri] = delivered;
        out.admitted[ri] = delivered > 1e-9;
        for &(pi, t, units) in flows {
            if let Weighting::Posted(price_of) = weighting {
                out.payments[ri] += units * price_of(&requests[ri], t);
            }
            for &e in job.paths[pi].edges() {
                out.usage.record(e, t, units);
            }
        }
    }
    Ok(Some(out))
}

/// The OPT oracle: offline welfare maximization with true values.
pub fn opt(
    net: &Network,
    grid: &TimeGrid,
    horizon: usize,
    requests: &[Request],
    cfg: &OfflineConfig,
) -> Result<Outcome, SolveError> {
    let out = solve_offline(net, grid, horizon, requests, cfg, "OPT", Weighting::Value)?;
    Ok(out.unwrap_or_else(|| Outcome::new("OPT", requests.len(), net.num_edges(), horizon)))
}

/// The NoPrices baseline: offline byte maximization minus costs, blind to
/// values.
pub fn no_prices(
    net: &Network,
    grid: &TimeGrid,
    horizon: usize,
    requests: &[Request],
    cfg: &OfflineConfig,
) -> Result<Outcome, SolveError> {
    let out = solve_offline(net, grid, horizon, requests, cfg, "NoPrices", Weighting::Bytes)?;
    Ok(out.unwrap_or_else(|| Outcome::new("NoPrices", requests.len(), net.num_edges(), horizon)))
}

/// Candidate per-unit prices: zero, then the [`GRID_POINTS`] quantiles of
/// the observed value distribution (duplicates dropped). An oracle
/// searching these cannot miss the revenue-relevant range.
pub fn price_candidates(requests: &[Request]) -> Vec<f64> {
    let mut values: Vec<f64> = requests.iter().map(|r| r.value).collect();
    values.sort_by(f64::total_cmp);
    let mut out = vec![0.0];
    if values.is_empty() {
        return out;
    }
    for i in 1..=GRID_POINTS {
        let q = i as f64 / GRID_POINTS as f64;
        let idx = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len()) - 1;
        let v = values[idx];
        if out.last().is_none_or(|&l| (l - v).abs() > 1e-12) {
            out.push(v);
        }
    }
    out
}

/// A posted-price oracle's choice: its outcome and the two price levels.
#[derive(Debug, Clone)]
pub struct OracleResult {
    pub outcome: Outcome,
    /// Price where the split says low (intra-region; off-peak).
    pub low: f64,
    /// Price where the split says high (inter-region; peak); `high >= low`.
    pub high: f64,
}

/// The hindsight price search of RegionOracle and PeakOracle: post `high`
/// where `pays_high(request, step)` holds and `low` elsewhere, solve
/// [`Weighting::Posted`] for every `(low, high >= low)` pair of
/// [`price_candidates`] in order, and keep the first pair with the highest
/// realized welfare. A pair nobody can afford is skipped, not scored; if
/// every pair is, the result is an empty outcome at prices `(0, 0)`.
pub fn posted_price_oracle(
    net: &Network,
    grid: &TimeGrid,
    horizon: usize,
    requests: &[Request],
    cfg: &OfflineConfig,
    scheme: &str,
    pays_high: impl Fn(&Request, Timestep) -> bool,
) -> Result<OracleResult, SolveError> {
    let candidates = price_candidates(requests);
    let mut best: Option<OracleResult> = None;
    let mut best_welfare = f64::NEG_INFINITY;
    for (i, &low) in candidates.iter().enumerate() {
        for &high in &candidates[i..] {
            let price = |r: &Request, t: Timestep| if pays_high(r, t) { high } else { low };
            let posted = Weighting::Posted(&price);
            let Some(outcome) = solve_offline(net, grid, horizon, requests, cfg, scheme, posted)?
            else {
                continue;
            };
            let w = outcome.welfare(requests, net, grid, cfg.cost_scale);
            if w > best_welfare {
                best_welfare = w;
                best = Some(OracleResult { outcome, low, high });
            }
        }
    }
    Ok(best.unwrap_or_else(|| OracleResult {
        outcome: Outcome::new(scheme, requests.len(), net.num_edges(), horizon),
        low: 0.0,
        high: 0.0,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretium_net::{LinkCost, Region};
    use pretium_workload::{RequestId, RequestKind};

    fn req(id: u64, value: f64, demand: f64, start: usize, deadline: usize) -> Request {
        Request {
            id: RequestId(id),
            src: pretium_net::NodeId(0),
            dst: pretium_net::NodeId(1),
            demand,
            value,
            arrival: start,
            start,
            deadline,
            kind: RequestKind::Byte,
        }
    }

    fn one_edge(cost: LinkCost) -> Network {
        let mut net = Network::new();
        let a = net.add_node("A", Region::NorthAmerica);
        let b = net.add_node("B", Region::Europe);
        net.add_edge(a, b, 10.0, cost);
        net
    }

    #[test]
    fn opt_prefers_high_value_under_contention() {
        let net = one_edge(LinkCost::owned());
        let grid = TimeGrid::new(2, 30);
        let requests = vec![
            req(0, 5.0, 20.0, 0, 1), // high value
            req(1, 1.0, 20.0, 0, 1), // low value
        ];
        let cfg = OfflineConfig { highpri_fraction: 0.0, ..Default::default() };
        let out = opt(&net, &grid, 2, &requests, &cfg).unwrap();
        assert!((out.delivered[0] - 20.0).abs() < 1e-6, "{:?}", out.delivered);
        assert!(out.delivered[1] < 1e-6);
        let w = out.welfare(&requests, &net, &grid, 1.0);
        assert!((w - 100.0).abs() < 1e-6);
    }

    #[test]
    fn noprices_is_value_blind() {
        let net = one_edge(LinkCost::owned());
        let grid = TimeGrid::new(2, 30);
        let requests = vec![req(0, 5.0, 20.0, 0, 1), req(1, 1.0, 20.0, 0, 1)];
        let cfg = OfflineConfig { highpri_fraction: 0.0, ..Default::default() };
        let out = no_prices(&net, &grid, 2, &requests, &cfg).unwrap();
        // Both weigh the same; only the total matters (20 units capacity).
        let total: f64 = out.delivered.iter().sum();
        assert!((total - 20.0).abs() < 1e-6);
    }

    #[test]
    fn noprices_welfare_can_go_negative_on_costly_links() {
        // Low-value traffic on an expensive percentile link: NoPrices
        // still routes whatever "fits profitably at weight 1", which the
        // true values cannot justify.
        let net = one_edge(LinkCost::percentile(0.9));
        let grid = TimeGrid::new(2, 30);
        let requests = vec![req(0, 0.05, 20.0, 0, 1)];
        let cfg = OfflineConfig { highpri_fraction: 0.0, ..Default::default() };
        let out = no_prices(&net, &grid, 2, &requests, &cfg).unwrap();
        assert!(out.delivered[0] > 1.0, "weight-1 scheduler should route this");
        assert!(
            out.welfare(&requests, &net, &grid, 1.0) < 0.0,
            "welfare should be negative: {}",
            out.welfare(&requests, &net, &grid, 1.0)
        );
        // OPT would simply decline.
        let o = opt(&net, &grid, 2, &requests, &cfg).unwrap();
        assert!(o.delivered[0] < 1e-6);
    }

    #[test]
    fn empty_horizon_is_an_empty_outcome() {
        let net = one_edge(LinkCost::owned());
        let grid = TimeGrid::new(2, 30);
        let requests = vec![req(0, 5.0, 20.0, 0, 1)];
        let out = opt(&net, &grid, 0, &requests, &OfflineConfig::default()).unwrap();
        assert_eq!(out.delivered, vec![0.0]);
        assert_eq!(out.admitted, vec![false]);
    }

    #[test]
    fn k_paths_matches_pretium() {
        assert_eq!(K_PATHS, pretium_core::PretiumConfig::default().k_paths);
    }

    #[test]
    fn candidates_are_value_quantiles() {
        let requests: Vec<Request> = (0..10).map(|i| req(i, (i + 1) as f64, 1.0, 0, 1)).collect();
        let c = price_candidates(&requests);
        assert_eq!(c[0], 0.0);
        assert!(c.contains(&10.0), "{c:?}");
        assert!(c.windows(2).all(|w| w[0] < w[1]));
    }

    fn posted(
        requests: &[Request],
        horizon: usize,
        cfg: &OfflineConfig,
        price: impl Fn(&Request, Timestep) -> f64,
    ) -> Option<Outcome> {
        let net = one_edge(LinkCost::owned());
        let grid = TimeGrid::new(horizon.max(2), 30);
        solve_offline(&net, &grid, horizon, requests, cfg, "t", Weighting::Posted(&price)).unwrap()
    }

    #[test]
    fn posted_price_filters_low_values() {
        let requests = vec![req(0, 5.0, 5.0, 0, 1), req(1, 1.0, 5.0, 0, 1)];
        let cfg = OfflineConfig { highpri_fraction: 0.0, ..Default::default() };
        let out = posted(&requests, 2, &cfg, |_, _| 2.0).unwrap();
        assert!((out.delivered[0] - 5.0).abs() < 1e-6);
        assert_eq!(out.delivered[1], 0.0, "value 1 < price 2 must be excluded");
        assert!((out.payments[0] - 10.0).abs() < 1e-6);
        assert!(!out.admitted[1]);
    }

    #[test]
    fn time_varying_price_restricts_steps() {
        // Price 3 at steps 0-1 (peak), 0.5 at steps 2-3.
        let price = |_r: &Request, t: Timestep| if t < 2 { 3.0 } else { 0.5 };
        let requests = vec![req(0, 1.0, 30.0, 0, 3)];
        let cfg = OfflineConfig { highpri_fraction: 0.0, ..Default::default() };
        let out = posted(&requests, 4, &cfg, price).unwrap();
        // Only off-peak steps affordable: 2 × 10 = 20 units at 0.5.
        assert!((out.delivered[0] - 20.0).abs() < 1e-6, "{:?}", out.delivered);
        assert!((out.payments[0] - 10.0).abs() < 1e-6);
        for t in 0..2 {
            assert_eq!(out.usage.at(EdgeId(0), t), 0.0, "peak step {t} must be empty");
        }
    }

    #[test]
    fn none_when_everyone_priced_out() {
        let requests = vec![req(0, 1.0, 5.0, 0, 1)];
        let cfg = OfflineConfig::default();
        assert!(posted(&requests, 2, &cfg, |_, _| 100.0).is_none());
        // An empty horizon admits nobody either (and must not underflow).
        assert!(posted(&requests, 0, &cfg, |_, _| 0.0).is_none());
    }

    #[test]
    fn highpri_fraction_caps_offline_capacity() {
        let net = one_edge(LinkCost::owned());
        let grid = TimeGrid::new(2, 30);
        let requests = vec![req(0, 5.0, 100.0, 0, 1)];
        let cfg = OfflineConfig { highpri_fraction: 0.25, ..Default::default() };
        let out = opt(&net, &grid, 2, &requests, &cfg).unwrap();
        // 2 steps × 10 × 0.75 = 15.
        assert!((out.delivered[0] - 15.0).abs() < 1e-6, "{:?}", out.delivered);
    }
}

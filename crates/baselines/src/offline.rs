//! Offline oracle baselines (§6.1): **OPT** and **NoPrices**.
//!
//! Both solve a single scheduling LP over the whole horizon with complete
//! knowledge of all requests:
//!
//! * **OPT** weighs each unit by the request's *true* value `v_i` — the
//!   welfare upper bound every figure normalizes against. (As in the
//!   paper, this is the best *tractable* offline bound: it linearizes the
//!   95th-percentile costs via the §4.2 proxy.)
//! * **NoPrices** models state-of-the-art TE without pricing: the
//!   scheduler cannot learn values, so every unit weighs 1 (pure byte
//!   maximization minus costs). Nothing stops low-value traffic from
//!   claiming expensive capacity — welfare can go negative.

use crate::outcome::Outcome;
use pretium_core::{schedule, Job, ScheduleProblem, TopkEncoding};
use pretium_lp::SolveError;
use pretium_net::{EdgeId, Network, PathSet, TimeGrid, Timestep};
use pretium_workload::Request;

/// Shared knobs for every baseline scheme (kept in sync with the Pretium
/// configuration for a fair comparison).
#[derive(Debug, Clone)]
pub struct OfflineConfig {
    /// Routes per request.
    pub k_paths: usize,
    /// Fraction of capacity withheld for high-pri traffic, as in Pretium.
    pub highpri_fraction: f64,
    pub cost_scale: f64,
    /// Number of price candidates per level in the posted-price oracles'
    /// grid search (OPT and NoPrices do not read it).
    pub grid_points: usize,
}

impl Default for OfflineConfig {
    fn default() -> Self {
        OfflineConfig { k_paths: 3, highpri_fraction: 0.10, cost_scale: 1.0, grid_points: 4 }
    }
}

/// Solve the offline scheduling LP with per-request weights from
/// `weight_of` and materialize the resulting usage/deliveries.
pub fn solve_offline(
    net: &Network,
    grid: &TimeGrid,
    horizon: usize,
    requests: &[Request],
    cfg: &OfflineConfig,
    scheme: &str,
    weight_of: impl Fn(&Request) -> f64,
) -> Result<Outcome, SolveError> {
    if horizon == 0 {
        return Ok(Outcome::new(scheme, requests.len(), net.num_edges(), 0));
    }
    let mut paths = PathSet::new(cfg.k_paths);
    let mut jobs = Vec::with_capacity(requests.len());
    let mut job_req: Vec<usize> = Vec::with_capacity(requests.len());
    for (i, r) in requests.iter().enumerate() {
        let p = paths.paths(net, r.src, r.dst).to_vec();
        if p.is_empty() {
            continue;
        }
        jobs.push(Job::new(
            i,
            p,
            r.start,
            r.deadline.min(horizon - 1),
            weight_of(r),
            0.0,
            r.demand,
        ));
        job_req.push(i);
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
    let sol = schedule::solve(&problem)?;
    let mut out = Outcome::new(scheme, requests.len(), net.num_edges(), horizon);
    for (j, &ri) in job_req.iter().enumerate() {
        out.delivered[ri] = sol.delivered[j];
        out.admitted[ri] = sol.delivered[j] > 1e-9;
        for &(pi, t, units) in &sol.flows[j] {
            for &e in jobs[j].paths[pi].edges() {
                out.usage.record(e, t, units);
            }
        }
    }
    Ok(out)
}

/// The OPT oracle: offline welfare maximization with true values.
pub fn opt(
    net: &Network,
    grid: &TimeGrid,
    horizon: usize,
    requests: &[Request],
    cfg: &OfflineConfig,
) -> Result<Outcome, SolveError> {
    solve_offline(net, grid, horizon, requests, cfg, "OPT", |r| r.value)
}

/// The NoPrices baseline: offline byte maximization minus costs, blind to
/// values (every request weighs 1 per unit; an infinitesimal per-request
/// jitter breaks the enormous tie degeneracy that would otherwise stall
/// the simplex without changing which byte-max optima are reachable).
pub fn no_prices(
    net: &Network,
    grid: &TimeGrid,
    horizon: usize,
    requests: &[Request],
    cfg: &OfflineConfig,
) -> Result<Outcome, SolveError> {
    solve_offline(net, grid, horizon, requests, cfg, "NoPrices", |r| {
        1.0 + (r.id.index() % 97) as f64 * 1e-6
    })
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

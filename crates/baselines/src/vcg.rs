//! The VCGLike spot-market baseline (§6.1).
//!
//! Each timestep runs an independent spot auction: every active request is
//! converted to a rate (remaining demand spread to its deadline), customers
//! bid their value, the provider allocates rates to maximize declared
//! welfare, and winners pay their VCG externality. As the paper notes,
//! this scheme is *not* truthful across timesteps, ignores provider costs,
//! and plans myopically — which is exactly why it underperforms.

use crate::offline::OfflineConfig;
use crate::outcome::Outcome;
use pretium_lp::{Cmp, LinExpr, Model, Sense, SolveError};
use pretium_net::{Network, Path, PathSet, TimeGrid};
use pretium_workload::Request;

struct ActiveRequest {
    /// Index into the original request slice.
    idx: usize,
    bid: f64,
    rate_cap: f64,
    paths: Vec<Path>,
}

/// Allocation of one spot auction.
struct StepAllocation {
    /// Welfare Σ b_i x_i of the chosen allocation.
    welfare: f64,
    /// Per active request: `(total units, per-path units)`.
    per_request: Vec<(f64, Vec<f64>)>,
}

/// Solve one step's allocation LP. `exclude` removes one bidder (for VCG
/// payments).
fn solve_step(
    active: &[ActiveRequest],
    capacity_of: &dyn Fn(pretium_net::EdgeId) -> f64,
    exclude: Option<usize>,
) -> Result<StepAllocation, SolveError> {
    let mut m = Model::new(Sense::Maximize);
    let mut vars: Vec<Vec<pretium_lp::Var>> = Vec::with_capacity(active.len());
    for (ai, a) in active.iter().enumerate() {
        if Some(ai) == exclude {
            vars.push(Vec::new());
            continue;
        }
        let pv: Vec<_> = a
            .paths
            .iter()
            .enumerate()
            .map(|(pi, _)| m.add_nonneg(&format!("x_{ai}_{pi}"), a.bid))
            .collect();
        let total = LinExpr::from_terms(pv.iter().map(|&v| (1.0, v)));
        m.add_row(&format!("rate_{ai}"), total, Cmp::Le, a.rate_cap);
        vars.push(pv);
    }
    // Capacity rows for every edge touched by any path.
    let mut edge_exprs: rand::DetHashMap<pretium_net::EdgeId, LinExpr> =
        rand::DetHashMap::default();
    for (ai, a) in active.iter().enumerate() {
        if Some(ai) == exclude {
            continue;
        }
        for (pi, path) in a.paths.iter().enumerate() {
            for &e in path.edges() {
                edge_exprs.entry(e).or_default().add_term(1.0, vars[ai][pi]);
            }
        }
    }
    for (e, expr) in edge_exprs {
        m.add_row(&format!("cap_{e}"), expr, Cmp::Le, capacity_of(e));
    }
    let sol = m.solve()?;
    let per_request: Vec<(f64, Vec<f64>)> = vars
        .iter()
        .map(|pv| {
            let per_path: Vec<f64> = pv.iter().map(|&v| sol.value(v)).collect();
            (per_path.iter().sum(), per_path)
        })
        .collect();
    Ok(StepAllocation { welfare: sol.objective(), per_request })
}

/// Run the VCGLike baseline over the whole horizon.
pub fn vcg_like(
    net: &Network,
    grid: &TimeGrid,
    horizon: usize,
    requests: &[Request],
    cfg: &OfflineConfig,
) -> Result<Outcome, SolveError> {
    let _ = grid;
    let mut paths = PathSet::new(cfg.k_paths);
    let mut out = Outcome::new("VCGLike", requests.len(), net.num_edges(), horizon);
    let mut remaining: Vec<f64> = requests.iter().map(|r| r.demand).collect();
    let frac = 1.0 - cfg.highpri_fraction;
    for t in 0..horizon {
        let active: Vec<ActiveRequest> = requests
            .iter()
            .enumerate()
            .filter(|(i, r)| r.start <= t && t <= r.deadline && remaining[*i] > 1e-9)
            .filter_map(|(i, r)| {
                let p = paths.paths(net, r.src, r.dst).to_vec();
                if p.is_empty() {
                    return None;
                }
                let steps_left = (r.deadline - t + 1) as f64;
                Some(ActiveRequest {
                    idx: i,
                    bid: r.value,
                    rate_cap: remaining[i] / steps_left,
                    paths: p,
                })
            })
            .collect();
        if active.is_empty() {
            continue;
        }
        let capacity_of = |e: pretium_net::EdgeId| net.edge(e).capacity * frac;
        let alloc = solve_step(&active, &capacity_of, None)?;
        // VCG payments: externality imposed on the other bidders.
        for (ai, a) in active.iter().enumerate() {
            let (x, per_path) = &alloc.per_request[ai];
            if *x <= 1e-9 {
                continue;
            }
            let others_with = alloc.welfare - a.bid * x;
            let without = solve_step(&active, &capacity_of, Some(ai))?;
            let payment = (without.welfare - others_with).max(0.0);
            out.payments[a.idx] += payment;
            out.delivered[a.idx] += x;
            out.admitted[a.idx] = true;
            remaining[a.idx] -= x;
            for (pi, &units) in per_path.iter().enumerate() {
                if units > 1e-9 {
                    for &e in a.paths[pi].edges() {
                        out.usage.record(e, t, units);
                    }
                }
            }
        }
    }
    Ok(out)
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

    fn one_edge() -> Network {
        let mut net = Network::new();
        let a = net.add_node("A", Region::NorthAmerica);
        let b = net.add_node("B", Region::Europe);
        net.add_edge(a, b, 10.0, LinkCost::owned());
        net
    }

    #[test]
    fn uncontended_bidder_pays_nothing() {
        let net = one_edge();
        let grid = TimeGrid::new(2, 30);
        let requests = vec![req(0, 5.0, 10.0, 0, 1)];
        let cfg = OfflineConfig { highpri_fraction: 0.0, ..Default::default() };
        let out = vcg_like(&net, &grid, 2, &requests, &cfg).unwrap();
        assert!((out.delivered[0] - 10.0).abs() < 1e-6);
        assert!(out.payments[0].abs() < 1e-9, "VCG payment without contention is 0");
    }

    #[test]
    fn loser_pays_nothing_winner_pays_displaced_value() {
        let net = one_edge();
        let grid = TimeGrid::new(1, 30);
        // One step, capacity 10; both want 10 now.
        let requests = vec![req(0, 5.0, 10.0, 0, 0), req(1, 2.0, 10.0, 0, 0)];
        let cfg = OfflineConfig { highpri_fraction: 0.0, ..Default::default() };
        let out = vcg_like(&net, &grid, 1, &requests, &cfg).unwrap();
        assert!((out.delivered[0] - 10.0).abs() < 1e-6, "{:?}", out.delivered);
        assert!(out.delivered[1] < 1e-6);
        // Winner displaces 10 units of bid-2 traffic: pays 20.
        assert!((out.payments[0] - 20.0).abs() < 1e-6, "{:?}", out.payments);
        assert_eq!(out.payments[1], 0.0);
    }

    #[test]
    fn rates_spread_demand_across_deadline() {
        let net = one_edge();
        let grid = TimeGrid::new(4, 30);
        // Demand 12 over 4 steps: rate 3/step even though capacity is 10.
        let requests = vec![req(0, 5.0, 12.0, 0, 3)];
        let cfg = OfflineConfig { highpri_fraction: 0.0, ..Default::default() };
        let out = vcg_like(&net, &grid, 4, &requests, &cfg).unwrap();
        assert!((out.delivered[0] - 12.0).abs() < 1e-6);
        let e = pretium_net::EdgeId(0);
        for t in 0..4 {
            assert!((out.usage.at(e, t) - 3.0).abs() < 1e-6, "t={t}: {}", out.usage.at(e, t));
        }
    }

    #[test]
    fn myopic_allocation_ignores_costs() {
        // A percentile-billed link: VCGLike routes anyway (it never looks
        // at provider costs), so welfare can be negative.
        let mut net = Network::new();
        let a = net.add_node("A", Region::NorthAmerica);
        let b = net.add_node("B", Region::Europe);
        net.add_edge(a, b, 10.0, LinkCost::percentile(10.0));
        let grid = TimeGrid::new(2, 30);
        let requests = vec![req(0, 0.5, 10.0, 0, 1)];
        let cfg = OfflineConfig { highpri_fraction: 0.0, ..Default::default() };
        let out = vcg_like(&net, &grid, 2, &requests, &cfg).unwrap();
        assert!(out.delivered[0] > 5.0);
        assert!(out.welfare(&requests, &net, &grid, 1.0) < 0.0);
    }
}

//! The PeakOracle baseline (§6.1): time-of-day two-level pricing. The
//! peak period is chosen statically from the traffic trace (steps whose
//! total demand exceeds the daily average); peak and off-peak prices are
//! then grid-searched in hindsight for maximum welfare.

use crate::offline::OfflineConfig;
use crate::outcome::Outcome;
use crate::priced_offline::{price_candidates, run_posted_price};
use pretium_lp::SolveError;
use pretium_net::{Network, TimeGrid, Timestep};
use pretium_workload::{Request, TrafficTrace};

/// Result of the oracle search.
#[derive(Debug, Clone)]
pub struct PeakOracleResult {
    pub outcome: Outcome,
    pub peak_price: f64,
    pub offpeak_price: f64,
    /// Step-in-window positions belonging to the peak period.
    pub peak_steps: Vec<usize>,
}

/// Identify the peak period: step-in-window positions whose average total
/// demand (across windows) exceeds the overall average.
pub fn peak_steps_from_trace(trace: &TrafficTrace, grid: &TimeGrid) -> Vec<usize> {
    let w = grid.steps_per_window;
    let mut sums = vec![0.0; w];
    let mut counts = vec![0usize; w];
    for t in 0..trace.horizon {
        sums[grid.step_in_window(t)] += trace.total_at(t);
        counts[grid.step_in_window(t)] += 1;
    }
    let avgs: Vec<f64> =
        sums.iter().zip(&counts).map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 }).collect();
    let overall = avgs.iter().sum::<f64>() / w as f64;
    (0..w).filter(|&s| avgs[s] > overall).collect()
}

/// Derive peak steps directly from a request stream (arrival-weighted
/// demand), for callers without the underlying trace.
pub fn peak_steps_from_requests(requests: &[Request], grid: &TimeGrid) -> Vec<usize> {
    let w = grid.steps_per_window;
    let mut sums = vec![0.0; w];
    for r in requests {
        sums[grid.step_in_window(r.arrival)] += r.demand;
    }
    let overall = sums.iter().sum::<f64>() / w as f64;
    (0..w).filter(|&s| sums[s] > overall).collect()
}

/// Run PeakOracle with the given peak step set.
pub fn peak_oracle(
    net: &Network,
    grid: &TimeGrid,
    horizon: usize,
    requests: &[Request],
    peak_steps: &[usize],
    cfg: &OfflineConfig,
) -> Result<PeakOracleResult, SolveError> {
    let candidates = price_candidates(requests, cfg.grid_points);
    let is_peak = |t: Timestep| peak_steps.contains(&grid.step_in_window(t));
    let mut best: Option<PeakOracleResult> = None;
    let mut best_welfare = f64::NEG_INFINITY;
    for (i, &off) in candidates.iter().enumerate() {
        for &peak in &candidates[i..] {
            let price = |_r: &Request, t: Timestep| if is_peak(t) { peak } else { off };
            let Some(outcome) =
                run_posted_price(net, grid, horizon, requests, cfg, "PeakOracle", price)?
            else {
                continue;
            };
            let w = outcome.welfare(requests, net, grid, cfg.cost_scale);
            if w > best_welfare {
                best_welfare = w;
                best = Some(PeakOracleResult {
                    outcome,
                    peak_price: peak,
                    offpeak_price: off,
                    peak_steps: peak_steps.to_vec(),
                });
            }
        }
    }
    Ok(best.unwrap_or_else(|| PeakOracleResult {
        outcome: Outcome::new("PeakOracle", requests.len(), net.num_edges(), horizon),
        peak_price: 0.0,
        offpeak_price: 0.0,
        peak_steps: peak_steps.to_vec(),
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

    #[test]
    fn peak_steps_found_from_requests() {
        let grid = TimeGrid::new(4, 30);
        // Heavy arrivals at steps 1 and 2.
        let requests =
            vec![req(0, 1.0, 10.0, 1, 3), req(1, 1.0, 12.0, 2, 3), req(2, 1.0, 1.0, 0, 3)];
        let peaks = peak_steps_from_requests(&requests, &grid);
        assert_eq!(peaks, vec![1, 2]);
    }

    #[test]
    fn oracle_charges_more_at_peak() {
        let mut net = Network::new();
        let a = net.add_node("A", Region::NorthAmerica);
        let b = net.add_node("B", Region::Europe);
        net.add_edge(a, b, 10.0, LinkCost::percentile(2.0));
        let grid = TimeGrid::new(4, 30);
        // Peak = steps 0-1. High-value tight requests at peak; low-value
        // flexible request that should ride off-peak.
        let requests =
            vec![req(0, 6.0, 15.0, 0, 1), req(1, 6.0, 15.0, 0, 1), req(2, 1.0, 10.0, 0, 3)];
        let cfg = OfflineConfig { highpri_fraction: 0.0, ..Default::default() };
        let res = peak_oracle(&net, &grid, 4, &requests, &[0, 1], &cfg).unwrap();
        assert!(res.peak_price >= res.offpeak_price);
        let w = res.outcome.welfare(&requests, &net, &grid, 1.0);
        assert!(w > 0.0, "welfare {w}");
    }

    #[test]
    fn empty_peak_set_degenerates_to_single_price() {
        let mut net = Network::new();
        let a = net.add_node("A", Region::NorthAmerica);
        let b = net.add_node("B", Region::Europe);
        net.add_edge(a, b, 10.0, LinkCost::owned());
        let grid = TimeGrid::new(2, 30);
        let requests = vec![req(0, 2.0, 5.0, 0, 1)];
        let cfg = OfflineConfig { highpri_fraction: 0.0, ..Default::default() };
        let res = peak_oracle(&net, &grid, 2, &requests, &[], &cfg).unwrap();
        assert!((res.outcome.delivered[0] - 5.0).abs() < 1e-6);
    }
}

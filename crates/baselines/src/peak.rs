//! The PeakOracle baseline (§6.1): time-of-day two-level pricing, the
//! time-slot pricing of Bilenne & Meunier cut to two levels. The peak
//! period is chosen statically from the traffic trace (the steps whose
//! average total demand exceeds the window's average); peak steps pay the
//! high level, off-peak steps the low one, and [`posted_price_oracle`]
//! picks both in hindsight for maximum realized welfare.

use crate::offline::{posted_price_oracle, OfflineConfig, OracleResult};
use pretium_lp::SolveError;
use pretium_net::{Network, TimeGrid};
use pretium_workload::{Request, TrafficTrace};

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

/// Run PeakOracle with the given step-in-window positions as the peak
/// period. `low` is the off-peak price, `high` the peak one.
pub fn peak_oracle(
    net: &Network,
    grid: &TimeGrid,
    horizon: usize,
    requests: &[Request],
    peak_steps: &[usize],
    cfg: &OfflineConfig,
) -> Result<OracleResult, SolveError> {
    posted_price_oracle(net, grid, horizon, requests, cfg, "PeakOracle", |_, t| {
        peak_steps.contains(&grid.step_in_window(t))
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
        assert!(res.high >= res.low);
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

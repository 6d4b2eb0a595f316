//! Link utilization accounting.
//!
//! [`UsageTracker`] records the volume carried by every edge at every
//! timestep and derives the statistics the paper reports: per-window
//! percentile costs, utilization CDFs (Figures 1 and 10), and the
//! 90th/10th-percentile spread that motivates dynamic pricing.

use crate::cost::LinkCost;
use crate::graph::{EdgeId, Network};
use crate::percentile;
use crate::time::{TimeGrid, Timestep};

/// Per-edge, per-timestep carried volume.
#[derive(Debug, Clone)]
pub struct UsageTracker {
    /// `usage[edge][t]` = volume carried.
    usage: Vec<Vec<f64>>,
    horizon: usize,
}

impl UsageTracker {
    /// Track `num_edges` edges over `horizon` timesteps.
    pub fn new(num_edges: usize, horizon: usize) -> Self {
        UsageTracker { usage: vec![vec![0.0; horizon]; num_edges], horizon }
    }

    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Add `amount` to edge `e` at timestep `t`.
    ///
    /// # Panics
    /// Panics on a negative amount or out-of-range indices.
    pub fn record(&mut self, e: EdgeId, t: Timestep, amount: f64) {
        assert!(amount >= 0.0, "negative usage");
        self.usage[e.index()][t] += amount;
    }

    /// Raw usage series of an edge.
    pub fn series(&self, e: EdgeId) -> &[f64] {
        &self.usage[e.index()]
    }

    /// Usage of an edge at one timestep.
    pub fn at(&self, e: EdgeId, t: Timestep) -> f64 {
        self.usage[e.index()][t]
    }

    /// Total volume carried by edge `e` over `[from, to)` (clamped to the
    /// horizon). Used by the fault reports to compare traffic on a link
    /// before, during, and after an injected outage.
    pub fn volume_on(&self, e: EdgeId, from: Timestep, to: Timestep) -> f64 {
        let to = to.min(self.horizon);
        if from >= to {
            return 0.0;
        }
        self.usage[e.index()][from..to].iter().sum()
    }

    /// Usage slice for a window.
    pub fn window(&self, e: EdgeId, grid: &TimeGrid, w: usize) -> &[f64] {
        let r = grid.window_range(w);
        &self.usage[e.index()][r.start..r.end.min(self.horizon)]
    }

    /// Number of whole/partial windows covered by the horizon.
    pub fn num_windows(&self, grid: &TimeGrid) -> usize {
        self.horizon.div_ceil(grid.steps_per_window)
    }

    /// Total operating cost over all windows using the **true** (non-convex)
    /// 95th-percentile billing rule.
    pub fn total_cost(&self, net: &Network, grid: &TimeGrid) -> f64 {
        self.cost_with(net, grid, |cost, usage| cost.window_cost(usage))
    }

    /// Total operating cost under the sum-of-top-k proxy (what the LPs
    /// optimize).
    pub fn total_proxy_cost(&self, net: &Network, grid: &TimeGrid) -> f64 {
        self.cost_with(net, grid, |cost, usage| cost.proxy_window_cost(usage))
    }

    fn cost_with(
        &self,
        net: &Network,
        grid: &TimeGrid,
        f: impl Fn(&LinkCost, &[f64]) -> f64,
    ) -> f64 {
        let mut total = 0.0;
        for e in net.edge_ids() {
            let cost = &net.edge(e).cost;
            if !cost.is_percentile() {
                continue;
            }
            for w in 0..self.num_windows(grid) {
                total += f(cost, self.window(e, grid, w));
            }
        }
        total
    }

    /// Utilization series of an edge (usage / capacity), clamped at ≥ 0.
    pub fn utilization(&self, net: &Network, e: EdgeId) -> Vec<f64> {
        let cap = net.edge(e).capacity;
        self.usage[e.index()].iter().map(|&u| u / cap).collect()
    }

    /// Figure 1: per-edge ratio of 90th to 10th percentile utilization.
    /// Edges with a 10th percentile below `floor` (as a fraction of
    /// capacity) are reported against the floor to avoid division blowups.
    pub fn p90_over_p10_ratios(&self, net: &Network, floor: f64) -> Vec<f64> {
        net.edge_ids()
            .map(|e| {
                let u = self.utilization(net, e);
                let p90 = percentile::percentile(&u, 0.90);
                let p10 = percentile::percentile(&u, 0.10).max(floor);
                p90 / p10
            })
            .collect()
    }

    /// Figure 10: per-edge 90th-percentile utilization.
    pub fn p90_utilizations(&self, net: &Network) -> Vec<f64> {
        net.edge_ids().map(|e| percentile::percentile(&self.utilization(net, e), 0.90)).collect()
    }

    /// Verify no edge exceeds its capacity by more than `tol` (fraction of
    /// capacity); returns offending `(edge, timestep, usage)` triples.
    pub fn capacity_violations(&self, net: &Network, tol: f64) -> Vec<(EdgeId, Timestep, f64)> {
        let mut out = Vec::new();
        for e in net.edge_ids() {
            let cap = net.edge(e).capacity;
            for (t, &u) in self.usage[e.index()].iter().enumerate() {
                if u > cap * (1.0 + tol) {
                    out.push((e, t, u));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Region;

    fn net_one_pct_edge() -> (Network, EdgeId) {
        let mut net = Network::new();
        let a = net.add_node("A", Region::NorthAmerica);
        let b = net.add_node("B", Region::Europe);
        let e = net.add_edge(a, b, 10.0, LinkCost::percentile(2.0));
        (net, e)
    }

    #[test]
    fn record_accumulates() {
        let (_, e) = net_one_pct_edge();
        let mut u = UsageTracker::new(1, 4);
        u.record(e, 1, 2.0);
        u.record(e, 1, 3.0);
        assert_eq!(u.at(e, 1), 5.0);
        assert_eq!(u.series(e), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn true_cost_uses_95th_percentile() {
        let (net, e) = net_one_pct_edge();
        let grid = TimeGrid::new(100, 30);
        let mut u = UsageTracker::new(1, 100);
        for t in 0..100 {
            u.record(e, t, (t + 1) as f64 / 10.0);
        }
        // 95th percentile of 0.1..10.0 is 9.5; unit cost 2.0 -> 19.0.
        assert!((u.total_cost(&net, &grid) - 19.0).abs() < 1e-9);
        // Proxy: mean of top 10 values (9.1..=10.0 avg 9.55) * 2 = 19.1.
        assert!((u.total_proxy_cost(&net, &grid) - 19.1).abs() < 1e-9);
    }

    #[test]
    fn owned_edges_cost_nothing() {
        let mut net = Network::new();
        let a = net.add_node("A", Region::NorthAmerica);
        let b = net.add_node("B", Region::NorthAmerica);
        let e = net.add_edge(a, b, 10.0, LinkCost::owned());
        let grid = TimeGrid::new(4, 30);
        let mut u = UsageTracker::new(1, 4);
        u.record(e, 0, 10.0);
        assert_eq!(u.total_cost(&net, &grid), 0.0);
    }

    #[test]
    fn multi_window_costs_sum() {
        let (net, e) = net_one_pct_edge();
        let grid = TimeGrid::new(2, 30);
        let mut u = UsageTracker::new(1, 4);
        // Window 0: [4, 0] -> p95 = 4. Window 1: [0, 6] -> p95 = 6.
        u.record(e, 0, 4.0);
        u.record(e, 3, 6.0);
        assert!((u.total_cost(&net, &grid) - 2.0 * (4.0 + 6.0)).abs() < 1e-9);
    }

    #[test]
    fn volume_on_sums_range_and_clamps() {
        let (_, e) = net_one_pct_edge();
        let mut u = UsageTracker::new(1, 4);
        u.record(e, 0, 1.0);
        u.record(e, 1, 2.0);
        u.record(e, 3, 4.0);
        assert_eq!(u.volume_on(e, 0, 2), 3.0);
        assert_eq!(u.volume_on(e, 1, 100), 6.0); // clamped to horizon
        assert_eq!(u.volume_on(e, 2, 2), 0.0); // empty range
    }

    #[test]
    fn violations_detected() {
        let (net, e) = net_one_pct_edge();
        let mut u = UsageTracker::new(1, 3);
        u.record(e, 2, 10.5);
        let v = u.capacity_violations(&net, 0.01);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0, e);
        assert_eq!(v[0].1, 2);
        assert!(u.capacity_violations(&net, 0.10).is_empty());
    }

    #[test]
    fn ratio_floor_prevents_blowup() {
        let (net, e) = net_one_pct_edge();
        let mut u = UsageTracker::new(1, 10);
        u.record(e, 9, 10.0); // single spike, p10 = 0
        let r = u.p90_over_p10_ratios(&net, 0.01);
        assert!(r[0].is_finite());
        assert!(r[0] <= 100.0);
    }
}

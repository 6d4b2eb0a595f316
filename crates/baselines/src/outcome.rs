//! Common result type for every scheme (Pretium and baselines alike), so
//! the simulator computes all §6 metrics uniformly.

use pretium_net::{Network, TimeGrid, UsageTracker};
use pretium_workload::Request;

/// What a scheme did with a request stream.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Scheme label for reports.
    pub scheme: String,
    /// Units delivered per request (indexed by request position).
    pub delivered: Vec<f64>,
    /// Payment charged per request (0 for non-pricing schemes).
    pub payments: Vec<f64>,
    /// Realized link usage over the whole horizon.
    pub usage: UsageTracker,
    /// Whether the request was admitted at all.
    pub admitted: Vec<bool>,
}

impl Outcome {
    /// Empty outcome scaffold for `n` requests.
    pub fn new(scheme: &str, n: usize, num_edges: usize, horizon: usize) -> Self {
        Outcome {
            scheme: scheme.to_string(),
            delivered: vec![0.0; n],
            payments: vec![0.0; n],
            usage: UsageTracker::new(num_edges, horizon),
            admitted: vec![false; n],
        }
    }

    /// Social welfare (Equation 1): Σ v_i · delivered_i minus the **true**
    /// 95th-percentile operating cost of the realized usage, scaled by
    /// `cost_scale`.
    pub fn welfare(
        &self,
        requests: &[Request],
        net: &Network,
        grid: &TimeGrid,
        cost_scale: f64,
    ) -> f64 {
        let value: f64 = requests.iter().zip(&self.delivered).map(|(r, &d)| r.value * d).sum();
        value - cost_scale * self.usage.total_cost(net, grid)
    }

    /// Provider profit: payments minus true operating cost.
    pub fn profit(&self, net: &Network, grid: &TimeGrid, cost_scale: f64) -> f64 {
        self.payments.iter().sum::<f64>() - cost_scale * self.usage.total_cost(net, grid)
    }

    /// Fraction of requests fully served (delivered ≥ demand − ε).
    pub fn completion_rate(&self, requests: &[Request]) -> f64 {
        if requests.is_empty() {
            return 0.0;
        }
        let done =
            requests.iter().zip(&self.delivered).filter(|(r, &d)| d + 1e-6 >= r.demand).count();
        done as f64 / requests.len() as f64
    }

    /// Total value captured, bucketed by request value per unit — the
    /// histogram of Figure 7b. Returns `(bucket upper edges, value sums)`.
    pub fn value_by_bucket(&self, requests: &[Request], edges: &[f64]) -> Vec<f64> {
        let mut sums = vec![0.0; edges.len()];
        for (r, &d) in requests.iter().zip(&self.delivered) {
            let b = edges.iter().position(|&e| r.value <= e).unwrap_or(edges.len() - 1);
            sums[b] += r.value * d;
        }
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretium_net::{LinkCost, Region};
    use pretium_workload::{RequestId, RequestKind};

    fn req(value: f64, demand: f64) -> Request {
        Request {
            id: RequestId(0),
            src: pretium_net::NodeId(0),
            dst: pretium_net::NodeId(1),
            demand,
            value,
            arrival: 0,
            start: 0,
            deadline: 3,
            kind: RequestKind::Byte,
        }
    }

    fn tiny_net() -> Network {
        let mut net = Network::new();
        let a = net.add_node("A", Region::NorthAmerica);
        let b = net.add_node("B", Region::Europe);
        net.add_edge(a, b, 10.0, LinkCost::percentile(1.0));
        net
    }

    #[test]
    fn welfare_is_value_minus_true_cost() {
        let net = tiny_net();
        let grid = TimeGrid::new(4, 30);
        let requests = vec![req(2.0, 8.0)];
        let mut o = Outcome::new("test", 1, 1, 4);
        o.delivered[0] = 8.0;
        let e = net.edge_ids().next().unwrap();
        o.usage.record(e, 0, 8.0);
        // Value 16; 95th pct of [8,0,0,0] = 8 -> cost 8.
        assert!((o.welfare(&requests, &net, &grid, 1.0) - 8.0).abs() < 1e-9);
        assert!((o.welfare(&requests, &net, &grid, 2.0) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn profit_uses_payments() {
        let net = tiny_net();
        let grid = TimeGrid::new(4, 30);
        let mut o = Outcome::new("test", 1, 1, 4);
        o.payments[0] = 10.0;
        let e = net.edge_ids().next().unwrap();
        o.usage.record(e, 1, 4.0);
        assert!((o.profit(&net, &grid, 1.0) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn completion_counts_full_deliveries() {
        let requests = vec![req(1.0, 10.0), req(1.0, 10.0), req(1.0, 10.0)];
        let mut o = Outcome::new("t", 3, 1, 4);
        o.delivered = vec![10.0, 9.0, 10.0];
        assert!((o.completion_rate(&requests) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn value_buckets_accumulate() {
        let requests = vec![req(0.5, 2.0), req(1.5, 2.0), req(9.0, 2.0)];
        let mut o = Outcome::new("t", 3, 1, 4);
        o.delivered = vec![2.0, 2.0, 2.0];
        let sums = o.value_by_bucket(&requests, &[1.0, 2.0, 10.0]);
        assert_eq!(sums, vec![1.0, 3.0, 18.0]);
    }
}

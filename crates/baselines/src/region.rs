//! The RegionOracle baseline (§6.1): two posted prices, a low one for
//! intra-region transfers and a high one for inter-region transfers,
//! chosen in hindsight for maximum realized welfare by
//! [`posted_price_oracle`]. It mirrors the public-cloud price sheets of
//! Table 2, which charge by region pair.

use crate::offline::{posted_price_oracle, OfflineConfig, OracleResult};
use pretium_lp::SolveError;
use pretium_net::{Network, TimeGrid};
use pretium_workload::Request;

/// Whether a request crosses a region boundary.
pub fn is_inter_region(net: &Network, r: &Request) -> bool {
    net.node(r.src).region != net.node(r.dst).region
}

/// Run RegionOracle: inter-region requests pay the high level. `low` is
/// the intra-region price, `high` the inter-region one.
pub fn region_oracle(
    net: &Network,
    grid: &TimeGrid,
    horizon: usize,
    requests: &[Request],
    cfg: &OfflineConfig,
) -> Result<OracleResult, SolveError> {
    posted_price_oracle(net, grid, horizon, requests, cfg, "RegionOracle", |r, _| {
        is_inter_region(net, r)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretium_net::{LinkCost, Region};
    use pretium_workload::{RequestId, RequestKind};

    /// A (NA) -- B (NA) -- C (EU): AB intra, AC inter.
    fn net3() -> Network {
        let mut net = Network::new();
        let a = net.add_node("A", Region::NorthAmerica);
        let b = net.add_node("B", Region::NorthAmerica);
        let c = net.add_node("C", Region::Europe);
        net.add_edge(a, b, 10.0, LinkCost::owned());
        net.add_edge(b, c, 10.0, LinkCost::owned());
        net.add_edge(a, c, 10.0, LinkCost::owned());
        net
    }

    fn req(id: u64, src: u32, dst: u32, value: f64, demand: f64) -> Request {
        Request {
            id: RequestId(id),
            src: pretium_net::NodeId(src),
            dst: pretium_net::NodeId(dst),
            demand,
            value,
            arrival: 0,
            start: 0,
            deadline: 1,
            kind: RequestKind::Byte,
        }
    }

    #[test]
    fn inter_region_detection() {
        let net = net3();
        assert!(!is_inter_region(&net, &req(0, 0, 1, 1.0, 1.0)));
        assert!(is_inter_region(&net, &req(0, 0, 2, 1.0, 1.0)));
    }

    #[test]
    fn oracle_picks_welfare_maximizing_prices() {
        let net = net3();
        let grid = TimeGrid::new(2, 30);
        let requests = vec![
            req(0, 0, 1, 3.0, 10.0), // intra, value 3
            req(1, 0, 2, 8.0, 10.0), // inter, value 8
            req(2, 0, 2, 1.0, 10.0), // inter, value 1
        ];
        let cfg = OfflineConfig { highpri_fraction: 0.0, ..Default::default() };
        let res = region_oracle(&net, &grid, 2, &requests, &cfg).unwrap();
        assert!(res.high >= res.low);
        // With owned (free) links, serving everyone maximizes welfare: the
        // oracle should pick prices low enough to admit all three.
        let w = res.outcome.welfare(&requests, &net, &grid, 1.0);
        assert!((w - (30.0 + 80.0 + 10.0)).abs() < 1e-6, "welfare {w}");
    }

    #[test]
    fn oracle_prices_out_unprofitable_traffic() {
        // Moderately priced inter-region percentile links: the byte-max
        // scheduler will route whatever is admitted, so the hindsight-
        // optimal price must exclude the low-value request (its value is
        // below the carrying cost) while keeping the high-value one.
        let mut net = net3();
        let ac = net.find_edge(pretium_net::NodeId(0), pretium_net::NodeId(2)).unwrap();
        net.edge_mut(ac).cost = LinkCost::percentile(1.0);
        let bc = net.find_edge(pretium_net::NodeId(1), pretium_net::NodeId(2)).unwrap();
        net.edge_mut(bc).cost = LinkCost::percentile(1.0);
        let grid = TimeGrid::new(2, 30);
        let requests = vec![
            req(0, 0, 2, 8.0, 10.0), // worth carrying (8 >> cost/unit)
            req(1, 0, 2, 0.2, 10.0), // below carrying cost
        ];
        let cfg = OfflineConfig { highpri_fraction: 0.0, ..Default::default() };
        let res = region_oracle(&net, &grid, 2, &requests, &cfg).unwrap();
        assert!(res.outcome.delivered[0] > 5.0, "{:?}", res.outcome.delivered);
        assert_eq!(res.outcome.delivered[1], 0.0);
        assert!(res.high > 0.2, "price {}", res.high);
    }
}

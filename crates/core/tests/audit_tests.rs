//! Regression tests for the admission-path accounting bugs the auditor
//! was built to catch, plus full-loop audit-cleanliness checks.
//!
//! The two historical bugs: (1) `accept` on an empty menu booked a
//! contract with `payment = λ = ∞` (the menu's beyond-x̄ fall-through
//! price), and (2) both `accept` and `run_sam` reserved the *clamped*
//! per-path amount but pushed the *unclamped* amount into the contract
//! plan, so `execute_step` billed flow the links never set aside. Debug
//! builds always audit, so every test here sweeps all five invariants at
//! every checkpoint for free.

use std::collections::HashMap;

use pretium_core::{Pretium, PretiumConfig, PriceBump, RequestParams};
use pretium_net::{EdgeId, LinkCost, Network, Region, TimeGrid, Timestep, UsageTracker};
use pretium_workload::RequestId;

fn params(
    id: u64,
    src: u32,
    dst: u32,
    demand: f64,
    start: usize,
    deadline: usize,
) -> RequestParams {
    RequestParams {
        id: RequestId(id),
        src: pretium_net::NodeId(src),
        dst: pretium_net::NodeId(dst),
        demand,
        arrival: start,
        start,
        deadline,
    }
}

/// Single edge A -> B with the given capacity; no high-pri set-aside so
/// tests control saturation exactly.
fn single_edge(capacity: f64) -> Network {
    let mut net = Network::new();
    let a = net.add_node("A", Region::NorthAmerica);
    let b = net.add_node("B", Region::NorthAmerica);
    net.add_edge(a, b, capacity, LinkCost::owned());
    net
}

fn cfg_plain() -> PretiumConfig {
    PretiumConfig {
        highpri_fraction: 0.0,
        bump: PriceBump::disabled(),
        k_paths: 1,
        audit: true,
        ..Default::default()
    }
}

/// Bug (1): once the link is fully sold out, the next quote is an empty
/// menu — accepting off it must be rejected, not booked at an infinite
/// price.
#[test]
fn accept_on_empty_menu_is_rejected() {
    let net = single_edge(10.0);
    let grid = TimeGrid::new(2, 30);
    let mut pretium = Pretium::new(net, grid, 2, cfg_plain());

    // First customer buys every sellable unit (2 steps × 10).
    let p0 = params(0, 0, 1, 20.0, 0, 1);
    let (menu0, id0) = pretium.admit_one(&p0, |_| 20.0);
    assert!((menu0.capacity_bound() - 20.0).abs() < 1e-9);
    assert!(id0.is_some());

    // Second customer: nothing left, so the menu backs zero units.
    let p1 = params(1, 0, 1, 5.0, 0, 1);
    // Even a customer who insists on buying must be turned away — the
    // pre-fix code booked this contract with payment = λ = ∞.
    let (menu1, id1) = pretium.admit_one(&p1, |_| 5.0);
    assert!(menu1.is_empty(), "saturated link must quote an empty menu");
    assert_eq!(menu1.capacity_bound(), 0.0);
    assert!(menu1.price(1.0).is_infinite());
    assert!(id1.is_none());
    assert_eq!(pretium.contracts().len(), 1);
    assert_eq!(pretium.telemetry().accepts_rejected, 1);
    for c in pretium.contracts() {
        assert!(c.payment.is_finite() && c.lambda.is_finite());
    }
    let aud = pretium.auditor().expect("the config asks for auditing");
    assert!(aud.is_clean(), "{:?}", aud.violations());
}

/// Units beyond x̄ are priced by extending the final segment (best
/// effort), never by the infinity fall-through.
#[test]
fn beyond_bound_purchase_pays_finite_best_effort_price() {
    let net = single_edge(10.0);
    let grid = TimeGrid::new(2, 30);
    let mut pretium = Pretium::new(net, grid, 2, cfg_plain());
    let p = params(0, 0, 1, 30.0, 0, 1);
    let (menu, id) = pretium.admit_one(&p, |_| 30.0);
    assert!((menu.capacity_bound() - 20.0).abs() < 1e-9);
    let best_effort = menu.best_effort_price().unwrap();
    let expected = menu.price(20.0) + 10.0 * best_effort;
    let id = id.unwrap();
    let c = pretium.contract(id);
    assert!(c.payment.is_finite());
    assert!((c.payment - expected).abs() < 1e-9, "payment {} != {expected}", c.payment);
    assert!((c.guaranteed - 20.0).abs() < 1e-9);
    assert!(pretium.auditor().unwrap().is_clean());
}

/// Bug (2): under saturation, per-path clamping kicks in — the planned
/// units at every `(edge, timestep)` must equal what was reserved there,
/// at both checkpoints (after accepts and after SAM replans).
#[test]
fn clamped_plans_stay_within_reservations_under_saturation() {
    let net = single_edge(10.0);
    let e = EdgeId(0);
    let grid = TimeGrid::new(4, 30);
    let horizon = 4;
    let mut pretium = Pretium::new(net.clone(), grid, horizon, cfg_plain());
    let mut usage = UsageTracker::new(net.num_edges(), horizon);

    // Three overlapping customers whose demands together exceed the 40
    // sellable units; each accept books against the residual state.
    for (i, demand) in [(0u64, 18.0), (1, 18.0), (2, 18.0)] {
        let p = params(i, 0, 1, demand, 0, 3);
        pretium.admit_one(&p, |menu| menu.optimal_purchase(10.0, demand));
    }
    for t in 0..horizon {
        pretium.run_sam(t, &usage).unwrap();
        pretium.execute_step(t, &mut usage);

        // Recompute plan backing by hand: Σ planned units per (e, t) must
        // fit under the reservations the state actually holds.
        let mut planned: HashMap<Timestep, f64> = HashMap::new();
        for c in pretium.contracts() {
            for &(_, ts, units) in &c.plan {
                *planned.entry(ts).or_insert(0.0) += units;
            }
        }
        for (&ts, &units) in &planned {
            let reserved = pretium.state().reserved(e, ts);
            assert!(
                units <= reserved * (1.0 + 1e-6) + 1e-6,
                "t={t}: planned {units} > reserved {reserved} at ts={ts}"
            );
        }
    }
    assert!(usage.capacity_violations(&net, 1e-6).is_empty());
    let aud = pretium.auditor().unwrap();
    assert!(aud.checks() > 0);
    assert!(aud.is_clean(), "{:?}", aud.violations());
}

/// Property-style replay: the full RA → SAM → execute → PC loop over a
/// randomized-ish request mix stays audit-clean at every checkpoint.
#[test]
fn full_loop_replay_is_audit_clean() {
    let mut net = Network::new();
    let a = net.add_node("A", Region::NorthAmerica);
    let b = net.add_node("B", Region::Europe);
    let c = net.add_node("C", Region::Europe);
    net.add_edge(a, b, 12.0, LinkCost::owned());
    net.add_edge(b, c, 10.0, LinkCost::owned());
    net.add_edge(a, c, 8.0, LinkCost::owned());
    let grid = TimeGrid::new(4, 30);
    let horizon = 12;
    let cfg =
        PretiumConfig { highpri_fraction: 0.05, k_paths: 2, audit: true, ..Default::default() };
    let mut pretium = Pretium::new(net.clone(), grid, horizon, cfg);
    let mut usage = UsageTracker::new(net.num_edges(), horizon);

    // A deterministic pseudo-random mix: varying sizes, values, laxities
    // and endpoints, several arrivals per step.
    let mut admitted = 0usize;
    for t in 0..horizon {
        if grid.step_in_window(t) == 0 && t > 0 {
            pretium.run_pc(t).unwrap();
        }
        for k in 0..2u64 {
            let i = (t as u64) * 2 + k;
            let (src, dst) = match i % 3 {
                0 => (0u32, 2u32),
                1 => (0, 1),
                _ => (1, 2),
            };
            let demand = 4.0 + ((i * 7) % 11) as f64;
            let value = 0.2 + ((i * 13) % 17) as f64 * 0.3;
            let deadline = (t + 1 + (i as usize * 5) % 6).min(horizon - 1);
            let p = params(i, src, dst, demand, t, deadline);
            let (_menu, id) = pretium.admit_one(&p, |menu| menu.optimal_purchase(value, demand));
            if id.is_some() {
                admitted += 1;
            }
        }
        pretium.run_sam(t, &usage).unwrap();
        pretium.execute_step(t, &mut usage);
    }
    assert!(admitted > 0, "the mix must admit someone");
    assert!(usage.capacity_violations(&net, 1e-6).is_empty());
    assert!(pretium.telemetry().pc.calls >= 2);

    let aud = pretium.auditor().expect("the config asks for auditing");
    // Every checkpoint audited: accepts + SAM runs + executed steps + PC.
    assert!(aud.checks() as usize >= horizon);
    assert!(aud.is_clean(), "{:?}", aud.violations());
    let tel = pretium.telemetry();
    assert_eq!(tel.audit_violations, 0);
    assert_eq!(tel.accepts_admitted as usize, admitted);
}

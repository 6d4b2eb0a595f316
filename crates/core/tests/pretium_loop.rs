//! End-to-end tests of the Pretium façade: the Figure 2 worked example and
//! full RA → SAM → execute → PC loops on small networks.

use pretium_core::{Pretium, PretiumConfig, PriceBump, RequestParams};
use pretium_net::{topology, LinkCost, Network, Region, TimeGrid, UsageTracker};
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

/// The paper's Figure 2 example: with the prices the paper derives,
/// Pretium's admission + user responses recover the maximum welfare of 34.
#[test]
fn figure2_example_reaches_welfare_34() {
    let (net, [a, b, c, d]) = topology::paper_example();
    let ab = net.find_edge(a, b).unwrap();
    let ac = net.find_edge(a, c).unwrap();
    let cd = net.find_edge(c, d).unwrap();
    let grid = TimeGrid::new(2, 30);
    let cfg = PretiumConfig {
        highpri_fraction: 0.0,
        bump: PriceBump::disabled(),
        k_paths: 2,
        ..Default::default()
    };
    let mut pretium = Pretium::new(net, grid, 2, cfg);
    // The prices §3.2 says Pretium would set: (A,B) 8 then 4; (C,D) 4 then
    // 1; (A,C) free.
    pretium.set_price(ab, 0, 8.0);
    pretium.set_price(ab, 1, 4.0);
    pretium.set_price(cd, 0, 4.0);
    pretium.set_price(cd, 1, 1.0);
    pretium.set_price(ac, 0, 0.0);
    pretium.set_price(ac, 1, 0.0);

    // Requests in arrival order: (src, dst, value, demand, window).
    let reqs = [
        (a, b, 8.0, 2.0, 0usize, 0usize), // R1: [0,1] = step 0 only
        (a, b, 4.0, 2.0, 0, 1),           // R2: [0,2] = both steps
        (a, d, 4.0, 2.0, 0, 0),           // R3
        (c, d, 1.0, 4.0, 0, 1),           // R4
    ];
    let mut welfare = 0.0;
    for (i, &(src, dst, value, demand, start, deadline)) in reqs.iter().enumerate() {
        let p = RequestParams {
            id: RequestId(i as u64),
            src,
            dst,
            demand,
            arrival: start,
            start,
            deadline,
        };
        let (_menu, id) = pretium.admit_one(&p, |menu| menu.optimal_purchase(value, demand));
        if let Some(id) = id {
            welfare += value * pretium.contract(id).purchased;
        }
    }
    assert!((welfare - 34.0).abs() < 1e-6, "welfare {welfare}");
    // Expected purchases: R1=2, R2=2, R3=2, R4=2.
    let purchases: Vec<f64> = pretium.contracts().iter().map(|c| c.purchased).collect();
    assert_eq!(purchases.len(), 4);
    for (i, &x) in purchases.iter().enumerate() {
        assert!((x - 2.0).abs() < 1e-9, "R{}: {x}", i + 1);
    }
    // R2 must have been deferred to step 1 (cheaper and R1 filled step 0).
    let r2 = &pretium.contracts()[1];
    assert!(r2.plan.iter().all(|&(_, t, _)| t == 1), "{:?}", r2.plan);
}

/// Full loop: requests arrive over two windows; SAM runs each step, PC at
/// the window boundary; all guarantees must be met and prices must rise on
/// the congested link after recomputation.
#[test]
fn full_loop_meets_guarantees_and_adapts_prices() {
    // Single congested edge A -> B.
    let mut net = Network::new();
    let a = net.add_node("A", Region::NorthAmerica);
    let b = net.add_node("B", Region::Europe);
    net.add_edge(a, b, 10.0, LinkCost::owned());
    let e = net.find_edge(a, b).unwrap();
    let grid = TimeGrid::new(4, 30);
    let horizon = 8;
    let cfg = PretiumConfig {
        highpri_fraction: 0.0,
        k_paths: 1,
        price_floor: 0.01,
        audit: true,
        ..Default::default()
    };
    let mut pretium = Pretium::new(net.clone(), grid, horizon, cfg);
    let mut usage = UsageTracker::new(net.num_edges(), horizon);

    // Window 0: heavy demand (3 requests of 35 units each over 4 steps of
    // capacity 10 = 40 sellable units). The first buyer reaches into the
    // bumped price segment (λ = 2× the base price) and demand stays
    // unserved in hindsight, so the capacity duals — and hence the next
    // window's prices — rise above the cold-start floor.
    let mut accepted = Vec::new();
    for t in 0..horizon {
        if grid.step_in_window(t) == 0 && t > 0 {
            pretium.run_pc(t).unwrap();
        }
        if t < 3 {
            let p = params(t as u64, 0, 1, 35.0, t, 3);
            let (_menu, id) = pretium.admit_one(&p, |menu| menu.optimal_purchase(10.0, p.demand));
            if let Some(id) = id {
                accepted.push(id);
            }
        }
        pretium.run_sam(t, &usage).unwrap();
        pretium.execute_step(t, &mut usage);
    }
    // The first two requests exhaust the sellable capacity; the third is
    // priced out / offered x̄ = 0 (admission control at work).
    assert_eq!(accepted.len(), 2);
    for &id in &accepted {
        let c = pretium.contract(id);
        assert!(
            c.guarantee_met(),
            "contract {:?}: delivered {} < guaranteed {}",
            c.params.id,
            c.delivered,
            c.guaranteed
        );
    }
    // No capacity violations on the wire.
    assert!(usage.capacity_violations(&net, 1e-6).is_empty());
    // After PC, prices in window 1 should be above the cold-start floor on
    // the congested edge (its capacity rows were binding in hindsight).
    let p_w1 = pretium.state().price(e, grid.window_start(1));
    assert!(p_w1 > 0.01 + 1e-9, "expected congestion-driven price, got {p_w1}");
    assert_eq!(pretium.pc_runs(), 1);
    // Every checkpoint is audited; the loop must be violation-free.
    let aud = pretium.auditor().unwrap();
    assert!(aud.is_clean(), "{:?}", aud.violations());
}

/// Deferred cheap traffic: a flexible low-value request admitted during a
/// peak is scheduled into the off-peak steps by the menu itself.
#[test]
fn menus_defer_flexible_requests_off_peak() {
    let mut net = Network::new();
    let a = net.add_node("A", Region::NorthAmerica);
    let b = net.add_node("B", Region::NorthAmerica);
    net.add_edge(a, b, 10.0, LinkCost::owned());
    let e = net.find_edge(a, b).unwrap();
    let grid = TimeGrid::new(4, 30);
    let cfg = PretiumConfig {
        highpri_fraction: 0.0,
        bump: PriceBump::disabled(),
        k_paths: 1,
        ..Default::default()
    };
    let mut pretium = Pretium::new(net, grid, 4, cfg);
    // Peak pricing at steps 0-1, cheap at 2-3.
    pretium.set_price(e, 0, 2.0);
    pretium.set_price(e, 1, 2.0);
    pretium.set_price(e, 2, 0.5);
    pretium.set_price(e, 3, 0.5);
    let p = params(0, 0, 1, 15.0, 0, 3);
    // Value 1.0: only the cheap steps (20 units at 0.5) clear the bar.
    let mut units = 0.0;
    let (_menu, id) = pretium.admit_one(&p, |menu| {
        units = menu.optimal_purchase(1.0, p.demand);
        units
    });
    assert!((units - 15.0).abs() < 1e-9);
    let id = id.unwrap();
    let c = pretium.contract(id);
    assert!(
        c.plan.iter().all(|&(_, t, _)| t >= 2),
        "flexible request should ride off-peak: {:?}",
        c.plan
    );
    assert!((c.payment - 15.0 * 0.5).abs() < 1e-9);
    assert!((c.lambda - 0.5).abs() < 1e-12);
}

/// SAM reroutes around an injected capacity loss so guarantees still hold.
#[test]
fn sam_reroutes_after_fault() {
    // Two disjoint 2-hop routes S->T.
    let mut net = Network::new();
    let s = net.add_node("S", Region::NorthAmerica);
    let m1 = net.add_node("M1", Region::NorthAmerica);
    let m2 = net.add_node("M2", Region::NorthAmerica);
    let t = net.add_node("T", Region::NorthAmerica);
    net.add_edge(s, m1, 10.0, LinkCost::owned());
    net.add_edge(m1, t, 10.0, LinkCost::owned());
    net.add_edge(s, m2, 10.0, LinkCost::owned());
    net.add_edge(m2, t, 10.0, LinkCost::owned());
    let sm1 = net.find_edge(s, m1).unwrap();
    let grid = TimeGrid::new(4, 30);
    let cfg =
        PretiumConfig { highpri_fraction: 0.0, k_paths: 2, audit: true, ..Default::default() };
    let mut pretium = Pretium::new(net.clone(), grid, 4, cfg);
    let mut usage = UsageTracker::new(net.num_edges(), 4);
    let p = params(0, 0, 3, 20.0, 0, 3);
    let (_menu, id) = pretium.admit_one(&p, |menu| menu.optimal_purchase(5.0, p.demand));
    let id = id.unwrap();
    assert!((pretium.contract(id).guaranteed - 20.0).abs() < 1e-6);
    // Step 0 executes normally.
    pretium.run_sam(0, &usage).unwrap();
    pretium.execute_step(0, &mut usage);
    // Fault: route via M1 loses 100% capacity for the remaining steps.
    pretium.inject_capacity_loss(sm1, 1, 4, 1.0);
    for now in 1..4 {
        pretium.run_sam(now, &usage).unwrap();
        pretium.execute_step(now, &mut usage);
    }
    let c = pretium.contract(id);
    assert!(c.guarantee_met(), "delivered {} of guaranteed {}", c.delivered, c.guaranteed);
    // Everything after the fault must avoid S->M1.
    for t_ in 1..4 {
        assert!(usage.at(sm1, t_) < 1e-9, "flow on dead link at t={t_}");
    }
    assert!(usage.capacity_violations(&net, 1e-6).is_empty());
    // Rerouting kept the shared state consistent: SAM's replans after the
    // fault must leave no oversubscription or unbacked plan behind.
    let aud = pretium.auditor().unwrap();
    assert!(aud.is_clean(), "{:?}", aud.violations());
}

/// The NoSAM ablation leaves preliminary schedules untouched.
#[test]
fn nosam_keeps_preliminary_plan() {
    let mut net = Network::new();
    let a = net.add_node("A", Region::NorthAmerica);
    let b = net.add_node("B", Region::NorthAmerica);
    net.add_edge(a, b, 10.0, LinkCost::owned());
    let grid = TimeGrid::new(4, 30);
    let cfg = PretiumConfig {
        highpri_fraction: 0.0,
        sam_enabled: false,
        k_paths: 1,
        ..Default::default()
    };
    let mut pretium = Pretium::new(net.clone(), grid, 4, cfg);
    let mut usage = UsageTracker::new(net.num_edges(), 4);
    let p = params(0, 0, 1, 8.0, 0, 3);
    let id = pretium.admit_one(&p, |_| 8.0).1.unwrap();
    let plan_before = pretium.contract(id).plan.clone();
    pretium.run_sam(0, &usage).unwrap();
    assert_eq!(pretium.contract(id).plan, plan_before);
    for t in 0..4 {
        pretium.execute_step(t, &mut usage);
    }
    assert!(pretium.contract(id).completed());
}

/// Accepting more than the guarantee bound yields best-effort extra units.
#[test]
fn purchase_beyond_bound_guarantees_only_xbar() {
    let mut net = Network::new();
    let a = net.add_node("A", Region::NorthAmerica);
    let b = net.add_node("B", Region::NorthAmerica);
    net.add_edge(a, b, 10.0, LinkCost::owned());
    let grid = TimeGrid::new(2, 30);
    let cfg = PretiumConfig {
        highpri_fraction: 0.0,
        bump: PriceBump::disabled(),
        k_paths: 1,
        ..Default::default()
    };
    let mut pretium = Pretium::new(net, grid, 2, cfg);
    let p = params(0, 0, 1, 30.0, 0, 1);
    // Customer insists on 30 units.
    let (menu, id) = pretium.admit_one(&p, |_| 30.0);
    assert!((menu.capacity_bound() - 20.0).abs() < 1e-9);
    let id = id.unwrap();
    let c = pretium.contract(id);
    assert!((c.purchased - 30.0).abs() < 1e-9);
    assert!((c.guaranteed - 20.0).abs() < 1e-9);
}

/// A snapshot superseded while its `Arc` is still held (a pool worker
/// mid-quote) must not lose quote counters: whatever is recorded after the
/// retirement drain flows through the pending sink on `Drop` and lands in
/// telemetry at the next epoch bump.
#[test]
fn superseded_snapshot_quotes_drain_on_drop() {
    let mut net = Network::new();
    let a = net.add_node("A", Region::NorthAmerica);
    let b = net.add_node("B", Region::NorthAmerica);
    let e = net.add_edge(a, b, 10.0, LinkCost::owned());
    let grid = TimeGrid::new(4, 30);
    let cfg = PretiumConfig {
        highpri_fraction: 0.0,
        bump: PriceBump::disabled(),
        k_paths: 1,
        ..Default::default()
    };
    let mut pretium = Pretium::new(net, grid, 4, cfg);
    let snap = pretium.snapshot();
    let p = params(0, 0, 1, 5.0, 0, 3);
    snap.quote(&p);
    // Retire the published snapshot (epoch bump) while we still hold it.
    pretium.set_price(e, 0, 1.0);
    assert_eq!(pretium.telemetry().quote.calls, 1);
    // A worker still quoting against the superseded snapshot.
    snap.quote(&p);
    snap.quote(&p);
    drop(snap);
    // Next epoch bump flushes the pending sink: nothing was lost.
    pretium.set_price(e, 0, 2.0);
    assert_eq!(pretium.telemetry().quote.calls, 3);
}

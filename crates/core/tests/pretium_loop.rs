//! End-to-end tests of the Pretium façade: the Figure 2 worked example and
//! full RA → SAM → execute → PC loops on small networks.

use pretium_core::{
    build_menu, Pretium, PretiumConfig, PriceBump, PriceMenu, RequestParams, Sequencer,
};
use pretium_net::{topology, EdgeId, LinkCost, Network, Region, TimeGrid, UsageTracker};
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

/// A request whose window lies past the horizon (or ends before it
/// starts) used to reach `assert!(start <= deadline)` inside `build_menu`
/// once the deadline had been clamped to `horizon − 1`. It is an empty
/// menu now: counted in `quotes_empty`, rejected by `accept`, on the
/// snapshot path and on the sequencer's live re-quote alike.
#[test]
fn window_past_the_horizon_is_rejected_not_a_panic() {
    let mut net = Network::new();
    let a = net.add_node("A", Region::NorthAmerica);
    let b = net.add_node("B", Region::NorthAmerica);
    let e = net.add_edge(a, b, 10.0, LinkCost::owned());
    let cfg = PretiumConfig { highpri_fraction: 0.0, k_paths: 1, ..Default::default() };
    let mut pretium = Pretium::new(net, TimeGrid::new(4, 30), 4, cfg);
    let windows = [(4, 9), (7, 7), (3, 1), (usize::MAX, usize::MAX)];
    for (i, &(start, deadline)) in windows.iter().enumerate() {
        let p = params(i as u64, 0, 1, 5.0, start, deadline);
        let (menu, id) = pretium.admit_one(&p, |menu| menu.optimal_purchase(100.0, 5.0));
        assert!(menu.is_empty(), "window [{start}, {deadline}]: {menu:?}");
        assert_eq!(id, None);
    }
    assert_eq!(pretium.telemetry().quotes_empty, 4);
    assert_eq!(pretium.telemetry().accepts_rejected, 4);

    // The same window on a stale ticket: the sequencer re-quotes live.
    let p = params(9, 0, 1, 5.0, 6, 8);
    let ticket = pretium.snapshot().ticket(&p);
    pretium.set_price(e, 0, 1.0);
    let mut seq = Sequencer::new(&mut pretium);
    assert_eq!(seq.admit(&ticket, |_| 5.0), None);
    assert_eq!(pretium.telemetry().quotes_requoted, 1);
    assert_eq!(pretium.telemetry().quotes_empty, 6);
    assert!(pretium.contracts().is_empty());
    // A window that merely overhangs the horizon is clipped, not refused.
    let p = params(10, 0, 1, 5.0, 3, 8);
    assert!(pretium.admit_one(&p, |_| 5.0).1.is_some());
}

/// A `respond` callback that answers NaN or +∞ is a purchase with no price.
/// NaN used to pass the zero-units check, reserve the plan's slots and then
/// panic in `PriceMenu::price`; +∞ booked a contract paying `∞`. Both are
/// rejected now like a walk-away: no reservation, no epoch bump, no
/// contract.
#[test]
fn non_finite_purchase_is_rejected() {
    let (net, [a, b, ..]) = topology::paper_example();
    let cfg = PretiumConfig { highpri_fraction: 0.0, ..Default::default() };
    let mut pretium = Pretium::new(net, TimeGrid::new(2, 30), 2, cfg);
    for (i, units) in [f64::NAN, f64::INFINITY].into_iter().enumerate() {
        let p = params(i as u64, a.0, b.0, 2.0, 0, 1);
        let (state, epoch) = (format!("{:?}", pretium.state()), pretium.epoch());
        let (menu, id) = pretium.admit_one(&p, |_| units);
        assert!(!menu.is_empty(), "the A→B route has capacity to sell");
        assert_eq!(id, None, "{units} units were booked");
        assert_eq!(format!("{:?}", pretium.state()), state, "{units} units reserved capacity");
        assert_eq!(pretium.epoch(), epoch, "{units} units bumped the epoch");
    }
    assert!(pretium.contracts().is_empty());
    assert_eq!(pretium.telemetry().accepts_rejected, 2);
    assert_eq!(pretium.telemetry().accepts_admitted, 0);
    // A finite purchase off the same state still books.
    assert!(pretium.admit_one(&params(2, a.0, b.0, 2.0, 0, 1), |_| 2.0).1.is_some());
}

/// Two parallel two-hop routes S→T plus a direct S→T link, two windows of
/// four steps, warmed through window 0 so prices, reservations and a live
/// SAM session all exist when the copy-on-write tests start mutating.
fn warmed_diamond() -> (Pretium, UsageTracker, EdgeId, Vec<RequestParams>) {
    let mut net = Network::new();
    let s = net.add_node("S", Region::NorthAmerica);
    let m = net.add_node("M", Region::NorthAmerica);
    let t = net.add_node("T", Region::Europe);
    let sm = net.add_edge(s, m, 10.0, LinkCost::owned());
    net.add_edge(m, t, 10.0, LinkCost::owned());
    net.add_edge(s, t, 6.0, LinkCost::owned());
    let cfg = PretiumConfig { k_paths: 2, audit: true, ..Default::default() };
    let mut usage = UsageTracker::new(net.num_edges(), 8);
    let mut pretium = Pretium::new(net, TimeGrid::new(4, 30), 8, cfg);
    for now in 0..4 {
        let p = params(now as u64, 0, 2, 25.0, now, 5);
        pretium.admit_one(&p, |menu| menu.optimal_purchase(10.0, p.demand));
        pretium.run_sam(now, &usage).unwrap();
        pretium.execute_step(now, &mut usage);
    }
    // Probes: the whole remaining horizon, one step, and a clipped window.
    let probes = vec![
        params(90, 0, 2, 9.0, 4, 7),
        params(91, 0, 2, 9.0, 6, 6),
        params(92, 1, 2, 9.0, 6, 40),
    ];
    (pretium, usage, sm, probes)
}

/// A snapshot shares the live state by reference, and the system copies
/// before it writes while one is held: across every kind of mutation the
/// held snapshot keeps quoting the pre-mutation menus bit for bit, a fresh
/// snapshot quotes what the live state says, and each held mutation costs
/// exactly one `state_copies`.
#[test]
fn held_snapshot_never_sees_a_mutation() {
    let (mut pretium, usage, sm, probes) = warmed_diamond();
    assert_eq!(pretium.telemetry().state_copies, 0, "warm-up held no snapshot");
    type Mutation = Box<dyn Fn(&mut Pretium, &UsageTracker)>;
    let buyer = params(50, 0, 2, 12.0, 4, 7);
    let mutations: Vec<(&str, bool, Mutation)> = vec![
        (
            "accept",
            true,
            Box::new(move |sys, _| {
                let menu = sys.snapshot().quote(&buyer);
                assert!(sys.accept(&buyer, &menu, 12.0).is_some());
            }),
        ),
        ("run_pc", true, Box::new(|sys, _| sys.run_pc(4).unwrap())),
        ("run_sam", false, Box::new(|sys, usage| sys.run_sam(4, usage).unwrap())),
        ("set_price", true, Box::new(move |sys, _| sys.set_price(sm, 6, 7.5))),
        (
            "inject_capacity_loss",
            true,
            Box::new(move |sys, _| sys.inject_capacity_loss(sm, 4, 7, 0.9)),
        ),
        ("restore_capacity", true, Box::new(move |sys, _| sys.restore_capacity(sm, 4, 7))),
    ];
    for (i, (what, must_change, mutate)) in mutations.iter().enumerate() {
        let held = pretium.snapshot();
        let before: Vec<PriceMenu> = probes.iter().map(|p| held.quote(p)).collect();
        assert!(
            before.iter().any(|m| !m.is_empty()),
            "{what}: probes must price something: {:?}",
            before.iter().map(PriceMenu::capacity_bound).collect::<Vec<_>>()
        );
        let epoch = pretium.epoch();
        mutate(&mut pretium, &usage);
        assert!(pretium.epoch() > epoch, "{what} must bump the epoch");
        assert_eq!(pretium.telemetry().state_copies, i as u64 + 1, "{what}: one copy");

        let after: Vec<PriceMenu> = probes.iter().map(|p| held.quote(p)).collect();
        assert_eq!(after, before, "{what}: a held snapshot saw the mutation");
        let fresh = pretium.snapshot();
        let live: Vec<PriceMenu> = probes
            .iter()
            .map(|p| {
                let paths = pretium.paths_for(p.src, p.dst);
                build_menu(pretium.state(), &paths, p.start, p.deadline)
            })
            .collect();
        let quoted: Vec<PriceMenu> = probes.iter().map(|p| fresh.quote(p)).collect();
        assert_eq!(quoted, live, "{what}: a fresh snapshot quotes the live state");
        if *must_change {
            assert_ne!(quoted, before, "{what} changed nothing a menu could see");
        }
    }
    let aud = pretium.auditor().unwrap();
    assert!(aud.is_clean(), "{:?}", aud.violations());
}

/// With every snapshot dropped before the next mutation — `admit_one`, a
/// sequenced batch, SAM, PC, faults — the state is never copied: the
/// system's own published snapshot is retired by the epoch bump, and the
/// write lands in place.
#[test]
fn serial_walk_never_copies_the_state() {
    let (mut pretium, mut usage, sm, _) = warmed_diamond();
    pretium.run_pc(4).unwrap();
    pretium.inject_capacity_loss(sm, 5, 6, 0.5);
    for now in 4..8 {
        // One batch off one snapshot, dropped before sequencing.
        let batch: Vec<RequestParams> =
            (0..3).map(|i| params(100 + 10 * now as u64 + i, 0, 2, 4.0, now, 7)).collect();
        let snap = pretium.snapshot();
        let tickets: Vec<_> = batch.iter().map(|p| snap.ticket(p)).collect();
        pretium.absorb_quotes(&snap);
        drop(snap);
        let mut seq = Sequencer::new(&mut pretium);
        for ticket in &tickets {
            seq.admit(ticket, |menu| menu.optimal_purchase(10.0, 4.0));
        }
        seq.finish(now, &usage).unwrap();
        pretium.execute_step(now, &mut usage);
    }
    let t = pretium.telemetry();
    assert!(t.accepts_admitted >= 8 && t.quotes_requoted >= 1 && t.snapshots >= 8, "{t:?}");
    assert_eq!(t.state_copies, 0);
}

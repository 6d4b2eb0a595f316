//! Robustness suite for the §4.4 fault model: randomized fault plans must
//! never let a planned allocation exceed *degraded* capacity, and every
//! admitted guarantee must either be met at execution or appear in the
//! violation ledger with a penalty — no silent drops, no panics.

use pretium_core::{ContractId, Pretium, PretiumConfig, PriceBump, RequestParams};
use pretium_net::{EdgeId, LinkCost, Network, Region, TimeGrid, UsageTracker};
use pretium_workload::RequestId;
use rand::rngs::StdRng;
use rand::{derive_seed, Rng, SeedableRng};

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

/// Two disjoint 2-hop routes S -> T (4 edges, capacity 10 each).
fn two_path_net() -> Network {
    let mut net = Network::new();
    let s = net.add_node("S", Region::NorthAmerica);
    let m1 = net.add_node("M1", Region::NorthAmerica);
    let m2 = net.add_node("M2", Region::NorthAmerica);
    let t = net.add_node("T", Region::NorthAmerica);
    net.add_edge(s, m1, 10.0, LinkCost::owned());
    net.add_edge(m1, t, 10.0, LinkCost::owned());
    net.add_edge(s, m2, 10.0, LinkCost::owned());
    net.add_edge(m2, t, 10.0, LinkCost::owned());
    net
}

/// No reservation may exceed the *degraded* sellable capacity of its link —
/// at any timestep, under any fault schedule. Plans are backed by
/// reservations (audited), so this is the "planned allocation respects
/// degraded capacity" property.
fn assert_no_oversubscription(system: &Pretium, when: &str) {
    let state = system.state();
    for e in system.network().edge_ids() {
        for t in 0..state.horizon() {
            let reserved = state.reserved(e, t);
            let sellable = state.sellable_capacity(e, t);
            assert!(
                reserved <= sellable + 1e-6,
                "{when}: edge {e:?} t={t}: reserved {reserved} > degraded sellable {sellable}"
            );
        }
    }
}

/// Property test: randomized requests + randomized fault plans (partial and
/// total outages, random starts and durations, with recoveries). For every
/// trial, every timestep's reservations respect degraded capacity, the run
/// never panics or errors, and at the end each admitted guarantee is met or
/// ledgered — exactly once, with units matching the contract's waiver.
#[test]
fn randomized_fault_plans_degrade_gracefully() {
    let horizon = 8;
    let grid = TimeGrid::new(4, 30);
    for trial in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(derive_seed(rand::DEFAULT_SEED, "fault-prop") ^ trial);
        let net = two_path_net();
        // audit: true — the release-built CI run has no debug-assertions
        // auditor; the invariant sweep this test asserts on must be explicit.
        let cfg =
            PretiumConfig { highpri_fraction: 0.0, k_paths: 2, audit: true, ..Default::default() };
        let mut system = Pretium::new(net.clone(), grid, horizon, cfg);
        let mut usage = UsageTracker::new(net.num_edges(), horizon);

        // Random request stream: arrivals over the first 6 steps.
        let n_req = rng.gen_range(3usize..=6);
        let mut arrivals: Vec<(usize, RequestParams)> = (0..n_req)
            .map(|i| {
                let start = rng.gen_range(0usize..6);
                let deadline = (start + rng.gen_range(1usize..=3)).min(horizon - 1);
                let demand = rng.gen_range(3.0..15.0);
                (start, params(i as u64, 0, 3, demand, start, deadline))
            })
            .collect();
        arrivals.sort_by_key(|(start, p)| (*start, p.id.0));

        // Random fault schedule: 1-2 capacity events with recoveries.
        let n_faults = rng.gen_range(1usize..=2);
        let faults: Vec<(usize, usize, EdgeId, f64)> = (0..n_faults)
            .map(|_| {
                let at = rng.gen_range(1usize..6);
                let until = (at + rng.gen_range(1usize..=3)).min(horizon);
                let edge = EdgeId(rng.gen_range(0u32..net.num_edges() as u32));
                let fraction = if rng.gen_bool(0.5) { 1.0 } else { rng.gen_range(0.3..0.9) };
                (at, until, edge, fraction)
            })
            .collect();

        for now in 0..horizon {
            let mut capacity_event = false;
            for &(at, until, edge, fraction) in &faults {
                if at == now {
                    system.inject_capacity_loss(edge, now, horizon, fraction);
                    capacity_event = true;
                }
                if until == now {
                    system.restore_capacity(edge, now, horizon);
                    capacity_event = true;
                }
            }
            // §4.2: a network event triggers an immediate re-optimization,
            // so admissions never quote against stale reservations.
            if capacity_event {
                system.run_sam(now, &usage).unwrap();
            }
            for (start, p) in &arrivals {
                if *start == now {
                    let value = rng.gen_range(2.0..8.0);
                    system.admit_one(p, |menu| menu.optimal_purchase(value, p.demand));
                }
            }
            system.run_sam(now, &usage).unwrap_or_else(|e| {
                panic!("trial {trial}: SAM must degrade gracefully, got {e:?}")
            });
            assert_no_oversubscription(&system, &format!("trial {trial} after SAM t={now}"));
            system.execute_step(now, &mut usage);
            assert_no_oversubscription(&system, &format!("trial {trial} after exec t={now}"));
        }

        // Ledger accounting: every guarantee met, or waived with matching
        // ledger entries — never silently dropped.
        let ledger = system.ledger();
        for (i, c) in system.contracts().iter().enumerate() {
            if c.guarantee_met() {
                continue;
            }
            assert!(
                c.guarantee_accounted(),
                "trial {trial}: contract {i} silently dropped: delivered {} + waived {} < {}",
                c.delivered,
                c.waived,
                c.guaranteed
            );
            let booked = ledger.waived_units(ContractId(i));
            assert!(
                (booked - c.waived).abs() < 1e-6,
                "trial {trial}: contract {i}: ledger {booked} != waived {}",
                c.waived
            );
            assert!(booked > 0.0, "trial {trial}: missed guarantee with empty ledger");
        }
        // No usage beyond true capacity, and a clean audit trail.
        assert!(usage.capacity_violations(&net, 1e-6).is_empty());
        let aud = system.auditor().expect("debug builds audit");
        assert!(aud.is_clean(), "trial {trial}: {:?}", aud.violations());
    }
}

/// Crafted worst case for the fallback chain (satellite of the §4.4 work):
/// a single-link network where a total outage makes *both* outstanding
/// guarantees uncoverable at once. Rerouting is impossible, so SAM must
/// shed the lowest-λ guarantee wholly, then relax the survivor — in that
/// order — and the pool must never pass through an oversubscribed state.
#[test]
fn infeasible_fallback_sheds_lowest_lambda_then_relaxes() {
    let mut net = Network::new();
    let a = net.add_node("A", Region::NorthAmerica);
    let b = net.add_node("B", Region::NorthAmerica);
    net.add_edge(a, b, 10.0, LinkCost::owned());
    let e = net.find_edge(a, b).unwrap();
    let grid = TimeGrid::new(4, 30);
    let horizon = 4;
    let cfg = PretiumConfig {
        highpri_fraction: 0.0,
        bump: PriceBump::disabled(),
        k_paths: 1,
        // The final audit-clean assertion needs the auditor in release
        // builds too (CI runs this suite --release).
        audit: true,
        ..Default::default()
    };
    let mut system = Pretium::new(net.clone(), grid, horizon, cfg);
    let mut usage = UsageTracker::new(net.num_edges(), horizon);
    // Ascending step prices: the menu fills cheap steps first, so the two
    // buyers end at different marginal prices (λ).
    for t in 0..horizon {
        system.set_price(e, t, 1.0 + t as f64);
    }
    // R0 buys 12: 10 @ step0 + 2 @ step1 -> λ = 2 (the cheap buyer).
    let p0 = params(0, 0, 1, 12.0, 0, 3);
    let r0 = system.admit_one(&p0, |_| 12.0).1.expect("R0 admitted");
    // R1 buys 12: 8 @ step1 + 4 @ step2 -> λ = 3 (values it more).
    let p1 = params(1, 0, 1, 12.0, 0, 3);
    let r1 = system.admit_one(&p1, |_| 12.0).1.expect("R1 admitted");
    let (lam0, lam1) = (system.contract(r0).lambda, system.contract(r1).lambda);
    assert!(lam0 < lam1, "test setup: λ0={lam0} must be below λ1={lam1}");

    // Step 0 executes the accept-time plans as booked (no SAM reshuffle):
    // R0 moves its 10 cheap units.
    system.execute_step(0, &mut usage);
    assert!(system.contract(r0).delivered > 9.0);

    // Total outage for every remaining step: nothing can be rerouted.
    system.inject_capacity_loss(e, 1, horizon, 1.0);
    system.run_sam(1, &usage).expect("fallback must not error");
    assert_no_oversubscription(&system, "after fallback SAM");

    // The chain: R0 (lowest λ) shed first, then R1 relaxed.
    let ledger = system.ledger();
    assert_eq!(ledger.len(), 2, "{:?}", ledger.entries());
    let first = &ledger.entries()[0];
    let second = &ledger.entries()[1];
    assert_eq!(first.contract, r0);
    assert_eq!(first.kind.name(), "shed");
    let c0 = system.contract(r0);
    assert!(
        (first.units - (c0.guaranteed - c0.delivered)).abs() < 1e-6,
        "shed must waive R0's whole outstanding guarantee: {first:?} vs {c0:?}"
    );
    assert!((first.penalty - lam0 * first.units).abs() < 1e-6);
    assert_eq!(second.contract, r1);
    assert_eq!(second.kind.name(), "relaxed");
    assert!((second.units - 12.0).abs() < 1e-6, "R1 had its whole guarantee outstanding");
    assert!((second.penalty - lam1 * second.units).abs() < 1e-6);

    // Finish the run: no panics, promises accounted, audit clean.
    for now in 1..horizon {
        if now > 1 {
            system.run_sam(now, &usage).unwrap();
        }
        system.execute_step(now, &mut usage);
    }
    for &id in &[r0, r1] {
        let c = system.contract(id);
        assert!(!c.guarantee_met(), "{id:?} cannot meet its promise through a dead link");
        assert!(c.guarantee_accounted(), "{id:?}: waiver must cover the shortfall");
    }
    let t = system.telemetry();
    assert_eq!(t.guarantees_shed, 1);
    assert_eq!(t.guarantees_relaxed, 1);
    // One count per degraded step, however many re-solves its waivers took.
    assert!(t.sam_degradations >= 1);
    assert_eq!(t.sam_degradations, t.sam_shortfalls);
    let aud = system.auditor().unwrap();
    assert!(aud.is_clean(), "{:?}", aud.violations());
}

/// Solver iteration-limit pressure: SAM keeps the previous (still feasible)
/// plan instead of erroring when the LP is cut off mid-solve. A zero cap is
/// a cap of one pivot, not the automatic limit.
#[test]
fn solver_pressure_keeps_previous_plan() {
    for limit in [1, 0] {
        let mut net = Network::new();
        let a = net.add_node("A", Region::NorthAmerica);
        let b = net.add_node("B", Region::NorthAmerica);
        net.add_edge(a, b, 10.0, LinkCost::owned());
        let grid = TimeGrid::new(4, 30);
        let horizon = 4;
        // audit: true so the closing audit-clean assertion holds in release.
        let cfg =
            PretiumConfig { highpri_fraction: 0.0, k_paths: 1, audit: true, ..Default::default() };
        let mut system = Pretium::new(net.clone(), grid, horizon, cfg);
        let mut usage = UsageTracker::new(net.num_edges(), horizon);
        let p = params(0, 0, 1, 20.0, 0, 3);
        let id = system.admit_one(&p, |_| 20.0).1.expect("admitted");
        system.execute_step(0, &mut usage);
        let plan_before = system.contract(id).plan.clone();

        // One simplex iteration is never enough for a fresh multi-step solve
        // (the first SAM call builds its session cold).
        system.set_solver_pressure(Some(limit));
        system.run_sam(1, &usage).expect("iteration limit must degrade, not error");
        let kept = system.contract(id).plan == plan_before;
        assert!(kept, "cap {limit}: previous plan kept under pressure");
        assert_eq!(system.telemetry().sam_degradations, 1, "cap {limit}");

        // Pressure lifts; the run completes and the guarantee is met.
        system.set_solver_pressure(None);
        for now in 1..horizon {
            if now > 1 {
                system.run_sam(now, &usage).unwrap();
            }
            system.execute_step(now, &mut usage);
        }
        let c = system.contract(id);
        assert!(c.guarantee_met(), "cap {limit}: delivered {} of {}", c.delivered, c.guaranteed);
        assert!(system.auditor().unwrap().is_clean());
    }
}

/// PC freezes prices for windows contaminated by a fault: the recomputation
/// is skipped and the projected prices stay what they were.
#[test]
fn pc_freezes_prices_after_contaminated_window() {
    let mut net = Network::new();
    let a = net.add_node("A", Region::NorthAmerica);
    let b = net.add_node("B", Region::NorthAmerica);
    net.add_edge(a, b, 10.0, LinkCost::owned());
    let e = net.find_edge(a, b).unwrap();
    let grid = TimeGrid::new(4, 30);
    let horizon = 8;
    let cfg = PretiumConfig { highpri_fraction: 0.0, k_paths: 1, ..Default::default() };
    let mut system = Pretium::new(net.clone(), grid, horizon, cfg);
    let mut usage = UsageTracker::new(net.num_edges(), horizon);
    let p = params(0, 0, 1, 30.0, 0, 3);
    system.admit_one(&p, |menu| menu.optimal_purchase(5.0, p.demand));
    let price_before: Vec<f64> = (4..8).map(|t| system.state().price(e, t)).collect();
    for now in 0..4 {
        if now == 2 {
            // Mid-window blip; recovered by the boundary, but the window's
            // observations are contaminated.
            system.inject_capacity_loss(e, 2, 3, 0.5);
            system.restore_capacity(e, 3, horizon);
        }
        system.run_sam(now, &usage).unwrap();
        system.execute_step(now, &mut usage);
    }
    system.run_pc(4).unwrap();
    assert_eq!(system.telemetry().pc_freezes, 1, "window 0 was contaminated");
    let price_after: Vec<f64> = (4..8).map(|t| system.state().price(e, t)).collect();
    assert_eq!(price_before, price_after, "frozen prices must not move");
}

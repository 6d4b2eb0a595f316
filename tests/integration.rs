//! Cross-crate integration tests: the full pipeline from synthetic world
//! generation through every scheme, with system-level invariants.

use pretium::baselines::{self, OfflineConfig};
use pretium::core::PretiumConfig;
use pretium::sim::{run_pretium, PretiumRun, Scenario, ScenarioConfig, Variant};

fn tiny(seed: u64) -> Scenario {
    ScenarioConfig::tiny(seed).build()
}

/// Full Pretium at the default config, healthy.
fn pretium(sc: &Scenario) -> PretiumRun {
    run_pretium(sc, PretiumConfig::default(), Variant::Full, None, &mut ()).unwrap()
}

#[test]
fn all_schemes_run_and_respect_capacity() {
    let sc = tiny(21);
    let off = OfflineConfig::default();
    let mut outcomes = Vec::new();
    outcomes.push(baselines::opt(&sc.net, &sc.grid, sc.horizon, &sc.requests, &off).unwrap());
    outcomes.push(baselines::no_prices(&sc.net, &sc.grid, sc.horizon, &sc.requests, &off).unwrap());
    outcomes.push(
        baselines::region_oracle(&sc.net, &sc.grid, sc.horizon, &sc.requests, &off)
            .unwrap()
            .outcome,
    );
    let peaks = baselines::peak_steps_from_trace(&sc.trace, &sc.grid);
    outcomes.push(
        baselines::peak_oracle(&sc.net, &sc.grid, sc.horizon, &sc.requests, &peaks, &off)
            .unwrap()
            .outcome,
    );
    outcomes.push(baselines::vcg_like(&sc.net, sc.horizon, &sc.requests, &off).unwrap());
    outcomes.push(pretium(&sc).outcome);
    for o in &outcomes {
        let violations = o.usage.capacity_violations(&sc.net, 1e-4);
        assert!(violations.is_empty(), "{}: {violations:?}", o.scheme);
        for (r, &d) in sc.requests.iter().zip(&o.delivered) {
            assert!(
                d <= r.demand * (1.0 + 1e-6),
                "{}: over-delivered {:?}: {d} > {}",
                o.scheme,
                r.id,
                r.demand
            );
        }
    }
}

#[test]
fn opt_dominates_every_scheme_in_proxy_terms() {
    // OPT maximizes the linearized objective with oracle values; it must
    // (weakly) dominate every other scheme's realized welfare up to the
    // proxy/true-cost gap. Allow a small slack for that gap.
    let sc = tiny(22);
    let off = OfflineConfig::default();
    let w = |o: &baselines::Outcome| o.welfare(&sc.requests, &sc.net, &sc.grid, 1.0);
    let opt = baselines::opt(&sc.net, &sc.grid, sc.horizon, &sc.requests, &off).unwrap();
    let opt_w = w(&opt);
    let others = [
        w(&baselines::no_prices(&sc.net, &sc.grid, sc.horizon, &sc.requests, &off).unwrap()),
        w(&pretium(&sc).outcome),
        w(&baselines::vcg_like(&sc.net, sc.horizon, &sc.requests, &off).unwrap()),
    ];
    for (i, &ow) in others.iter().enumerate() {
        assert!(ow <= opt_w * 1.02 + 1.0, "scheme {i} beat OPT: {ow} > {opt_w}");
    }
}

#[test]
fn pretium_profit_exceeds_vcg_profit() {
    // The qualitative Figure 8 ordering on a congested scenario: VCG's
    // myopic cost-blind market yields the worst profit.
    let mut cfg = ScenarioConfig::tiny(23);
    cfg.load_factor = 3.0;
    let sc = cfg.build();
    let off = OfflineConfig::default();
    let pretium = pretium(&sc);
    let vcg = baselines::vcg_like(&sc.net, sc.horizon, &sc.requests, &off).unwrap();
    let p_profit = pretium.outcome.profit(&sc.net, &sc.grid, 1.0);
    let v_profit = vcg.profit(&sc.net, &sc.grid, 1.0);
    assert!(p_profit > v_profit, "Pretium profit {p_profit} should exceed VCGLike {v_profit}");
}

#[test]
fn deterministic_end_to_end() {
    let a = pretium(&tiny(24));
    let b = pretium(&tiny(24));
    assert_eq!(a.outcome.delivered, b.outcome.delivered);
    assert_eq!(a.outcome.payments, b.outcome.payments);
}

#[test]
fn guarantees_hold_under_injected_faults() {
    use pretium::core::{Pretium, RequestParams};
    use pretium::net::UsageTracker;
    let sc = tiny(25);
    let mut system = Pretium::new(sc.net.clone(), sc.grid, sc.horizon, PretiumConfig::default());
    let mut usage = UsageTracker::new(sc.net.num_edges(), sc.horizon);
    let mut admitted = Vec::new();
    let mut next = 0;
    for t in 0..sc.horizon {
        while next < sc.requests.len() && sc.requests[next].arrival == t {
            let r = &sc.requests[next];
            let params = RequestParams::from(r);
            let (_menu, id) =
                system.admit_one(&params, |menu| menu.optimal_purchase(r.value, r.demand));
            if let Some(id) = id {
                admitted.push(id);
            }
            next += 1;
        }
        if t == sc.horizon / 3 {
            // Fail a link mid-run.
            let e = sc.net.edge_ids().next().unwrap();
            system.inject_capacity_loss(e, t, sc.horizon, 1.0);
        }
        system.run_sam(t, &usage).unwrap();
        system.execute_step(t, &mut usage);
    }
    // The vast majority of guarantees must survive a single link failure
    // (SAM reroutes; only transfers with no alternative path can miss).
    let met = admitted.iter().filter(|&&id| system.contract(id).guarantee_met()).count();
    assert!(
        met * 10 >= admitted.len() * 9,
        "only {met}/{} guarantees met after fault",
        admitted.len()
    );
    assert!(usage.capacity_violations(&sc.net, 1e-4).is_empty());
}

#[test]
fn audited_replay_is_clean_across_seeds() {
    // Property-style: full warm-started replays over several generated
    // worlds must sweep every module checkpoint without one invariant
    // violation (oversubscription, unbacked plans, non-finite money,
    // sub-floor prices, uncovered guarantees).
    for seed in [3u64, 21, 77] {
        let sc = tiny(seed);
        let cfg = PretiumConfig { audit: true, ..Default::default() };
        for variant in [Variant::Full, Variant::NoSam] {
            let run = run_pretium(&sc, cfg.clone(), variant, None, &mut ()).unwrap();
            let aud = run.system.auditor().expect("auditing enabled via config");
            assert!(aud.checks() > 0, "seed {seed} {variant:?}: auditor never ran");
            assert!(aud.is_clean(), "seed {seed} {variant:?}: {:?}", aud.violations());
            assert_eq!(run.system.telemetry().audit_violations, 0);
        }
    }
}

#[test]
fn lp_and_scheduling_agree_on_simple_instance() {
    // Schedule a single job via the high-level API and via a hand-built LP;
    // both must yield the same optimum.
    use pretium::core::{schedule, Job, ScheduleProblem, TopkEncoding};
    use pretium::lp::{Cmp, LinExpr, Model, Sense, SolveOptions};
    use pretium::net::{LinkCost, Network, Path, Region, TimeGrid};

    let mut net = Network::new();
    let a = net.add_node("A", Region::NorthAmerica);
    let b = net.add_node("B", Region::NorthAmerica);
    let e = net.add_edge(a, b, 7.0, LinkCost::owned());
    let grid = TimeGrid::new(4, 30);
    let jobs = vec![Job::new(0, vec![Path::new(&net, vec![e])], 0, 2, 2.0, 0.0, 30.0)];
    let cap = |_e: pretium::net::EdgeId, _t: usize| 7.0;
    let zero = |_e: pretium::net::EdgeId, _t: usize| 0.0;
    let problem = ScheduleProblem {
        net: &net,
        grid: &grid,
        from: 0,
        to: 4,
        jobs: &jobs,
        capacity: &cap,
        realized: &zero,
        topk: TopkEncoding::CVar,
        cost_scale: 1.0,
    };
    let sol = schedule::solve(&problem, &SolveOptions::default()).unwrap();

    // Hand-built: max 2(x0+x1+x2), x_t <= 7, sum <= 30.
    let mut m = Model::new(Sense::Maximize);
    let xs: Vec<_> = (0..3).map(|t| m.add_var(&format!("x{t}"), 0.0, 7.0, 2.0)).collect();
    let total = LinExpr::from_terms(xs.iter().map(|&x| (1.0, x)));
    m.add_row("demand", total, Cmp::Le, 30.0);
    let hand = m.solve().unwrap();
    assert!((sol.objective - hand.objective()).abs() < 1e-6);
    assert!((sol.delivered[0] - 21.0).abs() < 1e-6);
}

#[test]
fn warm_dual_restart_matches_a_cold_solve() {
    // A capacity row tightens under an optimal schedule: the session repairs
    // the old basis with the dual simplex, and must land on the optimum — and
    // the prices — a solve from scratch finds.
    use pretium::lp::{Cmp, LinExpr, Model, Restart, Sense, SolveOptions, SolverSession};

    let mut m = Model::new(Sense::Maximize);
    let value = [3.0, 2.0, 1.0];
    let xs: Vec<Vec<_>> = (0..3)
        .map(|j| (0..4).map(|t| m.add_var(&format!("x{j}_{t}"), 0.0, 5.0, value[j])).collect())
        .collect();
    for (j, row) in xs.iter().enumerate() {
        let total = LinExpr::from_terms(row.iter().map(|&x| (1.0, x)));
        m.add_row(&format!("demand{j}"), total, Cmp::Le, 8.0);
    }
    let caps: Vec<_> = (0..4)
        .map(|t| {
            let load = LinExpr::from_terms(xs.iter().map(|row| (1.0, row[t])));
            m.add_row(&format!("cap{t}"), load, Cmp::Le, 6.0)
        })
        .collect();
    let mut session = SolverSession::new(m);
    session.solve(&SolveOptions::default()).unwrap();
    session.model_mut().set_rhs(caps[0], 2.0);
    session.model_mut().set_rhs(caps[2], 3.5);
    let warm = session.solve(&SolveOptions::default()).unwrap().clone();
    assert_eq!(session.last_restart(), Some(Restart::WarmDual));
    assert!(warm.stats().dual_iterations > 0);
    let cold = session.model().solve().unwrap();
    assert!((warm.objective() - cold.objective()).abs() < 1e-9);
    for (w, c) in warm.duals().iter().zip(cold.duals()) {
        assert!((w - c).abs() < 1e-9, "duals {:?} vs {:?}", warm.duals(), cold.duals());
    }
}

#[test]
fn sequenced_tickets_match_live_quotes_and_refuse_windows_past_the_horizon() {
    // The admission hot path end to end (DESIGN.md §22): three tickets off
    // one snapshot — two rivals for the same slots and one whose window
    // lies past the horizon — sequenced while the snapshot is still held,
    // against a second system that quotes each request live (`admit_one`).
    use pretium::core::{Pretium, RequestParams, Sequencer};
    use pretium::workload::RequestId;

    let sc = tiny(21);
    let fresh = || Pretium::new(sc.net.clone(), sc.grid, sc.horizon, PretiumConfig::default());
    let first = RequestParams::from(&sc.requests[0]);
    let rival = RequestParams { id: RequestId(9_001), ..first.clone() };
    let late = RequestParams {
        id: RequestId(9_002),
        start: sc.horizon + 3,
        deadline: sc.horizon + 9,
        ..first.clone()
    };
    let batch = [first, rival, late];
    let buy =
        |menu: &pretium::core::PriceMenu, p: &RequestParams| menu.optimal_purchase(1e3, p.demand);

    let mut system = fresh();
    let snap = system.snapshot();
    let tickets = batch.each_ref().map(|p| snap.ticket(p));
    let mut shown = Vec::new();
    let mut seq = Sequencer::new(&mut system);
    let ids = tickets.each_ref().map(|t| {
        seq.admit(t, |menu| {
            shown.push(menu.clone());
            buy(menu, &t.params)
        })
    });

    let mut live = fresh();
    for ((p, menu), id) in batch.iter().zip(&shown).zip(ids) {
        let (quoted, live_id) = live.admit_one(p, |menu| buy(menu, p));
        assert_eq!(&quoted, menu, "{:?} was shown a menu the live state would not quote", p.id);
        assert_eq!(live_id, id);
    }
    assert!(ids[0].is_some() && ids[1].is_some());
    assert_eq!(shown[0], tickets[0].menu, "a fresh ticket keeps its snapshot menu");
    assert_ne!(shown[1], tickets[1].menu, "the rival's slots were taken: re-quoted live");
    assert!(shown[2].is_empty() && ids[2].is_none(), "a window past the horizon buys nothing");
    let t = system.telemetry();
    assert_eq!((t.quotes_requoted, t.quotes_empty, t.accepts_rejected), (1, 1, 1));
    // The snapshot was held across both accepts: the first one copied the
    // state instead of writing under it, the second found it unshared.
    assert_eq!(t.state_copies, 1);
    assert_eq!(snap.quote(&batch[0]), tickets[0].menu);
    assert_eq!(live.telemetry().state_copies, 0);
}

/// Bits of `(welfare, Σ payments, Σ delivered)` for OPT, NoPrices,
/// RegionOracle and PeakOracle, then RegionOracle's `(intra, inter)` and
/// PeakOracle's `(off-peak, peak)` prices.
fn baseline_bits(sc: &pretium::sim::Scenario) -> ([[u64; 3]; 4], [u64; 4]) {
    let off = OfflineConfig::default();
    let bits = |o: &baselines::Outcome| {
        [
            o.welfare(&sc.requests, &sc.net, &sc.grid, 1.0).to_bits(),
            o.payments.iter().sum::<f64>().to_bits(),
            o.delivered.iter().sum::<f64>().to_bits(),
        ]
    };
    let opt = baselines::opt(&sc.net, &sc.grid, sc.horizon, &sc.requests, &off).unwrap();
    let none = baselines::no_prices(&sc.net, &sc.grid, sc.horizon, &sc.requests, &off).unwrap();
    let region =
        baselines::region_oracle(&sc.net, &sc.grid, sc.horizon, &sc.requests, &off).unwrap();
    let peaks = baselines::peak_steps_from_trace(&sc.trace, &sc.grid);
    let peak =
        baselines::peak_oracle(&sc.net, &sc.grid, sc.horizon, &sc.requests, &peaks, &off).unwrap();
    let prices = [region.low, region.high, peak.low, peak.high];
    (
        [bits(&opt), bits(&none), bits(&region.outcome), bits(&peak.outcome)],
        prices.map(f64::to_bits),
    )
}

#[test]
fn baseline_numbers_are_pinned_on_generated_worlds() {
    // The offline baselines and both oracles' hindsight price choice, bit
    // for bit. A change to the offline solve, the price grid or the oracle
    // search moves these on purpose. `tiny(7)` is uncongested on free
    // links (every scheme serves everything at price 0); the congested
    // variant, with half its links percentile-billed, separates all four.
    let free = [0x4071655858b9a680, 0x0, 0x406cc98dc9e09d9a];
    assert_eq!(baseline_bits(&tiny(7)), ([free; 4], [0; 4]));

    let mut cfg = pretium::sim::ScenarioConfig::tiny(7);
    cfg.load_factor = 3.0;
    cfg.topology.intra_capacity = 20.0;
    cfg.topology.inter_capacity = 10.0;
    cfg.topology.percentile_fraction = 0.5;
    cfg.topology.percentile_unit_cost = 2.0;
    let price = 0x3fedfd5bbef6a18a; // 0.937…, a value-quantile candidate
    assert_eq!(
        baseline_bits(&cfg.build()),
        (
            [
                [0x4082cf10758a3dbc, 0x0, 0x4082dba58f32f77f],
                [0x4081954f7e69eae4, 0x0, 0x408371e7c8e8290f],
                [0x4081993a2a30f544, 0x407aac6b1aad3d3c, 0x40801fcfe2e4d097],
                [0x4081f00618673340, 0x406cbe46752d8466, 0x4082db3d73baa976],
            ],
            [0, price, 0, price],
        )
    );
}

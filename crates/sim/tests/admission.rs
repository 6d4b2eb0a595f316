//! The snapshot/sequencer admission contract:
//!
//! 1. Quoting off an [`AdmissionSnapshot`] is a pure read — a parallel
//!    fan-out over the worker pool (`run_cells` over the requests) returns
//!    bit-identical menus to a serial walk of the same snapshot.
//! 2. Admission through the [`Sequencer`] is the serial quote→accept
//!    interleaving: a batch quoted off one snapshot and then sequenced
//!    (under a surge plan that makes batches wide enough to collide, so
//!    stale tickets are re-quoted) books the contract stream that one
//!    `admit_one` per request books.
//!
//! `tests/determinism.rs` covers the cross-`--jobs` experiment engine;
//! this file covers the admission layer underneath it.

use pretium_core::{Pretium, PretiumConfig, RequestParams};
use pretium_net::UsageTracker;
use pretium_sim::par::run_cells;
use pretium_sim::{replay, run_pretium, FaultPlan, FaultPlanConfig, ScenarioConfig, Variant};
use std::sync::Arc;

/// Pooled quotes off one snapshot are bit-identical to serial quotes off
/// the same snapshot (and the snapshot's state is untouched by quoting).
#[test]
fn parallel_snapshot_quotes_match_serial_bit_for_bit() {
    let sc = ScenarioConfig::tiny(7).build();
    // Warm a system to mid-run state so prices/reservations are non-trivial.
    let run = run_pretium(&sc, PretiumConfig::default(), Variant::Full, None, &mut ()).unwrap();
    let mut system = run.system;
    let snap = system.snapshot();

    let params: Vec<RequestParams> = sc.requests.iter().map(RequestParams::from).collect();
    let serial: Vec<_> = params.iter().map(|p| snap.quote(p)).collect();

    let (pooled, _telemetry) =
        run_cells(8, &params, |p| format!("quote/{:?}", p.id), |p| snap.ticket(p));

    assert_eq!(pooled.len(), serial.len());
    for (ticket, menu) in pooled.iter().zip(&serial) {
        assert_eq!(&ticket.menu, menu, "pooled quote diverged for {:?}", ticket.params.id);
        assert_eq!(ticket.epoch, snap.epoch());
    }
}

/// A mutation (an accept) bumps the epoch, and the next snapshot sees it.
#[test]
fn snapshots_are_republished_per_epoch() {
    let sc = ScenarioConfig::tiny(9).build();
    let run = run_pretium(&sc, PretiumConfig::default(), Variant::Full, None, &mut ()).unwrap();
    let mut system = run.system;
    let before = system.epoch();
    let s1 = system.snapshot();
    // Unchanged epoch: the published snapshot is reused, not recloned.
    let s2 = system.snapshot();
    assert!(Arc::ptr_eq(&s1, &s2));

    let p = RequestParams::from(&sc.requests[0]);
    system.admit_one(&p, |menu| menu.optimal_purchase(5.0, p.demand));
    assert!(system.epoch() > before, "an accept must bump the epoch");
    let s3 = system.snapshot();
    assert!(!Arc::ptr_eq(&s1, &s3), "a new epoch publishes a fresh snapshot");
}

/// What the sequencer promises: quoting a whole batch off one snapshot and
/// admitting it in order books exactly what quoting each request against
/// the live state just before its own accept books. The reference loop
/// below is the runner's step loop with `admit_one` per request in place
/// of the batch.
#[test]
fn sequenced_batch_equals_interleaved_admit_one_walk() {
    for seed in [13u64, 7, 21] {
        let sc = ScenarioConfig::tiny(seed).build();
        // A surge every window, several requests per surge: admission
        // batches get wide enough that tickets genuinely collide on slots
        // and the sequencer's re-quote path is exercised.
        let plan = FaultPlan::for_scenario(&sc, &FaultPlanConfig::surge(99, 6));
        let cfg = PretiumConfig { audit: true, ..Default::default() };
        let batched = replay(&sc, cfg.clone(), Variant::Full, None, Some(&plan), &mut ()).unwrap();

        let mut system = Pretium::new(sc.net.clone(), sc.grid, sc.horizon, cfg);
        let mut usage = UsageTracker::new(sc.net.num_edges(), sc.horizon);
        let mut next_req = 0;
        for t in 0..sc.horizon {
            plan.apply_step(&mut system, t);
            if plan.capacity_event_at(t) {
                system.run_sam(t, &usage).unwrap();
            }
            if sc.grid.step_in_window(t) == 0 && t > 0 {
                system.run_pc(t).unwrap();
            }
            let arrivals = sc.requests[next_req..].iter().take_while(|r| r.arrival == t).count();
            let batch = &sc.requests[next_req..next_req + arrivals];
            next_req += arrivals;
            for r in batch.iter().chain(plan.surges_at(t)) {
                system.admit_one(&RequestParams::from(r), |menu| {
                    menu.optimal_purchase(r.value, r.demand)
                });
            }
            system.run_sam(t, &usage).unwrap();
            system.execute_step(t, &mut usage);
        }

        let stream = |s: &Pretium| -> Vec<(u64, u64, u64, u64)> {
            s.contracts()
                .iter()
                .map(|c| {
                    (
                        c.params.id.0,
                        c.purchased.to_bits(),
                        c.payment.to_bits(),
                        c.delivered.to_bits(),
                    )
                })
                .collect()
        };
        assert!(!batched.system.contracts().is_empty(), "seed {seed}: nothing admitted");
        assert_eq!(stream(&batched.system), stream(&system), "seed {seed}: contract stream");
        // The surge plan did its job: batches were wide enough to make at
        // least one snapshot ticket stale (the re-quote path actually ran).
        assert!(
            batched.system.telemetry().quotes_requoted > 0,
            "seed {seed}: surge batches never collided — widen them"
        );
        for (label, s) in [("batched", &batched.system), ("interleaved", &system)] {
            let aud = s.auditor().expect("cfg.audit = true");
            assert!(aud.is_clean(), "seed {seed} {label}: {:?}", aud.violations());
        }
    }
}

/// The registry's surge cell renders identically at pool jobs 1 vs 8: the
/// cell is a pure function of its spec like every other experiment.
#[test]
fn surge_experiment_is_bit_identical_across_job_counts() {
    use pretium_sim::registry::{registry_at, run_experiments, Scale};
    let pick = |jobs: usize| {
        let exps: Vec<_> =
            registry_at(Scale::Tiny).into_iter().filter(|e| e.name() == "surge").collect();
        let (results, _) = run_experiments(&exps, rand::DEFAULT_SEED, jobs).unwrap();
        results.into_iter().map(|(name, res)| (name, format!("{res:?}"))).collect::<Vec<_>>()
    };
    let serial = pick(1);
    let pooled = pick(8);
    assert_eq!(serial, pooled);
    assert_eq!(serial.len(), 1);
}

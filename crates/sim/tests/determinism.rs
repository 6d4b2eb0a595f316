//! Determinism contract of the parallel evaluation engine.
//!
//! Cell results are pure functions of the cell spec (config + derived
//! seed); the worker count only changes wall-clock. These tests pin that
//! contract: running the same experiment serially, with `--jobs 1`, and
//! with `--jobs 8` must produce bit-identical outputs.

use pretium_core::PretiumConfig;
use pretium_sim::registry::{registry_at, run_cell, run_experiments, Scale};
use pretium_sim::{run_pretium, ScenarioConfig, Variant};

#[test]
fn registry_experiments_are_bit_identical_across_job_counts() {
    // Two sweep experiments — a relative-welfare figure and the value
    // distribution table — and the two text cells that solve every §6.1
    // scheme on one world (Figures 7 and 10), exercised through the same
    // registry path `reproduce` uses, at tiny scale so debug-mode test time
    // stays low.
    let wanted = ["fig6", "fig7", "fig10", "fig13"];
    let selected: Vec<_> =
        registry_at(Scale::Tiny).into_iter().filter(|e| wanted.contains(&e.name())).collect();
    assert_eq!(selected.len(), wanted.len(), "expected every selected registry experiment");

    let (one, _) = run_experiments(&selected, rand::DEFAULT_SEED, 1).expect("jobs=1 run");
    let (eight, _) = run_experiments(&selected, rand::DEFAULT_SEED, 8).expect("jobs=8 run");
    assert_eq!(one.len(), wanted.len());
    for ((name_a, res_a), (name_b, res_b)) in one.iter().zip(eight.iter()) {
        assert_eq!(name_a, name_b);
        assert_eq!(res_a, res_b, "experiment `{name_a}` diverged between jobs=1 and jobs=8");
        assert_eq!(res_a.render(), res_b.render());
    }
}

#[test]
fn faulted_robustness_cells_are_bit_identical_across_job_counts() {
    // The availability sweep injects faults mid-run (capacity loss, surge
    // admissions, SAM fallback waivers, PC freezes) — every one of those
    // paths must stay a pure function of the cell spec. A serial run and
    // pooled runs at 1 and 8 workers must agree bitwise.
    let selected: Vec<_> =
        registry_at(Scale::Tiny).into_iter().filter(|e| e.name() == "robustness").collect();
    assert_eq!(selected.len(), 1, "robustness experiment registered");
    let exp = &selected[0];

    // Serial: run the cells inline, no worker pool at all.
    let cells = exp.cells(rand::DEFAULT_SEED);
    let serial_outs: Vec<_> = cells.iter().map(|c| run_cell(c).expect("serial cell")).collect();
    let serial = exp.merge(&cells, serial_outs);

    let (one, _) = run_experiments(&selected, rand::DEFAULT_SEED, 1).expect("jobs=1 run");
    let (eight, _) = run_experiments(&selected, rand::DEFAULT_SEED, 8).expect("jobs=8 run");
    assert_eq!(one.len(), 1);
    assert_eq!(one[0].1, serial, "jobs=1 diverged from serial");
    assert_eq!(eight[0].1, serial, "jobs=8 diverged from serial");
    assert_eq!(one[0].1.render(), serial.render());

    // The faulted points must actually differ from the healthy baseline —
    // otherwise this test pins a no-op.
    let series = serial.series().expect("robustness is a figure");
    let welfare = &series[0].points;
    assert!(
        welfare[1..].iter().any(|&(_, y)| (y - 1.0).abs() > 1e-12),
        "fault injection changed nothing: {welfare:?}"
    );
}

/// Evaluation-scale bitwise guard (slow; run with `--ignored --release`).
///
/// This caught a real bug during development: `std`'s per-thread
/// `RandomState` made hash-map iteration order — and through it LP row
/// construction and float accumulation — depend on which worker a cell
/// landed on, producing ULP-level divergence between job counts. All
/// workspace maps on the numeric path now use `rand::DetHashMap`.
#[test]
#[ignore = "evaluation-scale; seconds in release, minutes in debug"]
fn evaluation_scale_fig6_is_bit_identical_across_job_counts() {
    let fig6: Vec<_> =
        registry_at(Scale::Evaluation).into_iter().filter(|e| e.name() == "fig6").collect();
    let (one, _) = run_experiments(&fig6, rand::DEFAULT_SEED, 1).expect("jobs=1 run");
    let (four, _) = run_experiments(&fig6, rand::DEFAULT_SEED, 4).expect("jobs=4 run");
    assert_eq!(one, four);
}

#[test]
fn pricing_jobs_is_inert() {
    // `pricing_jobs` is kept only as a benchmark pin: pricing is serial
    // whatever it says (DESIGN.md §19). Any value must reproduce the same
    // run bit for bit, with the same LP counters, and the parallel-pricing
    // counters must stay at 0. The scenario is widened past the tiny one
    // (longer windows, denser demand).
    let mut wide = ScenarioConfig::tiny(rand::DEFAULT_SEED);
    wide.steps_per_window = 16;
    wide.traffic.pair_activity = 0.5;
    wide.requests.requests_per_pair_window = 3.0;
    wide.requests.max_window = 12;
    let sc = wide.build();
    let mk = |pricing_jobs: usize| {
        let cfg = PretiumConfig { pricing_jobs, ..PretiumConfig::default() };
        run_pretium(&sc, cfg, Variant::Full).expect("pricing_jobs run")
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    let one = mk(1);
    let eight = mk(8);
    assert_eq!(
        bits(&one.outcome.delivered),
        bits(&eight.outcome.delivered),
        "deliveries diverged between pricing_jobs=1 and pricing_jobs=8"
    );
    assert_eq!(bits(&one.outcome.payments), bits(&eight.outcome.payments));
    assert_eq!(one.outcome.admitted, eight.outcome.admitted);
    assert_eq!(one.lp_stats, eight.lp_stats, "LP counters diverged between job counts");
    for (jobs, run) in [(1, &one), (8, &eight)] {
        let st = &run.lp_stats;
        let par = (st.pricing_par_sections, st.pricing_par_steals, st.pricing_par_nanos);
        assert_eq!(par, (0, 0, 0), "pricing_jobs={jobs} opened sections: {st:?}");
    }
}

#[test]
fn sparse_lu_cadence_is_deterministic_and_tolerance_bounded() {
    // The sparse-LU kernel's refactor cadence (`max_etas`) changes which
    // floating-point path each solve takes, so two contracts apply:
    //
    // 1. **Within a cadence**: two runs agree bitwise, including the
    //    factorization counters (refactors, FT updates, fill-in nnz).
    // 2. **Across cadences**: objectives are NOT bit-identical (different
    //    roundoff), but every delivered/payment total must agree within
    //    `CADENCE_TOL = 1e-6` relative — the solver certifies optima to
    //    `opt_tol = 1e-8` on O(1)-scaled reduced costs, and tiny-scenario
    //    totals are O(100), so 1e-6 relative bounds the optimum gap with
    //    margin. A violation means a cadence-dependent *logic* change, not
    //    roundoff.
    const CADENCE_TOL: f64 = 1e-6;
    let sc = ScenarioConfig::tiny(rand::DEFAULT_SEED).build();
    let mk = |max_etas: usize| {
        let cfg = PretiumConfig { max_etas, ..PretiumConfig::default() };
        run_pretium(&sc, cfg, Variant::Full).expect("sparse-lu run")
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();

    // Contract 1: bitwise across runs, per cadence.
    let mut per_cadence = Vec::new();
    for &max_etas in &[1usize, 8, 0] {
        let first = mk(max_etas);
        let second = mk(max_etas);
        assert_eq!(
            bits(&first.outcome.delivered),
            bits(&second.outcome.delivered),
            "deliveries diverged across runs at max_etas={max_etas}"
        );
        assert_eq!(bits(&first.outcome.payments), bits(&second.outcome.payments));
        assert_eq!(first.outcome.admitted, second.outcome.admitted);
        assert_eq!(first.lp_stats, second.lp_stats, "factor counters diverged at {max_etas}");
        per_cadence.push((max_etas, first));
    }

    // The cadences genuinely differ in kernel behavior (else this test
    // pins three identical runs): tighter cadence ⇒ at least as many
    // refactorizations, and the default accumulates real FT updates.
    let stats = |i: usize| per_cadence[i].1.lp_stats;
    assert!(
        stats(0).refactors > stats(2).refactors,
        "max_etas=1 should refactorize more than the default: {:?} vs {:?}",
        stats(0),
        stats(2)
    );
    assert!(stats(2).ft_updates > 0, "default cadence applied no FT updates");
    assert!(stats(2).refactors > 0 && stats(2).factor_nnz >= stats(2).basis_nnz);

    // Contract 2: across cadences, totals agree to CADENCE_TOL relative.
    let (_, base) = &per_cadence[2];
    for (max_etas, run) in &per_cadence[..2] {
        for (d, b) in run.outcome.delivered.iter().zip(&base.outcome.delivered) {
            assert!(
                (d - b).abs() <= CADENCE_TOL * (1.0 + b.abs()),
                "delivery gap {} at max_etas={max_etas}",
                (d - b).abs()
            );
        }
        for (p, b) in run.outcome.payments.iter().zip(&base.outcome.payments) {
            assert!(
                (p - b).abs() <= CADENCE_TOL * (1.0 + b.abs()),
                "payment gap {} at max_etas={max_etas}",
                (p - b).abs()
            );
        }
        assert_eq!(run.outcome.admitted, base.outcome.admitted, "admissions flipped");
    }
}

#[test]
fn reseeding_changes_the_world_but_stays_deterministic() {
    // Guard against the engine accidentally hashing worker identity or
    // completion order into the seed: a different run seed must change
    // results, while the same seed must reproduce them exactly.
    let fig10: Vec<_> =
        registry_at(Scale::Tiny).into_iter().filter(|e| e.name() == "fig10").collect();
    let run = |seed| run_experiments(&fig10, seed, 8).expect("fig10 run").0;
    let (a, b, c) = (run(7), run(7), run(11));
    assert_eq!(a, b);
    assert_ne!(a, c);
}

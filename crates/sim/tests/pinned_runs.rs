//! Pretium's replays pinned to recorded values, bit for bit.
//!
//! `determinism.rs` compares a run with itself; this file compares runs
//! with what they produced when the pins were recorded. A refactor that
//! claims to be bit-identical must leave every pin here as it is. A change
//! that moves one names the pins it moved, and why.
//!
//! Two families of pins:
//! - per replay (tiny worlds at seeds 7 and 11, seed 7 under a fault plan
//!   with every kind of event, and a two-window evaluation-scale world
//!   whose capacity rounds add several rows at once, so their order shows;
//!   variants `Full` and `NoSam`): welfare and total payment as `f64` bits,
//!   the admitted count, the LP counters the end-to-end benchmark reports,
//!   a digest of the final price series, and a digest of the realized link
//!   usage (which SAM's schedule moves, so it tells `Full` from `NoSam`);
//! - per registry experiment: a digest of its `render()` at tiny scale,
//!   Table 4's three timing rows left out.
//!
//! On a mismatch each test prints every actual value in the form the
//! constants below take.

mod runner_api;

use pretium_sim::registry::{registry_at, run_experiments, Scale};
use pretium_sim::{
    default_jobs, FaultEvent, FaultPlan, FaultPlanConfig, PretiumRun, Scenario, ScenarioConfig,
    Variant,
};
use rand::DetState;
use std::hash::{BuildHasher, Hasher};

/// `(world/variant, fingerprint)` of every pinned replay.
const REPLAYS: [(&str, &str); 8] = [
    (
        "tiny-7/Pretium",
        "welfare 40708d413e716736 paid 40387ba68136fd95 admitted 14 | solves 17 cold 3 warm 0/14 iterations 81 pricing_scans 8149 bland 0 refactors 16 ft 81 rejections 0 cache_hits 0 | prices 38f978903ac942c6 usage d99276a29574b90e",
    ),
    (
        "tiny-7/Pretium-NoSAM",
        "welfare 4071655858b9a680 paid 40387ba68136fd95 admitted 14 | solves 1 cold 1 warm 0/0 iterations 26 pricing_scans 2730 bland 0 refactors 2 ft 26 rejections 0 cache_hits 0 | prices 38f978903ac942c6 usage cd0fbdb355bf786f",
    ),
    (
        "tiny-11/Pretium",
        "welfare 4066ab90179db2ab paid 403376b096d801da admitted 13 | solves 13 cold 3 warm 0/10 iterations 49 pricing_scans 4144 bland 0 refactors 14 ft 49 rejections 0 cache_hits 2 | prices a779745190f76ecc usage 3040f9c12bd355a7",
    ),
    (
        "tiny-11/Pretium-NoSAM",
        "welfare 4067feaa9a270a92 paid 403376b096d801da admitted 13 | solves 1 cold 1 warm 0/0 iterations 13 pricing_scans 1214 bland 0 refactors 2 ft 13 rejections 0 cache_hits 0 | prices a779745190f76ecc usage 38b2f36446dc8464",
    ),
    (
        "tiny-7-faulted/Pretium",
        "welfare 40706ae2232aa1fe paid 40387ba68136fd95 admitted 14 | solves 17 cold 2 warm 0/15 iterations 77 pricing_scans 8972 bland 0 refactors 15 ft 77 rejections 0 cache_hits 2 | prices 38f978903ac942c6 usage a6ba7903d34ad273",
    ),
    (
        "tiny-7-faulted/Pretium-NoSAM",
        "welfare 4071655858b9a680 paid 40387ba68136fd95 admitted 14 | solves 0 cold 0 warm 0/0 iterations 0 pricing_scans 0 bland 0 refactors 0 ft 0 rejections 0 cache_hits 0 | prices 38f978903ac942c6 usage 583f86a2ec01cdef",
    ),
    ("eval-7-2w/Pretium", "welfare 406e53644a9b3f87 paid 404448e39ad5c176 admitted 98 | solves 45 cold 3 warm 0/42 iterations 764 pricing_scans 106051 bland 0 refactors 40 ft 764 rejections 0 cache_hits 1 | prices 4bbd95260a65740a usage 95962512a6e2aef4"),
    ("eval-7-2w/Pretium-NoSAM", "welfare 4073122db483ffec paid 404448e39ad5c176 admitted 98 | solves 1 cold 1 warm 0/0 iterations 201 pricing_scans 25103 bland 0 refactors 4 ft 201 rejections 0 cache_hits 0 | prices 4bbd95260a65740a usage a76108b49a754e3f"),
];

/// `(experiment, digest of its render)` over the tiny registry.
const RENDERS: [(&str, u64); 16] = [
    ("table1", 0x91a6aaa27cfd987f),
    ("fig1", 0x737ec2545371143e),
    ("fig2", 0x2e04a9fca355b159),
    ("fig5", 0x6f32d82b5de14eb6),
    ("fig6", 0x3572db5187d1633f),
    ("fig7", 0x30415f6895a82479),
    ("fig8", 0x5d1721eb7351798a),
    ("fig9", 0x9ec7ca22252764be),
    ("fig10", 0x4b22bb133b7d04be),
    ("fig11", 0x46a3ed3821e0cf47),
    ("fig12", 0xe9f8e1ac2c2811d1),
    ("fig13", 0x9b0e2703efd69eed),
    ("table4", 0xe8e880861706343f),
    ("incentives", 0x7b7327aec232fdc3),
    ("surge", 0xc5f1cd0db02206a6),
    ("robustness", 0x0e7400d3532c7143),
];

/// Table 4's rows are wall-clock samples; every other line is a result.
const TIMING_ROWS: [&str; 3] = ["RA (per request)", "SAM (per timestep)", "PC (per window)"];

fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = DetState.build_hasher();
    words.into_iter().for_each(|w| h.write_u64(w));
    h.finish()
}

/// Every kind of fault event, at rates a tiny world draws some of each at.
fn faulted_plan(sc: &Scenario) -> FaultPlan {
    let cfg = FaultPlanConfig {
        seed: 4,
        failure_rate: 0.3,
        surge_rate: 0.5,
        pressure_rate: 0.5,
        severity: (0.9, 1.0),
        surge_requests: 10,
        ..FaultPlanConfig::default()
    };
    let plan = FaultPlan::for_scenario(sc, &cfg);
    let has = |f: fn(&FaultEvent) -> bool| plan.events.iter().any(f);
    assert!(has(|e| matches!(e, FaultEvent::CapacityDegradation { .. })), "{plan:?}");
    assert!(has(|e| matches!(e, FaultEvent::RequestSurge { .. })), "{plan:?}");
    assert!(has(|e| matches!(e, FaultEvent::SolverPressure { .. })), "{plan:?}");
    plan
}

fn fingerprint(sc: &Scenario, run: &PretiumRun) -> String {
    let o = &run.outcome;
    let welfare = o.welfare(&sc.requests, &sc.net, &sc.grid, 1.0);
    let paid: f64 = o.payments.iter().sum();
    let admitted = o.admitted.iter().filter(|&&a| a).count();
    let lp = run.system.lp_stats();
    let state = run.system.state();
    let prices =
        digest(sc.net.edge_ids().flat_map(|e| state.price_series(e).iter().map(|p| p.to_bits())));
    let usage =
        digest(sc.net.edge_ids().flat_map(|e| o.usage.series(e).iter().map(|u| u.to_bits())));
    format!(
        "welfare {:016x} paid {:016x} admitted {admitted} | solves {} cold {} warm {}/{} \
         iterations {} pricing_scans {} bland {} refactors {} ft {} rejections {} cache_hits {} \
         | prices {prices:016x} usage {usage:016x}",
        welfare.to_bits(),
        paid.to_bits(),
        lp.solves,
        lp.cold_starts,
        lp.warm_primal,
        lp.warm_dual,
        lp.iterations,
        lp.pricing_scans,
        lp.bland_pivots,
        lp.refactors,
        lp.ft_updates,
        lp.pivot_rejections,
        lp.cache_hits,
    )
}

#[test]
fn pretium_replays_are_pinned() {
    let mut actual = Vec::new();
    let mut eval = ScenarioConfig::evaluation(7, 0.5);
    eval.windows = 2;
    let worlds = [
        ("tiny-7", ScenarioConfig::tiny(7), false),
        ("tiny-11", ScenarioConfig::tiny(11), false),
        ("tiny-7-faulted", ScenarioConfig::tiny(7), true),
        ("eval-7-2w", eval, false),
    ];
    for (name, config, faulted) in worlds {
        let sc = config.build();
        let plan = faulted.then(|| faulted_plan(&sc));
        for variant in [Variant::Full, Variant::NoSam] {
            let run = runner_api::warm_run(&sc, variant, plan.as_ref());
            actual.push((format!("{name}/{}", variant.label()), fingerprint(&sc, &run)));
        }
    }
    let expected: Vec<(String, String)> =
        REPLAYS.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
    let listing: String =
        actual.iter().map(|(k, v)| format!("    (\"{k}\", \"{v}\"),\n")).collect();
    assert_eq!(actual, expected, "replay pins moved; actual:\n{listing}");
}

#[test]
fn registry_renders_are_pinned() {
    let (results, _) =
        run_experiments(&registry_at(Scale::Tiny), rand::DEFAULT_SEED, default_jobs())
            .expect("tiny registry");
    let actual: Vec<(String, u64)> = results
        .iter()
        .map(|(name, result)| {
            let mut h = DetState.build_hasher();
            for line in result.render().lines() {
                if !TIMING_ROWS.iter().any(|row| line.trim_start().starts_with(row)) {
                    h.write(line.as_bytes());
                    h.write_u8(b'\n');
                }
            }
            (name.clone(), h.finish())
        })
        .collect();
    let expected: Vec<(String, u64)> = RENDERS.iter().map(|&(k, d)| (k.to_string(), d)).collect();
    let listing: String =
        actual.iter().map(|(k, d)| format!("    (\"{k}\", {d:#018x}),\n")).collect();
    assert_eq!(actual, expected, "render pins moved; actual:\n{listing}");
}

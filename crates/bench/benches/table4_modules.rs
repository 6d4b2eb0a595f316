//! Table 4: runtimes of the three Pretium modules (RA per request, SAM per
//! timestep, PC per window) measured on the default evaluation scale.

use pretium_bench::{black_box, Harness};
use pretium_core::{Pretium, PretiumConfig, RequestParams};
use pretium_net::UsageTracker;
use pretium_sim::ScenarioConfig;

/// Warm a Pretium instance to mid-simulation state (half the requests
/// admitted, SAM executed, first window done).
fn warmed() -> (Pretium, UsageTracker, pretium_sim::Scenario, usize) {
    let scenario = ScenarioConfig::evaluation(rand::DEFAULT_SEED, 1.0).build();
    let mut system = Pretium::new(
        scenario.net.clone(),
        scenario.grid,
        scenario.horizon,
        PretiumConfig::default(),
    );
    let mut usage = UsageTracker::new(scenario.net.num_edges(), scenario.horizon);
    let mid = scenario.horizon / 2;
    let mut next = 0;
    for t in 0..mid {
        if scenario.grid.step_in_window(t) == 0 && t > 0 {
            system.run_pc(t).unwrap();
        }
        while next < scenario.requests.len() && scenario.requests[next].arrival == t {
            let r = &scenario.requests[next];
            let params = RequestParams::from(r);
            system.admit_one(&params, |menu| menu.optimal_purchase(r.value, r.demand));
            next += 1;
        }
        system.run_sam(t, &usage).unwrap();
        system.execute_step(t, &mut usage);
    }
    (system, usage, scenario, mid)
}

fn main() {
    let mut h = Harness::new().sample_size(10);
    let (mut system, usage, scenario, mid) = warmed();

    // RA: quote a representative mid-simulation request off a published
    // admission snapshot (the quoting surface since the sequencer API).
    let probe =
        scenario.requests.iter().find(|r| r.arrival >= mid).expect("request in second half");
    let params = RequestParams::from(probe);
    let snap = system.snapshot();
    h.bench_function("table4_ra_quote", |b| {
        b.iter(|| black_box(snap.quote(&params).capacity_bound()));
    });
    drop(snap);

    // SAM: one full re-optimization at the midpoint.
    h.bench_function("table4_sam_step", |b| {
        b.iter(|| {
            system.run_sam(mid, &usage).unwrap();
        });
    });

    // PC: one full price recomputation at the second window boundary.
    let boundary = scenario.grid.window_start(1);
    h.bench_function("table4_pc_window", |b| {
        b.iter(|| {
            system.run_pc(boundary.max(scenario.grid.steps_per_window)).unwrap();
        });
    });
}

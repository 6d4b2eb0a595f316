//! Audited replay: run the full Pretium loop over an evaluation-scale
//! scenario with the network-state invariant auditor enabled, then print
//! the per-module telemetry and the audit summary.
//!
//! The auditor sweeps the shared `NetworkState` after every RA accept,
//! SAM re-optimization, PC price update, and executed step, checking
//! that no link is oversubscribed, every contract's plan is backed by
//! reservations, payments and marginal prices stay finite, prices
//! respect their floors once PC has run, and active guarantees remain
//! coverable. A clean run exits 0; any recorded violation exits 1.
//!
//! ```text
//! cargo run --release --example audited_run
//! ```

use pretium::core::PretiumConfig;
use pretium::sim::runner::{run_pretium, Variant};
use pretium::sim::scenario::ScenarioConfig;

fn main() {
    let scenario = ScenarioConfig::evaluation(rand::DEFAULT_SEED, 1.0).build();
    println!(
        "audited replay: {} datacenters, {} links, {} requests over {} steps",
        scenario.net.num_nodes(),
        scenario.net.num_edges(),
        scenario.requests.len(),
        scenario.horizon
    );

    // Auditing is always on in debug builds; the flag turns it on for the
    // release builds this example is meant to run as.
    let cfg = PretiumConfig { audit: true, ..Default::default() };

    let run = run_pretium(&scenario, cfg, Variant::Full, None, &mut ()).expect("LP solve failed");
    let admitted = run.outcome.admitted.iter().filter(|&&a| a).count();
    let delivered: f64 = run.outcome.delivered.iter().sum();
    println!(
        "admitted {admitted}/{} requests, delivered {delivered:.1} units\n",
        scenario.requests.len()
    );

    println!("{}", run.telemetry_report("Telemetry (measured pass)"));

    let aud = run.system.auditor().expect("auditing was enabled");
    if aud.is_clean() {
        println!("audit: CLEAN ({} sweeps, 0 violations)", aud.checks());
    } else {
        println!("audit: {} violation(s) over {} sweeps", aud.total_violations(), aud.checks());
        std::process::exit(1);
    }
}

//! The one call `pinned_runs.rs` makes into the runner. It lives apart so
//! that a change to the runner's signature edits this file while the pins
//! stay byte for byte as they were recorded.

use pretium_core::PretiumConfig;
use pretium_sim::{run_pretium, FaultPlan, PretiumRun, Scenario, Variant};

/// The warm-started replay of `sc` at the default config, under `faults`.
pub fn warm_run(sc: &Scenario, variant: Variant, faults: Option<&FaultPlan>) -> PretiumRun {
    run_pretium(sc, PretiumConfig::default(), variant, faults, &mut ()).expect("pinned replay")
}

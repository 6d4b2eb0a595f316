//! # pretium-sim — discrete-time replay simulator and experiments
//!
//! Glue between the Pretium system, the baselines, and the synthetic
//! workload:
//!
//! * [`scenario`] — seeded world generation (topology + trace + requests)
//!   so every scheme replays identical inputs.
//! * [`faults`] — seeded fault schedules (capacity loss, a link failure
//!   being a total one; surges; solver pressure) replayed against a live
//!   run (§4.4).
//! * [`runner`] — the one online Pretium replay loop, [`replay`] (each
//!   step's arrivals quoted off one admission snapshot, then sequenced
//!   deterministically; SAM per timestep, PC per window), the [`Hook`]
//!   that observes its phase boundaries, the Figure 11 ablation variants,
//!   and [`runner::ModuleTimes`], the per-call module timings Table 4 reports.
//! * [`experiments`] — the §6.1 scheme dispatch and the single-world
//!   figure computations (Figures 1, 5, 7, 10).
//! * [`mod@registry`] — every table/figure of §6 as one `Experiment` value:
//!   sweeps as axis × schemes × fold and single-world text cells, all
//!   executed cell by cell on one [`par`] pool.
//! * [`par`] — the worker pool that runs evaluation cells: one atomic
//!   cursor over a slice of cell specs, no locks, results in slice order;
//!   no cell starts a pool of its own.
//! * [`incentives`] — the §5 misreporting study.
//! * [`report`] — plain-text rendering of figures/tables.
//!
//! Outside its tests the crate neither unwraps nor panics; clippy enforces
//! it. A cell's panic is caught by [`par`] and re-raised, with the cell's
//! label, on the caller's thread.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod experiments;
pub mod faults;
pub mod incentives;
pub mod par;
pub mod registry;
pub mod report;
pub mod runner;
pub mod scenario;

pub use faults::{FaultEvent, FaultPlan, FaultPlanConfig};
pub use incentives::{analyze_deviations, Deviation, DeviationReport};
pub use par::{default_jobs, PoolTelemetry};
pub use registry::{registry, Experiment, ExperimentResult};
pub use report::{render_ascii_plot, render_figure, render_table, Series};
pub use runner::{replay, run_pretium, Hook, PretiumRun, Variant};
pub use scenario::{Scenario, ScenarioConfig};

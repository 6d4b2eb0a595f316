//! # pretium-sim — discrete-time replay simulator and experiments
//!
//! Glue between the Pretium system, the baselines, and the synthetic
//! workload:
//!
//! * [`scenario`] — seeded world generation (topology + trace + requests)
//!   so every scheme replays identical inputs.
//! * [`faults`] — seeded fault schedules (link failures, degradations,
//!   surges, solver pressure) replayed against a live run (§4.4).
//! * [`runner`] — the online Pretium replay loop (each step's arrivals
//!   quoted off one admission snapshot, then sequenced deterministically;
//!   SAM per timestep, PC per window) and the Figure 11 ablation variants.
//! * [`experiments`] — the §6.1 scheme dispatch and the single-world
//!   figure computations (Figures 1, 5, 7, 10, Table 4).
//! * [`mod@registry`] — every table/figure of §6 as one `Experiment` value:
//!   sweeps as axis × schemes × fold, executed cell by cell on [`par`].
//! * [`par`] — the worker pool that runs evaluation cells.
//! * [`incentives`] — the §5 misreporting study.
//! * [`report`] — plain-text rendering of figures/tables.

pub mod experiments;
pub mod faults;
pub mod incentives;
pub mod par;
pub mod registry;
pub mod report;
pub mod runner;
pub mod scenario;

pub use experiments::{compare_schemes, compare_schemes_jobs, Comparison};
pub use faults::{FaultEvent, FaultPlan, FaultPlanConfig};
pub use incentives::{analyze_deviations, Deviation, DeviationReport};
pub use par::{default_jobs, run_cells, Cell};
pub use registry::{registry, Experiment, ExperimentResult};
pub use report::{render_ascii_plot, render_figure, render_table, Series};
pub use runner::{run_pretium, run_pretium_faulted, PretiumRun, Variant};
pub use scenario::{Scenario, ScenarioConfig};

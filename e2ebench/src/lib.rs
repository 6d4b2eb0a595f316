//! # pretium-e2e — the Table-4 replay benchmark
//!
//! Four deterministic online workloads replayed through the public API of
//! `pretium-core` / `pretium-sim`, timed from outside with per-call floors
//! over repetitions, plus a traced run that accounts for the wall clock
//! layer by layer. `BENCHMARK.md` in this directory is the specification.
//!
//! * [`workloads`] — the four workload shapes and seed → world.
//! * [`replay`] — the `run_pretium_cold` step loop, public API only.
//! * [`spans`] — the span recorder and its JSON-lines writer.
//! * [`floors`] — the estimator: per-call minima, percentiles, quartiles.
//! * [`clock`] — the reference clock durations are scaled to.
//! * [`metrics`] — the metric registry and the end-to-end arithmetic.
//! * [`layers`] — per-layer metrics and the workload guards.
//! * [`probes`] — direct calls into `net`, `workload` and `core::schedule`.
//! * [`checks`] — output checks on an audited replay.
//! * [`run`] — one run; [`repeat`] — sets of runs against the bounds.
//! * [`report`] / [`manifest`] / [`json`] — what is printed and read.

pub mod checks;
pub mod clock;
pub mod floors;
pub mod json;
pub mod layers;
pub mod manifest;
pub mod metrics;
pub mod probes;
pub mod repeat;
pub mod replay;
pub mod report;
pub mod run;
pub mod spans;
pub mod workloads;

//! # pretium-workload — synthetic traces and request streams
//!
//! Stands in for the paper's proprietary month-long NetFlow trace of a
//! production inter-DC WAN (§6.1). See `DESIGN.md` §3 for the substitution
//! argument: the evaluation consumes only (a) a traffic-matrix time series
//! with strong diurnal periodicity, heavy-tailed pair sizes, and short-term
//! spikes, and (b) request parameters drawn from the operator survey — both
//! regenerated here with controlled seeds.
//!
//! * [`values`] — value distributions (normal / pareto / exponential)
//!   implemented directly over `rand`'s uniform source.
//! * [`tm`] — traffic-matrix time-series generator (diurnal + noise +
//!   flash crowds).
//! * [`requests`] — converts a trace into a stream of deadline transfer
//!   requests mimicking it (§6.1 methodology).
//! * [`survey`] — Table 1 / Table 2 constants.
//!
//! Outside its tests the crate neither unwraps nor panics; clippy enforces
//! it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod requests;
pub mod survey;
pub mod tm;
pub mod values;

pub use requests::{generate_requests, Request, RequestConfig, RequestId, RequestKind};
pub use tm::{generate_trace, PairSeries, TrafficConfig, TrafficTrace};
pub use values::ValueDist;

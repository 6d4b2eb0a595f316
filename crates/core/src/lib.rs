//! # pretium-core — the paper's primary contribution
//!
//! The Pretium framework from "Dynamic Pricing and Traffic Engineering for
//! Timely Inter-Datacenter Transfers" (SIGCOMM 2016): online price quotes
//! with service guarantees, LP-based schedule adjustment with percentile
//! cost proxies, and dual-based price recomputation.
//!
//! Module map (mirrors Figure 3 of the paper):
//!
//! * [`state`] — the shared network state: per-(link, timestep) prices,
//!   reservations and health, per-link high-pri set-asides, the
//!   short-term price bump.
//! * [`menu`] — RA price menus (§4.1): convex piecewise-linear price
//!   schedules over the cheapest (path, timestep) slots, the guarantee
//!   bound `x̄`, and the Theorem 5.2 user response.
//! * [`contract`] — accepted transfers: purchase, guarantee, payment, and
//!   the marginal price `λ` used as the value proxy downstream.
//! * [`schedule`] — the multi-timestep scheduling LP (Equation 2) with
//!   lazy capacity rows and lazily-attached percentile cost encodings.
//! * [`topk`] — Theorem 4.2: O(kT) sorting-network encoding of
//!   sum-of-top-k, plus the O(T) CVaR alternative.
//! * [`admission`] — the concurrent RA front end: epoch-published
//!   [`AdmissionSnapshot`]s for pure parallel quoting, [`QuoteTicket`]s,
//!   and the deterministic [`Sequencer`] that applies accepts in order.
//! * [`pretium`] — the orchestrating façade: `snapshot` / `admit_one`
//!   (RA), `run_sam` (§4.2), `run_pc` (§4.3), `execute_step`.
//! * [`config`] — tunables, with paper defaults.
//! * [`audit`] — the network-state invariant auditor: sweeps shared-state
//!   invariants (no oversubscription, plans backed by reservations, finite
//!   money, price floors, guarantee coverage, ledgered degradation) after
//!   each module checkpoint.
//! * [`degradation`] — §4.4 graceful degradation: the shed-then-relax
//!   fallback policy and the violation ledger of waived guarantees.
//! * [`telemetry`] — per-module counters and wall-clock timings.
//!
//! Outside its tests the crate calls no `unwrap`, `expect` or `panic!`;
//! clippy enforces it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod admission;
pub mod audit;
pub mod config;
pub mod contract;
pub mod degradation;
pub mod menu;
pub mod pretium;
pub mod schedule;
pub mod state;
pub mod telemetry;
pub mod topk;

pub use admission::{AdmissionSnapshot, QuoteTicket, Sequencer};
pub use audit::{AuditContext, AuditPoint, Auditor, Invariant, Violation};
pub use config::PretiumConfig;
pub use contract::{Contract, ContractId, RequestParams};
pub use degradation::{DegradationKind, LedgerEntry, ViolationLedger};
pub use menu::{build_menu, PriceMenu};
pub use pretium::{price_floor, Pretium};
pub use schedule::{Job, ScheduleProblem, ScheduleSession, ScheduleSolution};
pub use state::{NetworkState, PriceBump};
pub use telemetry::{ModuleStats, Telemetry};
pub use topk::{topk_upper_bound, TopkEncoding};

//! # pretium-lp — a self-contained LP solver with exact duals
//!
//! This crate replaces the commercial solver (Gurobi) used in the Pretium
//! paper ("Dynamic Pricing and Traffic Engineering for Timely
//! Inter-Datacenter Transfers", SIGCOMM 2016). Pretium's price computer
//! sets link prices to the **dual values** of capacity constraints, so the
//! solver must return exact basic duals — which the revised simplex method
//! provides naturally.
//!
//! ## What's inside
//!
//! * [`Model`] — incremental LP builder (variables with bounds, linear
//!   rows, max/min objective) with operator-overloaded [`LinExpr`]s.
//! * [`SolverSession`] — the primary solve surface: a model plus the stamp
//!   of its last solve and its optimum, held once and lent out by
//!   [`SolverSession::solve`]. The model is mutated in place
//!   ([`SolverSession::model_mut`]) and logs by itself what the next solve
//!   must re-read. A re-solve either carries the terminal state its last
//!   solve left in the thread's workspace — when no other solve ran there
//!   since — and picks the cheapest restart from it (primal warm start
//!   after objective changes, dual simplex after RHS/bound changes or
//!   appended rows), or runs cold.
//!   [`Model::solve`] remains as a one-shot convenience. Growth is
//!   warm-safe in both directions: an appended row seats its slack in the
//!   basis ([`Model::add_row`]), an appended column enters nonbasic at
//!   bound ([`Model::add_var`]). That is all the crate offers
//!   towards lazy generation: which rows a tentative optimum violates is
//!   decided by the caller's loop (`pretium-core`'s `ScheduleSession`).
//! * [`simplex`] — bounded-variable revised simplex: sparse `LU` basis
//!   factorization with Markowitz pivoting and Forrest–Tomlin updates,
//!   crash basis, two phases, and a bounded-variable dual simplex for
//!   warm restarts. One pricing rule: partial Devex over incrementally
//!   maintained reduced costs, with a cyclic candidate list refilled from
//!   a maintained set holding the columns that can enter, so a pivot
//!   examines the candidates and that set's members in a section instead
//!   of all `n`, and a Bland's-rule anti-cycling fallback. A solve is configured by
//!   [`SimplexOptions`] (tolerances and limits) and [`SolverTuning`]
//!   (the refactorization cadence), one field per parameter.
//! * [`SessionStats`] — the one counter type: a solve counts into it, its
//!   [`Solution`] carries that ledger, and a session merges them.
//! * [`validate`] — the KKT certificate the tests take as their reference:
//!   finiteness, primal and dual feasibility, complementary slackness and
//!   the duality gap, checked against the model alone.
//!
//! ## Example: session lifecycle
//!
//! Build a model, wrap it in a session, and re-optimize across mutations —
//! the pattern Pretium's SAM uses every timestep:
//!
//! ```
//! use pretium_lp::{Cmp, Model, Restart, Sense, SolveOptions, SolverSession};
//!
//! // max 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6,  x,y >= 0
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_nonneg("x", 3.0);
//! let y = m.add_nonneg("y", 2.0);
//! let cap = m.add_row("cap", x + y, Cmp::Le, 4.0);
//! let _r2 = m.add_row("r2", 1.0 * x + 3.0 * y, Cmp::Le, 6.0);
//!
//! // First solve is cold and leaves its optimal basis on this thread.
//! let mut session = SolverSession::new(m);
//! let sol = session.solve(&SolveOptions::default()).unwrap();
//! assert!((sol.objective() - 12.0).abs() < 1e-7);
//! assert!((sol.value(x) - 4.0).abs() < 1e-7);
//! // Binding capacity row carries the shadow price.
//! assert!(sol.dual(cap) > 0.0);
//!
//! // Capacity moved past what r2 allows (a SAM timestep): the old basis is
//! // primal infeasible but still dual feasible — dual simplex repairs it.
//! session.model_mut().set_rhs(cap, 7.0);
//! let sol = session.solve(&SolveOptions::default()).unwrap();
//! assert!((sol.objective() - 18.0).abs() < 1e-7);
//! assert_eq!(session.last_restart(), Some(Restart::WarmDual));
//!
//! // Values shifted (new prices): the basis stays primal feasible, so the
//! // restart is a pure primal continuation.
//! session.model_mut().set_obj(y, 4.0);
//! session.solve(&SolveOptions::default()).unwrap();
//! assert_eq!(session.last_restart(), Some(Restart::WarmPrimal));
//! ```
//!
//! Outside its tests the crate calls no `unwrap`, `expect` or `panic!`;
//! clippy enforces it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod expr;
pub mod model;
pub mod session;
pub mod simplex;
pub mod solution;
pub mod stats;
pub mod validate;

pub use expr::{LinExpr, Term, Var};
pub use model::{Cmp, Model, Name, RowId, Sense};
pub use session::{SolveOptions, SolverSession};
pub use simplex::basis::{FactorStats, DEFAULT_MAX_ETAS};
pub use simplex::{Pricing, Restart, SimplexOptions, SolverTuning};
pub use solution::{Solution, SolveError};
pub use stats::SessionStats;

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
//! * [`SolverSession`] — the primary solve surface: a model plus the basis
//!   of its last solve. Mutations (`set_rhs`, `set_bounds`, `set_obj`,
//!   `add_row`, `add_var`) go through the session, and each re-solve picks
//!   the cheapest restart — primal warm start after objective changes, dual
//!   simplex after RHS/bound changes or appended rows, cold only when the
//!   basis cannot be reused. [`Model::solve`] remains as a one-shot
//!   convenience. Growth is warm-safe in both directions: an appended row
//!   seats its slack in the basis ([`SolverSession::add_row`]), an appended
//!   column enters nonbasic at bound
//!   ([`SolverSession::add_generated_cols`]). That is all the crate offers
//!   towards lazy generation: which rows a tentative optimum violates and
//!   which absent columns its duals price favorably is decided by the
//!   caller's loop (`pretium-core`'s `ScheduleSession`).
//! * [`simplex`] — bounded-variable revised simplex: sparse `LU` basis
//!   factorization with Markowitz pivoting and Forrest–Tomlin updates,
//!   crash basis, two phases, and a bounded-variable dual simplex for
//!   warm restarts. One pricing rule: partial Devex over incrementally
//!   maintained reduced costs, with a cyclic candidate list so a pivot
//!   prices O(section + candidates) columns instead of O(n), and a
//!   Bland's-rule anti-cycling fallback. A solve is configured by
//!   [`SimplexOptions`] (tolerances and limits) and [`SolverTuning`]
//!   (refactorization cadence and pricing workers), one field per
//!   parameter.
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
//! // First solve is cold and records the optimal basis.
//! let mut session = m.into_session();
//! let sol = session.solve(&SolveOptions::default()).unwrap();
//! assert!((sol.objective() - 12.0).abs() < 1e-7);
//! assert!((sol.value(x) - 4.0).abs() < 1e-7);
//! // Binding capacity row carries the shadow price.
//! assert!(sol.dual(cap) > 0.0);
//!
//! // Capacity moved past what r2 allows (a SAM timestep): the old basis is
//! // primal infeasible but still dual feasible — dual simplex repairs it.
//! session.set_rhs(cap, 7.0);
//! let sol = session.solve(&SolveOptions::default()).unwrap();
//! assert!((sol.objective() - 18.0).abs() < 1e-7);
//! assert_eq!(session.last_restart(), Some(Restart::WarmDual));
//!
//! // Values shifted (new prices): the basis stays primal feasible, so the
//! // restart is a pure primal continuation.
//! session.set_obj(y, 4.0);
//! session.solve(&SolveOptions::default()).unwrap();
//! assert_eq!(session.last_restart(), Some(Restart::WarmPrimal));
//! ```

pub mod expr;
pub mod model;
pub mod session;
pub mod simplex;
pub mod solution;
pub mod stats;
pub mod validate;

pub use expr::{LinExpr, Term, Var};
pub use model::{Cmp, Model, RowId, Sense};
pub use session::{ColRequest, SolveOptions, SolverSession};
pub use simplex::basis::{FactorStats, DEFAULT_MAX_ETAS};
pub use simplex::{Pricing, Restart, SimplexOptions, SolverTuning};
pub use solution::{Solution, SolveError};
pub use stats::SessionStats;

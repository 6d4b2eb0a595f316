//! Solver results: status, primal/dual values, and error types.

use crate::expr::Var;
use crate::model::RowId;
use crate::simplex::basis::FactorStats;
use std::fmt;

/// Termination status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

/// Errors surfaced by [`crate::Model::solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// No feasible point exists; carries the phase-1 infeasibility residual.
    Infeasible { residual: f64 },
    /// Objective unbounded; carries the name of a variable with an
    /// unbounded improving ray.
    Unbounded { var: String },
    /// The iteration limit was exceeded before reaching optimality.
    IterationLimit { iterations: u64 },
    /// Numerical failure (singular basis that could not be repaired).
    Numerical(String),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible { residual } => {
                write!(f, "infeasible (phase-1 residual {residual:.3e})")
            }
            SolveError::Unbounded { var } => write!(f, "unbounded along variable `{var}`"),
            SolveError::IterationLimit { iterations } => {
                write!(f, "iteration limit reached after {iterations} iterations")
            }
            SolveError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// An optimal solution: primal values, row duals, and reduced costs.
///
/// Dual sign convention: `dual(row)` is the derivative of the optimal
/// objective with respect to the row's right-hand side, **in the model's
/// own sense**. For a `Maximize` model, a binding `<=` row therefore has a
/// non-negative dual (relaxing the row helps), and a binding `>=` row a
/// non-positive one. For `Minimize` models signs flip accordingly.
#[derive(Debug, Clone)]
pub struct Solution {
    pub(crate) status: Status,
    pub(crate) objective: f64,
    pub(crate) values: Vec<f64>,
    pub(crate) duals: Vec<f64>,
    pub(crate) reduced_costs: Vec<f64>,
    pub(crate) iterations: u64,
    pub(crate) pricing_scans: u64,
    pub(crate) bland_pivots: u64,
    pub(crate) dual_iterations: u64,
    pub(crate) dual_degenerate: u64,
    pub(crate) pricing_par_sections: u64,
    pub(crate) pricing_par_steals: u64,
    pub(crate) pricing_serial_nanos: u64,
    pub(crate) pricing_par_nanos: u64,
    pub(crate) factor_stats: FactorStats,
    /// The solve continued from its predecessor's state in the workspace.
    pub(crate) carried: bool,
    /// The terminal residual certificate failed and forced a refactorization.
    pub(crate) terminal_refactor: bool,
}

impl Solution {
    /// Termination status (always [`Status::Optimal`] for solutions returned
    /// from `solve`; errors are reported via [`SolveError`]).
    pub fn status(&self) -> Status {
        self.status
    }

    /// Optimal objective value (in the model's sense, including any
    /// objective offset).
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Value of a variable at the optimum.
    pub fn value(&self, v: Var) -> f64 {
        self.values[v.index()]
    }

    /// All variable values, indexed densely by [`Var::index`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Dual value (shadow price) of a row. See the type-level docs for the
    /// sign convention.
    pub fn dual(&self, r: RowId) -> f64 {
        self.duals[r.index()]
    }

    /// All row duals, indexed densely by [`RowId::index`].
    pub fn duals(&self) -> &[f64] {
        &self.duals
    }

    /// Reduced cost of a variable at the optimum (model sense): the rate of
    /// objective change per unit increase of the variable off its bound.
    pub fn reduced_cost(&self, v: Var) -> f64 {
        self.reduced_costs[v.index()]
    }

    /// Number of simplex iterations used (phase 1 + phase 2).
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// Columns examined by pricing across the solve: selection scans plus
    /// the columns touched by incremental pivot-row updates. The work
    /// measure that partial pricing exists to shrink.
    pub fn pricing_scans(&self) -> u64 {
        self.pricing_scans
    }

    /// Iterations priced under the Bland's-rule anti-cycling fallback.
    pub fn bland_pivots(&self) -> u64 {
        self.bland_pivots
    }

    /// Iterations that were dual simplex pivots of a warm restart (a
    /// subset of [`Solution::iterations`]).
    pub fn dual_iterations(&self) -> u64 {
        self.dual_iterations
    }

    /// Dual pivots whose dual step was zero: the duals and reduced costs did
    /// not move (a subset of [`Solution::dual_iterations`]).
    pub fn dual_degenerate(&self) -> u64 {
        self.dual_degenerate
    }

    /// Sections executed by the deterministic parallel-pricing layer.
    /// Zero when `pricing_jobs <= 1` (the serial path spawns no sections).
    /// Deterministic for a fixed model and configuration: section counts
    /// derive from range sizes, never from thread scheduling.
    pub fn pricing_par_sections(&self) -> u64 {
        self.pricing_par_sections
    }

    /// Sections claimed by a worker other than the one whose deque they
    /// were seeded on. Timing-dependent — a load-balance diagnostic, not a
    /// deterministic quantity.
    pub fn pricing_par_steals(&self) -> u64 {
        self.pricing_par_steals
    }

    /// Wall-clock nanoseconds spent in pricing invocations that ran the
    /// serial path.
    pub fn pricing_serial_nanos(&self) -> u64 {
        self.pricing_serial_nanos
    }

    /// Wall-clock nanoseconds spent in pricing invocations that fanned out
    /// over the worker pool.
    pub fn pricing_par_nanos(&self) -> u64 {
        self.pricing_par_nanos
    }

    /// Basis-factorization counters (refactorizations, fill-in,
    /// Forrest–Tomlin updates, pivot rejections) accumulated over the
    /// solve.
    pub fn factor_stats(&self) -> FactorStats {
        self.factor_stats
    }
}

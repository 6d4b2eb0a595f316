//! Solver results: primal/dual values, the solve's counters, and error
//! types.

use crate::expr::Var;
use crate::model::RowId;
use crate::stats::SessionStats;
use std::fmt;

/// Errors surfaced by [`crate::Model::solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// No feasible point exists; carries the phase-1 infeasibility residual.
    Infeasible { residual: f64 },
    /// Objective unbounded; names the column of an unbounded improving
    /// ray: a variable, or `slack of <row>` for the slack of a row.
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

/// An optimal solution: primal values and row duals. A solve that ends
/// anywhere but at an optimum returns a [`SolveError`] instead. A
/// [`SolverSession`](crate::SolverSession) holds its last optimum as one of
/// these and lends it out; a re-solve overwrites it in place. Reduced costs
/// are a function of the duals: [`crate::validate::reduced_costs`] computes
/// them.
///
/// Dual sign convention: `dual(row)` is the derivative of the optimal
/// objective with respect to the row's right-hand side, **in the model's
/// own sense**. For a `Maximize` model, a binding `<=` row therefore has a
/// non-negative dual (relaxing the row helps), and a binding `>=` row a
/// non-positive one. For `Minimize` models signs flip accordingly.
#[derive(Debug, Clone)]
pub struct Solution {
    pub(crate) objective: f64,
    pub(crate) values: Vec<f64>,
    pub(crate) duals: Vec<f64>,
    /// What this solve counted.
    pub(crate) stats: SessionStats,
}

impl Solution {
    /// No optimum yet: what a solve writes over.
    pub(crate) fn empty() -> Self {
        Solution { objective: 0.0, values: vec![], duals: vec![], stats: SessionStats::default() }
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

    /// The ledger of the solve that produced this optimum: `solves == 1`,
    /// the counter of the restart that ran, and the pivots, pricing and
    /// factorization work it took. A session's
    /// [`SolverSession::stats`](crate::SolverSession::stats) is the merge of
    /// these over the solves it ran; a cached optimum keeps its ledger.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }
}

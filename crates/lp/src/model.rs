//! LP model builder.
//!
//! A [`Model`] collects variables (with bounds and objective coefficients)
//! and linear constraints, and hands the assembled problem to the
//! [`crate::simplex`] solver. The model is the single user-facing entry
//! point of this crate:
//!
//! ```
//! use pretium_lp::{Model, Sense, Cmp};
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_var("x", 0.0, f64::INFINITY, 3.0);
//! let y = m.add_var("y", 0.0, f64::INFINITY, 2.0);
//! m.add_row("r1", 1.0 * x + 1.0 * y, Cmp::Le, 4.0);
//! m.add_row("r2", 1.0 * x + 3.0 * y, Cmp::Le, 6.0);
//! let sol = m.solve().unwrap();
//! assert!((sol.objective() - 12.0).abs() < 1e-7); // x=4, y=0
//! ```

use crate::expr::{LinExpr, Var};
use crate::simplex::{solve_model_session, Changes, Problem, SimplexOptions, SolverTuning};
use crate::solution::{Solution, SolveError};

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    Minimize,
    Maximize,
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `expr <= rhs`
    Le,
    /// `expr == rhs`
    Eq,
    /// `expr >= rhs`
    Ge,
}

/// Handle to a constraint row; used to read dual values from a
/// [`Solution`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowId(pub(crate) u32);

impl RowId {
    /// Dense 0-based row index in creation order.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a raw index (for row-generation callbacks that track
    /// rows positionally).
    #[inline]
    pub fn from_index(i: usize) -> Self {
        RowId(i as u32)
    }
}

/// Names back to back in one buffer: they are read only by error paths and
/// diagnostics, and a `String` apiece costs more memory than the variable.
#[derive(Debug, Clone, Default)]
struct Names {
    text: String,
    ends: Vec<u32>,
}

impl Names {
    fn push(&mut self, name: &str) {
        self.text.push_str(name);
        self.ends.push(self.text.len() as u32);
    }

    fn get(&self, i: usize) -> &str {
        let from = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[from..self.ends[i] as usize]
    }
}

#[derive(Debug, Clone)]
pub(crate) struct VarData {
    pub lb: f64,
    pub ub: f64,
    pub obj: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct RowData {
    /// Compacted terms: `(var index, coefficient)`, ascending by index.
    pub terms: Vec<(u32, f64)>,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// A linear program under construction.
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<VarData>,
    pub(crate) rows: Vec<RowData>,
    var_names: Names,
    row_names: Names,
    /// Constant offset accumulated from expression constants; added back to
    /// the reported objective value.
    pub(crate) obj_offset: f64,
}

impl Model {
    /// Create an empty model with the given optimization sense.
    pub fn new(sense: Sense) -> Self {
        Model {
            sense,
            vars: Vec::new(),
            rows: Vec::new(),
            var_names: Names::default(),
            row_names: Names::default(),
            obj_offset: 0.0,
        }
    }

    /// The optimization sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Add a variable with bounds `[lb, ub]` and objective coefficient
    /// `obj`. Use `f64::NEG_INFINITY` / `f64::INFINITY` for free directions.
    ///
    /// # Panics
    /// Panics if `lb > ub`, or if either bound or `obj` is NaN.
    pub fn add_var(&mut self, name: &str, lb: f64, ub: f64, obj: f64) -> Var {
        assert!(!lb.is_nan() && !ub.is_nan(), "variable bound is NaN");
        assert!(lb <= ub, "variable `{name}` has lb {lb} > ub {ub}");
        assert!(!obj.is_nan(), "variable `{name}` objective is NaN");
        let idx = self.vars.len();
        assert!(idx < u32::MAX as usize, "too many variables");
        self.var_names.push(name);
        self.vars.push(VarData { lb, ub, obj });
        Var(idx as u32)
    }

    /// Convenience: non-negative variable `[0, ∞)`.
    pub fn add_nonneg(&mut self, name: &str, obj: f64) -> Var {
        self.add_var(name, 0.0, f64::INFINITY, obj)
    }

    /// Convenience: free variable `(-∞, ∞)`.
    pub fn add_free(&mut self, name: &str, obj: f64) -> Var {
        self.add_var(name, f64::NEG_INFINITY, f64::INFINITY, obj)
    }

    /// Add the constraint `expr cmp rhs`. Constants inside `expr` are moved
    /// to the right-hand side. Returns a handle for reading the row's dual
    /// value.
    ///
    /// # Panics
    /// Panics if the expression references a variable not belonging to this
    /// model, or if `rhs` is NaN.
    pub fn add_row(&mut self, name: &str, expr: impl Into<LinExpr>, cmp: Cmp, rhs: f64) -> RowId {
        assert!(!rhs.is_nan(), "row `{name}` rhs is NaN");
        let mut expr = expr.into();
        expr.compact();
        let mut terms = Vec::with_capacity(expr.len());
        for t in expr.terms() {
            assert!(
                t.var.index() < self.vars.len(),
                "row `{name}` references unknown variable index {}",
                t.var.index()
            );
            assert!(t.coef.is_finite(), "row `{name}` has non-finite coefficient");
            terms.push((t.var.0, t.coef));
        }
        let idx = self.rows.len();
        assert!(idx < u32::MAX as usize, "too many rows");
        self.row_names.push(name);
        self.rows.push(RowData { terms, cmp, rhs: rhs - expr.constant() });
        RowId(idx as u32)
    }

    /// Add `coef · v` to an existing row's left-hand side, merging with any
    /// term the row already carries for `v`. This is how incrementally grown
    /// models retrofit a newly added variable into rows that were
    /// materialized earlier (e.g. a new job entering an existing capacity
    /// constraint).
    ///
    /// # Panics
    /// Panics if `v` does not belong to this model or `coef` is not finite.
    pub fn add_term(&mut self, r: RowId, v: Var, coef: f64) {
        assert!(
            v.index() < self.vars.len(),
            "add_term on row `{}`: unknown variable index {}",
            self.row_name(r),
            v.index()
        );
        assert!(coef.is_finite(), "add_term: non-finite coefficient");
        let row = &mut self.rows[r.index()];
        match row.terms.binary_search_by_key(&v.0, |&(j, _)| j) {
            Ok(i) => row.terms[i].1 += coef,
            Err(i) => row.terms.insert(i, (v.0, coef)),
        }
    }

    /// Replace the objective coefficient of `v`.
    ///
    /// # Panics
    /// Panics if `obj` is NaN.
    pub fn set_obj(&mut self, v: Var, obj: f64) {
        assert!(!obj.is_nan(), "set_obj: objective of `{}` is NaN", self.var_name(v));
        self.vars[v.index()].obj = obj;
    }

    /// Replace the bounds of `v`.
    ///
    /// # Panics
    /// Panics if `lb > ub`.
    pub fn set_bounds(&mut self, v: Var, lb: f64, ub: f64) {
        assert!(lb <= ub, "set_bounds: lb {lb} > ub {ub}");
        let d = &mut self.vars[v.index()];
        d.lb = lb;
        d.ub = ub;
    }

    /// Replace the right-hand side of a row (an infinite one is legal).
    ///
    /// # Panics
    /// Panics if `rhs` is NaN.
    pub fn set_rhs(&mut self, r: RowId, rhs: f64) {
        assert!(!rhs.is_nan(), "set_rhs: row `{}` rhs is NaN", self.row_name(r));
        self.rows[r.index()].rhs = rhs;
    }

    /// Add a constant to the objective function (reported in
    /// [`Solution::objective`]).
    ///
    /// # Panics
    /// Panics if `c` is NaN.
    pub fn add_obj_offset(&mut self, c: f64) {
        assert!(!c.is_nan(), "add_obj_offset: offset is NaN");
        self.obj_offset += c;
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraint rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Name of a variable (as given to [`Model::add_var`]).
    pub fn var_name(&self, v: Var) -> &str {
        self.var_names.get(v.index())
    }

    /// Name of a row.
    pub fn row_name(&self, r: RowId) -> &str {
        self.row_names.get(r.index())
    }

    /// Bounds of a variable.
    pub fn bounds(&self, v: Var) -> (f64, f64) {
        let d = &self.vars[v.index()];
        (d.lb, d.ub)
    }

    /// Objective coefficient of a variable.
    pub fn obj_coef(&self, v: Var) -> f64 {
        self.vars[v.index()].obj
    }

    /// Current right-hand side of a row. Note that [`Model::add_row`] moves
    /// any constant inside the expression to the right-hand side, so this
    /// returns the stored (normalized) value — the same one
    /// [`Model::set_rhs`] replaces. Callers that refresh RHS values each
    /// step can compare against this to skip no-op writes (a
    /// [`crate::SolverSession`] treats any `set_rhs` as a pending mutation).
    pub fn rhs(&self, r: RowId) -> f64 {
        self.rows[r.index()].rhs
    }

    /// Evaluate a row's left-hand side under an assignment.
    pub fn row_lhs(&self, r: RowId, values: &[f64]) -> f64 {
        self.rows[r.index()].terms.iter().map(|&(j, c)| c * values[j as usize]).sum()
    }

    /// Solve the model to optimality with the revised simplex method.
    ///
    /// This is a one-shot convenience (always a cold solve, under
    /// [`SimplexOptions::default`] and [`SolverTuning::default`]). When the model
    /// will be mutated and re-solved — schedule re-optimization, lazy row
    /// generation — wrap it in a [`crate::SolverSession`] instead, which
    /// warm-starts each re-solve from the previous basis.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        let opts = SimplexOptions::default();
        solve_model_session(
            self,
            &opts,
            SolverTuning::default(),
            0,
            &Changes::default(),
            &mut Problem::default(),
        )
        .map(|(sol, _, _)| sol)
    }

    /// Move the model into a [`crate::SolverSession`] for incremental
    /// re-optimization.
    pub fn into_session(self) -> crate::SolverSession {
        crate::SolverSession::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_constant_moves_to_rhs() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        // x + 5 <= 8  ==  x <= 3
        m.add_row("r", 1.0 * x + 5.0, Cmp::Le, 8.0);
        assert_eq!(m.rows[0].rhs, 3.0);
    }

    #[test]
    #[should_panic(expected = "lb")]
    fn inverted_bounds_panic() {
        let mut m = Model::new(Sense::Minimize);
        m.add_var("x", 1.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn foreign_var_panics() {
        let mut m = Model::new(Sense::Minimize);
        let _x = m.add_var("x", 0.0, 1.0, 0.0);
        let mut other = Model::new(Sense::Minimize);
        other.add_row("r", 1.0 * Var(5), Cmp::Le, 1.0);
    }

    #[test]
    fn add_term_inserts_and_merges() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        let r = m.add_row("r", 1.0 * x, Cmp::Le, 4.0);
        let y = m.add_var("y", 0.0, 10.0, 1.0);
        m.add_term(r, y, 1.0);
        m.add_term(r, x, 2.0);
        assert_eq!(m.rows[0].terms, vec![(0, 3.0), (1, 1.0)]);
        // The extended row binds both variables.
        let sol = m.solve().unwrap();
        assert!((3.0 * sol.value(x) + sol.value(y) - 4.0).abs() < 1e-6);
    }

    /// A NaN cost, objective offset or right-hand side is refused where it
    /// enters, through the model or a session, instead of solving to `Ok`
    /// with a NaN objective. An infinite right-hand side stays legal.
    #[test]
    fn nan_cost_or_rhs_is_rejected() {
        use crate::{SolveOptions, SolverSession};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let refused = |what: &str, f: &mut dyn FnMut()| {
            assert!(catch_unwind(AssertUnwindSafe(f)).is_err(), "{what} accepted a NaN");
        };
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 1.0, 1.0);
        let cap = m.add_row("cap", 1.0 * x, Cmp::Le, 2.0);
        let mut s = SolverSession::new(m.clone());
        refused("Model::add_var", &mut || {
            let _ = m.add_var("y", 0.0, 1.0, f64::NAN);
        });
        refused("Model::set_obj", &mut || m.set_obj(x, f64::NAN));
        refused("Model::set_rhs", &mut || m.set_rhs(cap, f64::NAN));
        refused("Model::add_obj_offset", &mut || m.add_obj_offset(f64::NAN));
        s.solve(&SolveOptions::default()).unwrap();
        refused("SolverSession::add_var", &mut || {
            let _ = s.add_var("y", 0.0, 1.0, f64::NAN);
        });
        refused("SolverSession::set_obj", &mut || s.set_obj(x, f64::NAN));
        refused("SolverSession::set_rhs", &mut || s.set_rhs(cap, f64::NAN));
        refused("SolverSession::add_obj_offset", &mut || s.add_obj_offset(f64::NAN));
        s.set_rhs(cap, f64::INFINITY);
        assert_eq!(s.solve(&SolveOptions::default()).unwrap().objective(), 1.0);
        m.set_rhs(cap, f64::INFINITY);
        assert_eq!(m.solve().unwrap().objective(), 1.0);
    }

    #[test]
    fn duplicate_terms_merged_in_row() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 1.0, 0.0);
        m.add_row("r", 1.0 * x + 2.0 * x, Cmp::Le, 1.0);
        assert_eq!(m.rows[0].terms, vec![(0, 3.0)]);
    }
}

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

use crate::expr::{LinExpr, Term, Var};
use crate::simplex::{solve_model_session, Changes, Problem, SimplexOptions, SolverTuning};
use crate::solution::{Solution, SolveError};
use std::fmt;

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

/// Most ids one [`Name`] holds.
const MAX_IDS: usize = 4;

/// The name of a column or row, kept as its parts and rendered only when
/// it is read ([`Model::var_name`], [`Model::row_name`], error messages):
/// static text whose `{}` holes take the name's ids in order, optionally
/// followed by a second such template ([`Name::join`]), or borrowed text,
/// which the model copies. A builder that adds many columns names them
/// with [`Name::new`] and allocates nothing per name:
///
/// ```
/// use pretium_lp::{Model, Name, Sense};
/// let mut m = Model::new(Sense::Maximize);
/// let x = m.add_nonneg(Name::new("x_{}_{}", [3, 7]), 1.0);
/// let s = m.add_nonneg(Name::new("c_e{}", [5]).join("_s{}", [0]), 0.0);
/// let y = m.add_nonneg("y", 1.0);
/// assert_eq!([m.var_name(x), m.var_name(s), m.var_name(y)], ["x_3_7", "c_e5_s0", "y"]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Name<'a> {
    head: Head<'a>,
    /// Static text after the head; its holes take the ids the head leaves.
    tail: &'static str,
    ids: [u32; MAX_IDS],
    /// Ids in use.
    len: u8,
}

#[derive(Debug, Clone, Copy)]
enum Head<'a> {
    Template(&'static str),
    Text(&'a str),
}

impl Name<'static> {
    /// `template` with each `{}` replaced, in order, by the next of `ids`.
    pub fn new<const N: usize>(template: &'static str, ids: [usize; N]) -> Self {
        debug_assert_eq!(template.matches("{}").count(), N, "holes of `{template}`");
        Name { head: Head::Template(template), tail: "", ids: [0; MAX_IDS], len: 0 }.with(ids)
    }
}

impl<'a> Name<'a> {
    /// This name followed by `template`, whose `{}` holes take `ids`.
    pub fn join<const N: usize>(self, template: &'static str, ids: [usize; N]) -> Self {
        debug_assert!(self.tail.is_empty(), "a name joins one template");
        debug_assert_eq!(template.matches("{}").count(), N, "holes of `{template}`");
        Name { tail: template, ..self }.with(ids)
    }

    fn with<const N: usize>(mut self, ids: [usize; N]) -> Self {
        let from = self.len as usize;
        assert!(from + N <= MAX_IDS, "a name holds at most {MAX_IDS} ids");
        for (slot, id) in self.ids[from..from + N].iter_mut().zip(ids) {
            debug_assert!(u32::try_from(id).is_ok(), "name id {id} overflows u32");
            *slot = id as u32;
        }
        self.len += N as u8;
        self
    }
}

impl<'a> From<&'a str> for Name<'a> {
    fn from(text: &'a str) -> Self {
        Name { head: Head::Text(text), tail: "", ids: [0; MAX_IDS], len: 0 }
    }
}

impl<'a> From<&'a String> for Name<'a> {
    fn from(text: &'a String) -> Self {
        Name::from(text.as_str())
    }
}

impl fmt::Display for Name<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut ids = self.ids[..self.len as usize].iter().copied();
        match self.head {
            Head::Template(template) => fill(f, template, &mut ids)?,
            Head::Text(text) => f.write_str(text)?,
        }
        fill(f, self.tail, &mut ids)
    }
}

/// Write `template` with each `{}` replaced by the next of `ids`.
fn fill(
    f: &mut fmt::Formatter<'_>,
    template: &str,
    ids: &mut impl Iterator<Item = u32>,
) -> fmt::Result {
    let mut parts = template.split("{}");
    f.write_str(parts.next().unwrap_or_default())?;
    parts.try_for_each(|part| write!(f, "{}{part}", ids.next().unwrap_or(0)))
}

/// Head of an [`Entry`] whose text is `Names::text[ids[0]..ids[1]]`.
const TEXT: u16 = u16::MAX;

/// The names of a model's columns or rows as their parts: they are read
/// only by error paths and diagnostics, so a builder pays for no text and
/// an entry costs 20 bytes.
#[derive(Debug, Clone, Default)]
struct Names {
    /// The static templates the entries use.
    templates: Vec<&'static str>,
    /// Borrowed names, copied back to back.
    text: String,
    entries: Vec<Entry>,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Index into `templates`, or `TEXT` (the tail's ids then follow the
    /// text's range).
    head: u16,
    tail: u16,
    ids: [u32; MAX_IDS],
}

impl Names {
    fn push(&mut self, name: Name<'_>) {
        let tail = self.template(name.tail);
        let entry = match name.head {
            Head::Template(head) => Entry { head: self.template(head), tail, ids: name.ids },
            Head::Text(text) => {
                let len = name.len as usize;
                assert!(len + 2 <= MAX_IDS, "a borrowed name joins at most 2 ids");
                let from = self.text.len() as u32;
                self.text.push_str(text);
                let mut ids = [from, self.text.len() as u32, 0, 0];
                ids[2..2 + len].copy_from_slice(&name.ids[..len]);
                Entry { head: TEXT, tail, ids }
            }
        };
        self.entries.push(entry);
    }

    /// The index of `template` in `templates`, added on first use.
    fn template(&mut self, template: &'static str) -> u16 {
        if let Some(i) = self.templates.iter().rposition(|&t| std::ptr::eq(t, template)) {
            return i as u16;
        }
        assert!(self.templates.len() < TEXT as usize, "too many name templates");
        self.templates.push(template);
        (self.templates.len() - 1) as u16
    }

    fn get(&self, i: usize) -> Name<'_> {
        let Entry { head, tail, ids } = self.entries[i];
        let tail = self.templates[tail as usize];
        let len = MAX_IDS as u8;
        if head == TEXT {
            let text = &self.text[ids[0] as usize..ids[1] as usize];
            Name { head: Head::Text(text), tail, ids: [ids[2], ids[3], 0, 0], len }
        } else {
            Name { head: Head::Template(self.templates[head as usize]), tail, ids, len }
        }
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
    /// Compacted terms, ascending by variable.
    pub terms: Vec<Term>,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// What the next [`crate::SolverSession`] solve must re-read of a model,
/// kept by the model's own mutators (DESIGN.md §23).
#[derive(Debug, Clone, Default)]
pub(crate) struct Log {
    /// Stamp of the session solve the log runs from; `0` for none, and once
    /// an old row gains a term of an old column, which rewrites the factorized
    /// basis matrix. A session whose stamp differs runs cold.
    pub stamp: u64,
    /// Rows and structural columns of the standard form that solve left: a
    /// mutation below this watermark is logged, and what lies past it was
    /// appended since and is read whole. `(0, 0)` when there is none, so a
    /// model outside a session logs nothing.
    pub seen: (usize, usize),
    /// The mutations below the watermark.
    pub changes: Changes,
    /// Something changed since that solve, or none ran: no optimum holds.
    pub stale: bool,
}

impl Log {
    /// Forget the last session solve: log nothing until the next one, and
    /// hold its optimum stale.
    pub fn reset(&mut self) {
        let c = &mut self.changes;
        [&mut c.bounds, &mut c.costs, &mut c.rhs, &mut c.tails].into_iter().for_each(Vec::clear);
        (self.stamp, self.seen, self.stale) = (0, (0, 0), true);
    }
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
    pub(crate) log: Log,
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
            log: Log { stale: true, ..Log::default() },
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
    pub fn add_var<'n>(&mut self, name: impl Into<Name<'n>>, lb: f64, ub: f64, obj: f64) -> Var {
        let name = name.into();
        assert!(!lb.is_nan() && !ub.is_nan(), "variable bound is NaN");
        assert!(lb <= ub, "variable `{name}` has lb {lb} > ub {ub}");
        assert!(!obj.is_nan(), "variable `{name}` objective is NaN");
        let idx = self.vars.len();
        assert!(idx < u32::MAX as usize, "too many variables");
        self.var_names.push(name);
        self.vars.push(VarData { lb, ub, obj });
        self.log.stale = true;
        Var(idx as u32)
    }

    /// Convenience: non-negative variable `[0, ∞)`.
    pub fn add_nonneg<'n>(&mut self, name: impl Into<Name<'n>>, obj: f64) -> Var {
        self.add_var(name, 0.0, f64::INFINITY, obj)
    }

    /// Convenience: free variable `(-∞, ∞)`.
    pub fn add_free<'n>(&mut self, name: impl Into<Name<'n>>, obj: f64) -> Var {
        self.add_var(name, f64::NEG_INFINITY, f64::INFINITY, obj)
    }

    /// Add the constraint `expr cmp rhs`. Constants inside `expr` are moved
    /// to the right-hand side. Returns a handle for reading the row's dual
    /// value. The row keeps the expression's own term buffer: a row costs
    /// no allocation beyond the ones that built its expression.
    ///
    /// # Panics
    /// Panics if the expression references a variable not belonging to this
    /// model, or if `rhs` is NaN.
    pub fn add_row<'n>(
        &mut self,
        name: impl Into<Name<'n>>,
        expr: impl Into<LinExpr>,
        cmp: Cmp,
        rhs: f64,
    ) -> RowId {
        let name = name.into();
        assert!(!rhs.is_nan(), "row `{name}` rhs is NaN");
        let mut expr = expr.into();
        expr.compact();
        for t in expr.terms() {
            assert!(
                t.var.index() < self.vars.len(),
                "row `{name}` references unknown variable index {}",
                t.var.index()
            );
            assert!(t.coef.is_finite(), "row `{name}` has non-finite coefficient");
        }
        let idx = self.rows.len();
        assert!(idx < u32::MAX as usize, "too many rows");
        self.row_names.push(name);
        let rhs = rhs - expr.constant();
        self.rows.push(RowData { terms: expr.into_terms(), cmp, rhs });
        self.log.stale = true;
        RowId(idx as u32)
    }

    /// Add `coef · v` to an existing row's left-hand side, merging with any
    /// term the row already carries for `v`. This is how incrementally grown
    /// models retrofit a newly added variable into rows that were
    /// materialized earlier (e.g. a new job entering an existing capacity
    /// constraint). A term of an appended column, or in an appended row,
    /// leaves the last session solve's basis reusable; one of an old column
    /// in an old row makes the next solve run cold.
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
        match row.terms.binary_search_by_key(&v, |t| t.var) {
            Ok(i) => row.terms[i].coef += coef,
            Err(i) => row.terms.insert(i, Term { coef, var: v }),
        }
        let (rows, cols) = self.log.seen;
        if r.index() < rows && v.index() < cols {
            self.log.stamp = 0;
        } else if r.index() < rows {
            self.log.changes.tails.push(r.0);
        }
        self.log.stale = true;
    }

    /// Replace the objective coefficient of `v`.
    ///
    /// # Panics
    /// Panics if `obj` is NaN.
    pub fn set_obj(&mut self, v: Var, obj: f64) {
        assert!(!obj.is_nan(), "set_obj: objective of `{}` is NaN", self.var_name(v));
        self.vars[v.index()].obj = obj;
        if v.index() < self.log.seen.1 {
            self.log.changes.costs.push(v.0);
        }
        self.log.stale = true;
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
        if v.index() < self.log.seen.1 {
            self.log.changes.bounds.push(v.0);
        }
        self.log.stale = true;
    }

    /// Replace the right-hand side of a row (an infinite one is legal).
    ///
    /// # Panics
    /// Panics if `rhs` is NaN.
    pub fn set_rhs(&mut self, r: RowId, rhs: f64) {
        assert!(!rhs.is_nan(), "set_rhs: row `{}` rhs is NaN", self.row_name(r));
        self.rows[r.index()].rhs = rhs;
        if r.index() < self.log.seen.0 {
            self.log.changes.rhs.push(r.0);
        }
        self.log.stale = true;
    }

    /// Add a constant to the objective function (reported in
    /// [`Solution::objective`]).
    ///
    /// # Panics
    /// Panics if `c` is NaN.
    pub fn add_obj_offset(&mut self, c: f64) {
        assert!(!c.is_nan(), "add_obj_offset: offset is NaN");
        self.obj_offset += c;
        self.log.stale = true;
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraint rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Name of a variable (as given to [`Model::add_var`]), rendered.
    pub fn var_name(&self, v: Var) -> String {
        self.var_names.get(v.index()).to_string()
    }

    /// Name of a row, rendered.
    pub fn row_name(&self, r: RowId) -> String {
        self.row_names.get(r.index()).to_string()
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
    /// step can compare against this to skip no-op writes (any `set_rhs`
    /// voids a [`crate::SolverSession`]'s cached optimum).
    pub fn rhs(&self, r: RowId) -> f64 {
        self.rows[r.index()].rhs
    }

    /// The coefficient of `v` in row `r` (zero when the row has no term of
    /// it).
    pub fn coef(&self, r: RowId, v: Var) -> f64 {
        let terms = &self.rows[r.index()].terms;
        terms.binary_search_by_key(&v, |t| t.var).map_or(0.0, |i| terms[i].coef)
    }

    /// Evaluate a row's left-hand side under an assignment.
    pub fn row_lhs(&self, r: RowId, values: &[f64]) -> f64 {
        self.rows[r.index()].terms.iter().map(|t| t.coef * values[t.var.index()]).sum()
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
        let mut sol = Solution::empty();
        solve_model_session(
            self,
            &opts,
            SolverTuning::default(),
            0,
            &mut Changes::default(),
            &mut Problem::default(),
            &mut sol,
        )?;
        Ok(sol)
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
        assert_eq!(m.rows[0].terms, [Term { coef: 3.0, var: x }, Term { coef: 1.0, var: y }]);
        // The extended row binds both variables.
        let sol = m.solve().unwrap();
        assert!((3.0 * sol.value(x) + sol.value(y) - 4.0).abs() < 1e-6);
    }

    /// A NaN cost, objective offset or right-hand side is refused where it
    /// enters the model, instead of solving to `Ok` with a NaN objective. An
    /// infinite right-hand side stays legal, in a one-shot and a carried
    /// solve.
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
        s.model_mut().set_rhs(cap, f64::INFINITY);
        assert_eq!(s.solve(&SolveOptions::default()).unwrap().objective(), 1.0);
        // And back: a carried start has no finite `Δb` for this row.
        s.model_mut().set_rhs(cap, 0.5);
        assert_eq!(s.solve(&SolveOptions::default()).unwrap().objective(), 0.5);
        assert_ne!(s.last_restart(), Some(crate::Restart::Cold));
        m.set_rhs(cap, f64::INFINITY);
        assert_eq!(m.solve().unwrap().objective(), 1.0);
    }

    #[test]
    fn duplicate_terms_merged_in_row() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, 1.0, 0.0);
        m.add_row("r", 1.0 * x + 2.0 * x, Cmp::Le, 1.0);
        assert_eq!(m.rows[0].terms, [Term { coef: 3.0, var: x }]);
    }
}

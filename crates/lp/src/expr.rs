//! Linear expressions over model variables.
//!
//! A [`LinExpr`] is a sum of `coefficient * variable` terms plus a constant
//! offset. Expressions are built either through the fluent
//! [`LinExpr::term`] API or with the `+` / `*` operators:
//!
//! ```
//! use pretium_lp::{Model, Sense, LinExpr};
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_var("x", 0.0, 10.0, 1.0);
//! let y = m.add_var("y", 0.0, 10.0, 1.0);
//! let e = 2.0 * x + 3.0 * y + 1.0;
//! assert_eq!(e.constant(), 1.0);
//! ```

use rand::{DetHashMap as HashMap, DetState};
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// Handle to a decision variable in a [`crate::Model`].
///
/// `Var`s are cheap copyable indices. They are only meaningful for the model
/// that created them; using a `Var` from one model in another is a logic
/// error that the model detects by bounds-checking the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub(crate) u32);

impl Var {
    /// The dense index of this variable inside its model (0-based, in
    /// creation order).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct a variable handle from a raw index.
    ///
    /// Intended for tooling that serializes models; prefer keeping the
    /// handles returned by [`crate::Model::add_var`].
    #[inline]
    pub fn from_index(i: usize) -> Self {
        Var(i as u32)
    }
}

/// A single `coefficient * variable` term.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Term {
    pub coef: f64,
    pub var: Var,
}

/// A linear expression: `Σ coef_j · var_j + constant`.
///
/// Duplicate variables are allowed while building; they are merged by
/// [`LinExpr::compact`] (called automatically when a row is added to a
/// model).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    terms: Vec<Term>,
    constant: f64,
}

impl LinExpr {
    /// The empty expression (`0`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build an expression from `(coefficient, variable)` pairs.
    pub fn from_terms<I: IntoIterator<Item = (f64, Var)>>(iter: I) -> Self {
        let mut e = LinExpr::new();
        for (c, v) in iter {
            e.add_term(c, v);
        }
        e
    }

    /// Append `coef * var`; returns `self` for chaining.
    pub fn term(mut self, coef: f64, var: Var) -> Self {
        self.add_term(coef, var);
        self
    }

    /// Append `coef * var` in place.
    pub fn add_term(&mut self, coef: f64, var: Var) {
        if coef != 0.0 {
            self.terms.push(Term { coef, var });
        }
    }

    /// Add a constant offset; returns `self` for chaining.
    pub fn plus(mut self, c: f64) -> Self {
        self.constant += c;
        self
    }

    /// The constant offset of the expression.
    #[inline]
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Iterate over the (possibly non-compacted) terms.
    pub fn terms(&self) -> impl Iterator<Item = &Term> {
        self.terms.iter()
    }

    /// Number of stored terms (before merging duplicates).
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True if the expression has no variable terms.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Merge duplicate variables and drop zero coefficients. Term order is
    /// ascending by variable index afterwards.
    pub fn compact(&mut self) {
        if self.terms.len() <= 1 {
            return;
        }
        self.terms.sort_by_key(|t| t.var);
        let mut out: Vec<Term> = Vec::with_capacity(self.terms.len());
        for t in self.terms.drain(..) {
            match out.last_mut() {
                Some(last) if last.var == t.var => last.coef += t.coef,
                _ => out.push(t),
            }
        }
        out.retain(|t| t.coef != 0.0);
        self.terms = out;
    }

    /// Evaluate the expression given a dense assignment of variable values.
    ///
    /// # Panics
    /// Panics if a term references a variable index `>= values.len()`.
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.constant + self.terms.iter().map(|t| t.coef * values[t.var.index()]).sum::<f64>()
    }

    /// The expression as a map `var -> merged coefficient`.
    pub fn coefficients(&self) -> HashMap<Var, f64> {
        let mut m = HashMap::with_capacity_and_hasher(self.terms.len(), DetState);
        for t in &self.terms {
            *m.entry(t.var).or_insert(0.0) += t.coef;
        }
        m.retain(|_, c| *c != 0.0);
        m
    }

    /// Multiply every coefficient (and the constant) by `s`.
    pub fn scale(&mut self, s: f64) {
        for t in &mut self.terms {
            t.coef *= s;
        }
        self.constant *= s;
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for t in &self.terms {
            if first {
                write!(f, "{}·x{}", t.coef, t.var.0)?;
                first = false;
            } else if t.coef < 0.0 {
                write!(f, " - {}·x{}", -t.coef, t.var.0)?;
            } else {
                write!(f, " + {}·x{}", t.coef, t.var.0)?;
            }
        }
        if self.constant != 0.0 || first {
            if first {
                write!(f, "{}", self.constant)?;
            } else if self.constant < 0.0 {
                write!(f, " - {}", -self.constant)?;
            } else {
                write!(f, " + {}", self.constant)?;
            }
        }
        Ok(())
    }
}

// --- operator sugar -------------------------------------------------------

impl From<Var> for LinExpr {
    fn from(v: Var) -> Self {
        LinExpr::new().term(1.0, v)
    }
}

impl Mul<Var> for f64 {
    type Output = LinExpr;
    fn mul(self, v: Var) -> LinExpr {
        LinExpr::new().term(self, v)
    }
}

impl Mul<f64> for Var {
    type Output = LinExpr;
    fn mul(self, c: f64) -> LinExpr {
        LinExpr::new().term(c, self)
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
        self
    }
}

impl Add<Var> for LinExpr {
    type Output = LinExpr;
    fn add(self, v: Var) -> LinExpr {
        self.term(1.0, v)
    }
}

impl Add<LinExpr> for Var {
    type Output = LinExpr;
    fn add(self, e: LinExpr) -> LinExpr {
        e.term(1.0, self)
    }
}

impl Add<Var> for Var {
    type Output = LinExpr;
    fn add(self, other: Var) -> LinExpr {
        LinExpr::new().term(1.0, self).term(1.0, other)
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(self, c: f64) -> LinExpr {
        self.plus(c)
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: LinExpr) -> LinExpr {
        for t in rhs.terms {
            self.terms.push(Term { coef: -t.coef, var: t.var });
        }
        self.constant -= rhs.constant;
        self
    }
}

impl Sub<Var> for LinExpr {
    type Output = LinExpr;
    fn sub(self, v: Var) -> LinExpr {
        self.term(-1.0, v)
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        self.scale(-1.0);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Var {
        Var(i)
    }

    #[test]
    fn build_and_eval() {
        let e = 2.0 * v(0) + 3.0 * v(1) + 1.5;
        assert_eq!(e.eval(&[1.0, 2.0]), 2.0 + 6.0 + 1.5);
    }

    #[test]
    fn compact_merges_duplicates() {
        let mut e = LinExpr::from_terms([(1.0, v(1)), (2.0, v(0)), (3.0, v(1))]);
        e.compact();
        let coefs = e.coefficients();
        assert_eq!(coefs[&v(0)], 2.0);
        assert_eq!(coefs[&v(1)], 4.0);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn compact_drops_cancelled_terms() {
        let mut e = LinExpr::from_terms([(1.0, v(0)), (-1.0, v(0))]);
        e.compact();
        assert!(e.is_empty());
    }

    #[test]
    fn zero_coefficient_ignored_on_add() {
        let e = LinExpr::new().term(0.0, v(0));
        assert!(e.is_empty());
    }

    #[test]
    fn sub_and_neg() {
        let a = 2.0 * v(0) + 1.0;
        let b = 1.0 * v(0) + 0.5;
        let d = a - b;
        assert_eq!(d.eval(&[3.0]), 2.0 * 3.0 + 1.0 - (3.0 + 0.5));
        let n = -(1.0 * v(0) + 2.0);
        assert_eq!(n.eval(&[4.0]), -6.0);
    }

    #[test]
    fn display_formats_signs() {
        let e = 1.0 * v(0) + (-2.0) * v(1) + (-0.5);
        let s = format!("{e}");
        assert!(s.contains("- 2·x1"), "{s}");
        assert!(s.contains("- 0.5"), "{s}");
    }

    #[test]
    fn scale_affects_constant() {
        let mut e = 2.0 * v(0) + 4.0;
        e.scale(0.5);
        assert_eq!(e.eval(&[1.0]), 1.0 + 2.0);
    }
}

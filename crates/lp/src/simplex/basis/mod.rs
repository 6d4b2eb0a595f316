//! Basis factorization for the revised simplex method: sparse LU with
//! Markowitz pivoting and Forrest–Tomlin updates.
//!
//! LP bases from network scheduling problems are extremely sparse: most
//! basic columns are slacks (singletons) and the rest are short flow
//! columns. Refactorization therefore runs *sparse Gaussian elimination*
//! with Markowitz pivot selection — each step pivots on an entry
//! minimizing the fill bound `(r_i − 1)(c_j − 1)` among candidates passing
//! a relative stability threshold — producing sparse `L`/`U` factors plus
//! row and column permutations (`markowitz`).
//!
//! Basis exchanges between refactorizations apply *Forrest–Tomlin
//! updates* (`ft_update`): the entering column's spike replaces a column
//! of `U`, the replaced pivot rotates to the end of the pivot order, and
//! the stranded row is eliminated into a growing file of row etas. `U`
//! stays genuinely triangular after every update, so FTRAN/BTRAN never
//! degrade the way a product-form eta file does; the factorization is
//! rebuilt when the update file reaches `max_etas` or an update's new
//! pivot is below tolerance. A row appended to the LP with its slack basic
//! *borders* the factors the same way (`Factorization::append_row`): one
//! row elimination, one more row eta, no refactorization.
//!
//! The solve kernels (`sparse`) are the classic simplex primitives, each in
//! two forms: a sweep over every slot for a dense right-hand side, and a
//! reach-ordered form for the sparse ones a pivot issues, which visits only
//! the slots the right-hand side reaches and returns bitwise the sweep's
//! result:
//! * `ftran` / `ftran_dense`: solve `B·w = a` (entering column, basic values),
//! * `btran_row` / `btran`: solve `yᵀ·B = cᵀ` (a row of `B⁻¹`, the duals).
//!
//! The previous dense-bump kernel (triangularization pre-pass + dense LU
//! on the residual bump + product-form etas) survives as a *reference
//! implementation* in [`dense_ref`] for torture tests and benchmarks; it
//! is no longer on any solve path.

pub(crate) mod arena;
pub mod dense_ref;
mod ft_update;
mod markowitz;
mod sparse;

use arena::SegArena;
pub(crate) use sparse::BitQueue;

/// Sparse column: `(row, value)` pairs, rows strictly increasing.
pub type SparseCol = Vec<(u32, f64)>;

/// Default cap on Forrest–Tomlin updates between refactorizations.
///
/// [`Factorization::set_limits`] substitutes it for a zero limit — the one
/// place `SolverTuning::max_etas: 0` is resolved.
pub const DEFAULT_MAX_ETAS: usize = 96;

/// Errors from factorization.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorError {
    /// The basis matrix is numerically singular; the offending elimination
    /// step is reported.
    Singular { position: usize },
}

/// Cumulative factorization work counters, reported per solve through
/// `Solution::factor_stats` and aggregated into `SessionStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FactorStats {
    /// Refactorizations (sparse Markowitz eliminations) performed.
    pub refactors: u64,
    /// Nonzeros of the basis columns handed to `refactor`, summed over
    /// refactorizations (the fill-in ratio denominator).
    pub basis_nnz: u64,
    /// Nonzeros of the computed `L`+`U` factors (diagonal included),
    /// summed over refactorizations (the fill-in ratio numerator).
    pub factor_nnz: u64,
    /// Forrest–Tomlin updates absorbed without refactorizing.
    pub ft_updates: u64,
    /// Updates refused because the new pivot fell below tolerance (each
    /// forces the caller to refactorize).
    pub pivot_rejections: u64,
    /// Rows bordered onto the factors by [`Factorization::append_row`].
    pub bordered_rows: u64,
    /// Forward solves (`ftran` and `ftran_dense`).
    pub ftrans: u64,
    /// Backward solves (`btran`).
    pub btrans: u64,
}

impl FactorStats {
    /// Factor nonzeros per basis nonzero across all refactorizations
    /// (`1.0` = no fill-in at all).
    pub fn fill_ratio(&self) -> f64 {
        self.factor_nnz as f64 / self.basis_nnz.max(1) as f64
    }

    /// The work done since `earlier`, an older reading of the same
    /// counters (a factorization outlives a solve; a solve reports its own
    /// share).
    pub fn since(&self, earlier: FactorStats) -> FactorStats {
        FactorStats {
            refactors: self.refactors - earlier.refactors,
            basis_nnz: self.basis_nnz - earlier.basis_nnz,
            factor_nnz: self.factor_nnz - earlier.factor_nnz,
            ft_updates: self.ft_updates - earlier.ft_updates,
            pivot_rejections: self.pivot_rejections - earlier.pivot_rejections,
            bordered_rows: self.bordered_rows - earlier.bordered_rows,
            ftrans: self.ftrans - earlier.ftrans,
            btrans: self.btrans - earlier.btrans,
        }
    }
}

/// Sparse LU factorization `P·B·Q = L·U` with a Forrest–Tomlin update
/// file.
///
/// Internally every pivot owns a *slot*, numbered in the elimination
/// order of the last refactorization. `L` is fixed between
/// refactorizations and applied in slot order; `U` is maintained in both
/// column- and row-major form so updates can delete/insert rows, and its
/// pivot order (`perm`) starts as the slot order and is rotated by each
/// update. Slots map to original rows (`row_of_slot`) and basis positions
/// (`pos_of_slot`), which is how the external API keeps speaking the
/// row/position language of the solver.
///
/// Every list family is a flat buffer and the elimination workspace lives
/// in the object, so one `Factorization` can be refactorized again and
/// again — at any size — without touching the heap once its buffers have
/// grown to the largest basis seen.
#[derive(Debug, Clone, Default)]
pub struct Factorization {
    m: usize,
    /// Columns of unit-lower-triangular `L` by slot, back to back:
    /// column `k` is `l_data[l_start[k]..l_start[k + 1]]`, `(slot,
    /// multiplier)` entries at slots eliminated later. Static between
    /// refactors.
    l_start: Vec<u32>,
    l_data: Vec<(u32, f64)>,
    /// Row index of `L`, built with it: row `s` is
    /// `lrow_data[lrow_start[s]..lrow_start[s + 1]]`, the columns of `L`
    /// with an entry at slot `s`. It finds the reach of `Lᵀ`.
    lrow_start: Vec<u32>,
    lrow_data: Vec<u32>,
    /// Off-diagonal columns of `U` by slot: `(slot, value)` entries at
    /// slots earlier in the current pivot order.
    ucols: SegArena<(u32, f64)>,
    /// Row-major mirror of `ucols` (needed by the FT update).
    urows: SegArena<(u32, f64)>,
    /// Diagonal of `U` by slot.
    udiag: Vec<f64>,
    /// Current pivot order: `perm[i]` = slot eliminated `i`-th.
    perm: Vec<u32>,
    /// Inverse of `perm`: `ord[slot]` = its position in the pivot order.
    ord: Vec<u32>,
    /// Original row held by each slot.
    row_of_slot: Vec<u32>,
    /// Inverse of `row_of_slot`.
    slot_of_row: Vec<u32>,
    /// Basis position (column of `B`) held by each slot.
    pos_of_slot: Vec<u32>,
    /// Inverse of `pos_of_slot`.
    slot_of_pos: Vec<u32>,
    /// Forrest–Tomlin row-eta file, chronological: eta `e` eliminated the
    /// row of `U` at slot `eta_slot[e]` (rotated to the end of the pivot
    /// order) against `eta_terms[eta_start[e]..eta_start[e + 1]]`,
    /// `(slot, multiplier)` terms in pivot order.
    eta_slot: Vec<u32>,
    eta_start: Vec<u32>,
    eta_terms: Vec<(u32, f64)>,
    /// Updates absorbed since the last refactorization (identity updates
    /// store no eta but still count toward the cadence).
    updates: usize,
    /// Rebuild threshold for the update file.
    max_etas: usize,
    /// Absolute pivot tolerance.
    pivot_tol: f64,
    // --- scratch buffers reused across calls (no steady-state allocs) ----
    /// Slot-space work vector of the solve kernels and of the row
    /// elimination; all-zero between calls.
    z: Vec<f64>,
    /// Reach of the sparse kernels and the row elimination, keyed by the
    /// order each stage visits it in; all-zero between calls.
    queue: BitQueue,
    /// Slots a sparse kernel's stage left nonzero.
    reach: Vec<u32>,
    /// What the last FTRAN held after `L` and the row etas, before `U`:
    /// the Forrest–Tomlin spike of the column it solved for, zero outside
    /// `spike_nz` (its nonzero slots, ascending).
    spike: Vec<f64>,
    spike_nz: Vec<u32>,
    /// `spike` belongs to the current factors: an `ftran` wrote it and
    /// neither a refactorization nor an update has happened since.
    spike_live: bool,
    /// Markowitz elimination workspace.
    ws: markowitz::Workspace,
    stats: FactorStats,
}

impl Factorization {
    /// Create an empty factorization with the given limits; call
    /// [`Factorization::refactor`] before solving with it (every
    /// refactorization takes its size from the columns it is handed).
    /// `max_etas: 0` selects [`DEFAULT_MAX_ETAS`].
    pub fn new(max_etas: usize, pivot_tol: f64) -> Self {
        let mut f = Factorization::default();
        f.set_limits(max_etas, pivot_tol);
        f
    }

    /// Replace the update-file limit and the pivot tolerance (a resident
    /// factorization serves solves with different options).
    pub fn set_limits(&mut self, max_etas: usize, pivot_tol: f64) {
        self.max_etas = if max_etas == 0 { DEFAULT_MAX_ETAS } else { max_etas };
        self.pivot_tol = pivot_tol;
    }

    /// Number of row etas accumulated since the last refactorization.
    pub fn eta_count(&self) -> usize {
        self.eta_slot.len()
    }

    /// Cumulative work counters over this factorization's lifetime.
    pub fn stats(&self) -> FactorStats {
        self.stats
    }

    /// Nonzeros currently held in `L` and `U` (diagonal included) — the
    /// fill-in diagnostic for the *current* factors.
    pub fn factor_nnz(&self) -> usize {
        self.m + self.l_data.len() + self.ucols.total_len()
    }

    /// True when the update file has grown enough that the caller should
    /// refactorize. Doubles as the solver's pricing drift-guard cadence,
    /// so it counts *updates* (including identity ones that stored no
    /// eta), not stored etas.
    pub fn wants_refactor(&self) -> bool {
        self.updates_left() == 0
    }

    /// Updates (bordered rows included) the file still takes before
    /// [`Factorization::wants_refactor`] turns true.
    pub fn updates_left(&self) -> usize {
        self.max_etas.saturating_sub(self.updates)
    }

    /// Factorize the basis given by `columns` (one sparse column per basis
    /// position) by Markowitz elimination. Clears the update file and
    /// resets the pivot order. The factors are written in place: after an
    /// `Err` the object holds neither the old basis nor the new one and must
    /// not be solved or updated with until a later `refactor` succeeds.
    pub fn refactor(&mut self, columns: &[&SparseCol]) -> Result<(), FactorError> {
        self.refactor_with(columns.len(), |pos, sink| sink(columns[pos]))
    }

    /// [`Factorization::refactor`] for columns that are not stored as
    /// `SparseCol`s: `column(pos, sink)` hands the entries of basis position
    /// `pos` (rows strictly increasing) to `sink`, once.
    pub(crate) fn refactor_with(
        &mut self,
        m: usize,
        column: impl Fn(usize, &mut dyn FnMut(&[(u32, f64)])),
    ) -> Result<(), FactorError> {
        markowitz::refactorize(self, m, column)
    }

    /// Solve `B·w = a` for a sparse column `a` in original row coordinates
    /// (rows distinct), visiting only the slots `a` reaches: bitwise
    /// [`Factorization::ftran_dense`] of `a` scattered, up to the sign of a
    /// zero. `out` is indexed by basis *position* and zero outside `out_nz`,
    /// its nonzero positions ascending; hand the pair back as the last call
    /// left it (or empty), as only the listed entries are cleared.
    pub fn ftran(&mut self, a: &[(u32, f64)], out: &mut Vec<f64>, out_nz: &mut Vec<u32>) {
        sparse::ftran(self, a, out, out_nz);
    }

    /// Like [`Factorization::ftran`] but with a dense right-hand side in
    /// original row coordinates, swept slot by slot; `out` is overwritten
    /// whole.
    pub fn ftran_dense(&mut self, a: &[f64], out: &mut Vec<f64>) {
        sparse::ftran_dense(self, a, out);
    }

    /// Row `pos` of `B⁻¹` (`yᵀ·B = e_posᵀ`) over the unit vector's reach:
    /// bitwise [`Factorization::btran`] of `e_pos`, up to the sign of a zero.
    /// `out` is indexed by original row, zero outside `out_nz`, with the
    /// hand-back rule of [`Factorization::ftran`].
    pub fn btran_row(&mut self, pos: usize, out: &mut Vec<f64>, out_nz: &mut Vec<u32>) {
        sparse::btran_row(self, pos, out, out_nz);
    }

    /// Solve `yᵀ·B = cᵀ` where `c` is dense, indexed by basis position,
    /// swept slot by slot. The result `y` is dense, indexed by original row.
    pub fn btran(&mut self, c: &[f64], out: &mut Vec<f64>) {
        sparse::btran(self, c, out);
    }

    /// Record a pivot: basis position `pos` is replaced by the column of
    /// this object's most recent [`Factorization::ftran`], whose spike the
    /// solve left behind.
    ///
    /// Returns `false`, with nothing modified, when the caller should
    /// refactorize instead: the update's new pivot element is too small to
    /// be stable, or there is no such spike — no `ftran` since the last
    /// refactorization or update of this object (a solve on another object,
    /// a clone included, does not count).
    pub fn update(&mut self, pos: usize) -> bool {
        ft_update::apply(self, pos)
    }

    /// Grow the factored basis by one row and one column: the new row has
    /// the entries `row`, `(basis position, value)` with positions distinct,
    /// on the old columns, and the new column — the last basis position — is
    /// the unit vector of the new row (its slack). Costs one row elimination
    /// and counts as one update toward the refactorization cadence; never
    /// refused, because the new pivot is exactly 1.
    pub fn append_row(&mut self, row: &[(u32, f64)]) {
        ft_update::append_row(self, row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(entries: &[(u32, f64)]) -> SparseCol {
        entries.to_vec()
    }

    /// Build a factorization of the given dense matrix (column-major input).
    fn factor_of(cols: &[Vec<f64>]) -> Factorization {
        let sparse: Vec<SparseCol> = cols
            .iter()
            .map(|c| {
                c.iter()
                    .enumerate()
                    .filter(|(_, &v)| v != 0.0)
                    .map(|(i, &v)| (i as u32, v))
                    .collect()
            })
            .collect();
        let refs: Vec<&SparseCol> = sparse.iter().collect();
        let mut f = Factorization::new(32, 1e-12);
        f.refactor(&refs).unwrap();
        f
    }

    fn matvec(cols: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        let m = cols.len();
        let mut out = vec![0.0; m];
        for (j, c) in cols.iter().enumerate() {
            for i in 0..m {
                out[i] += c[i] * x[j];
            }
        }
        out
    }

    #[test]
    fn ftran_identity() {
        let cols = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let mut f = factor_of(&cols);
        let (mut w, mut nz) = (Vec::new(), Vec::new());
        f.ftran(&col(&[(0, 3.0), (1, 4.0)]), &mut w, &mut nz);
        assert_eq!((w, nz), (vec![3.0, 4.0], vec![0, 1]));
    }

    #[test]
    fn ftran_solves_general_3x3() {
        let cols = vec![vec![2.0, 1.0, 0.0], vec![0.0, 3.0, 1.0], vec![1.0, 0.0, 2.0]];
        let mut f = factor_of(&cols);
        let a = col(&[(0, 5.0), (1, 4.0), (2, 3.0)]);
        let mut w = Vec::new();
        f.ftran(&a, &mut w, &mut Vec::new());
        let bx = matvec(&cols, &w);
        for (got, want) in bx.iter().zip([5.0, 4.0, 3.0]) {
            assert!((got - want).abs() < 1e-10, "{bx:?}");
        }
    }

    #[test]
    fn btran_solves_transpose() {
        let cols = vec![vec![2.0, 1.0, 0.0], vec![0.0, 3.0, 1.0], vec![1.0, 0.0, 2.0]];
        let mut f = factor_of(&cols);
        let c = [1.0, 2.0, 3.0];
        let mut y = Vec::new();
        f.btran(&c, &mut y);
        for (j, colj) in cols.iter().enumerate() {
            let dot: f64 = y.iter().zip(colj).map(|(a, b)| a * b).sum();
            assert!((dot - c[j]).abs() < 1e-10, "col {j}: {dot} vs {}", c[j]);
        }
    }

    #[test]
    fn slack_heavy_basis_has_no_fill() {
        // Mostly unit columns plus two sparse ones — mimics an LP basis.
        // Markowitz should eliminate it without any fill-in.
        let m = 8;
        let mut cols: Vec<Vec<f64>> = (0..m)
            .map(|j| {
                let mut c = vec![0.0; m];
                c[j] = 1.0;
                c
            })
            .collect();
        cols[3] = vec![1.0, 0.0, 2.0, 3.0, 0.0, 1.0, 0.0, 0.0];
        cols[6] = vec![0.0, 1.0, 0.0, 1.0, 2.0, 0.0, 4.0, 1.0];
        let mut f = factor_of(&cols);
        let nnz: usize = cols.iter().map(|c| c.iter().filter(|&&v| v != 0.0).count()).sum();
        assert!(f.factor_nnz() <= nnz, "fill-in on a near-triangular basis: {}", f.factor_nnz());
        let rhs: Vec<f64> = (0..m).map(|i| (i + 1) as f64).collect();
        let mut w = Vec::new();
        f.ftran_dense(&rhs, &mut w);
        let bx = matvec(&cols, &w);
        for (got, want) in bx.iter().zip(&rhs) {
            assert!((got - want).abs() < 1e-9, "{bx:?}");
        }
        let c: Vec<f64> = (0..m).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let mut y = Vec::new();
        f.btran(&c, &mut y);
        for (j, colj) in cols.iter().enumerate() {
            let dot: f64 = y.iter().zip(colj).map(|(a, b)| a * b).sum();
            assert!((dot - c[j]).abs() < 1e-9);
        }
    }

    #[test]
    fn singular_matrix_detected() {
        let cols = [vec![1.0, 2.0], vec![2.0, 4.0]];
        let sparse: Vec<SparseCol> = cols
            .iter()
            .map(|c| c.iter().enumerate().map(|(i, &v)| (i as u32, v)).collect())
            .collect();
        let refs: Vec<&SparseCol> = sparse.iter().collect();
        let mut f = Factorization::new(32, 1e-12);
        assert!(matches!(f.refactor(&refs), Err(FactorError::Singular { .. })));
    }

    #[test]
    fn ft_update_matches_refactor() {
        let ident = vec![vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]];
        let mut f = factor_of(&ident);
        let a = col(&[(0, 1.0), (1, 2.0), (2, 1.0)]);
        let (mut w, mut nz) = (Vec::new(), Vec::new());
        f.ftran(&a, &mut w, &mut nz);
        assert!(f.update(1));
        let newb = vec![vec![1.0, 0.0, 0.0], vec![1.0, 2.0, 1.0], vec![0.0, 0.0, 1.0]];
        let rhs = col(&[(0, 2.0), (1, 7.0), (2, 5.0)]);
        let mut via_eta = Vec::new();
        f.ftran(&rhs, &mut via_eta, &mut Vec::new());
        let mut fresh = factor_of(&newb);
        let mut via_fresh = Vec::new();
        fresh.ftran(&rhs, &mut via_fresh, &mut Vec::new());
        for (a, b) in via_eta.iter().zip(&via_fresh) {
            assert!((a - b).abs() < 1e-10, "{via_eta:?} vs {via_fresh:?}");
        }
        let c = [3.0, 1.0, -2.0];
        let mut y1 = Vec::new();
        let mut y2 = Vec::new();
        f.btran(&c, &mut y1);
        fresh.btran(&c, &mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-10, "{y1:?} vs {y2:?}");
        }
    }

    #[test]
    fn repeated_ft_updates_stay_consistent() {
        // Chain several updates on a non-trivial basis and cross-check
        // against a fresh factorization of the final column set.
        let m = 6;
        let mut cols: Vec<Vec<f64>> = (0..m)
            .map(|j| {
                let mut c = vec![0.0; m];
                c[j] = 2.0;
                c[(j + 2) % m] = 1.0;
                c
            })
            .collect();
        let mut f = factor_of(&cols);
        for (step, &(pos, shift)) in [(1usize, 3usize), (4, 1), (1, 5), (2, 4)].iter().enumerate() {
            let mut newcol = vec![0.0; m];
            newcol[pos] = 3.0;
            newcol[(pos + shift) % m] = -1.0;
            newcol[(pos + 1) % m] += 0.5;
            let a: SparseCol = newcol
                .iter()
                .enumerate()
                .filter(|(_, &v)| v != 0.0)
                .map(|(i, &v)| (i as u32, v))
                .collect();
            let mut w = Vec::new();
            f.ftran(&a, &mut w, &mut Vec::new());
            assert!(f.update(pos), "step {step} rejected");
            cols[pos] = newcol;
        }
        let mut fresh = factor_of(&cols);
        let rhs: Vec<f64> = (0..m).map(|i| (i as f64) - 2.5).collect();
        let (mut w1, mut w2) = (Vec::new(), Vec::new());
        f.ftran_dense(&rhs, &mut w1);
        fresh.ftran_dense(&rhs, &mut w2);
        for (a, b) in w1.iter().zip(&w2) {
            assert!((a - b).abs() < 1e-9, "{w1:?} vs {w2:?}");
        }
        let (mut y1, mut y2) = (Vec::new(), Vec::new());
        f.btran(&rhs, &mut y1);
        fresh.btran(&rhs, &mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-9, "{y1:?} vs {y2:?}");
        }
        assert_eq!(f.stats().ft_updates, 4);
    }

    #[test]
    fn tiny_pivot_update_rejected() {
        let ident = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let mut f = factor_of(&ident);
        let mut w = Vec::new();
        f.ftran(&col(&[(0, 1.0), (1, 1e-15)]), &mut w, &mut Vec::new());
        assert!(!f.update(1));
        assert_eq!(f.stats().pivot_rejections, 1);
        // Nothing was committed: the factorization still solves the
        // identity exactly.
        let mut out = Vec::new();
        f.ftran_dense(&[5.0, 7.0], &mut out);
        assert_eq!(out, vec![5.0, 7.0]);
    }

    #[test]
    fn wants_refactor_after_limit() {
        let ident = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let mut f = factor_of(&ident);
        f.max_etas = 2;
        let (mut w, mut nz) = (Vec::new(), Vec::new());
        f.ftran(&col(&[(0, 1.0)]), &mut w, &mut nz);
        assert!(f.update(0));
        assert!(!f.wants_refactor());
        f.ftran(&col(&[(1, 1.0)]), &mut w, &mut nz);
        assert!(f.update(1));
        assert!(f.wants_refactor());
    }

    /// `update` takes the spike of this object's last `ftran` and nothing
    /// else: no solve yet, a solve on a clone, a spike already consumed and a
    /// spike from before a refactorization are all refused, untouched.
    #[test]
    fn update_without_own_ftran_refused() {
        let cols = vec![vec![2.0, 1.0, 0.0], vec![0.0, 3.0, 1.0], vec![1.0, 0.0, 2.0]];
        let mut f = factor_of(&cols);
        let a = col(&[(0, 1.0), (1, 2.0), (2, 4.0)]);
        let (mut w, mut nz) = (Vec::new(), Vec::new());
        assert!(!f.update(1), "no ftran yet");
        let mut foreign = f.clone();
        foreign.ftran(&a, &mut w, &mut nz);
        assert!(!f.update(1), "the clone's ftran is not this object's");
        assert!(foreign.update(1));
        assert!(!foreign.update(1), "spike already consumed");
        f.ftran(&a, &mut w, &mut nz);
        f.refactor(&[&col(&[(0, 2.0), (1, 1.0)]), &col(&[(1, 3.0), (2, 1.0)]), &a]).unwrap();
        assert!(!f.update(1), "spike predates the refactorization");
        assert_eq!(f.stats().ft_updates + f.stats().pivot_rejections, 0);
        // Refused means untouched: `f` still solves the refactorized basis.
        f.ftran(&a, &mut w, &mut nz);
        for (got, want) in w.iter().zip([0.0, 0.0, 1.0]) {
            assert!((got - want).abs() < 1e-12, "{w:?}");
        }
    }

    #[test]
    fn zero_max_etas_selects_default() {
        let f = Factorization::new(0, 1e-9);
        assert_eq!(f.max_etas, DEFAULT_MAX_ETAS);
        let f = Factorization::new(7, 1e-9);
        assert_eq!(f.max_etas, 7);
    }

    /// Randomized cross-check: Markowitz LU must solve arbitrary sparse
    /// systems exactly, and agree with the dense-bump reference kernel.
    #[test]
    fn random_sparse_systems_roundtrip() {
        let mut seed = 0xDEADBEEFu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        for trial in 0..20 {
            let m = 12 + trial % 5;
            // Diagonal-dominant sparse matrix: invertible with high prob.
            let mut cols: Vec<Vec<f64>> = vec![vec![0.0; m]; m];
            for (j, colj) in cols.iter_mut().enumerate() {
                colj[j] = 2.0 + next();
                for (i, cij) in colj.iter_mut().enumerate() {
                    if i != j && next() < 0.2 {
                        *cij = next() - 0.5;
                    }
                }
            }
            let mut f = factor_of(&cols);
            let rhs: Vec<f64> = (0..m).map(|_| next() * 4.0 - 2.0).collect();
            let mut w = Vec::new();
            f.ftran_dense(&rhs, &mut w);
            let bx = matvec(&cols, &w);
            for (got, want) in bx.iter().zip(&rhs) {
                assert!((got - want).abs() < 1e-8, "trial {trial}");
            }
            let mut y = Vec::new();
            f.btran(&rhs, &mut y);
            for (j, colj) in cols.iter().enumerate() {
                let dot: f64 = y.iter().zip(colj).map(|(a, b)| a * b).sum();
                assert!((dot - rhs[j]).abs() < 1e-8, "trial {trial} col {j}");
            }
        }
    }
}

//! The dense-bump factorization the library's sparse Markowitz /
//! Forrest–Tomlin kernel replaced, kept as an independent *reference
//! kernel* for the torture suite: a triangularization pre-pass pivots
//! singleton columns into an upper-triangular leading block, and the
//! residual *bump* is factorized densely with partial pivoting. It shares no
//! code with the kernel it checks.

use pretium_lp::simplex::basis::{FactorError, SparseCol};

/// Triangular-plus-bump factorization (reference only).
#[derive(Debug, Clone)]
pub struct DenseBumpFactorization {
    m: usize,
    /// Size of the triangular block.
    nt: usize,
    /// `row_of_pos[p]` = original row occupying structured position `p`
    /// (bump rows already account for the dense LU's pivoting).
    row_of_pos: Vec<usize>,
    /// `col_of_pos[p]` = basis position (column of `B`) at position `p`.
    col_of_pos: Vec<usize>,
    /// Triangular columns: `(diagonal value, entries in earlier positions)`.
    tri_cols: Vec<(f64, Vec<(u32, f64)>)>,
    /// For each bump column `q` (0-based within the bump): entries in
    /// triangular positions.
    b12: Vec<Vec<(u32, f64)>>,
    /// Dense row-major `L\U` of the bump (`nb × nb`).
    bump_fac: Vec<f64>,
    /// Bump size.
    nb: usize,
    /// Absolute pivot tolerance.
    pivot_tol: f64,
}

impl DenseBumpFactorization {
    /// Create an empty factorization for an `m`-row basis.
    pub fn new(m: usize, pivot_tol: f64) -> Self {
        DenseBumpFactorization {
            m,
            nt: 0,
            row_of_pos: (0..m).collect(),
            col_of_pos: (0..m).collect(),
            tri_cols: Vec::new(),
            b12: Vec::new(),
            bump_fac: Vec::new(),
            nb: 0,
            pivot_tol,
        }
    }

    /// Size of the dense bump after the last refactorization (diagnostic).
    pub fn bump_size(&self) -> usize {
        self.nb
    }

    /// Factorize the basis given by `columns` (one sparse column per basis
    /// position).
    pub fn refactor(&mut self, columns: &[&SparseCol]) -> Result<(), FactorError> {
        let m = self.m;
        debug_assert_eq!(columns.len(), m);
        self.tri_cols.clear();
        self.b12.clear();

        // --- triangularization: pivot singleton columns -------------------
        // remaining-nonzero count per column, and row -> columns index.
        let mut cnt: Vec<u32> = vec![0; m];
        let mut rows_to_cols: Vec<Vec<u32>> = vec![Vec::new(); m];
        for (j, col) in columns.iter().enumerate() {
            cnt[j] = col.len() as u32;
            for &(r, _) in col.iter() {
                rows_to_cols[r as usize].push(j as u32);
            }
        }
        let mut row_pivoted = vec![false; m];
        let mut col_pivoted = vec![false; m];
        // Position assignment.
        let mut pos_of_row: Vec<u32> = vec![u32::MAX; m];
        let mut order: Vec<(usize, usize)> = Vec::with_capacity(m); // (col, row)
        let mut queue: Vec<u32> = (0..m as u32).filter(|&j| cnt[j as usize] == 1).collect();
        while let Some(j) = queue.pop() {
            let j = j as usize;
            if col_pivoted[j] || cnt[j] != 1 {
                continue;
            }
            // Find the single remaining entry.
            let mut pick: Option<(usize, f64)> = None;
            for &(r, v) in columns[j].iter() {
                if !row_pivoted[r as usize] {
                    pick = Some((r as usize, v));
                    break;
                }
            }
            let Some((r, v)) = pick else { continue };
            if v.abs() <= self.pivot_tol {
                // Too small to pivot on; leave the column for the bump.
                continue;
            }
            col_pivoted[j] = true;
            row_pivoted[r] = true;
            pos_of_row[r] = order.len() as u32;
            order.push((j, r));
            // Removing row r reduces the remaining count of its columns.
            for &oj in &rows_to_cols[r] {
                let oj = oj as usize;
                if !col_pivoted[oj] {
                    cnt[oj] -= 1;
                    if cnt[oj] == 1 {
                        queue.push(oj as u32);
                    }
                }
            }
        }
        let nt = order.len();
        self.nt = nt;

        // Assign bump rows/columns to positions nt..m.
        let bump_cols: Vec<usize> = (0..m).filter(|&j| !col_pivoted[j]).collect();
        let bump_rows: Vec<usize> = (0..m).filter(|&r| !row_pivoted[r]).collect();
        let nb = bump_cols.len();
        debug_assert_eq!(nb, bump_rows.len());
        self.nb = nb;
        let mut pos_of_bump_row: Vec<u32> = vec![u32::MAX; m];
        for (i, &r) in bump_rows.iter().enumerate() {
            pos_of_bump_row[r] = i as u32;
        }

        // Build triangular column storage (entries land in earlier
        // positions by construction).
        self.tri_cols.reserve(nt);
        for &(j, r) in &order {
            let mut diag = 0.0;
            let mut others = Vec::new();
            for &(er, v) in columns[j].iter() {
                let er = er as usize;
                if er == r {
                    diag = v;
                } else {
                    debug_assert!(pos_of_row[er] != u32::MAX, "entry below the triangle");
                    others.push((pos_of_row[er], v));
                }
            }
            self.tri_cols.push((diag, others));
        }

        // Build B12 (bump columns' entries in triangular rows) and the
        // dense bump matrix.
        self.b12.reserve(nb);
        self.bump_fac.clear();
        self.bump_fac.resize(nb * nb, 0.0);
        for (q, &j) in bump_cols.iter().enumerate() {
            let mut upper = Vec::new();
            for &(r, v) in columns[j].iter() {
                let r = r as usize;
                if row_pivoted[r] {
                    upper.push((pos_of_row[r], v));
                } else {
                    self.bump_fac[pos_of_bump_row[r] as usize * nb + q] = v;
                }
            }
            self.b12.push(upper);
        }

        // Dense LU of the bump with partial pivoting (physical row swaps).
        let mut bump_perm: Vec<usize> = (0..nb).collect();
        for k in 0..nb {
            let mut best = k;
            let mut best_abs = self.bump_fac[k * nb + k].abs();
            for i in (k + 1)..nb {
                let a = self.bump_fac[i * nb + k].abs();
                if a > best_abs {
                    best_abs = a;
                    best = i;
                }
            }
            if best_abs <= self.pivot_tol {
                return Err(FactorError::Singular { position: nt + k });
            }
            if best != k {
                for j in 0..nb {
                    self.bump_fac.swap(k * nb + j, best * nb + j);
                }
                bump_perm.swap(k, best);
            }
            let pivot = self.bump_fac[k * nb + k];
            for i in (k + 1)..nb {
                let l = self.bump_fac[i * nb + k] / pivot;
                if l != 0.0 {
                    self.bump_fac[i * nb + k] = l;
                    for j in (k + 1)..nb {
                        self.bump_fac[i * nb + j] -= l * self.bump_fac[k * nb + j];
                    }
                }
            }
        }

        // Final position maps.
        self.row_of_pos.clear();
        self.col_of_pos.clear();
        for &(j, r) in &order {
            self.col_of_pos.push(j);
            self.row_of_pos.push(r);
        }
        for i in 0..nb {
            // bump position i corresponds to pre-pivot bump row
            // bump_rows[bump_perm[i]] and bump column bump_cols[i].
            self.col_of_pos.push(bump_cols[i]);
            self.row_of_pos.push(bump_rows[bump_perm[i]]);
        }
        Ok(())
    }

    /// Solve `B·w = a` where `a` is dense, in original row coordinates. The
    /// result is dense, indexed by basis *position*.
    pub fn ftran_dense(&self, a: &[f64], out: &mut Vec<f64>) {
        let m = self.m;
        let nt = self.nt;
        let nb = self.nb;
        out.clear();
        out.resize(m, 0.0);
        // rhs in position order: w[p] = a[row_of_pos[p]].
        let mut w: Vec<f64> = (0..m).map(|p| a[self.row_of_pos[p]]).collect();
        // Bump solve: B22 y2 = w2 (L then U; unit-diagonal L).
        if nb > 0 {
            let f = &self.bump_fac;
            for i in 0..nb {
                let mut s = w[nt + i];
                let row = &f[i * nb..i * nb + i];
                for (j, &l) in row.iter().enumerate() {
                    if l != 0.0 {
                        s -= l * w[nt + j];
                    }
                }
                w[nt + i] = s;
            }
            for i in (0..nb).rev() {
                let mut s = w[nt + i];
                let row = &f[i * nb..(i + 1) * nb];
                for (j, &u) in row.iter().enumerate().skip(i + 1) {
                    if u != 0.0 {
                        s -= u * w[nt + j];
                    }
                }
                w[nt + i] = s / row[i];
            }
            // w1 -= B12 · y2.
            for (q, col) in self.b12.iter().enumerate() {
                let y = w[nt + q];
                if y != 0.0 {
                    for &(k, v) in col {
                        w[k as usize] -= v * y;
                    }
                }
            }
        }
        // Column-oriented back substitution through U11.
        for j in (0..nt).rev() {
            let (diag, ref others) = self.tri_cols[j];
            let y = w[j] / diag;
            w[j] = y;
            if y != 0.0 {
                for &(k, v) in others {
                    w[k as usize] -= v * y;
                }
            }
        }
        // Scatter to basis-position order.
        for (p, &c) in self.col_of_pos.iter().enumerate() {
            out[c] = w[p];
        }
    }

    /// Solve `yᵀ·B = cᵀ` where `c` is dense, indexed by basis position.
    /// The result `y` is dense, indexed by original row.
    pub fn btran(&self, c: &[f64], out: &mut Vec<f64>) {
        let m = self.m;
        let nt = self.nt;
        let nb = self.nb;
        // Permute to structured positions: z[p] = c[col_of_pos[p]].
        let mut z: Vec<f64> = (0..m).map(|p| c[self.col_of_pos[p]]).collect();
        // U11ᵀ z1 = c1 (forward substitution, column lists become rows of
        // the transpose).
        for j in 0..nt {
            let (diag, ref others) = self.tri_cols[j];
            let mut s = z[j];
            for &(k, v) in others {
                s -= v * z[k as usize];
            }
            z[j] = s / diag;
        }
        // c2' = c2 - B12ᵀ z1, then B22ᵀ y2 = c2'.
        if nb > 0 {
            for (q, col) in self.b12.iter().enumerate() {
                let mut s = z[nt + q];
                for &(k, v) in col {
                    s -= v * z[k as usize];
                }
                z[nt + q] = s;
            }
            let f = &self.bump_fac;
            // Solve Uᵀ q = z2 (forward), then Lᵀ w = q (backward).
            for i in 0..nb {
                let mut s = z[nt + i];
                for j in 0..i {
                    let u = f[j * nb + i];
                    if u != 0.0 {
                        s -= u * z[nt + j];
                    }
                }
                z[nt + i] = s / f[i * nb + i];
            }
            for i in (0..nb).rev() {
                let mut s = z[nt + i];
                for j in (i + 1)..nb {
                    let l = f[j * nb + i];
                    if l != 0.0 {
                        s -= l * z[nt + j];
                    }
                }
                z[nt + i] = s;
            }
        }
        // Un-permute rows: y[row_of_pos[p]] = z[p].
        out.clear();
        out.resize(m, 0.0);
        for (p, &r) in self.row_of_pos.iter().enumerate() {
            out[r] = z[p];
        }
    }
}

/// The reference kernel still solves (guards against bit-rot while it
/// serves as the torture suite's cross-check oracle).
#[test]
fn reference_kernel_roundtrip() {
    let cols = [
        vec![2.0, 1.0, 0.0, 0.0],
        vec![0.0, 3.0, 1.0, 0.0],
        vec![1.0, 0.0, 2.0, 0.5],
        vec![0.0, 0.0, 0.0, 1.0],
    ];
    let sparse: Vec<SparseCol> = cols
        .iter()
        .map(|c| {
            c.iter().enumerate().filter(|(_, &v)| v != 0.0).map(|(i, &v)| (i as u32, v)).collect()
        })
        .collect();
    let refs: Vec<&SparseCol> = sparse.iter().collect();
    let mut f = DenseBumpFactorization::new(4, 1e-12);
    f.refactor(&refs).unwrap();
    let rhs = [5.0, 4.0, 3.0, 2.0];
    let mut w = Vec::new();
    f.ftran_dense(&rhs, &mut w);
    for i in 0..4 {
        let bx: f64 = (0..4).map(|j| cols[j][i] * w[j]).sum();
        assert!((bx - rhs[i]).abs() < 1e-10);
    }
    let mut y = Vec::new();
    f.btran(&rhs, &mut y);
    for (j, colj) in cols.iter().enumerate() {
        let dot: f64 = y.iter().zip(colj).map(|(a, b)| a * b).sum();
        assert!((dot - rhs[j]).abs() < 1e-10);
    }
    assert!(f.bump_size() <= 3);
}

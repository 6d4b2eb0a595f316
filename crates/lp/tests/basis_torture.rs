//! Numerical torture tests for the sparse LU basis factorization.
//!
//! Every case is driven by a deterministic xorshift generator, so failures
//! reproduce exactly. Correctness is judged by *residuals* — after
//! `ftran` solves `B·w = a`, the check is `‖B·w − a‖∞ ≤ 1e-9·(1 + ‖a‖∞)`
//! against the actual basis columns, which catches errors a comparison
//! between two buggy kernels would miss — plus a direct cross-check
//! against the dense-bump reference kernel on moderate sizes.

mod dense_ref;

use dense_ref::DenseBumpFactorization;
use pretium_lp::simplex::basis::{FactorError, Factorization, SparseCol};

const RESIDUAL_TOL: f64 = 1e-9;

/// xorshift64* — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    /// Uniform in `[0, 1)`.
    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
    /// Uniform in `[-1, 1]`, bounded away from zero.
    fn coeff(&mut self) -> f64 {
        let v = self.f64() * 2.0 - 1.0;
        if v.abs() < 1e-3 {
            0.5
        } else {
            v
        }
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn random_perm(m: usize, rng: &mut Rng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..m).collect();
    for i in (1..m).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// A random nonsingular sparse basis: column `j` is anchored at row
/// `perm[j]` with a value strictly dominating the column's off-diagonal
/// mass (strict column diagonal dominance up to a row permutation ⇒
/// nonsingular), scaled by `anchor_scale` to manufacture near-singular
/// conditioning when < 1.
fn random_basis(m: usize, density: f64, anchor_scale: f64, rng: &mut Rng) -> Vec<SparseCol> {
    let perm = random_perm(m, rng);
    let mut cols = Vec::with_capacity(m);
    for &anchor in perm.iter().take(m) {
        let mut used = vec![false; m];
        used[anchor] = true;
        let mut col: SparseCol = Vec::new();
        let extra = ((m as f64 * density) as usize).min(m - 1);
        let mut mass = 0.0;
        for _ in 0..extra {
            let r = rng.below(m);
            if !used[r] {
                used[r] = true;
                let v = rng.coeff();
                mass += v.abs();
                col.push((r as u32, v));
            }
        }
        col.push((anchor as u32, (mass * 2.0 + 1.0) * anchor_scale));
        cols.push(col);
    }
    cols
}

fn random_rhs(m: usize, rng: &mut Rng) -> Vec<f64> {
    (0..m).map(|_| rng.f64() * 2.0 - 1.0).collect()
}

fn unit(m: usize, r: usize) -> Vec<f64> {
    let mut e = vec![0.0; m];
    e[r] = 1.0;
    e
}

fn as_refs(cols: &[SparseCol]) -> Vec<&SparseCol> {
    cols.iter().collect()
}

/// `‖B·w − a‖∞` with `w` indexed by basis position.
fn ftran_residual(cols: &[SparseCol], w: &[f64], a: &[f64]) -> f64 {
    let mut r: Vec<f64> = a.iter().map(|&v| -v).collect();
    for (j, col) in cols.iter().enumerate() {
        for &(i, v) in col {
            r[i as usize] += v * w[j];
        }
    }
    r.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()))
}

/// `maxⱼ |yᵀB_j − c_j|` with `c` indexed by basis position and `y` by row.
fn btran_residual(cols: &[SparseCol], y: &[f64], c: &[f64]) -> f64 {
    cols.iter()
        .enumerate()
        .map(|(j, col)| {
            let dot: f64 = col.iter().map(|&(i, v)| y[i as usize] * v).sum();
            (dot - c[j]).abs()
        })
        .fold(0.0, f64::max)
}

fn scale(a: &[f64]) -> f64 {
    1.0 + a.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()))
}

#[test]
fn residuals_across_density_grid() {
    let mut rng = Rng::new(0xB10C_5EED_0000);
    for &m in &[20usize, 60, 120, 250] {
        for &density in &[0.01, 0.05, 0.15, 0.30] {
            let cols = random_basis(m, density, 1.0, &mut rng);
            let mut f = Factorization::new(0, 1e-10);
            f.refactor(&as_refs(&cols)).expect("nonsingular by construction");
            for trial in 0..3 {
                let a = random_rhs(m, &mut rng);
                let mut w = Vec::new();
                f.ftran_dense(&a, &mut w);
                let res = ftran_residual(&cols, &w, &a);
                assert!(
                    res <= RESIDUAL_TOL * scale(&a),
                    "ftran residual {res:.3e} at m={m} density={density} trial={trial}"
                );
                let c = random_rhs(m, &mut rng);
                let mut y = Vec::new();
                f.btran(&c, &mut y);
                let res = btran_residual(&cols, &y, &c);
                assert!(
                    res <= RESIDUAL_TOL * scale(&c),
                    "btran residual {res:.3e} at m={m} density={density} trial={trial}"
                );
            }
        }
    }
}

#[test]
fn large_sparse_system_stays_accurate() {
    let mut rng = Rng::new(0x51AB_1E55_0000);
    let m = 500;
    let cols = random_basis(m, 0.01, 1.0, &mut rng);
    let mut f = Factorization::new(0, 1e-10);
    f.refactor(&as_refs(&cols)).unwrap();
    let a = random_rhs(m, &mut rng);
    let mut w = Vec::new();
    f.ftran_dense(&a, &mut w);
    assert!(ftran_residual(&cols, &w, &a) <= RESIDUAL_TOL * scale(&a));
    let c = random_rhs(m, &mut rng);
    let mut y = Vec::new();
    f.btran(&c, &mut y);
    assert!(btran_residual(&cols, &y, &c) <= RESIDUAL_TOL * scale(&c));
}

#[test]
fn matches_dense_reference_kernel() {
    let mut rng = Rng::new(0xDEAD_BEEF_0000);
    for &m in &[15usize, 40, 90] {
        let cols = random_basis(m, 0.2, 1.0, &mut rng);
        let refs = as_refs(&cols);
        let mut sparse = Factorization::new(0, 1e-10);
        sparse.refactor(&refs).unwrap();
        let mut dense = DenseBumpFactorization::new(m, 1e-10);
        dense.refactor(&refs).unwrap();
        let a = random_rhs(m, &mut rng);
        let (mut ws, mut wd) = (Vec::new(), Vec::new());
        sparse.ftran_dense(&a, &mut ws);
        dense.ftran_dense(&a, &mut wd);
        for j in 0..m {
            assert!(
                (ws[j] - wd[j]).abs() <= 1e-8 * scale(&wd),
                "kernels disagree at m={m} pos={j}: {} vs {}",
                ws[j],
                wd[j]
            );
        }
        // A dense right-hand side, then unit vectors — rows of B⁻¹, where
        // the scatter-form Uᵀ solve skips most of U.
        let mut rhs = vec![random_rhs(m, &mut rng)];
        rhs.extend((0..m).step_by(4).map(|r| unit(m, r)));
        for c in &rhs {
            let (mut ys, mut yd) = (Vec::new(), Vec::new());
            sparse.btran(c, &mut ys);
            dense.btran(c, &mut yd);
            for i in 0..m {
                assert!((ys[i] - yd[i]).abs() <= 1e-8 * scale(&yd), "btran disagrees at row {i}");
            }
        }
    }
}

/// Forrest–Tomlin updates fed by the spike their own FTRAN left behind,
/// across the density grid: after a handful of exchanges the updated factors
/// must solve like a fresh refactorization of the exchanged basis, and their
/// BTRAN — dense and unit right-hand sides — like the dense reference
/// kernel's.
#[test]
fn spike_fed_updates_match_fresh_refactor_across_density_grid() {
    let mut rng = Rng::new(0x5B1C_E000_0000);
    for &m in &[20usize, 60, 120, 250] {
        for &density in &[0.01, 0.05, 0.15, 0.30] {
            let mut cols = random_basis(m, density, 1.0, &mut rng);
            let mut f = Factorization::new(0, 1e-10);
            f.refactor(&as_refs(&cols)).unwrap();
            let mut applied = 0;
            for _ in 0..12 {
                let entering = random_basis(m, density, 1.0, &mut rng).pop().unwrap();
                let mut w = Vec::new();
                f.ftran(&entering, &mut w, &mut Vec::new());
                // Leave at the largest entry: the exchanged basis stays well
                // conditioned, which keeps the comparison tolerances honest.
                let pos = (0..m).max_by(|&a, &b| w[a].abs().total_cmp(&w[b].abs())).unwrap();
                if f.update(pos) {
                    cols[pos] = entering;
                    applied += 1;
                }
            }
            assert_eq!(applied, 12, "m={m} density={density}");
            let refs = as_refs(&cols);
            let mut fresh = Factorization::new(0, 1e-10);
            fresh.refactor(&refs).unwrap();
            let mut dense = DenseBumpFactorization::new(m, 1e-10);
            dense.refactor(&refs).unwrap();
            let what = format!("m={m} density={density} after {applied} updates");

            let a = random_rhs(m, &mut rng);
            let (mut wu, mut wf) = (Vec::new(), Vec::new());
            f.ftran_dense(&a, &mut wu);
            fresh.ftran_dense(&a, &mut wf);
            assert!(ftran_residual(&cols, &wu, &a) <= 1e-8 * scale(&a), "{what}");
            for j in 0..m {
                assert!((wu[j] - wf[j]).abs() <= 1e-8 * scale(&wf), "ftran pos {j}, {what}");
            }
            let mut rhs = vec![random_rhs(m, &mut rng)];
            rhs.extend((0..m).step_by(7).map(|r| unit(m, r)));
            for c in &rhs {
                let (mut yu, mut yf, mut yd) = (Vec::new(), Vec::new(), Vec::new());
                f.btran(c, &mut yu);
                fresh.btran(c, &mut yf);
                dense.btran(c, &mut yd);
                assert!(btran_residual(&cols, &yu, c) <= 1e-8 * scale(c), "{what}");
                for i in 0..m {
                    assert!((yu[i] - yf[i]).abs() <= 1e-8 * scale(&yf), "btran row {i}, {what}");
                    assert!((yu[i] - yd[i]).abs() <= 1e-8 * scale(&yd), "dense row {i}, {what}");
                }
            }
        }
    }
}

/// `count` Forrest–Tomlin exchanges, each leaving at the largest entry of the
/// entering column's FTRAN so the basis stays well conditioned.
fn exchange(
    f: &mut Factorization,
    cols: &mut [SparseCol],
    count: usize,
    density: f64,
    rng: &mut Rng,
) {
    let m = cols.len();
    for _ in 0..count {
        let entering = random_basis(m, density, 1.0, rng).pop().unwrap();
        let mut w = Vec::new();
        f.ftran(&entering, &mut w, &mut Vec::new());
        let pos = (0..m).max_by(|&a, &b| w[a].abs().total_cmp(&w[b].abs())).unwrap();
        assert!(f.update(pos), "m={m} density={density}");
        cols[pos] = entering;
    }
}

/// Border `cols` with one row — random entries on some of the old basis
/// positions — and its unit slack column; returns the row as `append_row`
/// takes it.
fn border(cols: &mut Vec<SparseCol>, density: f64, rng: &mut Rng) -> Vec<(u32, f64)> {
    let m = cols.len();
    let mut row: Vec<(u32, f64)> = Vec::new();
    for _ in 0..((m as f64 * density) as usize).max(1) {
        let pos = rng.below(m) as u32;
        if row.iter().all(|&(p, _)| p != pos) {
            row.push((pos, rng.coeff()));
        }
    }
    for &(pos, v) in &row {
        cols[pos as usize].push((m as u32, v));
    }
    cols.push(vec![(m as u32, 1.0)]);
    row
}

/// Rows bordered onto live factors (`append_row`: the new row's slack basic,
/// one row eta, no refactorization), with exchanges before and after, across
/// the density grid: 1, 5 and 40 rows. The bordered factors must solve —
/// FTRAN with sparse and dense right-hand sides, BTRAN with dense and unit
/// ones — like a fresh refactorization of the bordered matrix and like the
/// dense reference kernel. A bordered row counts as an update, so a caller
/// that finds no room for its rows (`updates_left`) refactorizes instead,
/// which is the last case.
#[test]
fn bordered_rows_match_fresh_refactor_across_density_grid() {
    let mut rng = Rng::new(0xB0AD_E4ED_0000);
    let cases = [(1usize, 0usize), (5, 0), (40, 0), (40, 12)];
    for &m in &[20usize, 60, 120, 250] {
        for (di, &density) in [0.01, 0.05, 0.15, 0.30].iter().enumerate() {
            // Refactorizing a 290-row basis is slow unoptimized: at the largest
            // size each density takes one of the cases, in turn.
            let cases = if m < 250 { &cases[..] } else { &cases[di..=di] };
            for &(appended, max_etas) in cases {
                let mut cols = random_basis(m, density, 1.0, &mut rng);
                let mut f = Factorization::new(max_etas, 1e-10);
                f.refactor(&as_refs(&cols)).unwrap();
                exchange(&mut f, &mut cols, 4, density, &mut rng);
                let rows: Vec<_> =
                    (0..appended).map(|_| border(&mut cols, density, &mut rng)).collect();
                let what = format!("m={m} density={density} +{appended} rows, cadence {max_etas}");
                let (left, before) = (f.updates_left(), f.stats());
                if appended < left {
                    rows.iter().for_each(|row| f.append_row(row));
                    assert_eq!(f.updates_left(), left - appended, "{what}");
                    assert_eq!(f.stats().since(before).bordered_rows, appended as u64, "{what}");
                    assert_eq!(f.stats().since(before).refactors, 0, "{what}");
                } else {
                    assert_eq!(
                        (max_etas, left),
                        (12, 8),
                        "only the short cadence runs out: {what}"
                    );
                    f.refactor(&as_refs(&cols)).unwrap();
                }
                assert!(!f.wants_refactor(), "{what}");
                exchange(&mut f, &mut cols, 4, density, &mut rng);

                let (m, refs) = (cols.len(), as_refs(&cols));
                let mut fresh = Factorization::new(0, 1e-10);
                fresh.refactor(&refs).unwrap();
                // A second opinion from the (cubic) dense kernel on the smaller sizes.
                let mut dense = (m <= 160).then(|| DenseBumpFactorization::new(m, 1e-10));
                dense.iter_mut().for_each(|d| d.refactor(&refs).unwrap());
                let agree = |got: &[f64], want: &[f64], kernel: &str| {
                    for (i, (g, w)) in got.iter().zip(want).enumerate() {
                        assert!((g - w).abs() <= 1e-8 * scale(want), "{kernel} entry {i}, {what}");
                    }
                };

                let sparse_a = random_basis(m, density, 1.0, &mut rng).pop().unwrap();
                let mut scattered = vec![0.0; m];
                sparse_a.iter().for_each(|&(i, v)| scattered[i as usize] = v);
                let (mut wu, mut want) = (Vec::new(), Vec::new());
                f.ftran(&sparse_a, &mut wu, &mut Vec::new());
                let res = ftran_residual(&cols, &wu, &scattered);
                assert!(res <= 1e-8 * scale(&scattered), "{what}");
                let a = random_rhs(m, &mut rng);
                f.ftran_dense(&a, &mut wu);
                assert!(ftran_residual(&cols, &wu, &a) <= 1e-8 * scale(&a), "{what}");
                fresh.ftran_dense(&a, &mut want);
                agree(&wu, &want, "fresh ftran");
                if let Some(dense) = dense.as_mut() {
                    dense.ftran_dense(&a, &mut want);
                    agree(&wu, &want, "dense ftran");
                }
                let mut rhs = vec![random_rhs(m, &mut rng), unit(m, m - 1)];
                rhs.extend((0..m).step_by(7).map(|r| unit(m, r)));
                for c in &rhs {
                    let mut yu = Vec::new();
                    f.btran(c, &mut yu);
                    assert!(btran_residual(&cols, &yu, c) <= 1e-8 * scale(c), "{what}");
                    fresh.btran(c, &mut want);
                    agree(&yu, &want, "fresh btran");
                    if let Some(dense) = dense.as_mut() {
                        dense.btran(c, &mut want);
                        agree(&yu, &want, "dense btran");
                    }
                }
            }
        }
    }
}

#[test]
fn permuted_identity_is_exact() {
    let mut rng = Rng::new(7);
    let m = 64;
    let perm = random_perm(m, &mut rng);
    let cols: Vec<SparseCol> = perm.iter().map(|&r| vec![(r as u32, 1.0)]).collect();
    let mut f = Factorization::new(0, 1e-10);
    f.refactor(&as_refs(&cols)).unwrap();
    // No fill, no arithmetic: solving against e_{perm[j]} must return
    // e_j exactly (bitwise 1.0 / 0.0).
    for j in (0..m).step_by(7) {
        let a: SparseCol = vec![(perm[j] as u32, 1.0)];
        let mut w = Vec::new();
        f.ftran(&a, &mut w, &mut Vec::new());
        for (p, &wp) in w.iter().enumerate() {
            assert_eq!(wp, if p == j { 1.0 } else { 0.0 }, "pos {p} of e_{j}");
        }
    }
}

#[test]
fn near_singular_basis_still_meets_residual_bound() {
    let mut rng = Rng::new(0x0ACE_0FBA_5E00);
    let m = 80;
    // Anchors shrunk to 1e-6 of the dominant scale: horrible conditioning
    // for a naive kernel, routine for threshold pivoting.
    let cols = random_basis(m, 0.1, 1e-6, &mut rng);
    let mut f = Factorization::new(0, 1e-10);
    f.refactor(&as_refs(&cols)).unwrap();
    let a = random_rhs(m, &mut rng);
    let mut w = Vec::new();
    f.ftran_dense(&a, &mut w);
    assert!(ftran_residual(&cols, &w, &a) <= RESIDUAL_TOL * scale(&a));
    let c = random_rhs(m, &mut rng);
    let mut y = Vec::new();
    f.btran(&c, &mut y);
    assert!(btran_residual(&cols, &y, &c) <= RESIDUAL_TOL * scale(&c));
}

#[test]
fn exactly_singular_inputs_fail_gracefully() {
    let mut rng = Rng::new(99);
    let m = 30;
    // A structurally empty column.
    let mut cols = random_basis(m, 0.1, 1.0, &mut rng);
    cols[m / 2] = Vec::new();
    let err = Factorization::new(0, 1e-10).refactor(&as_refs(&cols)).unwrap_err();
    let FactorError::Singular { position } = err;
    assert!(position < m);

    // A numerically dependent pair: two identical columns.
    let mut cols = random_basis(m, 0.1, 1.0, &mut rng);
    cols[4] = cols[21].clone();
    assert!(matches!(
        Factorization::new(0, 1e-10).refactor(&as_refs(&cols)),
        Err(FactorError::Singular { .. })
    ));
}

#[test]
fn ft_update_chain_matches_fresh_refactor() {
    let mut rng = Rng::new(0x00F7_C8A1_5EED);
    let m = 80;
    let mut cols = random_basis(m, 0.12, 1.0, &mut rng);
    let mut f = Factorization::new(0, 1e-10);
    f.refactor(&as_refs(&cols)).unwrap();

    let mut applied = 0;
    let mut attempts = 0;
    while applied < 25 && attempts < 200 {
        attempts += 1;
        // Entering column: another dominant random column so the updated
        // basis stays comfortably nonsingular.
        let entering = random_basis(m, 0.1, 1.0, &mut rng).pop().unwrap();
        let pos = rng.below(m);
        let mut dense_a = vec![0.0; m];
        for &(i, v) in &entering {
            dense_a[i as usize] = v;
        }
        let mut w = Vec::new();
        f.ftran_dense(&dense_a, &mut w);
        if !f.update(pos) {
            // Rejected pivot: the kernel asks for a refactor — oblige and
            // retry with a different exchange.
            f.refactor(&as_refs(&cols)).unwrap();
            continue;
        }
        cols[pos] = entering;
        applied += 1;

        // Every 5 updates, the updated factorization must agree with a
        // from-scratch factorization of the same columns.
        if applied % 5 == 0 {
            let a = random_rhs(m, &mut rng);
            let mut w_upd = Vec::new();
            f.ftran_dense(&a, &mut w_upd);
            let mut fresh = Factorization::new(0, 1e-10);
            fresh.refactor(&as_refs(&cols)).unwrap();
            let mut w_ref = Vec::new();
            fresh.ftran_dense(&a, &mut w_ref);
            for j in 0..m {
                assert!(
                    (w_upd[j] - w_ref[j]).abs() <= 1e-8 * scale(&w_ref),
                    "update drift at pos {j} after {applied} updates"
                );
            }
            assert!(ftran_residual(&cols, &w_upd, &a) <= 1e-8 * scale(&a));
        }
    }
    assert!(applied >= 25, "only {applied} of 25 updates accepted in {attempts} attempts");
    assert!(f.stats().ft_updates >= 25);
}

/// One `Factorization` serves every solve of a thread, so whatever an
/// earlier, differently sized basis left in its buffers must never show:
/// refactorizing the same object over the density grid — sizes shrinking,
/// then growing, with Forrest–Tomlin updates in between to dirty the update
/// file and the `U` arenas — must reproduce a fresh object bit for bit.
#[test]
fn reused_factorization_matches_fresh_bitwise() {
    let mut rng = Rng::new(0x5714_1E00_0000);
    let mut reused = Factorization::new(0, 1e-10);
    let sizes = [250usize, 120, 60, 20, 20, 60, 120, 250];
    for (round, &m) in sizes.iter().enumerate() {
        for &density in &[0.01, 0.05, 0.15, 0.30] {
            let cols = random_basis(m, density, 1.0, &mut rng);
            let mut fresh = Factorization::new(0, 1e-10);
            fresh.refactor(&as_refs(&cols)).unwrap();
            reused.refactor(&as_refs(&cols)).unwrap();
            assert_eq!(reused.factor_nnz(), fresh.factor_nnz());
            let solves = |f: &mut Factorization, a: &[f64]| {
                let (mut w, mut y) = (Vec::new(), Vec::new());
                f.ftran_dense(a, &mut w);
                f.btran(a, &mut y);
                w.into_iter().chain(y).map(f64::to_bits).collect::<Vec<u64>>()
            };
            let a = random_rhs(m, &mut rng);
            assert_eq!(
                solves(&mut reused, &a),
                solves(&mut fresh, &a),
                "round {round} m={m} density={density}: stale state leaked into the factors"
            );
            // Exchange a few columns on both (same updates, same verdicts),
            // compare again, and leave `reused` dirty for the next basis.
            let mut cols = cols;
            for _ in 0..4 {
                let pos = rng.below(m);
                // The entering column is B·w for a random w with weight on
                // `pos`, which keeps the new pivot away from zero.
                let mut w = random_rhs(m, &mut rng);
                w[pos] += 2.0;
                let mut entering = vec![0.0; m];
                for (col, &wj) in cols.iter().zip(&w) {
                    col.iter().for_each(|&(i, v)| entering[i as usize] += v * wj);
                }
                let (mut wr, mut wf) = (Vec::new(), Vec::new());
                reused.ftran_dense(&entering, &mut wr);
                fresh.ftran_dense(&entering, &mut wf);
                assert_eq!(reused.update(pos), fresh.update(pos));
                cols[pos] = entering.iter().enumerate().map(|(i, &v)| (i as u32, v)).collect();
            }
            assert_eq!(reused.eta_count(), fresh.eta_count());
            assert_eq!(solves(&mut reused, &a), solves(&mut fresh, &a), "after updates, m={m}");
        }
    }
    let (life, fresh_parts) = (reused.stats(), sizes.len() as u64 * 4);
    assert_eq!(life.refactors, fresh_parts, "lifetime counters keep counting across sizes");
}

/// A staircase LP basis shaped like the SAM master's (the `sparse_lu`
/// bench's `wide` and `colgen` bases): 40% slack singletons, 10% coupling
/// columns across the matrix, the rest flow columns over a band of
/// consecutive rows; column `j` is dominated at row `j`.
fn staircase_basis(m: usize, rng: &mut Rng) -> Vec<SparseCol> {
    (0..m)
        .map(|j| match rng.f64() {
            c if c < 0.4 => vec![(j as u32, 1.0)],
            c if c < 0.5 => random_column(m, j, 16 + rng.below(9), false, rng),
            _ => random_column(m, j, 4 + rng.below(4), true, rng),
        })
        .collect()
}

/// A column dominated at row `anchor` with up to `extra` more entries: on
/// the rows after it (`band`, a flow column) or anywhere.
fn random_column(m: usize, anchor: usize, extra: usize, band: bool, rng: &mut Rng) -> SparseCol {
    let mut col: SparseCol = Vec::new();
    let mut mass = 0.0;
    for hop in 0..extra.min(m - 1) {
        let r = if band { (anchor + hop + 1) % m } else { rng.below(m) };
        if r != anchor && col.iter().all(|&(i, _)| i as usize != r) {
            let v = rng.coeff();
            mass += v.abs();
            col.push((r as u32, v));
        }
    }
    col.push((anchor as u32, mass * 2.0 + 1.0));
    col
}

/// Equal bits, or both zero.
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0)
}

/// A reach kernel's output against the sweep's: bitwise equal, zero outside
/// its list, the list ascending (and so covering every nonzero).
fn assert_reach_output(got: &[f64], nz: &[u32], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    assert!(nz.windows(2).all(|p| p[0] < p[1]), "{what}: list not ascending: {nz:?}");
    let mut listed = vec![false; got.len()];
    nz.iter().for_each(|&i| listed[i as usize] = true);
    for (i, (&g, &d)) in got.iter().zip(want).enumerate() {
        assert!(same_bits(g, d), "{what}: entry {i} reads {g:e}, the sweep {d:e}");
        assert!(listed[i] || g == 0.0, "{what}: entry {i} nonzero outside the list");
    }
}

/// An entering column: a flow column on a staircase basis, a column of
/// the basis's own density otherwise.
fn entering_column(m: usize, density: f64, staircase: bool, rng: &mut Rng) -> SparseCol {
    let anchor = rng.below(m);
    match staircase {
        true => random_column(m, anchor, 4 + rng.below(4), true, rng),
        false => random_column(m, anchor, (m as f64 * density) as usize, false, rng),
    }
}

/// The solver's output pairs, reused from call to call, and a sweep's
/// output.
#[derive(Default)]
struct Outputs {
    w: Vec<f64>,
    w_nz: Vec<u32>,
    rho: Vec<f64>,
    rho_nz: Vec<u32>,
    sweep: Vec<f64>,
}

/// Both reach kernels against their sweeps on `f`, an `m`-row basis: six
/// entering columns and a slack's unit column, and every `m/24`-th row of
/// `B⁻¹`.
fn check_reach_kernels(
    f: &mut Factorization,
    m: usize,
    (density, staircase): (f64, bool),
    out: &mut Outputs,
    rng: &mut Rng,
    what: &str,
) {
    let mut columns: Vec<SparseCol> =
        (0..6).map(|_| entering_column(m, density, staircase, rng)).collect();
    columns.push(vec![(rng.below(m) as u32, 1.0)]);
    for (c, a) in columns.iter().enumerate() {
        let mut scattered = vec![0.0; m];
        a.iter().for_each(|&(i, v)| scattered[i as usize] = v);
        f.ftran(a, &mut out.w, &mut out.w_nz);
        f.ftran_dense(&scattered, &mut out.sweep);
        assert_reach_output(&out.w, &out.w_nz, &out.sweep, &format!("{what}: ftran {c}"));
    }
    for pos in (rng.below(m.min(7))..m).step_by((m / 24).max(1)) {
        f.btran_row(pos, &mut out.rho, &mut out.rho_nz);
        f.btran(&unit(m, pos), &mut out.sweep);
        assert_reach_output(&out.rho, &out.rho_nz, &out.sweep, &format!("{what}: row {pos}"));
    }
}

/// The reach-ordered kernels against the sweeps they replace, on the
/// right-hand sides a pivot issues: `ftran` of sparse columns against
/// `ftran_dense` of them scattered, `btran_row(pos)` against `btran` of
/// `e_pos` — bit for bit, a zero's sign aside. Every basis of the density
/// grid and a `wide` and a `colgen` staircase basis, freshly factorized,
/// after 1, 24 and 95 spike-fed updates, and after 1, 5 and 40 bordered
/// rows; the output buffers are reused from call to call, as the solver
/// reuses them. The updates consume the sparse kernel's spike; a twin fed
/// the sweep's spike must keep solving bitwise like them.
#[test]
fn reach_kernels_match_the_dense_sweep_bitwise_across_density_grid() {
    let mut rng = Rng::new(0x4EAC_4000_0000);
    let mut bases = Vec::new();
    for &m in &[20usize, 60, 120, 250] {
        for &density in &[0.01, 0.05, 0.15, 0.30] {
            let cols = random_basis(m, density, 1.0, &mut rng);
            bases.push((format!("m={m} density={density}"), cols, (density, false)));
        }
    }
    for (name, m) in [("wide", 600), ("colgen", 1600)] {
        bases.push((name.to_string(), staircase_basis(m, &mut rng), (0.004, true)));
    }
    let mut out = Outputs::default();
    for (name, mut cols, shape) in bases {
        let m = cols.len();
        let mut f = Factorization::new(0, 1e-10);
        f.refactor(&as_refs(&cols)).unwrap();
        let mut twin = f.clone();
        check_reach_kernels(&mut f, m, shape, &mut out, &mut rng, &format!("{name}, fresh"));
        let (mut w, mut w_nz, mut sweep) = (Vec::new(), Vec::new(), Vec::new());
        for updates in 1..=95 {
            let a = entering_column(m, shape.0, shape.1, &mut rng);
            let mut scattered = vec![0.0; m];
            a.iter().for_each(|&(i, v)| scattered[i as usize] = v);
            f.ftran(&a, &mut w, &mut w_nz);
            twin.ftran_dense(&scattered, &mut sweep);
            let pos = (0..m).max_by(|&p, &q| w[p].abs().total_cmp(&w[q].abs())).unwrap();
            assert!(f.update(pos) && twin.update(pos), "{name}: update {updates} refused");
            cols[pos] = a;
            if [1, 24, 95].contains(&updates) {
                let what = format!("{name}, {updates} updates");
                check_reach_kernels(&mut f, m, shape, &mut out, &mut rng, &what);
                let rhs = random_rhs(m, &mut rng);
                let solves = |f: &mut Factorization| {
                    let (mut x, mut y) = (Vec::new(), Vec::new());
                    f.ftran_dense(&rhs, &mut x);
                    f.btran(&rhs, &mut y);
                    x.into_iter().chain(y).collect::<Vec<f64>>()
                };
                let agree =
                    solves(&mut f).into_iter().zip(solves(&mut twin)).all(|(a, b)| same_bits(a, b));
                assert!(agree, "{what}: the sparse spike left other factors than the sweep's");
            }
        }
        f.refactor(&as_refs(&cols)).unwrap();
        for (rows, total) in [(1, 1), (4, 5), (35, 40)] {
            for _ in 0..rows {
                let row = border(&mut cols, shape.0, &mut rng);
                f.append_row(&row);
            }
            let what = format!("{name}, {total} bordered rows");
            check_reach_kernels(&mut f, cols.len(), shape, &mut out, &mut rng, &what);
        }
        assert_eq!(f.stats().bordered_rows, 40, "{name}");
    }
}

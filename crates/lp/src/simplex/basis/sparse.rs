//! FTRAN/BTRAN solve kernels over the sparse LU factors.
//!
//! The factored basis is `P·B·Q = L·R₁·R₂·…·R_K·U` where `P`/`Q` are the
//! row/position-to-slot permutations, `L` is unit lower triangular in
//! slot order (static between refactorizations), each `R_k` is a
//! Forrest–Tomlin *row eta* `I + Σ_j r_j·e_t·e_{k_j}ᵀ`, and `U` is upper
//! triangular with respect to the *current* pivot order `perm` (rotated
//! by every update). Both kernels work in slot space on the reusable
//! `z` buffer, which is fully overwritten on every call — steady-state
//! solves perform no allocation.

use super::arena::{grow, refill};
use super::Factorization;

/// Column `k` of `L`.
#[inline]
fn lcol(f: &Factorization, k: usize) -> &[(u32, f64)] {
    &f.l_data[f.l_start[k] as usize..f.l_start[k + 1] as usize]
}

/// Terms of row eta `e` in the flat eta file.
#[inline]
fn eta_terms(f: &Factorization, e: usize) -> &[(u32, f64)] {
    &f.eta_terms[f.eta_start[e] as usize..f.eta_start[e + 1] as usize]
}

/// Solve `B·w = a` with a dense right-hand side in original row
/// coordinates; `out` is dense, indexed by basis position.
///
/// Applies `B⁻¹ = U⁻¹·R_K⁻¹·…·R₁⁻¹·L⁻¹` left to right.
pub(super) fn ftran_dense(f: &mut Factorization, a: &[f64], out: &mut Vec<f64>) {
    let m = f.m;
    let mut z = std::mem::take(&mut f.z);
    grow(&mut z, m, 0.0);
    for (s, zs) in z.iter_mut().enumerate() {
        *zs = a[f.row_of_slot[s] as usize];
    }
    // L forward (unit diagonal), slots in elimination order.
    for k in 0..m {
        let zk = z[k];
        if zk != 0.0 {
            for &(s, l) in lcol(f, k) {
                z[s as usize] -= l * zk;
            }
        }
    }
    // Row etas, oldest first: R⁻¹ = I − Σ r·e_t·e_kᵀ.
    for (e, &t) in f.eta_slot.iter().enumerate() {
        let mut acc = z[t as usize];
        for &(k, r) in eta_terms(f, e) {
            acc -= r * z[k as usize];
        }
        z[t as usize] = acc;
    }
    // U backward, column-oriented over the current pivot order.
    for i in (0..m).rev() {
        let s = f.perm[i] as usize;
        let x = z[s] / f.udiag[s];
        z[s] = x;
        if x != 0.0 {
            for &(j, u) in f.ucols.get(s) {
                z[j as usize] -= u * x;
            }
        }
    }
    refill(out, m, 0.0);
    for (s, &zs) in z.iter().enumerate() {
        out[f.pos_of_slot[s] as usize] = zs;
    }
    f.z = z;
}

/// Solve `yᵀ·B = cᵀ` where `c` is dense, indexed by basis position; `out`
/// is dense, indexed by original row.
///
/// Applies `B⁻ᵀ = L⁻ᵀ·R₁⁻ᵀ·…·R_K⁻ᵀ·U⁻ᵀ` — the same factors transposed,
/// in the opposite order.
pub(super) fn btran(f: &mut Factorization, c: &[f64], out: &mut Vec<f64>) {
    let m = f.m;
    let mut z = std::mem::take(&mut f.z);
    grow(&mut z, m, 0.0);
    for (s, zs) in z.iter_mut().enumerate() {
        *zs = c[f.pos_of_slot[s] as usize];
    }
    // Uᵀ forward in pivot order: the column list of slot s is exactly row
    // s of the transpose.
    for i in 0..m {
        let s = f.perm[i] as usize;
        let mut acc = z[s];
        for &(j, u) in f.ucols.get(s) {
            acc -= u * z[j as usize];
        }
        z[s] = acc / f.udiag[s];
    }
    // Row-eta transposes, newest first: R⁻ᵀ = I − Σ r·e_k·e_tᵀ.
    for (e, &t) in f.eta_slot.iter().enumerate().rev() {
        let zt = z[t as usize];
        if zt != 0.0 {
            for &(k, r) in eta_terms(f, e) {
                z[k as usize] -= r * zt;
            }
        }
    }
    // Lᵀ backward, dot-product form.
    for k in (0..m).rev() {
        let mut acc = z[k];
        for &(s, l) in lcol(f, k) {
            acc -= l * z[s as usize];
        }
        z[k] = acc;
    }
    refill(out, m, 0.0);
    for (s, &zs) in z.iter().enumerate() {
        out[f.row_of_slot[s] as usize] = zs;
    }
    f.z = z;
}

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

use super::arena::{grow, refill, reserve_tight};
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
/// Applies `B⁻¹ = U⁻¹·R_K⁻¹·…·R₁⁻¹·L⁻¹` left to right, and leaves what it
/// held before `U` in `f.spike` for a Forrest–Tomlin update to pick up.
pub(super) fn ftran_dense(f: &mut Factorization, a: &[f64], out: &mut Vec<f64>) {
    let m = f.m;
    f.stats.ftrans += 1;
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
    f.spike.clear();
    reserve_tight(&mut f.spike, m);
    f.spike.extend_from_slice(&z);
    f.spike_live = true;
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
    f.stats.btrans += 1;
    let mut z = std::mem::take(&mut f.z);
    grow(&mut z, m, 0.0);
    for (s, zs) in z.iter_mut().enumerate() {
        *zs = c[f.pos_of_slot[s] as usize];
    }
    // Uᵀ forward in pivot order, scattering each finished entry along its
    // row of U: a zero entry costs nothing, so a unit right-hand side (the
    // pivot row of B⁻¹) pays for its own fill, not for all of U.
    for i in 0..m {
        let s = f.perm[i] as usize;
        if z[s] == 0.0 {
            continue;
        }
        let x = z[s] / f.udiag[s];
        z[s] = x;
        for &(j, u) in f.urows.get(s) {
            z[j as usize] -= u * x;
        }
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

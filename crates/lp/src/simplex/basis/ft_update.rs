//! The Forrest–Tomlin basis-exchange update.
//!
//! Replacing the basis column at slot `t` with an entering column `a`
//! turns `U` into `H`: `U` with column `t` replaced by the *spike*
//! `s = Λ⁻¹a`, with `Λ = L·R₁·…·R_K` the product of all factors left of
//! `U`. That is the vector the FTRAN of `a` holds on its way to
//! `w = U⁻¹·s`, so the solve keeps it (`Factorization::spike`, its nonzero
//! slots in `spike_nz`) and the update needs neither `w` nor a second pass
//! over `U`.
//!
//! Rotating slot `t` to the end of the pivot order makes the spike column
//! upper triangular again but strands row `t`'s old entries below the
//! diagonal; eliminating that row against the later pivots (left to
//! right) yields multipliers `r_k` forming one *row eta*
//! `R = I + Σ r_k·e_t·e_kᵀ` with `H = R·U_new`, so the factorization
//! becomes `B = L·R₁·…·R_K·R·U_new`. The new diagonal is
//! `s_t − Σ r_k·s_k`; if it falls below the pivot tolerance the update is
//! *rejected before anything is committed* and the caller refactorizes.
//!
//! Appending a row `r` whose slack is basic (`append_row`) is the same
//! elimination without a spike: the bordered `U` is `[[U, 0], [r, 1]]`, its
//! last row is stranded whole below the diagonal, and eliminating it
//! against *every* pivot leaves the multipliers `r·U⁻¹` as a row eta and a
//! new pivot of exactly 1.
//!
//! Cost per update: the row elimination and the spike's own nonzeros, in
//! exchange for solve kernels that never degrade (U stays truly
//! triangular, unlike a product-form eta file).

use super::sparse::{with_work, BitQueue};
use super::Factorization;

pub(super) fn apply(f: &mut Factorization, pos: usize) -> bool {
    if !f.spike_live {
        return false;
    }
    let t = f.slot_of_pos[pos] as usize;

    // Eliminate row t against the later pivots it reaches (in pivot order),
    // collecting the row-eta terms. The terms go straight onto the end of
    // the eta file and are cut off again if the update is rejected; nothing
    // else is committed until the new pivot passes the tolerance check.
    let terms_from = f.eta_terms.len();
    with_work(f, |f, z, q, _| {
        for &(j, u) in f.urows.get(t) {
            z[j as usize] = u;
            q.insert(f.ord[j as usize] as usize);
        }
        eliminate_row(f, z, q);
    });
    // Row k's entry in the spike column contributes to the diagonal.
    let new_diag = f.eta_terms[terms_from..]
        .iter()
        .fold(f.spike[t], |diag, &(k, r)| diag - r * f.spike[k as usize]);
    if new_diag.abs() <= f.pivot_tol {
        f.eta_terms.truncate(terms_from);
        f.stats.pivot_rejections += 1;
        return false;
    }

    // --- commit ----------------------------------------------------------
    // Drop the old column t from the row lists and the old row t from the
    // column lists (the latter's entries were just eliminated into the
    // row eta).
    for &(j, _) in f.ucols.get(t) {
        f.urows.retain(j as usize, |&(s, _)| s as usize != t);
    }
    for &(j, _) in f.urows.get(t) {
        f.ucols.retain(j as usize, |&(s, _)| s as usize != t);
    }
    f.urows.clear(t);
    // Insert the spike as the new column t: with t rotated last, every
    // other slot sits above it, so all off-diagonal spike entries land in
    // the upper triangle.
    f.ucols.clear(t);
    f.ucols.reserve(t, f.spike_nz.len());
    for &s in &f.spike_nz {
        let (s, sv) = (s as usize, f.spike[s as usize]);
        if s != t {
            f.ucols.push(t, (s as u32, sv));
            f.urows.push(s, (t as u32, sv));
        }
    }
    f.udiag[t] = new_diag;
    // Rotate slot t to the end of the pivot order.
    let m = f.m;
    let p0 = f.ord[t] as usize;
    for i in p0..m - 1 {
        f.perm[i] = f.perm[i + 1];
        f.ord[f.perm[i] as usize] = i as u32;
    }
    f.perm[m - 1] = t as u32;
    f.ord[t] = m as u32 - 1;
    // An empty term list is the identity eta (t was already last):
    // nothing to store, but it still counts toward the refactor cadence.
    if f.eta_terms.len() > terms_from {
        f.eta_slot.push(t as u32);
        f.eta_start.push(f.eta_terms.len() as u32);
    }
    f.updates += 1;
    f.stats.ft_updates += 1;
    f.spike_live = false;
    true
}

/// Eliminate the working row — `z` over slots, the pivot places of its
/// nonzeros in `q` — against the pivots it reaches, left to right (`q`
/// popped in ascending pivot order, as the solve kernels pop theirs),
/// pushing one `(slot, multiplier)` term per nonzero pivot it meets onto the
/// eta file: the multipliers are the row times `U⁻¹` over those pivots.
/// Leaves `z` and `q` all-zero.
fn eliminate_row(f: &mut Factorization, z: &mut [f64], q: &mut BitQueue) {
    q.drain_up(|q, i| {
        let k = f.perm[i] as usize;
        let v = std::mem::replace(&mut z[k], 0.0);
        if v == 0.0 {
            return;
        }
        let r = v / f.udiag[k];
        f.eta_terms.push((k as u32, r));
        for &(j, u) in f.urows.get(k) {
            let j = j as usize;
            if z[j] == 0.0 {
                q.insert(f.ord[j] as usize);
            }
            z[j] -= r * u;
        }
    });
}

/// Border the factors with one row and its unit slack column:
/// `B' = [[B, 0], [r, 1]]`, `r` given over basis positions. With
/// `Λ = L·R₁·…·R_K`,
///
/// ```text
/// [[Λ·U, 0], [r, 1]] = [[Λ, 0], [0, 1]] · (I + e_m·ρᵀ) · [[U, 0], [0, 1]],   ρᵀ·U = r
/// ```
///
/// so the new slot joins the end of the pivot order with pivot 1 and empty
/// `L`/`U` lists, and `ρ = r·U⁻¹` — the elimination of a stranded row that
/// [`apply`] runs — is one more row eta. Nothing can be refused: the new
/// pivot is exactly 1.
pub(super) fn append_row(f: &mut Factorization, row: &[(u32, f64)]) {
    let terms_from = f.eta_terms.len();
    with_work(f, |f, z, q, _| {
        for &(pos, v) in row {
            let s = f.slot_of_pos[pos as usize] as usize;
            z[s] = v;
            q.insert(f.ord[s] as usize);
        }
        eliminate_row(f, z, q);
    });
    let slot = f.m as u32;
    f.l_start.push(f.l_data.len() as u32);
    f.lrow_start.push(f.lrow_data.len() as u32);
    f.ucols.add_segments(1);
    f.urows.add_segments(1);
    f.udiag.push(1.0);
    for v in [
        &mut f.perm,
        &mut f.ord,
        &mut f.row_of_slot,
        &mut f.slot_of_row,
        &mut f.pos_of_slot,
        &mut f.slot_of_pos,
    ] {
        v.push(slot);
    }
    if f.eta_terms.len() > terms_from {
        f.eta_slot.push(slot);
        f.eta_start.push(f.eta_terms.len() as u32);
    }
    f.m += 1;
    f.updates += 1;
    f.stats.bordered_rows += 1;
    f.spike_live = false;
}

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
//! Moving slot `t` to the end of the pivot order makes the spike column
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
//! The move itself is O(1): `t` gives back its pivot key and takes the next
//! one (`Factorization::perm`), so no other slot's key changes.
//!
//! Cost per update: the row elimination and the spike's own nonzeros, in
//! exchange for solve kernels that never degrade (U stays truly
//! triangular, unlike a product-form eta file).

use super::sparse::{with_work, BitQueue};
use super::{Factorization, RETIRED};

pub(super) fn apply(f: &mut Factorization, pos: usize) -> bool {
    exchange(f, pos, move_last)
}

/// Move slot `t` to the end of the pivot order: retire its key, give it the
/// next one.
fn move_last(f: &mut Factorization, t: usize) {
    f.perm[f.ord[t] as usize] = RETIRED;
    f.ord[t] = f.perm.len() as u32;
    f.perm.push(t as u32);
}

/// The update of [`apply`], with `move_last(f, t)` putting slot `t` at the
/// end of the pivot order once the update is accepted.
pub(super) fn exchange(
    f: &mut Factorization,
    pos: usize,
    move_last: impl FnOnce(&mut Factorization, usize),
) -> bool {
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
    // Insert the spike as the new column t: with t moved last, every
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
    move_last(f, t);
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

/// Eliminate the working row — `z` over slots, the pivot keys of its
/// nonzeros in `q` — against the pivots it reaches, left to right (`q`
/// popped in ascending key order, as the solve kernels pop theirs),
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
/// so the new slot takes the next pivot key with pivot 1 and empty
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
    f.ord.push(f.perm.len() as u32);
    f.perm.push(slot);
    for v in [&mut f.row_of_slot, &mut f.slot_of_row, &mut f.pos_of_slot, &mut f.slot_of_pos] {
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

#[cfg(test)]
mod tests {
    use super::super::tests::{lp_basis, lp_column, Rng};
    use super::super::{Factorization, SparseCol, RETIRED};
    use super::exchange;

    /// The pivot order as it was kept before pivot keys: `perm` a
    /// contiguous permutation of the slots, and an update shifting
    /// `perm[p0 + 1..m]` down one place to put slot `t` last.
    fn rotate_last(f: &mut Factorization, t: usize) {
        let m = f.m;
        let p0 = f.ord[t] as usize;
        for i in p0..m - 1 {
            f.perm[i] = f.perm[i + 1];
            f.ord[f.perm[i] as usize] = i as u32;
        }
        f.perm[m - 1] = t as u32;
        f.ord[t] = m as u32 - 1;
    }

    /// A twin of `Factorization` whose updates rotate the pivot order in
    /// place; everything else is the shared code, which a contiguous
    /// permutation (no retired keys, keys `0..m`) drives as before.
    struct Rotating(Factorization);

    impl Rotating {
        fn update(&mut self, pos: usize) -> bool {
            exchange(&mut self.0, pos, rotate_last)
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The slots by ascending live key.
    fn pivot_order(f: &Factorization) -> Vec<u32> {
        f.perm.iter().copied().filter(|&s| s != RETIRED).collect()
    }

    /// The four solves on one random right-hand side each, bitwise equal on
    /// both objects.
    fn probe(keys: &mut Factorization, twin: &mut Factorization, rng: &mut Rng, at: &str) {
        let m = keys.m;
        let a = lp_column(m, rng.below(m), 4 + rng.below(4), rng.below(3) > 0, rng);
        let (mut w, mut w_nz, mut v, mut v_nz) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        keys.ftran(&a, &mut w, &mut w_nz);
        twin.ftran(&a, &mut v, &mut v_nz);
        assert_eq!((bits(&w), &w_nz), (bits(&v), &v_nz), "{at}: ftran");
        let pos = rng.below(m);
        keys.btran_row(pos, &mut w, &mut w_nz);
        twin.btran_row(pos, &mut v, &mut v_nz);
        assert_eq!((bits(&w), &w_nz), (bits(&v), &v_nz), "{at}: btran_row");
        let rhs: Vec<f64> =
            (0..m).map(|_| if rng.below(3) == 0 { rng.range(-2.0, 2.0) } else { 0.0 }).collect();
        keys.ftran_dense(&rhs, &mut w);
        twin.ftran_dense(&rhs, &mut v);
        assert_eq!(bits(&w), bits(&v), "{at}: ftran_dense");
        keys.btran(&rhs, &mut w);
        twin.btran(&rhs, &mut v);
        assert_eq!(bits(&w), bits(&v), "{at}: btran");
    }

    /// `‖B·w − a‖∞` small for the tracked columns: the chain is the basis
    /// the test believes it is.
    fn assert_solves(f: &mut Factorization, cols: &[SparseCol], a: &[(u32, f64)], at: &str) {
        let (mut w, mut nz) = (Vec::new(), Vec::new());
        f.ftran(a, &mut w, &mut nz);
        let mut r = vec![0.0; cols.len()];
        a.iter().for_each(|&(i, v)| r[i as usize] = v);
        for (col, &wj) in cols.iter().zip(&w) {
            col.iter().for_each(|&(i, v)| r[i as usize] -= v * wj);
        }
        let worst = r.iter().fold(0.0f64, |acc, x| acc.max(x.abs()));
        assert!(worst < 1e-8, "{at}: residual {worst}");
    }

    /// Scatter `entries` into `dense`, scaled.
    fn add_into(dense: &mut [f64], entries: &[(u32, f64)], scale: f64) {
        entries.iter().for_each(|&(i, v)| dense[i as usize] += scale * v);
    }

    /// Pivot keys against the contiguous rotation they replace, on random
    /// LP-shaped bases through long chains of updates (regular ones,
    /// identity updates of the slot already last, refused ones) and
    /// bordered rows: every solve bitwise the twin's, the same verdict on
    /// every update, the same pivot order and eta file, never more than
    /// `m + updates` keys, and keys `0..m` again after each refactorization.
    #[test]
    fn pivot_keys_match_a_contiguous_rotation_bitwise() {
        let mut rng = Rng(0x0F7_C4A1_B2D3_u64);
        let (mut identity, mut refused, mut bordered, mut regular) = (0, 0, 0, 0);
        for trial in 0..9 {
            let m0 = [24, 70, 160][trial % 3] + rng.below(20);
            let max_etas = [6, 24, 96][trial / 3];
            let mut cols = lp_basis(m0, 0.4, &mut rng);
            let mut keys = Factorization::new(max_etas, 1e-9);
            let mut twin = Rotating(Factorization::new(max_etas, 1e-9));
            let refactor = |keys: &mut Factorization, twin: &mut Rotating, cols: &[SparseCol]| {
                let refs: Vec<&SparseCol> = cols.iter().collect();
                keys.refactor(&refs).unwrap();
                twin.0.refactor(&refs).unwrap();
                let m = cols.len() as u32;
                assert!(keys.perm.iter().copied().eq(0..m) && keys.ord.iter().copied().eq(0..m));
            };
            refactor(&mut keys, &mut twin, &cols);
            for step in 0..260 {
                let at = format!("trial {trial} step {step}");
                probe(&mut keys, &mut twin.0, &mut rng, &at);
                let m = keys.m;
                let (mut refuse, mut already_last) = (false, false);
                if rng.below(12) == 0 {
                    // Border a row over a few basis positions.
                    let mut row: Vec<(u32, f64)> = (0..2 + rng.below(6))
                        .map(|_| (rng.below(m) as u32, rng.range(-1.0, 1.0)))
                        .collect();
                    row.sort_unstable_by_key(|&(pos, _)| pos);
                    row.dedup_by_key(|&mut (pos, _)| pos);
                    keys.append_row(&row);
                    twin.0.append_row(&row);
                    row.iter().for_each(|&(pos, v)| cols[pos as usize].push((m as u32, v)));
                    cols.push(vec![(m as u32, 1.0)]);
                    bordered += 1;
                } else {
                    let last = *pivot_order(&keys).last().unwrap() as usize;
                    let (pos, a) = match rng.below(6) {
                        // The slot already last: an identity eta.
                        0 => {
                            let pos = keys.pos_of_slot[last] as usize;
                            let mut dense = vec![0.0; m];
                            add_into(&mut dense, &cols[pos], 2.0);
                            add_into(&mut dense, &cols[rng.below(m)], 0.5);
                            let a: SparseCol =
                                (0..m as u32).zip(dense).filter(|&(_, v)| v != 0.0).collect();
                            already_last = true;
                            identity += 1;
                            (pos, a)
                        }
                        // Another basic column: w has no entry at `pos`.
                        1 => {
                            let pos = rng.below(m);
                            refuse = true;
                            (pos, cols[(pos + 1 + rng.below(m - 1)) % m].clone())
                        }
                        _ => {
                            let a = lp_column(m, rng.below(m), 4 + rng.below(4), true, &mut rng);
                            let (mut w, mut nz) = (Vec::new(), Vec::new());
                            keys.ftran(&a, &mut w, &mut nz);
                            let pos = nz.iter().map(|&p| p as usize).fold(0, |best, p| {
                                if w[p].abs() > w[best].abs() {
                                    p
                                } else {
                                    best
                                }
                            });
                            regular += 1;
                            (pos, a)
                        }
                    };
                    let (mut w, mut w_nz, mut v, mut v_nz) =
                        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
                    keys.ftran(&a, &mut w, &mut w_nz);
                    twin.0.ftran(&a, &mut v, &mut v_nz);
                    assert_eq!(bits(&w), bits(&v), "{at}: entering ftran");
                    let before = (keys.perm.clone(), keys.ord.clone(), keys.eta_terms.len());
                    let etas = keys.eta_count();
                    let took = keys.update(pos);
                    assert_eq!(took, twin.update(pos), "{at}: verdicts differ");
                    assert_eq!(took, !refuse, "{at}: update taken {took}");
                    if already_last {
                        assert_eq!(
                            keys.eta_count(),
                            etas,
                            "{at}: an identity update stored an eta"
                        );
                    }
                    if took {
                        cols[pos] = a;
                        assert_eq!(
                            keys.ord[keys.slot_of_pos[pos] as usize] as usize,
                            keys.perm.len() - 1
                        );
                    } else {
                        refused += 1;
                        let after = (keys.perm.clone(), keys.ord.clone(), keys.eta_terms.len());
                        assert_eq!(before, after, "{at}: a refused update committed");
                    }
                }
                assert!(keys.perm.len() <= keys.m + keys.updates, "{at}: {} keys", keys.perm.len());
                assert_eq!(pivot_order(&keys), twin.0.perm, "{at}: pivot order");
                for (slot, &key) in keys.ord.iter().enumerate() {
                    assert_eq!(keys.perm[key as usize] as usize, slot, "{at}: ord");
                }
                assert_eq!(keys.eta_slot, twin.0.eta_slot, "{at}: eta slots");
                let terms = |f: &Factorization| -> Vec<(u32, u64)> {
                    f.eta_terms.iter().map(|&(k, r)| (k, r.to_bits())).collect()
                };
                assert_eq!(terms(&keys), terms(&twin.0), "{at}: eta terms");
                let probe_col = lp_column(keys.m, rng.below(keys.m), 5, true, &mut rng);
                assert_solves(&mut keys, &cols, &probe_col, &at);
                if refuse || keys.wants_refactor() {
                    refactor(&mut keys, &mut twin, &cols);
                }
            }
        }
        assert!(
            identity > 50 && refused > 50 && bordered > 50 && regular > 500,
            "{identity} {refused} {bordered} {regular}"
        );
    }
}

//! Sparse Gaussian elimination with threshold-Markowitz pivot selection.
//!
//! Each elimination step picks a pivot entry `(r, j)` minimizing the
//! Markowitz fill bound `(rcount[r] − 1)·(ccount[j] − 1)` among entries
//! passing the stability ladder (see [`TAU`]). Row and column counts are
//! maintained incrementally; columns live in count-indexed candidate
//! buckets with lazily discarded stale entries, so each search touches
//! only a handful of columns (bounded by [`MAX_SEARCH`] once a candidate
//! exists, with an immediate stop on a fill-free `cost == 0` pivot).
//!
//! Elimination is right-looking: the pivot column becomes a column of
//! `L`, the pivot row's entries become a row of `U`, and every active
//! column crossing the pivot row is updated through a dense scatter
//! (stamp-validated, so clearing costs only the touched entries).
//!
//! Everything — bucket order, tie-breaks, fill pattern order — is a pure
//! function of the input columns, preserving the repo-wide bit-exact
//! determinism contract.

use super::arena::{refill, SegArena};
use super::{FactorError, Factorization};

/// Relative stability threshold: an entry is pivot-eligible only when its
/// magnitude is at least `TAU` times the largest magnitude in its active
/// column. Together with the absolute `pivot_tol` floor this forms the
/// tolerance ladder: `|v| > pivot_tol` guards singularity, `|v| ≥
/// TAU·colmax` bounds element growth per elimination step.
const TAU: f64 = 0.1;
/// Candidate columns examined per pivot search once at least one eligible
/// entry has been found (the Suhl–Suhl style bounded search).
const MAX_SEARCH: usize = 8;

/// Elimination workspace, kept in the [`Factorization`] between calls so a
/// refactorization only resets it. Every field is fully re-initialized by
/// [`refactorize`]; nothing carries over from one basis to the next.
#[derive(Debug, Clone, Default)]
pub(super) struct Workspace {
    /// Working copy of the basis, column-major over active rows.
    acol: SegArena<(u32, f64)>,
    /// Columns with a (structural) entry in each row. Entries are pushed
    /// exactly once per (row, column) pair — at setup or at fill creation —
    /// and never removed; consumers skip already-pivoted columns.
    rows_cols: SegArena<u32>,
    /// Count-indexed candidate buckets with lazy invalidation: a column is
    /// re-pushed whenever its count changes; stale or duplicate entries are
    /// dropped when a search encounters them.
    bucket: SegArena<u32>,
    ccount: Vec<u32>,
    rcount: Vec<u32>,
    col_pivoted: Vec<bool>,
    /// Off-diagonal entries of `U` in creation order: `(basis position,
    /// elimination step, value)`.
    uents: Vec<(u32, u32, f64)>,
    /// Dense scatter scratch for the column updates (`mark`-validated), a
    /// per-search seen stamp for bucket deduplication, the fill pattern of
    /// the column being updated, and segment sizes for the flat layouts.
    work: Vec<f64>,
    mark: Vec<u32>,
    seen: Vec<u32>,
    pattern: Vec<u32>,
    sizes: Vec<u32>,
}

pub(super) fn refactorize(
    f: &mut Factorization,
    m: usize,
    column: impl Fn(usize, &mut dyn FnMut(&[(u32, f64)])),
) -> Result<(), FactorError> {
    let Workspace {
        acol,
        rows_cols,
        bucket,
        ccount,
        rcount,
        col_pivoted,
        uents,
        work,
        mark,
        seen,
        pattern,
        sizes,
    } = &mut f.ws;
    f.m = m;

    // --- working copy of the basis ---------------------------------------
    acol.layout(std::iter::empty());
    ccount.clear();
    refill(rcount, m, 0);
    refill(sizes, m + 1, 0);
    for j in 0..m {
        column(j, &mut |col| acol.push_segment(col));
        let col = acol.get(j);
        ccount.push(col.len() as u32);
        sizes[col.len()] += 1;
        for &(r, _) in col {
            rcount[r as usize] += 1;
        }
    }
    let basis_nnz = acol.total_len() as u64;
    rows_cols.layout(rcount.iter().copied());
    bucket.layout(sizes.iter().copied());
    for (j, &c) in ccount.iter().enumerate() {
        bucket.push(c as usize, j as u32);
        for &(r, _) in acol.get(j) {
            rows_cols.push(r as usize, j as u32);
        }
    }

    refill(col_pivoted, m, false);
    // Per-slot outputs, keyed by original row / basis position until the
    // final remap into slot indices.
    f.l_start.clear();
    f.l_start.push(0);
    f.l_data.clear(); // (orig row, mult)
    uents.clear();
    f.udiag.clear();
    f.row_of_slot.clear();
    f.pos_of_slot.clear();
    refill(work, m, 0.0);
    refill(mark, m, 0);
    refill(seen, m, 0);
    let mut stamp: u32 = 0;

    for step in 0..m {
        // --- pivot search ------------------------------------------------
        let sstamp = step as u32 + 1;
        let mut best: Option<(u64, u32, u32, f64)> = None; // (cost, col, row, val)
        let mut examined = 0usize;
        'search: for c in 1..=m {
            let mut idx = 0;
            while idx < bucket.get(c).len() {
                let j = bucket.get(c)[idx] as usize;
                if col_pivoted[j] || ccount[j] as usize != c || seen[j] == sstamp {
                    bucket.swap_remove(c, idx); // stale or duplicate
                    continue;
                }
                seen[j] = sstamp;
                idx += 1;
                // Examine column j: stability threshold relative to its
                // largest active entry, Markowitz cost from row counts.
                let colmax = acol.get(j).iter().fold(0.0f64, |a, &(_, v)| a.max(v.abs()));
                let thresh = TAU * colmax;
                let mut local: Option<(u64, u32, f64)> = None; // (cost, row, val)
                for &(r, v) in acol.get(j) {
                    let av = v.abs();
                    if av <= f.pivot_tol || av < thresh {
                        continue;
                    }
                    let cost = (rcount[r as usize] as u64 - 1) * (c as u64 - 1);
                    let better = match local {
                        None => true,
                        Some((bc, br, _)) => cost < bc || (cost == bc && r < br),
                    };
                    if better {
                        local = Some((cost, r, v));
                    }
                }
                examined += 1;
                if let Some((cost, r, v)) = local {
                    // Strictly-smaller cost wins; ties keep the earlier
                    // candidate (lower count bucket / earlier in scan),
                    // which is deterministic by construction.
                    if best.as_ref().is_none_or(|&(bc, ..)| cost < bc) {
                        best = Some((cost, j as u32, r, v));
                    }
                    if cost == 0 {
                        break 'search; // fill-free pivot: optimal
                    }
                }
                if examined >= MAX_SEARCH && best.is_some() {
                    break 'search;
                }
            }
        }
        let Some((_, jp, rp, vp)) = best else {
            return Err(FactorError::Singular { position: step });
        };
        let (jp, rp) = (jp as usize, rp as usize);

        // --- eliminate ---------------------------------------------------
        col_pivoted[jp] = true;
        f.row_of_slot.push(rp as u32);
        f.pos_of_slot.push(jp as u32);
        f.udiag.push(vp);

        // Pivot column → column of L (active rows only, scaled).
        for &(i, v) in acol.get(jp) {
            if i as usize != rp {
                f.l_data.push((i, v / vp));
                // Row i lost its entry in the pivot column.
                rcount[i as usize] -= 1;
            }
        }
        let lcol = &f.l_data[f.l_start[step] as usize..];
        f.l_start.push(f.l_data.len() as u32);

        // Right-looking update of every active column crossing the pivot
        // row: column j gains `-l·u` at each L entry, loses its pivot-row
        // entry (which becomes a row-`step` entry of U). Row `rp`'s list is
        // final by now (fills only land in rows still active), so indexing
        // it while other rows' lists grow is safe.
        for t in 0..rows_cols.get(rp).len() {
            let jc = rows_cols.get(rp)[t];
            let j = jc as usize;
            if col_pivoted[j] {
                continue;
            }
            stamp += 1;
            pattern.clear();
            let mut u = 0.0;
            for &(i, v) in acol.get(j) {
                if i as usize == rp {
                    u = v;
                } else {
                    work[i as usize] = v;
                    mark[i as usize] = stamp;
                    pattern.push(i);
                }
            }
            if u != 0.0 {
                uents.push((jc, step as u32, u));
                for &(i, l) in lcol {
                    let ii = i as usize;
                    if mark[ii] == stamp {
                        work[ii] -= l * u;
                    } else {
                        // Fill-in: a brand-new structural entry.
                        mark[ii] = stamp;
                        work[ii] = -l * u;
                        pattern.push(i);
                        rows_cols.push(ii, jc);
                        rcount[ii] += 1;
                    }
                }
            }
            // Gather back in pattern order (original entries then fills —
            // deterministic), and re-bucket under the new count.
            for (entry, &i) in acol.rewrite(j, pattern.len()).iter_mut().zip(pattern.iter()) {
                *entry = (i, work[i as usize]);
            }
            ccount[j] = pattern.len() as u32;
            bucket.push(pattern.len(), jc);
        }
    }

    // --- remap into slot space and install -------------------------------
    refill(&mut f.slot_of_row, m, 0);
    for (k, &r) in f.row_of_slot.iter().enumerate() {
        f.slot_of_row[r as usize] = k as u32;
    }
    refill(&mut f.slot_of_pos, m, 0);
    for (k, &p) in f.pos_of_slot.iter().enumerate() {
        f.slot_of_pos[p as usize] = k as u32;
    }
    for e in f.l_data.iter_mut() {
        e.0 = f.slot_of_row[e.0 as usize];
    }
    // Row index of L: slot s lists the columns with an entry there. Count,
    // take running ends, then fill each row from its end back to its start.
    refill(&mut f.lrow_start, m + 1, 0);
    for &(s, _) in &f.l_data {
        f.lrow_start[s as usize] += 1;
    }
    for s in 1..=m {
        f.lrow_start[s] += f.lrow_start[s - 1];
    }
    refill(&mut f.lrow_data, f.l_data.len(), 0);
    for (k, ends) in f.l_start.windows(2).enumerate() {
        for &(s, _) in &f.l_data[ends[0] as usize..ends[1] as usize] {
            f.lrow_start[s as usize] -= 1;
            f.lrow_data[f.lrow_start[s as usize] as usize] = k as u32;
        }
    }
    // U by column (entries of one column stay in step order) and its
    // row-major mirror (each row ascending by column slot), both laid out
    // to fit exactly.
    refill(sizes, m, 0);
    for &(j, _, _) in uents.iter() {
        sizes[f.slot_of_pos[j as usize] as usize] += 1;
    }
    f.ucols.layout(sizes.iter().copied());
    refill(sizes, m, 0);
    for &(j, k, u) in uents.iter() {
        f.ucols.push(f.slot_of_pos[j as usize] as usize, (k, u));
        sizes[k as usize] += 1;
    }
    f.urows.layout(sizes.iter().copied());
    for s in 0..m {
        for &(k, u) in f.ucols.get(s) {
            f.urows.push(k as usize, (s as u32, u));
        }
    }
    f.perm.clear();
    f.perm.extend(0..m as u32);
    f.ord.clear();
    f.ord.extend(0..m as u32);
    f.eta_slot.clear();
    f.eta_start.clear();
    f.eta_start.push(0);
    f.eta_terms.clear();
    f.updates = 0;
    f.spike_live = false;
    f.stats.refactors += 1;
    f.stats.basis_nnz += basis_nnz;
    f.stats.factor_nnz += (m + f.l_data.len() + uents.len()) as u64;
    Ok(())
}

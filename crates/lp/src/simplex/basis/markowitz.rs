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
//! (stamp-validated, so clearing costs only the touched entries). Most
//! pivots of an LP basis are singleton columns, whose `L` column is empty:
//! a column crossing one only loses its pivot-row entry, which is removed
//! in place, keeping the rest in order, as the scatter and gather would.
//! The search stops at the largest count any column has had, the last
//! bucket that can hold an entry.
//!
//! Everything — bucket order, tie-breaks, fill pattern order — is a pure
//! function of the input columns, preserving the repo-wide bit-exact
//! determinism contract.

use super::arena::{refill, reserve_tight, SegArena};
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
    // The largest count any column has had: no bucket above it ever holds
    // an entry, stale or live.
    let mut cmax = ccount.iter().copied().max().unwrap_or(0) as usize;

    for step in 0..m {
        // --- pivot search ------------------------------------------------
        let sstamp = step as u32 + 1;
        let mut best: Option<(u64, u32, u32, f64)> = None; // (cost, col, row, val)
        let mut examined = 0usize;
        'search: for c in 1..=cmax {
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
            // No column still unpivoted has an acceptable entry left.
            let position = col_pivoted.iter().position(|&done| !done).unwrap_or(step);
            return Err(FactorError::Singular { position });
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
            if lcol.is_empty() {
                // A singleton pivot column: no fill, so the column only
                // loses its pivot-row entry, in place and in order.
                let mut u = 0.0;
                acol.retain(j, |&(i, v)| {
                    let hit = i as usize == rp;
                    if hit {
                        u = v;
                    }
                    !hit
                });
                if u != 0.0 {
                    uents.push((jc, step as u32, u));
                }
                let count = acol.get(j).len();
                ccount[j] = count as u32;
                bucket.push(count, jc);
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
            cmax = cmax.max(pattern.len());
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
    // Pivot keys `0..m`, with room for the keys the update file can add
    // before the next refactorization (queue words included), so a warmed
    // update allocates nothing.
    f.perm.clear();
    reserve_tight(&mut f.perm, m + f.max_etas);
    f.perm.extend(0..m as u32);
    f.ord.clear();
    f.ord.extend(0..m as u32);
    f.queue.reset(m + f.max_etas);
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

#[cfg(test)]
mod tests {
    use super::super::tests::{lp_basis, Rng};
    use super::super::{FactorError, Factorization, SparseCol};
    use super::*;

    /// `refactorize` as it was before the in-place crossings of singleton
    /// pivots and the bounded bucket search: the reference the kernel is
    /// held to, bit for bit.
    fn reference(
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
                // No column still unpivoted has an acceptable entry left.
                let position = col_pivoted.iter().position(|&done| !done).unwrap_or(step);
                return Err(FactorError::Singular { position });
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

    /// A refactorization kernel: `refactorize` or `reference`.
    type Kernel = fn(
        &mut Factorization,
        usize,
        &dyn Fn(usize, &mut dyn FnMut(&[(u32, f64)])),
    ) -> Result<(), FactorError>;

    /// Factorize `cols` with `kernel` on `f`.
    fn run(f: &mut Factorization, cols: &[SparseCol], kernel: Kernel) -> Result<(), FactorError> {
        kernel(f, cols.len(), &|pos, sink| sink(&cols[pos]))
    }

    fn bits(entries: &[(u32, f64)]) -> Vec<(u32, u64)> {
        entries.iter().map(|&(k, v)| (k, v.to_bits())).collect()
    }

    fn segments(arena: &SegArena<(u32, f64)>) -> Vec<Vec<(u32, u64)>> {
        (0..arena.segments()).map(|s| bits(arena.get(s))).collect()
    }

    /// Both kernels on `cols`, each on a fresh object and on one warmed by
    /// the bases before: the same verdict, and on success the same slots,
    /// diagonal, `L` and `U` (both orientations) to the bit. Returns the
    /// verdict.
    fn assert_same(
        cols: &[SparseCol],
        pivot_tol: f64,
        warm: &mut [Factorization; 2],
        at: &str,
    ) -> Result<(), FactorError> {
        let mut verdicts = Vec::new();
        for objects in [
            [Factorization::new(0, pivot_tol), Factorization::new(0, pivot_tol)],
            std::mem::take(warm),
        ] {
            let [mut new, mut old] = objects;
            new.set_limits(0, pivot_tol);
            old.set_limits(0, pivot_tol);
            let verdict = run(&mut new, cols, |f, m, c| refactorize(f, m, c));
            assert_eq!(verdict, run(&mut old, cols, |f, m, c| reference(f, m, c)), "{at}");
            if verdict.is_ok() {
                assert_eq!(new.row_of_slot, old.row_of_slot, "{at}: row_of_slot");
                assert_eq!(new.pos_of_slot, old.pos_of_slot, "{at}: pos_of_slot");
                let diag =
                    |f: &Factorization| f.udiag.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(diag(&new), diag(&old), "{at}: udiag");
                assert_eq!(new.l_start, old.l_start, "{at}: l_start");
                assert_eq!(bits(&new.l_data), bits(&old.l_data), "{at}: l_data");
                assert_eq!(segments(&new.ucols), segments(&old.ucols), "{at}: ucols");
                assert_eq!(segments(&new.urows), segments(&old.urows), "{at}: urows");
                assert_eq!(new.stats(), old.stats(), "{at}: stats");
            }
            *warm = [new, old];
            verdicts.push(verdict);
        }
        assert_eq!(verdicts[0], verdicts[1], "{at}: fresh and warmed objects differ");
        verdicts.swap_remove(0)
    }

    /// Dense columns to sparse ones, explicit zeros dropped.
    fn sparse(dense: &[Vec<f64>]) -> Vec<SparseCol> {
        dense
            .iter()
            .map(|c| (0..).zip(c.iter().copied()).filter(|&(_, v)| v != 0.0).collect())
            .collect()
    }

    /// The kernel against the pre-change reference on LP-shaped bases:
    /// slack-heavy ones, singleton chains, bumps with fill-in, singletons
    /// at and just above `pivot_tol`, and singular bases.
    #[test]
    fn refactorize_matches_the_reference_bitwise() {
        let mut rng = Rng(0x3A11_0C0F_FEE5_u64);
        let mut warm = [Factorization::new(0, 1e-9), Factorization::new(0, 1e-9)];
        for trial in 0..30 {
            let m = 20 + rng.below(300);
            // Slack-heavy and mixed LP bases.
            let slack = [0.9, 0.6, 0.3][trial % 3];
            let cols = lp_basis(m, slack, &mut rng);
            assert_same(&cols, 1e-9, &mut warm, &format!("lp {trial}")).unwrap();

            // A singleton chain: column j covers rows j..j + 3, so each
            // pivot leaves the column before it a singleton.
            let chain: Vec<SparseCol> = (0..m)
                .map(|j| (j..m.min(j + 3)).map(|i| (i as u32, rng.range(0.5, 2.0))).collect())
                .collect();
            assert_same(&chain, 1e-9, &mut warm, &format!("chain {trial}")).unwrap();

            // A bump with fill-in: a dense-ish diagonally dominant block.
            let n = 8 + rng.below(40);
            let mut dense = vec![vec![0.0; n]; n];
            for (j, c) in dense.iter_mut().enumerate() {
                for (i, v) in c.iter_mut().enumerate() {
                    if i == j {
                        *v = 4.0 + rng.range(0.0, 1.0);
                    } else if rng.below(4) == 0 {
                        *v = rng.range(-1.0, 1.0);
                    }
                }
            }
            assert_same(&sparse(&dense), 1e-9, &mut warm, &format!("bump {trial}")).unwrap();

            // Singletons at the tolerance (refused: singular) and just above
            // it (taken), among LP columns.
            let mut cols = lp_basis(m, 0.6, &mut rng);
            let k = rng.below(m);
            for other in cols.iter_mut() {
                other.retain(|&(i, _)| i as usize != k);
            }
            for (v, want) in
                [(1e-9, Err(FactorError::Singular { position: k })), (1.000_001e-9, Ok(()))]
            {
                cols[k] = vec![(k as u32, v)];
                assert_eq!(assert_same(&cols, 1e-9, &mut warm, &format!("tol {v} {trial}")), want);
            }

            // Singular: two parallel columns, then an empty one.
            let mut cols = lp_basis(m, 0.5, &mut rng);
            let (a, b) = (rng.below(m), rng.below(m));
            if a != b {
                cols[b] = cols[a].iter().map(|&(i, v)| (i, 3.0 * v)).collect();
                let verdict = assert_same(&cols, 1e-9, &mut warm, &format!("parallel {trial}"));
                assert!(matches!(verdict, Err(FactorError::Singular { .. })), "{verdict:?}");
            }
            cols[a].clear();
            let verdict = assert_same(&cols, 1e-9, &mut warm, &format!("empty {trial}"));
            assert!(matches!(verdict, Err(FactorError::Singular { .. })), "{verdict:?}");
        }
    }
}

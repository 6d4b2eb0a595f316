//! Sparse Gaussian elimination with threshold-Markowitz pivot selection.
//!
//! Each elimination step picks a pivot entry `(r, j)` minimizing the
//! Markowitz fill bound `(rcount[r] − 1)·(ccount[j] − 1)` among entries
//! passing the stability ladder (see [`TAU`]). Row and column counts are
//! maintained incrementally; columns live in count-indexed candidate
//! buckets with lazily discarded stale entries, so each search touches
//! only a handful of columns (bounded by [`MAX_SEARCH`] once a candidate
//! exists, with an immediate stop on a fill-free `cost == 0` pivot). A
//! column of count 1 is its own column maximum, so only the absolute floor
//! can refuse it. The search stops at the largest count any column has had,
//! the last bucket that can hold an entry.
//!
//! Elimination is right-looking: the pivot column becomes a column of
//! `L`, the pivot row's entries become a row of `U`, and every active
//! column crossing the pivot row is updated through a dense scatter
//! (stamp-validated, so clearing costs only the touched entries). Most
//! pivots of an LP basis are singleton columns, whose `L` column is empty:
//! a column crossing one only loses its pivot-row entry, which is removed
//! in place, keeping the rest in order, as the scatter and gather would.
//!
//! Everything — bucket order, tie-breaks, fill pattern order — is a pure
//! function of the input columns, preserving the repo-wide bit-exact
//! determinism contract.

use super::arena::{grow, refill, reserve_tight, SegArena};
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
/// `ccount` of a pivoted column: no bucket is searched at it.
const PIVOTED: u32 = u32::MAX;

/// Elimination workspace, kept in the [`Factorization`] between calls so a
/// refactorization only resets it. Every field but the stamps (`stamp`,
/// `mark`, `seen`, which only ever compare equal to a stamp of the current
/// call) is re-initialized by [`refactorize`], so nothing else carries
/// over from one basis to the next.
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
    bucket: Vec<Vec<u32>>,
    /// Active entries of each column, [`PIVOTED`] once it is pivoted.
    ccount: Vec<u32>,
    /// Active entries of each row.
    rcount: Vec<u32>,
    /// Off-diagonal entries of `U` in creation order: `(basis position,
    /// elimination step, value)`. Step `k` created the run
    /// `uents[ustart[k]..ustart[k + 1]]`, its row of `U`.
    uents: Vec<(u32, u32, f64)>,
    ustart: Vec<u32>,
    /// Dense scatter scratch for the column updates (`mark`-validated), a
    /// per-search seen stamp for bucket deduplication, the fill pattern of
    /// the column being updated, and segment sizes for the flat layouts.
    work: Vec<f64>,
    mark: Vec<u32>,
    seen: Vec<u32>,
    pattern: Vec<u32>,
    sizes: Vec<u32>,
    /// The last stamp written to `mark` or `seen`. Stamps keep counting
    /// across refactorizations, so neither array is cleared between them.
    stamp: u32,
}

/// A stamp no entry of `mark` or `seen` holds yet.
fn next_stamp(stamp: &mut u32, mark: &mut [u32], seen: &mut [u32]) -> u32 {
    if *stamp == u32::MAX {
        mark.fill(0);
        seen.fill(0);
        *stamp = 0;
    }
    *stamp += 1;
    *stamp
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
        uents,
        ustart,
        work,
        mark,
        seen,
        pattern,
        sizes,
        stamp,
    } = &mut f.ws;
    f.m = m;

    // --- working copy of the basis ---------------------------------------
    acol.layout(std::iter::empty());
    ccount.clear();
    refill(rcount, m, 0);
    bucket.iter_mut().for_each(Vec::clear);
    for j in 0..m {
        column(j, &mut |col| {
            acol.push_segment_with(col, |&(r, _)| rcount[r as usize] += 1);
            let c = col.len();
            ccount.push(c as u32);
            if bucket.len() <= c {
                bucket.resize_with(c + 1, Vec::new);
            }
            bucket[c].push(j as u32);
        });
    }
    let basis_nnz = acol.total_len() as u64;
    // The largest count any column has had: no bucket above it ever holds
    // an entry, stale or live.
    let mut cmax = bucket.iter().rposition(|b| !b.is_empty()).unwrap_or(0);
    rows_cols.layout(rcount.iter().copied());
    for j in 0..m {
        for &(r, _) in acol.get(j) {
            rows_cols.push(r as usize, j as u32);
        }
    }

    // Per-slot outputs, keyed by original row / basis position until the
    // final remap into slot indices.
    f.l_start.clear();
    f.l_start.push(0);
    f.l_data.clear(); // (orig row, mult)
    uents.clear();
    ustart.clear();
    f.udiag.clear();
    f.row_of_slot.clear();
    f.pos_of_slot.clear();
    grow(work, m, 0.0);
    grow(mark, m, 0);
    grow(seen, m, 0);

    for step in 0..m {
        ustart.push(uents.len() as u32);
        // --- pivot search ------------------------------------------------
        let sstamp = next_stamp(stamp, mark, seen);
        let mut best: Option<(u64, u32, u32, f64)> = None; // (cost, col, row, val)
        let mut examined = 0usize;
        'search: for (c, cands) in bucket.iter_mut().enumerate().take(cmax + 1).skip(1) {
            let mut idx = 0;
            while idx < cands.len() {
                let j = cands[idx] as usize;
                if ccount[j] as usize != c || seen[j] == sstamp {
                    cands.swap_remove(idx); // stale or duplicate
                    continue;
                }
                idx += 1;
                examined += 1;
                let col = acol.get(j);
                if c == 1 {
                    // Fill-free, and no candidate found before it is
                    // cheaper: taken unless under the absolute floor (the
                    // search goes on, so a duplicate must be told).
                    let (r, v) = col[0];
                    if v.abs() > f.pivot_tol {
                        best = Some((0, j as u32, r, v));
                        break 'search;
                    }
                    seen[j] = sstamp;
                    continue;
                }
                seen[j] = sstamp;
                // Examine column j: stability threshold relative to its
                // largest active entry, the cheapest row by count (the
                // lowest on a tie) among the entries passing it.
                let colmax = col.iter().fold(0.0f64, |a, &(_, v)| a.max(v.abs()));
                let thresh = TAU * colmax;
                let mut local: Option<(u32, u32, f64)> = None; // (row count, row, val)
                for &(r, v) in col {
                    let av = v.abs();
                    if av <= f.pivot_tol || av < thresh {
                        continue;
                    }
                    let rc = rcount[r as usize];
                    if local.is_none_or(|(bc, br, _)| rc < bc || (rc == bc && r < br)) {
                        local = Some((rc, r, v));
                    }
                }
                if let Some((rc, r, v)) = local {
                    let cost = (rc as u64 - 1) * (c as u64 - 1);
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
            let position = ccount.iter().position(|&c| c != PIVOTED).unwrap_or(step);
            return Err(FactorError::Singular { position });
        };
        let (jp, rp) = (jp as usize, rp as usize);

        // --- eliminate ---------------------------------------------------
        let singleton = ccount[jp] == 1;
        ccount[jp] = PIVOTED;
        f.row_of_slot.push(rp as u32);
        f.pos_of_slot.push(jp as u32);
        f.udiag.push(vp);
        if singleton {
            // An empty column of L: each column crossing the pivot row only
            // loses its entry there, in place and in order.
            f.l_start.push(f.l_data.len() as u32);
            for &jc in rows_cols.get(rp) {
                let j = jc as usize;
                let count = ccount[j];
                if count == PIVOTED {
                    continue;
                }
                let u = acol.remove_key(j, rp as u32);
                if u != 0.0 {
                    uents.push((jc, step as u32, u));
                }
                ccount[j] = count - 1;
                bucket[count as usize - 1].push(jc);
            }
            continue;
        }

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
            if ccount[j] == PIVOTED {
                continue;
            }
            let stamp = next_stamp(stamp, mark, seen);
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
            let count = pattern.len();
            ccount[j] = count as u32;
            if count > cmax {
                cmax = count;
                if bucket.len() <= cmax {
                    bucket.resize_with(cmax + 1, Vec::new);
                }
            }
            bucket[count].push(jc);
        }
    }

    // --- remap into slot space and install -------------------------------
    refill(&mut f.slot_of_row, m, 0);
    refill(&mut f.slot_of_pos, m, 0);
    for (k, (&r, &p)) in f.row_of_slot.iter().zip(&f.pos_of_slot).enumerate() {
        f.slot_of_row[r as usize] = k as u32;
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
    // U by rows, each ascending by column slot: step k's run of `uents`,
    // sorted.
    ustart.push(uents.len() as u32);
    f.urows.layout_runs(ustart, uents.iter().map(|&(j, _, u)| (f.slot_of_pos[j as usize], u)));
    for k in 0..m {
        let row = f.urows.get_mut(k);
        if row.len() > 1 {
            row.sort_unstable_by_key(|&(s, _)| s);
        }
    }
    // U by column (entries of one column stay in step order), laid out to
    // fit exactly.
    refill(sizes, m, 0);
    for &(j, _, _) in uents.iter() {
        sizes[f.slot_of_pos[j as usize] as usize] += 1;
    }
    f.ucols.layout(sizes.iter().copied());
    for &(j, k, u) in uents.iter() {
        f.ucols.push(f.slot_of_pos[j as usize] as usize, (k, u));
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
    use super::super::tests::{lp_basis, lp_column, Rng};
    use super::super::{FactorError, Factorization, SparseCol};
    use super::*;

    /// The elimination workspace as it was when `reference` was the kernel.
    #[derive(Default)]
    struct RefWorkspace {
        acol: SegArena<(u32, f64)>,
        rows_cols: SegArena<u32>,
        bucket: SegArena<u32>,
        ccount: Vec<u32>,
        rcount: Vec<u32>,
        col_pivoted: Vec<bool>,
        uents: Vec<(u32, u32, f64)>,
        work: Vec<f64>,
        mark: Vec<u32>,
        seen: Vec<u32>,
        pattern: Vec<u32>,
        sizes: Vec<u32>,
    }

    /// `refactorize` as it was before the in-place crossings of singleton
    /// pivots and the bounded bucket search: the reference the kernel is
    /// held to, bit for bit.
    fn reference(
        f: &mut Factorization,
        m: usize,
        column: impl Fn(usize, &mut dyn FnMut(&[(u32, f64)])),
    ) -> Result<(), FactorError> {
        let RefWorkspace {
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
        } = &mut RefWorkspace::default();
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
    /// the bases before: the same verdict and the same pivot sequence
    /// (slots, diagonal, `L`) to the bit, up to a singular column's
    /// position, and on success the same `U` (both orientations). Returns
    /// the verdict.
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
            assert_eq!(new.row_of_slot, old.row_of_slot, "{at}: row_of_slot");
            assert_eq!(new.pos_of_slot, old.pos_of_slot, "{at}: pos_of_slot");
            let diag = |f: &Factorization| f.udiag.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(diag(&new), diag(&old), "{at}: udiag");
            assert_eq!(new.l_start, old.l_start, "{at}: l_start");
            assert_eq!(bits(&new.l_data), bits(&old.l_data), "{at}: l_data");
            if verdict.is_ok() {
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

    /// A basis shaped like the schedule LPs' (SAM's, PC's): `m` rows, a
    /// `slack` share of slack singletons, the rest flow columns of two or
    /// three entries on the rows after their anchor, so the basis
    /// triangularizes but for the few that wrap past the last row, which
    /// leave a small bump.
    fn schedule_basis(m: usize, slack: f64, rng: &mut Rng) -> Vec<SparseCol> {
        (0..m)
            .map(|j| {
                let extra = if rng.range(0.0, 1.0) < slack { 0 } else { 1 + rng.below(2) };
                lp_column(m, j, extra, true, rng)
            })
            .collect()
    }

    /// The kernel against the pre-change reference on LP-shaped bases:
    /// slack-heavy ones, schedule-shaped ones, slacks alone, singleton
    /// chains, bumps with fill-in (counts that fall and rise again, so
    /// buckets hold stale and duplicate entries), singletons at and just
    /// above `pivot_tol`, and singular bases.
    #[test]
    fn refactorize_matches_the_reference_bitwise() {
        let mut rng = Rng(0x3A11_0C0F_FEE5_u64);
        let mut warm = [Factorization::new(0, 1e-9), Factorization::new(0, 1e-9)];
        // The smallest bases: none, one slack, one refused singleton.
        assert_same(&[], 1e-9, &mut warm, "m = 0").unwrap();
        assert_same(&[vec![(0, 2.0)]], 1e-9, &mut warm, "m = 1").unwrap();
        let tiny = assert_same(&[vec![(0, 1e-10)]], 1e-9, &mut warm, "m = 1, tiny");
        assert_eq!(tiny, Err(FactorError::Singular { position: 0 }));
        for trial in 0..30 {
            let m = 20 + rng.below(300);
            // Slack-heavy and mixed LP bases.
            let slack = [0.9, 0.6, 0.3][trial % 3];
            let cols = lp_basis(m, slack, &mut rng);
            assert_same(&cols, 1e-9, &mut warm, &format!("lp {trial}")).unwrap();

            // Schedule-shaped bases (about 45% slacks) and slacks alone, in
            // scrambled positions.
            let mut cols = schedule_basis(m, [0.45, 0.3, 0.75][trial % 3], &mut rng);
            assert_same(&cols, 1e-9, &mut warm, &format!("schedule {trial}")).unwrap();
            for k in (1..m).rev() {
                cols.swap(k, rng.below(k + 1));
            }
            assert_same(&cols, 1e-9, &mut warm, &format!("shuffled {trial}")).unwrap();
            let slacks: Vec<SparseCol> =
                (0..m).map(|j| vec![(((j * 7) % m) as u32, rng.range(0.5, 2.0))]).collect();
            let verdict = assert_same(&slacks, 1e-9, &mut warm, &format!("slacks {trial}"));
            // A row stride sharing a factor with `m` repeats rows.
            assert_eq!(verdict.is_ok(), !m.is_multiple_of(7), "slacks {trial}: {verdict:?}");

            // Tiny entries sprinkled over a schedule basis: singletons the
            // search examines, refuses and passes by step after step (and
            // meets again in later searches), until the basis is found
            // singular or the tiny entry's row goes to another column.
            let mut cols = schedule_basis(m, 0.45, &mut rng);
            for col in cols.iter_mut() {
                if rng.below(20) == 0 {
                    let at = rng.below(col.len());
                    col[at].1 = 1e-10;
                }
            }
            assert_same(&cols, 1e-9, &mut warm, &format!("tiny {trial}")).ok();

            // Stamps about to wrap: the marks are cleared and counting
            // restarts, in the middle of an elimination.
            warm[0].ws.stamp = u32::MAX - 3;
            let cols = lp_basis(m, 0.3, &mut rng);
            assert_same(&cols, 1e-9, &mut warm, &format!("wrap {trial}")).unwrap();

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

            // Singular and slack-heavy: a slack repeated at another position.
            let mut cols = schedule_basis(m, 0.8, &mut rng);
            let (a, b) = (rng.below(m), rng.below(m));
            if a != b {
                cols[b] = vec![(a as u32, 2.0)];
                cols[a] = vec![(a as u32, 1.0)];
                let verdict = assert_same(&cols, 1e-9, &mut warm, &format!("repeat {trial}"));
                assert!(matches!(verdict, Err(FactorError::Singular { .. })), "{verdict:?}");
            }
        }
    }
}

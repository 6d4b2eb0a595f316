//! FTRAN/BTRAN solve kernels over the sparse LU factors.
//!
//! The factored basis is `P·B·Q = L·R₁·R₂·…·R_K·U` where `P`/`Q` are the
//! row/position-to-slot permutations, `L` is unit lower triangular in
//! slot order (static between refactorizations), each `R_k` is a
//! Forrest–Tomlin *row eta* `I + Σ_j r_j·e_t·e_{k_j}ᵀ`, and `U` is upper
//! triangular with respect to the *current* pivot order: the slots by
//! ascending pivot key (`ord`, `perm`; every update moves one slot to the
//! end by giving it the next key).
//!
//! A dense right-hand side (the basic values, the duals) is *swept*: every
//! slot, in the order each factor needs (`ftran_dense`, `btran`; `U`'s
//! stage walks `perm` and skips the retired keys). The per-pivot solves
//! (`ftran` of the entering column, `btran_row`) visit only the slots
//! their right-hand side *reaches*: each stage queues the slots it
//! writes in a [`BitQueue`] keyed by the order the sweep visits them in, and
//! pops them in that order. A popped slot gets exactly the sweep's
//! arithmetic and an unreached one is a zero the sweep only adds zeros to,
//! so the result is bitwise the sweep's (up to the sign of a zero) with no
//! sort. Every nonzero slot a stage has not popped yet is queued, so a
//! scatter queues its target only when the target was zero. The work vector
//! `z` and the queue are all-zero between calls; nothing allocates once
//! warmed.

use super::arena::{grow, refill};
use super::{Factorization, RETIRED};

/// Keys `0..n` as bits, visited in key order: one `u64` word per 64 keys,
/// so a scan skips 64 absent keys per word read.
#[derive(Debug, Clone, Default)]
pub(crate) struct BitQueue {
    words: Vec<u64>,
}

impl BitQueue {
    /// Empty the set, for keys below `n`.
    pub fn reset(&mut self, n: usize) {
        refill(&mut self.words, n.div_ceil(64), 0);
    }

    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    #[inline]
    pub fn contains(&self, k: usize) -> bool {
        self.words[k >> 6] & (1 << (k & 63)) != 0
    }

    #[inline]
    pub fn insert(&mut self, k: usize) {
        self.words[k >> 6] |= 1 << (k & 63);
    }

    /// Hold every key below `n`.
    pub fn fill(&mut self, n: usize) {
        refill(&mut self.words, n.div_ceil(64), !0);
        if n & 63 != 0 {
            self.words[n >> 6] = below(0, n & 63);
        }
    }

    /// Hold exactly the keys `other` holds, in this set's own buffer.
    pub fn copy_from(&mut self, other: &BitQueue) {
        self.words.clone_from(&other.words);
    }

    /// Insert `count` keys at `at` into a set of keys below `len`: every
    /// key at or above `at` moves up by `count`, and the keys
    /// `at..at + count` are held when `fill`. Word by word, from the top.
    pub fn open_gap(&mut self, len: usize, at: usize, count: usize, fill: bool) {
        if count == 0 {
            return;
        }
        let end = at + count;
        grow(&mut self.words, (len + count).div_ceil(64), 0);
        for w in (at >> 6..self.words.len()).rev() {
            let base = w << 6;
            // The old keys `base - count ..` at their new places (zero
            // below key 0), from words at or below `w`, which the walk down
            // has not written yet.
            let moved = if base >= count {
                let (from, shift) = ((base - count) >> 6, (base - count) & 63);
                let lo = self.words[from] >> shift;
                let hi = self.words.get(from + 1).map_or(0, |&v| v << 1 << (63 - shift));
                lo | hi
            } else if count - base < 64 {
                self.words[0] << (count - base)
            } else {
                0
            };
            let (keep, head) = (below(base, at), below(base, end));
            let gap = if fill { head & !keep } else { 0 };
            self.words[w] = (self.words[w] & keep) | gap | (moved & !head);
        }
    }

    /// Hold `k` when `member`, else not.
    #[inline]
    pub fn set(&mut self, k: usize, member: bool) {
        let bit = 1 << (k & 63);
        let word = &mut self.words[k >> 6];
        *word = (*word & !bit) | (u64::from(member) << (k & 63));
    }

    #[inline]
    pub fn remove(&mut self, k: usize) {
        self.words[k >> 6] &= !(1 << (k & 63));
    }

    /// The smallest key `≥ from`, left in the set.
    #[inline]
    pub fn next(&self, from: usize) -> Option<usize> {
        let mut w = from >> 6;
        let mut bits = *self.words.get(w)? & (!0 << (from & 63));
        while bits == 0 {
            w += 1;
            bits = *self.words.get(w)?;
        }
        Some(w << 6 | bits.trailing_zeros() as usize)
    }

    /// Remove the keys in ascending order, handing each to `visit`, which
    /// may insert keys above the one it was handed; they are visited too.
    #[inline]
    pub fn drain_up(&mut self, mut visit: impl FnMut(&mut Self, usize)) {
        let mut w = 0;
        while w < self.words.len() {
            let bits = self.words[w];
            if bits == 0 {
                w += 1;
                continue;
            }
            self.words[w] = bits & (bits - 1);
            visit(self, w << 6 | bits.trailing_zeros() as usize);
        }
    }

    /// Remove the keys in descending order, handing each to `visit`, which
    /// may insert keys below the one it was handed; they are visited too.
    #[inline]
    pub fn drain_down(&mut self, mut visit: impl FnMut(&mut Self, usize)) {
        let mut w = self.words.len();
        while w > 0 {
            let bits = self.words[w - 1];
            if bits == 0 {
                w -= 1;
                continue;
            }
            let b = 63 - bits.leading_zeros() as usize;
            self.words[w - 1] = bits ^ (1 << b);
            visit(self, (w - 1) << 6 | b);
        }
    }
}

/// The bits of the word that holds keys `base..base + 64` whose key is
/// below `k`.
#[inline]
fn below(base: usize, k: usize) -> u64 {
    match k.saturating_sub(base) {
        0 => 0,
        b if b >= 64 => !0,
        b => (1 << b) - 1,
    }
}

/// Column `k` of `L`.
#[inline]
fn lcol(f: &Factorization, k: usize) -> &[(u32, f64)] {
    &f.l_data[f.l_start[k] as usize..f.l_start[k + 1] as usize]
}

/// The columns of `L` with an entry in slot `s` (all earlier than `s`).
#[inline]
fn lrow(f: &Factorization, s: usize) -> &[u32] {
    &f.lrow_data[f.lrow_start[s] as usize..f.lrow_start[s + 1] as usize]
}

/// Terms of row eta `e` in the flat eta file.
#[inline]
fn eta_terms(f: &Factorization, e: usize) -> &[(u32, f64)] {
    &f.eta_terms[f.eta_start[e] as usize..f.eta_start[e + 1] as usize]
}

/// Run `body` with the slot-space work vector, the bit queue (for keys
/// below the pivot-key count, which covers every slot, row and position
/// too) and an empty slot list lent out of `f`, sized to the basis; `body`
/// must leave the vector and the queue all-zero, as it gets them.
pub(super) fn with_work(
    f: &mut Factorization,
    body: impl FnOnce(&mut Factorization, &mut [f64], &mut BitQueue, &mut Vec<u32>),
) {
    let (mut z, mut q) = (std::mem::take(&mut f.z), std::mem::take(&mut f.queue));
    debug_assert!(z.iter().all(|&v| v == 0.0) && q.is_empty(), "solve scratch not all-zero");
    grow(&mut z, f.m, 0.0);
    q.reset(f.perm.len());
    let mut reach = std::mem::take(&mut f.reach);
    reach.clear();
    body(f, &mut z, &mut q, &mut reach);
    (f.z, f.queue, f.reach) = (z, q, reach);
}

/// Empty an output that is zero outside `nz` and size it to `m`.
fn reset_output(out: &mut Vec<f64>, nz: &mut Vec<u32>, m: usize) {
    for &i in nz.iter() {
        out[i as usize] = 0.0;
    }
    nz.clear();
    grow(out, m, 0.0);
    debug_assert!(out.iter().all(|&v| v == 0.0), "output nonzero outside its list");
}

/// Drain `q`, keyed by output index, into `out`/`nz` in ascending order,
/// moving each value out of `z` at `slot[key]`.
fn drain_output(q: &mut BitQueue, z: &mut [f64], slot: &[u32], out: &mut [f64], nz: &mut Vec<u32>) {
    q.drain_up(|_, i| {
        let v = std::mem::replace(&mut z[slot[i] as usize], 0.0);
        if v != 0.0 {
            out[i] = v;
            nz.push(i as u32);
        }
    });
}

/// Empty the spike of the last FTRAN, for the next one to write.
fn reset_spike(f: &mut Factorization) {
    for &s in &f.spike_nz {
        f.spike[s as usize] = 0.0;
    }
    f.spike_nz.clear();
    grow(&mut f.spike, f.m, 0.0);
}

/// [`ftran_dense`] of the sparse column `a` (original rows), over the reach
/// of `a`: `out` by basis position, zero outside `nz`, its nonzero
/// positions ascending (see `Factorization::ftran`).
pub(super) fn ftran(
    f: &mut Factorization,
    a: &[(u32, f64)],
    out: &mut Vec<f64>,
    nz: &mut Vec<u32>,
) {
    f.stats.ftrans += 1;
    reset_spike(f);
    reset_output(out, nz, f.m);
    with_work(f, |f, z, q, reach| {
        for &(i, v) in a {
            let s = f.slot_of_row[i as usize] as usize;
            z[s] = v;
            q.insert(s);
        }
        // L forward by slot; the walk leaves the reach queued.
        let mut from = 0;
        while let Some(k) = q.next(from) {
            from = k + 1;
            let zk = z[k];
            if zk != 0.0 {
                for &(s, l) in lcol(f, k) {
                    let s = s as usize;
                    if z[s] == 0.0 {
                        q.insert(s);
                    }
                    z[s] -= l * zk;
                }
            }
        }
        // Row etas, oldest first, dot products as in the sweep.
        for (e, &t) in f.eta_slot.iter().enumerate() {
            let t = t as usize;
            let acc = eta_terms(f, e).iter().fold(z[t], |acc, &(k, r)| acc - r * z[k as usize]);
            z[t] = acc;
            if acc != 0.0 {
                q.insert(t);
            }
        }
        // The spike: the reach's nonzeros, by slot.
        q.drain_up(|_, s| {
            if z[s] != 0.0 {
                f.spike[s] = z[s];
                f.spike_nz.push(s as u32);
            }
        });
        f.spike_live = true;
        // U backward by pivot key.
        for &s in &f.spike_nz {
            q.insert(f.ord[s as usize] as usize);
        }
        q.drain_down(|q, i| {
            let s = f.perm[i] as usize;
            let x = z[s] / f.udiag[s];
            z[s] = x;
            if x != 0.0 {
                reach.push(s as u32);
                for &(j, u) in f.ucols.get(s) {
                    let j = j as usize;
                    if z[j] == 0.0 {
                        q.insert(f.ord[j] as usize);
                    }
                    z[j] -= u * x;
                }
            }
        });
        for &s in reach.iter() {
            q.insert(f.pos_of_slot[s as usize] as usize);
        }
        drain_output(q, z, &f.slot_of_pos, out, nz);
    });
}

/// [`btran`] of the unit vector `e_pos` — row `pos` of `B⁻¹` — over its
/// reach: `out` by original row, zero outside `nz`, its nonzero rows
/// ascending (see `Factorization::btran_row`).
pub(super) fn btran_row(f: &mut Factorization, pos: usize, out: &mut Vec<f64>, nz: &mut Vec<u32>) {
    f.stats.btrans += 1;
    reset_output(out, nz, f.m);
    with_work(f, |f, z, q, reach| {
        let s0 = f.slot_of_pos[pos] as usize;
        z[s0] = 1.0;
        // Uᵀ forward by pivot key, scattering along rows of U.
        q.insert(f.ord[s0] as usize);
        q.drain_up(|q, i| {
            let s = f.perm[i] as usize;
            if z[s] == 0.0 {
                return;
            }
            let x = z[s] / f.udiag[s];
            z[s] = x;
            reach.push(s as u32);
            for &(j, u) in f.urows.get(s) {
                let j = j as usize;
                if z[j] == 0.0 {
                    q.insert(f.ord[j] as usize);
                }
                z[j] -= u * x;
            }
        });
        // Row-eta transposes, newest first, as in the sweep.
        for (e, &t) in f.eta_slot.iter().enumerate().rev() {
            let zt = z[t as usize];
            if zt != 0.0 {
                for &(k, r) in eta_terms(f, e) {
                    if z[k as usize] == 0.0 {
                        reach.push(k);
                    }
                    z[k as usize] -= r * zt;
                }
            }
        }
        // Lᵀ backward by slot: a reached slot with a column of L is
        // recomputed; one without keeps its value and hands it on to the
        // slots whose columns it enters.
        for &s in reach.iter() {
            let s = s as usize;
            if !lcol(f, s).is_empty() {
                q.insert(s);
            } else if z[s] != 0.0 {
                lrow(f, s).iter().for_each(|&k| q.insert(k as usize));
            }
        }
        q.drain_down(|q, k| {
            let before = z[k];
            let acc = lcol(f, k).iter().fold(before, |acc, &(s, l)| acc - l * z[s as usize]);
            z[k] = acc;
            if acc != 0.0 {
                if before == 0.0 {
                    reach.push(k as u32);
                }
                lrow(f, k).iter().for_each(|&j| q.insert(j as usize));
            }
        });
        for &s in reach.iter() {
            q.insert(f.row_of_slot[s as usize] as usize);
        }
        drain_output(q, z, &f.slot_of_row, out, nz);
    });
}

/// Solve `B·w = a` with a dense right-hand side in original row
/// coordinates; `out` is dense, indexed by basis position.
///
/// Applies `B⁻¹ = U⁻¹·R_K⁻¹·…·R₁⁻¹·L⁻¹` left to right, and leaves what it
/// held before `U` in `f.spike` for a Forrest–Tomlin update to pick up.
pub(super) fn ftran_dense(f: &mut Factorization, a: &[f64], out: &mut Vec<f64>) {
    let m = f.m;
    f.stats.ftrans += 1;
    reset_spike(f);
    with_work(f, |f, z, _, _| {
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
        for (s, &zs) in z.iter().enumerate() {
            if zs != 0.0 {
                f.spike[s] = zs;
                f.spike_nz.push(s as u32);
            }
        }
        f.spike_live = true;
        // U backward, column-oriented over the current pivot order.
        for &s in f.perm.iter().rev().filter(|&&s| s != RETIRED) {
            let s = s as usize;
            let x = z[s] / f.udiag[s];
            z[s] = x;
            if x != 0.0 {
                for &(j, u) in f.ucols.get(s) {
                    z[j as usize] -= u * x;
                }
            }
        }
        refill(out, m, 0.0);
        for (s, zs) in z.iter_mut().enumerate() {
            out[f.pos_of_slot[s] as usize] = std::mem::replace(zs, 0.0);
        }
    });
}

/// Solve `yᵀ·B = cᵀ` where `c` is dense, indexed by basis position; `out`
/// is dense, indexed by original row.
///
/// Applies `B⁻ᵀ = L⁻ᵀ·R₁⁻ᵀ·…·R_K⁻ᵀ·U⁻ᵀ` — the same factors transposed,
/// in the opposite order.
pub(super) fn btran(f: &mut Factorization, c: &[f64], out: &mut Vec<f64>) {
    let m = f.m;
    f.stats.btrans += 1;
    with_work(f, |f, z, _, _| {
        for (s, zs) in z.iter_mut().enumerate() {
            *zs = c[f.pos_of_slot[s] as usize];
        }
        // Uᵀ forward in pivot order, scattering each finished entry along its
        // row of U: a zero entry costs nothing.
        for &s in f.perm.iter().filter(|&&s| s != RETIRED) {
            let s = s as usize;
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
        for (s, zs) in z.iter_mut().enumerate() {
            out[f.row_of_slot[s] as usize] = std::mem::replace(zs, 0.0);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::BitQueue;

    /// Drains come out in key order from both ends, across word
    /// boundaries, including keys inserted while draining.
    #[test]
    fn bit_queue_drains_in_key_order() {
        let mut q = BitQueue::default();
        q.reset(200);
        for k in [3, 64, 63, 0, 199, 128, 127] {
            q.insert(k);
        }
        assert_eq!((q.next(4), q.next(200)), (Some(63), None));
        assert!(q.contains(63) && !q.contains(62));
        let mut up = Vec::new();
        q.drain_up(|q, k| {
            up.push(k);
            if k == 64 {
                q.insert(70);
            }
        });
        assert_eq!(up, [0, 3, 63, 64, 70, 127, 128, 199]);
        assert!(q.is_empty());
        for k in [5, 64, 130, 191] {
            q.insert(k);
        }
        let mut down = Vec::new();
        q.drain_down(|q, k| {
            down.push(k);
            if k == 130 {
                q.insert(66);
            }
        });
        assert_eq!(down, [191, 130, 66, 64, 5]);
        assert!(q.is_empty());
    }

    /// The keys a set holds below `len`, as a reference vector, after
    /// checking that it holds none at or above `len`.
    fn held(q: &BitQueue, len: usize) -> Vec<bool> {
        assert_eq!(q.next(len), None, "a key at or above {len}");
        (0..len).map(|k| q.contains(k)).collect()
    }

    /// `open_gap`, `copy_from`, `fill` and `set` against a `Vec<bool>`
    /// reference: random sets of random sizes, gaps at random places and
    /// at and around word edges, of lengths from 0 to past two words, both
    /// fills — a chain of gaps on one set, as a carried start opens three.
    #[test]
    fn bit_queue_opens_gaps_and_copies_like_a_vec_of_bools() {
        let mut state = 0x5EED_B175_u64;
        let mut draw = |below: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % below.max(1) as u64) as usize
        };
        let (mut q, mut copy) = (BitQueue::default(), BitQueue::default());
        for round in 0..400 {
            let mut len = [0, 1, 63, 64, 65, 127, 128, 129][round % 8] + draw(3) * draw(90);
            let mut want: Vec<bool> = (0..len).map(|_| draw(3) == 0).collect();
            q.reset(len + 1);
            for (k, &on) in want.iter().enumerate() {
                q.set(k, on);
            }
            q.set(len, true);
            q.set(len, false);
            assert_eq!(held(&q, len), want, "round {round}: set");
            for _ in 0..3 {
                let at = match draw(4) {
                    0 => len,
                    1 => (draw(len / 64 + 1) * 64).min(len),
                    _ => draw(len + 1),
                };
                let count = [0, 1, 63, 64, 65, 130][draw(6)].min(draw(140));
                let fill = draw(2) == 0;
                q.open_gap(len, at, count, fill);
                want.splice(at..at, std::iter::repeat_n(fill, count));
                len += count;
                assert_eq!(held(&q, len), want, "round {round}: gap of {count} at {at}");
            }
            copy.fill(draw(300));
            copy.copy_from(&q);
            assert_eq!(held(&copy, len), want, "round {round}: copy");
            copy.fill(len);
            assert_eq!(held(&copy, len), vec![true; len], "round {round}: fill");
        }
    }
}

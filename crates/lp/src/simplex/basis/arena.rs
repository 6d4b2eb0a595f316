//! Growable segments in one flat buffer.
//!
//! The sparse structures of this crate are families of short lists — one
//! per column, row, or count bucket — that are rebuilt constantly. As
//! `Vec<Vec<T>>` each list is its own heap block; here segment `s` is the
//! range `data[start[s]..start[s] + len[s]]` of one shared buffer, so
//! resetting a family is `O(segments)` and reuses the buffer. A segment
//! that outgrows its capacity moves to the end of the buffer and leaves a
//! dead range behind; once half the buffer is dead the segments are slid
//! back together. Element order within a segment is always preserved, which
//! keeps every consumer bit-deterministic.

/// Make room for `len` entries in `v` with an eighth to spare. These buffers
/// live as long as a session or a thread and grow a row at a time; `Vec`'s
/// own doubling would leave most of them half empty for good.
pub(crate) fn reserve_tight<T>(v: &mut Vec<T>, len: usize) {
    if v.capacity() < len {
        v.reserve_exact(len + len / 8 - v.len());
    }
}

/// Grow `v` to `len` entries (new ones `fill`), reserving tightly.
pub(crate) fn grow<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    reserve_tight(v, len);
    v.resize(len, fill);
}

/// Overwrite `v` with `len` copies of `fill`, reserving tightly.
pub(crate) fn refill<T: Clone>(v: &mut Vec<T>, len: usize, fill: T) {
    v.clear();
    grow(v, len, fill);
}

/// See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub(crate) struct SegArena<T> {
    data: Vec<T>,
    start: Vec<u32>,
    len: Vec<u32>,
    cap: Vec<u32>,
    /// Entries of `data` that belong to no segment any more.
    dead: usize,
    /// Scratch for `compact`: segments in buffer order.
    order: Vec<u32>,
}

impl<T: Copy + Default> SegArena<T> {
    /// Start over with one empty segment per capacity in `caps`, laid out
    /// back to back (an exact fit when the final lengths are known).
    pub fn layout(&mut self, caps: impl Iterator<Item = u32>) {
        self.start.clear();
        self.cap.clear();
        let mut at = 0u32;
        for c in caps {
            self.start.push(at);
            self.cap.push(c);
            at += c;
        }
        refill(&mut self.len, self.start.len(), 0);
        refill(&mut self.data, at as usize, T::default());
        self.dead = 0;
    }

    /// Append a segment holding `items`, with no room to spare.
    pub fn push_segment(&mut self, items: &[T]) {
        self.start.push(self.data.len() as u32);
        self.len.push(items.len() as u32);
        self.cap.push(items.len() as u32);
        self.data.extend_from_slice(items);
    }

    /// Append `extra` empty zero-capacity segments.
    pub fn add_segments(&mut self, extra: usize) {
        let segs = self.start.len() + extra;
        for v in [&mut self.start, &mut self.len, &mut self.cap] {
            grow(v, segs, 0);
        }
    }

    pub fn segments(&self) -> usize {
        self.start.len()
    }

    /// Entries stored over all segments.
    pub fn total_len(&self) -> usize {
        self.len.iter().map(|&l| l as usize).sum()
    }

    #[inline]
    pub fn get(&self, s: usize) -> &[T] {
        let at = self.start[s] as usize;
        &self.data[at..at + self.len[s] as usize]
    }

    /// Make room for `extra` more entries in segment `s`: a first fill is
    /// exact, later growth adds at least half.
    pub fn reserve(&mut self, s: usize, extra: usize) {
        let len = self.len[s] as usize;
        if len + extra <= self.cap[s] as usize {
            return;
        }
        if 2 * self.dead > self.data.len() {
            self.compact();
        }
        // Read only now: compaction moves every segment and cuts its
        // capacity down to its length.
        let (at, cap) = (self.start[s] as usize, self.cap[s] as usize);
        if at + cap != self.data.len() {
            self.start[s] = self.data.len() as u32;
            self.data.extend_from_within(at..at + len);
            self.dead += cap;
        }
        let new_cap = if cap == 0 { extra } else { (len + extra).max(cap + cap / 2 + 1) };
        grow(&mut self.data, self.start[s] as usize + new_cap, T::default());
        self.cap[s] = new_cap as u32;
    }

    /// Give memory back when over a quarter of the buffer is dead (for a
    /// family that outlives the operation that grew it).
    pub fn trim(&mut self) {
        if 4 * self.dead > self.data.len() {
            self.compact();
            self.data.shrink_to(self.data.len() + self.data.len() / 8);
            self.order = Vec::new();
        }
    }

    /// Slide the segments together, dropping dead ranges and spare capacity.
    fn compact(&mut self) {
        self.order.clear();
        self.order.extend(0..self.start.len() as u32);
        self.order.sort_unstable_by_key(|&s| self.start[s as usize]);
        let mut at = 0;
        for &s in &self.order {
            let (from, len) = (self.start[s as usize] as usize, self.len[s as usize] as usize);
            self.data.copy_within(from..from + len, at);
            self.start[s as usize] = at as u32;
            self.cap[s as usize] = len as u32;
            at += len;
        }
        self.data.truncate(at);
        self.dead = 0;
    }

    #[inline]
    pub fn push(&mut self, s: usize, v: T) {
        self.reserve(s, 1);
        self.data[(self.start[s] + self.len[s]) as usize] = v;
        self.len[s] += 1;
    }

    /// Replace segment `s` by `len` entries for the caller to overwrite.
    pub fn rewrite(&mut self, s: usize, len: usize) -> &mut [T] {
        self.clear(s);
        self.reserve(s, len);
        self.len[s] = len as u32;
        let at = self.start[s] as usize;
        &mut self.data[at..at + len]
    }

    /// Empty segment `s` (it keeps its capacity).
    pub fn clear(&mut self, s: usize) {
        self.len[s] = 0;
    }

    /// Remove entry `i` of segment `s` by moving the last entry into it.
    pub fn swap_remove(&mut self, s: usize, i: usize) {
        let at = self.start[s] as usize;
        self.len[s] -= 1;
        self.data[at + i] = self.data[at + self.len[s] as usize];
    }

    /// Keep the entries of segment `s` that satisfy `keep`, in order.
    pub fn retain(&mut self, s: usize, mut keep: impl FnMut(&T) -> bool) {
        let at = self.start[s] as usize;
        let mut kept = 0;
        for i in 0..self.len[s] as usize {
            let v = self.data[at + i];
            if keep(&v) {
                self.data[at + kept] = v;
                kept += 1;
            }
        }
        self.len[s] = kept as u32;
    }
}

/// Equality of contents: same segments holding the same entries, wherever
/// they sit in the buffer.
impl<T: Copy + Default + PartialEq> PartialEq for SegArena<T> {
    fn eq(&self, other: &Self) -> bool {
        self.segments() == other.segments()
            && (0..self.segments()).all(|s| self.get(s) == other.get(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every operation in random order, across many relocations and
    /// compactions, against a `Vec<Vec<_>>` doing the same the obvious way.
    /// Half the runs are shaped like `refactorize`'s column arena: exact-fit
    /// segments back to back, then rewrites that mostly grow them.
    #[test]
    fn matches_a_vec_of_vecs() {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |n: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 33) as usize % n
        };
        for run in 0..4000 {
            let eliminating = run % 2 == 0;
            let mut arena = SegArena::<u32>::default();
            let mut model: Vec<Vec<u32>> =
                vec![Vec::new(); if eliminating { 0 } else { 1 + next(10) }];
            arena.layout(model.iter().map(|_| next(4) as u32));
            for op in 0..120 {
                let items: Vec<u32> = (0..next(6)).map(|i| (op * 8 + i) as u32).collect();
                let kind = match eliminating {
                    true if op < 8 => 1,
                    true => [0, 2, 3][next(3)],
                    false => next(8),
                };
                let s = next(model.len().max(1));
                match kind {
                    0 => {
                        arena.push(s, op as u32);
                        model[s].push(op as u32);
                    }
                    1 => {
                        arena.push_segment(&items);
                        model.push(items);
                    }
                    2 | 3 => {
                        let grown: Vec<u32> = model[s].iter().copied().chain(items).collect();
                        arena.rewrite(s, grown.len()).copy_from_slice(&grown);
                        model[s] = grown;
                    }
                    4 => {
                        arena.retain(s, |&v| v % 3 != 0);
                        model[s].retain(|&v| v % 3 != 0);
                    }
                    5 if !model[s].is_empty() => {
                        let i = next(model[s].len());
                        arena.swap_remove(s, i);
                        model[s].swap_remove(i);
                    }
                    5 => {
                        arena.clear(s);
                        model[s].clear();
                    }
                    6 => {
                        arena.reserve(s, items.len());
                        arena.add_segments(2);
                        model.resize(model.len() + 2, Vec::new());
                    }
                    _ => arena.trim(),
                }
                assert_eq!(arena.segments(), model.len());
                for (s, want) in model.iter().enumerate() {
                    assert_eq!(arena.get(s), &want[..], "run {run} op {op} segment {s}");
                }
                assert_eq!(arena.total_len(), model.iter().map(Vec::len).sum::<usize>());
            }
        }
    }
}

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

/// Where one segment sits in the buffer: `data[start..start + len]`, with
/// room up to `start + cap`.
#[derive(Debug, Clone, Copy, Default)]
struct Seg {
    start: u32,
    len: u32,
    cap: u32,
}

/// See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub(crate) struct SegArena<T> {
    data: Vec<T>,
    segs: Vec<Seg>,
    /// Entries of `data` that belong to no segment any more.
    dead: usize,
    /// Scratch for `compact`: segments in buffer order.
    order: Vec<u32>,
}

impl<T: Copy + Default> SegArena<T> {
    /// Start over with one empty segment per capacity in `caps`, laid out
    /// back to back (an exact fit when the final lengths are known).
    pub fn layout(&mut self, caps: impl Iterator<Item = u32>) {
        let mut at = 0u32;
        self.segs.clear();
        self.segs.extend(caps.map(|cap| {
            at += cap;
            Seg { start: at - cap, len: 0, cap }
        }));
        refill(&mut self.data, at as usize, T::default());
        self.dead = 0;
    }

    /// Start over with segment `s` holding the run `bounds[s]..bounds[s + 1]`
    /// of `items`, with no room to spare.
    pub fn layout_runs(&mut self, bounds: &[u32], items: impl Iterator<Item = T>) {
        self.segs.clear();
        self.segs.extend(bounds.windows(2).map(|w| {
            let len = w[1] - w[0];
            Seg { start: w[0], len, cap: len }
        }));
        self.data.clear();
        self.data.extend(items);
        debug_assert_eq!(self.data.len(), bounds.last().map_or(0, |&end| end as usize));
        self.dead = 0;
    }

    /// Append a segment holding `items`, with no room to spare, showing
    /// each to `each` on the way.
    pub fn push_segment_with(&mut self, items: &[T], mut each: impl FnMut(&T)) {
        let len = items.len() as u32;
        self.segs.push(Seg { start: self.data.len() as u32, len, cap: len });
        for v in items {
            each(v);
            self.data.push(*v);
        }
    }

    /// Append a segment holding `items`, with no room to spare.
    #[cfg(test)]
    pub fn push_segment(&mut self, items: &[T]) {
        self.push_segment_with(items, |_| ());
    }

    /// Append `extra` empty zero-capacity segments.
    pub fn add_segments(&mut self, extra: usize) {
        let segs = self.segs.len() + extra;
        grow(&mut self.segs, segs, Seg::default());
    }

    pub fn segments(&self) -> usize {
        self.segs.len()
    }

    /// Entries stored over all segments.
    pub fn total_len(&self) -> usize {
        self.segs.iter().map(|g| g.len as usize).sum()
    }

    #[inline]
    pub fn get(&self, s: usize) -> &[T] {
        let g = self.segs[s];
        &self.data[g.start as usize..(g.start + g.len) as usize]
    }

    /// Segment `s`, writable in place.
    #[inline]
    pub fn get_mut(&mut self, s: usize) -> &mut [T] {
        let g = self.segs[s];
        &mut self.data[g.start as usize..(g.start + g.len) as usize]
    }

    /// Make room for `extra` more entries in segment `s`: a first fill is
    /// exact, later growth adds at least half.
    #[inline]
    pub fn reserve(&mut self, s: usize, extra: usize) {
        let g = self.segs[s];
        if g.len as usize + extra > g.cap as usize {
            self.relocate(s, extra);
        }
    }

    /// Move segment `s` to the end of the buffer with room for `extra` more.
    #[cold]
    #[inline(never)]
    fn relocate(&mut self, s: usize, extra: usize) {
        if 2 * self.dead > self.data.len() {
            self.compact();
        }
        // Read only now: compaction moves every segment and cuts its
        // capacity down to its length.
        let Seg { start, len, cap } = self.segs[s];
        let (at, len, cap) = (start as usize, len as usize, cap as usize);
        if at + cap != self.data.len() {
            self.segs[s].start = self.data.len() as u32;
            self.data.extend_from_within(at..at + len);
            self.dead += cap;
        }
        let new_cap = if cap == 0 { extra } else { (len + extra).max(cap + cap / 2 + 1) };
        grow(&mut self.data, self.segs[s].start as usize + new_cap, T::default());
        self.segs[s].cap = new_cap as u32;
    }

    /// Slide the segments together, dropping dead ranges and spare capacity.
    fn compact(&mut self) {
        self.order.clear();
        self.order.extend(0..self.segs.len() as u32);
        self.order.sort_unstable_by_key(|&s| self.segs[s as usize].start);
        let mut at = 0;
        for &s in &self.order {
            let g = &mut self.segs[s as usize];
            let (from, len) = (g.start as usize, g.len as usize);
            self.data.copy_within(from..from + len, at);
            g.start = at as u32;
            g.cap = len as u32;
            at += len;
        }
        self.data.truncate(at);
        self.dead = 0;
    }

    #[inline]
    pub fn push(&mut self, s: usize, v: T) {
        self.reserve(s, 1);
        let g = &mut self.segs[s];
        self.data[(g.start + g.len) as usize] = v;
        g.len += 1;
    }

    /// Replace segment `s` by `len` entries for the caller to overwrite.
    pub fn rewrite(&mut self, s: usize, len: usize) -> &mut [T] {
        self.clear(s);
        self.reserve(s, len);
        self.segs[s].len = len as u32;
        let at = self.segs[s].start as usize;
        &mut self.data[at..at + len]
    }

    /// Empty segment `s` (it keeps its capacity).
    pub fn clear(&mut self, s: usize) {
        self.segs[s].len = 0;
    }

    /// Remove entry `i` of segment `s` by moving the last entry into it.
    #[cfg(test)]
    pub fn swap_remove(&mut self, s: usize, i: usize) {
        let g = &mut self.segs[s];
        g.len -= 1;
        self.data[(g.start as usize) + i] = self.data[(g.start + g.len) as usize];
    }

    /// Keep the entries of segment `s` that satisfy `keep`, in order.
    pub fn retain(&mut self, s: usize, mut keep: impl FnMut(&T) -> bool) {
        let g = &mut self.segs[s];
        let seg = &mut self.data[g.start as usize..(g.start + g.len) as usize];
        let mut kept = 0;
        for i in 0..seg.len() {
            let v = seg[i];
            if keep(&v) {
                seg[kept] = v;
                kept += 1;
            }
        }
        g.len = kept as u32;
    }
}

impl SegArena<(u32, f64)> {
    /// Remove the entry keyed `key` from segment `s`, keeping the rest in
    /// order, and return its value (`0.0` when there is none).
    #[inline]
    pub fn remove_key(&mut self, s: usize, key: u32) -> f64 {
        let mut value = 0.0;
        self.retain(s, |&(k, v)| {
            if k == key {
                value = v;
            }
            k != key
        });
        value
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
                    false => next(7),
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
                    _ => {
                        arena.reserve(s, items.len());
                        arena.add_segments(2);
                        model.resize(model.len() + 2, Vec::new());
                    }
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

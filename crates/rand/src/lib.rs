//! Offline drop-in replacement for the subset of `rand` 0.8 used by this
//! workspace.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors a tiny API-compatible shim instead of the real crate: the
//! [`Rng`] / [`SeedableRng`] traits and a deterministic [`rngs::StdRng`]
//! built on xoshiro256++. Streams are *not* bit-compatible with upstream
//! `rand`; everything in the workspace treats seeds as opaque, so only
//! determinism per seed matters.
//!
//! Outside its tests the crate calls no `unwrap`, `expect` or `panic!`;
//! clippy enforces it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

/// The workspace-wide default seed. Experiments, scenarios, benches, and
/// examples all start from this one constant; independent streams are
/// derived from it with [`derive_seed`] rather than by hard-coding sibling
/// constants.
pub const DEFAULT_SEED: u64 = 7;

/// FNV-1a hash of a label, used to split one base seed into named streams.
pub fn hash_label(label: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in label.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Derive an independent, deterministic stream seed from `base` and a
/// `label` naming the stream (`seed ⊕ hash(label)`, finalized through a
/// SplitMix64 round so labels differing in one bit give unrelated seeds).
///
/// This is the workspace's stream-splitting primitive: the parallel
/// evaluation engine derives one seed per sweep *cell* from the run seed
/// and the cell's label, so results are a pure function of `(seed, cell)`
/// — identical whether cells execute serially or on any number of worker
/// threads, in any order.
pub fn derive_seed(base: u64, label: &str) -> u64 {
    split_u64(base ^ hash_label(label))
}

/// Derive an independent stream seed from `base` and a stream index
/// (the numeric sibling of [`derive_seed`], for unlabeled replications).
pub fn derive_seed_indexed(base: u64, index: u64) -> u64 {
    split_u64(base ^ index.wrapping_mul(0x9E3779B97F4A7C15))
}

/// One SplitMix64 finalization round (also used by `StdRng::seed_from_u64`
/// for state expansion).
fn split_u64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Hash map with a fixed, thread-independent hasher.
///
/// `std`'s default `RandomState` draws its keys from a per-thread seed, so
/// two identical maps iterate in different orders on different threads (or
/// in different processes). Anywhere iteration order can reach a result —
/// float accumulation, LP row construction, tie-breaking — that turns the
/// worker a sweep cell lands on into an input. The evaluation engine's
/// determinism contract (results are a pure function of the cell spec)
/// therefore requires every such map to use this deterministic state
/// instead of `RandomState`. Build with `DetHashMap::default()` or
/// `with_capacity_and_hasher(n, DetState)`.
pub type DetHashMap<K, V> = std::collections::HashMap<K, V, DetState>;

/// Hash set sibling of [`DetHashMap`].
pub type DetHashSet<K> = std::collections::HashSet<K, DetState>;

/// [`std::hash::BuildHasher`] yielding [`DetHasher`]s from a constant seed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DetState;

impl std::hash::BuildHasher for DetState {
    type Hasher = DetHasher;

    fn build_hasher(&self) -> DetHasher {
        DetHasher { state: 0 }
    }
}

/// A fast multiply-xor hasher (the FxHash construction) with no random
/// keys. Not DoS-resistant — keys here are internal (edge ids, timesteps,
/// variable indices), never attacker-controlled.
#[derive(Debug, Clone, Copy)]
pub struct DetHasher {
    state: u64,
}

impl DetHasher {
    const K: u64 = 0x517cc1b727220a95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl std::hash::Hasher for DetHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// Uniform sampling from a range type (the slice of `rand`'s
/// `SampleRange`/`SampleUniform` machinery the workspace needs).
pub trait SampleRange<T> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty f64 range");
        self.start + (self.end - self.start) * rng.next_f64()
    }
}

impl SampleRange<f64> for std::ops::RangeInclusive<f64> {
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty f64 range");
        lo + (hi - lo) * rng.next_f64()
    }
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty integer range");
                let span = (self.end - self.start) as u64;
                // Multiply-shift rejection-free mapping; bias is < 2^-64 per
                // draw, far below anything the simulations can detect.
                let hi = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                self.start + hi as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty integer range");
                let span = (hi - lo) as u64 + 1;
                let v = ((rng.next_u64() as u128 * span as u128) >> 64) as u64;
                lo + v as $t
            }
        }
    )*};
}
int_range!(usize, u64, u32, i64, i32);

/// Types producible by [`Rng::gen`] (the shim's stand-in for sampling from
/// `rand`'s `Standard` distribution).
pub trait Standard: Sized {
    fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn generate<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        rng.next_f64()
    }
}

impl Standard for u64 {
    fn generate<R: Rng + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for bool {
    fn generate<R: Rng + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Random number generator interface.
pub trait Rng {
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Sample uniformly from `range` (half-open or inclusive).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Sample a value of type `T` (only `f64`, `u64`, `bool` are wired up).
    #[allow(clippy::should_implement_trait)]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::generate(self)
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        self.next_f64() < p
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Seedable construction.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    use super::{Rng, SeedableRng};

    /// Deterministic xoshiro256++ generator (API stand-in for `rand`'s
    /// `StdRng`; the stream differs from upstream).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion of the seed, as recommended by the
            // xoshiro authors.
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            StdRng { s: [next(), next(), next(), next()] }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn derive_seed_is_stable_and_label_sensitive() {
        use super::{derive_seed, derive_seed_indexed, DEFAULT_SEED};
        assert_eq!(derive_seed(DEFAULT_SEED, "traffic"), derive_seed(DEFAULT_SEED, "traffic"));
        assert_ne!(derive_seed(DEFAULT_SEED, "traffic"), derive_seed(DEFAULT_SEED, "requests"));
        assert_ne!(derive_seed(1, "traffic"), derive_seed(2, "traffic"));
        assert_ne!(derive_seed_indexed(1, 0), derive_seed_indexed(1, 1));
        // Streams derived from different labels are decorrelated enough to
        // seed independent generators.
        let mut a = StdRng::seed_from_u64(derive_seed(DEFAULT_SEED, "a"));
        let mut b = StdRng::seed_from_u64(derive_seed(DEFAULT_SEED, "b"));
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let f = r.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
            let i = r.gen_range(3usize..9);
            assert!((3..9).contains(&i));
            let fi = r.gen_range(1.0..=2.0);
            assert!((1.0..=2.0).contains(&fi));
        }
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut r = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "{hits}");
    }

    #[test]
    fn unit_f64_mean_is_half() {
        let mut r = StdRng::seed_from_u64(3);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "{mean}");
    }
}

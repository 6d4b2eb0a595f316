//! The estimator: per-call floors over repetitions of one deterministic
//! replay, and the order statistics taken from them.
//!
//! The replay is bit-deterministic and single-threaded, so call *c* of
//! repetition *r* does the same work in every repetition and whatever the
//! machine adds — a preemption, a cache wiped by a neighbour, a slow clock —
//! only ever adds time. The minimum of a call's duration over the
//! repetitions (its *floor*) is therefore the best estimate of what the
//! call costs, and every timing metric is computed from floors.
//!
//! Durations enter the floors at the reference clock ([`crate::clock`]):
//! what the machine adds by running the core at another frequency level is
//! not additive, and is scaled out before the minimum is taken.

use crate::clock::normalize;
use crate::spans::{Kind, Span, NONE};

/// One call of the replay, as every repetition must repeat it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    pub kind: Kind,
    pub step: u64,
    pub request: u64,
    /// Position of the parent call within the replay; [`NONE`] for the
    /// replay span itself.
    pub parent: u64,
    /// Smallest steady sample; `u64::MAX` while there is none.
    steady_ns: u64,
    /// Smallest sample of any kind.
    any_ns: u64,
}

impl Call {
    /// The call's floor: over its steady samples when it has one, over all
    /// its samples otherwise.
    pub fn floor_ns(&self) -> u64 {
        if self.steady_ns != u64::MAX {
            self.steady_ns
        } else {
            self.any_ns
        }
    }
}

/// Why a repetition cannot be folded in: it did not make the same calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Misaligned {
    CallCount { expected: usize, got: usize },
    Call { index: usize, expected: String, got: String },
}

impl std::fmt::Display for Misaligned {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Misaligned::CallCount { expected, got } => {
                write!(f, "repetition made {got} calls, the first made {expected}")
            }
            Misaligned::Call { index, expected, got } => {
                write!(f, "call {index} is {got}, the first repetition had {expected}")
            }
        }
    }
}

/// Running per-call minimum over the repetitions folded in so far.
#[derive(Debug, Clone, Default)]
pub struct Floors {
    calls: Vec<Call>,
    reps: usize,
}

impl Floors {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn reps(&self) -> usize {
        self.reps
    }

    pub fn calls(&self) -> &[Call] {
        &self.calls
    }

    /// Fold in one repetition: the spans of one replay, the replay span
    /// first. A repetition whose calls differ from the first one's in
    /// number, kind, step, request or nesting is rejected and leaves the
    /// floors as they were.
    pub fn fold(&mut self, rep: &[Span]) -> Result<(), Misaligned> {
        let base = rep.first().map_or(0, |s| s.id);
        let parent_of =
            |s: &Span| if s.parent == NONE || s.parent < base { NONE } else { s.parent - base };
        if self.reps == 0 {
            self.calls = rep
                .iter()
                .map(|s| Call {
                    kind: s.kind,
                    step: s.step,
                    request: s.request,
                    parent: parent_of(s),
                    steady_ns: u64::MAX,
                    any_ns: u64::MAX,
                })
                .collect();
        }
        if rep.len() != self.calls.len() {
            return Err(Misaligned::CallCount { expected: self.calls.len(), got: rep.len() });
        }
        for (index, (c, s)) in self.calls.iter().zip(rep).enumerate() {
            let same = c.kind == s.kind
                && c.step == s.step
                && c.request == s.request
                && c.parent == parent_of(s);
            if !same {
                let show = |k: Kind, step: u64, req: u64, parent: u64| {
                    format!("{}(step {step}, request {req}, parent {parent})", k.name())
                };
                return Err(Misaligned::Call {
                    index,
                    expected: show(c.kind, c.step, c.request, c.parent),
                    got: show(s.kind, s.step, s.request, parent_of(s)),
                });
            }
        }
        for (c, sample) in self.calls.iter_mut().zip(normalize(rep)) {
            c.any_ns = c.any_ns.min(sample.ns);
            if sample.steady {
                c.steady_ns = c.steady_ns.min(sample.ns);
            }
        }
        self.reps += 1;
        Ok(())
    }

    /// Floors of every call of `kind`, in call order.
    pub fn of(&self, kind: Kind) -> Vec<u64> {
        self.calls.iter().filter(|c| c.kind == kind).map(Call::floor_ns).collect()
    }

    pub fn sum(&self, kind: Kind) -> u64 {
        self.calls.iter().filter(|c| c.kind == kind).map(Call::floor_ns).sum()
    }

    /// Calls no repetition sampled at a steady clock.
    pub fn unsteady_calls(&self) -> usize {
        self.calls.iter().filter(|c| c.steady_ns == u64::MAX).count()
    }

    pub fn count(&self, kind: Kind) -> usize {
        self.calls.iter().filter(|c| c.kind == kind).count()
    }

    /// Self time of every call: its floor minus its direct children's
    /// floors. In every repetition a call lasts at least as long as its
    /// children together, and those at least as long as their floors; the
    /// subtraction saturates for the rare parent whose only steady sample
    /// comes from another repetition than its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.calls.iter().map(Call::floor_ns).collect();
        for c in &self.calls {
            if c.parent != NONE {
                let p = c.parent as usize;
                own[p] = own[p].saturating_sub(c.floor_ns());
            }
        }
        own
    }
}

/// Nearest-rank percentile of `sorted` (ascending): the smallest value with
/// at least `p` of the samples at or below it. 0 for no samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p));
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the `p` percentile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The sample-count rule: a tail percentile stands on its own only with at
/// least ten samples beyond it; with fewer it is an order statistic of a
/// fixed call set and is reported as such.
pub fn tail_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

pub fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Median and quartiles as Python's `statistics.quantiles(v, n=4)` gives
/// them (the exclusive method), which is what the driver uses.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    let n = v.len();
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(base: u64, durs: &[(Kind, u64, u64, u64, u64)]) -> Vec<Span> {
        // (kind, step, request, parent offset or NONE, duration)
        durs.iter()
            .enumerate()
            .map(|(i, &(kind, step, request, parent, d))| Span {
                id: base + i as u64,
                parent: if parent == NONE { NONE } else { base + parent },
                kind,
                step,
                request,
                start_ns: 1000 * i as u64,
                end_ns: 1000 * i as u64 + d,
            })
            .collect()
    }

    #[test]
    fn floor_is_the_per_call_minimum() {
        let mut f = Floors::new();
        f.fold(&rep(
            0,
            &[
                (Kind::Replay, NONE, NONE, NONE, 90),
                (Kind::Step, 0, NONE, 0, 50),
                (Kind::Quote, 0, 7, 1, 9),
            ],
        ))
        .unwrap();
        // Other ids, same calls: the second repetition starts at span 40.
        f.fold(&rep(
            40,
            &[
                (Kind::Replay, NONE, NONE, NONE, 80),
                (Kind::Step, 0, NONE, 0, 60),
                (Kind::Quote, 0, 7, 1, 4),
            ],
        ))
        .unwrap();
        assert_eq!(f.reps(), 2);
        let floors: Vec<u64> = f.calls().iter().map(Call::floor_ns).collect();
        assert_eq!(floors, vec![80, 50, 4]);
        assert_eq!(f.of(Kind::Quote), vec![4]);
        assert_eq!(f.sum(Kind::Step), 50);
        assert_eq!(f.self_ns(), vec![30, 46, 4]);
    }

    #[test]
    fn rejects_a_repetition_with_another_call_count() {
        let mut f = Floors::new();
        f.fold(&rep(0, &[(Kind::Replay, NONE, NONE, NONE, 9), (Kind::Step, 0, NONE, 0, 5)]))
            .unwrap();
        let err = f.fold(&rep(0, &[(Kind::Replay, NONE, NONE, NONE, 9)])).unwrap_err();
        assert_eq!(err, Misaligned::CallCount { expected: 2, got: 1 });
        assert_eq!(f.reps(), 1, "a rejected repetition must not count");
    }

    #[test]
    fn rejects_a_repetition_with_another_call_and_keeps_the_floors() {
        let mut f = Floors::new();
        f.fold(&rep(0, &[(Kind::Replay, NONE, NONE, NONE, 9), (Kind::Quote, 1, 3, 0, 5)])).unwrap();
        for other in [
            (Kind::Admit, 1, 3, 0, 1), // other kind
            (Kind::Quote, 2, 3, 0, 1), // other step
            (Kind::Quote, 1, 4, 0, 1), // other request
        ] {
            let err = f.fold(&rep(0, &[(Kind::Replay, NONE, NONE, NONE, 1), other])).unwrap_err();
            assert!(matches!(err, Misaligned::Call { index: 1, .. }), "{err}");
        }
        let floors: Vec<u64> = f.calls().iter().map(Call::floor_ns).collect();
        assert_eq!(floors, vec![9, 5]);
    }

    #[test]
    fn a_steady_sample_beats_a_smaller_unsteady_one() {
        use crate::clock::KERNEL_REF_NS;
        let k = KERNEL_REF_NS as u64;
        // One step between two calibrations whose kernels took `before` and
        // `after` ns.
        let rep = |before: u64, after: u64, step_ns: u64| {
            let span = |id, kind, start_ns, end_ns| Span {
                id,
                parent: NONE,
                kind,
                step: 0,
                request: NONE,
                start_ns,
                end_ns,
            };
            vec![
                span(0, Kind::Clock, 0, before),
                span(1, Kind::Step, 10 * k, 10 * k + step_ns),
                span(2, Kind::Clock, 20 * k, 20 * k + after),
            ]
        };
        let mut f = Floors::new();
        // The level changes across the step: scaled by the mean kernel time
        // (1.5 k), and unsteady.
        f.fold(&rep(k, 2 * k, 600)).unwrap();
        assert_eq!(f.calls()[1].floor_ns(), 400);
        assert_eq!(f.unsteady_calls(), 1);
        // At twice the reference clock the kernel takes half as long, and
        // the step's 450 ns scale to 900 ns: steady, so it replaces the
        // smaller unsteady sample.
        f.fold(&rep(k / 2, k / 2, 450)).unwrap();
        assert_eq!(f.calls()[1].floor_ns(), 900);
        assert_eq!(f.unsteady_calls(), 0);
        // A later unsteady one, however small, does not come back.
        f.fold(&rep(k, 2 * k, 150)).unwrap();
        assert_eq!(f.calls()[1].floor_ns(), 900);
        // A smaller steady one does.
        f.fold(&rep(k, k, 700)).unwrap();
        assert_eq!(f.calls()[1].floor_ns(), 700);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(100, 0.95), 5);
        assert!(!tail_supported(100, 0.95));
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert!(tail_supported(200, 0.95));
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(1000, 0.99));
        assert_eq!(samples_beyond(48, 0.95), 2);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }
}

//! The reference clock: durations are reported as they would read with the
//! core running steadily at one reference frequency.
//!
//! The reference box's cores move between frequency levels — a dependent
//! multiply chain takes 35.7 µs at one level and 45.5 µs at another, and a
//! level holds for seconds to tens of seconds — so two runs of the *same*
//! code read 27% apart depending on which level they met. Per-call floors
//! cannot remove that when a whole run sits at one level. A fixed kernel
//! whose duration is inversely proportional to the core clock, run at every
//! step boundary, can: each measured duration is multiplied by
//! `KERNEL_REF_NS / kernel time measured next to it`.
//!
//! Two rules keep the floors honest, because a minimum amplifies any sample
//! scaled too far down:
//! * a calibration is the minimum of [`KERNEL_RUNS`] kernel runs, so an
//!   interrupt during one of them cannot make the clock look slow;
//! * a sample whose calibrations before and after disagree by more than
//!   [`LEVEL_TOLERANCE`] met a level change and is *unsteady*: it counts
//!   towards a call's floor only if no repetition gave a steady one.
//!
//! Known limit: scaling is exact only for work that waits on the core.
//! Memory does not speed up with the core, so a memory-bound call measured
//! at turbo and scaled reads too long — the half-second PC solve of the
//! first `large_days` world (one cold 30-node LP) read 594 ms in a run that
//! never left turbo and 522 ms otherwise. Preferring samples taken at the reference level (no scaling)
//! was tried and is worse: the box sits at its base clock exactly when its
//! neighbours are busy, so those samples carry the most memory contention
//! (`pc_window_p50_ms` spread 16% against 13%); preferring turbo samples is
//! worse still (19%), turbo stretches being short.

use crate::spans::{Kind, Span};
use std::hint::black_box;
use std::time::Instant;

/// Iterations of the dependent chain in one kernel run.
const KERNEL_ITERATIONS: u32 = 16_000;
/// Kernel runs per calibration; the minimum is kept.
pub const KERNEL_RUNS: usize = 3;
/// What one kernel run takes on the reference box at its base clock (the
/// level `/proc/cpuinfo` names, 2.1 GHz). A constant, so numbers of
/// different runs, days and commits share one scale.
pub const KERNEL_REF_NS: f64 = 19_440.0;
/// Largest relative difference between two kernel times that still counts
/// as one frequency level.
pub const LEVEL_TOLERANCE: f64 = 0.02;

/// One kernel run: a chain in which every multiply waits for the one
/// before, so its duration is a fixed number of core cycles whatever the
/// caches, the memory or a sibling thread are doing.
#[inline(never)]
fn chain() -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    for _ in 0..KERNEL_ITERATIONS {
        x = black_box(x.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (x >> 29));
    }
    x
}

/// One calibration: nanoseconds of the fastest of [`KERNEL_RUNS`] runs.
pub fn calibrate() -> u64 {
    (0..KERNEL_RUNS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(chain());
            t0.elapsed().as_nanos() as u64
        })
        .min()
        .expect("KERNEL_RUNS > 0")
}

/// A span's duration at the reference clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub ns: u64,
    /// The calibrations around the span agree: one frequency level.
    pub steady: bool,
}

fn same_level(a: f64, b: f64) -> bool {
    (a - b).abs() <= LEVEL_TOLERANCE * a.min(b)
}

/// Durations of `spans` (in start order, as a recorder keeps them) at the
/// reference clock. Each span is scaled by the calibrations bracketing it:
/// the last [`Kind::Clock`] span that ended before it started and the first
/// that started after it ended. A slice without calibrations is returned
/// unscaled and steady.
pub fn normalize(spans: &[Span]) -> Vec<Sample> {
    let clocks: Vec<&Span> = spans.iter().filter(|s| s.kind == Kind::Clock).collect();
    spans
        .iter()
        .map(|s| {
            let raw = s.duration_ns();
            if s.kind == Kind::Clock || clocks.is_empty() {
                return Sample { ns: raw, steady: true };
            }
            // `clocks` is sorted by time: partition points find the brackets.
            let after = clocks.partition_point(|c| c.start_ns < s.end_ns);
            let before = clocks.partition_point(|c| c.end_ns <= s.start_ns);
            let before = before.checked_sub(1).map(|i| clocks[i].duration_ns() as f64);
            let after = clocks.get(after).map(|c| c.duration_ns() as f64);
            let (kernel_ns, steady) = match (before, after) {
                (Some(b), Some(a)) => ((a + b) / 2.0, same_level(a, b)),
                (Some(k), None) | (None, Some(k)) => (k, false),
                // A span around every calibration (the replay, the run).
                (None, None) => return Sample { ns: raw, steady: false },
            };
            Sample { ns: (raw as f64 * KERNEL_REF_NS / kernel_ns).round() as u64, steady }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::NONE;

    fn span(kind: Kind, start_ns: u64, end_ns: u64) -> Span {
        Span { id: 0, parent: NONE, kind, step: NONE, request: NONE, start_ns, end_ns }
    }

    #[test]
    fn kernel_takes_time_and_repeats() {
        let (a, b) = (calibrate(), calibrate());
        assert!(a > 1_000, "kernel of {a} ns is too short to time");
        // Same machine, moments apart: within a factor of two even under load.
        assert!(a < 2 * b && b < 2 * a, "{a} vs {b}");
    }

    #[test]
    fn spans_are_scaled_by_the_calibrations_around_them() {
        let k = KERNEL_REF_NS as u64;
        let spans = [
            span(Kind::Clock, 0, 2 * k),           // the clock runs at half speed
            span(Kind::Step, 3 * k, 3 * k + 1000), // between two equal calibrations
            span(Kind::Quote, 3 * k + 100, 3 * k + 300), // nested: same brackets
            span(Kind::Clock, 4 * k, 6 * k),
            span(Kind::Step, 7 * k, 7 * k + 1000), // the level changes across it
            span(Kind::Clock, 8 * k, 9 * k),
            span(Kind::Step, 10 * k, 10 * k + 500), // nothing after it
        ];
        let got = normalize(&spans);
        assert_eq!(got[0], Sample { ns: 2 * k, steady: true }, "calibrations stay raw");
        assert_eq!(got[1], Sample { ns: 500, steady: true });
        assert_eq!(got[2], Sample { ns: 100, steady: true });
        assert_eq!(got[4], Sample { ns: 667, steady: false }); // 1000 * k / 1.5k
        assert_eq!(got[6], Sample { ns: 500, steady: false });
    }

    #[test]
    fn without_calibrations_durations_stay_raw() {
        let got = normalize(&[span(Kind::Step, 5, 25), span(Kind::Quote, 6, 9)]);
        assert_eq!(got, vec![Sample { ns: 20, steady: true }, Sample { ns: 3, steady: true }]);
    }
}

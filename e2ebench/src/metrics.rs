//! The metric registry — names, units, directions and regression bounds, the
//! single source `BENCHMARK.json` is generated from — and the arithmetic
//! that turns floors into metric values.

use crate::floors::{percentile, sorted, tail_supported, Floors};
use crate::spans::Kind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    /// Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def { name, unit, better, bound: Some(bound) }
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, better: Better::Lower, bound: None }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, better: Better::Higher, bound: None }
}

/// The nine end-to-end metrics, the same on every workload. A bound is more
/// than three times the widest spread (inter-quartile distance over median,
/// ten seeds, two sets) any workload showed for the metric at the commit that
/// defined the benchmark: 15% where that spread stayed under 5%, the
/// contract's cap of 25% where it reached 5-8% (BENCHMARK.md has the table).
pub const END_TO_END: [Def; 9] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("replay_wall_s", "s", Better::Lower, 0.25),
    e2e("ra_request_p50_us", "us", Better::Lower, 0.15),
    e2e("ra_request_p99_us", "us", Better::Lower, 0.25),
    e2e("ra_requests_per_s", "1/s", Better::Higher, 0.15),
    e2e("sam_step_p50_ms", "ms", Better::Lower, 0.25),
    e2e("sam_step_p95_ms", "ms", Better::Lower, 0.25),
    e2e("pc_window_p50_ms", "ms", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

/// Per-layer metrics, one group per crate or module. "Better" is the
/// direction an optimisation of that layer would move the number; for plain
/// sizes of the workload it is nominal.
pub const PER_LAYER: [Def; 89] = [
    // sim: the replay driver.
    hi("sim.steps", "count"),
    lo("sim.step_self_s", "s"),
    lo("sim.system_init_ms", "ms"),
    lo("sim.scenario_build_ms", "ms"),
    lo("sim.warmup_pass_s", "s"),
    lo("sim.fault_apply_busy_s", "s"),
    hi("sim.fault_events", "count"),
    // workload: trace and request generation.
    lo("workload.trace_gen_ms", "ms"),
    lo("workload.request_gen_ms", "ms"),
    hi("workload.requests", "count"),
    hi("workload.shoppers", "count"),
    // net: topology and k-shortest paths.
    lo("net.topology_gen_ms", "ms"),
    hi("net.nodes", "count"),
    hi("net.edges", "count"),
    hi("net.ksp_pairs", "count"),
    lo("net.ksp_call_p50_us", "us"),
    lo("net.ksp_busy_ms", "ms"),
    // ra: core::admission and core::menu.
    lo("ra.snapshots", "count"),
    lo("ra.snapshot_busy_s", "s"),
    hi("ra.quotes", "count"),
    lo("ra.quote_busy_s", "s"),
    lo("ra.quote_p50_us", "us"),
    lo("ra.quote_p99_us", "us"),
    lo("ra.absorb_busy_s", "s"),
    lo("ra.admit_busy_s", "s"),
    lo("ra.admit_p50_us", "us"),
    lo("ra.admit_p99_us", "us"),
    lo("ra.requoted", "count"),
    lo("ra.requote_share", "%"),
    lo("ra.quotes_empty", "count"),
    hi("ra.admitted", "count"),
    lo("ra.rejected", "count"),
    hi("ra.admit_share", "%"),
    // sam: core::pretium::run_sam.
    lo("sam.calls", "count"),
    lo("sam.busy_s", "s"),
    lo("sam.share", "%"),
    lo("sam.fault_resolve_calls", "count"),
    lo("sam.fault_resolve_busy_s", "s"),
    hi("sam.skipped", "count"),
    lo("sam.shortfalls", "count"),
    lo("sam.degradations", "count"),
    lo("sam.guarantees_shed", "count"),
    lo("sam.guarantees_relaxed", "count"),
    lo("sam.rerouted_units", "units"),
    // pc: core::pretium::run_pc; exec: execute_step.
    lo("pc.calls", "count"),
    lo("pc.solved", "count"),
    lo("pc.freezes", "count"),
    lo("pc.busy_s", "s"),
    lo("pc.share", "%"),
    lo("exec.busy_s", "s"),
    hi("exec.units", "units"),
    // schedule: probe on core::schedule.
    hi("schedule.probe_jobs", "count"),
    hi("schedule.probe_flow_columns", "count"),
    lo("schedule.model_build_ms", "ms"),
    lo("schedule.cold_solve_ms", "ms"),
    lo("schedule.warm_step_p50_ms", "ms"),
    // lp: the simplex session counters behind SAM and PC.
    lo("lp.solves", "count"),
    lo("lp.cold_starts", "count"),
    hi("lp.warm_primal", "count"),
    hi("lp.warm_dual", "count"),
    hi("lp.warm_share", "%"),
    lo("lp.iterations", "count"),
    lo("lp.iterations_per_solve", "count"),
    lo("lp.us_per_iteration", "us"),
    lo("lp.pricing_scans", "count"),
    lo("lp.pricing_busy_s", "s"),
    lo("lp.pricing_share", "%"),
    lo("lp.bland_pivots", "count"),
    lo("lp.refactors", "count"),
    hi("lp.ft_updates", "count"),
    lo("lp.pivot_rejections", "count"),
    lo("lp.fill_in_ratio", "ratio"),
    hi("lp.restricted", "count"),
    hi("lp.cache_hits", "count"),
    lo("lp.columns_generated", "count"),
    lo("lp.colgen_rounds", "count"),
    // par: the parallel-pricing pool; 0 until a mechanism is on by default.
    hi("par.pricing_sections", "count"),
    lo("par.pricing_steals", "count"),
    // audit: core::audit, from the audited check replay.
    hi("audit.checks", "count"),
    lo("audit.violations", "count"),
    lo("audit.pass_wall_s", "s"),
    lo("audit.overhead_share", "%"),
    // check: what the replay produced.
    hi("check.welfare", "value"),
    hi("check.delivered_units", "units"),
    hi("check.payments", "value"),
    lo("check.capacity_violations", "count"),
    lo("check.guarantee_misses", "count"),
    // trace: the cost of tracing itself.
    lo("trace.spans", "count"),
    lo("trace.overhead_share", "%"),
];

/// One measured value, with the number of samples behind it when it is an
/// order statistic.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Option<usize>,
    /// Set on a tail percentile with fewer than ten samples beyond it.
    pub thin_tail: bool,
}

/// Collects values against a registry and refuses names it does not know,
/// names given twice, and — on `finish` — names left out or out of order.
pub struct Values {
    defs: &'static [Def],
    out: Vec<Metric>,
}

impl Values {
    pub fn new(defs: &'static [Def]) -> Self {
        Values { defs, out: Vec::with_capacity(defs.len()) }
    }

    pub fn put(&mut self, name: &str, value: f64) {
        self.push(name, value, None, false);
    }

    /// An order statistic over `n` samples at percentile `p`.
    pub fn put_percentile(&mut self, name: &str, value: f64, n: usize, p: f64) {
        self.push(name, value, Some(n), p > 0.5 && !tail_supported(n, p));
    }

    fn push(&mut self, name: &str, value: f64, samples: Option<usize>, thin_tail: bool) {
        let def = self
            .defs
            .get(self.out.len())
            .unwrap_or_else(|| panic!("`{name}` is past the registry"));
        assert_eq!(def.name, name, "metrics must be put in registry order");
        self.out.push(Metric { name: def.name, unit: def.unit, value, samples, thin_tail });
    }

    pub fn finish(self) -> Vec<Metric> {
        assert_eq!(
            self.out.len(),
            self.defs.len(),
            "metric `{}` was not put",
            self.defs[self.out.len().min(self.defs.len() - 1)].name
        );
        self.out
    }
}

const NS_PER_S: f64 = 1e9;
const NS_PER_MS: f64 = 1e6;
const NS_PER_US: f64 = 1e3;

/// Floor of the whole replay: system construction plus every step.
pub fn replay_wall_ns(f: &Floors) -> u64 {
    f.sum(Kind::Init) + f.sum(Kind::Step)
}

/// Floor of one set-up: world generation plus the warm-up pass, step by
/// step, over the run's set-ups.
pub fn setup_ns(setups: &Floors) -> u64 {
    setups.sum(Kind::ScenarioBuild) + replay_wall_ns(setups)
}

/// Per request, floor(`ticket`) + floor(`admit`), in issue order.
pub fn ra_request_ns(f: &Floors) -> Vec<u64> {
    let quotes: Vec<_> = f.calls().iter().filter(|c| c.kind == Kind::Quote).collect();
    let admits: Vec<_> = f.calls().iter().filter(|c| c.kind == Kind::Admit).collect();
    assert_eq!(quotes.len(), admits.len(), "every quoted request is sequenced");
    quotes
        .iter()
        .zip(&admits)
        .map(|(q, a)| {
            assert_eq!(
                (q.step, q.request),
                (a.step, a.request),
                "quotes and admits share an order"
            );
            q.floor_ns() + a.floor_ns()
        })
        .collect()
}

/// Per timestep, all SAM work of the step: `Sequencer::finish` plus any
/// capacity-event `run_sam`.
pub fn sam_step_ns(f: &Floors) -> Vec<u64> {
    let steps = f.count(Kind::Step);
    let mut per_step = vec![0u64; steps];
    for c in f.calls().iter().filter(|c| matches!(c.kind, Kind::Sam | Kind::SamFault)) {
        per_step[c.step as usize] += c.floor_ns();
    }
    per_step
}

/// The end-to-end metrics of one untraced run.
pub fn end_to_end(f: &Floors, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let ra = sorted(ra_request_ns(f));
    let sam = sorted(sam_step_ns(f));
    let pc = sorted(f.of(Kind::Pc));
    let ra_busy: u64 = ra.iter().sum();
    let mut v = Values::new(&END_TO_END);
    v.put("setup_s", setup_s);
    v.put("replay_wall_s", replay_wall_ns(f) as f64 / NS_PER_S);
    v.put_percentile("ra_request_p50_us", percentile(&ra, 0.5) as f64 / NS_PER_US, ra.len(), 0.5);
    v.put_percentile("ra_request_p99_us", percentile(&ra, 0.99) as f64 / NS_PER_US, ra.len(), 0.99);
    v.put("ra_requests_per_s", ra.len() as f64 / (ra_busy as f64 / NS_PER_S));
    v.put_percentile("sam_step_p50_ms", percentile(&sam, 0.5) as f64 / NS_PER_MS, sam.len(), 0.5);
    v.put_percentile("sam_step_p95_ms", percentile(&sam, 0.95) as f64 / NS_PER_MS, sam.len(), 0.95);
    v.put_percentile("pc_window_p50_ms", percentile(&pc, 0.5) as f64 / NS_PER_MS, pc.len(), 0.5);
    v.put("peak_rss_mb", peak_rss_mb);
    v.finish()
}

pub fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / NS_PER_S
}

pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / NS_PER_MS
}

pub fn ns_to_us(ns: u64) -> f64 {
    ns as f64 / NS_PER_US
}

/// `part / whole` in percent; 0 when there is no whole.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{Span, NONE};
    use std::collections::BTreeSet;

    #[test]
    fn registry_names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "{} twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
    }

    #[test]
    #[should_panic(expected = "registry order")]
    fn values_reject_an_unknown_or_misplaced_name() {
        Values::new(&END_TO_END).put("replay_wall_s", 1.0);
    }

    #[test]
    fn percentile_metric_flags_a_thin_tail() {
        let mut v = Values::new(&END_TO_END);
        v.put("setup_s", 1.0);
        v.put("replay_wall_s", 1.0);
        v.put_percentile("ra_request_p50_us", 1.0, 48, 0.5);
        v.put_percentile("ra_request_p99_us", 1.0, 999, 0.99);
        assert!(!v.out[2].thin_tail, "a median never has a thin tail");
        assert!(v.out[3].thin_tail);
        assert_eq!(v.out[3].samples, Some(999));
    }

    fn call(id: u64, parent: u64, kind: Kind, step: u64, request: u64, dur: u64) -> Span {
        Span { id, parent, kind, step, request, start_ns: 0, end_ns: dur }
    }

    #[test]
    fn end_to_end_arithmetic_on_a_hand_built_replay() {
        // Two steps; step 1 has a fault re-solve, a PC solve and two requests.
        let rep = [
            call(0, NONE, Kind::Replay, NONE, NONE, 10_000_000),
            call(1, 0, Kind::Init, NONE, NONE, 1_000_000),
            call(2, 0, Kind::Step, 0, NONE, 3_000_000),
            call(3, 2, Kind::Sam, 0, NONE, 2_000_000),
            call(4, 0, Kind::Step, 1, NONE, 5_000_000),
            call(5, 4, Kind::SamFault, 1, NONE, 500_000),
            call(6, 4, Kind::Pc, 1, NONE, 1_500_000),
            call(7, 4, Kind::Quote, 1, 11, 2_000),
            call(8, 4, Kind::Quote, 1, 12, 4_000),
            call(9, 4, Kind::Admit, 1, 11, 1_000),
            call(10, 4, Kind::Admit, 1, 12, 3_000),
            call(11, 4, Kind::Sam, 1, NONE, 1_000_000),
        ];
        let mut f = Floors::new();
        f.fold(&rep).unwrap();
        assert_eq!(replay_wall_ns(&f), 9_000_000);
        assert_eq!(ra_request_ns(&f), vec![3_000, 7_000]);
        assert_eq!(sam_step_ns(&f), vec![2_000_000, 1_500_000]);
        let m = end_to_end(&f, 0.5, 12.0);
        let get = |n: &str| m.iter().find(|x| x.name == n).unwrap().value;
        assert_eq!(get("replay_wall_s"), 0.009);
        assert_eq!(get("ra_request_p50_us"), 3.0);
        assert_eq!(get("ra_request_p99_us"), 7.0);
        assert_eq!(get("ra_requests_per_s"), 2.0 / 10e-6);
        assert_eq!(get("sam_step_p50_ms"), 1.5);
        assert_eq!(get("sam_step_p95_ms"), 2.0);
        assert_eq!(get("pc_window_p50_ms"), 1.5);
        assert_eq!(get("setup_s"), 0.5);
        assert_eq!(m.len(), END_TO_END.len());
    }
}

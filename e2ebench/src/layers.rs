//! Per-layer metrics of a traced run, and the guards that keep each
//! workload loading the layer it is there to load.
//!
//! Times are floors of the traced replays; counts come from
//! `Pretium::telemetry()` and `Pretium::lp_stats()` and repeat exactly.

use crate::checks::Checks;
use crate::floors::{percentile, sorted, Floors};
use crate::metrics::{
    ns_to_ms, ns_to_s, ns_to_us, replay_wall_ns, share, Metric, Values, PER_LAYER,
};
use crate::probes::{GenProbe, KspProbe, ScheduleProbe};
use crate::replay::Rep;
use crate::spans::Kind;
use crate::workloads::{Dominant, Spec, World};

pub struct LayerInputs<'a> {
    pub world: &'a World,
    /// Floors of the run's set-ups.
    pub setups: &'a Floors,
    /// Floors of the untraced replays of the traced run.
    pub plain: &'a Floors,
    /// Floors of the traced replays.
    pub traced: &'a Floors,
    /// Any measured repetition: its counters are every repetition's.
    pub rep: &'a Rep,
    pub checks: &'a Checks,
    pub gen: GenProbe,
    pub ksp: KspProbe,
    pub schedule: ScheduleProbe,
    /// Smallest pricing time any repetition's LP sessions reported.
    pub pricing_ns: u64,
    pub audit_pass_s: f64,
}

pub fn per_layer(i: &LayerInputs<'_>) -> Vec<Metric> {
    let f = i.traced;
    let t = i.rep.system.telemetry();
    let lp = i.rep.system.lp_stats();
    let wall_ns = replay_wall_ns(f);
    let wall_s = ns_to_s(wall_ns);
    let own = f.self_ns();
    let step_self_ns: u64 =
        f.calls().iter().zip(&own).filter(|(c, _)| c.kind == Kind::Step).map(|(_, &ns)| ns).sum();
    let quotes = sorted(f.of(Kind::Quote));
    let admits = sorted(f.of(Kind::Admit));
    let sam_busy_ns = f.sum(Kind::Sam) + f.sum(Kind::SamFault);
    let pc_busy_ns = f.sum(Kind::Pc);
    let tickets = f.count(Kind::Quote) as f64;
    let decisions = (t.accepts_admitted + t.accepts_rejected) as f64;
    let iterations = lp.iterations as f64;
    let pct = |part: u64| share(part as f64, wall_ns as f64);

    let mut v = Values::new(&PER_LAYER);
    v.put("sim.steps", f.count(Kind::Step) as f64);
    v.put("sim.step_self_s", ns_to_s(step_self_ns));
    v.put("sim.system_init_ms", ns_to_ms(f.sum(Kind::Init)));
    v.put("sim.scenario_build_ms", ns_to_ms(i.setups.sum(Kind::ScenarioBuild)));
    v.put("sim.warmup_pass_s", ns_to_s(replay_wall_ns(i.setups)));
    v.put("sim.fault_apply_busy_s", ns_to_s(f.sum(Kind::FaultApply)));
    v.put("sim.fault_events", i.world.plan.as_ref().map_or(0, |p| p.events.len()) as f64);

    v.put("workload.trace_gen_ms", i.gen.trace_ms);
    v.put("workload.request_gen_ms", i.gen.requests_ms);
    v.put("workload.requests", tickets);
    v.put("workload.shoppers", i.world.shoppers() as f64);

    v.put("net.topology_gen_ms", i.gen.topology_ms);
    v.put("net.nodes", i.world.scenario.net.num_nodes() as f64);
    v.put("net.edges", i.world.scenario.net.num_edges() as f64);
    v.put("net.ksp_pairs", i.ksp.pairs as f64);
    v.put("net.ksp_call_p50_us", i.ksp.call_p50_us);
    v.put("net.ksp_busy_ms", i.ksp.busy_ms);

    v.put("ra.snapshots", t.snapshots as f64);
    v.put("ra.snapshot_busy_s", ns_to_s(f.sum(Kind::Snapshot)));
    v.put("ra.quotes", t.quote.calls as f64);
    v.put("ra.quote_busy_s", ns_to_s(f.sum(Kind::Quote)));
    v.put_percentile("ra.quote_p50_us", ns_to_us(percentile(&quotes, 0.5)), quotes.len(), 0.5);
    v.put_percentile("ra.quote_p99_us", ns_to_us(percentile(&quotes, 0.99)), quotes.len(), 0.99);
    v.put("ra.absorb_busy_s", ns_to_s(f.sum(Kind::Absorb)));
    v.put("ra.admit_busy_s", ns_to_s(f.sum(Kind::Admit)));
    v.put_percentile("ra.admit_p50_us", ns_to_us(percentile(&admits, 0.5)), admits.len(), 0.5);
    v.put_percentile("ra.admit_p99_us", ns_to_us(percentile(&admits, 0.99)), admits.len(), 0.99);
    v.put("ra.requoted", t.quotes_requoted as f64);
    v.put("ra.requote_share", share(t.quotes_requoted as f64, tickets));
    v.put("ra.quotes_empty", t.quotes_empty as f64);
    v.put("ra.admitted", t.accepts_admitted as f64);
    v.put("ra.rejected", t.accepts_rejected as f64);
    v.put("ra.admit_share", share(t.accepts_admitted as f64, decisions));

    v.put("sam.calls", t.sam.calls as f64);
    v.put("sam.busy_s", ns_to_s(sam_busy_ns));
    v.put("sam.share", pct(sam_busy_ns));
    v.put("sam.fault_resolve_calls", f.count(Kind::SamFault) as f64);
    v.put("sam.fault_resolve_busy_s", ns_to_s(f.sum(Kind::SamFault)));
    v.put("sam.skipped", t.sam_skipped as f64);
    v.put("sam.shortfalls", t.sam_shortfalls as f64);
    v.put("sam.degradations", t.sam_degradations as f64);
    v.put("sam.guarantees_shed", t.guarantees_shed as f64);
    v.put("sam.guarantees_relaxed", t.guarantees_relaxed as f64);
    v.put("sam.rerouted_units", t.rerouted_units);

    v.put("pc.calls", (f.count(Kind::Pc) + f.count(Kind::PcSkip)) as f64);
    v.put("pc.solved", t.pc.calls as f64);
    v.put("pc.freezes", t.pc_freezes as f64);
    v.put("pc.busy_s", ns_to_s(pc_busy_ns));
    v.put("pc.share", pct(pc_busy_ns));
    v.put("exec.busy_s", ns_to_s(f.sum(Kind::Execute)));
    v.put("exec.units", t.units_executed);

    v.put("schedule.probe_jobs", i.schedule.jobs as f64);
    v.put("schedule.probe_flow_columns", i.schedule.flow_columns as f64);
    v.put("schedule.model_build_ms", i.schedule.model_build_ms);
    v.put("schedule.cold_solve_ms", i.schedule.cold_solve_ms);
    v.put("schedule.warm_step_p50_ms", i.schedule.warm_step_p50_ms);

    let lp_busy_ns = (sam_busy_ns + pc_busy_ns) as f64;
    v.put("lp.solves", lp.solves as f64);
    v.put("lp.cold_starts", lp.cold_starts as f64);
    v.put("lp.warm_primal", lp.warm_primal as f64);
    v.put("lp.warm_dual", lp.warm_dual as f64);
    v.put("lp.warm_share", 100.0 * lp.warm_fraction());
    v.put("lp.iterations", iterations);
    v.put(
        "lp.iterations_per_solve",
        if lp.solves > 0 { iterations / lp.solves as f64 } else { 0.0 },
    );
    v.put(
        "lp.us_per_iteration",
        if lp.iterations > 0 { lp_busy_ns / 1e3 / iterations } else { 0.0 },
    );
    v.put("lp.pricing_scans", lp.pricing_scans as f64);
    v.put("lp.pricing_busy_s", ns_to_s(i.pricing_ns));
    v.put("lp.pricing_share", share(i.pricing_ns as f64, lp_busy_ns));
    v.put("lp.bland_pivots", lp.bland_pivots as f64);
    v.put("lp.refactors", lp.refactors as f64);
    v.put("lp.ft_updates", lp.ft_updates as f64);
    v.put("lp.pivot_rejections", lp.pivot_rejections as f64);
    v.put(
        "lp.fill_in_ratio",
        if lp.basis_nnz > 0 { lp.factor_nnz as f64 / lp.basis_nnz as f64 } else { 0.0 },
    );
    v.put("lp.restricted", lp.restricted as f64);
    v.put("lp.cache_hits", lp.cache_hits as f64);
    v.put("lp.columns_generated", lp.columns_generated as f64);
    v.put("lp.colgen_rounds", lp.colgen_rounds as f64);
    v.put("par.pricing_sections", lp.pricing_par_sections as f64);
    v.put("par.pricing_steals", lp.pricing_par_steals as f64);

    let plain_wall_s = ns_to_s(replay_wall_ns(i.plain));
    v.put("audit.checks", i.checks.audit_checks as f64);
    v.put("audit.violations", i.checks.audit_violations as f64);
    v.put("audit.pass_wall_s", i.audit_pass_s);
    v.put("audit.overhead_share", share(i.audit_pass_s - plain_wall_s, plain_wall_s));

    v.put("check.welfare", i.checks.welfare);
    v.put("check.delivered_units", i.checks.delivered_units);
    v.put("check.payments", i.checks.payments);
    v.put("check.capacity_violations", i.checks.capacity_violations as f64);
    v.put("check.guarantee_misses", i.checks.guarantee_misses as f64);

    v.put("trace.spans", f.calls().len() as f64);
    v.put("trace.overhead_share", share(wall_s - plain_wall_s, plain_wall_s));
    v.finish()
}

/// The layer shares and fault counts that make a workload what it says it
/// is. A generator or default change that turns it into another workload
/// fails the traced run instead of silently moving every number.
pub fn guards(spec: &Spec, metrics: &[Metric], replay_wall_s: f64, smoke: bool) -> Vec<String> {
    if smoke {
        return Vec::new(); // the six-node toy loads no layer in particular
    }
    let get = |name: &str| {
        metrics.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("no metric {name}")).value
    };
    let mut out = Vec::new();
    let mut need = |ok: bool, what: String| {
        if !ok {
            out.push(format!("{} is no longer the workload it says it is: {what}", spec.name));
        }
    };
    let (sam, pc) = (get("sam.share"), get("pc.share"));
    match spec.dominant {
        Dominant::SamPlusPc => {
            need(sam + pc >= 75.0, format!("sam.share + pc.share = {:.1}% < 75%", sam + pc))
        }
        Dominant::Pc => need(pc >= 40.0, format!("pc.share = {pc:.1}% < 40%")),
        Dominant::Ra => {
            let ra_busy_s = get("ra.snapshot_busy_s")
                + get("ra.quote_busy_s")
                + get("ra.absorb_busy_s")
                + get("ra.admit_busy_s");
            let ra = share(ra_busy_s, replay_wall_s);
            need(ra >= 50.0, format!("ra busy = {ra:.1}% of the replay < 50%"));
        }
        Dominant::SamFaulted => {
            need(sam >= 50.0, format!("sam.share = {sam:.1}% < 50%"));
            need(get("sam.degradations") >= 1.0, "no SAM degradation".into());
            need(get("pc.freezes") >= 1.0, "no PC freeze".into());
            let rq = get("ra.requote_share");
            need(rq > 20.0, format!("ra.requote_share = {rq:.1}% <= 20%"));
        }
    }
    out
}

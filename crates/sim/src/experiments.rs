//! The computations behind the paper's evaluation (§6): the §6.1 scheme
//! dispatch ([`Scheme`], `solve_scheme`) every sweep cell and
//! [`compare_schemes`] go through, and one `_on(config)` function per
//! single-world figure/table (Figures 1, 5, 7, 10, Table 4). The
//! [`mod@crate::registry`] declares which of these run, at which points, and
//! how their numbers fold into series.
//!
//! Absolute numbers differ from the paper (our substrate is a synthetic
//! trace, not the authors' production WAN), but the *shape* — who wins, by
//! roughly what factor, where crossovers fall — is the reproduction target
//! (see EXPERIMENTS.md for the paper-vs-measured record).

use crate::report::Series;
use crate::runner::{run_pretium, PretiumRun, Variant};
use crate::scenario::{Scenario, ScenarioConfig};
use pretium_baselines as baselines;
use pretium_baselines::{OfflineConfig, Outcome};
use pretium_core::PretiumConfig;
use pretium_lp::SolveError;
use pretium_net::percentile::{cdf_points, linear_fit, pearson, percentile, top_fraction_mean};
use pretium_net::{shortest_path, topology, EdgeId, TimeGrid, UsageTracker};
use pretium_workload::{generate_trace, TrafficConfig, ValueDist};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Default seed for every experiment (override per call for replications).
/// Re-exported from `pretium-rand`, the workspace's single seed authority.
pub use rand::DEFAULT_SEED;

/// The load factors swept by Figures 6, 8, 9 and 11.
pub const LOAD_FACTORS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

// ---------------------------------------------------------------------------
// Figure 1 — CDF of per-link 90th/10th-percentile utilization ratio.
// ---------------------------------------------------------------------------

/// Route the raw traffic trace over shortest paths (no TE) and report the
/// CDF of per-link `p90/p10` utilization ratios — the paper's motivation
/// figure: most links are steady (ratio < 2) but a tail varies by over an
/// order of magnitude.
pub fn fig1_utilization_ratio_cdf(seed: u64) -> Vec<(f64, f64)> {
    let net = topology::default_eval(seed);
    let grid = TimeGrid::coarse_default();
    let cfg = TrafficConfig { horizon: grid.steps_per_window * 7, seed, ..Default::default() };
    let trace = generate_trace(&net, &grid, &cfg);
    let mut usage = UsageTracker::new(net.num_edges(), cfg.horizon);
    for pair in &trace.pairs {
        let Some(path) = shortest_path(&net, pair.src, pair.dst, &|_| 1.0) else {
            continue;
        };
        for (t, &d) in pair.demand.iter().enumerate() {
            for &e in &path {
                usage.record(e, t, d);
            }
        }
    }
    let ratios = usage.p90_over_p10_ratios(&net, 0.005);
    cdf_points(&ratios)
}

// ---------------------------------------------------------------------------
// Figure 5 — top-10% mean (z_e) vs 95th percentile (y_e) correlation.
// ---------------------------------------------------------------------------

/// Result of one distribution's z/y comparison.
#[derive(Debug, Clone)]
pub struct ProxyFit {
    pub distribution: String,
    pub pearson: f64,
    pub slope: f64,
    pub intercept: f64,
    /// `(y_e, z_e)` scatter points (one per simulated link).
    pub points: Vec<(f64, f64)>,
}

/// For each traffic model (normal, exponential, pareto — §4.2), simulate
/// per-link usage series, compute `y_e` (95th pct) and `z_e` (top-10%
/// mean), and fit the linear relation the paper's Figure 5 shows.
pub fn fig5_topk_proxy(seed: u64) -> Vec<ProxyFit> {
    let mut rng = StdRng::seed_from_u64(seed);
    let links = 120;
    let samples = 288;
    let dists: [(&str, ValueDist); 3] = [
        ("normal", ValueDist::Normal { mean: 10.0, std: 3.0, floor: 0.0 }),
        ("exponential", ValueDist::Exponential { mean: 10.0 }),
        ("pareto", ValueDist::pareto_from_mean_ratio(10.0, 1.5)),
    ];
    dists
        .iter()
        .map(|(name, dist)| {
            let mut points = Vec::with_capacity(links);
            for _ in 0..links {
                // Per-link scale heterogeneity.
                let scale = ValueDist::Uniform { lo: 0.2, hi: 3.0 }.sample(&mut rng);
                let series: Vec<f64> =
                    (0..samples).map(|_| scale * dist.sample(&mut rng)).collect();
                let y = percentile(&series, 0.95);
                let z = top_fraction_mean(&series, 0.10);
                points.push((y, z));
            }
            let ys: Vec<f64> = points.iter().map(|p| p.0).collect();
            let zs: Vec<f64> = points.iter().map(|p| p.1).collect();
            let (slope, intercept) = linear_fit(&ys, &zs);
            ProxyFit {
                distribution: name.to_string(),
                pearson: pearson(&ys, &zs),
                slope,
                intercept,
                points,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Scheme comparison machinery shared by Figures 6-11.
// ---------------------------------------------------------------------------

/// All schemes' outcomes on one scenario.
pub struct Comparison {
    pub scenario: Scenario,
    pub opt: Outcome,
    pub pretium: PretiumRun,
    pub no_prices: Outcome,
    pub region: baselines::RegionOracleResult,
    pub peak: baselines::PeakOracleResult,
    pub vcg: Outcome,
}

impl Comparison {
    /// Welfare of an outcome under the true percentile costs.
    pub fn welfare(&self, o: &Outcome) -> f64 {
        o.welfare(&self.scenario.requests, &self.scenario.net, &self.scenario.grid, 1.0)
    }

    pub fn profit(&self, o: &Outcome) -> f64 {
        o.profit(&self.scenario.net, &self.scenario.grid, 1.0)
    }

    /// `(name, outcome)` pairs in the paper's plotting order.
    pub fn schemes(&self) -> Vec<(&str, &Outcome)> {
        vec![
            ("Pretium", &self.pretium.outcome),
            ("NoPrices", &self.no_prices),
            ("RegionOracle", &self.region.outcome),
            ("PeakOracle", &self.peak.outcome),
            ("VCGLike", &self.vcg),
        ]
    }
}

/// Which §6.1 scheme a cell solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// The offline OPT LP (the welfare upper bound everything is plotted
    /// against).
    Opt,
    /// Online Pretium, in one of its Figure-11 ablation variants.
    Pretium(Variant),
    NoPrices,
    RegionOracle,
    PeakOracle,
    VcgLike,
}

impl Scheme {
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Opt => "OPT",
            Scheme::Pretium(v) => v.label(),
            Scheme::NoPrices => "NoPrices",
            Scheme::RegionOracle => "RegionOracle",
            Scheme::PeakOracle => "PeakOracle",
            Scheme::VcgLike => "VCGLike",
        }
    }
}

/// What one scheme solve returns: each §6.1 scheme keeps its own shape
/// (the oracles carry their chosen prices, Pretium its live system), and
/// all of them carry an [`Outcome`].
pub(crate) enum SchemeOut {
    Plain(Box<Outcome>),
    Pretium(Box<PretiumRun>),
    Region(Box<baselines::RegionOracleResult>),
    Peak(Box<baselines::PeakOracleResult>),
}

impl SchemeOut {
    pub(crate) fn outcome(&self) -> &Outcome {
        match self {
            SchemeOut::Plain(o) => o,
            SchemeOut::Pretium(r) => &r.outcome,
            SchemeOut::Region(r) => &r.outcome,
            SchemeOut::Peak(r) => &r.outcome,
        }
    }
}

/// Solve one scheme on one world — the single scheme → solver mapping;
/// sweep cells and [`compare_schemes_jobs`] both go through it.
/// `cost_scale` is the §6.2 link-cost multiplier (1.0 outside Figure 12).
pub(crate) fn solve_scheme(
    s: &Scenario,
    scheme: Scheme,
    cost_scale: f64,
) -> Result<SchemeOut, SolveError> {
    let off = OfflineConfig { cost_scale, ..Default::default() };
    let plain = |o| SchemeOut::Plain(Box::new(o));
    Ok(match scheme {
        Scheme::Opt => plain(baselines::opt(&s.net, &s.grid, s.horizon, &s.requests, &off)?),
        Scheme::Pretium(variant) => {
            let cfg = PretiumConfig { cost_scale, ..Default::default() };
            SchemeOut::Pretium(Box::new(run_pretium(s, cfg, variant)?))
        }
        Scheme::NoPrices => {
            plain(baselines::no_prices(&s.net, &s.grid, s.horizon, &s.requests, &off)?)
        }
        Scheme::RegionOracle => SchemeOut::Region(Box::new(baselines::region_oracle(
            &s.net,
            &s.grid,
            s.horizon,
            &s.requests,
            &off,
        )?)),
        Scheme::PeakOracle => {
            let peaks = baselines::peak_steps_from_trace(&s.trace, &s.grid);
            SchemeOut::Peak(Box::new(baselines::peak_oracle(
                &s.net,
                &s.grid,
                s.horizon,
                &s.requests,
                &peaks,
                &off,
            )?))
        }
        Scheme::VcgLike => {
            plain(baselines::vcg_like(&s.net, &s.grid, s.horizon, &s.requests, &off)?)
        }
    })
}

/// Run every scheme of §6.1 on one scenario, solving them concurrently on
/// up to [`crate::par::default_jobs`] workers (see [`compare_schemes_jobs`]).
pub fn compare_schemes(config: &ScenarioConfig) -> Result<Comparison, SolveError> {
    compare_schemes_jobs(config, crate::par::default_jobs())
}

/// Run every scheme of §6.1 on one scenario with an explicit worker count.
///
/// The scenario is built once and shared immutably behind `Arc`; the five
/// schemes (plus the OPT LP) are independent solves, each with its own
/// `SolverSession`, so they execute as parallel cells. Results are merged
/// in declaration order — `jobs` affects wall clock only, never values.
pub fn compare_schemes_jobs(
    config: &ScenarioConfig,
    jobs: usize,
) -> Result<Comparison, SolveError> {
    use crate::par::Cell;
    use std::sync::Arc;

    let scenario = Arc::new(config.build());
    let cells = [
        Scheme::Opt,
        Scheme::Pretium(Variant::Full),
        Scheme::NoPrices,
        Scheme::RegionOracle,
        Scheme::PeakOracle,
        Scheme::VcgLike,
    ]
    .into_iter()
    .map(|scheme| {
        let scenario = Arc::clone(&scenario);
        Cell::new(format!("scheme/{}", scheme.label()), move || {
            solve_scheme(&scenario, scheme, 1.0)
        })
    })
    .collect();
    let (results, _telemetry) = crate::par::run_cells(jobs, cells);
    let outs = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    use SchemeOut::{Peak, Plain, Pretium, Region};
    let outs: [SchemeOut; 6] = outs.try_into().ok().expect("one result per scheme cell");
    let [Plain(opt), Pretium(pretium), Plain(no_prices), Region(region), Peak(peak), Plain(vcg)] =
        outs
    else {
        unreachable!("solve_scheme returns each scheme's own shape, in the order asked")
    };
    let scenario = Arc::try_unwrap(scenario).unwrap_or_else(|arc| (*arc).clone());
    Ok(Comparison {
        scenario,
        opt: *opt,
        pretium: *pretium,
        no_prices: *no_prices,
        region: *region,
        peak: *peak,
        vcg: *vcg,
    })
}

// ---------------------------------------------------------------------------
// Figure 7 — dynamic prices at work (load factor 2).
// ---------------------------------------------------------------------------

/// Figure 7a: price and utilization over time on the busiest
/// percentile-billed link. Returns `(prices, utilizations)` per timestep.
pub fn fig7a_price_and_utilization_on(
    config: &ScenarioConfig,
) -> Result<(Vec<f64>, Vec<f64>), SolveError> {
    let scenario = config.build();
    let run = run_pretium(&scenario, PretiumConfig::default(), Variant::Full)?;
    // Busiest percentile edge by carried volume.
    let e = scenario
        .net
        .percentile_edges()
        .into_iter()
        .max_by(|&a, &b| {
            let ua: f64 = run.outcome.usage.series(a).iter().sum();
            let ub: f64 = run.outcome.usage.series(b).iter().sum();
            ua.partial_cmp(&ub).unwrap()
        })
        .unwrap_or(EdgeId(0));
    let prices = run.system.state().price_series(e).to_vec();
    let util = run.outcome.usage.utilization(&scenario.net, e);
    Ok((prices, util))
}

/// Figure 7b: total value captured per value-per-unit bucket, relative to
/// OPT's capture in the same bucket.
pub fn fig7b_value_buckets_on(
    config: &ScenarioConfig,
) -> Result<(Vec<f64>, Vec<Series>), SolveError> {
    let cmp = compare_schemes(config)?;
    let max_v = cmp.scenario.requests.iter().map(|r| r.value).fold(0.0f64, f64::max);
    let edges: Vec<f64> = (1..=10).map(|i| max_v * i as f64 / 10.0).collect();
    let opt_buckets = cmp.opt.value_by_bucket(&cmp.scenario.requests, &edges);
    let mut series = Vec::new();
    for (name, o) in cmp.schemes() {
        let buckets = o.value_by_bucket(&cmp.scenario.requests, &edges);
        let points = edges
            .iter()
            .zip(buckets.iter().zip(&opt_buckets))
            .map(|(&e, (&b, &ob))| (e, if ob > 1e-9 { b / ob } else { 0.0 }))
            .collect();
        series.push(Series::new(name, points));
    }
    Ok((edges, series))
}

/// Figure 7c: per-request `(value per unit, average admission price per
/// unit)` scatter for Pretium-admitted requests.
pub fn fig7c_price_vs_value_on(config: &ScenarioConfig) -> Result<Vec<(f64, f64)>, SolveError> {
    let scenario = config.build();
    let run = run_pretium(&scenario, PretiumConfig::default(), Variant::Full)?;
    let mut pts = Vec::new();
    for (i, r) in scenario.requests.iter().enumerate() {
        if run.outcome.admitted[i] && run.outcome.delivered[i] > 1e-9 {
            if let Some(ci) = run.contract_of_request[i] {
                let c = &run.system.contracts()[ci];
                if c.purchased > 1e-9 {
                    pts.push((r.value, c.payment / c.purchased));
                }
            }
        }
    }
    Ok(pts)
}

// ---------------------------------------------------------------------------
// Figure 10 — CDF of 90th-percentile link utilization per scheme.
// ---------------------------------------------------------------------------

/// Figure 10: each scheme's per-link p90 utilizations, sorted, as a CDF.
pub fn fig10_p90_utilization_cdf_on(config: &ScenarioConfig) -> Result<Vec<Series>, SolveError> {
    let cmp = compare_schemes(config)?;
    let mut series = Vec::new();
    for (name, o) in cmp.schemes() {
        let mut p90 = o.usage.p90_utilizations(&cmp.scenario.net);
        p90.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Report the per-scheme p90 utilization at each CDF quantile so the
        // columns are directly comparable (lower is better: the paper's
        // claim is that Pretium cuts the median link's p90 by ~30%).
        let n = p90.len();
        let points =
            p90.into_iter().enumerate().map(|(i, v)| ((i + 1) as f64 / n as f64, v)).collect();
        series.push(Series::new(name, points));
    }
    Ok(series)
}

// ---------------------------------------------------------------------------
// Table 4 — module runtimes.
// ---------------------------------------------------------------------------

/// Measured runtimes of the three Pretium modules at the default scale.
#[derive(Debug, Clone)]
pub struct ModuleRuntimes {
    /// Per-request quote+accept latency samples (seconds).
    pub ra: Vec<f64>,
    /// Per-timestep SAM latency samples.
    pub sam: Vec<f64>,
    /// Price-computer latency samples (one per window boundary).
    pub pc: Vec<f64>,
}

/// Run one Pretium replay, timing each module invocation (Table 4).
pub fn table4_runtimes_on(config: &ScenarioConfig) -> Result<ModuleRuntimes, SolveError> {
    use std::time::Instant;
    let scenario = config.build();
    let mut system = pretium_core::Pretium::new(
        scenario.net.clone(),
        scenario.grid,
        scenario.horizon,
        PretiumConfig::default(),
    );
    let mut usage = UsageTracker::new(scenario.net.num_edges(), scenario.horizon);
    let mut rt = ModuleRuntimes { ra: Vec::new(), sam: Vec::new(), pc: Vec::new() };
    let mut next = 0;
    for t in 0..scenario.horizon {
        if scenario.grid.step_in_window(t) == 0 && t > 0 {
            let t0 = Instant::now();
            system.run_pc(t)?;
            rt.pc.push(t0.elapsed().as_secs_f64());
        }
        while next < scenario.requests.len() && scenario.requests[next].arrival == t {
            let r = &scenario.requests[next];
            let params = pretium_core::RequestParams::from(r);
            let t0 = Instant::now();
            system.admit_one(&params, |menu| menu.optimal_purchase(r.value, r.demand));
            rt.ra.push(t0.elapsed().as_secs_f64());
            next += 1;
        }
        let t0 = Instant::now();
        system.run_sam(t, &usage)?;
        rt.sam.push(t0.elapsed().as_secs_f64());
        system.execute_step(t, &mut usage);
    }
    Ok(rt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_cdf_is_monotone_with_spread() {
        let cdf = fig1_utilization_ratio_cdf(3);
        assert!(!cdf.is_empty());
        assert!(cdf.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
        // Motivation claim: a spread of ratios exists.
        let max_ratio = cdf.last().unwrap().0;
        let min_ratio = cdf.first().unwrap().0;
        assert!(max_ratio / min_ratio.max(1e-9) > 2.0, "no spread: {min_ratio}..{max_ratio}");
    }

    #[test]
    fn fig5_proxy_strongly_correlated() {
        for fit in fig5_topk_proxy(5) {
            assert!(
                fit.pearson > 0.95,
                "{}: z_e and y_e should be linearly related, r={}",
                fit.distribution,
                fit.pearson
            );
            // z_e upper-bounds y_e on average: slope >= ~1 with small
            // intercept relative to the data scale.
            assert!(fit.slope > 0.9, "{}: slope {}", fit.distribution, fit.slope);
            // Positive bias: z >= y for the vast majority of links (the
            // relation is in expectation; sampling noise can flip a few).
            let above = fit.points.iter().filter(|&&(y, z)| z >= y - 1e-9).count();
            assert!(
                above * 10 >= fit.points.len() * 9,
                "{}: only {above}/{} links with z >= y",
                fit.distribution,
                fit.points.len()
            );
        }
    }

    #[test]
    fn table4_collects_samples() {
        // Tiny load to keep the test quick.
        let rt = table4_runtimes_on(&ScenarioConfig::evaluation(3, 0.2)).unwrap();
        assert!(!rt.ra.is_empty());
        assert!(!rt.sam.is_empty());
        assert!(percentile(&rt.sam, 0.5) >= 0.0);
    }
}

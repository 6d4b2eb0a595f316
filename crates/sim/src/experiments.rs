//! The computations behind the paper's evaluation (§6): the §6.1 scheme
//! dispatch ([`Scheme`], `solve_scheme`) every scheme solve goes through,
//! and one `_on(config)` function per single-world figure (Figures 1, 5,
//! 7, 10). Table 4 is timed on the runner's own replay loop
//! ([`crate::runner::ModuleTimes`]). The
//! [`mod@crate::registry`] declares which of these run, at which points,
//! and how their numbers fold into series.
//!
//! Absolute numbers differ from the paper (our substrate is a synthetic
//! trace, not the authors' production WAN), but the *shape* — who wins, by
//! roughly what factor, where crossovers fall — is the reproduction target
//! (see EXPERIMENTS.md for the paper-vs-measured record).

use crate::report::Series;
use crate::runner::{run_pretium, Variant};
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
// The §6.1 schemes, shared by Figures 6-14.
// ---------------------------------------------------------------------------

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

/// Solve one scheme on one world into its [`Outcome`] — the single scheme
/// → solver mapping every sweep cell and Figures 7b and 10 go through.
/// `cost_scale` is the §6.2 link-cost multiplier (1.0 outside Figure 12).
pub(crate) fn solve_scheme(
    s: &Scenario,
    scheme: Scheme,
    cost_scale: f64,
) -> Result<Outcome, SolveError> {
    let off = OfflineConfig { cost_scale, ..Default::default() };
    match scheme {
        Scheme::Opt => baselines::opt(&s.net, &s.grid, s.horizon, &s.requests, &off),
        Scheme::Pretium(variant) => {
            let cfg = PretiumConfig { cost_scale, ..Default::default() };
            Ok(run_pretium(s, cfg, variant, None, &mut ())?.outcome)
        }
        Scheme::NoPrices => baselines::no_prices(&s.net, &s.grid, s.horizon, &s.requests, &off),
        Scheme::RegionOracle => {
            Ok(baselines::region_oracle(&s.net, &s.grid, s.horizon, &s.requests, &off)?.outcome)
        }
        Scheme::PeakOracle => {
            let peaks = baselines::peak_steps_from_trace(&s.trace, &s.grid);
            Ok(baselines::peak_oracle(&s.net, &s.grid, s.horizon, &s.requests, &peaks, &off)?
                .outcome)
        }
        Scheme::VcgLike => baselines::vcg_like(&s.net, s.horizon, &s.requests, &off),
    }
}

/// The schemes Figures 7b and 10 plot, in the paper's order.
const PLOTTED: [Scheme; 5] = [
    Scheme::Pretium(Variant::Full),
    Scheme::NoPrices,
    Scheme::RegionOracle,
    Scheme::PeakOracle,
    Scheme::VcgLike,
];

// ---------------------------------------------------------------------------
// Figure 7 — dynamic prices at work (load factor 2).
// ---------------------------------------------------------------------------

/// Figure 7a: price and utilization over time on the busiest
/// percentile-billed link. Returns `(prices, utilizations)` per timestep.
pub fn fig7a_price_and_utilization_on(
    config: &ScenarioConfig,
) -> Result<(Vec<f64>, Vec<f64>), SolveError> {
    let scenario = config.build();
    let run = run_pretium(&scenario, PretiumConfig::default(), Variant::Full, None, &mut ())?;
    // Busiest percentile edge by carried volume.
    let e = scenario
        .net
        .percentile_edges()
        .into_iter()
        .max_by(|&a, &b| {
            let ua: f64 = run.outcome.usage.series(a).iter().sum();
            let ub: f64 = run.outcome.usage.series(b).iter().sum();
            ua.total_cmp(&ub)
        })
        .unwrap_or(EdgeId(0));
    let prices = run.system.state().price_series(e).to_vec();
    let util = run.outcome.usage.utilization(&scenario.net, e);
    Ok((prices, util))
}

/// Figure 7b: total value captured per value-per-unit bucket, relative to
/// OPT's capture in the same bucket.
pub fn fig7b_value_buckets_on(config: &ScenarioConfig) -> Result<Vec<Series>, SolveError> {
    let scenario = config.build();
    let requests = &scenario.requests;
    let max_v = requests.iter().map(|r| r.value).fold(0.0f64, f64::max);
    let edges: Vec<f64> = (1..=10).map(|i| max_v * i as f64 / 10.0).collect();
    let opt_buckets = solve_scheme(&scenario, Scheme::Opt, 1.0)?.value_by_bucket(requests, &edges);
    PLOTTED
        .iter()
        .map(|&scheme| {
            let buckets = solve_scheme(&scenario, scheme, 1.0)?.value_by_bucket(requests, &edges);
            let points = edges
                .iter()
                .zip(buckets.iter().zip(&opt_buckets))
                .map(|(&e, (&b, &ob))| (e, if ob > 1e-9 { b / ob } else { 0.0 }))
                .collect();
            Ok(Series::new(scheme.label(), points))
        })
        .collect()
}

/// Figure 7c: per-request `(value per unit, average admission price per
/// unit)` scatter for Pretium-admitted requests.
pub fn fig7c_price_vs_value_on(config: &ScenarioConfig) -> Result<Vec<(f64, f64)>, SolveError> {
    let scenario = config.build();
    let run = run_pretium(&scenario, PretiumConfig::default(), Variant::Full, None, &mut ())?;
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
    let scenario = config.build();
    PLOTTED
        .iter()
        .map(|&scheme| {
            let mut p90 =
                solve_scheme(&scenario, scheme, 1.0)?.usage.p90_utilizations(&scenario.net);
            p90.sort_by(f64::total_cmp);
            // Report the per-scheme p90 utilization at each CDF quantile so
            // the columns are directly comparable (lower is better: the
            // paper's claim is that Pretium cuts the median link's p90 by
            // ~30%).
            let n = p90.len();
            let points =
                p90.into_iter().enumerate().map(|(i, v)| ((i + 1) as f64 / n as f64, v)).collect();
            Ok(Series::new(scheme.label(), points))
        })
        .collect()
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
}

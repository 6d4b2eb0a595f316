//! Unified experiment registry: every table/figure of the paper's §6
//! evaluation as one [`Experiment`] value behind one API.
//!
//! An experiment is **data**: a name, a scale, and either a sweep (an
//! [`Axis`] of points × a scheme list, with the [`Fold`] that turns one
//! point's metrics into plotted numbers), a list of text parts, or the
//! availability sweep's failure rates. It expands into [`CellSpec`]s whose
//! payload says everything needed to execute them, and the parallel engine
//! ([`crate::par`]) executes the cells on any number of workers. The
//! pipeline is:
//!
//! ```text
//! Experiment::cells(seed)          // declare the grid (deterministic order)
//!   -> par::run_cells(jobs, ..)    // run_cell(spec) anywhere, any order
//!   -> Experiment::merge(..)       // reassemble in declaration order
//! ```
//!
//! Determinism contract: a cell's result is a pure function of its
//! [`CellSpec`] — the spec carries a seed derived as
//! `derive_seed(run_seed, cell_label)`, and scenario configs bake their
//! seeds in at declaration time — so the merged output is bit-identical
//! across `--jobs` counts. Within one sweep, all schemes at one axis point
//! share the *same* world (same config seed): schemes must be compared on
//! identical inputs, so world seeds split per axis point, not per scheme.
//!
//! [`registry`] returns the full suite in the paper's order;
//! `bin/reproduce` enumerates it instead of hard-coding the figure list.

use crate::experiments::{self, solve_scheme, Scheme, LOAD_FACTORS};
use crate::faults::{FaultPlan, FaultPlanConfig};
use crate::par::{self, Cell};
use crate::report::{render_figure, render_table, Series};
use crate::runner::{run_pretium_faulted, Variant};
use crate::scenario::ScenarioConfig;
use pretium_core::{PoolTelemetry, PretiumConfig};
use pretium_lp::SolveError;
use pretium_net::percentile::percentile;
use pretium_workload::ValueDist;

// ---------------------------------------------------------------------------
// Cell model.
// ---------------------------------------------------------------------------

/// Scale at which an experiment builds its worlds: the full evaluation
/// topology of §6.1, or the 6-node tiny scale used by tests and the CI
/// smoke run (`reproduce --tiny`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Evaluation,
    Tiny,
}

impl Scale {
    /// The scenario config for this scale at one `(seed, load)` point.
    pub fn config(self, seed: u64, load: f64) -> ScenarioConfig {
        match self {
            Scale::Evaluation => ScenarioConfig::evaluation(seed, load),
            Scale::Tiny => {
                let mut cfg = ScenarioConfig::tiny(seed);
                cfg.load_factor = load;
                cfg
            }
        }
    }
}

/// Absolute metrics of one scheme on one scenario; relativization (to OPT,
/// to RegionOracle) happens at merge time where all cells are visible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    pub welfare: f64,
    pub profit: f64,
    pub completion: f64,
}

/// Absolute robustness metrics of one faulted Pretium run (the
/// availability-sweep cells). Welfare relativization to the healthy
/// (rate 0) point happens at merge time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustnessMetrics {
    pub welfare: f64,
    /// Admitted contracts that carried a nonzero guarantee.
    pub guaranteed: u64,
    /// Guaranteed contracts whose original promise was missed (every one
    /// must be ledgered — the runner's audit enforces it).
    pub violations: u64,
    /// Ledger composition: guarantees shed wholly vs relaxed partially.
    pub shed: u64,
    pub relaxed: u64,
    /// Total λ-weighted penalty booked in the violation ledger.
    pub penalty: f64,
    /// Timesteps SAM ran against a degraded topology.
    pub degraded_steps: u64,
    /// PC runs skipped because the look-back window was contaminated.
    pub pc_freezes: u64,
    /// Planned units moved off their slot while a fault was active.
    pub rerouted_units: f64,
}

impl RobustnessMetrics {
    /// Fraction of guaranteed contracts whose promise was missed.
    pub fn violation_rate(&self) -> f64 {
        if self.guaranteed == 0 {
            return 0.0;
        }
        self.violations as f64 / self.guaranteed as f64
    }
}

/// Renders one text part at a scale from its cell seed.
pub type Render = fn(Scale, u64) -> Result<String, SolveError>;

/// What one cell carries into [`run_cell`] — everything needed to execute
/// it, so execution never consults the declaring experiment.
#[derive(Debug, Clone)]
pub enum CellPayload {
    /// One scheme solve on one scenario (the sweep-grid case).
    Scheme { config: Box<ScenarioConfig>, scheme: Scheme, cost_scale: f64 },
    /// One faulted Pretium run at a given failure rate (the availability
    /// sweep). The fault plan is derived from the cell seed at run time.
    Robustness { config: Box<ScenarioConfig>, failure_rate: f64 },
    /// One pre-rendered text block (single-world figures like the Figure 1
    /// CDF, each panel of Figure 7).
    Text { render: Render, scale: Scale },
}

/// One declared unit of parallel work.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Unique `experiment/point/scheme` label: names the cell in panics
    /// and telemetry, and feeds per-cell seed derivation.
    pub label: String,
    /// Seed for cell-local randomness, derived as
    /// `derive_seed(run_seed, label)` — a pure function of the cell, never
    /// of scheduling.
    pub seed: u64,
    /// Axis coordinate the cell contributes to.
    pub x: f64,
    pub payload: CellPayload,
}

/// What one cell computed.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOut {
    Metrics(Metrics),
    Robustness(RobustnessMetrics),
    Text(String),
}

impl CellOut {
    fn metrics(&self) -> &Metrics {
        match self {
            CellOut::Metrics(m) => m,
            _ => unreachable!("sweep merge over a non-metrics cell"),
        }
    }

    fn robustness(&self) -> &RobustnessMetrics {
        match self {
            CellOut::Robustness(m) => m,
            _ => unreachable!("robustness merge over a non-robustness cell"),
        }
    }

    fn into_text(self) -> String {
        match self {
            CellOut::Text(s) => s,
            _ => unreachable!("text merge over a non-text cell"),
        }
    }
}

/// Merged output of one experiment.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentResult {
    /// A figure: named series over one x axis.
    Figure { title: String, x_label: String, series: Vec<Series> },
    /// A two-column table.
    Table { title: String, rows: Vec<(String, String)> },
    /// A pre-rendered block.
    Text(String),
}

impl ExperimentResult {
    /// Render as the plain-text block `reproduce` prints.
    pub fn render(&self) -> String {
        match self {
            ExperimentResult::Figure { title, x_label, series } => {
                render_figure(title, x_label, series)
            }
            ExperimentResult::Table { title, rows } => render_table(title, rows),
            ExperimentResult::Text(s) => s.clone(),
        }
    }

    /// The series of a figure result (None for tables/text).
    pub fn series(&self) -> Option<&[Series]> {
        match self {
            ExperimentResult::Figure { series, .. } => Some(series),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Executing a cell.
// ---------------------------------------------------------------------------

/// Execute one cell: a pure function of the spec.
pub fn run_cell(cell: &CellSpec) -> Result<CellOut, SolveError> {
    match &cell.payload {
        CellPayload::Scheme { config, scheme, cost_scale } => {
            run_scheme_cell(config, *scheme, *cost_scale).map(CellOut::Metrics)
        }
        CellPayload::Robustness { config, failure_rate } => {
            run_robustness_cell(config, *failure_rate, cell.seed).map(CellOut::Robustness)
        }
        CellPayload::Text { render, scale } => render(*scale, cell.seed).map(CellOut::Text),
    }
}

/// Solve one `(scenario, scheme)` cell into absolute [`Metrics`].
pub fn run_scheme_cell(
    config: &ScenarioConfig,
    scheme: Scheme,
    cost_scale: f64,
) -> Result<Metrics, SolveError> {
    let scenario = config.build();
    let out = solve_scheme(&scenario, scheme, cost_scale)?;
    let outcome = out.outcome();
    Ok(Metrics {
        welfare: outcome.welfare(&scenario.requests, &scenario.net, &scenario.grid, cost_scale),
        profit: outcome.profit(&scenario.net, &scenario.grid, cost_scale),
        completion: outcome.completion_rate(&scenario.requests),
    })
}

/// Solve one faulted Pretium run: generate the fault plan from the cell
/// seed, replay it, and distill the run into [`RobustnessMetrics`].
pub fn run_robustness_cell(
    config: &ScenarioConfig,
    failure_rate: f64,
    cell_seed: u64,
) -> Result<RobustnessMetrics, SolveError> {
    let scenario = config.build();
    let fault_cfg =
        FaultPlanConfig::availability(rand::derive_seed(cell_seed, "faults"), failure_rate);
    let plan = FaultPlan::for_scenario(&scenario, &fault_cfg);
    let run = run_pretium_faulted(&scenario, PretiumConfig::default(), Variant::Full, &plan)?;
    let guaranteed_contracts = || run.system.contracts().iter().filter(|c| c.guaranteed > 1e-9);
    let violations = guaranteed_contracts().filter(|c| !c.guarantee_met()).count() as u64;
    let ledger = run.system.ledger();
    let (shed, relaxed) = ledger.counts();
    let t = run.telemetry();
    Ok(RobustnessMetrics {
        welfare: run.outcome.welfare(&scenario.requests, &scenario.net, &scenario.grid, 1.0),
        guaranteed: guaranteed_contracts().count() as u64,
        violations,
        shed: shed as u64,
        relaxed: relaxed as u64,
        penalty: ledger.total_penalty(),
        degraded_steps: t.degraded_steps,
        pc_freezes: t.pc_freezes,
        rerouted_units: t.rerouted_units,
    })
}

// ---------------------------------------------------------------------------
// Experiments as data.
// ---------------------------------------------------------------------------

/// Value-distribution families swept by Figures 13/14.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    Normal,
    Pareto,
}

impl ValueKind {
    pub fn label(self) -> &'static str {
        match self {
            ValueKind::Normal => "normal",
            ValueKind::Pareto => "pareto",
        }
    }

    /// The distribution at the evaluation workload's mean with the given
    /// `μ/σ` ratio (only shape and spread change across the sweep).
    pub fn dist(self, mean: f64, ratio: f64) -> ValueDist {
        match self {
            ValueKind::Normal => ValueDist::normal_from_ratio(mean, ratio),
            ValueKind::Pareto => ValueDist::pareto_from_mean_ratio(mean, ratio),
        }
    }
}

/// The axis a sweep varies, with its points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Axis {
    /// Load factor (Figures 6, 8, 9, 11).
    Load(&'static [f64]),
    /// §6.2 link-cost multiplier, at load 1 (Figure 12).
    LinkCost(&'static [f64]),
    /// Request-value `μ/σ` ratio × [`ValueKind`] family, at load 1
    /// (Figures 13/14). Two families share each ratio, so this axis merges
    /// to a table rather than to series over one x.
    Values(&'static [f64]),
}

/// One axis point: its label and coordinate, the world every scheme at the
/// point replays (seed baked in — schemes must see identical inputs to be
/// comparable), and the §6.2 cost multiplier.
struct Point {
    label: String,
    x: f64,
    config: ScenarioConfig,
    cost_scale: f64,
}

/// The `(ratio, family)` points of a value axis, in declaration order.
fn value_points(ratios: &[f64]) -> impl Iterator<Item = (f64, ValueKind)> + '_ {
    ratios.iter().flat_map(|&r| [(r, ValueKind::Normal), (r, ValueKind::Pareto)])
}

impl Axis {
    pub fn label(self) -> &'static str {
        match self {
            Axis::Load(_) => "load",
            Axis::LinkCost(_) => "cost scale",
            Axis::Values(_) => "mu/sigma",
        }
    }

    fn points(self, scale: Scale, seed: u64) -> Vec<Point> {
        let point = |label: String, x: f64, load: f64, cost_scale: f64| Point {
            label,
            x,
            config: scale.config(seed, load),
            cost_scale,
        };
        match self {
            Axis::Load(loads) => {
                loads.iter().map(|&x| point(format!("load={x}"), x, x, 1.0)).collect()
            }
            Axis::LinkCost(multipliers) => {
                multipliers.iter().map(|&x| point(format!("cost={x}"), x, 1.0, x)).collect()
            }
            Axis::Values(ratios) => value_points(ratios)
                .map(|(x, kind)| {
                    let mut p = point(format!("{}-ratio={x}", kind.label()), x, 1.0, 1.0);
                    p.config.requests.value_dist = kind.dist(0.7, x);
                    p
                })
                .collect(),
        }
    }
}

/// How one axis point's [`Metrics`] (in scheme order) become plotted
/// numbers. Every sweep but Figure 9 lists OPT first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// Welfare of every later scheme relative to the first (Figures 6, 11,
    /// 12, 13).
    Welfare,
    /// Profit relative to RegionOracle's (Figures 8, 14). When that profit
    /// is near zero the ratio is meaningless, so the denominator is floored
    /// at 1% of OPT welfare (ratios then read as "profit in units of 1% of
    /// achievable welfare"). OPT and RegionOracle themselves are not
    /// plotted.
    Profit,
    /// Fraction of requests fully completed, per scheme (Figure 9).
    Completion,
}

impl Fold {
    /// `(scheme label, y)` for each scheme the fold plots at one point.
    fn apply(self, schemes: &[Scheme], m: &[&Metrics]) -> Vec<(&'static str, f64)> {
        let labeled = |i: usize, y: f64| (schemes[i].label(), y);
        match self {
            Fold::Welfare => {
                (1..m.len()).map(|i| labeled(i, m[i].welfare / m[0].welfare)).collect()
            }
            Fold::Profit => {
                let region = schemes
                    .iter()
                    .position(|&s| s == Scheme::RegionOracle)
                    .expect("a profit fold lists RegionOracle");
                let floor = (m[0].welfare.abs() * 0.01).max(1.0);
                let base = m[region].profit.max(floor);
                (1..m.len())
                    .filter(|&i| i != region)
                    .map(|i| labeled(i, m[i].profit / base))
                    .collect()
            }
            Fold::Completion => (0..m.len()).map(|i| labeled(i, m[i].completion)).collect(),
        }
    }
}

/// What an experiment runs.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Axis points × schemes (points outer, schemes inner), one scheme
    /// solve per cell, folded per point.
    Sweep { axis: Axis, schemes: &'static [Scheme], title: &'static str, fold: Fold },
    /// One cell per `(part name, render fn)`; the blocks are concatenated.
    /// The cells still flow through the parallel engine, so e.g. Figure 7's
    /// three panels solve concurrently with every other selected
    /// experiment's cells.
    Text(&'static [(&'static str, Render)]),
    /// §4.4 robustness: one faulted Pretium run per failure rate
    /// (probability per (edge, window) of an outage starting). Worlds are
    /// shared across rates (same scenario seed) so only the fault plan
    /// varies; the first rate is the baseline welfare is normalized to.
    Availability(&'static [f64]),
}

/// One table/figure of the evaluation: a declared cell grid plus the merge
/// that reassembles cell results — in declaration order, regardless of
/// completion order — into the figure's series or table rows.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    name: &'static str,
    aliases: &'static [&'static str],
    scale: Scale,
    kind: Kind,
}

/// Append `(x, y)` to the series called `name`, creating it on first use
/// (series appear in first-contribution order, which is declaration
/// order).
fn push_point(series: &mut Vec<Series>, name: &str, x: f64, y: f64) {
    match series.iter_mut().find(|s| s.name == name) {
        Some(s) => s.points.push((x, y)),
        None => series.push(Series::new(name, vec![(x, y)])),
    }
}

impl Experiment {
    /// A sweep of `schemes` over `axis`, merged by `fold` under `title`.
    pub fn sweep(
        name: &'static str,
        aliases: &'static [&'static str],
        scale: Scale,
        axis: Axis,
        schemes: &'static [Scheme],
        title: &'static str,
        fold: Fold,
    ) -> Self {
        Experiment { name, aliases, scale, kind: Kind::Sweep { axis, schemes, title, fold } }
    }

    /// Text blocks, one cell per `(part, render)`; a lone part is named "".
    pub fn text(
        name: &'static str,
        aliases: &'static [&'static str],
        scale: Scale,
        parts: &'static [(&'static str, Render)],
    ) -> Self {
        Experiment { name, aliases, scale, kind: Kind::Text(parts) }
    }

    /// The availability sweep over `rates` (the first is the baseline).
    pub fn availability(scale: Scale, rates: &'static [f64]) -> Self {
        Experiment {
            name: "robustness",
            aliases: &["availability", "faults"],
            scale,
            kind: Kind::Availability(rates),
        }
    }

    /// Registry key (`fig6`, `table4`, ...); what `reproduce` matches
    /// against.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Alternate names that select this experiment (`fig14` -> `fig13`).
    pub fn aliases(&self) -> &'static [&'static str] {
        self.aliases
    }

    /// Declare the cell grid. Order is the declaration order `merge`
    /// receives results in; it is deterministic for a given seed.
    pub fn cells(&self, seed: u64) -> Vec<CellSpec> {
        let cell = |label: String, x: f64, payload: CellPayload| CellSpec {
            seed: rand::derive_seed(seed, &label),
            label,
            x,
            payload,
        };
        match self.kind {
            Kind::Sweep { axis, schemes, .. } => axis
                .points(self.scale, seed)
                .into_iter()
                .flat_map(|p| {
                    schemes.iter().map(move |&scheme| {
                        let label = format!("{}/{}/{}", self.name, p.label, scheme.label());
                        let config = Box::new(p.config.clone());
                        cell(
                            label,
                            p.x,
                            CellPayload::Scheme { config, scheme, cost_scale: p.cost_scale },
                        )
                    })
                })
                .collect(),
            Kind::Text(parts) => parts
                .iter()
                .map(|&(part, render)| {
                    let label = if part.is_empty() {
                        self.name.to_string()
                    } else {
                        format!("{}/{part}", self.name)
                    };
                    cell(label, 0.0, CellPayload::Text { render, scale: self.scale })
                })
                .collect(),
            Kind::Availability(rates) => rates
                .iter()
                .map(|&failure_rate| {
                    // Load 2 (the fig7 operating point): the network is
                    // contended, so an outage cannot always be rerouted
                    // around and the degradation chain actually engages.
                    let config = Box::new(self.scale.config(seed, 2.0));
                    cell(
                        format!("robustness/rate={failure_rate}/Pretium"),
                        failure_rate,
                        CellPayload::Robustness { config, failure_rate },
                    )
                })
                .collect(),
        }
    }

    /// Execute one cell (see [`run_cell`]; the experiment adds nothing).
    pub fn run_cell(&self, cell: &CellSpec) -> Result<CellOut, SolveError> {
        run_cell(cell)
    }

    /// Reassemble cell outputs (in declaration order) into the final
    /// figure/table.
    pub fn merge(&self, cells: &[CellSpec], outs: Vec<CellOut>) -> ExperimentResult {
        match self.kind {
            Kind::Sweep { axis, schemes, title, fold } => {
                let metrics: Vec<&Metrics> = outs.iter().map(CellOut::metrics).collect();
                let k = schemes.len().max(1);
                let per_point = cells.chunks(k).zip(metrics.chunks(k));
                let Axis::Values(ratios) = axis else {
                    let mut series: Vec<Series> = Vec::new();
                    for (point, m) in per_point {
                        for (name, y) in fold.apply(schemes, m) {
                            push_point(&mut series, name, point[0].x, y);
                        }
                    }
                    let x_label = axis.label().into();
                    return ExperimentResult::Figure { title: title.into(), x_label, series };
                };
                // Figure 13's welfare columns and Figure 14's profit ratio,
                // one row per (ratio, family).
                let rows = value_points(ratios)
                    .zip(per_point)
                    .map(|((ratio, kind), (_, m))| {
                        let welfare = fold.apply(schemes, m);
                        let profit = Fold::Profit.apply(schemes, m);
                        (
                            format!("{} {}={ratio}", kind.label(), axis.label()),
                            format!(
                                "Pretium={:.3} Region={:.3} profit_ratio={:.2}",
                                welfare[0].1, welfare[1].1, profit[0].1
                            ),
                        )
                    })
                    .collect();
                ExperimentResult::Table { title: title.into(), rows }
            }
            Kind::Text(_) => ExperimentResult::Text(
                outs.into_iter().map(CellOut::into_text).collect::<Vec<_>>().join(""),
            ),
            Kind::Availability(_) => {
                let healthy = outs[0].robustness().welfare;
                let denom = if healthy.abs() > 1e-9 { healthy } else { 1.0 };
                let mut series: Vec<Series> = Vec::new();
                for (cell, out) in cells.iter().zip(&outs) {
                    let m = out.robustness();
                    push_point(&mut series, "welfare (rel. healthy)", cell.x, m.welfare / denom);
                    push_point(&mut series, "violation rate", cell.x, m.violation_rate());
                }
                ExperimentResult::Figure {
                    title: "Robustness: welfare & guarantee violations vs failure rate".into(),
                    x_label: "failure rate".into(),
                    series,
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The text parts.
// ---------------------------------------------------------------------------

fn run_table1(_scale: Scale, _seed: u64) -> Result<String, SolveError> {
    Ok(pretium_workload::survey::format_table1())
}

fn run_fig1(_scale: Scale, seed: u64) -> Result<String, SolveError> {
    let cdf = experiments::fig1_utilization_ratio_cdf(seed);
    let series = vec![Series::new("CDF", cdf)];
    Ok(render_figure("Figure 1: CDF of p90/p10 link-utilization ratio", "ratio", &series))
}

fn run_fig2(_scale: Scale, _seed: u64) -> Result<String, SolveError> {
    Ok("Figure 2: see `cargo run --release --example paper_example`\n".to_string())
}

fn run_fig5(_scale: Scale, seed: u64) -> Result<String, SolveError> {
    let fits = experiments::fig5_topk_proxy(seed);
    let rows: Vec<(String, String)> = fits
        .iter()
        .map(|f| {
            (
                f.distribution.clone(),
                format!(
                    "pearson={:.4} slope={:.3} intercept={:.3}",
                    f.pearson, f.slope, f.intercept
                ),
            )
        })
        .collect();
    Ok(render_table("Figure 5: z_e (top-10% mean) vs y_e (95th pct)", &rows))
}

/// An `(index, y)` series over timesteps.
fn over_time(name: &str, ys: &[f64]) -> Series {
    Series::new(name, ys.iter().enumerate().map(|(t, &y)| (t as f64, y)).collect())
}

fn run_fig7a(scale: Scale, seed: u64) -> Result<String, SolveError> {
    let (prices, util) = experiments::fig7a_price_and_utilization_on(&scale.config(seed, 2.0))?;
    let series = vec![over_time("price", &prices), over_time("utilization", &util)];
    Ok(render_figure("Figure 7a: price & utilization over time (busiest pct link)", "t", &series))
}

fn run_fig7b(scale: Scale, seed: u64) -> Result<String, SolveError> {
    let (_, series) = experiments::fig7b_value_buckets_on(&scale.config(seed, 2.0))?;
    Ok(render_figure("Figure 7b: value captured per value bucket (rel. OPT)", "bucket<=", &series))
}

fn run_fig7c(scale: Scale, seed: u64) -> Result<String, SolveError> {
    let pts = experiments::fig7c_price_vs_value_on(&scale.config(seed, 2.0))?;
    Ok(crate::report::render_ascii_plot(
        "Figure 7c: admission price vs request value",
        &pts,
        60,
        14,
    ))
}

fn run_fig10(scale: Scale, seed: u64) -> Result<String, SolveError> {
    let config = scale.config(seed, 2.0);
    let series = experiments::fig10_p90_utilization_cdf_on(&config)?;
    Ok(render_figure("Figure 10: CDF of per-link p90 utilization", "p90 util", &series))
}

fn run_table4(scale: Scale, seed: u64) -> Result<String, SolveError> {
    let config = scale.config(seed, 2.0);
    let rt = experiments::table4_runtimes_on(&config)?;
    let timing = |name: &str, samples: &[f64]| {
        (
            name.to_string(),
            format!(
                "median {:.4}s  p95 {:.4}s",
                percentile(samples, 0.5),
                percentile(samples, 0.95)
            ),
        )
    };
    let rows = vec![
        timing("RA (per request)", &rt.ra),
        timing("SAM (per timestep)", &rt.sam),
        timing("PC (per window)", &rt.pc),
    ];
    Ok(render_table("Table 4: module runtimes", &rows))
}

/// The admission-surge cell: load 2.0 plus a fault-plan surge stream at
/// ≥ 10× the scenario's own arrival volume, admitted through the snapshot
/// front end (one snapshot per step's batch, stale tickets re-quoted by the
/// sequencer) with auditing forced on — graceful behavior under request
/// pressure, with a clean audit trail, is the acceptance bar for the
/// admission API.
fn run_surge(scale: Scale, seed: u64) -> Result<String, SolveError> {
    // One window is enough to saturate admission (the surge pressure is
    // per-step, not cumulative), and it keeps the per-step SAM LP — which
    // grows with every admitted surge contract — inside the suite's
    // wall-clock budget at evaluation scale.
    let mut cfg = scale.config(seed, 2.0);
    cfg.windows = 1;
    let sc = cfg.build();
    // One surge per window; size the surges so their total is ≥ 10× the
    // scenario's arrivals.
    let windows = (sc.horizon / sc.grid.steps_per_window).max(1);
    let per_surge = (10 * sc.requests.len()).div_ceil(windows).max(1);
    let plan_cfg = FaultPlanConfig::surge(rand::derive_seed(seed, "surge-exp"), per_surge);
    let plan = FaultPlan::for_scenario(&sc, &plan_cfg);
    let surge_arrivals: usize = (0..sc.horizon).map(|t| plan.surges_at(t).count()).sum();
    let cfg = PretiumConfig { audit: true, ..Default::default() };
    let run = run_pretium_faulted(&sc, cfg, Variant::Full, &plan)?;
    let scenario_admitted = run.contract_of_request.iter().filter(|c| c.is_some()).count();
    let surge_admitted = run.system.contracts().len() - scenario_admitted;
    let t = run.telemetry();
    let aud = run.audit().expect("surge cell audits unconditionally");
    let welfare = run.outcome.welfare(&sc.requests, &sc.net, &sc.grid, 1.0);
    let rows = vec![
        ("scenario arrivals".to_string(), sc.requests.len().to_string()),
        (
            "surge arrivals (≥10× scenario)".to_string(),
            format!("{surge_arrivals} ({per_surge}/window)"),
        ),
        ("scenario admitted".to_string(), scenario_admitted.to_string()),
        ("surge admitted".to_string(), surge_admitted.to_string()),
        ("quotes".to_string(), t.quote.calls.to_string()),
        ("quotes requoted (stale tickets)".to_string(), t.quotes_requoted.to_string()),
        ("snapshots published".to_string(), t.snapshots.to_string()),
        ("audit sweeps".to_string(), aud.checks().to_string()),
        ("audit violations".to_string(), aud.violations().len().to_string()),
        ("scenario welfare".to_string(), format!("{welfare:.1}")),
    ];
    Ok(render_table("Admission surge: batched RA under 10x request pressure", &rows))
}

fn run_incentives(scale: Scale, seed: u64) -> Result<String, SolveError> {
    use crate::incentives::{analyze_deviations, Deviation};
    let sc = scale.config(seed, 1.0).build();
    let report = analyze_deviations(
        &sc,
        &PretiumConfig::default(),
        &[Deviation::LaterDeadline(2), Deviation::TighterDeadline(1), Deviation::Split],
        12,
    )?;
    let rows = vec![
        ("sampled users".to_string(), report.sampled.to_string()),
        ("simulated deviations".to_string(), report.simulated.to_string()),
        (
            "could gain (paper: <26%)".to_string(),
            format!("{} ({:.0}%)", report.gainers, 100.0 * report.gainer_fraction()),
        ),
        (
            "avg gain when gaining (paper: <6%)".to_string(),
            format!("{:.1}%", 100.0 * report.avg_gain),
        ),
        ("max gain".to_string(), format!("{:.1}%", 100.0 * report.max_gain)),
    ];
    Ok(render_table("Section 5: deviation study", &rows))
}

// ---------------------------------------------------------------------------
// The registry and the parallel suite runner.
// ---------------------------------------------------------------------------

/// Failure rates the robustness sweep evaluates. Rate 0 is the healthy
/// baseline every other point's welfare is normalized against.
pub const FAILURE_RATES: [f64; 4] = [0.0, 0.1, 0.25, 0.5];

const PRETIUM: Scheme = Scheme::Pretium(Variant::Full);

/// Every experiment of the evaluation, in the paper's order, at the full
/// evaluation scale.
pub fn registry() -> Vec<Experiment> {
    registry_at(Scale::Evaluation)
}

/// The full suite at an explicit scale (`Scale::Tiny` for tests and the CI
/// smoke run).
pub fn registry_at(scale: Scale) -> Vec<Experiment> {
    use Scheme::{NoPrices, Opt, PeakOracle, RegionOracle, VcgLike};
    let loads = Axis::Load(&LOAD_FACTORS);
    let text = |name, aliases, parts| Experiment::text(name, aliases, scale, parts);
    let sweep = |name, aliases, axis, schemes, title, fold| {
        Experiment::sweep(name, aliases, scale, axis, schemes, title, fold)
    };
    vec![
        text("table1", &[], &[("", run_table1)]),
        text("fig1", &[], &[("", run_fig1)]),
        text("fig2", &[], &[("", run_fig2)]),
        text("fig5", &[], &[("", run_fig5)]),
        sweep(
            "fig6",
            &[],
            loads,
            &[Opt, PRETIUM, NoPrices, RegionOracle, PeakOracle, VcgLike],
            "Figure 6: welfare relative to OPT",
            Fold::Welfare,
        ),
        text(
            "fig7",
            &["fig7a", "fig7b", "fig7c"],
            &[("a", run_fig7a), ("b", run_fig7b), ("c", run_fig7c)],
        ),
        sweep(
            "fig8",
            &[],
            loads,
            &[Opt, RegionOracle, PRETIUM, PeakOracle, VcgLike],
            "Figure 8: profit relative to RegionOracle",
            Fold::Profit,
        ),
        sweep(
            "fig9",
            &[],
            loads,
            &[PRETIUM, NoPrices, RegionOracle, PeakOracle, VcgLike],
            "Figure 9: fraction of requests completed",
            Fold::Completion,
        ),
        text("fig10", &[], &[("", run_fig10)]),
        sweep(
            "fig11",
            &[],
            loads,
            &[Opt, PRETIUM, Scheme::Pretium(Variant::NoMenu), Scheme::Pretium(Variant::NoSam)],
            "Figure 11: Pretium ablations (rel. OPT)",
            Fold::Welfare,
        ),
        sweep(
            "fig12",
            &[],
            Axis::LinkCost(&[1.0, 1.4, 1.8, 2.2]),
            &[Opt, PRETIUM, RegionOracle],
            "Figure 12: welfare vs mean link cost (load 1)",
            Fold::Welfare,
        ),
        sweep(
            "fig13",
            &["fig14"],
            Axis::Values(&[1.0, 2.0, 4.0]),
            &[Opt, PRETIUM, RegionOracle],
            "Figures 13/14: value-distribution sensitivity (rel. OPT)",
            Fold::Welfare,
        ),
        text("table4", &[], &[("", run_table4)]),
        text("incentives", &[], &[("", run_incentives)]),
        text("surge", &["admission"], &[("", run_surge)]),
        Experiment::availability(scale, &FAILURE_RATES),
    ]
}

/// Run a set of experiments through one shared worker pool.
///
/// All experiments' cells are flattened into a single batch, so slow
/// single-cell figures overlap with wide sweeps instead of serializing the
/// suite; results come back in declaration order, so each experiment
/// merges its own consecutive slice of them. Returns each experiment's
/// merged result plus the pool telemetry of the whole batch.
pub fn run_experiments(
    experiments: &[Experiment],
    seed: u64,
    jobs: usize,
) -> Result<(Vec<(String, ExperimentResult)>, PoolTelemetry), SolveError> {
    let specs: Vec<Vec<CellSpec>> = experiments.iter().map(|exp| exp.cells(seed)).collect();
    let cells = specs
        .iter()
        .flatten()
        .cloned()
        .map(|spec| Cell::new(spec.label.clone(), move || run_cell(&spec)))
        .collect();
    let (results, telemetry) = par::run_cells(jobs, cells);
    let mut outs = results.into_iter().collect::<Result<Vec<_>, _>>()?.into_iter();
    let merged = experiments
        .iter()
        .zip(&specs)
        .map(|(exp, spec)| {
            let own = outs.by_ref().take(spec.len()).collect();
            (exp.name().to_string(), exp.merge(spec, own))
        })
        .collect();
    Ok((merged, telemetry))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_paper_ordered() {
        let reg = registry();
        let names: Vec<&str> = reg.iter().map(|e| e.name()).collect();
        assert_eq!(names[0], "table1");
        assert!(names.contains(&"fig6"));
        assert!(names.contains(&"incentives"));
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate registry names: {names:?}");
    }

    #[test]
    fn sweep_cells_expand_points_times_schemes_in_order() {
        use Scheme::{NoPrices, Opt, PeakOracle, RegionOracle, VcgLike};
        let exp = Experiment::sweep(
            "fig6",
            &[],
            Scale::Tiny,
            Axis::Load(&[0.5, 1.0]),
            &[Opt, PRETIUM, NoPrices, RegionOracle, PeakOracle, VcgLike],
            "welfare relative to OPT",
            Fold::Welfare,
        );
        let cells = exp.cells(rand::DEFAULT_SEED);
        assert_eq!(cells.len(), 2 * 6);
        assert!(cells[0].label.contains("load=0.5"));
        assert!(cells[0].label.ends_with("OPT"));
        assert!(cells[6].label.contains("load=1"));
        // Per-cell seeds are pure functions of the label.
        let again = exp.cells(rand::DEFAULT_SEED);
        assert_eq!(cells[3].seed, again[3].seed);
        assert_ne!(cells[0].seed, cells[1].seed);
    }

    #[test]
    fn robustness_sweep_runs_faulted_and_normalizes_to_healthy() {
        let exp = Experiment::availability(Scale::Tiny, &[0.0, 0.4]);
        let cells = exp.cells(rand::DEFAULT_SEED);
        assert_eq!(cells.len(), 2);
        let outs: Vec<CellOut> = cells.iter().map(|c| exp.run_cell(c).unwrap()).collect();
        // The faulted cell must actually stress the system (rate 0.4 on a
        // 10-edge tiny world essentially guarantees at least one outage).
        let faulted = outs[1].robustness();
        assert!(faulted.degraded_steps > 0, "{faulted:?}");
        // Every missed guarantee must be backed by ledger entries (counted
        // here; the in-run audit enforces the per-contract accounting).
        if faulted.violations > 0 {
            assert!(faulted.shed + faulted.relaxed > 0, "{faulted:?}");
            assert!(faulted.penalty > 0.0, "{faulted:?}");
        }
        let merged = exp.merge(&cells, outs);
        let series = merged.series().expect("robustness merges to a figure");
        assert_eq!(series.len(), 2);
        assert!((series[0].points[0].1 - 1.0).abs() < 1e-9, "healthy point normalizes to 1");
        assert_eq!(series[1].points[0].1, 0.0, "healthy run has no violations");
    }

    #[test]
    fn cell_labels_and_seeds_are_pinned() {
        // Labels feed `derive_seed`, so a renamed or reordered cell silently
        // re-draws fig1/fig5/fig7/table4/incentives/surge/robustness. FNV-1a
        // 64 over every `label:seed` line, in registry order, measured on
        // the trait-based registry this one replaced.
        for scale in [Scale::Tiny, Scale::Evaluation] {
            let mut hash = 0xcbf29ce484222325u64;
            let mut count = 0;
            for cell in registry_at(scale).iter().flat_map(|e| e.cells(rand::DEFAULT_SEED)) {
                for byte in format!("{}:{}\n", cell.label, cell.seed).bytes() {
                    hash = (hash ^ byte as u64).wrapping_mul(0x100000001b3);
                }
                count += 1;
            }
            assert_eq!((count, hash), (125, 0x28bf2ce88e5ceef4), "{scale:?}");
        }
    }

    #[test]
    fn cell_labels_are_unique_across_the_registry() {
        let reg = registry_at(Scale::Tiny);
        let mut labels: Vec<String> =
            reg.iter().flat_map(|e| e.cells(3)).map(|c| c.label).collect();
        let n = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), n);
    }
}

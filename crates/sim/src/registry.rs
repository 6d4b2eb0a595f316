//! Unified experiment registry: every table/figure of the paper's §6
//! evaluation as one [`Experiment`] behind one API.
//!
//! An experiment declares its sweep grid as **data** — a [`Sweep`] of axis
//! points × schemes, expanded into [`CellSpec`]s — and the parallel engine
//! ([`crate::par`]) executes the cells on any number of workers. The
//! pipeline is:
//!
//! ```text
//! Experiment::cells(seed)          // declare the grid (deterministic order)
//!   -> par::run_cells(jobs, ..)    // execute anywhere, any order
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

use crate::experiments::{self, ModuleRuntimes, LOAD_FACTORS};
use crate::faults::{FaultPlan, FaultPlanConfig};
use crate::par::{self, Cell};
use crate::report::{render_figure, render_table, Series};
use crate::runner::{run_pretium, run_pretium_faulted, Variant};
use crate::scenario::ScenarioConfig;
use pretium_baselines as baselines;
use pretium_baselines::{OfflineConfig, Outcome, PricedOfflineConfig};
use pretium_core::{PoolTelemetry, PretiumConfig};
use pretium_lp::SolveError;
use pretium_workload::ValueDist;
use std::sync::Arc;

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

/// Which §6.1 scheme a sweep cell solves.
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

/// What one cell carries into `run_cell`.
#[derive(Debug, Clone)]
pub enum CellPayload {
    /// One scheme solve on one scenario (the sweep-grid case).
    Scheme { config: Box<ScenarioConfig>, scheme: Scheme, cost_scale: f64 },
    /// One faulted Pretium run at a given failure rate (the availability
    /// sweep). The fault plan is derived from the cell seed at run time.
    Robustness { config: Box<ScenarioConfig>, failure_rate: f64 },
    /// Experiment-defined work; `run_cell` dispatches on the cell label
    /// (single-cell figures like the Figure 1 CDF).
    Free,
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
// The Experiment trait.
// ---------------------------------------------------------------------------

/// One table/figure of the evaluation: a declared cell grid plus the merge
/// that reassembles cell results — in declaration order, regardless of
/// completion order — into the figure's series or table rows.
pub trait Experiment: Send + Sync {
    /// Registry key (`fig6`, `table4`, ...); what `reproduce` matches
    /// against.
    fn name(&self) -> &'static str;

    /// Alternate names that select this experiment (`fig14` -> `fig13`).
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    /// Declare the sweep grid. Order is the declaration order `merge`
    /// receives results in; it must be deterministic for a given seed.
    fn cells(&self, seed: u64) -> Vec<CellSpec>;

    /// Execute one cell. Must be a pure function of the spec (plus the
    /// experiment's own immutable configuration).
    fn run_cell(&self, cell: &CellSpec) -> Result<CellOut, SolveError>;

    /// Reassemble cell outputs (in declaration order) into the final
    /// figure/table.
    fn merge(&self, cells: &[CellSpec], outs: Vec<CellOut>) -> ExperimentResult;
}

/// Solve one `(scenario, scheme)` cell into absolute [`Metrics`].
pub fn run_scheme_cell(
    config: &ScenarioConfig,
    scheme: Scheme,
    cost_scale: f64,
) -> Result<Metrics, SolveError> {
    let scenario = config.build();
    let off = OfflineConfig { cost_scale, ..Default::default() };
    let priced = PricedOfflineConfig { cost_scale, ..Default::default() };
    let outcome: Outcome = match scheme {
        Scheme::Opt => baselines::opt(
            &scenario.net,
            &scenario.grid,
            scenario.horizon,
            &scenario.requests,
            &off,
        )?,
        Scheme::Pretium(variant) => {
            let cfg = PretiumConfig { cost_scale, ..Default::default() };
            run_pretium(&scenario, cfg, variant)?.outcome
        }
        Scheme::NoPrices => baselines::no_prices(
            &scenario.net,
            &scenario.grid,
            scenario.horizon,
            &scenario.requests,
            &off,
        )?,
        Scheme::RegionOracle => {
            baselines::region_oracle(
                &scenario.net,
                &scenario.grid,
                scenario.horizon,
                &scenario.requests,
                &priced,
            )?
            .outcome
        }
        Scheme::PeakOracle => {
            let peaks = baselines::peak_steps_from_trace(&scenario.trace, &scenario.grid);
            baselines::peak_oracle(
                &scenario.net,
                &scenario.grid,
                scenario.horizon,
                &scenario.requests,
                &peaks,
                &priced,
            )?
            .outcome
        }
        Scheme::VcgLike => baselines::vcg_like(
            &scenario.net,
            &scenario.grid,
            scenario.horizon,
            &scenario.requests,
            &priced,
        )?,
    };
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
// The Sweep builder.
// ---------------------------------------------------------------------------

/// A declarative sweep: axis points × schemes, expanded into cells.
///
/// `P` is the axis-point payload — `f64` for the load and cost-scale
/// axes, `(f64, ValueKind)` for the Figure 13/14 value-distribution grid.
/// Axes are data here, not copied loops: an experiment lists its points
/// and schemes once, and `cells()` produces the cross product in
/// declaration order (points outer, schemes inner).
pub struct Sweep<P> {
    pub experiment: &'static str,
    pub scale: Scale,
    pub points: Vec<P>,
    pub schemes: Vec<Scheme>,
    /// `(point label, axis coordinate)` of one point.
    pub describe: fn(&P) -> (String, f64),
    /// Scenario at one point (seed baked in, shared by every scheme at the
    /// point — schemes must replay identical worlds to be comparable).
    pub configure: fn(Scale, u64, &P) -> ScenarioConfig,
    /// §6.2 cost multiplier at one point (1.0 everywhere else).
    pub cost_scale: fn(&P) -> f64,
}

fn unit_cost<P>(_: &P) -> f64 {
    1.0
}

impl<P> Sweep<P> {
    pub fn new(
        experiment: &'static str,
        scale: Scale,
        points: Vec<P>,
        schemes: Vec<Scheme>,
        describe: fn(&P) -> (String, f64),
        configure: fn(Scale, u64, &P) -> ScenarioConfig,
    ) -> Self {
        Sweep { experiment, scale, points, schemes, describe, configure, cost_scale: unit_cost }
    }

    pub fn with_cost_scale(mut self, f: fn(&P) -> f64) -> Self {
        self.cost_scale = f;
        self
    }

    /// Expand the grid: one cell per `(point, scheme)`, in declaration
    /// order.
    pub fn cells(&self, seed: u64) -> Vec<CellSpec> {
        let mut cells = Vec::with_capacity(self.points.len() * self.schemes.len());
        for p in &self.points {
            let (point_label, x) = (self.describe)(p);
            let config = (self.configure)(self.scale, seed, p);
            let cost_scale = (self.cost_scale)(p);
            for &scheme in &self.schemes {
                let label = format!("{}/{}/{}", self.experiment, point_label, scheme.label());
                cells.push(CellSpec {
                    seed: rand::derive_seed(seed, &label),
                    label,
                    x,
                    payload: CellPayload::Scheme {
                        config: Box::new(config.clone()),
                        scheme,
                        cost_scale,
                    },
                });
            }
        }
        cells
    }

    /// Execute one of this sweep's cells.
    pub fn run_cell(&self, cell: &CellSpec) -> Result<CellOut, SolveError> {
        match &cell.payload {
            CellPayload::Scheme { config, scheme, cost_scale } => {
                run_scheme_cell(config, *scheme, *cost_scale).map(CellOut::Metrics)
            }
            _ => unreachable!("sweep experiments declare scheme cells only"),
        }
    }

    /// Iterate merge results chunked per axis point: for each point, the
    /// slice of `(cell, out)` pairs in scheme-declaration order.
    fn per_point<'a>(
        &self,
        cells: &'a [CellSpec],
        outs: &'a [CellOut],
    ) -> impl Iterator<Item = (f64, &'a [CellSpec], &'a [CellOut])> {
        let k = self.schemes.len().max(1);
        cells
            .chunks(k)
            .zip(outs.chunks(k))
            .map(|(c, o)| (c[0].x, c, o))
            .collect::<Vec<_>>()
            .into_iter()
    }
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

// ---------------------------------------------------------------------------
// Sweep experiments (figures 6, 8, 9, 11, 12, 13/14).
// ---------------------------------------------------------------------------

/// Figure 6: welfare relative to OPT vs load factor, for every scheme.
pub struct Fig6Welfare {
    sweep: Sweep<f64>,
}

fn load_point(p: &f64) -> (String, f64) {
    (format!("load={p}"), *p)
}

fn load_config(scale: Scale, seed: u64, p: &f64) -> ScenarioConfig {
    scale.config(seed, *p)
}

impl Fig6Welfare {
    pub fn new(scale: Scale, loads: &[f64]) -> Self {
        let schemes = vec![
            Scheme::Opt,
            Scheme::Pretium(Variant::Full),
            Scheme::NoPrices,
            Scheme::RegionOracle,
            Scheme::PeakOracle,
            Scheme::VcgLike,
        ];
        Fig6Welfare {
            sweep: Sweep::new("fig6", scale, loads.to_vec(), schemes, load_point, load_config),
        }
    }
}

impl Experiment for Fig6Welfare {
    fn name(&self) -> &'static str {
        "fig6"
    }

    fn cells(&self, seed: u64) -> Vec<CellSpec> {
        self.sweep.cells(seed)
    }

    fn run_cell(&self, cell: &CellSpec) -> Result<CellOut, SolveError> {
        self.sweep.run_cell(cell)
    }

    fn merge(&self, cells: &[CellSpec], outs: Vec<CellOut>) -> ExperimentResult {
        let mut series: Vec<Series> = Vec::new();
        for (x, _, point_outs) in self.sweep.per_point(cells, &outs) {
            let opt = point_outs[0].metrics().welfare;
            for (scheme, out) in self.sweep.schemes[1..].iter().zip(&point_outs[1..]) {
                push_point(&mut series, scheme.label(), x, out.metrics().welfare / opt);
            }
        }
        ExperimentResult::Figure {
            title: "Figure 6: welfare relative to OPT".into(),
            x_label: "load".into(),
            series,
        }
    }
}

/// Figure 8: provider profit relative to RegionOracle vs load factor.
/// When RegionOracle's profit is near zero the ratio is meaningless, so
/// the denominator is floored at 1% of OPT welfare (ratios then read as
/// "profit in units of 1% of achievable welfare").
pub struct Fig8Profit {
    sweep: Sweep<f64>,
}

impl Fig8Profit {
    pub fn new(scale: Scale, loads: &[f64]) -> Self {
        let schemes = vec![
            Scheme::Opt,
            Scheme::RegionOracle,
            Scheme::Pretium(Variant::Full),
            Scheme::PeakOracle,
            Scheme::VcgLike,
        ];
        Fig8Profit {
            sweep: Sweep::new("fig8", scale, loads.to_vec(), schemes, load_point, load_config),
        }
    }
}

impl Experiment for Fig8Profit {
    fn name(&self) -> &'static str {
        "fig8"
    }

    fn cells(&self, seed: u64) -> Vec<CellSpec> {
        self.sweep.cells(seed)
    }

    fn run_cell(&self, cell: &CellSpec) -> Result<CellOut, SolveError> {
        self.sweep.run_cell(cell)
    }

    fn merge(&self, cells: &[CellSpec], outs: Vec<CellOut>) -> ExperimentResult {
        let mut series: Vec<Series> = Vec::new();
        for (x, _, point_outs) in self.sweep.per_point(cells, &outs) {
            let floor = (point_outs[0].metrics().welfare.abs() * 0.01).max(1.0);
            let base = point_outs[1].metrics().profit.max(floor);
            for (scheme, out) in self.sweep.schemes[2..].iter().zip(&point_outs[2..]) {
                push_point(&mut series, scheme.label(), x, out.metrics().profit / base);
            }
        }
        ExperimentResult::Figure {
            title: "Figure 8: profit relative to RegionOracle".into(),
            x_label: "load".into(),
            series,
        }
    }
}

/// Figure 9: fraction of requests fully completed vs load factor.
pub struct Fig9Completion {
    sweep: Sweep<f64>,
}

impl Fig9Completion {
    pub fn new(scale: Scale, loads: &[f64]) -> Self {
        let schemes = vec![
            Scheme::Pretium(Variant::Full),
            Scheme::NoPrices,
            Scheme::RegionOracle,
            Scheme::PeakOracle,
            Scheme::VcgLike,
        ];
        Fig9Completion {
            sweep: Sweep::new("fig9", scale, loads.to_vec(), schemes, load_point, load_config),
        }
    }
}

impl Experiment for Fig9Completion {
    fn name(&self) -> &'static str {
        "fig9"
    }

    fn cells(&self, seed: u64) -> Vec<CellSpec> {
        self.sweep.cells(seed)
    }

    fn run_cell(&self, cell: &CellSpec) -> Result<CellOut, SolveError> {
        self.sweep.run_cell(cell)
    }

    fn merge(&self, cells: &[CellSpec], outs: Vec<CellOut>) -> ExperimentResult {
        let mut series: Vec<Series> = Vec::new();
        for (x, _, point_outs) in self.sweep.per_point(cells, &outs) {
            for (scheme, out) in self.sweep.schemes.iter().zip(point_outs) {
                push_point(&mut series, scheme.label(), x, out.metrics().completion);
            }
        }
        ExperimentResult::Figure {
            title: "Figure 9: fraction of requests completed".into(),
            x_label: "load".into(),
            series,
        }
    }
}

/// Figure 11 — ablations: Pretium-NoMenu and Pretium-NoSAM vs full.
pub struct Fig11Ablations {
    sweep: Sweep<f64>,
}

impl Fig11Ablations {
    pub fn new(scale: Scale, loads: &[f64]) -> Self {
        let schemes = vec![
            Scheme::Opt,
            Scheme::Pretium(Variant::Full),
            Scheme::Pretium(Variant::NoMenu),
            Scheme::Pretium(Variant::NoSam),
        ];
        Fig11Ablations {
            sweep: Sweep::new("fig11", scale, loads.to_vec(), schemes, load_point, load_config),
        }
    }
}

impl Experiment for Fig11Ablations {
    fn name(&self) -> &'static str {
        "fig11"
    }

    fn cells(&self, seed: u64) -> Vec<CellSpec> {
        self.sweep.cells(seed)
    }

    fn run_cell(&self, cell: &CellSpec) -> Result<CellOut, SolveError> {
        self.sweep.run_cell(cell)
    }

    fn merge(&self, cells: &[CellSpec], outs: Vec<CellOut>) -> ExperimentResult {
        let mut series: Vec<Series> = Vec::new();
        for (x, _, point_outs) in self.sweep.per_point(cells, &outs) {
            let opt = point_outs[0].metrics().welfare;
            for (scheme, out) in self.sweep.schemes[1..].iter().zip(&point_outs[1..]) {
                push_point(&mut series, scheme.label(), x, out.metrics().welfare / opt);
            }
        }
        ExperimentResult::Figure {
            title: "Figure 11: Pretium ablations (rel. OPT)".into(),
            x_label: "load".into(),
            series,
        }
    }
}

/// Figure 12 — sensitivity to mean link cost (load factor 1).
pub struct Fig12LinkCost {
    sweep: Sweep<f64>,
}

fn scale_point(p: &f64) -> (String, f64) {
    (format!("cost={p}"), *p)
}

fn unit_load_config(scale: Scale, seed: u64, _p: &f64) -> ScenarioConfig {
    scale.config(seed, 1.0)
}

fn identity_cost(p: &f64) -> f64 {
    *p
}

impl Fig12LinkCost {
    pub fn new(scale: Scale, cost_scales: &[f64]) -> Self {
        let schemes = vec![Scheme::Opt, Scheme::Pretium(Variant::Full), Scheme::RegionOracle];
        Fig12LinkCost {
            sweep: Sweep::new(
                "fig12",
                scale,
                cost_scales.to_vec(),
                schemes,
                scale_point,
                unit_load_config,
            )
            .with_cost_scale(identity_cost),
        }
    }
}

impl Experiment for Fig12LinkCost {
    fn name(&self) -> &'static str {
        "fig12"
    }

    fn cells(&self, seed: u64) -> Vec<CellSpec> {
        self.sweep.cells(seed)
    }

    fn run_cell(&self, cell: &CellSpec) -> Result<CellOut, SolveError> {
        self.sweep.run_cell(cell)
    }

    fn merge(&self, cells: &[CellSpec], outs: Vec<CellOut>) -> ExperimentResult {
        let mut series: Vec<Series> = Vec::new();
        for (x, _, point_outs) in self.sweep.per_point(cells, &outs) {
            let opt = point_outs[0].metrics().welfare;
            for (scheme, out) in self.sweep.schemes[1..].iter().zip(&point_outs[1..]) {
                push_point(&mut series, scheme.label(), x, out.metrics().welfare / opt);
            }
        }
        ExperimentResult::Figure {
            title: "Figure 12: welfare vs mean link cost (load 1)".into(),
            x_label: "cost scale".into(),
            series,
        }
    }
}

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

/// Figures 13/14 — sensitivity to the request-value distribution (load 1).
pub struct Fig13Values {
    sweep: Sweep<(f64, ValueKind)>,
}

fn value_point(p: &(f64, ValueKind)) -> (String, f64) {
    (format!("{}-ratio={}", p.1.label(), p.0), p.0)
}

fn value_config(scale: Scale, seed: u64, p: &(f64, ValueKind)) -> ScenarioConfig {
    let mut config = scale.config(seed, 1.0);
    config.requests.value_dist = p.1.dist(0.7, p.0);
    config
}

impl Fig13Values {
    pub fn new(scale: Scale, ratios: &[f64]) -> Self {
        let points: Vec<(f64, ValueKind)> =
            ratios.iter().flat_map(|&r| [(r, ValueKind::Normal), (r, ValueKind::Pareto)]).collect();
        let schemes = vec![Scheme::Opt, Scheme::Pretium(Variant::Full), Scheme::RegionOracle];
        Fig13Values {
            sweep: Sweep::new("fig13", scale, points, schemes, value_point, value_config),
        }
    }

    /// The typed rows behind [`Experiment::merge`], for callers that want
    /// the numbers rather than rendered series.
    pub fn rows(&self, cells: &[CellSpec], outs: &[CellOut]) -> Vec<experiments::ValueDistRow> {
        self.sweep
            .per_point(cells, outs)
            .zip(&self.sweep.points)
            .map(|((ratio, _, point_outs), &(_, kind))| {
                let opt_w = point_outs[0].metrics().welfare;
                let pretium = point_outs[1].metrics();
                let region = point_outs[2].metrics();
                let opt_scale = (opt_w.abs() * 0.01).max(1.0);
                let region_profit = region.profit.max(opt_scale);
                experiments::ValueDistRow {
                    distribution: kind.label().to_string(),
                    mean_over_std: ratio,
                    pretium_welfare: pretium.welfare / opt_w,
                    region_welfare: region.welfare / opt_w,
                    profit_ratio: pretium.profit / region_profit,
                }
            })
            .collect()
    }
}

impl Experiment for Fig13Values {
    fn name(&self) -> &'static str {
        "fig13"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["fig14"]
    }

    fn cells(&self, seed: u64) -> Vec<CellSpec> {
        self.sweep.cells(seed)
    }

    fn run_cell(&self, cell: &CellSpec) -> Result<CellOut, SolveError> {
        self.sweep.run_cell(cell)
    }

    fn merge(&self, cells: &[CellSpec], outs: Vec<CellOut>) -> ExperimentResult {
        let rows = self
            .rows(cells, &outs)
            .into_iter()
            .map(|r| {
                (
                    format!("{} mu/sigma={}", r.distribution, r.mean_over_std),
                    format!(
                        "Pretium={:.3} Region={:.3} profit_ratio={:.2}",
                        r.pretium_welfare, r.region_welfare, r.profit_ratio
                    ),
                )
            })
            .collect();
        ExperimentResult::Table {
            title: "Figures 13/14: value-distribution sensitivity (rel. OPT)".into(),
            rows,
        }
    }
}

// ---------------------------------------------------------------------------
// Single-cell (text) experiments.
// ---------------------------------------------------------------------------

/// An experiment whose cells each render one text block (Figure 1's CDF,
/// Table 1, the Figure 7 trio, ...). The cells still flow through the
/// parallel engine, so e.g. Figure 7's three panels solve concurrently
/// with every other selected experiment's cells.
pub struct TextExperiment {
    name: &'static str,
    aliases: &'static [&'static str],
    scale: Scale,
    /// One cell per part; the part name disambiguates `run_cell`.
    parts: &'static [&'static str],
    run: fn(Scale, u64, &str) -> Result<String, SolveError>,
}

impl TextExperiment {
    pub fn new(
        name: &'static str,
        aliases: &'static [&'static str],
        scale: Scale,
        parts: &'static [&'static str],
        run: fn(Scale, u64, &str) -> Result<String, SolveError>,
    ) -> Self {
        TextExperiment { name, aliases, scale, parts, run }
    }
}

impl Experiment for TextExperiment {
    fn name(&self) -> &'static str {
        self.name
    }

    fn aliases(&self) -> &'static [&'static str] {
        self.aliases
    }

    fn cells(&self, seed: u64) -> Vec<CellSpec> {
        self.parts
            .iter()
            .map(|part| {
                let label = if part.is_empty() {
                    self.name.to_string()
                } else {
                    format!("{}/{part}", self.name)
                };
                CellSpec {
                    seed: rand::derive_seed(seed, &label),
                    label,
                    x: 0.0,
                    payload: CellPayload::Free,
                }
            })
            .collect()
    }

    fn run_cell(&self, cell: &CellSpec) -> Result<CellOut, SolveError> {
        let part = cell.label.rsplit('/').next().unwrap_or("");
        let part = if part == self.name { "" } else { part };
        (self.run)(self.scale, cell.seed, part).map(CellOut::Text)
    }

    fn merge(&self, _cells: &[CellSpec], outs: Vec<CellOut>) -> ExperimentResult {
        ExperimentResult::Text(
            outs.into_iter().map(CellOut::into_text).collect::<Vec<_>>().join(""),
        )
    }
}

fn run_table1(_scale: Scale, _seed: u64, _part: &str) -> Result<String, SolveError> {
    Ok(pretium_workload::survey::format_table1())
}

fn run_fig1(_scale: Scale, seed: u64, _part: &str) -> Result<String, SolveError> {
    let cdf = experiments::fig1_utilization_ratio_cdf(seed);
    let series = vec![Series::new("CDF", cdf)];
    Ok(render_figure("Figure 1: CDF of p90/p10 link-utilization ratio", "ratio", &series))
}

fn run_fig2(_scale: Scale, _seed: u64, _part: &str) -> Result<String, SolveError> {
    Ok("Figure 2: see `cargo run --release --example paper_example`\n".to_string())
}

fn run_fig5(_scale: Scale, seed: u64, _part: &str) -> Result<String, SolveError> {
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

fn run_fig7(scale: Scale, seed: u64, part: &str) -> Result<String, SolveError> {
    let config = scale.config(seed, 2.0);
    match part {
        "a" => {
            let (prices, util) = experiments::fig7a_price_and_utilization_on(&config)?;
            let series = vec![
                Series::new(
                    "price",
                    prices.iter().enumerate().map(|(t, &p)| (t as f64, p)).collect(),
                ),
                Series::new(
                    "utilization",
                    util.iter().enumerate().map(|(t, &u)| (t as f64, u)).collect(),
                ),
            ];
            Ok(render_figure(
                "Figure 7a: price & utilization over time (busiest pct link)",
                "t",
                &series,
            ))
        }
        "b" => {
            let (_, series) = experiments::fig7b_value_buckets_on(&config)?;
            Ok(render_figure(
                "Figure 7b: value captured per value bucket (rel. OPT)",
                "bucket<=",
                &series,
            ))
        }
        "c" => {
            let pts = experiments::fig7c_price_vs_value_on(&config)?;
            Ok(crate::report::render_ascii_plot(
                "Figure 7c: admission price vs request value",
                &pts,
                60,
                14,
            ))
        }
        other => unreachable!("unknown fig7 part {other}"),
    }
}

fn run_fig10(scale: Scale, seed: u64, _part: &str) -> Result<String, SolveError> {
    let config = scale.config(seed, 2.0);
    let series = experiments::fig10_p90_utilization_cdf_on(&config)?;
    Ok(render_figure("Figure 10: CDF of per-link p90 utilization", "p90 util", &series))
}

fn run_table4(scale: Scale, seed: u64, _part: &str) -> Result<String, SolveError> {
    let config = scale.config(seed, 2.0);
    let rt = experiments::table4_runtimes_on(&config)?;
    let timing = |name: &str, samples: &[f64]| {
        (
            name.to_string(),
            format!(
                "median {:.4}s  p95 {:.4}s",
                ModuleRuntimes::median(samples),
                ModuleRuntimes::p95(samples)
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
fn run_surge(scale: Scale, seed: u64, _part: &str) -> Result<String, SolveError> {
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

fn run_incentives(scale: Scale, seed: u64, _part: &str) -> Result<String, SolveError> {
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
// The availability (robustness) sweep.
// ---------------------------------------------------------------------------

/// Failure rates the robustness sweep evaluates (probability per
/// (edge, window) of an outage starting). Rate 0 is the healthy baseline
/// every other point's welfare is normalized against.
pub const FAILURE_RATES: [f64; 4] = [0.0, 0.1, 0.25, 0.5];

/// §4.4 robustness: welfare retention and guarantee-violation rate vs the
/// injected link-failure rate. One faulted Pretium run per rate; worlds are
/// shared across rates (same scenario seed) so only the fault plan varies,
/// and each cell's fault plan derives from the cell seed — the whole sweep
/// is bit-identical across `--jobs` counts like every other experiment.
pub struct AvailabilitySweep {
    scale: Scale,
    rates: Vec<f64>,
}

impl AvailabilitySweep {
    pub fn new(scale: Scale, rates: &[f64]) -> Self {
        AvailabilitySweep { scale, rates: rates.to_vec() }
    }
}

impl Experiment for AvailabilitySweep {
    fn name(&self) -> &'static str {
        "robustness"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["availability", "faults"]
    }

    fn cells(&self, seed: u64) -> Vec<CellSpec> {
        self.rates
            .iter()
            .map(|&rate| {
                let label = format!("robustness/rate={rate}/Pretium");
                CellSpec {
                    seed: rand::derive_seed(seed, &label),
                    label,
                    x: rate,
                    // Load 2 (the fig7 operating point): the network is
                    // contended, so an outage cannot always be rerouted
                    // around and the degradation chain actually engages.
                    payload: CellPayload::Robustness {
                        config: Box::new(self.scale.config(seed, 2.0)),
                        failure_rate: rate,
                    },
                }
            })
            .collect()
    }

    fn run_cell(&self, cell: &CellSpec) -> Result<CellOut, SolveError> {
        match &cell.payload {
            CellPayload::Robustness { config, failure_rate } => {
                run_robustness_cell(config, *failure_rate, cell.seed).map(CellOut::Robustness)
            }
            _ => unreachable!("robustness declares robustness cells only"),
        }
    }

    fn merge(&self, cells: &[CellSpec], outs: Vec<CellOut>) -> ExperimentResult {
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

// ---------------------------------------------------------------------------
// The registry and the parallel suite runner.
// ---------------------------------------------------------------------------

/// Every experiment of the evaluation, in the paper's order, at the full
/// evaluation scale.
pub fn registry() -> Vec<Arc<dyn Experiment>> {
    registry_at(Scale::Evaluation)
}

/// The full suite at an explicit scale (`Scale::Tiny` for tests and the CI
/// smoke run).
pub fn registry_at(scale: Scale) -> Vec<Arc<dyn Experiment>> {
    vec![
        Arc::new(TextExperiment::new("table1", &[], scale, &[""], run_table1)),
        Arc::new(TextExperiment::new("fig1", &[], scale, &[""], run_fig1)),
        Arc::new(TextExperiment::new("fig2", &[], scale, &[""], run_fig2)),
        Arc::new(TextExperiment::new("fig5", &[], scale, &[""], run_fig5)),
        Arc::new(Fig6Welfare::new(scale, &LOAD_FACTORS)),
        Arc::new(TextExperiment::new(
            "fig7",
            &["fig7a", "fig7b", "fig7c"],
            scale,
            &["a", "b", "c"],
            run_fig7,
        )),
        Arc::new(Fig8Profit::new(scale, &LOAD_FACTORS)),
        Arc::new(Fig9Completion::new(scale, &LOAD_FACTORS)),
        Arc::new(TextExperiment::new("fig10", &[], scale, &[""], run_fig10)),
        Arc::new(Fig11Ablations::new(scale, &LOAD_FACTORS)),
        Arc::new(Fig12LinkCost::new(scale, &[1.0, 1.4, 1.8, 2.2])),
        Arc::new(Fig13Values::new(scale, &[1.0, 2.0, 4.0])),
        Arc::new(TextExperiment::new("table4", &[], scale, &[""], run_table4)),
        Arc::new(TextExperiment::new("incentives", &[], scale, &[""], run_incentives)),
        Arc::new(TextExperiment::new("surge", &["admission"], scale, &[""], run_surge)),
        Arc::new(AvailabilitySweep::new(scale, &FAILURE_RATES)),
    ]
}

/// Run one experiment's cells on the engine and return `(specs, outs)` in
/// declaration order — for callers that want a typed merge (e.g.
/// [`Fig13Values::rows`]) rather than the rendered [`ExperimentResult`].
pub fn run_experiment_cells(
    exp: Arc<dyn Experiment>,
    seed: u64,
    jobs: usize,
) -> Result<(Vec<CellSpec>, Vec<CellOut>), SolveError> {
    let specs = exp.cells(seed);
    let cells = specs
        .iter()
        .map(|spec| {
            let exp = Arc::clone(&exp);
            let spec = spec.clone();
            Cell::new(spec.label.clone(), move || exp.run_cell(&spec))
        })
        .collect();
    let (results, _telemetry) = par::run_cells(jobs, cells);
    let outs = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    Ok((specs, outs))
}

/// Run a set of experiments through one shared worker pool.
///
/// All experiments' cells are flattened into a single batch, so slow
/// single-cell figures overlap with wide sweeps instead of serializing the
/// suite; results are regrouped per experiment and merged in registry
/// order. Returns each experiment's merged result plus the pool telemetry
/// of the whole batch.
pub fn run_experiments(
    experiments: &[Arc<dyn Experiment>],
    seed: u64,
    jobs: usize,
) -> Result<(Vec<(String, ExperimentResult)>, PoolTelemetry), SolveError> {
    let mut all_cells: Vec<Cell<(usize, CellOut), SolveError>> = Vec::new();
    let mut specs: Vec<Vec<CellSpec>> = Vec::with_capacity(experiments.len());
    for (i, exp) in experiments.iter().enumerate() {
        let exp_cells = exp.cells(seed);
        for spec in &exp_cells {
            let exp = Arc::clone(exp);
            let spec = spec.clone();
            all_cells
                .push(Cell::new(spec.label.clone(), move || exp.run_cell(&spec).map(|o| (i, o))));
        }
        specs.push(exp_cells);
    }
    let (results, telemetry) = par::run_cells(jobs, all_cells);
    let mut outs: Vec<Vec<CellOut>> = experiments.iter().map(|_| Vec::new()).collect();
    // Results arrive in declaration order, so per-experiment groups stay in
    // their own declaration order too.
    for r in results {
        let (i, out) = r?;
        outs[i].push(out);
    }
    let merged = experiments
        .iter()
        .zip(specs.iter())
        .zip(outs)
        .map(|((exp, spec), out)| (exp.name().to_string(), exp.merge(spec, out)))
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
        let exp = Fig6Welfare::new(Scale::Tiny, &[0.5, 1.0]);
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
        let exp = AvailabilitySweep::new(Scale::Tiny, &[0.0, 0.4]);
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

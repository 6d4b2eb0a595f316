//! The multi-timestep scheduling LP (Equation 2 of the paper).
//!
//! One formulation serves three callers:
//!
//! * **SAM** (§4.2) re-solves it every timestep over the remaining horizon,
//!   with marginal accepted prices `λ_i` as value proxies and per-request
//!   guarantee lower bounds;
//! * the **price computer** (§4.3) solves it offline over a look-back
//!   period and reads the capacity-row *duals* as new link prices;
//! * the **offline baselines** (OPT, NoPrices) solve it with oracle
//!   weights over the whole trace.
//!
//! ## Structure
//!
//! Variables `X_{j,r,t}` carry units of job `j` on path `r` at step `t`.
//! Per job: `Σ X ≤ max_units` and (softly) `Σ X ≥ min_units` — guarantee
//! shortfalls are penalized rather than made hard constraints so that
//! unexpected high-pri surges degrade gracefully instead of making the LP
//! infeasible (§4.4). Per `(edge, t)`: `Σ X ≤ capacity`. Percentile-billed
//! edges additionally carry the sum-of-top-k cost proxy of §4.2.
//!
//! ## Lazy rows and columns
//!
//! [`ScheduleSession::solve_step_with`] is the tree's one generation loop.
//! A round solves the current relaxation warm, then grows it — **rows
//! first**: (a) capacity rows the tentative schedule violates and (b) cost
//! encodings for percentile edges it actually uses (an encoding appends
//! variables *and* rows *and* sets an objective coefficient, which is why
//! the loop lives here and not behind a row oracle in `pretium-lp`).
//! Omitting the cost of an *unused* edge is sound: costs only penalize
//! usage, so a relaxed optimum that does not touch the edge is also optimal
//! for the full objective. Capacity duals of never-added rows are zero (the
//! rows never bind).
//!
//! **Then columns**, only in a round that grew no row (pricing needs a dual
//! for every materialized row). With [`crate::ColumnGen::On`] each job
//! seeds only its shortest `COLGEN_SEED_PATHS` paths' `(path, timestep)`
//! variables, and the round prices the absent columns against the
//! tentative optimum's duals — `d = weight − y_demand − y_guar −
//! Σ_e (y_cap + y_use)` over the path's edges — appending the best few per
//! job that price out (`d > 0` under Maximize) through
//! [`SolverSession::add_generated_cols`]. Columns generated in one SAM step
//! persist (warm) into the next.
//!
//! The loop ends when neither side grows, and the **terminal duals are the
//! certificate**: absent rows are satisfied with dual zero, absent columns
//! are nonbasic at their lower bound with unfavorable reduced cost, so the
//! restricted optimum is optimal for the full LP — and PC's prices are
//! duals of that certified optimum.
//!
//! PC materializes its rows up front instead
//! ([`ScheduleSession::materialize_contested`]): every capacity row whose
//! demand bound could reach the generation threshold and every cost
//! encoding a column crosses. Its offline LP then solves cold in one round,
//! and the loop finds nothing to add.
//!
//! ## Incremental re-optimization
//!
//! [`ScheduleSession`] keeps the LP (and the solver basis) alive *across*
//! solves: SAM advances it timestep by timestep — fixing executed flows,
//! refreshing capacities, appending newly accepted jobs — and each re-solve
//! warm-starts from the previous optimal basis instead of rebuilding from
//! scratch. [`solve`] remains the lazy one-shot entry point (baselines).

use crate::config::ColumnGen;
use crate::topk::{topk_upper_bound, TopkEncoding};
use pretium_lp::{
    Cmp, ColRequest, LinExpr, Model, RowId, Sense, SessionStats, Solution, SolveError,
    SolveOptions, SolverSession, Var,
};
use pretium_net::cost::TOP_FRACTION;
use pretium_net::percentile::top_k_count;
use pretium_net::{EdgeId, Network, Path, TimeGrid, Timestep};
use rand::{DetHashMap as HashMap, DetHashSet};

/// One schedulable job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Caller-defined identifier (e.g. request index).
    pub key: usize,
    /// Admissible routes (`R_i`).
    pub paths: Vec<Path>,
    /// First timestep the job may transfer (absolute).
    pub start: Timestep,
    /// Last timestep (inclusive, absolute).
    pub deadline: Timestep,
    /// Objective weight per unit transferred (`λ_i` or `v_i`).
    pub weight: f64,
    /// Units that *must* be transferred (soft, heavily penalized).
    pub min_units: f64,
    /// Units that *may* be transferred.
    pub max_units: f64,
    /// When set, only these timesteps (within `[start, deadline]`) may
    /// carry flow — used by schemes whose affordable steps are
    /// non-contiguous (e.g. peak/off-peak pricing).
    pub allowed_steps: Option<Vec<Timestep>>,
}

impl Job {
    /// A job allowed to transfer anywhere in `[start, deadline]`.
    pub fn new(
        key: usize,
        paths: Vec<Path>,
        start: Timestep,
        deadline: Timestep,
        weight: f64,
        min_units: f64,
        max_units: f64,
    ) -> Self {
        Job { key, paths, start, deadline, weight, min_units, max_units, allowed_steps: None }
    }

    fn step_allowed(&self, t: Timestep) -> bool {
        self.allowed_steps.as_ref().is_none_or(|s| s.contains(&t))
    }
}

/// Problem instance for one solve.
pub struct ScheduleProblem<'a> {
    pub net: &'a Network,
    pub grid: &'a TimeGrid,
    /// First timestep the LP may schedule (absolute).
    pub from: Timestep,
    /// One past the last timestep (absolute).
    pub to: Timestep,
    pub jobs: &'a [Job],
    /// Sellable capacity of `(e, t)` (total minus high-pri set-aside).
    pub capacity: &'a dyn Fn(EdgeId, Timestep) -> f64,
    /// Usage already realized at steps `< from` (constants in the cost
    /// proxy of partially elapsed billing windows). Keyed by `(e, t)`.
    pub realized: &'a dyn Fn(EdgeId, Timestep) -> f64,
    pub topk: TopkEncoding,
    /// Multiplier on all link costs (Figure 12 sweeps this).
    pub cost_scale: f64,
}

/// Solved schedule.
#[derive(Debug, Clone)]
pub struct ScheduleSolution {
    /// Per job (same order as the input): `(path index, t, units)` with
    /// units > 0.
    pub flows: Vec<Vec<(usize, Timestep, f64)>>,
    /// Units delivered per job.
    pub delivered: Vec<f64>,
    /// LP objective (weighted value minus proxied costs over the LP's
    /// horizon; excludes realized-past cost constants).
    pub objective: f64,
    /// Shadow price of every *generated* capacity row; absent pairs have
    /// dual zero.
    pub capacity_duals: HashMap<(EdgeId, Timestep), f64>,
    /// Marginal percentile-cost of one extra unit of usage on `(e, t)`
    /// (the dual of the usage-definition row): `C_e/k` on steps inside the
    /// window's top-k, zero below the percentile. Absent pairs are zero.
    pub usage_duals: HashMap<(EdgeId, Timestep), f64>,
    /// Guarantee shortfall per job (positive when min_units was missed).
    pub shortfall: Vec<f64>,
    /// Lazy-generation rounds used.
    pub rounds: u32,
    /// Lifetime restart counters of the LP session that produced this
    /// solution (for a one-shot [`solve`], the counters of just this call).
    pub lp_stats: SessionStats,
}

impl ScheduleSolution {
    /// Congestion dual price of `(e, t)` (zero when the row never bound).
    pub fn dual(&self, e: EdgeId, t: Timestep) -> f64 {
        self.capacity_duals.get(&(e, t)).copied().unwrap_or(0.0)
    }

    /// Full internal price of `(e, t)`: congestion shadow price plus the
    /// marginal percentile cost. This is the §4.3 "dual price" a unit of
    /// traffic should be charged for riding this link-timestep.
    pub fn price(&self, e: EdgeId, t: Timestep) -> f64 {
        self.dual(e, t) + self.usage_duals.get(&(e, t)).copied().unwrap_or(0.0)
    }

    /// Largest guarantee shortfall across jobs (zero when every `min_units`
    /// was met) — the §4.4 degradation signal the telemetry layer counts.
    pub fn max_shortfall(&self) -> f64 {
        self.shortfall.iter().fold(0.0f64, |a, &s| a.max(s))
    }

    /// Total usage placed on `(e, t)` by this schedule.
    pub fn usage_on(&self, jobs: &[Job], e: EdgeId, t: Timestep) -> f64 {
        let mut total = 0.0;
        for (j, flows) in self.flows.iter().enumerate() {
            for &(p, ft, units) in flows {
                if ft == t && jobs[j].paths[p].contains(e) {
                    total += units;
                }
            }
        }
        total
    }
}

/// Penalty weight for guarantee shortfalls, relative to the largest job
/// weight.
const SHORTFALL_PENALTY_FACTOR: f64 = 1e4;
/// Capacity violation tolerance triggering a lazy row.
const CAP_TOL: f64 = 1e-7;
/// Usage threshold triggering a lazy cost encoding.
const USE_TOL: f64 = 1e-7;
const MAX_ROUNDS: u32 = 60;
/// Near-violation fraction that pre-materializes a capacity row.
const NEAR_CAP_FRACTION: f64 = 0.85;
/// Relative reduced-cost threshold for a column to price out.
const COLGEN_TOL: f64 = 1e-7;
/// Columns appended per job per pricing round: enough to make progress on
/// every block at once, small enough that materialization stays close to
/// the columns the optimum actually needs.
const COLGEN_PER_JOB: usize = 4;
/// Pricing-round budget per solve step under [`ColumnGen::On`]. When it
/// runs out, the restricted-master optimum is adopted as is
/// (budget-truncated rather than certified over the universe).
const COLGEN_MAX_ROUNDS: u32 = 50;
/// Paths seeded per job (shortest first) under [`ColumnGen::On`].
const COLGEN_SEED_PATHS: usize = 1;

/// The scheduling LP kept alive across solves, with the solver basis of the
/// last optimum.
///
/// SAM's re-solve at each timestep differs from the previous one only by a
/// handful of mutations, and a persistent session turns each of them into a
/// warm restart instead of a cold rebuild:
///
/// * [`ScheduleSession::advance_to`] fixes the flow variables of elapsed
///   timesteps at their executed values (a bound change — the basis stays
///   primal feasible, since those were the optimal values);
/// * [`ScheduleSession::solve_step_with`] refreshes materialized capacity rows
///   against the current capacity function (RHS changes — dual restart at
///   worst) and runs the lazy row loop, where every generation round
///   warm-starts too;
/// * [`ScheduleSession::add_job`] appends a newly accepted contract: new
///   columns, new demand/guarantee rows, and retrofitted coefficients into
///   already-materialized capacity/usage rows (append-only extensions the
///   last basis survives).
///
/// The one-shot [`solve`] builds a session, solves once, and drops it.
#[derive(Clone)]
pub struct ScheduleSession {
    sess: SolverSession,
    grid: TimeGrid,
    /// First timestep of the LP horizon at build time (realized usage
    /// before it enters cost proxies as constants).
    from: Timestep,
    /// One past the last timestep of the horizon.
    to: Timestep,
    /// Flow variables at steps `< fixed_up_to` are frozen at executed
    /// values; lazy capacity checks skip those steps.
    fixed_up_to: Timestep,
    topk: TopkEncoding,
    cost_scale: f64,
    /// Shortfall penalty (scales with the largest job weight seen).
    penalty: f64,
    /// Column-generation mode. `Off` materializes the full
    /// `(path, timestep)` variable universe at [`ScheduleSession::add_job`];
    /// `On` seeds a restricted column set and prices the rest lazily.
    colgen: ColumnGen,
    jobs: Vec<Job>,
    /// Flow variables: per job, `(path index, t, var)`.
    vars: Vec<Vec<(usize, Timestep, Var)>>,
    /// Per job, the `(path index, t)` pairs with a materialized flow
    /// variable (colgen prices only absent pairs).
    materialized: Vec<DetHashSet<(usize, Timestep)>>,
    /// Demand row per job (`Σ X ≤ max_units`; `None` when the job's window
    /// is empty) — colgen pricing needs its dual.
    demand_rows: Vec<Option<RowId>>,
    /// Size of the full `(path, timestep)` column universe across jobs
    /// (what `Off` would have materialized).
    universe: usize,
    /// `(e, t)` pairs some job's *universe* column could cross (colgen
    /// mode only). Cost encodings pre-provision usage rows for these, so a
    /// column generated after the encoding retrofits into the percentile
    /// proxy instead of escaping it — keeping the `On` LP the exact
    /// restriction of the `Off` LP.
    potential: DetHashSet<(EdgeId, Timestep)>,
    /// Shortfall variable per job (if it has a guarantee).
    shortfalls: Vec<Option<Var>>,
    /// Guarantee row per job (if it has one) — the degradation policy
    /// lowers its RHS when a guarantee is shed or relaxed (§4.4).
    guar_rows: Vec<Option<RowId>>,
    /// Materialized capacity rows.
    cap_rows: HashMap<(EdgeId, Timestep), RowId>,
    /// Percentile edges with a cost encoding already, per window.
    costed: DetHashSet<(EdgeId, usize)>,
    /// Usage-definition rows (percentile edges only).
    use_rows: HashMap<(EdgeId, Timestep), RowId>,
    /// For each (e, t) within the LP horizon, the vars crossing it.
    crossing: HashMap<(EdgeId, Timestep), Vec<Var>>,
    /// Primal values of the last solve (used to freeze elapsed steps).
    last_values: Vec<f64>,
}

/// Solve the scheduling LP once (the offline baselines) with the given solver
/// options (e.g. the kernel tuning from
/// [`crate::PretiumConfig::max_etas`]). SAM holds a [`ScheduleSession`]
/// instead and re-solves it incrementally.
pub fn solve(
    problem: &ScheduleProblem<'_>,
    opts: &SolveOptions,
) -> Result<ScheduleSolution, SolveError> {
    let mut s = ScheduleSession::new(problem);
    s.solve_step_with(problem.net, problem.capacity, problem.realized, opts)
}

impl ScheduleSession {
    /// Build the base LP (demand and guarantee rows; capacity rows and cost
    /// encodings are generated lazily during [`ScheduleSession::solve_step_with`],
    /// or up front by [`ScheduleSession::materialize_contested`]), with the
    /// full column universe materialized ([`ColumnGen::Off`]).
    pub fn new(p: &ScheduleProblem<'_>) -> Self {
        Self::with_colgen(p, ColumnGen::Off)
    }

    /// [`ScheduleSession::new`] with an explicit column-generation mode.
    /// Under [`ColumnGen::On`], each job seeds only its shortest
    /// `COLGEN_SEED_PATHS` paths' columns and the solve loop prices the rest.
    pub fn with_colgen(p: &ScheduleProblem<'_>, colgen: ColumnGen) -> Self {
        assert!(p.from < p.to, "empty scheduling horizon");
        let max_weight = p.jobs.iter().map(|j| j.weight.abs()).fold(1.0f64, f64::max);
        let mut s = ScheduleSession {
            sess: SolverSession::new(Model::new(Sense::Maximize)),
            grid: *p.grid,
            from: p.from,
            to: p.to,
            fixed_up_to: p.from,
            topk: p.topk,
            cost_scale: p.cost_scale,
            penalty: max_weight * SHORTFALL_PENALTY_FACTOR,
            colgen,
            jobs: Vec::with_capacity(p.jobs.len()),
            vars: Vec::with_capacity(p.jobs.len()),
            materialized: Vec::with_capacity(p.jobs.len()),
            demand_rows: Vec::with_capacity(p.jobs.len()),
            universe: 0,
            potential: DetHashSet::default(),
            shortfalls: Vec::with_capacity(p.jobs.len()),
            guar_rows: Vec::with_capacity(p.jobs.len()),
            cap_rows: HashMap::default(),
            costed: DetHashSet::default(),
            use_rows: HashMap::default(),
            crossing: HashMap::default(),
            last_values: Vec::new(),
        };
        for job in p.jobs {
            s.add_job(job.clone());
        }
        s
    }

    /// First timestep still free to re-plan.
    pub fn fixed_up_to(&self) -> Timestep {
        self.fixed_up_to
    }

    /// Number of jobs in the LP (in insertion order, matching the `flows`
    /// vector of returned solutions).
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Restart counters of the underlying LP session.
    pub fn lp_stats(&self) -> SessionStats {
        self.sess.stats()
    }

    /// Flow columns currently materialized across jobs (seeded plus
    /// generated; excludes shortfall / usage / encoding variables).
    pub fn num_flow_columns(&self) -> usize {
        self.vars.iter().map(|v| v.len()).sum()
    }

    /// Size of the full `(path, timestep)` column universe across jobs —
    /// what [`ColumnGen::Off`] materializes up front.
    pub fn column_universe(&self) -> usize {
        self.universe
    }

    /// Append a job and return its index in the session's job list. New
    /// columns are retrofitted into already-materialized capacity and usage
    /// rows, which the last basis survives (the columns are fresh).
    ///
    /// Call [`ScheduleSession::advance_to`] first when adding mid-run: the
    /// job's variables start at `max(job.start, fixed_up_to)`, and its
    /// `min_units`/`max_units` should be the *remaining* amounts.
    pub fn add_job(&mut self, job: Job) -> usize {
        let j = self.jobs.len();
        assert!(job.min_units <= job.max_units + 1e-9, "job {j}: min > max");
        assert!(!job.paths.is_empty(), "job {j} has no admissible paths");
        self.penalty = self.penalty.max(job.weight.abs() * SHORTFALL_PENALTY_FACTOR);
        let lo = job.start.max(self.fixed_up_to);
        let hi = (job.deadline + 1).min(self.to);
        // The full (path, timestep) universe of this job — what Off
        // materializes, and what On prices over.
        let universe: Vec<(usize, Timestep)> = (0..job.paths.len())
            .flat_map(|pi| (lo..hi).filter(|&t| job.step_allowed(t)).map(move |t| (pi, t)))
            .collect();
        self.universe += universe.len();
        let seed: Vec<(usize, Timestep)> = match self.colgen {
            ColumnGen::Off => universe.clone(),
            ColumnGen::On => {
                // Feasible steps are path-independent, so the shortest
                // path's pairs are nonempty whenever the universe is — the
                // demand/guarantee rows always exist when pricing could
                // ever generate a column.
                let seed: Vec<(usize, Timestep)> =
                    universe.iter().copied().filter(|&(pi, _)| pi < COLGEN_SEED_PATHS).collect();
                // Every universe pair could cross its path's edges: record
                // them so cost encodings pre-provision usage rows the
                // later-generated columns retrofit into.
                for &(pi, t) in &universe {
                    for &e in job.paths[pi].edges() {
                        self.potential.insert((e, t));
                    }
                }
                seed
            }
        };
        let mut jvars = Vec::new();
        let mut total = LinExpr::new();
        let mut mat = DetHashSet::default();
        for &(pi, t) in &seed {
            let v = self.sess.add_var(&format!("x_{j}_{pi}_{t}"), 0.0, f64::INFINITY, job.weight);
            jvars.push((pi, t, v));
            mat.insert((pi, t));
            total.add_term(1.0, v);
            for &e in job.paths[pi].edges() {
                if let Some(&row) = self.cap_rows.get(&(e, t)) {
                    self.sess.add_term(row, v, 1.0);
                }
                if let Some(&row) = self.use_rows.get(&(e, t)) {
                    self.sess.add_term(row, v, 1.0);
                }
                self.crossing.entry((e, t)).or_default().push(v);
            }
        }
        if jvars.is_empty() {
            // Window entirely outside the remaining horizon: job gets
            // nothing.
            self.vars.push(jvars);
            self.materialized.push(mat);
            self.demand_rows.push(None);
            self.shortfalls.push(None);
            self.guar_rows.push(None);
            self.jobs.push(job);
            return j;
        }
        let demand =
            self.sess.add_row(&format!("demand_{j}"), total.clone(), Cmp::Le, job.max_units);
        self.demand_rows.push(Some(demand));
        if job.min_units > 1e-9 {
            // Soft guarantee: Σ X + shortfall >= min_units.
            let s = self.sess.add_var(&format!("short_{j}"), 0.0, job.min_units, -self.penalty);
            let e = total.term(1.0, s);
            let row = self.sess.add_row(&format!("guar_{j}"), e, Cmp::Ge, job.min_units);
            self.shortfalls.push(Some(s));
            self.guar_rows.push(Some(row));
        } else {
            self.shortfalls.push(None);
            self.guar_rows.push(None);
        }
        self.vars.push(jvars);
        self.materialized.push(mat);
        self.jobs.push(job);
        j
    }

    /// Record usage a job carried *before* it joined the session (e.g. a
    /// contract that executed its preliminary menu schedule between SAM
    /// runs). The units enter the percentile cost proxy of the affected
    /// `(edge, t)` pairs as fixed constants; elapsed capacity rows are left
    /// alone (that usage is history, not a planning decision).
    pub fn record_executed(&mut self, job: usize, executed: &[(usize, Timestep, f64)]) {
        let paths = self.jobs[job].paths.clone();
        for &(pi, t, units) in executed {
            if t < self.from || t >= self.fixed_up_to || units <= 0.0 {
                continue;
            }
            for &e in paths[pi].edges() {
                let c = self.sess.add_var(&format!("exec_{job}_{e}_{t}"), units, units, 0.0);
                if let Some(&row) = self.use_rows.get(&(e, t)) {
                    self.sess.add_term(row, c, 1.0);
                }
                self.crossing.entry((e, t)).or_default().push(c);
            }
        }
    }

    /// Freeze the flow variables of timesteps `< now` at their values in
    /// the last solution (the plan SAM installed, hence what was executed).
    /// A fixed optimal value keeps the basis primal feasible, so the next
    /// re-solve typically restarts warm.
    pub fn advance_to(&mut self, now: Timestep) {
        let now = now.min(self.to);
        if now <= self.fixed_up_to {
            return;
        }
        for jvars in &self.vars {
            for &(_, t, v) in jvars {
                if t >= self.fixed_up_to && t < now {
                    let x = self.last_values.get(v.index()).copied().unwrap_or(0.0).max(0.0);
                    // Pinning a variable at its current optimal value leaves
                    // the solution optimal, so the session can keep its
                    // cached solution (and basis) when nothing else moves.
                    self.sess.fix_at_value(v, x);
                }
            }
        }
        self.fixed_up_to = now;
    }

    /// Lower job `j`'s guarantee by `by` units (§4.4 degradation): the
    /// guarantee row's RHS drops by the actual waived amount, so the rest
    /// of the guarantee stays a hard (penalized) target while the waived
    /// units stop competing for degraded capacity. An RHS-only mutation —
    /// the next re-solve warm-starts dual. Returns the units actually
    /// waived (clamped to the guarantee still encoded in the LP).
    pub fn relax_guarantee(&mut self, j: usize, by: f64) -> f64 {
        assert!(by >= 0.0, "negative guarantee relaxation");
        let Some(row) = self.guar_rows[j] else { return 0.0 };
        let waived = by.min(self.jobs[j].min_units).max(0.0);
        if waived <= 0.0 {
            return 0.0;
        }
        self.jobs[j].min_units -= waived;
        self.sess.set_rhs(row, self.jobs[j].min_units);
        waived
    }

    /// Re-solve over the remaining horizon: refresh materialized capacity
    /// rows against `capacity`, then run the lazy generation loop (violated
    /// capacity rows, cost encodings for percentile edges in use), where
    /// every round — including the first — continues from the last solve's
    /// basis when the session still holds it. `opts` carries the solver options; the
    /// fault-injection path uses it to impose an iteration limit on the
    /// simplex (degraded-compute perturbation, §4.4).
    pub fn solve_step_with(
        &mut self,
        net: &Network,
        capacity: &dyn Fn(EdgeId, Timestep) -> f64,
        realized: &dyn Fn(EdgeId, Timestep) -> f64,
        opts: &SolveOptions,
    ) -> Result<ScheduleSolution, SolveError> {
        self.refresh_capacity_rows(capacity);
        // Read once per process: a SAM step must not pay for an environment
        // lookup.
        static TRACE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        let trace = *TRACE.get_or_init(|| std::env::var_os("PRETIUM_LP_TRACE").is_some());
        let round_cap = match self.colgen {
            ColumnGen::Off => MAX_ROUNDS,
            ColumnGen::On => MAX_ROUNDS + COLGEN_MAX_ROUNDS,
        };
        let mut rounds = 0;
        let mut col_rounds = 0;
        loop {
            rounds += 1;
            let t0 = trace.then(std::time::Instant::now);
            let sol = self.sess.solve(opts)?;
            if let Some(t0) = t0 {
                eprintln!(
                    "[schedule] round {rounds}: {} rows x {} vars, {:?} restart, {:?}",
                    self.sess.model().num_rows(),
                    self.sess.model().num_vars(),
                    self.sess.last_restart(),
                    t0.elapsed()
                );
            }
            // Rows first: column pricing needs duals for every materialized
            // row, and a round that just grew rows has none for them yet.
            let grew = self.lazy_grow(net, capacity, realized, &sol)
                || self.colgen_grow(&sol, &mut col_rounds);
            if !grew {
                self.last_values = sol.values().to_vec();
                return Ok(self.extract(sol, rounds));
            }
            if rounds >= round_cap {
                return Err(SolveError::IterationLimit { iterations: rounds as u64 });
            }
        }
    }

    /// Materialize, before the first solve, every capacity row
    /// [`ScheduleSession::solve_step_with`]'s row rounds could generate and
    /// every cost encoding a materialized column could enter, so a cold
    /// solve starts from the feasible `x = 0` and the loop finds nothing to
    /// add (PC's offline LP, §4.3).
    ///
    /// A capacity row is generated only when usage on `(e, t)` exceeds
    /// `NEAR_CAP_FRACTION × capacity(e, t)`. Each job's demand row caps its
    /// columns at `max_units`, so usage never exceeds the *demand bound*
    /// Σ `max_units` over the jobs with a column crossing `(e, t)` (each job
    /// counted once): a slot whose bound stays at or below the fraction
    /// never binds and keeps dual zero. Rows and encodings are added in
    /// sorted key order; elapsed steps (`< fixed_up_to`) get no row.
    pub fn materialize_contested(
        &mut self,
        net: &Network,
        capacity: &dyn Fn(EdgeId, Timestep) -> f64,
        realized: &dyn Fn(EdgeId, Timestep) -> f64,
    ) {
        // Per (e, t): the demand bound and the last job that added to it.
        let mut bound: HashMap<(EdgeId, Timestep), (f64, usize)> = HashMap::default();
        for (j, jvars) in self.vars.iter().enumerate() {
            let job = &self.jobs[j];
            for &(pi, t, _) in jvars {
                if t < self.fixed_up_to {
                    continue;
                }
                for &e in job.paths[pi].edges() {
                    let (sum, last) = bound.entry((e, t)).or_insert((0.0, usize::MAX));
                    if *last != j {
                        *sum += job.max_units;
                        *last = j;
                    }
                }
            }
        }
        let mut rows: Vec<(EdgeId, Timestep)> = Vec::new();
        let mut encodings: Vec<(EdgeId, usize)> = Vec::new();
        for (&(e, t), &(sum, _)) in &bound {
            if !self.cap_rows.contains_key(&(e, t)) && sum > NEAR_CAP_FRACTION * capacity(e, t) {
                rows.push((e, t));
            }
            let w = self.grid.window_of(t);
            if net.edge(e).cost.is_percentile() && !self.costed.contains(&(e, w)) {
                encodings.push((e, w));
            }
        }
        rows.sort();
        for (e, t) in rows {
            let expr = LinExpr::from_terms(self.crossing[&(e, t)].iter().map(|&v| (1.0, v)));
            let id = self.sess.add_row(&format!("cap_{e}_{t}"), expr, Cmp::Le, capacity(e, t));
            self.cap_rows.insert((e, t), id);
        }
        encodings.sort();
        encodings.dedup();
        for (e, w) in encodings {
            self.add_cost_encoding(net, realized, e, w);
        }
    }

    /// Refresh materialized capacity rows against `capacity`. Capacity can
    /// move between steps (high-pri surges, failures); elapsed steps keep
    /// their old rows — that flow already happened. Unchanged RHS values are
    /// skipped so a quiet step leaves the session clean (cache-hit
    /// eligible).
    fn refresh_capacity_rows(&mut self, capacity: &dyn Fn(EdgeId, Timestep) -> f64) {
        let refresh: Vec<(EdgeId, Timestep, RowId)> = self
            .cap_rows
            .iter()
            .filter(|&(&(_, t), _)| t >= self.fixed_up_to)
            .map(|(&(e, t), &row)| (e, t, row))
            .collect();
        for (e, t, row) in refresh {
            let cap = capacity(e, t);
            if self.sess.model().rhs(row) != cap {
                self.sess.set_rhs(row, cap);
            }
        }
    }

    /// One round of lazy structure generation against a tentative optimum:
    /// materialize violated (and near-capacity) rows and cost encodings for
    /// percentile edges in use. Returns whether anything was added.
    fn lazy_grow(
        &mut self,
        net: &Network,
        capacity: &dyn Fn(EdgeId, Timestep) -> f64,
        realized: &dyn Fn(EdgeId, Timestep) -> f64,
        sol: &Solution,
    ) -> bool {
        let mut progressed = false;
        // One walk over the crossings, each one's usage summed once, for:
        // (a) capacity rows violated by the tentative schedule. Rows
        // that are merely *near* the limit are materialized too: when a
        // violated row is added, displaced flow tends to overflow its
        // neighbours in the next round, so pulling them in now saves
        // whole resolve rounds at a small LP-size cost.
        // (b) cost encodings for percentile edges the schedule uses.
        let mut new_rows = Vec::new();
        let mut any_violated = false;
        let mut new_encodings = Vec::new();
        for (&(e, t), vars) in &self.crossing {
            let uncapped = t >= self.fixed_up_to && !self.cap_rows.contains_key(&(e, t));
            let w = self.grid.window_of(t);
            let uncosted = net.edge(e).cost.is_percentile() && !self.costed.contains(&(e, w));
            if !uncapped && !uncosted {
                continue;
            }
            let usage: f64 = vars.iter().map(|&v| sol.value(v)).sum();
            if uncapped {
                let cap = capacity(e, t);
                if usage > cap + CAP_TOL * (1.0 + cap) {
                    new_rows.push((e, t, cap));
                    any_violated = true;
                } else if usage > cap * NEAR_CAP_FRACTION {
                    new_rows.push((e, t, cap));
                }
            }
            if uncosted && usage > USE_TOL {
                new_encodings.push((e, w));
            }
        }
        if !any_violated {
            new_rows.clear();
        }
        for (e, t, cap) in new_rows {
            let vars = &self.crossing[&(e, t)];
            let expr = LinExpr::from_terms(vars.iter().map(|&v| (1.0, v)));
            let id = self.sess.add_row(&format!("cap_{e}_{t}"), expr, Cmp::Le, cap);
            self.cap_rows.insert((e, t), id);
            progressed = true;
        }
        new_encodings.sort();
        new_encodings.dedup();
        for (e, w) in new_encodings {
            self.add_cost_encoding(net, realized, e, w);
            progressed = true;
        }
        progressed
    }

    /// One pricing round against a tentative restricted optimum
    /// ([`ColumnGen::On`] only): scan each job's absent `(path, timestep)`
    /// pairs, compute reduced costs from the demand / guarantee / capacity /
    /// usage duals (absent lazy rows price at 0), and append the most
    /// favorable columns through [`SolverSession::add_generated_cols`].
    /// Returns whether any column was appended; `false` with an exhausted
    /// budget adopts the restricted optimum as is.
    fn colgen_grow(&mut self, sol: &Solution, col_rounds: &mut u32) -> bool {
        if self.colgen == ColumnGen::Off || *col_rounds >= COLGEN_MAX_ROUNDS {
            return false;
        }
        let mut batch: Vec<(usize, usize, Timestep)> = Vec::new();
        for (j, job) in self.jobs.iter().enumerate() {
            let Some(demand) = self.demand_rows[j] else { continue };
            let y_demand = sol.dual(demand);
            let y_guar = self.guar_rows[j].map(|r| sol.dual(r)).unwrap_or(0.0);
            let lo = job.start.max(self.fixed_up_to);
            let hi = (job.deadline + 1).min(self.to);
            let mut cands: Vec<(f64, usize, Timestep)> = Vec::new();
            for (pi, path) in job.paths.iter().enumerate() {
                for t in lo..hi {
                    if !job.step_allowed(t) || self.materialized[j].contains(&(pi, t)) {
                        continue;
                    }
                    // Reduced cost of x_{j,pi,t} in the Maximize master:
                    // objective coefficient minus the duals of every
                    // materialized row the column would enter.
                    let mut d = job.weight - y_demand - y_guar;
                    for &e in path.edges() {
                        if let Some(&row) = self.cap_rows.get(&(e, t)) {
                            d -= sol.dual(row);
                        }
                        if let Some(&row) = self.use_rows.get(&(e, t)) {
                            d -= sol.dual(row);
                        }
                    }
                    if d > COLGEN_TOL * (1.0 + job.weight.abs()) {
                        cands.push((d, pi, t));
                    }
                }
            }
            cands.sort_by(|a, b| {
                b.0.partial_cmp(&a.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| (a.1, a.2).cmp(&(b.1, b.2)))
            });
            for &(_, pi, t) in cands.iter().take(COLGEN_PER_JOB) {
                batch.push((j, pi, t));
            }
        }
        if batch.is_empty() {
            return false;
        }
        *col_rounds += 1;
        let requests: Vec<ColRequest> = batch
            .iter()
            .map(|&(j, pi, t)| {
                let job = &self.jobs[j];
                let mut terms: Vec<(RowId, f64)> =
                    vec![(self.demand_rows[j].expect("priced job has a demand row"), 1.0)];
                if let Some(row) = self.guar_rows[j] {
                    terms.push((row, 1.0));
                }
                for &e in job.paths[pi].edges() {
                    if let Some(&row) = self.cap_rows.get(&(e, t)) {
                        terms.push((row, 1.0));
                    }
                    if let Some(&row) = self.use_rows.get(&(e, t)) {
                        terms.push((row, 1.0));
                    }
                }
                ColRequest {
                    name: format!("x_{j}_{pi}_{t}"),
                    lb: 0.0,
                    ub: f64::INFINITY,
                    obj: job.weight,
                    terms,
                }
            })
            .collect();
        let added = self.sess.add_generated_cols(requests);
        for (&(j, pi, t), &v) in batch.iter().zip(added.iter()) {
            self.vars[j].push((pi, t, v));
            self.materialized[j].insert((pi, t));
            for &e in self.jobs[j].paths[pi].edges() {
                self.crossing.entry((e, t)).or_default().push(v);
            }
        }
        true
    }

    /// Add the §4.2 cost proxy for percentile edge `e` over billing window
    /// `w`: usage variables `U_{e,t}` tied to the crossing flows,
    /// realized-past constants, a top-k bound `S`, and the objective term
    /// `-C_e·S/k`.
    fn add_cost_encoding(
        &mut self,
        net: &Network,
        realized: &dyn Fn(EdgeId, Timestep) -> f64,
        e: EdgeId,
        w: usize,
    ) {
        let range = self.grid.window_range(w);
        let k = top_k_count(self.grid.steps_per_window, TOP_FRACTION);
        let mut inputs: Vec<Var> = Vec::new();
        for t in range {
            if t >= self.from && t < self.to {
                let vars = self.crossing.get(&(e, t));
                if vars.is_some() || self.potential.contains(&(e, t)) {
                    // U_{e,t} = Σ crossing flows. Steps no materialized
                    // flow crosses yet are provisioned anyway when a
                    // *generatable* column could cross them, so columns
                    // appended after this encoding retrofit into the
                    // percentile proxy instead of escaping it.
                    let u = self.sess.add_nonneg(&format!("u_{e}_{t}"), 0.0);
                    let mut expr = LinExpr::new().term(-1.0, u);
                    for &v in vars.into_iter().flatten() {
                        expr.add_term(1.0, v);
                    }
                    let row = self.sess.add_row(&format!("use_{e}_{t}"), expr, Cmp::Eq, 0.0);
                    self.use_rows.insert((e, t), row);
                    inputs.push(u);
                }
                // No crossing vars and none generatable: future usage is 0,
                // skip (zeros never enter the top-k of non-negative inputs).
            } else if t < self.from {
                let c = realized(e, t);
                if c > 0.0 {
                    inputs.push(self.sess.add_var(&format!("past_{e}_{t}"), c, c, 0.0));
                }
            }
        }
        self.costed.insert((e, w));
        if inputs.is_empty() {
            return;
        }
        let (topk, name) = (self.topk, format!("c_{e}_{w}"));
        let s = self.sess.append_with(|m| topk_upper_bound(m, &inputs, k, topk, &name));
        let unit_cost = net.edge(e).cost.unit_cost() * self.cost_scale;
        self.sess.set_obj(s, -unit_cost / k as f64);
    }

    /// Read a solution out of the LP. Flows at elapsed (frozen) timesteps
    /// are excluded: they were already executed and belong to history, not
    /// to the plan being installed.
    fn extract(&self, sol: Solution, rounds: u32) -> ScheduleSolution {
        let mut flows = Vec::with_capacity(self.vars.len());
        let mut delivered = Vec::with_capacity(self.vars.len());
        for jvars in &self.vars {
            let mut jf = Vec::new();
            let mut total = 0.0;
            for &(pi, t, v) in jvars {
                if t < self.fixed_up_to {
                    continue;
                }
                let units = sol.value(v);
                if units > 1e-9 {
                    jf.push((pi, t, units));
                    total += units;
                }
            }
            flows.push(jf);
            delivered.push(total);
        }
        let capacity_duals =
            self.cap_rows.iter().map(|(&key, &row)| (key, sol.dual(row))).collect();
        // The use-row is written as (Σ flows − U = 0); pushing one forced
        // unit of usage through the edge corresponds to lowering the rhs by
        // 1, so the marginal cost is the row dual itself (clamped: tiny
        // negative duals are numerical noise).
        let usage_duals =
            self.use_rows.iter().map(|(&key, &row)| (key, sol.dual(row).max(0.0))).collect();
        let shortfall =
            self.shortfalls.iter().map(|s| s.map(|v| sol.value(v)).unwrap_or(0.0)).collect();
        ScheduleSolution {
            flows,
            delivered,
            objective: sol.objective(),
            capacity_duals,
            usage_duals,
            shortfall,
            rounds,
            lp_stats: self.sess.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretium_net::{topology, LinkCost, Network, NodeId, TimeGrid};

    fn no_realized(_: EdgeId, _: Timestep) -> f64 {
        0.0
    }

    /// One edge A -> B, capacity 10/step.
    fn line_net() -> (Network, NodeId, NodeId) {
        let mut net = Network::new();
        let a = net.add_node("A", pretium_net::Region::NorthAmerica);
        let b = net.add_node("B", pretium_net::Region::NorthAmerica);
        net.add_edge(a, b, 10.0, LinkCost::owned());
        (net, a, b)
    }

    fn single_path(net: &Network, a: NodeId, b: NodeId) -> Vec<Path> {
        vec![Path::new(net, vec![net.find_edge(a, b).unwrap()])]
    }

    #[test]
    fn single_job_fills_demand() {
        let (net, a, b) = line_net();
        let grid = TimeGrid::new(8, 30);
        let jobs = vec![Job::new(0, single_path(&net, a, b), 0, 3, 1.0, 0.0, 25.0)];
        let cap = |e: EdgeId, t: Timestep| net.edge(e).capacity * (t < 8) as u8 as f64;
        let problem = ScheduleProblem {
            net: &net,
            grid: &grid,
            from: 0,
            to: 8,
            jobs: &jobs,
            capacity: &cap,
            realized: &no_realized,
            topk: TopkEncoding::CVar,
            cost_scale: 1.0,
        };
        let sol = solve(&problem, &SolveOptions::default()).unwrap();
        assert!((sol.delivered[0] - 25.0).abs() < 1e-6, "{:?}", sol.delivered);
        // Needs three timesteps at capacity 10 — capacity rows must have
        // been generated and respected.
        for t in 0..4 {
            let u = sol.usage_on(&jobs, net.edge_ids().next().unwrap(), t);
            assert!(u <= 10.0 + 1e-6, "t={t}: {u}");
        }
    }

    #[test]
    fn guarantee_served_before_value() {
        let (net, a, b) = line_net();
        let grid = TimeGrid::new(4, 30);
        // Low-weight job with a guarantee competes with a high-weight job;
        // capacity 10 over a single step.
        let jobs = vec![
            Job::new(0, single_path(&net, a, b), 0, 0, 0.1, 6.0, 6.0),
            Job::new(1, single_path(&net, a, b), 0, 0, 5.0, 0.0, 10.0),
        ];
        let cap = |e: EdgeId, _t: Timestep| net.edge(e).capacity;
        let problem = ScheduleProblem {
            net: &net,
            grid: &grid,
            from: 0,
            to: 1,
            jobs: &jobs,
            capacity: &cap,
            realized: &no_realized,
            topk: TopkEncoding::CVar,
            cost_scale: 1.0,
        };
        let sol = solve(&problem, &SolveOptions::default()).unwrap();
        assert!((sol.delivered[0] - 6.0).abs() < 1e-6);
        assert!((sol.delivered[1] - 4.0).abs() < 1e-6);
        assert!(sol.shortfall[0] < 1e-9);
    }

    #[test]
    fn impossible_guarantee_reports_shortfall() {
        let (net, a, b) = line_net();
        let grid = TimeGrid::new(4, 30);
        let jobs = vec![Job::new(0, single_path(&net, a, b), 0, 0, 1.0, 15.0, 15.0)];
        let cap = |e: EdgeId, _t: Timestep| net.edge(e).capacity;
        let problem = ScheduleProblem {
            net: &net,
            grid: &grid,
            from: 0,
            to: 1,
            jobs: &jobs,
            capacity: &cap,
            realized: &no_realized,
            topk: TopkEncoding::CVar,
            cost_scale: 1.0,
        };
        let sol = solve(&problem, &SolveOptions::default()).unwrap();
        assert!((sol.delivered[0] - 10.0).abs() < 1e-6);
        assert!((sol.shortfall[0] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn relaxed_guarantee_clears_shortfall() {
        // Guarantee 15 on a 10-capacity single step: 5 units uncoverable.
        // Relaxing by the shortfall must clear it on the warm re-solve and
        // leave the rest of the guarantee delivered.
        let (net, a, b) = line_net();
        let grid = TimeGrid::new(4, 30);
        let jobs = vec![Job::new(0, single_path(&net, a, b), 0, 0, 1.0, 15.0, 15.0)];
        let cap = |e: EdgeId, _t: Timestep| net.edge(e).capacity;
        let problem = ScheduleProblem {
            net: &net,
            grid: &grid,
            from: 0,
            to: 1,
            jobs: &jobs,
            capacity: &cap,
            realized: &no_realized,
            topk: TopkEncoding::CVar,
            cost_scale: 1.0,
        };
        let mut sess = ScheduleSession::new(&problem);
        let sol = sess.solve_step_with(&net, &cap, &no_realized, &SolveOptions::default()).unwrap();
        assert!((sol.max_shortfall() - 5.0).abs() < 1e-6);
        let waived = sess.relax_guarantee(0, sol.max_shortfall());
        assert!((waived - 5.0).abs() < 1e-6);
        let relaxed =
            sess.solve_step_with(&net, &cap, &no_realized, &SolveOptions::default()).unwrap();
        assert!(relaxed.max_shortfall() < 1e-6, "shortfall {}", relaxed.max_shortfall());
        assert!((relaxed.delivered[0] - 10.0).abs() < 1e-6);
        // Relaxing a job with no guarantee row is a no-op.
        assert_eq!(sess.relax_guarantee(0, 100.0), 10.0);
    }

    #[test]
    fn iteration_limited_solve_reports_gracefully() {
        let (net, a, b) = line_net();
        let grid = TimeGrid::new(4, 30);
        let jobs = vec![
            Job::new(0, single_path(&net, a, b), 0, 3, 1.0, 5.0, 25.0),
            Job::new(1, single_path(&net, a, b), 0, 3, 2.0, 0.0, 20.0),
        ];
        let cap = |e: EdgeId, _t: Timestep| net.edge(e).capacity;
        let problem = ScheduleProblem {
            net: &net,
            grid: &grid,
            from: 0,
            to: 4,
            jobs: &jobs,
            capacity: &cap,
            realized: &no_realized,
            topk: TopkEncoding::CVar,
            cost_scale: 1.0,
        };
        let mut sess = ScheduleSession::new(&problem);
        let r =
            sess.solve_step_with(&net, &cap, &no_realized, &SolveOptions::with_iteration_limit(1));
        assert!(
            matches!(r, Err(SolveError::IterationLimit { .. })),
            "expected IterationLimit, got {r:?}"
        );
    }

    #[test]
    fn percentile_cost_spreads_load() {
        // One pct edge, window of 10 steps (k = 1): a job with 20 units,
        // value high enough to transfer, cost high enough that peak usage
        // should be flattened across the deadline span rather than bursted.
        let mut net = Network::new();
        let a = net.add_node("A", pretium_net::Region::NorthAmerica);
        let b = net.add_node("B", pretium_net::Region::Europe);
        net.add_edge(a, b, 100.0, LinkCost::percentile(5.0));
        let grid = TimeGrid::new(10, 30);
        let jobs = vec![Job::new(0, single_path(&net, a, b), 0, 9, 1.0, 0.0, 20.0)];
        let cap = |_e: EdgeId, _t: Timestep| 100.0;
        let problem = ScheduleProblem {
            net: &net,
            grid: &grid,
            from: 0,
            to: 10,
            jobs: &jobs,
            capacity: &cap,
            realized: &no_realized,
            topk: TopkEncoding::CVar,
            cost_scale: 1.0,
        };
        let sol = solve(&problem, &SolveOptions::default()).unwrap();
        // Value 1/unit on 20 units = 20; cost = 5 * peak. Bursting all 20
        // in one step costs 100 (worse than not sending); spreading evenly
        // over 10 steps costs 5 * 2 = 10, net +10. The optimum transfers
        // everything with peak usage 2.
        assert!((sol.delivered[0] - 20.0).abs() < 1e-5, "{:?}", sol.delivered);
        let e = net.edge_ids().next().unwrap();
        let peak = (0..10).map(|t| sol.usage_on(&jobs, e, t)).fold(0.0f64, f64::max);
        assert!((peak - 2.0).abs() < 1e-5, "peak {peak}");
        assert!((sol.objective - 10.0).abs() < 1e-5, "obj {}", sol.objective);
    }

    #[test]
    fn worthless_transfer_on_costly_edge_is_skipped() {
        let mut net = Network::new();
        let a = net.add_node("A", pretium_net::Region::NorthAmerica);
        let b = net.add_node("B", pretium_net::Region::Europe);
        net.add_edge(a, b, 100.0, LinkCost::percentile(50.0));
        let grid = TimeGrid::new(2, 30);
        let jobs = vec![Job::new(0, single_path(&net, a, b), 0, 1, 0.5, 0.0, 10.0)];
        let cap = |_e: EdgeId, _t: Timestep| 100.0;
        let problem = ScheduleProblem {
            net: &net,
            grid: &grid,
            from: 0,
            to: 2,
            jobs: &jobs,
            capacity: &cap,
            realized: &no_realized,
            topk: TopkEncoding::CVar,
            cost_scale: 1.0,
        };
        // k = 1 over a 2-step window: every unit sent raises the top-1 by
        // at least 1/2 (if split) at cost 50/1 per unit of S... any transfer
        // loses money; optimum is zero.
        let sol = solve(&problem, &SolveOptions::default()).unwrap();
        assert!(sol.delivered[0] < 1e-6, "{:?}", sol.delivered);
        assert!(sol.objective.abs() < 1e-6);
    }

    #[test]
    fn multipath_splits_when_one_path_is_full() {
        let net = topology::paper_example().0;
        let a = NodeId(0);
        let d = NodeId(3);
        // Only route A->C->D exists for A->D in the paper example. Build a
        // richer check on the diamond instead.
        let mut net2 = Network::new();
        let s = net2.add_node("S", pretium_net::Region::NorthAmerica);
        let m1 = net2.add_node("M1", pretium_net::Region::NorthAmerica);
        let m2 = net2.add_node("M2", pretium_net::Region::NorthAmerica);
        let t = net2.add_node("T", pretium_net::Region::NorthAmerica);
        net2.add_edge(s, m1, 5.0, LinkCost::owned());
        net2.add_edge(m1, t, 5.0, LinkCost::owned());
        net2.add_edge(s, m2, 5.0, LinkCost::owned());
        net2.add_edge(m2, t, 5.0, LinkCost::owned());
        let paths = pretium_net::k_shortest_paths(&net2, s, t, 2, &|_| 1.0);
        assert_eq!(paths.len(), 2);
        let grid = TimeGrid::new(4, 30);
        let jobs = vec![Job::new(0, paths, 0, 0, 1.0, 0.0, 10.0)];
        let cap = |e: EdgeId, _t: Timestep| net2.edge(e).capacity;
        let problem = ScheduleProblem {
            net: &net2,
            grid: &grid,
            from: 0,
            to: 1,
            jobs: &jobs,
            capacity: &cap,
            realized: &no_realized,
            topk: TopkEncoding::CVar,
            cost_scale: 1.0,
        };
        let sol = solve(&problem, &SolveOptions::default()).unwrap();
        assert!((sol.delivered[0] - 10.0).abs() < 1e-6, "{:?}", sol.delivered);
        let _ = (net, a, d);
    }

    #[test]
    fn realized_past_usage_enters_cost() {
        // Window of 4 steps, k=1. Past steps 0-1 realized usage 8 on the pct
        // edge; LP schedules steps 2-3. Sending ≤ 8 per step is then free
        // (the top-1 stays 8), so the job transfers fully even though its
        // weight is below the unit cost.
        let mut net = Network::new();
        let a = net.add_node("A", pretium_net::Region::NorthAmerica);
        let b = net.add_node("B", pretium_net::Region::Europe);
        net.add_edge(a, b, 100.0, LinkCost::percentile(10.0));
        let grid = TimeGrid::new(4, 30);
        let jobs = vec![Job::new(0, single_path(&net, a, b), 2, 3, 0.5, 0.0, 16.0)];
        let cap = |_e: EdgeId, _t: Timestep| 100.0;
        let realized = |_e: EdgeId, t: Timestep| if t < 2 { 8.0 } else { 0.0 };
        let problem = ScheduleProblem {
            net: &net,
            grid: &grid,
            from: 2,
            to: 4,
            jobs: &jobs,
            capacity: &cap,
            realized: &realized,
            topk: TopkEncoding::CVar,
            cost_scale: 1.0,
        };
        let sol = solve(&problem, &SolveOptions::default()).unwrap();
        assert!((sol.delivered[0] - 16.0).abs() < 1e-5, "{:?}", sol.delivered);
        let e = net.edge_ids().next().unwrap();
        for t in 2..4 {
            assert!(sol.usage_on(&jobs, e, t) <= 8.0 + 1e-6);
        }
    }

    #[test]
    fn duals_positive_on_congested_edges() {
        let (net, a, b) = line_net();
        let grid = TimeGrid::new(2, 30);
        let jobs = vec![Job::new(0, single_path(&net, a, b), 0, 0, 2.0, 0.0, 50.0)];
        let cap = |e: EdgeId, _t: Timestep| net.edge(e).capacity;
        let problem = ScheduleProblem {
            net: &net,
            grid: &grid,
            from: 0,
            to: 1,
            jobs: &jobs,
            capacity: &cap,
            realized: &no_realized,
            topk: TopkEncoding::CVar,
            cost_scale: 1.0,
        };
        let sol = solve(&problem, &SolveOptions::default()).unwrap();
        let e = net.edge_ids().next().unwrap();
        // Congested edge: shadow price equals the marginal value (2.0).
        assert!((sol.dual(e, 0) - 2.0).abs() < 1e-6, "dual {}", sol.dual(e, 0));
    }

    #[test]
    fn both_topk_encodings_agree_on_schedule_value() {
        let mut net = Network::new();
        let a = net.add_node("A", pretium_net::Region::NorthAmerica);
        let b = net.add_node("B", pretium_net::Region::Europe);
        net.add_edge(a, b, 10.0, LinkCost::percentile(3.0));
        let grid = TimeGrid::new(6, 30);
        let jobs = vec![
            Job::new(0, single_path(&net, a, b), 0, 5, 2.0, 0.0, 12.0),
            Job::new(1, single_path(&net, a, b), 2, 4, 1.5, 0.0, 9.0),
        ];
        let cap = |_e: EdgeId, _t: Timestep| 10.0;
        let mut objs = Vec::new();
        for enc in [TopkEncoding::CVar, TopkEncoding::SortingNetwork] {
            let problem = ScheduleProblem {
                net: &net,
                grid: &grid,
                from: 0,
                to: 6,
                jobs: &jobs,
                capacity: &cap,
                realized: &no_realized,
                topk: enc,
                cost_scale: 1.0,
            };
            objs.push(solve(&problem, &SolveOptions::default()).unwrap().objective);
        }
        assert!(
            (objs[0] - objs[1]).abs() < 1e-5 * (1.0 + objs[0].abs()),
            "CVar {} vs SortingNetwork {}",
            objs[0],
            objs[1]
        );
    }

    #[test]
    fn advanced_session_matches_fresh_rebuild() {
        // Two jobs compete for a capacity-10 edge over 6 steps. Solve at
        // t=0, execute step 0, advance the session, and re-solve at t=1:
        // the remaining plan must match a cold rebuild over [1, 6) with the
        // delivered amounts subtracted.
        let (net, a, b) = line_net();
        let grid = TimeGrid::new(6, 30);
        let jobs = vec![
            Job::new(0, single_path(&net, a, b), 0, 5, 2.0, 10.0, 30.0),
            Job::new(1, single_path(&net, a, b), 0, 3, 1.0, 0.0, 20.0),
        ];
        let cap = |e: EdgeId, t: Timestep| net.edge(e).capacity * (t < 6) as u8 as f64;
        let problem = ScheduleProblem {
            net: &net,
            grid: &grid,
            from: 0,
            to: 6,
            jobs: &jobs,
            capacity: &cap,
            realized: &no_realized,
            topk: TopkEncoding::CVar,
            cost_scale: 1.0,
        };
        let mut sess = ScheduleSession::new(&problem);
        let first =
            sess.solve_step_with(&net, &cap, &no_realized, &SolveOptions::default()).unwrap();
        let executed: Vec<f64> = (0..2)
            .map(|j| first.flows[j].iter().filter(|&&(_, t, _)| t == 0).map(|&(_, _, u)| u).sum())
            .collect();
        sess.advance_to(1);
        let warm =
            sess.solve_step_with(&net, &cap, &no_realized, &SolveOptions::default()).unwrap();
        assert!(warm.lp_stats.warm_primal + warm.lp_stats.warm_dual >= 1, "{:?}", warm.lp_stats);
        assert_eq!(warm.lp_stats.cold_starts, 1, "{:?}", warm.lp_stats);
        // Frozen steps are excluded from the installed plan.
        for j in 0..2 {
            assert!(warm.flows[j].iter().all(|&(_, t, _)| t >= 1));
        }
        let fresh_jobs = vec![
            Job::new(
                0,
                single_path(&net, a, b),
                1,
                5,
                2.0,
                (10.0 - executed[0]).max(0.0),
                30.0 - executed[0],
            ),
            Job::new(1, single_path(&net, a, b), 1, 3, 1.0, 0.0, 20.0 - executed[1]),
        ];
        let fresh_problem = ScheduleProblem { jobs: &fresh_jobs, from: 1, ..problem };
        let fresh = solve(&fresh_problem, &SolveOptions::default()).unwrap();
        for j in 0..2 {
            assert!(
                (warm.delivered[j] - fresh.delivered[j]).abs() < 1e-6,
                "job {j}: session {} vs rebuild {}",
                warm.delivered[j],
                fresh.delivered[j]
            );
        }
    }

    #[test]
    fn job_added_mid_session_matches_rebuild() {
        // A second job arrives after one step has executed; appending it to
        // the live session must give the same remaining plan as rebuilding
        // from scratch with both jobs.
        let (net, a, b) = line_net();
        let grid = TimeGrid::new(6, 30);
        let jobs = vec![Job::new(0, single_path(&net, a, b), 0, 4, 1.0, 0.0, 25.0)];
        let cap = |e: EdgeId, t: Timestep| net.edge(e).capacity * (t < 6) as u8 as f64;
        let problem = ScheduleProblem {
            net: &net,
            grid: &grid,
            from: 0,
            to: 6,
            jobs: &jobs,
            capacity: &cap,
            realized: &no_realized,
            topk: TopkEncoding::CVar,
            cost_scale: 1.0,
        };
        let mut sess = ScheduleSession::new(&problem);
        let first =
            sess.solve_step_with(&net, &cap, &no_realized, &SolveOptions::default()).unwrap();
        let exec0: f64 =
            first.flows[0].iter().filter(|&&(_, t, _)| t == 0).map(|&(_, _, u)| u).sum();
        sess.advance_to(1);
        // High-value latecomer with a tight deadline: it must displace the
        // incumbent on the shared edge, which only works if its columns
        // entered the materialized capacity rows.
        let late = Job::new(1, single_path(&net, a, b), 1, 2, 5.0, 15.0, 15.0);
        assert_eq!(sess.add_job(late.clone()), 1);
        let warm =
            sess.solve_step_with(&net, &cap, &no_realized, &SolveOptions::default()).unwrap();
        let fresh_jobs =
            vec![Job::new(0, single_path(&net, a, b), 1, 4, 1.0, 0.0, 25.0 - exec0), late];
        let fresh_problem = ScheduleProblem { jobs: &fresh_jobs, from: 1, ..problem };
        let fresh = solve(&fresh_problem, &SolveOptions::default()).unwrap();
        for j in 0..2 {
            assert!(
                (warm.delivered[j] - fresh.delivered[j]).abs() < 1e-6,
                "job {j}: session {} vs rebuild {}",
                warm.delivered[j],
                fresh.delivered[j]
            );
        }
        // The latecomer's guarantee is enforced through the live session.
        assert!(warm.shortfall[1] < 1e-6, "shortfall {:?}", warm.shortfall);
        // Capacity respected at every remaining step.
        for t in 1..6 {
            let mut u = 0.0;
            for f in &warm.flows {
                u += f.iter().filter(|&&(_, ft, _)| ft == t).map(|&(_, _, x)| x).sum::<f64>();
            }
            assert!(u <= 10.0 + 1e-6, "t={t}: {u}");
        }
    }

    #[test]
    fn capacity_refresh_replans_around_loss() {
        // Capacity halves after the first solve; the session must detect
        // the violated materialized rows via the RHS refresh and replan.
        let (net, a, b) = line_net();
        let grid = TimeGrid::new(6, 30);
        let jobs = vec![Job::new(0, single_path(&net, a, b), 0, 5, 2.0, 0.0, 40.0)];
        let full_cap = |e: EdgeId, _t: Timestep| net.edge(e).capacity;
        let problem = ScheduleProblem {
            net: &net,
            grid: &grid,
            from: 0,
            to: 6,
            jobs: &jobs,
            capacity: &full_cap,
            realized: &no_realized,
            topk: TopkEncoding::CVar,
            cost_scale: 1.0,
        };
        let mut sess = ScheduleSession::new(&problem);
        let first =
            sess.solve_step_with(&net, &full_cap, &no_realized, &SolveOptions::default()).unwrap();
        assert!((first.delivered[0] - 40.0).abs() < 1e-6);
        sess.advance_to(1);
        let half_cap = |e: EdgeId, _t: Timestep| net.edge(e).capacity * 0.5;
        let after =
            sess.solve_step_with(&net, &half_cap, &no_realized, &SolveOptions::default()).unwrap();
        for t in 1..6 {
            let u: f64 =
                after.flows[0].iter().filter(|&&(_, ft, _)| ft == t).map(|&(_, _, x)| x).sum();
            assert!(u <= 5.0 + 1e-6, "t={t}: {u} exceeds halved capacity");
        }
    }

    #[test]
    fn cost_scale_zero_ignores_costs() {
        let mut net = Network::new();
        let a = net.add_node("A", pretium_net::Region::NorthAmerica);
        let b = net.add_node("B", pretium_net::Region::Europe);
        net.add_edge(a, b, 10.0, LinkCost::percentile(100.0));
        let grid = TimeGrid::new(2, 30);
        let jobs = vec![Job::new(0, single_path(&net, a, b), 0, 1, 0.1, 0.0, 5.0)];
        let cap = |_e: EdgeId, _t: Timestep| 10.0;
        let problem = ScheduleProblem {
            net: &net,
            grid: &grid,
            from: 0,
            to: 2,
            jobs: &jobs,
            capacity: &cap,
            realized: &no_realized,
            topk: TopkEncoding::CVar,
            cost_scale: 0.0,
        };
        let sol = solve(&problem, &SolveOptions::default()).unwrap();
        assert!((sol.delivered[0] - 5.0).abs() < 1e-6);
    }

    /// Diamond S -> {M1, M2} -> T with two disjoint routes of per-edge
    /// capacity 5.
    fn diamond() -> (Network, Vec<Path>) {
        let mut net = Network::new();
        let s = net.add_node("S", pretium_net::Region::NorthAmerica);
        let m1 = net.add_node("M1", pretium_net::Region::NorthAmerica);
        let m2 = net.add_node("M2", pretium_net::Region::NorthAmerica);
        let t = net.add_node("T", pretium_net::Region::NorthAmerica);
        net.add_edge(s, m1, 5.0, LinkCost::owned());
        net.add_edge(m1, t, 5.0, LinkCost::owned());
        net.add_edge(s, m2, 5.0, LinkCost::owned());
        net.add_edge(m2, t, 5.0, LinkCost::owned());
        let paths = pretium_net::k_shortest_paths(&net, s, t, 2, &|_| 1.0);
        assert_eq!(paths.len(), 2);
        (net, paths)
    }

    #[test]
    fn colgen_prices_in_columns_the_seed_lacks() {
        // Demand 30 over 4 steps needs both routes (path 0 alone carries
        // 20): the restricted master must price path-1 columns in and land
        // on the full-materialization optimum.
        let (net, paths) = diamond();
        let grid = TimeGrid::new(4, 30);
        let jobs = vec![Job::new(0, paths, 0, 3, 1.0, 0.0, 30.0)];
        let cap = |e: EdgeId, _t: Timestep| net.edge(e).capacity;
        let problem = ScheduleProblem {
            net: &net,
            grid: &grid,
            from: 0,
            to: 4,
            jobs: &jobs,
            capacity: &cap,
            realized: &no_realized,
            topk: TopkEncoding::CVar,
            cost_scale: 1.0,
        };
        let full = solve(&problem, &SolveOptions::default()).unwrap();
        let mut sess = ScheduleSession::with_colgen(&problem, ColumnGen::On);
        let lazy =
            sess.solve_step_with(&net, &cap, &no_realized, &SolveOptions::default()).unwrap();
        assert!(
            (lazy.objective - full.objective).abs() < 1e-6 * (1.0 + full.objective.abs()),
            "colgen {} vs full {}",
            lazy.objective,
            full.objective
        );
        assert!((lazy.delivered[0] - full.delivered[0]).abs() < 1e-5);
        assert_eq!(sess.column_universe(), 8);
        assert!(sess.num_flow_columns() > 4, "pricing generated nothing");
        let stats = sess.lp_stats();
        assert!(stats.columns_generated > 0, "{stats:?}");
        assert!(stats.colgen_rounds > 0, "{stats:?}");
    }

    #[test]
    fn colgen_seed_suffices_when_demand_fits_shortest_path() {
        // Demand 10 fits on path 0 (capacity 20 over 4 steps): the demand
        // row's dual kills every path-1 candidate, so the master stays a
        // strict restriction of the full universe.
        let (net, paths) = diamond();
        let grid = TimeGrid::new(4, 30);
        let jobs = vec![Job::new(0, paths, 0, 3, 1.0, 0.0, 10.0)];
        let cap = |e: EdgeId, _t: Timestep| net.edge(e).capacity;
        let problem = ScheduleProblem {
            net: &net,
            grid: &grid,
            from: 0,
            to: 4,
            jobs: &jobs,
            capacity: &cap,
            realized: &no_realized,
            topk: TopkEncoding::CVar,
            cost_scale: 1.0,
        };
        let full = solve(&problem, &SolveOptions::default()).unwrap();
        let mut sess = ScheduleSession::with_colgen(&problem, ColumnGen::On);
        let lazy =
            sess.solve_step_with(&net, &cap, &no_realized, &SolveOptions::default()).unwrap();
        assert!((lazy.objective - full.objective).abs() < 1e-6 * (1.0 + full.objective.abs()));
        assert!((lazy.delivered[0] - full.delivered[0]).abs() < 1e-5);
        assert!(
            sess.num_flow_columns() < sess.column_universe(),
            "{} of {} columns — no restriction",
            sess.num_flow_columns(),
            sess.column_universe()
        );
    }

    #[test]
    fn colgen_session_tracks_full_across_advance_and_add_job() {
        // Drive two sessions — full materialization and colgen — through
        // the same SAM-like sequence: solve, execute a step, add a
        // latecomer job, re-solve. A percentile edge on route 1 exercises
        // the pre-provisioned usage rows (columns generated after the cost
        // encoding must still enter the proxy).
        let mut net = Network::new();
        let s = net.add_node("S", pretium_net::Region::NorthAmerica);
        let m1 = net.add_node("M1", pretium_net::Region::NorthAmerica);
        let m2 = net.add_node("M2", pretium_net::Region::Europe);
        let t = net.add_node("T", pretium_net::Region::NorthAmerica);
        net.add_edge(s, m1, 5.0, LinkCost::owned());
        net.add_edge(m1, t, 5.0, LinkCost::owned());
        net.add_edge(s, m2, 5.0, LinkCost::percentile(0.2));
        net.add_edge(m2, t, 5.0, LinkCost::owned());
        let paths = pretium_net::k_shortest_paths(&net, s, t, 2, &|_| 1.0);
        assert_eq!(paths.len(), 2);
        let grid = TimeGrid::new(6, 30);
        let jobs = vec![Job::new(0, paths.clone(), 0, 5, 2.0, 6.0, 35.0)];
        let cap = |e: EdgeId, _t: Timestep| net.edge(e).capacity;
        let problem = ScheduleProblem {
            net: &net,
            grid: &grid,
            from: 0,
            to: 6,
            jobs: &jobs,
            capacity: &cap,
            realized: &no_realized,
            topk: TopkEncoding::CVar,
            cost_scale: 1.0,
        };
        let mut full = ScheduleSession::new(&problem);
        let mut lazy = ScheduleSession::with_colgen(&problem, ColumnGen::On);
        for step in [0usize, 1] {
            let f =
                full.solve_step_with(&net, &cap, &no_realized, &SolveOptions::default()).unwrap();
            let l =
                lazy.solve_step_with(&net, &cap, &no_realized, &SolveOptions::default()).unwrap();
            assert!(
                (l.objective - f.objective).abs() < 1e-6 * (1.0 + f.objective.abs()),
                "step {step}: colgen {} vs full {}",
                l.objective,
                f.objective
            );
            for j in 0..full.num_jobs() {
                assert!(
                    (l.delivered[j] - f.delivered[j]).abs() < 1e-5,
                    "step {step} job {j}: {} vs {}",
                    l.delivered[j],
                    f.delivered[j]
                );
            }
            full.advance_to(step as Timestep + 1);
            lazy.advance_to(step as Timestep + 1);
            if step == 0 {
                let late = Job::new(1, paths.clone(), 1, 4, 1.0, 0.0, 12.0);
                full.add_job(late.clone());
                lazy.add_job(late);
            }
        }
        assert!(lazy.num_flow_columns() <= lazy.column_universe());
    }

    #[test]
    fn contested_rows_solve_in_one_round_at_the_lazy_optimum() {
        // Three jobs overfill a diamond whose route 1 bills by percentile.
        // A fourth rides a roomy side network X -> Y -> {Z1, Z2} -> W on two
        // routes that share X -> Y; counted once, its demand bound is
        // exactly NEAR_CAP_FRACTION of every side link's capacity.
        let mut net = Network::new();
        let s = net.add_node("S", pretium_net::Region::NorthAmerica);
        let m1 = net.add_node("M1", pretium_net::Region::NorthAmerica);
        let m2 = net.add_node("M2", pretium_net::Region::Europe);
        let t = net.add_node("T", pretium_net::Region::NorthAmerica);
        let x = net.add_node("X", pretium_net::Region::NorthAmerica);
        let y = net.add_node("Y", pretium_net::Region::NorthAmerica);
        let z1 = net.add_node("Z1", pretium_net::Region::NorthAmerica);
        let z2 = net.add_node("Z2", pretium_net::Region::NorthAmerica);
        let w = net.add_node("W", pretium_net::Region::NorthAmerica);
        net.add_edge(s, m1, 5.0, LinkCost::owned());
        net.add_edge(m1, t, 5.0, LinkCost::owned());
        net.add_edge(s, m2, 5.0, LinkCost::percentile(0.2));
        net.add_edge(m2, t, 5.0, LinkCost::owned());
        net.add_edge(x, y, 100.0, LinkCost::owned());
        for (a, b) in [(y, z1), (z1, w), (y, z2), (z2, w)] {
            net.add_edge(a, b, 100.0, LinkCost::owned());
        }
        let paths = pretium_net::k_shortest_paths(&net, s, t, 2, &|_| 1.0);
        let side = pretium_net::k_shortest_paths(&net, x, w, 2, &|_| 1.0);
        assert_eq!((paths.len(), side.len()), (2, 2));
        let grid = TimeGrid::new(6, 30);
        let jobs = vec![
            Job::new(0, paths.clone(), 0, 5, 2.0, 6.0, 35.0),
            Job::new(1, paths.clone(), 1, 3, 1.0, 0.0, 12.0),
            Job::new(2, paths, 4, 5, 3.0, 0.0, 8.0),
            Job::new(3, side.clone(), 0, 5, 1.0, 0.0, NEAR_CAP_FRACTION * 100.0),
        ];
        let cap = |e: EdgeId, _t: Timestep| net.edge(e).capacity;
        let problem = ScheduleProblem {
            net: &net,
            grid: &grid,
            from: 0,
            to: 6,
            jobs: &jobs,
            capacity: &cap,
            realized: &no_realized,
            topk: TopkEncoding::CVar,
            cost_scale: 1.0,
        };
        let lazy = solve(&problem, &SolveOptions::default()).unwrap();
        let mut sess = ScheduleSession::new(&problem);
        sess.materialize_contested(&net, &cap, &no_realized);
        let seeded =
            sess.solve_step_with(&net, &cap, &no_realized, &SolveOptions::default()).unwrap();
        assert!(lazy.rounds > 1, "the lazy solve generated nothing");
        assert_eq!(seeded.rounds, 1);
        assert!(
            (seeded.objective - lazy.objective).abs() <= 1e-9 * lazy.objective.abs(),
            "seeded {} vs lazy {}",
            seeded.objective,
            lazy.objective
        );
        // Every row the lazy loop generated was seeded: the demand bound
        // covers whatever usage could trigger one.
        for key in lazy.capacity_duals.keys() {
            assert!(seeded.capacity_duals.contains_key(key), "{key:?} was not seeded");
        }
        for &e in side.iter().flat_map(|p| p.edges()) {
            for t in 0..6 {
                let key = (e, t);
                assert!(!seeded.capacity_duals.contains_key(&key), "uncontested row {key:?}");
            }
        }
    }
}

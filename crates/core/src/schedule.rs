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
//! edges additionally carry §4.2's sum-of-top-k cost proxy (`proxy.rs`).
//!
//! ## Lazy rows
//!
//! [`ScheduleSession::solve_step_with`] is the tree's one generation loop.
//! Every job's `(path, timestep)` columns are materialized when it is added;
//! only rows are lazy. A round solves the current relaxation warm, then
//! grows it: (a) capacity rows the tentative schedule violates and (b) cost
//! encodings for percentile edges it actually uses (an encoding appends
//! variables *and* rows *and* sets an objective coefficient, which is why
//! the loop lives here and not behind a row oracle in `pretium-lp`).
//! Omitting the cost of an *unused* edge is sound: costs only penalize
//! usage, so a relaxed optimum that does not touch the edge is also optimal
//! for the full objective. Capacity duals of never-added rows are zero (the
//! rows never bind).
//!
//! The loop ends when a round adds nothing, and the **terminal duals are
//! the certificate**: absent rows are satisfied with dual zero, so the
//! relaxed optimum is optimal for the full LP — and PC's prices are duals
//! of that certified optimum.
//!
//! PC materializes its rows up front instead
//! ([`ScheduleSession::materialize_contested`]): every capacity row whose
//! demand bound could reach the generation threshold and every cost
//! encoding a column crosses. Its offline LP then solves cold in one round,
//! and the loop finds nothing to add.

use crate::proxy::PercentileProxy;
use crate::topk::TopkEncoding;
use pretium_lp::{
    Cmp, LinExpr, Model, Name, RowId, Sense, Solution, SolveError, SolveOptions, SolverSession, Var,
};
use pretium_net::{EdgeId, Network, Path, TimeGrid, Timestep};
use rand::DetHashMap as HashMap;
use std::sync::Arc;

/// One schedulable job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Caller-defined identifier (e.g. request index).
    pub key: usize,
    /// Admissible routes (`R_i`), shared with the path cache entry and
    /// the contract they were booked on.
    pub paths: Arc<[Path]>,
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
        paths: impl Into<Arc<[Path]>>,
        start: Timestep,
        deadline: Timestep,
        weight: f64,
        min_units: f64,
        max_units: f64,
    ) -> Self {
        let paths = paths.into();
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
    /// Guarantee shortfall per job (positive when min_units was missed).
    pub shortfall: Vec<f64>,
    /// Lazy-generation rounds used.
    pub rounds: u32,
}

impl ScheduleSolution {
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

/// What one lazy round adds: the capacity rows, in the order a walk of
/// the slot map meets them, and the cost encodings `(edge, window)`, sorted.
type Separation = (Vec<(EdgeId, Timestep)>, Vec<(EdgeId, usize)>);

/// One `(column, slot)` crossing of a session: an entry of
/// `ScheduleSession::crossed_slots`, in both the column's range and the
/// slot's chain.
#[derive(Debug, Clone, Copy)]
struct Crossing {
    /// The slot crossed (its index in `ScheduleSession::slots`).
    slot: u32,
    /// The column crossing it.
    var: Var,
    /// The slot's next crossing (`u32::MAX` after its last).
    next: u32,
}

/// The columns crossing `slot`, in the order they joined it: `Slot::len`
/// steps along its chain through `crossed`.
fn columns<'a>(crossed: &'a [Crossing], slot: &Slot) -> impl Iterator<Item = Var> + Clone + 'a {
    let mut at = slot.first;
    (0..slot.len).map(move |_| {
        let c = crossed[at as usize];
        at = c.next;
        c.var
    })
}

/// One `(edge, timestep)` slot of the LP horizon: its chain of crossing
/// columns and what the row separation knows of it.
#[derive(Debug, Clone)]
struct Slot {
    key: (EdgeId, Timestep),
    /// The first and last of the slot's crossings in `crossed_slots`,
    /// chained in the order the columns joined.
    first: u32,
    last: u32,
    /// The number of crossings in the chain, which sizes its rows.
    len: u32,
    /// The slot's capacity row, once materialized.
    cap_row: Option<RowId>,
    /// Its usage was over `NEAR_CAP_FRACTION` of its capacity when the
    /// separation last judged it (meaningful while the slot is
    /// uncapped).
    near: bool,
    /// The sum of its columns' values in the round that last re-summed it
    /// (meaningful while the slot is open): the values of the last judged
    /// round, since a round re-sums every open slot a moved column crosses.
    usage: f64,
    /// Position of the slot's key in `ScheduleSession::slot_of`'s
    /// iteration order, the order rows are added in.
    ordinal: u32,
    /// The lazy round that last queued the slot for a re-sum.
    queued: u32,
}

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
    /// Shortfall penalty (scales with the largest job weight seen).
    penalty: f64,
    jobs: Vec<Job>,
    /// Flow variables `(path index, t, var)` of every job, each job's
    /// contiguous and in insertion order.
    vars: Vec<(usize, Timestep, Var)>,
    /// Per job, the range of `vars` holding its flow variables.
    job_ranges: Vec<(u32, u32)>,
    /// Per job with a guarantee, its shortfall variable and its guarantee
    /// row, whose RHS the degradation policy lowers when the guarantee is
    /// shed or relaxed (§4.4).
    guarantees: Vec<Option<(Var, RowId)>>,
    /// The cost proxy of the percentile edges, over the same slots.
    proxy: PercentileProxy,
    /// Every (e, t) within the LP horizon that a column crosses, in
    /// creation order: its chain of crossings, its rows and the
    /// separation's flags.
    slots: Vec<Slot>,
    /// The index in `slots` of each `(e, t)`.
    slot_of: HashMap<(EdgeId, Timestep), u32>,
    /// `slots.len()` when `Slot::ordinal` was last assigned.
    ordered: usize,
    /// Per column (by index), the range of `crossed_slots` listing the
    /// slots it crosses: one per path edge for a flow column, none for any
    /// other column (or past the end).
    crossed: Vec<(u32, u32)>,
    /// Every `(column, slot)` crossing of the session, in the order
    /// `add_job` made them: a column's are the contiguous range
    /// `crossed[v]`, a slot's a chain from `Slot::first`.
    crossed_slots: Vec<Crossing>,
    /// The uncapped slots whose `near` flag a judgement set since the
    /// step's first round (some may be capped or clear since).
    near: Vec<u32>,
    /// Scratch: the slots a lazy round re-sums.
    dirty: Vec<u32>,
    /// Lazy rounds run, the stamp of `Slot::queued`.
    round: u32,
    /// Primal values of the last round judged: what the next round diffs
    /// against, `advance_to` freezes at and `extract` reads.
    values: Vec<f64>,
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
    /// or up front by [`ScheduleSession::materialize_contested`]), with
    /// every job's `(path, timestep)` columns materialized.
    pub fn new(p: &ScheduleProblem<'_>) -> Self {
        assert!(p.from < p.to, "empty scheduling horizon");
        let max_weight = p.jobs.iter().map(|j| j.weight.abs()).fold(1.0f64, f64::max);
        let mut s = ScheduleSession {
            sess: SolverSession::new(Model::new(Sense::Maximize)),
            grid: *p.grid,
            from: p.from,
            to: p.to,
            fixed_up_to: p.from,
            penalty: max_weight * SHORTFALL_PENALTY_FACTOR,
            jobs: Vec::with_capacity(p.jobs.len()),
            vars: Vec::new(),
            job_ranges: Vec::with_capacity(p.jobs.len()),
            guarantees: Vec::with_capacity(p.jobs.len()),
            proxy: PercentileProxy::new(p),
            slots: Vec::new(),
            slot_of: HashMap::default(),
            ordered: 0,
            crossed: Vec::new(),
            crossed_slots: Vec::new(),
            near: Vec::new(),
            dirty: Vec::new(),
            round: 0,
            values: Vec::new(),
        };
        for job in p.jobs {
            s.add_job(job.clone());
        }
        s
    }

    /// First timestep of the horizon the session was built over.
    pub fn from(&self) -> Timestep {
        self.from
    }

    /// The session's jobs, in insertion order (job `j` is the `j`-th), as
    /// the LP holds them: `min_units` net of any relaxed guarantee.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The underlying LP session: its model, and the optimum the last solve
    /// returned while the model has not moved since.
    pub fn lp(&self) -> &SolverSession {
        &self.sess
    }

    /// Full internal price of `(e, t)` at the optimum the last solve
    /// returned: the congestion shadow price of the slot's capacity row plus
    /// the cost proxy's marginal percentile cost of one extra unit there —
    /// `C_e/k` on steps inside the window's top-k, zero below the
    /// percentile. A row never generated contributes zero,
    /// as does every row once the model moved past that optimum. This is the
    /// §4.3 "dual price" a unit of traffic should be charged for riding this
    /// link-timestep; only the PC reads it, so no solve builds a price table.
    pub fn price(&self, e: EdgeId, t: Timestep) -> f64 {
        let Some(&id) = self.slot_of.get(&(e, t)) else { return 0.0 };
        let duals = self.sess.cached_solution().map_or(&[][..], |sol| sol.duals());
        let cap = self.slots[id as usize].cap_row.and_then(|r| duals.get(r.index())).copied();
        cap.unwrap_or(0.0) + self.proxy.usage_dual(id, duals)
    }

    /// Flow columns materialized across jobs (excludes shortfall / usage /
    /// encoding variables).
    pub fn num_flow_columns(&self) -> usize {
        self.vars.len()
    }

    /// Job `j`'s flow variables, `(path index, t, var)`.
    fn job_vars(&self, j: usize) -> &[(usize, Timestep, Var)] {
        let (from, to) = self.job_ranges[j];
        &self.vars[from as usize..to as usize]
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
        let columns = job.paths.len() * (lo..hi).filter(|&t| job.step_allowed(t)).count();
        let start = self.vars.len() as u32;
        self.vars.reserve(columns);
        // Σ X, with room for the shortfall the guarantee row adds.
        let mut total = LinExpr::with_capacity(columns + 1);
        for pi in 0..job.paths.len() {
            for t in (lo..hi).filter(|&t| job.step_allowed(t)) {
                let name = Name::new("x_{}_{}_{}", [j, pi, t]);
                let v = self.sess.model_mut().add_var(name, 0.0, f64::INFINITY, job.weight);
                self.vars.push((pi, t, v));
                total.add_term(1.0, v);
                let begin = self.crossed_slots.len() as u32;
                for &e in job.paths[pi].edges() {
                    let id = self.cross(e, t, v);
                    if let Some(row) = self.slots[id as usize].cap_row {
                        self.sess.model_mut().add_term(row, v, 1.0);
                    }
                    self.proxy.join(self.sess.model_mut(), id, (e, t), v);
                }
                // `v` is the newest column: the ones between get no slot.
                self.crossed.resize(v.index(), (0, 0));
                self.crossed.push((begin, self.crossed_slots.len() as u32));
            }
        }
        self.job_ranges.push((start, self.vars.len() as u32));
        if columns == 0 {
            // Window entirely outside the remaining horizon: job gets
            // nothing.
            self.guarantees.push(None);
            self.jobs.push(job);
            return j;
        }
        let model = self.sess.model_mut();
        let demand = Name::new("demand_{}", [j]);
        let guarantee = if job.min_units > 1e-9 {
            model.add_row(demand, total.clone(), Cmp::Le, job.max_units);
            // Soft guarantee: Σ X + shortfall >= min_units.
            let s = model.add_var(Name::new("short_{}", [j]), 0.0, job.min_units, -self.penalty);
            let e = total.term(1.0, s);
            Some((s, model.add_row(Name::new("guar_{}", [j]), e, Cmp::Ge, job.min_units)))
        } else {
            model.add_row(demand, total, Cmp::Le, job.max_units);
            None
        };
        self.guarantees.push(guarantee);
        self.jobs.push(job);
        j
    }

    /// Append column `v`'s crossing of `(e, t)` to `crossed_slots`, at the
    /// tail of the slot's chain, and return the slot's index (a slot is
    /// created by its first crossing).
    fn cross(&mut self, e: EdgeId, t: Timestep, v: Var) -> u32 {
        let (at, next) = (self.crossed_slots.len() as u32, self.slots.len() as u32);
        let id = *self.slot_of.entry((e, t)).or_insert(next);
        self.crossed_slots.push(Crossing { slot: id, var: v, next: u32::MAX });
        if id == next {
            self.slots.push(Slot {
                key: (e, t),
                first: at,
                last: at,
                len: 1,
                cap_row: None,
                near: false,
                usage: 0.0,
                ordinal: 0,
                queued: 0,
            });
        } else {
            let slot = &mut self.slots[id as usize];
            self.crossed_slots[slot.last as usize].next = at;
            slot.last = at;
            slot.len += 1;
        }
        id
    }

    /// Freeze the flow variables of timesteps `< now` at their values in
    /// the optimum the last step returned (its final round: the plan SAM
    /// installed, hence what was executed).
    /// A fixed optimal value keeps the basis primal feasible, so the next
    /// re-solve typically restarts warm.
    pub fn advance_to(&mut self, now: Timestep) {
        let now = now.min(self.to);
        if now <= self.fixed_up_to {
            return;
        }
        for &(_, t, v) in &self.vars {
            if t >= self.fixed_up_to && t < now {
                let x = self.values.get(v.index()).copied().unwrap_or(0.0).max(0.0);
                // Pinning a variable at its current optimal value leaves
                // the solution optimal, so the session can keep its
                // cached solution (and basis) when nothing else moves.
                self.sess.fix_at_value(v, x);
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
        let Some((_, row)) = self.guarantees[j] else { return 0.0 };
        let waived = by.min(self.jobs[j].min_units).max(0.0);
        if waived <= 0.0 {
            return 0.0;
        }
        self.jobs[j].min_units -= waived;
        self.sess.model_mut().set_rhs(row, self.jobs[j].min_units);
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
        let mut rounds = 0;
        loop {
            rounds += 1;
            let (slots, crossed) = (&self.slots, &self.crossed_slots);
            self.proxy.check(self.sess.model(), |id| columns(crossed, &slots[id as usize]));
            let t0 = trace.then(std::time::Instant::now);
            let objective = self.sess.solve(opts)?.objective();
            if let Some(t0) = t0 {
                eprintln!(
                    "[schedule] round {rounds}: {} rows x {} vars, {:?} restart, {:?}",
                    self.sess.model().num_rows(),
                    self.sess.model().num_vars(),
                    self.sess.last_restart(),
                    t0.elapsed()
                );
            }
            if !self.lazy_grow(net, capacity, realized, rounds == 1) {
                return Ok(self.extract(objective, rounds));
            }
            if rounds >= MAX_ROUNDS {
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
    /// never binds and keeps dual zero. The bounds are summed per slot id,
    /// over the columns' own crossing index. Rows and encodings are added
    /// in sorted key order; elapsed steps (`< fixed_up_to`) get no row.
    pub fn materialize_contested(
        &mut self,
        net: &Network,
        capacity: &dyn Fn(EdgeId, Timestep) -> f64,
        realized: &dyn Fn(EdgeId, Timestep) -> f64,
    ) {
        // Per slot: the demand bound and the last job that added to it.
        let mut bound = vec![(0.0, usize::MAX); self.slots.len()];
        for (j, job) in self.jobs.iter().enumerate() {
            let max_units = job.max_units;
            for &(_, t, v) in self.job_vars(j) {
                if t < self.fixed_up_to {
                    continue;
                }
                let (from, to) = self.crossed[v.index()];
                for c in &self.crossed_slots[from as usize..to as usize] {
                    let (sum, last) = &mut bound[c.slot as usize];
                    if *last != j {
                        *sum += max_units;
                        *last = j;
                    }
                }
            }
        }
        let mut rows: Vec<((EdgeId, Timestep), u32)> = Vec::new();
        let mut encodings: Vec<(EdgeId, usize)> = Vec::new();
        for (id, (slot, &(sum, last))) in self.slots.iter().zip(&bound).enumerate() {
            if last == usize::MAX {
                continue;
            }
            let (e, t) = slot.key;
            if slot.cap_row.is_none() && sum > NEAR_CAP_FRACTION * capacity(e, t) {
                rows.push((slot.key, id as u32));
            }
            if self.proxy.awaits_encoding(id as u32) {
                encodings.push((e, self.grid.window_of(t)));
            }
        }
        rows.sort_unstable();
        encodings.sort();
        encodings.dedup();
        self.grow(net, capacity, realized, rows.into_iter().map(|(_, id)| id), encodings);
    }

    /// Refresh materialized capacity rows against `capacity`. Capacity can
    /// move between steps (high-pri surges, failures); elapsed steps keep
    /// their old rows — that flow already happened. Unchanged RHS values are
    /// skipped so a quiet step leaves the session clean (cache-hit
    /// eligible).
    fn refresh_capacity_rows(&mut self, capacity: &dyn Fn(EdgeId, Timestep) -> f64) {
        let model = self.sess.model_mut();
        for slot in &self.slots {
            let (e, t) = slot.key;
            let Some(row) = slot.cap_row.filter(|_| t >= self.fixed_up_to) else { continue };
            let cap = capacity(e, t);
            if model.rhs(row) != cap {
                model.set_rhs(row, cap);
            }
        }
    }

    /// Materialize the capacity row of each slot of `rows`, in order, over
    /// the columns crossing it, then the cost proxy's encoding of each
    /// `(edge, window)` of `encodings`, over the window's slots.
    fn grow(
        &mut self,
        net: &Network,
        capacity: &dyn Fn(EdgeId, Timestep) -> f64,
        realized: &dyn Fn(EdgeId, Timestep) -> f64,
        rows: impl IntoIterator<Item = u32>,
        encodings: Vec<(EdgeId, usize)>,
    ) {
        let (model, crossed, slot_of) = (self.sess.model_mut(), &self.crossed_slots, &self.slot_of);
        for id in rows {
            let slot = &mut self.slots[id as usize];
            let (e, t) = slot.key;
            let expr = LinExpr::from_terms(columns(crossed, slot).map(|v| (1.0, v)));
            let name = Name::new("cap_e{}_{}", [e.index(), t]);
            slot.cap_row = Some(model.add_row(name, expr, Cmp::Le, capacity(e, t)));
        }
        let slots = &self.slots;
        for (e, w) in encodings {
            let slot =
                |t| slot_of.get(&(e, t)).map(|&id| (id, columns(crossed, &slots[id as usize])));
            self.proxy.encode(model, net, realized, (e, w), self.from, slot);
        }
    }

    /// One round of lazy structure generation against the tentative optimum
    /// the session just solved: materialize violated (and near-capacity)
    /// rows and cost encodings for percentile edges in use, and keep the
    /// optimum's values in `values`. Returns whether anything was added.
    ///
    /// A slot is *open* while it may still gain a row (uncapped, at a step
    /// not frozen) or an encoding (percentile, unencoded); its usage is the
    /// sum of its columns' values, and a round judges it on that sum. The
    /// round pays for what moved: it re-sums only the slots crossed by a
    /// column whose value differs from the last judged round's (`values`)
    /// or that was appended since (`add_job`'s columns cross slots, an
    /// encoding's none; a new slot is crossed by the column that made it);
    /// every other open slot's `Slot::usage` is still its sum. At a step's
    /// `first` round every open slot is judged, on that sum, since
    /// capacities and `fixed_up_to` moved since the last; after that only
    /// the re-summed ones. Every other slot keeps its last judgement: a
    /// slot over capacity or in use while unencoded got its row or encoding
    /// in the round that found it, so only the `near` flag outlives a
    /// round. Rows go in in the order a walk of `slot_of` meets them
    /// (`Slot::ordinal`). A debug assertion compares the result with a
    /// judgement of every slot.
    fn lazy_grow(
        &mut self,
        net: &Network,
        capacity: &dyn Fn(EdgeId, Timestep) -> f64,
        realized: &dyn Fn(EdgeId, Timestep) -> f64,
        first: bool,
    ) -> bool {
        // The optimum the loop just solved: nothing moved since.
        let Some(sol) = self.sess.cached_solution() else { return false };
        let (grid, fixed) = (self.grid, self.fixed_up_to);
        // (a) Capacity rows violated by the tentative schedule. Rows that
        // are merely *near* the limit are materialized too: when a
        // violated row is added, displaced flow tends to overflow its
        // neighbours in the next round, so pulling them in now saves
        // whole resolve rounds at a small LP-size cost.
        // (b) Cost encodings for percentile edges the schedule uses.
        let mut any_violated = false;
        let mut new_encodings = Vec::new();
        // Queue the slots to re-sum: those a column crosses whose value
        // moved, or that was appended, since the last judged round. At the
        // session's first judged round every column is new, and every open
        // slot is re-summed without the walk.
        self.round = self.round.wrapping_add(1);
        let (round, fresh) = (self.round, self.values.is_empty());
        let (slots, dirty) = (&mut self.slots, &mut self.dirty);
        dirty.clear();
        if !fresh {
            let (values, judged) = (sol.values(), &self.values);
            let moved = values.iter().zip(judged).enumerate();
            let moved = moved.filter(|(_, (x, y))| x.to_bits() != y.to_bits()).map(|(j, _)| j);
            for j in moved.chain(judged.len()..values.len()) {
                let Some(&(from, to)) = self.crossed.get(j) else { continue };
                for c in &self.crossed_slots[from as usize..to as usize] {
                    let slot = &mut slots[c.slot as usize];
                    if slot.queued != round {
                        slot.queued = round;
                        dirty.push(c.slot);
                    }
                }
            }
        }
        if first {
            self.near.clear();
        }
        let (near, proxy, crossed) = (&mut self.near, &self.proxy, &self.crossed_slots);
        let mut judge = |id: u32, slot: &mut Slot| {
            let (e, t) = slot.key;
            let uncapped = t >= fixed && slot.cap_row.is_none();
            let unencoded = proxy.awaits_encoding(id);
            if !uncapped && !unencoded {
                return;
            }
            let cols = columns(crossed, slot);
            let sum = || cols.clone().map(|v| sol.value(v)).sum::<f64>();
            if fresh || slot.queued == round {
                slot.usage = sum();
            }
            debug_assert_eq!(
                slot.usage.to_bits(),
                sum().to_bits(),
                "stale usage of {:?}",
                slot.key
            );
            let usage = slot.usage;
            if uncapped {
                let cap = capacity(e, t);
                let violated = usage > cap + CAP_TOL * (1.0 + cap);
                let was =
                    std::mem::replace(&mut slot.near, violated || usage > cap * NEAR_CAP_FRACTION);
                if slot.near && !was {
                    near.push(id);
                }
                any_violated |= violated;
            }
            if unencoded && usage > USE_TOL {
                new_encodings.push((e, grid.window_of(t)));
            }
        };
        if first {
            // Capacities and `fixed_up_to` moved: judge every open slot
            // again, on its kept sum unless it was queued. Slots were added
            // since the last step when the map grew, which reorders its
            // walk.
            for (id, slot) in slots.iter_mut().enumerate() {
                slot.near = false;
                judge(id as u32, slot);
            }
            if self.ordered != slots.len() {
                for (ordinal, &id) in self.slot_of.values().enumerate() {
                    slots[id as usize].ordinal = ordinal as u32;
                }
                self.ordered = slots.len();
            }
        } else {
            for &id in dirty.iter() {
                judge(id, &mut slots[id as usize]);
            }
        }
        // The rows to add, in the order a walk of `slot_of` meets them.
        let mut new_rows: Vec<u32> = Vec::new();
        if any_violated {
            let slots = &self.slots;
            let open = |&id: &u32| {
                let slot = &slots[id as usize];
                slot.key.1 >= fixed && slot.cap_row.is_none() && slot.near
            };
            new_rows.extend(self.near.iter().copied().filter(open));
            new_rows.sort_unstable_by_key(|&id| slots[id as usize].ordinal);
            new_rows.dedup();
        }
        new_encodings.sort();
        new_encodings.dedup();
        debug_assert_eq!(
            (
                new_rows.iter().map(|&id| self.slots[id as usize].key).collect(),
                new_encodings.clone()
            ),
            self.separate_every_slot(capacity, sol),
            "the round's separation differs from a judgement of every slot"
        );
        self.values.clear();
        self.values.extend_from_slice(sol.values());
        let progressed = !new_rows.is_empty() || !new_encodings.is_empty();
        self.grow(net, capacity, realized, new_rows, new_encodings);
        progressed
    }

    /// The separation of one round judged on every slot, in a walk of
    /// `slot_of`, from the model's own state and `sol` alone — the rows (in
    /// walk order) and encodings (sorted) [`ScheduleSession::lazy_grow`]
    /// must find. For assertions.
    fn separate_every_slot(
        &self,
        capacity: &dyn Fn(EdgeId, Timestep) -> f64,
        sol: &Solution,
    ) -> Separation {
        let (mut rows, mut any_violated, mut encodings) = (Vec::new(), false, Vec::new());
        for (&(e, t), &id) in &self.slot_of {
            let slot = &self.slots[id as usize];
            let uncapped = t >= self.fixed_up_to && slot.cap_row.is_none();
            let unencoded = self.proxy.awaits_encoding(id);
            if !uncapped && !unencoded {
                continue;
            }
            let usage: f64 = columns(&self.crossed_slots, slot).map(|v| sol.value(v)).sum();
            if uncapped {
                let cap = capacity(e, t);
                let violated = usage > cap + CAP_TOL * (1.0 + cap);
                any_violated |= violated;
                if violated || usage > cap * NEAR_CAP_FRACTION {
                    rows.push((e, t));
                }
            }
            if unencoded && usage > USE_TOL {
                encodings.push((e, self.grid.window_of(t)));
            }
        }
        if !any_violated {
            rows.clear();
        }
        encodings.sort();
        encodings.dedup();
        (rows, encodings)
    }

    /// Read the schedule out of the last round's values, at LP objective
    /// `objective`. Flows at elapsed (frozen) timesteps are excluded: they
    /// were already executed and belong to history, not to the plan being
    /// installed.
    fn extract(&self, objective: f64, rounds: u32) -> ScheduleSolution {
        let value = |v: Var| self.values[v.index()];
        let mut flows = Vec::with_capacity(self.jobs.len());
        let mut delivered = Vec::with_capacity(self.jobs.len());
        for j in 0..self.jobs.len() {
            let mut jf = Vec::new();
            let mut total = 0.0;
            for &(pi, t, v) in self.job_vars(j) {
                if t < self.fixed_up_to {
                    continue;
                }
                let units = value(v);
                if units > 1e-9 {
                    jf.push((pi, t, units));
                    total += units;
                }
            }
            flows.push(jf);
            delivered.push(total);
        }
        let shortfall = self.guarantees.iter().map(|g| g.map_or(0.0, |(s, _)| value(s))).collect();
        ScheduleSolution { flows, delivered, objective, shortfall, rounds }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretium_net::{LinkCost, Network, NodeId, TimeGrid};

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
        let mut sess = ScheduleSession::new(&problem);
        sess.solve_step_with(&net, &cap, &no_realized, &SolveOptions::default()).unwrap();
        let e = net.edge_ids().next().unwrap();
        // Congested edge: shadow price equals the marginal value (2.0).
        let price = sess.price(e, 0);
        assert!((price - 2.0).abs() < 1e-6, "dual {price}");
    }

    /// `advance_to` freezes an elapsed column at its value in the step's
    /// final round, the optimum the step returned. Job 0 can only use step
    /// 0 and wants 15 units of its capacity of 10; job 1 is worth more and
    /// may use steps 0 and 1. The first round has no capacity row, so it
    /// puts all 15 of job 0 on step 0; the second adds the row and job 0
    /// keeps 10. Step 0 must freeze at 10 (and job 1's step 0 at 0).
    #[test]
    fn advance_freezes_elapsed_columns_at_the_final_rounds_values() {
        let (net, a, b) = line_net();
        let grid = TimeGrid::new(4, 30);
        let jobs = vec![
            Job::new(0, single_path(&net, a, b), 0, 0, 1.0, 0.0, 15.0),
            Job::new(1, single_path(&net, a, b), 0, 1, 2.0, 0.0, 5.0),
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
        let opts = SolveOptions::default();
        let sol = sess.solve_step_with(&net, &cap, &no_realized, &opts).unwrap();
        assert!(sol.rounds >= 2, "one round: nothing was generated");
        let last = sess.lp().cached_solution().expect("the step's optimum").values().to_vec();
        let elapsed: Vec<Var> =
            sess.vars.iter().filter(|&&(_, t, _)| t < 1).map(|&(_, _, v)| v).collect();
        assert_eq!(elapsed.len(), 2);
        sess.advance_to(1);
        for v in elapsed {
            let x = last[v.index()].max(0.0);
            assert_eq!(sess.lp().model().bounds(v), (x, x), "{}", sess.lp().model().var_name(v));
        }
        let x00 = sess.job_vars(0)[0].2;
        assert!((last[x00.index()] - 10.0).abs() < 1e-9, "job 0 at step 0: {}", last[x00.index()]);
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
        let st = sess.lp().stats();
        assert!(st.warm_primal + st.warm_dual >= 1, "{st:?}");
        assert_eq!(st.cold_starts, 1, "{st:?}");
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

    /// One session through a faulted window, the way SAM drives it:
    /// steps that freeze executed flows, a link cut to 30% of its capacity
    /// mid-window, a job appended mid-window, a relaxed guarantee, and lazy
    /// rounds several deep. Every step's answer — each round carried over
    /// the change log, judged by the delta separation — must be a clean
    /// `check_optimal` optimum of the session's model, of the objective a
    /// cold solve of that model finds to 1e-9 relative. (The cold
    /// references run after the session, so none takes its workspace.)
    #[test]
    fn session_through_a_faulted_window_matches_cold_solves() {
        use pretium_lp::validate::check_optimal;
        let mut net = Network::new();
        let region = pretium_net::Region::NorthAmerica;
        let n: Vec<NodeId> = (0..6).map(|i| net.add_node(&format!("n{i}"), region)).collect();
        for (i, &(a, b)) in
            [(0, 1), (1, 2), (2, 3), (0, 4), (4, 3), (1, 4), (4, 2), (0, 5), (5, 3), (5, 2)]
                .iter()
                .enumerate()
        {
            let cost = if i % 3 == 1 { LinkCost::percentile(0.4) } else { LinkCost::owned() };
            net.add_edge(n[a], n[b], 8.0 + (i % 4) as f64, cost);
        }
        // Faults: the links out of n0 fall to 30% from step 3, the links
        // into n3 to 40% from step 6.
        let from0: Vec<EdgeId> = net.edge_ids().filter(|&e| net.edge(e).from == n[0]).collect();
        let into3: Vec<EdgeId> = net.edge_ids().filter(|&e| net.edge(e).to == n[3]).collect();
        let routes =
            |a: usize, b: usize| pretium_net::k_shortest_paths(&net, n[a], n[b], 3, &|_| 1.0);
        let spec = [
            (0, 3, 0, 9, 2.0, 12.0, 40.0),
            (1, 3, 1, 7, 1.5, 0.0, 30.0),
            (0, 2, 0, 11, 3.0, 8.0, 25.0),
            (4, 3, 2, 10, 1.0, 0.0, 35.0),
            (5, 2, 0, 5, 2.5, 10.0, 20.0),
            (0, 3, 3, 11, 1.2, 5.0, 45.0),
        ];
        let jobs: Vec<Job> = spec
            .iter()
            .enumerate()
            .map(|(k, &(a, b, from, to, w, lo, hi))| Job::new(k, routes(a, b), from, to, w, lo, hi))
            .collect();
        let grid = TimeGrid::new(6, 30);
        let (net_ref, from0, into3) = (&net, &from0, &into3);
        let capacity_at = |now: Timestep| {
            let net = net_ref;
            move |e: EdgeId, t: Timestep| {
                let cut =
                    |edges: &[EdgeId], at: Timestep| now >= at && t >= at && edges.contains(&e);
                let health = if cut(from0, 3) {
                    0.3
                } else if cut(into3, 6) {
                    0.4
                } else {
                    1.0
                };
                net.edge(e).capacity * health
            }
        };
        let cap0 = capacity_at(0);
        let problem = ScheduleProblem {
            net: &net,
            grid: &grid,
            from: 0,
            to: 12,
            jobs: &jobs,
            capacity: &cap0,
            realized: &no_realized,
            topk: TopkEncoding::CVar,
            cost_scale: 1.0,
        };
        let mut sess = ScheduleSession::new(&problem);
        let opts = SolveOptions::default();
        let (mut steps, mut deep) = (Vec::new(), 0);
        let mut solve = |sess: &mut ScheduleSession, now: Timestep| {
            let cap = capacity_at(now);
            let sol = sess.solve_step_with(&net, &cap, &no_realized, &opts).unwrap();
            deep += u32::from(sol.rounds >= 2);
            let lp = sess.lp();
            let optimum = lp.cached_solution().expect("a step leaves its optimum current");
            let bad = check_optimal(lp.model(), optimum, 1e-7);
            assert!(bad.is_empty(), "step {now}: {bad:?}");
            steps.push((lp.model().clone(), sol.objective));
            sol
        };
        for now in 0..10 {
            sess.advance_to(now);
            if now == 4 {
                sess.add_job(Job::new(9, routes(0, 3), 4, 9, 4.0, 15.0, 30.0));
            }
            let sol = solve(&mut sess, now);
            if now == 5 {
                let short = sol.shortfall.iter().copied().enumerate();
                let (j, units) = short.max_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
                assert!(sess.relax_guarantee(j, units.max(1.0)) > 0.0, "step {now}");
                solve(&mut sess, now);
            }
        }
        let st = sess.lp().stats();
        assert_eq!(st.cold_starts, 1, "every later solve carries: {st:?}");
        assert!(deep >= 3 && st.warm_dual >= 10, "{deep} deep steps, {st:?}");
        for (now, (model, objective)) in steps.iter().enumerate() {
            let cold = model.solve().unwrap().objective();
            let tol = 1e-9 * (1.0 + cold.abs());
            assert!((objective - cold).abs() <= tol, "step {now}: {objective} vs cold {cold}");
        }
    }

    /// The names every builder gives its columns and rows, rendered on
    /// read, pinned as text: a job with a guarantee, contested capacity
    /// rows and a CVaR cost encoding over a window with realized past
    /// steps, on one percentile edge.
    #[test]
    fn builders_names_render_as_pinned() {
        let mut net = Network::new();
        let a = net.add_node("A", pretium_net::Region::NorthAmerica);
        let b = net.add_node("B", pretium_net::Region::Europe);
        net.add_edge(a, b, 10.0, LinkCost::percentile(1.0));
        let grid = TimeGrid::new(4, 30);
        let jobs = vec![Job::new(0, single_path(&net, a, b), 2, 3, 1.0, 2.0, 30.0)];
        let cap = |_e: EdgeId, _t: Timestep| 10.0;
        let realized = |_e: EdgeId, t: Timestep| if t < 2 { 4.0 } else { 0.0 };
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
        let mut sess = ScheduleSession::new(&problem);
        sess.materialize_contested(&net, &cap, &realized);
        sess.advance_to(3);
        let model = sess.lp().model();
        let vars: Vec<String> =
            (0..model.num_vars()).map(|j| model.var_name(Var::from_index(j))).collect();
        let rows: Vec<String> =
            (0..model.num_rows()).map(|i| model.row_name(RowId::from_index(i))).collect();
        let want_vars = [
            "x_0_0_2",
            "x_0_0_3",
            "short_0",
            "past_e0_0",
            "past_e0_1",
            "u_e0_2",
            "u_e0_3",
            "c_e0_0_u",
            "c_e0_0_S",
            "c_e0_0_s0",
            "c_e0_0_s1",
            "c_e0_0_s2",
            "c_e0_0_s3",
        ];
        let want_rows = [
            "demand_0",
            "guar_0",
            "cap_e0_2",
            "cap_e0_3",
            "use_e0_2",
            "use_e0_3",
            "c_e0_0_ex0",
            "c_e0_0_ex1",
            "c_e0_0_ex2",
            "c_e0_0_ex3",
            "c_e0_0_bound",
        ];
        assert_eq!(vars, want_vars);
        assert_eq!(rows, want_rows);
    }

    /// Every slot's chain lists exactly the columns whose `crossed` range
    /// names the slot, in column order, and `len` counts them: after the
    /// build, a solve and a mid-window `add_job` into materialized rows,
    /// on a world whose every other link bills by percentile.
    #[test]
    fn slot_chains_are_the_transpose_of_column_ranges() {
        let mut net = Network::new();
        let region = pretium_net::Region::NorthAmerica;
        let n: Vec<NodeId> = (0..5).map(|i| net.add_node(&format!("n{i}"), region)).collect();
        for (i, &(a, b)) in
            [(0, 1), (1, 2), (0, 3), (3, 2), (1, 3), (2, 4), (3, 4)].iter().enumerate()
        {
            let cost = if i % 2 == 0 { LinkCost::percentile(0.3) } else { LinkCost::owned() };
            net.add_edge(n[a], n[b], 6.0 + i as f64, cost);
        }
        let routes =
            |a: usize, b: usize| pretium_net::k_shortest_paths(&net, n[a], n[b], 3, &|_| 1.0);
        let jobs = vec![
            Job::new(0, routes(0, 2), 0, 7, 2.0, 5.0, 40.0),
            Job::new(1, routes(1, 4), 1, 5, 1.5, 0.0, 30.0),
            Job::new(2, routes(0, 4), 2, 7, 3.0, 0.0, 25.0),
        ];
        let grid = TimeGrid::new(4, 30);
        let cap = |e: EdgeId, _t: Timestep| net.edge(e).capacity;
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
        let mut sess = ScheduleSession::new(&problem);
        sess.solve_step_with(&net, &cap, &no_realized, &SolveOptions::default()).unwrap();
        sess.advance_to(3);
        sess.add_job(Job::new(3, routes(0, 4), 1, 6, 2.5, 4.0, 20.0));
        sess.solve_step_with(&net, &cap, &no_realized, &SolveOptions::default()).unwrap();

        let mut transpose = vec![Vec::new(); sess.slots.len()];
        for (v, &(from, to)) in sess.crossed.iter().enumerate() {
            for c in &sess.crossed_slots[from as usize..to as usize] {
                assert_eq!(c.var.index(), v, "column {v}'s range names another column");
                transpose[c.slot as usize].push(c.var);
            }
        }
        let listed: usize = transpose.iter().map(Vec::len).sum();
        assert_eq!(listed, sess.crossed_slots.len(), "a crossing outside every column range");
        for (id, slot) in sess.slots.iter().enumerate() {
            let chain: Vec<Var> = columns(&sess.crossed_slots, slot).collect();
            assert!(!chain.is_empty(), "slot {:?} has no column", slot.key);
            assert_eq!(chain, transpose[id], "slot {:?}", slot.key);
            assert_eq!(slot.len as usize, chain.len(), "slot {:?}", slot.key);
        }
    }

    /// Pins ROADMAP item 12(a)'s leak at the cost proxy's seam: a slot made
    /// after its window was encoded (here by an `add_job` mid-window on a
    /// percentile edge) has no use row, so the flow columns `join` puts
    /// there are a term of no proxy row, and no later round encodes them.
    /// Item 15 gives such a slot its row on first touch and inverts the
    /// assertions.
    #[test]
    fn a_column_in_a_slot_made_after_its_window_was_encoded_escapes_the_proxy() {
        let mut net = Network::new();
        let a = net.add_node("A", pretium_net::Region::NorthAmerica);
        let b = net.add_node("B", pretium_net::Region::Europe);
        net.add_edge(a, b, 10.0, LinkCost::percentile(1.0));
        let grid = TimeGrid::new(4, 30);
        let jobs = vec![Job::new(0, single_path(&net, a, b), 0, 1, 5.0, 0.0, 8.0)];
        let cap = |_e: EdgeId, _t: Timestep| 10.0;
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
        let opts = SolveOptions::default();
        sess.solve_step_with(&net, &cap, &no_realized, &opts).unwrap();
        let use_rows = |sess: &ScheduleSession| -> Vec<(RowId, String)> {
            let model = sess.lp().model();
            let rows = (0..model.num_rows()).map(RowId::from_index);
            rows.map(|r| (r, model.row_name(r)))
                .filter(|(_, name)| name.starts_with("use_"))
                .collect()
        };
        let names =
            |rows: &[(RowId, String)]| rows.iter().map(|(_, n)| n.clone()).collect::<Vec<_>>();
        // Job 0's steps 0 and 1 were crossed when the window was encoded.
        assert_eq!(names(&use_rows(&sess)), ["use_e0_0", "use_e0_1"]);
        sess.advance_to(1);
        let late = sess.add_job(Job::new(1, single_path(&net, a, b), 2, 3, 5.0, 0.0, 8.0));
        sess.solve_step_with(&net, &cap, &no_realized, &opts).unwrap();
        let rows = use_rows(&sess);
        assert_eq!(names(&rows), ["use_e0_0", "use_e0_1"], "a slot made later got a use row");
        let e = net.edge_ids().next().unwrap();
        for &(_, t, v) in sess.job_vars(late) {
            let id = sess.slot_of[&(e, t)];
            assert!(!sess.proxy.awaits_encoding(id), "step {t} awaits an encoding still");
            for (row, name) in &rows {
                assert_eq!(sess.lp().model().coef(*row, v), 0.0, "step {t}'s column is in {name}");
            }
        }
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
        let mut lazy_sess = ScheduleSession::new(&problem);
        let lazy =
            lazy_sess.solve_step_with(&net, &cap, &no_realized, &SolveOptions::default()).unwrap();
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
        let rows = |s: &ScheduleSession| -> Vec<(EdgeId, Timestep)> {
            s.slots.iter().filter(|slot| slot.cap_row.is_some()).map(|slot| slot.key).collect()
        };
        let capped = |s: &ScheduleSession, key| rows(s).contains(&key);
        let lazy_rows = rows(&lazy_sess);
        assert!(!lazy_rows.is_empty());
        for key in lazy_rows {
            assert!(capped(&sess, key), "{key:?} was not seeded");
        }
        for &e in side.iter().flat_map(|p| p.edges()) {
            for t in 0..6 {
                assert!(!capped(&sess, (e, t)), "uncontested row {:?}", (e, t));
            }
        }
    }
}

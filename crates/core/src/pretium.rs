//! The Pretium system façade: request admission, schedule adjustment, and
//! price computation wired around the shared [`NetworkState`] (Figure 3).
//!
//! Module timescales (§4): the RA answers *every request arrival* with a
//! menu built from current prices; SAM re-optimizes the full plan *every
//! timestep*; the PC recomputes prices *once per window* from the duals of
//! an offline solve over recent history.

use crate::admission::{price_menu, AdmissionSnapshot, Sequencer};
use crate::audit::{AuditContext, AuditPoint, Auditor};
use crate::config::PretiumConfig;
use crate::contract::{Contract, ContractId, RequestParams};
use crate::degradation::{DegradationKind, ViolationLedger};
use crate::menu::PriceMenu;
use crate::schedule::{Job, ScheduleProblem, ScheduleSession};
use crate::state::NetworkState;
use crate::telemetry::Telemetry;
use pretium_lp::{SessionStats, SolveError, SolveOptions, SolverTuning};
use pretium_net::{EdgeId, Network, Path, SharedPathSet, TimeGrid, Timestep, UsageTracker};
use rand::{DetHashMap as HashMap, DetHashSet as HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A running Pretium instance.
pub struct Pretium {
    net: Arc<Network>,
    grid: TimeGrid,
    horizon: usize,
    cfg: PretiumConfig,
    /// Shared by reference with every snapshot published off it; written
    /// only through [`writable`], after [`Pretium::bump_epoch`].
    state: Arc<NetworkState>,
    /// Shared with every published [`AdmissionSnapshot`], so concurrent
    /// quote workers and the live system fill one cache.
    path_cache: Arc<SharedPathSet>,
    /// Epoch of the current quote-relevant state; bumped on every mutation
    /// a menu could observe (reservations, prices, health, set-asides).
    epoch: u64,
    /// The snapshot published for the current epoch, if any — reused by
    /// [`Pretium::snapshot`] until the next mutation retires it.
    published: Option<Arc<AdmissionSnapshot>>,
    contracts: Vec<Contract>,
    /// Admissible route set per contract (parallel to `contracts`): the
    /// path cache's own entry, shared with every LP job built for it.
    contract_paths: Vec<Arc<[Path]>>,
    /// The scheduling LP SAM keeps alive between the timesteps of one
    /// billing window, if any: successive `run_sam` calls advance it (fix
    /// executed flows, refresh capacities, append newly accepted
    /// contracts) and re-solve warm from the previous basis. Its job `j`
    /// belongs to contract `jobs()[j].key`, and its window is the window
    /// of its `from()` (it is rebuilt at boundaries, when realized usage
    /// rolls into the cost proxy's past constants; see `run_sam`).
    sam: Option<ScheduleSession>,
    /// The contracts `sam` holds a job for. The per-timestep append loop
    /// probes every active contract, so a scan of the session's jobs here
    /// would make it O(n²) in contract count.
    sam_members: HashSet<usize>,
    /// LP restart counters accumulated from retired sessions and PC solves
    /// (use [`Pretium::lp_stats`], which folds in the live session).
    lp_stats: SessionStats,
    /// Per-edge price floor (indexed by edge), cached at construction.
    floors: Vec<f64>,
    /// Per-module counters and timings.
    telemetry: Telemetry,
    /// Invariant auditor — `Some` in debug/test builds and when
    /// [`PretiumConfig::audit`] is set.
    audit: Option<Auditor>,
    /// Penalty record of every guarantee waived under §4.4 degradation.
    ledger: ViolationLedger,
    /// Billing windows during which some link was degraded; the PC
    /// refuses to learn prices from them (frozen-price fallback, §4.4).
    fault_windows: HashSet<usize>,
    /// Simplex iteration cap injected by the solver-pressure fault; SAM
    /// keeps its previous plan when a solve hits it.
    solver_pressure: Option<u64>,
}

impl Pretium {
    /// Create an instance over `net` for `horizon` timesteps. Initial
    /// prices are the per-edge floors (cold start; see DESIGN.md §8).
    pub fn new(net: Network, grid: TimeGrid, horizon: usize, cfg: PretiumConfig) -> Self {
        assert!(horizon > 0);
        let floors: Vec<f64> = net.edge_ids().map(|e| price_floor(&net, &grid, &cfg, e)).collect();
        let state =
            NetworkState::new(&net, horizon, cfg.highpri_fraction, cfg.bump, |e| floors[e.index()]);
        let path_cache = Arc::new(SharedPathSet::new(cfg.k_paths));
        let audit = (cfg.audit || cfg!(debug_assertions)).then(Auditor::new);
        Pretium {
            net: Arc::new(net),
            grid,
            horizon,
            cfg,
            state: Arc::new(state),
            path_cache,
            epoch: 0,
            published: None,
            contracts: Vec::new(),
            contract_paths: Vec::new(),
            sam: None,
            sam_members: HashSet::default(),
            lp_stats: SessionStats::default(),
            floors,
            telemetry: Telemetry::default(),
            audit,
            ledger: ViolationLedger::new(),
            fault_windows: HashSet::default(),
            solver_pressure: None,
        }
    }

    pub fn network(&self) -> &Network {
        &self.net
    }

    pub fn state(&self) -> &NetworkState {
        &self.state
    }

    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Epoch of the current quote-relevant state. Bumped on every mutation
    /// a menu could observe: an accept's reservations, SAM's re-planning,
    /// PC price updates, capacity faults and recoveries, manual price
    /// overrides.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Publish (or reuse) the admission snapshot for the current epoch: an
    /// immutable view any number of RA workers can [`AdmissionSnapshot::quote`]
    /// against concurrently. Consecutive calls between mutations return
    /// the same `Arc`. The snapshot shares the live state by reference:
    /// publishing copies nothing, and the next mutation copies the state
    /// only if a snapshot of it is still held somewhere (DESIGN.md §22).
    pub fn snapshot(&mut self) -> Arc<AdmissionSnapshot> {
        if let Some(s) = &self.published {
            return Arc::clone(s);
        }
        let snap = Arc::new(AdmissionSnapshot::new(
            self.epoch,
            self.horizon,
            Arc::clone(&self.net),
            Arc::clone(&self.state),
            Arc::clone(&self.path_cache),
        ));
        self.telemetry.snapshots += 1;
        self.published = Some(Arc::clone(&snap));
        snap
    }

    /// Retire the published snapshot and advance the epoch. Every
    /// quote-relevant mutation goes through here *before* it takes the
    /// state with [`writable`]: dropping the system's own handle on the
    /// snapshot is what leaves the state unshared, so the write that
    /// follows happens in place.
    fn bump_epoch(&mut self) {
        self.published = None;
        self.epoch += 1;
    }

    /// Does nothing. A snapshot holds no counters: [`Sequencer::admit`]
    /// counts each ticket's quote. Kept only because the `e2ebench`
    /// replay still calls it after quoting a batch.
    pub fn absorb_quotes(&mut self, _snap: &AdmissionSnapshot) {}

    /// One-shot admission through the snapshot/sequencer path: publish (or
    /// reuse) a snapshot, quote `params`, let `respond` choose the
    /// purchase off the menu, and sequence the accept. Returns the quoted
    /// menu alongside the booking result.
    ///
    /// This is the migration surface for callers of the removed
    /// `quote(&mut self)` + `accept` pair; batch admission should publish
    /// one snapshot and quote the whole batch off it instead (see
    /// `pretium-sim`'s runner).
    pub fn admit_one(
        &mut self,
        params: &RequestParams,
        respond: impl FnOnce(&PriceMenu) -> f64,
    ) -> (PriceMenu, Option<ContractId>) {
        let ticket = self.snapshot().ticket(params);
        let mut seq = Sequencer::new(self);
        let id = seq.admit(&ticket, respond);
        (ticket.menu, id)
    }

    /// The admissible route set for `(src, dst)` from the shared path
    /// cache (computed on first access).
    pub fn paths_for(&self, src: pretium_net::NodeId, dst: pretium_net::NodeId) -> Arc<[Path]> {
        self.path_cache.paths(&self.net, src, dst)
    }

    /// The admissible route set contract `id` was booked with.
    pub fn routes(&self, id: ContractId) -> &[Path] {
        &self.contract_paths[id.0]
    }

    pub fn config(&self) -> &PretiumConfig {
        &self.cfg
    }

    pub fn contracts(&self) -> &[Contract] {
        &self.contracts
    }

    pub fn contract(&self, id: ContractId) -> &Contract {
        &self.contracts[id.0]
    }

    /// Per-module counters and wall-clock timings.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The invariant auditor, when auditing is enabled (always in
    /// debug/test builds, via [`PretiumConfig::audit`] in release).
    pub fn auditor(&self) -> Option<&Auditor> {
        self.audit.as_ref()
    }

    /// The degradation ledger: every guarantee waived under §4.4, with its
    /// booked penalty, in waiver order.
    pub fn ledger(&self) -> &ViolationLedger {
        &self.ledger
    }

    /// Cap (or uncap, with `None`) the simplex iterations of SAM's solves
    /// — the solver-pressure fault of §4.4. A capped solve that runs out
    /// keeps the previous feasible plan instead of failing the run.
    pub fn set_solver_pressure(&mut self, limit: Option<u64>) {
        self.solver_pressure = limit;
    }

    /// Solve options carrying the configured kernel tuning (PC and any
    /// other uncapped LP).
    fn solve_opts(&self) -> SolveOptions {
        SolveOptions {
            tuning: SolverTuning { max_etas: self.cfg.max_etas, ..SolverTuning::default() },
            ..SolveOptions::default()
        }
    }

    /// SAM's solve options: the kernel tuning plus, when the
    /// solver-pressure fault is injected, the iteration cap.
    fn sam_opts(&self) -> SolveOptions {
        let capped = self.solver_pressure.map(SolveOptions::with_iteration_limit);
        SolveOptions { tuning: self.solve_opts().tuning, ..capped.unwrap_or_default() }
    }

    /// Certify the LP optimum a module installs from `sess` against its
    /// model alone (audit invariant 7), when auditing is on.
    fn audit_lp(&mut self, point: AuditPoint, now: Timestep, sess: &ScheduleSession) {
        if let Some(aud) = self.audit.as_mut() {
            self.telemetry.audit_violations += aud.check_lp(point, now, sess.lp());
        }
    }

    /// Sweep every invariant now and record violations. Runs after each
    /// module checkpoint; also callable directly (e.g. right after
    /// [`Pretium::inject_capacity_loss`], before SAM has replanned).
    pub fn run_audit(&mut self, point: AuditPoint, now: Timestep) {
        let Some(aud) = self.audit.as_mut() else { return };
        let t0 = Instant::now();
        let cx = AuditContext {
            net: &self.net,
            state: &self.state,
            contracts: &self.contracts,
            contract_paths: &self.contract_paths,
            floors: &self.floors,
            pc_has_run: self.telemetry.pc.calls > 0,
            ledger: Some(&self.ledger),
            now,
        };
        let new = aud.check(point, &cx);
        self.telemetry.audit_violations += new;
        self.telemetry.audit.record(t0.elapsed());
    }

    /// LP restart counters across everything this instance solved: all SAM
    /// sessions (live and retired) plus the PC's offline solves. The warm
    /// fraction is the headline number — it is the share of LP solves that
    /// reused a previous basis instead of starting cold.
    pub fn lp_stats(&self) -> SessionStats {
        let mut s = self.lp_stats;
        if let Some(sess) = &self.sam {
            s.merge(sess.lp().stats());
        }
        s
    }

    /// RA, step 1 against *live* state: the [`Sequencer`]'s re-quote for
    /// tickets whose snapshot menu went stale mid-batch, counted like any
    /// sequenced quote plus the requote counter. External quoting goes
    /// through [`Pretium::snapshot`].
    pub(crate) fn requote(&mut self, params: &RequestParams) -> PriceMenu {
        let t0 = Instant::now();
        let menu = price_menu(&self.net, &self.state, &self.path_cache, self.horizon, params);
        self.telemetry.quotes_requoted += 1;
        self.count_quote(&menu, t0.elapsed());
        menu
    }

    /// Count one sequenced quote that took `elapsed` (DESIGN.md §15).
    pub(crate) fn count_quote(&mut self, menu: &PriceMenu, elapsed: Duration) {
        self.telemetry.quotes_empty += u64::from(menu.is_empty());
        self.telemetry.quote.record(elapsed);
    }

    /// RA, step 2: the customer accepts `units` off the quoted menu. The
    /// preliminary schedule (the menu's cheapest slots) is reserved, the
    /// payment `p(units)` is locked in, and the marginal price becomes the
    /// contract's value proxy `λ`.
    ///
    /// Returns `None` when `units` is zero/negative (customer walked
    /// away) or not finite (NaN or `∞` has no price to lock in), no route
    /// exists, or the menu cannot back a single unit — an empty menu has
    /// no finite price for any quantity, so booking it would record
    /// `payment = λ = ∞` and poison every downstream sum.
    pub fn accept(
        &mut self,
        params: &RequestParams,
        menu: &PriceMenu,
        units: f64,
    ) -> Option<ContractId> {
        let t0 = Instant::now();
        if !units.is_finite() || units <= 1e-9 || menu.capacity_bound() <= 1e-9 {
            self.telemetry.accepts_rejected += 1;
            self.telemetry.accept.record(t0.elapsed());
            return None;
        }
        let paths = self.path_cache.paths(&self.net, params.src, params.dst);
        if paths.is_empty() {
            self.telemetry.accepts_rejected += 1;
            self.telemetry.accept.record(t0.elapsed());
            return None;
        }
        let guaranteed = units.min(menu.capacity_bound());
        let allocs = menu.allocations_for(guaranteed);
        self.bump_epoch();
        let state = writable(&mut self.state, &mut self.telemetry.state_copies);
        let plan =
            reserve_clamped(state, &paths, allocs.iter().map(|a| (a.path_idx, a.t, a.units)));
        // The menu was built against this very state, so the clamp only
        // shaved float noise (no slot gains, so the total bounds each).
        debug_assert!({
            let asked: f64 = allocs.iter().map(|a| a.units).sum();
            let planned: f64 = plan.iter().map(|&(_, _, u)| u).sum();
            (asked - planned).abs() < 1e-6 * (1.0 + asked)
        });
        let payment = menu.price(units);
        let lambda = menu.marginal((units - 1e-9).max(0.0));
        debug_assert!(payment.is_finite(), "non-empty menu priced {units} units at {payment}");
        debug_assert!(lambda.is_finite(), "non-empty menu has non-finite marginal {lambda}");
        let id = ContractId(self.contracts.len());
        self.contracts.push(Contract {
            params: params.clone(),
            purchased: units,
            guaranteed,
            payment,
            lambda,
            delivered: 0.0,
            waived: 0.0,
            plan,
        });
        self.contract_paths.push(paths);
        self.telemetry.accepts_admitted += 1;
        self.telemetry.accept.record(t0.elapsed());
        self.run_audit(AuditPoint::Accept, params.arrival);
        Some(id)
    }

    /// SAM (§4.2): re-optimize the plans of all active contracts from
    /// timestep `now` onward, maximizing Σ λ·X − C(X) subject to the
    /// remaining guarantees. `realized` reports usage already carried in
    /// the current billing window (for the cost proxy).
    ///
    /// Within one billing window successive calls share a live
    /// [`ScheduleSession`]: the step's mutations (executed flows frozen,
    /// capacities refreshed, newly accepted contracts appended) are applied
    /// incrementally and the LP warm-starts from the previous optimal
    /// basis. The session is rebuilt at window boundaries — where realized
    /// usage rolls into the cost proxy's past constants — and when a new
    /// contract moved units at a step the session covers.
    pub fn run_sam(&mut self, now: Timestep, realized: &UsageTracker) -> Result<(), SolveError> {
        if now >= self.horizon {
            self.telemetry.sam_skipped += 1;
            return Ok(());
        }
        let active: Vec<usize> =
            (0..self.contracts.len()).filter(|&i| self.contracts[i].active_at(now)).collect();
        if active.is_empty() {
            self.telemetry.sam_skipped += 1;
            return Ok(());
        }
        let t0 = Instant::now();
        let window = self.grid.window_of(now);
        let faulted = self.state.faulted_at(now);
        if faulted {
            // A degraded SAM step: counted as recovery time, and the
            // window is contaminated for price learning (§4.4).
            self.telemetry.degraded_steps += 1;
            self.fault_windows.insert(window);
        }
        let capacity = |e: EdgeId, t: Timestep| self.state.sellable_capacity(e, t);
        let realized_fn = |e: EdgeId, t: Timestep| realized.at(e, t);
        let history = |from: Timestep| {
            let joiners = active.iter().filter(|&i| !self.sam_members.contains(i));
            let mut plans = joiners.flat_map(|&i| &self.contracts[i].plan);
            plans.any(|&(_, t, _)| (from..now).contains(&t))
        };
        let mut sess = match self.sam.take() {
            Some(s) if self.grid.window_of(s.from()) == window && !history(s.from()) => s,
            stale => {
                // Another window's session, or one a joiner moved units in
                // (rebuilt from `now`, it reads them from `realized`): bank
                // its counters, build anew.
                if let Some(old) = stale {
                    self.lp_stats.merge(old.lp().stats());
                }
                let jobs: Vec<Job> = active.iter().map(|&i| self.job_for(i, now)).collect();
                // The session horizon runs to the end of the simulation, not
                // just to the latest deadline: per-job variables are bounded
                // by deadlines anyway, and no later deadline forces a rebuild.
                let problem = ScheduleProblem {
                    net: &self.net,
                    grid: &self.grid,
                    from: now,
                    to: self.horizon,
                    jobs: &jobs,
                    capacity: &capacity,
                    realized: &realized_fn,
                    topk: self.cfg.topk,
                    cost_scale: self.cfg.cost_scale,
                };
                self.sam_members = active.iter().copied().collect();
                ScheduleSession::new(&problem)
            }
        };
        // Freeze the steps executed since the last run, then append
        // contracts accepted in the meantime, with their remaining amounts.
        sess.advance_to(now);
        for &i in &active {
            if self.sam_members.insert(i) {
                sess.add_job(self.job_for(i, now));
            }
        }
        // Configured kernel tuning, plus the solver-pressure iteration cap
        // when that fault (§4.4) is injected.
        let opts = self.sam_opts();
        const SHORT_TOL: f64 = 1e-6;
        // Solve, then walk the fallback chain (§4.4) while the guarantee LP
        // is uncoverable — even with rerouting, the degraded capacities
        // cannot serve every admitted guarantee. Shed the lowest-λ short
        // contract wholly while several are short; when one remains, relax
        // it by exactly its shortfall. Every waiver books a λ·units penalty
        // in the ledger and lowers the LP's guarantee row, so the re-solve
        // (warm, RHS-only) redistributes capacity to the survivors. A
        // degraded step is counted once, however many re-solves it takes.
        let mut degraded = false;
        let mut handled: HashSet<usize> = HashSet::default();
        let sol = 'solve: loop {
            let sol = match sess.solve_step_with(&self.net, &capacity, &realized_fn, &opts) {
                Ok(sol) => sol,
                Err(err) => {
                    // Retire the failed session (keeping its counters); the
                    // next SAM run rebuilds from scratch.
                    self.lp_stats.merge(sess.lp().stats());
                    if matches!(err, SolveError::IterationLimit { .. })
                        && self.solver_pressure.is_some()
                    {
                        // Degraded compute, not a bug: keep the previous
                        // plans and reservations (stale but feasible) and
                        // move on.
                        self.telemetry.sam_degradations += u64::from(!degraded);
                        self.telemetry.sam.record(t0.elapsed());
                        return Ok(());
                    }
                    return Err(err);
                }
            };
            if !degraded && sol.max_shortfall() > SHORT_TOL {
                self.telemetry.sam_shortfalls += 1;
                self.telemetry.sam_degradations += 1;
                degraded = true;
            }
            // The next waiver that takes, or the solution when none is left.
            loop {
                let short: Vec<(usize, f64)> = sol
                    .shortfall
                    .iter()
                    .enumerate()
                    .filter(|&(j, &s)| s > SHORT_TOL && !handled.contains(&j))
                    .map(|(j, &s)| (j, s))
                    .collect();
                // The lowest-λ short contract, then the lowest job index.
                let contract = |j: usize| sess.jobs()[j].key;
                let lambda = |j: usize| self.contracts[contract(j)].lambda;
                let Some(&(j, s)) = short
                    .iter()
                    .min_by(|a, b| lambda(a.0).total_cmp(&lambda(b.0)).then(a.0.cmp(&b.0)))
                else {
                    break 'solve sol;
                };
                let i = contract(j);
                let remaining = self.contracts[i].guarantee_remaining();
                let (units, kind) = if short.len() > 1 {
                    (remaining, DegradationKind::Shed)
                } else {
                    (s.min(remaining), DegradationKind::Relaxed)
                };
                handled.insert(j);
                let waived = sess.relax_guarantee(j, units);
                if waived <= 0.0 {
                    continue;
                }
                self.contracts[i].waived += waived;
                let penalty = self.contracts[i].lambda * waived;
                self.ledger.record(ContractId(i), now, kind, waived, penalty);
                match kind {
                    DegradationKind::Shed => self.telemetry.guarantees_shed += 1,
                    DegradationKind::Relaxed => self.telemetry.guarantees_relaxed += 1,
                }
                break;
            }
        };
        self.audit_lp(AuditPoint::Sam, now, &sess);
        // Plan snapshot for the rerouted-units metric (§4.4): how much
        // previously planned volume had to move off its (path, step) slot.
        let old_plans: Vec<Vec<(usize, Timestep, f64)>> = if faulted {
            sess.jobs()
                .iter()
                .map(|job| {
                    let plan = &self.contracts[job.key].plan;
                    plan.iter().filter(|&&(_, t, _)| t >= now).copied().collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        // Install the new plans. The extraction excludes frozen past
        // steps, so plans contain only future flows; session jobs beyond
        // the active set (contracts that completed mid-window) simply get
        // empty plans. The LP respects capacities up to its own tolerance,
        // so the clamp only shaves float noise.
        self.bump_epoch();
        let state = writable(&mut self.state, &mut self.telemetry.state_copies);
        state.clear_reservations_from(now);
        for (job, flows) in sess.jobs().iter().zip(&sol.flows) {
            self.contracts[job.key].plan =
                reserve_clamped(state, &job.paths, flows.iter().copied());
        }
        if faulted {
            let mut moved = 0.0;
            for (job, old_plan) in sess.jobs().iter().zip(&old_plans) {
                let mut slots: HashMap<(usize, Timestep), f64> = HashMap::default();
                for &(pi, t, u) in old_plan {
                    *slots.entry((pi, t)).or_insert(0.0) += u;
                }
                for &(pi, t, u) in &self.contracts[job.key].plan {
                    if let Some(v) = slots.get_mut(&(pi, t)) {
                        *v -= u;
                    }
                }
                moved += slots.values().map(|v| v.max(0.0)).sum::<f64>();
            }
            self.telemetry.rerouted_units += moved;
        }
        self.sam = Some(sess);
        self.telemetry.sam.record(t0.elapsed());
        self.run_audit(AuditPoint::Sam, now);
        Ok(())
    }

    /// The SAM job of contract `i` as of timestep `now`: marginal accepted
    /// price as value proxy, remaining guarantee and demand as bounds.
    fn job_for(&self, i: usize, now: Timestep) -> Job {
        let c = &self.contracts[i];
        Job::new(
            i,
            Arc::clone(&self.contract_paths[i]),
            c.params.start.max(now),
            c.params.deadline,
            c.lambda,
            c.guarantee_remaining(),
            c.demand_remaining(),
        )
    }

    /// Execute the planned flows of timestep `now`: usage is recorded and
    /// contract `delivered` counters advance. Returns the total units
    /// moved.
    pub fn execute_step(&mut self, now: Timestep, usage: &mut UsageTracker) -> f64 {
        let t0 = Instant::now();
        let mut total = 0.0;
        for (i, c) in self.contracts.iter_mut().enumerate() {
            for &(pi, t, units) in &c.plan {
                if t != now {
                    continue;
                }
                for &e in self.contract_paths[i][pi].edges() {
                    usage.record(e, now, units);
                }
                c.delivered += units;
                total += units;
            }
        }
        self.telemetry.units_executed += total;
        self.telemetry.execute.record(t0.elapsed());
        if self.state.faulted_at(now) {
            self.fault_windows.insert(self.grid.window_of(now));
        }
        self.run_audit(AuditPoint::Execute, now);
        total
    }

    /// PC (§4.3): at the start of a window, solve the offline welfare LP
    /// over the window that just ended and set future prices from its
    /// capacity duals, floored at per-edge marginal cost.
    pub fn run_pc(&mut self, now: Timestep) -> Result<(), SolveError> {
        debug_assert_eq!(self.grid.step_in_window(now), 0, "PC runs at window starts");
        let w_now = self.grid.window_of(now);
        if w_now == 0 {
            return Ok(());
        }
        let t0 = Instant::now();
        // §4.4 frozen prices: a window in which links were degraded
        // reflects the broken topology's scarcity, not demand — duals
        // learned from it would poison future quotes. Keep the previous
        // prices until an uncontaminated window is available.
        if self.fault_windows.contains(&(w_now - 1)) {
            self.telemetry.pc_freezes += 1;
            return Ok(());
        }
        let prev_start = self.grid.window_start(w_now - 1);
        // Jobs: every contract whose transfer window intersects the
        // previous window, with the marginal accepted price as its value.
        // Crucially the job carries the request's *full* demand, not just
        // the purchased amount: units a customer declined at the margin are
        // worth ≈λ, and it is exactly this excess demand that makes
        // hindsight capacity rows bind and their duals (the new prices)
        // rise on congested links — the self-correcting loop of §4.3.
        let jobs: Vec<Job> = self
            .contracts
            .iter()
            .enumerate()
            .filter(|(_, c)| c.params.start < now && c.params.deadline >= prev_start)
            .map(|(i, c)| {
                Job::new(
                    i,
                    Arc::clone(&self.contract_paths[i]),
                    c.params.start.max(prev_start),
                    c.params.deadline.min(now - 1),
                    c.lambda,
                    0.0,
                    c.params.demand.max(c.purchased),
                )
            })
            .collect();
        if jobs.is_empty() {
            return Ok(());
        }
        let state = &self.state;
        let capacity = |e: EdgeId, t: Timestep| state.sellable_capacity(e, t);
        let zero = |_: EdgeId, _: Timestep| 0.0;
        let problem = ScheduleProblem {
            net: &self.net,
            grid: &self.grid,
            from: prev_start,
            to: now,
            jobs: &jobs,
            capacity: &capacity,
            realized: &zero,
            topk: self.cfg.topk,
            cost_scale: self.cfg.cost_scale,
        };
        // Every row that can bind and every cost encoding go in before the
        // first solve, so PC is one cold round instead of a lazy round
        // followed by a long dual repair of the rows it appended.
        let mut sess = ScheduleSession::new(&problem);
        sess.materialize_contested(&self.net, &capacity, &zero);
        sess.solve_step_with(&self.net, &capacity, &zero, &self.solve_opts())?;
        self.lp_stats.merge(sess.lp().stats());
        self.audit_lp(AuditPoint::Pc, now, &sess);
        // The previous window's pattern is carried into the future. Full
        // dual price: congestion shadow price plus marginal percentile cost
        // (C_e/k on the window's top-k steps).
        self.write_prices(now, |e, s| sess.price(e, prev_start + s));
        // The sample covers the whole window, dropping its session too.
        drop(sess);
        self.telemetry.pc.record(t0.elapsed());
        self.run_audit(AuditPoint::Pc, now);
        Ok(())
    }

    /// Inject a fault: remove `fraction` of an edge's capacity from the
    /// sellable pool over `[from, to)` (§4.4). A fraction of 1.0 models a
    /// full link failure; `fraction` is clamped to `[0, 1]` and NaN removes
    /// nothing. Losses compound with any existing degradation
    /// (the stricter health wins); the window containing `from` is marked
    /// fault-contaminated, and subsequent SAM/execute steps extend the
    /// marking while the fault persists.
    pub fn inject_capacity_loss(&mut self, e: EdgeId, from: Timestep, to: Timestep, fraction: f64) {
        self.bump_epoch();
        let retained = if fraction.is_nan() { 1.0 } else { 1.0 - fraction.clamp(0.0, 1.0) };
        let state = writable(&mut self.state, &mut self.telemetry.state_copies);
        for t in from..to.min(self.horizon) {
            let h = state.health(e, t).min(retained);
            state.set_health(e, t, h);
        }
        if from < self.horizon {
            self.fault_windows.insert(self.grid.window_of(from));
        }
    }

    /// Undo a capacity loss: restore full health on `(e, t)` for
    /// `t ∈ [from, to)` — fault recovery (§4.4). Windows already marked
    /// contaminated stay marked; the fault did happen in them.
    pub fn restore_capacity(&mut self, e: EdgeId, from: Timestep, to: Timestep) {
        self.bump_epoch();
        let state = writable(&mut self.state, &mut self.telemetry.state_copies);
        for t in from..to.min(self.horizon) {
            state.set_health(e, t, 1.0);
        }
    }

    /// Sum of all locked-in payments.
    pub fn total_payments(&self) -> f64 {
        self.contracts.iter().map(|c| c.payment).sum()
    }

    /// Override the internal price of `(e, t)`. Used by experiments that
    /// study externally chosen price patterns (e.g. the Figure 2 worked
    /// example) — normal operation lets the price computer manage prices.
    pub fn set_price(&mut self, e: EdgeId, t: Timestep, p: f64) {
        self.bump_epoch();
        writable(&mut self.state, &mut self.telemetry.state_copies).set_price(e, t, p);
    }

    /// Seed every window's prices from a per-(edge, step-in-window)
    /// pattern, flooring at the per-edge price floor: `pattern` is called
    /// once per (edge, step-in-window), and each edge's floored window is
    /// written over the whole horizon at once. Used to warm-start a run
    /// from a previous day's learned prices (the production system would
    /// have weeks of history; a fresh simulation has none).
    pub fn seed_prices(&mut self, pattern: impl Fn(EdgeId, usize) -> f64) {
        self.write_prices(0, pattern);
    }

    /// The one price writer: floor `pattern(e, s)` at `e`'s price floor
    /// once per (edge, step-in-window) and write the window to every step
    /// `t ≥ from` with step-in-window `s`, one
    /// [`NetworkState::set_price_pattern`] per edge.
    fn write_prices(&mut self, from: Timestep, pattern: impl Fn(EdgeId, usize) -> f64) {
        self.bump_epoch();
        let state = writable(&mut self.state, &mut self.telemetry.state_copies);
        let mut window = Vec::with_capacity(self.grid.steps_per_window);
        for e in self.net.edge_ids() {
            let floor = self.floors[e.index()];
            window.clear();
            window.extend((0..self.grid.steps_per_window).map(|s| pattern(e, s).max(floor)));
            state.set_price_pattern(e, from, &window);
        }
    }
}

/// The state, for writing. Copies it first when someone else still holds
/// it — a thread still quoting off a retired snapshot, a caller keeping one
/// across a mutation — so a held snapshot never observes a write; counted
/// in [`Telemetry::state_copies`]. Once the published snapshot is retired
/// and no one else holds one, this is a reference-count check and the
/// write lands in place. (The count is read before `make_mut` decides: a
/// holder letting go in between is counted as a copy that did not happen,
/// never the other way round.)
fn writable<'a>(state: &'a mut Arc<NetworkState>, copies: &mut u64) -> &'a mut NetworkState {
    *copies += u64::from(Arc::strong_count(state) > 1);
    Arc::make_mut(state)
}

/// Reserve each `(path index, t, units)` of `flows` on every edge of its
/// path in `paths`, clamped to what the path's tightest link can still
/// carry at `t`, and return what was reserved as a plan (a slot clamped to
/// nothing is left out). Planning the unclamped units would let
/// `execute_step` bill usage the links never set aside.
fn reserve_clamped(
    state: &mut NetworkState,
    paths: &[Path],
    flows: impl ExactSizeIterator<Item = (usize, Timestep, f64)>,
) -> Vec<(usize, Timestep, f64)> {
    let mut plan = Vec::with_capacity(flows.len());
    for (pi, t, units) in flows {
        let path = &paths[pi];
        let room =
            path.edges().iter().map(|&e| state.available(e, t)).fold(f64::INFINITY, f64::min);
        let take = units.min(room);
        if take <= 1e-12 {
            continue;
        }
        for &e in path.edges() {
            state.reserve(e, t, take);
        }
        plan.push((pi, t, take));
    }
    plan
}

/// Per-edge price floor: the configured constant plus, for percentile
/// links, the *average-cost* share of a unit riding a flat usage profile
/// (`C_e / W`). The marginal cost of a unit below the current 95th
/// percentile is zero, but quoting below average cost would leave the
/// provider unable to recover its percentile bill — the floor keeps every
/// pct-crossing unit paying at least its flat share, while congestion and
/// peak-riding surcharges enter through the dual prices.
pub fn price_floor(net: &Network, grid: &TimeGrid, cfg: &PretiumConfig, e: EdgeId) -> f64 {
    let flat = net.edge(e).cost.unit_cost() * cfg.cost_scale / grid.steps_per_window as f64;
    cfg.price_floor + flat
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretium_lp::Var;
    use pretium_net::{LinkCost, Region};
    use pretium_workload::RequestId;

    /// A contract accepted after its window's SAM session was built, which
    /// moves units under its preliminary plan before the next `run_sam`,
    /// makes that run rebuild the session from `now`: the units enter the
    /// cost proxy through `realized`, as the rebuilt session's fixed
    /// `past_…` constants (the runner runs SAM every step, so its contracts
    /// never bring any).
    #[test]
    fn executed_units_of_a_late_contract_enter_the_sam_session() {
        let mut net = Network::new();
        let a = net.add_node("A", Region::NorthAmerica);
        let b = net.add_node("B", Region::Europe);
        net.add_edge(a, b, 10.0, LinkCost::percentile(1.0));
        let cfg = PretiumConfig { highpri_fraction: 0.0, ..Default::default() };
        let mut pretium = Pretium::new(net, TimeGrid::new(8, 30), 8, cfg);
        let request = |id: u64, demand: f64| RequestParams {
            id: RequestId(id),
            src: a,
            dst: b,
            demand,
            arrival: 0,
            start: 0,
            deadline: 7,
        };
        let book = |pretium: &mut Pretium, params: &RequestParams| {
            let menu = pretium.snapshot().ticket(params).menu;
            pretium.accept(params, &menu, params.demand).expect("booked")
        };
        book(&mut pretium, &request(0, 5.0));
        let mut usage = UsageTracker::new(pretium.network().num_edges(), 8);
        pretium.run_sam(0, &usage).unwrap();
        // Accepted after the window's session was built: it does not join
        // it until the next SAM run, and executes its preliminary plan
        // meanwhile. It needs more than two steps' capacity, so it is
        // still active then.
        let late = book(&mut pretium, &request(1, 40.0));
        for now in 0..2 {
            pretium.execute_step(now, &mut usage);
        }
        let executed: Vec<_> =
            pretium.contract(late).plan.iter().filter(|&&(_, t, _)| t < 2).copied().collect();
        assert!(!executed.is_empty(), "the preliminary plan moved nothing before step 2");
        pretium.run_sam(2, &usage).unwrap();
        let sess = pretium.sam.as_ref().expect("the window's session");
        assert_eq!(sess.from(), 2, "the late contract's history rebuilds the session");
        let model = sess.lp().model();
        let names: Vec<String> =
            (0..model.num_vars()).map(|j| model.var_name(Var::from_index(j))).collect();
        // Flows, shortfalls and the cost proxy's columns: no column holds
        // executed usage.
        let kinds = ["x_", "short_", "past_", "u_", "c_"];
        let other = names.iter().find(|name| !kinds.iter().any(|k| name.starts_with(k)));
        assert_eq!(other, None, "{names:?}");
        for &(pi, t, units) in &executed {
            for &e in pretium.routes(late)[pi].edges() {
                let name = format!("past_{e}_{t}");
                let c = names.iter().position(|n| *n == name);
                let c = Var::from_index(c.unwrap_or_else(|| panic!("no constant {name}")));
                let realized = usage.at(e, t);
                assert_eq!(model.bounds(c), (realized, realized), "{name} is the realized usage");
                assert!(realized >= units, "{name}: {realized} leaves out the late {units} units");
            }
        }
    }
}

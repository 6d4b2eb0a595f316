//! Network-state invariant auditing (the correctness counterpart of §5's
//! incentive guarantees).
//!
//! The RA, SAM and PC all mutate one shared [`NetworkState`], and the
//! paper's service guarantees rest on invariants none of the modules can
//! verify locally: reservations must fit under the sellable capacity,
//! every contract's plan must be backed by reservations, money must stay
//! finite, prices must respect the per-edge floor, and SAM must keep
//! planning enough to cover each outstanding guarantee. The [`Auditor`]
//! sweeps the full state after each module checkpoint and *records*
//! violations rather than panicking: graceful degradation (§4.4 — e.g. a
//! guarantee that becomes uncoverable after a link failure) is a reportable
//! condition, not a crash.
//!
//! Auditing is always on in debug/test builds and opt-in via
//! [`crate::PretiumConfig::audit`] in release builds, so the evaluation
//! replay can run audited end-to-end.

use crate::contract::{Contract, ContractId};
use crate::degradation::ViolationLedger;
use crate::state::{NetworkState, RESERVE_REL_TOL};
use pretium_lp::validate::check_optimal;
use pretium_lp::SolverSession;
use pretium_net::{EdgeId, Network, Path, Timestep};
use rand::DetHashMap as HashMap;
use std::fmt;
use std::sync::Arc;

/// KKT tolerance of invariant (7): an installed LP optimum must pass
/// `validate::check_optimal` at this tolerance.
pub const LP_CERT_TOL: f64 = 1e-7;

/// Which module checkpoint triggered an audit sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditPoint {
    /// After the RA booked a contract.
    Accept,
    /// After SAM installed re-optimized plans.
    Sam,
    /// After the PC rewrote future prices.
    Pc,
    /// After a timestep's planned flows executed.
    Execute,
}

impl fmt::Display for AuditPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AuditPoint::Accept => "accept",
            AuditPoint::Sam => "sam",
            AuditPoint::Pc => "pc",
            AuditPoint::Execute => "execute",
        };
        f.write_str(s)
    }
}

/// The invariant classes the auditor verifies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// (1) `reserved(e, t) ≤ sellable_capacity(e, t)` at every link-step.
    LinkOversubscription,
    /// (2) Every contract's planned flows are fully backed by reservations.
    UnbackedPlan,
    /// (3) `delivered ≤ purchased + ε`, `guaranteed ≤ purchased + ε`, and
    /// all payments / λ / planned units finite and non-negative.
    ContractAccounting,
    /// (4) Once the PC has run, every future price sits at or above the
    /// per-edge floor.
    PriceFloor,
    /// (5) For every active contract, delivered plus planned units cover
    /// the (effective, post-waiver) guarantee.
    GuaranteeCoverage,
    /// (6) Degradation accounting (§4.4): each contract's waived units
    /// match its violation-ledger total, and a contract past its deadline
    /// has every guaranteed unit either delivered or waived with a booked
    /// penalty — a missed guarantee that never reached the ledger means
    /// the run silently dropped a promise.
    GuaranteeLedger,
    /// (7) Every LP optimum SAM or the PC installs passes
    /// `validate::check_optimal` at [`LP_CERT_TOL`] against its model
    /// alone: primal and dual feasibility, complementary slackness and a
    /// closed duality gap, recomputed from the model's rows — a certificate
    /// independent of the solver's own bookkeeping (the carried restart's
    /// change log and the passes that read it, DESIGN.md §23).
    LpCertificate,
}

impl Invariant {
    /// Stable index used for per-invariant counters.
    pub const COUNT: usize = 7;

    fn index(self) -> usize {
        match self {
            Invariant::LinkOversubscription => 0,
            Invariant::UnbackedPlan => 1,
            Invariant::ContractAccounting => 2,
            Invariant::PriceFloor => 3,
            Invariant::GuaranteeCoverage => 4,
            Invariant::GuaranteeLedger => 5,
            Invariant::LpCertificate => 6,
        }
    }

    /// All invariant classes, in counter order.
    pub fn all() -> [Invariant; Invariant::COUNT] {
        [
            Invariant::LinkOversubscription,
            Invariant::UnbackedPlan,
            Invariant::ContractAccounting,
            Invariant::PriceFloor,
            Invariant::GuaranteeCoverage,
            Invariant::GuaranteeLedger,
            Invariant::LpCertificate,
        ]
    }

    pub fn name(self) -> &'static str {
        match self {
            Invariant::LinkOversubscription => "link-oversubscription",
            Invariant::UnbackedPlan => "unbacked-plan",
            Invariant::ContractAccounting => "contract-accounting",
            Invariant::PriceFloor => "price-floor",
            Invariant::GuaranteeCoverage => "guarantee-coverage",
            Invariant::GuaranteeLedger => "guarantee-ledger",
            Invariant::LpCertificate => "lp-certificate",
        }
    }
}

/// One recorded invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    pub point: AuditPoint,
    /// Simulation timestep of the audit sweep that caught it.
    pub now: Timestep,
    pub invariant: Invariant,
    /// Human-readable specifics (which link/contract, by how much).
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[t={} after {}] {}: {}",
            self.now,
            self.point,
            self.invariant.name(),
            self.detail
        )
    }
}

/// Everything an audit sweep reads. Borrowed from the running
/// [`crate::Pretium`] instance (the auditor itself holds no state
/// references, so it can also be driven standalone in tests).
pub struct AuditContext<'a> {
    pub net: &'a Network,
    pub state: &'a NetworkState,
    pub contracts: &'a [Contract],
    /// Admissible route set per contract (parallel to `contracts`).
    pub contract_paths: &'a [Arc<[Path]>],
    /// Per-edge price floor (indexed by `EdgeId::index`).
    pub floors: &'a [f64],
    /// Whether the price computer has produced prices yet (the floor
    /// invariant only binds after the first PC run; cold-start and
    /// manually-seeded prices are exempt).
    pub pc_has_run: bool,
    /// The degradation ledger, when the caller keeps one: the auditor
    /// cross-checks each contract's waived units against it. `None` skips
    /// the ledger-total match (standalone drives without a ledger) but the
    /// no-silent-drop deadline check still runs on `Contract::waived`.
    pub ledger: Option<&'a ViolationLedger>,
    /// Current simulation timestep.
    pub now: Timestep,
}

/// Sweeps [`NetworkState`] invariants at module checkpoints and records
/// violations. Never panics — callers decide whether a dirty report is
/// fatal.
#[derive(Debug, Clone)]
pub struct Auditor {
    /// Relative float tolerance (matches the reservation assert in
    /// [`NetworkState::reserve`]).
    rel_tol: f64,
    /// Absolute slack for comparisons around zero.
    abs_tol: f64,
    /// Cap on stored [`Violation`] records (counters keep exact totals).
    max_recorded: usize,
    checks: u64,
    total: u64,
    by_invariant: [u64; Invariant::COUNT],
    violations: Vec<Violation>,
}

impl Default for Auditor {
    fn default() -> Self {
        Auditor {
            rel_tol: RESERVE_REL_TOL,
            abs_tol: 1e-6,
            max_recorded: 256,
            checks: 0,
            total: 0,
            by_invariant: [0; Invariant::COUNT],
            violations: Vec::new(),
        }
    }
}

impl Auditor {
    pub fn new() -> Self {
        Auditor::default()
    }

    /// Number of audit sweeps run, plus LP optima certified
    /// ([`Auditor::check_lp`]).
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Total violations found (including any beyond the recording cap).
    pub fn total_violations(&self) -> u64 {
        self.total
    }

    /// Violations of one invariant class.
    pub fn violations_of(&self, inv: Invariant) -> u64 {
        self.by_invariant[inv.index()]
    }

    /// The recorded violation details (capped; see
    /// [`Auditor::total_violations`] for the exact count).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// True when no sweep has found any violation.
    pub fn is_clean(&self) -> bool {
        self.total == 0
    }

    /// Summary rows for table rendering: sweeps, totals, and one row per
    /// invariant class.
    pub fn summary_rows(&self) -> Vec<(String, String)> {
        let mut rows = vec![
            ("audit sweeps".into(), self.checks.to_string()),
            ("violations (total)".into(), self.total.to_string()),
        ];
        for inv in Invariant::all() {
            rows.push((format!("  {}", inv.name()), self.violations_of(inv).to_string()));
        }
        rows
    }

    fn record(&mut self, point: AuditPoint, now: Timestep, invariant: Invariant, detail: String) {
        self.total += 1;
        self.by_invariant[invariant.index()] += 1;
        if self.violations.len() < self.max_recorded {
            self.violations.push(Violation { point, now, invariant, detail });
        }
    }

    /// Run every invariant check against `cx`. Returns the number of new
    /// violations found by this sweep.
    pub fn check(&mut self, point: AuditPoint, cx: &AuditContext<'_>) -> u64 {
        self.checks += 1;
        let before = self.total;
        self.check_oversubscription(point, cx);
        self.check_plan_backing(point, cx);
        self.check_contract_accounting(point, cx);
        self.check_price_floor(point, cx);
        self.check_guarantee_coverage(point, cx);
        self.check_guarantee_ledger(point, cx);
        self.total - before
    }

    /// (7) The optimum `lp` returned last is optimal for its current model
    /// by [`check_optimal`] at [`LP_CERT_TOL`] (none, because the model
    /// moved after that solve, is a violation too). Counts as one check;
    /// returns the number of new violations (0 or 1).
    pub fn check_lp(&mut self, point: AuditPoint, now: Timestep, lp: &SolverSession) -> u64 {
        self.checks += 1;
        let detail = match lp.cached_solution() {
            None => "no current optimum: the model moved after its last solve".to_string(),
            Some(sol) => {
                let bad = check_optimal(lp.model(), sol, LP_CERT_TOL);
                let Some(first) = bad.first() else { return 0 };
                format!("{} KKT violation(s), first: {first:?}", bad.len())
            }
        };
        self.record(point, now, Invariant::LpCertificate, detail);
        1
    }

    /// (1) No link carries more reservations than its sellable capacity.
    fn check_oversubscription(&mut self, point: AuditPoint, cx: &AuditContext<'_>) {
        for e in cx.net.edge_ids() {
            for t in 0..cx.state.horizon() {
                let reserved = cx.state.reserved(e, t);
                let cap = cx.state.sellable_capacity(e, t);
                if reserved > cap * (1.0 + self.rel_tol) + self.abs_tol {
                    self.record(
                        point,
                        cx.now,
                        Invariant::LinkOversubscription,
                        format!("{e} at t={t}: reserved {reserved} > sellable {cap}"),
                    );
                }
            }
        }
    }

    /// (2) Summed over contracts, the planned flows crossing each `(e, t)`
    /// never exceed what is reserved there. Plans may *under*-use
    /// reservations (executed steps keep their reservations around), but a
    /// plan exceeding them means `execute_step` would bill usage the
    /// network never set aside — exactly the accounting bug class this
    /// auditor exists to catch.
    fn check_plan_backing(&mut self, point: AuditPoint, cx: &AuditContext<'_>) {
        let mut planned: HashMap<(EdgeId, Timestep), f64> = HashMap::default();
        for (i, c) in cx.contracts.iter().enumerate() {
            for &(pi, t, units) in &c.plan {
                if units <= 0.0 {
                    continue;
                }
                for &e in cx.contract_paths[i][pi].edges() {
                    *planned.entry((e, t)).or_insert(0.0) += units;
                }
            }
        }
        for (&(e, t), &units) in &planned {
            let reserved = cx.state.reserved(e, t);
            if units > reserved * (1.0 + self.rel_tol) + self.abs_tol {
                self.record(
                    point,
                    cx.now,
                    Invariant::UnbackedPlan,
                    format!("{e} at t={t}: planned {units} > reserved {reserved}"),
                );
            }
        }
    }

    /// (3) Per-contract accounting stays sane and finite.
    fn check_contract_accounting(&mut self, point: AuditPoint, cx: &AuditContext<'_>) {
        for (i, c) in cx.contracts.iter().enumerate() {
            let mut problems: Vec<String> = Vec::new();
            if !(c.payment.is_finite() && c.payment >= 0.0) {
                problems.push(format!("payment {}", c.payment));
            }
            if !(c.lambda.is_finite() && c.lambda >= 0.0) {
                problems.push(format!("lambda {}", c.lambda));
            }
            if c.delivered > c.purchased * (1.0 + self.rel_tol) + self.abs_tol {
                problems.push(format!("delivered {} > purchased {}", c.delivered, c.purchased));
            }
            if c.guaranteed > c.purchased * (1.0 + self.rel_tol) + self.abs_tol {
                problems.push(format!("guaranteed {} > purchased {}", c.guaranteed, c.purchased));
            }
            if c.plan.iter().any(|&(_, _, u)| !u.is_finite() || u < 0.0) {
                problems.push("non-finite or negative planned units".into());
            }
            for p in problems {
                self.record(
                    point,
                    cx.now,
                    Invariant::ContractAccounting,
                    format!("contract {i} ({:?}): {p}", c.params.id),
                );
            }
        }
    }

    /// (4) After the PC has run, future prices respect the per-edge floor.
    fn check_price_floor(&mut self, point: AuditPoint, cx: &AuditContext<'_>) {
        if !cx.pc_has_run {
            return;
        }
        for e in cx.net.edge_ids() {
            let floor = cx.floors[e.index()];
            for t in cx.now..cx.state.horizon() {
                let p = cx.state.price(e, t);
                if p < floor - self.abs_tol {
                    self.record(
                        point,
                        cx.now,
                        Invariant::PriceFloor,
                        format!("{e} at t={t}: price {p} below floor {floor}"),
                    );
                }
            }
        }
    }

    /// (5) Every active contract's *effective* guarantee (original minus
    /// units waived under §4.4 degradation) is covered by what was
    /// delivered plus what remains planned. Delivered units may double-count
    /// plan entries at already-executed steps — that only slackens the
    /// check, never tightens it, so it cannot produce false positives.
    fn check_guarantee_coverage(&mut self, point: AuditPoint, cx: &AuditContext<'_>) {
        for (i, c) in cx.contracts.iter().enumerate() {
            if !c.active_at(cx.now) {
                continue;
            }
            let planned: f64 = c.plan.iter().map(|&(_, _, u)| u).sum();
            let covered = c.delivered + planned;
            let target = c.effective_guarantee();
            if covered < target * (1.0 - self.rel_tol) - self.abs_tol {
                self.record(
                    point,
                    cx.now,
                    Invariant::GuaranteeCoverage,
                    format!(
                        "contract {i} ({:?}): delivered {} + planned {planned} < guaranteed {target}",
                        c.params.id, c.delivered
                    ),
                );
            }
        }
    }

    /// (6) Degradation accounting: `waived` stays within `[0, guaranteed]`
    /// and matches the ledger's per-contract total, and once the deadline
    /// has passed every guaranteed unit is delivered or ledgered — missed
    /// guarantees must never vanish without a penalty record.
    fn check_guarantee_ledger(&mut self, point: AuditPoint, cx: &AuditContext<'_>) {
        for (i, c) in cx.contracts.iter().enumerate() {
            if c.waived < -self.abs_tol
                || c.waived > c.guaranteed * (1.0 + self.rel_tol) + self.abs_tol
            {
                self.record(
                    point,
                    cx.now,
                    Invariant::GuaranteeLedger,
                    format!(
                        "contract {i} ({:?}): waived {} outside [0, guaranteed {}]",
                        c.params.id, c.waived, c.guaranteed
                    ),
                );
            }
            if let Some(ledger) = cx.ledger {
                let booked = ledger.waived_units(ContractId(i));
                if (booked - c.waived).abs() > c.guaranteed.abs() * self.rel_tol + self.abs_tol {
                    self.record(
                        point,
                        cx.now,
                        Invariant::GuaranteeLedger,
                        format!(
                            "contract {i} ({:?}): waived {} != ledger total {booked}",
                            c.params.id, c.waived
                        ),
                    );
                }
            }
            if cx.now > c.params.deadline
                && c.delivered + c.waived < c.guaranteed * (1.0 - self.rel_tol) - self.abs_tol
            {
                self.record(
                    point,
                    cx.now,
                    Invariant::GuaranteeLedger,
                    format!(
                        "contract {i} ({:?}): guarantee missed with no ledger entry — \
                         delivered {} + waived {} < guaranteed {}",
                        c.params.id, c.delivered, c.waived, c.guaranteed
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{Contract, RequestParams};
    use crate::state::PriceBump;
    use pretium_net::{LinkCost, Network, NodeId, Region};
    use pretium_workload::RequestId;

    /// A -> B single edge, capacity 10/step, 4 steps.
    fn world() -> (Network, NetworkState, Vec<Arc<[Path]>>) {
        let mut net = Network::new();
        let a = net.add_node("A", Region::NorthAmerica);
        let b = net.add_node("B", Region::NorthAmerica);
        let e = net.add_edge(a, b, 10.0, LinkCost::owned());
        let state = NetworkState::new(&net, 4, 0.0, PriceBump::default(), |_| 1.0);
        let paths = vec![Arc::from(vec![Path::new(&net, vec![e])])];
        (net, state, paths)
    }

    fn contract(purchased: f64, guaranteed: f64, payment: f64, lambda: f64) -> Contract {
        Contract {
            params: RequestParams {
                id: RequestId(0),
                src: NodeId(0),
                dst: NodeId(1),
                demand: purchased,
                arrival: 0,
                start: 0,
                deadline: 3,
            },
            purchased,
            guaranteed,
            payment,
            lambda,
            delivered: 0.0,
            waived: 0.0,
            plan: Vec::new(),
        }
    }

    fn cx<'a>(
        net: &'a Network,
        state: &'a NetworkState,
        contracts: &'a [Contract],
        paths: &'a [Arc<[Path]>],
        floors: &'a [f64],
    ) -> AuditContext<'a> {
        AuditContext {
            net,
            state,
            contracts,
            contract_paths: paths,
            floors,
            pc_has_run: false,
            ledger: None,
            now: 0,
        }
    }

    #[test]
    fn clean_state_passes_every_check() {
        let (net, mut state, paths) = world();
        let mut c = contract(8.0, 8.0, 8.0, 1.0);
        c.plan = vec![(0, 0, 5.0), (0, 1, 3.0)];
        state.reserve(EdgeId(0), 0, 5.0);
        state.reserve(EdgeId(0), 1, 3.0);
        let contracts = [c];
        let floors = [0.05];
        let mut aud = Auditor::new();
        let new = aud.check(AuditPoint::Accept, &cx(&net, &state, &contracts, &paths, &floors));
        assert_eq!(new, 0, "{:?}", aud.violations());
        assert!(aud.is_clean());
        assert_eq!(aud.checks(), 1);
    }

    #[test]
    fn infinite_payment_is_caught() {
        // The exact state the pre-fix `accept` produced on an empty menu:
        // payment = λ = ∞ booked into the ledger.
        let (net, state, paths) = world();
        let contracts = [contract(5.0, 0.0, f64::INFINITY, f64::INFINITY)];
        let floors = [0.05];
        let mut aud = Auditor::new();
        aud.check(AuditPoint::Accept, &cx(&net, &state, &contracts, &paths, &floors));
        assert_eq!(aud.violations_of(Invariant::ContractAccounting), 2, "{:?}", aud.violations());
        assert!(!aud.is_clean());
    }

    #[test]
    fn unbacked_plan_is_caught() {
        // The pre-fix clamping bug: the plan says 5 units but only 3 were
        // reserved on the link.
        let (net, mut state, paths) = world();
        let mut c = contract(5.0, 5.0, 5.0, 1.0);
        c.plan = vec![(0, 2, 5.0)];
        state.reserve(EdgeId(0), 2, 3.0);
        let contracts = [c];
        let floors = [0.05];
        let mut aud = Auditor::new();
        aud.check(AuditPoint::Sam, &cx(&net, &state, &contracts, &paths, &floors));
        assert_eq!(aud.violations_of(Invariant::UnbackedPlan), 1, "{:?}", aud.violations());
        let v = &aud.violations()[0];
        assert_eq!(v.invariant, Invariant::UnbackedPlan);
        assert!(v.to_string().contains("t=2"), "{v}");
    }

    #[test]
    fn oversubscription_is_caught() {
        let (net, mut state, paths) = world();
        // Legal reservation, then a fault halves the sellable pool under
        // it (the §4.4 scenario an auditor must surface).
        state.reserve(EdgeId(0), 1, 9.0);
        state.set_health(EdgeId(0), 1, 0.5);
        let contracts: [Contract; 0] = [];
        let floors = [0.05];
        let mut aud = Auditor::new();
        aud.check(AuditPoint::Execute, &cx(&net, &state, &contracts, &paths, &floors));
        assert_eq!(aud.violations_of(Invariant::LinkOversubscription), 1);
    }

    #[test]
    fn price_floor_only_binds_after_pc() {
        let (net, mut state, paths) = world();
        state.set_price(EdgeId(0), 2, 0.0);
        let contracts: [Contract; 0] = [];
        let floors = [0.05];
        let mut aud = Auditor::new();
        let mut context = cx(&net, &state, &contracts, &paths, &floors);
        aud.check(AuditPoint::Pc, &context);
        assert!(aud.is_clean(), "floor must not bind before the first PC run");
        context.pc_has_run = true;
        aud.check(AuditPoint::Pc, &context);
        assert_eq!(aud.violations_of(Invariant::PriceFloor), 1);
    }

    #[test]
    fn guarantee_coverage_flags_underplanned_contract() {
        let (net, mut state, paths) = world();
        let mut c = contract(10.0, 10.0, 10.0, 1.0);
        c.delivered = 2.0;
        c.plan = vec![(0, 1, 3.0)]; // 2 + 3 < 10 guaranteed
        state.reserve(EdgeId(0), 1, 3.0);
        let contracts = [c];
        let floors = [0.05];
        let mut aud = Auditor::new();
        aud.check(AuditPoint::Sam, &cx(&net, &state, &contracts, &paths, &floors));
        assert_eq!(aud.violations_of(Invariant::GuaranteeCoverage), 1);
        // Past-deadline contracts are terminal outcomes, not planning bugs.
        let mut done = contract(10.0, 10.0, 10.0, 1.0);
        done.params.deadline = 0;
        done.delivered = 2.0;
        let contracts = [done];
        let mut aud2 = Auditor::new();
        let mut context = cx(&net, &state, &contracts, &paths, &floors);
        context.now = 3;
        aud2.check(AuditPoint::Execute, &context);
        assert_eq!(aud2.violations_of(Invariant::GuaranteeCoverage), 0);
    }

    #[test]
    fn waived_guarantee_passes_coverage_when_ledgered() {
        use crate::degradation::{DegradationKind, ViolationLedger};
        let (net, state, paths) = world();
        // Guarantee 10, delivered 4, waived 6: effective guarantee is
        // covered, deadline passed, ledger matches — clean.
        let mut c = contract(10.0, 10.0, 10.0, 2.0);
        c.delivered = 4.0;
        c.waived = 6.0;
        let mut ledger = ViolationLedger::new();
        ledger.record(ContractId(0), 1, DegradationKind::Shed, 6.0, 12.0);
        let contracts = [c];
        let floors = [0.05];
        let mut aud = Auditor::new();
        let mut context = cx(&net, &state, &contracts, &paths, &floors);
        context.ledger = Some(&ledger);
        context.now = 4; // past deadline 3
        aud.check(AuditPoint::Execute, &context);
        assert!(aud.is_clean(), "{:?}", aud.violations());
    }

    #[test]
    fn silently_dropped_guarantee_is_caught() {
        let (net, state, paths) = world();
        // Deadline passed with 4/10 delivered and nothing waived: a missed
        // guarantee that never reached the ledger.
        let mut c = contract(10.0, 10.0, 10.0, 2.0);
        c.delivered = 4.0;
        let contracts = [c];
        let floors = [0.05];
        let mut aud = Auditor::new();
        let mut context = cx(&net, &state, &contracts, &paths, &floors);
        context.now = 4;
        aud.check(AuditPoint::Execute, &context);
        assert_eq!(aud.violations_of(Invariant::GuaranteeLedger), 1, "{:?}", aud.violations());
        assert!(aud.violations()[0].to_string().contains("no ledger entry"));
    }

    #[test]
    fn waived_units_must_match_ledger_total() {
        use crate::degradation::{DegradationKind, ViolationLedger};
        let (net, state, paths) = world();
        let mut c = contract(10.0, 10.0, 10.0, 2.0);
        c.delivered = 5.0; // effective guarantee stays covered
        c.waived = 5.0;
        let mut ledger = ViolationLedger::new();
        ledger.record(ContractId(0), 1, DegradationKind::Relaxed, 2.0, 4.0);
        let contracts = [c];
        let floors = [0.05];
        let mut aud = Auditor::new();
        let mut context = cx(&net, &state, &contracts, &paths, &floors);
        context.ledger = Some(&ledger);
        aud.check(AuditPoint::Sam, &context);
        assert_eq!(aud.violations_of(Invariant::GuaranteeLedger), 1, "{:?}", aud.violations());
        assert!(aud.violations()[0].to_string().contains("ledger total"));
    }

    /// Invariant (7): a solved session's optimum certifies; one whose
    /// model moved since its solve has no optimum to certify, which is a
    /// violation. Each call counts as one check.
    #[test]
    fn lp_certificate_checks_the_optimum_against_its_model() {
        use pretium_lp::{Cmp, Model, Sense, SolveOptions};
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_nonneg("x", 3.0);
        let y = m.add_nonneg("y", 2.0);
        let cap = m.add_row("cap", x + y, Cmp::Le, 4.0);
        let mut lp = SolverSession::new(m);
        lp.solve(&SolveOptions::default()).unwrap();
        let mut aud = Auditor::new();
        assert_eq!(aud.check_lp(AuditPoint::Sam, 0, &lp), 0);
        lp.model_mut().set_rhs(cap, 5.0);
        assert_eq!(aud.check_lp(AuditPoint::Pc, 1, &lp), 1, "the model moved");
        lp.solve(&SolveOptions::default()).unwrap();
        assert_eq!(aud.check_lp(AuditPoint::Sam, 2, &lp), 0);
        assert_eq!((aud.checks(), aud.violations_of(Invariant::LpCertificate)), (3, 1));
        assert!(aud.violations()[0].to_string().contains("lp-certificate"));
    }

    #[test]
    fn recording_cap_keeps_exact_totals() {
        let (net, state, paths) = world();
        let contracts: Vec<Contract> =
            (0..300).map(|_| contract(5.0, 0.0, f64::INFINITY, 1.0)).collect();
        let floors = [0.05];
        let mut aud = Auditor::new();
        aud.check(AuditPoint::Accept, &cx(&net, &state, &contracts, &paths, &floors));
        assert_eq!(aud.total_violations(), 300);
        assert_eq!(aud.violations().len(), 256);
        let rows = aud.summary_rows();
        assert!(rows.iter().any(|(k, v)| k == "violations (total)" && v == "300"));
    }
}

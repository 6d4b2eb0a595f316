//! Output checks, run on one extra, untimed replay with the auditor on.
//! A run that is fast because it admitted or delivered less fails here.

use crate::replay::Rep;
use crate::workloads::{Spec, World};

#[derive(Debug, Clone, Default)]
pub struct Checks {
    pub welfare: f64,
    pub delivered_units: f64,
    pub payments: f64,
    pub capacity_violations: usize,
    /// Contracts past their deadline with a shortfall the violation ledger
    /// does not account for.
    pub guarantee_misses: usize,
    pub audit_checks: u64,
    pub audit_violations: u64,
    /// One line per failed check; empty when the outputs are correct.
    pub failures: Vec<String>,
}

/// The share of the stored reference a replay must reach.
pub const REFERENCE_SHARE: f64 = 0.98;

pub fn check(spec: &Spec, world: &World, rep: &Rep, smoke: bool) -> Checks {
    let sc = &world.scenario;
    let mut c = Checks::default();
    let value: f64 = sc.requests.iter().zip(&rep.delivered).map(|(r, &d)| r.value * d).sum();
    c.welfare = value - rep.usage.total_cost(&sc.net, &sc.grid);
    c.delivered_units = rep.delivered_units();
    c.payments = rep.system.total_payments();
    c.capacity_violations = rep.usage.capacity_violations(&sc.net, 1e-5).len();
    // The horizon has ended, so every contract is past its deadline.
    c.guarantee_misses = rep.system.contracts().iter().filter(|k| !k.guarantee_accounted()).count();
    match rep.system.auditor() {
        Some(a) => {
            c.audit_checks = a.checks();
            c.audit_violations = a.total_violations();
            if c.audit_checks == 0 {
                c.failures.push("the audited replay swept no checkpoint".into());
            }
        }
        None => c.failures.push("the check replay ran without the auditor".into()),
    }
    if c.audit_violations > 0 {
        c.failures.push(format!("{} audit violations", c.audit_violations));
    }
    if c.capacity_violations > 0 {
        c.failures.push(format!("{} (edge, step) slots over capacity", c.capacity_violations));
    }
    if c.guarantee_misses > 0 {
        c.failures.push(format!("{} guarantees missed and not ledgered", c.guarantee_misses));
    }
    let overpaid = sc
        .requests
        .iter()
        .zip(&rep.payments)
        .filter(|(r, &paid)| paid > r.value * r.demand + 1e-6)
        .count();
    if overpaid > 0 {
        c.failures.push(format!("{overpaid} requests paid more than value x demand"));
    }
    if rep.shoppers_admitted > 0 {
        c.failures.push(format!("{} window shoppers were admitted", rep.shoppers_admitted));
    }
    if !rep.admitted.iter().any(|&a| a) || c.delivered_units <= 0.0 {
        c.failures.push("nothing was admitted or nothing was delivered".into());
    }
    // The smoke worlds have no stored reference.
    if !smoke {
        let (ref_welfare, ref_units) = spec.reference;
        if c.welfare < REFERENCE_SHARE * ref_welfare {
            c.failures
                .push(format!("welfare {:.3} < 0.98 x reference {ref_welfare:.3}", c.welfare));
        }
        if c.delivered_units < REFERENCE_SHARE * ref_units {
            c.failures.push(format!(
                "delivered {:.3} units < 0.98 x reference {ref_units:.3}",
                c.delivered_units
            ));
        }
    }
    c
}

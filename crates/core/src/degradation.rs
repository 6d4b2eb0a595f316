//! Graceful degradation under faults (§4.4).
//!
//! When link failures shrink the sellable capacity so far that the
//! schedule-adjustment LP cannot cover every admitted guarantee even after
//! rerouting, Pretium never silently oversubscribes and never panics.
//! Instead it falls back through an explicit, deterministic policy chain:
//!
//! 1. **Shed lowest-λ demand first** — while more than one contract is
//!    short, the one with the smallest marginal accepted price `λ`
//!    (Pretium's value proxy) has its remaining guarantee waived entirely
//!    and its LP guarantee row relaxed, freeing capacity for
//!    higher-value transfers.
//! 2. **Relax the last guarantee** — when a single contract remains short,
//!    its guarantee is reduced by exactly the uncoverable shortfall, so
//!    the rest of the promise stays hard.
//!
//! Every waiver is recorded here as a [`LedgerEntry`] with a penalty of
//! `λ · waived units` — the provider's book value of the broken promise.
//! The auditor cross-checks the ledger against contract state: a contract
//! past its deadline must have `delivered + waived ≥ guaranteed`, and each
//! contract's `waived` must equal its ledger total, so a missed guarantee
//! that never reached the ledger is flagged as a run-invalidating bug.

use crate::contract::ContractId;
use pretium_net::Timestep;

/// Which fallback stage produced a ledger entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationKind {
    /// The contract's whole remaining guarantee was shed (lowest-λ first).
    Shed,
    /// The guarantee was reduced by exactly the uncoverable shortfall.
    Relaxed,
}

impl DegradationKind {
    pub fn name(&self) -> &'static str {
        match self {
            DegradationKind::Shed => "shed",
            DegradationKind::Relaxed => "relaxed",
        }
    }
}

/// One recorded guarantee violation.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    pub contract: ContractId,
    /// Timestep at which SAM waived the units.
    pub at: Timestep,
    pub kind: DegradationKind,
    /// Guaranteed units waived by this entry.
    pub units: f64,
    /// Penalty booked: `λ · units`.
    pub penalty: f64,
}

/// Append-only record of every guarantee Pretium could not keep.
///
/// Entries are appended in the order SAM waives guarantees, so the
/// shed-before-relax policy ordering is observable directly from the
/// ledger (the fallback-chain tests assert it).
#[derive(Debug, Clone, Default)]
pub struct ViolationLedger {
    entries: Vec<LedgerEntry>,
}

impl ViolationLedger {
    pub fn new() -> Self {
        ViolationLedger::default()
    }

    /// Record a waiver. `units` and `penalty` must be non-negative.
    pub fn record(
        &mut self,
        contract: ContractId,
        at: Timestep,
        kind: DegradationKind,
        units: f64,
        penalty: f64,
    ) {
        assert!(units >= 0.0 && penalty >= 0.0, "negative ledger entry");
        self.entries.push(LedgerEntry { contract, at, kind, units, penalty });
    }

    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total units waived for one contract across all entries.
    pub fn waived_units(&self, contract: ContractId) -> f64 {
        self.entries.iter().filter(|e| e.contract == contract).map(|e| e.units).sum()
    }

    /// Number of distinct contracts with at least one entry.
    pub fn violated_contracts(&self) -> usize {
        let mut ids: Vec<usize> = self.entries.iter().map(|e| e.contract.0).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Sum of all booked penalties.
    pub fn total_penalty(&self) -> f64 {
        self.entries.iter().map(|e| e.penalty).sum()
    }

    /// `(shed, relaxed)` entry counts.
    pub fn counts(&self) -> (usize, usize) {
        let shed = self.entries.iter().filter(|e| e.kind == DegradationKind::Shed).count();
        (shed, self.entries.len() - shed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates_per_contract() {
        let mut l = ViolationLedger::new();
        assert!(l.is_empty());
        l.record(ContractId(2), 4, DegradationKind::Shed, 5.0, 10.0);
        l.record(ContractId(7), 4, DegradationKind::Relaxed, 1.5, 3.0);
        l.record(ContractId(2), 9, DegradationKind::Relaxed, 0.5, 1.0);
        assert_eq!(l.len(), 3);
        assert_eq!(l.violated_contracts(), 2);
        assert!((l.waived_units(ContractId(2)) - 5.5).abs() < 1e-12);
        assert!((l.waived_units(ContractId(7)) - 1.5).abs() < 1e-12);
        assert_eq!(l.waived_units(ContractId(0)), 0.0);
        assert!((l.total_penalty() - 14.0).abs() < 1e-12);
        assert_eq!(l.counts(), (1, 2));
    }

    #[test]
    fn entries_preserve_policy_order() {
        let mut l = ViolationLedger::new();
        l.record(ContractId(0), 1, DegradationKind::Shed, 1.0, 1.0);
        l.record(ContractId(1), 1, DegradationKind::Relaxed, 1.0, 1.0);
        let kinds: Vec<_> = l.entries().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![DegradationKind::Shed, DegradationKind::Relaxed]);
    }

    #[test]
    #[should_panic(expected = "negative ledger entry")]
    fn negative_units_rejected() {
        let mut l = ViolationLedger::new();
        l.record(ContractId(0), 0, DegradationKind::Shed, -1.0, 0.0);
    }
}

//! The concurrent admission front end: epoch-published snapshots for
//! parallel quoting, and the deterministic sequencer that applies accepts.
//!
//! The paper's Request Admission (§4.1) is a pure read — price a menu
//! against current prices and the planned schedule — so quoting does not
//! need the `&mut Pretium` the serial loop used to thread through it.
//! This module splits admission into two halves:
//!
//! * [`AdmissionSnapshot`] — an immutable, `Arc`-shareable view of the
//!   network state published at a given *epoch* ([`Pretium::epoch`], bumped
//!   on every quote-relevant mutation). `quote(&self, ..)` is a pure read;
//!   any number of RA workers can price menus off one snapshot
//!   concurrently. Telemetry lives in atomic counters folded back into the
//!   owning system's [`crate::Telemetry`] when the snapshot retires.
//! * [`Sequencer`] — the single-threaded back end. It consumes
//!   [`QuoteTicket`]s (a quote plus the epoch it was priced at) in a fixed
//!   order chosen by the caller, validates each ticket against live state,
//!   and books accepts through [`Pretium::accept`]. Admission order is the
//!   sequencing order — never thread timing — so a pooled quote fan-out is
//!   bit-identical to the serial loop it replaced.
//!
//! # Epoch validation
//!
//! A ticket whose epoch matches the live epoch is *fresh*: its menu was
//! priced against exactly the current state. Within one batch the only
//! mutations are the sequencer's own accepts, and an accept changes
//! nothing but the reservations on its plan's `(edge, timestep)` slots —
//! prices, health, and high-pri set-asides are untouched. The sequencer
//! therefore tracks those dirtied slots, and a ticket from the batch's
//! base epoch stays valid as long as its *footprint* (every edge of every
//! admissible path × every timestep of its transfer window) misses the
//! dirty set: `build_menu` is a pure function of exactly those slots, so
//! the snapshot menu is bit-for-bit what a live re-quote would produce.
//! Only on overlap (or an epoch from before the snapshot) does the
//! sequencer re-quote against live state and re-invoke the customer's
//! response — reproducing the serial quote→accept interleaving exactly.

use crate::contract::{ContractId, RequestParams};
use crate::menu::{build_menu, PriceMenu};
use crate::pretium::Pretium;
use crate::state::NetworkState;
use crate::telemetry::Telemetry;
use pretium_lp::SolveError;
use pretium_net::{EdgeId, Network, SharedPathSet, Timestep, UsageTracker};
use rand::DetHashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Atomic quote telemetry of one snapshot: workers on many threads bump
/// these; the counters drain (exactly once) into the owning system's
/// [`Telemetry`] when the snapshot retires or is explicitly absorbed.
#[derive(Debug, Default)]
pub(crate) struct SnapshotStats {
    quotes: AtomicU64,
    empty: AtomicU64,
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl SnapshotStats {
    fn record(&self, empty: bool, nanos: u64) {
        self.quotes.fetch_add(1, Ordering::Relaxed);
        if empty {
            self.empty.fetch_add(1, Ordering::Relaxed);
        }
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Move the counters into `telemetry`, zeroing them (idempotent: a
    /// second drain moves nothing).
    pub(crate) fn drain_into(&self, telemetry: &mut Telemetry) {
        telemetry.quote.calls += self.quotes.swap(0, Ordering::Relaxed);
        telemetry.quote.total_nanos += self.total_nanos.swap(0, Ordering::Relaxed) as u128;
        let max = self.max_nanos.swap(0, Ordering::Relaxed) as u128;
        telemetry.quote.max_nanos = telemetry.quote.max_nanos.max(max);
        telemetry.quotes_empty += self.empty.swap(0, Ordering::Relaxed);
    }

    /// Move the counters into another accumulator (the owning system's
    /// pending sink) — the `Drop` path, where no `&mut Telemetry` is
    /// reachable. Idempotent like [`SnapshotStats::drain_into`].
    fn drain_into_stats(&self, sink: &SnapshotStats) {
        sink.quotes.fetch_add(self.quotes.swap(0, Ordering::Relaxed), Ordering::Relaxed);
        sink.empty.fetch_add(self.empty.swap(0, Ordering::Relaxed), Ordering::Relaxed);
        sink.total_nanos.fetch_add(self.total_nanos.swap(0, Ordering::Relaxed), Ordering::Relaxed);
        sink.max_nanos.fetch_max(self.max_nanos.swap(0, Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// An immutable admission view published at one epoch: prices + planned
/// schedule (the system's own [`NetworkState`], shared by reference — the
/// system copies before it writes while a snapshot is held, DESIGN.md §22)
/// plus the shared path cache. Cheaply shareable across RA workers behind
/// `Arc`; see the module docs.
#[derive(Debug)]
pub struct AdmissionSnapshot {
    epoch: u64,
    horizon: usize,
    net: Arc<Network>,
    state: Arc<NetworkState>,
    paths: Arc<SharedPathSet>,
    pub(crate) stats: SnapshotStats,
    /// The owning system's pending-quote sink. A snapshot can be retired
    /// (its counters drained) while pool workers still hold `Arc`s and keep
    /// quoting; whatever accrues after the drain is moved here on `Drop`
    /// and flushed into [`Telemetry`] at the system's next epoch bump or
    /// explicit absorb — no quote is ever lost.
    pending: Arc<SnapshotStats>,
}

impl Drop for AdmissionSnapshot {
    fn drop(&mut self) {
        self.stats.drain_into_stats(&self.pending);
    }
}

impl AdmissionSnapshot {
    pub(crate) fn new(
        epoch: u64,
        horizon: usize,
        net: Arc<Network>,
        state: Arc<NetworkState>,
        paths: Arc<SharedPathSet>,
        pending: Arc<SnapshotStats>,
    ) -> Self {
        AdmissionSnapshot {
            epoch,
            horizon,
            net,
            state,
            paths,
            stats: SnapshotStats::default(),
            pending,
        }
    }

    /// The [`Pretium::epoch`] this snapshot was published at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// The frozen network state the snapshot quotes against.
    pub fn state(&self) -> &NetworkState {
        &self.state
    }

    /// RA step 1 (§4.1): price a menu for `params` — a pure read, safe to
    /// call from any number of threads on one snapshot. Timing and
    /// empty-menu counts are recorded symmetrically on every path (the
    /// no-route early return included) into the snapshot's atomics.
    pub fn quote(&self, params: &RequestParams) -> PriceMenu {
        let t0 = Instant::now();
        let paths = self.paths.paths(&self.net, params.src, params.dst);
        let menu = if paths.is_empty() {
            PriceMenu::default()
        } else {
            build_menu(&self.state, &paths, params.start, params.deadline.min(self.horizon - 1))
        };
        let nanos = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.stats.record(menu.is_empty(), nanos);
        menu
    }

    /// Quote and tag with this snapshot's epoch — the unit of work a
    /// parallel RA worker hands to the [`Sequencer`].
    pub fn ticket(&self, params: &RequestParams) -> QuoteTicket {
        QuoteTicket { params: params.clone(), menu: self.quote(params), epoch: self.epoch }
    }
}

/// A quote awaiting sequencing: the request's visible parameters, the menu
/// priced for them, and the epoch of the snapshot that priced it.
#[derive(Debug, Clone)]
pub struct QuoteTicket {
    pub params: RequestParams,
    pub menu: PriceMenu,
    pub epoch: u64,
}

/// The single-threaded admission back end: applies a batch of quote
/// tickets to the live system in the caller's order, re-quoting any ticket
/// whose snapshot menu can no longer be exact (see the module docs), and
/// triggers SAM on [`Sequencer::finish`].
///
/// Holding `&mut Pretium` guarantees no other mutation interleaves with
/// the batch, which is what makes the dirty-slot validation sound.
pub struct Sequencer<'a> {
    system: &'a mut Pretium,
    /// Live epoch when the batch started; tickets from this epoch may use
    /// their snapshot menu, anything older must re-quote.
    base_epoch: u64,
    /// `(edge, timestep)` slots whose reservations this batch's accepts
    /// changed — the only state a fresh ticket's menu could depend on.
    dirty: DetHashSet<(EdgeId, Timestep)>,
}

impl<'a> Sequencer<'a> {
    pub fn new(system: &'a mut Pretium) -> Self {
        let base_epoch = system.epoch();
        Sequencer { system, base_epoch, dirty: DetHashSet::default() }
    }

    /// Whether `ticket`'s snapshot menu is still exact against live state.
    fn still_exact(&self, ticket: &QuoteTicket) -> bool {
        if ticket.epoch != self.base_epoch {
            return false;
        }
        if self.dirty.is_empty() {
            return true;
        }
        let hi = ticket.params.deadline.min(self.system.horizon() - 1);
        let paths = self.system.paths_for(ticket.params.src, ticket.params.dst);
        paths.iter().all(|p| {
            p.edges()
                .iter()
                .all(|&e| (ticket.params.start..=hi).all(|t| !self.dirty.contains(&(e, t))))
        })
    }

    /// Sequence one ticket: validate its menu (re-quoting against live
    /// state when stale), ask the customer's `respond` callback for the
    /// purchase off the *valid* menu, and book the accept. The callback
    /// owns the customer's private value — it never crosses into Pretium.
    pub fn admit(
        &mut self,
        ticket: &QuoteTicket,
        respond: impl FnOnce(&PriceMenu) -> f64,
    ) -> Option<ContractId> {
        let requoted;
        let menu = if self.still_exact(ticket) {
            &ticket.menu
        } else {
            requoted = self.system.requote(&ticket.params);
            &requoted
        };
        let units = respond(menu);
        let id = self.system.accept(&ticket.params, menu, units)?;
        // The new contract's reservations dirty its plan's slots for the
        // rest of the batch.
        let contract = self.system.contract(id);
        let slots: Vec<(usize, Timestep)> =
            contract.plan.iter().map(|&(pi, t, _)| (pi, t)).collect();
        let paths = self.system.routes(id);
        for (pi, t) in slots {
            for &e in paths[pi].edges() {
                self.dirty.insert((e, t));
            }
        }
        Some(id)
    }

    /// The booked contract behind an id returned by [`Sequencer::admit`]
    /// (e.g. to read its payment while the batch is still open).
    pub fn contract(&self, id: ContractId) -> &crate::contract::Contract {
        self.system.contract(id)
    }

    /// Close the batch: SAM re-optimizes every timestep (§4.2), exactly
    /// where the serial loop triggered it.
    pub fn finish(self, now: Timestep, realized: &UsageTracker) -> Result<(), SolveError> {
        self.system.run_sam(now, realized)
    }
}

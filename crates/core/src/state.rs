//! The shared network-state datastructure (§4, Figure 3).
//!
//! All three Pretium modules read and write one state object: per-link,
//! per-timestep **internal prices** `P_{e,t}`, the **planned reservations**
//! of every accepted request, and the capacity **set aside for high-pri
//! traffic**. Prices are maintained for the whole simulation horizon;
//! the price computer fills future windows by carrying the reference
//! window's prices forward (§4.3).

use pretium_net::{EdgeId, Network, TimeGrid, Timestep};

/// Relative float tolerance for reservation-vs-capacity comparisons, shared
/// by [`NetworkState::reserve`]'s overbooking assert and the
/// [`crate::audit::Auditor`]'s independent re-check so the two can never
/// disagree about what counts as oversubscribed.
pub const RESERVE_REL_TOL: f64 = 1e-6;

/// Short-term congestion pricing rule (§4.1): once a link-timestep's
/// reserved fraction crosses `threshold`, the remaining capacity is priced
/// at `factor ×` the base price. Functionally equivalent to splitting each
/// link into two parallel links with different prices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceBump {
    /// Utilization fraction beyond which the bump applies (paper: 0.8).
    pub threshold: f64,
    /// Price multiplier for capacity beyond the threshold (paper: 2.0).
    pub factor: f64,
}

impl Default for PriceBump {
    fn default() -> Self {
        PriceBump { threshold: 0.8, factor: 2.0 }
    }
}

impl PriceBump {
    /// No short-term adjustment (used by the ablation experiments).
    pub fn disabled() -> Self {
        PriceBump { threshold: 1.0, factor: 1.0 }
    }

    /// Marginal price of the next unit on a link-timestep with base price
    /// `base` and sellable capacity `cap` of which `used` is taken: bumped
    /// once utilization has crossed the threshold (or nothing is sellable).
    pub fn marginal(&self, base: f64, cap: f64, used: f64) -> f64 {
        if cap <= 0.0 || used / cap >= self.threshold {
            base * self.factor
        } else {
            base
        }
    }

    /// Units still sellable at that marginal price before it changes (the
    /// bump boundary, then exhaustion).
    pub fn available_at_marginal(&self, cap: f64, used: f64) -> f64 {
        let boundary = cap * self.threshold;
        if used < boundary {
            boundary - used
        } else {
            (cap - used).max(0.0)
        }
    }
}

/// Central state shared by RA, SAM and PC.
#[derive(Debug, Clone)]
pub struct NetworkState {
    grid: TimeGrid,
    horizon: usize,
    /// Base internal price per unit, `[edge][t]`.
    prices: Vec<Vec<f64>>,
    /// Capacity reserved by accepted requests, `[edge][t]`.
    reserved: Vec<Vec<f64>>,
    /// Capacity set aside for high-pri traffic, `[edge][t]`.
    highpri: Vec<Vec<f64>>,
    /// Surviving capacity fraction under faults, `[edge][t]` (§4.4):
    /// `1.0` = healthy, `0.0` = failed. Multiplies the sellable capacity,
    /// so every consumer — menus, the scheduling LPs, the auditor, and the
    /// overbooking assert — sees the *degraded* capacity automatically.
    health: Vec<Vec<f64>>,
    /// Total capacity per edge (cached from the network).
    capacity: Vec<f64>,
    pub bump: PriceBump,
}

impl NetworkState {
    /// Fresh state with all prices at `initial_price(e)` and a constant
    /// `highpri_fraction` of every link reserved for high-pri traffic.
    pub fn new(
        net: &Network,
        grid: TimeGrid,
        horizon: usize,
        highpri_fraction: f64,
        bump: PriceBump,
        initial_price: impl Fn(EdgeId) -> f64,
    ) -> Self {
        assert!((0.0..1.0).contains(&highpri_fraction), "high-pri fraction in [0,1)");
        let ne = net.num_edges();
        let capacity: Vec<f64> = net.edge_ids().map(|e| net.edge(e).capacity).collect();
        NetworkState {
            grid,
            horizon,
            prices: net.edge_ids().map(|e| vec![initial_price(e).max(0.0); horizon]).collect(),
            reserved: vec![vec![0.0; horizon]; ne],
            highpri: capacity.iter().map(|&c| vec![c * highpri_fraction; horizon]).collect(),
            health: vec![vec![1.0; horizon]; ne],
            capacity,
            bump,
        }
    }

    pub fn grid(&self) -> &TimeGrid {
        &self.grid
    }

    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Base price of `(e, t)`.
    pub fn price(&self, e: EdgeId, t: Timestep) -> f64 {
        self.prices[e.index()][t]
    }

    /// Overwrite the base price of `(e, t)`.
    pub fn set_price(&mut self, e: EdgeId, t: Timestep, p: f64) {
        assert!(p >= 0.0 && p.is_finite(), "price must be finite and >= 0");
        self.prices[e.index()][t] = p;
    }

    /// Capacity currently sellable at `(e, t)`: degraded total minus
    /// high-pri set-aside minus reservations. Never negative.
    pub fn available(&self, e: EdgeId, t: Timestep) -> f64 {
        (self.sellable_capacity(e, t) - self.reserved[e.index()][t]).max(0.0)
    }

    /// Capacity usable by Pretium at `(e, t)` (total minus high-pri, scaled
    /// by the fault health factor), ignoring reservations — the `c_{e,t}`
    /// of the scheduling LPs.
    pub fn sellable_capacity(&self, e: EdgeId, t: Timestep) -> f64 {
        let i = e.index();
        (self.capacity[i] - self.highpri[i][t]).max(0.0) * self.health[i][t]
    }

    /// Reserved volume at `(e, t)`.
    pub fn reserved(&self, e: EdgeId, t: Timestep) -> f64 {
        self.reserved[e.index()][t]
    }

    /// Reserve `amount` on `(e, t)`.
    ///
    /// # Panics
    /// Panics if the reservation exceeds the sellable capacity by more than
    /// a small tolerance (callers must check availability first).
    pub fn reserve(&mut self, e: EdgeId, t: Timestep, amount: f64) {
        assert!(amount >= 0.0, "negative reservation");
        let i = e.index();
        self.reserved[i][t] += amount;
        let cap = self.sellable_capacity(e, t);
        assert!(
            self.reserved[i][t] <= cap * (1.0 + RESERVE_REL_TOL) + 1e-9,
            "overbooked {e} at t={t}: reserved {} > sellable {cap}",
            self.reserved[i][t]
        );
    }

    /// Release a previous reservation (used when SAM re-plans).
    pub fn release(&mut self, e: EdgeId, t: Timestep, amount: f64) {
        assert!(amount >= 0.0, "negative release");
        let i = e.index();
        self.reserved[i][t] = (self.reserved[i][t] - amount).max(0.0);
    }

    /// Clear all reservations at timesteps `>= from` (SAM rebuilds them).
    pub fn clear_reservations_from(&mut self, from: Timestep) {
        for series in &mut self.reserved {
            for v in series.iter_mut().skip(from) {
                *v = 0.0;
            }
        }
    }

    /// Marginal price of the *next* unit on `(e, t)` given current
    /// reservations: the base price, bumped if utilization of the sellable
    /// capacity has crossed the bump threshold.
    pub fn marginal_price(&self, e: EdgeId, t: Timestep) -> f64 {
        self.bump.marginal(self.price(e, t), self.sellable_capacity(e, t), self.reserved(e, t))
    }

    /// Units still sellable at the *current* marginal price of `(e, t)`
    /// before the price changes (segment boundary or exhaustion).
    pub fn available_at_marginal(&self, e: EdgeId, t: Timestep) -> f64 {
        self.bump.available_at_marginal(self.sellable_capacity(e, t), self.reserved(e, t))
    }

    /// Update the high-pri set-aside at `(e, t)` (fault injection and
    /// high-pri volume surprises, §4.4).
    pub fn set_highpri(&mut self, e: EdgeId, t: Timestep, amount: f64) {
        assert!(amount >= 0.0 && amount <= self.capacity[e.index()] + 1e-9);
        self.highpri[e.index()][t] = amount;
    }

    /// High-pri set-aside at `(e, t)`.
    pub fn highpri(&self, e: EdgeId, t: Timestep) -> f64 {
        self.highpri[e.index()][t]
    }

    /// Set the surviving-capacity fraction of `(e, t)` (§4.4 faults):
    /// `0.0` = link down, `1.0` = fully recovered.
    pub fn set_health(&mut self, e: EdgeId, t: Timestep, h: f64) {
        assert!((0.0..=1.0).contains(&h), "health must be in [0, 1]");
        self.health[e.index()][t] = h;
    }

    /// Surviving-capacity fraction of `(e, t)`.
    pub fn health(&self, e: EdgeId, t: Timestep) -> f64 {
        self.health[e.index()][t]
    }

    /// True when any link is degraded at `t` (health below 1).
    pub fn faulted_at(&self, t: Timestep) -> bool {
        self.health.iter().any(|series| series[t] < 1.0)
    }

    /// Price series of one edge (for Figure 7a).
    pub fn price_series(&self, e: EdgeId) -> &[f64] {
        &self.prices[e.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretium_net::{topology, TimeGrid};

    fn state() -> (pretium_net::Network, NetworkState) {
        let net = topology::default_eval(3);
        let grid = TimeGrid::coarse_default();
        let st = NetworkState::new(&net, grid, 96, 0.1, PriceBump::default(), |_| 1.0);
        (net, st)
    }

    #[test]
    fn availability_accounts_for_highpri() {
        let (net, st) = state();
        let e = net.edge_ids().next().unwrap();
        let cap = net.edge(e).capacity;
        assert!((st.available(e, 0) - cap * 0.9).abs() < 1e-9);
        assert!((st.sellable_capacity(e, 0) - cap * 0.9).abs() < 1e-9);
    }

    #[test]
    fn reserve_and_release_roundtrip() {
        let (net, mut st) = state();
        let e = net.edge_ids().next().unwrap();
        let avail = st.available(e, 5);
        st.reserve(e, 5, 3.0);
        assert!((st.available(e, 5) - (avail - 3.0)).abs() < 1e-9);
        st.release(e, 5, 3.0);
        assert!((st.available(e, 5) - avail).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "overbooked")]
    fn overbooking_panics() {
        let (net, mut st) = state();
        let e = net.edge_ids().next().unwrap();
        st.reserve(e, 0, st.sellable_capacity(e, 0) * 1.5);
    }

    #[test]
    fn bump_applies_past_threshold() {
        let (net, mut st) = state();
        let e = net.edge_ids().next().unwrap();
        st.set_price(e, 2, 1.5);
        assert_eq!(st.marginal_price(e, 2), 1.5);
        // Fill beyond 80%.
        let cap = st.sellable_capacity(e, 2);
        st.reserve(e, 2, cap * 0.85);
        assert_eq!(st.marginal_price(e, 2), 3.0);
    }

    #[test]
    fn available_at_marginal_tracks_segments() {
        let (net, mut st) = state();
        let e = net.edge_ids().next().unwrap();
        let cap = st.sellable_capacity(e, 0);
        assert!((st.available_at_marginal(e, 0) - cap * 0.8).abs() < 1e-9);
        st.reserve(e, 0, cap * 0.8);
        assert!((st.available_at_marginal(e, 0) - cap * 0.2).abs() < 1e-9);
        st.reserve(e, 0, cap * 0.2);
        assert_eq!(st.available_at_marginal(e, 0), 0.0);
    }

    #[test]
    fn clear_reservations_from_cutoff() {
        let (net, mut st) = state();
        let e = net.edge_ids().next().unwrap();
        st.reserve(e, 3, 1.0);
        st.reserve(e, 8, 1.0);
        st.clear_reservations_from(5);
        assert_eq!(st.reserved(e, 3), 1.0);
        assert_eq!(st.reserved(e, 8), 0.0);
    }

    #[test]
    fn health_scales_sellable_capacity_and_availability() {
        let (net, mut st) = state();
        let e = net.edge_ids().next().unwrap();
        let healthy = st.sellable_capacity(e, 4);
        assert!(!st.faulted_at(4));
        st.set_health(e, 4, 0.25);
        assert!(st.faulted_at(4));
        assert!((st.sellable_capacity(e, 4) - healthy * 0.25).abs() < 1e-9);
        assert!((st.available(e, 4) - healthy * 0.25).abs() < 1e-9);
        st.set_health(e, 4, 1.0);
        assert!((st.sellable_capacity(e, 4) - healthy).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "overbooked")]
    fn reserve_respects_degraded_capacity() {
        let (net, mut st) = state();
        let e = net.edge_ids().next().unwrap();
        let cap = st.sellable_capacity(e, 0);
        st.set_health(e, 0, 0.5);
        // Would fit the healthy link, but not the degraded one.
        st.reserve(e, 0, cap * 0.8);
    }

    #[test]
    fn disabled_bump_never_raises() {
        let (net, mut st) = state();
        st.bump = PriceBump::disabled();
        let e = net.edge_ids().next().unwrap();
        let cap = st.sellable_capacity(e, 0);
        st.reserve(e, 0, cap * 0.99);
        assert_eq!(st.marginal_price(e, 0), st.price(e, 0));
    }
}

//! Price menus and user responses (§4.1, Figure 4).
//!
//! A menu `p_i(·)` is built by greedily filling the cheapest
//! `(path, timestep)` slots at the current internal prices: the per-unit
//! price only rises as slots saturate, so the menu is non-decreasing,
//! convex, and piecewise linear. The menu records which slots each segment
//! draws on, so accepting `x` units immediately yields the preliminary
//! schedule (the admission interface doubles as TE by steering traffic to
//! low-price slots).

use crate::state::{NetworkState, PriceBump};
use pretium_net::{EdgeId, Path, Timestep};

/// Where a menu segment's capacity lives.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotAlloc {
    /// Index into the request's path set.
    pub path_idx: usize,
    pub t: Timestep,
    pub units: f64,
}

/// One linear piece of the menu: `units` sellable at `unit_price` each.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    pub unit_price: f64,
    pub units: f64,
    pub alloc: SlotAlloc,
}

/// A convex piecewise-linear price schedule plus the capacity bound `x̄`.
///
/// `PartialEq` is segment-exact (prices, units, and slot allocations
/// compare bitwise through `f64` equality) — the admission determinism
/// tests rely on menus quoted from a snapshot being *identical* to menus
/// quoted serially, not merely close.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PriceMenu {
    /// Segments in non-decreasing price order.
    pub segments: Vec<Segment>,
}

impl PriceMenu {
    /// `x̄`: the largest transfer Pretium will guarantee (§4.1).
    pub fn capacity_bound(&self) -> f64 {
        self.segments.iter().map(|s| s.units).sum()
    }

    /// Whether the menu can back zero units (no sellable capacity in the
    /// request's window). Purchases off an empty menu are unpriceable and
    /// must be rejected, not booked at an infinite price.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Per-unit price of best-effort units beyond `x̄` — the final marginal
    /// price — or `None` when the menu is empty and there is no price to
    /// extend.
    pub fn best_effort_price(&self) -> Option<f64> {
        self.segments.last().map(|s| s.unit_price)
    }

    /// Total price `p(x)` for routing `x` units. Beyond `x̄`, additional
    /// units are explicitly priced at [`PriceMenu::best_effort_price`]
    /// (the best-effort class). On an empty menu any positive quantity is
    /// unpriceable (`∞`); callers must reject such purchases instead of
    /// booking them (see `Pretium::accept`).
    pub fn price(&self, x: f64) -> f64 {
        assert!(x >= 0.0, "negative quantity");
        let mut remaining = x;
        let mut total = 0.0;
        for s in &self.segments {
            let take = remaining.min(s.units);
            total += take * s.unit_price;
            remaining -= take;
            if remaining <= 0.0 {
                return total;
            }
        }
        match self.best_effort_price() {
            Some(p) => total + remaining * p,
            None if remaining <= 0.0 => total,
            None => f64::INFINITY,
        }
    }

    /// Marginal price `Δ(x)` of the next unit after `x`.
    pub fn marginal(&self, x: f64) -> f64 {
        assert!(x >= 0.0);
        let mut seen = 0.0;
        for s in &self.segments {
            seen += s.units;
            if x < seen - 1e-12 {
                return s.unit_price;
            }
        }
        self.marginal_at_bound()
    }

    /// The marginal price at `x̄` (what best-effort units would pay): the
    /// explicit best-effort price, or `∞` for an empty menu (nothing is
    /// sellable at any price).
    pub fn marginal_at_bound(&self) -> f64 {
        self.best_effort_price().unwrap_or(f64::INFINITY)
    }

    /// Theorem 5.2: the utility-maximizing purchase for a customer with
    /// per-unit value `value` and demand `demand` — as many units as
    /// possible while the marginal price is at most the value, capped at
    /// both the demand and the guarantee bound `x̄`.
    pub fn optimal_purchase(&self, value: f64, demand: f64) -> f64 {
        assert!(demand >= 0.0);
        let mut x = 0.0;
        for s in &self.segments {
            if s.unit_price > value + 1e-12 {
                break;
            }
            x += s.units;
            if x >= demand {
                return demand;
            }
        }
        x.min(demand)
    }

    /// All-or-nothing variant (the Pretium-NoMenu ablation of Figure 11):
    /// buy the full demand iff it fits under `x̄` and the total price does
    /// not exceed the total value.
    pub fn all_or_nothing_purchase(&self, value: f64, demand: f64) -> f64 {
        if demand <= self.capacity_bound() + 1e-9 && self.price(demand) <= value * demand + 1e-9 {
            demand
        } else {
            0.0
        }
    }

    /// The slot allocations backing the first `x` units (the preliminary
    /// schedule for an accepted transfer of size `x`).
    pub fn allocations_for(&self, x: f64) -> Vec<SlotAlloc> {
        let mut remaining = x;
        let mut out = Vec::new();
        for s in &self.segments {
            if remaining <= 1e-12 {
                break;
            }
            let take = remaining.min(s.units);
            out.push(SlotAlloc { path_idx: s.alloc.path_idx, t: s.alloc.t, units: take });
            remaining -= take;
        }
        out
    }

    /// Number of distinct price levels (for display).
    pub fn price_levels(&self) -> Vec<(f64, f64)> {
        let mut out: Vec<(f64, f64)> = Vec::new();
        for s in &self.segments {
            match out.last_mut() {
                Some(last) if (last.0 - s.unit_price).abs() < 1e-12 => last.1 += s.units,
                _ => out.push((s.unit_price, s.units)),
            }
        }
        out
    }
}

/// One `(edge, timestep)` cell of a menu's window ledger: the three state
/// reads a slot price depends on, taken once, plus the units this menu has
/// hypothetically sold there so far.
#[derive(Debug, Clone, Copy)]
struct LedgerCell {
    cap: f64,
    price: f64,
    reserved: f64,
    extra: f64,
}

impl LedgerCell {
    /// [`NetworkState::marginal_price`] with the menu's own fills on top.
    fn marginal(&self, bump: PriceBump) -> f64 {
        bump.marginal(self.price, self.cap, self.reserved + self.extra)
    }

    /// [`NetworkState::available_at_marginal`] with the menu's own fills
    /// on top.
    fn avail_at_marginal(&self, bump: PriceBump) -> f64 {
        bump.available_at_marginal(self.cap, self.reserved + self.extra)
    }
}

/// Build the price menu for a request over `paths` within
/// `[start, deadline]`, against the current prices/availability in
/// `state`. Does not mutate the state: hypothetical fills are tracked in a
/// local ledger so the short-term price bump (§4.1) applies *within* the
/// menu as well (buying deep into a link's capacity raises later segments).
///
/// The ledger is dense (DESIGN.md §22): the request's distinct edges are
/// numbered locally and every `(edge, timestep)` of the window is read
/// from `state` once into one flat `edges × window` array, so the greedy
/// rounds below touch no map and no nested vector. Each slot's
/// `(price, qty)` is cached in a flat `paths × window` array; a round scans
/// the cache and re-prices only the slots at the step its fill touched,
/// with the same arithmetic on the same cells, so the menu is bitwise the
/// one an uncached scan builds. A window that is empty once clipped to the
/// horizon (`start` past the horizon or past `deadline`) yields the empty
/// menu.
pub fn build_menu(
    state: &NetworkState,
    paths: &[Path],
    start: Timestep,
    deadline: Timestep,
) -> PriceMenu {
    let deadline = deadline.min(state.horizon().saturating_sub(1));
    if start > deadline {
        return PriceMenu::default();
    }
    let window = deadline - start + 1;
    let bump = state.bump;
    // Local edge numbering: `rows` lists, path after path and hop after
    // hop, where each hop's edge starts in the ledger. Paths that share an
    // edge share its row, so a fill on one is seen by the others.
    let hops: usize = paths.iter().map(|p| p.len()).sum();
    let mut edges: Vec<EdgeId> = Vec::with_capacity(hops);
    let mut rows: Vec<usize> = Vec::with_capacity(hops);
    for &e in paths.iter().flat_map(|p| p.edges()) {
        let local = edges.iter().position(|&seen| seen == e).unwrap_or_else(|| {
            edges.push(e);
            edges.len() - 1
        });
        rows.push(local * window);
    }
    let mut rest = rows.as_slice();
    let path_rows: Vec<&[usize]> = paths
        .iter()
        .map(|p| {
            let (own, later) = rest.split_at(p.len());
            rest = later;
            own
        })
        .collect();
    let mut ledger: Vec<LedgerCell> = Vec::with_capacity(edges.len() * window);
    for &e in &edges {
        ledger.extend((start..=deadline).map(|t| LedgerCell {
            cap: state.sellable_capacity(e, t),
            price: state.price(e, t),
            reserved: state.reserved(e, t),
            extra: 0.0,
        }));
    }

    // `(price, qty)` of one slot: the path's summed marginal price and its
    // tightest hop's room at that price.
    let slot = |ledger: &[LedgerCell], hop_rows: &[usize], dt: usize| -> (f64, f64) {
        let price: f64 = hop_rows.iter().map(|&r| ledger[r + dt].marginal(bump)).sum();
        let qty: f64 = hop_rows
            .iter()
            .map(|&r| ledger[r + dt].avail_at_marginal(bump))
            .fold(f64::INFINITY, f64::min);
        (price, qty)
    };
    // Slot-price cache, `paths × window`: every slot priced once here. A
    // round's fill changes cells at one step `dt` only, so only the slots
    // at `dt` are re-priced after it (DESIGN.md §22).
    let mut slots: Vec<(f64, f64)> = Vec::with_capacity(paths.len() * window);
    for hop_rows in &path_rows {
        slots.extend((0..window).map(|dt| slot(&ledger, hop_rows, dt)));
    }

    let mut segments = Vec::new();
    // Bounded iteration: each round exhausts a segment of at least one
    // (edge, t); 2 segments per pair.
    let max_rounds = 2 * hops * window + 8;
    for _ in 0..max_rounds {
        // Find the cheapest slot with availability, path-major.
        let mut best: Option<(f64, usize, f64)> = None; // (price, slot index, qty)
        for (i, &(price, qty)) in slots.iter().enumerate() {
            if qty <= 1e-9 {
                continue;
            }
            if best.as_ref().is_none_or(|&(bp, _, _)| price < bp - 1e-12) {
                best = Some((price, i, qty));
            }
        }
        let Some((price, i, qty)) = best else { break };
        let (pi, dt) = (i / window, i % window);
        for &r in path_rows[pi] {
            ledger[r + dt].extra += qty;
        }
        for (pj, hop_rows) in path_rows.iter().enumerate() {
            slots[pj * window + dt] = slot(&ledger, hop_rows, dt);
        }
        segments.push(Segment {
            unit_price: price,
            units: qty,
            alloc: SlotAlloc { path_idx: pi, t: start + dt, units: qty },
        });
    }
    // Greedy picks the global minimum each round, so prices are sorted —
    // but the bump can create equal-price reorderings; enforce the
    // invariant.
    segments.sort_by(|a, b| a.unit_price.total_cmp(&b.unit_price));
    PriceMenu { segments }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pretium_net::{LinkCost, Network, Region, TimeGrid};
    use rand::rngs::StdRng;
    use rand::{DetHashMap as HashMap, Rng, SeedableRng};

    /// The hash-map menu builder `build_menu` replaced, kept verbatim as
    /// the oracle of `dense_ledger_matches_hash_map_reference`: same
    /// greedy, with the hypothetical fills in a map keyed by
    /// `(edge, timestep)` and every read going through the state.
    fn build_menu_reference(
        state: &NetworkState,
        paths: &[Path],
        start: Timestep,
        deadline: Timestep,
    ) -> PriceMenu {
        assert!(start <= deadline, "empty request window");
        let deadline = deadline.min(state.horizon().saturating_sub(1));
        // Local hypothetical reservations on top of the state.
        let mut extra: HashMap<(EdgeId, Timestep), f64> = HashMap::default();
        let marginal = |state: &NetworkState,
                        extra: &HashMap<(EdgeId, Timestep), f64>,
                        e: EdgeId,
                        t: Timestep|
         -> f64 {
            let cap = state.sellable_capacity(e, t);
            if cap <= 0.0 {
                return state.price(e, t) * state.bump.factor;
            }
            let used = state.reserved(e, t) + extra.get(&(e, t)).copied().unwrap_or(0.0);
            if used / cap >= state.bump.threshold {
                state.price(e, t) * state.bump.factor
            } else {
                state.price(e, t)
            }
        };
        let avail_at_marginal = |state: &NetworkState,
                                 extra: &HashMap<(EdgeId, Timestep), f64>,
                                 e: EdgeId,
                                 t: Timestep|
         -> f64 {
            let cap = state.sellable_capacity(e, t);
            let used = state.reserved(e, t) + extra.get(&(e, t)).copied().unwrap_or(0.0);
            let boundary = cap * state.bump.threshold;
            if used < boundary {
                boundary - used
            } else {
                (cap - used).max(0.0)
            }
        };

        let mut segments = Vec::new();
        let max_rounds =
            2 * paths.iter().map(|p| p.len()).sum::<usize>() * (deadline - start + 1) + 8;
        for _ in 0..max_rounds {
            let mut best: Option<(f64, usize, Timestep, f64)> = None; // (price, path, t, qty)
            for (pi, path) in paths.iter().enumerate() {
                for t in start..=deadline {
                    let price: f64 =
                        path.edges().iter().map(|&e| marginal(state, &extra, e, t)).sum();
                    let qty: f64 = path
                        .edges()
                        .iter()
                        .map(|&e| avail_at_marginal(state, &extra, e, t))
                        .fold(f64::INFINITY, f64::min);
                    if qty <= 1e-9 {
                        continue;
                    }
                    if best.as_ref().is_none_or(|&(bp, _, _, _)| price < bp - 1e-12) {
                        best = Some((price, pi, t, qty));
                    }
                }
            }
            let Some((price, pi, t, qty)) = best else { break };
            for &e in paths[pi].edges() {
                *extra.entry((e, t)).or_insert(0.0) += qty;
            }
            segments.push(Segment {
                unit_price: price,
                units: qty,
                alloc: SlotAlloc { path_idx: pi, t, units: qty },
            });
        }
        segments.sort_by(|a, b| a.unit_price.partial_cmp(&b.unit_price).unwrap());
        PriceMenu { segments }
    }

    /// 600 seeded worlds on a five-node mesh whose six S→D routes overlap
    /// pairwise: the dense ledger must reproduce the reference menu
    /// bit for bit (`PartialEq` on menus is segment-exact).
    #[test]
    fn dense_ledger_matches_hash_map_reference() {
        const HORIZON: usize = 60;
        let mut net = Network::new();
        let [s, a, b, c, d] = ["S", "A", "B", "C", "D"].map(|n| net.add_node(n, Region::Europe));
        let mut link = |from, to| net.add_edge(from, to, 10.0, LinkCost::owned());
        let (sa, sb, ab, ac) = (link(s, a), link(s, b), link(a, b), link(a, c));
        let (bc, ad, bd, cd) = (link(b, c), link(a, d), link(b, d), link(c, d));
        let routes = [
            vec![sa, ad],
            vec![sb, bd],
            vec![sa, ab, bd],
            vec![sa, ac, cd],
            vec![sb, bc, cd],
            vec![sa, ab, bc, cd],
        ];
        let (mut non_trivial, mut clipped, mut unbumped, mut siblings) = (0, 0, 0, 0);
        for case in 0..600u64 {
            let mut rng = StdRng::seed_from_u64(0x5eed_0000 + case);
            let bump = match case % 3 {
                0 => PriceBump::default(),
                1 => PriceBump::disabled(),
                _ => PriceBump {
                    threshold: rng.gen_range(0.1..0.95),
                    factor: rng.gen_range(1.0..4.0),
                },
            };
            unbumped += usize::from(bump == PriceBump::disabled());
            let grid = TimeGrid::new(12, 30);
            let mut state = NetworkState::new(&net, grid, HORIZON, 0.0, bump, |_| 1.0);
            // Half the worlds draw prices from four levels, so ties (and
            // the `1e-12` comparator) are exercised, not only distinct
            // prices over three decades.
            let tied = rng.gen_bool(0.5);
            for e in net.edge_ids() {
                for t in 0..HORIZON {
                    let price = if tied {
                        [0.25, 1.0, 1.0 + 5e-13, 40.0][rng.gen_range(0..4usize)]
                    } else {
                        10f64.powf(rng.gen_range(-1.0..2.0))
                    };
                    state.set_price(e, t, price);
                    match rng.gen_range(0..10u32) {
                        0 => state.set_highpri(e, t, 10.0), // nothing sellable
                        1 => state.set_health(e, t, 0.0),   // link down
                        2 => state.set_health(e, t, rng.gen_range(0.05..1.0)),
                        3 => state.set_highpri(e, t, rng.gen_range(0.0..9.0)),
                        _ => {}
                    }
                    // Reservations on both sides of the bump threshold,
                    // and at the brim.
                    let cap = state.sellable_capacity(e, t);
                    let fill =
                        if rng.gen_bool(0.1) { 1.0 } else { rng.gen_range(0.0..1.0f64).powi(2) };
                    state.reserve(e, t, cap * fill);
                }
            }
            let mut picks: Vec<usize> = (0..routes.len()).collect();
            let k = rng.gen_range(1..=4usize);
            for i in 0..k {
                picks.swap(i, rng.gen_range(i..routes.len()));
            }
            let paths: Vec<Path> =
                picks[..k].iter().map(|&r| Path::new(&net, routes[r].clone())).collect();
            let start = rng.gen_range(0..HORIZON);
            let deadline = start + rng.gen_range(0..48usize);
            clipped += usize::from(deadline >= HORIZON);

            let menu = build_menu(&state, &paths, start, deadline);
            let reference = build_menu_reference(&state, &paths, start, deadline);
            assert_eq!(menu, reference, "case {case}: window [{start}, {deadline}]");
            non_trivial += usize::from(menu.segments.len() > 1);
            // Two segments at one step on different paths that share an
            // edge: the fill of the first moved the second's slot, which
            // the slot-price cache must have re-priced.
            let share_edge = |i: usize, j: usize| {
                i != j && paths[i].edges().iter().any(|e| paths[j].edges().contains(e))
            };
            let segs = &menu.segments;
            siblings += usize::from(segs.iter().enumerate().any(|(k, a)| {
                segs[k + 1..].iter().any(|b| {
                    a.alloc.t == b.alloc.t && share_edge(a.alloc.path_idx, b.alloc.path_idx)
                })
            }));
        }
        // The generator must reach what it claims to cover.
        assert!(non_trivial >= 500, "only {non_trivial} multi-segment menus");
        assert!(clipped >= 50, "only {clipped} windows clipped by the horizon");
        assert_eq!(unbumped, 200);
        // 322 at this generator; the floor is half.
        assert!(siblings >= 160, "only {siblings} menus re-priced a sibling slot");
    }

    /// Two S→D paths share the bottleneck A→D (capacity 10). The first fill
    /// (8 units on the cheaper path S→A→D) crosses the bump threshold on
    /// A→D, so the sibling S→B→A→D's slot at the same step rises from
    /// 3.0 to 4.0 before its own segment is cut — the re-price the
    /// slot-price cache makes after every fill. A stale cache would sell
    /// 8 units at 3.0.
    #[test]
    fn fill_on_a_shared_edge_reprices_the_sibling_slot() {
        let mut net = Network::new();
        let [s, a, b, d] = ["S", "A", "B", "D"].map(|n| net.add_node(n, Region::Europe));
        let sa = net.add_edge(s, a, 10.0, LinkCost::owned());
        let ad = net.add_edge(a, d, 10.0, LinkCost::owned());
        let sb = net.add_edge(s, b, 100.0, LinkCost::owned());
        let ba = net.add_edge(b, a, 100.0, LinkCost::owned());
        let mut state =
            NetworkState::new(&net, TimeGrid::new(1, 30), 1, 0.0, PriceBump::default(), |_| 1.0);
        state.set_price(sa, 0, 1.5);
        let paths = vec![Path::new(&net, vec![sa, ad]), Path::new(&net, vec![sb, ba, ad])];

        let menu = build_menu(&state, &paths, 0, 0);
        assert_eq!(menu, build_menu_reference(&state, &paths, 0, 0));
        let cut: Vec<(usize, f64, f64)> =
            menu.segments.iter().map(|s| (s.alloc.path_idx, s.unit_price, s.units)).collect();
        assert_eq!(cut.len(), 2, "{cut:?}");
        // 1.5 + 1.0 for 8 units, up to A→D's threshold ...
        assert_eq!(cut[0].0, 0);
        assert!((cut[0].1 - 2.5).abs() < 1e-12 && (cut[0].2 - 8.0).abs() < 1e-9, "{cut:?}");
        // ... then the sibling at 1.0 + 1.0 + 2.0 (A→D bumped) for A→D's
        // last 2 units; S→A→D would pay 3.0 + 2.0.
        assert_eq!(cut[1].0, 1);
        assert!((cut[1].1 - 4.0).abs() < 1e-12 && (cut[1].2 - 2.0).abs() < 1e-9, "{cut:?}");
    }

    #[test]
    fn window_past_the_horizon_is_an_empty_menu() {
        let (_, state, paths) = setup();
        // Start on/after the horizon, with the deadline clipped below it.
        assert!(build_menu(&state, &paths, 4, 9).is_empty());
        assert!(build_menu(&state, &paths, 7, 7).is_empty());
        // Start after the deadline, both inside the horizon.
        assert!(build_menu(&state, &paths, 3, 1).is_empty());
        // The last step alone is still a window.
        assert!(!build_menu(&state, &paths, 3, 9).is_empty());
    }

    /// A -> B single edge, capacity 10/step, 4 steps, price 1.0.
    fn setup() -> (Network, NetworkState, Vec<Path>) {
        let mut net = Network::new();
        let a = net.add_node("A", Region::NorthAmerica);
        let b = net.add_node("B", Region::NorthAmerica);
        let e = net.add_edge(a, b, 10.0, LinkCost::owned());
        let state =
            NetworkState::new(&net, TimeGrid::new(4, 30), 4, 0.0, PriceBump::default(), |_| 1.0);
        let paths = vec![Path::new(&net, vec![e])];
        (net, state, paths)
    }

    #[test]
    fn menu_is_sorted_and_convex() {
        let (_, state, paths) = setup();
        let menu = build_menu(&state, &paths, 0, 3);
        let prices: Vec<f64> = menu.segments.iter().map(|s| s.unit_price).collect();
        assert!(prices.windows(2).all(|w| w[0] <= w[1] + 1e-12), "{prices:?}");
        // x̄ = 4 steps × 10 capacity = 40.
        assert!((menu.capacity_bound() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn bump_creates_second_price_level() {
        let (_, state, paths) = setup();
        let menu = build_menu(&state, &paths, 0, 0);
        // One step: 8 units at 1.0, then 2 units at 2.0.
        let levels = menu.price_levels();
        assert_eq!(levels.len(), 2, "{levels:?}");
        assert!((levels[0].0 - 1.0).abs() < 1e-12 && (levels[0].1 - 8.0).abs() < 1e-9);
        assert!((levels[1].0 - 2.0).abs() < 1e-12 && (levels[1].1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn price_integrates_segments() {
        let (_, state, paths) = setup();
        let menu = build_menu(&state, &paths, 0, 0);
        assert!((menu.price(8.0) - 8.0).abs() < 1e-9);
        assert!((menu.price(10.0) - (8.0 + 2.0 * 2.0)).abs() < 1e-9);
        // Beyond x̄: best-effort at the final marginal price.
        assert!((menu.price(12.0) - (12.0 + 2.0 * 2.0)).abs() < 1e-9);
    }

    #[test]
    fn marginal_steps_at_boundaries() {
        let (_, state, paths) = setup();
        let menu = build_menu(&state, &paths, 0, 0);
        assert_eq!(menu.marginal(0.0), 1.0);
        assert_eq!(menu.marginal(7.9), 1.0);
        assert_eq!(menu.marginal(8.0), 2.0);
        assert_eq!(menu.marginal(50.0), 2.0);
    }

    #[test]
    fn optimal_purchase_respects_value() {
        let (_, state, paths) = setup();
        let menu = build_menu(&state, &paths, 0, 0);
        // Value 1.5: only the 1.0-priced 8 units are worth it.
        assert!((menu.optimal_purchase(1.5, 100.0) - 8.0).abs() < 1e-9);
        // Value 2.5: everything (10 units) is worth it.
        assert!((menu.optimal_purchase(2.5, 100.0) - 10.0).abs() < 1e-9);
        // Demand caps the purchase.
        assert!((menu.optimal_purchase(2.5, 3.0) - 3.0).abs() < 1e-9);
        // Value below every price: nothing.
        assert_eq!(menu.optimal_purchase(0.5, 100.0), 0.0);
    }

    #[test]
    fn all_or_nothing_threshold() {
        let (_, state, paths) = setup();
        let menu = build_menu(&state, &paths, 0, 0);
        // 10 units cost 12 total; value 1.3/unit -> total value 13 >= 12: buy.
        assert_eq!(menu.all_or_nothing_purchase(1.3, 10.0), 10.0);
        // value 1.1 -> total 11 < 12: walk away.
        assert_eq!(menu.all_or_nothing_purchase(1.1, 10.0), 0.0);
        // Demand beyond x̄: walk away even with a high value.
        assert_eq!(menu.all_or_nothing_purchase(10.0, 11.0), 0.0);
    }

    #[test]
    fn allocations_cover_purchase() {
        let (_, state, paths) = setup();
        let menu = build_menu(&state, &paths, 0, 3);
        let allocs = menu.allocations_for(25.0);
        let total: f64 = allocs.iter().map(|a| a.units).sum();
        assert!((total - 25.0).abs() < 1e-9);
        // Cheapest slots first: all allocations at base price until 4×8=32.
        for a in &allocs {
            assert!(a.t <= 3);
        }
    }

    #[test]
    fn later_deadline_never_raises_prices() {
        // Theorem 5.1 ingredient: a superset window can only lower p(x).
        let (_, mut state, paths) = setup();
        // Make step 0 expensive.
        let e = EdgeId(0);
        state.set_price(e, 0, 5.0);
        let tight = build_menu(&state, &paths, 0, 0);
        let loose = build_menu(&state, &paths, 0, 3);
        for x in [1.0, 5.0, 10.0] {
            assert!(
                loose.price(x) <= tight.price(x) + 1e-9,
                "x={x}: loose {} > tight {}",
                loose.price(x),
                tight.price(x)
            );
        }
    }

    #[test]
    fn existing_reservations_shrink_menu() {
        let (_, mut state, paths) = setup();
        state.reserve(EdgeId(0), 0, 6.0);
        let menu = build_menu(&state, &paths, 0, 0);
        assert!((menu.capacity_bound() - 4.0).abs() < 1e-9);
        // Only 2 units remain below the bump threshold (8 - 6).
        let levels = menu.price_levels();
        assert!((levels[0].1 - 2.0).abs() < 1e-9, "{levels:?}");
    }

    #[test]
    fn empty_menu_when_no_capacity() {
        let (_, mut state, paths) = setup();
        for t in 0..4 {
            let cap = state.sellable_capacity(EdgeId(0), t);
            state.reserve(EdgeId(0), t, cap);
        }
        let menu = build_menu(&state, &paths, 0, 3);
        assert_eq!(menu.capacity_bound(), 0.0);
        assert_eq!(menu.optimal_purchase(100.0, 10.0), 0.0);
        assert_eq!(menu.marginal_at_bound(), f64::INFINITY);
        assert!(menu.is_empty());
        assert_eq!(menu.best_effort_price(), None);
        // Positive quantities are unpriceable; zero units cost zero.
        assert!(menu.price(1.0).is_infinite());
        assert_eq!(menu.price(0.0), 0.0);
    }

    #[test]
    fn best_effort_price_extends_final_segment() {
        let (_, state, paths) = setup();
        let menu = build_menu(&state, &paths, 0, 0);
        // Final (bumped) segment price: 2.0.
        assert_eq!(menu.best_effort_price(), Some(2.0));
        assert!(!menu.is_empty());
        // 5 units beyond x̄ = 10 are priced explicitly at 2.0 each.
        assert!((menu.price(15.0) - (8.0 + 2.0 * 2.0 + 5.0 * 2.0)).abs() < 1e-9);
        assert!(menu.price(1e6).is_finite());
    }

    #[test]
    fn multipath_menu_prefers_cheap_path() {
        let mut net = Network::new();
        let a = net.add_node("A", Region::NorthAmerica);
        let b = net.add_node("B", Region::NorthAmerica);
        let c = net.add_node("C", Region::NorthAmerica);
        let ab = net.add_edge(a, b, 10.0, LinkCost::owned());
        let ac = net.add_edge(a, c, 10.0, LinkCost::owned());
        let cb = net.add_edge(c, b, 10.0, LinkCost::owned());
        let mut state =
            NetworkState::new(&net, TimeGrid::new(1, 30), 1, 0.0, PriceBump::disabled(), |_| 1.0);
        // Two-hop path costs 2.0/unit; make the direct edge pricier (3.0).
        state.set_price(ab, 0, 3.0);
        let paths = vec![Path::new(&net, vec![ab]), Path::new(&net, vec![ac, cb])];
        let menu = build_menu(&state, &paths, 0, 0);
        assert_eq!(menu.segments[0].alloc.path_idx, 1, "two-hop path should be first");
        assert!((menu.segments[0].unit_price - 2.0).abs() < 1e-12);
        assert!((menu.marginal(10.0) - 3.0).abs() < 1e-12);
    }
}

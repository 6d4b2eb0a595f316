//! The cost `C(X)` of SAM's `Σ λ·X − C(X)` (§4.2): Theorem 4.2's
//! sum-of-top-k proxy for the 95th-percentile bill of each percentile edge
//! and window the LP uses, over the slots of a schedule session.

use crate::schedule::ScheduleProblem;
use crate::topk::{topk_upper_bound, TopkEncoding};
use pretium_lp::{Cmp, LinExpr, Model, Name, RowId, Var};
use pretium_net::cost::TOP_FRACTION;
use pretium_net::percentile::top_k_count;
use pretium_net::{EdgeId, Network, TimeGrid, Timestep};
use rand::DetHashSet;

/// The cost proxy of one schedule session's percentile edges.
#[derive(Clone)]
pub(crate) struct PercentileProxy {
    topk: TopkEncoding,
    cost_scale: f64,
    grid: TimeGrid,
    /// Whether each edge (by index) bills by percentile.
    percentile: Vec<bool>,
    /// The `(edge, window)` pairs encoded.
    costed: DetHashSet<(EdgeId, usize)>,
    /// Per slot: its use row, if it existed when its window was encoded,
    /// and whether it awaits an encoding (percentile, window not encoded).
    slots: Vec<(Option<RowId>, bool)>,
}

impl PercentileProxy {
    pub(crate) fn new(p: &ScheduleProblem<'_>) -> Self {
        PercentileProxy {
            topk: p.topk,
            cost_scale: p.cost_scale,
            grid: *p.grid,
            percentile: p.net.edge_ids().map(|e| p.net.edge(e).cost.is_percentile()).collect(),
            costed: DetHashSet::default(),
            slots: Vec::new(),
        }
    }

    /// Whether slot `id` awaits an encoding.
    pub(crate) fn awaits_encoding(&self, id: u32) -> bool {
        self.slots[id as usize].1
    }

    /// Put flow column `v` into the proxy of slot `id`, at `(e, t)`, which
    /// it crosses; a slot's first join registers it.
    pub(crate) fn join(&mut self, model: &mut Model, id: u32, (e, t): (EdgeId, Timestep), v: Var) {
        if id as usize == self.slots.len() {
            let costed = self.costed.contains(&(e, self.grid.window_of(t)));
            self.slots.push((None, self.percentile[e.index()] && !costed));
        }
        // ROADMAP item 12(a)'s leak: a slot made after its window was
        // encoded has no use row, so its columns escape the proxy.
        if let Some(row) = self.slots[id as usize].0 {
            model.add_term(row, v, 1.0);
        }
    }

    /// The marginal percentile cost of one more unit on slot `id`: the dual
    /// of its use row `Σ flows − U = 0`, clamped at zero (tiny negative
    /// duals are noise); zero without a row or its dual.
    pub(crate) fn usage_dual(&self, id: u32, duals: &[f64]) -> f64 {
        let row = self.slots[id as usize].0;
        row.and_then(|r| duals.get(r.index())).copied().unwrap_or(0.0).max(0.0)
    }

    /// Encode percentile edge `e` over window `w`: per slot from `from` on
    /// (`slot(t)`: its index and columns) a usage column `U_{e,t}` and its
    /// use row, realized-past constants before it, a top-k bound `S` and
    /// the objective term `-C_e·S/k`.
    pub(crate) fn encode<I: Iterator<Item = Var>>(
        &mut self,
        model: &mut Model,
        net: &Network,
        realized: &dyn Fn(EdgeId, Timestep) -> f64,
        (e, w): (EdgeId, usize),
        from: Timestep,
        slot: impl Fn(Timestep) -> Option<(u32, I)>,
    ) {
        let range = self.grid.window_range(w);
        let k = top_k_count(self.grid.steps_per_window, TOP_FRACTION);
        let mut inputs: Vec<Var> = Vec::with_capacity(range.len());
        for t in range {
            if t >= from {
                // A step no column crosses (or past the horizon) has usage
                // 0, which never enters the top-k of non-negative inputs.
                let Some((id, columns)) = slot(t) else { continue };
                // U_{e,t} = Σ crossing flows, in column order.
                let u = model.add_nonneg(Name::new("u_e{}_{}", [e.index(), t]), 0.0);
                let expr = LinExpr::from_terms(columns.map(|v| (1.0, v)).chain([(-1.0, u)]));
                let name = Name::new("use_e{}_{}", [e.index(), t]);
                self.slots[id as usize] = (Some(model.add_row(name, expr, Cmp::Eq, 0.0)), false);
                inputs.push(u);
            } else {
                let c = realized(e, t);
                if c > 0.0 {
                    inputs.push(model.add_var(Name::new("past_e{}_{}", [e.index(), t]), c, c, 0.0));
                }
            }
        }
        self.costed.insert((e, w));
        if inputs.is_empty() {
            return;
        }
        let name = Name::new("c_e{}_{}", [e.index(), w]);
        let s = topk_upper_bound(model, &inputs, k, self.topk, name);
        let unit_cost = net.edge(e).cost.unit_cost() * self.cost_scale;
        model.set_obj(s, -unit_cost / k as f64);
    }

    /// Debug check, at solve time: every column crossing a slot with a use
    /// row is a term of that row with coefficient 1 (`columns(id)` lists
    /// slot `id`'s). Slots without a row are ROADMAP item 12(a)'s leak.
    pub(crate) fn check<I: Iterator<Item = Var>>(&self, model: &Model, columns: impl Fn(u32) -> I) {
        let mut rows = self.slots.iter().enumerate().filter_map(|(id, s)| Some((id as u32, s.0?)));
        let joined = |(id, row): (u32, RowId)| columns(id).all(|v| model.coef(row, v) == 1.0);
        debug_assert!(rows.all(joined), "a crossing of a slot is not in the slot's use row");
    }
}

//! Pretium configuration knobs.

use crate::state::PriceBump;
use crate::topk::TopkEncoding;
use pretium_lp::Pricing;

/// Column-generation mode for the SAM scheduling LP (DESIGN.md §17).
///
/// `Off` materializes every `(path, timestep)` flow variable when a job is
/// added — the reference behavior every recorded experiment uses. `On`
/// builds a *restricted master*: each job seeds only its shortest path, and
/// absent columns are appended only when the restricted optimum's duals
/// give them favorable reduced cost. Columns generated in one SAM step
/// persist (warm) into the next.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ColumnGen {
    /// Materialize the full `(path, timestep)` column universe up front.
    #[default]
    Off,
    /// Lazy column generation over the Yen k-shortest-path set.
    On,
}

/// All tunables of a Pretium instance. Defaults follow the paper where it
/// states values, and DESIGN.md §8 where it does not. What the paper fixes
/// and nothing in the repository varies is not a field: SAM runs every
/// timestep (§4.2), the PC optimizes over the window that just ended and
/// projects its duals forward (§4.3), cold-start prices are the per-edge
/// floors, and an uncoverable guarantee LP always sheds then relaxes
/// (§4.4).
#[derive(Debug, Clone)]
pub struct PretiumConfig {
    /// Admissible routes per request (k-shortest paths).
    pub k_paths: usize,
    /// Fraction of every link reserved for high-pri traffic (§4.4).
    pub highpri_fraction: f64,
    /// Short-term congestion price bump (§4.1; paper: double the last 20%).
    pub bump: PriceBump,
    /// Top-k cost encoding for the scheduling LPs.
    pub topk: TopkEncoding,
    /// Multiplier on link costs (Figure 12 sweeps this).
    pub cost_scale: f64,
    /// Disable SAM entirely (the Pretium-NoSAM ablation of Figure 11).
    pub sam_enabled: bool,
    /// Price floor per unit: the whole floor on owned links. On
    /// percentile-billed links `pretium::price_floor` adds a unit's flat
    /// share of the percentile cost, `price_floor + C_e · cost_scale / W`
    /// (`W` = steps per window); no quote falls below it.
    pub price_floor: f64,
    /// Run the network-state invariant auditor after every RA accept, SAM
    /// re-optimization, PC price update, and executed step. Debug/test
    /// builds audit unconditionally; this flag turns auditing on in
    /// release builds too (e.g. for an audited evaluation replay).
    pub audit: bool,
    /// Simplex pricing strategy for every LP Pretium solves (RA quotes,
    /// SAM re-optimization, PC dual pricing). Deterministic given the
    /// model, so any choice preserves the cross-`--jobs` replay contract.
    pub pricing: Pricing,
    /// Column generation for the SAM scheduling LP (DESIGN.md §17). Off by
    /// default: full materialization is the reference behavior, and every
    /// recorded experiment uses it unless stated. PC and the offline
    /// baselines always solve fully materialized regardless of this knob.
    pub colgen: ColumnGen,
    /// Forrest–Tomlin updates the LP basis factorization accumulates
    /// before refactorizing, for every LP Pretium solves. `0` (the
    /// default) inherits the solver default
    /// ([`pretium_lp::DEFAULT_MAX_ETAS`]). Any setting preserves the
    /// cross-`--jobs` replay contract; different settings change refactor
    /// cadence and hence floating-point roundoff, so objectives agree
    /// across settings only to solver tolerance (see the determinism
    /// suite's documented contract), not bit-exactly.
    pub max_etas: usize,
    /// Worker threads for the deterministic parallel-pricing layer, for
    /// every LP Pretium solves *and* the colgen oracle's job-block pricing.
    /// 1 (the default) runs the exact serial path; >1 fans candidate
    /// scoring out over a work-stealing pool in fixed, size-derived
    /// sections reduced in section order, so — unlike [`Self::max_etas`] —
    /// any setting is **bit-identical** to serial (DESIGN.md §19).
    pub pricing_jobs: usize,
}

impl Default for PretiumConfig {
    fn default() -> Self {
        PretiumConfig {
            k_paths: 3,
            highpri_fraction: 0.10,
            bump: PriceBump::default(),
            topk: TopkEncoding::CVar,
            cost_scale: 1.0,
            sam_enabled: true,
            price_floor: 0.05,
            audit: false,
            pricing: Pricing::default(),
            colgen: ColumnGen::Off,
            max_etas: 0,
            pricing_jobs: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        // Exhaustive on purpose: a new field does not compile here until
        // someone has argued for it (ROADMAP item 3: at most 12).
        let PretiumConfig {
            k_paths,
            highpri_fraction,
            bump,
            topk,
            cost_scale,
            sam_enabled,
            price_floor,
            audit,
            pricing,
            colgen,
            max_etas,
            pricing_jobs,
        } = PretiumConfig::default();
        assert_eq!((k_paths, highpri_fraction, cost_scale, price_floor), (3, 0.10, 1.0, 0.05));
        assert_eq!((bump.threshold, bump.factor), (0.8, 2.0));
        assert_eq!(topk, TopkEncoding::CVar);
        assert!(sam_enabled);
        // Release-build auditing is opt-in (debug builds always audit).
        assert!(!audit);
        assert_eq!(pricing, Pricing::PartialDevex);
        // Colgen is opt-in.
        assert_eq!(colgen, ColumnGen::Off);
        // The solver default cadence and the serial pricing path; >1
        // pricing workers are bit-identical by the section-ordered
        // reduction contract.
        assert_eq!((max_etas, pricing_jobs), (0, 1));
    }

    #[test]
    fn clone_roundtrip() {
        let c = PretiumConfig { k_paths: 5, colgen: ColumnGen::On, ..Default::default() };
        let back = c.clone();
        assert_eq!(c.k_paths, back.k_paths);
        assert_eq!(c.colgen, back.colgen);
    }
}

//! Pretium configuration knobs.

use crate::state::PriceBump;
use crate::topk::TopkEncoding;
use pretium_lp::Pricing;

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
    /// Top-k cost encoding for the scheduling LPs. Nothing sets it off
    /// [`TopkEncoding::CVar`] outside tests and benches; it stays because
    /// the frozen end-to-end benchmark (`e2ebench/src/probes.rs`) reads it.
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
    /// Simplex pricing rule. [`Pricing`] has one variant and Pretium reads
    /// nothing from this field; it stays only because the frozen
    /// end-to-end benchmark (`e2ebench/src/probes.rs`) copies it into its
    /// solve options, and goes when that reader does.
    pub pricing: Pricing,
    /// Forrest–Tomlin updates the LP basis factorization accumulates
    /// before refactorizing, for every LP Pretium solves
    /// ([`pretium_lp::SolverTuning::max_etas`]). `0` (the default) selects
    /// the solver default ([`pretium_lp::DEFAULT_MAX_ETAS`]). Any setting
    /// preserves the cross-`--jobs` replay contract; different settings
    /// change refactor cadence and hence floating-point roundoff, so
    /// objectives agree across settings only to solver tolerance (see the
    /// determinism suite's documented contract), not bit-exactly.
    pub max_etas: usize,
    /// Inert: Pretium reads nothing from this field, and every LP prices
    /// serially. It set the workers of the parallel-pricing layer, which
    /// is gone (DESIGN.md §19). It stays only because the frozen
    /// end-to-end benchmark (`e2ebench/src/probes.rs`) copies it into its
    /// solve options, and goes when that reader does.
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
        // someone has argued for it (ROADMAP item 5: at most 11).
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
        // The solver default cadence; `pricing_jobs` is inert.
        assert_eq!((max_etas, pricing_jobs), (0, 1));
    }

    #[test]
    fn clone_roundtrip() {
        let c = PretiumConfig { k_paths: 5, sam_enabled: false, ..Default::default() };
        let back = c.clone();
        assert_eq!(c.k_paths, back.k_paths);
        assert_eq!(c.sam_enabled, back.sam_enabled);
    }
}

//! The solver's one counter type.
//!
//! A solve counts into a [`SessionStats`] as it runs: the pivot loops
//! increment it, the end of the solve folds in the factorization's work and
//! sets its restart counter. The [`Solution`](crate::Solution) carries that
//! one-solve ledger ([`Solution::stats`](crate::Solution::stats)), and a
//! [`SolverSession`](crate::SolverSession) merges the ledgers of the solves
//! it ran into its own.

/// Solver counters: of one solve, or merged over a session's lifetime.
///
/// Equality compares only the *deterministic* counters: steal counts and
/// the serial/parallel wall-clock split depend on thread scheduling and
/// timer resolution, so they are excluded from `PartialEq` — two runs of
/// the same configuration compare equal even though their timing fields
/// differ. Section counts stay in the comparison; they derive from range
/// sizes alone and are reproducible.
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Total solves (each round of a caller's generation loop is one).
    pub solves: u64,
    /// Solves that ran from a crash basis.
    pub cold_starts: u64,
    /// Warm restarts that needed only primal phase 2.
    pub warm_primal: u64,
    /// Warm restarts that ran the dual simplex first.
    pub warm_dual: u64,
    /// Total simplex iterations across all solves.
    pub iterations: u64,
    /// Those of them that were dual simplex pivots of warm restarts.
    pub dual_iterations: u64,
    /// Those dual pivots whose dual step `θ_d` was zero: degenerate, the
    /// duals and reduced costs did not move.
    pub dual_degenerate: u64,
    /// Total pricing work across all solves: columns examined by entering
    /// selection plus columns touched by incremental pivot-row updates.
    pub pricing_scans: u64,
    /// Iterations priced under the Bland's-rule anti-cycling fallback.
    pub bland_pivots: u64,
    /// Solves answered from the cached solution without touching the
    /// simplex (nothing mutated since the last certified optimum).
    pub cache_hits: u64,
    /// Always 0: counted the frozen-block submodel solves of incremental
    /// SAM, which is gone. The field stays, and stays out of
    /// [`SessionStats::rows`], only because the frozen end-to-end benchmark
    /// (`e2ebench/src/layers.rs`) reads it as `lp.restricted`; it goes when
    /// the manifest drops that metric.
    pub restricted: u64,
    /// Columns appended through
    /// [`SolverSession::add_generated_cols`](crate::SolverSession::add_generated_cols)
    /// (the colgen growth path).
    pub columns_generated: u64,
    /// Non-empty `add_generated_cols` batches — the restricted-master round
    /// count of the caller's pricing loop.
    pub colgen_rounds: u64,
    /// Sparse-LU refactorizations across all solves.
    pub refactors: u64,
    /// Cumulative nonzeros of the bases handed to refactorization.
    pub basis_nnz: u64,
    /// Cumulative nonzeros of the L/U factors produced (including the
    /// diagonal); `factor_nnz / basis_nnz` is the session fill-in ratio.
    pub factor_nnz: u64,
    /// Forrest–Tomlin basis-exchange updates applied in place.
    pub ft_updates: u64,
    /// FT updates rejected on a too-small new diagonal (each forces a
    /// refactorization).
    pub pivot_rejections: u64,
    /// Backward solves: one per pivot row, one per full reprice, one for
    /// the terminal duals when they are not already current.
    pub btrans: u64,
    /// Warm solves that continued from the state their predecessor left in
    /// the thread's workspace instead of reloading the saved basis
    /// (DESIGN.md §23); `warm_primal + warm_dual − carried` reloaded.
    pub carried: u64,
    /// Appended rows bordered onto the carried factors.
    pub bordered_rows: u64,
    /// Solves whose terminal `(x, y)` failed the residual certificate and
    /// was recomputed from a fresh factorization.
    pub terminal_refactors: u64,
    /// Sections executed by the deterministic parallel-pricing layer
    /// (simplex pricing sweeps plus any scheduler-side fan-out folded in
    /// via
    /// [`SolverSession::note_parallel_pricing`](crate::SolverSession::note_parallel_pricing)).
    /// Deterministic for a fixed configuration.
    pub pricing_par_sections: u64,
    /// Parallel-pricing sections claimed by a worker other than the one
    /// they were seeded on. Timing-dependent; excluded from equality.
    pub pricing_par_steals: u64,
    /// Wall-clock nanoseconds of pricing invocations that ran the serial
    /// path. Timing-dependent; excluded from equality.
    pub pricing_serial_nanos: u64,
    /// Wall-clock nanoseconds of pricing invocations that fanned out over
    /// the worker pool. Timing-dependent; excluded from equality.
    pub pricing_par_nanos: u64,
}

impl PartialEq for SessionStats {
    fn eq(&self, other: &Self) -> bool {
        // Every counter except the timing-dependent trio (steals + the two
        // wall-clock buckets); see the type-level docs.
        self.solves == other.solves
            && self.cold_starts == other.cold_starts
            && self.warm_primal == other.warm_primal
            && self.warm_dual == other.warm_dual
            && self.iterations == other.iterations
            && self.dual_iterations == other.dual_iterations
            && self.dual_degenerate == other.dual_degenerate
            && self.pricing_scans == other.pricing_scans
            && self.bland_pivots == other.bland_pivots
            && self.cache_hits == other.cache_hits
            && self.columns_generated == other.columns_generated
            && self.colgen_rounds == other.colgen_rounds
            && self.refactors == other.refactors
            && self.basis_nnz == other.basis_nnz
            && self.factor_nnz == other.factor_nnz
            && self.ft_updates == other.ft_updates
            && self.pivot_rejections == other.pivot_rejections
            && self.btrans == other.btrans
            && self.carried == other.carried
            && self.bordered_rows == other.bordered_rows
            && self.terminal_refactors == other.terminal_refactors
            && self.pricing_par_sections == other.pricing_par_sections
    }
}

impl Eq for SessionStats {}

impl SessionStats {
    /// Fraction of solves that reused the previous basis.
    pub fn warm_fraction(&self) -> f64 {
        if self.solves == 0 {
            return 0.0;
        }
        (self.warm_primal + self.warm_dual) as f64 / self.solves as f64
    }

    /// Fold another counter set into this one: a solve's ledger into its
    /// session's, or one session's into an aggregate (one per SAM window).
    pub fn merge(&mut self, other: SessionStats) {
        self.solves += other.solves;
        self.cold_starts += other.cold_starts;
        self.warm_primal += other.warm_primal;
        self.warm_dual += other.warm_dual;
        self.iterations += other.iterations;
        self.dual_iterations += other.dual_iterations;
        self.dual_degenerate += other.dual_degenerate;
        self.pricing_scans += other.pricing_scans;
        self.bland_pivots += other.bland_pivots;
        self.cache_hits += other.cache_hits;
        self.columns_generated += other.columns_generated;
        self.colgen_rounds += other.colgen_rounds;
        self.refactors += other.refactors;
        self.basis_nnz += other.basis_nnz;
        self.factor_nnz += other.factor_nnz;
        self.ft_updates += other.ft_updates;
        self.pivot_rejections += other.pivot_rejections;
        self.btrans += other.btrans;
        self.carried += other.carried;
        self.bordered_rows += other.bordered_rows;
        self.terminal_refactors += other.terminal_refactors;
        self.pricing_par_sections += other.pricing_par_sections;
        self.pricing_par_steals += other.pricing_par_steals;
        self.pricing_serial_nanos += other.pricing_serial_nanos;
        self.pricing_par_nanos += other.pricing_par_nanos;
    }

    /// Labelled counter rows for table rendering (`(label, value)`), in a
    /// stable order.
    pub fn rows(&self) -> Vec<(String, String)> {
        vec![
            ("lp solves".into(), self.solves.to_string()),
            ("cold starts".into(), self.cold_starts.to_string()),
            ("warm primal".into(), self.warm_primal.to_string()),
            ("warm dual".into(), self.warm_dual.to_string()),
            ("iterations".into(), self.iterations.to_string()),
            ("dual iterations".into(), self.dual_iterations.to_string()),
            ("lp degenerate dual pivots".into(), self.dual_degenerate.to_string()),
            ("pricing scans".into(), self.pricing_scans.to_string()),
            ("bland pivots".into(), self.bland_pivots.to_string()),
            ("cache hits".into(), self.cache_hits.to_string()),
            ("columns generated".into(), self.columns_generated.to_string()),
            ("colgen rounds".into(), self.colgen_rounds.to_string()),
            ("refactors".into(), self.refactors.to_string()),
            ("ft updates".into(), self.ft_updates.to_string()),
            ("pivot rejections".into(), self.pivot_rejections.to_string()),
            ("lp btrans".into(), self.btrans.to_string()),
            ("lp carried solves".into(), self.carried.to_string()),
            ("lp bordered rows".into(), self.bordered_rows.to_string()),
            ("lp terminal refactors".into(), self.terminal_refactors.to_string()),
            ("pricing par sections".into(), self.pricing_par_sections.to_string()),
            ("pricing par steals".into(), self.pricing_par_steals.to_string()),
            (
                "pricing wall serial/par".into(),
                format!(
                    "{:.1}ms / {:.1}ms",
                    self.pricing_serial_nanos as f64 / 1e6,
                    self.pricing_par_nanos as f64 / 1e6
                ),
            ),
            (
                "fill-in ratio".into(),
                format!("{:.3}", self.factor_nnz as f64 / self.basis_nnz.max(1) as f64),
            ),
            ("warm fraction".into(), format!("{:.3}", self.warm_fraction())),
        ]
    }
}

//! # pretium-baselines — the evaluation's comparison schemes (§6.1)
//!
//! * [`offline`] — the one offline scheduling LP ([`solve_offline`]) and
//!   its three uses: **OPT** (true values; the denominator of every
//!   relative-welfare figure), **NoPrices** (value-blind byte
//!   maximization), and posted prices, whose two levels
//!   [`posted_price_oracle`] picks in hindsight.
//! * [`region`] — **RegionOracle**: the inter-region price is the high
//!   level, as in Table 2's cloud price sheets.
//! * [`peak`] — **PeakOracle**: the trace's peak steps pay the high level.
//! * [`vcg`] — **VCGLike**: a per-timestep spot market with VCG payments.
//! * [`outcome`] — the result type every scheme (and the Pretium runner in
//!   `pretium-sim`) reports, so welfare, profit, completion and
//!   utilization are computed the same way everywhere.
//!
//! The Pretium ablations of Figure 11 (NoMenu, NoSAM) are configurations
//! of the Pretium runner itself and live in `pretium-sim`.
//!
//! Outside its tests the crate neither unwraps nor panics; clippy enforces
//! it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod offline;
pub mod outcome;
pub mod peak;
pub mod region;
pub mod vcg;

pub use offline::{
    no_prices, opt, posted_price_oracle, price_candidates, solve_offline, OfflineConfig,
    OracleResult, Weighting, GRID_POINTS, K_PATHS,
};
pub use outcome::Outcome;
pub use peak::{peak_oracle, peak_steps_from_trace};
pub use region::{is_inter_region, region_oracle};
pub use vcg::vcg_like;

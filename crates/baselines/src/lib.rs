//! # pretium-baselines — the evaluation's comparison schemes (§6.1)
//!
//! * [`offline`] — **OPT** (offline welfare oracle; the denominator of all
//!   relative-welfare figures) and **NoPrices** (value-blind offline TE).
//! * [`region`] — **RegionOracle**: two posted prices (intra / inter
//!   region) chosen in hindsight; mirrors Table 2's cloud price sheets.
//! * [`peak`] — **PeakOracle**: peak / off-peak posted prices.
//! * [`vcg`] — **VCGLike**: per-timestep spot market with VCG payments.
//! * [`outcome`] — the shared result type all schemes (and the Pretium
//!   runner in `pretium-sim`) report, so welfare / profit / completion /
//!   utilization are computed identically everywhere.
//!
//! The Pretium ablations of Figure 11 (NoMenu, NoSAM) are configurations
//! of the Pretium runner itself and live in `pretium-sim`.

pub mod offline;
pub mod outcome;
pub mod peak;
pub mod priced_offline;
pub mod region;
pub mod vcg;

pub use offline::{no_prices, opt, solve_offline, OfflineConfig};
pub use outcome::Outcome;
pub use peak::{peak_oracle, peak_steps_from_requests, peak_steps_from_trace, PeakOracleResult};
pub use priced_offline::{price_candidates, run_posted_price};
pub use region::{is_inter_region, region_oracle, RegionOracleResult};
pub use vcg::vcg_like;

//! # pretium-net — the WAN substrate
//!
//! Everything Pretium needs to know about the physical network, built from
//! scratch for the reproduction of "Dynamic Pricing and Traffic Engineering
//! for Timely Inter-Datacenter Transfers" (SIGCOMM 2016):
//!
//! * [`graph`] — directed WAN graph of datacenters and links, with
//!   per-timestep capacities and regions.
//! * [`cost`] — link cost models: owned (fixed) links vs links billed on
//!   95th-percentile usage, plus the paper's sum-of-top-k cost proxy.
//! * [`paths`] — Dijkstra and Yen's k-shortest loopless paths; the route
//!   sets `R_i` that requests are admitted on.
//! * [`time`] — timestep/window discretization shared by all modules.
//! * [`topology`] — generators for region-structured WANs, including a
//!   106-node/≈226-link production-scale instance and the 4-node example
//!   of the paper's Figure 2.
//! * [`util`] — usage accounting: percentile billing, utilization CDFs,
//!   capacity-violation checks.
//! * [`percentile`] — nearest-rank percentiles, top-k means, correlation
//!   statistics (Figure 5).

pub mod cost;
pub mod graph;
pub mod paths;
pub mod percentile;
pub mod time;
pub mod topology;
pub mod util;

pub use cost::LinkCost;
pub use graph::{Edge, EdgeId, Network, Node, NodeId, Region};
pub use paths::{k_shortest_paths, shortest_path, Path, PathSet, SharedPathSet};
pub use time::{TimeGrid, Timestep};
pub use util::UsageTracker;

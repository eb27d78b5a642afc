//! # tb-traffic
//!
//! Traffic-matrix (TM) generators and operators for topobench.
//!
//! A [`TrafficMatrix`] is a set of demands between *switches* (servers are
//! folded into the switch they attach to, see §II-A of the paper); the hose
//! model constrains each switch to send and receive at most as many units as
//! it has servers.
//!
//! Generators (§II-C, §IV):
//!
//! * [`synthetic::all_to_all`] — the complete TM `T_{A2A}`,
//! * [`synthetic::random_matching`] — `k` random server-level matchings
//!   ("Random Matching - k" in Fig 2),
//! * [`synthetic::longest_matching`] — the paper's near-worst-case heuristic:
//!   the max-weight matching of shortest-path lengths,
//! * [`synthetic::kodialam`] — the Kodialam et al. average-path-length
//!   maximizing TM used as a comparison point,
//! * [`synthetic::skewed`] — the non-uniform TM of Figs 10–12 (a fraction of
//!   flows get weight `w`),
//! * [`facebook`] — synthetic stand-ins for the two measured Facebook cluster
//!   TMs of Figs 13–14 (Hadoop-like TM-H, frontend-like TM-F),
//! * [`ops`] — shuffling, downsampling and mapping TMs onto topologies.

#![forbid(unsafe_code)]

pub mod facebook;
pub mod matrix;
pub mod ops;
pub mod synthetic;

pub use matrix::{Demand, TrafficMatrix};

//! # tb-graph
//!
//! Graph substrate for the topobench framework.
//!
//! This crate provides the low-level machinery every other topobench crate is
//! built on:
//!
//! * [`Graph`] — an undirected, capacitated multigraph over switch nodes with a
//!   compact edge list + adjacency representation,
//! * CSR adjacency ([`csr`]) — the flat arc layout every shortest-path hot
//!   path traverses,
//! * shortest paths ([`shortest_path`]) — unweighted BFS, the single shared
//!   Dijkstra kernel ([`sssp_csr`], reusable-workspace, early-exit), and
//!   (optionally parallel) all-pairs variants,
//! * maximum-weight perfect matchings ([`matching`]) — the Hungarian /
//!   Jonker–Volgenant algorithm used by the longest-matching traffic matrix,
//! * spectral tools ([`spectral`]) — the second eigenvector of the normalized
//!   Laplacian, used by the eigenvector sweep cut estimator,
//! * random graph models ([`random`]) — random regular graphs (Jellyfish),
//!   configuration-model graphs matching an arbitrary degree sequence
//!   (the "same equipment" normalizer), and the natural-network stand-ins
//!   (Erdős–Rényi, Watts–Strogatz, Barabási–Albert, stochastic block model),
//! * connectivity utilities ([`connectivity`]).
//!
//! All randomized constructions take an explicit seed and are deterministic for
//! a given seed, so experiments are reproducible.

pub mod connectivity;
pub mod csr;
pub mod graph;
pub mod matching;
pub mod maxflow;
pub mod random;
pub mod shortest_path;
pub mod spectral;

pub use csr::CsrGraph;
pub use graph::{Edge, Graph};
pub use maxflow::{max_flow_value, min_st_cut, MaxFlow};
pub use shortest_path::{
    apsp_unweighted, bfs_distances, sssp_csr, sssp_csr_by, sssp_csr_goal, sssp_csr_repair_by,
    sssp_csr_repair_own_by, ShortestPathTree, SsspWorkspace,
};

//! # tb-cuts
//!
//! Cut metrics and sparsest-cut estimators (§II-B, §III-B and Appendix C of
//! the paper).
//!
//! For a cut `(S, S̄)` and a traffic matrix `T`, the *sparsity* of the cut is
//! the capacity of the links crossing it divided by the demand that must cross
//! it; any cut's sparsity upper-bounds the concurrent throughput, and the
//! sparsest cut is the tightest such bound — but, as the paper shows, it can
//! still overestimate throughput by up to an `O(log n)` factor.
//!
//! Because finding the sparsest cut is NP-hard, the paper (Appendix C) uses a
//! battery of heuristics and takes the best cut any of them finds; this crate
//! reproduces that battery:
//!
//! * brute force, capped at 10,000 cuts (every cut of a graph of at most 14
//!   nodes, the low-index subsets beyond),
//! * one-node and two-node cuts,
//! * expanding-region cuts (BFS balls around every node),
//! * an eigenvector sweep of the normalized-Laplacian second eigenvector,
//! * balanced bisections (for the bisection-bandwidth metric).
//!
//! Every estimator scores its cuts with [`tb_flow::FlowProblem::cut_bound`],
//! the routine the FPTAS's swept cuts and the certificate verifier use, so
//! one sum serves every cut bound in the workspace. The estimators grow their
//! candidates one node at a time with running crossing sums, as the swept
//! cuts do, and re-sum only the candidates those sums put within reach of
//! the best so far.

#![forbid(unsafe_code)]

pub mod estimators;
pub mod sparsity;

pub use estimators::{estimate_sparsest_cut, CutEstimate, CutReport, Estimator, ALL_ESTIMATORS};
pub use sparsity::bisection_bandwidth;

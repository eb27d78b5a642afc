//! # tb-lp
//!
//! A small, self-contained linear-programming solver.
//!
//! The paper computes throughput with Gurobi; this repository replaces it with
//! two components: a combinatorial FPTAS (in `tb-flow`) for large instances and
//! this exact **two-phase revised primal simplex**. Its one caller is
//! `tb_flow::exact`, which builds the two throughput LPs it solves — the
//! destination-aggregated arc LP of all-to-all instances small enough for
//! the sweep's exact path, and the restricted master of path column
//! generation for every matching-style one (and for the 64-switch bench
//! shapes the FPTAS is certified against) — and through it the tests that
//! validate the FPTAS.
//!
//! [`OpenLp`] is the same simplex kept open after it solves: the basis, its
//! LU and eta factors and the pricing state stay in place, structural
//! columns can be appended at value zero (the basis stays primal feasible)
//! and [`OpenLp::resolve`] resumes primal simplex from the last optimum.
//! Column generation builds its master once and grows it so, round by round,
//! instead of building and crashing a new LP each round; [`solve`] is an
//! `OpenLp` solved and read once.
//!
//! [`Packing`] is the crate's second solver, for one shape only: packing
//! programs (`max sum v` subject to `A v <= 1`, `A >= 0`) with few variables,
//! held as an open dense tableau that takes added variables and constraints
//! between solves. The FPTAS mixes its flow blocks with it at every bound
//! evaluation, where a solve through [`solve`] would pay a factorization of
//! the whole basis each time.
//!
//! The solver handles problems of the form
//!
//! ```text
//!   maximize    c' x
//!   subject to  a_i' x  {<=, =, >=}  b_i     (i = 1..m)
//!               x >= 0
//! ```
//!
//! The basis is kept as a sparse LU factorization with product-form updates,
//! entering columns are chosen by Devex pricing, and degeneracy is handled by
//! a deterministic bound perturbation that is removed before the optimum is
//! reported (see the `simplex` module's documentation). A solve can start from
//! a caller's guess of the solution ([`solve_with_hint`]) and reports dual
//! values and its own pivot counters on every [`Solution`].

#![forbid(unsafe_code)]

mod packing;
mod simplex;

pub use packing::{Packing, PackingError};

pub use simplex::{
    solve, solve_with_hint, Constraint, ConstraintOp, LinearProgram, LpError, LpResult, OpenLp,
    Solution,
};

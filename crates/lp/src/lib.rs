//! # tb-lp
//!
//! A small, self-contained linear-programming solver.
//!
//! The paper computes throughput with Gurobi; this repository replaces it with
//! two components: a combinatorial FPTAS (in `tb-flow`) for large instances and
//! this exact **two-phase revised primal simplex**. Its one caller is
//! `tb_flow::exact`, which builds the two throughput LPs it solves — the
//! destination-aggregated arc LP of every instance small enough for the
//! sweep's exact path, and the restricted masters of path column generation
//! that certify 64-switch bench shapes against the true optimum — and
//! through it the tests that validate the FPTAS.
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
    solve, solve_with_hint, Constraint, ConstraintOp, LinearProgram, LpError, LpResult, Solution,
};

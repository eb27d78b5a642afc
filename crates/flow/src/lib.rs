//! # tb-flow
//!
//! Throughput solvers for topobench.
//!
//! Throughput of a topology `G` under a traffic matrix `T` is defined (§II-A
//! of the paper) as the largest `t` such that `T · t` is feasible as a
//! multicommodity flow in `G` — the *maximum concurrent flow*. The paper
//! solves the corresponding LP with Gurobi; this crate provides:
//!
//! * [`FleischerSolver`] — a combinatorial FPTAS (Fleischer / Garg–Könemann
//!   multiplicative weights) that produces a *feasible* flow (lower bound) and
//!   a dual length-function bound (upper bound), with adaptive termination
//!   once the two are within a configurable gap. This is the workhorse used by
//!   all experiments.
//! * [`ExactLpSolver`] — the arc-based LP aggregated by destination, solved
//!   exactly with the bundled simplex (`tb-lp`); practical for graphs up to a
//!   few dozen switches and used to validate the FPTAS in tests.
//! * [`restricted`] — path-restricted throughput (the LLSKR replication used
//!   by Fig 15) and the subflow-counting estimator of Yuan et al.
//!
//! All solvers consume a [`tb_graph::Graph`] (switch-level, per-direction edge
//! capacities) and a [`tb_traffic::TrafficMatrix`].

pub mod certificate;
pub mod exact;
pub mod fleischer;
pub mod instance;
pub mod lengths;
pub mod restricted;

pub use certificate::{verify_certificate, CertificateError, ThroughputCertificate};
pub use exact::ExactLpSolver;
pub use fleischer::{FleischerConfig, FleischerSolver, SolveOutcome, SolveStats, SolverWorkspace};
pub use instance::FlowProblem;
pub use lengths::MwuLengths;

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use tb_graph::connectivity::connected_components;
use tb_graph::Graph;
use tb_traffic::{Demand, TrafficMatrix};

/// Revision of what the solvers compute, folded into every sweep cache key:
/// bump it with any change that moves a solved value while leaving every
/// configuration field alone, so that a warm cache cannot serve the previous
/// solver's numbers. Revision 3 routes every FPTAS source with several
/// destinations on the aggregated tree (revision 2, the per-destination walk
/// below a graph-size threshold; revision 1, suffix windows instead of the
/// block-mix feasible bound).
pub const SOLVER_REVISION: u32 = 3;

/// Process-wide count of throughput-solver invocations (FPTAS, exact LP and
/// path-restricted). The sweep engine's cache tests read deltas of this
/// counter to prove that cache-hot runs perform zero solves.
static SOLVE_COUNT: AtomicU64 = AtomicU64::new(0);

/// Returns the cumulative number of solver invocations in this process.
pub fn solver_invocations() -> u64 {
    SOLVE_COUNT.load(Ordering::Relaxed)
}

pub(crate) fn record_solver_invocation() {
    SOLVE_COUNT.fetch_add(1, Ordering::Relaxed);
}

/// The result of a throughput computation: a bracketing interval around the
/// true LP optimum.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThroughputBounds {
    /// A value achieved by an explicit feasible flow (`lower <= optimum`).
    pub lower: f64,
    /// A dual/certified upper bound (`optimum <= upper`).
    pub upper: f64,
}

impl ThroughputBounds {
    /// An exact result (both bounds equal).
    pub fn exact(value: f64) -> Self {
        ThroughputBounds {
            lower: value,
            upper: value,
        }
    }

    /// The feasible value; this is what experiments report as "throughput".
    pub fn value(&self) -> f64 {
        self.lower
    }

    /// Relative gap between the bounds (0 for exact results).
    pub fn gap(&self) -> f64 {
        if self.upper <= 0.0 {
            0.0
        } else {
            (self.upper - self.lower) / self.upper
        }
    }
}

/// Structured status of one throughput solve, reported by
/// [`FleischerSolver::solve_outcome`] alongside the bounds.
///
/// `Converged` means the solver met its accuracy contract (the classical
/// FPTAS termination or the target bound gap). Anything else is a *degraded*
/// result: the bounds are still valid (`lower` is achieved by an explicit
/// feasible flow, `upper` is a dual certificate), but the caller should know
/// the instance was pathological.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolveStatus {
    /// The bounds bracket the optimum within the solver's accuracy contract.
    Converged,
    /// The phase budget ran out first; the bounds are the best
    /// (1±ε)-bracketed values seen so far.
    BudgetExhausted,
    /// Some demand pairs were disconnected and dropped before solving; the
    /// bounds describe the surviving demands only (zero when none survive).
    DisconnectedDemandsDropped {
        /// Demands dropped because their endpoints share no component.
        dropped: usize,
        /// Demands that survived and were actually solved.
        kept: usize,
    },
}

impl SolveStatus {
    /// True unless the solve fully converged on the full demand set.
    pub fn is_degraded(&self) -> bool {
        !matches!(self, SolveStatus::Converged)
    }

    /// A short, stable label for artifacts and logs.
    pub fn label(&self) -> String {
        match self {
            SolveStatus::Converged => "converged".to_string(),
            SolveStatus::BudgetExhausted => "budget-exhausted".to_string(),
            SolveStatus::DisconnectedDemandsDropped { dropped, kept } => {
                format!("dropped-{dropped}-kept-{kept}")
            }
        }
    }
}

/// Splits `tm` into the demands whose endpoints share a connected component
/// of `graph`, dropping the rest. Returns the (possibly empty) surviving
/// traffic matrix and the number of dropped demands. Self-demands always
/// survive. This is the reachability partition used by the degradation-aware
/// solve path: a single disconnected pair forces the *concurrent* flow to
/// zero, so graceful degradation means solving the reachable sub-TM instead.
pub fn drop_disconnected_demands(graph: &Graph, tm: &TrafficMatrix) -> (TrafficMatrix, usize) {
    let comp = connected_components(graph);
    let kept: Vec<Demand> = tm
        .demands()
        .iter()
        .filter(|d| comp[d.src] == comp[d.dst])
        .copied()
        .collect();
    let dropped = tm.num_flows() - kept.len();
    (TrafficMatrix::new(tm.num_switches(), kept), dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_gap() {
        let b = ThroughputBounds {
            lower: 0.9,
            upper: 1.0,
        };
        assert!((b.gap() - 0.1).abs() < 1e-12);
        assert_eq!(b.value(), 0.9);
        let e = ThroughputBounds::exact(2.0);
        assert_eq!(e.gap(), 0.0);
    }
}

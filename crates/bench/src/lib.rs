//! Shared helpers for the Criterion benchmark.
//!
//! `solver_microbench` tracks the raw performance of the throughput solvers
//! (committed as `BENCH_solver.json`); the scenario engine and end-to-end
//! sweep performance are measured per layer by the harness in `benchmark/`.

pub mod legacy;

use tb_flow::{FleischerConfig, ThroughputBounds};

/// The kernel-equivalence contract, shared by `solver_microbench`, the
/// `compare_kernels` example (CI's kernel smoke step), and the workspace
/// regression tests so the three enforcers cannot drift apart: two solver
/// kernels (or the current kernel and `legacy`) run on the same instance must
/// report no worse a gap than each other (small slack for their differing —
/// equally valid — routing choices), overlapping brackets, and feasible
/// values within twice the configured target gap.
///
/// # Panics
/// Panics with `name` in the message when any of the three checks fails.
pub fn assert_same_quality(
    name: &str,
    cfg: &FleischerConfig,
    new: ThroughputBounds,
    old: ThroughputBounds,
) {
    assert!(
        new.gap() <= old.gap() + 0.01,
        "{name}: kernel lost bound quality: new {new:?} vs baseline {old:?}"
    );
    assert!(
        new.lower <= old.upper * (1.0 + 1e-9) && old.lower <= new.upper * (1.0 + 1e-9),
        "{name}: kernel brackets do not overlap: new {new:?} vs baseline {old:?}"
    );
    let rel = (new.lower - old.lower).abs() / old.lower.max(1e-12);
    assert!(
        rel <= 2.0 * cfg.target_gap,
        "{name}: feasible values diverged by {rel:.4}: new {new:?} vs baseline {old:?}"
    );
}

//! Shared helpers for the Criterion benchmarks.
//!
//! `solver_microbench` tracks the raw performance of the throughput solvers
//! (committed as `BENCH_solver.json`) and `sweep_engine` the scenario engine's
//! own overhead; end-to-end sweep performance is measured by `benchmark/`.

pub mod legacy;

use tb_flow::{FleischerConfig, ThroughputBounds};
use topobench::EvalConfig;

/// The evaluation configuration used by all benches: the fast solver profile
/// with a fixed seed so runs are comparable.
pub fn bench_config() -> EvalConfig {
    let mut cfg = EvalConfig::fast();
    cfg.random_graph_iterations = 1;
    cfg.seed = 7;
    cfg
}

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

#[cfg(test)]
mod tests {
    #[test]
    fn config_is_fast_profile() {
        let cfg = super::bench_config();
        assert_eq!(cfg.random_graph_iterations, 1);
        assert_eq!(cfg.seed, 7);
    }
}

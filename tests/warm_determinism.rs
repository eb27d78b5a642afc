//! Determinism and safety of cross-instance warm-started solves.
//!
//! A warm chain hands each solve the previous member's `WarmStart` (the
//! final MWU length shape + certified dual bound). The chain is a data
//! dependency, so its execution is serial by construction — the contract here
//! is that the *whole chain* is bit-identical across fan-out regimes
//! (parallel vs forced-inline nested regions), across repeated runs on a
//! reused workspace, and for any pool width (CI re-runs this binary under
//! `RAYON_NUM_THREADS=1`, `2` and `8`).
//!
//! Safety: a warm trajectory abandons the delta-init argument behind the
//! classical `(1+ε)` saturation guarantee, so every warm exit must *measure*
//! its way under the practical quality bar or the gate resets it to cold
//! (`WarmGate::ResetLagging` / `ResetQuality`). Quality is pinned with the
//! shared `tb_bench` target-gap contract against the cold path on the same
//! skew-fraction ladders the sweeps chain, and the gate-degrade drill proves
//! a poisoned artifact ends bit-identical to cold with the reset reported in
//! `SolveStats`.

use tb_flow::{
    FleischerConfig, FleischerSolver, SolveStats, SolverWorkspace, ThroughputBounds, WarmGate,
    WarmStart,
};
use tb_topology::fattree::fat_tree;
use tb_topology::hypercube::hypercube;
use tb_topology::jellyfish::jellyfish;
use tb_topology::Topology;
use tb_traffic::synthetic::{longest_matching, skewed};
use tb_traffic::TrafficMatrix;

/// The skew-fraction ladders the sweep layer chains (the Fig-12 x-axis):
/// one topology, `SkewedLongestMatching` at increasing fractions. FatTree is
/// the measured transfer winner; hypercube and jellyfish are measured losers
/// kept in the grid precisely so the gates are exercised on shapes that do
/// not transfer.
fn ladder_instances() -> Vec<(String, Topology)> {
    vec![
        ("fat_tree_k4".into(), fat_tree(4)),
        ("fat_tree_k6".into(), fat_tree(6)),
        ("hypercube_d4".into(), hypercube(4, 1)),
        ("jellyfish_16x4".into(), jellyfish(16, 4, 1, 7)),
    ]
}

/// The fraction rungs of one chain, in sweep (ascending-fraction) order.
fn fraction_chain(topo: &Topology) -> Vec<TrafficMatrix> {
    let base = longest_matching(&topo.graph, &topo.servers, true);
    [0.05, 0.25, 1.0]
        .iter()
        .map(|&f| skewed(&base, f, 10.0, 7))
        .collect()
}

type ChainLink = (ThroughputBounds, SolveStats, WarmStart);

/// Runs the full warm chain on the calling thread.
fn run_chain(cfg: FleischerConfig, topo: &Topology, ws: &mut SolverWorkspace) -> Vec<ChainLink> {
    let solver = FleischerSolver::new(cfg);
    let mut chain: Option<WarmStart> = None;
    let mut out = Vec::new();
    for tm in fraction_chain(topo) {
        let (b, stats, w) = solver.solve_warm_with_stats(&topo.graph, &tm, ws, chain.as_ref());
        chain = Some(w.clone());
        out.push((b, stats, w));
    }
    out
}

/// Runs the full warm chain inside a serial section of the pool, where every
/// nested parallel region executes inline and in order — the serial execution
/// of the exact same schedule.
fn run_chain_inline(cfg: FleischerConfig, topo: &Topology) -> Vec<ChainLink> {
    rayon::serial(|| run_chain(cfg, topo, &mut SolverWorkspace::new()))
}

fn assert_links_bit_identical(name: &str, a: &[ChainLink], b: &[ChainLink]) {
    assert_eq!(a.len(), b.len(), "{name}: chain lengths differ");
    for (i, ((ba, sa, wa), (bb, sb, wb))) in a.iter().zip(b).enumerate() {
        assert_eq!(
            (ba.lower.to_bits(), ba.upper.to_bits()),
            (bb.lower.to_bits(), bb.upper.to_bits()),
            "{name}: bounds diverged at rung {i}"
        );
        assert_eq!(
            sa.warm_gate, sb.warm_gate,
            "{name}: gate diverged at rung {i}"
        );
        assert_eq!(sa.phases, sb.phases, "{name}: phases diverged at rung {i}");
        assert_eq!(
            wa.lens.len(),
            wb.lens.len(),
            "{name}: artifact arity at rung {i}"
        );
        assert!(
            wa.lens
                .iter()
                .zip(&wb.lens)
                .all(|(x, y)| x.to_bits() == y.to_bits()),
            "{name}: artifact length shape diverged at rung {i}"
        );
    }
}

#[test]
fn warm_chain_quality_matches_cold_on_fraction_ladders() {
    // Every warm rung must stay within the shared target-gap contract
    // against the cold solve of the same instance — on the winner (FatTree,
    // where the donor shape engages and transfers) and on the losers (where
    // the gates reset to cold). The gate decision must be recorded on every
    // seeded solve.
    let cfg = FleischerConfig::fast();
    let solver = FleischerSolver::new(cfg);
    let mut ws = SolverWorkspace::new();
    for (name, topo) in ladder_instances() {
        let mut chain: Option<WarmStart> = None;
        for (i, tm) in fraction_chain(&topo).iter().enumerate() {
            let (cold, _, _) = solver.solve_warm_with_stats(&topo.graph, tm, &mut ws, None);
            let (warm, stats, w) =
                solver.solve_warm_with_stats(&topo.graph, tm, &mut ws, chain.as_ref());
            if i > 0 {
                assert_ne!(
                    stats.warm_gate,
                    WarmGate::Unset,
                    "{name}: seeded solve at rung {i} recorded no gate decision"
                );
            }
            tb_bench::assert_quality_within_target(&format!("{name}/rung{i}"), &cfg, warm, cold);
            chain = Some(w);
        }
    }
}

#[test]
fn warm_chains_bit_identical_parallel_vs_inline_fanout() {
    // The chain (bounds, gates, phase counts and the handed-along artifact
    // itself) must be bit-identical between the direct execution and the
    // forced-inline execution in a serial section. CI re-runs this binary at
    // pool widths {1, 2, 8}, so the asserted bits are produced under three
    // different thread counts.
    let cfg = FleischerConfig::fast();
    for (name, topo) in ladder_instances() {
        let direct = run_chain(cfg, &topo, &mut SolverWorkspace::new());
        let inline = run_chain_inline(cfg, &topo);
        assert_links_bit_identical(&name, &direct, &inline);
    }
}

#[test]
fn warm_chains_bit_identical_across_repeated_runs_on_reused_workspace() {
    // One workspace driven across whole chains of different instances (the
    // sweep runner's per-worker reuse pattern) must reproduce
    // fresh-workspace chains bit for bit, run after run.
    let cfg = FleischerConfig::fast();
    let fresh: Vec<(String, Topology, Vec<ChainLink>)> = ladder_instances()
        .into_iter()
        .map(|(name, topo)| {
            let links = run_chain(cfg, &topo, &mut SolverWorkspace::new());
            (name, topo, links)
        })
        .collect();
    let mut ws = SolverWorkspace::new();
    for round in 0..2 {
        for (name, topo, expect) in &fresh {
            let got = run_chain(cfg, topo, &mut ws);
            assert_links_bit_identical(&format!("{name}/round{round}"), expect, &got);
        }
    }
}

#[test]
fn poisoned_warm_start_resets_to_cold_and_reports() {
    // The gate-degrade drill: an admissible but misleading artifact (the
    // donor's own measured shape, reversed) under a one-phase warm budget
    // must trip the lagging gate, restart cold, report the reset and the
    // discarded phases in `SolveStats` — and end bit-identical to the
    // never-seeded cold solve.
    let topo = fat_tree(4);
    let tm = fraction_chain(&topo).remove(1);
    let cfg = FleischerConfig::fast();
    let mut ws = SolverWorkspace::new();
    let (cold, _, donor) =
        FleischerSolver::new(cfg).solve_warm_with_stats(&topo.graph, &tm, &mut ws, None);
    let mut poison = donor.clone();
    poison.lens.reverse();
    let strict = FleischerConfig {
        warm_guard_factor: 1e-9,
        ..cfg
    };
    let (bounds, stats, _) = FleischerSolver::new(strict).solve_warm_with_stats(
        &topo.graph,
        &tm,
        &mut ws,
        Some(&poison),
    );
    assert_eq!(
        stats.warm_gate,
        WarmGate::ResetLagging,
        "poisoned seed must be reset by the lagging gate: {stats:?}"
    );
    assert!(
        stats.warm_phases_discarded >= 1,
        "the reset must report the abandoned phases: {stats:?}"
    );
    assert_eq!(
        (bounds.lower.to_bits(), bounds.upper.to_bits()),
        (cold.lower.to_bits(), cold.upper.to_bits()),
        "after the reset the solve must be the cold solve, bit for bit"
    );
}

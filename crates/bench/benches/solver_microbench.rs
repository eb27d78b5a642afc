//! Microbenchmarks of the solver stack: the current Fleischer kernel against
//! a frozen copy of the pre-refactor kernel, the exact LP at the crossover
//! sizes, the Hungarian assignment used by the longest-matching TM, and the
//! same-equipment random-graph constructor.
//!
//! Run with `TB_BENCH_JSON=BENCH_solver.json cargo bench --bench
//! solver_microbench` to (re)generate the committed baseline file.
//!
//! The new-vs-legacy pairs cover the hot-path refactor's behavior space
//! (see `tb_bench::legacy` for what the baseline is):
//!
//! * sparse single-destination TMs (longest-matching, random-permutation),
//!   where the goal-directed early-exit SSSP prunes most of the graph —
//!   the big wins, up to >3x on the 256-switch jellyfish;
//! * the hypercube is the adversarial case for goal direction (every node
//!   lies on some antipodal geodesic, so nothing can be pruned without
//!   giving up exact shortest-path routing) — longest-matching there leans
//!   on the decrease-key SSSP heap alone;
//! * dense all-to-all (hypercube and jellyfish), where the aggregated
//!   bottom-up tree routing loads each tree arc once per iteration instead
//!   of walking every destination's path, on top of the shared kernel wins
//!   — the dense-TM shapes the PR 1 kernel left at parity;
//! * the Facebook frontend fixed TM (`tm_f`, the Figs 13–14 workload) on a
//!   64-switch jellyfish — the skewed dense shape the sweeps spend real time
//!   on;
//! * the **cross-instance warm-start chains**: `fptas_warm_chain_*` runs a
//!   whole skew-fraction ladder on one graph with each solve seeded from the
//!   previous rung's `WarmStart` (the sweep runner's `--warm` policy,
//!   break-on-reset included), `fptas_cold_chain_*` the identical ladder
//!   cold. Criterion interleaves the paired entries, so the committed
//!   min-of-10 comparison sees the same machine state. `rel_warm_*` /
//!   `rel_cold_*` do the same for one relative-throughput cell's
//!   sample path (absolute solve + serial cold same-equipment samples vs
//!   the cold parallel fan-out).

use criterion::{criterion_group, criterion_main, Criterion};
use tb_bench::{assert_quality_within_target, assert_same_quality, legacy};
use tb_flow::{
    ExactLpSolver, FleischerConfig, FleischerSolver, SolverWorkspace, WarmGate, WarmStart,
};
use tb_graph::matching::max_weight_assignment;
use tb_graph::shortest_path::apsp_unweighted;
use tb_graph::Graph;
use tb_topology::{
    fattree::fat_tree, hypercube::hypercube, jellyfish::jellyfish, jellyfish::same_equipment,
    Topology,
};
use tb_traffic::facebook::tm_f;
use tb_traffic::synthetic::{all_to_all, longest_matching, random_permutation, skewed};
use tb_traffic::TrafficMatrix;
use topobench::{relative_throughput, EvalConfig, TmSpec};

/// The fine skew-fraction ladder the warm-chain entries run: adjacent rungs
/// are the close problem pairs a dense parameter sweep produces — the regime
/// the cross-instance transfer is for (coarse rung spacing measured roughly
/// break-even; see ROADMAP).
const WARM_LADDER: [f64; 7] = [0.01, 0.015, 0.02, 0.03, 0.05, 0.075, 0.10];

/// Benches one whole skew-fraction ladder warm (each solve seeded from the
/// previous rung's artifact, the runner's break-on-reset policy) against the
/// identical ladder cold, asserting every warm rung against its cold solve
/// with the shared target-gap contract first.
fn warm_chain(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    cfg: FleischerConfig,
    topo: &Topology,
) {
    let solver = FleischerSolver::new(cfg);
    let base = longest_matching(&topo.graph, &topo.servers, true);
    let tms: Vec<TrafficMatrix> = WARM_LADDER
        .iter()
        .map(|&f| skewed(&base, f, 10.0, 7))
        .collect();
    let run_warm = |ws: &mut SolverWorkspace| {
        let mut chain: Option<WarmStart> = None;
        let mut broken = false;
        let mut acc = 0.0f64;
        for tm in &tms {
            let seed = if broken { None } else { chain.as_ref() };
            let (b, stats, w) = solver.solve_warm_with_stats(&topo.graph, tm, ws, seed);
            if matches!(
                stats.warm_gate,
                WarmGate::ResetLagging | WarmGate::ResetQuality
            ) {
                broken = true;
            }
            chain = Some(w);
            acc += b.lower;
        }
        acc
    };
    {
        let mut ws = SolverWorkspace::new();
        let mut chain: Option<WarmStart> = None;
        let mut broken = false;
        for (i, tm) in tms.iter().enumerate() {
            let (cold, _, _) = solver.solve_warm_with_stats(&topo.graph, tm, &mut ws, None);
            let seed = if broken { None } else { chain.as_ref() };
            let (warm, stats, w) = solver.solve_warm_with_stats(&topo.graph, tm, &mut ws, seed);
            if matches!(
                stats.warm_gate,
                WarmGate::ResetLagging | WarmGate::ResetQuality
            ) {
                broken = true;
            }
            assert_quality_within_target(&format!("{name}/warm_rung{i}"), &cfg, warm, cold);
            chain = Some(w);
        }
    }
    group.bench_function(format!("fptas_warm_chain_{name}"), |b| {
        b.iter(|| run_warm(&mut SolverWorkspace::new()))
    });
    group.bench_function(format!("fptas_cold_chain_{name}"), |b| {
        b.iter(|| {
            let mut ws = SolverWorkspace::new();
            tms.iter()
                .map(|tm| solver.solve_with(&topo.graph, tm, &mut ws).lower)
                .sum::<f64>()
        })
    });
}

fn versus_legacy(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    cfg: FleischerConfig,
    g: &Graph,
    tm: &TrafficMatrix,
) {
    let new = FleischerSolver::new(cfg).solve(g, tm);
    let old = legacy::solve(&cfg, g, tm);
    assert_same_quality(name, &cfg, new, old);
    group.bench_function(format!("fptas_{name}"), |b| {
        b.iter(|| FleischerSolver::new(cfg).solve(g, tm))
    });
    group.bench_function(format!("fptas_legacy_{name}"), |b| {
        b.iter(|| legacy::solve(&cfg, g, tm))
    });
}

fn bench(c: &mut Criterion) {
    let cfg_fast = FleischerConfig::fast();

    let mut group = c.benchmark_group("solver");
    group.sample_size(10);

    let small = hypercube(3, 1);
    let small_tm = longest_matching(&small.graph, &small.servers, true);
    group.bench_function("exact_lp_hypercube_d3", |b| {
        b.iter(|| ExactLpSolver::new().solve(&small.graph, &small_tm).unwrap())
    });
    group.bench_function("fptas_hypercube_d3", |b| {
        b.iter(|| FleischerSolver::new(FleischerConfig::default()).solve(&small.graph, &small_tm))
    });

    // 64-switch topologies: the hypercube (structured, geodesic-rich) and a
    // same-degree jellyfish (the paper's central random-graph object).
    let medium = hypercube(6, 1);
    let jelly = jellyfish(64, 6, 1, 42);
    versus_legacy(
        &mut group,
        "hypercube_d6_lm",
        cfg_fast,
        &medium.graph,
        &longest_matching(&medium.graph, &medium.servers, true),
    );
    versus_legacy(
        &mut group,
        "hypercube_d6_perm",
        cfg_fast,
        &medium.graph,
        &random_permutation(&medium.servers, 3),
    );
    versus_legacy(
        &mut group,
        "hypercube_d6_a2a",
        cfg_fast,
        &medium.graph,
        &all_to_all(&medium.servers),
    );
    versus_legacy(
        &mut group,
        "jellyfish64_lm",
        cfg_fast,
        &jelly.graph,
        &longest_matching(&jelly.graph, &jelly.servers, true),
    );
    versus_legacy(
        &mut group,
        "jellyfish64_a2a",
        cfg_fast,
        &jelly.graph,
        &all_to_all(&jelly.servers),
    );

    versus_legacy(
        &mut group,
        "facebook_tmf_jellyfish64",
        cfg_fast,
        &jelly.graph,
        &tm_f(64, 7),
    );

    // Cross-instance warm-start chains on the fine skew-fraction ladder:
    // the FatTree rungs are the measured transfer winners, the hypercube
    // wins only where adjacent rungs are near-duplicates, the jellyfish is
    // the honest small win — same knobs and break-on-reset policy the sweep
    // runner ships under `--warm`.
    let cfg_h6 = cfg_fast.with_auto_aggregation(medium.graph.num_nodes());
    let cfg_j64 = cfg_fast.with_auto_aggregation(jelly.graph.num_nodes());
    let ft6 = fat_tree(6);
    let ft8 = fat_tree(8);
    warm_chain(
        &mut group,
        "fattree_k6",
        cfg_fast.with_auto_aggregation(ft6.graph.num_nodes()),
        &ft6,
    );
    warm_chain(
        &mut group,
        "fattree_k8",
        cfg_fast.with_auto_aggregation(ft8.graph.num_nodes()),
        &ft8,
    );
    warm_chain(&mut group, "hypercube_d6", cfg_h6, &medium);
    warm_chain(&mut group, "jellyfish64", cfg_j64, &jelly);

    // One relative-throughput cell's sample path, warm vs cold: the warm
    // form runs the absolute solve and then the same-equipment samples
    // serially; the cold form is the parallel fan-out. Same seeds,
    // same instances — the means must agree within the solver tolerances.
    let rel_cold_cfg = EvalConfig::fast();
    let rel_warm_cfg = EvalConfig {
        warm: true,
        ..EvalConfig::fast()
    };
    let rel_cold = relative_throughput(&jelly, &TmSpec::LongestMatching, &rel_cold_cfg);
    let rel_warm = relative_throughput(&jelly, &TmSpec::LongestMatching, &rel_warm_cfg);
    let rel_tol = 4.0 * rel_cold_cfg.solver.target_gap;
    assert!(
        (rel_warm.relative.mean - rel_cold.relative.mean).abs()
            <= rel_tol * rel_cold.relative.mean.abs(),
        "warm relative-throughput diverged: warm={} cold={}",
        rel_warm.relative.mean,
        rel_cold.relative.mean,
    );
    group.bench_function("rel_warm_jellyfish64_lm", |b| {
        b.iter(|| relative_throughput(&jelly, &TmSpec::LongestMatching, &rel_warm_cfg))
    });
    group.bench_function("rel_cold_jellyfish64_lm", |b| {
        b.iter(|| relative_throughput(&jelly, &TmSpec::LongestMatching, &rel_cold_cfg))
    });

    group.bench_function("apsp_hypercube_d6", |b| {
        b.iter(|| apsp_unweighted(&medium.graph))
    });

    let dist = apsp_unweighted(&medium.graph);
    let weights: Vec<Vec<f64>> = dist
        .iter()
        .map(|row| row.iter().map(|&d| d as f64).collect())
        .collect();
    group.bench_function("hungarian_64x64", |b| {
        b.iter(|| max_weight_assignment(&weights))
    });

    group.bench_function("same_equipment_hypercube_d6", |b| {
        b.iter(|| same_equipment(&medium, 5))
    });
    group.finish();

    // Paper-scale sparse instance: this is where the goal-directed kernel's
    // pruning compounds with the allocation-free workspace.
    let mut large = c.benchmark_group("solver_large");
    large.sample_size(3);
    let jelly256 = jellyfish(256, 8, 1, 42);
    versus_legacy(
        &mut large,
        "jellyfish256_lm",
        cfg_fast,
        &jelly256.graph,
        &longest_matching(&jelly256.graph, &jelly256.servers, true),
    );
    // The paper-scale dense shape.
    versus_legacy(
        &mut large,
        "jellyfish256_a2a",
        cfg_fast,
        &jelly256.graph,
        &all_to_all(&jelly256.servers),
    );
    large.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

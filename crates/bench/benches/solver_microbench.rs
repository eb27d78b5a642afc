//! Microbenchmarks of the solver stack: the current Fleischer kernel against
//! a frozen copy of the pre-refactor kernel, the exact LP at the crossover
//! sizes (and at the two most degenerate instances the sweeps send to it),
//! the Hungarian assignment used by the longest-matching TM, and the
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
//! * `rel_cold_jellyfish64_lm`: one relative-throughput cell (the topology's
//!   own solve plus its same-equipment samples, fanned out over the pool) —
//!   the production path of every `Relative` sweep cell.
//!
//! `sssp_full_dcell3_a2a` / `sssp_repair_dcell3_a2a` time the SSSP layer
//! alone: one shortest-path tree per all-to-all source of `DCell/3` at the
//! lengths of its solve's certificate, by full Dijkstra and by repairing the
//! tree at the certificate of the same solve stopped a few phases earlier.

use criterion::{criterion_group, criterion_main, Criterion};
use tb_bench::{assert_same_quality, legacy};
use tb_flow::{ExactLpSolver, FleischerConfig, FleischerSolver, FlowProblem};
use tb_graph::matching::max_weight_assignment;
use tb_graph::shortest_path::apsp_unweighted;
use tb_graph::{sssp_csr, sssp_csr_repair_by, Graph, SsspWorkspace};
use tb_topology::families::{Family, Scale};
use tb_topology::{
    hypercube::hypercube, hyperx::hyperx, jellyfish::jellyfish, jellyfish::same_equipment,
};
use tb_traffic::facebook::tm_f;
use tb_traffic::synthetic::{all_to_all, longest_matching, random_permutation};
use tb_traffic::TrafficMatrix;
use topobench::{relative_throughput, EvalConfig, TmSpec};

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
    // The exact path at the sizes the sweep's gate still sends to it: rung 1
    // of the flattened-butterfly ladder (16 switches, a 336-row arc LP) and
    // fig07's 12-switch HyperX (K12, 264 rows), both heavily degenerate.
    let bf16 = Family::FlattenedButterfly
        .ladder_instance(Scale::Small, 1, 1)
        .expect("rung 1 exists");
    let k12 = hyperx(1, 12, 1, 11);
    for (name, topo) in [
        ("exact_lp_flattened_bf16_lm", &bf16),
        ("exact_lp_hyperx_k12_lm", &k12),
    ] {
        let tm = longest_matching(&topo.graph, &topo.servers, true);
        group.bench_function(name, |b| {
            b.iter(|| ExactLpSolver::new().solve(&topo.graph, &tm).unwrap())
        });
    }
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

    // One relative-throughput cell: the 1 + k solves of the §IV metric.
    let rel_cfg = EvalConfig::fast();
    group.bench_function("rel_cold_jellyfish64_lm", |b| {
        b.iter(|| relative_throughput(&jelly, &TmSpec::LongestMatching, &rel_cfg))
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

    // Tree repair against full Dijkstra on the 208-switch DCell rung that
    // dominates the all-to-all pass: one tree per source (156) per
    // iteration, at the lengths the solve's certificate holds, each
    // repaired from the tree at the certificate of the same solve stopped
    // four phases earlier (an earlier best dual; the repair must return
    // Dijkstra's tree bit for bit, checked first).
    let dcell = Family::DCell
        .ladder_instance(Scale::Small, 1, 3)
        .expect("rung 3 exists");
    let dcell_a2a = all_to_all(&dcell.servers);
    let certificate = |max_phases| {
        FleischerSolver::new(FleischerConfig {
            max_phases,
            ..cfg_fast
        })
        .solve_outcome(&dcell.graph, &dcell_a2a)
    };
    let end = certificate(cfg_fast.max_phases);
    let earlier = certificate(end.stats.phases - 4).certificate.lengths;
    let lens = end.certificate.lengths;
    assert_ne!(earlier, lens, "the two certificates hold the same lengths");
    let prob = FlowProblem::new(&dcell.graph, &dcell_a2a);
    let csr = prob.csr();
    let srcs: Vec<usize> = prob.sources().iter().map(|s| s.src).collect();
    let (mut ws, mut full) = (SsspWorkspace::new(), SsspWorkspace::new());
    let trees: Vec<Vec<u32>> = srcs
        .iter()
        .map(|&src| {
            sssp_csr(csr, src, &earlier, None, &mut ws);
            ws.settle_order().to_vec()
        })
        .collect();
    for (&src, tree) in srcs.iter().zip(&trees) {
        sssp_csr(csr, src, &lens, None, &mut full);
        sssp_csr_repair_by(csr, src, |aid| lens[aid], tree.iter().copied(), &mut ws);
        assert_eq!(ws.settle_order(), full.settle_order(), "source {src}");
        assert!((0..prob.num_nodes())
            .all(|v| ws.dist(v).to_bits() == full.dist(v).to_bits()
                && ws.parent(v) == full.parent(v)));
    }
    group.bench_function("sssp_full_dcell3_a2a", |b| {
        b.iter(|| {
            for &src in &srcs {
                sssp_csr(csr, src, &lens, None, &mut ws);
            }
        })
    });
    group.bench_function("sssp_repair_dcell3_a2a", |b| {
        b.iter(|| {
            for (&src, tree) in srcs.iter().zip(&trees) {
                sssp_csr_repair_by(csr, src, |aid| lens[aid], tree.iter().copied(), &mut ws);
            }
        })
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

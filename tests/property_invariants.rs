//! Property-based tests over the core invariants of the framework: hose-model
//! validity of generated TMs, solver bracketing, cut/throughput ordering,
//! Theorem 2, invariance under renaming the switches, and graph-model
//! guarantees.
//!
//! The original version of this suite used `proptest`; the offline build has
//! no crates.io access, so the same properties are exercised by an explicit
//! seeded case loop over the vendored ChaCha8 generator — fully deterministic
//! and, unlike shrinking-based frameworks, trivially reproducible from the
//! printed case seed.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tb_cuts::estimate_sparsest_cut;
use tb_flow::{ExactLpSolver, FleischerConfig, FleischerSolver, FlowProblem};
use tb_graph::matching::{greedy_assignment, max_weight_assignment};
use tb_graph::random::random_regular_graph;
use tb_graph::Graph;
use tb_traffic::synthetic::{all_to_all, kodialam, longest_matching, random_matching};
use tb_traffic::{Demand, TrafficMatrix};

/// Number of randomized cases per property (matches the old proptest config).
const CASES: u64 = 24;

/// A connected, simple, random regular graph from a small parameter grid.
fn arb_connected_graph(rng: &mut ChaCha8Rng) -> Graph {
    let n = rng.gen_range(4usize..14);
    let r = rng.gen_range(2usize..5).min(n - 1);
    let n = if n * r % 2 == 1 { n + 1 } else { n };
    random_regular_graph(n, r, rng.gen::<u64>())
}

/// A small arbitrary TM on `n` switches (may be empty after self-loop
/// filtering).
fn arb_tm(rng: &mut ChaCha8Rng, n: usize) -> TrafficMatrix {
    let flows = rng.gen_range(1usize..12);
    let demands: Vec<Demand> = (0..flows)
        .map(|_| Demand {
            src: rng.gen_range(0..n),
            dst: rng.gen_range(0..n),
            amount: rng.gen_range(0.1f64..3.0),
        })
        .filter(|d| d.src != d.dst)
        .collect();
    TrafficMatrix::new(n, demands)
}

#[test]
fn synthetic_tms_respect_the_hose_model() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0xA0 + case);
        let graph = arb_connected_graph(&mut rng);
        let servers_per_switch = rng.gen_range(1usize..4);
        let seed = rng.gen_range(0u64..100);
        let servers = vec![servers_per_switch; graph.num_nodes()];
        for tm in [
            all_to_all(&servers),
            random_matching(&servers, servers_per_switch, seed),
            longest_matching(&graph, &servers, true),
            kodialam(&graph, &servers),
        ] {
            assert!(tm.is_hose_valid(&servers, 1e-6), "case {case}");
            assert!(tm.num_flows() > 0, "case {case}");
        }
    }
}

#[test]
fn fptas_brackets_are_ordered_and_positive() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0xB0 + case);
        let graph = arb_connected_graph(&mut rng);
        let servers = vec![1usize; graph.num_nodes()];
        let tm = random_matching(&servers, 1, rng.gen_range(0u64..50));
        if tm.num_flows() == 0 {
            continue;
        }
        let b = FleischerSolver::new(FleischerConfig::fast()).solve(&graph, &tm);
        assert!(b.lower > 0.0, "case {case}");
        assert!(b.lower <= b.upper + 1e-9, "case {case}");
    }
}

/// The path-length bound `C / Σ d·hops` (`FlowProblem::volumetric_estimate`):
/// routed flow uses at least `t·Σ d·hops` of the total capacity `C`, so no
/// throughput exceeds it. Returns the bound after checking `exact` against it.
fn path_length_bound(name: &str, graph: &Graph, tm: &TrafficMatrix, exact: f64) -> f64 {
    let bound = FlowProblem::new(graph, tm).volumetric_estimate(graph);
    assert!(
        exact <= bound * (1.0 + 1e-9),
        "{name}: exact {exact} above the path-length bound {bound}"
    );
    bound
}

#[test]
fn fptas_never_exceeds_exact_lp() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC0 + case);
        let graph = random_regular_graph(8, 3, rng.gen_range(0u64..40));
        let servers = vec![1usize; 8];
        let tm = longest_matching(&graph, &servers, true);
        let exact = ExactLpSolver::new().solve(&graph, &tm).unwrap();
        path_length_bound(&format!("case {case}"), &graph, &tm, exact.lower);
        let approx = FleischerSolver::new(FleischerConfig::default()).solve(&graph, &tm);
        assert!(approx.lower <= exact.lower + 1e-6, "case {case}");
        assert!(approx.upper >= exact.lower - 1e-6, "case {case}");
        assert!(
            (exact.lower - approx.lower) / exact.lower < 0.10,
            "case {case}"
        );
    }
}

#[test]
fn any_cut_upper_bounds_throughput() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0xD0 + case);
        let graph = arb_connected_graph(&mut rng);
        let servers = vec![1usize; graph.num_nodes()];
        let tm = random_matching(&servers, 1, rng.gen_range(0u64..50));
        if tm.num_flows() == 0 {
            continue;
        }
        let throughput = FleischerSolver::new(FleischerConfig::fast()).solve(&graph, &tm);
        let cut = estimate_sparsest_cut(&graph, &tm).best_sparsity;
        assert!(
            cut >= throughput.lower * 0.99 - 1e-9,
            "case {case}: cut {} < throughput {}",
            cut,
            throughput.lower
        );
    }
}

#[test]
fn theorem2_any_hose_tm_is_at_least_half_a2a() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0xE0 + case);
        let graph = arb_connected_graph(&mut rng);
        let n = graph.num_nodes();
        let raw = arb_tm(&mut rng, 14);
        // Regenerate the TM on the right node count, normalize to the hose
        // model, and check T(tm) >= T(A2A)/2 (within solver slack).
        let demands: Vec<Demand> = raw
            .demands()
            .iter()
            .map(|d| Demand {
                src: d.src % n,
                dst: d.dst % n,
                amount: d.amount,
            })
            .filter(|d| d.src != d.dst)
            .collect();
        if demands.is_empty() {
            continue;
        }
        let servers = vec![1usize; n];
        let tm = TrafficMatrix::new(n, demands)
            .normalized_to_hose(&servers)
            .0;
        let solver = FleischerSolver::new(FleischerConfig::fast());
        let a2a = solver.solve(&graph, &all_to_all(&servers));
        let t = solver.solve(&graph, &tm);
        assert!(
            t.upper >= a2a.lower / 2.0 * 0.93,
            "case {case}: throughput {} below half of A2A {}",
            t.upper,
            a2a.lower
        );
    }
}

#[test]
fn hungarian_dominates_greedy_and_is_a_permutation() {
    for case in 0..CASES * 4 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xF0 + case);
        let n = rng.gen_range(2usize..7);
        let w: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..n).map(|_| rng.gen_range(0.0..5.0)).collect())
            .collect();
        let exact = max_weight_assignment(&w);
        let greedy = greedy_assignment(&w);
        assert!(exact.total + 1e-9 >= greedy.total, "case {case}");
        assert!(greedy.total >= exact.total * 0.5 - 1e-9, "case {case}");
        let mut seen = vec![false; n];
        for &j in &exact.assignment {
            assert!(!seen[j], "case {case}");
            seen[j] = true;
        }
    }
}

#[test]
fn random_regular_graphs_are_simple_regular_connected() {
    for case in 0..CASES * 2 {
        let mut rng = ChaCha8Rng::seed_from_u64(0x1A0 + case);
        let n = rng.gen_range(6usize..30);
        let r = rng.gen_range(2usize..6).min(n - 1);
        let n = if n * r % 2 == 1 { n + 1 } else { n };
        let g = random_regular_graph(n, r, rng.gen_range(0u64..100));
        assert!(tb_graph::connectivity::is_connected(&g), "case {case}");
        for u in 0..n {
            assert_eq!(g.degree(u), r, "case {case}");
            assert_eq!(g.distinct_neighbors(u).len(), r, "case {case}");
        }
    }
}

#[test]
fn throughput_scales_linearly_with_capacity() {
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0x1B0 + case);
        let graph = arb_connected_graph(&mut rng);
        let factor = rng.gen_range(1.5f64..4.0);
        let servers = vec![1usize; graph.num_nodes()];
        let tm = random_matching(&servers, 1, rng.gen_range(0u64..50));
        if tm.num_flows() == 0 {
            continue;
        }
        let solver = FleischerSolver::new(FleischerConfig::default());
        let base = solver.solve(&graph, &tm);
        let scaled = solver.solve(&graph.scaled_capacities(factor), &tm);
        let ratio = scaled.lower / base.lower;
        assert!(
            (ratio - factor).abs() / factor < 0.08,
            "case {case}: expected ~{factor}, got {ratio}"
        );
    }
}

#[test]
fn throughput_scales_exactly_with_capacity() {
    // `T(c·caps) = c·T`: the LP's optimum scales exactly, and the FPTAS
    // works on capacity-normalised lengths and flows, so at a power-of-two
    // `c` (exact in floating point) its bounds must scale bit for bit. A
    // solve that drifts here has grown a threshold that depends on the
    // capacity scale; the random-factor case above only bounds such a drift.
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0x1D0 + case);
        let graph = arb_connected_graph(&mut rng);
        let tm = arb_tm(&mut rng, graph.num_nodes());
        if tm.num_flows() == 0 {
            continue;
        }
        let exact = ExactLpSolver::new().solve(&graph, &tm).unwrap().lower;
        for c in [0.25, 1024.0] {
            let scaled = graph.scaled_capacities(c);
            let t = ExactLpSolver::new().solve(&scaled, &tm).unwrap().lower;
            assert!(
                (t / c - exact).abs() <= 1e-12 * exact,
                "case {case}, c {c}: exact {t} scaled, {exact} unscaled"
            );
            for cfg in [
                FleischerConfig::fast(),
                FleischerConfig::default(),
                FleischerConfig::precise(),
            ] {
                let solver = FleischerSolver::new(cfg);
                let base = solver.solve(&graph, &tm);
                let b = solver.solve(&scaled, &tm);
                assert_eq!(
                    (b.lower.to_bits(), b.upper.to_bits()),
                    ((base.lower * c).to_bits(), (base.upper * c).to_bits()),
                    "case {case}, c {c}, eps {}: {b:?} scaled, {base:?} unscaled",
                    cfg.epsilon
                );
            }
        }
    }
}

#[test]
fn throughput_scales_inversely_with_demand() {
    // `T(c·tm) = T(tm)/c`: the LP's optimum scales exactly, and the FPTAS
    // works on demand-normalised lengths and flows, so at a power-of-two `c`
    // (exact in floating point) its bounds must scale bit for bit. A solve
    // that drifts here has grown a threshold that depends on the demand
    // scale.
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0x1E0 + case);
        let graph = arb_connected_graph(&mut rng);
        let tm = arb_tm(&mut rng, graph.num_nodes());
        if tm.num_flows() == 0 {
            continue;
        }
        let exact = ExactLpSolver::new().solve(&graph, &tm).unwrap().lower;
        for c in [0.25, 1024.0] {
            let scaled = tm.scaled(c);
            let t = ExactLpSolver::new().solve(&graph, &scaled).unwrap().lower;
            assert!(
                (t * c - exact).abs() <= 1e-12 * exact,
                "case {case}, c {c}: exact {t} scaled, {exact} unscaled"
            );
            for cfg in [
                FleischerConfig::fast(),
                FleischerConfig::default(),
                FleischerConfig::precise(),
            ] {
                let solver = FleischerSolver::new(cfg);
                let base = solver.solve(&graph, &tm);
                let b = solver.solve(&graph, &scaled);
                assert_eq!(
                    ((b.lower * c).to_bits(), (b.upper * c).to_bits()),
                    (base.lower.to_bits(), base.upper.to_bits()),
                    "case {case}, c {c}, eps {}: {b:?} scaled, {base:?} unscaled",
                    cfg.epsilon
                );
            }
        }
    }
}

#[test]
fn adding_a_link_never_lowers_exact_throughput() {
    // Every flow of the smaller network is feasible in the larger one.
    for case in 0..CASES {
        let mut rng = ChaCha8Rng::seed_from_u64(0x200 + case);
        let graph = arb_connected_graph(&mut rng);
        let n = graph.num_nodes();
        let tm = arb_tm(&mut rng, n);
        if tm.num_flows() == 0 {
            continue;
        }
        let u = rng.gen_range(0..n);
        let v = (u + rng.gen_range(1..n)) % n;
        let mut grown = graph.clone();
        grown.add_edge(u, v, 1.0);
        let before = ExactLpSolver::new().solve(&graph, &tm).unwrap().lower;
        let after = ExactLpSolver::new().solve(&grown, &tm).unwrap().lower;
        assert!(
            after >= before * (1.0 - 1e-9),
            "case {case}: link {u}-{v} lowered throughput {before} to {after}"
        );
    }
}

/// `graph` and `tm` with every node id `v` renamed to `perm[v]`: the same
/// links in the same order, the same demands in the same order.
fn relabeled(graph: &Graph, tm: &TrafficMatrix, perm: &[usize]) -> (Graph, TrafficMatrix) {
    let mut g = Graph::new(graph.num_nodes());
    for e in graph.edges() {
        g.add_edge(perm[e.u], perm[e.v], e.cap);
    }
    let demands = tm.demands().iter().map(|d| Demand {
        src: perm[d.src],
        dst: perm[d.dst],
        amount: d.amount,
    });
    (g, TrafficMatrix::new(tm.num_switches(), demands))
}

#[test]
fn throughput_is_invariant_under_relabeling() {
    // Throughput is a property of the network and its traffic, not of how
    // the switches are numbered: renaming the nodes of a graph together with
    // its TM must leave the exact LP value unchanged, and the FPTAS bracket
    // of the renamed instance must contain it. The renaming reorders the
    // solver's sources, arcs and potential rows, so its trajectory differs.
    use rand::seq::SliceRandom;
    use tb_topology::{fattree::fat_tree, hypercube::hypercube, jellyfish::jellyfish};
    let hypercube = hypercube(4, 1);
    let jellyfish = jellyfish(12, 4, 1, 11);
    let fat_tree = fat_tree(4);
    let instances = [
        (
            "hypercube_d4/longest_matching",
            &hypercube.graph,
            longest_matching(&hypercube.graph, &hypercube.servers, true),
        ),
        (
            "jellyfish_12x4/a2a",
            &jellyfish.graph,
            all_to_all(&jellyfish.servers),
        ),
        (
            "fat_tree_k4/longest_matching",
            &fat_tree.graph,
            longest_matching(&fat_tree.graph, &fat_tree.servers, true),
        ),
    ];
    let solver = FleischerSolver::new(FleischerConfig::default());
    for (case, (name, graph, tm)) in instances.iter().enumerate() {
        let exact = ExactLpSolver::new().solve(graph, tm).unwrap().lower;
        assert!(exact > 0.0, "{name}");
        path_length_bound(name, graph, tm, exact);
        for draw in 0..2 {
            let mut rng = ChaCha8Rng::seed_from_u64(0x1C0 + 2 * case as u64 + draw);
            let mut perm: Vec<usize> = (0..graph.num_nodes()).collect();
            perm.shuffle(&mut rng);
            let (g, t) = relabeled(graph, tm, &perm);
            let renamed = ExactLpSolver::new().solve(&g, &t).unwrap().lower;
            path_length_bound(name, &g, &t, renamed);
            assert!(
                (renamed - exact).abs() <= 1e-9 * exact,
                "{name}, draw {draw}: exact {renamed} after renaming, {exact} before"
            );
            let b = solver.solve(&g, &t);
            assert!(
                b.lower <= exact * (1.0 + 1e-9) && b.upper >= exact * (1.0 - 1e-9),
                "{name}, draw {draw}: FPTAS {b:?} misses the exact {exact}"
            );
        }
    }
}

#[test]
fn hypercube_all_to_all_meets_the_path_length_bound() {
    // Under hose-normalized all-to-all traffic (each server sends 1/(S-1) to
    // every other) a hypercube can route every demand along shortest paths
    // with every link full, so the bound is the throughput: 24 arcs /
    // (8 · 12/7 hops) = 1.75 and 64 / (16 · 32/15) = 1.875.
    use tb_topology::hypercube::hypercube;
    for (dims, expected) in [(3, 1.75), (4, 1.875)] {
        let topo = hypercube(dims, 1);
        let tm = all_to_all(&topo.servers)
            .normalized_to_hose(&topo.servers)
            .0;
        let name = format!("hypercube_d{dims}/a2a");
        let exact = ExactLpSolver::new().solve(&topo.graph, &tm).unwrap().lower;
        let bound = path_length_bound(&name, &topo.graph, &tm, exact);
        assert!(
            (bound - expected).abs() <= 1e-9 * expected,
            "{name}: bound {bound}"
        );
        assert!(
            (exact - bound).abs() <= 1e-9 * bound,
            "{name}: exact {exact}"
        );
        let b = FleischerSolver::new(FleischerConfig::default()).solve(&topo.graph, &tm);
        assert!(b.lower <= bound * (1.0 + 1e-9), "{name}: FPTAS {b:?}");
    }
}

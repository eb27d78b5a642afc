//! Cross-crate integration tests: throughput computation end-to-end on real
//! topologies, validating the solver stack against hand-computable and
//! paper-stated facts.

use tb_flow::ExactLpSolver;
use tb_graph::{max_flow_value, min_st_cut};
use tb_topology::{
    fattree::fat_tree, flattened_butterfly::flattened_butterfly, hypercube::hypercube,
};
use topobench::{evaluate, lower_bound, EvalConfig, TmSpec};

fn cfg() -> EvalConfig {
    EvalConfig {
        random_graph_iterations: 2,
        ..EvalConfig::default()
    }
}

#[test]
fn fat_tree_is_nonblocking_under_a2a() {
    // A fat tree is non-blocking: per-server A2A throughput should be ~1
    // (each server can send its full unit).
    let topo = fat_tree(4);
    let tm = TmSpec::AllToAll.generate(&topo, 1);
    let t = evaluate(&topo, &tm, &cfg()).bounds;
    assert!(t.upper >= 0.99, "fat tree A2A upper {}", t.upper);
    assert!(t.lower >= 0.90, "fat tree A2A lower {}", t.lower);
    // And it cannot exceed 1 because edge uplink capacity equals server count.
    assert!(t.lower <= 1.01, "fat tree A2A lower {}", t.lower);
}

#[test]
fn fat_tree_longest_matching_equals_a2a() {
    // §III-C: in fat trees, throughput under A2A and longest matching are
    // equal (all symmetric TMs look the same from the ToR uplinks).
    let topo = fat_tree(4);
    let c = cfg();
    let a2a = evaluate(&topo, &TmSpec::AllToAll.generate(&topo, 1), &c).bounds;
    let lm = evaluate(&topo, &TmSpec::LongestMatching.generate(&topo, 1), &c).bounds;
    assert!(
        (a2a.lower - lm.lower).abs() / a2a.lower < 0.08,
        "A2A {} vs LM {}",
        a2a.lower,
        lm.lower
    );
}

#[test]
fn hypercube_longest_matching_hits_the_volumetric_limit() {
    // §II-C: in a d-dimensional hypercube the longest matching pairs antipodes
    // (d hops), and total flow = n*d exactly fills the n*d unidirectional
    // links, so throughput is ~1 (with one server per switch).
    let topo = hypercube(4, 1);
    let tm = TmSpec::LongestMatching.generate(&topo, 1);
    let t = evaluate(&topo, &tm, &cfg()).bounds;
    assert!((t.lower - 1.0).abs() < 0.07, "got {}", t.lower);
}

#[test]
fn hypercube_a2a_is_twice_the_longest_matching() {
    // The same volumetric argument: A2A average path length is d/2, so A2A
    // throughput is ~2 while LM is ~1 (d=4, one server per switch).
    let topo = hypercube(4, 1);
    let c = cfg();
    let a2a = evaluate(&topo, &TmSpec::AllToAll.generate(&topo, 1), &c).bounds;
    let lm = evaluate(&topo, &TmSpec::LongestMatching.generate(&topo, 1), &c).bounds;
    let ratio = a2a.lower / lm.lower;
    assert!((ratio - 2.0).abs() < 0.35, "A2A/LM ratio {}", ratio);
}

#[test]
fn theorem2_bound_is_valid_across_tms_and_topologies() {
    let c = cfg();
    for topo in [hypercube(4, 1), fat_tree(4), flattened_butterfly(3, 3)] {
        let bound = lower_bound(&topo, &c);
        for spec in [
            TmSpec::RandomMatching {
                servers_per_switch: 1,
            },
            TmSpec::LongestMatching,
            TmSpec::Kodialam,
        ] {
            let tm = spec.generate(&topo, 3);
            let t = evaluate(&topo, &tm, &c).bounds;
            assert!(
                t.upper >= bound.lower * 0.92,
                "{} under {} ({}) below the Theorem-2 bound ({})",
                topo.name,
                spec.label(),
                t.upper,
                bound.lower
            );
        }
    }
}

#[test]
fn exact_and_fptas_agree_on_a_real_topology() {
    // Flattened butterfly 3-ary 3-stage: 9 switches, small enough for the LP.
    let topo = flattened_butterfly(3, 3);
    let tm = TmSpec::LongestMatching.generate(&topo, 1);
    let exact = ExactLpSolver::new()
        .solve(&topo.graph, &tm)
        .expect("LP solves");
    let approx = evaluate(&topo, &tm, &EvalConfig::fast()).bounds;
    assert!(approx.lower <= exact.lower * 1.01 + 1e-9);
    assert!(approx.upper >= exact.lower * 0.99 - 1e-9);
}

#[test]
fn tm_difficulty_ordering_matches_figure4() {
    // Figure 4: T_A2A >= T_RM(5) >= T_RM(1) >= T_LM (allowing solver slack).
    let topo = hypercube(5, 1);
    let c = cfg();
    let a2a = evaluate(&topo, &TmSpec::AllToAll.generate(&topo, 1), &c)
        .bounds
        .lower;
    let rm5 = evaluate(
        &topo,
        &TmSpec::RandomMatching {
            servers_per_switch: 5,
        }
        .generate(&topo, 1),
        &c,
    )
    .bounds
    .lower;
    let rm1 = evaluate(
        &topo,
        &TmSpec::RandomMatching {
            servers_per_switch: 1,
        }
        .generate(&topo, 1),
        &c,
    )
    .bounds
    .lower;
    let lm = evaluate(&topo, &TmSpec::LongestMatching.generate(&topo, 1), &c)
        .bounds
        .lower;
    let slack = 1.07;
    assert!(a2a * slack >= rm5, "A2A {a2a} vs RM5 {rm5}");
    assert!(rm5 * slack >= rm1, "RM5 {rm5} vs RM1 {rm1}");
    assert!(rm1 * slack >= lm, "RM1 {rm1} vs LM {lm}");
}

#[test]
fn min_cut_from_max_flow_bounds_two_terminal_throughput() {
    // For a single commodity, throughput * demand = max flow = min cut: the
    // augmenting-path max flow is an oracle that shares no code with the LP
    // or the FPTAS. Antipodal corners of a 4-cube are joined by 4 disjoint
    // paths; the 16 switches send the first evaluation to the exact LP, the
    // second (exact path off) to the FPTAS.
    let topo = hypercube(4, 1);
    let g = &topo.graph;
    let (cut, side) = min_st_cut(g, 0, 15);
    let flow = max_flow_value(g, 0, 15);
    assert_eq!(flow, 4.0);
    assert!((cut - flow).abs() < 1e-9);
    assert!((g.cut_capacity(&side) - cut).abs() < 1e-9);
    let demand = tb_traffic::Demand {
        src: 0,
        dst: 15,
        amount: 2.0,
    };
    let tm = tb_traffic::TrafficMatrix::new(g.num_nodes(), vec![demand]);
    let exact = evaluate(&topo, &tm, &EvalConfig::default()).bounds;
    assert!((exact.value() * demand.amount - flow).abs() < 1e-9);
    let fptas_cfg = EvalConfig {
        exact_switch_limit: 0,
        ..EvalConfig::default()
    };
    let t = evaluate(&topo, &tm, &fptas_cfg).bounds;
    let gap = fptas_cfg.solver.target_gap;
    assert!(
        t.lower * demand.amount <= flow * (1.0 + 1e-9)
            && t.upper * demand.amount >= flow * (1.0 - 1e-9)
            && t.lower * demand.amount >= flow * (1.0 - gap),
        "throughput {t:?} x demand {} vs max flow {flow}",
        demand.amount
    );
}

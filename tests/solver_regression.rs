//! Cross-solver regression tests guarding the Fleischer hot-path refactor
//! (CSR arcs, early-exit SSSP, goal-directed searches on potential rows). The
//! reference is the max-concurrent-flow LP itself: its exact optimum where
//! the arc LP is tractable, and LP duality — each solve's own certificate,
//! re-derived by `verify_certificate` — everywhere:
//!
//! * on small instances where the exact arc LP is tractable, every solve at
//!   every stock configuration must bracket the exact optimum, close to
//!   within the configured `target_gap` of it, stop by that gap, and carry a
//!   certificate that verifies at it, across topology and TM families with
//!   very different sparsity (A2A: dense; longest-matching and
//!   random-permutation: one destination per source — the early-exit fast
//!   path; random matching of degree two and Kodialam: a few destinations per
//!   source, the latter at unequal distances);
//! * certificate capture must leave the bounds and every counter bit for
//!   bit as a solve without it has them, on the grid and on a 160-switch
//!   instance;
//! * five 64-switch multi-destination shapes (all-to-all, the skewed
//!   Facebook TM-F, random matching, Kodialam), which route on the
//!   aggregated tree and are too large for the exact LP here, must stop by
//!   their gap with a certificate that verifies at it;
//! * the block-mix lower bound must cut the phase count of a dense gap-exit
//!   solve (a deterministic counter), and the averaged dual iterate that of
//!   the sparse straggler (`HyperX/1/LM`, which the last iterate left running
//!   to `D(l) >= 1`); both only read the solver's state, so with the gap exit
//!   switched off the same solve saturates at the phase it did before either
//!   existed (that neither bound crosses the optimum is the first bullet, at
//!   all three stock configurations);
//! * the known-path store must keep the search count of that straggler under
//!   its pin, and must stay out of multi-destination sources' way;
//! * the straggler's potential rows must turn dense (re-derived at the start
//!   of every turn) and its searches stay small, while an all-to-all solve,
//!   which has no row, re-derives none;
//! * bound evaluations that skip their dual sweep (the held paths say no
//!   sweep could close the gap) must leave routing, lengths and flows exactly
//!   as they were before evaluations were screened.

use tb_flow::{
    verify_certificate, ExactLpSolver, FleischerConfig, FleischerSolver, SolveStats,
    ThroughputBounds, UpperEvidence,
};
use tb_graph::Graph;
use tb_topology::families::Scale;
use tb_topology::hypercube::hypercube;
use tb_topology::jellyfish::jellyfish;
use tb_topology::{Family, Topology};
use tb_traffic::facebook::tm_f;
use tb_traffic::synthetic::{
    all_to_all, kodialam, longest_matching, random_matching, random_permutation,
};
use tb_traffic::TrafficMatrix;
use topobench::{EvalConfig, TmSpec};

/// The small instance grid: every (topology, TM family) pair exercised by the
/// regression. Kept small enough for the exact LP.
fn instances() -> Vec<(String, Topology, TrafficMatrix)> {
    let mut out = Vec::new();
    let topos: Vec<(&str, Topology)> = vec![
        ("hypercube_d3", hypercube(3, 1)),
        ("hypercube_d4", hypercube(4, 1)),
        ("jellyfish_10x3", jellyfish(10, 3, 1, 7)),
        ("jellyfish_12x4", jellyfish(12, 4, 1, 11)),
    ];
    for (tname, topo) in topos {
        let tms: Vec<(&str, TrafficMatrix)> = vec![
            ("a2a", all_to_all(&topo.servers)),
            (
                "longest_matching",
                longest_matching(&topo.graph, &topo.servers, true),
            ),
            ("random_permutation", random_permutation(&topo.servers, 3)),
            ("random_matching_2", random_matching(&topo.servers, 2, 5)),
            // Three servers per switch, sent farthest first: on the
            // jellyfish graphs most sources spread them over two or three
            // destinations, often at unequal distances (a hypercube's
            // antipode takes all three).
            (
                "kodialam",
                kodialam(&topo.graph, &vec![3; topo.num_switches()]),
            ),
        ];
        for (mname, tm) in tms {
            out.push((format!("{tname}/{mname}"), topo.clone(), tm));
        }
    }
    // A sparse permutation on an irregular random graph of another size and
    // seed: the early-exit fast path once more.
    let topo = jellyfish(14, 4, 1, 3);
    let tm = random_permutation(&topo.servers, 9);
    out.push(("jellyfish_14x4/random_permutation_9".into(), topo, tm));
    out
}

/// Solves `tm` on `g` with certificate capture (trajectory-neutral, see
/// `certificate_capture_is_trajectory_neutral_across_instance_mix`) and
/// asserts that the solve stopped by its gap and that its certificate — the
/// LP-duality evidence for the bracket — verifies at `cfg.target_gap`.
fn solve_certified(
    name: &str,
    cfg: FleischerConfig,
    g: &Graph,
    tm: &TrafficMatrix,
) -> (ThroughputBounds, SolveStats) {
    let (b, stats, cert) = FleischerSolver::new(cfg).solve_in(g, tm, true);
    assert!(
        stats.converged && b.gap() <= cfg.target_gap,
        "{name}: solve did not exit by its gap {} (eps {}): {b:?} {stats:?}",
        cfg.target_gap,
        cfg.epsilon
    );
    let cert = cert.unwrap_or_else(|| panic!("{name}: requested certificate missing"));
    verify_certificate(g, tm, &cert, cfg.target_gap)
        .unwrap_or_else(|e| panic!("{name}: certificate failed verification: {e}"));
    (b, stats)
}

/// Solves `tm` on `topo` at every stock configuration and holds each solve to
/// the exact LP optimum: the bracket must contain it, the feasible value must
/// be within `target_gap` of it (plus a small slack for the gap being measured
/// against `upper`, not the optimum), and the solve must stop by its gap with
/// a certificate that verifies at it (`solve_certified`). Returns how many of
/// the solves reported an upper bound from the averaged lengths, how many
/// from a cut, and how many routed mirrored.
fn assert_brackets_exact_lp(
    name: &str,
    topo: &Topology,
    tm: &TrafficMatrix,
) -> (usize, usize, usize) {
    let exact = ExactLpSolver::new()
        .solve(&topo.graph, tm)
        .unwrap_or_else(|e| panic!("{name}: exact LP failed: {e:?}"))
        .lower;
    assert!(exact > 0.0, "{name}: exact throughput not positive");
    let (mut uppers_from_average, mut uppers_from_cut, mut mirrored) = (0, 0, 0);
    for cfg in [
        FleischerConfig::fast(),
        FleischerConfig::default(),
        FleischerConfig::precise(),
    ] {
        let (b, stats) = solve_certified(name, cfg, &topo.graph, tm);
        uppers_from_average += usize::from(stats.upper_from == UpperEvidence::Average);
        uppers_from_cut += usize::from(stats.upper_from == UpperEvidence::Cut);
        mirrored += usize::from(stats.mirrored);
        // The bracket must contain the exact optimum...
        assert!(
            b.lower <= exact * (1.0 + 1e-9),
            "{name}: feasible bound {} exceeds exact optimum {exact} (eps {})",
            b.lower,
            cfg.epsilon
        );
        assert!(
            b.upper >= exact * (1.0 - 1e-6),
            "{name}: dual bound {} below exact optimum {exact}",
            b.upper
        );
        // ...and the feasible value must be within the configured gap of it.
        let rel_err = (exact - b.lower) / exact;
        assert!(
            rel_err <= cfg.target_gap + 0.005,
            "{name}: FPTAS lower bound {} misses exact {exact} by {rel_err:.4} \
             (target_gap {})",
            b.lower,
            cfg.target_gap
        );
    }
    (uppers_from_average, uppers_from_cut, mirrored)
}

#[test]
fn fptas_stays_within_target_gap_of_exact_lp() {
    // Every instance of the mix has at most 16 switches, so the exact LP is
    // the referee — at every stock configuration: each has its own bound
    // evaluation cadence and therefore its own flow blocks, and a block mix
    // that overshoots the optimum — or an averaged-length bound or a swept
    // cut that undershoots it — is the failure those features could
    // introduce. The last two are only tested if some reported `upper` did
    // come from the average, and some from a cut, which is counted; so is
    // mirrored routing (each tree carrying its source's in-commodities too),
    // which the mix's all-to-all instances take.
    let (mut uppers_from_average, mut uppers_from_cut, mut mirrored) = (0, 0, 0);
    for (name, topo, tm) in instances() {
        let (average, cut, mirror) = assert_brackets_exact_lp(&name, &topo, &tm);
        uppers_from_average += average;
        uppers_from_cut += cut;
        mirrored += mirror;
    }
    assert!(
        uppers_from_average > 0,
        "no solve of the mix reported an upper bound from the averaged lengths"
    );
    assert!(
        uppers_from_cut > 0,
        "no solve of the mix reported an upper bound from a cut"
    );
    assert!(mirrored > 0, "no solve of the mix routed mirrored");
}

#[test]
fn sparse_and_dense_tms_agree_with_exact_on_jellyfish() {
    // One irregular random graph under both ends of the sparsity range: the
    // grid's sparse permutation (one destination per source, the early-exit
    // fast path) and all-to-all on the same graph (every source routes on
    // the aggregated tree), each held to the grid's exact-LP checks.
    let topo = jellyfish(14, 4, 1, 3);
    let sparse = random_permutation(&topo.servers, 9);
    let dense = all_to_all(&topo.servers);
    assert_brackets_exact_lp("jellyfish_14x4/random_permutation_9", &topo, &sparse);
    assert_brackets_exact_lp("jellyfish_14x4/a2a", &topo, &dense);
}

/// The solve the sweep engine runs for a ladder rung's FPTAS cell at seed 1:
/// `EvalConfig::fast()`'s solver configuration.
fn ladder_solve(family: Family, rung: usize, tm: TmSpec) -> (ThroughputBounds, SolveStats) {
    ladder_solve_at(family, rung, tm, EvalConfig::fast().solver.target_gap)
}

/// [`ladder_solve`] with the gap exit moved to `target_gap`.
fn ladder_solve_at(
    family: Family,
    rung: usize,
    tm: TmSpec,
    target_gap: f64,
) -> (ThroughputBounds, SolveStats) {
    let max_phases = EvalConfig::fast().solver.max_phases;
    ladder_solve_for(family, rung, tm, target_gap, max_phases)
}

/// [`ladder_solve_at`] with the phase budget moved to `max_phases`.
fn ladder_solve_for(
    family: Family,
    rung: usize,
    tm: TmSpec,
    target_gap: f64,
    max_phases: usize,
) -> (ThroughputBounds, SolveStats) {
    let topo = family
        .ladder_instance(Scale::Small, 1, rung)
        .expect("ladder rung builds");
    let tm = tm.generate(&topo, 1);
    let cfg = FleischerConfig {
        target_gap,
        max_phases,
        ..EvalConfig::fast().solver
    };
    let (bounds, stats, _) = FleischerSolver::new(cfg).solve_in(&topo.graph, &tm, false);
    (bounds, stats)
}

#[test]
fn block_mix_cuts_the_phases_of_a_dense_gap_exit_solve() {
    // DCell rung 3 (208 nodes, 156 sources) under all-to-all was the
    // straggler of the dense pass: 124 phases on the cumulative bound alone,
    // 68 with suffix windows of it, 56 with the LP's mix of the blocks routed
    // between evaluations, 28 since each tree also carries its source's
    // in-commodities (the instance is symmetric, so the solve is mirrored).
    // Phase counts are machine-independent.
    let (b, stats) = ladder_solve(Family::DCell, 3, TmSpec::AllToAll);
    assert!(stats.converged && stats.mirrored, "{stats:?}");
    assert!(stats.phases <= 28, "{stats:?}");
    assert!(
        0.0 < b.lower && b.lower <= b.upper && b.gap() <= FleischerConfig::fast().target_gap,
        "{b:?}"
    );
}

#[test]
fn suffix_windows_leave_a_saturating_trajectory_alone() {
    // HyperX rung 1 under longest matching used to end by `D(l) >= 1` after
    // 260 phases; the averaged dual iterate now closes its gap first (next
    // test). With the gap exit switched off the solve still runs to
    // saturation, and because the length windows, the averages and the block
    // mix only read the accumulators and the lengths, it gets there on
    // exactly the trajectory it had before any of them existed: the same
    // phase. The feasible value is the block mix's (pinned to the bit; the
    // suffix windows it replaced reached 0.56973293768546 on the same flow).
    let (b, stats) = ladder_solve_at(Family::HyperX, 1, TmSpec::LongestMatching, 0.0);
    assert!(stats.converged, "{stats:?}");
    assert_eq!(stats.phases, 260, "{stats:?}");
    assert_eq!(b.lower.to_bits(), 0x3fe2_3fff_5041_47cb, "{b:?}");
    assert!(b.lower <= b.upper, "{b:?}");
    // Routing searched 54,422 times at that commit (pinned at <= 65,000) and
    // 54,223 times since dense rows broke some ties differently; what is
    // added is one forward search per source (64) per averaged evaluation,
    // of which there is at most one per bound evaluation (66). With no gap
    // to close, every periodic evaluation is screened, and only the closing
    // one adds its 64 (the floor counts them).
    assert!(stats.searches <= 65_000 + 66 * 64, "{stats:?}");
    assert!(stats.searches > 54_223, "{stats:?}");
    assert_eq!((stats.evaluations, stats.screened), (66, 65), "{stats:?}");
}

#[test]
fn screened_evaluations_leave_the_routing_trajectory_alone() {
    // A screened evaluation skips the dual sweep only: the rows that are not
    // dense are re-derived at every evaluation as before (routing reads
    // them), and a dense row is re-derived at the start of each of its
    // source's turns anyway. With the gap exit switched off no candidate can
    // close the gap, so every periodic evaluation is screened and only the
    // closing one sweeps — and routing, lengths and flows must be those of
    // the commit before screening existed. Pinned from that commit: the
    // feasible value's bits and the routing counters, after 40 phases of
    // the dense straggler (aggregated trees, held trees for the screen) and
    // of the sparse one (known paths and dense rows). The dense straggler's
    // bits were re-pinned once, from the commit that made its solve mirrored
    // (each tree also carries its source's in-commodities, a new trajectory);
    // the sparse pins are unchanged, since a source with one destination
    // keeps its solve unmirrored.
    for (family, rung, tm, lower, routing) in [
        (
            Family::DCell,
            3,
            TmSpec::AllToAll,
            0x3fe4_b140_ac88_63ba_u64,
            (0, 0, 0),
        ),
        (
            Family::HyperX,
            1,
            TmSpec::LongestMatching,
            0x3fe2_006b_2c2a_b37a,
            (8_257, 2_377, 92_586),
        ),
    ] {
        let dense = tm == TmSpec::AllToAll;
        let (b, stats) = ladder_solve_for(family, rung, tm, 0.0, 40);
        assert_eq!(stats.phases, 40, "{family:?}: {stats:?}");
        assert_eq!(stats.mirrored, dense, "{family:?}: {stats:?}");
        assert_eq!(b.lower.to_bits(), lower, "{family:?}: {b:?}");
        assert_eq!(
            (stats.path_reuses, stats.row_refreshes, stats.settles),
            routing,
            "{family:?}: {stats:?}"
        );
        assert_eq!(
            (stats.evaluations, stats.screened),
            (11, 10),
            "{family:?}: {stats:?}"
        );
    }
}

#[test]
fn known_paths_halve_the_searches_of_the_short_diameter_straggler() {
    // The same solve as the sweep runs it, counted: 64 single-destination
    // sources on a graph of ~3.4-hop paths. Searching after every
    // capacity-limited step cost 120,753 searches over 260 phases (the dual
    // sweeps' forward searches included); routing on a known path that is
    // still within the reuse slack, and reading the dual bound off the
    // refreshed potential rows, left 54,422. Those 260 phases ended by
    // saturation with the bracket 7.8 % wide, because the dual bound at the
    // last iterate bounces by ±1 % per evaluation; the window average of the
    // normalised lengths does not, and the solve stopped by its gap after
    // 152 phases (re-pinned from 260 with that change), and after 116 since
    // the block mix replaced the suffix windows on the feasible side (the
    // phase count is machine-independent).
    let (b, stats) = ladder_solve(Family::HyperX, 1, TmSpec::LongestMatching);
    assert_eq!(stats.phases, 116, "{stats:?}");
    assert!(stats.searches <= 40_000, "{stats:?}");
    assert!(stats.path_reuses > stats.searches / 3, "{stats:?}");
    assert!(stats.converged, "{stats:?}");
    assert_eq!(stats.upper_from, UpperEvidence::Average, "{stats:?}");
    assert!(
        0.0 < b.lower && b.gap() <= FleischerConfig::fast().target_gap,
        "{b:?}"
    );
}

#[test]
fn short_diameter_rows_turn_dense_and_their_searches_stay_small() {
    // On the same solve a search under the bound-cadence potential settled
    // about 50 of the 64 nodes: rows that stale turn dense and are
    // re-derived at the start of every turn of their source (9,545 of the
    // 152 × 64 turns when this was written), after which a search settles
    // about 8 nodes on average — the saving is settles per search, the
    // search and phase counts stay where the previous test pins them.
    let (_, stats) = ladder_solve(Family::HyperX, 1, TmSpec::LongestMatching);
    assert!(stats.row_refreshes > 0, "{stats:?}");
    assert!(stats.settles <= 10 * stats.searches, "{stats:?}");
}

#[test]
fn sources_with_several_destinations_never_touch_the_known_paths() {
    // All-to-all has no single-destination source: every search is a tree
    // (one per source per phase at least, plus the dual sweep's), nothing is
    // reused by path, and the bounds are those of the pre-store kernel (the
    // committed `/A2A` goldens are bit-identical across that change). With
    // no potential row, no row turns dense either. Every source settles the
    // whole graph, so after its first search each of its trees is repaired
    // from one it held (the same tree, bit for bit); the 156 first searches
    // run Dijkstra.
    let (_, stats) = ladder_solve(Family::DCell, 3, TmSpec::AllToAll);
    assert_eq!(stats.path_reuses, 0, "{stats:?}");
    assert_eq!((stats.row_refreshes, stats.settles), (0, 0), "{stats:?}");
    assert!(stats.searches >= 156 * stats.phases, "{stats:?}");
    assert!(stats.repairs > 0, "{stats:?}");
    assert!(stats.repairs + 156 <= stats.searches, "{stats:?}");
}

#[test]
fn certificate_capture_is_trajectory_neutral_across_instance_mix() {
    // Capture only copies the state behind each best bound, so a solve that
    // captures must equal the one that does not bit for bit — bounds and the
    // whole `SolveStats` — on every instance of the grid and on a
    // 160-switch Jellyfish under longest matching (160 sources × 1,280 arcs).
    let solver = FleischerSolver::new(FleischerConfig::default());
    let big = jellyfish(160, 8, 1, 42);
    let big_tm = longest_matching(&big.graph, &big.servers, true);
    let mut cases = instances();
    cases.push(("jellyfish_160x8/longest_matching".into(), big, big_tm));
    for (name, topo, tm) in &cases {
        let (b, stats, cert) = solver.solve_in(&topo.graph, tm, true);
        assert!(cert.is_some(), "{name}: requested certificate missing");
        let (plain, plain_stats, none) = solver.solve_in(&topo.graph, tm, false);
        assert!(none.is_none(), "{name}: certificate without a request");
        assert_eq!(
            (b.lower.to_bits(), b.upper.to_bits()),
            (plain.lower.to_bits(), plain.upper.to_bits()),
            "{name}: capture moved the bounds"
        );
        assert_eq!(stats, plain_stats, "{name}: capture moved the stats");
    }
}

#[test]
fn aggregated_kernel_certifies_its_gap_on_dense_64_switch_tms() {
    // Every source with several destinations routes all its demands in one
    // pass over the settle order of its tree; the grid's multi-destination
    // instances (all-to-all, random matching of two, Kodialam) do so under
    // the exact LP's eye. Here, at the sweep's stock configuration, are
    // shapes of 64 switches: both graphs under all-to-all, and the Jellyfish
    // under the skewed Facebook TM-F (hose-normalized, as the sweep places
    // it: raw, it solves to about 1e-7), random matching of five servers per
    // switch and Kodialam's farthest-first spread of four, whose few
    // destinations sit at unequal distances. With no exact optimum to hand,
    // each solve's certificate is the reference.
    let cfg = FleischerConfig::fast();
    let cube = hypercube(6, 1);
    let cube_a2a = all_to_all(&cube.servers);
    solve_certified("hypercube64/a2a", cfg, &cube.graph, &cube_a2a);
    let jf = jellyfish(64, 6, 1, 42);
    let (tmf, _) = tm_f(64, 7).normalized_to_hose(&jf.servers);
    for (name, tm) in [
        ("jellyfish64/a2a", all_to_all(&jf.servers)),
        ("jellyfish64/tmf", tmf),
        ("jellyfish64/rm5", random_matching(&jf.servers, 5, 3)),
        ("jellyfish64/kodialam", kodialam(&jf.graph, &[4; 64])),
    ] {
        solve_certified(name, cfg, &jf.graph, &tm);
    }
}

#[test]
fn swept_cut_bounds_equal_an_independent_sparsity_recomputation() {
    // Every solve's certificate carries the best cut its sweeps found. On
    // random regular graphs of 12 to 40 switches, intact and under seeded
    // fault draws (a tenth of the links, and one switch every other draw:
    // isolated nodes, and demands that only the degradation path keeps
    // solvable), under all-to-all, a random permutation and a random
    // matching of two, that cut's bound must be its undirected sparsity —
    // the links crossing it over the heavier direction's crossing demand,
    // summed here apart from `tb_flow` (capacities are symmetric here, which
    // one capacity per link assumes) — the certificate must claim
    // no less, and where the cut set the reported upper bound the solver's
    // recorded value must be that sparsity (47 of the 60 solves when this
    // was written).
    use rand::{Rng, SeedableRng};
    use tb_topology::faults::{apply_faults, FaultPlan};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(51);
    let (mut cuts, mut cut_uppers) = (0, 0);
    for draw in 0..10u64 {
        let n = 2 * rng.gen_range(6..=20usize);
        let degree = rng.gen_range(3..=5usize);
        let intact = jellyfish(n, degree, 1, rng.gen_range(0..1_000u64));
        let faulted = apply_faults(
            &intact,
            &FaultPlan {
                link_failures: intact.num_links() / 10,
                switch_failures: usize::from(draw % 2 == 1),
                seed: draw,
            },
        )
        .0;
        for topo in [&intact, &faulted] {
            for tm in [
                all_to_all(&topo.servers),
                random_permutation(&topo.servers, draw),
                random_matching(&topo.servers, 2, draw),
            ] {
                let out =
                    FleischerSolver::new(FleischerConfig::fast()).solve_outcome(&topo.graph, &tm);
                let (kept, _) = tb_flow::drop_disconnected_demands(&topo.graph, &tm);
                let cert = &out.certificate;
                verify_certificate(&topo.graph, &kept, cert, f64::INFINITY)
                    .unwrap_or_else(|e| panic!("draw {draw}: {e}"));
                if kept.num_flows() == 0 {
                    continue;
                }
                // Every evaluation sweeps an order whose first node sends or
                // receives demand, so every solve finds some cut.
                assert!(!cert.cut.is_empty(), "draw {draw}: no cut");
                cuts += 1;
                let mut in_set = vec![false; topo.num_switches()];
                for &v in &cert.cut {
                    in_set[v] = true;
                }
                let (mut fwd, mut rev) = (0.0f64, 0.0f64);
                for d in kept.demands() {
                    match (in_set[d.src], in_set[d.dst]) {
                        (true, false) => fwd += d.amount,
                        (false, true) => rev += d.amount,
                        _ => {}
                    }
                }
                let sparsity = topo.graph.cut_capacity(&in_set) / fwd.max(rev);
                assert!(
                    sparsity.is_finite() && cert.upper <= sparsity * (1.0 + 1e-12),
                    "draw {draw}: certificate claims {} over a cut of sparsity {sparsity}",
                    cert.upper
                );
                if out.stats.upper_from == UpperEvidence::Cut {
                    cut_uppers += 1;
                    let upper = out.bounds.upper;
                    assert!(
                        (upper - sparsity).abs() <= 1e-12 * sparsity,
                        "draw {draw}: solver's cut {upper} vs sparsity {sparsity}"
                    );
                }
            }
        }
    }
    assert!(
        cuts == 60 && cut_uppers >= 20,
        "{cuts} solves, {cut_uppers} uppers from a cut"
    );
}

//! Cross-solver regression tests guarding the Fleischer hot-path refactor
//! (CSR arcs, reusable workspace, early-exit SSSP, parallel dual bounds):
//!
//! * on small instances where the exact arc LP is tractable, the FPTAS
//!   brackets must contain the exact optimum and close to within the
//!   configured `target_gap` of it, across topology and TM families with
//!   very different sparsity (A2A: dense; longest-matching and
//!   random-permutation: one destination per source — the early-exit fast
//!   path; random matching of degree two and Kodialam: a few destinations per
//!   source, the latter at unequal distances);
//! * repeated solves through one reused [`SolverWorkspace`] must reproduce
//!   fresh-workspace results bit-for-bit, in any interleaving order;
//! * the solver must match the frozen per-destination walk of
//!   `tb_bench::legacy` within the FPTAS gap, with its certificate verified,
//!   on every instance of the grid with a source of several destinations
//!   (those route on the aggregated tree) and on five 64-switch
//!   multi-destination shapes (all-to-all, the skewed Facebook TM-F, random
//!   matching, Kodialam);
//! * the pooled dual-bound sweep and potential refresh must reproduce their
//!   inline execution bit-for-bit on an instance large enough to fan out;
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
//! * bound evaluations that skip their dual sweeps (the held paths say no
//!   sweep could close the gap) must leave routing, lengths and flows exactly
//!   as they were before evaluations were screened.

use tb_flow::fleischer::PAR_MIN_SWEEP_WORK;
use tb_flow::{
    verify_certificate, ExactLpSolver, FleischerConfig, FleischerSolver, FlowProblem,
    SolverWorkspace, ThroughputCertificate,
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
    out
}

#[test]
fn fptas_stays_within_target_gap_of_exact_lp() {
    // Every instance of the mix has at most 16 switches, so the exact LP is
    // the referee — at every stock configuration: each has its own bound
    // evaluation cadence and therefore its own flow blocks, and a block mix
    // that overshoots the optimum — or an averaged-length bound that
    // undershoots it — is the failure those features could introduce. The
    // second is only tested if some reported `upper` did come from the
    // average, which is counted.
    let mut uppers_from_average = 0;
    for (name, topo, tm) in instances() {
        let exact = ExactLpSolver::new()
            .solve(&topo.graph, &tm)
            .unwrap_or_else(|e| panic!("{name}: exact LP failed: {e:?}"))
            .lower;
        assert!(exact > 0.0, "{name}: exact throughput not positive");
        for cfg in [
            FleischerConfig::fast(),
            FleischerConfig::default(),
            FleischerConfig::precise(),
        ] {
            let (b, stats, _) = FleischerSolver::new(cfg).solve_in(
                &topo.graph,
                &tm,
                &mut SolverWorkspace::new(),
                false,
            );
            uppers_from_average += usize::from(stats.upper_from_average);
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
            // ...and the feasible value must be within the configured gap of
            // it (small slack for the gap being measured against `upper`, not
            // `exact`).
            let rel_err = (exact - b.lower) / exact;
            assert!(
                rel_err <= cfg.target_gap + 0.005,
                "{name}: FPTAS lower bound {} misses exact {exact} by {rel_err:.4} \
                 (target_gap {})",
                b.lower,
                cfg.target_gap
            );
        }
    }
    assert!(
        uppers_from_average > 0,
        "no solve of the mix reported an upper bound from the averaged lengths"
    );
}

/// The solve the sweep engine runs for a ladder rung's FPTAS cell at seed 1:
/// `EvalConfig::fast()`'s solver configuration.
fn ladder_solve(
    family: Family,
    rung: usize,
    tm: TmSpec,
) -> (tb_flow::ThroughputBounds, tb_flow::SolveStats) {
    ladder_solve_at(family, rung, tm, EvalConfig::fast().solver.target_gap)
}

/// [`ladder_solve`] with the gap exit moved to `target_gap`.
fn ladder_solve_at(
    family: Family,
    rung: usize,
    tm: TmSpec,
    target_gap: f64,
) -> (tb_flow::ThroughputBounds, tb_flow::SolveStats) {
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
) -> (tb_flow::ThroughputBounds, tb_flow::SolveStats) {
    let topo = family
        .ladder_instance(Scale::Small, 1, rung)
        .expect("ladder rung builds");
    let tm = tm.generate(&topo, 1);
    let cfg = FleischerConfig {
        target_gap,
        max_phases,
        ..EvalConfig::fast().solver
    };
    let (bounds, stats, _) =
        FleischerSolver::new(cfg).solve_in(&topo.graph, &tm, &mut SolverWorkspace::new(), false);
    (bounds, stats)
}

#[test]
fn block_mix_cuts_the_phases_of_a_dense_gap_exit_solve() {
    // DCell rung 3 (208 nodes, 156 sources) under all-to-all was the
    // straggler of the dense pass: 124 phases on the cumulative bound alone,
    // 68 with suffix windows of it, 56 with the LP's mix of the blocks routed
    // between evaluations. Phase counts are machine-independent.
    let (b, stats) = ladder_solve(Family::DCell, 3, TmSpec::AllToAll);
    assert!(stats.converged, "{stats:?}");
    assert!(stats.phases <= 60, "{stats:?}");
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
    // A screened evaluation skips dual sweeps only: the rows that are not
    // dense are re-derived at every evaluation as before (routing reads
    // them), and a dense row is re-derived at the start of each of its
    // source's turns anyway. With the gap exit switched off no candidate can
    // close the gap, so every periodic evaluation is screened and only the
    // closing one sweeps — and routing, lengths and flows must be those of
    // the commit before screening existed. Pinned from that commit: the
    // feasible value's bits and the routing counters, after 40 phases of
    // the dense straggler (aggregated trees, held trees for the screen) and
    // of the sparse one (known paths and dense rows).
    for (family, rung, tm, lower, routing) in [
        (
            Family::DCell,
            3,
            TmSpec::AllToAll,
            0x3fe3_fad8_0a4f_ea11_u64,
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
        let (b, stats) = ladder_solve_for(family, rung, tm, 0.0, 40);
        assert_eq!(stats.phases, 40, "{family:?}: {stats:?}");
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
    assert!(stats.converged && stats.upper_from_average, "{stats:?}");
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
    // (one per source per phase at least, plus the dual sweeps), nothing is
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

/// Every float of a certificate as its bit pattern, beside its dimensions.
fn certificate_bits(cert: &ThroughputCertificate) -> (usize, usize, Vec<u64>) {
    let scalars = [cert.d_l, cert.lower, cert.upper];
    let floats = cert.flow.iter().chain(&cert.served).chain(&cert.lengths);
    let bits = floats.chain(&scalars).map(|x| x.to_bits()).collect();
    (cert.num_nodes, cert.num_arcs, bits)
}

#[test]
fn reused_workspace_reproduces_fresh_results_across_instance_mix() {
    // One workspace is driven across the whole instance grid three times
    // (growing and shrinking between topologies), once more in reverse, and
    // last through the 160-switch instance of
    // `pooled_sweeps_match_inline_execution_bit_for_bit`, whose bound sweeps
    // fan out past `PAR_MIN_SWEEP_WORK`. Certificate capture alternates from
    // one solve to the next. Every solve must equal its fresh-workspace solve
    // bit for bit: bounds, the whole `SolveStats` and, when captured, the
    // certificate.
    let solver = FleischerSolver::new(FleischerConfig::default());
    let grid = instances();
    let big = jellyfish(160, 8, 1, 42);
    let big_tm = longest_matching(&big.graph, &big.servers, true);
    let big_prob = FlowProblem::new(&big.graph, &big_tm);
    assert!(big_prob.sources().len() * big_prob.num_arcs() >= PAR_MIN_SWEEP_WORK);
    let fresh_solve = |topo: &Topology, tm: &TrafficMatrix| {
        solver.solve_in(&topo.graph, tm, &mut SolverWorkspace::new(), true)
    };
    let fresh: Vec<_> = grid.iter().map(|(_, t, tm)| fresh_solve(t, tm)).collect();
    let big_fresh = fresh_solve(&big, &big_tm);

    let mut ws = SolverWorkspace::new();
    let mut check =
        |pass: &str, name: &str, topo: &Topology, tm: &TrafficMatrix, expect: &_, want_cert| {
            let (b, stats, cert) = solver.solve_in(&topo.graph, tm, &mut ws, want_cert);
            let (eb, estats, ecert): &(tb_flow::ThroughputBounds, _, Option<_>) = expect;
            assert_eq!(
                (b.lower.to_bits(), b.upper.to_bits()),
                (eb.lower.to_bits(), eb.upper.to_bits()),
                "{name}: reused-workspace bounds diverged in {pass}"
            );
            assert_eq!(
                stats, *estats,
                "{name}: reused-workspace stats diverged in {pass}"
            );
            let expect_cert = ecert.as_ref().expect("fresh solves capture");
            match cert {
                Some(cert) => assert!(
                    certificate_bits(&cert) == certificate_bits(expect_cert),
                    "{name}: reused-workspace certificate diverged in {pass}"
                ),
                None => assert!(!want_cert, "{name}: requested certificate missing"),
            }
        };
    // Three rounds forward, then the reverse order: workspace shrink/grow
    // transitions in the other direction.
    let forward =
        (0..3).flat_map(|round| (0..grid.len()).map(move |i| (format!("round {round}"), i)));
    let reverse = (0..grid.len())
        .rev()
        .map(|i| ("the reverse sweep".to_string(), i));
    for (k, (pass, i)) in forward.chain(reverse).enumerate() {
        let (name, topo, tm) = &grid[i];
        check(&pass, name, topo, tm, &fresh[i], k % 2 == 0);
    }
    let name = "jellyfish_160x8/longest_matching";
    check("the fan-out solve", name, &big, &big_tm, &big_fresh, true);
}

/// Solves `tm` on `g` through the aggregated-tree kernel, verifies the
/// solve's certificate at the gap the evaluation layer accepts, and holds the
/// bounds to the kernel-equivalence contract against the frozen
/// per-destination walk of `tb_bench::legacy`.
fn assert_tree_matches_walk(name: &str, cfg: FleischerConfig, g: &Graph, tm: &TrafficMatrix) {
    let outcome = FleischerSolver::new(cfg).solve_outcome(g, tm);
    verify_certificate(
        g,
        tm,
        &outcome.certificate,
        (3.0 * cfg.epsilon).max(cfg.target_gap),
    )
    .unwrap_or_else(|e| panic!("{name}: certificate failed verification: {e}"));
    let walk = tb_bench::legacy::solve(&cfg, g, tm);
    tb_bench::assert_same_quality(name, &cfg, outcome.bounds, walk);
}

#[test]
fn aggregated_kernel_matches_per_destination_walk_on_dense_tms() {
    // Every source with several destinations routes all its demands in one
    // pass over the settle order of its tree. Against the frozen
    // per-destination parent walk of `tb_bench::legacy`, the trajectories
    // may diverge within the FPTAS gap (a batch is scaled by its binding
    // `cap/load` ratio, the legacy walk caps each destination at the
    // bottleneck left to it, and the legacy feasible bound is the cumulative
    // flow's), so the shared kernel-equivalence contract applies:
    // overlapping brackets, no lost gap quality, and feasible values within
    // twice the target gap. Every instance of the grid on which some source
    // routes on the tree counts, down to the two- and three-destination
    // sources of random matching and Kodialam; a TM of single-destination
    // sources only never reaches the tree kernel.
    for cfg in [FleischerConfig::default(), FleischerConfig::fast()] {
        for (name, topo, tm) in instances() {
            let prob = FlowProblem::new(&topo.graph, &tm);
            if prob.sources().iter().all(|s| s.dests.len() == 1) {
                continue;
            }
            assert_tree_matches_walk(&name, cfg, &topo.graph, &tm);
        }
    }
    // The 64-switch shapes at the sweep's stock configuration: both graphs
    // under all-to-all, and the Jellyfish under the skewed Facebook TM-F
    // (hose-normalized, as the sweep places it: raw, it solves to about
    // 1e-7), random matching of five servers per switch and Kodialam's
    // farthest-first spread of four, whose few destinations sit at unequal
    // distances.
    let cfg = FleischerConfig::fast();
    let cube = hypercube(6, 1);
    let cube_a2a = all_to_all(&cube.servers);
    assert_tree_matches_walk("hypercube64/a2a", cfg, &cube.graph, &cube_a2a);
    let jf = jellyfish(64, 6, 1, 42);
    let (tmf, _) = tm_f(64, 7).normalized_to_hose(&jf.servers);
    for (name, tm) in [
        ("jellyfish64/a2a", all_to_all(&jf.servers)),
        ("jellyfish64/tmf", tmf),
        ("jellyfish64/rm5", random_matching(&jf.servers, 5, 3)),
        ("jellyfish64/kodialam", kodialam(&jf.graph, &[4; 64])),
    ] {
        assert_tree_matches_walk(name, cfg, &jf.graph, &tm);
    }
}

#[test]
fn sparse_and_dense_tms_agree_with_exact_on_jellyfish() {
    // Focused check of the early-exit fast path: a sparse permutation TM on an
    // irregular random graph, compared against the exact LP at the tight
    // configuration.
    let topo = jellyfish(14, 4, 1, 3);
    let tm = random_permutation(&topo.servers, 9);
    let exact = ExactLpSolver::new().solve(&topo.graph, &tm).unwrap().lower;
    let b = FleischerSolver::new(FleischerConfig::precise()).solve(&topo.graph, &tm);
    assert!(b.lower <= exact * (1.0 + 1e-6) && exact <= b.upper * (1.0 + 1e-6));
    assert!(
        (exact - b.lower) / exact <= 0.015,
        "lower {} vs exact {exact}",
        b.lower
    );
}

#[test]
fn pooled_sweeps_match_inline_execution_bit_for_bit() {
    // The only parallel regions inside a solve are the dual-bound sweep (one
    // SSSP per source) and the goal-direction potential refresh (one reverse
    // SSSP per single-destination source); both fan out once
    // `sources × arcs >= PAR_MIN_SWEEP_WORK` and the pool is wider than one
    // thread. Inside `rayon::serial` the same regions run inline and in order
    // on the calling thread, so direct == serial pins the pooled execution to
    // the inline one. Run at RAYON_NUM_THREADS=1/2/8 in CI.
    //
    // Threshold arithmetic: 160 switches of degree 8 are 640 links = 1,280
    // arcs; longest matching and all-to-all both have all 160 switches as
    // sources (one destination each under LM, so every source also owns a
    // potential row), giving 160 × 1,280 = 204,800 >= 2^17 = 131,072.
    let topo = jellyfish(160, 8, 1, 42);
    let solver = FleischerSolver::new(FleischerConfig::fast());
    for (name, tm) in [
        (
            "longest_matching",
            longest_matching(&topo.graph, &topo.servers, true),
        ),
        ("a2a", all_to_all(&topo.servers)),
    ] {
        // The solver's own view of the instance, gated exactly as it gates.
        let prob = FlowProblem::new(&topo.graph, &tm);
        assert!(
            prob.sources().len() * prob.num_arcs() >= PAR_MIN_SWEEP_WORK,
            "{name}: {} sources × {} arcs no longer reaches the pooled branch \
             (PAR_MIN_SWEEP_WORK = {PAR_MIN_SWEEP_WORK}); grow the instance",
            prob.sources().len(),
            prob.num_arcs()
        );
        let queued_before = rayon::pool::stats().jobs;
        let direct = solver.solve_in(&topo.graph, &tm, &mut SolverWorkspace::new(), false);
        // The only other test in this binary large enough to queue pool jobs
        // solves this instance too, so growth here is sweeps of this solve or
        // of its twin going through the pool.
        assert!(
            rayon::current_num_threads() == 1 || rayon::pool::stats().jobs > queued_before,
            "{name}: the solve queued no pool job at width {}",
            rayon::current_num_threads()
        );
        let inline =
            rayon::serial(|| solver.solve_in(&topo.graph, &tm, &mut SolverWorkspace::new(), false));
        assert_eq!(
            (direct.0.lower.to_bits(), direct.0.upper.to_bits()),
            (inline.0.lower.to_bits(), inline.0.upper.to_bits()),
            "{name}: pooled {:?} vs inline {:?}",
            direct.0,
            inline.0
        );
        assert_eq!(direct.1, inline.1, "{name}: solve stats diverged");
        assert!(
            direct.1.converged && direct.1.phases > 0,
            "{name}: {:?}",
            direct.1
        );
    }
}

//! Side-by-side wall-clock comparison of the current Fleischer kernel against
//! the frozen pre-refactor copy (`tb_bench::legacy`) across topology × TM
//! shapes, for picking and sanity-checking the committed benchmark instances.
//! Every pair also asserts the bounds stayed equal-quality, so this doubles
//! as the kernel-equivalence check: `--quick` runs a reduced shape set (a few
//! seconds, including the skewed Facebook TM-F and the few-destination RM(5)
//! and Kodialam shapes) and is wired into CI to catch drift between the
//! kernels on every PR.
//!
//! Every solve additionally emits its [`ThroughputCertificate`] and re-checks
//! it on the spot (`verify_certificate` re-derives feasibility and the dual
//! bound from the stored evidence, trusting nothing from the solver), so the
//! CI smoke also proves the certificates the sweep pipeline would store are
//! verifiable on exactly these shapes. With `--exact-spot-check`, one
//! longest-matching cell per 64-switch family is additionally certified
//! against the true LP optimum: a warm-started `ExactLpSolver` run whose
//! result the FPTAS bounds must bracket — the drill that catches a bug shared
//! by both FPTAS kernels.
//!
//! Run: `cargo run --release -p tb_bench --example compare_kernels [-- --quick]
//! [-- --exact-spot-check]`.

use std::time::Instant;
use tb_bench::{assert_same_quality, legacy};
use tb_flow::{
    verify_certificate, ExactLpSolver, FleischerConfig, FleischerSolver, SolverWorkspace,
};
use tb_graph::Graph;
use tb_topology::expander::subdivided_expander;
use tb_topology::hypercube::hypercube;
use tb_topology::jellyfish::jellyfish;
use tb_traffic::synthetic::{
    all_to_all, kodialam, longest_matching, random_matching, random_permutation,
};
use tb_traffic::TrafficMatrix;

fn time<F: FnMut()>(mut f: F, reps: usize) -> f64 {
    f(); // warmup
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e3 / reps as f64
}

fn compare(name: &str, g: &Graph, tm: &TrafficMatrix, reps: usize) {
    // The sweep's stock configuration: every source with several
    // destinations routes on the aggregated tree, against legacy's
    // per-destination walk.
    let cfg = FleischerConfig::fast();
    let solver = FleischerSolver::new(cfg);
    let outcome = solver.solve_outcome(g, tm);
    let new_b = outcome.bounds;
    // The certificate this solve would ship in a `--certify` sweep must
    // independently re-verify right here, at the same acceptable gap the
    // evaluation layer enforces (capture is trajectory-neutral, so asking
    // for the outcome changes no benched number).
    verify_certificate(
        g,
        tm,
        &outcome.certificate,
        (3.0 * cfg.epsilon).max(cfg.target_gap),
    )
    .unwrap_or_else(|e| panic!("{name}: FPTAS certificate failed verification: {e}"));
    let old_b = legacy::solve(&cfg, g, tm);
    assert_same_quality(name, &cfg, new_b, old_b);
    let mut ws = SolverWorkspace::new();
    let t_new = time(
        || {
            let _ = solver.solve_in(g, tm, &mut ws, false);
        },
        reps,
    );
    let t_old = time(
        || {
            let _ = legacy::solve(&cfg, g, tm);
        },
        reps,
    );
    println!(
        "{name:<28} new {t_new:9.3} ms  legacy {t_old:9.3} ms  speedup {:5.2}x  bounds new=({:.4},{:.4}) old=({:.4},{:.4})",
        t_old / t_new,
        new_b.lower,
        new_b.upper,
        old_b.lower,
        old_b.upper,
    );
}

/// The `--exact-spot-check` drill: certify one sampled cell against the true
/// LP optimum. A precise FPTAS pass supplies the warm-start hint and the
/// bracket that must contain the exact value; the `ExactLpSolver` result is
/// then verified as a certificate in its own right at a near-exact gap. This
/// is the check `assert_same_quality` cannot do — both FPTAS kernels could
/// share a bug, the LP optimum is an independent ground truth.
fn exact_spot_check(name: &str, g: &Graph, tm: &TrafficMatrix) {
    let fptas = FleischerSolver::new(FleischerConfig::precise());
    let outcome = fptas.solve_outcome(g, tm);
    let t0 = Instant::now();
    let (b, cert) = ExactLpSolver::new()
        .solve_certified_with_hint(g, tm, Some(&outcome.certificate))
        .unwrap_or_else(|e| panic!("{name}: exact certification failed: {e}"));
    let secs = t0.elapsed().as_secs_f64();
    verify_certificate(g, tm, &cert, 1e-6)
        .unwrap_or_else(|e| panic!("{name}: exact certificate failed verification: {e}"));
    assert!(
        outcome.bounds.lower <= b.lower + 1e-6 && outcome.bounds.upper >= b.lower - 1e-6,
        "{name}: FPTAS bracket [{}, {}] misses the LP optimum {}",
        outcome.bounds.lower,
        outcome.bounds.upper,
        b.lower
    );
    println!(
        "{name:<28} exact t* = {:.6}  certified in {secs:6.2}s  FPTAS bracket [{:.6}, {:.6}]",
        b.lower, outcome.bounds.lower, outcome.bounds.upper
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let spot = std::env::args().any(|a| a == "--exact-spot-check");

    let h6 = hypercube(6, 1);
    compare(
        "hypercube64/lm",
        &h6.graph,
        &longest_matching(&h6.graph, &h6.servers, true),
        if quick { 2 } else { 5 },
    );
    compare("hypercube64/a2a", &h6.graph, &all_to_all(&h6.servers), 3);

    let j64 = jellyfish(64, 6, 1, 42);
    compare(
        "jellyfish64x6/a2a",
        &j64.graph,
        &all_to_all(&j64.servers),
        3,
    );
    // The skewed dense shape (Facebook frontend TM-F).
    compare(
        "jellyfish64x6/tmf",
        &j64.graph,
        &tb_traffic::facebook::tm_f(64, 7),
        if quick { 2 } else { 3 },
    );
    // Sources with a few destinations, which route on the aggregated tree as
    // the dense ones do: five each at random (RM(5)), and Kodialam's
    // farthest-first spread of four servers per switch, at unequal distances.
    compare(
        "jellyfish64x6/rm5",
        &j64.graph,
        &random_matching(&j64.servers, 5, 3),
        if quick { 2 } else { 3 },
    );
    compare(
        "jellyfish64x6/kodialam",
        &j64.graph,
        &kodialam(&j64.graph, &vec![4; j64.num_switches()]),
        if quick { 2 } else { 3 },
    );

    // One longest-matching cell per 64-switch family — the shapes the
    // column-generation exact solver reaches in seconds. Opt-in: the LP is
    // orders slower than one FPTAS solve, so the drill is its own flag.
    if spot {
        exact_spot_check(
            "hypercube64/lm",
            &h6.graph,
            &longest_matching(&h6.graph, &h6.servers, true),
        );
        exact_spot_check(
            "jellyfish64x6/lm",
            &j64.graph,
            &longest_matching(&j64.graph, &j64.servers, true),
        );
    }

    if quick {
        return;
    }

    compare(
        "hypercube64/perm",
        &h6.graph,
        &random_permutation(&h6.servers, 3),
        5,
    );
    compare(
        "jellyfish64x6/lm",
        &j64.graph,
        &longest_matching(&j64.graph, &j64.servers, true),
        5,
    );
    compare(
        "jellyfish64x6/perm",
        &j64.graph,
        &random_permutation(&j64.servers, 3),
        5,
    );

    let j256 = jellyfish(256, 8, 1, 42);
    compare(
        "jellyfish256x8/lm",
        &j256.graph,
        &longest_matching(&j256.graph, &j256.servers, true),
        3,
    );
    compare(
        "jellyfish256x8/a2a",
        &j256.graph,
        &all_to_all(&j256.servers),
        2,
    );

    // Long paths: Theorem 1's graph B, a 6-regular random graph on 64
    // endpoints with every edge subdivided in two (256 nodes).
    let b256 = subdivided_expander(64, 3, 2, 42);
    compare(
        "subdivided256/lm",
        &b256.graph,
        &longest_matching(&b256.graph, &b256.servers, true),
        3,
    );
    compare(
        "subdivided256/perm",
        &b256.graph,
        &random_permutation(&b256.servers, 3),
        3,
    );
}

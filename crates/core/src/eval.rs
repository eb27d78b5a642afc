//! Throughput evaluation: absolute throughput, the Theorem-2 lower bound, and
//! relative throughput against same-equipment random graphs.

use crate::spec::TmSpec;
use crate::stats::Stats;
use serde::{Deserialize, Serialize};
use tb_flow::{
    drop_disconnected_demands, ExactLpSolver, FleischerConfig, FleischerSolver, SolveStatus,
    SolverWorkspace, ThroughputBounds, ThroughputCertificate,
};
use tb_topology::jellyfish::same_equipment;
use tb_topology::Topology;
use tb_traffic::TrafficMatrix;

/// Configuration for throughput evaluation.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    /// FPTAS settings used for all but the smallest instances.
    pub solver: FleischerConfig,
    /// Use the exact LP when the switch count is at most this (and the flow
    /// count is modest); 0 disables the exact path entirely.
    pub exact_switch_limit: usize,
    /// Number of same-equipment random graphs to average over for relative
    /// throughput (the paper uses 10; smaller values speed up sweeps).
    pub random_graph_iterations: usize,
    /// Base RNG seed; every randomized step derives from it deterministically.
    pub seed: u64,
    /// Emit optimality certificates for throughput cells (see
    /// [`Evaluated::certificate`]). Capture is
    /// trajectory-neutral — the solved values are bit-identical either way —
    /// but certified cells carry the extra evidence block through the cache
    /// and artifacts, so the flag is part of the cell cache key. Default off:
    /// committed goldens stay byte-identical.
    pub certify: bool,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            solver: FleischerConfig::default(),
            exact_switch_limit: 16,
            random_graph_iterations: 3,
            seed: 1,
            certify: false,
        }
    }
}

impl EvalConfig {
    /// A faster configuration for wide experiment sweeps (looser FPTAS gap,
    /// fewer random-graph iterations).
    pub fn fast() -> Self {
        EvalConfig {
            solver: FleischerConfig::fast(),
            random_graph_iterations: 2,
            ..Default::default()
        }
    }

    /// A configuration matched to the paper's settings (10 random-graph
    /// iterations, tight solver gap). Slow; used for final numbers.
    pub fn paper() -> Self {
        EvalConfig {
            solver: FleischerConfig::precise(),
            random_graph_iterations: 10,
            ..Default::default()
        }
    }
}

/// Computes the throughput of `tm` on `topo` (§II-A): the maximum `t` such
/// that `tm · t` is feasible. Small instances use the exact LP; larger ones
/// the FPTAS with bracketing bounds. The bounds of [`evaluate`] in a fresh
/// workspace.
pub fn evaluate_throughput(
    topo: &Topology,
    tm: &TrafficMatrix,
    cfg: &EvalConfig,
) -> ThroughputBounds {
    evaluate(topo, tm, cfg, &mut SolverWorkspace::new()).bounds
}

/// What [`evaluate`] returns.
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// The bracketing interval (always finite, `0 <= lower <= upper`).
    pub bounds: ThroughputBounds,
    /// Converged, or budget-exhausted with the best bounds so far.
    pub status: SolveStatus,
    /// The optimality certificate (see `tb_flow::certificate`), present iff
    /// [`EvalConfig::certify`]. It describes the full instance.
    pub certificate: Option<ThroughputCertificate>,
}

/// The one place the solver is chosen; `ws` amortizes the FPTAS's scratch
/// allocations across the instances a sweep evaluates. An empty TM (all
/// demands removed, e.g. after heavy fault injection) has zero throughput by
/// definition and stops before the solvers, whose problem construction
/// assumes at least one flow; small instances go to the exact LP, everything
/// else (and, with a `warning:` line on stderr, an LP failure) to the FPTAS
/// under `cfg.solver`. Strict semantics: a disconnected demand is not
/// dropped, it pins the result to zero.
///
/// Certification can never change a reported number: the exact LP derives its
/// certificate from the same optimal basis, and the FPTAS capture is
/// trajectory-neutral.
pub fn evaluate(
    topo: &Topology,
    tm: &TrafficMatrix,
    cfg: &EvalConfig,
    ws: &mut SolverWorkspace,
) -> Evaluated {
    let done = |bounds, status, certificate: Option<ThroughputCertificate>| Evaluated {
        bounds: guard_finite(bounds, topo),
        status,
        certificate: certificate.filter(|_| cfg.certify),
    };
    if tm.num_flows() == 0 {
        return done(
            ThroughputBounds::exact(0.0),
            SolveStatus::Converged,
            Some(ThroughputCertificate::trivial_zero()),
        );
    }
    let small = topo.num_switches() <= cfg.exact_switch_limit && tm.num_flows() <= 64;
    if small {
        match ExactLpSolver::new().solve_certified(&topo.graph, tm) {
            Ok((exact, cert)) => return done(exact, SolveStatus::Converged, Some(cert)),
            // The FPTAS bracket below is still valid, but it is not the exact
            // value this instance's size promises: say so.
            Err(e) => eprintln!(
                "warning: exact LP gave up on {} ({e}); reporting FPTAS bounds instead",
                topo.name
            ),
        }
    }
    let (bounds, stats, cert) =
        FleischerSolver::new(cfg.solver).solve_in(&topo.graph, tm, ws, cfg.certify);
    let status = if stats.converged {
        SolveStatus::Converged
    } else {
        SolveStatus::BudgetExhausted
    };
    done(bounds, status, cert)
}

/// The widest duality gap a *converged* solve under `cfg` may legitimately
/// certify: the configured target gap, or the classical Fleischer guarantee
/// (a `(1-eps)^3` primal/dual ratio, i.e. a relative gap of at most about
/// `3 eps`) when the solver terminated by phase count instead of by reaching
/// the target. `sweep verify` accepts certificates up to this gap; anything
/// wider on a converged cell means the recorded bounds do not support the
/// accuracy the configuration promises.
pub(crate) fn acceptable_certificate_gap(cfg: &EvalConfig) -> f64 {
    (3.0 * cfg.solver.epsilon).max(cfg.solver.target_gap)
}

/// NaN guard at the evaluation boundary: every bound leaving this module must
/// be finite. A NaN here would silently poison relative-throughput ratios,
/// artifact JSON and golden diffs downstream, so fail loudly at the source.
fn guard_finite(b: ThroughputBounds, topo: &Topology) -> ThroughputBounds {
    assert!(
        b.lower.is_finite() && b.upper.is_finite(),
        "non-finite throughput bounds [{}, {}] evaluating {}",
        b.lower,
        b.upper,
        topo.name
    );
    b
}

/// Degradation-aware throughput evaluation: like [`evaluate`] but demands
/// between disconnected switch pairs (typical after fault injection, see
/// `tb_topology::faults`) are dropped rather than pinning the throughput at
/// zero, and the returned [`SolveStatus`] records whether the result is
/// exact/converged or degraded (demands dropped, budget exhausted).
///
/// The bounds always satisfy `lower <= upper` and are finite; an instance
/// whose every demand is disconnected yields a well-defined zero-throughput
/// result, never a panic or NaN.
pub(crate) fn evaluate_throughput_status_with(
    topo: &Topology,
    tm: &TrafficMatrix,
    cfg: &EvalConfig,
    ws: &mut SolverWorkspace,
) -> (ThroughputBounds, SolveStatus) {
    let (kept_tm, dropped) = drop_disconnected_demands(&topo.graph, tm);
    // A TM with no surviving demand is empty: the strict evaluator's exact
    // zero, no solver call.
    let e = evaluate(topo, &kept_tm, cfg, ws);
    // Dropped demands take precedence in the reported status; convergence of
    // the residual solve is still visible in the bounds gap.
    let status = if dropped > 0 {
        SolveStatus::DisconnectedDemandsDropped {
            dropped,
            kept: kept_tm.num_flows(),
        }
    } else {
        e.status
    };
    (e.bounds, status)
}

/// The Theorem-2 lower bound derived from an already-computed all-to-all
/// result: `T_A2A / 2`. Callers that evaluate the A2A TM anyway (Fig. 2, the
/// sweep engine's renderers) pass their result here instead of solving the
/// same instance a second time through [`lower_bound`].
pub fn lower_bound_from(a2a: ThroughputBounds) -> ThroughputBounds {
    ThroughputBounds {
        lower: a2a.lower / 2.0,
        upper: a2a.upper / 2.0,
    }
}

/// The Theorem-2 lower bound on worst-case throughput: `T_A2A / 2`. Any hose
/// model TM is feasible at half the all-to-all throughput. Solves the A2A
/// instance; use [`lower_bound_from`] when an A2A result is already at hand.
pub fn lower_bound(topo: &Topology, cfg: &EvalConfig) -> ThroughputBounds {
    let tm = TmSpec::AllToAll.generate(topo, cfg.seed);
    lower_bound_from(evaluate_throughput(topo, &tm, cfg))
}

/// Result of a relative-throughput evaluation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RelativeThroughput {
    /// Absolute throughput of the topology under test.
    pub absolute: f64,
    /// Throughput of each same-equipment random graph.
    pub random_graph_samples: Vec<f64>,
    /// Statistics of the per-sample ratios (topology / random graph).
    pub relative: Stats,
}

impl RelativeThroughput {
    fn from_solves(absolute: f64, random_graph_samples: Vec<f64>) -> Self {
        let ratios: Vec<f64> = random_graph_samples
            .iter()
            .map(|&r| if r > 0.0 { absolute / r } else { f64::INFINITY })
            .collect();
        RelativeThroughput {
            absolute,
            relative: Stats::from_samples(&ratios),
            random_graph_samples,
        }
    }
}

/// The 1 + k solves behind both relative metrics, as one fan-out so the pool
/// can share all of them between threads: `value_on(graph, seed, ws)` is the
/// throughput on the topology itself (index 0, seed `cfg.seed`) and on each of
/// `cfg.random_graph_iterations` same-equipment random graphs drawn at
/// `cfg.seed + seed_offset + i`.
fn relative_to_random_graphs(
    topo: &Topology,
    cfg: &EvalConfig,
    seed_offset: u64,
    value_on: impl Fn(&Topology, u64, &mut SolverWorkspace) -> f64 + Sync,
) -> RelativeThroughput {
    let iters = cfg.random_graph_iterations.max(1);
    let mut solves = rayon::map_init(0..iters + 1, SolverWorkspace::new, |ws, i| {
        if i == 0 {
            return value_on(topo, cfg.seed, ws);
        }
        let seed = cfg
            .seed
            .wrapping_add(seed_offset)
            .wrapping_add(i as u64 - 1);
        value_on(&same_equipment(topo, seed), seed, ws)
    });
    let absolute = solves.remove(0);
    RelativeThroughput::from_solves(absolute, solves)
}

/// Computes the paper's headline metric (§IV): the topology's throughput
/// divided by the throughput of a random graph built with *exactly the same
/// equipment*, averaged over `cfg.random_graph_iterations` random graphs.
///
/// The TM is re-generated for each graph from `spec` (near-worst-case traffic
/// is worst-case *for that graph*); pass [`TmSpec::AllToAll`] etc. as needed.
pub fn relative_throughput(topo: &Topology, spec: &TmSpec, cfg: &EvalConfig) -> RelativeThroughput {
    relative_to_random_graphs(topo, cfg, 1000, |graph, seed, ws| {
        evaluate(graph, &spec.generate(graph, seed), cfg, ws)
            .bounds
            .value()
    })
}

/// Computes relative throughput for a *fixed* TM (real-world workloads of
/// Figs 13–14): the same matrix is applied to the topology and to every
/// same-equipment random graph.
pub fn relative_throughput_fixed_tm(
    topo: &Topology,
    tm: &TrafficMatrix,
    cfg: &EvalConfig,
) -> RelativeThroughput {
    relative_to_random_graphs(topo, cfg, 2000, |graph, _, ws| {
        evaluate(graph, tm, cfg, ws).bounds.value()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_topology::hypercube::hypercube;
    use tb_topology::jellyfish::jellyfish;

    fn cfg() -> EvalConfig {
        EvalConfig {
            random_graph_iterations: 2,
            ..EvalConfig::default()
        }
    }

    #[test]
    fn a2a_throughput_of_small_hypercube_is_positive() {
        let topo = hypercube(3, 1);
        let tm = TmSpec::AllToAll.generate(&topo, 1);
        let b = evaluate_throughput(&topo, &tm, &cfg());
        assert!(b.lower > 0.0);
        assert!(b.lower <= b.upper + 1e-9);
    }

    #[test]
    fn longest_matching_not_better_than_a2a() {
        let topo = hypercube(4, 1);
        let c = cfg();
        let a2a = evaluate_throughput(&topo, &TmSpec::AllToAll.generate(&topo, 1), &c);
        let lm = evaluate_throughput(&topo, &TmSpec::LongestMatching.generate(&topo, 1), &c);
        assert!(
            lm.lower <= a2a.upper + 0.05,
            "LM {} should not beat A2A {}",
            lm.lower,
            a2a.upper
        );
    }

    #[test]
    fn theorem2_lower_bound_holds_for_longest_matching() {
        let topo = hypercube(4, 1);
        let c = cfg();
        let lb = lower_bound(&topo, &c);
        let lm = evaluate_throughput(&topo, &TmSpec::LongestMatching.generate(&topo, 1), &c);
        // LM throughput must be at least T_A2A / 2 (allowing solver slack).
        assert!(
            lm.upper >= lb.lower * 0.93,
            "LM {} below the Theorem-2 bound {}",
            lm.upper,
            lb.lower
        );
    }

    #[test]
    fn lower_bound_from_matches_lower_bound() {
        let topo = hypercube(3, 1);
        let c = cfg();
        let direct = lower_bound(&topo, &c);
        let a2a = evaluate_throughput(&topo, &TmSpec::AllToAll.generate(&topo, c.seed), &c);
        let derived = lower_bound_from(a2a);
        assert_eq!(direct.lower.to_bits(), derived.lower.to_bits());
        assert_eq!(direct.upper.to_bits(), derived.upper.to_bits());
    }

    #[test]
    fn jellyfish_relative_throughput_is_about_one() {
        let topo = jellyfish(24, 5, 2, 42);
        let r = relative_throughput(&topo, &TmSpec::AllToAll, &cfg());
        assert!(
            (r.relative.mean - 1.0).abs() < 0.25,
            "Jellyfish vs random graph should be ~1, got {}",
            r.relative.mean
        );
    }

    #[test]
    fn status_eval_drops_disconnected_demands() {
        use tb_graph::Graph;
        // Switch 2 carries servers but no links: its demands are unreachable.
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        let topo = Topology::new("lonely", "test", g, vec![1, 1, 1]);
        let tm = TmSpec::AllToAll.generate(&topo, 1);
        let (b, status) =
            evaluate_throughput_status_with(&topo, &tm, &cfg(), &mut SolverWorkspace::new());
        assert!(b.lower > 0.0, "connected pair should still carry traffic");
        assert!(b.lower.is_finite() && b.upper.is_finite());
        match status {
            SolveStatus::DisconnectedDemandsDropped { dropped, kept } => {
                assert_eq!(dropped, 4);
                assert_eq!(kept, 2);
            }
            other => panic!("expected dropped-demands status, got {other:?}"),
        }
    }

    #[test]
    fn status_eval_on_fully_disconnected_tm_is_zero_not_nan() {
        use tb_graph::Graph;
        let g = Graph::new(2);
        let topo = Topology::new("islands", "test", g, vec![1, 1]);
        let tm = TmSpec::AllToAll.generate(&topo, 1);
        let (b, status) =
            evaluate_throughput_status_with(&topo, &tm, &cfg(), &mut SolverWorkspace::new());
        assert_eq!(b.lower, 0.0);
        assert_eq!(b.upper, 0.0);
        assert_eq!(
            status,
            SolveStatus::DisconnectedDemandsDropped {
                dropped: tm.num_flows(),
                kept: 0
            }
        );
        // The strict evaluator also stays finite (zero) on this instance.
        let strict = evaluate_throughput(&topo, &tm, &cfg());
        assert!(strict.lower.is_finite() && strict.upper.is_finite());
    }

    #[test]
    fn empty_tm_evaluates_to_zero_without_panicking() {
        let topo = hypercube(3, 1);
        let tm = TrafficMatrix::empty(topo.num_switches());
        let b = evaluate_throughput(&topo, &tm, &cfg());
        assert_eq!(b.value(), 0.0);
        let (sb, status) =
            evaluate_throughput_status_with(&topo, &tm, &cfg(), &mut SolverWorkspace::new());
        assert_eq!(sb.value(), 0.0);
        assert_eq!(status, SolveStatus::Converged);
    }

    #[test]
    fn status_eval_matches_plain_eval_on_clean_instances() {
        let c = cfg();
        let certifying = EvalConfig { certify: true, ..c };
        // Exact-LP path (small) and FPTAS path (large): the plain, certified
        // and status evaluators are views of one dispatch, so when nothing is
        // degraded all three report the same bits.
        for topo in [hypercube(3, 1), hypercube(5, 1)] {
            let tm = TmSpec::AllToAll.generate(&topo, 1);
            let plain = evaluate_throughput(&topo, &tm, &c);
            let mut ws = SolverWorkspace::new();
            let certified = evaluate(&topo, &tm, &certifying, &mut ws);
            let (b, status) = evaluate_throughput_status_with(&topo, &tm, &c, &mut ws);
            for view in [certified.bounds, b] {
                assert_eq!(plain.lower.to_bits(), view.lower.to_bits());
                assert_eq!(plain.upper.to_bits(), view.upper.to_bits());
            }
            assert_eq!(status, SolveStatus::Converged);
            assert_eq!(certified.status, SolveStatus::Converged);
            let cert = certified.certificate.expect("certificate requested");
            tb_flow::verify_certificate(&topo.graph, &tm, &cert, acceptable_certificate_gap(&c))
                .unwrap_or_else(|e| panic!("{}: certificate failed: {e}", topo.name));
        }
    }

    #[test]
    fn certified_eval_matches_plain_eval_and_meets_the_acceptable_gap() {
        use tb_flow::verify_certificate;
        let c = cfg();
        let certifying = EvalConfig { certify: true, ..c };
        // Exact-LP path (small) and FPTAS path (large): certification must be
        // trajectory-neutral — bit-identical bounds — and the certificate must
        // independently re-verify at the gap `sweep verify` enforces. Without
        // `certify` neither path hands one out.
        for topo in [hypercube(3, 1), hypercube(5, 1)] {
            let tm = TmSpec::AllToAll.generate(&topo, 1);
            let mut ws = SolverWorkspace::new();
            let plain = evaluate(&topo, &tm, &c, &mut ws);
            assert!(plain.certificate.is_none());
            let e = evaluate(&topo, &tm, &certifying, &mut ws);
            assert_eq!(plain.bounds.lower.to_bits(), e.bounds.lower.to_bits());
            assert_eq!(plain.bounds.upper.to_bits(), e.bounds.upper.to_bits());
            assert_eq!(e.status, SolveStatus::Converged);
            let cert = e.certificate.expect("certificate requested");
            verify_certificate(&topo.graph, &tm, &cert, acceptable_certificate_gap(&c))
                .unwrap_or_else(|e| panic!("{}: certificate failed: {e}", topo.name));
        }
    }

    #[test]
    fn relative_throughput_fixed_tm_runs() {
        let topo = hypercube(4, 1);
        let tm = TmSpec::AllToAll.generate(&topo, 1);
        let r = relative_throughput_fixed_tm(&topo, &tm, &cfg());
        assert!(r.relative.mean > 0.0);
        assert_eq!(r.random_graph_samples.len(), 2);
    }
}

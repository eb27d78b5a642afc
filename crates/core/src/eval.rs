//! Throughput evaluation: absolute throughput, the Theorem-2 lower bound, and
//! relative throughput against same-equipment random graphs.

use crate::spec::TmSpec;
use crate::stats::Stats;
use serde::{Deserialize, Serialize};
use tb_flow::{
    drop_disconnected_demands, ExactLpSolver, FleischerConfig, FleischerSolver, SolveStatus,
    ThroughputBounds, ThroughputCertificate,
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
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            solver: FleischerConfig::default(),
            exact_switch_limit: 16,
            random_graph_iterations: 3,
            seed: 1,
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

/// What [`evaluate`] returns.
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// The bracketing interval (always finite, `0 <= lower <= upper`).
    pub bounds: ThroughputBounds,
    /// Converged, or budget-exhausted with the best bounds so far.
    pub status: SolveStatus,
    /// With certificate capture on, the verdict on the solve's own
    /// certificate; `None` with capture off.
    pub certification: Option<Certification>,
}

/// The verdict on the optimality certificate of one solve (see
/// `tb_flow::certificate`).
#[derive(Debug, Clone, PartialEq)]
pub enum Certification {
    /// The certificate verified at the gap the configuration promises, and
    /// it proves exactly the solve's bounds.
    Certified,
    /// The solve exhausted its budget: its bounds are valid but meet no
    /// accuracy contract, so there is nothing to certify.
    Unverifiable,
    /// The certificate failed to verify, or proves other bounds.
    Bad(String),
}

/// Computes the throughput of `tm` on `topo` (§II-A): the maximum `t` such
/// that `tm · t` is feasible, as bracketing bounds, with the solve's status.
///
/// The one place the solver is chosen. An empty TM (all demands removed,
/// e.g. after heavy fault injection) has zero throughput by definition and
/// stops before the solvers, whose problem construction assumes at least one
/// flow; small instances go to the exact LP, everything
/// else (and, with a `warning:` line on stderr, an LP failure) to the FPTAS
/// under `cfg.solver`. Strict semantics: a disconnected demand is not
/// dropped, it pins the result to zero.
pub fn evaluate(topo: &Topology, tm: &TrafficMatrix, cfg: &EvalConfig) -> Evaluated {
    solve(topo, tm, cfg, false)
}

/// [`evaluate`], and with `capture` set (`sweep verify` re-runs a cell's
/// units so) the verdict on the solve's own certificate ([`certify`]).
/// Capture can never change a reported number: the exact LP derives its
/// certificate from the same optimal basis, and the FPTAS capture is
/// trajectory-neutral.
pub(crate) fn solve(
    topo: &Topology,
    tm: &TrafficMatrix,
    cfg: &EvalConfig,
    capture: bool,
) -> Evaluated {
    let done = |bounds, status, cert: Option<ThroughputCertificate>| {
        let bounds = guard_finite(bounds, topo);
        let certification =
            (cert.filter(|_| capture)).map(|cert| certify(topo, tm, cfg, bounds, status, &cert));
        Evaluated {
            bounds,
            status,
            certification,
        }
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
    let (bounds, stats, cert) = FleischerSolver::new(cfg.solver).solve_in(&topo.graph, tm, capture);
    let status = if stats.converged {
        SolveStatus::Converged
    } else {
        SolveStatus::BudgetExhausted
    };
    done(bounds, status, cert)
}

/// Relative slack when tying a certificate's `lower`/`upper` claims to the
/// solve's bounds. The two are computed by arithmetically equivalent but
/// differently-ordered expressions (e.g. `min(r_j mu / d_j)` vs
/// `mu min(r_j / d_j)`), so they agree to a few ulps, not always exactly.
const CLAIM_TIE_TOL: f64 = 1e-9;

/// The verdict on `cert`, the certificate of the solve of `tm` on `topo`
/// that reported `bounds` with `status`. Budget-exhausted bounds meet no
/// accuracy contract: unverifiable, never certified. Otherwise
/// [`tb_flow::verify_certificate`] re-derives primal feasibility and the
/// dual bound from the instance at [`acceptable_certificate_gap`], and the
/// certificate's `lower`/`upper` must be the solve's bounds (to
/// [`CLAIM_TIE_TOL`]): evidence that proves a *different* value certifies
/// nothing.
fn certify(
    topo: &Topology,
    tm: &TrafficMatrix,
    cfg: &EvalConfig,
    bounds: ThroughputBounds,
    status: SolveStatus,
    cert: &ThroughputCertificate,
) -> Certification {
    if status == SolveStatus::BudgetExhausted {
        return Certification::Unverifiable;
    }
    let eps = acceptable_certificate_gap(cfg);
    if let Err(e) = tb_flow::verify_certificate(&topo.graph, tm, cert, eps) {
        return Certification::Bad(e.to_string());
    }
    let tied =
        |claim: f64, bound: f64| (claim - bound).abs() <= CLAIM_TIE_TOL * (1.0 + bound.abs());
    if tied(cert.lower, bounds.lower) && tied(cert.upper, bounds.upper) {
        return Certification::Certified;
    }
    Certification::Bad(format!(
        "certificate [{:?}, {:?}] does not back the solve's [{:?}, {:?}]",
        cert.lower, cert.upper, bounds.lower, bounds.upper
    ))
}

/// The widest duality gap a *converged* solve under `cfg` may legitimately
/// certify: the configured target gap, or the classical Fleischer guarantee
/// (a `(1-eps)^3` primal/dual ratio, i.e. a relative gap of at most about
/// `3 eps`) when the solver terminated by phase count instead of by reaching
/// the target. `sweep verify` accepts certificates up to this gap; anything
/// wider on a converged cell means the recorded bounds do not support the
/// accuracy the configuration promises.
fn acceptable_certificate_gap(cfg: &EvalConfig) -> f64 {
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
/// result, never a panic or NaN. With `capture` set, the certificate checked
/// is that of the kept demands, the instance actually solved.
pub(crate) fn evaluate_throughput_status_with(
    topo: &Topology,
    tm: &TrafficMatrix,
    cfg: &EvalConfig,
    capture: bool,
) -> Evaluated {
    let (kept_tm, dropped) = drop_disconnected_demands(&topo.graph, tm);
    // A TM with no surviving demand is empty: the strict evaluator's exact
    // zero, no solver call.
    let e = solve(topo, &kept_tm, cfg, capture);
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
    Evaluated { status, ..e }
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
    lower_bound_from(evaluate(topo, &tm, cfg).bounds)
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
    /// Combines a relative metric's [`relative_solves`] in index order: the
    /// topology's own throughput first, then each random graph's.
    pub(crate) fn from_solves(mut solves: Vec<f64>) -> Self {
        let absolute = solves.remove(0);
        let ratios: Vec<f64> = solves
            .iter()
            .map(|&r| if r > 0.0 { absolute / r } else { f64::INFINITY })
            .collect();
        RelativeThroughput {
            absolute,
            relative: Stats::from_samples(&ratios),
            random_graph_samples: solves,
        }
    }
}

/// The traffic behind a relative metric's solves.
#[derive(Debug, Clone)]
pub(crate) enum RelativeTm {
    /// Re-generated from the spec for each graph, at that graph's seed
    /// ([`relative_throughput`]).
    PerGraph(TmSpec),
    /// One matrix for every graph (a Facebook cell's placed matrix).
    Fixed(TrafficMatrix),
}

/// How many solves a relative metric takes under `cfg`: the topology's own
/// and one per same-equipment random graph.
pub(crate) fn relative_solves(cfg: &EvalConfig) -> usize {
    cfg.random_graph_iterations.max(1) + 1
}

/// Solve `i` of a relative metric's [`relative_solves`]: the throughput on
/// the topology itself (`i = 0`, seed `cfg.seed`) or on the same-equipment
/// random graph drawn at `cfg.seed + offset + i - 1`, where the offset is
/// 1000 for per-graph traffic and 2000 for a fixed matrix. The solves are
/// independent, so the sweep engine queues each as a unit of its own.
pub(crate) fn relative_solve(
    topo: &Topology,
    tm: &RelativeTm,
    cfg: &EvalConfig,
    i: usize,
    capture: bool,
) -> Evaluated {
    let solve_on = |graph: &Topology, seed: u64| match tm {
        RelativeTm::PerGraph(spec) => solve(graph, &spec.generate(graph, seed), cfg, capture),
        RelativeTm::Fixed(tm) => solve(graph, tm, cfg, capture),
    };
    if i == 0 {
        return solve_on(topo, cfg.seed);
    }
    let offset = match tm {
        RelativeTm::PerGraph(_) => 1000,
        RelativeTm::Fixed(_) => 2000,
    };
    let seed = cfg.seed.wrapping_add(offset).wrapping_add(i as u64 - 1);
    solve_on(&same_equipment(topo, seed), seed)
}

/// Computes the paper's headline metric (§IV): the topology's throughput
/// divided by the throughput of a random graph built with *exactly the same
/// equipment*, averaged over `cfg.random_graph_iterations` random graphs.
///
/// The TM is re-generated for each graph from `spec` (near-worst-case traffic
/// is worst-case *for that graph*); pass [`TmSpec::AllToAll`] etc. as needed.
pub fn relative_throughput(topo: &Topology, spec: &TmSpec, cfg: &EvalConfig) -> RelativeThroughput {
    let tm = RelativeTm::PerGraph(spec.clone());
    let solves = (0..relative_solves(cfg))
        .map(|i| relative_solve(topo, &tm, cfg, i, false).bounds.value())
        .collect();
    RelativeThroughput::from_solves(solves)
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
        let b = evaluate(&topo, &tm, &cfg()).bounds;
        assert!(b.lower > 0.0);
        assert!(b.lower <= b.upper + 1e-9);
    }

    #[test]
    fn longest_matching_not_better_than_a2a() {
        let topo = hypercube(4, 1);
        let c = cfg();
        let a2a = evaluate(&topo, &TmSpec::AllToAll.generate(&topo, 1), &c).bounds;
        let lm = evaluate(&topo, &TmSpec::LongestMatching.generate(&topo, 1), &c).bounds;
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
        let lm = evaluate(&topo, &TmSpec::LongestMatching.generate(&topo, 1), &c).bounds;
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
        let a2a = evaluate(&topo, &TmSpec::AllToAll.generate(&topo, c.seed), &c).bounds;
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
        let Evaluated {
            bounds: b, status, ..
        } = evaluate_throughput_status_with(&topo, &tm, &cfg(), false);
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
        let Evaluated {
            bounds: b, status, ..
        } = evaluate_throughput_status_with(&topo, &tm, &cfg(), false);
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
        let strict = evaluate(&topo, &tm, &cfg()).bounds;
        assert!(strict.lower.is_finite() && strict.upper.is_finite());
    }

    #[test]
    fn empty_tm_evaluates_to_zero_without_panicking() {
        let topo = hypercube(3, 1);
        let tm = TrafficMatrix::empty(topo.num_switches());
        let b = evaluate(&topo, &tm, &cfg()).bounds;
        assert_eq!(b.value(), 0.0);
        let Evaluated {
            bounds: sb, status, ..
        } = evaluate_throughput_status_with(&topo, &tm, &cfg(), false);
        assert_eq!(sb.value(), 0.0);
        assert_eq!(status, SolveStatus::Converged);
    }

    #[test]
    fn status_eval_matches_plain_eval_on_clean_instances() {
        let c = cfg();
        // Exact-LP path (small) and FPTAS path (large): the plain and status
        // evaluators are views of one dispatch, so when nothing is degraded
        // both report the same bits.
        for topo in [hypercube(3, 1), hypercube(5, 1)] {
            let tm = TmSpec::AllToAll.generate(&topo, 1);
            let plain = evaluate(&topo, &tm, &c);
            let Evaluated {
                bounds: b, status, ..
            } = evaluate_throughput_status_with(&topo, &tm, &c, false);
            assert_eq!(plain.bounds.lower.to_bits(), b.lower.to_bits());
            assert_eq!(plain.bounds.upper.to_bits(), b.upper.to_bits());
            assert_eq!(
                (status, plain.status),
                (SolveStatus::Converged, SolveStatus::Converged)
            );
        }
    }

    #[test]
    fn certified_eval_matches_plain_eval_and_meets_the_acceptable_gap() {
        let c = cfg();
        // Exact-LP path (small) and FPTAS path (large): capture must be
        // trajectory-neutral — bit-identical bounds — and the certificate must
        // independently re-verify at the gap `sweep verify` enforces. Without
        // `capture` there is no verdict.
        for topo in [hypercube(3, 1), hypercube(5, 1)] {
            let tm = TmSpec::AllToAll.generate(&topo, 1);
            let plain = solve(&topo, &tm, &c, false);
            assert_eq!(plain.certification, None);
            let e = solve(&topo, &tm, &c, true);
            assert_eq!(plain.bounds.lower.to_bits(), e.bounds.lower.to_bits());
            assert_eq!(plain.bounds.upper.to_bits(), e.bounds.upper.to_bits());
            assert_eq!(e.status, SolveStatus::Converged);
            assert_eq!(
                e.certification,
                Some(Certification::Certified),
                "{}",
                topo.name
            );
        }
    }

    /// A certificate that does not verify, or that proves other bounds than
    /// the solve's, is bad; a budget-exhausted solve is unverifiable.
    #[test]
    fn certify_rejects_tampered_evidence_and_unbacked_bounds() {
        let c = cfg();
        let topo = hypercube(3, 1);
        let tm = TmSpec::AllToAll.generate(&topo, 1);
        let (bounds, cert) = ExactLpSolver::new()
            .solve_certified(&topo.graph, &tm)
            .unwrap();
        let verdict = |bounds, status, cert: &ThroughputCertificate| {
            certify(&topo, &tm, &c, bounds, status, cert)
        };
        assert_eq!(
            verdict(bounds, SolveStatus::Converged, &cert),
            Certification::Certified
        );
        let mut tampered = cert.clone();
        tampered.lower *= 1.5;
        let Certification::Bad(why) = verdict(bounds, SolveStatus::Converged, &tampered) else {
            panic!("a claim its evidence does not derive must be bad");
        };
        assert!(why.contains("lower"), "{why}");
        let other = ThroughputBounds::exact(bounds.lower * 0.5);
        let Certification::Bad(why) = verdict(other, SolveStatus::Converged, &cert) else {
            panic!("a certificate of other bounds must be bad");
        };
        assert!(why.contains("does not back"), "{why}");
        assert_eq!(
            verdict(bounds, SolveStatus::BudgetExhausted, &cert),
            Certification::Unverifiable
        );
    }
}

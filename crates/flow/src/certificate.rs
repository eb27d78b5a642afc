//! Optimality certificates for throughput solves.
//!
//! A [`ThroughputCertificate`] is a compact, self-contained record of *why*
//! a solve's bracketing bounds are correct: the rescaled feasible flow behind
//! the lower bound (per-arc aggregate + per-commodity delivered amounts; the
//! FPTAS stores the mix of its flow blocks that set its best bound, with the
//! amount every commodity is served at least) and
//! the dual length function behind the upper bound (`upper = D(l)/alpha(l)`,
//! valid for **any** non-negative lengths by LP duality; the FPTAS stores the
//! lengths of the evaluation that set its best bound, or the window average
//! of its normalised iterates when that did). Everything needed
//! to re-check the claim is stored in the certificate itself, so
//! [`verify_certificate`] re-derives both sides from scratch — shortest
//! paths under the stored lengths, capacity and conservation residuals of
//! the stored flow — and never trusts solver state.
//!
//! ## Canonical derivation and bit-exact re-checking
//!
//! The certificate's scalar claims (`d_l`, `lower`, `upper`) are *derived*
//! values: at emission time they are computed by the same canonical,
//! fully-sequential routines (`derive_claims`) the verifier runs, **from
//! the certificate's own stored vectors**, never copied out of the solver's
//! incremental state. Because both sides run identical IEEE-754 arithmetic
//! on identical inputs, the verifier compares the scalars *bit for bit*: a
//! single flipped bit in any stored value either changes a recomputed scalar
//! (vectors feed the derivation) or mismatches its re-derivation (the
//! scalars are recomputed), and the certificate is rejected.
//!
//! ## What is and is not proven
//!
//! * The **upper bound is sound**: `t* <= D(l)/alpha(l)` holds for any
//!   non-negative length function, so a verified upper bound is a true bound
//!   regardless of how the solver behaved.
//! * The **lower bound is checked as a flow summary**: capacity feasibility
//!   and per-node aggregate conservation residuals are necessary conditions,
//!   but an aggregate multicommodity flow need not decompose per commodity,
//!   so the primal check alone is not a full feasibility proof. The sound
//!   anchor is the bracket: `lower <= upper` with a verified `upper`, plus
//!   the duality-gap check `upper - lower <= eps * upper`.

use crate::instance::FlowProblem;
use std::fmt;
use tb_graph::Graph;
use tb_traffic::TrafficMatrix;

/// Relative slack for the inequality checks (capacity, bracket order): the
/// emission-side rescaling `mu = min cap/f` guarantees feasibility up to one
/// rounding step, so anything past a few ulps is a real violation.
const REL_TOL: f64 = 1e-9;

/// Relative slack of the per-node conservation-residual check. The aggregate
/// flow is a sum over up to millions of path deposits; accumulated rounding
/// stays far below this, while a corrupted arc value lands far above it.
const RESIDUAL_TOL: f64 = 1e-7;

/// A compact optimality certificate for one throughput solve.
///
/// All flow quantities are in *original demand units* (the solver's internal
/// demand pre-scaling cancels out before emission). Vector layouts follow
/// the [`FlowProblem`] built from the same `(graph, tm)` pair: `flow` and
/// `lengths` are indexed by arc id, `served` is source-major in
/// [`FlowProblem::sources`] order (one entry per `(source, destination)`
/// demand).
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputCertificate {
    /// Node count of the problem the certificate describes.
    pub num_nodes: usize,
    /// Arc count (directed) of the problem the certificate describes.
    pub num_arcs: usize,
    /// Per-arc aggregate flow of the rescaled feasible solution behind the
    /// lower bound (`flow[a] <= cap[a]` up to rounding).
    pub flow: Vec<f64>,
    /// Per-commodity delivered amounts of that solution, source-major.
    /// `min_j served[j] / demand[j]` is exactly the certified lower bound.
    pub served: Vec<f64>,
    /// The dual length function behind the upper bound (non-negative,
    /// finite). Any such function yields a valid bound; this one is the
    /// function at which the solver's best upper bound was achieved — an
    /// iterate of its trajectory, or an average of normalised iterates.
    pub lengths: Vec<f64>,
    /// `D(l) = sum_a cap[a] * lengths[a]`, canonically derived.
    pub d_l: f64,
    /// The certified feasible value, canonically derived from `served`.
    pub lower: f64,
    /// The certified dual bound `D(l)/alpha(l)`, canonically derived from
    /// `lengths` (equal to `lower` when `alpha(l) = 0`, i.e. no commodity
    /// needs any capacity).
    pub upper: f64,
}

impl ThroughputCertificate {
    /// The certificate of a trivially-zero solve with no commodities (empty
    /// or fully-disconnected traffic matrix): nothing flows, nothing is
    /// claimed beyond `lower = upper = 0`.
    pub fn trivial_zero() -> Self {
        ThroughputCertificate {
            num_nodes: 0,
            num_arcs: 0,
            flow: Vec::new(),
            served: Vec::new(),
            lengths: Vec::new(),
            d_l: 0.0,
            lower: 0.0,
            upper: 0.0,
        }
    }

    /// Builds a certificate from raw evidence, deriving the scalar claims
    /// canonically (see the module docs). `flow`, `served` and `lengths`
    /// must follow `prob`'s layouts.
    pub fn build(prob: &FlowProblem, flow: Vec<f64>, served: Vec<f64>, lengths: Vec<f64>) -> Self {
        let claims = derive_claims(prob, &served, &lengths);
        ThroughputCertificate {
            num_nodes: prob.num_nodes(),
            num_arcs: prob.num_arcs(),
            flow,
            served,
            lengths,
            d_l: claims.d_l,
            lower: claims.lower,
            upper: claims.upper,
        }
    }

    /// The relative duality gap of the certified bracket (0 for exact).
    pub fn gap(&self) -> f64 {
        if self.upper <= 0.0 {
            0.0
        } else {
            (self.upper - self.lower) / self.upper
        }
    }
}

/// The canonically-derived scalar claims of a certificate.
pub(crate) struct DerivedClaims {
    pub d_l: f64,
    pub lower: f64,
    pub upper: f64,
}

/// Derives the scalar claims from certificate vectors, sequentially and in a
/// fixed order so emission and verification agree bit for bit:
///
/// * `d_l` — arc-order sum of `cap * length`;
/// * `lower` — minimum over commodities (source-major order) of
///   `served / demand`, zero-demand commodities skipped, `0` when nothing
///   was served or no commodity has positive demand;
/// * `upper` — `d_l / alpha` with `alpha` the demand-weighted sum of
///   single-source shortest-path distances under `lengths` (source order,
///   destination order within a source; Dijkstra is run per source by the
///   shared `tb_graph` kernel). A disconnected pair makes `alpha` infinite
///   and the bound `0`; `alpha = 0` (only self-demands, or none) makes the
///   dual bound vacuous and `upper` falls back to `lower`, mirroring the
///   solver's convention for an unbounded dual.
pub(crate) fn derive_claims(prob: &FlowProblem, served: &[f64], lengths: &[f64]) -> DerivedClaims {
    let mut d_l = 0.0f64;
    for (arc, &len) in prob.arcs().iter().zip(lengths) {
        d_l += arc.cap * len;
    }

    let mut sigma_min = f64::INFINITY;
    let mut j = 0usize;
    for s in prob.sources() {
        for &(_, demand) in &s.dests {
            if demand > 0.0 {
                let sigma = served.get(j).copied().unwrap_or(0.0) / demand;
                if sigma < sigma_min {
                    sigma_min = sigma;
                }
            }
            j += 1;
        }
    }
    let lower = if sigma_min.is_finite() {
        sigma_min
    } else {
        0.0
    };

    let mut alpha = 0.0f64;
    for s in prob.sources() {
        let (dist, _) = prob.shortest_path_tree(s.src, lengths);
        for &(dst, demand) in &s.dests {
            alpha += demand * dist[dst];
        }
    }
    let dual = d_l / alpha;
    let upper = if dual.is_finite() { dual } else { lower };
    DerivedClaims { d_l, lower, upper }
}

/// Why a certificate was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum CertificateError {
    /// A stored dimension or vector length does not match the problem.
    DimensionMismatch(String),
    /// A stored value is non-finite or negative where it must not be.
    InvalidValue(String),
    /// The stored flow exceeds some arc capacity beyond rounding slack.
    CapacityViolated {
        /// Offending arc id.
        arc: usize,
        /// Stored aggregate flow on the arc.
        flow: f64,
        /// The arc's capacity.
        cap: f64,
    },
    /// The per-node aggregate conservation residual is too large.
    ConservationViolated {
        /// Offending node id.
        node: usize,
        /// Net outflow minus expected net supply at the node.
        residual: f64,
    },
    /// A stored scalar claim does not match its canonical re-derivation.
    ClaimMismatch {
        /// Which claim (`d_l`, `lower` or `upper`).
        claim: &'static str,
        /// The stored value.
        stored: f64,
        /// The independently re-derived value.
        derived: f64,
    },
    /// The bracket is out of order (`lower > upper` beyond rounding).
    BracketInverted {
        /// Stored lower bound.
        lower: f64,
        /// Stored upper bound.
        upper: f64,
    },
    /// The certified duality gap exceeds the acceptable `eps`.
    GapTooWide {
        /// The certificate's relative gap.
        gap: f64,
        /// The acceptable gap passed by the caller.
        eps: f64,
    },
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::DimensionMismatch(what) => {
                write!(f, "dimension mismatch: {what}")
            }
            CertificateError::InvalidValue(what) => write!(f, "invalid value: {what}"),
            CertificateError::CapacityViolated { arc, flow, cap } => {
                write!(f, "arc {arc}: flow {flow} exceeds capacity {cap}")
            }
            CertificateError::ConservationViolated { node, residual } => {
                write!(f, "node {node}: conservation residual {residual}")
            }
            CertificateError::ClaimMismatch {
                claim,
                stored,
                derived,
            } => write!(
                f,
                "claim '{claim}' stored as {stored} but re-derives to {derived}"
            ),
            CertificateError::BracketInverted { lower, upper } => {
                write!(f, "bracket inverted: lower {lower} > upper {upper}")
            }
            CertificateError::GapTooWide { gap, eps } => {
                write!(f, "duality gap {gap} exceeds acceptable eps {eps}")
            }
        }
    }
}

impl std::error::Error for CertificateError {}

/// Independently verifies `cert` against the instance `(graph, tm)`:
/// re-derives primal feasibility (capacity + per-node conservation
/// residuals of the stored flow) and the dual bound (shortest paths under
/// the stored lengths), compares every scalar claim bit-for-bit against its
/// canonical re-derivation, and checks the duality gap against `eps`
/// (pass `f64::INFINITY` to accept any gap — e.g. for budget-exhausted
/// solves whose bounds are valid but wide).
///
/// Nothing from the solver is trusted: the only inputs are the instance and
/// the certificate itself.
pub fn verify_certificate(
    graph: &Graph,
    tm: &TrafficMatrix,
    cert: &ThroughputCertificate,
    eps: f64,
) -> Result<(), CertificateError> {
    for (what, xs) in [
        ("flow", &cert.flow),
        ("served", &cert.served),
        ("lengths", &cert.lengths),
    ] {
        if let Some(i) = xs.iter().position(|x| !x.is_finite() || *x < 0.0) {
            return Err(CertificateError::InvalidValue(format!(
                "{what}[{i}] = {}",
                xs[i]
            )));
        }
    }
    for (what, x) in [
        ("d_l", cert.d_l),
        ("lower", cert.lower),
        ("upper", cert.upper),
    ] {
        if !x.is_finite() || x < 0.0 {
            return Err(CertificateError::InvalidValue(format!("{what} = {x}")));
        }
    }

    if tm.num_flows() == 0 {
        // A trivially-zero solve: nothing may flow and nothing may be
        // claimed.
        if !cert.served.is_empty() {
            return Err(CertificateError::DimensionMismatch(format!(
                "served has {} entries for an empty traffic matrix",
                cert.served.len()
            )));
        }
        if cert.flow.iter().any(|&x| x != 0.0) {
            return Err(CertificateError::InvalidValue(
                "nonzero flow for an empty traffic matrix".into(),
            ));
        }
        if cert.lower != 0.0 || cert.upper != 0.0 {
            return Err(CertificateError::ClaimMismatch {
                claim: "lower",
                stored: cert.lower.max(cert.upper),
                derived: 0.0,
            });
        }
        return Ok(());
    }

    let prob = FlowProblem::new(graph, tm);
    let n = prob.num_nodes();
    let m = prob.num_arcs();
    let commodities: usize = prob.sources().iter().map(|s| s.dests.len()).sum();
    if cert.num_nodes != n || cert.num_arcs != m {
        return Err(CertificateError::DimensionMismatch(format!(
            "certificate is for {}x{} (nodes x arcs), instance is {n}x{m}",
            cert.num_nodes, cert.num_arcs
        )));
    }
    if cert.flow.len() != m || cert.lengths.len() != m {
        return Err(CertificateError::DimensionMismatch(format!(
            "flow/lengths have {}/{} entries for {m} arcs",
            cert.flow.len(),
            cert.lengths.len()
        )));
    }
    if cert.served.len() != commodities {
        return Err(CertificateError::DimensionMismatch(format!(
            "served has {} entries for {commodities} commodities",
            cert.served.len()
        )));
    }

    // Primal side: capacity, then per-node aggregate conservation. The
    // expected net supply at a node is what the served amounts say leaves
    // minus what arrives; the stored flow must balance against it up to
    // accumulated rounding.
    for (a, (arc, &f)) in prob.arcs().iter().zip(&cert.flow).enumerate() {
        if f > arc.cap * (1.0 + REL_TOL) + 1e-12 {
            return Err(CertificateError::CapacityViolated {
                arc: a,
                flow: f,
                cap: arc.cap,
            });
        }
    }
    let mut net = vec![0.0f64; n];
    let mut gross = vec![0.0f64; n];
    for (arc, &f) in prob.arcs().iter().zip(&cert.flow) {
        net[arc.from] += f;
        net[arc.to] -= f;
        gross[arc.from] += f;
        gross[arc.to] += f;
    }
    let mut j = 0usize;
    for s in prob.sources() {
        for &(dst, _) in &s.dests {
            let served = cert.served[j];
            net[s.src] -= served;
            net[dst] += served;
            gross[s.src] += served;
            gross[dst] += served;
            j += 1;
        }
    }
    for (v, (&residual, &g)) in net.iter().zip(&gross).enumerate() {
        if residual.abs() > RESIDUAL_TOL * (g + 1.0) {
            return Err(CertificateError::ConservationViolated { node: v, residual });
        }
    }

    // Dual side + scalar claims: canonical re-derivation, compared bit for
    // bit (emission ran the exact same routine on the exact same inputs).
    let claims = derive_claims(&prob, &cert.served, &cert.lengths);
    for (claim, stored, derived) in [
        ("d_l", cert.d_l, claims.d_l),
        ("lower", cert.lower, claims.lower),
        ("upper", cert.upper, claims.upper),
    ] {
        if stored.to_bits() != derived.to_bits() {
            return Err(CertificateError::ClaimMismatch {
                claim,
                stored,
                derived,
            });
        }
    }

    if cert.lower > cert.upper * (1.0 + REL_TOL) + 1e-12 {
        return Err(CertificateError::BracketInverted {
            lower: cert.lower,
            upper: cert.upper,
        });
    }
    let gap = cert.gap();
    if gap > eps + REL_TOL {
        return Err(CertificateError::GapTooWide { gap, eps });
    }
    Ok(())
}

/// Snapshot capture used by the solver's phase loop: copies of the length
/// function behind the best upper bound (the lengths at that evaluation, or
/// the window average of the normalised lengths) and of the flow behind the
/// best lower bound (a mix of the flow blocks). Copies are trajectory-neutral
/// (no arithmetic feeds back into solver state), so enabling capture cannot
/// change any solved number.
#[derive(Debug, Default)]
pub(crate) struct CertCapture {
    /// The length function that achieved the best upper bound.
    pub lens: Vec<f64>,
    /// The per-arc flow behind the best lower bound, before its rescale.
    pub flow: Vec<f64>,
    /// Per-commodity amounts that flow serves at least, source-major.
    pub served: Vec<f64>,
    /// The capacity-rescale factor `mu` of that flow.
    pub mu: f64,
}

impl CertCapture {
    /// Records the lengths behind a new best upper bound.
    pub fn observe_dual(&mut self, lens: &[f64]) {
        self.lens.clear();
        self.lens.extend_from_slice(lens);
    }

    /// Records the flow behind a new best lower bound: the per-arc `flow`,
    /// which serves every commodity at least `ratio` times its (scaled)
    /// demand in `demands`, and its rescale factor `mu`.
    pub fn observe_primal(&mut self, flow: &[f64], demands: &[Vec<f64>], ratio: f64, mu: f64) {
        self.flow.clear();
        self.flow.extend_from_slice(flow);
        self.served.clear();
        self.served
            .extend(demands.iter().flatten().map(|d| ratio * d));
        self.mu = mu;
    }

    /// Assembles the final certificate: converts the snapshots to original
    /// demand units (the rescale `mu` makes the flow capacity-feasible; the
    /// demand pre-scale cancels because served amounts are absolute) and
    /// derives the canonical claims. Defaults cover solves that never
    /// captured (zero flow, unit lengths).
    pub fn into_certificate(self, prob: &FlowProblem) -> ThroughputCertificate {
        let m = prob.num_arcs();
        let commodities: usize = prob.sources().iter().map(|s| s.dests.len()).sum();
        let mu = if self.mu.is_finite() && self.mu > 0.0 {
            self.mu
        } else {
            1.0
        };
        let flow = if self.flow.is_empty() {
            vec![0.0; m]
        } else {
            self.flow.iter().map(|f| f * mu).collect()
        };
        let served = if self.served.is_empty() {
            vec![0.0; commodities]
        } else {
            self.served.iter().map(|x| x * mu).collect()
        };
        let lengths = if self.lens.is_empty() {
            vec![1.0; m]
        } else {
            self.lens
        };
        ThroughputCertificate::build(prob, flow, served, lengths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_traffic::Demand;

    fn demand(src: usize, dst: usize, amount: f64) -> Demand {
        Demand { src, dst, amount }
    }

    fn path3() -> (Graph, TrafficMatrix) {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let tm = TrafficMatrix::new(3, vec![demand(0, 2, 1.0), demand(1, 2, 1.0)]);
        (g, tm)
    }

    /// A hand-built valid certificate for the shared-bottleneck path: each
    /// demand served at 0.5, flow 0.5 on 0->1 and 1.0 on 1->2, unit lengths.
    fn hand_cert(g: &Graph, tm: &TrafficMatrix) -> ThroughputCertificate {
        let prob = FlowProblem::new(g, tm);
        let mut flow = vec![0.0; prob.num_arcs()];
        for (a, arc) in prob.arcs().iter().enumerate() {
            if arc.from == 0 && arc.to == 1 {
                flow[a] = 0.5;
            }
            if arc.from == 1 && arc.to == 2 {
                flow[a] = 1.0;
            }
        }
        let served = vec![0.5, 0.5];
        let lengths = vec![1.0; prob.num_arcs()];
        ThroughputCertificate::build(&prob, flow, served, lengths)
    }

    #[test]
    fn hand_built_certificate_verifies() {
        let (g, tm) = path3();
        let cert = hand_cert(&g, &tm);
        // D = 4 (unit caps, unit lengths, 4 arcs), alpha = 1*2 + 1*1 = 3,
        // so the unit-length dual bound is 4/3 and the bracket is [0.5, 4/3].
        assert_eq!(cert.lower, 0.5);
        assert!((cert.upper - 4.0 / 3.0).abs() < 1e-12, "{}", cert.upper);
        verify_certificate(&g, &tm, &cert, f64::INFINITY).unwrap();
        // The wide unit-length gap fails a tight eps.
        assert!(matches!(
            verify_certificate(&g, &tm, &cert, 0.01),
            Err(CertificateError::GapTooWide { .. })
        ));
    }

    #[test]
    fn tampered_scalar_is_rejected() {
        let (g, tm) = path3();
        let mut cert = hand_cert(&g, &tm);
        cert.lower = f64::from_bits(cert.lower.to_bits() ^ 1);
        assert!(matches!(
            verify_certificate(&g, &tm, &cert, f64::INFINITY),
            Err(CertificateError::ClaimMismatch { claim: "lower", .. })
        ));
    }

    #[test]
    fn tampered_length_is_rejected() {
        let (g, tm) = path3();
        let mut cert = hand_cert(&g, &tm);
        cert.lengths[0] *= 2.0;
        assert!(verify_certificate(&g, &tm, &cert, f64::INFINITY).is_err());
    }

    #[test]
    fn overfull_arc_is_rejected() {
        let (g, tm) = path3();
        let mut cert = hand_cert(&g, &tm);
        let prob = FlowProblem::new(&g, &tm);
        let a = prob
            .arcs()
            .iter()
            .position(|arc| arc.from == 1 && arc.to == 2)
            .unwrap();
        cert.flow[a] = 2.0;
        assert!(matches!(
            verify_certificate(&g, &tm, &cert, f64::INFINITY),
            Err(CertificateError::CapacityViolated { .. })
        ));
    }

    #[test]
    fn conservation_residual_is_rejected() {
        let (g, tm) = path3();
        let mut cert = hand_cert(&g, &tm);
        // Claim full service without the matching flow: node balances break.
        cert.served = vec![1.0, 1.0];
        let prob = FlowProblem::new(&g, &tm);
        let rebuilt = ThroughputCertificate::build(
            &prob,
            cert.flow.clone(),
            cert.served.clone(),
            cert.lengths.clone(),
        );
        assert!(matches!(
            verify_certificate(&g, &tm, &rebuilt, f64::INFINITY),
            Err(CertificateError::ConservationViolated { .. })
        ));
    }

    #[test]
    fn dimension_and_value_checks_fire() {
        let (g, tm) = path3();
        let mut cert = hand_cert(&g, &tm);
        cert.flow.pop();
        assert!(matches!(
            verify_certificate(&g, &tm, &cert, f64::INFINITY),
            Err(CertificateError::DimensionMismatch(_))
        ));
        let mut cert = hand_cert(&g, &tm);
        cert.lengths[1] = f64::NAN;
        assert!(matches!(
            verify_certificate(&g, &tm, &cert, f64::INFINITY),
            Err(CertificateError::InvalidValue(_))
        ));
    }

    #[test]
    fn trivial_zero_verifies_only_on_empty_tms() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let empty = TrafficMatrix::new(2, Vec::new());
        verify_certificate(&g, &empty, &ThroughputCertificate::trivial_zero(), 0.0).unwrap();
        let tm = TrafficMatrix::new(2, vec![demand(0, 1, 1.0)]);
        assert!(verify_certificate(&g, &tm, &ThroughputCertificate::trivial_zero(), 0.0).is_err());
    }

    #[test]
    fn disconnected_instance_certifies_zero() {
        let mut g = Graph::new(4);
        g.add_unit_edge(0, 1);
        g.add_unit_edge(2, 3);
        let tm = TrafficMatrix::new(4, vec![demand(0, 3, 1.0)]);
        let prob = FlowProblem::new(&g, &tm);
        let m = prob.num_arcs();
        let cert = ThroughputCertificate::build(&prob, vec![0.0; m], vec![0.0; 1], vec![1.0; m]);
        // A disconnected pair makes alpha infinite, so the dual bound is an
        // exact zero — the strict concurrent-flow semantics.
        assert_eq!(cert.lower, 0.0);
        assert_eq!(cert.upper, 0.0);
        verify_certificate(&g, &tm, &cert, 0.0).unwrap();
    }
}

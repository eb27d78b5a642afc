//! Artifact re-verification: independently re-check every certified cell of
//! a `topobench-sweep/v1` artifact.
//!
//! The verifier never trusts the numbers in the artifact. For each cell that
//! carries a `"certificate"` block it rebuilds the instance from the cell's
//! spec (looked up in the scenario's re-expanded grid), hands the stored
//! evidence to [`tb_flow::verify_certificate`] — which re-derives primal
//! feasibility and the dual bound from shortest paths under the stored
//! lengths — and cross-checks the artifact's reported `lower`/`upper`
//! metrics against the certificate's claims. A single flipped bit anywhere
//! in the stored evidence fails the bit-exact claim re-derivation and the
//! cell is reported *bad*.
//!
//! Status interplay (the part that is easy to get wrong): cells serialized
//! with `"status": "failed"` and cells whose certificate records a
//! `budget-exhausted` solve are **unverifiable** — their bounds are valid
//! but meet no accuracy contract, so they are reported as such, never
//! certified and never silently skipped. Cells without a certificate (plain
//! uncertified artifacts, non-throughput metrics) are counted but not
//! checked.

use crate::eval::{acceptable_certificate_gap, EvalConfig};
use crate::sweep::artifact::{Artifact, ArtifactCell};
use crate::sweep::cell::{CellCertificate, CellSpec};
use std::collections::HashMap;
use std::fmt::Write as _;

/// The verdict on one artifact cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellVerdict {
    /// The certificate re-verified against the rebuilt instance.
    Certified,
    /// The certificate (or its tie to the reported values) is wrong.
    Bad(String),
    /// The cell cannot be held to an accuracy contract (failed, or
    /// budget-exhausted) — reported, never certified, never skipped.
    Unverifiable(String),
    /// The cell carries no certificate (uncertified run or a metric kind
    /// that has none).
    NoCertificate,
}

/// The verification outcome of one artifact.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// The artifact's scenario name.
    pub scenario: String,
    /// Total cells examined.
    pub cells: usize,
    /// Cells whose certificate re-verified.
    pub certified: usize,
    /// Cells with no certificate block.
    pub no_certificate: usize,
    /// `(cell id, reason)` for every rejected certificate.
    pub bad: Vec<(String, String)>,
    /// `(cell id, reason)` for every unverifiable cell.
    pub unverifiable: Vec<(String, String)>,
}

impl VerifyReport {
    /// True when no certificate was rejected. (Unverifiable cells do not
    /// make an artifact unclean — they are reported, and whether "nothing
    /// was certified at all" is acceptable is the caller's policy.)
    pub fn is_clean(&self) -> bool {
        self.bad.is_empty()
    }

    /// Human-readable per-artifact summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: {} cell(s) — {} certified, {} without certificate, {} unverifiable, {} bad",
            self.scenario,
            self.cells,
            self.certified,
            self.no_certificate,
            self.unverifiable.len(),
            self.bad.len()
        );
        for (id, why) in &self.unverifiable {
            let _ = writeln!(out, "  unverifiable  {id}: {why}");
        }
        for (id, why) in &self.bad {
            let _ = writeln!(out, "  BAD           {id}: {why}");
        }
        out
    }
}

/// Relative slack when tying the artifact's reported `lower`/`upper` metrics
/// to the certificate's claims. The two are computed by arithmetically
/// equivalent but differently-ordered expressions (e.g. `min(r_j mu / d_j)`
/// vs `mu min(r_j / d_j)`), so they agree to a few ulps, never exactly.
const VALUE_TIE_TOL: f64 = 1e-9;

/// Verifies every cell of a parsed artifact against the re-expanded cell
/// specs in `specs` (cell id → spec) under the evaluation configuration the
/// artifact was produced with. Certificate blocks are decoded here, cell by
/// cell, so a tampered block is a *bad* verdict (exit 1) rather than an
/// unusable artifact (exit 2).
pub fn verify_artifact_cells(
    artifact: &Artifact,
    specs: &HashMap<String, CellSpec>,
    cfg: &EvalConfig,
) -> VerifyReport {
    let mut report = VerifyReport {
        scenario: artifact.scenario.clone(),
        cells: artifact.cells.len(),
        certified: 0,
        no_certificate: 0,
        bad: Vec::new(),
        unverifiable: Vec::new(),
    };
    for cell in &artifact.cells {
        let id = cell.id.clone();
        match verify_cell(cell, specs.get(&cell.id), cfg) {
            CellVerdict::Certified => report.certified += 1,
            CellVerdict::NoCertificate => report.no_certificate += 1,
            CellVerdict::Bad(why) => report.bad.push((id, why)),
            CellVerdict::Unverifiable(why) => report.unverifiable.push((id, why)),
        }
    }
    report
}

/// Verdict on one artifact cell. `spec` is the re-expanded spec with the
/// same id, when the scenario still has one.
pub fn verify_cell(cell: &ArtifactCell, spec: Option<&CellSpec>, cfg: &EvalConfig) -> CellVerdict {
    // Failed cells first: they carry no values and no certificate, and must
    // never read as "fine" — they are unverifiable by construction.
    if let Some(why) = &cell.error {
        return CellVerdict::Unverifiable(format!("cell failed: {why}"));
    }
    let Some(block) = &cell.certificate else {
        return CellVerdict::NoCertificate;
    };
    let Some(cc) = CellCertificate::from_json(block) else {
        return CellVerdict::Bad("undecodable certificate block".into());
    };
    // Budget-exhausted bounds are valid but meet no accuracy contract:
    // report, do not certify, do not skip.
    if cc.status == "budget-exhausted" {
        return CellVerdict::Unverifiable(
            "solver budget exhausted; bounds carry no accuracy contract".into(),
        );
    }
    let Some(spec) = spec else {
        return CellVerdict::Bad("no matching cell in the scenario's expansion".into());
    };
    let CellSpec::Throughput { topo, tm, tm_seed } = spec else {
        return CellVerdict::Bad(format!(
            "certificate on a non-throughput cell spec ({spec:?})"
        ));
    };

    // Rebuild the instance from the spec — seeds are pinned inside it, so
    // this is the exact graph and traffic matrix the certified solve saw.
    let Some(topo) = topo.build() else {
        return CellVerdict::Bad("unsatisfiable topology spec".into());
    };
    // The certified evaluation path is strict (it never drops demands), so
    // the certificate describes the whole TM.
    let matrix = tm.generate(&topo, *tm_seed);
    let eps = acceptable_certificate_gap(cfg);
    if let Err(e) = tb_flow::verify_certificate(&topo.graph, &matrix, &cc.cert, eps) {
        return CellVerdict::Bad(e.to_string());
    }
    // Tie the certificate to the numbers the artifact actually reports:
    // evidence that proves a *different* value certifies nothing.
    for (name, claimed) in [("lower", cc.cert.lower), ("upper", cc.cert.upper)] {
        let Some(reported) = cell.values.get(name) else {
            return CellVerdict::Bad(format!("certified cell reports no '{name}' metric"));
        };
        if (claimed - reported).abs() > VALUE_TIE_TOL * (1.0 + reported.abs()) {
            return CellVerdict::Bad(format!(
                "certificate {name} {claimed} does not match the reported metric {reported}"
            ));
        }
    }
    CellVerdict::Certified
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TmSpec;
    use crate::sweep::artifact::{artifact_json, parse_artifact};
    use crate::sweep::runner::{run_cells, SweepOptions};
    use crate::sweep::topo::TopoSpec;
    use crate::sweep::{RenderOutput, SweepCell};

    fn throughput_cells() -> Vec<SweepCell> {
        [TmSpec::AllToAll, TmSpec::LongestMatching]
            .into_iter()
            .map(|tm| {
                SweepCell::new(
                    format!("cube/{}", tm.label()),
                    CellSpec::Throughput {
                        topo: TopoSpec::Hypercube {
                            dims: 3,
                            servers: 1,
                        },
                        tm,
                        tm_seed: 1,
                    },
                )
            })
            .collect()
    }

    fn certified_artifact() -> (String, HashMap<String, CellSpec>, EvalConfig) {
        let mut opts = SweepOptions::new(false, 1);
        opts.use_cache = false;
        opts.certify = true;
        let cells = throughput_cells();
        let specs: HashMap<String, CellSpec> = cells
            .iter()
            .map(|c| (c.id.clone(), c.spec.clone()))
            .collect();
        let report = run_cells(&opts, cells);
        let text =
            artifact_json("test", "Test", &opts, &report, &RenderOutput::default()).to_string();
        (text, specs, opts.eval_config())
    }

    fn verify(text: &str, specs: &HashMap<String, CellSpec>, cfg: &EvalConfig) -> VerifyReport {
        verify_artifact_cells(&parse_artifact(text).unwrap(), specs, cfg)
    }

    #[test]
    fn certified_artifact_verifies_clean() {
        let (text, specs, cfg) = certified_artifact();
        assert!(text.contains("\"certificate\""));
        let report = verify(&text, &specs, &cfg);
        assert!(report.is_clean(), "{:?}", report.bad);
        assert_eq!(report.certified, 2);
        assert_eq!(report.no_certificate, 0);
        assert!(report.unverifiable.is_empty());
    }

    #[test]
    fn uncertified_artifact_reports_no_certificates() {
        let mut opts = SweepOptions::new(false, 1);
        opts.use_cache = false;
        let cells = throughput_cells();
        let specs: HashMap<String, CellSpec> = cells
            .iter()
            .map(|c| (c.id.clone(), c.spec.clone()))
            .collect();
        let report = run_cells(&opts, cells);
        let text =
            artifact_json("test", "Test", &opts, &report, &RenderOutput::default()).to_string();
        let report = verify(&text, &specs, &opts.eval_config());
        assert!(report.is_clean());
        assert_eq!(report.certified, 0);
        assert_eq!(report.no_certificate, 2);
    }

    #[test]
    fn single_bit_flip_in_stored_evidence_is_rejected() {
        let (text, specs, cfg) = certified_artifact();
        // Flip the low bit of the first stored d_l claim.
        let tag = "\"d_l\":\"";
        let at = text.find(tag).expect("certificate block present") + tag.len();
        let hex = &text[at..at + 16];
        let flipped = format!("{:016x}", u64::from_str_radix(hex, 16).unwrap() ^ 1);
        let mutated = text.replacen(hex, &flipped, 1);
        assert_ne!(text, mutated);
        let report = verify(&mutated, &specs, &cfg);
        assert!(!report.is_clean(), "a flipped claim bit must be rejected");
    }

    #[test]
    fn certificate_proving_a_different_value_is_rejected() {
        let (text, specs, cfg) = certified_artifact();
        // Mutate the cell's reported lower metric (both decimal and bits
        // forms stay self-consistent) so the certificate no longer backs the
        // number the artifact reports.
        let tag = "\"lower\":{\"bits\":\"";
        let at = text.find(tag).expect("lower metric present") + tag.len();
        let hex = &text[at..at + 16];
        let other = format!("{:016x}", 2.5f64.to_bits());
        // Only the metric form `{"bits":"…"`: an exact solve's certificate can
        // claim the very same bits, and mutating the evidence too would test
        // the digest instead.
        let metric = |bits: &str| format!("{{\"bits\":\"{bits}\"");
        let mutated = text.replace(&metric(hex), &metric(&other));
        assert_ne!(text, mutated);
        let report = verify(&mutated, &specs, &cfg);
        assert!(
            report.bad.iter().any(|(_, why)| why.contains("lower")),
            "{:?}",
            report.bad
        );
    }

    #[test]
    fn failed_cells_are_unverifiable_not_skipped() {
        let (text, specs, cfg) = certified_artifact();
        // Mark the first cell failed (no values, no certificate), the way
        // the artifact writer records a permanently panicking cell.
        let mut artifact = parse_artifact(&text).unwrap();
        let dead = &mut artifact.cells[0];
        (dead.values, dead.certificate) = (Default::default(), None);
        dead.error = Some("induced".into());
        let report = verify_artifact_cells(&artifact, &specs, &cfg);
        assert_eq!(report.unverifiable.len(), 1);
        assert!(report.unverifiable[0].1.contains("failed"));
        assert_eq!(report.certified, 1);
        assert!(report.is_clean());
    }

    #[test]
    fn budget_exhausted_certificates_are_unverifiable() {
        let (text, specs, cfg) = certified_artifact();
        // Re-serialize the first certificate as a genuine budget-exhausted
        // block (digest recomputed — a raw text flip of the status would be
        // rejected as tampering, which is a different, also-tested path).
        let mut artifact = parse_artifact(&text).unwrap();
        let block = artifact.cells[0]
            .certificate
            .as_mut()
            .expect("certified cell has a block");
        let mut cc = CellCertificate::from_json(block).unwrap();
        assert_eq!(cc.status, "converged");
        cc.status = "budget-exhausted".into();
        *block = cc.to_json();
        let report = verify_artifact_cells(&artifact, &specs, &cfg);
        assert_eq!(report.unverifiable.len(), 1);
        assert!(report.unverifiable[0].1.contains("budget"));
        assert_eq!(report.certified, 1);
        assert!(report.is_clean(), "unverifiable is not bad");
    }

    #[test]
    fn unknown_cell_id_is_bad() {
        let (text, _, cfg) = certified_artifact();
        let report = verify(&text, &HashMap::new(), &cfg);
        assert_eq!(report.bad.len(), 2);
        assert!(report.bad[0].1.contains("expansion"));
    }
}

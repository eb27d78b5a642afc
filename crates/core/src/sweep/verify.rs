//! Artifact re-verification: certify every throughput cell of a
//! `topobench-sweep/v1` artifact by solving it again.
//!
//! The verifier never trusts the numbers in the artifact. For each
//! `Throughput` cell it rebuilds the instance from the cell's spec (looked up
//! in the scenario's re-expanded grid), checks that the spec still generates
//! the TM the cell recorded (`tm_fp`), re-solves it through the evaluator's
//! one dispatch with certificate capture on, hands the certificate to
//! [`tb_flow::verify_certificate`] — which re-derives primal feasibility and
//! the dual bound from shortest paths under the certificate's lengths — and
//! ties the certificate's `lower`/`upper` to the metrics the artifact
//! reports. Results are a pure function of the spec and the configuration,
//! so the evidence need not be stored: it is derived again.
//!
//! Status interplay (the part that is easy to get wrong): cells serialized
//! with `"status": "failed"` and cells whose re-solve exhausts its budget are
//! **unverifiable** — their bounds are valid but meet no accuracy contract,
//! so they are reported as such, never certified and never silently
//! skipped. Cells of other kinds (relative throughput, cuts, path lengths, …)
//! are counted but not checked.

use crate::eval::{acceptable_certificate_gap, solve, EvalConfig};
use crate::sweep::artifact::{Artifact, ArtifactCell};
use crate::sweep::cell::CellSpec;
use std::collections::HashMap;
use std::fmt::Write as _;
use tb_flow::SolveStatus;

/// The verdict on one artifact cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellVerdict {
    /// The re-solve's certificate verified and backs the reported values.
    Certified,
    /// The certificate, its tie to the reported values, or the cell's tie to
    /// its spec is wrong.
    Bad(String),
    /// The cell cannot be held to an accuracy contract (failed, or
    /// budget-exhausted) — reported, never certified, never skipped.
    Unverifiable(String),
    /// The cell is not a throughput cell, so there is nothing to certify.
    NoCertificate,
}

/// The verification outcome of one artifact.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// The artifact's scenario name.
    pub scenario: String,
    /// Total cells examined.
    pub cells: usize,
    /// Cells whose certificate verified.
    pub certified: usize,
    /// Cells that are not throughput cells.
    pub no_certificate: usize,
    /// `(cell id, reason)` for every rejected cell.
    pub bad: Vec<(String, String)>,
    /// `(cell id, reason)` for every unverifiable cell.
    pub unverifiable: Vec<(String, String)>,
}

impl VerifyReport {
    /// True when no cell was rejected. (Unverifiable cells do not make an
    /// artifact unclean — they are reported, and whether "nothing was
    /// certified at all" is acceptable is the caller's policy.)
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
/// artifact was produced with.
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
    // Failed cells first: they carry no values, and must never read as
    // "fine" — they are unverifiable by construction.
    if let Some(why) = &cell.error {
        return CellVerdict::Unverifiable(format!("cell failed: {why}"));
    }
    let Some(spec) = spec else {
        return CellVerdict::Bad("no matching cell in the scenario's expansion".into());
    };
    let CellSpec::Throughput { topo, tm, tm_seed } = spec else {
        return CellVerdict::NoCertificate;
    };

    // Rebuild the instance from the spec — seeds are pinned inside it, so
    // this is the exact graph and traffic matrix the reported solve saw.
    let Some(topo) = topo.build() else {
        return CellVerdict::Bad("unsatisfiable topology spec".into());
    };
    let matrix = tm.generate(&topo, *tm_seed);
    if cell.values.text("tm_fp") != Some(format!("{:016x}", matrix.fingerprint()).as_str()) {
        return CellVerdict::Bad("spec re-expands to a different TM".into());
    }
    let (e, cert) = solve(&topo, &matrix, cfg, true);
    // Budget-exhausted bounds are valid but meet no accuracy contract:
    // report, do not certify, do not skip.
    if e.status == SolveStatus::BudgetExhausted {
        return CellVerdict::Unverifiable(
            "solver budget exhausted; bounds carry no accuracy contract".into(),
        );
    }
    let cert = cert.expect("a capturing solve returns its certificate");
    let eps = acceptable_certificate_gap(cfg);
    if let Err(e) = tb_flow::verify_certificate(&topo.graph, &matrix, &cert, eps) {
        return CellVerdict::Bad(e.to_string());
    }
    // Tie the certificate to the numbers the artifact actually reports:
    // evidence that proves a *different* value certifies nothing.
    for (name, claimed) in [("lower", cert.lower), ("upper", cert.upper)] {
        let Some(reported) = cell.values.get(name) else {
            return CellVerdict::Bad(format!("throughput cell reports no '{name}' metric"));
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
    use crate::sweep::{RenderOutput, SweepCell};
    use tb_topology::TopoSpec;

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

    /// The artifact text of a plain run of `cells`, with the specs and the
    /// configuration the verifier needs.
    fn artifact_of(cells: Vec<SweepCell>) -> (String, HashMap<String, CellSpec>, EvalConfig) {
        let mut opts = SweepOptions::new(false, 1);
        opts.use_cache = false;
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
        let (text, specs, cfg) = artifact_of(throughput_cells());
        let report = verify(&text, &specs, &cfg);
        assert!(report.is_clean(), "{:?}", report.bad);
        assert_eq!(report.certified, 2);
        assert_eq!(report.no_certificate, 0);
        assert!(report.unverifiable.is_empty());
    }

    /// Cells that are not throughput cells have nothing to certify: they are
    /// counted, not checked, and the artifact stays clean.
    #[test]
    fn uncertified_artifact_reports_no_certificates() {
        let cells = (1..3)
            .map(|rnd_seed| {
                let topo = TopoSpec::Hypercube {
                    dims: 3,
                    servers: 1,
                };
                SweepCell::new(
                    format!("cube/apl/{rnd_seed}"),
                    CellSpec::PathLengthRatio { topo, rnd_seed },
                )
            })
            .collect();
        let (text, specs, cfg) = artifact_of(cells);
        let report = verify(&text, &specs, &cfg);
        assert!(report.is_clean());
        assert_eq!(report.certified, 0);
        assert_eq!(report.no_certificate, 2);
    }

    /// A cell whose recorded TM is not the one its spec generates reports
    /// numbers for some other instance.
    #[test]
    fn edited_tm_fingerprint_is_bad() {
        let (text, specs, cfg) = artifact_of(throughput_cells());
        let mut artifact = parse_artifact(&text).unwrap();
        let values = &mut artifact.cells[0].values;
        let fp = u64::from_str_radix(values.text("tm_fp").unwrap(), 16).unwrap();
        values.push_text("tm_fp", format!("{:016x}", fp ^ 1));
        let report = verify_artifact_cells(&artifact, &specs, &cfg);
        assert_eq!(report.bad.len(), 1, "{:?}", report.bad);
        assert_eq!(report.bad[0].1, "spec re-expands to a different TM");
        assert_eq!(report.certified, 1);
    }

    #[test]
    fn certificate_proving_a_different_value_is_rejected() {
        let (text, specs, cfg) = artifact_of(throughput_cells());
        // Change the cell's reported lower metric, its bits and its decimal
        // together (the artifact stays valid), so the re-derived certificate
        // no longer backs the number the artifact reports.
        let lower = parse_artifact(&text).unwrap().cells[0].values.num("lower");
        let metric = |x: f64| format!("{{\"bits\":\"{:016x}\",\"value\":{x:?}}}", x.to_bits());
        let mutated = text.replacen(&metric(lower), &metric(2.5), 1);
        assert_ne!(text, mutated);
        let report = verify(&mutated, &specs, &cfg);
        assert_eq!(report.bad.len(), 1, "{:?}", report.bad);
        assert!(report.bad[0].1.contains("lower"), "{:?}", report.bad);
    }

    #[test]
    fn failed_cells_are_unverifiable_not_skipped() {
        let (text, specs, cfg) = artifact_of(throughput_cells());
        let mut artifact = parse_artifact(&text).unwrap();
        // Mark the first cell failed (no values), the way the artifact
        // writer records a permanently panicking cell.
        let dead = &mut artifact.cells[0];
        dead.values = Default::default();
        dead.error = Some("induced".into());
        let report = verify_artifact_cells(&artifact, &specs, &cfg);
        assert_eq!(report.unverifiable.len(), 1);
        assert!(report.unverifiable[0].1.contains("failed"));
        assert_eq!(report.certified, 1);
        assert!(report.is_clean());
    }

    #[test]
    fn budget_exhausted_certificates_are_unverifiable() {
        let (text, specs, mut cfg) = artifact_of(throughput_cells());
        // Re-solve on the FPTAS with one phase and an unreachable gap: on
        // the all-to-all cell the solve stops on its phase cap.
        cfg.exact_switch_limit = 0;
        cfg.solver.max_phases = 1;
        cfg.solver.check_interval = 1;
        cfg.solver.epsilon = 0.01;
        cfg.solver.target_gap = 1e-9;
        let report = verify(&text, &specs, &cfg);
        let (_, why) = (report.unverifiable.iter())
            .find(|(id, _)| id == "cube/A2A")
            .expect("the starved all-to-all re-solve is unverifiable");
        assert!(why.contains("budget"), "{why}");
        assert!(report.is_clean(), "unverifiable is not bad");
    }

    #[test]
    fn unknown_cell_id_is_bad() {
        let (text, _, cfg) = artifact_of(throughput_cells());
        let report = verify(&text, &HashMap::new(), &cfg);
        assert_eq!(report.bad.len(), 2);
        assert!(report.bad[0].1.contains("expansion"));
    }
}

//! Artifact re-verification: certify every cell of a set of
//! `topobench-sweep/v1` artifacts that solves throughput LPs, by running it
//! again.
//!
//! The verifier never trusts the numbers in an artifact. It looks each
//! cell's spec up in its scenario's re-expanded grid and runs the cell again
//! on the sweep runner's own unit queue — [`CellSpec::base`], every
//! [`CellSpec::unit`], [`CellSpec::combine`], exactly as a run does — with
//! certificate capture on. Each solve checks its own certificate
//! ([`tb_flow::verify_certificate`] re-derives primal feasibility and the
//! dual bound from shortest paths under the certificate's lengths) and ties
//! the certificate's `lower`/`upper` to its bounds; a degradation draw's
//! certificate is that of the demands it kept. The recombined values must
//! then be bit-identical to the artifact's, which also re-checks that a cell
//! is a pure function of its spec and the configuration. A certified cell
//! stands on one certificate per solve: one for a throughput cell, 1 + k for
//! a relative or degradation cell. The evidence is never stored, and no
//! cache is read: it is derived again.
//!
//! Status interplay (the part that is easy to get wrong): cells serialized
//! with `"status": "failed"` and cells any of whose solves exhausts its
//! budget are **unverifiable** — their bounds are valid but meet no accuracy
//! contract, so they are reported as such, never certified and never
//! silently skipped. Cells whose kind has no certificate (cuts, path
//! lengths, path-restricted throughput, the design search) are counted but
//! not checked. Those verdicts, and a cell the scenario no longer expands,
//! are given before anything runs; the solving cells of every artifact then
//! share one queue at the default width ([`rayon::default_width`]), so a slow
//! cell of one artifact overlaps the others.

use crate::eval::{Certification, EvalConfig};
use crate::sweep::artifact::{Artifact, ArtifactCell};
use crate::sweep::cell::CellSpec;
use crate::sweep::diff::classify;
use crate::sweep::runner::{run_units, CellRun};
use rayon::Schedule;
use std::collections::HashMap;
use std::fmt::Write as _;

/// The verdict on one artifact cell.
#[derive(Debug, Clone, PartialEq)]
enum CellVerdict {
    /// The re-run's values are the artifact's, and every one of its solves'
    /// certificates (their number) verified.
    Certified(usize),
    /// A certificate, or the re-run's tie to the reported values or to the
    /// spec, is wrong.
    Bad(String),
    /// The cell cannot be held to an accuracy contract (failed, or
    /// budget-exhausted) — reported, never certified, never skipped.
    Unverifiable(String),
    /// The cell's kind solves no throughput LP, so there is nothing to
    /// certify.
    NoCertificate,
}

/// The verification outcome of one artifact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyReport {
    /// The artifact's scenario name.
    pub scenario: String,
    /// Total cells examined.
    pub cells: usize,
    /// Cells whose certificates verified.
    pub certified: usize,
    /// The certificates behind the certified cells, one per solve.
    pub certificates: usize,
    /// Cells whose kind has no certificate.
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
            "{}: {} cell(s) — {} certified by {} certificate(s), {} without certificate, \
             {} unverifiable, {} bad",
            self.scenario,
            self.cells,
            self.certified,
            self.certificates,
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

/// Verifies every cell of every artifact, each against the re-expanded cell
/// specs of its scenario (cell id → spec) under the evaluation configuration
/// it was produced with, and returns one report per artifact, in input
/// order, with how the queue of re-runs ran (`None` when nothing ran).
pub fn verify_artifact_cells(
    artifacts: &[(Artifact, HashMap<String, CellSpec>, EvalConfig)],
) -> (Vec<VerifyReport>, Option<Schedule>) {
    let queue: Vec<(&CellSpec, &EvalConfig)> = (artifacts.iter())
        .flat_map(|(artifact, specs, cfg)| {
            (artifact.cells.iter()).filter_map(move |cell| Some((to_rerun(cell, specs).ok()?, cfg)))
        })
        .collect();
    let (runs, _, schedule) = run_units(&queue, true, rayon::default_width(), |_, _| {});
    let mut runs = runs.into_iter();
    let reports = (artifacts.iter())
        .map(|(artifact, specs, _)| {
            let mut report = VerifyReport {
                scenario: artifact.scenario.clone(),
                cells: artifact.cells.len(),
                ..VerifyReport::default()
            };
            for cell in &artifact.cells {
                let verdict = match to_rerun(cell, specs) {
                    Ok(_) => judge(cell, runs.next().expect("one run per queued cell")),
                    Err(verdict) => verdict,
                };
                let id = cell.id.clone();
                match verdict {
                    CellVerdict::Certified(certificates) => {
                        report.certified += 1;
                        report.certificates += certificates;
                    }
                    CellVerdict::NoCertificate => report.no_certificate += 1,
                    CellVerdict::Bad(why) => report.bad.push((id, why)),
                    CellVerdict::Unverifiable(why) => report.unverifiable.push((id, why)),
                }
            }
            report
        })
        .collect();
    (reports, schedule)
}

/// The spec to run `cell` again by, or its verdict when there is nothing to
/// run.
fn to_rerun<'a>(
    cell: &ArtifactCell,
    specs: &'a HashMap<String, CellSpec>,
) -> Result<&'a CellSpec, CellVerdict> {
    // Failed cells first: they carry no values, and must never read as
    // "fine" — they are unverifiable by construction.
    if let Some(why) = &cell.error {
        return Err(CellVerdict::Unverifiable(format!("cell failed: {why}")));
    }
    match specs.get(&cell.id) {
        None => Err(CellVerdict::Bad(
            "no matching cell in the scenario's expansion".into(),
        )),
        Some(spec) if !spec.solves() => Err(CellVerdict::NoCertificate),
        Some(spec) => Ok(spec),
    }
}

/// The verdict on `cell` from its re-run with certificate capture on.
fn judge(cell: &ArtifactCell, run: CellRun) -> CellVerdict {
    let (values, verdicts) = match run {
        Ok(run) => run,
        Err(why) => return CellVerdict::Bad(format!("the re-run panicked: {why}")),
    };
    // Budget-exhausted bounds are valid but meet no accuracy contract:
    // report, do not certify, do not skip.
    if verdicts.contains(&Certification::Unverifiable) {
        return CellVerdict::Unverifiable(
            "solver budget exhausted; bounds carry no accuracy contract".into(),
        );
    }
    // Tie the certificates to the numbers the artifact actually reports:
    // evidence that proves *different* values certifies nothing.
    if !values.bit_identical(&cell.values) {
        let rerun = ArtifactCell {
            values,
            ..cell.clone()
        };
        return CellVerdict::Bad(format!("its re-run differs: {:?}", classify(cell, &rerun)));
    }
    for (i, verdict) in verdicts.iter().enumerate() {
        if let Certification::Bad(why) = verdict {
            return CellVerdict::Bad(format!("solve {i}: {why}"));
        }
    }
    CellVerdict::Certified(verdicts.len())
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
        artifact_at(cells, 1)
    }

    /// [`artifact_of`] at base seed `seed`.
    fn artifact_at(
        cells: Vec<SweepCell>,
        seed: u64,
    ) -> (String, HashMap<String, CellSpec>, EvalConfig) {
        let mut opts = SweepOptions::new(false, seed);
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
        verify_one(&parse_artifact(text).unwrap(), specs, cfg)
    }

    /// A call of its own over one artifact.
    fn verify_one(
        artifact: &Artifact,
        specs: &HashMap<String, CellSpec>,
        cfg: &EvalConfig,
    ) -> VerifyReport {
        verify_artifact_cells(&[(artifact.clone(), specs.clone(), *cfg)])
            .0
            .remove(0)
    }

    #[test]
    fn certified_artifact_verifies_clean() {
        let (text, specs, cfg) = artifact_of(throughput_cells());
        let report = verify(&text, &specs, &cfg);
        assert!(report.is_clean(), "{:?}", report.bad);
        assert_eq!(report.certified, 2);
        assert_eq!(report.certificates, 2);
        assert_eq!(report.no_certificate, 0);
        assert!(report.unverifiable.is_empty());
    }

    /// Cells whose kind solves no throughput LP have nothing to certify:
    /// they are counted, not checked, and the artifact stays clean.
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
    /// numbers for some other instance: its re-run's values differ.
    #[test]
    fn edited_tm_fingerprint_is_bad() {
        let (text, specs, cfg) = artifact_of(throughput_cells());
        let mut artifact = parse_artifact(&text).unwrap();
        let values = &mut artifact.cells[0].values;
        let fp = u64::from_str_radix(values.text("tm_fp").unwrap(), 16).unwrap();
        values.push_text("tm_fp", format!("{:016x}", fp ^ 1));
        let report = verify_one(&artifact, &specs, &cfg);
        assert_eq!(report.bad.len(), 1, "{:?}", report.bad);
        assert!(report.bad[0].1.contains("tm_fp"), "{:?}", report.bad);
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
        let report = verify_one(&artifact, &specs, &cfg);
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

    /// A relative cell of a small Jellyfish: its own solve and two random
    /// graphs'.
    fn relative_cell() -> SweepCell {
        SweepCell::new(
            "jf/relative",
            CellSpec::Relative {
                topo: TopoSpec::Jellyfish {
                    switches: 8,
                    degree: 3,
                    servers: 1,
                    seed: 1,
                },
                tm: TmSpec::AllToAll,
            },
        )
    }

    /// A 4-cube's baseline and three fault draws that each fail a switch
    /// and `link_fail_frac` of its 32 links.
    fn degradation_cell(link_fail_frac: f64) -> SweepCell {
        SweepCell::new(
            "cube/faults",
            CellSpec::Degradation {
                topo: TopoSpec::Hypercube {
                    dims: 4,
                    servers: 1,
                },
                tm: TmSpec::AllToAll,
                tm_seed: 1,
                link_fail_frac,
                switch_failures: 1,
                failure_seeds: 3,
                seed: 7,
            },
        )
    }

    /// `text` with the top mantissa bit of `metric` flipped in its bits and
    /// its decimal alike, so the artifact stays valid.
    fn flip(text: &str, metric: &str) -> String {
        let artifact = parse_artifact(text).unwrap();
        let x = (artifact.cells.iter())
            .find_map(|cell| cell.values.get(metric))
            .unwrap();
        let encode = |x: f64| {
            format!(
                "\"{metric}\":{{\"bits\":\"{:016x}\",\"value\":{x:?}}}",
                x.to_bits()
            )
        };
        let flipped = text.replacen(
            &encode(x),
            &encode(f64::from_bits(x.to_bits() ^ 1 << 51)),
            1,
        );
        assert_ne!(flipped, text, "{metric}");
        flipped
    }

    /// Every solve of a relative or degradation cell is certified, and a
    /// number the re-run does not give back is bad.
    #[test]
    fn a_flipped_relative_sample_or_degradation_ratio_is_bad() {
        let (text, specs, cfg) = artifact_of(vec![relative_cell(), degradation_cell(0.0625)]);
        let report = verify(&text, &specs, &cfg);
        assert!(report.is_clean(), "{:?}", report.bad);
        assert_eq!(report.certified, 2);
        assert_eq!(report.certificates, (1 + 2) + (1 + 3));
        for (id, metric) in [("jf/relative", "sample_1"), ("cube/faults", "ratio_0")] {
            let report = verify(&flip(&text, metric), &specs, &cfg);
            assert_eq!(report.bad.len(), 1, "{metric}: {:?}", report.bad);
            let (bad, why) = &report.bad[0];
            assert_eq!(bad, id);
            assert!(why.contains(metric), "{why}");
            assert_eq!(report.certified, 1);
        }
    }

    #[test]
    fn a_starved_relative_cell_is_unverifiable() {
        let (text, specs, mut cfg) = artifact_of(vec![relative_cell()]);
        // As in `budget_exhausted_certificates_are_unverifiable`: its solves
        // stop on their phase cap. Which values they give does not matter.
        cfg.exact_switch_limit = 0;
        cfg.solver.max_phases = 1;
        cfg.solver.check_interval = 1;
        cfg.solver.epsilon = 0.01;
        cfg.solver.target_gap = 1e-9;
        let report = verify(&text, &specs, &cfg);
        assert_eq!(report.unverifiable.len(), 1, "{:?}", report.bad);
        assert!(report.unverifiable[0].1.contains("budget"));
        assert!(report.is_clean(), "unverifiable is not bad");
    }

    /// A draw that drops demands is certified on the demands it kept, the
    /// instance its solve actually saw. A failed switch alone drops none
    /// (the TM is re-stenciled on the surviving servers); failing 12 of the
    /// 32 links as well cuts switches off in every draw.
    #[test]
    fn a_degradation_draw_that_drops_demands_certifies_against_its_kept_tm() {
        let (text, specs, cfg) = artifact_of(vec![degradation_cell(0.375)]);
        let values = &parse_artifact(&text).unwrap().cells[0].values;
        assert!(values.num("dropped_mean") > 0.0, "no draw dropped a demand");
        let report = verify(&text, &specs, &cfg);
        assert!(report.is_clean(), "{:?}", report.bad);
        assert_eq!((report.certified, report.certificates), (1, 4));
    }

    /// One call over two artifacts built at different seeds reports each as
    /// a call of its own does, and a value flipped in one of them makes only
    /// that artifact's cell bad.
    #[test]
    fn one_queue_over_two_artifacts_reports_each_as_alone() {
        let built: Vec<_> = [1, 2]
            .into_iter()
            .map(|seed| {
                let mut cells = throughput_cells();
                cells.push(relative_cell());
                artifact_at(cells, seed)
            })
            .collect();
        let parsed: Vec<Artifact> = (built.iter())
            .map(|(text, ..)| parse_artifact(text).unwrap())
            .collect();
        let sample = |a: &Artifact| a.cells[2].values.num("sample_0");
        assert_ne!(sample(&parsed[0]), sample(&parsed[1]), "the seeds differ");
        let inputs = |second: &Artifact| {
            let artifacts: Vec<_> = [&parsed[0], second]
                .into_iter()
                .zip(&built)
                .map(|(artifact, (_, specs, cfg))| (artifact.clone(), specs.clone(), *cfg))
                .collect();
            verify_artifact_cells(&artifacts)
        };
        let alone: Vec<VerifyReport> = (parsed.iter().zip(&built))
            .map(|(artifact, (_, specs, cfg))| verify_one(artifact, specs, cfg))
            .collect();
        let (together, schedule) = inputs(&parsed[1]);
        assert_eq!(together, alone);
        assert!(together.iter().all(|r| r.is_clean() && r.certified == 3));
        // Two throughput solves and a relative cell's three, per artifact.
        assert_eq!(schedule.unwrap().items, 2 * (2 + 3));

        let flipped = parse_artifact(&flip(&built[1].0, "sample_1")).unwrap();
        let (reports, _) = inputs(&flipped);
        assert_eq!(reports[0], alone[0]);
        assert_eq!(reports[1].bad.len(), 1, "{:?}", reports[1].bad);
        assert_eq!(reports[1].bad[0].0, "jf/relative");
        assert_eq!(reports[1].certified, 2);
    }

    #[test]
    fn unknown_cell_id_is_bad() {
        let (text, _, cfg) = artifact_of(throughput_cells());
        let report = verify(&text, &HashMap::new(), &cfg);
        assert_eq!(report.bad.len(), 2);
        assert!(report.bad[0].1.contains("expansion"));
    }
}

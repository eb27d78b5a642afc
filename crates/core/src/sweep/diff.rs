//! Structural diffing of `topobench-sweep/v1` result artifacts.
//!
//! The sweep artifacts store every cell value as an exact IEEE-754 bit
//! pattern, which turns them into a regression oracle: two runs of the same
//! scenario at the same seed must agree bit for bit, and any drift — a
//! solver change, a seeding change, a reordered reduction — is visible as a
//! classified difference. [`diff_artifacts`] matches cells by their stable
//! ids and classifies each as bit-identical, value drift, added, removed, or
//! a label/schema/status change; there is no tolerance, since results are a
//! pure function of the spec on any machine and thread count. [`diff_dirs`]
//! applies the comparison to whole artifact directories (e.g. a fresh
//! `results/` against a committed baseline).
//!
//! Partial artifacts (written by filtered runs, `"partial": true`) only
//! carry a cell subset, so cells missing from the partial side are not
//! treated as removals/additions.
//!
//! Run-only metadata — per-cell `cached` flags and the `stats` block — is
//! deliberately ignored: a cache-hot rerun must diff clean against its cold
//! predecessor.

use crate::sweep::artifact::{artifact_files, parse_artifact, ArtifactCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// How one cell differs between two artifacts.
#[derive(Debug, Clone, PartialEq)]
pub enum ChangeKind {
    /// Every metric bit-identical, texts and labels equal.
    BitIdentical,
    /// At least one metric is not bit-identical.
    ValueDrift {
        /// The metric with the largest relative change.
        metric: String,
        /// Its old value.
        old: f64,
        /// Its new value.
        new: f64,
    },
    /// The metric/text schema of the cell changed (different metric names,
    /// or a text annotation changed value — e.g. a traffic-matrix
    /// fingerprint).
    SchemaChange {
        /// Human-readable description.
        detail: String,
    },
    /// Values identical but a display label changed.
    LabelChange {
        /// Human-readable description.
        detail: String,
    },
    /// The cell's execution status changed (e.g. `ok` → `failed`): always a
    /// regression, even though a failed cell has no values to drift.
    StatusChange {
        /// Status recorded in the old artifact.
        old: String,
        /// Status recorded in the new artifact.
        new: String,
    },
    /// Cell present only in the new artifact.
    Added,
    /// Cell present only in the old artifact.
    Removed,
}

/// One classified per-cell difference.
#[derive(Debug, Clone)]
pub struct CellChange {
    /// The cell's stable id.
    pub id: String,
    /// What changed.
    pub kind: ChangeKind,
    /// Whether this change fails the diff (exit nonzero).
    pub regression: bool,
}

/// The result of diffing two artifacts of one scenario.
#[derive(Debug, Clone)]
pub struct ArtifactDiff {
    /// Scenario name.
    pub scenario: String,
    /// Cells present in both artifacts.
    pub compared: usize,
    /// Compared cells that are bit-identical.
    pub bit_identical: usize,
    /// All non-bit-identical changes, in artifact order.
    pub changes: Vec<CellChange>,
    /// Run-configuration mismatches (seed/scale); these are regressions.
    pub notes: Vec<String>,
}

impl ArtifactDiff {
    /// Number of failing differences (config notes included).
    pub fn regressions(&self) -> usize {
        self.notes.len() + self.changes.iter().filter(|c| c.regression).count()
    }

    /// True when the new artifact passes against the old one.
    pub fn is_clean(&self) -> bool {
        self.regressions() == 0
    }

    /// Compact human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}: {} cells compared | {} bit-identical | {}",
            self.scenario,
            self.compared,
            self.bit_identical,
            if self.regressions() == 0 {
                "OK".to_string()
            } else {
                format!("{} regressions", self.regressions())
            }
        );
        for note in &self.notes {
            let _ = writeln!(out, "  ! {note}");
        }
        const MAX_LISTED: usize = 40;
        for change in self.changes.iter().take(MAX_LISTED) {
            match &change.kind {
                ChangeKind::BitIdentical => {}
                ChangeKind::ValueDrift { metric, old, new } => {
                    let _ = writeln!(out, "  ~ {}: {metric} {old:?} -> {new:?}", change.id);
                }
                ChangeKind::SchemaChange { detail } => {
                    let _ = writeln!(out, "  # {}: {detail}", change.id);
                }
                ChangeKind::LabelChange { detail } => {
                    let _ = writeln!(out, "  @ {}: {detail}", change.id);
                }
                ChangeKind::StatusChange { old, new } => {
                    let _ = writeln!(out, "  ! {}: status {old} -> {new}", change.id);
                }
                ChangeKind::Added => {
                    let _ = writeln!(out, "  + {} (only in new)", change.id);
                }
                ChangeKind::Removed => {
                    let _ = writeln!(out, "  - {} (only in old)", change.id);
                }
            }
        }
        if self.changes.len() > MAX_LISTED {
            let _ = writeln!(out, "  … and {} more", self.changes.len() - MAX_LISTED);
        }
        out
    }
}

fn status(cell: &ArtifactCell) -> &'static str {
    if cell.error.is_some() {
        "failed"
    } else {
        "ok"
    }
}

pub(crate) fn classify(old: &ArtifactCell, new: &ArtifactCell) -> ChangeKind {
    // A status flip outranks everything else: a newly-failed cell also lost
    // its metrics, and reporting that as a schema change would bury the
    // actual problem.
    if status(old) != status(new) {
        return ChangeKind::StatusChange {
            old: status(old).into(),
            new: status(new).into(),
        };
    }
    let (old_nums, new_nums) = (old.values.nums(), new.values.nums());
    let old_metrics: Vec<&String> = old_nums.keys().collect();
    let new_metrics: Vec<&String> = new_nums.keys().collect();
    if old_metrics != new_metrics {
        return ChangeKind::SchemaChange {
            detail: format!("metrics changed: {old_metrics:?} -> {new_metrics:?}"),
        };
    }
    let (old_texts, new_texts) = (old.values.texts(), new.values.texts());
    if old_texts != new_texts {
        let changed: Vec<&str> = old_texts
            .iter()
            .filter(|(k, v)| new_texts.get(*k) != Some(v))
            .map(|(k, _)| k.as_str())
            .chain(
                new_texts
                    .keys()
                    .filter(|k| !old_texts.contains_key(*k))
                    .map(|k| k.as_str()),
            )
            .collect();
        return ChangeKind::SchemaChange {
            detail: format!("text annotations changed: {changed:?}"),
        };
    }
    let mut max_rel = 0.0f64;
    let mut worst: Option<(String, f64, f64)> = None;
    for (name, &a) in old_nums {
        let b = new_nums[name];
        if a.to_bits() == b.to_bits() {
            continue;
        }
        let rel = if a == b {
            // Same value, different bits (0.0 vs -0.0): zero relative error,
            // still short of bit-exact.
            0.0
        } else if a.is_finite() && b.is_finite() {
            (b - a).abs() / a.abs().max(b.abs())
        } else {
            f64::INFINITY
        };
        if worst.is_none() || rel > max_rel {
            worst = Some((name.clone(), a, b));
        }
        max_rel = max_rel.max(rel);
    }
    if let Some((metric, old_v, new_v)) = worst {
        return ChangeKind::ValueDrift {
            metric,
            old: old_v,
            new: new_v,
        };
    }
    if old.labels != new.labels {
        let changed: Vec<String> = old
            .labels
            .iter()
            .filter(|(k, v)| new.labels.get(*k) != Some(v))
            .map(|(k, v)| {
                format!(
                    "{k}: '{v}' -> '{}'",
                    new.labels.get(k).map(String::as_str).unwrap_or("<gone>")
                )
            })
            .chain(
                new.labels
                    .iter()
                    .filter(|(k, _)| !old.labels.contains_key(*k))
                    .map(|(k, v)| format!("{k}: <new> '{v}'")),
            )
            .collect();
        return ChangeKind::LabelChange {
            detail: changed.join(", "),
        };
    }
    ChangeKind::BitIdentical
}

/// Diffs two artifact documents of the same scenario, matching cells by id.
/// A document that fails [`parse_artifact`] is an error, not a difference.
pub fn diff_artifacts(old_text: &str, new_text: &str) -> Result<ArtifactDiff, String> {
    let old = parse_artifact(old_text)?;
    let new = parse_artifact(new_text)?;
    if old.scenario != new.scenario {
        return Err(format!(
            "artifacts record different scenarios: '{}' vs '{}'",
            old.scenario, new.scenario
        ));
    }
    let mut notes = Vec::new();
    if old.seed != new.seed {
        notes.push(format!(
            "seeds differ ({} vs {}): values are not comparable",
            old.seed, new.seed
        ));
    }
    if old.full != new.full {
        notes.push(format!(
            "ladder scales differ (full={} vs full={})",
            old.full, new.full
        ));
    }

    let old_by_id: BTreeMap<&str, &ArtifactCell> =
        old.cells.iter().map(|c| (c.id.as_str(), c)).collect();
    let new_by_id: BTreeMap<&str, &ArtifactCell> =
        new.cells.iter().map(|c| (c.id.as_str(), c)).collect();

    let mut diff = ArtifactDiff {
        scenario: new.scenario.clone(),
        compared: 0,
        bit_identical: 0,
        changes: Vec::new(),
        notes,
    };
    // Walk the old artifact's cell order, then the new-only cells in the
    // new artifact's order, so reports read in expansion order.
    for old_cell in &old.cells {
        let id = &old_cell.id;
        match new_by_id.get(id.as_str()) {
            Some(new_cell) => {
                diff.compared += 1;
                match classify(old_cell, new_cell) {
                    ChangeKind::BitIdentical => diff.bit_identical += 1,
                    kind => diff.changes.push(CellChange {
                        id: id.clone(),
                        kind,
                        regression: true,
                    }),
                }
            }
            None => {
                // Not a regression when the new artifact is a declared
                // subset (partial run).
                diff.changes.push(CellChange {
                    id: id.clone(),
                    kind: ChangeKind::Removed,
                    regression: !new.partial,
                });
            }
        }
    }
    for new_cell in &new.cells {
        if !old_by_id.contains_key(new_cell.id.as_str()) {
            diff.changes.push(CellChange {
                id: new_cell.id.clone(),
                kind: ChangeKind::Added,
                regression: !old.partial,
            });
        }
    }
    // A diff that compared nothing proves nothing: two disjoint partial
    // artifacts would otherwise pass vacuously (their missing cells are not
    // regressions), which is a false green for a regression oracle.
    if diff.compared == 0 && !(old.cells.is_empty() && new.cells.is_empty()) {
        diff.notes
            .push("no cells in common: nothing was actually compared".into());
    }
    Ok(diff)
}

/// Diffs two artifact files.
pub fn diff_files(old: &Path, new: &Path) -> Result<ArtifactDiff, String> {
    let old_text =
        std::fs::read_to_string(old).map_err(|e| format!("cannot read {}: {e}", old.display()))?;
    let new_text =
        std::fs::read_to_string(new).map_err(|e| format!("cannot read {}: {e}", new.display()))?;
    diff_artifacts(&old_text, &new_text)
}

/// The result of diffing two artifact directories.
#[derive(Debug)]
pub struct DirDiff {
    /// Per-file diffs for artifacts present on both sides, by file name.
    pub diffs: Vec<(String, ArtifactDiff)>,
    /// Artifact files present only in the old directory (regressions: a
    /// scenario's results disappeared).
    pub only_old: Vec<String>,
    /// Artifact files present only in the new directory (informational).
    pub only_new: Vec<String>,
}

impl DirDiff {
    /// Number of failing differences across all compared artifacts.
    pub fn regressions(&self) -> usize {
        self.only_old.len()
            + self
                .diffs
                .iter()
                .map(|(_, d)| d.regressions())
                .sum::<usize>()
    }

    /// True when every compared artifact passes and none disappeared.
    pub fn is_clean(&self) -> bool {
        self.regressions() == 0
    }

    /// Compact human-readable report covering every compared file.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, diff) in &self.diffs {
            let _ = write!(out, "[{name}] {}", diff.render());
        }
        for name in &self.only_old {
            let _ = writeln!(out, "[{name}] missing from the new directory (REGRESSION)");
        }
        for name in &self.only_new {
            let _ = writeln!(out, "[{name}] only in the new directory (new scenario)");
        }
        out
    }
}

/// Diffs every `*.json` artifact in `new_dir` against its same-named
/// counterpart in `old_dir` (non-recursive; cache subdirectories and CSVs
/// are ignored).
pub fn diff_dirs(old_dir: &Path, new_dir: &Path) -> Result<DirDiff, String> {
    let old_names = artifact_files(old_dir)?;
    let new_names = artifact_files(new_dir)?;
    let mut result = DirDiff {
        diffs: Vec::new(),
        only_old: Vec::new(),
        only_new: Vec::new(),
    };
    for name in &old_names {
        if new_names.contains(name) {
            let diff = diff_files(&old_dir.join(name), &new_dir.join(name))
                .map_err(|e| format!("{name}: {e}"))?;
            result.diffs.push((name.clone(), diff));
        } else {
            result.only_old.push(name.clone());
        }
    }
    for name in new_names {
        if !old_names.contains(&name) {
            result.only_new.push(name);
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::artifact::{artifact_json, RenderOutput};
    use crate::sweep::cell::{CellSpec, CellValues, SweepCell};
    use crate::sweep::runner::{CellOutcome, SweepOptions, SweepReport};
    use crate::TmSpec;
    use tb_topology::TopoSpec;

    fn cell(id: &str, nums: &[(&str, f64)], labels: &[(&str, &str)]) -> CellOutcome {
        let mut values = CellValues::default();
        for (name, v) in nums {
            values.push(*name, *v);
        }
        let mut cell = SweepCell::new(
            id,
            CellSpec::Throughput {
                topo: TopoSpec::Hypercube {
                    dims: 3,
                    servers: 1,
                },
                tm: TmSpec::AllToAll,
                tm_seed: 1,
            },
        );
        for (k, v) in labels {
            cell = cell.label(*k, *v);
        }
        CellOutcome {
            cell,
            values,
            cached: false,
            error: None,
        }
    }

    fn artifact(outcomes: Vec<CellOutcome>, filter: Option<&str>) -> String {
        let mut opts = SweepOptions::new(false, 1);
        opts.filter = filter.map(str::to_string);
        let failed_cells = outcomes.iter().filter(|o| o.is_failed()).count();
        let report = SweepReport {
            unique_cells: outcomes.len(),
            outcomes,
            cache_hits: 0,
            solver_calls: 0,
            topo_builds: 0,
            failed_cells,
            schedule: None,
        };
        artifact_json("test", "Test", &opts, &report, &RenderOutput::default()).to_string()
    }

    #[test]
    fn identical_artifacts_diff_clean() {
        let a = artifact(vec![cell("a", &[("x", 0.1 + 0.2)], &[("p", "v")])], None);
        let diff = diff_artifacts(&a, &a).unwrap();
        assert!(diff.is_clean());
        assert_eq!(diff.compared, 1);
        assert_eq!(diff.bit_identical, 1);
        assert!(diff.render().contains("OK"));
    }

    #[test]
    fn value_drift_is_a_regression_and_tolerance_forgives() {
        // No relative difference is forgiven, however small; the report
        // names the metric that moved the most.
        let old = artifact(vec![cell("a", &[("x", 1.0), ("y", 1.0)], &[])], None);
        let new = artifact(
            vec![cell("a", &[("x", 1.0 + 1e-9), ("y", 1.0 + 1e-6)], &[])],
            None,
        );
        let diff = diff_artifacts(&old, &new).unwrap();
        assert_eq!(diff.regressions(), 1);
        assert!(matches!(
            &diff.changes[0].kind,
            ChangeKind::ValueDrift { metric, .. } if metric == "y"
        ));
    }

    #[test]
    fn added_and_removed_cells_are_regressions() {
        let old = artifact(
            vec![cell("a", &[("x", 1.0)], &[]), cell("b", &[("x", 2.0)], &[])],
            None,
        );
        let new = artifact(
            vec![cell("a", &[("x", 1.0)], &[]), cell("c", &[("x", 3.0)], &[])],
            None,
        );
        let diff = diff_artifacts(&old, &new).unwrap();
        assert_eq!(diff.regressions(), 2);
        let kinds: Vec<&ChangeKind> = diff.changes.iter().map(|c| &c.kind).collect();
        assert!(kinds.contains(&&ChangeKind::Removed));
        assert!(kinds.contains(&&ChangeKind::Added));
    }

    #[test]
    fn partial_artifacts_only_compare_their_subset() {
        let complete = artifact(
            vec![cell("a", &[("x", 1.0)], &[]), cell("b", &[("x", 2.0)], &[])],
            None,
        );
        let partial = artifact(vec![cell("a", &[("x", 1.0)], &[])], Some("a"));
        // Partial new side: missing 'b' is not a removal regression.
        let diff = diff_artifacts(&complete, &partial).unwrap();
        assert!(diff.is_clean(), "{}", diff.render());
        assert_eq!(diff.compared, 1);
        // Partial old side: extra 'b' in new is not an addition regression.
        let diff = diff_artifacts(&partial, &complete).unwrap();
        assert!(diff.is_clean(), "{}", diff.render());
    }

    #[test]
    fn vacuous_comparisons_are_not_clean() {
        // Two partial artifacts with disjoint cell subsets: no removal or
        // addition is individually a regression, but nothing was compared —
        // the diff must not report success.
        let a = artifact(vec![cell("a", &[("x", 1.0)], &[])], Some("a"));
        let b = artifact(vec![cell("b", &[("x", 2.0)], &[])], Some("b"));
        let diff = diff_artifacts(&a, &b).unwrap();
        assert_eq!(diff.compared, 0);
        assert!(!diff.is_clean());
        assert!(diff.render().contains("no cells in common"));
        // Two genuinely empty artifacts still diff clean.
        let empty = artifact(vec![], None);
        let diff = diff_artifacts(&empty, &empty).unwrap();
        assert!(diff.is_clean());
    }

    #[test]
    fn label_and_schema_changes_are_flagged() {
        let old = artifact(vec![cell("a", &[("x", 1.0)], &[("p", "old")])], None);
        let relabeled = artifact(vec![cell("a", &[("x", 1.0)], &[("p", "new")])], None);
        let diff = diff_artifacts(&old, &relabeled).unwrap();
        assert_eq!(diff.regressions(), 1);
        assert!(matches!(
            diff.changes[0].kind,
            ChangeKind::LabelChange { .. }
        ));

        let reshaped = artifact(vec![cell("a", &[("y", 1.0)], &[("p", "old")])], None);
        let diff = diff_artifacts(&old, &reshaped).unwrap();
        assert!(matches!(
            diff.changes[0].kind,
            ChangeKind::SchemaChange { .. }
        ));
    }

    #[test]
    fn status_changes_are_regressions() {
        let healthy = artifact(vec![cell("a", &[("x", 1.0)], &[])], None);
        let mut dead = cell("a", &[], &[]);
        dead.error = Some("boom".into());
        let failed = artifact(vec![dead], None);
        let diff = diff_artifacts(&healthy, &failed).unwrap();
        assert_eq!(diff.regressions(), 1);
        assert!(matches!(
            &diff.changes[0].kind,
            ChangeKind::StatusChange { old, new } if old == "ok" && new == "failed"
        ));
        assert!(diff.render().contains("status ok -> failed"));
        // The reverse direction (a failure fixed) is also a flagged change.
        let diff = diff_artifacts(&failed, &healthy).unwrap();
        assert_eq!(diff.regressions(), 1);
        // Identically-failed cells diff clean (no false churn while broken).
        let diff = diff_artifacts(&failed, &failed).unwrap();
        assert!(diff.is_clean());
        // A status injected without an error message fails validation: an
        // error (exit 2), not a difference.
        let unexplained = healthy.replace("\"id\":\"a\"", "\"id\":\"a\",\"status\":\"failed\"");
        let err = diff_artifacts(&healthy, &unexplained).unwrap_err();
        assert!(err.contains("'error' must be a failure message"), "{err}");
    }

    #[test]
    fn config_mismatches_are_regressions() {
        let a = artifact(vec![cell("a", &[("x", 1.0)], &[])], None);
        let mut opts = SweepOptions::new(false, 2);
        opts.filter = None;
        let report = SweepReport {
            outcomes: vec![cell("a", &[("x", 1.0)], &[])],
            unique_cells: 1,
            cache_hits: 0,
            solver_calls: 0,
            topo_builds: 0,
            failed_cells: 0,
            schedule: None,
        };
        let b = artifact_json("test", "Test", &opts, &report, &RenderOutput::default()).to_string();
        let diff = diff_artifacts(&a, &b).unwrap();
        assert_eq!(diff.regressions(), 1);
        assert!(diff.render().contains("seeds differ"));
    }

    #[test]
    fn scenario_mismatch_is_an_error() {
        let a = artifact(vec![], None);
        let b = a.replace("\"scenario\":\"test\"", "\"scenario\":\"other\"");
        assert!(diff_artifacts(&a, &b).is_err());
        assert!(diff_artifacts(&a, "{}").is_err());
    }

    #[test]
    fn dir_diff_pairs_files_by_name() {
        let base = std::env::temp_dir().join(format!("tb-diff-test-{}", std::process::id()));
        let old_dir = base.join("old");
        let new_dir = base.join("new");
        std::fs::create_dir_all(&old_dir).unwrap();
        std::fs::create_dir_all(&new_dir).unwrap();
        let a = artifact(vec![cell("a", &[("x", 1.0)], &[])], None);
        std::fs::write(old_dir.join("test.json"), &a).unwrap();
        std::fs::write(new_dir.join("test.json"), &a).unwrap();
        std::fs::write(old_dir.join("gone.json"), &a).unwrap();
        std::fs::write(new_dir.join("fresh.json"), &a).unwrap();
        std::fs::write(new_dir.join("not-an-artifact.csv"), "x,y").unwrap();
        let diff = diff_dirs(&old_dir, &new_dir).unwrap();
        assert_eq!(diff.diffs.len(), 1);
        assert_eq!(diff.only_old, vec!["gone.json".to_string()]);
        assert_eq!(diff.only_new, vec!["fresh.json".to_string()]);
        assert_eq!(diff.regressions(), 1, "a vanished artifact fails the diff");
        assert!(diff.render().contains("missing from the new directory"));
        let _ = std::fs::remove_dir_all(&base);
    }
}

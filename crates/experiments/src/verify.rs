//! `sweep verify` — certify an artifact's throughput cells by re-solving them.
//!
//! The core verifier ([`topobench::sweep::verify_artifact_cells`]) is
//! scenario-agnostic: it needs the cell specs the artifact's ids refer to.
//! This module supplies them by re-expanding the recorded scenario from the
//! registry with the run parameters stored in the artifact (`full`, `seed`),
//! exactly like the original run did — so verification rebuilds each
//! instance from its spec and never trusts the artifact's numbers.

use std::collections::HashMap;
use std::path::Path;
use topobench::sweep::{
    artifact_files, parse_artifact, verify_artifact_cells, CellSpec, SweepOptions, VerifyReport,
};

/// Re-expands the scenario recorded in an artifact and verifies every cell.
/// Errors are unusable inputs (IO, not an artifact, unknown scenario);
/// per-cell problems land in the report.
pub fn verify_artifact_file(path: &Path) -> Result<VerifyReport, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let artifact = parse_artifact(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let name = &artifact.scenario;
    let scenario = crate::find_scenario(name)
        .ok_or_else(|| format!("{}: scenario '{name}' is not registered", path.display()))?;

    // Rebuild the grid with the recorded run parameters. The filter does not
    // change any cell's spec, so expanding the unfiltered grid always yields
    // a superset of the artifact's cells — which is all the verifier needs.
    let sopts = SweepOptions::new(artifact.full, artifact.seed);
    let specs: HashMap<String, CellSpec> = (scenario.build)(&sopts)
        .into_iter()
        .map(|c| (c.id, c.spec))
        .collect();
    Ok(verify_artifact_cells(
        &artifact,
        &specs,
        &sopts.eval_config(),
    ))
}

/// One artifact's verification outcome in a directory sweep: the file name
/// plus either its report or the reason it could not be verified at all.
pub type NamedReport = (String, Result<VerifyReport, String>);

/// Verifies every `*.json` artifact in a directory (sorted by name).
/// Returns one [`NamedReport`] per file; an empty directory is an error.
pub fn verify_artifact_dir(dir: &Path) -> Result<Vec<NamedReport>, String> {
    let names = artifact_files(dir)?;
    if names.is_empty() {
        return Err(format!("{} contains no *.json artifacts", dir.display()));
    }
    Ok(names
        .into_iter()
        .map(|name| {
            let report = verify_artifact_file(&dir.join(&name));
            (name, report)
        })
        .collect())
}

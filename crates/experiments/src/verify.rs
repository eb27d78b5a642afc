//! `sweep verify` — certify an artifact's solving cells by running them again.
//!
//! The core verifier ([`topobench::sweep::verify_artifact_cells`]) is
//! scenario-agnostic: it needs the cell specs the artifact's ids refer to.
//! This module supplies them by re-expanding the recorded scenario from the
//! registry with the run parameters stored in the artifact (`full`, `seed`),
//! exactly like the original run did — so verification runs each cell again
//! from its spec and never trusts the artifact's numbers.

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

/// Verifies the artifact at `path` or, with `all`, every `*.json` artifact
/// in the directory `path`, sorted by name: one artifact is a tree of one.
/// Each artifact yields its report or the reason it could not be verified
/// at all, which names the file; a directory without artifacts is an error.
pub fn verify_artifacts(
    path: &Path,
    all: bool,
) -> Result<Vec<Result<VerifyReport, String>>, String> {
    if !all {
        return Ok(vec![verify_artifact_file(path)]);
    }
    let names = artifact_files(path)?;
    if names.is_empty() {
        return Err(format!("{} contains no *.json artifacts", path.display()));
    }
    Ok(names
        .iter()
        .map(|name| verify_artifact_file(&path.join(name)))
        .collect())
}

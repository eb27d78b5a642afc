//! `sweep verify` — certify the solving cells of a tree of artifacts by
//! running them again.
//!
//! The core verifier ([`topobench::sweep::verify_artifact_cells`]) is
//! scenario-agnostic: it needs the cell specs the artifact's ids refer to.
//! This module supplies them by re-expanding each recorded scenario from the
//! registry with the run parameters stored in its artifact (`full`, `seed`),
//! exactly like the original run did — so verification runs each cell again
//! from its spec and never trusts the artifact's numbers. The cells of every
//! artifact then run on one queue.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use topobench::sweep::{
    artifact_files, parse_artifact, verify_artifact_cells, Artifact, CellSpec, Schedule,
    SweepOptions, VerifyReport,
};
use topobench::EvalConfig;

/// Reads the artifact at `path` and re-expands the scenario it records.
/// Errors are unusable inputs (IO, not an artifact, unknown scenario).
fn load(path: &Path) -> Result<(Artifact, HashMap<String, CellSpec>, EvalConfig), String> {
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
    Ok((artifact, specs, sopts.eval_config()))
}

/// Verifies the artifact at `path` or, with `all`, every `*.json` artifact
/// in the directory `path`, sorted by name: one artifact is a tree of one.
/// Every artifact is read first, and one that cannot be verified at all is
/// the error, which names the file; a directory without artifacts is an
/// error too. Then the cells of every artifact run on one queue: this
/// returns each artifact's report, in name order, and how the queue ran.
pub fn verify_artifacts(
    path: &Path,
    all: bool,
) -> Result<(Vec<VerifyReport>, Option<Schedule>), String> {
    let paths: Vec<PathBuf> = if all {
        let names = artifact_files(path)?;
        if names.is_empty() {
            return Err(format!("{} contains no *.json artifacts", path.display()));
        }
        names.iter().map(|name| path.join(name)).collect()
    } else {
        vec![path.to_path_buf()]
    };
    let loaded: Result<Vec<_>, _> = paths.iter().map(|path| load(path)).collect();
    Ok(verify_artifact_cells(&loaded?))
}

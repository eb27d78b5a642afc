//! The unified result artifact: one JSON document per scenario run, next to
//! the per-table CSV files the harness has always written.
//!
//! The artifact records the full cell-level results (bit-exact, via IEEE-754
//! bit patterns) *and* the rendered tables, so downstream tooling can either
//! re-render figures from raw cells or diff the human-readable tables. CI
//! validates every artifact against [`validate_artifact`]; [`parse_artifact`]
//! is the one reader, shared by validation, `sweep diff` and `sweep verify`.

use crate::sweep::cell::{decode_map, CellCertificate, CellValues};
use crate::sweep::json::Json;
use crate::sweep::runner::{SweepOptions, SweepReport};
use crate::sweep::table::Table;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Schema tag of the sweep artifact document.
pub const ARTIFACT_SCHEMA: &str = "topobench-sweep/v1";

/// A rendered table plus the file stem its CSV is written under.
#[derive(Debug, Clone)]
pub struct NamedTable {
    /// CSV/identifier stem (e.g. `"fig02_tm_families"`).
    pub name: String,
    /// The rendered table.
    pub table: Table,
}

/// Everything a scenario renders besides the raw cells.
#[derive(Debug, Clone, Default)]
pub struct RenderOutput {
    /// Lines printed before the tables (e.g. Fig. 15's equipment summary).
    pub preamble: Vec<String>,
    /// The rendered tables, in print order.
    pub tables: Vec<NamedTable>,
    /// The "expected shape" commentary printed after the tables.
    pub notes: String,
}

/// Serializes a run (raw cells + rendered tables) to the artifact document.
pub fn artifact_json(
    scenario: &str,
    title: &str,
    opts: &SweepOptions,
    report: &SweepReport,
    render: &RenderOutput,
) -> Json {
    let cells: Vec<Json> = report
        .outcomes
        .iter()
        .map(|o| {
            let labels = (o.cell.labels.iter())
                .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                .collect();
            let mut fields = vec![
                ("id", Json::str(o.cell.id.clone())),
                ("cached", Json::Bool(o.cached)),
                ("labels", Json::Obj(labels)),
            ];
            fields.extend(o.values.to_json());
            // Only failed cells carry a status: healthy artifacts (including
            // every committed golden) stay byte-identical to the pre-status
            // schema.
            if let Some(error) = &o.error {
                fields.push(("status", Json::str("failed")));
                fields.push(("error", Json::str(error.clone())));
            }
            Json::obj(fields)
        })
        .collect();
    let strings = |xs: &[String]| Json::Arr(xs.iter().map(|x| Json::str(x.clone())).collect());
    let tables = (render.tables.iter())
        .map(|nt| {
            Json::obj(vec![
                ("name", Json::str(nt.name.clone())),
                ("title", Json::str(nt.table.title())),
                ("header", strings(nt.table.header())),
                (
                    "rows",
                    Json::Arr(nt.table.rows().iter().map(|row| strings(row)).collect()),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::str(ARTIFACT_SCHEMA)),
        ("scenario", Json::str(scenario)),
        ("title", Json::str(title)),
        ("full", Json::Bool(opts.full)),
        // Filtered runs carry only a cell subset; the flag lets the diff
        // engine treat missing cells as "not run" instead of "removed".
        ("partial", Json::Bool(opts.filter.is_some())),
        // As a string: a u64 seed above 2^53 would silently round through a
        // JSON double, and this document promises exact reproducibility.
        ("seed", Json::str(opts.seed.to_string())),
        ("filter", opts.filter.clone().map_or(Json::Null, Json::Str)),
        (
            "stats",
            Json::obj(vec![
                ("cells", Json::Num(report.outcomes.len() as f64)),
                ("unique_cells", Json::Num(report.unique_cells as f64)),
                ("cache_hits", Json::Num(report.cache_hits as f64)),
                ("solver_calls", Json::Num(report.solver_calls as f64)),
            ]),
        ),
        ("cells", Json::Arr(cells)),
        ("tables", Json::Arr(tables)),
    ])
}

/// Writes the artifact as `results/<scenario>.json`, returning its path.
/// Filtered runs write `results/<scenario>.partial.json` instead (marked
/// `"partial": true`), so a cell subset never overwrites the scenario's
/// complete artifact but can still be consumed by `sweep diff`.
pub fn write_artifact(
    scenario: &str,
    title: &str,
    opts: &SweepOptions,
    report: &SweepReport,
    render: &RenderOutput,
) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir)?;
    let path = dir.join(artifact_filename(scenario, opts));
    fs::write(
        &path,
        artifact_json(scenario, title, opts, report, render).to_string(),
    )?;
    Ok(path)
}

/// File name a run's artifact is written under: `<scenario>.json`, or
/// `<scenario>.partial.json` for filtered runs (a cell subset must never
/// overwrite the scenario's complete artifact).
pub fn artifact_filename(scenario: &str, opts: &SweepOptions) -> String {
    if opts.filter.is_some() {
        format!("{scenario}.partial.json")
    } else {
        format!("{scenario}.json")
    }
}

/// One cell of a parsed artifact.
#[derive(Debug, Clone)]
pub struct ArtifactCell {
    /// The cell's stable id (unique within the artifact).
    pub id: String,
    /// Whether the run served the cell from the cache.
    pub cached: bool,
    /// Display labels, by name.
    pub labels: BTreeMap<String, String>,
    /// Metrics and texts; the certificate stays in [`certificate`](Self::certificate).
    pub values: CellValues,
    /// `Some(message)` for a failed cell (`"status": "failed"`).
    pub error: Option<String>,
    /// The certificate block, undecoded: [`validate_artifact`] rejects an
    /// undecodable one, while `sweep verify` reports it against its cell.
    pub certificate: Option<Json>,
}

/// A parsed `topobench-sweep/v1` artifact.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Scenario name.
    pub scenario: String,
    /// Scenario title.
    pub title: String,
    /// Whether the run used the paper-scale ladder.
    pub full: bool,
    /// Whether the artifact holds only a filtered cell subset.
    pub partial: bool,
    /// The run's base seed.
    pub seed: u64,
    /// The run's cell filter, if any.
    pub filter: Option<String>,
    /// `stats` as recorded: cells, unique cells, cache hits, solver calls.
    pub stats: [f64; 4],
    /// Cells in artifact order.
    pub cells: Vec<ArtifactCell>,
    /// Each table's name, column count and row count.
    pub tables: Vec<(String, usize, usize)>,
}

/// `doc[key]` read by `get`, or an error saying what it must be.
fn field<'a, T>(
    doc: &'a Json,
    key: &str,
    get: impl Fn(&'a Json) -> Option<T>,
    what: &str,
) -> Result<T, String> {
    doc.get(key)
        .and_then(get)
        .ok_or_else(|| format!("'{key}' must be {what}"))
}

fn parse_cell(cell: Json) -> Result<ArtifactCell, String> {
    let Json::Obj(mut cell) = cell else {
        return Err("not an object".into());
    };
    let certificate = cell.remove("certificate");
    let cell = Json::Obj(cell);
    // 'status' is optional (healthy cells omit it); failed cells must carry
    // an error message.
    let error = match cell.get("status").map(Json::as_str) {
        None | Some(Some("ok")) => None,
        Some(Some("failed")) => {
            Some(field(&cell, "error", Json::as_str, "a failure message")?.into())
        }
        Some(_) => return Err("'status' must be ok|failed".into()),
    };
    Ok(ArtifactCell {
        id: field(&cell, "id", Json::as_str, "a string")?.into(),
        cached: field(&cell, "cached", Json::as_bool, "a bool")?,
        labels: decode_map(&cell, "labels", |v| Some(v.as_str()?.to_string()))?,
        values: CellValues::from_json(&cell)?,
        error,
        certificate,
    })
}

fn parse_table(table: &Json) -> Result<(String, usize, usize), String> {
    let name = field(table, "name", Json::as_str, "a string")?;
    let width = field(table, "header", Json::as_arr, "an array")?.len();
    let rows = field(table, "rows", Json::as_arr, "an array")?;
    if !(rows.iter()).all(|row| row.as_arr().is_some_and(|row| row.len() == width)) {
        return Err("every row must be an array as wide as the header".into());
    }
    Ok((name.into(), width, rows.len()))
}

fn parse_doc(mut doc: BTreeMap<String, Json>) -> Result<Artifact, String> {
    let cells = doc.remove("cells");
    let doc = Json::Obj(doc);
    if doc.get("schema").and_then(Json::as_str) != Some(ARTIFACT_SCHEMA) {
        return Err("missing or wrong schema tag".into());
    }
    let filter = match doc.get("filter") {
        None | Some(Json::Null) => None,
        Some(_) => Some(field(&doc, "filter", Json::as_str, "a string or null")?.into()),
    };
    // 'partial' is optional (absent in pre-diff artifacts) but when present
    // must be true exactly when a filter is recorded.
    let partial = match doc.get("partial") {
        None => false,
        Some(Json::Bool(b)) if *b == filter.is_some() => *b,
        Some(_) => return Err("'partial' must be true exactly when a filter is recorded".into()),
    };
    let mut stats = [0.0; 4];
    let keys = ["cells", "unique_cells", "cache_hits", "solver_calls"];
    let counts = field(&doc, "stats", Some, "an object")?;
    for (slot, key) in stats.iter_mut().zip(keys) {
        *slot = field(counts, key, Json::as_num, "a number").map_err(|e| format!("stats {e}"))?;
    }
    let Some(Json::Arr(cells)) = cells else {
        return Err("'cells' must be an array".into());
    };
    if cells.len() as f64 != stats[0] {
        return Err("stats.cells must match the cell count".into());
    }
    let cells: Vec<ArtifactCell> = (cells.into_iter().enumerate())
        .map(|(i, cell)| parse_cell(cell).map_err(|e| format!("cell {i}: {e}")))
        .collect::<Result<_, _>>()?;
    let mut ids = std::collections::HashSet::new();
    if let Some(cell) = cells.iter().find(|cell| !ids.insert(cell.id.as_str())) {
        return Err(format!("cell id '{}' is not unique", cell.id));
    }
    let tables = field(&doc, "tables", Json::as_arr, "an array")?;
    let tables = (tables.iter().enumerate())
        .map(|(i, table)| parse_table(table).map_err(|e| format!("table {i}: {e}")))
        .collect::<Result<_, _>>()?;
    let seed = field(
        &doc,
        "seed",
        |s| s.as_str()?.parse().ok(),
        "a decimal string",
    )?;
    Ok(Artifact {
        scenario: field(&doc, "scenario", Json::as_str, "a string")?.into(),
        title: field(&doc, "title", Json::as_str, "a string")?.into(),
        full: field(&doc, "full", Json::as_bool, "a bool")?,
        partial,
        seed,
        filter,
        stats,
        cells,
        tables,
    })
}

/// Parses an artifact document against the `topobench-sweep/v1` schema:
/// the one reader behind [`validate_artifact`], `sweep diff` and `sweep
/// verify`. Certificate blocks come back undecoded.
pub fn parse_artifact(text: &str) -> Result<Artifact, String> {
    match Json::parse(text).map_err(|e| format!("artifact is not JSON: {e}"))? {
        Json::Obj(doc) => parse_doc(doc),
        _ => Err("not an object".into()),
    }
    .map_err(|e| format!("artifact invalid: {e}"))
}

/// Validates an artifact document against the `topobench-sweep/v1` schema:
/// [`parse_artifact`] plus decoding every certificate block.
pub fn validate_artifact(text: &str) -> Result<(), String> {
    for cell in parse_artifact(text)?.cells {
        if (cell.certificate).is_some_and(|block| CellCertificate::from_json(&block).is_none()) {
            return Err(format!(
                "artifact invalid: cell '{}': 'certificate' must be a decodable certificate block",
                cell.id
            ));
        }
    }
    Ok(())
}

/// The names of the regular `*.json` files directly in `dir`, sorted: the
/// artifacts `sweep diff --all` and `sweep verify --all` read (cache
/// subdirectories and CSVs are skipped).
pub fn artifact_files(dir: &Path) -> Result<Vec<String>, String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut names = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_file() && path.extension().is_some_and(|e| e == "json") {
            names.extend(
                path.file_name()
                    .and_then(|n| n.to_str())
                    .map(str::to_string),
            );
        }
    }
    names.sort();
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::cell::{CellSpec, SweepCell};
    use crate::sweep::runner::CellOutcome;
    use crate::sweep::topo::TopoSpec;
    use crate::TmSpec;

    fn sample_report() -> SweepReport {
        let mut values = CellValues::default();
        values.push("lower", 0.5);
        values.push_text("note", "n");
        SweepReport {
            outcomes: vec![CellOutcome {
                cell: SweepCell::new(
                    "a",
                    CellSpec::Throughput {
                        topo: TopoSpec::Hypercube {
                            dims: 3,
                            servers: 1,
                        },
                        tm: TmSpec::AllToAll,
                        tm_seed: 1,
                    },
                )
                .label("topology", "hypercube"),
                values,
                cached: false,
                error: None,
            }],
            unique_cells: 1,
            cache_hits: 0,
            solver_calls: 1,
            topo_builds: 1,
            failed_cells: 0,
        }
    }

    #[test]
    fn artifact_roundtrip_validates() {
        let opts = SweepOptions::new(false, 1);
        let mut table = Table::new("demo", &["a", "b"]);
        table.row_strings(vec!["1".into(), "2".into()]);
        let render = RenderOutput {
            preamble: vec!["hello".into()],
            tables: vec![NamedTable {
                name: "demo".into(),
                table,
            }],
            notes: "notes".into(),
        };
        let doc = artifact_json("test", "Test", &opts, &sample_report(), &render);
        validate_artifact(&doc.to_string()).expect("artifact should validate");
        let parsed = parse_artifact(&doc.to_string()).unwrap();
        assert_eq!(parsed.tables, vec![("demo".to_string(), 2, 1)]);
        assert_eq!(
            (parsed.seed, parsed.partial, parsed.filter),
            (1, false, None)
        );
    }

    /// What the writer records, the reader returns: every cell's values bit
    /// for bit, its labels, status and error.
    #[test]
    fn parse_artifact_reproduces_every_cell() {
        let mut report = sample_report();
        report.outcomes[0].values.push("tiny", 5e-324);
        report.outcomes[0].values.push("neg_zero", -0.0);
        report.outcomes.push(CellOutcome {
            cell: SweepCell::new("dead", report.outcomes[0].cell.spec.clone()),
            values: CellValues::default(),
            cached: true,
            error: Some("induced failure".into()),
        });
        report.unique_cells = 2;
        let opts = SweepOptions::new(false, u64::MAX);
        let text =
            artifact_json("test", "Test", &opts, &report, &RenderOutput::default()).to_string();
        let parsed = parse_artifact(&text).unwrap();
        assert_eq!(parsed.seed, u64::MAX);
        assert_eq!(parsed.cells.len(), report.outcomes.len());
        for (cell, o) in parsed.cells.iter().zip(&report.outcomes) {
            assert_eq!(
                (&cell.id, cell.cached, &cell.error),
                (&o.cell.id, o.cached, &o.error)
            );
            assert!(cell.values.bit_identical(&o.values), "{}", cell.id);
            let labels: Vec<_> = cell.labels.clone().into_iter().collect();
            assert_eq!(labels, o.cell.labels);
        }
    }

    #[test]
    fn filtered_runs_produce_marked_partial_artifacts() {
        let mut opts = SweepOptions::new(false, 1);
        assert_eq!(artifact_filename("fig02", &opts), "fig02.json");
        let complete = artifact_json(
            "fig02",
            "t",
            &opts,
            &sample_report(),
            &RenderOutput::default(),
        )
        .to_string();
        assert!(complete.contains("\"partial\":false"));
        validate_artifact(&complete).unwrap();

        opts.filter = Some("A2A".into());
        assert_eq!(artifact_filename("fig02", &opts), "fig02.partial.json");
        let partial = artifact_json(
            "fig02",
            "t",
            &opts,
            &sample_report(),
            &RenderOutput::default(),
        )
        .to_string();
        assert!(partial.contains("\"partial\":true"));
        validate_artifact(&partial).unwrap();

        // An inconsistent marker (filter recorded but partial false) fails.
        let lying = partial.replace("\"partial\":true", "\"partial\":false");
        assert!(validate_artifact(&lying).is_err());
    }

    #[test]
    fn failed_cells_serialize_with_status_and_validate() {
        let opts = SweepOptions::new(false, 1);
        let mut report = sample_report();
        report.outcomes.push(CellOutcome {
            cell: SweepCell::new("dead", report.outcomes[0].cell.spec.clone()),
            values: CellValues::default(),
            cached: false,
            error: Some("induced failure".into()),
        });
        report.unique_cells = 2;
        report.failed_cells = 1;
        let text =
            artifact_json("test", "Test", &opts, &report, &RenderOutput::default()).to_string();
        validate_artifact(&text).expect("artifact with a failed cell must validate");
        assert!(text.contains("\"status\":\"failed\""));
        assert!(text.contains("\"error\":\"induced failure\""));
        // Healthy cells carry no status key at all (golden byte-stability).
        assert_eq!(text.matches("\"status\"").count(), 1);
        // A failed cell without an error message is rejected.
        let broken = text.replace(",\"error\":\"induced failure\"", "");
        assert!(validate_artifact(&broken).is_err());
        // Unknown status strings are rejected.
        let bogus = text.replace("\"status\":\"failed\"", "\"status\":\"meh\"");
        assert!(validate_artifact(&bogus).is_err());
    }

    /// A certified cell serializes its certificate block, validates, and a
    /// broken block (one flipped evidence bit) fails `validate_artifact` —
    /// the schema treats an undecodable block as a structural defect.
    #[test]
    fn certified_cells_validate_and_broken_blocks_are_rejected() {
        use crate::sweep::cell::CellCertificate;
        let opts = SweepOptions::new(false, 1);
        let mut report = sample_report();
        report.outcomes[0].values.set_certificate(CellCertificate {
            cert: tb_flow::ThroughputCertificate {
                num_nodes: 8,
                num_arcs: 24,
                flow: vec![0.5; 24],
                served: vec![0.25; 4],
                lengths: vec![1.0; 24],
                d_l: 24.0,
                lower: 0.5,
                upper: 1.0,
            },
            status: "converged".into(),
        });
        let text =
            artifact_json("test", "Test", &opts, &report, &RenderOutput::default()).to_string();
        assert!(text.contains("\"certificate\""));
        validate_artifact(&text).expect("certified artifact must validate");

        // Flip one bit of stored evidence: structural validation fails.
        let tag = "\"d_l\":\"";
        let at = text.find(tag).unwrap() + tag.len();
        let hex = &text[at..at + 16];
        let flipped = format!("{:016x}", u64::from_str_radix(hex, 16).unwrap() ^ 1);
        let mutated = text.replacen(hex, &flipped, 1);
        assert!(
            validate_artifact(&mutated).is_err(),
            "a flipped certificate bit must fail artifact validation"
        );

        // Certificates off: not a single certificate key in the document
        // (golden byte-stability for uncertified runs).
        let plain = artifact_json(
            "test",
            "Test",
            &opts,
            &sample_report(),
            &RenderOutput::default(),
        )
        .to_string();
        assert!(!plain.contains("certificate"));
    }

    #[test]
    fn validation_rejects_broken_documents() {
        assert!(validate_artifact("{}").is_err());
        assert!(validate_artifact("not json").is_err());
        let opts = SweepOptions::new(false, 1);
        let doc = artifact_json(
            "test",
            "Test",
            &opts,
            &sample_report(),
            &RenderOutput::default(),
        );
        let good = doc.to_string();
        validate_artifact(&good).unwrap();
        let bad = good.replace("\"cells\":1", "\"cells\":7");
        assert!(validate_artifact(&bad).is_err(), "cell count mismatch");
        let mut report = sample_report();
        report.outcomes.push(report.outcomes[0].clone());
        let twice = artifact_json("test", "Test", &opts, &report, &RenderOutput::default());
        let err = validate_artifact(&twice.to_string()).unwrap_err();
        assert!(err.contains("'a' is not unique"), "{err}");
        let ragged = good.replace(
            "\"tables\":[]",
            "\"tables\":[{\"name\":\"t\",\"header\":[\"x\"],\"rows\":[[]]}]",
        );
        assert!(
            validate_artifact(&ragged).is_err(),
            "row narrower than the header"
        );
    }
}

//! The scenario engine: declarative sweeps, parallel cell execution and
//! cached result artifacts.
//!
//! Every figure and table of the paper is one *scenario*: a named grid of
//! (topology recipe × traffic recipe × metric) **cells** plus a renderer that
//! turns cell results into the figure's tables. The engine
//!
//! * expands a [`Scenario`] into [`SweepCell`]s (all seeds pinned at
//!   expansion time, derived from the base seed — never from execution
//!   order),
//! * executes unique cells in parallel, one pool job per cell with the
//!   solves a cell fans out shared between threads ([`run_cells`]),
//!   bit-identical to a serial run,
//! * serves repeat computations from a content-keyed on-disk cache
//!   ([`ResultCache`], default `results/cache/`), so re-runs and interrupted
//!   `--full` ladders resume instead of recomputing, and
//! * writes one unified JSON artifact per run ([`write_artifact`]), and the
//!   per-table CSVs when asked to (`--csv`).
//!
//! Scenario definitions (the 13 figure/table registrations plus the
//! `failures` degradation sweep and the `search` design optimizer) live in
//! the `experiments` crate; this module is the machinery.

pub mod artifact;
pub mod cache;
pub mod cell;
pub mod diff;
pub mod json;
pub mod runner;
pub mod table;
pub mod topo;
pub mod verify;

pub use artifact::{
    artifact_filename, artifact_files, artifact_json, parse_artifact, validate_artifact,
    write_artifact, Artifact, ArtifactCell, NamedTable, RenderOutput, ARTIFACT_SCHEMA,
};
pub use cache::{fnv1a, ResultCache, CELL_SCHEMA};
pub use cell::{CellCertificate, CellSpec, CellValues, FbMatrix, SweepCell};
pub use diff::{
    diff_artifacts, diff_dirs, diff_files, ArtifactDiff, CellChange, ChangeKind, DirDiff,
};
/// The worker pool's cumulative scheduling counters (jobs run, jobs run by a
/// thread other than the one that queued them, per-thread time in jobs), for
/// drivers that report how a run was scheduled.
pub use rayon::pool::{stats as pool_stats, Stats as PoolStats};
pub use runner::{cell_key, run_cells, CellOutcome, CellSet, SweepOptions, SweepReport};
pub use table::{f3, Table};
pub use topo::TopoSpec;
pub use verify::{verify_artifact_cells, verify_cell, CellVerdict, VerifyReport};

/// A registered experiment: a named, declarative sweep plus its renderer.
#[derive(Clone)]
pub struct Scenario {
    /// Registry name (`"fig02"`, `"table02"`, …) — also the artifact stem.
    pub name: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Expands the cell grid for the given options.
    pub build: fn(&SweepOptions) -> Vec<SweepCell>,
    /// Renders tables from a complete, healthy set of outcomes: every cell
    /// `build` expanded, none failed (see [`run_scenario`]).
    pub render: fn(&SweepOptions, &CellSet) -> RenderOutput,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("title", &self.title)
            .finish()
    }
}

/// Runs a scenario end to end: expand, execute, render.
///
/// The scenario renderer only ever sees a complete, healthy grid: with a
/// cell filter active, or when any cell failed, a generic per-cell metric
/// dump is rendered instead (a failed cell is one `status | failed` row).
pub fn run_scenario(scenario: &Scenario, opts: &SweepOptions) -> (SweepReport, RenderOutput) {
    // Widen the build-counter window over expansion and rendering too:
    // both run on construction-free topology metadata, so a fully cache-hot
    // scenario run must report zero topology constructions end to end.
    let builds_before = tb_topology::constructions();
    let cells = (scenario.build)(opts);
    let mut report = run_cells(opts, cells);
    let render = if opts.filter.is_some() || report.failed_cells > 0 {
        render_cell_dump(scenario, opts, &report)
    } else {
        let set = CellSet::new(&report.outcomes);
        (scenario.render)(opts, &set)
    };
    report.topo_builds = tb_topology::constructions() - builds_before;
    (report, render)
}

fn render_cell_dump(
    scenario: &Scenario,
    opts: &SweepOptions,
    report: &SweepReport,
) -> RenderOutput {
    let why = if opts.filter.is_some() {
        "filtered"
    } else {
        "partly failed"
    };
    let mut table = Table::new(
        format!("{}: {why} cell results", scenario.name),
        &["cell", "metric", "value", "cached"],
    );
    for o in &report.outcomes {
        let cached = o.cached.to_string();
        if o.is_failed() {
            let row = [&o.cell.id, "status", "failed", &cached];
            table.row_strings(row.map(str::to_string).into());
        }
        for (name, value) in o.values.nums() {
            table.row_strings(vec![
                o.cell.id.clone(),
                name.clone(),
                format!("{value:.6}"),
                cached.clone(),
            ]);
        }
    }
    RenderOutput {
        preamble: Vec::new(),
        tables: vec![NamedTable {
            name: format!("{}_cells", scenario.name),
            table,
        }],
        notes: String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TmSpec;
    use tb_topology::families::{Family, Scale};

    fn test_scenario() -> Scenario {
        Scenario {
            name: "test",
            title: "Test scenario",
            build: |opts| {
                vec![SweepCell::new(
                    "cube/A2A",
                    CellSpec::Throughput {
                        topo: TopoSpec::Hypercube {
                            dims: 3,
                            servers: 1,
                        },
                        tm: TmSpec::AllToAll,
                        tm_seed: opts.seed,
                    },
                )]
            },
            render: |_, set| {
                let mut table = Table::new("t", &["v"]);
                table.row_strings(vec![f3(set.num("cube/A2A", "lower"))]);
                RenderOutput {
                    preamble: Vec::new(),
                    tables: vec![NamedTable {
                        name: "t".into(),
                        table,
                    }],
                    notes: String::new(),
                }
            },
        }
    }

    #[test]
    fn run_scenario_renders() {
        let mut opts = SweepOptions::new(false, 1);
        opts.use_cache = false;
        let (report, render) = run_scenario(&test_scenario(), &opts);
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(render.tables.len(), 1);
        assert_eq!(render.tables[0].table.rows().len(), 1);
    }

    #[test]
    fn filtered_run_renders_cell_dump() {
        let mut opts = SweepOptions::new(false, 1);
        opts.use_cache = false;
        opts.filter = Some("A2A".into());
        let (report, render) = run_scenario(&test_scenario(), &opts);
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(render.tables[0].name, "test_cells");
        assert!(!render.tables[0].table.rows().is_empty());
    }

    /// A cell that panics (the hypercube ladder has no rung 99) reaches no
    /// renderer (which would panic on its missing values and lose the run):
    /// the run renders the cell dump, with the failed cell as one
    /// `status | failed` row, and its artifact validates.
    #[test]
    fn failed_cell_renders_cell_dump() {
        let mut scenario = test_scenario();
        scenario.build = |opts| {
            let mut cells = (test_scenario().build)(opts);
            cells.push(SweepCell::new(
                "probe/dead",
                CellSpec::Throughput {
                    topo: TopoSpec::Ladder {
                        family: Family::Hypercube,
                        scale: Scale::Small,
                        index: 99,
                        seed: 1,
                    },
                    tm: TmSpec::AllToAll,
                    tm_seed: 1,
                },
            ));
            cells
        };
        scenario.render = |_, set| {
            let mut table = Table::new("t", &["v"]);
            for o in set.outcomes() {
                table.row_strings(vec![f3(set.num(&o.cell.id, "lower"))]);
            }
            RenderOutput {
                tables: vec![NamedTable {
                    name: "t".into(),
                    table,
                }],
                ..RenderOutput::default()
            }
        };
        let mut opts = SweepOptions::new(false, 1);
        opts.use_cache = false;
        let (report, render) = run_scenario(&scenario, &opts);
        assert_eq!(report.failed_cells, 1);
        let dump = &render.tables[0];
        assert_eq!(dump.name, "test_cells");
        assert_eq!(dump.table.title(), "test: partly failed cell results");
        let status = ["probe/dead", "status", "failed", "false"].map(str::to_string);
        assert!(dump.table.rows().contains(&status.to_vec()));
        let doc = artifact_json(scenario.name, scenario.title, &opts, &report, &render);
        validate_artifact(&doc.to_string()).expect("a run with a failed cell must validate");
    }
}

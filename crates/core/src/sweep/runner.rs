//! The sweep runner: expands, deduplicates, caches and executes cells.
//!
//! Execution is embarrassingly parallel over *unique* cell computations
//! (cells with identical cache keys are computed once and share the result):
//! each is one job on the pool's shared queue, and the solves a cell fans out
//! are shared between threads the same way. A [`SolverWorkspace`] is reused
//! across the cells of one block (all of them when run serially); workspace
//! reuse is result-identical to fresh workspaces (asserted by the solver's
//! determinism tests), and every random seed is pinned inside the cell spec,
//! so results are bit-identical regardless of thread count or execution
//! order.

use crate::eval::EvalConfig;
use crate::sweep::cache::ResultCache;
use crate::sweep::cell::{CellValues, SweepCell};
use std::collections::HashMap;
use std::path::PathBuf;
use tb_flow::SolverWorkspace;
use tb_topology::families::Scale;

/// Options shared by every cell of a sweep run.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Run the paper-scale ladders instead of the reduced ones.
    pub full: bool,
    /// Base RNG seed; scenario expansion derives every cell seed from it.
    pub seed: u64,
    /// `Some(1)` runs the cells one after another on the calling thread; any
    /// other value makes each cell a job of the process-wide pool. (The
    /// pool's size — computing threads, the caller included — is fixed at
    /// first use from `RAYON_NUM_THREADS`; the `sweep` binary's `--jobs` flag
    /// sets that variable before the pool spins up.)
    pub jobs: Option<usize>,
    /// Consult and populate the on-disk result cache.
    pub use_cache: bool,
    /// Cache directory (`results/cache` by default).
    pub cache_dir: PathBuf,
    /// If set, only run cells whose id contains this substring.
    pub filter: Option<String>,
    /// Emit optimality certificates for throughput cells (`--certify`).
    /// Values are bit-identical either way; certified cells additionally
    /// carry the evidence block through the cache and artifacts (and key
    /// separate cache entries, since the stored payload differs). Off by
    /// default so committed goldens stay byte-identical.
    pub certify: bool,
}

impl SweepOptions {
    /// Default options for a given ladder scale and seed.
    pub fn new(full: bool, seed: u64) -> Self {
        SweepOptions {
            full,
            seed,
            jobs: None,
            use_cache: true,
            cache_dir: PathBuf::from("results/cache"),
            filter: None,
            certify: false,
        }
    }

    /// The topology instance ladder scale implied by the options.
    pub fn scale(&self) -> Scale {
        if self.full {
            Scale::Full
        } else {
            Scale::Small
        }
    }

    /// The evaluation configuration implied by the options.
    pub fn eval_config(&self) -> EvalConfig {
        let mut cfg = if self.full {
            EvalConfig::paper()
        } else {
            EvalConfig::fast()
        };
        cfg.seed = self.seed;
        cfg.certify = self.certify;
        cfg
    }
}

/// One executed cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell as expanded by the scenario.
    pub cell: SweepCell,
    /// The computed (or cache-loaded) metrics; empty when the cell failed.
    pub values: CellValues,
    /// Whether the result came from the cache.
    pub cached: bool,
    /// `Some(panic message)` when the cell's computation panicked. Failed
    /// cells carry no values, are never cached, and serialize with
    /// `"status": "failed"` in artifacts.
    pub error: Option<String>,
}

impl CellOutcome {
    /// True when the cell's computation failed (panicked).
    pub fn is_failed(&self) -> bool {
        self.error.is_some()
    }
}

/// The result of running a set of cells.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Outcomes in the cells' expansion order.
    pub outcomes: Vec<CellOutcome>,
    /// Number of unique computations (cells minus intra-run duplicates).
    pub unique_cells: usize,
    /// Unique computations served from the cache.
    pub cache_hits: usize,
    /// Throughput-solver invocations performed during this run.
    pub solver_calls: u64,
    /// Topology constructions performed during this run. [`run_cells`]
    /// measures its own execution; [`run_scenario`](crate::sweep::run_scenario)
    /// widens the window to cover scenario expansion and rendering too, so a
    /// fully cache-hot scenario run reports zero. Like `solver_calls` this
    /// reads a process-global counter, so exact-zero assertions belong in
    /// single-test binaries.
    pub topo_builds: u64,
    /// Unique computations that failed (panicked; see
    /// [`CellOutcome::error`]). The sweep completes anyway — failed cells are
    /// isolated, marked in the artifact, and flagged by `sweep diff`.
    pub failed_cells: usize,
}

/// The canonical cache key of a cell under an evaluation configuration: the
/// solver revision ([`tb_flow::SOLVER_REVISION`]) and the full debug
/// rendering of both. Every seed and solver knob is part of the string, so
/// distinct computations can never share a key, and a solver change that
/// moves values without a config change re-keys every cell.
pub fn cell_key(cell: &SweepCell, cfg: &EvalConfig) -> String {
    key_at_revision(cell, cfg, tb_flow::SOLVER_REVISION)
}

fn key_at_revision(cell: &SweepCell, cfg: &EvalConfig, revision: u32) -> String {
    format!("r{revision}|{:?}|{:?}", cell.spec, cfg)
}

/// Renders a `catch_unwind` payload as text for [`CellOutcome::error`].
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Executes one cell under fault isolation: a panicking computation marks
/// the cell failed, with the panic text, instead of aborting the sweep. A
/// cell is a pure function of its spec and the evaluation configuration, so
/// it is tried once: a retry would panic again. The unwound computation may
/// have left `ws` mid-update, so it is replaced before the next cell uses it.
fn compute_isolated(
    cell: &SweepCell,
    cfg: &EvalConfig,
    ws: &mut SolverWorkspace,
) -> (CellValues, Option<String>) {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    match catch_unwind(AssertUnwindSafe(|| cell.spec.compute(cfg, ws))) {
        Ok(values) => (values, None),
        Err(payload) => {
            *ws = SolverWorkspace::new();
            let error = panic_text(payload.as_ref());
            eprintln!("warning: cell '{}' failed: {error}", cell.id);
            (CellValues::default(), Some(error))
        }
    }
}

/// Runs `f` over the units of work of a sweep (its uncached cells), in
/// order: one after another on the calling thread with `jobs == Some(1)`,
/// otherwise as one pool job each. A [`SolverWorkspace`] is handed along the
/// units that run together.
fn map_units<T: Send, U: Send>(
    opts: &SweepOptions,
    units: Vec<T>,
    f: impl Fn(&mut SolverWorkspace, T) -> U + Sync,
) -> Vec<U> {
    if opts.jobs == Some(1) {
        let mut ws = SolverWorkspace::new();
        units.into_iter().map(|unit| f(&mut ws, unit)).collect()
    } else {
        rayon::map_init(units, SolverWorkspace::new, f)
    }
}

/// Runs `cells` under `opts`, returning per-cell outcomes in input order.
pub fn run_cells(opts: &SweepOptions, cells: Vec<SweepCell>) -> SweepReport {
    let cfg = opts.eval_config();
    let cells: Vec<SweepCell> = match &opts.filter {
        Some(f) => cells.into_iter().filter(|c| c.id.contains(f)).collect(),
        None => cells,
    };
    let solver_before = tb_flow::solver_invocations();
    let builds_before = tb_topology::constructions();

    // Deduplicate: identical specs (same key) are computed once per run.
    let keys: Vec<String> = cells.iter().map(|c| cell_key(c, &cfg)).collect();
    let mut unique_of_key: HashMap<&str, usize> = HashMap::new();
    let mut unique_indices: Vec<usize> = Vec::new(); // index into `cells`
    let mut cell_to_unique: Vec<usize> = Vec::with_capacity(cells.len());
    for (i, key) in keys.iter().enumerate() {
        let next = unique_indices.len();
        let u = *unique_of_key.entry(key.as_str()).or_insert(next);
        if u == next {
            unique_indices.push(i);
        }
        cell_to_unique.push(u);
    }

    type UniqueResult = (CellValues, bool, Option<String>);
    let cache = ResultCache::new(&opts.cache_dir);
    let mut results: Vec<Option<UniqueResult>> = vec![None; unique_indices.len()];
    if opts.use_cache {
        for (slot, &cell_idx) in results.iter_mut().zip(&unique_indices) {
            if let Some(values) = cache.load(&keys[cell_idx]) {
                *slot = Some((values, true, None));
            }
        }
    }

    // Compute the misses, one pool job per cell. Each cell runs under fault
    // isolation (`compute_isolated`): a panicking cell is marked failed,
    // never cached, never fatal.
    let missing: Vec<usize> = results
        .iter()
        .enumerate()
        .filter_map(|(u, r)| r.is_none().then_some(u))
        .collect();
    let run_cell = |ws: &mut SolverWorkspace, u: usize| {
        let cell_idx = unique_indices[u];
        let (values, error) = compute_isolated(&cells[cell_idx], &cfg, ws);
        if opts.use_cache && error.is_none() {
            // Stored as each cell finishes so interrupted runs
            // resume from whatever completed.
            cache.store(&keys[cell_idx], &values);
        }
        (u, values, error)
    };
    let computed = map_units(opts, missing, run_cell);
    for (u, values, error) in computed {
        results[u] = Some((values, false, error));
    }

    let cache_hits = results.iter().flatten().filter(|(_, hit, _)| *hit).count();
    let failed_cells = results
        .iter()
        .flatten()
        .filter(|(_, _, err)| err.is_some())
        .count();
    let unique_cells = results.len();
    let outcomes: Vec<CellOutcome> = cells
        .into_iter()
        .zip(cell_to_unique)
        .map(|(cell, u)| {
            let (values, cached, error) = results[u].clone().expect("every unique cell resolved");
            CellOutcome {
                cell,
                values,
                cached,
                error,
            }
        })
        .collect();
    SweepReport {
        outcomes,
        unique_cells,
        cache_hits,
        solver_calls: tb_flow::solver_invocations() - solver_before,
        topo_builds: tb_topology::constructions() - builds_before,
        failed_cells,
    }
}

/// Indexed access to a run's outcomes for renderers.
#[derive(Debug)]
pub struct CellSet<'a> {
    outcomes: &'a [CellOutcome],
    by_id: HashMap<&'a str, usize>,
}

impl<'a> CellSet<'a> {
    /// Indexes outcomes by cell id.
    pub fn new(outcomes: &'a [CellOutcome]) -> Self {
        let by_id = outcomes
            .iter()
            .enumerate()
            .map(|(i, o)| (o.cell.id.as_str(), i))
            .collect();
        CellSet { outcomes, by_id }
    }

    /// All outcomes in expansion order.
    pub fn outcomes(&self) -> &'a [CellOutcome] {
        self.outcomes
    }

    /// The outcome of the cell with this id.
    ///
    /// # Panics
    /// Panics when the id is unknown — a scenario wiring bug (renderers are
    /// only invoked on unfiltered runs, so every expanded cell is present,
    /// and on runs with no failed cell, so every one has its values).
    pub fn outcome(&self, id: &str) -> &'a CellOutcome {
        let i = *self
            .by_id
            .get(id)
            .unwrap_or_else(|| panic!("no cell with id '{id}'"));
        &self.outcomes[i]
    }

    /// Shorthand: the named metric of the cell with this id.
    pub fn num(&self, id: &str, metric: &str) -> f64 {
        self.outcome(id).values.num(metric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TmSpec;
    use crate::sweep::cell::CellSpec;
    use crate::sweep::topo::TopoSpec;
    use tb_topology::Family;

    /// A cell that really fails: the hypercube ladder has no rung 99, so
    /// building its topology panics.
    fn unbuildable_cell() -> SweepCell {
        SweepCell::new(
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
        )
    }

    fn tiny_cells() -> Vec<SweepCell> {
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

    fn no_cache_opts() -> SweepOptions {
        let mut o = SweepOptions::new(false, 1);
        o.use_cache = false;
        o
    }

    #[test]
    fn duplicate_specs_compute_once() {
        let mut cells = tiny_cells();
        let mut dup = cells[0].clone();
        dup.id = "cube/duplicate".into();
        cells.push(dup);
        let report = run_cells(&no_cache_opts(), cells);
        assert_eq!(report.outcomes.len(), 3);
        assert_eq!(report.unique_cells, 2);
        // NOTE: report.solver_calls reads a process-global counter, so other
        // tests solving concurrently can inflate it — assert only a lower
        // bound here (the exact zero-call contract is tested in the
        // single-test `engine_cache` binary, where the counter is quiet).
        assert!(report.solver_calls >= 2);
        assert!(report.outcomes[0]
            .values
            .bit_identical(&report.outcomes[2].values));
    }

    #[test]
    fn filter_restricts_cells() {
        let mut opts = no_cache_opts();
        opts.filter = Some("A2A".into());
        let report = run_cells(&opts, tiny_cells());
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.outcomes[0].cell.id, "cube/A2A");
    }

    #[test]
    fn cell_set_lookup() {
        let report = run_cells(&no_cache_opts(), tiny_cells());
        let set = CellSet::new(&report.outcomes);
        assert!(set.num("cube/A2A", "lower") > 0.0);
        assert_eq!(set.outcomes().len(), 2);
    }

    #[test]
    #[should_panic]
    fn cell_set_unknown_id_panics() {
        let outcomes = [];
        CellSet::new(&outcomes).outcome("nope");
    }

    #[test]
    fn permanently_failing_cell_is_isolated_not_fatal() {
        let mut cells = tiny_cells();
        cells.insert(0, unbuildable_cell());
        let report = run_cells(&no_cache_opts(), cells);
        assert_eq!(report.outcomes.len(), 3);
        let dead = &report.outcomes[0];
        assert!(dead.is_failed());
        let error = dead.error.as_deref().unwrap();
        assert!(error.contains("unsatisfiable topology spec"), "{error}");
        assert!(dead.values.nums().is_empty());
        assert_eq!(report.failed_cells, 1);
        // The healthy cells around it still computed.
        assert!(report.outcomes[1].values.num("lower") > 0.0);
        assert!(report.outcomes[2].values.num("lower") > 0.0);
    }

    #[test]
    fn an_entry_of_the_previous_solver_revision_is_a_silent_miss() {
        let dir = std::env::temp_dir().join(format!(
            "tb-runner-revision-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = SweepOptions::new(false, 1);
        opts.cache_dir.clone_from(&dir);
        let cell = tiny_cells().remove(0);
        let cfg = opts.eval_config();
        // An entry the previous solver stored for the same spec and config.
        let stale_key = key_at_revision(&cell, &cfg, tb_flow::SOLVER_REVISION - 1);
        assert_ne!(stale_key, cell_key(&cell, &cfg));
        let mut stale = CellValues::default();
        stale.push("lower", -1.0);
        let cache = crate::sweep::cache::ResultCache::new(&dir);
        cache.store(&stale_key, &stale);

        let report = run_cells(&opts, vec![cell.clone()]);
        assert_eq!(report.cache_hits, 0);
        assert!(report.outcomes[0].values.num("lower") > 0.0, "recomputed");
        assert!(
            cache.load(&stale_key).is_some(),
            "the old entry is left alone"
        );
        let quarantined = std::fs::read_dir(&dir)
            .unwrap()
            .any(|e| e.unwrap().path().extension().is_some_and(|x| x == "bad"));
        assert!(!quarantined, "a stale revision is a miss, not corruption");
        assert_eq!(run_cells(&opts, vec![cell]).cache_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_cells_are_never_cached() {
        let dir = std::env::temp_dir().join(format!(
            "tb-runner-failcache-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = SweepOptions::new(false, 1);
        opts.cache_dir.clone_from(&dir);
        let cell = unbuildable_cell();
        let key = cell_key(&cell, &opts.eval_config());
        let report = run_cells(&opts, vec![cell]);
        assert!(report.outcomes[0].is_failed());
        let cache = crate::sweep::cache::ResultCache::new(&dir);
        assert!(
            cache.load(&key).is_none() && !cache.path_for(&key).exists(),
            "failed cells must not populate the cache"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

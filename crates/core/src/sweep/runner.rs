//! The sweep runner: expands, deduplicates, caches and executes cells.
//!
//! Execution is embarrassingly parallel over *unique* cell computations
//! (cells with identical cache keys are computed once and share the result).
//! Every unit of every missing cell — each of the 1 + k solves of a relative
//! or degradation cell, one unit for any other kind — is one item of one
//! flat queue that [`rayon::map`] hands out one at a time; nothing nests.
//! `sweep verify` re-runs cells on the same queue with certificate capture
//! on, so this module holds the only code that runs a cell's units outside
//! [`CellSpec::compute`], the serial reference.
//! Every solve builds its own state and every random seed is pinned inside
//! the cell spec, so results are bit-identical regardless of thread count or
//! execution order.
//!
//! A run counts its own solves and topology builds: a unit runs start to
//! finish on one thread, so the solver and build counters of that thread,
//! read around the unit, give exactly its work, whatever else the process
//! runs meanwhile.

use crate::eval::{Certification, EvalConfig};
use crate::sweep::cache::ResultCache;
use crate::sweep::cell::{Base, CellSpec, CellValues, SweepCell, Unit};
use rayon::Schedule;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use tb_topology::families::Scale;

/// Options shared by every cell of a sweep run.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Run the paper-scale ladders instead of the reduced ones.
    pub full: bool,
    /// Base RNG seed; scenario expansion derives every cell seed from it.
    pub seed: u64,
    /// Threads that run the unit queue, the calling one included: `Some(1)`
    /// runs every unit in order on the calling thread and spawns nothing;
    /// `None` takes `RAYON_NUM_THREADS`, else one thread per core
    /// ([`rayon::default_width`]). The `sweep` binary's `--jobs` lands here.
    pub jobs: Option<usize>,
    /// Consult and populate the on-disk result cache.
    pub use_cache: bool,
    /// Cache directory (`results/cache` by default).
    pub cache_dir: PathBuf,
    /// If set, only run cells whose id contains this substring.
    pub filter: Option<String>,
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
    /// Throughput-solver invocations made by this run's units (other runs
    /// in the same process are not counted).
    pub solver_calls: u64,
    /// Topology constructions made by this run. [`run_cells`] counts its
    /// units'; [`run_scenario`](crate::sweep::run_scenario) adds what
    /// scenario expansion and rendering built on the calling thread, so a
    /// fully cache-hot scenario run reports zero. Other runs in the same
    /// process are not counted.
    pub topo_builds: u64,
    /// Unique computations that failed (panicked; see
    /// [`CellOutcome::error`]). The sweep completes anyway — failed cells are
    /// isolated, marked in the artifact, and flagged by `sweep diff`.
    pub failed_cells: usize,
    /// How the unit queue ran; `None` when every cell came from the cache.
    pub schedule: Option<Schedule>,
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

/// Runs `f` under fault isolation: a panic becomes its text.
fn isolated<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| panic_text(payload.as_ref()))
}

/// Solver calls and topology builds.
#[derive(Clone, Copy, Default)]
pub(crate) struct Work {
    pub(crate) solves: u64,
    pub(crate) builds: u64,
}

/// Runs `f` and returns, with its result, the solves and builds it made on
/// the calling thread.
pub(crate) fn counted<R>(f: impl FnOnce() -> R) -> (R, Work) {
    let (solves, builds) = (tb_flow::solver_invocations(), tb_topology::constructions());
    let r = f();
    let work = Work {
        solves: tb_flow::solver_invocations() - solves,
        builds: tb_topology::constructions() - builds,
    };
    (r, work)
}

/// A cell's run: its values and the verdict on each solve's certificate
/// (none with capture off), or the text of the panic that failed it.
pub(crate) type CellRun = Result<(CellValues, Vec<Certification>), String>;

/// A cell while its units run.
struct OpenCell<'a> {
    spec: &'a CellSpec,
    cfg: &'a EvalConfig,
    /// What the units share: made by the first unit to run, released by the
    /// unit that completes the cell; `Err` holds the text of the panic that
    /// making it raised.
    base: Mutex<Option<Result<Arc<Base>, String>>>,
    /// Each unit's result by index (`Err`: its panic text) until the cell
    /// completes.
    units: Mutex<Vec<Option<Result<Unit, String>>>>,
}

impl<'a> OpenCell<'a> {
    fn new(spec: &'a CellSpec, cfg: &'a EvalConfig, units: usize) -> Self {
        OpenCell {
            spec,
            cfg,
            base: Mutex::new(None),
            units: Mutex::new((0..units).map(|_| None).collect()),
        }
    }

    /// Runs unit `i` under fault isolation. The unit that completes the cell
    /// returns its run, or the panic text of its lowest-indexed failed unit:
    /// a cell is a pure function of its spec and the evaluation
    /// configuration, so a failed unit is tried once, and its cell fails.
    fn run(&self, i: usize, capture: bool) -> Option<CellRun> {
        let base = (self.base.lock().expect("base lock poisoned"))
            .get_or_insert_with(|| isolated(|| self.spec.base()).map(Arc::new))
            .clone();
        let result = base.and_then(|base| isolated(|| self.spec.unit(&base, self.cfg, i, capture)));
        let units = {
            let mut units = self.units.lock().expect("unit lock poisoned");
            units[i] = Some(result);
            if units.iter().any(Option::is_none) {
                return None;
            }
            std::mem::take(&mut *units)
        };
        let base = (self.base.lock().expect("base lock poisoned"))
            .take()
            .expect("the first unit made the base");
        let units: Result<Vec<Unit>, String> = units.into_iter().flatten().collect();
        Some(base.and_then(|base| {
            let units = units?;
            let certifications = (units.iter())
                .filter_map(|unit| match unit {
                    Unit::Solve(e) => e.certification.clone(),
                    Unit::Whole(_) => None,
                })
                .collect();
            isolated(|| (self.spec.combine(&base, units), certifications))
        }))
    }
}

/// Runs `cells` — each a spec under its evaluation configuration — on one
/// queue of `width` threads: every unit of every cell is one item, handed
/// out one at a time, and a cell completes on the thread that runs its last
/// unit, which then calls `done` with the cell's index and its run. With
/// `capture` on, every solve checks its own certificate. Returns each cell's
/// run in input order, the solves and builds the units made, and how the
/// queue ran (`None` when it ran no unit).
pub(crate) fn run_units(
    cells: &[(&CellSpec, &EvalConfig)],
    capture: bool,
    width: usize,
    done: impl Fn(usize, &CellRun) + Sync,
) -> (Vec<CellRun>, Work, Option<Schedule>) {
    let mut open = Vec::with_capacity(cells.len());
    let mut queue = Vec::new();
    for (c, &(spec, cfg)) in cells.iter().enumerate() {
        let units = spec.units(cfg);
        open.push(OpenCell::new(spec, cfg, units));
        queue.extend((0..units).map(|i| (c, i)));
    }
    let (completed, schedule) = rayon::map(width, queue, |(c, i)| {
        let (run, work) = counted(|| open[c].run(i, capture));
        (work, run.inspect(|run| done(c, run)).map(|run| (c, run)))
    });
    let mut work = Work::default();
    let mut runs = Vec::with_capacity(cells.len());
    for (unit, run) in completed {
        work.solves += unit.solves;
        work.builds += unit.builds;
        runs.extend(run);
    }
    runs.sort_by_key(|&(c, _)| c);
    let runs = runs.into_iter().map(|(_, run)| run).collect();
    (runs, work, (schedule.items > 0).then_some(schedule))
}

/// Runs `cells` under `opts`, returning per-cell outcomes in input order.
pub fn run_cells(opts: &SweepOptions, cells: Vec<SweepCell>) -> SweepReport {
    let cfg = opts.eval_config();
    let cells: Vec<SweepCell> = match &opts.filter {
        Some(f) => cells.into_iter().filter(|c| c.id.contains(f)).collect(),
        None => cells,
    };

    // Deduplicate: identical specs (same key) are computed once per run, as
    // the first cell with that key.
    let keys: Vec<String> = cells.iter().map(|c| cell_key(c, &cfg)).collect();
    let mut first_of_key: HashMap<&str, usize> = HashMap::new();
    let first: Vec<usize> = (keys.iter().enumerate())
        .map(|(i, key)| *first_of_key.entry(key).or_insert(i))
        .collect();
    // Every unique cell is missing until the cache serves it.
    let mut missing: Vec<usize> = (0..cells.len()).filter(|&i| first[i] == i).collect();

    type UniqueResult = (CellValues, bool, Option<String>);
    let cache = ResultCache::new(&opts.cache_dir);
    let mut results: Vec<Option<UniqueResult>> = vec![None; cells.len()];
    if opts.use_cache {
        for &i in &missing {
            results[i] = cache.load(&keys[i]).map(|values| (values, true, None));
        }
    }

    // Compute the misses on one unit queue. A panicking unit fails its cell,
    // which is never cached and never fatal.
    missing.retain(|&i| results[i].is_none());
    let specs: Vec<(&CellSpec, &EvalConfig)> =
        missing.iter().map(|&i| (&cells[i].spec, &cfg)).collect();
    let width = opts.jobs.unwrap_or_else(rayon::default_width);
    let (runs, work, schedule) = run_units(&specs, false, width, |m, run| match run {
        // Stored as each cell completes, so an interrupted run resumes from
        // whatever completed.
        Ok((values, _)) if opts.use_cache => cache.store(&keys[missing[m]], values),
        Err(error) => eprintln!("warning: cell '{}' failed: {error}", cells[missing[m]].id),
        _ => {}
    });
    for (&i, run) in missing.iter().zip(runs) {
        results[i] = Some(match run {
            Ok((values, _)) => (values, false, None),
            Err(error) => (CellValues::default(), false, Some(error)),
        });
    }

    let resolved = results.iter().flatten();
    let unique_cells = resolved.clone().count();
    let cache_hits = resolved.clone().filter(|r| r.1).count();
    let failed_cells = resolved.filter(|r| r.2.is_some()).count();
    let outcomes: Vec<CellOutcome> = (cells.into_iter().zip(first))
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
        solver_calls: work.solves,
        topo_builds: work.builds,
        failed_cells,
        schedule,
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
    use tb_topology::{Family, TopoSpec};

    /// A cell that really fails: no radix-2 HyperX design has a million
    /// servers, so building its topology panics.
    fn unbuildable_cell() -> SweepCell {
        SweepCell::new(
            "probe/dead",
            CellSpec::Throughput {
                topo: TopoSpec::HyperX {
                    radix: 2,
                    min_servers: 1_000_000,
                    bisection: 0.4,
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
        // Two exact-LP hypercube solves; the duplicate solves nothing.
        assert_eq!(report.solver_calls, 2);
        assert!(report.outcomes[0]
            .values
            .bit_identical(&report.outcomes[2].values));
    }

    /// A representative that is also a ladder rung is one spec, so the two
    /// cells share a key and solve once.
    #[test]
    fn a_representative_and_its_ladder_rung_compute_once() {
        let cell = |id: &str, topo: TopoSpec| {
            SweepCell::new(
                id,
                CellSpec::Throughput {
                    topo,
                    tm: TmSpec::LongestMatching,
                    tm_seed: 1,
                },
            )
        };
        let rep = cell("rep", Family::Hypercube.representative_spec(1));
        let rung = Family::Hypercube.ladder_spec(Scale::Small, 1, 2).unwrap();
        assert_eq!(
            rung,
            TopoSpec::Hypercube {
                dims: 6,
                servers: 3
            }
        );
        let rung = cell("rung", rung);
        let opts = no_cache_opts();
        assert_eq!(
            cell_key(&rep, &opts.eval_config()),
            cell_key(&rung, &opts.eval_config())
        );
        let report = run_cells(&opts, vec![rep, rung]);
        assert_eq!(report.unique_cells, 1);
        assert!(report.outcomes[0].values.num("lower") > 0.0);
        assert!(report.outcomes[0]
            .values
            .bit_identical(&report.outcomes[1].values));
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

    fn relative_cell(id: &str, servers: usize) -> SweepCell {
        SweepCell::new(
            id,
            CellSpec::Relative {
                topo: TopoSpec::Jellyfish {
                    switches: 8,
                    degree: 3,
                    servers,
                    seed: 1,
                },
                tm: TmSpec::AllToAll,
            },
        )
    }

    /// A degradation cell small enough to solve in milliseconds: a baseline
    /// and three fault draws that each fail two links and a switch.
    fn degradation_cell() -> SweepCell {
        SweepCell::new(
            "cube/faults",
            CellSpec::Degradation {
                topo: TopoSpec::Hypercube {
                    dims: 4,
                    servers: 1,
                },
                tm: TmSpec::AllToAll,
                tm_seed: 1,
                link_fail_frac: 0.0625,
                switch_failures: 1,
                failure_seeds: 3,
                seed: 7,
            },
        )
    }

    /// Units may complete in any order: the last one in combines the cell,
    /// exactly as a serial run does, and releases its base topology.
    #[test]
    fn the_unit_that_completes_a_cell_combines_it_and_releases_its_base() {
        let cfg = no_cache_opts().eval_config();
        let relative = relative_cell("jf/relative", 1);
        let degradation = degradation_cell();
        for (cell, expected_units) in [
            (relative, cfg.random_graph_iterations + 1),
            (degradation, 1 + 3),
        ] {
            let units = cell.spec.units(&cfg);
            assert_eq!(units, expected_units, "{}", cell.id);
            let open = OpenCell::new(&cell.spec, &cfg, units);
            for i in (0..units).rev() {
                let done = open.run(i, false);
                assert_eq!(done.is_some(), i == 0, "{} unit {i}", cell.id);
                let held = open.base.lock().unwrap().is_some();
                assert_eq!(held, i != 0, "{} unit {i}", cell.id);
                if let Some(done) = done {
                    let serial = cell.spec.compute(&cfg);
                    let (values, certifications) = done.unwrap();
                    assert!(values.bit_identical(&serial), "{}", cell.id);
                    assert!(certifications.is_empty(), "capture is off");
                }
            }
        }
    }

    /// Every unit of a serverless cell panics (all-to-all traffic needs two
    /// servers): that cell fails with the unit's panic text at any width,
    /// is not cached, and the cells around it complete and are cached.
    #[test]
    fn a_panicking_unit_fails_only_its_own_cell_and_is_never_cached() {
        for jobs in [1, 2] {
            let dir = std::env::temp_dir().join(format!(
                "tb-runner-unit-panic-{}-{jobs}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut opts = SweepOptions::new(false, 1);
            opts.cache_dir.clone_from(&dir);
            opts.jobs = Some(jobs);
            let cells = vec![
                relative_cell("jf/healthy", 1),
                relative_cell("jf/serverless", 0),
                tiny_cells().remove(0),
            ];
            let keys: Vec<String> = (cells.iter())
                .map(|c| cell_key(c, &opts.eval_config()))
                .collect();
            let report = run_cells(&opts, cells);
            assert_eq!(report.failed_cells, 1);
            let error = report.outcomes[1].error.as_deref().unwrap();
            assert_eq!(error, "all-to-all needs at least two servers");
            assert!(report.outcomes[0].values.num("rel_mean") > 0.0);
            assert!(report.outcomes[2].values.num("lower") > 0.0);
            let cache = ResultCache::new(&dir);
            let stored: Vec<bool> = keys.iter().map(|k| cache.path_for(k).exists()).collect();
            assert_eq!(stored, [true, false, true], "at width {jobs}");
            let _ = std::fs::remove_dir_all(&dir);
        }
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

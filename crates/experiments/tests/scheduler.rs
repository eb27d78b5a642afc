//! Scheduling contracts of the flat unit queue, free of timing: the one
//! interleaving a case needs is forced by a gate (mutex + condvar), so a case
//! passes or fails the same way on any machine. A queue that lacks the
//! property leaves a thread at a gate that never opens; the gate then fails
//! the test after [`GATE_TIMEOUT`] instead of hanging it.
//!
//! CI runs this binary at `RAYON_NUM_THREADS` 1, 2 and 8, which sets the
//! width `rayon::default_width` gives and the engine uses without `--jobs`.
//! On one thread nothing is concurrent, so the concurrency case asserts the
//! inline order instead. A run counts only its own solves and builds, so
//! the cases that solve run side by side.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;
use topobench::sweep::{
    artifact_json, diff_artifacts, run_cells, run_scenario, validate_artifact, CellSpec, SweepCell,
    SweepOptions, TopoSpec,
};
use topobench::{evaluate, EvalConfig, TmSpec};

const GATE_TIMEOUT: Duration = Duration::from_secs(30);

/// Shared state the items of one case update and wait on.
struct Gate<S> {
    state: Mutex<S>,
    changed: Condvar,
}

impl<S> Gate<S> {
    fn new(state: S) -> Self {
        Gate {
            state: Mutex::new(state),
            changed: Condvar::new(),
        }
    }

    fn update<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        let r = f(&mut self.state.lock().unwrap());
        self.changed.notify_all();
        r
    }

    /// Blocks until `open` holds; panics with `what` if it never does.
    fn wait(&self, what: &str, open: impl Fn(&S) -> bool) {
        let state = self.state.lock().unwrap();
        let (_state, timeout) = self
            .changed
            .wait_timeout_while(state, GATE_TIMEOUT, |s| !open(s))
            .unwrap();
        assert!(!timeout.timed_out(), "the queue never let {what}");
    }
}

/// (a) Results land at their item's index and every item runs exactly once,
/// at width 1, at the run's default width and wider than the list.
#[test]
fn results_land_in_input_order_and_each_item_runs_once() {
    let n = rayon::default_width();
    for width in [1, n, 2 * n + 1] {
        for len in [0, 1, n, 4 * n + 1] {
            let runs: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
            let input: Vec<usize> = (0..len).map(|i| 7 * i + 3).collect();
            let (mapped, schedule) = rayon::map(width, input.clone(), |x| {
                runs[(x - 3) / 7].fetch_add(1, Ordering::SeqCst);
                x + 1
            });
            assert_eq!(mapped, input.iter().map(|&x| x + 1).collect::<Vec<_>>());
            assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
            assert_eq!(schedule.items, len, "width {width}");
            assert_eq!(schedule.busy.len(), width.min(len).max(1), "width {width}");
        }
    }
}

/// (b) Width 1 runs the items inline, on the calling thread, in order.
#[test]
fn width_one_runs_the_items_inline_in_order() {
    let me = std::thread::current().id();
    let order = Mutex::new(Vec::new());
    let (_, schedule) = rayon::map(1, (0..12).collect(), |i: usize| {
        assert_eq!(std::thread::current().id(), me);
        order.lock().unwrap().push(i);
    });
    assert_eq!(*order.lock().unwrap(), (0..12).collect::<Vec<_>>());
    assert_eq!((schedule.busy.len(), schedule.off_caller), (1, 0));
}

/// A relative cell small enough to solve in milliseconds.
fn relative_cell() -> SweepCell {
    SweepCell::new(
        "cube/relative/LM",
        CellSpec::Relative {
            topo: TopoSpec::Hypercube {
                dims: 3,
                servers: 1,
            },
            tm: TmSpec::LongestMatching,
        },
    )
}

/// (c) A relative cell's solves are units of their own: two of them meet at
/// a two-party rendezvous, each on its own thread, so neither waits for the
/// cell. The gated units combine to the values the engine's run gives, and
/// the engine queues the cell as its 1 + k units.
#[test]
fn two_units_of_one_relative_cell_meet_on_two_threads() {
    let n = rayon::default_width();
    let cell = relative_cell();
    let mut opts = SweepOptions::new(false, 1);
    opts.use_cache = false;
    let cfg = opts.eval_config();
    let units = cell.spec.units(&cfg);
    assert_eq!(units, cfg.random_graph_iterations + 1);

    let base = cell.spec.base();
    let gate = Gate::new(Vec::<(usize, std::thread::ThreadId)>::new());
    let (solved, _) = rayon::map(n, (0..units).collect(), |i| {
        gate.update(|arrived| arrived.push((i, std::thread::current().id())));
        if n > 1 {
            gate.wait("two units of one cell run at once", |arrived| {
                arrived.len() >= 2
            });
        }
        cell.spec.unit(&base, &cfg, i, false)
    });
    let arrived = gate.state.into_inner().unwrap();
    if n == 1 {
        let order: Vec<usize> = arrived.iter().map(|&(i, _)| i).collect();
        assert_eq!(order, (0..units).collect::<Vec<_>>());
    } else {
        assert_ne!(
            arrived[0].1, arrived[1].1,
            "the first two units met on one thread"
        );
    }
    let gated = cell.spec.combine(&base, solved);

    let report = run_cells(&opts, vec![cell]);
    assert!(report.outcomes[0].values.bit_identical(&gated));
    let schedule = report.schedule.expect("the cell was computed");
    assert_eq!(schedule.items, units);
    assert_eq!(schedule.busy.len(), n.min(units));
}

/// A degradation cell small enough to solve in milliseconds: its baseline
/// and two fault draws of one link each.
fn degradation_cell() -> SweepCell {
    SweepCell::new(
        "cube/faults/A2A",
        CellSpec::Degradation {
            topo: TopoSpec::Hypercube {
                dims: 3,
                servers: 1,
            },
            tm: TmSpec::AllToAll,
            tm_seed: 1,
            link_fail_frac: 0.1,
            switch_failures: 0,
            failure_seeds: 2,
            seed: 1,
        },
    )
}

/// (d) A run counts its own solves and topology builds only: while another
/// thread keeps building and solving small instances, a run reports what
/// the same run reports alone. The run is repeated until two of the other
/// thread's solves finished inside it, so the second of them began there.
#[test]
fn a_run_counts_only_its_own_solves_and_builds_while_another_thread_solves() {
    let mut opts = SweepOptions::new(false, 1);
    opts.use_cache = false;
    let cells = || vec![relative_cell(), degradation_cell()];
    let alone = run_cells(&opts, cells());
    assert_eq!(alone.failed_cells, 0);
    assert!(alone.solver_calls > 0 && alone.topo_builds > 0);

    let stop = AtomicBool::new(false);
    let solved = AtomicUsize::new(0);
    let beside = std::thread::scope(|s| {
        s.spawn(|| {
            let spec = TopoSpec::Hypercube {
                dims: 2,
                servers: 1,
            };
            let cfg = EvalConfig::fast();
            while !stop.load(Ordering::SeqCst) {
                let topo = spec.build().expect("a square builds");
                evaluate(&topo, &TmSpec::AllToAll.generate(&topo, 1), &cfg);
                solved.fetch_add(1, Ordering::SeqCst);
            }
        });
        let beside = (0..100).find_map(|_| {
            let before = solved.load(Ordering::SeqCst);
            let report = run_cells(&opts, cells());
            (solved.load(Ordering::SeqCst) >= before + 2).then_some(report)
        });
        stop.store(true, Ordering::SeqCst);
        beside.expect("no run overlapped a solve of the other thread")
    });
    assert_eq!(
        (beside.solver_calls, beside.topo_builds),
        (alone.solver_calls, alone.topo_builds)
    );
    for (a, b) in alone.outcomes.iter().zip(&beside.outcomes) {
        assert!(a.values.bit_identical(&b.values), "{}", a.cell.id);
    }
}

/// (e) The engine end to end: rung 0 of every family under longest matching
/// (relative cells, so 1+k units each) gives the same artifact, byte for
/// byte, at width 1 and at the run's default width, and matches the
/// committed golden.
#[test]
fn fig05_06_rung0_lm_is_byte_identical_serial_and_pooled_and_matches_the_golden() {
    let scenario = experiments::find_scenario("fig05_06").expect("scenario registered");
    let mut opts = SweepOptions::new(false, 1);
    opts.use_cache = false;
    opts.filter = Some("/0/LM".into());
    let artifact = |opts: &SweepOptions| {
        let (report, render) = run_scenario(&scenario, opts);
        assert_eq!(report.failed_cells, 0);
        artifact_json(scenario.name, scenario.title, opts, &report, &render).to_string()
    };
    let wide = artifact(&opts);
    let serial = artifact(&SweepOptions {
        jobs: Some(1),
        ..opts.clone()
    });
    assert_eq!(wide, serial, "the width changed the artifact");
    validate_artifact(&wide).expect("artifact must validate");

    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/golden/fig05_06.json");
    let golden = std::fs::read_to_string(&golden_path).expect("committed golden");
    let diff = diff_artifacts(&golden, &wide).expect("golden and fresh artifacts must both parse");
    assert!(diff.compared > 0, "nothing compared");
    assert_eq!(diff.bit_identical, diff.compared);
    assert!(
        diff.is_clean(),
        "drifted from the golden:\n{}",
        diff.render()
    );
}

/// (f) The `--jobs` ceiling holds without starting a thread: a width at the
/// ceiling spawns nothing for a single item, and a width past it — from
/// `--jobs` or from `RAYON_NUM_THREADS` — is a usage error (exit 2) before
/// the driver runs anything.
#[test]
fn the_jobs_ceiling_is_checked_without_starting_a_thread() {
    let (_, schedule) = rayon::map(experiments::MAX_JOBS, vec![1], |x: i32| x);
    assert_eq!(schedule.busy.len(), 1);

    let cwd = std::env::temp_dir().join(format!("tb-scheduler-ceiling-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
    let over = (experiments::MAX_JOBS + 1).to_string();
    let sweep = || {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_sweep"));
        cmd.current_dir(&cwd).env_remove("RAYON_NUM_THREADS");
        cmd.args(["--scenario", "theorem1_demo"]);
        cmd
    };
    for (what, mut cmd) in [
        ("--jobs", {
            let mut cmd = sweep();
            cmd.args(["--jobs", &over]);
            cmd
        }),
        ("RAYON_NUM_THREADS", {
            let mut cmd = sweep();
            cmd.env("RAYON_NUM_THREADS", &over);
            cmd
        }),
    ] {
        let out = cmd.output().expect("sweep starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
        let expected = format!(
            "{what} must be at most {}, got {over}",
            experiments::MAX_JOBS
        );
        assert!(stderr.contains(&expected), "{what}: {stderr}");
    }
    assert!(
        !cwd.join("results").exists(),
        "a refused width ran something"
    );
    let _ = std::fs::remove_dir_all(&cwd);
}

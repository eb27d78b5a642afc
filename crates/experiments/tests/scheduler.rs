//! Scheduling contracts of the work-sharing pool, free of timing: every
//! interleaving a case needs is forced by a gate (mutex + condvar), so a case
//! passes or fails the same way on any machine. A scheduler that lacks the
//! property leaves a thread at a gate that never opens; the gate then fails
//! the test after [`GATE_TIMEOUT`] instead of hanging it.
//!
//! CI runs this binary at `RAYON_NUM_THREADS` 1, 2 and 8. On one thread
//! nothing is concurrent, so the concurrency cases assert the inline order
//! instead.

use std::collections::HashSet;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Duration;
use topobench::sweep::{
    artifact_json, diff_artifacts, run_scenario, validate_artifact, SweepOptions,
};

const GATE_TIMEOUT: Duration = Duration::from_secs(30);

/// The cases block pool threads on purpose, and the pool is one per process:
/// they run one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// Shared state the jobs of one case update and wait on.
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
        assert!(!timeout.timed_out(), "the scheduler never let {what}");
    }
}

fn me() -> ThreadId {
    std::thread::current().id()
}

/// (a) Nested work is shared: the two nested tasks of one outer item meet at
/// a two-party rendezvous while the other outer items are queued. With nested
/// tasks run inline by the thread that issued them, the first would wait for
/// the second forever.
#[test]
fn nested_tasks_of_one_outer_item_meet_on_two_threads() {
    let _exclusive = exclusive();
    let n = rayon::current_num_threads();
    let gate = Gate::new(Vec::<String>::new());
    rayon::map_init(
        0..4 * n,
        || (),
        |_, item| {
            gate.update(|trace| trace.push(format!("outer {item}")));
            if item == 0 {
                rayon::map_init(
                    0..2,
                    || (),
                    |_, task| {
                        gate.update(|trace| trace.push(format!("nested {task}")));
                        if n > 1 {
                            gate.wait("both nested tasks run at once", |trace| {
                                trace.iter().filter(|e| e.starts_with("nested")).count() == 2
                            });
                        }
                    },
                );
            }
        },
    );
    let trace = gate.state.into_inner().unwrap();
    assert_eq!(trace.len(), 4 * n + 2);
    if n == 1 {
        let inline = [
            "outer 0", "nested 0", "nested 1", "outer 1", "outer 2", "outer 3",
        ];
        assert_eq!(trace, inline);
    }
}

#[derive(Default)]
struct Straggler {
    /// The thread running outer item 0, whose nested batch is held open.
    owner: Option<ThreadId>,
    nested_started: usize,
    nested_on_helper: bool,
    owner_started_another_item: bool,
    /// Threads other than the owner that have taken an outer item.
    seen: HashSet<ThreadId>,
    trace: Vec<String>,
}

/// (b) A waiting thread takes new outer work: a helper holds the last nested
/// task of outer item 0 open until the thread that owns item 0 has *started
/// another outer item*. With an owner that only waits (or only runs its own
/// nested tasks), the helper would hold forever.
///
/// The gates leave one way through. A thread other than the owner returns
/// from its first outer item once a nested task has started (the nested
/// tasks are then at the front of the queue, so its next job is one of them
/// if any is left), and stays in any later outer item until the owner has
/// started one: such threads take at most 2(N−1) of the 2N+1 other items, so
/// one is left for the owner. The owner's own nested task returns only once
/// a sibling runs on another thread, so the batch cannot finish on the owner.
#[test]
fn a_thread_waiting_on_a_helper_starts_another_outer_item() {
    let _exclusive = exclusive();
    let n = rayon::current_num_threads();
    let gate = Gate::new(Straggler::default());
    let nested_task = |task: usize| {
        let on_owner = gate.update(|s| {
            s.trace.push(format!("nested {task}"));
            s.nested_started += 1;
            let on_owner = s.owner == Some(me());
            s.nested_on_helper |= !on_owner;
            on_owner
        });
        if n == 1 {
            return;
        }
        if on_owner {
            gate.wait("another thread take a nested task", |s| s.nested_on_helper);
        } else {
            gate.wait(
                "the owner start another outer item while its nested task is held",
                |s| s.owner_started_another_item,
            );
        }
    };
    rayon::map_init(
        0..2 * n + 2,
        || (),
        |_, item| {
            gate.update(|s| s.trace.push(format!("outer {item}")));
            if item == 0 {
                gate.update(|s| s.owner = Some(me()));
                rayon::map_init(0..2, || (), |_, task| nested_task(task));
                return;
            }
            gate.wait("outer item 0 start first", |s| s.owner.is_some());
            let (on_owner, first) = gate.update(|s| {
                let on_owner = s.owner == Some(me());
                s.owner_started_another_item |= on_owner;
                (on_owner, s.seen.insert(me()))
            });
            if n > 1 && !on_owner {
                if first {
                    gate.wait("outer item 0 fan out", |s| s.nested_started > 0);
                } else {
                    gate.wait("the owner start another outer item", |s| {
                        s.owner_started_another_item
                    });
                }
            }
        },
    );
    let s = gate.state.into_inner().unwrap();
    assert_eq!(s.trace.len(), 2 * n + 4);
    assert_eq!(s.nested_started, 2);
    assert!(s.owner_started_another_item);
    if n == 1 {
        let inline = [
            "outer 0", "nested 0", "nested 1", "outer 1", "outer 2", "outer 3",
        ];
        assert_eq!(s.trace, inline);
    } else {
        assert!(s.nested_on_helper);
    }
}

/// (c) Results land at their item's index whatever the block size: lists of
/// 0, 1, 4N (one item per block) and 4N+1 (two per block) items. `map_init`
/// state is made once per block (once per list when run inline).
#[test]
fn results_are_placed_by_index_for_every_block_shape() {
    let _exclusive = exclusive();
    let n = rayon::current_num_threads();
    for len in [0, 1, 4 * n, 4 * n + 1] {
        let input: Vec<usize> = (0..len).map(|i| 7 * i + 3).collect();
        let mapped = rayon::map_init(&input, || (), |_, &x| x + 1);
        assert_eq!(mapped, input.iter().map(|&x| x + 1).collect::<Vec<_>>());

        let counted = rayon::map_init(
            0..len,
            || 0usize,
            |count, i| {
                *count += 1;
                (i, *count)
            },
        );
        let block = if n == 1 || len <= 1 {
            len.max(1)
        } else {
            len.div_ceil(4 * n)
        };
        let expected: Vec<(usize, usize)> = (0..len).map(|i| (i, i % block + 1)).collect();
        assert_eq!(counted, expected, "len {len} at width {n}");
    }
}

/// (d) The engine end to end: rung 0 of every family under longest matching
/// (relative cells, so 1+k shared solves each) gives the same artifact, byte
/// for byte, forced serial and on the pool, and matches the committed golden.
#[test]
fn fig05_06_rung0_lm_is_byte_identical_serial_and_pooled_and_matches_the_golden() {
    let _exclusive = exclusive();
    let scenario = experiments::find_scenario("fig05_06").expect("scenario registered");
    let mut opts = SweepOptions::new(false, 1);
    opts.use_cache = false;
    opts.filter = Some("/0/LM".into());
    let artifact = |opts: &SweepOptions| {
        let (report, render) = run_scenario(&scenario, opts);
        assert_eq!(report.failed_cells, 0);
        artifact_json(scenario.name, scenario.title, opts, &report, &render).to_string()
    };
    let pooled = artifact(&opts);
    let serial = rayon::serial(|| {
        artifact(&SweepOptions {
            jobs: Some(1),
            ..opts.clone()
        })
    });
    assert_eq!(pooled, serial, "pool width changed the artifact");
    validate_artifact(&pooled).expect("artifact must validate");

    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/golden/fig05_06.json");
    let golden = std::fs::read_to_string(&golden_path).expect("committed golden");
    let diff =
        diff_artifacts(&golden, &pooled).expect("golden and fresh artifacts must both parse");
    assert!(diff.compared > 0, "nothing compared");
    assert_eq!(diff.bit_identical, diff.compared);
    assert!(
        diff.is_clean(),
        "drifted from the golden:\n{}",
        diff.render()
    );
}

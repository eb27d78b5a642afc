//! The end-to-end run: timed passes of one workload through the `sweep` CLI,
//! one child process at a time, closed loop, no spans.

use crate::cli::{run_sweep, sweep_args, Counts, Expect, Run, Tally};
use crate::workloads::{Invocation, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed samples per run, however short `--seconds` is.
const MIN_SAMPLES: usize = 3;
/// Hot passes timed together as one sample (a pass takes milliseconds).
const HOT_PASSES_PER_SAMPLE: usize = 50;
/// Seed step between the timed passes of a cold workload (see [`run`]).
pub const PASS_SEED_STEP: u64 = 1000;

pub struct Env<'a> {
    pub sweep: &'a Path,
    /// The repository root, for `results/golden/`.
    pub root: &'a Path,
    /// A private directory of this run; every child runs below it.
    pub scratch: &'a Path,
}

#[derive(Debug, Default)]
pub struct E2e {
    /// Seconds per pass, one value per timed sample.
    pub wall_s: Vec<f64>,
    /// Seconds per set-up.
    pub setup_s: Vec<f64>,
    /// Unique cells one pass reports.
    pub cells_per_pass: u64,
    pub tally: Tally,
}

/// How to run a list of invocations, and what to expect of them.
#[derive(Debug, Clone, Copy)]
pub struct How<'a> {
    pub seed: u64,
    pub jobs: usize,
    pub extra: &'a [&'a str],
    pub expect: Expect,
    pub poll_rss: bool,
}

impl How<'_> {
    pub fn cold(seed: u64, jobs: usize) -> Self {
        How {
            seed,
            jobs,
            extra: &[],
            expect: Expect::Cold,
            poll_rss: false,
        }
    }

    pub fn hot(seed: u64, jobs: usize) -> Self {
        How {
            extra: &["--expect-cache-hot"],
            expect: Expect::Hot,
            ..How::cold(seed, jobs)
        }
    }
}

/// Runs `invocations` one after the other in `dir`, checks each, and returns
/// the summed spawn-to-exit time, the summed counts and the runs.
pub fn run_invocations(
    env: &Env,
    dir: &Path,
    invocations: &[Invocation],
    how: How,
    tally: &mut Tally,
) -> std::io::Result<(f64, Counts, Vec<Run>)> {
    let mut wall = 0.0;
    let mut counts = Counts::default();
    let mut runs = Vec::new();
    for inv in invocations {
        let args = sweep_args(inv, how.seed, how.jobs, how.extra);
        let run = run_sweep(env.sweep, dir, &args, how.poll_rss)?;
        wall += run.wall_s;
        if let Some(c) = tally.check(inv, &run, how.expect) {
            counts.add(&c);
        }
        runs.push(run);
    }
    Ok((wall, counts, runs))
}

pub fn fresh_dir(parent: &Path, name: &str) -> std::io::Result<PathBuf> {
    let dir = parent.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn artifact_name(inv: &Invocation) -> String {
    match inv.filter {
        Some(_) => format!("{}.partial.json", inv.scenario),
        None => format!("{}.json", inv.scenario),
    }
}

/// At seed 1 the committed goldens pin every value: the artifacts `dir` holds
/// must be bit-identical to them (a partial artifact diffs cleanly against
/// the full golden).
pub fn check_goldens(env: &Env, dir: &Path, invocations: &[Invocation], tally: &mut Tally) {
    for inv in invocations {
        let golden = env
            .root
            .join("results/golden")
            .join(format!("{}.json", inv.scenario));
        let ours = dir.join("results").join(artifact_name(inv));
        tally.check_diff(env.sweep, dir, false, &golden, &ours);
    }
}

/// The counts of a cold pass that the scenario's grid fixes. The seed decides
/// the remaining one: on an instance small enough for the exact LP the
/// evaluator solves a second time, with the FPTAS, where the LP gives up, and
/// whether it does depends on the random graphs drawn (`--filter /1/LM` makes
/// 27 solver calls at 99 seeds in 100 and 28 at the others, seed 1102 for one).
fn grid_counts(counts: Counts) -> Counts {
    Counts {
        solver_calls: 0,
        ..counts
    }
}

/// Counts must repeat exactly from one of `what` to the next.
fn check_same_counts(what: &str, first: &mut Option<Counts>, counts: Counts, tally: &mut Tally) {
    match first {
        None => *first = Some(counts),
        Some(f) if *f != counts => tally.fail(format!(
            "counts changed between {what}: {f:?} then {counts:?}"
        )),
        Some(_) => {}
    }
}

/// Measures `w` for about `seconds` seconds (never fewer than
/// [`MIN_SAMPLES`] samples).
///
/// Cold workload: a set-up is a fresh directory plus the warm-up invocations;
/// a timed pass runs on a fresh `results/`. Pass `k` runs at seed
/// `seed + 1000·k`: the seed draws the random graphs every cell is compared
/// against, and their solve times differ by several percent from draw to
/// draw, so the median over a run's passes is a median over draws and is
/// steadier from seed to seed than any single draw. Between timed passes the
/// [`grid_counts`] must repeat; between the set-ups, which share a seed, all.
///
/// Hot workload: a set-up is a fresh directory plus the cold fill; the timed
/// passes re-run the fill's invocations with `--expect-cache-hot` on the last
/// fill, at the fill's seed.
pub fn run(w: &Workload, seed: u64, seconds: f64, env: &Env) -> std::io::Result<E2e> {
    let mut out = E2e::default();
    let mut first_counts = None;
    let mut first_setup = None;
    let timed = |clock: &Instant, samples: usize| {
        samples < MIN_SAMPLES || clock.elapsed().as_secs_f64() < seconds
    };

    if !w.hot {
        for i in 0..SETUPS {
            let start = Instant::now();
            let dir = fresh_dir(env.scratch, &format!("setup{i}"))?;
            let (_, counts, _) =
                run_invocations(env, &dir, w.warmup, How::cold(seed, w.jobs), &mut out.tally)?;
            out.setup_s.push(start.elapsed().as_secs_f64());
            check_same_counts("set-ups", &mut first_setup, counts, &mut out.tally);
        }
        let dir = fresh_dir(env.scratch, "work")?;
        let clock = Instant::now();
        while timed(&clock, out.wall_s.len()) {
            let k = out.wall_s.len() as u64;
            fresh_dir(&dir, "results")?;
            let pass_seed = seed.wrapping_add(PASS_SEED_STEP * k);
            let (wall, counts, _) = run_invocations(
                env,
                &dir,
                w.pass,
                How::cold(pass_seed, w.jobs),
                &mut out.tally,
            )?;
            let grid = grid_counts(counts);
            check_same_counts("timed passes", &mut first_counts, grid, &mut out.tally);
            if pass_seed == 1 {
                check_goldens(env, &dir, w.pass, &mut out.tally);
            }
            out.wall_s.push(wall);
        }
    } else {
        let mut dir = PathBuf::new();
        for i in 0..SETUPS {
            let start = Instant::now();
            dir = fresh_dir(env.scratch, &format!("fill{i}"))?;
            let (_, counts, _) =
                run_invocations(env, &dir, w.pass, How::cold(seed, 1), &mut out.tally)?;
            out.setup_s.push(start.elapsed().as_secs_f64());
            check_same_counts("fills", &mut first_setup, counts, &mut out.tally);
        }
        // Keep the fill's artifacts: the hot passes overwrite results/*.json.
        let filled = fresh_dir(&dir, "filled")?;
        for inv in w.pass {
            let name = artifact_name(inv);
            std::fs::copy(dir.join("results").join(&name), filled.join(&name))?;
        }
        let clock = Instant::now();
        while timed(&clock, out.wall_s.len()) {
            let mut sample = 0.0;
            for _ in 0..HOT_PASSES_PER_SAMPLE {
                let (wall, counts, _) =
                    run_invocations(env, &dir, w.pass, How::hot(seed, w.jobs), &mut out.tally)?;
                check_same_counts("hot passes", &mut first_counts, counts, &mut out.tally);
                sample += wall;
            }
            out.wall_s.push(sample / HOT_PASSES_PER_SAMPLE as f64);
        }
        // A hot artifact must carry the values the fill computed.
        out.tally
            .check_diff(env.sweep, &dir, true, &filled, &dir.join("results"));
        if seed == 1 {
            check_goldens(env, &dir, w.pass, &mut out.tally);
        }
    }
    out.cells_per_pass = first_counts.map_or(0, |c| c.unique);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_at_other_seeds_may_differ_in_solver_calls_only() {
        let at = |solver_calls, topo_builds| Counts {
            cells: 9,
            unique: 9,
            cache_hits: 0,
            solver_calls,
            topo_builds,
        };
        let mut tally = Tally::default();
        let mut first = None;
        for counts in [at(27, 27), at(28, 27), at(27, 27)] {
            check_same_counts("timed passes", &mut first, grid_counts(counts), &mut tally);
        }
        assert_eq!(tally.failed, 0);
        check_same_counts(
            "timed passes",
            &mut first,
            grid_counts(at(27, 28)),
            &mut tally,
        );
        assert_eq!((tally.failed, tally.exit_code()), (1, 1));

        // Runs that share a seed are held to every count.
        let mut first = None;
        check_same_counts("set-ups", &mut first, at(27, 27), &mut tally);
        check_same_counts("set-ups", &mut first, at(28, 27), &mut tally);
        assert_eq!(tally.failed, 2);
    }
}

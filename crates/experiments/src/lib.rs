//! The scenario registry and the plumbing of its one driver, `sweep`.
//!
//! Every figure and table of the paper is registered as a **scenario** in
//! [`registry`]: a declarative grid of sweep cells plus a renderer (see
//! [`topobench::sweep`]). The `sweep` binary runs any scenario by name
//! (`sweep --scenario fig02`, or `all`), and `sweep --list` prints the
//! authoritative figure index.
//!
//! Command-line convention (parsed strictly; unknown flags, missing values and
//! a value flag given twice are usage errors, exit 2):
//!
//! * `--scenario NAME` — the scenario to run, or `all`; `--list` prints the
//!   index instead,
//! * `--full`     — run the paper-scale instance ladder (slow); the default
//!   is a reduced ladder that finishes in minutes on a laptop,
//! * `--seed N`   — change the base RNG seed,
//! * `--csv`      — additionally write `results/<figure>.csv` per table (the
//!   unified JSON artifact `results/<scenario>.json` is always written),
//! * `--jobs N`   — computing threads, the calling one included (`1` forces
//!   a fully serial run and spawns nothing; at most [`MAX_JOBS`]; without
//!   it, `RAYON_NUM_THREADS` if set, held to the same rule, else all cores).
//!   Every unit of work is one item of one flat queue: the 1+k solves of a
//!   relative or degradation cell are a unit each, any other cell is one
//!   unit, and nothing nests; results are bit-identical for any `N`. This is the only
//!   parallelism knob: every solve is one serial trajectory, its bound
//!   sweeps included, and splitting the routing of one solve across workers
//!   was measured slower than serial and removed,
//! * `--filter S` — run only cells whose id contains `S` (prints a raw cell
//!   dump instead of the figure tables; artifacts land in
//!   `results/<scenario>.partial.json`, marked `"partial": true`); an empty
//!   filter, or one that matches no cell, is a usage error,
//! * `--no-cache` — bypass the content-keyed result cache,
//! * `--expect-cache-hot`, `--write-golden` — see the `sweep` binary's docs.
//!
//! Results are cached under `results/cache/`, one JSON file per unique
//! (cell spec, eval config) pair, so re-runs and interrupted `--full`
//! ladders resume instead of recomputing; `--seed`/`--full` changes key new
//! cache entries automatically.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use topobench::sweep::{
    artifact_filename, run_scenario, validate_artifact, write_artifact, Scenario, SweepOptions,
    SweepReport,
};

mod scenarios;
pub use scenarios::registry;
pub mod verify;

/// The parsed command line of the `sweep` driver.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Print the scenario index and exit.
    pub list: bool,
    /// Scenario to run (a registry name, or `all`).
    pub scenario: Option<String>,
    /// Fail unless every cell came from the cache, with no solve and no build.
    pub expect_cache_hot: bool,
    /// Also copy each complete artifact to `results/golden/` ([`write_golden`]).
    pub write_golden: bool,
    /// Also write a CSV copy of each table under `results/`.
    pub csv: bool,
    /// What the engine runs with: `--full`, `--seed` (default 1), `--jobs`,
    /// `--filter` and `--no-cache` land here.
    pub sweep: SweepOptions,
}

/// The largest `--jobs` the parser accepts. The unit queue spawns up to
/// `N - 1` threads (8 MiB stacks) and cannot run without them, so a count
/// the system refuses to spawn would abort the process mid-run; a count
/// above this ceiling is a usage error instead, before anything runs.
pub const MAX_JOBS: usize = 256;

/// `--jobs`'s rule, which `RAYON_NUM_THREADS` is held to as well: an integer
/// from 1 to [`MAX_JOBS`]. `name` is where `v` came from, for the message.
fn parse_jobs(name: &str, v: &str) -> Result<usize, String> {
    let jobs: usize = v
        .parse()
        .map_err(|_| format!("{name} requires an integer, got '{v}'"))?;
    if jobs == 0 {
        return Err(format!("{name} must be at least 1"));
    }
    if jobs > MAX_JOBS {
        return Err(format!("{name} must be at most {MAX_JOBS}, got {jobs}"));
    }
    Ok(jobs)
}

/// `RAYON_NUM_THREADS`, when set, must pass `--jobs`'s rule: it is the width
/// of a run without `--jobs`, and of `sweep verify`. (The unit queue itself
/// takes any count, and reads a malformed one as all cores.)
pub fn check_width_env() -> Result<(), String> {
    match std::env::var_os("RAYON_NUM_THREADS") {
        Some(v) => parse_jobs("RAYON_NUM_THREADS", &v.to_string_lossy()).map(drop),
        None => Ok(()),
    }
}

/// The option list `--help` and every usage error print.
const HELP: &str = "  --list           print the scenario index and exit
  --scenario <V>   scenario name to run (or 'all')
  --expect-cache-hot  fail unless every cell is served from the cache (zero solver calls, zero builds)
  --write-golden   also copy each complete artifact to results/golden/<name>.json
  --full           run the paper-scale instance ladder (slow; default: reduced)
  --seed <N>       base RNG seed (default 1)
  --csv            also write results/<figure>.csv (results/<scenario>.json is always written)
  --jobs <N>       computing threads, the calling one included, 1 to 256 (1 = fully
                   serial, no thread spawned; default: RAYON_NUM_THREADS, same range,
                   else all cores). Every unit of work is one item of one queue: each
                   of a relative or degradation cell's 1+k solves, or a whole cell of
                   any other kind; each solve runs on one thread; results do not
                   depend on N
  --filter <S>     only run cells whose id contains S (prints a raw cell dump)
  --no-cache       do not read or write results/cache/
  --help           print this help";

enum ParseAbort {
    Help,
    Usage(String),
}

impl RunOptions {
    /// Parses the driver's arguments, exiting with the help text (`--help`,
    /// status 0) or a usage error (status 2) as appropriate.
    pub fn parse_or_exit(args: &[String]) -> Self {
        // Without `--jobs` the engine takes its width from `RAYON_NUM_THREADS`.
        let width_env = |opts: Self| match opts.sweep.jobs {
            Some(_) => Ok(opts),
            None => check_width_env().map(|()| opts).map_err(ParseAbort::Usage),
        };
        match Self::parse(args).and_then(width_env) {
            Ok(opts) => opts,
            Err(ParseAbort::Help) => {
                println!("Usage: sweep [OPTIONS]\n\nOptions:\n{HELP}");
                std::process::exit(0);
            }
            Err(ParseAbort::Usage(msg)) => {
                eprintln!("error: {msg}\n\nOptions:\n{HELP}");
                std::process::exit(2);
            }
        }
    }

    /// Strict parser: `--help` aborts with help; an unknown flag, a missing or
    /// malformed value and a second occurrence of a value-taking flag are
    /// usage errors, and so is an empty `--filter`, which would match every
    /// cell.
    fn parse(args: &[String]) -> Result<Self, ParseAbort> {
        let mut opts = RunOptions {
            list: false,
            scenario: None,
            expect_cache_hot: false,
            write_golden: false,
            csv: false,
            sweep: SweepOptions::new(false, 1),
        };
        let mut args = args.iter();
        let mut given: Vec<&str> = Vec::new();
        while let Some(arg) = args.next() {
            let flag = arg.as_str();
            let mut value = || -> Result<&String, ParseAbort> {
                if given.contains(&flag) {
                    return Err(ParseAbort::Usage(format!("{flag} given more than once")));
                }
                given.push(flag);
                args.next()
                    .ok_or_else(|| ParseAbort::Usage(format!("{flag} requires an argument")))
            };
            match flag {
                "--help" | "-h" => return Err(ParseAbort::Help),
                "--list" => opts.list = true,
                "--expect-cache-hot" => opts.expect_cache_hot = true,
                "--write-golden" => opts.write_golden = true,
                "--full" => opts.sweep.full = true,
                "--csv" => opts.csv = true,
                "--no-cache" => opts.sweep.use_cache = false,
                "--scenario" => opts.scenario = Some(value()?.clone()),
                "--filter" => {
                    let v = value()?;
                    if v.is_empty() {
                        return Err(ParseAbort::Usage(
                            "--filter requires a non-empty string".into(),
                        ));
                    }
                    opts.sweep.filter = Some(v.clone());
                }
                "--seed" => {
                    let v = value()?;
                    opts.sweep.seed = v.parse().map_err(|_| {
                        ParseAbort::Usage(format!("--seed requires an integer, got '{v}'"))
                    })?;
                }
                "--jobs" => {
                    let jobs = parse_jobs("--jobs", value()?).map_err(ParseAbort::Usage)?;
                    opts.sweep.jobs = Some(jobs);
                }
                other => return Err(ParseAbort::Usage(format!("unknown argument: {other}"))),
            }
        }
        Ok(opts)
    }
}

/// Runs a scenario through the engine and prints its output: preamble, tables
/// (with `--csv` each followed by the path of its CSV copy), the
/// expected-shape notes, then the path of the JSON artifact, which is always
/// written and validated against the schema (filtered runs write
/// `results/<scenario>.partial.json`, never overwriting the complete one).
/// Returns the run report and the artifact's path, or the message of the
/// write that failed.
///
/// # Panics
/// Panics if the written artifact fails schema validation: that is a bug in
/// the artifact writer, not in the run or its environment.
pub fn run_and_emit(
    scenario: &Scenario,
    opts: &RunOptions,
) -> Result<(SweepReport, PathBuf), String> {
    let (report, render) = run_scenario(scenario, &opts.sweep);
    for line in &render.preamble {
        println!("{line}");
    }
    for nt in &render.tables {
        nt.table.print();
        if opts.csv {
            let path = (nt.table.write_csv(&nt.name))
                .map_err(|e| format!("cannot write results/{}.csv: {e}", nt.name))?;
            println!("(wrote {})", path.display());
        }
    }
    if !render.notes.is_empty() {
        println!("\n{}", render.notes);
    }
    let path = Path::new("results").join(artifact_filename(scenario.name, &opts.sweep));
    write_artifact(scenario.name, scenario.title, &opts.sweep, &report, &render)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read back {}: {e}", path.display()))?;
    validate_artifact(&text).unwrap_or_else(|e| panic!("artifact failed schema validation: {e}"));
    println!("(wrote {}, schema valid)", path.display());
    Ok((report, path))
}

/// Copies the artifact a run of `scenario` wrote at `artifact` to
/// `<golden_dir>/<scenario>.json` and returns the golden's path. A run with a
/// failed cell is refused and leaves the golden untouched: a golden pins
/// every cell's values, and a failed cell has none. The error is a message.
pub fn write_golden(
    scenario: &str,
    report: &SweepReport,
    artifact: &Path,
    golden_dir: &Path,
) -> Result<PathBuf, String> {
    let golden = golden_dir.join(format!("{scenario}.json"));
    if report.failed_cells > 0 {
        return Err(format!(
            "{} cell(s) of {scenario} failed; {} left untouched",
            report.failed_cells,
            golden.display()
        ));
    }
    std::fs::create_dir_all(golden_dir)
        .and_then(|()| std::fs::copy(artifact, &golden))
        .map_err(|e| format!("cannot write {}: {e}", golden.display()))?;
    Ok(golden)
}

/// Looks up a scenario by registry name.
pub fn find_scenario(name: &str) -> Option<Scenario> {
    registry().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunOptions, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        RunOptions::parse(&args).map_err(|abort| match abort {
            ParseAbort::Help => "help".into(),
            ParseAbort::Usage(m) => m,
        })
    }

    #[test]
    fn options_default() {
        let o = parse(&[]).unwrap();
        assert!(!o.list && o.scenario.is_none() && !o.csv);
        assert!(!o.sweep.full && o.sweep.use_cache && o.sweep.jobs.is_none());
        assert_eq!(o.sweep.seed, 1);
    }

    #[test]
    fn parses_all_flags() {
        let o = parse(&[
            "--full",
            "--csv",
            "--seed",
            "9",
            "--jobs",
            "2",
            "--filter",
            "A2A",
            "--no-cache",
        ])
        .unwrap();
        assert!(o.sweep.full && o.csv && !o.sweep.use_cache);
        assert_eq!(o.sweep.seed, 9);
        assert_eq!(o.sweep.jobs, Some(2));
        assert_eq!(o.sweep.filter.as_deref(), Some("A2A"));
    }

    #[test]
    fn unknown_flag_is_a_hard_error() {
        let err = parse(&["--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
    }

    #[test]
    fn repeated_value_flag_is_a_hard_error() {
        // The first `--scenario` used to win and the last `--seed`; neither
        // run said that an argument had been dropped.
        for (flag, first, second) in [
            ("--scenario", "search", "fig12"),
            ("--seed", "1", "2"),
            ("--jobs", "1", "2"),
            ("--filter", "A2A", "LM"),
        ] {
            assert_eq!(
                parse(&[flag, first, flag, second]).unwrap_err(),
                format!("{flag} given more than once")
            );
        }
        // Switches carry no value to drop.
        assert!(parse(&["--full", "--full"]).unwrap().sweep.full);
    }

    #[test]
    fn missing_values_are_errors() {
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "xyz"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
    }

    #[test]
    fn jobs_above_the_ceiling_are_a_usage_error() {
        // A count the system cannot spawn must be refused before the queue
        // tries to spawn it.
        let max = MAX_JOBS.to_string();
        assert_eq!(parse(&["--jobs", &max]).unwrap().sweep.jobs, Some(MAX_JOBS));
        let over = (MAX_JOBS + 1).to_string();
        assert_eq!(
            parse(&["--jobs", &over]).unwrap_err(),
            format!("--jobs must be at most {MAX_JOBS}, got {over}")
        );
        assert!(parse(&["--jobs", "100000"]).is_err());
    }

    #[test]
    fn rayon_num_threads_is_held_to_the_jobs_rule() {
        // Without `--jobs` the engine takes its width from the variable,
        // which the queue would accept at any size and read as all cores
        // when malformed.
        let env = |v: &str| parse_jobs("RAYON_NUM_THREADS", v);
        assert_eq!(env("1"), Ok(1));
        assert_eq!(env(&MAX_JOBS.to_string()), Ok(MAX_JOBS));
        assert_eq!(
            env("100000"),
            Err(format!(
                "RAYON_NUM_THREADS must be at most {MAX_JOBS}, got 100000"
            ))
        );
        assert_eq!(env("0"), Err("RAYON_NUM_THREADS must be at least 1".into()));
        for malformed in ["abc", "", " 2", "-1", "2.0"] {
            assert_eq!(
                env(malformed),
                Err(format!(
                    "RAYON_NUM_THREADS requires an integer, got '{malformed}'"
                ))
            );
        }
    }

    #[test]
    fn empty_filter_is_a_usage_error() {
        // An empty filter is a substring of every cell id: it used to run
        // the whole scenario as a partial, filtered run.
        assert_eq!(
            parse(&["--scenario", "theorem1_demo", "--filter", ""]).unwrap_err(),
            "--filter requires a non-empty string"
        );
    }

    #[test]
    fn solver_jobs_flag_is_rejected() {
        // Removed with the batch layer, not kept as a no-op: the benchmark
        // harness keys its "knob not available" path on this usage error.
        assert_eq!(
            parse(&["--solver-jobs", "2"]).unwrap_err(),
            "unknown argument: --solver-jobs"
        );
    }

    #[test]
    fn warm_flag_is_rejected() {
        // Removed with the warm-start feature, not kept as a no-op.
        assert_eq!(parse(&["--warm"]).unwrap_err(), "unknown argument: --warm");
    }

    #[test]
    fn certify_flag_is_rejected() {
        // `sweep verify` re-derives every certificate, so none is stored.
        assert_eq!(
            parse(&["--certify"]).unwrap_err(),
            "unknown argument: --certify"
        );
    }

    #[test]
    fn worker_counts_never_key_the_cache() {
        let serial = parse(&["--jobs", "1"]).unwrap().sweep;
        let wide = parse(&["--jobs", "8"]).unwrap().sweep;
        let cells = (find_scenario("fig02").unwrap().build)(&serial);
        assert_eq!(
            topobench::sweep::cell_key(&cells[0], &serial.eval_config()),
            topobench::sweep::cell_key(&cells[0], &wide.eval_config()),
        );
    }

    #[test]
    fn help_is_recognized() {
        assert_eq!(parse(&["--help"]).unwrap_err(), "help");
    }

    #[test]
    fn extra_flags_are_collected() {
        let o = parse(&[
            "--scenario",
            "fig02",
            "--list",
            "--expect-cache-hot",
            "--write-golden",
        ])
        .unwrap();
        assert_eq!(o.scenario.as_deref(), Some("fig02"));
        assert!(o.list && o.expect_cache_hot && o.write_golden);
    }

    /// A run with a failed cell (no radix-2 HyperX design has a million
    /// servers) never reaches the golden; a healthy run is copied there.
    #[test]
    fn write_golden_refuses_a_run_with_a_failed_cell() {
        use topobench::sweep::{run_cells, CellSpec, SweepCell, TopoSpec};
        use topobench::TmSpec;
        let dir = std::env::temp_dir().join(format!("tb-write-golden-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let golden_dir = dir.join("golden");
        std::fs::create_dir_all(&golden_dir).unwrap();
        let golden = golden_dir.join("probe.json");
        std::fs::write(&golden, "the committed golden").unwrap();
        let artifact = dir.join("probe.json");
        std::fs::write(&artifact, "a fresh artifact").unwrap();
        let cell = |id: &str, topo| {
            let tm = TmSpec::AllToAll;
            SweepCell::new(
                id,
                CellSpec::Throughput {
                    topo,
                    tm,
                    tm_seed: 1,
                },
            )
        };
        let cube = TopoSpec::Hypercube {
            dims: 2,
            servers: 1,
        };
        let dead = TopoSpec::HyperX {
            radix: 2,
            min_servers: 1_000_000,
            bisection: 0.4,
        };
        let mut opts = SweepOptions::new(false, 1);
        opts.use_cache = false;

        let failed = run_cells(&opts, vec![cell("cube", cube.clone()), cell("dead", dead)]);
        assert_eq!(failed.failed_cells, 1);
        let err = write_golden("probe", &failed, &artifact, &golden_dir).unwrap_err();
        assert!(err.starts_with("1 cell(s) of probe failed"), "{err}");
        let kept = std::fs::read_to_string(&golden).unwrap();
        assert_eq!(kept, "the committed golden");

        let healthy = run_cells(&opts, vec![cell("cube", cube)]);
        let written = write_golden("probe", &healthy, &artifact, &golden_dir).unwrap();
        assert_eq!(written, golden);
        let copied = std::fs::read_to_string(&golden).unwrap();
        assert_eq!(copied, "a fresh artifact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn registry_is_complete_and_unique() {
        let names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        assert_eq!(
            names.len(),
            15,
            "all 13 figure/table scenarios plus the failure sweep and the design search registered"
        );
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        for expected in [
            "fig02",
            "fig03",
            "fig04",
            "fig05_06",
            "fig07",
            "fig08",
            "fig09",
            "fig10_11",
            "fig12",
            "fig13_14",
            "fig15",
            "table02",
            "theorem1_demo",
            "failures",
            "search",
        ] {
            assert!(names.contains(&expected), "missing scenario {expected}");
        }
    }
}

//! Shared plumbing for the experiment harness binaries.
//!
//! Every figure and table of the paper is registered as a **scenario** in
//! [`registry`]: a declarative grid of sweep cells plus a renderer (see
//! [`topobench::sweep`]). The per-figure binaries (`fig02`, …, `table02`,
//! `theorem1_demo`) are thin wrappers that run their scenario through the
//! engine; the `sweep` binary drives any scenario by name, and
//! `sweep --list` prints the authoritative figure index (replacing the old
//! hand-maintained per-binary index).
//!
//! Command-line convention (parsed strictly; unknown flags are errors):
//!
//! * `--full`     — run the paper-scale instance ladder (slow); the default
//!   is a reduced ladder that finishes in minutes on a laptop,
//! * `--seed N`   — change the base RNG seed,
//! * `--csv`      — additionally write `results/<figure>.csv` per table and
//!   the unified JSON artifact `results/<scenario>.json`,
//! * `--jobs N`   — computing threads, the calling one included (`1` forces
//!   a fully serial run and spawns nothing). Every cell is one job of a
//!   shared queue, and the 1+k solves of a relative cell are shared between
//!   the threads too; results are bit-identical for any `N`. This is the
//!   only parallelism knob: inside a solve only the read-only bound sweeps
//!   fan out (on the same pool), and splitting the routing of one solve
//!   across workers was measured slower than serial and removed,
//! * `--filter S` — run only cells whose id contains `S` (prints a raw cell
//!   dump instead of the figure tables; artifacts land in
//!   `results/<scenario>.partial.json`, marked `"partial": true`),
//! * `--no-cache` — bypass the content-keyed result cache.
//!
//! Results are cached under `results/cache/`, one JSON file per unique
//! (cell spec, eval config) pair, so re-runs and interrupted `--full`
//! ladders resume instead of recomputing; `--seed`/`--full` changes key new
//! cache entries automatically.

use std::path::PathBuf;
use topobench::sweep::{run_scenario, Scenario, SweepOptions, SweepReport};
use topobench::EvalConfig;

pub use tb_topology::families::Scale;
pub use topobench::sweep::{f3, Table};

mod scenarios;
pub use scenarios::registry;
pub mod verify;

/// Parsed command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Run the paper-scale ladder instead of the reduced one.
    pub full: bool,
    /// Base RNG seed.
    pub seed: u64,
    /// Write a CSV copy of each table and the JSON artifact under `results/`.
    pub csv: bool,
    /// Worker threads for cell execution (None = all cores).
    pub jobs: Option<usize>,
    /// Only run cells whose id contains this substring.
    pub filter: Option<String>,
    /// Bypass the on-disk result cache.
    pub no_cache: bool,
    /// Attach optimality certificates to throughput cells (keys new cache
    /// entries; values stay bit-identical to uncertified runs).
    pub certify: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            full: false,
            seed: 1,
            csv: false,
            jobs: None,
            filter: None,
            no_cache: false,
            certify: false,
        }
    }
}

/// An extra flag a binary accepts on top of the shared set.
#[derive(Debug, Clone, Copy)]
pub struct ExtraFlag {
    /// Flag name, including the leading dashes (e.g. `"--list"`).
    pub name: &'static str,
    /// Whether the flag consumes a value argument.
    pub takes_value: bool,
    /// One-line help text.
    pub help: &'static str,
}

const COMMON_HELP: &str =
    "  --full           run the paper-scale instance ladder (slow; default: reduced)
  --seed <N>       base RNG seed (default 1)
  --csv            also write results/<figure>.csv and results/<scenario>.json
  --jobs <N>       computing threads, the calling one included (1 = fully serial,
                   no thread spawned; default: all cores). Every cell is one job
                   of a shared queue and the 1+k solves of a relative cell are
                   shared between the threads too; results do not depend on N
  --filter <S>     only run cells whose id contains S (prints a raw cell dump)
  --no-cache       do not read or write results/cache/
  --certify        attach optimality certificates to throughput cells (for
                   `sweep verify`; values stay bit-identical, cache keys change)
  --help           print this help";

impl RunOptions {
    /// Parses the shared options from `std::env::args`, exiting with help or
    /// a usage error as appropriate.
    pub fn from_args() -> Self {
        Self::from_args_with(&[]).0
    }

    /// Like [`RunOptions::from_args`], also accepting binary-specific flags;
    /// returns their parsed occurrences as `(name, value)` pairs (the value
    /// is empty for flags that take none).
    pub fn from_args_with(extra: &[ExtraFlag]) -> (Self, Vec<(String, String)>) {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match Self::try_parse(&args, extra) {
            Ok(parsed) => {
                // The pool reads RAYON_NUM_THREADS once at first use; parsing
                // happens before any parallel work, so it takes effect.
                if let Some(jobs) = parsed.0.jobs {
                    std::env::set_var("RAYON_NUM_THREADS", jobs.to_string());
                }
                parsed
            }
            Err(ParseAbort::Help) => {
                let program = std::env::args()
                    .next()
                    .map(|p| {
                        PathBuf::from(p)
                            .file_name()
                            .map(|n| n.to_string_lossy().into_owned())
                            .unwrap_or_default()
                    })
                    .unwrap_or_default();
                println!(
                    "Usage: {program} [OPTIONS]\n\nOptions:\n{}",
                    help_text(extra)
                );
                std::process::exit(0);
            }
            Err(ParseAbort::Usage(msg)) => {
                eprintln!("error: {msg}\n\nOptions:\n{}", help_text(extra));
                std::process::exit(2);
            }
        }
    }

    /// Strict parser: `--help` aborts with help, any unknown flag or missing
    /// value is a hard usage error.
    fn try_parse(
        args: &[String],
        extra: &[ExtraFlag],
    ) -> Result<(Self, Vec<(String, String)>), ParseAbort> {
        let mut opts = RunOptions::default();
        let mut extras = Vec::new();
        let mut i = 0;
        let value_of = |i: &mut usize, flag: &str| -> Result<String, ParseAbort> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| ParseAbort::Usage(format!("{flag} requires an argument")))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--help" | "-h" => return Err(ParseAbort::Help),
                "--full" => opts.full = true,
                "--csv" => opts.csv = true,
                "--no-cache" => opts.no_cache = true,
                "--certify" => opts.certify = true,
                "--seed" => {
                    let v = value_of(&mut i, "--seed")?;
                    opts.seed = v.parse().map_err(|_| {
                        ParseAbort::Usage(format!("--seed requires an integer, got '{v}'"))
                    })?;
                }
                "--jobs" => {
                    let v = value_of(&mut i, "--jobs")?;
                    let jobs: usize = v.parse().map_err(|_| {
                        ParseAbort::Usage(format!("--jobs requires an integer, got '{v}'"))
                    })?;
                    if jobs == 0 {
                        return Err(ParseAbort::Usage("--jobs must be at least 1".into()));
                    }
                    opts.jobs = Some(jobs);
                }
                "--filter" => {
                    let v = value_of(&mut i, "--filter")?;
                    opts.filter = Some(v);
                }
                other => {
                    if let Some(flag) = extra.iter().find(|f| f.name == other) {
                        let value = if flag.takes_value {
                            value_of(&mut i, flag.name)?
                        } else {
                            String::new()
                        };
                        extras.push((flag.name.to_string(), value));
                    } else {
                        return Err(ParseAbort::Usage(format!("unknown argument: {other}")));
                    }
                }
            }
            i += 1;
        }
        Ok((opts, extras))
    }

    /// The topology instance ladder scale implied by the options.
    pub fn scale(&self) -> Scale {
        self.sweep_options().scale()
    }

    /// The evaluation configuration implied by the options.
    pub fn eval_config(&self) -> EvalConfig {
        self.sweep_options().eval_config()
    }

    /// The sweep-engine options implied by the options.
    pub fn sweep_options(&self) -> SweepOptions {
        let mut s = SweepOptions::new(self.full, self.seed);
        s.jobs = self.jobs;
        s.use_cache = !self.no_cache;
        s.filter = self.filter.clone();
        s.certify = self.certify;
        s
    }
}

enum ParseAbort {
    Help,
    Usage(String),
}

fn help_text(extra: &[ExtraFlag]) -> String {
    let mut out = String::new();
    for flag in extra {
        let name = if flag.takes_value {
            format!("{} <V>", flag.name)
        } else {
            flag.name.to_string()
        };
        out.push_str(&format!("  {name:<15}  {}\n", flag.help));
    }
    out.push_str(COMMON_HELP);
    out
}

/// Emits a standalone table to stdout and, if requested, to CSV (kept for
/// ad-hoc callers; scenario output goes through [`run_and_emit`]).
pub fn emit(table: &Table, name: &str, opts: &RunOptions) {
    table.print();
    if opts.csv {
        match table.write_csv(name) {
            Ok(path) => println!("(wrote {})", path.display()),
            Err(e) => eprintln!("failed to write CSV: {e}"),
        }
    }
}

/// Runs a scenario through the engine and prints its output exactly like the
/// pre-engine binaries did: preamble, tables (each followed by its CSV path
/// when `--csv` is set), then the expected-shape notes. With `--csv` the
/// unified JSON artifact is written and validated as well. Returns the run
/// report, the rendered output and the path of the artifact if one was
/// written (for callers that post-process them, e.g. the `sweep` driver's
/// summary, unconditional artifact and `--write-golden` copy).
pub fn run_and_emit(
    scenario: &Scenario,
    opts: &RunOptions,
) -> (SweepReport, topobench::sweep::RenderOutput, Option<PathBuf>) {
    let sopts = opts.sweep_options();
    let (report, render) = run_scenario(scenario, &sopts);
    for line in &render.preamble {
        println!("{line}");
    }
    for nt in &render.tables {
        nt.table.print();
        if opts.csv {
            match nt.table.write_csv(&nt.name) {
                Ok(path) => println!("(wrote {})", path.display()),
                Err(e) => eprintln!("failed to write CSV: {e}"),
            }
        }
    }
    let artifact_path = if opts.csv {
        // Filtered runs write a clearly-marked partial artifact under
        // `results/<scenario>.partial.json` (never overwriting the complete
        // one), so `sweep diff` can still consume the subset.
        Some(write_and_validate_artifact(
            scenario, &sopts, &report, &render,
        ))
    } else {
        None
    };
    if !render.notes.is_empty() {
        println!("\n{}", render.notes);
    }
    (report, render, artifact_path)
}

/// Writes the JSON artifact for a finished run and validates it against the
/// schema, printing the path. Panics on validation failure (a bug in the
/// artifact writer, not in the run).
pub fn write_and_validate_artifact(
    scenario: &Scenario,
    sopts: &SweepOptions,
    report: &SweepReport,
    render: &topobench::sweep::RenderOutput,
) -> PathBuf {
    let path =
        topobench::sweep::write_artifact(scenario.name, scenario.title, sopts, report, render)
            .expect("failed to write JSON artifact");
    let text = std::fs::read_to_string(&path).expect("failed to re-read JSON artifact");
    topobench::sweep::validate_artifact(&text)
        .unwrap_or_else(|e| panic!("artifact failed schema validation: {e}"));
    println!("(wrote {}, schema valid)", path.display());
    path
}

/// Looks up a scenario by registry name.
pub fn find_scenario(name: &str) -> Option<Scenario> {
    registry().into_iter().find(|s| s.name == name)
}

/// Entry point for the per-figure binaries: parse shared flags, run the
/// named scenario, print its tables.
pub fn scenario_main(name: &str) {
    let opts = RunOptions::from_args();
    let scenario =
        find_scenario(name).unwrap_or_else(|| panic!("scenario '{name}' is not registered"));
    let _ = run_and_emit(&scenario, &opts);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunOptions, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        match RunOptions::try_parse(&args, &[]) {
            Ok((o, _)) => Ok(o),
            Err(ParseAbort::Help) => Err("help".into()),
            Err(ParseAbort::Usage(m)) => Err(m),
        }
    }

    #[test]
    fn options_default() {
        let o = RunOptions::default();
        assert!(!o.full);
        assert_eq!(o.scale(), Scale::Small);
        assert!(o.sweep_options().use_cache);
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
            "--certify",
        ])
        .unwrap();
        assert!(o.full && o.csv && o.no_cache);
        assert!(o.certify && o.sweep_options().certify);
        assert_eq!(o.seed, 9);
        assert_eq!(o.jobs, Some(2));
        assert_eq!(o.filter.as_deref(), Some("A2A"));
        assert!(!o.sweep_options().use_cache);
        assert_eq!(o.sweep_options().jobs, Some(2));
    }

    #[test]
    fn unknown_flag_is_a_hard_error() {
        let err = parse(&["--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
    }

    #[test]
    fn missing_values_are_errors() {
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "xyz"]).is_err());
        assert!(parse(&["--jobs", "0"]).is_err());
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
    fn worker_counts_never_key_the_cache() {
        let serial = parse(&["--jobs", "1"]).unwrap().sweep_options();
        let wide = parse(&["--jobs", "8"]).unwrap().sweep_options();
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
        let args: Vec<String> = ["--scenario", "fig02", "--list"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let extra = [
            ExtraFlag {
                name: "--scenario",
                takes_value: true,
                help: "",
            },
            ExtraFlag {
                name: "--list",
                takes_value: false,
                help: "",
            },
        ];
        let (_, extras) = RunOptions::try_parse(&args, &extra)
            .map_err(|_| ())
            .unwrap();
        assert_eq!(extras.len(), 2);
        assert_eq!(extras[0], ("--scenario".to_string(), "fig02".to_string()));
        assert_eq!(extras[1].0, "--list");
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

//! The unified sweep driver: run any registered scenario (or all of them)
//! through the engine, with parallel cell execution and the content-keyed
//! result cache — plus artifact diffing for before/after regression checks.
//!
//! ```text
//! sweep --list                         # scenario index
//! sweep --scenario fig02               # one scenario, reduced scale
//! sweep --scenario all --full --csv    # every scenario at paper scale
//! sweep --scenario fig02 --jobs 2 --expect-cache-hot
//! sweep --scenario all --write-golden  # refresh results/golden/
//!
//! sweep diff results/golden/fig02.json results/fig02.json
//! sweep diff --all results/golden/ results/
//!
//! sweep verify results/fig02.json      # certify each solving cell by running it again
//! sweep verify --all results/golden/
//! ```
//!
//! `sweep` always writes (and validates) the JSON artifact
//! `results/<scenario>.json` (filtered runs:
//! `results/<scenario>.partial.json`, marked `"partial": true`) and prints a
//! cache/solver/build summary per scenario (after a run that computed any
//! unit also a `[sweep] schedule:` line on standard error: threads, units
//! run, units run off the calling thread, each thread's share of the unit
//! queue's wall time spent in units, the caller first, and the longest unit's
//! seconds and share of that wall time).
//! Usage errors — an unknown or repeated flag, an unknown scenario, an empty
//! `--filter` or one that matches no cell, a `--jobs` (or, without it, a
//! `RAYON_NUM_THREADS`) outside 1 to 256 — and failed writes under
//! `results/` are one `error:` line on standard error and exit status 2.
//! `--expect-cache-hot` turns a warm cache into an assertion: the run fails
//! unless every cell came from the cache with zero solver invocations **and
//! zero topology constructions** — CI uses this to prove that both the cache
//! and the construction-free metadata layer work end to end.
//! `--write-golden` copies each complete artifact to `results/golden/`; a
//! scenario with a failed cell is refused with exit status 1 and its golden
//! is left untouched.
//!
//! `sweep diff` compares two artifacts (or, with `--all`, two artifact
//! directories) cell by cell: values must match bit for bit, and
//! added/removed cells, label changes and schema changes are reported.
//! Exit status: 0 clean, 1 regressions, 2 usage/IO errors.
//!
//! `sweep verify` certifies every cell of an artifact that solves throughput
//! LPs: each cell runs again from its spec with certificate capture on, every
//! solve's certificate is checked and must prove that solve's bounds, and the
//! re-run's values must be bit-identical to the reported ones (same exit
//! convention). The cells of every artifact it is given run on one unit
//! queue, whose `[sweep] schedule:` line goes to standard error.

#![forbid(unsafe_code)]

use experiments::{find_scenario, registry, run_and_emit, write_golden, RunOptions};
use topobench::sweep::{diff_dirs, diff_files, DirDiff, Scenario, Schedule, VerifyReport};

fn print_index() {
    println!("Registered scenarios (run with --scenario <name>):\n");
    for s in registry() {
        println!("  {:<14} {}", s.name, s.title);
    }
    println!("\nCells are cached under results/cache/; artifacts go to results/<name>.json.");
    println!("Compare artifacts with: sweep diff [--all] <old> <new>");
}

/// A subcommand's arguments: whether `--all` was given, and its paths.
/// `--help` prints `usage` and exits 0; an unknown flag is a usage error.
fn subcommand_args<'a>(args: &'a [String], usage: &str) -> (bool, Vec<&'a str>) {
    let mut all = false;
    let mut paths = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--all" => all = true,
            "--help" | "-h" => {
                println!("{usage}");
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => fail(&format!("unknown argument: {flag}")),
            path => paths.push(path),
        }
    }
    (all, paths)
}

fn run_diff(args: &[String]) -> i32 {
    let (all, paths) = subcommand_args(
        args,
        "Usage: sweep diff [--all] <old> <new>\n\n\
         Compares two topobench-sweep/v1 artifacts cell by cell, bit for bit.\n\
         With --all, <old> and <new> are directories and every *.json\n\
         artifact present in both is compared; artifacts missing from <new> are\n\
         regressions. Exit status: 0 clean, 1 regressions, 2 usage/IO errors.",
    );
    let [old, new] = paths.as_slice() else {
        fail("sweep diff requires exactly two paths (old, new); see sweep diff --help");
    };
    // One artifact is a tree of one: the same rules and messages apply.
    let diff = if all {
        diff_dirs(old.as_ref(), new.as_ref())
    } else {
        diff_files(old.as_ref(), new.as_ref()).map(|diff| DirDiff {
            diffs: vec![(new.to_string(), diff)],
            only_old: Vec::new(),
            only_new: Vec::new(),
        })
    };
    let diff = diff.unwrap_or_else(|e| fail(&e));
    print!("{}", diff.render());
    if !diff.is_clean() {
        eprintln!("[sweep diff] FAILED: {} regression(s)", diff.regressions());
        return 1;
    }
    println!("[sweep diff] OK: {} artifact(s) compared", diff.diffs.len());
    0
}

fn run_verify(args: &[String]) -> i32 {
    let (all, paths) = subcommand_args(
        args,
        "Usage: sweep verify [--all] <artifact|dir>\n\n\
         Certifies the cells of a topobench-sweep/v1 artifact that solve throughput\n\
         LPs (throughput, relative, Facebook-relative and degradation cells): each\n\
         cell runs again from its spec, every solve with certificate capture on;\n\
         each solve's optimality certificate is checked at the gap the\n\
         configuration promises and must prove that solve's bounds, and the\n\
         re-run's values must be bit-identical to the reported ones. Failed cells\n\
         and cells with a solve that exhausts its budget are reported as\n\
         unverifiable, never certified; cells of other kinds are counted, not\n\
         checked. With --all, every *.json artifact in the directory is verified.\n\
         Every solve of every artifact is one item of one queue on RAYON_NUM_THREADS\n\
         threads (1 to 256), else one per core. At least one cell must be certified\n\
         overall (an artifact or tree with no solving cell must not read as clean).\n\
         Exit status: 0 verified clean, 1 bad cell or nothing certified,\n\
         2 usage/IO errors (every artifact is read before any cell runs).",
    );
    let [path] = paths.as_slice() else {
        fail("sweep verify requires exactly one path; see sweep verify --help");
    };
    experiments::check_width_env().unwrap_or_else(|e| fail(&e));
    let (reports, schedule) =
        experiments::verify::verify_artifacts(path.as_ref(), all).unwrap_or_else(|e| fail(&e));
    if let Some(schedule) = &schedule {
        eprintln!("{}", schedule_line(schedule));
    }
    for report in &reports {
        print!("{}", report.render());
    }
    let sum = |count: fn(&VerifyReport) -> usize| reports.iter().map(count).sum::<usize>();
    let bad = sum(|report| report.bad.len());
    if bad > 0 {
        eprintln!("[sweep verify] FAILED: {bad} bad cell(s)");
        return 1;
    }
    let certified = sum(|report| report.certified);
    if certified == 0 {
        // Zero certificates verify nothing; succeeding here would let an
        // artifact or tree without a solving cell pass CI.
        eprintln!("[sweep verify] FAILED: no certificates in {path} (no solving cell)");
        return 1;
    }
    println!(
        "[sweep verify] OK: {certified} cell(s) certified by {} certificate(s) \
         across {} artifact(s)",
        sum(|report| report.certificates),
        reports.len()
    );
    0
}

/// The `[sweep] schedule:` line of a run's unit queue: threads (the caller
/// included), units run, units run off the calling thread, each thread's
/// share of the queue's wall time spent in units (the caller first), and the
/// longest unit with its share of that wall time.
fn schedule_line(s: &Schedule) -> String {
    let share = |d: std::time::Duration| {
        let share = d.as_secs_f64() / s.wall.as_secs_f64().max(f64::MIN_POSITIVE);
        format!("{:.0}%", 100.0 * share.min(1.0))
    };
    let busy: Vec<String> = s.busy.iter().map(|&d| share(d)).collect();
    format!(
        "[sweep] schedule: threads={} units={} off_caller={} busy={} longest={:.3}s ({})",
        s.busy.len(),
        s.items,
        s.off_caller,
        busy.join(","),
        s.longest.as_secs_f64(),
        share(s.longest)
    )
}

/// Ends the process the way every usage and I/O error does.
fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2);
}

/// A `--filter` that matches no cell of the scenarios about to run (`target`
/// names them) is a usage error: it would compare, verify and
/// `--expect-cache-hot` nothing, and pass. The message lists a few cell ids.
fn require_a_filter_match(target: &str, scenarios: &[Scenario], opts: &RunOptions) {
    let Some(filter) = &opts.sweep.filter else {
        return;
    };
    let cells: Vec<_> = (scenarios.iter())
        .flat_map(|scenario| (scenario.build)(&opts.sweep))
        .collect();
    if !cells.iter().any(|cell| cell.id.contains(filter.as_str())) {
        let ids: Vec<&str> = cells.iter().take(3).map(|cell| cell.id.as_str()).collect();
        fail(&format!(
            "--filter '{filter}' matches no cell of scenario '{target}' \
             (its cell ids look like: {})",
            ids.join(", ")
        ));
    }
}

fn main() {
    // `sweep diff` / `sweep verify` are subcommands with their own argument
    // grammar; dispatch before the strict option parser sees the args.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("diff") {
        std::process::exit(run_diff(&raw[1..]));
    }
    if raw.first().map(String::as_str) == Some("verify") {
        std::process::exit(run_verify(&raw[1..]));
    }

    let opts = RunOptions::parse_or_exit(&raw);
    if opts.list {
        print_index();
        return;
    }
    let Some(target) = &opts.scenario else {
        print_index();
        eprintln!();
        fail("--scenario <name> (or --list) is required");
    };
    if opts.write_golden {
        // The committed goldens are complete, reduced-scale seed-1
        // artifacts (`golden_artifacts` pins them as such); anything else
        // would silently overwrite them with a different spec.
        let refused = if opts.sweep.filter.is_some() {
            Some("--filter (partial artifacts are not golden)")
        } else if opts.sweep.full {
            Some("--full (goldens are reduced-scale)")
        } else if opts.sweep.seed != 1 {
            Some("a --seed other than 1 (goldens are seed 1)")
        } else {
            None
        };
        if let Some(why) = refused {
            fail(&format!("--write-golden cannot be combined with {why}"));
        }
    }

    let scenarios = if target == "all" {
        registry()
    } else {
        match find_scenario(target) {
            Some(s) => vec![s],
            None => fail(&format!("unknown scenario '{target}' (see --list)")),
        }
    };
    require_a_filter_match(target, &scenarios, &opts);

    let mut cache_cold = false;
    for scenario in &scenarios {
        let (report, artifact_path) =
            run_and_emit(scenario, &opts).unwrap_or_else(|message| fail(&message));
        if opts.write_golden {
            let golden_dir = std::path::Path::new("results").join("golden");
            match write_golden(scenario.name, &report, &artifact_path, &golden_dir) {
                Ok(golden_path) => println!("(golden: {})", golden_path.display()),
                // Not a usage or I/O error: the run itself cannot be a golden.
                Err(message) if report.failed_cells > 0 => {
                    eprintln!("error: --write-golden refused: {message}");
                    std::process::exit(1);
                }
                Err(message) => fail(&message),
            }
        }
        println!(
            "\n[sweep] {}: {} cells ({} unique), {} cache hits, {} solver calls, {} topology builds",
            scenario.name,
            report.outcomes.len(),
            report.unique_cells,
            report.cache_hits,
            report.solver_calls,
            report.topo_builds
        );
        if let Some(schedule) = &report.schedule {
            eprintln!("{}", schedule_line(schedule));
        }
        if report.failed_cells > 0 {
            // Failed cells are isolated, not fatal: the artifact records them
            // with "status": "failed" and `sweep diff` flags the change.
            eprintln!(
                "[sweep] warning: {}: {} cell(s) failed (marked in the artifact)",
                scenario.name, report.failed_cells
            );
        }
        if report.cache_hits < report.unique_cells
            || report.solver_calls > 0
            || report.topo_builds > 0
        {
            cache_cold = true;
        }
    }
    if opts.expect_cache_hot && cache_cold {
        eprintln!(
            "error: --expect-cache-hot but at least one cell was computed fresh \
             (or a topology was constructed)"
        );
        std::process::exit(1);
    }
}

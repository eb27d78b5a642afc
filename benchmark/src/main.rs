//! The sweep benchmark: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Builds the real `sweep` binary, runs one workload through it (`--trace 0`:
//! end-to-end metrics, no spans) or takes it apart layer by layer
//! (`--trace 1`: per-layer metrics, spans written to `benchmark/out/`), prints
//! every metric by name with its unit, and ends with one JSON line. Without
//! `--workload` it does both for all four workloads. See README.md.

mod cli;
mod e2e;
mod layers;
mod stats;
mod trace;
mod traced;
mod workloads;

use cli::Tally;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use trace::json_string;
use workloads::{MetricDef, Workload, END_TO_END, PER_LAYER, WORKLOADS};

/// `--seconds` when not given; BENCHMARK.json's `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = || format!("bad value for {flag}: '{value}'");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                out.workload = Some(workloads::find(value).ok_or_else(|| {
                    format!("unknown workload '{value}' (one of {})", names.join(", "))
                })?);
            }
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                out.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown argument: {flag}")),
        }
    }
    Ok(out)
}

fn first_line(program: &str, args: &[&str], cwd: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The last line of a run: the result as one JSON object.
fn result_json(tally: &Tally, defs: &[MetricDef], values: &[f64]) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .zip(values)
        .map(|((name, unit), v)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    )
}

/// Prints the metrics and the JSON line; a value that is not a finite number
/// is a failed check and is printed as -1.
fn report(tally: &mut Tally, defs: &[MetricDef], mut values: Vec<f64>, remarks: &[(&str, String)]) {
    for ((name, unit), v) in defs.iter().zip(&mut values) {
        if !v.is_finite() {
            tally.fail(format!("{name} is not a finite number"));
            *v = -1.0;
        }
        let remark = remarks
            .iter()
            .find(|(n, _)| n == name)
            .map_or("", |(_, r)| r);
        println!("  {name:<46} {v:>14.6} {unit}{remark}");
    }
    println!(
        "  cells attempted {}, failed {}",
        tally.attempted, tally.failed
    );
    // On both streams: whoever keeps only one of them still sees why.
    for note in &tally.notes {
        println!("  FAILED: {note}");
        eprintln!("FAILED: {note}");
    }
    println!("{}", result_json(tally, defs, &values));
}

/// One run in a private scratch directory, removed again however it ends.
fn run_one(
    w: &Workload,
    trace: bool,
    args: &Args,
    sweep: &Path,
    root: &Path,
) -> std::io::Result<i32> {
    let bench_dir = root.join("benchmark");
    let scratch = e2e::fresh_dir(
        &bench_dir.join("scratch"),
        &format!("{}-{}-{}", w.name, u8::from(trace), std::process::id()),
    )?;
    let env = e2e::Env {
        sweep,
        root,
        scratch: &scratch,
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(trace)
    );
    println!("  why: {}", w.why);
    let code = if trace {
        run_traced(w, args, &env, &bench_dir.join("out"))
    } else {
        run_end_to_end(w, args, &env)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    code
}

fn run_end_to_end(w: &Workload, args: &Args, env: &e2e::Env) -> std::io::Result<i32> {
    let mut r = e2e::run(w, args.seed, args.seconds, env)?;
    let wall = stats::summary(&r.wall_s);
    let setup = stats::summary(&r.setup_s);
    let range = |s: stats::Summary| format!("   (n {}, min {:.6}, max {:.6})", s.n, s.min, s.max);
    let values = vec![
        wall.median,
        r.cells_per_pass as f64 / wall.median,
        setup.median,
    ];
    let remarks = [("wall_s", range(wall)), ("setup_s", range(setup))];
    report(&mut r.tally, &END_TO_END, values, &remarks);
    Ok(r.tally.exit_code())
}

fn run_traced(w: &Workload, args: &Args, env: &e2e::Env, out: &Path) -> std::io::Result<i32> {
    let mut t = traced::run(w, args.seed, args.seconds, env)?;
    let path = out.join(format!("trace.{}.jsonl", w.name));
    t.tracer.write_jsonl(&path)?;
    println!(
        "  {} spans in {}; self time by span name:",
        t.tracer.spans().len(),
        path.display()
    );
    for (name, totals) in t.tracer.totals_by_name() {
        println!(
            "    {name:<36} calls {:>6}  total {:>10.6} s  self {:>10.6} s",
            totals.calls, totals.total_s, totals.self_s
        );
    }
    for note in &t.notes {
        println!("  note: {note}");
    }
    report(&mut t.tally, &PER_LAYER, t.values, &[]);
    Ok(t.tally.exit_code())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\nusage: [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]");
            return ExitCode::from(2);
        }
    };
    // The in-process layer calls run on one thread; every child gets its
    // thread count from its own --jobs.
    std::env::set_var("RAYON_NUM_THREADS", "1");

    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ has a parent")
        .to_path_buf();
    let sweep = match cli::build_sweep(&root) {
        Ok(path) => path,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    };
    println!(
        "tb_sweep_bench: nproc {}, available_parallelism {}, {}, commit {}",
        first_line("nproc", &[], &root),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        first_line("rustc", &["--version"], &root),
        first_line("git", &["rev-parse", "--short", "HEAD"], &root),
    );

    let selected: Vec<&Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let modes: &[bool] = match args.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let mut worst = 0;
    for w in selected {
        for &trace in modes {
            match run_one(w, trace, &args, &sweep, &root) {
                Ok(code) => worst = worst.max(code),
                Err(e) => {
                    eprintln!("error: {}: {e}", w.name);
                    return ExitCode::from(3);
                }
            }
        }
    }
    ExitCode::from(worst as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&strings(&[
            "--workload",
            "a2a_serial",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.unwrap().name, "a2a_serial");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, Some(true)));
        let d = parse_args(&[]).unwrap();
        assert!(d.workload.is_none() && d.trace.is_none());
        assert_eq!((d.seed, d.seconds), (1, DEFAULT_SECONDS));
    }

    #[test]
    fn bad_arguments_are_errors() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--trace"],
            &["--frobnicate", "1"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut tally = Tally {
            attempted: 29,
            ..Tally::default()
        };
        let line = result_json(&tally, &END_TO_END, &[1.25, 23.2, 0.5]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 29, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"cells_per_s\": {\"value\": 23.2, \"unit\": \"cells/s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        tally.fail("a check".to_string());
        assert!(
            result_json(&tally, &END_TO_END, &[1.0, 1.0, 1.0]).starts_with("{\"correct\": false")
        );
        assert_eq!(tally.exit_code(), 1);
    }

    #[test]
    fn default_seconds_is_run_seconds_in_benchmark_json() {
        let doc = include_str!("../../BENCHMARK.json");
        assert!(doc.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));
    }
}

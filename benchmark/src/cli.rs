//! Building and running the real `sweep` binary, and checking what it says.
//!
//! End to end goes through the CLI on purpose: it is the contract users see
//! and the one surface solver and engine refactors leave alone.

use crate::workloads::Invocation;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Builds `sweep` (release, offline) from the repository root and returns the
/// executable cargo reports, so a stale binary can never be measured.
pub fn build_sweep(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "tb_experiments",
            "--bin",
            "sweep",
        ])
        .arg("--message-format=json-render-diagnostics")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building sweep failed ({})", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .filter(|l| l.contains("\"compiler-artifact\"") && l.contains("\"name\":\"sweep\""))
        .find_map(|l| {
            let rest = &l[l.find("\"executable\":\"")? + 14..];
            Some(PathBuf::from(&rest[..rest.find('"')?]))
        })
        .filter(|p| p.is_file())
        .ok_or_else(|| "cargo reported no sweep executable".to_string())
}

/// One finished child process.
#[derive(Debug, Clone)]
pub struct Run {
    pub args: Vec<String>,
    /// `None` when a signal ended the process.
    pub exit: Option<i32>,
    /// Spawn to exit.
    pub wall_s: f64,
    pub stdout: String,
    pub stderr: String,
    /// Highest `VmHWM` polled while the child ran; 0 unless asked for.
    pub rss_peak_kb: u64,
}

fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs `sweep <args>` in `cwd` and waits for it, reading its output through
/// pipes. With `poll_rss` the output goes to two files in `cwd` instead and
/// the wait polls the child's peak resident set every 2 ms, which delays
/// noticing the exit by up to that much.
pub fn run_sweep(
    sweep: &Path,
    cwd: &Path,
    args: &[String],
    poll_rss: bool,
) -> std::io::Result<Run> {
    let mut cmd = Command::new(sweep);
    cmd.current_dir(cwd)
        .args(args)
        .stdin(Stdio::null())
        // Knobs the CLI reads from the environment must come from `args` only.
        .env_remove("TB_SOLVER_JOBS")
        .env_remove("TB_SOLVER_TRACE")
        .env_remove("RAYON_NUM_THREADS");
    let start = Instant::now();
    let (status, stdout, stderr, rss_peak_kb) = if poll_rss {
        let (out_path, err_path) = (cwd.join("stdout.txt"), cwd.join("stderr.txt"));
        cmd.stdout(std::fs::File::create(&out_path)?)
            .stderr(std::fs::File::create(&err_path)?);
        let mut child = cmd.spawn()?;
        let mut rss_peak_kb = 0;
        let status = loop {
            if let Some(kb) = vm_hwm_kb(child.id()) {
                rss_peak_kb = rss_peak_kb.max(kb);
            }
            if let Some(status) = child.try_wait()? {
                break status;
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        (
            status,
            std::fs::read(&out_path)?,
            std::fs::read(&err_path)?,
            rss_peak_kb,
        )
    } else {
        let out = cmd.output()?;
        (out.status, out.stdout, out.stderr, 0)
    };
    Ok(Run {
        args: args.to_vec(),
        exit: status.code(),
        wall_s: start.elapsed().as_secs_f64(),
        stdout: String::from_utf8_lossy(&stdout).into_owned(),
        stderr: String::from_utf8_lossy(&stderr).into_owned(),
        rss_peak_kb,
    })
}

/// The arguments of one scenario invocation.
pub fn sweep_args(inv: &Invocation, seed: u64, jobs: usize, extra: &[&str]) -> Vec<String> {
    let mut args = vec!["--scenario".to_string(), inv.scenario.to_string()];
    if let Some(f) = inv.filter {
        args.extend(["--filter".to_string(), f.to_string()]);
    }
    args.extend(["--jobs".to_string(), jobs.to_string()]);
    args.extend(["--seed".to_string(), seed.to_string()]);
    args.extend(extra.iter().map(|s| s.to_string()));
    args
}

/// The counts of one `[sweep] <scenario>: …` summary line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub cells: u64,
    pub unique: u64,
    pub cache_hits: u64,
    pub solver_calls: u64,
    pub topo_builds: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.cells += o.cells;
        self.unique += o.unique;
        self.cache_hits += o.cache_hits;
        self.solver_calls += o.solver_calls;
        self.topo_builds += o.topo_builds;
    }
}

/// Parses `[sweep] fig02: 66 cells (66 unique), 0 cache hits, 66 solver
/// calls, 99 topology builds` into the scenario name and its counts.
pub fn parse_summary(line: &str) -> Option<(&str, Counts)> {
    let rest = line.strip_prefix("[sweep] ")?;
    let (scenario, rest) = rest.split_once(": ")?;
    let mut parts = rest.split(", ");
    let (cells, unique) = parts.next()?.split_once(" cells (")?;
    let number = |part: Option<&str>, suffix: &str| -> Option<u64> {
        part?.strip_suffix(suffix)?.parse().ok()
    };
    let counts = Counts {
        cells: cells.parse().ok()?,
        unique: unique.strip_suffix(" unique)")?.parse().ok()?,
        cache_hits: number(parts.next(), " cache hits")?,
        solver_calls: number(parts.next(), " solver calls")?,
        topo_builds: number(parts.next(), " topology builds")?,
    };
    parts.next().is_none().then_some((scenario, counts))
}

/// Cells the CLI marked failed: `[sweep] warning: <scenario>: N cell(s) failed …`.
fn cli_failed_cells(stderr: &str) -> u64 {
    stderr
        .lines()
        .filter_map(|l| l.strip_prefix("[sweep] warning: "))
        .filter_map(|l| {
            l.split_once(": ")?
                .1
                .split_once(" cell(s) failed")?
                .0
                .parse::<u64>()
                .ok()
        })
        .sum()
}

/// What a run must look like: cold computes everything, hot computes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Cold,
    Hot,
}

/// Cells attempted and failed so far, with one line per violated check.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// A failed check that is not tied to a cell count: counts as one failure.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }

    /// Checks one scenario invocation and returns its counts. A wrong exit
    /// code or summary fails every cell of the invocation; otherwise the
    /// cells the CLI marked failed are counted.
    pub fn check(&mut self, inv: &Invocation, run: &Run, expect: Expect) -> Option<Counts> {
        self.attempted += inv.cells;
        let what = run.args.join(" ");
        let summary = run.stdout.lines().find_map(parse_summary);
        let problem = match (run.exit, summary) {
            (Some(0), Some((scenario, c))) => {
                if scenario != inv.scenario || c.cells != inv.cells {
                    Some(format!(
                        "summary reports {scenario}: {} cells, expected {}: {}",
                        c.cells, inv.scenario, inv.cells
                    ))
                } else if expect == Expect::Cold && (c.cache_hits != 0 || c.solver_calls == 0) {
                    Some(format!(
                        "cold run had {} cache hits, {} solver calls",
                        c.cache_hits, c.solver_calls
                    ))
                } else if expect == Expect::Hot
                    && (c.cache_hits != c.unique || c.solver_calls != 0 || c.topo_builds != 0)
                {
                    Some(format!("hot run was not hot: {c:?}"))
                } else if !run.stdout.contains("schema valid") {
                    Some("no schema-valid artifact reported".to_string())
                } else {
                    None
                }
            }
            (Some(0), None) => Some("no [sweep] summary line".to_string()),
            (code, _) => Some(format!(
                "exit code {code:?}: {}",
                run.stderr.lines().last().unwrap_or("")
            )),
        };
        if let Some(problem) = problem {
            self.failed += inv.cells;
            self.notes.push(format!("sweep {what}: {problem}"));
            return None;
        }
        let failed = cli_failed_cells(&run.stderr);
        if failed > 0 {
            self.failed += failed;
            self.notes
                .push(format!("sweep {what}: {failed} cell(s) marked failed"));
        }
        summary.map(|(_, c)| c)
    }

    /// `sweep diff [--all] old new` must exit 0 (bit-identical values).
    pub fn check_diff(&mut self, sweep: &Path, cwd: &Path, all: bool, old: &Path, new: &Path) {
        let mut args = vec!["diff".to_string()];
        if all {
            args.push("--all".to_string());
        }
        args.extend([old.display().to_string(), new.display().to_string()]);
        match run_sweep(sweep, cwd, &args, false) {
            Ok(run) if run.exit == Some(0) => {}
            Ok(run) => self.fail(format!(
                "sweep {}: exit code {:?}: {}",
                args.join(" "),
                run.exit,
                run.stderr.lines().last().unwrap_or("")
            )),
            Err(e) => self.fail(format!("sweep {}: {e}", args.join(" "))),
        }
    }

    /// 0 when every check held, 1 otherwise.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.failed > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str =
        "[sweep] fig05_06: 29 cells (29 unique), 0 cache hits, 87 solver calls, 87 topology builds";

    #[test]
    fn summary_line_parses() {
        let (scenario, c) = parse_summary(LINE).unwrap();
        assert_eq!(scenario, "fig05_06");
        assert_eq!(
            c,
            Counts {
                cells: 29,
                unique: 29,
                cache_hits: 0,
                solver_calls: 87,
                topo_builds: 87
            }
        );
        let hot = "[sweep] table02: 72 cells (70 unique), 70 cache hits, 0 solver calls, 0 topology builds";
        assert_eq!(parse_summary(hot).unwrap().1.unique, 70);
    }

    #[test]
    fn other_lines_do_not_parse() {
        for line in [
            "",
            "(wrote results/fig02.json, schema valid)",
            "[sweep] warning: fig02: 1 cell(s) failed (marked in the artifact)",
            "[sweep] fig02: 66 cells (66 unique), 0 cache hits, 66 solver calls",
            "[sweep] fig02: 66 cells (66 unique), 0 cache hits, x solver calls, 9 topology builds",
            "[sweep] fig02: 66 cells (66 unique), 0 cache hits, 6 solver calls, 9 topology builds, more",
        ] {
            assert!(parse_summary(line).is_none(), "{line}");
        }
    }

    const INV: Invocation = Invocation {
        scenario: "fig05_06",
        filter: Some("/A2A"),
        cells: 29,
    };

    fn run(exit: i32, stdout: &str, stderr: &str) -> Run {
        Run {
            args: vec!["--scenario".into(), "fig05_06".into()],
            exit: Some(exit),
            wall_s: 1.0,
            stdout: stdout.to_string(),
            stderr: stderr.to_string(),
            rss_peak_kb: 0,
        }
    }

    fn good_stdout() -> String {
        format!("(wrote results/fig05_06.partial.json, schema valid)\n\n{LINE}\n")
    }

    #[test]
    fn a_clean_run_passes_and_exits_zero() {
        let mut t = Tally::default();
        let c = t
            .check(&INV, &run(0, &good_stdout(), ""), Expect::Cold)
            .unwrap();
        assert_eq!(c.solver_calls, 87);
        assert_eq!((t.attempted, t.failed, t.exit_code()), (29, 0, 0));
    }

    #[test]
    fn a_failed_check_counts_every_cell_and_exits_non_zero() {
        // Wrong exit code.
        let mut t = Tally::default();
        assert!(t
            .check(&INV, &run(1, &good_stdout(), ""), Expect::Cold)
            .is_none());
        assert_eq!((t.attempted, t.failed, t.exit_code()), (29, 29, 1));
        assert_eq!(t.notes.len(), 1);

        // A cold run served from the cache, and a hot run that solved.
        let mut t = Tally::default();
        t.check(&INV, &run(0, &good_stdout(), ""), Expect::Hot);
        assert_eq!(t.failed, 29);
        let mut t = Tally::default();
        let hot = good_stdout().replace("0 cache hits, 87 solver", "29 cache hits, 0 solver");
        t.check(&INV, &run(0, &hot, ""), Expect::Cold);
        assert_eq!(t.failed, 29);

        // A grid that is not the pinned one, and a missing summary.
        let mut t = Tally::default();
        t.check(
            &INV,
            &run(0, &good_stdout().replace("29 cells", "30 cells"), ""),
            Expect::Cold,
        );
        t.check(&INV, &run(0, "nothing", ""), Expect::Cold);
        assert_eq!((t.attempted, t.failed), (58, 58));
    }

    #[test]
    fn cells_the_cli_marks_failed_are_counted() {
        let mut t = Tally::default();
        let stderr = "[sweep] warning: fig05_06: 2 cell(s) failed (marked in the artifact)\n";
        assert!(t
            .check(&INV, &run(0, &good_stdout(), stderr), Expect::Cold)
            .is_some());
        assert_eq!((t.attempted, t.failed, t.exit_code()), (29, 2, 1));
    }

    #[test]
    fn scenario_arguments() {
        assert_eq!(
            sweep_args(&INV, 7, 2, &["--expect-cache-hot"]).join(" "),
            "--scenario fig05_06 --filter /A2A --jobs 2 --seed 7 --expect-cache-hot"
        );
    }
}

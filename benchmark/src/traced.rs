//! The traced run: where one workload's time goes, layer by layer.
//!
//! Three parts, every timed call a span: the CLI driven with its knobs (plain
//! serial, `--jobs 2`, `--solver-jobs 2`, `--certify`, the workload's own
//! pass, and the cache-hot fill), the solver-side crates called in-process on
//! the workload's ladder instances, and the sweep engine's steps called
//! in-process on the cache the fill left. Every part runs for every workload,
//! so that no per-layer time is a constant 0.

use crate::cli::{run_sweep, Counts, Run, Tally};
use crate::e2e::{fresh_dir, run_invocations, Env, How};
use crate::layers;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{Invocation, Workload, FILL, PER_LAYER};
use std::path::PathBuf;
use std::time::Instant;

/// `sweep --list` runs behind `sweep_cli.spawn_ms`.
const SPAWNS: usize = 50;
/// Repetitions of the in-process engine walk (its steps take microseconds).
const ENGINE_REPS: usize = 10;
/// Share of `--seconds` a hot workload's traced run spends re-running passes.
const HOT_SHARE: f64 = 0.4;

pub struct Traced {
    /// One value per [`PER_LAYER`] entry, in that order.
    pub values: Vec<f64>,
    pub tally: Tally,
    pub tracer: Tracer,
    /// Remarks that are not failures (a knob the CLI does not know).
    pub notes: Vec<String>,
}

/// A list of invocations run cold, once, through the CLI in a directory of
/// its own.
struct ColdWork {
    dir: PathBuf,
    wall_s: f64,
    counts: Counts,
    runs: Vec<Run>,
    /// The CLI refused a flag of this variant with a usage error (exit 2).
    rejected: bool,
}

fn cold_work(
    tr: &mut Tracer,
    env: &Env,
    invocations: &[Invocation],
    label: &str,
    how: How,
    tally: &mut Tally,
) -> std::io::Result<ColdWork> {
    let dir = fresh_dir(env.scratch, label)?;
    // Check into a tally of its own first: a usage error on an optional flag
    // is reported as "not available", never as failed cells.
    let mut own = Tally::default();
    let (wall_s, counts, runs) = tr.span("sweep_cli.cold_work", label, |_| {
        run_invocations(env, &dir, invocations, how, &mut own)
    })?;
    let rejected = !how.extra.is_empty() && runs.iter().any(|r| r.exit == Some(2));
    if !rejected {
        tally.attempted += own.attempted;
        tally.failed += own.failed;
        tally.notes.append(&mut own.notes);
    }
    Ok(ColdWork {
        dir,
        wall_s,
        counts,
        runs,
        rejected,
    })
}

fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

pub fn run(w: &Workload, seed: u64, seconds: f64, env: &Env) -> std::io::Result<Traced> {
    let mut tr = Tracer::new(w.name);
    let mut tally = Tally::default();
    let mut notes = Vec::new();

    // Process start: `sweep --list` does nothing else.
    let mut spawn_s = Vec::new();
    let list = ["--list".to_string()];
    for _ in 0..SPAWNS {
        let run = tr.span("sweep_cli.spawn", "--list", |_| {
            run_sweep(env.sweep, env.scratch, &list, false)
        })?;
        if run.exit != Some(0) {
            tally.fail(format!("sweep --list: exit code {:?}", run.exit));
        }
        spawn_s.push(run.wall_s);
    }
    let spawn_s = median(&spawn_s);

    // The CLI with its knobs, on the workload's cold work: its pass, which for
    // a hot workload is its fill. Only the plain serial run polls the child's
    // RSS.
    let serial_how = How {
        poll_rss: true,
        ..How::cold(seed, 1)
    };
    let serial = cold_work(&mut tr, env, w.pass, "serial", serial_how, &mut tally)?;
    let jobs2 = cold_work(
        &mut tr,
        env,
        w.pass,
        "jobs2",
        How::cold(seed, 2),
        &mut tally,
    )?;
    let mut knob_x = |tr: &mut Tracer, label: &str, extra: &[&str]| -> std::io::Result<f64> {
        let how = How {
            extra,
            ..How::cold(seed, 1)
        };
        let run = cold_work(tr, env, w.pass, label, how, &mut tally)?;
        if run.rejected {
            notes.push(format!(
                "the CLI rejects {}: reported as -1",
                extra.join(" ")
            ));
            return Ok(-1.0);
        }
        Ok(run.wall_s / serial.wall_s)
    };
    let solver_jobs2_x = knob_x(&mut tr, "solver_jobs2", &["--solver-jobs", "2"])?;
    let certify_x = knob_x(&mut tr, "certify", &["--certify"])?;
    // The serial fill: a hot workload's serial cold work is that already.
    let own_fill = if w.hot {
        None
    } else {
        let how = How::cold(seed, 1);
        Some(cold_work(&mut tr, env, &FILL, "fill", how, &mut tally)?)
    };
    let fill = own_fill.as_ref().unwrap_or(&serial);

    // The workload's own pass: a cold one was just run; a hot one re-runs on
    // the serial fill for a share of the time.
    let (pass_wall_s, pass_counts, invocation_s) = if w.hot {
        let mut walls = Vec::new();
        let mut invocation_s = Vec::new();
        let mut counts = Counts::default();
        let clock = Instant::now();
        while walls.is_empty() || clock.elapsed().as_secs_f64() < seconds * HOT_SHARE {
            let (wall, c, runs) = tr.span("sweep_cli.pass", "hot", |_| {
                run_invocations(env, &serial.dir, w.pass, How::hot(seed, w.jobs), &mut tally)
            })?;
            walls.push(wall);
            counts = c;
            invocation_s.extend(runs.iter().map(|r| r.wall_s));
        }
        (median(&walls), counts, invocation_s)
    } else {
        let own = if w.jobs == 1 { &serial } else { &jobs2 };
        let invocation_s = own.runs.iter().map(|r| r.wall_s).collect();
        (own.wall_s, own.counts, invocation_s)
    };

    // The crates behind the cells, in-process, one thread.
    let solver = tr.span("solver_layers", w.name, |tr| {
        layers::solver_layers(tr, seed, &w.instances)
    });
    let cells: u64 = w.pass.iter().map(|i| i.cells).sum();
    if !w.hot && solver.instances != cells {
        tally.fail(format!(
            "{} ladder instances traced, the pass has {cells} cells",
            solver.instances
        ));
    }
    let (problems, mut remarks) = tr.span("lp_and_cut_layers", w.name, |tr| {
        layers::lp_and_cut_layers(tr, seed)
    });
    for problem in problems {
        tally.fail(problem);
    }
    notes.append(&mut remarks);
    // The engine's steps, on the fill's scenarios: they run unfiltered, so the
    // renderers run too, and their 85 cells time steadier than a pass's 9.
    let store_dir = env.scratch.join("store");
    let engine = tr.span("engine_layers", w.name, |tr| {
        let cache_dir = fill.dir.join("results/cache");
        layers::engine_layers(tr, seed, &FILL, &cache_dir, &store_dir, ENGINE_REPS)
    });
    for problem in &engine.problems {
        tally.fail(problem.clone());
    }

    let relative = tr.durations("tb_core.eval.relative_throughput");
    let relative_s = tr.total_s("tb_core.eval.relative_throughput");
    let engine_pass_s = ["hot_run", "artifact_emit", "artifact_validate"]
        .iter()
        .map(|step| tr.total_s(&format!("tb_core.sweep.{step}")))
        .sum::<f64>()
        / ENGINE_REPS as f64;
    // What the in-process spans are held against, and which of them cover it:
    // a hot pass is one engine walk, the serial CLI run of a cold workload's
    // cells is their evaluation (the engine's share of it is under 1 %).
    let (cli_wall_s, covered_s) = if w.hot {
        (pass_wall_s, engine_pass_s)
    } else {
        (serial.wall_s, relative_s)
    };
    let spawns_s = spawn_s * w.pass.len() as f64;
    let solve_s = tr.total_s("tb_flow.solve");
    let us = 1e6;
    let fill_s = |scenario: &str| -> f64 {
        let runs = FILL.iter().zip(&fill.runs);
        runs.filter(|(inv, _)| inv.scenario == scenario)
            .map(|(_, r)| r.wall_s)
            .sum()
    };
    let parallelism = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let value = |name: &str| -> f64 {
        match name {
            "tb_flow.solve_s" => solve_s,
            "tb_flow.phases" => solver.phases as f64,
            "tb_flow.ms_per_phase" => per(solve_s * 1e3, solver.phases),
            "tb_flow.gap_max" => solver.gap_max,
            "tb_graph.sssp_ns_per_settle" => {
                per(tr.total_s("tb_graph.sssp") * 1e9, solver.sssp_settles)
            }
            "tb_graph.sssp_settles" => solver.sssp_settles as f64,
            "tb_graph.apsp_s" => tr.total_s("tb_graph.apsp"),
            "tb_core.eval.relative_s" => relative_s,
            "tb_core.eval.cell_p50_s" => median(&relative),
            "tb_core.eval.cell_max_s" => percentile(&relative, 100.0),
            "tb_topology.ladder_build_s" => tr.total_s("tb_topology.ladder_build"),
            "tb_topology.same_equipment_s" => tr.total_s("tb_topology.same_equipment"),
            "tb_topology.ladder_switches" => solver.switches as f64,
            "tb_traffic.gen_s" => tr.total_s("tb_traffic.gen"),
            "tb_traffic.flows" => solver.flows as f64,
            "tb_lp.exact_small_s" => tr.total_s("tb_lp.exact_small"),
            "tb_cuts.estimate_s" => tr.total_s("tb_cuts.estimate"),
            "tb_core.sweep.key_us_per_cell" => {
                per(tr.total_s("tb_core.sweep.key") * us, engine.cells)
            }
            "tb_core.sweep.cache_load_us_per_cell" => {
                per(tr.total_s("tb_core.sweep.cache_load") * us, engine.cells)
            }
            "tb_core.sweep.cache_store_us_per_cell" => {
                per(tr.total_s("tb_core.sweep.cache_store") * us, engine.cells)
            }
            "tb_core.sweep.cache_bytes_per_cell" => per(engine.cache_bytes as f64, engine.cells),
            "tb_core.sweep.hot_run_us_per_cell" => {
                per(tr.total_s("tb_core.sweep.hot_run") * us, engine.cells)
            }
            "tb_core.sweep.artifact_emit_us_per_cell" => {
                per(tr.total_s("tb_core.sweep.artifact_emit") * us, engine.cells)
            }
            "tb_core.sweep.artifact_validate_us_per_cell" => per(
                tr.total_s("tb_core.sweep.artifact_validate") * us,
                engine.cells,
            ),
            "tb_experiments.expand_us_per_cell" => {
                per(tr.total_s("tb_experiments.expand") * us, engine.expanded)
            }
            "tb_experiments.render_us_per_cell" => {
                per(tr.total_s("tb_experiments.render") * us, engine.rendered)
            }
            "sweep_cli.spawn_ms" => spawn_s * 1e3,
            "sweep_cli.pass_wall_s" => pass_wall_s,
            "sweep_cli.invocation_p50_ms" => median(&invocation_s) * 1e3,
            "sweep_cli.invocation_p99_ms" => percentile(&invocation_s, 99.0) * 1e3,
            "sweep_cli.invocations" => invocation_s.len() as f64,
            "sweep_cli.cells" => pass_counts.unique as f64,
            "sweep_cli.solver_calls" => pass_counts.solver_calls as f64,
            "sweep_cli.topo_builds" => pass_counts.topo_builds as f64,
            "sweep_cli.cache_hits" => pass_counts.cache_hits as f64,
            "sweep_cli.child_rss_peak_mb" => {
                serial.runs.iter().map(|r| r.rss_peak_kb).max().unwrap_or(0) as f64 / 1024.0
            }
            "sweep_cli.engine_overhead_s" => {
                cli_wall_s - spawns_s - if w.hot { 0.0 } else { relative_s }
            }
            "sweep_cli.jobs2_speedup_x" => serial.wall_s / jobs2.wall_s,
            "sweep_cli.available_parallelism" => parallelism as f64,
            "sweep_cli.solver_jobs2_x" => solver_jobs2_x,
            "sweep_cli.certify_x" => certify_x,
            "trace.coverage" => (covered_s + spawns_s) / cli_wall_s,
            other => match other.strip_prefix("sweep_cli.fill_s.") {
                Some(scenario) => fill_s(scenario),
                None => unreachable!("no value for per-layer metric {other}"),
            },
        }
    };
    // An empty float sum is -0.0; adding 0.0 prints it as plain 0.
    let values = PER_LAYER
        .iter()
        .map(|(name, _)| value(name) + 0.0)
        .collect();
    Ok(Traced {
        values,
        tally,
        tracer: tr,
        notes,
    })
}

//! The adapter: the only file of the benchmark that names library items.
//!
//! Each function calls public functions of one or more crates inside spans
//! and returns the counts that go with them; the times are read back from
//! the spans. When a library signature changes, this file is the one to edit.

use crate::trace::Tracer;
use crate::workloads::{Instances, Invocation, Tm};
use std::hint::black_box;
use std::path::Path;

use experiments::registry;
use tb_cuts::estimate_sparsest_cut;
use tb_flow::{ExactLpSolver, FleischerSolver};
use tb_graph::{apsp_unweighted, sssp_csr, CsrGraph, SsspWorkspace};
use tb_topology::families::{Scale, ALL_FAMILIES};
use tb_topology::jellyfish::same_equipment;
use topobench::sweep::{
    artifact_json, cell_key, run_scenario, validate_artifact, CellSet, ResultCache, SweepOptions,
};
use topobench::{relative_throughput, EvalConfig, TmSpec};

/// The evaluation configuration `sweep --seed <seed>` uses at reduced scale.
fn eval_config(seed: u64) -> EvalConfig {
    let mut cfg = EvalConfig::fast();
    cfg.seed = seed;
    cfg
}

/// Full SSSP sweeps (one Dijkstra from every node) per instance: one sweep of
/// a small graph ends within microseconds.
const SSSP_SWEEPS: usize = 10;

/// Counts over a workload's ladder instances.
#[derive(Debug, Default)]
pub struct SolverCounts {
    pub instances: u64,
    pub switches: u64,
    pub flows: u64,
    pub phases: u64,
    pub gap_max: f64,
    pub sssp_settles: u64,
}

/// For every ladder instance behind a cold workload's cells: build it, build
/// its same-equipment random graphs, generate the TM, solve it, sweep the
/// SSSP kernel over it, and evaluate the cell the way the engine does.
pub fn solver_layers(tr: &mut Tracer, seed: u64, inst: &Instances) -> SolverCounts {
    let spec = match inst.tm {
        Tm::LongestMatching => TmSpec::LongestMatching,
        Tm::AllToAll => TmSpec::AllToAll,
    };
    let cfg = eval_config(seed);
    let mut c = SolverCounts::default();
    for family in ALL_FAMILIES {
        for index in 0..family.ladder_len(Scale::Small) {
            if inst.rung.is_some_and(|r| r != index) {
                continue;
            }
            let id = format!("{}/{}/{}", family.name(), index, spec.label());
            tr.span("cell", &id, |tr| {
                let topo = tr.span("tb_topology.ladder_build", &id, |_| {
                    family.ladder_instance(Scale::Small, seed, index)
                });
                let Some(topo) = topo else { return };
                c.instances += 1;
                c.switches += topo.num_switches() as u64;
                // The same two random graphs `relative_throughput` compares against.
                for i in 0..cfg.random_graph_iterations as u64 {
                    tr.span("tb_topology.same_equipment", &id, |_| {
                        black_box(same_equipment(&topo, seed.wrapping_add(1000 + i)));
                    });
                }
                let tm = tr.span("tb_traffic.gen", &id, |_| spec.generate(&topo, seed));
                c.flows += tm.num_flows() as u64;

                let solver =
                    FleischerSolver::new(cfg.solver.with_auto_aggregation(topo.num_switches()));
                tr.span("tb_flow.solve", &id, |_| {
                    black_box(solver.solve(&topo.graph, &tm));
                });
                let outcome = tr.span("tb_flow.solve_outcome", &id, |_| {
                    solver.solve_outcome(&topo.graph, &tm)
                });
                c.phases += outcome.stats.phases as u64;
                c.gap_max = c.gap_max.max(outcome.bounds.gap());

                let csr = CsrGraph::from_graph(&topo.graph);
                let lens = vec![1.0; topo.graph.num_edges()];
                let mut ws = SsspWorkspace::new();
                tr.span("tb_graph.sssp", &id, |_| {
                    for _ in 0..SSSP_SWEEPS {
                        for src in 0..csr.num_nodes() {
                            sssp_csr(&csr, src, &lens, None, &mut ws);
                            c.sssp_settles += ws.settled_count() as u64;
                        }
                    }
                });
                tr.span("tb_graph.apsp", &id, |_| {
                    black_box(apsp_unweighted(&topo.graph));
                });

                tr.span("tb_core.eval.relative_throughput", &id, |_| {
                    black_box(relative_throughput(&topo, &spec, &cfg));
                });
            });
        }
    }
    c
}

/// The two layers only the mixed-figure scenarios reach: the exact LP on the
/// ladder instances small enough for the evaluator's exact path, and the
/// sparsest-cut estimators on every family's representative. Returns one
/// problem per exact value that falls outside the FPTAS bracket, and one
/// remark per instance the LP gives up on: the evaluator falls back to the
/// FPTAS there, so that is a slower cell, not a wrong one.
pub fn lp_and_cut_layers(tr: &mut Tracer, seed: u64) -> (Vec<String>, Vec<String>) {
    let cfg = eval_config(seed);
    let mut problems = Vec::new();
    let mut remarks = Vec::new();
    for family in ALL_FAMILIES {
        let Some(topo) = family.ladder_instance(Scale::Small, seed, 0) else {
            continue;
        };
        if topo.num_switches() > cfg.exact_switch_limit {
            continue;
        }
        let specs = [
            TmSpec::LongestMatching,
            TmSpec::RandomMatching {
                servers_per_switch: 1,
            },
        ];
        for spec in specs {
            let tm = spec.generate(&topo, seed);
            if tm.num_flows() == 0 || tm.num_flows() > 64 {
                continue;
            }
            let id = format!("{}/0/{}", family.name(), spec.label());
            let exact = tr.span("tb_lp.exact_small", &id, |_| {
                ExactLpSolver.solve(&topo.graph, &tm)
            });
            let solver =
                FleischerSolver::new(cfg.solver.with_auto_aggregation(topo.num_switches()));
            let bracket = solver.solve(&topo.graph, &tm);
            match exact {
                Ok(exact) => {
                    let v = exact.value();
                    if v < bracket.lower * (1.0 - 1e-6) || v > bracket.upper * (1.0 + 1e-6) {
                        problems.push(format!(
                            "{id}: exact LP value {v} outside the FPTAS bracket [{}, {}]",
                            bracket.lower, bracket.upper
                        ));
                    }
                }
                Err(e) => remarks.push(format!("{id}: the exact LP gave up: {e:?}")),
            }
        }
    }
    for family in ALL_FAMILIES {
        let topo = family.representative(seed);
        let tm = TmSpec::LongestMatching.generate(&topo, seed);
        let id = format!("{}/representative/LM", family.name());
        tr.span("tb_cuts.estimate", &id, |_| {
            black_box(estimate_sparsest_cut(&topo.graph, &tm));
        });
    }
    (problems, remarks)
}

/// Counts over the engine calls of [`engine_layers`].
#[derive(Debug, Default)]
pub struct EngineCounts {
    /// Cells run (after the filter), summed over repetitions.
    pub cells: u64,
    /// Cells expanded (before the filter), summed over repetitions.
    pub expanded: u64,
    /// Cells the scenario renderers saw; filtered invocations render nothing.
    pub rendered: u64,
    pub cache_bytes: u64,
    pub problems: Vec<String>,
}

/// Walks the sweep engine's steps one by one over `invocations`, `reps`
/// times, against the cache in `cache_dir` that a CLI run filled: expand,
/// key, cache load, cache store (into `store_dir`), a whole hot
/// `run_scenario`, artifact emit and validate, and the scenario renderer.
pub fn engine_layers(
    tr: &mut Tracer,
    seed: u64,
    invocations: &[Invocation],
    cache_dir: &Path,
    store_dir: &Path,
    reps: usize,
) -> EngineCounts {
    let scenarios = registry();
    let mut c = EngineCounts::default();
    for inv in invocations {
        let Some(scenario) = scenarios.iter().find(|s| s.name == inv.scenario) else {
            c.problems
                .push(format!("scenario {} is not registered", inv.scenario));
            continue;
        };
        let mut opts = SweepOptions::new(false, seed);
        opts.jobs = Some(1);
        opts.cache_dir = cache_dir.to_path_buf();
        opts.filter = inv.filter.map(str::to_string);
        let cfg = opts.eval_config();
        let cache = ResultCache::new(cache_dir);
        let store = ResultCache::new(store_dir);
        let id = format!("{}{}", inv.scenario, inv.filter.unwrap_or(""));
        for _ in 0..reps {
            tr.span("scenario", &id, |tr| {
                let cells = tr.span("tb_experiments.expand", &id, |_| (scenario.build)(&opts));
                c.expanded += cells.len() as u64;
                let cells: Vec<_> = cells
                    .into_iter()
                    .filter(|cell| inv.filter.is_none_or(|f| cell.id.contains(f)))
                    .collect();
                c.cells += cells.len() as u64;
                let keys: Vec<String> = tr.span("tb_core.sweep.key", &id, |_| {
                    cells.iter().map(|cell| cell_key(cell, &cfg)).collect()
                });
                let loaded: Vec<_> = tr.span("tb_core.sweep.cache_load", &id, |_| {
                    keys.iter().map(|k| cache.load(k)).collect()
                });
                let misses = loaded.iter().filter(|v| v.is_none()).count();
                if misses > 0 {
                    c.problems.push(format!("{id}: {misses} cell(s) missing from the filled cache"));
                }
                c.cache_bytes += keys
                    .iter()
                    .filter_map(|k| std::fs::metadata(cache.path_for(k)).ok())
                    .map(|m| m.len())
                    .sum::<u64>();
                tr.span("tb_core.sweep.cache_store", &id, |_| {
                    for (key, values) in keys.iter().zip(&loaded) {
                        if let Some(values) = values {
                            store.store(key, values);
                        }
                    }
                });
                let (report, render) =
                    tr.span("tb_core.sweep.hot_run", &id, |_| run_scenario(scenario, &opts));
                if report.cache_hits != report.unique_cells || report.solver_calls != 0 {
                    c.problems.push(format!(
                        "{id}: in-process hot run made {} solver calls, {} of {} cells from the cache",
                        report.solver_calls, report.cache_hits, report.unique_cells
                    ));
                }
                let text = tr.span("tb_core.sweep.artifact_emit", &id, |_| {
                    artifact_json(scenario.name, scenario.title, &opts, &report, &render).to_string()
                });
                let valid =
                    tr.span("tb_core.sweep.artifact_validate", &id, |_| validate_artifact(&text));
                if let Err(e) = valid {
                    c.problems.push(format!("{id}: {e}"));
                }
                if inv.filter.is_none() {
                    c.rendered += cells.len() as u64;
                    tr.span("tb_experiments.render", &id, |_| {
                        black_box((scenario.render)(&opts, &CellSet::new(&report.outcomes)));
                    });
                }
            });
        }
    }
    c
}

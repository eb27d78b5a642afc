//! The four workloads and the metric names. `BENCHMARK.json` lists the same
//! names; a test below keeps the two in step.

/// One `sweep --scenario <scenario> [--filter <filter>]` invocation.
#[derive(Debug, Clone, Copy)]
pub struct Invocation {
    pub scenario: &'static str,
    pub filter: Option<&'static str>,
    /// Cells the `[sweep]` summary line must report. Pinned so that a change
    /// to a scenario's grid shows as a failed check, not as a speed-up.
    pub cells: u64,
}

/// Which traffic matrix a cold workload's cells solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tm {
    LongestMatching,
    AllToAll,
}

/// The ladder instances the in-process layer calls of the traced run work on:
/// every family's rung `rung`, or every rung. For a cold workload they are the
/// instances behind its cells.
#[derive(Debug, Clone, Copy)]
pub struct Instances {
    pub tm: Tm,
    pub rung: Option<usize>,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// `--jobs` of every invocation of a timed pass.
    pub jobs: usize,
    /// The invocations of one pass. A cold workload runs them on a fresh
    /// `results/`; a hot workload fills one cache with them in set-up and
    /// re-runs them with `--expect-cache-hot`.
    pub pass: &'static [Invocation],
    /// Set-up invocations of a cold workload (empty for a hot one, whose
    /// set-up is the fill).
    pub warmup: &'static [Invocation],
    pub hot: bool,
    pub instances: Instances,
}

const FIG05: &str = "fig05_06";

/// Cache-hot scenario set: the cheapest-to-fill scenarios that between them
/// cover absolute-throughput grids (fig02, fig12), cut estimators and the
/// exact LP (theorem1_demo) and the design search.
pub const FILL: [Invocation; 4] = [
    Invocation {
        scenario: "fig02",
        filter: None,
        cells: 66,
    },
    Invocation {
        scenario: "fig12",
        filter: None,
        cells: 12,
    },
    Invocation {
        scenario: "theorem1_demo",
        filter: None,
        cells: 4,
    },
    Invocation {
        scenario: "search",
        filter: None,
        cells: 3,
    },
];

const LM_PASS: [Invocation; 1] = [Invocation {
    scenario: FIG05,
    filter: Some("/1/LM"),
    cells: 9,
}];
const LM_WARMUP: [Invocation; 1] = [Invocation {
    scenario: FIG05,
    filter: Some("/0/LM"),
    cells: 10,
}];
const A2A_PASS: [Invocation; 1] = [Invocation {
    scenario: FIG05,
    filter: Some("/A2A"),
    cells: 29,
}];
// Rung 0 under all-to-all ends within 0.1 s, too little to time steadily.
const A2A_WARMUP: [Invocation; 1] = [Invocation {
    scenario: FIG05,
    filter: Some("/2/A2A"),
    cells: 8,
}];

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "lm_serial",
        why: "Sparse longest-matching TMs (rung 1 of every family ladder, 27 solves): the A* kernel and potential refreshes do the work",
        jobs: 1,
        pass: &LM_PASS,
        warmup: &LM_WARMUP,
        hot: false,
        instances: Instances {
            tm: Tm::LongestMatching,
            rung: Some(1),
        },
    },
    Workload {
        name: "a2a_serial",
        why: "Dense all-to-all TMs (all 29 ladder graphs, 87 solves): the same solver through aggregated-tree routing on full SSSP sweeps",
        jobs: 1,
        pass: &A2A_PASS,
        warmup: &A2A_WARMUP,
        hot: false,
        instances: Instances {
            tm: Tm::AllToAll,
            rung: None,
        },
    },
    Workload {
        name: "lm_jobs2",
        why: "lm_serial with --jobs 2: cell scheduling, stragglers and nested fan-out on two workers, apart from solver speed",
        jobs: 2,
        pass: &LM_PASS,
        warmup: &LM_WARMUP,
        hot: false,
        instances: Instances {
            tm: Tm::LongestMatching,
            rung: Some(1),
        },
    },
    Workload {
        name: "cache_hot",
        why: "Four scenarios re-run on a filled cache: no solver call, no graph build; engine, JSON, render and process start do the work",
        jobs: 1,
        pass: &FILL,
        warmup: &[],
        hot: true,
        // No cell of the fill is a ladder instance; the smallest rung stands in
        // for the solves the fill (`setup_s`) pays for.
        instances: Instances {
            tm: Tm::LongestMatching,
            rung: Some(0),
        },
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `(name, unit)` of a metric.
pub type MetricDef = (&'static str, &'static str);

pub const END_TO_END: [MetricDef; 3] = [
    ("wall_s", "s"),
    ("cells_per_s", "cells/s"),
    ("setup_s", "s"),
];

pub const PER_LAYER: [MetricDef; 46] = [
    ("tb_flow.solve_s", "s"),
    ("tb_flow.phases", "count"),
    ("tb_flow.ms_per_phase", "ms"),
    ("tb_flow.gap_max", "ratio"),
    ("tb_graph.sssp_ns_per_settle", "ns"),
    ("tb_graph.sssp_settles", "count"),
    ("tb_graph.apsp_s", "s"),
    ("tb_core.eval.relative_s", "s"),
    ("tb_core.eval.cell_p50_s", "s"),
    ("tb_core.eval.cell_max_s", "s"),
    ("tb_topology.ladder_build_s", "s"),
    ("tb_topology.same_equipment_s", "s"),
    ("tb_topology.ladder_switches", "count"),
    ("tb_traffic.gen_s", "s"),
    ("tb_traffic.flows", "count"),
    ("tb_lp.exact_small_s", "s"),
    ("tb_cuts.estimate_s", "s"),
    ("tb_core.sweep.key_us_per_cell", "us"),
    ("tb_core.sweep.cache_load_us_per_cell", "us"),
    ("tb_core.sweep.cache_store_us_per_cell", "us"),
    ("tb_core.sweep.cache_bytes_per_cell", "B"),
    ("tb_core.sweep.hot_run_us_per_cell", "us"),
    ("tb_core.sweep.artifact_emit_us_per_cell", "us"),
    ("tb_core.sweep.artifact_validate_us_per_cell", "us"),
    ("tb_experiments.expand_us_per_cell", "us"),
    ("tb_experiments.render_us_per_cell", "us"),
    ("sweep_cli.spawn_ms", "ms"),
    ("sweep_cli.pass_wall_s", "s"),
    ("sweep_cli.invocation_p50_ms", "ms"),
    ("sweep_cli.invocation_p99_ms", "ms"),
    ("sweep_cli.invocations", "count"),
    ("sweep_cli.cells", "count"),
    ("sweep_cli.solver_calls", "count"),
    ("sweep_cli.topo_builds", "count"),
    ("sweep_cli.cache_hits", "count"),
    ("sweep_cli.child_rss_peak_mb", "MB"),
    ("sweep_cli.engine_overhead_s", "s"),
    ("sweep_cli.jobs2_speedup_x", "x"),
    ("sweep_cli.available_parallelism", "count"),
    ("sweep_cli.solver_jobs2_x", "x"),
    ("sweep_cli.certify_x", "x"),
    ("sweep_cli.fill_s.fig02", "s"),
    ("sweep_cli.fill_s.fig12", "s"),
    ("sweep_cli.fill_s.theorem1_demo", "s"),
    ("sweep_cli.fill_s.search", "s"),
    ("trace.coverage", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "<x>"` and, where present, the `"unit": "<y>"` that
    /// follows it, inside the array that `key` introduces in BENCHMARK.json.
    fn section(doc: &str, key: &str) -> Vec<(String, Option<String>)> {
        let start = doc
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("no {key}"));
        let body = &doc[start..];
        let body = &body[..body.find(']').expect("array end")];
        let field = |obj: &str, name: &str| -> Option<String> {
            let at = obj.find(&format!("\"{name}\""))?;
            let rest = &obj[at + name.len() + 2..];
            let open = rest.find('"')? + 1;
            let close = open + rest[open..].find('"')?;
            Some(rest[open..close].to_string())
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name").expect("name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn names_and_units_equal_those_in_benchmark_json() {
        let doc = include_str!("../../BENCHMARK.json");
        let listed = |key| section(doc, key);

        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);

        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let theirs = listed(key);
            let ours: Vec<(String, Option<String>)> = defs
                .iter()
                .map(|(n, u)| (n.to_string(), Some(u.to_string())))
                .collect();
            assert_eq!(theirs, ours, "{key}");
        }
    }

    #[test]
    fn workload_whys_match_benchmark_json() {
        let doc = include_str!("../../BENCHMARK.json");
        for w in WORKLOADS {
            assert!(
                doc.contains(w.why),
                "{}: why differs from BENCHMARK.json",
                w.name
            );
            assert!(w.why.len() <= 200);
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|(n, _)| *n));
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for n in &names {
            assert!(
                ok(n, "_.-", 64) && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
        }
        for (_, u) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok(u, "_/%.-", 16), "{u}");
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
    }
}

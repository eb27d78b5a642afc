//! The scenario registry: every table and figure of the paper, expressed as
//! a declarative sweep over the engine in [`topobench::sweep`].
//!
//! Each scenario is a `build` function (expands the cell grid, pinning every
//! seed from the run options) and a `render` function (turns the completed
//! cells back into the figure's tables). Where a table's rows are
//! consecutive cells, the grid is stated once, as a list of `Row`s: `build`
//! emits their cells and `render` walks the same rows, looking each cell up
//! by the id it already holds. Renderers only read cell results and cheap
//! construction-free topology metadata — all solver work happens in the
//! cells, where it is deduplicated, parallelized and cached — and only ever
//! see a complete, healthy grid (the engine prints a cell dump otherwise).

use tb_cuts::ALL_ESTIMATORS;
use tb_flow::ThroughputBounds;
use tb_topology::families::ALL_FAMILIES;
use tb_topology::hyperx::design_search;
use tb_topology::natural::natural_meta;
use topobench::sweep::{
    f3, CellOutcome, CellSet, CellSpec, FbMatrix, NamedTable, RenderOutput, Scenario, SweepCell,
    SweepOptions, Table, TopoSpec,
};
use topobench::{lower_bound_from, TmSpec};

/// All registered scenarios, in the paper's figure order.
pub fn registry() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "fig02",
            title: "Figure 2: absolute throughput of TM families vs topology degree",
            build: |opts| cells_of(fig02_rows(opts)),
            render: fig02_render,
        },
        Scenario {
            name: "fig03",
            title: "Figure 3: throughput vs sparse cut (longest-matching TM)",
            build: fig03_build,
            render: fig03_render,
        },
        Scenario {
            name: "fig04",
            title: "Figure 4: throughput normalized to the theoretical lower bound",
            build: |opts| cells_of(fig04_rows(opts)),
            render: fig04_render,
        },
        Scenario {
            name: "fig05_06",
            title: "Figures 5/6 + Table I: relative throughput vs number of servers",
            build: fig05_06_build,
            render: fig05_06_render,
        },
        Scenario {
            name: "fig07",
            title: "Figure 7: HyperX relative throughput by target bisection",
            build: fig07_build,
            render: fig07_render,
        },
        Scenario {
            name: "fig08",
            title: "Figure 8: Long Hop relative throughput under longest matching",
            build: |opts| cells_of(fig08_rows(opts)),
            render: fig08_render,
        },
        Scenario {
            name: "fig09",
            title: "Figure 9: Slim Fly relative throughput and relative path length",
            build: |opts| cells_of(fig09_rows(opts)),
            render: fig09_render,
        },
        Scenario {
            name: "fig10_11",
            title: "Figures 10/11: relative throughput vs percentage of large flows",
            build: |opts| cells_of(fig10_11_rows(opts)),
            render: fig10_11_render,
        },
        Scenario {
            name: "fig12",
            title: "Figure 12: absolute throughput vs percentage of large flows",
            build: |opts| cells_of(fig12_rows(opts)),
            render: fig12_render,
        },
        Scenario {
            name: "fig13_14",
            title: "Figures 13/14: real-world (Facebook) TMs, sampled vs shuffled placement",
            build: |opts| {
                (FIG13_MATRICES.iter())
                    .flat_map(|&(matrix, tag, _)| cells_of(fig13_14_rows(opts, matrix, tag)))
                    .collect()
            },
            render: fig13_14_render,
        },
        Scenario {
            name: "fig15",
            title: "Figure 15: fat tree vs Jellyfish under three methodologies",
            build: fig15_build,
            render: fig15_render,
        },
        Scenario {
            name: "table02",
            title: "Table II: sparsest-cut estimators vs throughput",
            build: |opts| cells_of(table02_rows(opts)),
            render: table02_render,
        },
        Scenario {
            name: "theorem1_demo",
            title: "Theorem 1 demo: sparsest cut can rank networks opposite to throughput",
            build: |opts| cells_of(theorem1_rows(opts)),
            render: theorem1_render,
        },
        Scenario {
            name: "failures",
            title: "Failure sweep: throughput degradation under random link/switch failures",
            build: |opts| cells_of(failures_rows(opts)),
            render: failures_render,
        },
        Scenario {
            name: "search",
            title: "Design search: hill-climb topology parameters for throughput per cost",
            build: |opts| cells_of(search_rows(opts)),
            render: search_render,
        },
    ]
}

/// One table row: its leading display columns, then the cells whose values
/// fill the rest, in expansion order.
struct Row {
    head: Vec<String>,
    cells: Vec<SweepCell>,
}

/// The cells of `rows`, in order: the grid of a scenario stated as rows.
fn cells_of(rows: Vec<Row>) -> Vec<SweepCell> {
    rows.into_iter().flat_map(|row| row.cells).collect()
}

/// The table of `rows`: each row's head, then `fill` of its cells' outcomes.
fn rows_table(
    title: impl Into<String>,
    header: &[&str],
    set: &CellSet,
    rows: Vec<Row>,
    fill: impl Fn(&[&CellOutcome]) -> Vec<String>,
) -> Table {
    let mut table = Table::new(title, header);
    for Row { mut head, cells } in rows {
        let outcomes: Vec<&CellOutcome> = cells.iter().map(|cell| set.outcome(&cell.id)).collect();
        head.extend(fill(&outcomes));
        table.row_strings(head);
    }
    table
}

/// A render of one table and its expected-shape notes.
fn one_table(name: &str, table: Table, notes: &str) -> RenderOutput {
    RenderOutput {
        preamble: Vec::new(),
        tables: vec![NamedTable {
            name: name.into(),
            table,
        }],
        notes: notes.into(),
    }
}

/// The bounds of a `Throughput` cell.
fn bounds(o: &CellOutcome) -> ThroughputBounds {
    ThroughputBounds {
        lower: o.values.num("lower"),
        upper: o.values.num("upper"),
    }
}

/// The figure's reported throughput value of a `Throughput` cell.
fn tput(o: &CellOutcome) -> f64 {
    bounds(o).value()
}

/// The mean and ci95 columns of a relative cell.
fn rel(o: &CellOutcome) -> Vec<String> {
    vec![f3(o.values.num("rel_mean")), f3(o.values.num("rel_ci95"))]
}

/// A display label the cell was expanded with.
fn label(o: &CellOutcome, name: &str) -> String {
    o.cell.get_label(name).expect("labeled").to_string()
}

/// A topology's parameter string, from its construction-free metadata.
fn params(topo: &TopoSpec) -> String {
    topo.metadata()
        .expect("scenario topologies have metadata")
        .params
}

// ---------------------------------------------------------------------------
// Figure 2: TM families vs degree (hypercube / random regular / fat tree).
// ---------------------------------------------------------------------------

/// One row per network, one cell per TM series in column order.
fn fig02_rows(opts: &SweepOptions) -> Vec<Row> {
    let degrees = if opts.full { 3..=9 } else { 3..=6 };
    // Same switch count as the matching hypercube for a familiar scale.
    let rrg_switches = 1usize << if opts.full { 7 } else { 5 };
    let fat_ks: &[usize] = if opts.full {
        &[4, 6, 8, 10, 12]
    } else {
        &[4, 6, 8]
    };
    let hypercubes = (degrees.clone()).map(|d| {
        let topo = TopoSpec::Hypercube {
            dims: d,
            servers: 1,
        };
        ("hypercube", format!("d={d}"), topo)
    });
    let rrgs = degrees.map(|d| {
        let topo = TopoSpec::Jellyfish {
            switches: rrg_switches,
            degree: d,
            servers: 1,
            seed: opts.seed,
        };
        ("random-regular", format!("r={d}"), topo)
    });
    let fat_trees =
        (fat_ks.iter()).map(|&k| ("fat-tree", format!("k={k}"), TopoSpec::FatTree { k }));
    let rm = |k| TmSpec::RandomMatching {
        servers_per_switch: k,
    };
    let series = [
        TmSpec::AllToAll,
        rm(10),
        rm(2),
        rm(1),
        TmSpec::Kodialam,
        TmSpec::LongestMatching,
    ];
    (hypercubes.chain(rrgs).chain(fat_trees))
        .map(|(kind, param, topo)| {
            let cells = (series.iter())
                .map(|tm| {
                    let topo = match *tm {
                        // The RM(k) series re-attaches k servers per switch on
                        // the same switch graph, exactly like the paper's Fig. 2.
                        TmSpec::RandomMatching { servers_per_switch } => TopoSpec::WithServers {
                            base: Box::new(topo.clone()),
                            servers_per_switch,
                        },
                        _ => topo.clone(),
                    };
                    SweepCell::new(
                        format!("{kind}/{param}/{}", tm.label()),
                        CellSpec::Throughput {
                            topo,
                            tm: tm.clone(),
                            tm_seed: opts.seed,
                        },
                    )
                })
                .collect();
            Row {
                head: vec![kind.into(), param],
                cells,
            }
        })
        .collect()
}

fn fig02_render(opts: &SweepOptions, set: &CellSet) -> RenderOutput {
    let table = rows_table(
        "Figure 2: absolute throughput of TM families vs topology degree",
        &[
            "topology",
            "size-param",
            "A2A",
            "RM(10)",
            "RM(2)",
            "RM(1)",
            "Kodialam",
            "LM",
            "LowerBound",
        ],
        set,
        fig02_rows(opts),
        |o| {
            let mut row: Vec<String> = o.iter().map(|o| f3(tput(o))).collect();
            // Theorem-2 bound from the A2A result already computed above.
            row.push(f3(lower_bound_from(bounds(o[0])).value()));
            row
        },
    );
    one_table(
        "fig02_tm_families",
        table,
        "Expected shape (paper): A2A >= RM(10) >= RM(2) >= RM(1) >= Kodialam ~= LM >= lower bound;\n\
         in hypercubes LM sits essentially on the lower bound, in fat trees LM equals A2A.",
    )
}

// ---------------------------------------------------------------------------
// Figure 3: throughput vs sparsest cut across all families + naturals.
// ---------------------------------------------------------------------------

/// Family-ladder instances under a switch cap (`reduced_cap` at reduced
/// scale, 200 at paper scale), then natural networks — the shared network
/// battery of Fig. 3 and Table II (which differ in the cap). One row per
/// network: its name, params and switch count, then its longest-matching
/// throughput cell (carrying the `group` label Table II sums by) and its cut
/// cell. Entirely construction-free: the battery builds no graphs.
fn cut_battery(opts: &SweepOptions, reduced_cap: usize) -> Vec<Row> {
    let cap = if opts.full { 200 } else { reduced_cap };
    let ladders = ALL_FAMILIES.into_iter().flat_map(|family| {
        (0..family.ladder_len(opts.scale())).filter_map(move |index| {
            let meta = family.ladder_meta(opts.scale(), opts.seed, index)?;
            let topo = TopoSpec::Ladder {
                family,
                scale: opts.scale(),
                index,
                seed: opts.seed,
            };
            let id = format!("{}/{index}", family.name());
            (meta.switches <= cap).then_some((id, family.name(), meta, topo))
        })
    });
    let naturals = (0..if opts.full { 40 } else { 12 }).map(|index| {
        let topo = TopoSpec::Natural {
            index,
            seed: opts.seed,
        };
        (
            format!("natural/{index}"),
            "natural",
            natural_meta(index),
            topo,
        )
    });
    (ladders.chain(naturals))
        .map(|(id, group, meta, topo)| {
            let head = vec![meta.name, meta.params, meta.switches.to_string()];
            let tput = SweepCell::new(
                format!("{id}/tput"),
                CellSpec::Throughput {
                    topo: topo.clone(),
                    tm: TmSpec::LongestMatching,
                    tm_seed: opts.seed,
                },
            )
            .label("group", group)
            .label("name", head[0].clone())
            .label("params", head[1].clone())
            .label("switches", head[2].clone());
            let cut = SweepCell::new(
                format!("{id}/cut"),
                CellSpec::CutEstimate {
                    topo,
                    tm: TmSpec::LongestMatching,
                    tm_seed: opts.seed,
                },
            );
            Row {
                head,
                cells: vec![tput, cut],
            }
        })
        .collect()
}

/// Fig. 3's battery. The cut estimators include an O(n^2) two-node sweep per
/// network; keep the scatter to moderately sized instances like the paper.
fn fig03_rows(opts: &SweepOptions) -> Vec<Row> {
    cut_battery(opts, 90)
}

fn fig03_build(opts: &SweepOptions) -> Vec<SweepCell> {
    let mut cells = cells_of(fig03_rows(opts));
    // §III-B case study: 5-ary 3-stage flattened butterfly.
    let fbfly = TopoSpec::FlattenedButterfly { k: 5, n: 3 };
    let meta = fbfly.metadata().expect("flattened butterfly has metadata");
    cells.push(
        SweepCell::new(
            "fbfly-case/tput",
            CellSpec::Throughput {
                topo: fbfly.clone(),
                tm: TmSpec::LongestMatching,
                tm_seed: opts.seed,
            },
        )
        .label("switches", meta.switches.to_string())
        .label("servers", meta.servers.to_string()),
    );
    cells.push(SweepCell::new(
        "fbfly-case/cut",
        CellSpec::CutEstimate {
            topo: fbfly,
            tm: TmSpec::LongestMatching,
            tm_seed: opts.seed,
        },
    ));
    cells
}

fn fig03_render(opts: &SweepOptions, set: &CellSet) -> RenderOutput {
    let table = rows_table(
        "Figure 3: throughput vs sparse cut (longest-matching TM)",
        &[
            "network",
            "params",
            "switches",
            "sparse-cut",
            "throughput",
            "cut/throughput",
        ],
        set,
        fig03_rows(opts),
        |o| {
            let throughput = o[0].values.num("lower");
            let sparsity = o[1].values.num("best_sparsity");
            let ratio = if throughput > 0.0 {
                sparsity / throughput
            } else {
                f64::NAN
            };
            vec![f3(sparsity), f3(throughput), f3(ratio)]
        },
    );

    let case_cell = set.outcome("fbfly-case/tput");
    let case_bounds = bounds(case_cell);
    let mut case = Table::new(
        "SIII-B case study: 5-ary 3-stage flattened butterfly",
        &["metric", "value"],
    );
    for metric in ["switches", "servers"] {
        case.row_strings(vec![metric.into(), label(case_cell, metric)]);
    }
    case.row_strings(vec![
        "sparse cut".into(),
        f3(set.num("fbfly-case/cut", "best_sparsity")),
    ]);
    case.row_strings(vec!["throughput (lower)".into(), f3(case_bounds.lower)]);
    case.row_strings(vec!["throughput (upper)".into(), f3(case_bounds.upper)]);
    RenderOutput {
        preamble: Vec::new(),
        tables: vec![
            NamedTable {
                name: "fig03_cut_vs_throughput".into(),
                table,
            },
            NamedTable {
                name: "fig03_fbfly_case".into(),
                table: case,
            },
        ],
        notes: "Expected shape (paper): every point satisfies throughput <= cut; for many networks the\n\
                cut overestimates throughput (up to ~3x), and even the 25-switch flattened butterfly has\n\
                throughput strictly below its sparsest cut (0.565 vs 0.6 in the paper's units)."
            .into(),
    }
}

// ---------------------------------------------------------------------------
// Figure 4: TMs normalized to the Theorem-2 bound, per family representative.
// ---------------------------------------------------------------------------

/// One row per family representative, one cell per TM in column order.
fn fig04_rows(opts: &SweepOptions) -> Vec<Row> {
    let rm = |k| TmSpec::RandomMatching {
        servers_per_switch: k,
    };
    let tms = [TmSpec::AllToAll, rm(5), rm(1), TmSpec::LongestMatching];
    (ALL_FAMILIES.into_iter())
        .map(|family| {
            let topo = TopoSpec::Representative {
                family,
                seed: opts.seed,
            };
            let params = params(&topo);
            let cells = (tms.iter())
                .map(|tm| {
                    SweepCell::new(
                        format!("{}/{}", family.name(), tm.label()),
                        CellSpec::Throughput {
                            topo: topo.clone(),
                            tm: tm.clone(),
                            tm_seed: opts.seed,
                        },
                    )
                    .label("params", params.clone())
                })
                .collect();
            Row {
                head: vec![family.name().into(), params],
                cells,
            }
        })
        .collect()
}

fn fig04_render(opts: &SweepOptions, set: &CellSet) -> RenderOutput {
    let table = rows_table(
        "Figure 4: throughput normalized to the theoretical lower bound (T_A2A/2 = 1)",
        &["topology", "params", "A2A", "RM(5)", "RM(1)", "LM"],
        set,
        fig04_rows(opts),
        |o| {
            let bound = tput(o[0]) / 2.0;
            o.iter().map(|o| f3(tput(o) / bound)).collect()
        },
    );
    one_table(
        "fig04_normalized_tms",
        table,
        "Expected shape (paper): every row satisfies 2 = A2A >= RM(5) >= RM(1) >= LM >= 1\n\
         (up to solver tolerance); LM reaches ~1 for BCube, Hypercube, HyperX and Dragonfly,\n\
         while in fat trees LM stays at the A2A value because the lower bound is loose there.",
    )
}

// ---------------------------------------------------------------------------
// Figures 5/6 + Table I: relative throughput vs servers, per family ladder.
// ---------------------------------------------------------------------------

fn fig05_specs() -> [TmSpec; 3] {
    [
        TmSpec::AllToAll,
        TmSpec::RandomMatching {
            servers_per_switch: 1,
        },
        TmSpec::LongestMatching,
    ]
}

fn fig05_06_build(opts: &SweepOptions) -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for family in ALL_FAMILIES {
        for index in 0..family.ladder_len(opts.scale()) {
            let Some(meta) = family.ladder_meta(opts.scale(), opts.seed, index) else {
                continue;
            };
            for spec in fig05_specs() {
                let tm_label = spec.label();
                cells.push(
                    SweepCell::new(
                        format!("{}/{}/{}", family.name(), index, tm_label),
                        CellSpec::Relative {
                            topo: TopoSpec::Ladder {
                                family,
                                scale: opts.scale(),
                                index,
                                seed: opts.seed,
                            },
                            tm: spec,
                        },
                    )
                    .label("family", family.name())
                    .label("tm", tm_label)
                    .label("params", meta.params.clone())
                    .label("servers", meta.servers.to_string()),
                );
            }
        }
    }
    cells
}

fn fig05_06_render(_opts: &SweepOptions, set: &CellSet) -> RenderOutput {
    let mut table = Table::new(
        "Figures 5/6: relative throughput vs number of servers",
        &[
            "topology",
            "params",
            "servers",
            "TM",
            "rel-throughput",
            "ci95",
        ],
    );
    let mut table1 = Table::new(
        "Table I: relative throughput at the largest size tested",
        &["topology", "A2A", "RM(1)", "LM"],
    );
    for family in ALL_FAMILIES {
        // Ladder cells in expansion order (index ascending), recovered from
        // the labels — the ladder graphs are not rebuilt for rendering.
        let family_cells: Vec<_> = set
            .outcomes()
            .iter()
            .filter(|o| o.cell.get_label("family") == Some(family.name()))
            .collect();
        let mut largest_row: Vec<String> = vec![family.name().to_string()];
        for spec in fig05_specs() {
            let mut last = f64::NAN;
            for o in family_cells
                .iter()
                .filter(|o| o.cell.get_label("tm") == Some(spec.label().as_str()))
            {
                let mut row = vec![
                    family.name().to_string(),
                    label(o, "params"),
                    label(o, "servers"),
                    spec.label(),
                ];
                row.extend(rel(o));
                table.row_strings(row);
                last = o.values.num("rel_mean");
            }
            largest_row.push(format!("{:.0}%", last * 100.0));
        }
        table1.row_strings(largest_row);
    }
    RenderOutput {
        preamble: Vec::new(),
        tables: vec![
            NamedTable {
                name: "fig05_06_relative_throughput".into(),
                table,
            },
            NamedTable {
                name: "table01_largest_size".into(),
                table: table1,
            },
        ],
        notes: "Expected shape (paper): Jellyfish sits at 1.0 by definition; most structured\n\
                topologies degrade relative to the random graph as size grows (Table I: BCube ~51%,\n\
                Hypercube ~51%, Flattened BF ~47% under LM at the largest sizes), while fat trees do\n\
                comparatively better under LM (~89%) than under A2A (~65%)."
            .into(),
    }
}

// ---------------------------------------------------------------------------
// Figure 7: HyperX designs by target bisection.
// ---------------------------------------------------------------------------

const FIG07_BETAS: [f64; 3] = [0.2, 0.4, 0.5];

fn fig07_targets(opts: &SweepOptions) -> Vec<usize> {
    if opts.full {
        vec![128, 216, 324, 512, 648, 864, 1024]
    } else {
        vec![64, 128, 216, 324]
    }
}

fn fig07_build(opts: &SweepOptions) -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for &beta in &FIG07_BETAS {
        for &servers in &fig07_targets(opts) {
            let Some(design) = design_search(24, servers, beta) else {
                continue;
            };
            let topo = TopoSpec::HyperX {
                radix: 24,
                min_servers: servers,
                bisection: beta,
            };
            // The design record already carries the instance sizes — no need
            // to construct the topology just to label the row.
            cells.push(
                SweepCell::new(
                    format!("b{beta:.1}/n{servers}"),
                    CellSpec::Relative {
                        topo,
                        tm: TmSpec::LongestMatching,
                    },
                )
                .label("bisection", format!("{beta:.1}"))
                .label("target", servers.to_string())
                .label(
                    "design",
                    format!(
                        "L={} S={} K={} T={}",
                        design.dims, design.s, design.k, design.t
                    ),
                )
                .label("servers", design.servers.to_string())
                .label("switches", design.switches.to_string()),
            );
        }
    }
    cells
}

fn fig07_render(_opts: &SweepOptions, set: &CellSet) -> RenderOutput {
    let mut table = Table::new(
        "Figure 7: HyperX relative throughput (longest matching) vs servers, by target bisection",
        &[
            "bisection",
            "servers-target",
            "design",
            "servers",
            "switches",
            "rel-throughput",
            "ci95",
        ],
    );
    // Expansion order is already beta-major, target-minor; iterate the
    // outcomes directly rather than repeating the design searches.
    for o in set.outcomes() {
        let mut row: Vec<String> = ["bisection", "target", "design", "servers", "switches"]
            .map(|name| label(o, name))
            .into();
        row.extend(rel(o));
        table.row_strings(row);
    }
    one_table(
        "fig07_hyperx",
        table,
        "Expected shape (paper): relative throughput varies widely (roughly 0.4-0.9) and\n\
         non-monotonically with the requested size for every bisection target — high bisection\n\
         does not imply high worst-case throughput.",
    )
}

// ---------------------------------------------------------------------------
// Figure 8: Long Hop ladders.
// ---------------------------------------------------------------------------

/// One row per (dimension, degree) instance.
fn fig08_rows(opts: &SweepOptions) -> Vec<Row> {
    let dims = if opts.full { 5..=8 } else { 5..=7 };
    // Degree and concentration grow mildly with dimension, mirroring the
    // equipment assumptions of the instance ladder.
    (dims.flat_map(|d| [2usize, 3, 4].map(|extra| (d, extra))))
        .map(|(d, extra)| {
            let topo = TopoSpec::LongHop {
                dim: d,
                degree: d + extra,
                servers: (d + extra) / 3,
            };
            let servers = (topo.metadata().expect("long hop has metadata").servers).to_string();
            let cell = SweepCell::new(
                format!("d{d}/extra{extra}"),
                CellSpec::Relative {
                    topo,
                    tm: TmSpec::LongestMatching,
                },
            )
            .label("servers", servers.clone());
            Row {
                head: vec![d.to_string(), (d + extra).to_string(), servers],
                cells: vec![cell],
            }
        })
        .collect()
}

fn fig08_render(opts: &SweepOptions, set: &CellSet) -> RenderOutput {
    let table = rows_table(
        "Figure 8: Long Hop relative throughput under longest matching",
        &["dimension", "degree", "servers", "rel-throughput", "ci95"],
        set,
        fig08_rows(opts),
        |o| rel(o[0]),
    );
    one_table(
        "fig08_longhop",
        table,
        "Expected shape (paper): relative throughput below 1 at small sizes and approaching 1\n\
         as dimension/size grows — Long Hop networks are no better than random graphs.",
    )
}

// ---------------------------------------------------------------------------
// Figure 9: Slim Fly relative throughput + relative path length.
// ---------------------------------------------------------------------------

/// One row per Slim Fly `q`: its relative-throughput and path-length cells.
fn fig09_rows(opts: &SweepOptions) -> Vec<Row> {
    let qs: &[usize] = if opts.full { &[5, 13, 17] } else { &[5, 13] };
    (qs.iter())
        .map(|&q| {
            let topo = TopoSpec::SlimFly { q };
            let meta = topo.metadata().expect("slim fly has metadata");
            let (switches, servers) = (meta.switches.to_string(), meta.servers.to_string());
            let rel = SweepCell::new(
                format!("q{q}/rel"),
                CellSpec::Relative {
                    topo: topo.clone(),
                    tm: TmSpec::LongestMatching,
                },
            )
            .label("switches", switches.clone())
            .label("servers", servers.clone());
            let apl = SweepCell::new(
                format!("q{q}/apl"),
                CellSpec::PathLengthRatio {
                    topo,
                    rnd_seed: opts.seed.wrapping_add(77),
                },
            );
            Row {
                head: vec![q.to_string(), switches, servers],
                cells: vec![rel, apl],
            }
        })
        .collect()
}

fn fig09_render(opts: &SweepOptions, set: &CellSet) -> RenderOutput {
    let table = rows_table(
        "Figure 9: Slim Fly relative throughput and relative path length (longest matching)",
        &[
            "q",
            "switches",
            "servers",
            "rel-throughput",
            "ci95",
            "rel-path-length",
        ],
        set,
        fig09_rows(opts),
        |o| {
            let mut row = rel(o[0]);
            row.push(f3(o[1].values.num("ratio")));
            row
        },
    );
    one_table(
        "fig09_slimfly",
        table,
        "Expected shape (paper): relative path length ~0.85-0.9 (Slim Fly's paths are shorter\n\
         than the random graph's) while relative throughput is ~1 at small scale and declines\n\
         toward ~0.8 at the largest size under longest matching.",
    )
}

// ---------------------------------------------------------------------------
// Figures 10/11: skewed LM, relative, per family representative.
// ---------------------------------------------------------------------------

/// One row per (family representative, percentage of large flows).
fn fig10_11_rows(opts: &SweepOptions) -> Vec<Row> {
    let percents: &[f64] = if opts.full {
        &[1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 75.0, 100.0]
    } else {
        &[5.0, 25.0, 100.0]
    };
    (ALL_FAMILIES.into_iter())
        .flat_map(|family| {
            let topo = TopoSpec::Representative {
                family,
                seed: opts.seed,
            };
            let params = params(&topo);
            percents.iter().map(move |p| {
                let cell = SweepCell::new(
                    format!("{}/{p:.0}", family.name()),
                    CellSpec::Relative {
                        topo: topo.clone(),
                        tm: TmSpec::SkewedLongestMatching {
                            fraction: p / 100.0,
                            weight: 10.0,
                        },
                    },
                )
                .label("params", params.clone());
                Row {
                    head: vec![family.name().into(), params.clone(), format!("{p:.0}")],
                    cells: vec![cell],
                }
            })
        })
        .collect()
}

fn fig10_11_render(opts: &SweepOptions, set: &CellSet) -> RenderOutput {
    let table = rows_table(
        "Figures 10/11: relative throughput vs percentage of large flows (weight 10, longest matching)",
        &["topology", "params", "%large", "rel-throughput", "ci95"],
        set,
        fig10_11_rows(opts),
        |o| rel(o[0]),
    );
    one_table(
        "fig10_11_skewed",
        table,
        "Expected shape (paper): every family except the fat tree keeps a roughly flat relative\n\
         throughput as the fraction of large flows grows; the fat tree dips noticeably when only\n\
         a few flows are large because its ToR uplinks carry only locally originated traffic.",
    )
}

// ---------------------------------------------------------------------------
// Figure 12: skewed LM, absolute, hypercube / fat tree / same-equipment RRGs.
// ---------------------------------------------------------------------------

/// One row per (network, percentage of large flows).
fn fig12_rows(opts: &SweepOptions) -> Vec<Row> {
    let cube = if opts.full {
        TopoSpec::Hypercube {
            dims: 7,
            servers: 4,
        }
    } else {
        TopoSpec::Hypercube {
            dims: 6,
            servers: 3,
        }
    };
    let ft = TopoSpec::FatTree {
        k: if opts.full { 10 } else { 8 },
    };
    let networks = [
        ("Hypercube", cube.clone()),
        ("Fat tree", ft.clone()),
        (
            "Jellyfish (same equip. as hypercube)",
            TopoSpec::SameEquipment {
                base: Box::new(cube),
                seed: opts.seed.wrapping_add(11),
            },
        ),
        (
            "Jellyfish (same equip. as fat tree)",
            TopoSpec::SameEquipment {
                base: Box::new(ft),
                seed: opts.seed.wrapping_add(12),
            },
        ),
    ];
    let percents: &[f64] = if opts.full {
        &[1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0]
    } else {
        &[1.0, 10.0, 100.0]
    };
    (networks.into_iter())
        .flat_map(|(name, topo)| {
            percents.iter().map(move |p| {
                let cell = SweepCell::new(
                    format!("{name}/{p:.0}"),
                    CellSpec::Throughput {
                        topo: topo.clone(),
                        tm: TmSpec::SkewedLongestMatching {
                            fraction: p / 100.0,
                            weight: 10.0,
                        },
                        tm_seed: opts.seed,
                    },
                );
                Row {
                    head: vec![name.into(), format!("{p:.0}")],
                    cells: vec![cell],
                }
            })
        })
        .collect()
}

fn fig12_render(opts: &SweepOptions, set: &CellSet) -> RenderOutput {
    let table = rows_table(
        "Figure 12: absolute throughput vs percentage of large flows (weight 10, longest matching)",
        &["network", "%large", "abs-throughput"],
        set,
        fig12_rows(opts),
        |o| vec![f3(tput(o[0]))],
    );
    one_table(
        "fig12_skewed_absolute",
        table,
        "Expected shape (paper): the fat tree's absolute throughput dips at small percentages of\n\
         large flows and recovers at 100% (where rescaling makes the TM uniform again); the\n\
         hypercube and both Jellyfish networks stay comparatively flat.",
    )
}

// ---------------------------------------------------------------------------
// Figures 13/14: Facebook rack-level TMs, sampled vs shuffled placement.
// ---------------------------------------------------------------------------

const FIG13_MATRICES: [(FbMatrix, &str, &str); 2] = [
    (FbMatrix::Hadoop, "h", "Figure 13 TM-H (Hadoop)"),
    (FbMatrix::Frontend, "f", "Figure 14 TM-F (frontend)"),
];

/// One matrix's table: one row per family representative, its sampled then
/// its shuffled placement cell.
fn fig13_14_rows(opts: &SweepOptions, matrix: FbMatrix, tag: &str) -> Vec<Row> {
    (ALL_FAMILIES.into_iter())
        .map(|family| {
            let topo = TopoSpec::Representative {
                family,
                seed: opts.seed,
            };
            let params = params(&topo);
            let cells = [false, true].map(|shuffled| {
                let placement = if shuffled { "shuffled" } else { "sampled" };
                SweepCell::new(
                    format!("{tag}/{}/{placement}", family.name()),
                    CellSpec::FacebookRelative {
                        topo: topo.clone(),
                        matrix,
                        shuffled,
                        tm_seed: opts.seed,
                        shuffle_seed: opts.seed.wrapping_add(9),
                    },
                )
                .label("params", params.clone())
            });
            Row {
                head: vec![family.name().into(), params],
                cells: cells.into(),
            }
        })
        .collect()
}

fn fig13_14_render(opts: &SweepOptions, set: &CellSet) -> RenderOutput {
    let tables = (FIG13_MATRICES.iter())
        .map(|&(matrix, tag, name)| {
            let table = rows_table(
                format!(
                    "{name}: normalized throughput per topology (sampled vs shuffled rack placement)"
                ),
                &["topology", "params", "racks", "sampled", "shuffled"],
                set,
                fig13_14_rows(opts, matrix, tag),
                |o| {
                    vec![
                        (o[0].values.num("racks") as usize).to_string(),
                        f3(o[0].values.num("rel_mean")),
                        f3(o[1].values.num("rel_mean")),
                    ]
                },
            );
            NamedTable {
                name: name.to_lowercase().replace(['-', ' '], "_"),
                table,
            }
        })
        .collect();
    RenderOutput {
        preamble: Vec::new(),
        tables,
        notes: "Expected shape (paper): under the near-uniform TM-H, shuffling rack placement barely\n\
                changes performance; under the skewed TM-F, shuffling significantly improves every\n\
                topology except Jellyfish, Long Hop, Slim Fly and the fat tree, which are already\n\
                insensitive to placement."
            .into(),
    }
}

// ---------------------------------------------------------------------------
// Figure 15: Yuan et al. replication (subflow counting vs LP).
// ---------------------------------------------------------------------------

const FIG15_K_PATHS: usize = 8;

fn fig15_networks(opts: &SweepOptions) -> Vec<(&'static str, TopoSpec)> {
    vec![
        // The fat tree Yuan et al. used: 80 switches, 128 servers.
        ("ft", TopoSpec::FatTree { k: 8 }),
        // Their Jellyfish: same 80 switches, radix 8 (6 + 2 servers).
        (
            "jf-yuan",
            TopoSpec::Jellyfish {
                switches: 80,
                degree: 6,
                servers: 2,
                seed: opts.seed,
            },
        ),
        // Equal equipment: 80 switches and the fat tree's 128 servers.
        (
            "jf-equal",
            TopoSpec::JellyfishSpread {
                switches: 80,
                degree: 6,
                servers_total: 128,
                seed: opts.seed,
            },
        ),
    ]
}

fn fig15_build(opts: &SweepOptions) -> Vec<SweepCell> {
    fig15_networks(opts)
        .into_iter()
        .map(|(id, topo)| {
            let meta = topo.metadata().expect("fig15 networks have metadata");
            SweepCell::new(
                id,
                CellSpec::PathRestricted {
                    topo,
                    k_paths: FIG15_K_PATHS,
                    tm_seed: opts.seed,
                },
            )
            .label("switches", meta.switches.to_string())
            .label("servers", meta.servers.to_string())
        })
        .collect()
}

fn fig15_render(_opts: &SweepOptions, set: &CellSet) -> RenderOutput {
    let sizes = |id: &str| {
        let o = set.outcome(id);
        (label(o, "switches"), label(o, "servers"))
    };
    let (ft_sw, ft_srv) = sizes("ft");
    let (jy_sw, jy_srv) = sizes("jf-yuan");
    let (je_sw, je_srv) = sizes("jf-equal");
    let preamble = vec![format!(
        "fat tree: {ft_sw} switches / {ft_srv} servers; Jellyfish (Yuan): {jy_sw} switches / {jy_srv} servers; \
         Jellyfish (equalized): {je_sw} switches / {je_srv} servers"
    )];

    let ft_count = set.num("ft", "counting");
    let ft_lp = set.num("ft", "lp");
    let jf_count = set.num("jf-yuan", "counting");
    let jf_lp = set.num("jf-yuan", "lp");
    let jf_eq_lp = set.num("jf-equal", "lp");

    let mut table = Table::new(
        "Figure 15: fat tree vs Jellyfish under three methodologies (A2A traffic)",
        &["comparison", "fat tree", "Jellyfish", "Jellyfish/FatTree"],
    );
    table.row_strings(vec![
        "1: subflow counting (Yuan et al.)".into(),
        f3(ft_count),
        f3(jf_count),
        f3(jf_count / ft_count),
    ]);
    table.row_strings(vec![
        "2: LP throughput, same paths".into(),
        f3(ft_lp),
        f3(jf_lp),
        f3(jf_lp / ft_lp),
    ]);
    table.row_strings(vec![
        "3: LP throughput, equal equipment".into(),
        f3(ft_lp),
        f3(jf_eq_lp),
        f3(jf_eq_lp / ft_lp),
    ]);
    RenderOutput {
        preamble,
        tables: vec![NamedTable {
            name: "fig15_yuan".into(),
            table,
        }],
        notes: "Expected shape (paper): the subflow-counting heuristic (Comparison 1) misjudges the two\n\
                networks as roughly comparable; switching to exact LP throughput under the same path\n\
                restriction (Comparison 2) reveals a clear Jellyfish advantage, and equalizing equipment\n\
                (Comparison 3) widens it further — the ordering C1 < C2 < C3 in the Jellyfish/FatTree\n\
                column is the reproduction target."
            .into(),
    }
}

// ---------------------------------------------------------------------------
// Table II: which estimators find the sparsest cut, and does it match
// throughput?
// ---------------------------------------------------------------------------

/// Table II's battery: smaller networks than Fig. 3's.
fn table02_rows(opts: &SweepOptions) -> Vec<Row> {
    cut_battery(opts, 70)
}

#[derive(Default, Clone)]
struct Table02Row {
    total: usize,
    matches: usize,
    by_estimator: [usize; 5],
}

impl Table02Row {
    fn account(&mut self, tput: &CellOutcome, cut: &CellOutcome) {
        self.total += 1;
        // "cut equals throughput" within the solver's bracketing tolerance
        // plus 2%.
        if cut.values.num("best_sparsity") <= tput.values.num("upper") * 1.02 + 1e-9 {
            self.matches += 1;
        }
        for (i, est) in ALL_ESTIMATORS.iter().enumerate() {
            let metric = format!("found_{}", est.name().to_lowercase().replace(' ', "_"));
            if cut.values.num(&metric) == 1.0 {
                self.by_estimator[i] += 1;
            }
        }
    }

    fn absorb(&mut self, other: &Table02Row) {
        self.total += other.total;
        self.matches += other.matches;
        for i in 0..5 {
            self.by_estimator[i] += other.by_estimator[i];
        }
    }

    fn cells(&self, label: String) -> Vec<String> {
        let mut row = vec![label, self.total.to_string(), self.matches.to_string()];
        row.extend(self.by_estimator.iter().map(|c| c.to_string()));
        row
    }
}

fn table02_render(opts: &SweepOptions, set: &CellSet) -> RenderOutput {
    let mut table = Table::new(
        "Table II: estimated sparsest cuts — do they match throughput, and which estimators found them?",
        &[
            "topology family", "networks", "cut=throughput", "Brute force", "1-node", "2-node",
            "Expanding regions", "Eigenvector",
        ],
    );
    // Sum the battery rows by the `group` label their throughput cell
    // carries — no topology reconstruction on the render path.
    let rows = table02_rows(opts);
    let sum = |group: &str| {
        let mut acc = Table02Row::default();
        for row in &rows {
            let tput = set.outcome(&row.cells[0].id);
            if label(tput, "group") == group {
                acc.account(tput, set.outcome(&row.cells[1].id));
            }
        }
        acc
    };
    let groups = (ALL_FAMILIES.iter())
        .map(|family| (family.name(), family.name()))
        .chain([("natural", "Natural networks")]);
    let mut grand = Table02Row::default();
    for (group, name) in groups {
        let acc = sum(group);
        grand.absorb(&acc);
        table.row_strings(acc.cells(name.to_string()));
    }
    table.row_strings(grand.cells("Total".to_string()));
    one_table(
        "table02_cut_estimators",
        table,
        "Expected shape (paper): the estimated cut matches throughput in only a minority of\n\
         computer networks (throughput < cut elsewhere); the eigenvector sweep finds the winning\n\
         cut most often, with one/two-node cuts mattering mainly for the natural networks, and\n\
         fat trees matched by every estimator.",
    )
}

// ---------------------------------------------------------------------------
// Theorem 1 demo: cut and throughput can rank two graphs oppositely.
// ---------------------------------------------------------------------------

/// One row per graph: its A2A throughput cell and its cut cell.
fn theorem1_rows(opts: &SweepOptions) -> Vec<Row> {
    let n: usize = if opts.full { 128 } else { 48 };
    // Graph A: degree 2d = 6 with beta ~ alpha / log2(n).
    let graph_a = TopoSpec::ClusteredRandom {
        n,
        alpha: 5,
        beta: 1,
        seed: opts.seed,
    };
    // Graph B: same node budget: N = n / p base nodes, degree 2d = 6, p = 3.
    // Base expander has N nodes and N*d edges; subdividing adds N*d*(p-1)
    // nodes, so total nodes = N + N*d*(p-1). Choose N so totals are close
    // to n.
    let p = 3;
    let d = 3;
    let base_n = (n as f64 / (1.0 + d as f64 * (p as f64 - 1.0))).round() as usize;
    let graph_b = TopoSpec::SubdividedExpander {
        base_nodes: base_n.max(4),
        d,
        p,
        seed: opts.seed,
    };
    let graphs = [
        ("a", "A: clustered random".to_string(), graph_a),
        ("b", format!("B: subdivided expander (p={p})"), graph_b),
    ];
    (graphs.into_iter())
        .map(|(tag, name, topo)| {
            let meta = topo.metadata().expect("theorem1 graphs have metadata");
            let links = meta
                .links
                .expect("theorem1 graphs have closed-form link counts");
            let (nodes, links) = (meta.switches.to_string(), links.to_string());
            let tput = SweepCell::new(
                format!("{tag}/tput"),
                CellSpec::Throughput {
                    topo: topo.clone(),
                    tm: TmSpec::AllToAll,
                    tm_seed: opts.seed,
                },
            )
            .label("nodes", nodes.clone())
            .label("links", links.clone());
            let cut = SweepCell::new(
                format!("{tag}/cut"),
                CellSpec::CutEstimate {
                    topo,
                    tm: TmSpec::AllToAll,
                    tm_seed: opts.seed,
                },
            );
            Row {
                head: vec![name, nodes, links],
                cells: vec![tput, cut],
            }
        })
        .collect()
}

fn theorem1_render(opts: &SweepOptions, set: &CellSet) -> RenderOutput {
    let table = rows_table(
        "Theorem 1 demo: sparsest cut can rank networks opposite to throughput",
        &[
            "graph",
            "nodes",
            "links",
            "A2A throughput",
            "sparse cut",
            "cut/throughput",
        ],
        set,
        theorem1_rows(opts),
        |o| {
            let throughput = o[0].values.num("lower");
            let cut = o[1].values.num("best_sparsity");
            vec![f3(throughput), f3(cut), f3(cut / throughput)]
        },
    );
    one_table(
        "theorem1_demo",
        table,
        "Expected shape (paper, Theorem 1): graph B's cut/throughput ratio is much larger than\n\
         graph A's — B \"looks\" better through the cut lens while delivering lower throughput per\n\
         unit of cut, because its flows traverse p links each.",
    )
}

// ---------------------------------------------------------------------------
// Failure sweep: degradation curves under deterministic fault injection.
// ---------------------------------------------------------------------------

/// Link-failure fractions of the degradation curve. `0.0` anchors every
/// family at relative throughput exactly 1.
fn failures_fracs(full: bool) -> Vec<f64> {
    if full {
        vec![0.0, 0.05, 0.1, 0.2, 0.3]
    } else {
        vec![0.0, 0.1, 0.2]
    }
}

/// Independent failure draws averaged per cell (mean ± error bars).
const FAILURE_DRAWS: u64 = 5;

/// One row per family: a cell per link-failure fraction, then one with a
/// single switch failure.
fn failures_rows(opts: &SweepOptions) -> Vec<Row> {
    (ALL_FAMILIES.into_iter())
        .map(|family| {
            // Fixed equipment per family: the same representative instance
            // the other figure sweeps use. Labels come from the spec's
            // metadata — expansion stays construction-free; faults are drawn
            // inside the cell, at solve time.
            let topo = TopoSpec::Representative {
                family,
                seed: opts.seed,
            };
            let params = params(&topo);
            let cell = |id: String, link_fail_frac: f64, switch_failures: usize| {
                let spec = CellSpec::Degradation {
                    topo: topo.clone(),
                    tm: TmSpec::AllToAll,
                    tm_seed: opts.seed,
                    link_fail_frac,
                    switch_failures,
                    failure_seeds: FAILURE_DRAWS,
                    seed: opts.seed.wrapping_add(90),
                };
                SweepCell::new(format!("{}/{id}", family.name()), spec)
                    .label("family", family.name())
                    .label("params", params.clone())
            };
            let mut cells: Vec<SweepCell> = (failures_fracs(opts.full).into_iter())
                .map(|frac| cell(format!("links={frac:.2}"), frac, 0))
                .collect();
            cells.push(cell("switches=1".into(), 0.0, 1));
            Row {
                head: vec![family.name().into(), params],
                cells,
            }
        })
        .collect()
}

/// One degradation table entry: mean ± ci95, marked `*` when some demand
/// pairs were disconnected and dropped (the mean covers the surviving pairs
/// only).
fn failures_entry(o: &CellOutcome) -> String {
    let (mean, ci) = (o.values.num("rel_mean"), o.values.num("rel_ci95"));
    let mut entry = format!("{mean:.3}±{ci:.3}");
    if o.values.num("dropped_mean") > 0.0 {
        entry.push('*');
    }
    entry
}

fn failures_render(opts: &SweepOptions, set: &CellSet) -> RenderOutput {
    let mut header: Vec<String> = vec!["topology".into(), "params".into()];
    for frac in failures_fracs(opts.full) {
        header.push(format!("links -{:.0}%", frac * 100.0));
    }
    header.push("switches -1".into());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let table = rows_table(
        format!(
            "Failure sweep: relative throughput (faulted / fault-free, mean ± ci95 over {FAILURE_DRAWS} draws)"
        ),
        &header_refs,
        set,
        failures_rows(opts),
        |o| o.iter().map(|o| failures_entry(o)).collect(),
    );
    one_table(
        "failures_degradation",
        table,
        "Expected shape: the 0% column is exactly 1 (the baseline is its own ratio); throughput\n\
         degrades gracefully — roughly proportionally to the removed capacity — rather than\n\
         collapsing, echoing the random-graph robustness argument of the paper. Entries marked *\n\
         dropped disconnected demand pairs before solving (degraded, not failed); a cell that\n\
         panicked is marked failed in the artifact and the run prints the cell dump instead.",
    )
}

// ---------------------------------------------------------------------------
// Design search: hill-climb topology parameters for throughput per cost.
// ---------------------------------------------------------------------------

/// One row per searchable starting design. Each is deliberately started
/// *off* its optimum (an over- or under-provisioned link budget) so the climb
/// has somewhere to go; equipment stays fixed along every move (see
/// `CellSpec::Search`).
fn search_rows(opts: &SweepOptions) -> Vec<Row> {
    let pick = |full, reduced| if opts.full { full } else { reduced };
    let starts = [
        (
            "jellyfish",
            TopoSpec::Jellyfish {
                switches: pick(40, 16),
                degree: 4,
                servers: pick(6, 4),
                seed: opts.seed,
            },
        ),
        (
            "longhop",
            TopoSpec::LongHop {
                dim: pick(5, 4),
                degree: pick(10, 8),
                servers: 2,
            },
        ),
        (
            "hyperx",
            TopoSpec::HyperX {
                radix: pick(16, 10),
                min_servers: pick(128, 48),
                bisection: 0.3,
            },
        ),
    ];
    (starts.into_iter())
        .map(|(name, start)| {
            let params = params(&start);
            let cell = SweepCell::new(
                format!("search/{name}"),
                CellSpec::Search {
                    start,
                    tm: TmSpec::AllToAll,
                    tm_seed: opts.seed,
                    max_steps: pick(6, 4),
                },
            )
            .label("family", name)
            .label("start_params", params);
            Row {
                head: vec![name.into()],
                cells: vec![cell],
            }
        })
        .collect()
}

fn search_render(opts: &SweepOptions, set: &CellSet) -> RenderOutput {
    let table = rows_table(
        "Design search: throughput per unit cost (cost = links + 4/switch), fixed equipment",
        &[
            "design",
            "start",
            "final",
            "start obj",
            "final obj",
            "gain",
            "steps",
            "evals",
        ],
        set,
        search_rows(opts),
        |o| {
            let values = &o[0].values;
            let start_obj = values.num("start_objective");
            let final_obj = values.num("final_objective");
            let gain = if start_obj > 0.0 {
                format!("{:+.1}%", (final_obj / start_obj - 1.0) * 100.0)
            } else {
                "-".into()
            };
            vec![
                values.text("step_0_params").unwrap_or("-").to_string(),
                values.text("final_params").unwrap_or("-").to_string(),
                f3(start_obj),
                f3(final_obj),
                gain,
                format!("{}", values.num("steps_accepted") as u64),
                format!("{}", values.num("evals") as u64),
            ]
        },
    );
    one_table(
        "search_results",
        table,
        "Expected shape: each climb ends at a design whose throughput-per-cost is at least\n\
         its start's (a zero-step climb means the start was already locally optimal). The\n\
         Jellyfish and Long Hop climbs trade server/network ports and long-hop generators\n\
         against link cost.",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> SweepOptions {
        SweepOptions::new(false, 1)
    }

    #[test]
    fn every_scenario_expands_to_unique_cell_ids() {
        for scenario in registry() {
            let cells = (scenario.build)(&opts());
            assert!(!cells.is_empty(), "{} expands to no cells", scenario.name);
            let mut ids: Vec<&str> = cells.iter().map(|c| c.id.as_str()).collect();
            let before = ids.len();
            ids.sort();
            ids.dedup();
            assert_eq!(
                before,
                ids.len(),
                "{} has duplicate cell ids",
                scenario.name
            );
        }
    }

    #[test]
    fn fig02_grid_shape() {
        let cells = cells_of(fig02_rows(&opts()));
        // 4 hypercubes + 4 RRGs + 3 fat trees, 6 series each.
        assert_eq!(cells.len(), 11 * 6);
    }

    #[test]
    fn failures_grid_shape() {
        let cells = cells_of(failures_rows(&opts()));
        // One cell per link-failure fraction plus one switch-failure cell,
        // for every family.
        assert_eq!(
            cells.len(),
            ALL_FAMILIES.len() * (failures_fracs(false).len() + 1)
        );
        assert!(cells
            .iter()
            .all(|c| matches!(c.spec, CellSpec::Degradation { .. })));
        // The curve is anchored at zero failures.
        assert!(cells.iter().any(|c| c.id.ends_with("links=0.00")));
    }

    #[test]
    fn cut_battery_caps_switch_count() {
        for row in cut_battery(&opts(), 70) {
            let switches: usize = row.head[2].parse().unwrap();
            assert!(switches <= 70, "{} exceeds the cap", row.cells[0].id);
        }
    }
}

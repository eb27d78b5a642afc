//! Engine-level regression tests: bit-identical results across serial and
//! parallel execution, and deterministic scenario expansion. (Rendered
//! tables are pinned by `golden_artifacts`, which compares every scenario's
//! `tables` block with its golden.)

use topobench::sweep::{run_cells, CellSpec, SweepCell, SweepOptions, TopoSpec};
use topobench::TmSpec;

fn no_cache_opts() -> SweepOptions {
    let mut opts = SweepOptions::new(false, 1);
    opts.use_cache = false;
    opts
}

fn mixed_cells(seed: u64) -> Vec<SweepCell> {
    let cube = TopoSpec::Hypercube {
        dims: 4,
        servers: 1,
    };
    let mut cells = vec![
        SweepCell::new(
            "cube/A2A",
            CellSpec::Throughput {
                topo: cube.clone(),
                tm: TmSpec::AllToAll,
                tm_seed: seed,
            },
        ),
        SweepCell::new(
            "cube/LM",
            CellSpec::Throughput {
                topo: cube.clone(),
                tm: TmSpec::LongestMatching,
                tm_seed: seed,
            },
        ),
        SweepCell::new(
            "cube/cut",
            CellSpec::CutEstimate {
                topo: cube.clone(),
                tm: TmSpec::LongestMatching,
                tm_seed: seed,
            },
        ),
        // Exercises nested parallelism (random-graph sampling inside a cell).
        SweepCell::new(
            "jelly/rel",
            CellSpec::Relative {
                topo: TopoSpec::Jellyfish {
                    switches: 16,
                    degree: 4,
                    servers: 1,
                    seed,
                },
                tm: TmSpec::AllToAll,
            },
        ),
    ];
    for k in [1usize, 2] {
        cells.push(SweepCell::new(
            format!("cube/RM({k})"),
            CellSpec::Throughput {
                topo: TopoSpec::WithServers {
                    base: Box::new(cube.clone()),
                    servers_per_switch: k,
                },
                tm: TmSpec::RandomMatching {
                    servers_per_switch: k,
                },
                tm_seed: seed,
            },
        ));
    }
    cells
}

/// The tentpole determinism guarantee: a fully serial run (one workspace,
/// one thread) and a parallel run produce bit-identical metrics for
/// every cell, in the same order.
#[test]
fn parallel_and_serial_sweeps_are_bit_identical() {
    let mut serial_opts = no_cache_opts();
    serial_opts.jobs = Some(1);
    let parallel_opts = no_cache_opts();

    let serial = run_cells(&serial_opts, mixed_cells(1));
    let parallel = run_cells(&parallel_opts, mixed_cells(1));
    assert_eq!(serial.outcomes.len(), parallel.outcomes.len());
    for (s, p) in serial.outcomes.iter().zip(&parallel.outcomes) {
        assert_eq!(s.cell.id, p.cell.id);
        assert!(
            s.values.bit_identical(&p.values),
            "cell {} differs between serial and parallel runs: {:?} vs {:?}",
            s.cell.id,
            s.values,
            p.values
        );
    }

    // And a repeated parallel run is bit-identical too (no hidden state).
    let again = run_cells(&parallel_opts, mixed_cells(1));
    for (a, b) in parallel.outcomes.iter().zip(&again.outcomes) {
        assert!(a.values.bit_identical(&b.values));
    }
}

/// Every registered scenario expands the same cell grid twice in a row
/// (expansion must be deterministic — ids and specs are cache keys).
#[test]
fn scenario_expansion_is_deterministic() {
    for scenario in experiments::registry() {
        let opts = no_cache_opts();
        let a = (scenario.build)(&opts);
        let b = (scenario.build)(&opts);
        assert_eq!(a.len(), b.len(), "{}", scenario.name);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id, "{}", scenario.name);
            assert_eq!(
                format!("{:?}", x.spec),
                format!("{:?}", y.spec),
                "{}",
                scenario.name
            );
        }
    }
}

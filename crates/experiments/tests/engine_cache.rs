//! The cache contract, proven end to end: a warm re-run of a scenario
//! performs **zero** solver invocations **and zero topology constructions**
//! (expansion, execution and rendering all run on construction-free
//! metadata) and returns bit-identical results.
//!
//! A run counts only its own solves and builds, and the expansion check
//! reads the construction counter of its own thread, so the exact zeros hold
//! whatever other tests run beside this one.

use experiments::find_scenario;
use topobench::sweep::{artifact_json, run_scenario, validate_artifact, SweepOptions};

#[test]
fn warm_cache_rerun_is_solver_free_and_bit_identical() {
    let cache_dir = std::env::temp_dir().join(format!("tb-engine-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    let mut opts = SweepOptions::new(false, 1);
    opts.cache_dir = cache_dir.clone();
    let scenario = find_scenario("theorem1_demo").unwrap();

    // Cold run: every cell computed, cache populated.
    let (cold, cold_render) = run_scenario(&scenario, &opts);
    assert_eq!(cold.cache_hits, 0);
    assert!(
        cold.solver_calls > 0,
        "cold run must actually invoke the solver"
    );
    assert!(
        cold.topo_builds > 0,
        "cold run must actually construct topologies"
    );
    assert!(cold.outcomes.iter().all(|o| !o.cached));

    // Warm run: all cells served from cache, zero solver invocations and
    // zero topology constructions end to end (expansion and rendering run
    // on the construction-free metadata layer).
    let (warm, warm_render) = run_scenario(&scenario, &opts);
    assert_eq!(warm.cache_hits, warm.unique_cells);
    assert_eq!(
        warm.solver_calls, 0,
        "cache-hot run must not invoke any solver"
    );
    assert_eq!(
        warm.topo_builds, 0,
        "cache-hot run must not construct any topology"
    );
    assert!(warm.outcomes.iter().all(|o| o.cached));
    assert_eq!(cold.outcomes.len(), warm.outcomes.len());
    for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
        assert!(
            c.values.bit_identical(&w.values),
            "cached cell {} drifted",
            c.cell.id
        );
    }

    // Rendering from cached cells is identical to rendering fresh ones.
    for (c, w) in cold_render.tables.iter().zip(&warm_render.tables) {
        assert_eq!(c.table.rows(), w.table.rows());
    }

    // The artifact of the warm run validates and records the cache hits.
    let doc = artifact_json(scenario.name, scenario.title, &opts, &warm, &warm_render);
    validate_artifact(&doc.to_string()).expect("artifact must validate");
    let text = doc.to_string();
    assert!(text.contains("\"cached\":true"));

    // Expansion alone is construction-free for every registered scenario at
    // both ladder scales — the invariant the zero-build warm path rests on.
    let builds_before = tb_topology::constructions();
    for scenario in experiments::registry() {
        for full in [false, true] {
            let mut expand_opts = SweepOptions::new(full, 1);
            expand_opts.use_cache = false;
            let cells = (scenario.build)(&expand_opts);
            assert!(!cells.is_empty(), "{} expands to no cells", scenario.name);
        }
    }
    assert_eq!(
        tb_topology::constructions() - builds_before,
        0,
        "scenario expansion must not construct topologies"
    );

    // `--no-cache` semantics: the same run with the cache disabled computes.
    let mut no_cache = opts.clone();
    no_cache.use_cache = false;
    let (fresh, _) = run_scenario(&scenario, &no_cache);
    assert_eq!(fresh.cache_hits, 0);
    assert!(fresh.solver_calls > 0);
    for (c, f) in cold.outcomes.iter().zip(&fresh.outcomes) {
        assert!(c.values.bit_identical(&f.values));
    }

    let _ = std::fs::remove_dir_all(&cache_dir);
}

//! The `search` scenario's cache contract, proven end to end: a cache-hot
//! re-run performs **zero** solver invocations and **zero** topology
//! constructions (the hill climb's design evaluations are all behind the
//! cell cache, and expansion + rendering run on construction-free metadata),
//! and returns bit-identical results.
//!
//! A run counts only its own solves and builds, so the exact zeros hold
//! whatever other tests run beside this one.

use experiments::find_scenario;
use topobench::sweep::{artifact_json, run_scenario, validate_artifact, SweepOptions};

#[test]
fn search_cache_rerun_is_solver_free_and_bit_identical() {
    let cache_dir = std::env::temp_dir().join(format!("tb-search-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);

    let mut opts = SweepOptions::new(false, 1);
    opts.cache_dir = cache_dir.clone();
    let scenario = find_scenario("search").unwrap();

    // Cold run: the hill climbs actually evaluate designs.
    let (cold, cold_render) = run_scenario(&scenario, &opts);
    assert_eq!(cold.cache_hits, 0);
    assert_eq!(cold.failed_cells, 0, "search cells must not fail");
    assert!(
        cold.solver_calls > 0,
        "cold search must actually invoke the solver"
    );
    assert!(
        cold.topo_builds > 0,
        "cold search must actually construct candidate designs"
    );
    // Every climb must report its trajectory: evaluations, accepted steps
    // and a final design distinct from or equal to the start, plus the
    // throughput-per-cost objective it settled on.
    for o in &cold.outcomes {
        assert!(
            o.values.num("evals") >= 1.0,
            "{}: no evaluations",
            o.cell.id
        );
        assert!(
            o.values.num("final_objective") >= o.values.num("start_objective"),
            "{}: hill climb went downhill",
            o.cell.id
        );
        assert!(
            o.values.text("final_spec").is_some(),
            "{}: no final design recorded",
            o.cell.id
        );
    }

    // Cache-hot re-run: zero solver calls, zero constructions, identical
    // bits.
    let (hot, hot_render) = run_scenario(&scenario, &opts);
    assert_eq!(hot.cache_hits, hot.unique_cells);
    assert_eq!(
        hot.solver_calls, 0,
        "cache-hot search must not invoke any solver"
    );
    assert_eq!(
        hot.topo_builds, 0,
        "cache-hot search must not construct any topology"
    );
    assert!(hot.outcomes.iter().all(|o| o.cached));
    assert_eq!(cold.outcomes.len(), hot.outcomes.len());
    for (c, h) in cold.outcomes.iter().zip(&hot.outcomes) {
        assert!(
            c.values.bit_identical(&h.values),
            "cached search cell {} drifted",
            c.cell.id
        );
    }
    for (c, h) in cold_render.tables.iter().zip(&hot_render.tables) {
        assert_eq!(c.table.rows(), h.table.rows());
    }

    // The artifact validates — this is what the committed golden pins.
    let doc = artifact_json(scenario.name, scenario.title, &opts, &hot, &hot_render);
    validate_artifact(&doc.to_string()).expect("search artifact must validate");

    let _ = std::fs::remove_dir_all(&cache_dir);
}

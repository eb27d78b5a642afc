//! Golden-artifact regression suite: every registered scenario is
//! regenerated from scratch (reduced scale, seed 1, no cache) and compared
//! cell-by-cell against the committed artifact under `results/golden/`
//! using the `sweep diff` engine. Every value must match **bit for bit** —
//! this is the process-level reproducibility guard (the class of bug it
//! catches: per-process randomized `HashSet` iteration leaking into graph
//! generation, as once happened to fig03/table02). The rendered `tables`
//! block must equal the golden's too, which the cell diff never looks at:
//! a renderer that printed a wrong column would otherwise pass. So must the
//! `stats` block: a hermetic run counts only its own cells, solves and
//! cache hits, so a golden whose counts a fresh run no longer gives is stale.
//!
//! Refresh after an intentional change with:
//!
//! ```text
//! cargo run --release -p tb_experiments --bin sweep -- \
//!     --scenario all --no-cache --write-golden
//! ```

use std::path::PathBuf;
use topobench::sweep::json::Json;
use topobench::sweep::{
    artifact_json, diff_artifacts, run_scenario, validate_artifact, SweepOptions,
};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/golden")
        .join(format!("{name}.json"))
}

fn check_golden(name: &str) {
    let scenario = experiments::find_scenario(name).expect("scenario registered");
    let mut opts = SweepOptions::new(false, 1);
    opts.use_cache = false; // hermetic: never trust (or touch) results/cache
    let (report, render) = run_scenario(&scenario, &opts);
    let fresh = artifact_json(scenario.name, scenario.title, &opts, &report, &render).to_string();
    validate_artifact(&fresh).expect("regenerated artifact must validate");

    let path = golden_path(name);
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden artifact {} ({e}); refresh with \
             `cargo run --release -p tb_experiments --bin sweep -- --scenario all --no-cache --write-golden`",
            path.display()
        )
    });
    let diff =
        diff_artifacts(&golden, &fresh).expect("golden and regenerated artifacts must both parse");
    assert!(diff.compared > 0, "{name}: nothing compared");
    assert_eq!(
        diff.bit_identical, diff.compared,
        "{name}: not bit-identical to golden"
    );
    assert!(
        diff.is_clean(),
        "{name} drifted from its golden artifact:\n{}",
        diff.render()
    );
    let block = |text: &str, key: &str| Json::parse(text).unwrap().get(key).cloned();
    assert_eq!(
        block(&fresh, "tables"),
        block(&golden, "tables"),
        "{name}: rendered tables differ from the golden's"
    );
    assert_eq!(
        block(&fresh, "stats"),
        block(&golden, "stats"),
        "{name}: stats differ from the golden's"
    );
}

macro_rules! golden {
    ($test:ident, $name:literal) => {
        #[test]
        fn $test() {
            check_golden($name);
        }
    };
}

golden!(golden_fig02, "fig02");
golden!(golden_fig03, "fig03");
golden!(golden_fig04, "fig04");
golden!(golden_fig05_06, "fig05_06");
golden!(golden_fig07, "fig07");
golden!(golden_fig08, "fig08");
golden!(golden_fig09, "fig09");
golden!(golden_fig10_11, "fig10_11");
golden!(golden_fig12, "fig12");
golden!(golden_fig13_14, "fig13_14");
golden!(golden_fig15, "fig15");
golden!(golden_table02, "table02");
golden!(golden_theorem1_demo, "theorem1_demo");
golden!(golden_failures, "failures");
golden!(golden_search, "search");

/// The registry and this suite must stay in sync: a newly added scenario
/// without a golden artifact fails here rather than silently going
/// unguarded.
#[test]
fn every_scenario_has_a_golden_artifact() {
    for scenario in experiments::registry() {
        assert!(
            golden_path(scenario.name).is_file(),
            "no golden artifact for scenario '{}' — refresh results/golden/",
            scenario.name
        );
    }
}

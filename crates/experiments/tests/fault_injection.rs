//! Fault-injection integration suite: the sweep engine must survive — and
//! mark, not mask — every failure mode the `failures` scenario can hit in
//! production: a panicking cell, a corrupted on-disk cache entry, and an
//! instance whose demands are disconnected by injected faults.
//!
//! The failure-draw determinism test pins the surviving graph to a
//! fingerprint constant, so re-running this binary under different
//! `RAYON_NUM_THREADS` (CI runs widths 1, 2 and 8) proves failure draws are
//! process- and thread-count-independent, not merely stable within one
//! process.

use std::fs;
use std::path::PathBuf;
use tb_topology::faults::{apply_faults, FaultPlan};
use tb_topology::Topology;
use topobench::sweep::{
    artifact_json, cell_key, fnv1a, run_cells, validate_artifact, CellSet, CellSpec, ResultCache,
    SweepCell, SweepOptions, TopoSpec,
};
use topobench::TmSpec;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tb-faultinj-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A 3-cube with one server per switch: failing 8 of its 12 links and 2
/// switches at draw seed 5 leaves alive-but-disconnected servers, so the
/// faulted solve must drop demands.
fn cube3() -> TopoSpec {
    TopoSpec::Hypercube {
        dims: 3,
        servers: 1,
    }
}

/// The failure draw of the disconnected probe.
const DISCONNECTING_PLAN: FaultPlan = FaultPlan {
    link_failures: 8,
    switch_failures: 2,
    seed: 5,
};

/// Acceptance drill for the failure-sweep subsystem: one full `failures`
/// run completes and its artifact validates even when (a) one cell panics,
/// (b) one cached entry is corrupted on disk, and (c) one instance is
/// disconnected — affected cells are marked by status, every other cell is
/// bit-identical to the clean run.
#[test]
fn failure_sweep_survives_panic_corruption_and_disconnection() {
    let scenario = experiments::find_scenario("failures").expect("failures scenario registered");
    let dir = temp_dir("sweep");
    let mut opts = SweepOptions::new(false, 1);
    opts.cache_dir.clone_from(&dir);

    // Clean reference run (cold cache).
    let cells = (scenario.build)(&opts);
    let clean = run_cells(&opts, cells.clone());
    assert_eq!(clean.failed_cells, 0, "clean run must not fail any cell");

    // (b) Corrupt one warm cache entry in place.
    let cfg = opts.eval_config();
    let victim_path = ResultCache::new(&dir).path_for(&cell_key(&cells[0], &cfg));
    assert!(victim_path.exists(), "clean run must populate the cache");
    fs::write(&victim_path, "{truncated garbage").unwrap();

    // (a) A cell that panics (no radix-2 HyperX design has a million
    // servers) and (c) a degradation cell whose one failure draw
    // disconnects the instance.
    let mut perturbed = cells.clone();
    perturbed.push(SweepCell::new(
        "probe/panic",
        CellSpec::Throughput {
            topo: TopoSpec::HyperX {
                radix: 2,
                min_servers: 1_000_000,
                bisection: 0.4,
            },
            tm: TmSpec::AllToAll,
            tm_seed: 1,
        },
    ));
    perturbed.push(SweepCell::new(
        "probe/disconnected",
        CellSpec::Degradation {
            topo: cube3(),
            tm: TmSpec::AllToAll,
            tm_seed: 1,
            link_fail_frac: DISCONNECTING_PLAN.link_failures as f64 / 12.0,
            switch_failures: DISCONNECTING_PLAN.switch_failures,
            failure_seeds: 1,
            seed: DISCONNECTING_PLAN.seed,
        },
    ));
    let report = run_cells(&opts, perturbed);

    // The sweep completed; exactly the panicking cell failed.
    assert_eq!(report.failed_cells, 1);
    let by_id = |id: &str| {
        report
            .outcomes
            .iter()
            .find(|o| o.cell.id == id)
            .unwrap_or_else(|| panic!("missing cell '{id}'"))
    };
    let dead = by_id("probe/panic");
    assert!(dead.is_failed());
    let error = dead.error.as_deref().unwrap();
    assert!(error.contains("unsatisfiable topology spec"), "{error}");

    // (c) The disconnected draw is absorbed and counted as degraded.
    let disc = by_id("probe/disconnected");
    assert!(!disc.is_failed(), "disconnection must degrade, not fail");
    assert_eq!(disc.values.num("degraded_draws"), 1.0);
    assert!(
        disc.values.num("dropped_mean") > 0.0,
        "demands were dropped"
    );

    // (b) The corrupt entry was quarantined (bytes kept as .bad) and the
    // cell re-solved — a fresh healthy entry now sits at the original path.
    assert!(
        victim_path.with_extension("bad").exists(),
        "corrupt entry must be quarantined, not deleted"
    );
    assert!(
        victim_path.exists(),
        "re-solve must re-store a healthy entry"
    );

    // Every original cell is bit-identical to the clean run.
    for (a, b) in clean.outcomes.iter().zip(&report.outcomes) {
        assert_eq!(a.cell.id, b.cell.id);
        assert!(
            a.values.bit_identical(&b.values),
            "cell '{}' drifted under fault injection",
            a.cell.id
        );
    }

    // The artifact still writes and validates, with only the panicking cell
    // marked.
    let render = (scenario.render)(&opts, &CellSet::new(&report.outcomes));
    let doc = artifact_json(scenario.name, scenario.title, &opts, &report, &render).to_string();
    validate_artifact(&doc).expect("artifact with a failed cell must validate");
    assert_eq!(doc.matches("\"status\":\"failed\"").count(), 1);

    let _ = fs::remove_dir_all(&dir);
}

/// Forced-budget-exhaustion drill for the certificate layer: when the
/// verifier's re-run runs out of phases, its bounds are real but meet no
/// accuracy contract, so `sweep verify` must classify the cell as
/// *unverifiable* — never as certified, and never silently skip it. The same
/// cell verified under a sane budget is the control.
#[test]
fn budget_exhausted_certificates_are_unverifiable_never_certified() {
    use std::collections::HashMap;
    use topobench::sweep::{verify_artifact_cells, Artifact, ArtifactCell, VerifyReport};
    use topobench::EvalConfig;

    let spec = CellSpec::Throughput {
        topo: TopoSpec::Hypercube {
            dims: 4,
            servers: 1,
        },
        tm: TmSpec::AllToAll,
        tm_seed: 1,
    };
    let sane = SweepOptions::new(false, 1).eval_config();
    // The cell as `parse_artifact` reads it back from an artifact.
    let cell = ArtifactCell {
        id: "probe/budget".into(),
        cached: false,
        labels: Default::default(),
        values: spec.compute(&sane),
        error: None,
    };
    let artifact = Artifact {
        scenario: "probe".into(),
        title: String::new(),
        full: false,
        partial: false,
        seed: 1,
        filter: None,
        stats: [1.0, 1.0, 0.0, 1.0],
        cells: vec![cell.clone()],
        tables: Vec::new(),
    };
    let specs = HashMap::from([(cell.id.clone(), spec)]);
    let verify = |cfg: EvalConfig| -> VerifyReport {
        let input = (artifact.clone(), specs.clone(), cfg);
        verify_artifact_cells(&[input]).0.remove(0)
    };

    let mut starved = sane;
    // Force the FPTAS (no exact short-circuit) and strangle its budget: one
    // phase at a tight epsilon cannot saturate the MWU on an all-to-all TM,
    // and the sub-ulp gap target is unreachable — the solve must stop on the
    // phase cap with the bound gap wide open.
    starved.exact_switch_limit = 0;
    starved.solver.max_phases = 1;
    starved.solver.check_interval = 1;
    starved.solver.epsilon = 0.01;
    starved.solver.target_gap = 1e-9;
    let report = verify(starved);
    let [(_, why)] = report.unverifiable.as_slice() else {
        panic!("budget-exhausted cell must be unverifiable, got {report:?}");
    };
    assert!(why.contains("budget"), "{why}");
    assert_eq!(report.certified, 0);

    // Control: the same cell under the configuration that produced it,
    // certified by its one solve's certificate.
    let report = verify(sane);
    assert_eq!((report.certified, report.certificates), (1, 1));
}

/// Zero faults are the base: `apply_faults` with no link and no switch
/// failure returns the base's graph (edge order and capacities included) and
/// servers, reports nothing failed, and solving it gives the base's bounds
/// bit for bit, on the exact path (16 switches) and the FPTAS's (32), under
/// every draw seed.
#[test]
fn zero_faults_leave_the_base_and_its_bounds_unchanged() {
    let cfg = topobench::EvalConfig::default();
    for spec in [
        TopoSpec::Hypercube {
            dims: 4,
            servers: 2,
        },
        TopoSpec::Hypercube {
            dims: 5,
            servers: 1,
        },
    ] {
        let base = spec.build().expect("spec must build");
        let edges = |topo: &Topology| -> Vec<(usize, usize, u64)> {
            let edges = topo.graph.edges().iter();
            edges.map(|e| (e.u, e.v, e.cap.to_bits())).collect()
        };
        for seed in [0, 7] {
            let plan = FaultPlan {
                link_failures: 0,
                switch_failures: 0,
                seed,
            };
            let (faulted, report) = apply_faults(&base, &plan);
            assert_eq!(faulted.num_switches(), base.num_switches());
            assert_eq!(edges(&faulted), edges(&base), "{spec:?}");
            assert_eq!(faulted.servers, base.servers, "{spec:?}");
            assert!(report.failed_switches.is_empty() && report.failed_links.is_empty());
            assert_eq!(report.surviving_links, base.num_links());
            for tm in [TmSpec::LongestMatching, TmSpec::AllToAll] {
                let solve = |topo: &Topology| {
                    let b = topobench::evaluate(topo, &tm.generate(topo, 1), &cfg).bounds;
                    (b.lower.to_bits(), b.upper.to_bits())
                };
                assert_eq!(solve(&faulted), solve(&base), "{spec:?} {tm:?} seed {seed}");
            }
        }
    }
}

/// Canonical fingerprint of a topology: surviving edge list + server
/// placement, hashed. Bit-identical graphs ⇒ equal fingerprints.
fn graph_fingerprint(topo: &Topology) -> u64 {
    let mut text = String::new();
    for e in topo.graph.edges() {
        text.push_str(&format!("{},{};", e.u, e.v));
    }
    text.push('|');
    for s in &topo.servers {
        text.push_str(&format!("{s},"));
    }
    fnv1a(&text)
}

/// The fingerprint of `base` after the failure draw `plan`.
fn faulted_fingerprint(base: &TopoSpec, plan: &FaultPlan) -> u64 {
    let base = base.build().expect("spec must build");
    graph_fingerprint(&apply_faults(&base, plan).0)
}

/// Failure draws are a pure function of the base and the plan: repeat draws
/// are bit-identical, and the pinned constants make re-runs of this binary
/// under `RAYON_NUM_THREADS` 1/2/8 (and on other machines) prove
/// process-level determinism rather than in-process stability.
#[test]
fn faulted_build_fingerprint_is_pinned() {
    let cube4 = TopoSpec::Hypercube {
        dims: 4,
        servers: 2,
    };
    let plan = FaultPlan {
        link_failures: 5,
        switch_failures: 1,
        seed: 42,
    };
    let reference = faulted_fingerprint(&cube4, &plan);
    for _ in 0..3 {
        assert_eq!(
            faulted_fingerprint(&cube4, &plan),
            reference,
            "repeat draw drifted"
        );
    }
    assert_eq!(
        reference, 0x7710_E5B4_1B48_623A,
        "faulted hypercube drifted"
    );
    assert_eq!(
        faulted_fingerprint(&cube3(), &DISCONNECTING_PLAN),
        0x2BBB_4EFE_1AB6_C63B,
        "disconnected probe draw drifted"
    );
}

/// Degradation cells (whose faulted builds happen inside worker threads)
/// are bit-identical between fully serial and parallel execution.
#[test]
fn degradation_cells_are_bit_identical_serial_vs_parallel() {
    let cells: Vec<SweepCell> = (0..4)
        .map(|i| {
            SweepCell::new(
                format!("deg/{i}"),
                CellSpec::Degradation {
                    topo: cube3(),
                    tm: TmSpec::AllToAll,
                    tm_seed: 1,
                    link_fail_frac: 0.15,
                    switch_failures: 1,
                    failure_seeds: 3,
                    seed: 9 + i,
                },
            )
        })
        .collect();
    let mut serial = SweepOptions::new(false, 1);
    serial.use_cache = false;
    serial.jobs = Some(1);
    let mut parallel = serial.clone();
    parallel.jobs = None;
    let a = run_cells(&serial, cells.clone());
    let b = run_cells(&parallel, cells);
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert!(
            x.values.bit_identical(&y.values),
            "cell '{}' differs between serial and parallel execution",
            x.cell.id
        );
    }
}

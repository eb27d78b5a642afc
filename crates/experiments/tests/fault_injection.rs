//! Fault-injection integration suite: the sweep engine must survive — and
//! mark, not mask — every failure mode the `failures` scenario can hit in
//! production: a panicking cell, a corrupted on-disk cache entry, and an
//! instance whose demands are disconnected by injected faults.
//!
//! The `Faulted` determinism tests pin the surviving graph to a fingerprint
//! constant, so re-running this binary under different `RAYON_NUM_THREADS`
//! (CI runs widths 1, 2 and 8) proves failure draws are process- and
//! thread-count-independent, not merely stable within one process.

use std::fs;
use std::path::PathBuf;
use tb_topology::families::{Family, Scale};
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

/// A `Faulted` spec over a hypercube whose heavy switch/link losses leave
/// alive-but-disconnected servers, so the baseline solve must drop demands.
fn disconnected_spec() -> TopoSpec {
    TopoSpec::Faulted {
        base: Box::new(TopoSpec::Hypercube {
            dims: 3,
            servers: 1,
        }),
        link_failures: 8,
        switch_failures: 2,
        seed: 5,
    }
}

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

    // (a) A cell that panics (the hypercube ladder has no rung 99) and (c)
    // a degradation cell whose baseline instance is disconnected by its own
    // fault injection.
    let mut perturbed = cells.clone();
    perturbed.push(SweepCell::new(
        "probe/panic",
        CellSpec::Throughput {
            topo: TopoSpec::Ladder {
                family: Family::Hypercube,
                scale: Scale::Small,
                index: 99,
                seed: 1,
            },
            tm: TmSpec::AllToAll,
            tm_seed: 1,
        },
    ));
    perturbed.push(SweepCell::new(
        "probe/disconnected",
        CellSpec::Degradation {
            topo: disconnected_spec(),
            tm: TmSpec::AllToAll,
            tm_seed: 1,
            link_fail_frac: 0.0,
            switch_failures: 0,
            failure_seeds: 1,
            seed: 7,
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

    // (c) The disconnected instance is absorbed and marked by status text.
    let disc = by_id("probe/disconnected");
    assert!(!disc.is_failed(), "disconnection must degrade, not fail");
    let status = disc.values.text("baseline_status").unwrap();
    assert!(
        status.starts_with("dropped-"),
        "expected dropped-demands status, got '{status}'"
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

/// Forced-budget-exhaustion drill for the certificate layer: a solve whose
/// phase budget runs out still emits a certificate (the bounds it proves are
/// real), but `sweep verify` must classify the cell as *unverifiable* — the
/// bounds meet no accuracy contract — never as certified, and never silently
/// skip it. A converged solve of the same instance is the control.
#[test]
fn budget_exhausted_certificates_are_unverifiable_never_certified() {
    use topobench::eval::evaluate;
    use topobench::flow::{SolveStatus, SolverWorkspace};
    use topobench::sweep::{verify_cell, ArtifactCell, CellCertificate, CellValues, CellVerdict};

    let spec = CellSpec::Throughput {
        topo: TopoSpec::Hypercube {
            dims: 4,
            servers: 1,
        },
        tm: TmSpec::AllToAll,
        tm_seed: 1,
    };
    let CellSpec::Throughput { topo, tm, tm_seed } = &spec else {
        unreachable!()
    };
    let built = topo.build().unwrap();
    let matrix = tm.generate(&built, *tm_seed);

    let mut opts = SweepOptions::new(false, 1);
    opts.certify = true;
    let mut starved = opts.eval_config();
    // Force the FPTAS (no exact short-circuit) and strangle its budget: one
    // phase at a tight epsilon cannot saturate the MWU on an all-to-all TM,
    // and the sub-ulp gap target is unreachable — the solve must stop on the
    // phase cap with the bound gap wide open.
    starved.exact_switch_limit = 0;
    starved.solver.max_phases = 1;
    starved.solver.check_interval = 1;
    starved.solver.epsilon = 0.01;
    starved.solver.target_gap = 1e-9;
    let mut ws = SolverWorkspace::new();
    let e = evaluate(&built, &matrix, &starved, &mut ws);
    let (bounds, status, cert) = (e.bounds, e.status, e.certificate.unwrap());
    assert_eq!(status, SolveStatus::BudgetExhausted, "budget must run out");

    // The cell as `parse_artifact` reads it back from an artifact.
    let artifact_cell = |bounds: topobench::flow::ThroughputBounds, cc: CellCertificate| {
        let mut values = CellValues::default();
        values.push("lower", bounds.lower);
        values.push("upper", bounds.upper);
        ArtifactCell {
            id: "probe/budget".into(),
            cached: false,
            labels: Default::default(),
            values,
            error: None,
            certificate: Some(cc.to_json()),
        }
    };
    let cc = CellCertificate {
        cert,
        status: status.label(),
    };
    let verdict = verify_cell(&artifact_cell(bounds, cc), Some(&spec), &starved);
    let CellVerdict::Unverifiable(why) = verdict else {
        panic!("budget-exhausted cell must be unverifiable, got {verdict:?}");
    };
    assert!(why.contains("budget"), "{why}");

    // Control: the same instance with a sane budget certifies cleanly.
    let sane = opts.eval_config();
    let e = evaluate(&built, &matrix, &sane, &mut ws);
    let (bounds, status, cert) = (e.bounds, e.status, e.certificate.unwrap());
    assert_eq!(status, SolveStatus::Converged);
    let cc = CellCertificate {
        cert,
        status: status.label(),
    };
    assert_eq!(
        verify_cell(&artifact_cell(bounds, cc), Some(&spec), &sane),
        CellVerdict::Certified
    );
}

/// Canonical fingerprint of a built topology: surviving edge list + server
/// placement, hashed. Bit-identical graphs ⇒ equal fingerprints.
fn graph_fingerprint(spec: &TopoSpec) -> u64 {
    let topo = spec.build().expect("spec must build");
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

/// `Faulted` failure draws are a pure function of the spec: repeat builds
/// are bit-identical, and the pinned constants make re-runs of this binary
/// under `RAYON_NUM_THREADS` 1/2/8 (and on other machines) prove
/// process-level determinism rather than in-process stability.
#[test]
fn faulted_build_fingerprint_is_pinned() {
    let spec = TopoSpec::Faulted {
        base: Box::new(TopoSpec::Hypercube {
            dims: 4,
            servers: 2,
        }),
        link_failures: 5,
        switch_failures: 1,
        seed: 42,
    };
    let reference = graph_fingerprint(&spec);
    for _ in 0..3 {
        assert_eq!(graph_fingerprint(&spec), reference, "repeat build drifted");
    }
    assert_eq!(
        reference, 0x7710_E5B4_1B48_623A,
        "faulted hypercube drifted"
    );
    assert_eq!(
        graph_fingerprint(&disconnected_spec()),
        0x2BBB_4EFE_1AB6_C63B,
        "disconnected probe spec drifted"
    );
}

/// Degradation cells (whose faulted builds happen inside worker threads)
/// are bit-identical between fully serial and pool-parallel execution.
#[test]
fn degradation_cells_are_bit_identical_serial_vs_parallel() {
    let cells: Vec<SweepCell> = (0..4)
        .map(|i| {
            SweepCell::new(
                format!("deg/{i}"),
                CellSpec::Degradation {
                    topo: TopoSpec::Hypercube {
                        dims: 3,
                        servers: 1,
                    },
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

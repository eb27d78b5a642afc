//! End-to-end drill for the certificate pipeline: run a scenario through the
//! real `sweep` binary with `--certify`, re-check the artifact with
//! `sweep verify`, then flip a single bit of stored evidence and watch the
//! verifier reject it. This is the user-facing contract: exit 0 means every
//! stored certificate independently re-verified against a rebuilt instance,
//! and any mutation of the evidence — one bit is enough — means exit 1.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tb-verifydrill-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn sweep(cwd: &Path, args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("sweep binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn certified_artifact_verifies_and_one_flipped_bit_fails() {
    let dir = temp_dir("roundtrip");

    // Produce a certified artifact with the real driver.
    let (code, _, err) = sweep(
        &dir,
        &["--scenario", "theorem1_demo", "--certify", "--jobs", "1"],
    );
    assert_eq!(code, 0, "certified run failed: {err}");
    let artifact = dir.join("results").join("theorem1_demo.json");
    let text = fs::read_to_string(&artifact).unwrap();
    assert!(
        text.contains("\"certificate\""),
        "--certify must store certificate blocks"
    );

    // The pristine artifact verifies clean, both singly and via --all.
    let (code, out, err) = sweep(&dir, &["verify", artifact.to_str().unwrap()]);
    assert_eq!(code, 0, "verify failed on a pristine artifact: {out}{err}");
    let results = dir.join("results");
    let (code, out, _) = sweep(&dir, &["verify", "--all", results.to_str().unwrap()]);
    assert_eq!(code, 0, "verify --all failed on a pristine tree: {out}");
    assert!(out.contains("certificate(s) verified"), "{out}");

    // Flip the lowest bit of the first stored flow value: exit 1.
    let tag = "\"flow\":[\"";
    let at = text.find(tag).expect("certificate stores flow bits") + tag.len();
    let hex = &text[at..at + 16];
    let flipped = format!("{:016x}", u64::from_str_radix(hex, 16).unwrap() ^ 1);
    fs::write(&artifact, text.replacen(hex, &flipped, 1)).unwrap();
    let (code, _, err) = sweep(&dir, &["verify", artifact.to_str().unwrap()]);
    assert_eq!(code, 1, "a flipped evidence bit must fail verification");
    assert!(err.contains("FAILED"), "{err}");
    let (code, _, _) = sweep(&dir, &["verify", "--all", results.to_str().unwrap()]);
    assert_eq!(code, 1, "verify --all must propagate the rejection");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn uncertified_tree_is_vacuous_under_verify_all() {
    let dir = temp_dir("vacuous");
    let (code, _, err) = sweep(&dir, &["--scenario", "theorem1_demo", "--jobs", "1"]);
    assert_eq!(code, 0, "plain run failed: {err}");
    let artifact = dir.join("results").join("theorem1_demo.json");
    assert!(
        !fs::read_to_string(&artifact)
            .unwrap()
            .contains("\"certificate\""),
        "plain runs must not store certificates"
    );

    // Zero certificates is a vacuous success and must fail — for one
    // artifact exactly as for a whole tree — so an accidentally uncertified
    // run or golden refresh cannot pass CI.
    let (code, out, err) = sweep(&dir, &["verify", artifact.to_str().unwrap()]);
    assert!(out.contains("0 certified"), "{out}");
    assert_eq!(code, 1, "zero certificates must not read as verified");
    assert!(err.contains("no certificates"), "{err}");
    let results = dir.join("results");
    let (code, _, err) = sweep(&dir, &["verify", "--all", results.to_str().unwrap()]);
    assert_eq!(code, 1, "zero certificates must not read as verified");
    assert!(err.contains("no certificates"), "{err}");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn verify_usage_errors_exit_2() {
    let dir = temp_dir("usage");
    let (code, _, _) = sweep(&dir, &["verify"]);
    assert_eq!(code, 2, "missing path is a usage error");
    let (code, _, _) = sweep(&dir, &["verify", "--frobnicate", "x.json"]);
    assert_eq!(code, 2, "unknown flag is a usage error");
    let (code, _, _) = sweep(&dir, &["verify", dir.join("absent.json").to_str().unwrap()]);
    assert_eq!(code, 2, "unreadable artifact is an IO error");
    let (code, _, _) = sweep(
        &dir,
        &["verify", "--all", dir.join("empty").to_str().unwrap()],
    );
    assert_eq!(code, 2, "missing directory is an IO error");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn write_golden_refuses_anything_but_a_complete_reduced_seed_1_run() {
    // The committed goldens are pinned to that spec, uncertified; each
    // refusal must come before any cell runs and before `results/golden` is
    // touched.
    let dir = temp_dir("golden-refusals");
    let refused = [
        &["--filter", "LM"][..],
        &["--full"],
        &["--seed", "7"],
        &["--certify"],
    ];
    for extra in refused {
        let mut args = vec!["--scenario", "fig02", "--write-golden"];
        args.extend_from_slice(extra);
        let (code, _, err) = sweep(&dir, &args);
        assert_eq!(code, 2, "{extra:?} must be a usage error: {err}");
        assert!(err.contains("--write-golden cannot be combined"), "{err}");
        assert!(!dir.join("results").join("golden").exists(), "{extra:?}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn dropped_arguments_empty_filters_and_failed_writes_exit_2_without_an_artifact() {
    let dir = temp_dir("exit-2");
    let results = dir.join("results");

    // A repeated value flag used to run the first scenario and drop the
    // second; a filter that matches nothing used to pass, vacuously, even
    // under --expect-cache-hot. Both stop before anything runs.
    let repeated = ["--scenario", "search", "--scenario", "fig12", "--no-cache"];
    let unmatched = ["--scenario", "search", "--filter", "zzz"];
    let unmatched_hot = ["--scenario", "all", "--filter", "zzz", "--expect-cache-hot"];
    for (args, message) in [
        (&repeated[..], "error: --scenario given more than once"),
        (
            &unmatched[..],
            "error: --filter 'zzz' matches no cell of scenario 'search' \
             (its cell ids look like: search/jellyfish, ",
        ),
        (
            &unmatched_hot[..],
            "error: --filter 'zzz' matches no cell of scenario 'all'",
        ),
    ] {
        let (code, out, err) = sweep(&dir, args);
        assert_eq!(code, 2, "{args:?}: {err}");
        assert!(err.starts_with(message), "{args:?}: {err}");
        assert!(!out.contains("[sweep]"), "{args:?} ran a scenario: {out}");
        assert!(!results.exists(), "{args:?} wrote under results/");
    }

    // `results` is a regular file: the run completes, the write fails, and
    // that is one error line, not a panic (exit 101) with a backtrace.
    fs::write(&results, "in the way").unwrap();
    let extras: [&[&str]; 3] = [&[], &["--csv"], &["--write-golden"]];
    for extra in extras {
        let mut args = vec!["--scenario", "theorem1_demo", "--no-cache", "--jobs", "1"];
        args.extend_from_slice(extra);
        let (code, _, err) = sweep(&dir, &args);
        assert_eq!(code, 2, "{extra:?}: {err}");
        assert!(
            err.contains("error: cannot write results/theorem1_demo.") && !err.contains("panicked"),
            "{extra:?}: {err}"
        );
        assert_eq!(fs::read_to_string(&results).unwrap(), "in the way");
    }

    // A golden directory that cannot be created fails the same way, after the
    // artifact itself was written.
    fs::remove_file(&results).unwrap();
    fs::create_dir(&results).unwrap();
    fs::write(results.join("golden"), "in the way").unwrap();
    let (code, _, err) = sweep(
        &dir,
        &[
            "--scenario",
            "theorem1_demo",
            "--no-cache",
            "--write-golden",
        ],
    );
    assert_eq!(code, 2, "{err}");
    assert!(
        err.contains("error: cannot write results/golden/theorem1_demo.json: "),
        "{err}"
    );
    assert!(results.join("theorem1_demo.json").is_file());

    let _ = fs::remove_dir_all(&dir);
}

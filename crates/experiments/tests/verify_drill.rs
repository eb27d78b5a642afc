//! End-to-end drill for the certificate pipeline: run a scenario through the
//! real `sweep` binary, certify its artifact with `sweep verify` (which runs
//! every solving cell again with certificate capture on), then change one
//! reported bound and watch the verifier reject it. This is the user-facing
//! contract: exit 0 means every solve's certificate verified and the re-run
//! gives back the reported numbers, and a reported bound the re-derived
//! evidence does not back means exit 1.

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

/// A metric as the artifact writer encodes it: bits, then the decimal.
fn metric(name: &str, bits: u64) -> String {
    let value = f64::from_bits(bits);
    format!("\"{name}\":{{\"bits\":\"{bits:016x}\",\"value\":{value:?}}}")
}

#[test]
fn certified_artifact_verifies_and_one_flipped_bit_fails() {
    let dir = temp_dir("roundtrip");

    // Produce an artifact with the real driver.
    let (code, _, err) = sweep(&dir, &["--scenario", "theorem1_demo", "--jobs", "1"]);
    assert_eq!(code, 0, "run failed: {err}");
    let artifact = dir.join("results").join("theorem1_demo.json");
    let text = fs::read_to_string(&artifact).unwrap();

    // The pristine artifact verifies clean, both singly and via --all.
    let (code, out, err) = sweep(&dir, &["verify", artifact.to_str().unwrap()]);
    assert_eq!(code, 0, "verify failed on a pristine artifact: {out}{err}");
    assert!(out.contains("2 certified"), "{out}");
    let results = dir.join("results");
    let (code, out, _) = sweep(&dir, &["verify", "--all", results.to_str().unwrap()]);
    assert_eq!(code, 0, "verify --all failed on a pristine tree: {out}");
    assert!(
        out.contains("OK: 2 cell(s) certified by 2 certificate(s)"),
        "{out}"
    );

    // Flip the top mantissa bit of the first reported lower bound, in its
    // bits and its decimal alike (the artifact stays valid): exit 1.
    let tag = "\"lower\":{\"bits\":\"";
    let at = text.find(tag).expect("a throughput cell reports lower") + tag.len();
    let bits = u64::from_str_radix(&text[at..at + 16], 16).unwrap();
    let flipped = text.replacen(&metric("lower", bits), &metric("lower", bits ^ 1 << 51), 1);
    assert_ne!(flipped, text);
    fs::write(&artifact, &flipped).unwrap();
    let (code, _, err) = sweep(&dir, &["verify", artifact.to_str().unwrap()]);
    assert_eq!(code, 1, "a changed bound must fail verification: {err}");
    assert!(err.contains("FAILED"), "{err}");
    let (code, _, _) = sweep(&dir, &["verify", "--all", results.to_str().unwrap()]);
    assert_eq!(code, 1, "verify --all must propagate the rejection");

    // A decimal that disagrees with its bits makes the artifact invalid:
    // readers would see a number the engine never compared.
    let shown = format!("{:?}", f64::from_bits(bits));
    let edited = text.replacen(&format!("\"value\":{shown}}}"), "\"value\":123.0}", 1);
    assert_ne!(edited, text);
    fs::write(&artifact, &edited).unwrap();
    let (code, _, err) = sweep(&dir, &["verify", artifact.to_str().unwrap()]);
    assert_eq!(code, 2, "{err}");
    assert!(err.contains("'values.lower' is undecodable"), "{err}");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn uncertified_tree_is_vacuous_under_verify_all() {
    // The committed fig15 golden holds path-restricted cells only, which
    // have no certificate.
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/golden/fig15.json");
    let dir = temp_dir("vacuous");
    let results = dir.join("results");
    fs::create_dir_all(&results).unwrap();
    fs::copy(&golden, results.join("fig15.json")).unwrap();

    // Zero certificates is a vacuous success and must fail — for one
    // artifact exactly as for a whole tree — so an artifact or tree with
    // nothing to certify cannot pass CI.
    let (code, out, err) = sweep(&dir, &["verify", golden.to_str().unwrap()]);
    assert!(out.contains("0 certified"), "{out}");
    assert_eq!(code, 1, "zero certificates must not read as verified");
    assert!(err.contains("no certificates"), "{err}");
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
    // Verify runs on the width a run without --jobs takes, held to its rule.
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/golden/fig15.json");
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["verify", golden.to_str().unwrap()])
        .env("RAYON_NUM_THREADS", "0")
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "a zero width is a usage error");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("RAYON_NUM_THREADS must be at least 1"),
        "{err}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn write_golden_refuses_anything_but_a_complete_reduced_seed_1_run() {
    // The committed goldens are pinned to that spec; each refusal must come
    // before any cell runs and before `results/golden` is touched.
    let dir = temp_dir("golden-refusals");
    let refused = [&["--filter", "LM"][..], &["--full"], &["--seed", "7"]];
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

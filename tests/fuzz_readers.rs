//! Seeded byte-level fuzzing of the sweep engine's readers of external
//! input: `Json::parse` and `parse_artifact` on mutants of the committed
//! `fig02` golden, and `ResultCache::load` on mutants of a stored cache
//! entry. A mutant flips one bit, inserts a byte, deletes a byte or
//! truncates the file. Each one must come back as an error or, for the
//! cache, a quarantine (at most one `.bad` file per entry) or a miss — never
//! a panic. Only a mutant that leaves the document readable may decode.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use topobench::sweep::json::Json;
use topobench::sweep::{parse_artifact, CellValues, ResultCache};

const ARTIFACT_MUTANTS: usize = 1000;
const CACHE_MUTANTS: usize = 1000;

/// Bytes that matter to a JSON reader, inserted half of the time.
const STRUCTURAL: &[u8] = b"{}[]\":,.-+eE0123456789\\ntfu \x00\xff";

/// One random mutation of `bytes`, and its name for a failure message.
fn mutate(rng: &mut ChaCha8Rng, bytes: &[u8]) -> (Vec<u8>, String) {
    let mut m = bytes.to_vec();
    let at = rng.gen_range(0..m.len());
    let what = match rng.gen_range(0..4u32) {
        0 => {
            let bit = rng.gen_range(0..8u32);
            m[at] ^= 1 << bit;
            format!("flip bit {bit} of byte {at}")
        }
        1 => {
            let byte = if rng.gen_bool(0.5) {
                STRUCTURAL[rng.gen_range(0..STRUCTURAL.len())]
            } else {
                rng.gen_range(0..=255u8)
            };
            m.insert(at, byte);
            format!("insert {byte:#04x} at {at}")
        }
        2 => {
            m.remove(at);
            format!("delete byte {at}")
        }
        _ => {
            m.truncate(at);
            format!("truncate to {at} bytes")
        }
    };
    (m, what)
}

/// Runs `f`, failing the test with the mutant's description if it panics.
fn no_panic<R>(what: &str, f: impl FnOnce() -> R) -> R {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| panic!("panicked on mutant: {what}"))
}

#[test]
fn artifact_mutants_parse_or_fail_without_panicking() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/golden/fig02.json");
    let golden = std::fs::read(path).expect("committed golden");
    let text = String::from_utf8(golden.clone()).expect("the golden is UTF-8");
    parse_artifact(&text).expect("the golden itself parses");
    let mut rng = ChaCha8Rng::seed_from_u64(0xF022);
    let mut rejected = 0;
    for _ in 0..ARTIFACT_MUTANTS {
        let (bytes, what) = mutate(&mut rng, &golden);
        // A reader gets text: invalid UTF-8 stands in as U+FFFD.
        let text = String::from_utf8_lossy(&bytes);
        let _ = no_panic(&what, || Json::parse(&text));
        if no_panic(&what, || parse_artifact(&text)).is_err() {
            rejected += 1;
        }
    }
    // Most single-byte damage breaks the syntax or a cross-check.
    assert!(
        rejected > ARTIFACT_MUTANTS / 2,
        "only {rejected} of {ARTIFACT_MUTANTS} mutants rejected"
    );
}

#[test]
fn cache_mutants_load_quarantine_or_miss_without_panicking() {
    let dir = std::env::temp_dir().join(format!("tb-fuzz-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = ResultCache::new(&dir);
    let key = "r0|fuzz|cell";
    let mut values = CellValues::default();
    values.push("lower", 0.1 + 0.2);
    values.push("upper", 1.0 / 3.0);
    values.push("ratio", f64::INFINITY);
    cache.store(key, &values);
    let entry = cache.path_for(key);
    let bad = entry.with_extension("bad");
    let stored = std::fs::read(&entry).expect("stored entry");
    assert!(cache.load(key).expect("a hit").bit_identical(&values));

    let mut rng = ChaCha8Rng::seed_from_u64(0xCAC4E);
    let mut quarantined = 0;
    for _ in 0..CACHE_MUTANTS {
        let (bytes, what) = mutate(&mut rng, &stored);
        std::fs::write(&entry, &bytes).unwrap();
        let loaded = no_panic(&what, || cache.load(key));
        let quarantines = (std::fs::read_dir(&dir).unwrap())
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "bad")
            })
            .count();
        assert!(quarantines <= 1, "{what}: {quarantines} quarantined files");
        match loaded {
            Some(_) => assert!(entry.exists(), "{what}: a hit moved its entry"),
            None if !entry.exists() => {
                assert!(bad.exists(), "{what}: a corrupt entry vanished");
                quarantined += 1;
            }
            // Left in place only when it is another key's entry.
            None => {
                let text = String::from_utf8(bytes).expect("a non-UTF-8 entry is quarantined");
                let doc = Json::parse(&text).expect("an unparsable entry is quarantined");
                let other = doc.get("key").and_then(Json::as_str);
                assert!(
                    other.is_some_and(|k| k != key),
                    "{what}: a corrupt entry was left in place"
                );
            }
        }
    }
    assert!(
        quarantined > CACHE_MUTANTS / 2,
        "only {quarantined} of {CACHE_MUTANTS} mutants quarantined"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

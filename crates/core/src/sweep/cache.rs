//! Content-keyed on-disk cache of cell results.
//!
//! The key is the full canonical description of the computation — the cell
//! spec (every seed included) plus the evaluation configuration — so a cache
//! entry can never be served for a different computation. Keys are hashed
//! (FNV-1a 64) to form file names under the cache directory; the full key
//! string is stored inside each entry and verified on load, which makes hash
//! collisions harmless (they read back as misses).
//!
//! Layout: `<cache_dir>/<16-hex-digit-hash>.json`, one file per entry, each
//! a `topobench-cell/v2` document: the schema tag, the key, and the cell's
//! values in [`CellValues::to_json`]'s encoding — the one an artifact cell
//! uses. Metric floats are stored as IEEE-754 bit patterns, so a cache round
//! trip is bit-identical to recomputation.
//! Entries are written via a temp file + rename, so an interrupted sweep
//! leaves either a complete entry or none — re-running resumes from whatever
//! finished.

use crate::sweep::cell::CellValues;
use crate::sweep::json::Json;
use std::fs;
use std::path::{Path, PathBuf};

/// Schema tag stored in every cache entry.
pub(crate) const CELL_SCHEMA: &str = "topobench-cell/v2";

/// FNV-1a 64-bit hash (stable across platforms and runs).
pub fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A handle on one cache directory.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (without creating) a cache rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultCache { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path for a key.
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{:016x}.json", fnv1a(key)))
    }

    /// Loads the entry for `key`, verifying the stored key matches.
    ///
    /// Three miss shapes, three behaviors:
    /// * file absent — a plain miss, silent;
    /// * entry holds a *different* key — an FNV hash collision, legitimate,
    ///   silent miss (the entry stays: it belongs to the other key);
    /// * entry exists but is corrupt (truncated write, garbage, undecodable
    ///   values) — quarantined to `<name>.bad` with a logged warning, so the
    ///   recompute can re-store a healthy entry under the original name and
    ///   the broken bytes stay on disk for diagnosis.
    pub fn load(&self, key: &str) -> Option<CellValues> {
        let path = self.path_for(key);
        let bytes = fs::read(&path).ok()?;
        let text = String::from_utf8(bytes).map_err(|_| "not UTF-8".to_string());
        let doc =
            text.and_then(|text| Json::parse(&text).map_err(|e| format!("not valid JSON: {e}")));
        let decoded = doc.and_then(|doc| {
            if doc.get("schema").and_then(Json::as_str) != Some(CELL_SCHEMA) {
                return Err("missing or unknown schema tag".into());
            }
            match doc.get("key").and_then(Json::as_str) {
                None => Err("missing key".into()),
                Some(stored) if stored != key => Ok(None),
                Some(_) => CellValues::from_json(&doc).map(Some),
            }
        });
        decoded.unwrap_or_else(|why| {
            self.quarantine(&path, &why);
            None
        })
    }

    /// Moves a corrupt entry aside as `<stem>.bad` (best effort: if even the
    /// rename fails the entry is removed, so the recompute can store). A
    /// previous quarantine of the same hash is overwritten — only the latest
    /// corruption is kept for diagnosis, so repeated corruption of one entry
    /// can never stack up quarantine files (`rename` replaces an existing
    /// destination on Unix; the explicit removal makes the overwrite hold on
    /// every platform).
    fn quarantine(&self, path: &Path, why: &str) {
        let bad = path.with_extension("bad");
        eprintln!(
            "warning: quarantining corrupt cache entry {} -> {} ({why})",
            path.display(),
            bad.display()
        );
        let _ = fs::remove_file(&bad);
        if fs::rename(path, &bad).is_err() {
            let _ = fs::remove_file(path);
        }
    }

    /// Stores `values` under `key` (atomic write; best-effort on IO errors —
    /// a failed store only means a future miss).
    pub fn store(&self, key: &str, values: &CellValues) {
        if fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        let mut fields = vec![("schema", Json::str(CELL_SCHEMA)), ("key", Json::str(key))];
        fields.extend(values.to_json());
        let doc = Json::obj(fields);
        let path = self.path_for(key);
        // Writer-unique temp name: processes sharing one cache directory may
        // store the same key concurrently, and a shared tmp path would let
        // interleaved writes publish a corrupted entry.
        let tmp = path.with_extension(format!("json.tmp.{}", std::process::id()));
        if fs::write(&tmp, doc.to_string()).is_ok() {
            let _ = fs::rename(&tmp, &path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache(tag: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!("tb-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ResultCache::new(dir)
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let cache = temp_cache("roundtrip");
        let mut values = CellValues::default();
        values.push("lower", 1.0 / 3.0);
        values.push("upper", f64::INFINITY);
        values.push_text("note", "hello \"world\"");
        cache.store("some|key", &values);
        let back = cache.load("some|key").expect("entry should load");
        assert!(values.bit_identical(&back));
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn wrong_key_is_a_silent_miss_not_quarantine() {
        let cache = temp_cache("misses");
        let mut values = CellValues::default();
        values.push("x", 1.0);
        cache.store("key-a", &values);
        assert!(cache.load("key-b").is_none());
        // Simulated collision: same file, different stored key. The entry is
        // healthy and belongs to key-a, so it must NOT be quarantined.
        let path = cache.path_for("key-a");
        let other = cache.path_for("key-c");
        fs::create_dir_all(cache.dir()).unwrap();
        fs::copy(&path, &other).unwrap();
        assert!(cache.load("key-c").is_none(), "stored key must match");
        assert!(other.exists(), "collisions must not destroy the entry");
        assert!(!other.with_extension("bad").exists());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_entry_is_quarantined_and_recovers() {
        let cache = temp_cache("corrupt");
        let mut values = CellValues::default();
        values.push("x", 2.0);
        // The last is 300,000 nested `[`: it used to overflow the parser's
        // stack and abort the whole run instead of being quarantined. The
        // one before it reads 123 where its bits say 2.
        let deep = "[".repeat(300_000);
        let edited = format!(
            "{{\"schema\":\"{CELL_SCHEMA}\",\"key\":\"key\",\"texts\":{{}},\
             \"values\":{{\"x\":{{\"bits\":\"4000000000000000\",\"value\":123.0}}}}}}"
        );
        for garbage in ["{not json", "", "{\"schema\":\"other/v9\"}", &edited, &deep] {
            cache.store("key", &values);
            let path = cache.path_for("key");
            fs::write(&path, garbage).unwrap();
            assert!(cache.load("key").is_none(), "corrupt entry must miss");
            assert!(!path.exists(), "corrupt entry must be moved aside");
            assert!(
                path.with_extension("bad").exists(),
                "corrupt bytes must be preserved as .bad"
            );
            // Re-storing over the quarantined name works and loads cleanly.
            cache.store("key", &values);
            assert!(cache.load("key").is_some());
            let _ = fs::remove_file(path.with_extension("bad"));
        }
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn truncated_entry_is_quarantined() {
        let cache = temp_cache("truncated");
        let mut values = CellValues::default();
        values.push("lower", 0.25);
        cache.store("key", &values);
        let path = cache.path_for("key");
        let full = fs::read_to_string(&path).unwrap();
        fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(cache.load("key").is_none());
        assert!(path.with_extension("bad").exists());
        let _ = fs::remove_dir_all(cache.dir());
    }

    /// Repeated corruption of one entry must overwrite the single `.bad`
    /// quarantine file (keeping the latest bytes for diagnosis), never stack
    /// up additional ones.
    #[test]
    fn double_corruption_keeps_exactly_one_quarantine_file() {
        let cache = temp_cache("doublebad");
        let mut values = CellValues::default();
        values.push("x", 2.0);
        let path = cache.path_for("key");
        let bad = path.with_extension("bad");
        for (round, garbage) in ["{first corruption", "{second corruption"]
            .iter()
            .enumerate()
        {
            cache.store("key", &values);
            fs::write(&path, garbage).unwrap();
            assert!(cache.load("key").is_none(), "round {round} must miss");
            assert_eq!(
                fs::read_to_string(&bad).unwrap(),
                *garbage,
                "quarantine must hold the latest corruption"
            );
        }
        let quarantines = fs::read_dir(cache.dir())
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .and_then(|x| x.to_str())
                    == Some("bad")
            })
            .count();
        assert_eq!(quarantines, 1, "quarantines must overwrite, not stack");
        cache.store("key", &values);
        assert!(cache.load("key").is_some());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned so cache file names never silently change between builds.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("topobench"), fnv1a("topobench"));
        assert_ne!(fnv1a("a"), fnv1a("b"));
    }
}

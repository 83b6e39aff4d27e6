//! Content-addressed on-disk result cache.
//!
//! Each completed job is stored as `results/cache/<hash>.json` where
//! `<hash>` is the job's [`JobSpec::content_hash`]. The file embeds the spec
//! alongside the record, and a load verifies the embedded spec matches the
//! requested one — so a hash collision, schema drift, or a truncated or
//! hand-edited file all degrade to a cache miss (re-simulate), never a wrong
//! result and never a panic.

use std::path::{Path, PathBuf};

use crate::json;
use crate::record::RunRecord;
use crate::spec::JobSpec;

/// Handle to a cache directory.
#[derive(Debug, Clone)]
pub struct Cache {
    dir: PathBuf,
}

/// The workspace-root `results/` directory (`R2D2_RESULTS` overrides).
pub fn results_dir() -> PathBuf {
    match std::env::var_os("R2D2_RESULTS") {
        Some(dir) => PathBuf::from(dir),
        // CARGO_MANIFEST_DIR = crates/harness; results live at the root.
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results"),
    }
}

impl Cache {
    /// The default cache under `results/cache/`.
    pub fn open_default() -> Cache {
        Cache {
            dir: results_dir().join("cache"),
        }
    }

    /// A cache rooted at an explicit directory (tests).
    pub fn at(dir: &Path) -> Cache {
        Cache {
            dir: dir.to_path_buf(),
        }
    }

    /// The directory backing this cache.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path the given spec's record lives at.
    pub fn path_for(&self, spec: &JobSpec) -> PathBuf {
        self.dir.join(format!("{}.json", spec.hash_hex()))
    }

    /// Load the cached record for `spec`, or `None` if absent, unreadable,
    /// malformed, or recorded for a different spec. Specs are compared by
    /// identity ([`JobSpec::canonical`]), so execution knobs such as
    /// `threads`, which the embedded spec never stores, do not turn a hit
    /// into a miss.
    pub fn load(&self, spec: &JobSpec) -> Option<RunRecord> {
        let text = std::fs::read_to_string(self.path_for(spec)).ok()?;
        let v = json::parse(&text).ok()?;
        let embedded = JobSpec::from_json(v.get("spec")?)?;
        if embedded.canonical() != spec.canonical() {
            return None;
        }
        RunRecord::from_json(v.get("record")?)
    }

    /// Store `record` for `spec`, atomically (write temp + rename) so a
    /// crashed or concurrent run can never leave a half-written entry under
    /// the final name.
    pub fn store(&self, spec: &JobSpec, record: &RunRecord) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let body =
            json::obj(vec![("spec", spec.to_json()), ("record", record.to_json())]).to_json();
        let stem = spec.hash_hex();
        // Unique temp name per thread so parallel workers never collide.
        let tmp = self.dir.join(format!(
            ".{stem}.{}.{:?}.tmp",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&tmp, body)?;
        let dst = self.path_for(spec);
        std::fs::rename(&tmp, &dst)?;
        Ok(())
    }

    /// Delete every cache entry; returns how many files were removed.
    pub fn clean(&self) -> std::io::Result<usize> {
        let mut removed = 0;
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "json") {
                std::fs::remove_file(&path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Number of valid-looking entries currently cached.
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|d| {
                d.flatten()
                    .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Corrupt-entry behavior is exercised end-to-end in
/// `tests/cache_behavior.rs`; unit tests here cover the embedded-spec check.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModelSpec;
    use r2d2_workloads::Size;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("r2d2-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn dummy_record() -> RunRecord {
        RunRecord {
            stats: Default::default(),
            energy: r2d2_energy::EnergyBreakdown {
                alu_pj: 0.0,
                rf_pj: 0.0,
                frontend_pj: 0.0,
                mem_pj: 0.0,
                static_pj: 0.0,
            },
            used_r2d2: false,
            ideal: None,
            wall_ms: 0.0,
            cached: false,
        }
    }

    #[test]
    fn store_load_clean() {
        let dir = tmpdir("basic");
        let cache = Cache::at(&dir);
        let spec = JobSpec::new("BP", Size::Small, ModelSpec::Baseline);
        assert!(cache.load(&spec).is_none());
        cache.store(&spec, &dummy_record()).unwrap();
        assert_eq!(cache.load(&spec), Some(dummy_record()));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.clean().unwrap(), 1);
        assert!(cache.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_embedded_spec_is_a_miss() {
        let dir = tmpdir("mismatch");
        let cache = Cache::at(&dir);
        let a = JobSpec::new("BP", Size::Small, ModelSpec::Baseline);
        let b = JobSpec::new("NN", Size::Small, ModelSpec::Baseline);
        cache.store(&a, &dummy_record()).unwrap();
        // Simulate a collision: copy a's file onto b's name.
        std::fs::copy(cache.path_for(&a), cache.path_for(&b)).unwrap();
        assert!(cache.load(&b).is_none(), "embedded spec must be verified");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

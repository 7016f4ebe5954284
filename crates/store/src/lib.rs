//! # ats-store
//!
//! Content-addressed, integrity-checked artifact storage for campaign
//! results — the persistence layer behind the suite's incremental
//! campaign engine.
//!
//! The suite's runs are deterministic: for fixed key ingredients (what
//! runs, how the simulated machine behaves and how the result is
//! interpreted; `harness::cache::execution_key_doc` is the one list) the
//! simulator produces byte-identical traces and the analyzer
//! byte-identical reports, at any worker count and on either scheduler
//! carrier.
//! That makes replaying a cached result *provably* equivalent to
//! re-executing it — so a campaign only needs to execute combinations
//! whose key has never been seen. This crate provides the pieces:
//!
//! * [`Json`] — the suite's self-contained canonical JSON model (sorted
//!   object keys, exact integers, shortest-round-trip floats; defined in
//!   `ats-runtime`, re-exported as [`ats_core::json`] and here), so key
//!   bytes never depend on an external serializer's formatting;
//! * [`CacheKey`] — a stable 128-bit hash (two-lane [`hash::xxh64`]) of a
//!   canonical JSON ingredients document;
//! * [`Store`] — the sharded on-disk object tree, one checksummed file
//!   per entry committed by one rename, of which a lookup reads only what
//!   its caller uses; the tree is the store's one record of what it holds;
//! * [`CacheMode`] / [`Cache`] — the `off`/`ro`/`rw` policy knob that
//!   experiment sweeps and the campaign service thread through;
//! * [`atomic`] — temp-file + rename write primitives, also used by the
//!   fuzz corpus so interrupted campaigns cannot truncate artifacts.

pub mod atomic;
pub mod hash;
pub mod key;
pub mod mode;
pub mod store;

pub use ats_core::json::Json;
pub use key::CacheKey;
pub use mode::CacheMode;
pub use store::{Store, StoreStats, StoredEntry};

use ats_core::Error;
use std::path::Path;

/// Conventional store root, relative to the repository root.
pub const DEFAULT_DIR: &str = "artifacts/store";

/// A [`Store`] paired with the [`CacheMode`] governing its use — what a
/// caching-aware engine (experiment sweeps, the campaign service) carries.
#[derive(Debug, Clone)]
pub struct Cache {
    /// The underlying store.
    pub store: Store,
    /// What the engine may do with it.
    pub mode: CacheMode,
}

impl Cache {
    /// Open (creating if needed) a cache at `root` in `mode`.
    pub fn open(root: impl AsRef<Path>, mode: CacheMode) -> Result<Cache, Error> {
        Ok(Cache {
            store: Store::open(root)?,
            mode,
        })
    }

    /// This cache with hit/miss/byte counters recorded into `obs`.
    pub fn with_obs(self, obs: Option<ats_obs::Handle>) -> Cache {
        Cache {
            store: self.store.with_obs(obs),
            mode: self.mode,
        }
    }

    /// Consult the store for `key`, respecting the mode: `Ok(None)` in
    /// `off` mode or on a miss.
    pub fn lookup(&self, key: &CacheKey) -> Result<Option<StoredEntry>, Error> {
        if !self.mode.reads() {
            return Ok(None);
        }
        self.store.get(key)
    }

    /// Like [`Cache::lookup`], but read and verify only the artifact
    /// `name` (see [`Store::get_file`]): what a replay that uses one
    /// artifact asks for.
    pub fn lookup_file(&self, key: &CacheKey, name: &str) -> Result<Option<StoredEntry>, Error> {
        if !self.mode.reads() {
            return Ok(None);
        }
        self.store.get_file(key, name)
    }

    /// Persist `files` under `key` if the mode allows writes. Returns
    /// bytes written (0 when writes are disabled).
    pub fn publish(
        &self,
        key: &CacheKey,
        ingredients: &Json,
        files: &[(&str, &[u8])],
    ) -> Result<u64, Error> {
        if !self.mode.writes() {
            return Ok(0);
        }
        self.store.put(key, ingredients, files)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_modes_gate_store_access() {
        let dir = std::env::temp_dir().join(format!("ats-store-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ing = Json::obj().with("k", 1u64);
        let key = CacheKey::of_value(&ing);

        let ro = Cache::open(&dir, CacheMode::Read).unwrap();
        assert_eq!(ro.publish(&key, &ing, &[("row.json", b"r")]).unwrap(), 0);
        assert!(ro.lookup(&key).unwrap().is_none());

        let rw = Cache::open(&dir, CacheMode::ReadWrite).unwrap();
        assert!(rw.publish(&key, &ing, &[("row.json", b"r")]).unwrap() > 0);
        assert!(rw.lookup(&key).unwrap().is_some());
        assert!(ro.lookup(&key).unwrap().is_some(), "ro sees rw's entry");
        assert!(ro.lookup_file(&key, "row.json").unwrap().is_some());

        let off = Cache::open(&dir, CacheMode::Off).unwrap();
        assert!(off.lookup(&key).unwrap().is_none(), "off never reads");
        assert!(off.lookup_file(&key, "row.json").unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! The on-disk content-addressed store.
//!
//! Layout under the store root (by convention `artifacts/store/`):
//!
//! ```text
//! <root>/
//!   objects/<kk>/<key-hex>/         # kk = first hex byte of the key
//!     report.json  trace.atsb  …    # the entry's artifacts
//!     entry.json                    # manifest: ingredients + checksums
//! ```
//!
//! The object tree is the store's only record of what it holds: there is
//! no index, so every handle on a root sees every committed entry, and
//! [`Store::len`] and [`Store::stats`] scan the tree when called.
//!
//! Commit protocol: artifacts are written first (each atomically, temp +
//! rename), `entry.json` last. An entry *exists* iff its `entry.json`
//! does, so a reader can never observe a half-written entry: either the
//! manifest is absent (miss) or it names only fully-renamed files.
//!
//! Integrity: `entry.json` records the size and 128-bit checksum of every
//! artifact; [`Store::get`] re-hashes what it reads and treats any
//! mismatch as a miss (counted in the observability registry), never as
//! silently-trusted data.
//!
//! Crash contract: a write is atomic for concurrent readers but not
//! durable across power loss ([`write_atomic`] renames without `fsync`).
//! After a crash an entry may be missing or torn. A missing entry is a
//! miss; a torn one (a manifest or artifact that fails to parse or
//! verify) is a counted integrity miss, which a `rw` campaign
//! re-executes and overwrites.

use crate::atomic::{write_atomic, write_atomic_json};
use crate::key::CacheKey;
use crate::Json;
use ats_core::Error;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Schema tag of `entry.json` documents.
const ENTRY_SCHEMA: &str = "ats-store-entry/1";

/// Size and checksum of one stored artifact, as recorded in `entry.json`.
struct FileMeta {
    /// Artifact size in bytes.
    bytes: u64,
    /// 128-bit content checksum ([`CacheKey::of_bytes`] of the artifact).
    checksum: String,
}

/// What a read takes from the per-entry manifest (`entry.json`): the key
/// and how to verify each artifact. The manifest also records the full
/// key-ingredients document the key was derived from, verbatim, so an
/// entry is self-describing (and collisions, however unlikely, are
/// detectable); no read needs it.
struct EntryDoc {
    /// The entry's cache key (hex).
    key: String,
    /// Artifact name → size + checksum.
    files: BTreeMap<String, FileMeta>,
}

impl EntryDoc {
    fn to_json(&self, ingredients: &Json) -> Json {
        let mut files = Json::obj();
        for (name, meta) in &self.files {
            files.set(
                name,
                Json::obj()
                    .with("bytes", meta.bytes)
                    .with("checksum", meta.checksum.as_str()),
            );
        }
        Json::obj()
            .with("schema", ENTRY_SCHEMA)
            .with("key", self.key.as_str())
            .with("ingredients", ingredients.clone())
            .with("files", files)
    }

    fn from_text(text: &str) -> Result<EntryDoc, String> {
        let doc = Json::parse(text)?;
        if doc.get("schema").and_then(Json::as_str) != Some(ENTRY_SCHEMA) {
            return Err("unrecognized entry schema".into());
        }
        let key = doc
            .get("key")
            .and_then(Json::as_str)
            .ok_or("missing key")?
            .to_owned();
        let mut files = BTreeMap::new();
        for (name, meta) in doc
            .get("files")
            .and_then(Json::as_obj)
            .ok_or("missing files")?
        {
            files.insert(
                name.clone(),
                FileMeta {
                    bytes: meta
                        .get("bytes")
                        .and_then(Json::as_u64)
                        .ok_or("missing bytes")?,
                    checksum: meta
                        .get("checksum")
                        .and_then(Json::as_str)
                        .ok_or("missing checksum")?
                        .to_owned(),
                },
            );
        }
        Ok(EntryDoc { key, files })
    }
}

/// One verified, fully-loaded store entry.
#[derive(Debug, Clone)]
pub struct StoredEntry {
    /// Artifact name → verified content.
    files: BTreeMap<String, Vec<u8>>,
    /// Total artifact bytes loaded.
    pub bytes: u64,
}

impl StoredEntry {
    /// The named artifact's bytes, if present.
    pub fn file(&self, name: &str) -> Option<&[u8]> {
        self.files.get(name).map(|v| v.as_slice())
    }
}

/// Aggregate store statistics, from a scan of the object tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of committed entries.
    pub entries: usize,
    /// Total artifact bytes across all entries.
    pub bytes: u64,
}

/// A handle to one on-disk store. Handles hold no state beyond the root,
/// so any number of them (cloned, or opened separately, in one process
/// or several) see the same entries; all methods are safe to call from
/// pool workers concurrently.
#[derive(Debug, Clone)]
pub struct Store {
    root: Arc<Path>,
    obs: Option<ats_obs::Handle>,
}

impl Store {
    /// Open (creating if needed) the store rooted at `root`.
    pub fn open(root: impl AsRef<Path>) -> Result<Store, Error> {
        let root = root.as_ref();
        fs::create_dir_all(root.join("objects"))
            .map_err(|e| Error::store(format!("create {}: {e}", root.display())))?;
        Ok(Store {
            root: Arc::from(root),
            obs: None,
        })
    }

    /// This store, recording hit/miss/byte counters into `obs` (`None`
    /// detaches).
    pub fn with_obs(mut self, obs: Option<ats_obs::Handle>) -> Store {
        self.obs = obs;
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_dir(&self, key: &CacheKey) -> PathBuf {
        self.root.join("objects").join(key.shard()).join(key.hex())
    }

    /// Load and verify the entry under `key`. `Ok(None)` means *miss*:
    /// absent, or present but failing to parse or verify (a manifest that
    /// is not UTF-8 or not an entry document, a size or checksum
    /// mismatch; counted as an integrity failure in the observability
    /// registry — a caching engine re-executes and, in `rw` mode,
    /// overwrites the damaged entry). `Err` is left for a manifest the
    /// store cannot read at all.
    pub fn get(&self, key: &CacheKey) -> Result<Option<StoredEntry>, Error> {
        let dir = self.entry_dir(key);
        let manifest = dir.join("entry.json");
        let doc_bytes = match fs::read(&manifest) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if let Some(obs) = &self.obs {
                    obs.store.misses.inc();
                }
                return Ok(None);
            }
            Err(e) => return Err(Error::store(format!("read {}: {e}", manifest.display()))),
        };
        let Some(doc) = std::str::from_utf8(&doc_bytes)
            .ok()
            .and_then(|text| EntryDoc::from_text(text).ok())
        else {
            return Ok(self.integrity_failure());
        };
        if doc.key != key.hex() {
            return Ok(self.integrity_failure());
        }
        let mut files = BTreeMap::new();
        let mut bytes = 0u64;
        for (name, meta) in &doc.files {
            let content = match fs::read(dir.join(name)) {
                Ok(c) => c,
                Err(_) => return Ok(self.integrity_failure()),
            };
            if content.len() as u64 != meta.bytes
                || CacheKey::of_bytes(&content).hex() != meta.checksum
            {
                return Ok(self.integrity_failure());
            }
            bytes += content.len() as u64;
            files.insert(name.clone(), content);
        }
        if let Some(obs) = &self.obs {
            obs.store.hits.inc();
            obs.store.bytes_read.add(bytes);
        }
        Ok(Some(StoredEntry { files, bytes }))
    }

    fn integrity_failure(&self) -> Option<StoredEntry> {
        if let Some(obs) = &self.obs {
            obs.store.integrity_failures.inc();
            obs.store.misses.inc();
        }
        None
    }

    /// Commit `files` under `key`. Artifacts are written atomically, the
    /// `entry.json` manifest last (the commit point). Re-putting an
    /// existing key replaces it. Returns total artifact bytes written.
    pub fn put(
        &self,
        key: &CacheKey,
        ingredients: &Json,
        files: &[(&str, &[u8])],
    ) -> Result<u64, Error> {
        let dir = self.entry_dir(key);
        let mut metas = BTreeMap::new();
        let mut total = 0u64;
        for (name, content) in files {
            if name.is_empty() || name.contains(['/', '\\']) || *name == "entry.json" {
                return Err(Error::store(format!("invalid artifact name `{name}`")));
            }
            write_atomic(&dir.join(name), content)?;
            metas.insert(
                (*name).to_owned(),
                FileMeta {
                    bytes: content.len() as u64,
                    checksum: CacheKey::of_bytes(content).hex(),
                },
            );
            total += content.len() as u64;
        }
        let doc = EntryDoc {
            key: key.hex(),
            files: metas,
        };
        write_atomic_json(&dir.join("entry.json"), &doc.to_json(ingredients))?;
        if let Some(obs) = &self.obs {
            obs.store.puts.inc();
            obs.store.bytes_written.add(total);
        }
        Ok(total)
    }

    /// Committed entry count (a scan of the object tree).
    pub fn len(&self) -> usize {
        self.stats().entries
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate statistics over the committed entries: those whose
    /// `entry.json` parses. Scans the object tree, reading each manifest
    /// but no artifact; an unreadable directory counts as empty.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats::default();
        let Ok(shards) = fs::read_dir(self.root.join("objects")) else {
            return stats;
        };
        for shard in shards.filter_map(|e| e.ok()) {
            let Ok(entries) = fs::read_dir(shard.path()) else {
                continue;
            };
            for entry in entries.filter_map(|e| e.ok()) {
                let Ok(text) = fs::read_to_string(entry.path().join("entry.json")) else {
                    continue;
                };
                let Ok(doc) = EntryDoc::from_text(&text) else {
                    continue;
                };
                stats.entries += 1;
                stats.bytes += doc.files.values().map(|m| m.bytes).sum::<u64>();
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> (PathBuf, Store) {
        let dir = std::env::temp_dir().join(format!("ats-store-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        (dir, store)
    }

    fn ingredients(n: u64) -> Json {
        Json::obj().with("schema", "test").with("n", n)
    }

    #[test]
    fn put_get_round_trip_with_integrity() {
        let (dir, store) = tmp_store("roundtrip");
        let key = CacheKey::of_value(&ingredients(1));
        assert!(store.get(&key).unwrap().is_none());

        let written = store
            .put(
                &key,
                &ingredients(1),
                &[
                    ("report.json", b"{}".as_slice()),
                    ("trace.atsb", b"ATSB\x01"),
                ],
            )
            .unwrap();
        assert_eq!(written, 2 + 5);

        let entry = store.get(&key).unwrap().expect("hit");
        assert_eq!(entry.file("report.json"), Some(b"{}".as_slice()));
        assert_eq!(entry.file("trace.atsb"), Some(b"ATSB\x01".as_slice()));
        assert_eq!(entry.bytes, 7);
        let manifest = fs::read_to_string(entry_json(&dir, &key)).unwrap();
        let manifest = Json::parse(&manifest).unwrap();
        assert_eq!(manifest.get("ingredients"), Some(&ingredients(1)));
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.stats(),
            StoreStats {
                entries: 1,
                bytes: 7
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_artifacts_are_misses_not_data() {
        let (dir, store) = tmp_store("corrupt");
        let obs = ats_obs::Handle::new();
        let store = store.with_obs(Some(obs.clone()));
        let key = CacheKey::of_value(&ingredients(2));
        store
            .put(&key, &ingredients(2), &[("report.json", b"payload")])
            .unwrap();
        // Flip a byte on disk.
        let path = dir
            .join("objects")
            .join(key.shard())
            .join(key.hex())
            .join("report.json");
        fs::write(&path, b"pAyload").unwrap();
        assert!(store.get(&key).unwrap().is_none(), "corruption must miss");
        assert_eq!(obs.store.integrity_failures.get(), 1);
        // Truncation misses too.
        fs::write(&path, b"pay").unwrap();
        assert!(store.get(&key).unwrap().is_none());
        assert_eq!(obs.store.integrity_failures.get(), 2);
        // A fresh put repairs the entry.
        store
            .put(&key, &ingredients(2), &[("report.json", b"payload")])
            .unwrap();
        assert!(store.get(&key).unwrap().is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    fn entry_json(dir: &Path, key: &CacheKey) -> PathBuf {
        dir.join("objects")
            .join(key.shard())
            .join(key.hex())
            .join("entry.json")
    }

    #[test]
    fn torn_manifest_is_a_counted_miss_that_a_put_repairs() {
        let (dir, store) = tmp_store("torn");
        let obs = ats_obs::Handle::new();
        let store = store.with_obs(Some(obs.clone()));
        let key = CacheKey::of_value(&ingredients(3));
        store
            .put(&key, &ingredients(3), &[("row.json", b"row")])
            .unwrap();
        // A crash before the manifest reached the disk leaves it torn.
        let manifest = entry_json(&dir, &key);
        let text = fs::read(&manifest).unwrap();
        fs::write(&manifest, &text[..text.len() / 2]).unwrap();
        assert!(store.get(&key).unwrap().is_none(), "a torn manifest misses");
        assert_eq!(obs.store.integrity_failures.get(), 1);
        assert_eq!(store.len(), 0, "a torn entry is not committed");
        store
            .put(&key, &ingredients(3), &[("row.json", b"row")])
            .unwrap();
        let entry = store.get(&key).unwrap().expect("the put repairs it");
        assert_eq!(entry.file("row.json"), Some(b"row".as_slice()));
        assert_eq!(obs.store.integrity_failures.get(), 1);
        // A manifest byte flipped to 0xFF is no longer UTF-8: a counted
        // miss too, never an error that stops a campaign from repairing it.
        let mut text = fs::read(&manifest).unwrap();
        let mid = text.len() / 2;
        text[mid] = 0xFF;
        fs::write(&manifest, &text).unwrap();
        assert!(
            store.get(&key).unwrap().is_none(),
            "a non-UTF-8 manifest misses"
        );
        assert_eq!(obs.store.integrity_failures.get(), 2);
        assert_eq!(store.len(), 0);
        store
            .put(&key, &ingredients(3), &[("row.json", b"row")])
            .unwrap();
        assert!(store.get(&key).unwrap().is_some(), "the put repairs it");
        assert_eq!(obs.store.integrity_failures.get(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The key ingredients of one catalog configuration, as the
    /// experiment engine records them.
    const CATALOG_INGREDIENTS: &str = r#"{"analyzer":{"report_setup_overhead":false,"threshold":0.005,"version":3},"base":{"count":256,"dtype":"Float64"},"engine":"experiment","finalize_time_ns":0,"init_time_ns":0,"model":{"barrier_stage_ns":0,"chunk_dispatch_ns":0,"collective_stage_ns":0,"eager_threshold":65536,"fork_overhead_ns":0,"join_overhead_ns":0,"latency_ns":0,"lock_overhead_ns":0,"ns_per_byte":0.0,"recv_overhead_ns":0,"send_overhead_ns":0},"nprocs":8,"params":"nthreads=4 r=1 work=0.05","property":"balanced_omp_loop","schema":"ats-store-key/3","seed":175464173,"trace_format":"atsb"}"#;

    #[test]
    fn every_prefix_and_bit_flip_of_a_manifest_decodes_or_fails() {
        let (dir, store) = tmp_store("flips");
        let ingredients = Json::parse(CATALOG_INGREDIENTS).unwrap();
        let key = CacheKey::of_value(&ingredients);
        let files = [
            ("report.json", b"{}".as_slice()),
            ("row.json", b"{}"),
            ("trace.atsb", b"ATSB"),
        ];
        store.put(&key, &ingredients, &files).unwrap();
        let text = fs::read(entry_json(&dir, &key)).unwrap();
        assert!(text.len() > 1000, "{} bytes", text.len());
        // A manifest that is not UTF-8 never reaches the parser: `get`
        // counts it as an integrity miss first.
        let decode = |b: &[u8]| std::str::from_utf8(b).map(|t| EntryDoc::from_text(t).is_ok());
        // Only the prefixes that keep the closing brace are whole.
        let whole = text.iter().rposition(|&b| b == b'}').unwrap() + 1;
        for end in 0..=text.len() {
            let want = Ok(end >= whole);
            assert_eq!(decode(&text[..end]), want, "{end}-byte prefix");
        }
        let mut decoded = 0;
        for at in 0..text.len() {
            for bit in 0..8 {
                let mut flipped = text.clone();
                flipped[at] ^= 1 << bit;
                decoded += usize::from(decode(&flipped).is_ok());
            }
        }
        // Seven of each ASCII byte's eight flips stay UTF-8.
        assert!(decoded > 6 * text.len(), "{decoded} decoded");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_object_tree_is_the_only_record() {
        let (dir, store) = tmp_store("tree");
        for n in 0..4 {
            store
                .put(
                    &CacheKey::of_value(&ingredients(n)),
                    &ingredients(n),
                    &[("row.json", format!("row {n}").as_bytes())],
                )
                .unwrap();
        }
        assert!(!dir.join("index.json").exists(), "no index is written");
        assert_eq!(
            store.stats(),
            StoreStats {
                entries: 4,
                bytes: 4 * 5
            }
        );
        assert_eq!(store.len(), 4);
        // A directory without a parseable manifest is not an entry.
        let torn = entry_json(&dir, &CacheKey::of_value(&ingredients(9)));
        fs::create_dir_all(torn.parent().unwrap()).unwrap();
        fs::write(&torn, b"{\"schema\": \"ats-st").unwrap();
        assert_eq!(store.len(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn separate_handles_see_every_committed_entry() {
        let (dir, first) = tmp_store("handles");
        let second = Store::open(&dir).unwrap();
        let keys: Vec<CacheKey> = [(&first, 1), (&second, 2)]
            .into_iter()
            .map(|(store, n)| {
                let key = CacheKey::of_value(&ingredients(n));
                store
                    .put(&key, &ingredients(n), &[("row.json", b"r")])
                    .unwrap();
                key
            })
            .collect();
        let third = Store::open(&dir).unwrap();
        assert_eq!(third.len(), 2);
        assert_eq!((first.len(), second.len()), (2, 2));
        for key in &keys {
            assert!(third.get(key).unwrap().is_some());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_artifact_names_are_rejected() {
        let (dir, store) = tmp_store("names");
        let key = CacheKey::of_bytes(b"k");
        for bad in ["", "a/b", "entry.json", "..\\x"] {
            assert!(
                store.put(&key, &ingredients(0), &[(bad, b"x")]).is_err(),
                "{bad:?} accepted"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_puts_and_gets_stay_consistent() {
        let (dir, store) = tmp_store("parallel");
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let store = store.clone();
                s.spawn(move || {
                    for n in 0..10u64 {
                        let ing = Json::obj().with("t", t).with("n", n);
                        let key = CacheKey::of_value(&ing);
                        let body = format!("{t}:{n}");
                        store
                            .put(&key, &ing, &[("row.json", body.as_bytes())])
                            .unwrap();
                        let got = store.get(&key).unwrap().expect("own put visible");
                        assert_eq!(got.file("row.json"), Some(body.as_bytes()));
                    }
                });
            }
        });
        assert_eq!(store.len(), 40);
        let _ = fs::remove_dir_all(&dir);
    }
}

//! The on-disk content-addressed store.
//!
//! Each entry is one file, `<root>/objects/<kk>/<key-hex>.entry` (kk =
//! first hex byte of the key; the root is by convention
//! `artifacts/store/`):
//!
//! ```text
//! ats-store-entry/2 <key> <name> <offset> <size> <checksum> … <header checksum>\n
//! <the artifacts, in the order put><the key-ingredients document>
//! ```
//!
//! Offsets count from the end of the header line. Each checksum is the
//! [`CacheKey::of_bytes`] of an artifact, the last one of the line before
//! it. The ingredients are canonical JSON, so they hash to the key; no
//! read parses them. The object tree is the store's only record of what
//! it holds: there is no index, and [`Store::len`] and [`Store::stats`]
//! scan the tree when called.
//!
//! Commit protocol: an entry is written whole to a temp file and renamed
//! into place ([`write_atomic`]); the rename is the commit point.
//!
//! Integrity: a lookup reads and verifies the header, then reads and
//! verifies only the artifacts its caller asked for; a mismatch is a miss
//! (counted in the observability registry), never trusted data. The
//! first read goes into a stack buffer; an artifact inside it is copied
//! out, and the file's length is asked for only when one ends past it. The
//! header is untrusted input: each offset and size is checked against the
//! file's length before a buffer is allocated for it.
//!
//! Crash contract: a write is atomic for concurrent readers but not
//! durable across power loss ([`write_atomic`] renames without `fsync`).
//! A missing entry is a miss; a torn one is a counted integrity miss for
//! a caller that reads the torn part, which a `rw` campaign re-executes
//! and overwrites.

use crate::atomic::write_atomic;
use crate::key::CacheKey;
use crate::Json;
use ats_core::Error;
use std::fmt::Write as _;
use std::fs::{self, File};
use std::io::{ErrorKind, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::str::SplitAsciiWhitespace;
use std::sync::Arc;

/// Schema tag that opens every entry's header line.
const ENTRY_SCHEMA: &str = "ats-store-entry/2";
/// File-name suffix of an entry in its shard directory.
const ENTRY_SUFFIX: &str = ".entry";
/// Bytes the first read of an entry takes: its header, which must fit,
/// and with it the first artifact of a small entry.
const FIRST_READ: usize = 4096;

/// The header line at the start of `head`, if its checksum, schema and
/// key verify: its length, and the tokens of its artifact groups.
fn parse_header<'h>(head: &'h [u8], key: &CacheKey) -> Option<(u64, SplitAsciiWhitespace<'h>)> {
    let end = head.iter().position(|&b| b == b'\n')?;
    let (signed, checksum) = std::str::from_utf8(&head[..end]).ok()?.rsplit_once(' ')?;
    let mut tokens = signed.split_ascii_whitespace();
    let verified = CacheKey::from_hex(checksum)? == CacheKey::of_bytes(signed.as_bytes())
        && tokens.next()? == ENTRY_SCHEMA
        && tokens.next()?.as_bytes() == key.hex_digits();
    verified.then_some((end as u64 + 1, tokens))
}

/// The `name offset size checksum` groups of a verified header's tokens,
/// each `None` where the tokens stop forming whole groups: a header that
/// yields one is no entry.
fn artifacts(
    mut tokens: SplitAsciiWhitespace<'_>,
) -> impl Iterator<Item = Option<(&str, u64, u64, CacheKey)>> {
    std::iter::from_fn(move || {
        let name = tokens.next()?;
        let offset = tokens.next().and_then(|t| t.parse().ok());
        let size = tokens.next().and_then(|t| t.parse().ok());
        let checksum = tokens.next().and_then(CacheKey::from_hex);
        Some(match (offset, size, checksum) {
            (Some(offset), Some(size), Some(checksum)) => Some((name, offset, size, checksum)),
            _ => None,
        })
    })
}

/// Read the start of `file` into `head` until it holds the end of the
/// header line (one read, for an entry that is whole), `head` is full or
/// the file ends: the byte count.
fn read_head(mut file: &File, head: &mut [u8; FIRST_READ]) -> Option<usize> {
    let mut filled = 0;
    while filled < head.len() && !head[..filled].contains(&b'\n') {
        match file.read(&mut head[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return None,
        }
    }
    Some(filled)
}

/// The next `len` bytes of `file`, which the caller has checked it holds.
fn read_exact(mut file: &File, len: u64) -> Option<Vec<u8>> {
    let mut buf = vec![0; usize::try_from(len).ok()?];
    file.read_exact(&mut buf).ok()?;
    Some(buf)
}

/// The verified artifacts of an entry file that `only` names (every one
/// for `None`), or `None` if its header or one of them fails to verify.
fn read_entry(
    mut file: &File,
    key: &CacheKey,
    only: Option<&str>,
) -> Option<Vec<(String, Vec<u8>)>> {
    let mut buf = [0; FIRST_READ];
    let read = read_head(file, &mut buf)?;
    let head = &buf[..read];
    let (start, groups) = parse_header(head, key)?;
    let mut files = Vec::new();
    for group in artifacts(groups) {
        let (name, offset, size, checksum) = group?;
        if only.is_some_and(|n| n != name) {
            continue;
        }
        let at = start.checked_add(offset)?;
        let end = at.checked_add(size)?;
        let bytes = if end <= head.len() as u64 {
            head[at as usize..end as usize].to_vec()
        } else {
            // Checked against the file before a buffer is allocated for it.
            if end > file.metadata().ok()?.len() {
                return None;
            }
            file.seek(SeekFrom::Start(at)).ok()?;
            read_exact(file, size)?
        };
        if CacheKey::of_bytes(&bytes) != checksum {
            return None;
        }
        files.push((name.to_owned(), bytes));
    }
    Some(files)
}

/// Verified artifacts read from one store entry.
#[derive(Debug, Clone)]
pub struct StoredEntry {
    /// Artifact name → verified content, in file order.
    files: Vec<(String, Vec<u8>)>,
    /// Total artifact bytes loaded.
    pub bytes: u64,
}

impl StoredEntry {
    /// The named artifact's bytes, if it was read.
    pub fn file(&self, name: &str) -> Option<&[u8]> {
        let (_, bytes) = self.files.iter().find(|(n, _)| n == name)?;
        Some(bytes)
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

    /// `<root>/objects/<kk>/<key>.entry`, built in one allocation.
    fn entry_path(&self, key: &CacheKey) -> PathBuf {
        let digits = key.hex_digits();
        let hex = std::str::from_utf8(&digits).expect("hex digits are ASCII");
        // `/objects/kk/<key>.entry` takes 50 bytes.
        let mut path = PathBuf::with_capacity(self.root.as_os_str().len() + 64);
        path.push(&self.root);
        path.push("objects");
        path.push(&hex[..2]);
        path.push(hex);
        path.as_mut_os_string().push(ENTRY_SUFFIX);
        path
    }

    /// Read and verify every artifact of the entry under `key`.
    /// `Ok(None)` means *miss*: absent, or present but failing to verify
    /// (counted as an integrity failure in the observability registry — a
    /// caching engine re-executes and, in `rw` mode, overwrites the
    /// damaged entry). `Err` is left for an entry the store cannot open.
    pub fn get(&self, key: &CacheKey) -> Result<Option<StoredEntry>, Error> {
        self.read(key, None)
    }

    /// [`Store::get`], reading and verifying only the artifact `name`; a
    /// verified entry without it is a hit that holds no file.
    pub fn get_file(&self, key: &CacheKey, name: &str) -> Result<Option<StoredEntry>, Error> {
        self.read(key, Some(name))
    }

    fn read(&self, key: &CacheKey, only: Option<&str>) -> Result<Option<StoredEntry>, Error> {
        let path = self.entry_path(key);
        let files = match File::open(&path) {
            Ok(file) => read_entry(&file, key, only),
            Err(e) if e.kind() == ErrorKind::NotFound => {
                if let Some(obs) = &self.obs {
                    obs.store.misses.inc();
                }
                return Ok(None);
            }
            Err(e) => return Err(Error::store(format!("read {}: {e}", path.display()))),
        };
        let Some(files) = files else {
            if let Some(obs) = &self.obs {
                obs.store.integrity_failures.inc();
                obs.store.misses.inc();
            }
            return Ok(None);
        };
        let bytes = files.iter().map(|(_, b)| b.len() as u64).sum();
        if let Some(obs) = &self.obs {
            obs.store.hits.inc();
            obs.store.bytes_read.add(bytes);
        }
        Ok(Some(StoredEntry { files, bytes }))
    }

    /// Commit `files` under `key`, laid out in the order given (a small
    /// first artifact shares the header's read). The entry is written
    /// whole and renamed into place (the commit point). Re-putting an
    /// existing key replaces it. Returns total artifact bytes written.
    pub fn put(
        &self,
        key: &CacheKey,
        ingredients: &Json,
        files: &[(&str, &[u8])],
    ) -> Result<u64, Error> {
        let mut header = format!("{ENTRY_SCHEMA} {key}");
        let mut total = 0u64;
        for (i, (name, content)) in files.iter().enumerate() {
            // A name is one header token, and stays a valid file name.
            if name.is_empty()
                || name.contains(|c: char| matches!(c, '/' | '\\') || c.is_whitespace())
                || files[..i].iter().any(|(n, _)| n == name)
            {
                return Err(Error::store(format!(
                    "invalid or repeated artifact name `{name}`"
                )));
            }
            let checksum = CacheKey::of_bytes(content);
            let _ = write!(header, " {name} {total} {} {checksum}", content.len());
            total += content.len() as u64;
        }
        let checksum = CacheKey::of_bytes(header.as_bytes());
        let _ = writeln!(header, " {checksum}");
        if header.len() > FIRST_READ {
            return Err(Error::store(format!(
                "an entry header of {} bytes exceeds {FIRST_READ}",
                header.len()
            )));
        }
        let ingredients = ingredients.render();
        let mut entry = header.into_bytes();
        entry.reserve_exact(total as usize + ingredients.len());
        for (_, content) in files {
            entry.extend_from_slice(content);
        }
        entry.extend_from_slice(ingredients.as_bytes());
        write_atomic(&self.entry_path(key), &entry)?;
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
    /// header verifies. Scans the object tree, reading each header but no
    /// artifact; an unreadable directory counts as empty.
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
                let name = entry.file_name();
                let Some(key) = name.to_str().and_then(|n| n.strip_suffix(ENTRY_SUFFIX)) else {
                    continue;
                };
                let mut buf = [0; FIRST_READ];
                let file = File::open(entry.path()).ok();
                let Some(read) = file.and_then(|f| read_head(&f, &mut buf)) else {
                    continue;
                };
                let Some((_, groups)) =
                    CacheKey::from_hex(key).and_then(|k| parse_header(&buf[..read], &k))
                else {
                    continue;
                };
                let Some(bytes) = artifacts(groups).try_fold(0, |sum: u64, group| {
                    group.map(|(_, _, size, _)| sum.saturating_add(size))
                }) else {
                    continue;
                };
                stats.entries += 1;
                stats.bytes = stats.bytes.saturating_add(bytes);
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc_probe::largest_allocation;

    /// The test binary's allocator: the system's, watched so that a test
    /// can bound the largest single allocation a read makes.
    mod alloc_probe {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static LARGEST: Cell<usize> = const { Cell::new(0) };
        }

        struct Probe;

        fn note(size: usize) {
            let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
        }

        // SAFETY: every call forwards to `System` unchanged; the probe
        // only records sizes in a thread-local that never allocates.
        unsafe impl GlobalAlloc for Probe {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                note(layout.size());
                unsafe { System.alloc(layout) }
            }

            unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
                note(layout.size());
                unsafe { System.alloc_zeroed(layout) }
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                note(new_size);
                unsafe { System.realloc(ptr, layout, new_size) }
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                unsafe { System.dealloc(ptr, layout) }
            }
        }

        #[global_allocator]
        static PROBE: Probe = Probe;

        /// `f`'s result and the largest single allocation it made on
        /// this thread.
        pub(super) fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
            LARGEST.with(|l| l.set(0));
            let out = f();
            (out, LARGEST.with(Cell::get))
        }
    }

    fn tmp_store(tag: &str) -> (PathBuf, Store) {
        let dir = std::env::temp_dir().join(format!("ats-store-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        (dir, store)
    }

    fn observed(store: Store) -> (Store, ats_obs::Handle) {
        let obs = ats_obs::Handle::new();
        (store.with_obs(Some(obs.clone())), obs)
    }

    fn ingredients(n: u64) -> Json {
        Json::obj().with("schema", "test").with("n", n)
    }

    fn entry_file(dir: &Path, key: &CacheKey) -> PathBuf {
        dir.join("objects")
            .join(&key.hex()[..2])
            .join(format!("{key}{ENTRY_SUFFIX}"))
    }

    fn position(haystack: &[u8], needle: &[u8]) -> usize {
        haystack
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("present")
    }

    /// A stored row as the experiment engine writes it.
    const ROW: &str = r#"{"detected_severity":0.0,"detected_wait_secs":0.0,"events":264,"localized":true,"nprocs":8,"params":"nthreads=4 r=1 work=0.05","property":"balanced_omp_loop","unexpected_findings":0}"#;

    #[test]
    fn put_get_round_trip_with_integrity() {
        let (dir, store) = tmp_store("roundtrip");
        let (store, obs) = observed(store);
        let key = CacheKey::of_value(&ingredients(1));
        assert!(store.get(&key).unwrap().is_none());

        let files = [
            ("row.json", ROW.as_bytes()),
            ("report.json", b"{}"),
            ("trace.atsb", b"ATSB\x01"),
        ];
        let written = store.put(&key, &ingredients(1), &files).unwrap();
        let total = (ROW.len() + 2 + 5) as u64;
        assert_eq!(written, total);

        let entry = store.get(&key).unwrap().expect("hit");
        for (name, content) in files {
            assert_eq!(entry.file(name), Some(content), "{name}");
        }
        assert_eq!(entry.bytes, total);
        assert_eq!(obs.store.bytes_read.get(), total);
        // A row lookup reads the row alone, and counts only its bytes.
        let row = store.get_file(&key, "row.json").unwrap().expect("hit");
        assert_eq!(row.file("row.json"), Some(ROW.as_bytes()));
        assert_eq!(row.file("report.json"), None, "not read");
        assert_eq!(row.bytes, ROW.len() as u64);
        assert_eq!(obs.store.bytes_read.get(), total + ROW.len() as u64);
        // A verified entry without the artifact is a hit that holds none.
        let other = store.get_file(&key, "other.json").unwrap().expect("hit");
        assert_eq!((other.file("other.json"), other.bytes), (None, 0));
        assert_eq!(obs.store.hits.get(), 3);
        // The file ends in the canonical ingredients, which hash to the key.
        let file = fs::read(entry_file(&dir, &key)).unwrap();
        let tail = ingredients(1).render();
        assert!(file.ends_with(tail.as_bytes()));
        assert_eq!(CacheKey::of_bytes(tail.as_bytes()), key);
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.stats(),
            StoreStats {
                entries: 1,
                bytes: total
            }
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_artifacts_are_misses_not_data() {
        let (dir, store) = tmp_store("corrupt");
        let (store, obs) = observed(store);
        let key = CacheKey::of_value(&ingredients(2));
        // The trace ends past the first read, so it is read on its own.
        let trace: Vec<u8> = (0..2 * FIRST_READ).map(|i| (i % 251) as u8).collect();
        let files = [
            ("row.json", b"row".as_slice()),
            ("report.json", b"payload"),
            ("trace.atsb", &trace),
        ];
        let put = || store.put(&key, &ingredients(2), &files).unwrap();
        put();
        let path = entry_file(&dir, &key);
        let good = fs::read(&path).unwrap();
        let report = position(&good, b"payload");
        let failures = || obs.store.integrity_failures.get();
        let reads = |name: &str| store.get_file(&key, name).unwrap().is_some();

        // A flipped byte misses for the callers that read it, and only them.
        for (at, damaged) in [
            (report + 1, "report.json"),
            (good.len() - 300, "trace.atsb"),
        ] {
            let mut flipped = good.clone();
            flipped[at] ^= 0x20;
            fs::write(&path, &flipped).unwrap();
            let before = failures();
            for (name, _) in files {
                assert_eq!(
                    reads(name),
                    name != damaged,
                    "{name} with {damaged} flipped"
                );
            }
            assert!(store.get(&key).unwrap().is_none(), "reading all misses");
            assert_eq!(failures(), before + 2);
        }
        // So does a truncated one, read from the header's read or past it.
        for (end, torn) in [
            (report + 3, "report.json"),
            (good.len() - 300, "trace.atsb"),
        ] {
            fs::write(&path, &good[..end]).unwrap();
            let before = failures();
            let kept = files.iter().position(|(n, _)| *n == torn).unwrap();
            for (i, (name, _)) in files.iter().enumerate() {
                assert_eq!(reads(name), i < kept, "{name} with {torn} torn");
            }
            assert_eq!(failures(), before + (files.len() - kept) as u64);
        }
        // A fresh put repairs the entry.
        put();
        let entry = store.get(&key).unwrap().expect("repaired");
        assert_eq!(entry.file("trace.atsb"), Some(trace.as_slice()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_manifest_is_a_counted_miss_that_a_put_repairs() {
        let (dir, store) = tmp_store("torn");
        let (store, obs) = observed(store);
        let key = CacheKey::of_value(&ingredients(3));
        let put = || {
            store
                .put(&key, &ingredients(3), &[("row.json", b"row")])
                .unwrap()
        };
        put();
        // A crash before the entry reached the disk can leave its header torn.
        let path = entry_file(&dir, &key);
        let text = fs::read(&path).unwrap();
        let header = position(&text, b"\n");
        fs::write(&path, &text[..header / 2]).unwrap();
        assert!(
            store.get_file(&key, "row.json").unwrap().is_none(),
            "a torn header misses"
        );
        assert_eq!(obs.store.integrity_failures.get(), 1);
        assert_eq!(store.len(), 0, "a torn entry is not committed");
        put();
        let entry = store.get(&key).unwrap().expect("the put repairs it");
        assert_eq!(entry.file("row.json"), Some(b"row".as_slice()));
        assert_eq!(obs.store.integrity_failures.get(), 1);
        // A header byte flipped to 0xFF is no longer UTF-8: a counted miss
        // too, never an error that stops a campaign from repairing it.
        let mut text = fs::read(&path).unwrap();
        text[header / 2] = 0xFF;
        fs::write(&path, &text).unwrap();
        assert!(
            store.get_file(&key, "row.json").unwrap().is_none(),
            "a non-UTF-8 header misses"
        );
        assert_eq!(obs.store.integrity_failures.get(), 2);
        assert_eq!(store.len(), 0);
        put();
        assert!(store.get(&key).unwrap().is_some(), "the put repairs it");
        assert_eq!(obs.store.integrity_failures.get(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The key ingredients of one catalog configuration, as the
    /// experiment engine records them.
    const CATALOG_INGREDIENTS: &str = r#"{"execution":{"analyzer":{"report_setup_overhead":false,"threshold":0.005,"version":3},"base":{"count":256,"dtype":"Float64"},"finalize_time_ns":0,"init_time_ns":0,"model":{"barrier_stage_ns":0,"chunk_dispatch_ns":0,"collective_stage_ns":0,"eager_threshold":65536,"fork_overhead_ns":0,"join_overhead_ns":0,"latency_ns":0,"lock_overhead_ns":0,"ns_per_byte":0.0,"recv_overhead_ns":0,"send_overhead_ns":0},"trace_format":"atsb"},"run":{"engine":"experiment","nprocs":8,"params":"nthreads=4 r=1 work=0.05","property":"balanced_omp_loop","schema":"ats-store-key/4","seed":175464173}}"#;

    #[test]
    fn every_prefix_and_bit_flip_of_a_manifest_decodes_or_fails() {
        let (dir, store) = tmp_store("flips");
        let (store, obs) = observed(store);
        let ingredients = Json::parse(CATALOG_INGREDIENTS).unwrap();
        let key = CacheKey::of_value(&ingredients);
        let files = [
            ("row.json", ROW.as_bytes()),
            ("report.json", b"{}"),
            ("trace.atsb", b"ATSB"),
        ];
        store.put(&key, &ingredients, &files).unwrap();
        let path = entry_file(&dir, &key);
        let whole = fs::read(&path).unwrap();
        assert!(
            whole.ends_with(CATALOG_INGREDIENTS.as_bytes()),
            "canonical tail"
        );
        // A miss allocates for the entry's path; beyond that, a read may
        // allocate no more than the file holds.
        let (_, floor) = largest_allocation(|| store.get(&CacheKey::of_bytes(b"absent")));
        let mut hits = 0;
        let mut check = |bytes: &[u8], what: &str| {
            fs::write(&path, bytes).unwrap();
            for only in [
                None,
                Some("row.json"),
                Some("report.json"),
                Some("trace.atsb"),
            ] {
                let misses = obs.store.misses.get();
                let (got, largest) = largest_allocation(|| store.read(&key, only).unwrap());
                let bound = bytes.len().max(floor);
                assert!(largest <= bound, "{what}, {only:?}: allocated {largest}");
                let Some(entry) = got else {
                    assert_eq!(obs.store.misses.get(), misses + 1, "{what}, {only:?}");
                    continue;
                };
                hits += 1;
                for (name, content) in files {
                    if only.is_none_or(|n| n == name) {
                        assert_eq!(entry.file(name), Some(content), "{what}, {only:?}");
                    }
                }
            }
        };
        // Every prefix: whatever it still holds whole reads back exactly.
        for end in 0..=whole.len() {
            check(&whole[..end], &format!("{end}-byte prefix"));
        }
        // Every bit flip: a damaged header or artifact is a counted miss.
        for at in 0..whole.len() {
            for bit in 0..8 {
                let mut flipped = whole.clone();
                flipped[at] ^= 1 << bit;
                check(&flipped, &format!("bit {bit} of byte {at} flipped"));
            }
        }
        // The ingredients are never read: every prefix that keeps the
        // artifacts and every flip inside the tail still hits, four reads
        // each.
        let tail = ingredients.render().len();
        assert!(hits >= 4 * (tail + 8 * tail), "{hits} hits");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_header_claiming_more_than_the_file_holds_is_a_counted_miss() {
        let (dir, store) = tmp_store("claims");
        let (store, obs) = observed(store);
        let key = CacheKey::of_value(&ingredients(4));
        let path = entry_file(&dir, &key);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        let (_, floor) = largest_allocation(|| store.get(&CacheKey::of_bytes(b"absent")));
        let checksum = CacheKey::of_bytes(b"row");
        let claims = [
            (0, 4),
            (1, 3),
            (0, 1 << 40),
            (1 << 40, 3),
            (u64::MAX, 1),
            (0, u64::MAX),
        ];
        for (offset, size) in claims {
            let signed = format!("{ENTRY_SCHEMA} {key} row.json {offset} {size} {checksum}");
            let file = format!("{signed} {}\nrow", CacheKey::of_bytes(signed.as_bytes()));
            fs::write(&path, &file).unwrap();
            let (got, largest) = largest_allocation(|| store.get_file(&key, "row.json").unwrap());
            assert!(got.is_none(), "offset {offset}, size {size}");
            assert!(largest <= file.len().max(floor), "allocated {largest}");
        }
        assert_eq!(obs.store.integrity_failures.get(), claims.len() as u64);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A header is read in one pass: a checksum-valid header whose
    /// artifact groups are not whole is no entry, for every reader and for
    /// `stats`, even when the group a reader asks for is whole.
    #[test]
    fn a_header_whose_groups_are_not_whole_is_a_counted_miss() {
        let (dir, store) = tmp_store("groups");
        let (store, obs) = observed(store);
        let key = CacheKey::of_value(&ingredients(6));
        let path = entry_file(&dir, &key);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        let row = format!("row.json 0 3 {}", CacheKey::of_bytes(b"row"));
        for tail in [
            "extra",
            "extra 3",
            "extra 3 0",
            "extra x 0 0",
            "extra 3 0 ABC",
        ] {
            let signed = format!("{ENTRY_SCHEMA} {key} {row} {tail}");
            let file = format!("{signed} {}\nrow", CacheKey::of_bytes(signed.as_bytes()));
            fs::write(&path, &file).unwrap();
            assert!(
                store.get_file(&key, "row.json").unwrap().is_none(),
                "{tail}"
            );
            assert!(store.get(&key).unwrap().is_none(), "{tail}");
            assert_eq!(store.len(), 0, "{tail}");
        }
        assert_eq!(obs.store.integrity_failures.get(), 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_entry_in_the_earlier_layout_is_a_miss_that_a_put_replaces() {
        let (dir, store) = tmp_store("layout");
        let (store, obs) = observed(store);
        let key = CacheKey::of_value(&ingredients(5));
        // The earlier layout: a directory per entry, its artifacts beside
        // an `entry.json` manifest.
        let old = dir.join("objects").join(&key.hex()[..2]).join(key.hex());
        fs::create_dir_all(&old).unwrap();
        fs::write(old.join("row.json"), b"row").unwrap();
        let manifest = Json::obj()
            .with("schema", "ats-store-entry/1")
            .with("key", key.hex())
            .with("ingredients", ingredients(5))
            .with(
                "files",
                Json::obj().with(
                    "row.json",
                    Json::obj()
                        .with("bytes", 3u64)
                        .with("checksum", CacheKey::of_bytes(b"row").hex()),
                ),
            );
        fs::write(old.join("entry.json"), manifest.render_pretty()).unwrap();
        assert!(store.get_file(&key, "row.json").unwrap().is_none());
        assert!(store.get(&key).unwrap().is_none());
        let counts = || (obs.store.misses.get(), obs.store.integrity_failures.get());
        assert_eq!(counts(), (2, 0), "plain misses");
        assert_eq!(store.len(), 0);
        store
            .put(&key, &ingredients(5), &[("row.json", b"row")])
            .unwrap();
        let hit = store.get_file(&key, "row.json").unwrap().expect("hit");
        assert_eq!(hit.file("row.json"), Some(b"row".as_slice()));
        assert_eq!(store.len(), 1);
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
        // A file without a verified header is not an entry, and neither is
        // a temp file or anything else in a shard.
        let torn = entry_file(&dir, &CacheKey::of_value(&ingredients(9)));
        fs::create_dir_all(torn.parent().unwrap()).unwrap();
        fs::write(&torn, format!("{ENTRY_SCHEMA} ")).unwrap();
        fs::write(torn.with_extension("entry.1.2.tmp"), b"").unwrap();
        fs::create_dir_all(torn.with_extension("")).unwrap();
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
        for bad in ["", "a/b", "..\\x", "a b", "row\n"] {
            assert!(
                store.put(&key, &ingredients(0), &[(bad, b"x")]).is_err(),
                "{bad:?} accepted"
            );
        }
        let twice = [("row.json", b"x".as_slice()), ("row.json", b"y")];
        assert!(store.put(&key, &ingredients(0), &twice).is_err());
        let many: Vec<String> = (0..100).map(|i| format!("artifact-{i}.json")).collect();
        let many: Vec<(&str, &[u8])> = many.iter().map(|n| (n.as_str(), b"x".as_slice())).collect();
        assert!(
            store.put(&key, &ingredients(0), &many).is_err(),
            "a header past the first read is refused"
        );
        assert!(store.get(&key).unwrap().is_none(), "nothing was written");
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

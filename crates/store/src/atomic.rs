//! Atomic file writes: temp file + rename, in the destination directory.
//!
//! Every entry the store (and every file the fuzz corpus) persists goes
//! through [`write_atomic`]: bytes land in a uniquely-named `.tmp` sibling
//! first and are renamed into place only once fully written, so a reader
//! can never observe a truncated file and an interrupted campaign leaves
//! at worst an orphaned temp file, never a corrupt entry. The temp file
//! lives in the *destination* directory because `rename(2)` is only
//! atomic within one filesystem.
//!
//! The contract stops there: a write is atomic for concurrent readers
//! and for a killed process, but nothing is `fsync`ed, so it is not
//! durable across power loss (see the store's crash contract).

use ats_core::Error;
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide temp-name disambiguator: concurrent writers targeting the
/// same destination must not collide on the temp path.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn store_err(path: &Path, action: &str, e: std::io::Error) -> Error {
    Error::store(format!("{action} {}: {e}", path.display()))
}

/// Atomically replace `dest` with `bytes`. Parent directories are created
/// as needed. On any failure the temp file is removed and `dest` is left
/// untouched (either the old content or absent).
pub fn write_atomic(dest: &Path, bytes: &[u8]) -> Result<(), Error> {
    let parent = dest.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(parent) = parent {
        fs::create_dir_all(parent).map_err(|e| store_err(parent, "create", e))?;
    }
    let file_name = dest
        .file_name()
        .ok_or_else(|| Error::store(format!("{}: not a file path", dest.display())))?;
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp_name = format!(
        ".{}.{}.{seq}.tmp",
        file_name.to_string_lossy(),
        std::process::id()
    );
    let tmp = dest.with_file_name(tmp_name);
    let finish = fs::write(&tmp, bytes)
        .map_err(|e| store_err(&tmp, "write", e))
        .and_then(|()| fs::rename(&tmp, dest).map_err(|e| store_err(dest, "rename into", e)));
    if finish.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    finish
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ats-store-atomic-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn writes_and_replaces_without_leftover_temp_files() {
        let dir = tmp_dir("basic");
        let dest = dir.join("nested/artifact.json");
        write_atomic(&dest, b"v1").unwrap();
        assert_eq!(fs::read(&dest).unwrap(), b"v1");
        write_atomic(&dest, b"v2-longer").unwrap();
        assert_eq!(fs::read(&dest).unwrap(), b"v2-longer");
        let names: Vec<_> = fs::read_dir(dest.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names.len(), 1, "temp files left behind: {names:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_to_one_dest_never_corrupt() {
        let dir = tmp_dir("race");
        let dest = dir.join("contended.bin");
        write_atomic(&dest, &[0u8; 64]).unwrap();
        std::thread::scope(|s| {
            for b in 1..=4u8 {
                let dest = dest.clone();
                s.spawn(move || {
                    for _ in 0..25 {
                        write_atomic(&dest, &[b; 64]).unwrap();
                    }
                });
            }
        });
        // Whatever won, the file is one writer's intact 64 bytes.
        let got = fs::read(&dest).unwrap();
        assert_eq!(got.len(), 64);
        assert!(got.iter().all(|&x| x == got[0]), "torn write: {got:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}

//! Sampling profiler hook.
//!
//! When armed with a sampling period `N`, every `N`-th span *entry*
//! (process-wide, across all threads and registries) records the entering
//! thread's full span path into a shared sample table. The common case —
//! profiler disarmed — is a single relaxed atomic load per span entry;
//! the sampled case takes a mutex and allocates the joined path string,
//! which is fine because it happens on 1-in-`N` entries by construction.
//!
//! This is deliberately a *hook*, not a full profiler: it answers "where
//! do spans concentrate?" with enough fidelity to direct a real profiler,
//! at a cost low enough to leave on during benchmarking.

use ats_runtime::unpoison;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

static SAMPLE_EVERY: AtomicUsize = AtomicUsize::new(0);
static ENTRIES: AtomicU64 = AtomicU64::new(0);
static SAMPLES: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

/// Arm the profiler to sample every `n`-th span entry (`0` disarms it).
pub fn set_sample_every(n: usize) {
    SAMPLE_EVERY.store(n, Ordering::Relaxed);
}

/// Current sampling period (`0` = disarmed).
pub fn sample_every() -> usize {
    SAMPLE_EVERY.load(Ordering::Relaxed)
}

/// Drop all collected samples and reset the entry counter.
pub fn reset() {
    ENTRIES.store(0, Ordering::Relaxed);
    unpoison(SAMPLES.lock()).clear();
}

/// Snapshot the sample table: (span path, hits), sorted by path.
pub fn samples() -> Vec<(String, u64)> {
    unpoison(SAMPLES.lock())
        .iter()
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

#[inline]
pub(crate) fn on_span_enter() {
    let every = SAMPLE_EVERY.load(Ordering::Relaxed);
    if every == 0 {
        return;
    }
    let n = ENTRIES.fetch_add(1, Ordering::Relaxed);
    if n.is_multiple_of(every as u64) {
        let path = crate::span::current_path().join("/");
        *unpoison(SAMPLES.lock()).entry(path).or_insert(0) += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    #[test]
    fn sampling_records_span_paths() {
        reset();
        set_sample_every(1);
        let h = Histogram::new();
        {
            let _a = h.span("alpha");
            let _b = h.span("beta");
        }
        set_sample_every(0);
        let got = samples();
        assert!(
            got.iter().any(|(p, _)| p == "alpha/beta"),
            "missing nested sample: {got:?}"
        );
        reset();
        assert!(samples().is_empty());
    }
}

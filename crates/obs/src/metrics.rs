//! Allocation-free metric primitives: counters, gauges, histograms.
//!
//! Every primitive is a fixed set of atomics updated with `Relaxed`
//! ordering — a recorded observation is one `fetch_add` (counters, gauge
//! max) or three (histograms: bucket + sum + count). Nothing here ever
//! allocates, locks, or formats on the hot path; names, help strings and
//! rendering live in the [`crate::registry`] / [`crate::export`] layer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways; `set_max` is the common high-watermark
/// update (mailbox depth, jobs occupancy).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if it is below it (high watermark).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Upper bounds (nanoseconds) of the finite histogram buckets: 1µs · 4ⁿ,
/// spanning ~1µs to ~4s. Everything above the last bound lands in the
/// implicit `+Inf` bucket.
pub const BUCKET_BOUNDS_NS: [u64; 12] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    4_096_000,
    16_384_000,
    65_536_000,
    262_144_000,
    1_048_576_000,
    4_194_304_000,
];

/// A fixed-bucket exponential latency histogram. One extra slot holds the
/// `+Inf` bucket; `sum` is in nanoseconds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_NS.len() + 1],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a duration in nanoseconds.
    #[inline]
    pub fn observe_ns(&self, ns: u64) {
        let idx = BUCKET_BOUNDS_NS
            .iter()
            .position(|&b| ns <= b)
            .unwrap_or(BUCKET_BOUNDS_NS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn observe(&self, d: Duration) {
        self.observe_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Start the span `name` (`layer.call`, as in `analyzer.extract`): an
    /// RAII timer that records its elapsed time into this histogram when
    /// dropped.
    pub fn span(&self, _name: &'static str) -> SpanGuard<'_> {
        SpanGuard {
            hist: self,
            start: Instant::now(),
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    pub fn sum_secs(&self) -> f64 {
        self.sum_ns() as f64 / 1e9
    }

    /// Cumulative per-bucket counts in bound order, `+Inf` last.
    pub fn cumulative_buckets(&self) -> Vec<u64> {
        let mut acc = 0;
        self.buckets
            .iter()
            .map(|b| {
                acc += b.load(Ordering::Relaxed);
                acc
            })
            .collect()
    }
}

/// RAII timer returned by [`Histogram::span`].
pub struct SpanGuard<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.hist.observe(self.start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set_max(7);
        g.set_max(3);
        assert_eq!(g.get(), 7);
        g.set(1);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = Histogram::new();
        h.observe_ns(500); // bucket 0 (≤1µs)
        h.observe_ns(2_000); // bucket 1 (≤4µs)
        h.observe_ns(10_000_000_000); // +Inf
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_ns(), 500 + 2_000 + 10_000_000_000);
        let cum = h.cumulative_buckets();
        assert_eq!(cum[0], 1);
        assert_eq!(cum[1], 2);
        assert_eq!(cum[BUCKET_BOUNDS_NS.len() - 1], 2);
        assert_eq!(*cum.last().unwrap(), 3);
    }

    #[test]
    fn timer_records_on_drop() {
        let h = Histogram::new();
        {
            let _t = h.span("test.sleep");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum_ns() >= 1_000_000);
    }
}

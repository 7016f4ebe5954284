//! Reusable event-buffer capacity across runs.
//!
//! Every sweep configuration spawns fresh simulated ranks, and every rank
//! grows a `Vec<Event>` from zero. Over a few hundred configurations that
//! is hundreds of thousands of incremental reallocations for buffers whose
//! final size barely changes between neighboring configs. A [`TracePool`]
//! keeps the grown allocations alive between runs: the harness recycles a
//! finished (analyzed) trace's event vectors back into the pool, and the
//! next configuration's [`crate::TraceCollector`] hands them out again.
//!
//! Pooling only ever affects *capacity*, never contents — a handed-out
//! buffer is always empty — so traces, analyzer reports and sweep rows are
//! byte-identical with or without a pool (asserted by the harness tests).
//! The pool is a plain LIFO under one mutex: it is touched twice per
//! rank-lifetime, far away from any hot path.

use crate::event::Event;
use crate::trace::Trace;
use ats_runtime::unpoison;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Retain at most this many buffers; beyond it, recycled vectors are
/// dropped so a one-off wide configuration cannot pin memory forever.
const MAX_POOLED_BUFFERS: usize = 1024;

#[derive(Debug, Default)]
struct PoolInner {
    buffers: Mutex<Vec<Vec<Event>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    recycled: AtomicUsize,
}

/// A shared pool of pre-grown event buffers. Cloning yields another handle
/// to the same pool; the default value is an empty pool.
#[derive(Debug, Clone, Default)]
pub struct TracePool {
    inner: Arc<PoolInner>,
}

/// Counters describing how much reuse a pool has seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// `take()` calls satisfied from the pool (allocation reused).
    pub hits: usize,
    /// `take()` calls that fell back to a fresh empty vector.
    pub misses: usize,
    /// Buffers returned through [`TracePool::recycle`] / [`TracePool::put`].
    pub recycled: usize,
    /// Buffers currently parked in the pool.
    pub available: usize,
}

impl TracePool {
    /// Create an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hand out a buffer: a recycled empty-but-grown vector if one is
    /// parked, a fresh `Vec::new()` otherwise.
    pub fn take(&self) -> Vec<Event> {
        match unpoison(self.inner.buffers.lock()).pop() {
            Some(buf) => {
                self.inner.hits.fetch_add(1, Ordering::Relaxed);
                debug_assert!(buf.is_empty());
                buf
            }
            None => {
                self.inner.misses.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        }
    }

    /// Return a buffer to the pool. Contents are cleared; zero-capacity
    /// vectors (disabled traces never grow one) are not worth parking.
    pub fn put(&self, mut buf: Vec<Event>) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        self.inner.recycled.fetch_add(1, Ordering::Relaxed);
        let mut buffers = unpoison(self.inner.buffers.lock());
        if buffers.len() < MAX_POOLED_BUFFERS {
            buffers.push(buf);
        }
    }

    /// Strip a finished trace's per-location event vectors back into the
    /// pool, returning how many buffers were recycled. Call this once the
    /// trace has been analyzed and will not be read again.
    pub fn recycle(&self, trace: Trace) -> usize {
        let mut n = 0;
        for loc in trace.locations {
            if loc.events.capacity() > 0 {
                self.put(loc.events);
                n += 1;
            }
        }
        n
    }

    /// Number of buffers currently parked.
    pub fn available(&self) -> usize {
        unpoison(self.inner.buffers.lock()).len()
    }

    /// Snapshot the reuse counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            recycled: self.inner.recycled.load(Ordering::Relaxed),
            available: self.available(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, LocationId};
    use crate::region::RegionId;
    use crate::trace::{LocationTrace, Trace};
    use ats_runtime::VTime;

    fn grown_buffer(n: usize) -> Vec<Event> {
        (0..n as u64)
            .map(|i| {
                Event::new(
                    VTime(i),
                    EventKind::Enter {
                        region: RegionId(0),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn take_reuses_recycled_capacity() {
        let pool = TracePool::new();
        let first = pool.take();
        assert_eq!(first.capacity(), 0);
        pool.put(grown_buffer(100));
        let reused = pool.take();
        assert!(reused.is_empty());
        assert!(reused.capacity() >= 100);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.recycled), (1, 1, 1));
    }

    #[test]
    fn zero_capacity_buffers_are_not_parked() {
        let pool = TracePool::new();
        pool.put(Vec::new());
        assert_eq!(pool.available(), 0);
        assert_eq!(pool.stats().recycled, 0);
    }

    #[test]
    fn recycle_strips_a_whole_trace() {
        let pool = TracePool::new();
        let locations = (0..3u32)
            .map(|rank| LocationTrace {
                location: LocationId::rank(rank),
                events: grown_buffer(8),
            })
            .collect();
        let trace = Trace::with_comms(vec![], vec![], locations);
        // with_comms merges nothing here: three distinct locations.
        assert_eq!(pool.recycle(trace), 3);
        assert_eq!(pool.available(), 3);
    }

    #[test]
    fn shared_handles_see_one_pool() {
        let pool = TracePool::new();
        let other = pool.clone();
        other.put(grown_buffer(4));
        assert_eq!(pool.available(), 1);
        let _ = pool.take();
        assert_eq!(other.available(), 0);
    }

    #[test]
    fn concurrent_take_put_is_safe() {
        let pool = TracePool::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let pool = pool.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        let mut buf = pool.take();
                        buf.extend_from_slice(&grown_buffer(4));
                        pool.put(buf);
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 800);
        assert_eq!(s.recycled, 800);
    }
}

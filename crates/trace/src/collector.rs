//! Gathering per-participant streams into a global [`Trace`].

use crate::local::LocalTrace;
use crate::pool::TracePool;
use crate::region::{RegionKind, RegionTable};
use crate::trace::{CommDef, LocationTrace, Trace};
use ats_runtime::unpoison;
use std::sync::{Arc, Mutex};

/// A thread-safe sink to which every participant submits its [`LocalTrace`]
/// exactly once, at the end of its (virtual) life.
///
/// Cloning a collector produces another handle to the same sink.
#[derive(Debug, Clone, Default)]
pub struct TraceCollector {
    regions: RegionTable,
    done: Arc<Mutex<Vec<LocationTrace>>>,
    comms: Arc<Mutex<Vec<CommDef>>>,
    enabled: bool,
    pool: Option<TracePool>,
}

impl TraceCollector {
    /// A collector that records events.
    pub fn new() -> Self {
        TraceCollector {
            regions: RegionTable::new(),
            done: Arc::new(Mutex::new(Vec::new())),
            comms: Arc::new(Mutex::new(Vec::new())),
            enabled: true,
            pool: None,
        }
    }

    /// Hand out event buffers from `pool` instead of fresh vectors.
    /// Pooling only affects capacity, never recorded contents.
    pub fn with_pool(mut self, pool: TracePool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The buffer pool this collector draws from, if any.
    pub fn pool(&self) -> Option<&TracePool> {
        self.pool.as_ref()
    }

    /// A collector whose [`LocalTrace`]s are disabled — used to run the same
    /// program "uninstrumented" for the semantics-preservation experiments.
    pub fn disabled() -> Self {
        let mut c = Self::new();
        c.enabled = false;
        c
    }

    /// Whether local traces created through this collector record events.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The shared region table.
    pub fn regions(&self) -> &RegionTable {
        &self.regions
    }

    /// Convenience: intern a region name.
    pub fn intern(&self, name: &str, kind: RegionKind) -> crate::region::RegionId {
        self.regions.intern(name, kind)
    }

    /// Create the local trace for one participant, drawing its event
    /// buffer from the attached pool when one is present.
    pub fn local(&self, location: crate::event::LocationId) -> LocalTrace {
        if !self.enabled {
            return LocalTrace::disabled(location);
        }
        match &self.pool {
            Some(pool) => LocalTrace::with_buffer(location, pool.take()),
            None => LocalTrace::new(location),
        }
    }

    /// Record a communicator definition (id and global-rank member list).
    /// Idempotent per id.
    pub fn register_comm(&self, id: u32, members: Vec<u32>) {
        let mut comms = unpoison(self.comms.lock());
        if !comms.iter().any(|c| c.id == id) {
            comms.push(CommDef { id, members });
        }
    }

    /// Submit a finished local trace.
    pub fn submit(&self, local: LocalTrace) {
        let (location, events) = local.finish();
        unpoison(self.done.lock()).push(LocationTrace { location, events });
    }

    /// Consume the collector, producing the merged trace.
    ///
    /// # Panics
    /// Panics if other handles still hold the sink (i.e. participants are
    /// still alive): collecting a trace mid-run is a harness bug.
    pub fn finish(self) -> Trace {
        let done = unpoison(
            Arc::try_unwrap(self.done)
                .expect("TraceCollector::finish called while participants still hold handles")
                .into_inner(),
        );
        let comms = std::mem::take(&mut *unpoison(self.comms.lock()));
        Trace::with_comms(self.regions.snapshot(), comms, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LocationId;
    use ats_runtime::VTime;

    #[test]
    fn collects_from_multiple_threads() {
        let c = TraceCollector::new();
        let r = c.intern("work", RegionKind::Work);
        std::thread::scope(|s| {
            for rank in 0..4u32 {
                let c = c.clone();
                s.spawn(move || {
                    let mut lt = c.local(LocationId::rank(rank));
                    lt.enter(VTime(rank as u64), r);
                    lt.exit(VTime(rank as u64 + 10), r);
                    c.submit(lt);
                });
            }
        });
        let trace = c.finish();
        assert_eq!(trace.num_locations(), 4);
        assert_eq!(trace.num_events(), 8);
        // Sorted by rank regardless of submission order.
        for (i, l) in trace.locations.iter().enumerate() {
            assert_eq!(l.location.rank, i as u32);
        }
    }

    #[test]
    fn disabled_collector_yields_empty_streams() {
        let c = TraceCollector::disabled();
        let r = c.intern("work", RegionKind::Work);
        let mut lt = c.local(LocationId::rank(0));
        lt.enter(VTime(0), r);
        lt.exit(VTime(1), r);
        c.submit(lt);
        let trace = c.finish();
        assert_eq!(trace.num_events(), 0);
        assert_eq!(trace.num_locations(), 1);
    }

    #[test]
    #[should_panic(expected = "participants still hold handles")]
    fn finish_with_live_handles_panics() {
        let c = TraceCollector::new();
        let _other = c.clone();
        let _ = c.finish();
    }

    #[test]
    fn pooled_collector_reuses_buffers_without_changing_contents() {
        use crate::pool::TracePool;
        let pool = TracePool::new();
        let run = |pool: Option<TracePool>| {
            let c = match pool {
                Some(p) => TraceCollector::new().with_pool(p),
                None => TraceCollector::new(),
            };
            let r = c.intern("work", RegionKind::Work);
            for rank in 0..3u32 {
                let mut lt = c.local(LocationId::rank(rank));
                for i in 0..50u64 {
                    lt.enter(VTime(i * 2), r);
                    lt.exit(VTime(i * 2 + 1), r);
                }
                c.submit(lt);
            }
            c.finish()
        };
        let fresh = run(None);
        let first = run(Some(pool.clone()));
        assert_eq!(pool.recycle(first), 3);
        let second = run(Some(pool.clone()));
        // Second pooled run was served entirely from recycled capacity …
        assert_eq!(pool.stats().hits, 3);
        // … and recorded exactly the same trace as an unpooled collector.
        assert_eq!(second.locations, fresh.locations);
        assert_eq!(second.regions, fresh.regions);
    }
}

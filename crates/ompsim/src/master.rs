//! The master-side interface to the OpenMP substrate.
//!
//! A *master* is whatever sequential context opens parallel regions: the
//! standalone [`SeqMaster`] for pure shared-memory programs, an MPI rank
//! (via the hybrid wrapper in `ats-core`), or an [`crate::OmpThread`] for
//! nested parallelism. The [`Master`] trait captures exactly what the fork
//! machinery needs; keeping it a trait is what lets the suite compose MPI ×
//! OpenMP test programs without coupling the two substrate crates.

use crate::team::CriticalSpace;
use ats_runtime::sched::{self, SimBackend, DEFAULT_STACK_BYTES};
use ats_runtime::{MachineModel, VDur, VTime, WorkEngine, WorkMode};
use ats_trace::{LocalTrace, LocationId, RegionKind, Trace, TraceCollector};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A sequential context able to host parallel regions.
pub trait Master {
    /// Owning MPI rank (0 for standalone shared-memory programs).
    fn rank(&self) -> u32;
    /// Location of this master (its thread id is the base for the
    /// hierarchical thread numbering of teams it forks).
    fn location(&self) -> LocationId;
    /// Current virtual clock.
    fn clock(&self) -> VTime;
    /// Move the clock forward (never backward).
    fn set_clock(&mut self, t: VTime);
    /// The run's trace collector.
    fn collector(&self) -> &TraceCollector;
    /// The master's own event stream.
    fn local_mut(&mut self) -> &mut LocalTrace;
    /// Cost model.
    fn model(&self) -> &MachineModel;
    /// Work mode for the team's threads.
    fn work_mode(&self) -> WorkMode;
    /// RNG root seed.
    fn seed(&self) -> u64;
    /// Run-unique synchronization-context id allocator (shared with
    /// nested teams so every barrier/team gets a distinct `comm` id in the
    /// trace).
    fn sync_ids(&self) -> Arc<AtomicU32>;
    /// Trace-location thread-id allocator for forked team members.
    fn thread_ids(&self) -> Arc<AtomicU32>;
    /// The process's named-critical space.
    fn criticals(&self) -> Arc<CriticalSpace>;

    /// Allocate one synchronization-context id.
    fn alloc_sync_id(&self) -> u32 {
        self.sync_ids().fetch_add(1, Ordering::Relaxed)
    }
}

/// Configuration for standalone OpenMP-style runs.
#[derive(Debug, Clone)]
pub struct OmpConfig {
    /// Cost model.
    pub model: MachineModel,
    /// RNG root seed.
    pub seed: u64,
    /// Record a trace?
    pub instrumented: bool,
    /// Event-buffer pool for the run's threads (`None` = fresh vectors).
    /// Pooling reuses capacity only; recorded traces are identical.
    pub trace_pool: Option<ats_trace::TracePool>,
}

impl Default for OmpConfig {
    fn default() -> Self {
        OmpConfig {
            model: MachineModel::default(),
            seed: 0x0907_5EED,
            instrumented: true,
            trace_pool: None,
        }
    }
}

/// The master of a standalone shared-memory program.
pub struct SeqMaster {
    clock: VTime,
    collector: TraceCollector,
    local: LocalTrace,
    engine: WorkEngine,
    config: OmpConfig,
    sync_ids: Arc<AtomicU32>,
    thread_ids: Arc<AtomicU32>,
    criticals: Arc<CriticalSpace>,
}

impl SeqMaster {
    fn new(config: OmpConfig, collector: TraceCollector) -> Self {
        let local = collector.local(LocationId::rank(0));
        let engine = WorkEngine::new(WorkMode::Virtual, config.seed, 0);
        SeqMaster {
            clock: VTime::ZERO,
            collector,
            local,
            engine,
            config,
            sync_ids: Arc::new(AtomicU32::new(1)),
            thread_ids: Arc::new(AtomicU32::new(1)),
            criticals: Arc::new(CriticalSpace::new()),
        }
    }

    /// Sequential `do_work` on the master.
    pub fn do_work(&mut self, amount: VDur) {
        if amount.is_zero() {
            return;
        }
        let r = self.collector.intern("do_work", RegionKind::Work);
        self.local.enter(self.clock, r);
        self.engine.do_work(amount);
        self.clock += amount;
        self.local.exit(self.clock, r);
    }

    /// Open a named region at the current clock.
    pub fn enter_region(&mut self, name: &str, kind: RegionKind) {
        let id = self.collector.intern(name, kind);
        self.local.enter(self.clock, id);
    }

    /// Close a named region at the current clock.
    pub fn exit_region(&mut self, name: &str) {
        let id = self.collector.intern(name, RegionKind::User);
        self.local.exit(self.clock, id);
    }
}

impl Master for SeqMaster {
    fn rank(&self) -> u32 {
        0
    }
    fn location(&self) -> LocationId {
        LocationId::rank(0)
    }
    fn clock(&self) -> VTime {
        self.clock
    }
    fn set_clock(&mut self, t: VTime) {
        assert!(t >= self.clock, "clock may not move backwards");
        self.clock = t;
    }
    fn collector(&self) -> &TraceCollector {
        &self.collector
    }
    fn local_mut(&mut self) -> &mut LocalTrace {
        &mut self.local
    }
    fn model(&self) -> &MachineModel {
        &self.config.model
    }
    fn work_mode(&self) -> WorkMode {
        self.engine.mode()
    }
    fn seed(&self) -> u64 {
        self.config.seed
    }
    fn sync_ids(&self) -> Arc<AtomicU32> {
        self.sync_ids.clone()
    }
    fn thread_ids(&self) -> Arc<AtomicU32> {
        self.thread_ids.clone()
    }
    fn criticals(&self) -> Arc<CriticalSpace> {
        self.criticals.clone()
    }
}

/// Run a standalone shared-memory program and return its trace.
///
/// The master is a scheduler task, and so is every team member it forks.
/// Called from inside a task, the master runs on that task; otherwise it
/// starts a scheduler run of its own on the default carrier.
///
/// # Panics
/// Propagates the first panic of the master or a team member, or the
/// scheduler's deadlock report.
pub fn run_omp<F>(config: OmpConfig, f: F) -> Trace
where
    F: FnOnce(&mut SeqMaster) + Send,
{
    let mut collector = if config.instrumented {
        TraceCollector::new()
    } else {
        TraceCollector::disabled()
    };
    if let Some(pool) = &config.trace_pool {
        collector = collector.with_pool(pool.clone());
    }
    // Deterministic region-id assignment for the substrate's own names.
    for (name, kind) in [
        ("do_work", RegionKind::Work),
        ("omp_parallel", RegionKind::OmpParallel),
        ("omp_barrier", RegionKind::OmpSync),
        ("omp_for", RegionKind::OmpWorkshare),
        ("omp_sections", RegionKind::OmpWorkshare),
        ("omp_single", RegionKind::OmpWorkshare),
        ("omp_master", RegionKind::OmpWorkshare),
        ("omp_critical", RegionKind::OmpSync),
        ("omp_critical_body", RegionKind::OmpSync),
        ("omp_reduction", RegionKind::OmpSync),
        ("omp_lock", RegionKind::OmpSync),
        ("omp_lock_body", RegionKind::OmpSync),
    ] {
        collector.intern(name, kind);
    }
    let master = || {
        let mut master = SeqMaster::new(config, collector.clone());
        f(&mut master);
        collector.submit(master.local);
    };
    if sched::current().is_some() {
        master();
    } else {
        let backend = SimBackend::default().effective();
        sched::run_tasks(backend, DEFAULT_STACK_BYTES, vec![Box::new(master)]);
    }
    collector.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_master_records_work() {
        let trace = run_omp(OmpConfig::default(), |m| {
            m.do_work(VDur::from_millis(5));
            m.do_work(VDur::from_millis(3));
        });
        assert_eq!(trace.num_locations(), 1);
        let stats = ats_trace::TraceStats::compute(&trace);
        let r = trace.find_region("do_work").unwrap();
        assert_eq!(stats.region_total(r).inclusive, VDur::from_millis(8));
        assert_eq!(stats.region_total(r).visits, 2);
    }

    #[test]
    fn uninstrumented_records_nothing() {
        let config = OmpConfig {
            instrumented: false,
            ..Default::default()
        };
        let trace = run_omp(config, |m| m.do_work(VDur::from_millis(5)));
        assert_eq!(trace.num_events(), 0);
    }

    #[test]
    fn sync_ids_are_unique() {
        run_omp(OmpConfig::default(), |m| {
            let a = m.alloc_sync_id();
            let b = m.alloc_sync_id();
            assert_ne!(a, b);
        });
    }

    #[test]
    fn user_regions_nest() {
        let trace = run_omp(OmpConfig::default(), |m| {
            m.enter_region("phase1", RegionKind::User);
            m.do_work(VDur::from_millis(1));
            m.exit_region("phase1");
        });
        assert!(ats_trace::check_wellformed(&trace).is_empty());
        assert!(trace.find_region("phase1").is_some());
    }

    #[test]
    #[should_panic(expected = "clock may not move backwards")]
    fn clock_is_monotone() {
        run_omp(OmpConfig::default(), |m| {
            m.do_work(VDur::from_millis(5));
            m.set_clock(VTime::ZERO);
        });
    }
}

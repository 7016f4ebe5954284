//! Standalone shared-memory programs: [`run_omp`] runs a program on its
//! initial thread, the master of an implicit team of one, from which the
//! program forks its parallel regions.

use crate::team::TeamShared;
use crate::thread::{LocalSink, OmpThread};
use ats_runtime::sched::{self, SimBackend, DEFAULT_STACK_BYTES};
use ats_runtime::{MachineModel, VTime, WorkMode};
use ats_trace::{LocationId, RegionKind, Trace, TraceCollector};
use std::sync::atomic::AtomicU32;
use std::sync::Arc;

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

/// Run a standalone shared-memory program and return its trace.
///
/// The program runs on its initial thread, at location `(0, 0)` from
/// virtual time zero. That thread is a scheduler task, and so is every
/// team member it forks. Called from inside a task, it runs on that task;
/// otherwise it starts a scheduler run of its own on the default carrier.
///
/// # Panics
/// Propagates the first panic of the initial thread or a team member, or
/// the scheduler's deadlock report.
pub fn run_omp<F>(config: OmpConfig, f: F) -> Trace
where
    F: FnOnce(&mut OmpThread<'_>) + Send,
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
    let initial = || {
        let ids = || Arc::new(AtomicU32::new(1));
        let team = TeamShared::implicit(config.model, config.seed, ids(), ids());
        let location = LocationId::rank(0);
        let local = LocalSink::Owned(collector.local(location));
        let collector = collector.clone();
        let mut th = OmpThread::new(
            0,
            &team,
            location,
            VTime::ZERO,
            local,
            collector,
            WorkMode::Virtual,
        );
        f(&mut th);
        th.finish();
    };
    if sched::current().is_some() {
        initial();
    } else {
        let backend = SimBackend::default().effective();
        sched::run_tasks(backend, DEFAULT_STACK_BYTES, vec![Box::new(initial)]);
    }
    collector.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread::parallel;
    use ats_runtime::VDur;
    use ats_trace::EventKind;

    #[test]
    fn initial_thread_records_work() {
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
        let trace = run_omp(OmpConfig::default(), |m| {
            parallel(m, 2, |_| {});
            parallel(m, 2, |_| {});
        });
        let mut ids: Vec<u32> = trace
            .locations
            .iter()
            .flat_map(|l| &l.events)
            .filter_map(|e| match e.kind {
                EventKind::CollEnd { comm, .. } => Some(comm),
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids, [1, 2], "one id per team, the implicit team none");
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
}

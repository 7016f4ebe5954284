//! The statically-shaped metric registry.
//!
//! Rather than a string-keyed map (which would put a hash + allocation on
//! every hot-path update), the registry is a plain struct of per-subsystem
//! metric groups: every instrumentation site touches a field directly, so
//! recording is exactly one relaxed atomic op. Names, help strings and the
//! deterministic/runtime classification live in the enumeration methods
//! ([`Registry::counters`] etc.), which only run at export time.
//!
//! A *deterministic* counter is one whose value is a pure function of the
//! workload (seed, parameters): simulated events, messages, findings,
//! encoded bytes. Everything that depends on timing, scheduling or what
//! earlier runs left on disk (mailbox depth, latencies, store hits) is
//! *runtime*: real under the same roof, but excluded from the manifest's
//! reproducibility-checked section because two byte-identical runs
//! legitimately differ there.

use crate::metrics::{Counter, Gauge, Histogram};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// `mpisim`: the virtual-time MPI substrate.
#[derive(Debug, Default)]
pub struct MpiMetrics {
    /// Simulations executed (`ats_mpi::run` entries).
    pub runs: Counter,
    /// Rank threads spawned across all runs.
    pub ranks: Counter,
    /// Events recorded into rank-local traces.
    pub events: Counter,
    /// Point-to-point envelopes pushed through mailboxes.
    pub messages: Counter,
    /// Collective operations completed (one per op, not per rank).
    pub collectives: Counter,
    /// Simulated tree/butterfly stages across all collectives.
    pub collective_rounds: Counter,
    /// Deepest any mailbox queue ever got.
    pub mailbox_depth_max: Gauge,
    /// Scheduler events executed by the discrete-event backend (task
    /// resumptions popped off the virtual-clock queue).
    pub sched_events: Counter,
    /// Deepest the discrete-event ready queue ever got.
    pub sched_ready_depth_max: Gauge,
}

/// `trace`: the ATSB artifacts a session writes.
#[derive(Debug, Default)]
pub struct TraceMetrics {
    /// ATSB bytes written by the writers that hold the session's handle
    /// (store publishes, trace artifacts, the fuzz corpus).
    pub binary_bytes_encoded: Counter,
}

/// `harness::pool`: the bounded sweep worker pool.
#[derive(Debug, Default)]
pub struct PoolMetrics {
    /// Tasks executed through the pool.
    pub tasks: Counter,
    /// Nanoseconds workers spent executing tasks (busy time).
    pub busy_ns: Counter,
    /// Nanoseconds of pool wall time (per `run_indexed` call, summed).
    pub wall_ns: Counter,
    /// Worker count of the most recent pool launch.
    pub jobs_occupancy: Gauge,
    /// Delay between pool launch and each task being claimed.
    pub queue_wait: Histogram,
    /// Per-task execution time.
    pub task_time: Histogram,
}

/// `analyzer`: EXPERT-style pattern search.
#[derive(Debug, Default)]
pub struct AnalyzerMetrics {
    /// Analyses performed.
    pub analyses: Counter,
    /// Events ingested across all analyses.
    pub events_ingested: Counter,
    /// Bytes ingested from on-disk traces.
    pub bytes_ingested: Counter,
    /// Findings reported (above-threshold severities).
    pub findings: Counter,
    /// State extraction pass.
    pub extract_time: Histogram,
    /// Point-to-point message matching.
    pub match_time: Histogram,
    /// Property evaluation: the ASL default set over every record.
    pub detect_time: Histogram,
    /// Severity cube → report build.
    pub severity_time: Histogram,
}

/// `fuzz::campaign`: the seeded scenario fuzzer.
#[derive(Debug, Default)]
pub struct FuzzMetrics {
    /// Scenarios executed.
    pub scenarios: Counter,
    /// Phases across all executed scenarios.
    pub phases: Counter,
    /// Oracle violations found.
    pub violations: Counter,
    /// Simulation re-runs spent shrinking violating scenarios.
    pub shrink_iterations: Counter,
    /// Full oracle verdict latency (predict + execute + compare).
    pub oracle_time: Histogram,
    /// End-to-end per-scenario latency (generate + run + check).
    pub scenario_time: Histogram,
}

/// `store`: the content-addressed artifact store. All store counters are
/// runtime-classified — hits and misses depend on what previous runs left
/// on disk, not on the workload alone.
#[derive(Debug, Default)]
pub struct StoreMetrics {
    /// Lookups satisfied from the store (integrity-verified).
    pub hits: Counter,
    /// Lookups that found nothing usable.
    pub misses: Counter,
    /// Entries committed.
    pub puts: Counter,
    /// Entries rejected because size or checksum verification failed.
    pub integrity_failures: Counter,
    /// Artifact bytes read back on hits.
    pub bytes_read: Counter,
    /// Artifact bytes written on puts.
    pub bytes_written: Counter,
}

/// `serve`: the campaign HTTP service. All serve metrics are
/// runtime-classified — they measure traffic, not workload.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    /// Requests accepted and answered (any status).
    pub requests: Counter,
    /// Connections shed with 429 at admission.
    pub shed: Counter,
    /// Responses with a 4xx/5xx status.
    pub errors: Counter,
    /// Response body bytes written.
    pub bytes_out: Counter,
    /// Campaign rows streamed across all responses.
    pub rows_streamed: Counter,
    /// Most requests ever in flight at once.
    pub inflight_max: Gauge,
    /// Live connections right now.
    pub connections: Gauge,
    /// Request latency, accept to last byte.
    pub request_time: Histogram,
}

/// All subsystem metric groups under one roof.
#[derive(Debug, Default)]
pub struct Registry {
    pub mpi: MpiMetrics,
    pub trace: TraceMetrics,
    pub pool: PoolMetrics,
    pub analyzer: AnalyzerMetrics,
    pub fuzz: FuzzMetrics,
    pub store: StoreMetrics,
    pub serve: ServeMetrics,
}

/// An enumerated counter: name, help, deterministic flag, current value.
pub struct CounterDesc {
    pub name: &'static str,
    pub help: &'static str,
    pub deterministic: bool,
    pub value: u64,
}

/// An enumerated gauge.
pub struct GaugeDesc {
    pub name: &'static str,
    pub help: &'static str,
    pub value: u64,
}

/// An enumerated histogram (borrowed; render via its accessors).
pub struct HistDesc<'a> {
    pub name: &'static str,
    pub help: &'static str,
    pub hist: &'a Histogram,
}

impl Registry {
    /// Enumerate every counter with its export name. The `deterministic`
    /// flag drives the manifest partition (see module docs).
    pub fn counters(&self) -> Vec<CounterDesc> {
        let c = |name, help, deterministic, counter: &Counter| CounterDesc {
            name,
            help,
            deterministic,
            value: counter.get(),
        };
        vec![
            c(
                "ats_mpisim_runs_total",
                "Simulations executed",
                true,
                &self.mpi.runs,
            ),
            c(
                "ats_mpisim_ranks_total",
                "Rank threads spawned",
                true,
                &self.mpi.ranks,
            ),
            c(
                "ats_mpisim_events_total",
                "Events recorded into traces",
                true,
                &self.mpi.events,
            ),
            c(
                "ats_mpisim_messages_total",
                "P2P envelopes through mailboxes",
                true,
                &self.mpi.messages,
            ),
            c(
                "ats_mpisim_collectives_total",
                "Collective operations completed",
                true,
                &self.mpi.collectives,
            ),
            c(
                "ats_mpisim_collective_rounds_total",
                "Simulated collective tree stages",
                true,
                &self.mpi.collective_rounds,
            ),
            c(
                "ats_mpisim_sched_events_total",
                "Discrete-event scheduler events executed",
                true,
                &self.mpi.sched_events,
            ),
            c(
                "ats_trace_binary_bytes_encoded_total",
                "ATSB bytes encoded",
                true,
                &self.trace.binary_bytes_encoded,
            ),
            c(
                "ats_pool_tasks_total",
                "Worker-pool tasks executed",
                true,
                &self.pool.tasks,
            ),
            c(
                "ats_pool_busy_nanoseconds_total",
                "Worker busy time",
                false,
                &self.pool.busy_ns,
            ),
            c(
                "ats_pool_wall_nanoseconds_total",
                "Pool wall time",
                false,
                &self.pool.wall_ns,
            ),
            c(
                "ats_analyzer_analyses_total",
                "Analyses performed",
                true,
                &self.analyzer.analyses,
            ),
            c(
                "ats_analyzer_events_ingested_total",
                "Events ingested",
                true,
                &self.analyzer.events_ingested,
            ),
            c(
                "ats_analyzer_bytes_ingested_total",
                "Bytes ingested from disk",
                true,
                &self.analyzer.bytes_ingested,
            ),
            c(
                "ats_analyzer_findings_total",
                "Findings reported",
                true,
                &self.analyzer.findings,
            ),
            c(
                "ats_fuzz_scenarios_total",
                "Fuzz scenarios executed",
                true,
                &self.fuzz.scenarios,
            ),
            c(
                "ats_fuzz_phases_total",
                "Fuzz phases executed",
                true,
                &self.fuzz.phases,
            ),
            c(
                "ats_fuzz_violations_total",
                "Oracle violations",
                true,
                &self.fuzz.violations,
            ),
            c(
                "ats_fuzz_shrink_iterations_total",
                "Shrink re-runs",
                true,
                &self.fuzz.shrink_iterations,
            ),
            c(
                "ats_store_hits_total",
                "Artifact-store verified hits",
                false,
                &self.store.hits,
            ),
            c(
                "ats_store_misses_total",
                "Artifact-store misses",
                false,
                &self.store.misses,
            ),
            c(
                "ats_store_puts_total",
                "Artifact-store entries committed",
                false,
                &self.store.puts,
            ),
            c(
                "ats_store_integrity_failures_total",
                "Artifact-store checksum rejections",
                false,
                &self.store.integrity_failures,
            ),
            c(
                "ats_store_bytes_read_total",
                "Artifact bytes replayed from the store",
                false,
                &self.store.bytes_read,
            ),
            c(
                "ats_store_bytes_written_total",
                "Artifact bytes persisted to the store",
                false,
                &self.store.bytes_written,
            ),
            c(
                "ats_serve_requests_total",
                "Service requests answered",
                false,
                &self.serve.requests,
            ),
            c(
                "ats_serve_shed_total",
                "Connections shed with 429 at admission",
                false,
                &self.serve.shed,
            ),
            c(
                "ats_serve_errors_total",
                "Service responses with an error status",
                false,
                &self.serve.errors,
            ),
            c(
                "ats_serve_bytes_out_total",
                "Response body bytes written",
                false,
                &self.serve.bytes_out,
            ),
            c(
                "ats_serve_rows_streamed_total",
                "Campaign rows streamed to clients",
                false,
                &self.serve.rows_streamed,
            ),
        ]
    }

    /// Enumerate every gauge. Gauges are always runtime-classified.
    pub fn gauges(&self) -> Vec<GaugeDesc> {
        let g = |name, help, gauge: &Gauge| GaugeDesc {
            name,
            help,
            value: gauge.get(),
        };
        vec![
            g(
                "ats_mpisim_mailbox_depth_max",
                "Deepest mailbox queue seen",
                &self.mpi.mailbox_depth_max,
            ),
            g(
                "ats_mpisim_sched_ready_depth_max",
                "Deepest discrete-event ready queue seen",
                &self.mpi.sched_ready_depth_max,
            ),
            g(
                "ats_pool_jobs_occupancy",
                "Workers in the latest pool launch",
                &self.pool.jobs_occupancy,
            ),
            g(
                "ats_serve_inflight_max",
                "Most requests ever in flight at once",
                &self.serve.inflight_max,
            ),
            g(
                "ats_serve_connections",
                "Live service connections",
                &self.serve.connections,
            ),
        ]
    }

    /// Enumerate every histogram. Histograms are always runtime-classified.
    pub fn histograms(&self) -> Vec<HistDesc<'_>> {
        let h = |name, help, hist| HistDesc { name, help, hist };
        vec![
            h(
                "ats_pool_queue_wait_seconds",
                "Task claim latency",
                &self.pool.queue_wait,
            ),
            h(
                "ats_pool_task_time_seconds",
                "Per-task execution time",
                &self.pool.task_time,
            ),
            h(
                "ats_analyzer_extract_seconds",
                "State extraction pass",
                &self.analyzer.extract_time,
            ),
            h(
                "ats_analyzer_pattern_match_seconds",
                "Message matching",
                &self.analyzer.match_time,
            ),
            h(
                "ats_analyzer_detect_seconds",
                "Property evaluation",
                &self.analyzer.detect_time,
            ),
            h(
                "ats_analyzer_severity_seconds",
                "Severity cube and report build",
                &self.analyzer.severity_time,
            ),
            h(
                "ats_fuzz_oracle_seconds",
                "Oracle verdict latency",
                &self.fuzz.oracle_time,
            ),
            h(
                "ats_fuzz_scenario_seconds",
                "Per-scenario latency",
                &self.fuzz.scenario_time,
            ),
            h(
                "ats_serve_request_seconds",
                "Request latency, accept to last byte",
                &self.serve.request_time,
            ),
        ]
    }
}

/// A cloneable, shareable reference to a [`Registry`].
///
/// Configs thread an `Option<Handle>` defaulting to `None` (no
/// instrumentation, near-zero cost). Each handle a session builds points
/// at a registry of its own, immune to concurrent pollution.
#[derive(Clone, Default)]
pub struct Handle(Arc<Registry>);

impl Handle {
    /// A handle to a brand-new, all-zero registry.
    pub fn new() -> Self {
        Handle(Arc::new(Registry::default()))
    }

    /// Do these two handles share one registry?
    pub fn same_registry(&self, other: &Handle) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Deref for Handle {
    type Target = Registry;
    fn deref(&self) -> &Registry {
        &self.0
    }
}

impl fmt::Debug for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obs::Handle({:p})", Arc::as_ptr(&self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_handles_are_independent() {
        let a = Handle::new();
        let b = Handle::new();
        a.mpi.events.add(10);
        assert_eq!(a.mpi.events.get(), 10);
        assert_eq!(b.mpi.events.get(), 0);
        assert!(!a.same_registry(&b));
        let c = a.clone();
        assert!(a.same_registry(&c));
        c.mpi.events.inc();
        assert_eq!(a.mpi.events.get(), 11);
    }

    #[test]
    fn enumeration_covers_all_subsystems() {
        let r = Registry::default();
        let names: Vec<&str> = r
            .counters()
            .iter()
            .map(|c| c.name)
            .chain(r.gauges().iter().map(|g| g.name))
            .chain(r.histograms().iter().map(|h| h.name))
            .collect();
        for prefix in [
            "ats_mpisim_",
            "ats_trace_",
            "ats_pool_",
            "ats_analyzer_",
            "ats_fuzz_",
            "ats_store_",
            "ats_serve_",
        ] {
            assert!(
                names.iter().any(|n| n.starts_with(prefix)),
                "no metric for subsystem {prefix}"
            );
        }
        // Export names are unique.
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
    }
}

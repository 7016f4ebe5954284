//! Experiment management: systematic parameter sweeps over property
//! functions, with analyzer-in-the-loop scoring.
//!
//! The paper delegates "more extensive experiments ... through scripting
//! languages or through automatic experiment management systems, such as
//! ZENTURIO". This module plays that role: a [`Sweep`] describes a
//! cartesian family of single-property runs; [`Experiment::run`] executes
//! them, analyzes every trace, and collects one [`ExperimentRow`] per
//! configuration.

use crate::cache::{self, row_from_json, row_to_json, KeyPrefix};
use crate::pool;
use crate::registry::{run_single, spec_of, RunOpts};
use ats_analyzer::{analyze, AnalyzerConfig};
use ats_core::catalog::PropertySpec;
use ats_core::{Error, ParamValue, ParamValues};
use ats_store::{Cache, CacheKey, Json};
use ats_trace::{PoolStats, TracePool};
use std::time::Instant;

/// One axis of a sweep: a parameter name and the values it takes.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Parameter to vary.
    pub param: String,
    /// Values to try.
    pub values: Vec<ParamValue>,
}

impl Sweep {
    /// Sweep a seconds-valued parameter.
    pub fn seconds(param: &str, values: impl IntoIterator<Item = f64>) -> Self {
        Sweep {
            param: param.to_owned(),
            values: values.into_iter().map(ParamValue::Seconds).collect(),
        }
    }

    /// Sweep a count-valued parameter.
    pub fn counts(param: &str, values: impl IntoIterator<Item = usize>) -> Self {
        Sweep {
            param: param.to_owned(),
            values: values.into_iter().map(ParamValue::Count).collect(),
        }
    }
}

/// One configuration's outcome.
#[derive(Debug, Clone)]
pub struct ExperimentRow {
    /// Property function name.
    pub property: String,
    /// Full parameter assignment (command-line syntax).
    pub params: String,
    /// Process count used.
    pub nprocs: usize,
    /// Severity the analyzer assigned to the *expected* property
    /// (0 for negative cases).
    pub detected_severity: f64,
    /// Absolute waiting time behind that severity, in seconds. For
    /// monotonicity checks this is the right quantity: severity is a
    /// *fraction* and stays constant when the knob scales the whole run.
    pub detected_wait_secs: f64,
    /// Whether any finding matched the expected property at the expected
    /// call-path location.
    pub localized: bool,
    /// Number of findings for *unexpected* properties (false positives
    /// from this program's point of view).
    pub unexpected_findings: usize,
    /// Trace size, as a cost indicator.
    pub events: usize,
}

/// Execution statistics for one [`Experiment::run_with_stats`] call.
///
/// Timing lives here — not in [`ExperimentRow`] — so row sequences stay
/// byte-identical across `jobs` settings (the engine's determinism
/// guarantee) while throughput remains observable.
#[derive(Debug, Clone)]
pub struct ExperimentStats {
    /// Number of configurations, replayed and executed.
    pub configs: usize,
    /// Worker count requested (after `0 = auto` resolution).
    pub jobs_requested: usize,
    /// Worker count the oversubscription guard grants
    /// (`jobs × threads_per_config ≤ default_thread_budget`, see
    /// [`pool::effective_jobs`]). Only misses run on these workers: hits
    /// replay on the calling thread, so a sweep whose every configuration
    /// is stored starts none of them.
    pub jobs: usize,
    /// Largest process count among the configurations.
    pub max_nprocs: usize,
    /// End-to-end wall-clock for the whole sweep, in seconds.
    pub wall_secs: f64,
    /// Throughput: `configs / wall_secs`.
    pub configs_per_sec: f64,
    /// Per-configuration wall-clock, in cartesian-combo order.
    pub config_wall_secs: Vec<f64>,
    /// Event-buffer pool counters for the sweep (reuse hits/misses and
    /// buffers recycled; all zero unless the options carry a pool).
    /// Capacity reuse only — rows are unaffected.
    pub trace_pool: PoolStats,
    /// Result-cache mode label (`"off"`, `"ro"`, `"rw"`).
    pub cache_mode: &'static str,
    /// Configurations replayed from the artifact store instead of
    /// executed. Replayed rows are byte-identical to executed ones — the
    /// determinism guarantee is what licenses the shortcut.
    pub cache_hits: usize,
    /// Configurations executed because no valid cache entry existed.
    pub cache_misses: usize,
    /// Artifact bytes loaded for replayed configurations.
    pub cache_bytes_read: u64,
    /// Artifact bytes published for newly executed configurations
    /// (`rw` mode only).
    pub cache_bytes_written: u64,
}

/// A family of runs over one property, set up through its builders.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Property function name.
    property: String,
    /// Axes (cartesian product).
    sweeps: Vec<Sweep>,
    /// Process-count axis. Empty = use `opts.nprocs` only. When set, the
    /// grid is the *outer* loop of the cartesian product.
    procs_grid: Vec<usize>,
    /// Execution options.
    opts: RunOpts,
    /// Analyzer configuration.
    analyzer: AnalyzerConfig,
    /// Result cache (`None` = no caching). In `ro`/`rw` modes each
    /// configuration's key is computed *before* simulating; hits replay
    /// the stored row on the calling thread, only misses reach the worker
    /// pool and execute (and, in `rw`, publish).
    cache: Option<Cache>,
    /// The rendered execution half of `opts` and `analyzer`, handed over
    /// by the session that built them (`None` = render it per run).
    prefix: Option<KeyPrefix>,
}

impl Experiment {
    /// An experiment over `property` with default options and no axes
    /// (a single run at catalog defaults).
    pub fn new(property: &str) -> Self {
        Experiment {
            property: property.to_owned(),
            sweeps: Vec::new(),
            procs_grid: Vec::new(),
            opts: RunOpts::default(),
            analyzer: AnalyzerConfig::default(),
            cache: None,
            prefix: None,
        }
    }

    /// Builder: add an axis.
    pub fn sweep(mut self, s: Sweep) -> Self {
        self.sweeps.push(s);
        self
    }

    /// Builder: sweep the process count itself (outer axis).
    pub fn procs_grid(mut self, procs: impl IntoIterator<Item = usize>) -> Self {
        self.procs_grid = procs.into_iter().collect();
        self
    }

    /// Builder: set run options (dropping a key prefix rendered from the
    /// old ones).
    pub fn opts(mut self, opts: RunOpts) -> Self {
        self.opts = opts;
        self.prefix = None;
        self
    }

    /// Builder: set the analyzer configuration (dropping a key prefix
    /// rendered from the old one).
    pub fn analyzer(mut self, analyzer: AnalyzerConfig) -> Self {
        self.analyzer = analyzer;
        self.prefix = None;
        self
    }

    /// Builder: `prefix`, rendered from the experiment's current options
    /// and analyzer, so runs do not render it again.
    pub(crate) fn prefix(mut self, prefix: KeyPrefix) -> Self {
        self.prefix = Some(prefix);
        self
    }

    /// Builder: attach a result cache.
    pub fn cache(mut self, cache: Cache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Execute all configurations (see [`Experiment::run_with_stats`]).
    pub fn run(&self) -> Result<Vec<ExperimentRow>, Error> {
        self.run_with_stats().map(|(rows, _)| rows)
    }

    /// Replay every stored configuration, execute the rest on a bounded
    /// worker pool, and return the rows plus throughput statistics.
    ///
    /// The replay step runs on the calling thread, in cartesian-combo
    /// order: it derives each configuration's key, probes the store once
    /// and decodes a hit's stored row there. Only the misses reach the
    /// pool, so a sweep whose every configuration is stored starts no
    /// worker thread. Workers (`opts.jobs`, `0 = available parallelism`)
    /// pull misses from a shared queue; the oversubscription guard clamps
    /// the worker count so the OS threads the configurations occupy
    /// ([`pool::threads_per_config`]) stay within
    /// [`pool::default_thread_budget`]. Rows come back in cartesian-combo
    /// order (process grid outer, parameter axes inner) regardless of
    /// completion order, so any `jobs` setting yields the same sequence.
    /// A failure is attributed to its configuration; when several fail,
    /// the first in combo order is returned.
    pub fn run_with_stats(&self) -> Result<(Vec<ExperimentRow>, ExperimentStats), Error> {
        let spec = spec_of(&self.property)?;
        let procs: Vec<usize> = if self.procs_grid.is_empty() {
            vec![self.opts.nprocs]
        } else {
            self.procs_grid.clone()
        };
        let param_combos = cartesian(&self.sweeps);
        let configs: Vec<(usize, &[(String, ParamValue)])> = procs
            .iter()
            .flat_map(|&p| param_combos.iter().map(move |c| (p, c.as_slice())))
            .collect();
        let max_nprocs = procs.iter().copied().max().unwrap_or(1);
        let jobs_requested = if self.opts.jobs == 0 {
            pool::auto_jobs()
        } else {
            self.opts.jobs
        };
        // The guard budgets *OS threads*, not ranks: on the coroutine
        // carrier every configuration occupies one worker thread
        // regardless of nprocs, so wide configs do not throttle jobs.
        let jobs = pool::effective_jobs(
            jobs_requested,
            pool::threads_per_config(max_nprocs),
            pool::default_thread_budget(),
        )
        .min(configs.len().max(1));
        let started = Instant::now();
        // Every configuration's key shares one execution half, and its
        // parameters start from the entry's defaults.
        let prefix = self.cache.as_ref().map(|_| {
            self.prefix
                .clone()
                .unwrap_or_else(|| KeyPrefix::new(&self.opts, &self.analyzer))
        });
        let defaults = ParamValues::defaults(spec);
        let replayed: Vec<(Result<Replay, Error>, f64)> = configs
            .iter()
            .map(|&(nprocs, combo)| {
                timed(|| self.replay(prefix.as_ref(), &defaults, nprocs, combo))
            })
            .collect();
        let misses: Vec<&Miss> = replayed
            .iter()
            .filter_map(|(step, _)| match step {
                Ok(Replay::Miss(miss)) => Some(miss),
                _ => None,
            })
            .collect();
        let mut executed = pool::run_indexed_with(jobs, misses.len(), self.opts.obs.clone(), |m| {
            timed(|| self.run_config(spec, misses[m]))
        })
        .into_iter();
        let wall_secs = started.elapsed().as_secs_f64();
        let mut rows = Vec::with_capacity(replayed.len());
        let mut config_wall_secs = Vec::with_capacity(replayed.len());
        let mut cache_hits = 0usize;
        let mut cache_bytes_read = 0u64;
        let mut cache_bytes_written = 0u64;
        for (step, replay_secs) in replayed {
            let (row, secs) = match step? {
                Replay::Hit { row, bytes_read } => {
                    cache_hits += 1;
                    cache_bytes_read += bytes_read;
                    (row, replay_secs)
                }
                Replay::Miss(_) => {
                    let (outcome, run_secs) = executed.next().expect("the pool runs every miss");
                    let (row, bytes_written) = outcome?;
                    cache_bytes_written += bytes_written;
                    (row, replay_secs + run_secs)
                }
            };
            rows.push(row);
            config_wall_secs.push(secs);
        }
        let stats = ExperimentStats {
            configs: rows.len(),
            jobs_requested,
            jobs,
            max_nprocs,
            wall_secs,
            configs_per_sec: if wall_secs > 0.0 {
                rows.len() as f64 / wall_secs
            } else {
                0.0
            },
            config_wall_secs,
            trace_pool: self
                .opts
                .trace_pool
                .as_ref()
                .map_or_else(PoolStats::default, TracePool::stats),
            cache_mode: self.cache.as_ref().map_or("off", |c| c.mode.label()),
            cache_hits,
            cache_misses: rows.len() - cache_hits,
            cache_bytes_read,
            cache_bytes_written,
        };
        Ok((rows, stats))
    }

    /// The replay step for one configuration: build its parameters over
    /// the entry's `defaults` and, with a cache (and the key prefix), its
    /// key, then probe the store once. A verified entry whose row decodes
    /// is a hit; anything else is a miss for [`Experiment::run_config`] to
    /// execute.
    fn replay(
        &self,
        prefix: Option<&KeyPrefix>,
        defaults: &ParamValues,
        nprocs: usize,
        combo: &[(String, ParamValue)],
    ) -> Result<Replay, Error> {
        let mut params = defaults.clone();
        for (name, value) in combo {
            params.set(name, value.clone());
        }
        let params_cli = params.to_cli();
        let mut key = None;
        if let (Some(cache), Some(prefix)) = (&self.cache, prefix) {
            // The key is computed *before* simulating: a hit replays the
            // stored row without paying for the run at all.
            let run = cache::config_run_doc(&self.property, &params_cli, nprocs, &self.opts);
            let hash = prefix.key(&run);
            if let Some(entry) = cache
                .lookup_file(&hash, cache::ROW_FILE)
                .map_err(|e| e.in_config(&self.property, &params_cli))?
            {
                // A verified entry missing or corrupting its row document
                // degrades to a miss (re-execute; `rw` re-publishes).
                let cached_row = entry
                    .file(cache::ROW_FILE)
                    .and_then(|bytes| std::str::from_utf8(bytes).ok())
                    .and_then(|text| Json::parse(text).ok())
                    .and_then(|doc| row_from_json(&doc).ok());
                if let Some(row) = cached_row {
                    return Ok(Replay::Hit {
                        row,
                        bytes_read: entry.bytes,
                    });
                }
            }
            key = Some(hash);
        }
        Ok(Replay::Miss(Miss {
            nprocs,
            params,
            params_cli,
            key,
        }))
    }

    /// Execute and score one configuration the store could not replay:
    /// run → trace → analyze → row (→ publish under the miss's key).
    /// Returns the row and the artifact bytes published.
    fn run_config(
        &self,
        spec: &'static PropertySpec,
        miss: &Miss,
    ) -> Result<(ExperimentRow, u64), Error> {
        let opts = self.opts.clone().procs(miss.nprocs);
        // Attribute any failure to this exact configuration so a failing
        // combo inside a pool-parallel sweep is identifiable from the
        // error alone.
        let trace = run_single(&self.property, &miss.params, &opts)
            .map_err(|e| e.in_config(&self.property, &miss.params_cli))?;
        let report = analyze(&trace, &self.analyzer);
        let total_alloc = trace.total_alloc_time().as_secs();
        let (detected_severity, localized, unexpected) = match spec.expected_property {
            Some(expected) => {
                let sev = report.severity_of(expected);
                let localized = !report
                    .findings_at(expected, spec.name, spec.localized_at)
                    .is_empty();
                let unexpected = report
                    .findings
                    .iter()
                    .filter(|f| f.property != expected)
                    .count();
                (sev, localized, unexpected)
            }
            None => (0.0, report.is_clean(), report.findings.len()),
        };
        let events = trace.num_events();
        let row = ExperimentRow {
            property: self.property.clone(),
            params: miss.params_cli.clone(),
            nprocs: miss.nprocs,
            detected_severity,
            detected_wait_secs: detected_severity * total_alloc,
            localized,
            unexpected_findings: unexpected,
            events,
        };
        let mut bytes_written = 0;
        if let (Some(cache), Some(key)) = (&self.cache, &miss.key) {
            if cache.mode.writes() {
                // Persist the full result set: the replayable row, the
                // analyzer report (the byte-identity artifact) and the
                // binary trace. Encoding costs are only paid in `rw` mode.
                // The row goes first, so a replay reads it with the
                // entry's header.
                let row_bytes = row_to_json(&row).render();
                let report_bytes = report.to_json();
                let trace_bytes = ats_trace::binfmt::encode(&trace);
                if let Some(obs) = &self.opts.obs {
                    obs.trace.binary_bytes_encoded.add(trace_bytes.len() as u64);
                }
                let key_doc = cache::config_key_doc(
                    &self.property,
                    &miss.params_cli,
                    miss.nprocs,
                    &self.opts,
                    &self.analyzer,
                );
                bytes_written = cache
                    .publish(
                        key,
                        &key_doc,
                        &[
                            (cache::ROW_FILE, row_bytes.as_bytes()),
                            (cache::REPORT_FILE, report_bytes.as_bytes()),
                            (cache::TRACE_FILE, &trace_bytes),
                        ],
                    )
                    .map_err(|e| e.in_config(&row.property, &row.params))?;
            }
        }
        // The trace has been fully scored (and, in `rw` mode, persisted);
        // with a pool in the options (shared by every worker), donate its
        // event buffers to whichever configuration runs next.
        if let Some(pool) = &self.opts.trace_pool {
            pool.recycle(trace);
        }
        Ok((row, bytes_written))
    }
}

/// What the replay step found for one configuration.
enum Replay {
    /// The store held a verified row: `bytes_read` artifact bytes loaded.
    Hit { row: ExperimentRow, bytes_read: u64 },
    /// Nothing to replay: the configuration must be executed.
    Miss(Miss),
}

/// A configuration the store could not replay, with the parameters and
/// key the replay step built for it.
struct Miss {
    nprocs: usize,
    params: ParamValues,
    params_cli: String,
    /// The cache key (`None` without a cache).
    key: Option<CacheKey>,
}

/// `f`'s result and its wall time in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Cartesian product of sweep axes (a single empty assignment when there
/// are no axes).
fn cartesian(sweeps: &[Sweep]) -> Vec<Vec<(String, ParamValue)>> {
    let mut combos: Vec<Vec<(String, ParamValue)>> = vec![Vec::new()];
    for s in sweeps {
        let mut next = Vec::with_capacity(combos.len() * s.values.len());
        for combo in &combos {
            for v in &s.values {
                let mut c = combo.clone();
                c.push((s.param.clone(), v.clone()));
                next.push(c);
            }
        }
        combos = next;
    }
    combos
}

/// Kendall rank-correlation between two sequences — the statistic used to
/// check that detected severity *tracks* the programmed severity
/// monotonically (1.0 = perfect agreement).
pub fn kendall_tau(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "sequences must pair up");
    let n = xs.len();
    if n < 2 {
        return 1.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let dx = xs[i] - xs[j];
            let dy = ys[i] - ys[j];
            let s = dx * dy;
            if s > 0.0 {
                concordant += 1;
            } else if s < 0.0 {
                discordant += 1;
            }
        }
    }
    let pairs = (n * (n - 1) / 2) as f64;
    (concordant - discordant) as f64 / pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each row's canonical `row.json` bytes.
    fn rendered(rows: &[ExperimentRow]) -> Vec<String> {
        rows.iter().map(|r| row_to_json(r).render()).collect()
    }

    #[test]
    fn cartesian_products() {
        let sweeps = vec![
            Sweep::seconds("a", [1.0, 2.0]),
            Sweep::counts("b", [10, 20, 30]),
        ];
        assert_eq!(cartesian(&sweeps).len(), 6);
        assert_eq!(cartesian(&[]).len(), 1);
    }

    #[test]
    fn kendall_tau_extremes() {
        assert_eq!(kendall_tau(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]), 1.0);
        assert_eq!(kendall_tau(&[1.0, 2.0, 3.0], &[30.0, 20.0, 10.0]), -1.0);
        assert_eq!(kendall_tau(&[1.0], &[5.0]), 1.0);
    }

    #[test]
    fn severity_sweep_is_monotone_for_late_sender() {
        let extras = [0.005, 0.01, 0.02, 0.04];
        let exp = Experiment::new("late_sender")
            .sweep(Sweep::seconds("extrawork", extras))
            .opts(RunOpts::default().procs(4));
        let rows = exp.run().unwrap();
        assert_eq!(rows.len(), 4);
        let severities: Vec<f64> = rows.iter().map(|r| r.detected_severity).collect();
        let tau = kendall_tau(extras.as_ref(), &severities);
        assert_eq!(tau, 1.0, "severity must track extrawork: {severities:?}");
        assert!(rows.iter().all(|r| r.localized), "all runs localized");
    }

    #[test]
    fn negative_property_rows_stay_clean() {
        let exp = Experiment::new("balanced_mpi_barrier")
            .sweep(Sweep::seconds("work", [0.005, 0.01]))
            .opts(RunOpts::default().procs(4));
        let rows = exp.run().unwrap();
        for r in &rows {
            assert_eq!(r.detected_severity, 0.0);
            assert!(r.localized, "negative rows are 'localized' when clean");
            assert_eq!(r.unexpected_findings, 0);
        }
    }

    #[test]
    fn unknown_property_errors() {
        assert!(Experiment::new("warp_drive").run().is_err());
        assert!(Experiment::new("warp_drive").run_with_stats().is_err());
    }

    /// The engine's central guarantee: any `jobs` setting yields the same
    /// row sequence, for a severity × nprocs sweep (ISSUE: E-pos shape).
    #[test]
    fn parallel_rows_match_serial_rows_exactly() {
        for property in ["late_sender", "imbalance_at_mpi_barrier"] {
            let exp = |jobs: usize| {
                let mut e = Experiment::new(property).procs_grid([2, 4]);
                e = match property {
                    "late_sender" => e.sweep(Sweep::seconds("extrawork", [0.005, 0.01, 0.02])),
                    _ => e.sweep(Sweep::counts("r", [1, 2, 3])),
                };
                e.opts(RunOpts::default().jobs(jobs))
            };
            let serial = exp(1).run_with_stats().unwrap();
            let parallel = exp(8).run_with_stats().unwrap();
            assert_eq!(serial.1.jobs, 1);
            assert!(parallel.1.jobs > 1, "pool must actually parallelize");
            // Byte-identical row sequences: compare serialized forms.
            assert_eq!(
                rendered(&serial.0),
                rendered(&parallel.0),
                "{property}: jobs=1 vs jobs=8 rows diverge"
            );
        }
    }

    #[test]
    fn stats_cover_every_config() {
        let (rows, stats) = Experiment::new("late_sender")
            .sweep(Sweep::seconds("extrawork", [0.005, 0.01]))
            .procs_grid([2, 4])
            .opts(RunOpts::default().jobs(2))
            .run_with_stats()
            .unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(stats.configs, 4);
        assert_eq!(stats.config_wall_secs.len(), 4);
        assert_eq!(stats.max_nprocs, 4);
        assert!(stats.wall_secs > 0.0);
        assert!(stats.configs_per_sec > 0.0);
        assert_eq!(stats.jobs, 2, "two workers requested, four configs");
        // Grid is the outer axis: rows 0-1 at P=2, rows 2-3 at P=4.
        assert_eq!(
            rows.iter().map(|r| r.nprocs).collect::<Vec<_>>(),
            vec![2, 2, 4, 4]
        );
    }

    /// Where the coroutine carrier runs, a configuration is one budget
    /// slot, so configurations wider than the 32-thread floor budget still
    /// get every requested worker (bounded only by the number of
    /// configurations).
    #[test]
    fn event_backend_configs_count_as_one_slot() {
        let (_, stats) = Experiment::new("late_sender")
            .sweep(Sweep::seconds("extrawork", [0.005, 0.01, 0.02, 0.04]))
            .opts(RunOpts::default().procs(64).jobs(4))
            .run_with_stats()
            .unwrap();
        assert_eq!(stats.jobs_requested, 4);
        if ats_runtime::SimBackend::event_supported() {
            assert_eq!(stats.jobs, 4, "4 workers × 1 slot, even at 64 ranks each");
        }
    }

    /// The engine pools event buffers between configurations: after the
    /// first config primes the pool, later configs are served from
    /// recycled capacity, and rows are unaffected.
    #[test]
    fn sweep_reuses_event_buffers_between_configs() {
        let exp = |pool: TracePool| {
            Experiment::new("late_sender")
                .sweep(Sweep::seconds("extrawork", [0.005, 0.01, 0.02]))
                .opts(RunOpts::default().procs(4).jobs(1).trace_pool(pool))
        };
        let pool = TracePool::new();
        let (rows, stats) = exp(pool.clone()).run_with_stats().unwrap();
        let s = pool.stats();
        assert_eq!(s.recycled, 3 * 4, "3 configs × 4 ranks recycled");
        assert_eq!(s.misses, 4, "only the first config allocates");
        assert_eq!(s.hits, 2 * 4, "configs 2 and 3 reuse config 1's buffers");
        assert_eq!(stats.trace_pool, s);
        // Identical rows without a pool (the engine then pools nothing).
        let baseline = Experiment::new("late_sender")
            .sweep(Sweep::seconds("extrawork", [0.005, 0.01, 0.02]))
            .opts(RunOpts::default().procs(4).jobs(1))
            .run()
            .unwrap();
        assert_eq!(
            rendered(&rows),
            rendered(&baseline),
            "pooling must not change any row"
        );
    }

    /// Cold `rw` sweep publishes every configuration; the warm re-run
    /// replays all of them with byte-identical rows and writes nothing.
    #[test]
    fn warm_sweeps_replay_from_the_store() {
        use ats_store::{Cache, CacheMode};
        let dir = ats_testutil::TempDir::new("ats-exp-cache");
        let dir = dir.path();
        let exp = |mode: CacheMode, obs: &ats_obs::Handle| {
            Experiment::new("late_sender")
                .sweep(Sweep::seconds("extrawork", [0.005, 0.01]))
                .procs_grid([2, 4])
                .opts(RunOpts::default().jobs(1).obs(obs.clone()))
                .cache(Cache::open(dir, mode).unwrap())
        };
        let cold_obs = ats_obs::Handle::new();
        let (cold_rows, cold) = exp(CacheMode::ReadWrite, &cold_obs)
            .run_with_stats()
            .unwrap();
        assert_eq!(cold.cache_mode, "rw");
        assert_eq!((cold.cache_hits, cold.cache_misses), (0, 4));
        assert!(cold.cache_bytes_written > 0, "cold rw publishes");
        assert_eq!(cold_obs.pool.tasks.get(), 4, "every miss is a pool task");
        let warm_obs = ats_obs::Handle::new();
        let (warm_rows, warm) = exp(CacheMode::ReadWrite, &warm_obs)
            .run_with_stats()
            .unwrap();
        assert_eq!((warm.cache_hits, warm.cache_misses), (4, 0));
        assert_eq!(
            warm_obs.pool.tasks.get(),
            0,
            "hits replay on the calling thread, never in the pool"
        );
        assert_eq!(warm_obs.pool.jobs_occupancy.get(), 0, "no worker starts");
        assert!(warm.cache_bytes_read > 0);
        assert_eq!(warm.cache_bytes_written, 0, "hits are never re-published");
        assert_eq!(
            rendered(&cold_rows),
            rendered(&warm_rows),
            "replay is byte-identical"
        );
        // `ro` replays what `rw` left behind; `off` ignores the store.
        let obs = ats_obs::Handle::new();
        let (_, ro) = exp(CacheMode::Read, &obs).run_with_stats().unwrap();
        assert_eq!((ro.cache_mode, ro.cache_hits), ("ro", 4));
        let (_, off) = exp(CacheMode::Off, &obs).run_with_stats().unwrap();
        assert_eq!((off.cache_mode, off.cache_hits), ("off", 0));
    }

    /// Changing one sweep value invalidates only the combos that use it:
    /// shared values still hit, new ones miss.
    #[test]
    fn single_parameter_change_invalidates_only_affected_combos() {
        use ats_store::{Cache, CacheMode};
        let dir = ats_testutil::TempDir::new("ats-exp-inval");
        let dir = dir.path();
        let exp = |extras: [f64; 2], obs: &ats_obs::Handle| {
            Experiment::new("late_sender")
                .sweep(Sweep::seconds("extrawork", extras))
                .opts(RunOpts::default().procs(2).jobs(1).obs(obs.clone()))
                .cache(Cache::open(dir, CacheMode::ReadWrite).unwrap())
        };
        let (_, cold) = exp([0.005, 0.01], &ats_obs::Handle::new())
            .run_with_stats()
            .unwrap();
        assert_eq!((cold.cache_hits, cold.cache_misses), (0, 2));
        let obs = ats_obs::Handle::new();
        let (shifted_rows, shifted) = exp([0.005, 0.02], &obs).run_with_stats().unwrap();
        assert_eq!(
            (shifted.cache_hits, shifted.cache_misses),
            (1, 1),
            "the shared value hits, the changed one misses"
        );
        assert_eq!(obs.pool.tasks.get(), 1, "only the miss reaches the pool");
        let uncached = Experiment::new("late_sender")
            .sweep(Sweep::seconds("extrawork", [0.005, 0.02]))
            .opts(RunOpts::default().procs(2).jobs(1))
            .run()
            .unwrap();
        assert_eq!(
            rendered(&shifted_rows),
            rendered(&uncached),
            "a replayed hit and an executed miss keep combo order"
        );
    }

    /// Scheduling knobs are not key ingredients: a warm run at a different
    /// `jobs` count still replays everything.
    #[test]
    fn cache_hits_survive_jobs_changes() {
        use ats_store::{Cache, CacheMode};
        let dir = ats_testutil::TempDir::new("ats-exp-jobs");
        let dir = dir.path();
        let exp = |jobs: usize| {
            Experiment::new("late_sender")
                .sweep(Sweep::seconds("extrawork", [0.005, 0.01, 0.02]))
                .opts(RunOpts::default().procs(2).jobs(jobs))
                .cache(Cache::open(dir, CacheMode::ReadWrite).unwrap())
        };
        let (cold_rows, _) = exp(1).run_with_stats().unwrap();
        let (warm_rows, warm) = exp(4).run_with_stats().unwrap();
        assert_eq!((warm.cache_hits, warm.cache_misses), (3, 0));
        assert_eq!(rendered(&cold_rows), rendered(&warm_rows));
    }

    /// A pool shared across parallel workers keeps rows byte-identical —
    /// the determinism guarantee extends to pooled runs at any `jobs`.
    #[test]
    fn pooled_parallel_rows_match_pooled_serial_rows() {
        let exp = |jobs: usize| {
            Experiment::new("late_sender")
                .sweep(Sweep::seconds("extrawork", [0.005, 0.01, 0.02]))
                .procs_grid([2, 4])
                .opts(RunOpts::default().jobs(jobs).trace_pool(TracePool::new()))
        };
        let serial = exp(1).run().unwrap();
        let parallel = exp(8).run().unwrap();
        assert_eq!(rendered(&serial), rendered(&parallel));
    }
}

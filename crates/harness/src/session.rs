//! The unified [`Session`] API: one builder owning run options, analyzer
//! configuration and observability together.
//!
//! Before sessions, every caller (bins, the fuzzer, the experiment
//! engine, examples) assembled the same three structs by hand —
//! [`RunOpts`], [`AnalyzerConfig`] and [`ObsConfig`] — and had to
//! remember to thread the same observability [`Handle`] through all of
//! them. A [`Session`] materializes the handle once at
//! [`SessionBuilder::build`] and injects it everywhere, so metrics from
//! the simulator, the worker pool, the store, the analyzer, the fuzzer
//! and the session's ATSB writers all land in one registry of the
//! session's own, exportable as Prometheus text ([`Session::prometheus`])
//! or a JSON run manifest ([`Session::manifest`]).
//!
//! ```
//! use ats_harness::{ParamValues, Session};
//!
//! let session = Session::builder().procs(4).seed(7).build();
//! let spec = ats_harness::spec_of("late_sender").unwrap();
//! let params = ParamValues::defaults(spec);
//! let (_, report) = session.run_and_analyze("late_sender", &params).unwrap();
//! assert!(report.severity_of("LateSender") > 0.0);
//! ```

use crate::experiment::Experiment;
use crate::registry::{run_single, RunOpts};
use ats_analyzer::{analyze, AnalysisReport, AnalyzerConfig};
use ats_core::{Error, ParamValues};
use ats_obs::{build_manifest, prometheus, Handle, ObsConfig, RunManifest};
use ats_store::{Cache, CacheMode, Json, Store};
use ats_trace::Trace;
use std::path::PathBuf;
use std::time::Instant;

/// Builder for a [`Session`]. Every knob the old three-struct surface
/// exposed is reachable here; [`SessionBuilder::build`] materializes the
/// observability handle and threads it through all owned configs.
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    opts: RunOpts,
    analyzer: AnalyzerConfig,
    obs: ObsConfig,
    cache_mode: CacheMode,
    cache_dir: Option<PathBuf>,
}

impl SessionBuilder {
    /// Set the MPI process count.
    pub fn procs(mut self, n: usize) -> Self {
        self.opts.nprocs = n;
        self
    }

    /// Set the experiment/fuzz worker count (`0` = auto).
    pub fn jobs(mut self, n: usize) -> Self {
        self.opts.jobs = n;
        self
    }

    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.opts.seed = seed;
        self
    }

    /// Use the realistic (non-zero) machine model with init/finalize
    /// costs.
    pub fn realistic(mut self) -> Self {
        self.opts = self.opts.realistic();
        self
    }

    /// Set the analyzer's reporting threshold.
    pub fn threshold(mut self, t: f64) -> Self {
        self.analyzer.threshold = t;
        self
    }

    /// Report MPI init/finalize overhead as a property.
    pub fn with_setup_overhead(mut self) -> Self {
        self.analyzer.report_setup_overhead = true;
        self
    }

    /// Replace the run options wholesale (escape hatch for knobs without
    /// a dedicated builder method).
    pub fn opts(mut self, opts: RunOpts) -> Self {
        self.opts = opts;
        self
    }

    /// Replace the analyzer configuration wholesale.
    pub fn analyzer(mut self, analyzer: AnalyzerConfig) -> Self {
        self.analyzer = analyzer;
        self
    }

    /// Set the observability configuration (default: fully off).
    pub fn obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Set the result-cache mode (default [`CacheMode::Off`]). In `ro`
    /// and `rw` modes, experiments launched through the session replay
    /// already-stored configurations from the artifact store; `rw`
    /// additionally publishes newly executed ones.
    pub fn cache(mut self, mode: CacheMode) -> Self {
        self.cache_mode = mode;
        self
    }

    /// Override the store root (default [`ats_store::DEFAULT_DIR`],
    /// relative to the working directory). Only meaningful with a
    /// non-`off` [`SessionBuilder::cache`] mode.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Materialize the session: resolve the observability handle once and
    /// inject it into the run options, the analyzer config and the
    /// result cache. Opening the store cannot fail the build: an
    /// unopenable store root degrades to cache-off (campaigns must run
    /// even when the cache directory is unavailable).
    pub fn build(self) -> Session {
        let handle = self.obs.handle();
        let mut opts = self.opts;
        let mut analyzer = self.analyzer;
        opts.obs = handle.clone();
        analyzer.obs = handle.clone();
        let cache = if self.cache_mode == CacheMode::Off {
            None
        } else {
            let root = self
                .cache_dir
                .unwrap_or_else(|| PathBuf::from(ats_store::DEFAULT_DIR));
            Store::open(&root).ok().map(|store| Cache {
                store: store.with_obs(handle.clone()),
                mode: self.cache_mode,
            })
        };
        Session {
            opts,
            analyzer,
            handle,
            cache,
            started: Instant::now(),
        }
    }
}

/// A configured suite session: the single entry point for running
/// properties, analyzing traces, sweeping experiments and exporting the
/// observability state they all share.
#[derive(Debug, Clone)]
pub struct Session {
    opts: RunOpts,
    analyzer: AnalyzerConfig,
    handle: Option<Handle>,
    cache: Option<Cache>,
    started: Instant,
}

impl Default for Session {
    fn default() -> Self {
        Session::builder().build()
    }
}

impl Session {
    /// Start building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The run options this session executes with (observability handle
    /// already injected).
    pub fn opts(&self) -> &RunOpts {
        &self.opts
    }

    /// The analyzer configuration this session analyzes with.
    pub fn analyzer_config(&self) -> &AnalyzerConfig {
        &self.analyzer
    }

    /// The shared observability handle (`None` when observability is
    /// off).
    pub fn obs(&self) -> Option<&Handle> {
        self.handle.as_ref()
    }

    /// The result cache experiments launched from this session consult
    /// (`None` when caching is off or the store root was unopenable).
    pub fn result_cache(&self) -> Option<&Cache> {
        self.cache.as_ref()
    }

    /// Execute the single-property test program `name` with `params`.
    pub fn run(&self, name: &str, params: &ParamValues) -> Result<Trace, Error> {
        run_single(name, params, &self.opts)
    }

    /// Analyze a trace with this session's analyzer configuration.
    pub fn analyze(&self, trace: &Trace) -> AnalysisReport {
        analyze(trace, &self.analyzer)
    }

    /// [`Session::run`] then [`Session::analyze`].
    pub fn run_and_analyze(
        &self,
        name: &str,
        params: &ParamValues,
    ) -> Result<(Trace, AnalysisReport), Error> {
        let trace = self.run(name, params)?;
        let report = self.analyze(&trace);
        Ok((trace, report))
    }

    /// An [`Experiment`] over `property` pre-seeded with this session's
    /// run options, analyzer configuration and result cache.
    pub fn experiment(&self, property: &str) -> Experiment {
        let exp = Experiment::new(property)
            .opts(self.opts.clone())
            .analyzer(self.analyzer.clone());
        match &self.cache {
            Some(c) => exp.cache(c.clone()),
            None => exp,
        }
    }

    /// The session's workload configuration as JSON for manifests:
    /// everything that determines *results* (seed, procs, model choice,
    /// threshold), deliberately excluding execution details (`jobs`) so
    /// manifests diff clean across worker counts.
    fn config_json(&self) -> Json {
        Json::obj()
            .with("nprocs", self.opts.nprocs)
            .with("seed", self.opts.seed)
            .with(
                "zero_model",
                self.opts.model == ats_runtime::MachineModel::zero(),
            )
            .with("threshold", self.analyzer.threshold)
            .with("report_setup_overhead", self.analyzer.report_setup_overhead)
    }

    /// Prometheus text exposition of the session's registry (`None` when
    /// observability is off).
    pub fn prometheus(&self) -> Option<String> {
        self.handle.as_ref().map(|h| prometheus(h))
    }

    /// A JSON run manifest labeled `label`, snapshotting the session's
    /// registry and wall time (`None` when observability is off).
    pub fn manifest(&self, label: &str) -> Option<RunManifest> {
        self.handle.as_ref().map(|h| {
            build_manifest(
                label,
                self.config_json(),
                h,
                self.started.elapsed().as_secs_f64(),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn late_sender_params() -> ParamValues {
        ParamValues::defaults(crate::registry::spec_of("late_sender").unwrap())
    }

    #[test]
    fn session_runs_and_analyzes_like_the_loose_parts() {
        let session = Session::builder().procs(4).seed(11).build();
        let (trace, report) = session
            .run_and_analyze("late_sender", &late_sender_params())
            .unwrap();
        // Identical to assembling RunOpts/AnalyzerConfig by hand.
        let mut opts = RunOpts::default().procs(4);
        opts.seed = 11;
        let loose = run_single("late_sender", &late_sender_params(), &opts).unwrap();
        assert_eq!(trace.num_events(), loose.num_events());
        assert!(report.severity_of("LateSender") > 0.0);
    }

    #[test]
    fn obs_off_session_has_no_handle_or_exports() {
        let session = Session::builder().build();
        assert!(session.obs().is_none());
        assert!(session.prometheus().is_none());
        assert!(session.manifest("unit").is_none());
    }

    #[test]
    fn obs_on_session_shares_one_handle_everywhere() {
        let session = Session::builder().procs(2).obs(ObsConfig::fresh()).build();
        let h = session.obs().unwrap().clone();
        assert!(session
            .opts()
            .obs
            .as_ref()
            .is_some_and(|o| o.same_registry(&h)));
        assert!(session
            .analyzer_config()
            .obs
            .as_ref()
            .is_some_and(|o| o.same_registry(&h)));
        let (_, _) = session
            .run_and_analyze("late_sender", &late_sender_params())
            .unwrap();
        assert!(h.mpi.runs.get() >= 1);
        assert!(h.mpi.events.get() > 0);
        assert_eq!(h.analyzer.analyses.get(), 1);
        let text = session.prometheus().unwrap();
        assert!(text.contains("ats_mpisim_events_total"));
        let manifest = session.manifest("unit").unwrap();
        assert!(manifest.metrics["ats_mpisim_events_total"] > 0);
    }

    #[test]
    fn config_json_excludes_execution_details() {
        let session = Session::builder().procs(4).jobs(8).build();
        let cfg = session.config_json();
        assert_eq!(cfg.get("nprocs").and_then(Json::as_u64), Some(4));
        assert!(cfg.get("jobs").is_none());
        assert!(cfg.get("backend").is_none());
    }

    #[test]
    fn session_cache_wires_into_experiments() {
        let dir = ats_testutil::TempDir::new("ats-session-cache");
        let dir = dir.path();
        let session = |mode: CacheMode| {
            Session::builder()
                .procs(2)
                .cache(mode)
                .cache_dir(dir)
                .build()
        };
        let off = Session::builder().procs(2).build();
        assert!(off.result_cache().is_none(), "caching defaults to off");
        let cold = session(CacheMode::ReadWrite);
        assert_eq!(cold.result_cache().unwrap().mode, CacheMode::ReadWrite);
        let (_, stats) = cold.experiment("late_sender").run_with_stats().unwrap();
        assert_eq!((stats.cache_mode, stats.cache_misses), ("rw", 1));
        let (_, warm) = session(CacheMode::Read)
            .experiment("late_sender")
            .run_with_stats()
            .unwrap();
        assert_eq!((warm.cache_mode, warm.cache_hits), ("ro", 1));
    }
}

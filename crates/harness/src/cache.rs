//! Cache-key derivation and row replay for the incremental campaign
//! engine.
//!
//! The suite's runs are deterministic: a configuration's trace — and
//! therefore its analyzer report and [`ExperimentRow`] — is a pure
//! function of *what* is run (property + parameters + process count),
//! *how the simulated machine behaves* (machine model, seed, message
//! shape, init/finalize costs) and *how the result is
//! interpreted* (analyzer version + configuration). [`config_key`] hashes
//! exactly that set into an [`ats_store::CacheKey`]. The machine and the
//! interpretation are listed once, in [`execution_key_doc`], which the
//! campaign service's key documents build on too.
//!
//! A key document is `{"execution": .., "run": ..}`: the shared
//! execution half, and the engine's own run half (here schema, engine,
//! property, parameters, process count and seed). `execution` sorts
//! before `run`, so the canonical rendering is a prefix that only the
//! execution half sets, then the run half, then `}`. A [`KeyPrefix`]
//! renders that prefix once, so an engine that derives many keys under
//! one execution (a sweep, a server) renders and hashes only each run
//! half.
//!
//! Knobs that only change how fast a result is computed — `jobs`,
//! `trace_pool`, `obs` — are deliberately **excluded**, and so is the
//! scheduler's carrier, which the platform picks. No work mode is
//! listed: every cached run does virtual work (only E-over runs real
//! work, and it caches nothing). The engine's
//! determinism guarantee (rows byte-identical at any worker count, on
//! either carrier, pooled or not) is what makes replaying a cached row
//! provably equivalent to re-executing it.
//!
//! The full ingredients document is stored verbatim at the end of each
//! entry, so every cached artifact is self-describing.

use crate::experiment::ExperimentRow;
use crate::registry::RunOpts;
use ats_analyzer::AnalyzerConfig;
use ats_core::Error;
use ats_runtime::MachineModel;
use ats_store::{CacheKey, Json};

/// Schema tag of experiment-engine key-ingredient documents. Bump on any
/// change to the document layout itself.
pub const KEY_SCHEMA: &str = "ats-store-key/4";

/// Artifact name of the cached row document.
pub const ROW_FILE: &str = "row.json";
/// Artifact name of the cached analyzer report (byte-identity artifact).
pub const REPORT_FILE: &str = "report.json";
/// Artifact name of the cached binary trace.
pub const TRACE_FILE: &str = "trace.atsb";

/// The key ingredients every engine shares: how the simulated machine
/// behaves (machine model, message shape, init/finalize costs), how the
/// result is interpreted (analyzer version and configuration) and the
/// trace format. It is the `execution` half of every key document
/// ([`config_key_doc`], and the campaign service's scenario keys).
pub fn execution_key_doc(opts: &RunOpts, analyzer: &AnalyzerConfig) -> Json {
    Json::obj()
        .with("model", model_json(&opts.model))
        .with(
            "base",
            Json::obj()
                .with("dtype", format!("{:?}", opts.base.dtype))
                .with("count", opts.base.count),
        )
        .with("init_time_ns", opts.init_time.0)
        .with("finalize_time_ns", opts.finalize_time.0)
        .with(
            "analyzer",
            Json::obj()
                .with("version", ats_analyzer::ANALYSIS_VERSION)
                .with("threshold", analyzer.threshold)
                .with("report_setup_overhead", analyzer.report_setup_overhead),
        )
        .with("trace_format", "atsb")
}

/// The rendered start of every key document under one execution:
/// `{"execution":` + the canonical [`execution_key_doc`] + `,"run":`.
#[derive(Debug, Clone)]
pub struct KeyPrefix(String);

impl KeyPrefix {
    /// Render the execution half of `opts` and `analyzer` once.
    pub fn new(opts: &RunOpts, analyzer: &AnalyzerConfig) -> KeyPrefix {
        let mut text = String::from("{\"execution\":");
        execution_key_doc(opts, analyzer).render_into(&mut text);
        text.push_str(",\"run\":");
        KeyPrefix(text)
    }

    /// The key of the document `{"execution": .., "run": run}`: the
    /// canonical rendering's hash, without rendering the execution half.
    pub fn key(&self, run: &Json) -> CacheKey {
        let mut doc = String::with_capacity(self.0.len() + 256);
        doc.push_str(&self.0);
        run.render_into(&mut doc);
        doc.push('}');
        CacheKey::of_bytes(doc.as_bytes())
    }
}

/// The `run` half of an experiment configuration's key document.
pub(crate) fn config_run_doc(
    property: &str,
    params_cli: &str,
    nprocs: usize,
    opts: &RunOpts,
) -> Json {
    Json::obj()
        .with("schema", KEY_SCHEMA)
        .with("engine", "experiment")
        .with("property", property)
        .with("params", params_cli)
        .with("nprocs", nprocs)
        .with("seed", opts.seed)
}

/// The canonical key-ingredients document for one experiment
/// configuration. Everything that determines the result bytes is in
/// here; nothing that merely schedules the work is.
pub fn config_key_doc(
    property: &str,
    params_cli: &str,
    nprocs: usize,
    opts: &RunOpts,
    analyzer: &AnalyzerConfig,
) -> Json {
    Json::obj()
        .with("execution", execution_key_doc(opts, analyzer))
        .with("run", config_run_doc(property, params_cli, nprocs, opts))
}

/// The cache key for one experiment configuration: the hash of
/// [`config_key_doc`]'s canonical rendering. It renders the execution
/// half on every call; an engine that derives many keys holds a
/// [`KeyPrefix`] instead.
pub fn config_key(
    property: &str,
    params_cli: &str,
    nprocs: usize,
    opts: &RunOpts,
    analyzer: &AnalyzerConfig,
) -> CacheKey {
    KeyPrefix::new(opts, analyzer).key(&config_run_doc(property, params_cli, nprocs, opts))
}

/// Every [`MachineModel`] field, exactly (virtual durations in integer
/// nanoseconds).
fn model_json(m: &MachineModel) -> Json {
    Json::obj()
        .with("latency_ns", m.latency.0)
        .with("send_overhead_ns", m.send_overhead.0)
        .with("recv_overhead_ns", m.recv_overhead.0)
        .with("ns_per_byte", m.ns_per_byte)
        .with("eager_threshold", m.eager_threshold)
        .with("collective_stage_ns", m.collective_stage.0)
        .with("fork_overhead_ns", m.fork_overhead.0)
        .with("join_overhead_ns", m.join_overhead.0)
        .with("barrier_stage_ns", m.barrier_stage.0)
        .with("chunk_dispatch_ns", m.chunk_dispatch.0)
        .with("lock_overhead_ns", m.lock_overhead.0)
}

/// Render a row as the `row.json` artifact. Floats use the canonical
/// shortest-round-trip form, so [`row_from_json`] reconstructs the row
/// bit-exactly.
pub fn row_to_json(row: &ExperimentRow) -> Json {
    Json::obj()
        .with("property", row.property.as_str())
        .with("params", row.params.as_str())
        .with("nprocs", row.nprocs)
        .with("detected_severity", row.detected_severity)
        .with("detected_wait_secs", row.detected_wait_secs)
        .with("localized", row.localized)
        .with("unexpected_findings", row.unexpected_findings)
        .with("events", row.events)
}

/// Reconstruct a row from a cached `row.json` artifact.
pub fn row_from_json(doc: &Json) -> Result<ExperimentRow, Error> {
    let field = |name: &str| {
        doc.get(name)
            .ok_or_else(|| Error::store(format!("cached row missing `{name}`")))
    };
    let count = |name: &str| {
        field(name)?
            .as_u64()
            .map(|v| v as usize)
            .ok_or_else(|| Error::store(format!("cached row `{name}` is not a count")))
    };
    let float = |name: &str| {
        field(name)?
            .as_f64()
            .ok_or_else(|| Error::store(format!("cached row `{name}` is not a number")))
    };
    let string = |name: &str| {
        field(name)?
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| Error::store(format!("cached row `{name}` is not a string")))
    };
    Ok(ExperimentRow {
        property: string("property")?,
        params: string("params")?,
        nprocs: count("nprocs")?,
        detected_severity: float("detected_severity")?,
        detected_wait_secs: float("detected_wait_secs")?,
        localized: field("localized")?
            .as_bool()
            .ok_or_else(|| Error::store("cached row `localized` is not a bool"))?,
        unexpected_findings: count("unexpected_findings")?,
        events: count("events")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_key() -> CacheKey {
        config_key(
            "late_sender",
            "basework=0.01 extrawork=0.04 r=3",
            8,
            &RunOpts::default(),
            &AnalyzerConfig::default(),
        )
    }

    /// Every result-determining ingredient, flipped individually, must
    /// produce a distinct key.
    #[test]
    fn each_ingredient_flip_changes_the_key() {
        let opts = RunOpts::default();
        let analyzer = AnalyzerConfig::default();
        let base = base_key();
        let keys = [
            (
                "property",
                config_key(
                    "late_receiver",
                    "basework=0.01 extrawork=0.04 r=3",
                    8,
                    &opts,
                    &analyzer,
                ),
            ),
            (
                "params",
                config_key(
                    "late_sender",
                    "basework=0.01 extrawork=0.08 r=3",
                    8,
                    &opts,
                    &analyzer,
                ),
            ),
            (
                "nprocs",
                config_key(
                    "late_sender",
                    "basework=0.01 extrawork=0.04 r=3",
                    4,
                    &opts,
                    &analyzer,
                ),
            ),
            (
                "model",
                config_key(
                    "late_sender",
                    "basework=0.01 extrawork=0.04 r=3",
                    8,
                    &RunOpts {
                        model: MachineModel::default(),
                        ..RunOpts::default()
                    },
                    &analyzer,
                ),
            ),
            (
                "seed",
                config_key(
                    "late_sender",
                    "basework=0.01 extrawork=0.04 r=3",
                    8,
                    &{
                        let mut o = RunOpts::default();
                        o.seed ^= 1;
                        o
                    },
                    &analyzer,
                ),
            ),
            (
                "base_comm",
                config_key(
                    "late_sender",
                    "basework=0.01 extrawork=0.04 r=3",
                    8,
                    &{
                        let mut o = RunOpts::default();
                        o.base.count *= 2;
                        o
                    },
                    &analyzer,
                ),
            ),
            (
                "init_time",
                config_key(
                    "late_sender",
                    "basework=0.01 extrawork=0.04 r=3",
                    8,
                    &RunOpts::default().realistic(),
                    &analyzer,
                ),
            ),
            (
                "threshold",
                config_key(
                    "late_sender",
                    "basework=0.01 extrawork=0.04 r=3",
                    8,
                    &opts,
                    &{
                        let mut a = AnalyzerConfig::default();
                        a.threshold *= 2.0;
                        a
                    },
                ),
            ),
            (
                "report_setup_overhead",
                config_key(
                    "late_sender",
                    "basework=0.01 extrawork=0.04 r=3",
                    8,
                    &opts,
                    &AnalyzerConfig {
                        report_setup_overhead: true,
                        ..AnalyzerConfig::default()
                    },
                ),
            ),
        ];
        for (what, key) in &keys {
            assert_ne!(*key, base, "flipping {what} did not change the key");
        }
        // And all flips are mutually distinct (no accidental collisions).
        for (i, (wa, a)) in keys.iter().enumerate() {
            for (wb, b) in keys.iter().skip(i + 1) {
                assert_ne!(a, b, "{wa} and {wb} collide");
            }
        }
    }

    /// Execution-only knobs must NOT perturb the key: identical work at a
    /// different worker count / pool / obs replays from cache.
    #[test]
    fn scheduling_knobs_are_excluded_from_the_key() {
        let base = base_key();
        for opts in [
            RunOpts::default().jobs(7),
            RunOpts::default().trace_pool(ats_trace::TracePool::new()),
            RunOpts::default().obs(ats_obs::Handle::new()),
        ] {
            let key = config_key(
                "late_sender",
                "basework=0.01 extrawork=0.04 r=3",
                8,
                &opts,
                &AnalyzerConfig::default(),
            );
            assert_eq!(key, base, "a scheduling knob leaked into the key");
        }
    }

    #[test]
    fn key_docs_are_stable_across_rebuilds() {
        assert_eq!(base_key(), base_key());
        let doc = config_key_doc(
            "late_sender",
            "r=3",
            8,
            &RunOpts::default(),
            &AnalyzerConfig::default(),
        );
        let run = doc.get("run").expect("a run half");
        let execution = doc.get("execution").expect("an execution half");
        assert_eq!(doc.as_obj().map(|m| m.len()), Some(2));
        assert_eq!(run.get("schema").and_then(Json::as_str), Some(KEY_SCHEMA));
        assert_eq!(
            execution.get("trace_format").and_then(Json::as_str),
            Some("atsb")
        );
        for half in [run, execution] {
            assert!(half.get("jobs").is_none(), "jobs must not be an ingredient");
            assert!(
                half.get("backend").is_none(),
                "the carrier is no ingredient"
            );
        }
    }

    /// A key comes from the rendered prefix and the run half; the stored
    /// document renders whole. Both must hash the same bytes, for any
    /// parameter text, machine model and analyzer configuration.
    #[test]
    fn key_documents_hash_to_their_keys() {
        let hot = AnalyzerConfig {
            threshold: 0.0625,
            ..AnalyzerConfig::default()
        };
        for opts in [RunOpts::default(), RunOpts::default().realistic()] {
            for analyzer in [&AnalyzerConfig::default(), &hot] {
                for params in ["r=3", "a=\"q\" b=\\ c=\u{1}\t\u{7f}é", ""] {
                    let doc = config_key_doc("late_sender", params, 8, &opts, analyzer);
                    let key = config_key("late_sender", params, 8, &opts, analyzer);
                    assert_eq!(CacheKey::of_value(&doc), key, "{params:?}");
                    let run = config_run_doc("late_sender", params, 8, &opts);
                    assert_eq!(KeyPrefix::new(&opts, analyzer).key(&run), key);
                }
            }
        }
    }

    #[test]
    fn rows_round_trip_bit_exactly() {
        let row = ExperimentRow {
            property: "late_sender".into(),
            params: "basework=0.01 extrawork=0.04 r=3".into(),
            nprocs: 8,
            detected_severity: 1.0 / 3.0,
            detected_wait_secs: 0.123456789012345,
            localized: true,
            unexpected_findings: 0,
            events: 4242,
        };
        let text = row_to_json(&row).render();
        let back = row_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.property, row.property);
        assert_eq!(back.params, row.params);
        assert_eq!(back.nprocs, row.nprocs);
        assert_eq!(
            back.detected_severity.to_bits(),
            row.detected_severity.to_bits()
        );
        assert_eq!(
            back.detected_wait_secs.to_bits(),
            row.detected_wait_secs.to_bits()
        );
        assert_eq!(back.localized, row.localized);
        assert_eq!(back.unexpected_findings, row.unexpected_findings);
        assert_eq!(back.events, row.events);
        // Re-rendering the reconstruction reproduces the artifact bytes.
        assert_eq!(row_to_json(&back).render(), text);
    }

    #[test]
    fn malformed_row_documents_are_errors() {
        for bad in [
            Json::obj(),
            Json::obj().with("property", 3u64),
            row_to_json(&ExperimentRow {
                property: "p".into(),
                params: String::new(),
                nprocs: 1,
                detected_severity: 0.0,
                detected_wait_secs: 0.0,
                localized: false,
                unexpected_findings: 0,
                events: 0,
            })
            .with("nprocs", "eight"),
        ] {
            assert!(row_from_json(&bad).is_err());
        }
    }
}

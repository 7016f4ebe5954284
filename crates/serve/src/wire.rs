//! The service's JSON wire documents and cache-key derivation.
//!
//! Every serve body is canonical [`Json`] ([sorted keys, exact ints —
//! `ats_core::json`](ats_core::json)), so responses are byte-stable and
//! directly comparable to offline artifacts. Reports are **not** wrapped:
//! `/v1/analyze` returns the frozen `ats-report/1` bytes exactly as
//! [`ats_analyzer::ReportDoc::render`] produces them, which is what the
//! byte-identity gate in `ats bench serve` checks.

use ats_analyzer::AnalyzerConfig;
use ats_core::json::Json;
use ats_core::{Error, ErrorKind};
use ats_fuzz::Scenario;
use ats_harness::cache::{execution_key_doc, KeyPrefix};
use ats_harness::RunOpts;
use ats_store::CacheKey;

/// Schema tag of the version document (`GET /v1/version`).
pub const SERVE_SCHEMA: &str = "ats-serve/1";
/// Schema tag of one streamed campaign row.
pub const ROW_SCHEMA: &str = "ats-serve-row/1";
/// Schema tag of error bodies.
pub const ERROR_SCHEMA: &str = "ats-serve-error/1";
/// Schema tag of the service's cache-key ingredient documents.
pub const KEY_SCHEMA: &str = "ats-serve-key/4";

/// An error body: the stable `ats_core::ErrorKind` discriminant plus the
/// rendered message.
pub fn error_doc(kind: &str, message: &str) -> Json {
    Json::obj()
        .with("error", message)
        .with("kind", kind)
        .with("schema", ERROR_SCHEMA)
}

/// The error body for a suite [`Error`].
pub fn error_body(err: &Error) -> String {
    let mut s = error_doc(err.kind().as_str(), &err.to_string()).render();
    s.push('\n');
    s
}

/// Map a suite [`ErrorKind`] to the HTTP status the service answers with.
pub fn status_of(kind: ErrorKind) -> u16 {
    match kind {
        ErrorKind::Scenario
        | ErrorKind::InvalidParam
        | ErrorKind::UnknownProperty
        | ErrorKind::Report
        | ErrorKind::Request => 400,
        ErrorKind::Store => 500,
        _ => 500,
    }
}

/// The `run` half of a scenario's key document: the scenario's text
/// form, under the service's schema tag.
pub(crate) fn scenario_run_doc(sc: &Scenario) -> Json {
    Json::obj()
        .with("schema", KEY_SCHEMA)
        .with("engine", "serve")
        .with("scenario", sc.to_string())
}

/// The key-ingredients document for one scenario under one session
/// configuration: everything that determines the report bytes (scenario
/// text form, plus the execution model, analyzer version + config and
/// trace format of [`execution_key_doc`]), nothing that merely schedules
/// the work — the same contract and the same `{execution, run}` layout
/// as [`ats_harness::cache::config_key_doc`].
pub fn scenario_key_doc(sc: &Scenario, opts: &RunOpts, analyzer: &AnalyzerConfig) -> Json {
    Json::obj()
        .with("execution", execution_key_doc(opts, analyzer))
        .with("run", scenario_run_doc(sc))
}

/// The cache key for one scenario (see [`scenario_key_doc`]). It renders
/// the execution half on every call; the server holds a [`KeyPrefix`]
/// instead.
pub fn scenario_key(sc: &Scenario, opts: &RunOpts, analyzer: &AnalyzerConfig) -> CacheKey {
    KeyPrefix::new(opts, analyzer).key(&scenario_run_doc(sc))
}

/// One streamed campaign row (returned as a single JSONL line).
#[derive(Debug, Clone, PartialEq)]
pub struct RowDoc {
    /// The scenario, in compact text form.
    pub scenario: String,
    /// Hex cache key of the scenario's artifacts.
    pub key: String,
    /// Was this row replayed from the store?
    pub cached: bool,
    /// Number of findings in the report.
    pub findings: u64,
    /// Highest finding severity (0 when clean).
    pub max_severity: f64,
    /// Total waiting time across findings, integer nanoseconds.
    pub total_wait_ns: u64,
}

impl RowDoc {
    /// The canonical JSON value (schema tag included).
    pub fn to_value(&self) -> Json {
        Json::obj()
            .with("cached", self.cached)
            .with("findings", self.findings)
            .with("key", self.key.clone())
            .with("max_severity", self.max_severity)
            .with("scenario", self.scenario.clone())
            .with("schema", ROW_SCHEMA)
            .with("total_wait_ns", self.total_wait_ns)
    }

    /// One JSONL line (compact rendering + newline).
    pub fn to_line(&self) -> String {
        let mut s = self.to_value().render();
        s.push('\n');
        s
    }

    /// Parse a streamed line back (the client half).
    pub fn parse(line: &str) -> Result<RowDoc, Error> {
        let v = Json::parse(line.trim())
            .map_err(|e| Error::request(format!("invalid row JSON: {e}")))?;
        let schema = v.get("schema").and_then(Json::as_str).unwrap_or_default();
        if schema != ROW_SCHEMA {
            return Err(Error::request(format!(
                "unsupported row schema `{schema}` (expected `{ROW_SCHEMA}`)"
            )));
        }
        Ok(RowDoc {
            scenario: member(&v, "scenario", Json::as_str, "a string")?.to_owned(),
            key: member(&v, "key", Json::as_str, "a string")?.to_owned(),
            cached: member(&v, "cached", Json::as_bool, "a bool")?,
            findings: member(&v, "findings", Json::as_u64, "a count")?,
            max_severity: member(&v, "max_severity", Json::as_f64, "a number")?,
            total_wait_ns: member(&v, "total_wait_ns", Json::as_u64, "a count")?,
        })
    }
}

/// Member `name` of a row, read by `read`, or an error naming what it must be.
fn member<'v, T>(
    v: &'v Json,
    name: &str,
    read: impl Fn(&'v Json) -> Option<T>,
    must_be: &str,
) -> Result<T, Error> {
    let missing = || Error::request(format!("row missing `{name}`"));
    let m = v.get(name).ok_or_else(missing)?;
    read(m).ok_or_else(|| Error::request(format!("`{name}` must be {must_be}")))
}

/// The `GET /v1/version` document.
pub fn version_doc() -> Json {
    Json::obj()
        .with("analysis_version", ats_analyzer::ANALYSIS_VERSION)
        .with("report_schema", ats_analyzer::REPORT_SCHEMA)
        .with("row_schema", ROW_SCHEMA)
        .with("schema", SERVE_SCHEMA)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_scenario() -> Scenario {
        Scenario::parse_line("seed=0x2a nprocs=4 | whole g0:late_sender r=1").unwrap()
    }

    #[test]
    fn row_lines_round_trip() {
        let row = RowDoc {
            scenario: sample_scenario().to_string(),
            key: "ab".repeat(16),
            cached: true,
            findings: 2,
            max_severity: 0.25,
            total_wait_ns: 123_456_789,
        };
        let line = row.to_line();
        assert!(line.ends_with('\n'));
        let back = RowDoc::parse(&line).unwrap();
        assert_eq!(back, row);
        assert_eq!(back.to_line(), line);
        assert!(RowDoc::parse("{\"schema\":\"nope/9\"}").is_err());
    }

    #[test]
    fn scenario_keys_separate_results_not_scheduling() {
        let sc = sample_scenario();
        let opts = RunOpts::default();
        let analyzer = AnalyzerConfig::default();
        let base = scenario_key(&sc, &opts, &analyzer);
        // Result-determining flips change the key…
        let mut other = sc.clone();
        other.seed ^= 1;
        assert_ne!(scenario_key(&other, &opts, &analyzer), base);
        let mut hot = analyzer.clone();
        hot.threshold *= 2.0;
        assert_ne!(scenario_key(&sc, &opts, &hot), base);
        // …scheduling knobs do not.
        assert_eq!(
            scenario_key(&sc, &RunOpts::default().jobs(9), &analyzer),
            base
        );
        let doc = scenario_key_doc(&sc, &opts, &analyzer);
        let run = doc.get("run").expect("a run half");
        assert_eq!(run.get("schema").and_then(Json::as_str), Some(KEY_SCHEMA));
    }

    /// The server keys a scenario through its rendered prefix, and a miss
    /// stores [`scenario_key_doc`]: both must hash the same bytes.
    #[test]
    fn scenario_key_documents_hash_to_their_keys() {
        let mut odd = sample_scenario();
        let params = &mut odd.slots[0].phases[0].params;
        params.insert("note".into(), "\"q\" \\ \u{1}\n".into());
        let hot = AnalyzerConfig {
            threshold: 0.0625,
            ..AnalyzerConfig::default()
        };
        for opts in [RunOpts::default(), RunOpts::default().realistic()] {
            for analyzer in [&AnalyzerConfig::default(), &hot] {
                for sc in [&sample_scenario(), &odd] {
                    let key = scenario_key(sc, &opts, analyzer);
                    let doc = scenario_key_doc(sc, &opts, analyzer);
                    assert_eq!(CacheKey::of_value(&doc), key, "{sc}");
                    let prefix = KeyPrefix::new(&opts, analyzer);
                    assert_eq!(prefix.key(&scenario_run_doc(sc)), key);
                }
            }
        }
    }

    /// The service and the experiment engine describe one execution with
    /// the same ingredients, and neither names the scheduler's carrier or
    /// a work mode.
    #[test]
    fn key_documents_share_the_execution_model() {
        let opts = RunOpts::default().realistic();
        let analyzer = AnalyzerConfig::default();
        let serve = scenario_key_doc(&sample_scenario(), &opts, &analyzer);
        let experiment =
            ats_harness::cache::config_key_doc("late_sender", "r=3", 8, &opts, &analyzer);
        let execution = serve.get("execution").expect("an execution half");
        for field in [
            "model",
            "base",
            "init_time_ns",
            "finalize_time_ns",
            "analyzer",
            "trace_format",
        ] {
            assert!(execution.get(field).is_some(), "{field}");
        }
        assert_eq!(Some(execution), experiment.get("execution"));
        for half in [execution, serve.get("run").expect("a run half")] {
            assert!(half.get("work_mode").is_none());
            assert!(half.get("backend").is_none());
        }
    }

    #[test]
    fn error_bodies_carry_the_discriminant() {
        let err = Error::scenario("bad spec");
        assert_eq!(status_of(err.kind()), 400);
        let body = error_body(&err);
        let v = Json::parse(body.trim()).unwrap();
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("scenario"));
        assert_eq!(v.get("schema").and_then(Json::as_str), Some(ERROR_SCHEMA));
    }
}

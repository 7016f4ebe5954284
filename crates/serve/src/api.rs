//! Route dispatch: the public endpoint surface over [`Session`].
//!
//! | Route | Semantics |
//! |---|---|
//! | `POST /v1/analyze` | one scenario text line in, `ats-report/1` bytes out (read-through cached) |
//! | `POST /v1/campaign` | one scenario text line per spec in, streamed `ats-serve-row/1` JSONL out |
//! | `GET /v1/artifacts/{key}/{file}` | raw cached artifact (`row.json`, `report.json`, `trace.atsb`) |
//! | `GET /metrics` | Prometheus text exposition of the session registry |
//! | `GET /v1/version` | schema + analysis version document |
//! | `GET /healthz` | liveness |
//!
//! Error bodies are `ats-serve-error/1` documents carrying the stable
//! [`ats_core::ErrorKind`] discriminant; the status is
//! [`crate::wire::status_of`] (malformed spec → 400, unknown key → 404,
//! over budget → 429).

use crate::http::{self, Request};
use crate::tenant::{TenantGov, DEFAULT_TENANT};
use crate::wire::{self, RowDoc};
use ats_analyzer::ReportDoc;
use ats_core::Error;
use ats_fuzz::{oracle, Scenario};
use ats_harness::cache::{REPORT_FILE, TRACE_FILE};
use ats_harness::pool::run_indexed;
use ats_harness::Session;
use ats_store::CacheKey;
use std::io::{self, Write};

/// Scenarios per pool batch when streaming a campaign: rows are written
/// as each batch completes.
const CAMPAIGN_CHUNK: usize = 32;

/// Everything a request handler needs, shared across workers.
#[derive(Debug, Clone)]
pub struct AppState {
    /// The session every run executes under.
    pub session: Session,
    /// Per-tenant budgets.
    pub gov: TenantGov,
}

impl AppState {
    fn obs(&self) -> Option<&ats_obs::Handle> {
        self.session.obs()
    }
}

/// Handle one parsed request: write exactly one response to `stream`,
/// return whether the connection may be kept alive.
pub fn handle(state: &AppState, req: &Request, stream: &mut impl Write) -> io::Result<bool> {
    let mut reply = Reply {
        state,
        stream,
        keep: !req.wants_close(),
    };
    let tenant = req.header("x-ats-tenant").unwrap_or(DEFAULT_TENANT);
    let json = "application/json";
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => reply.send(200, "text/plain", &[], b"ok\n"),
        ("GET", "/v1/version") => {
            let body = wire::version_doc().render_pretty();
            reply.send(200, json, &[], body.as_bytes())
        }
        ("GET", "/metrics") => match state.session.prometheus() {
            Some(text) => reply.send(200, "text/plain; version=0.0.4", &[], text.as_bytes()),
            None => reply.error(
                404,
                &Error::request("observability is disabled in this session"),
            ),
        },
        ("POST", "/v1/analyze") => {
            let Some(_permit) = state.gov.admit(tenant) else {
                return reply.over_budget(tenant);
            };
            match analyze(state, req) {
                Ok(out) => {
                    let cache_state = if out.cached { "hit" } else { "miss" };
                    let hex = out.key.hex();
                    let extra = [("x-ats-key", hex.as_str()), ("x-ats-cache", cache_state)];
                    reply.send(200, json, &extra, &out.report)
                }
                Err(e) => reply.fail(&e),
            }
        }
        ("POST", "/v1/campaign") => {
            let Some(_permit) = state.gov.admit(tenant) else {
                return reply.over_budget(tenant);
            };
            campaign(req, reply)
        }
        ("GET", path) if path.starts_with("/v1/artifacts/") => match artifact(state, path) {
            Ok((content_type, bytes)) => reply.send(200, content_type, &[], &bytes),
            Err((status, e)) => reply.error(status, &e),
        },
        (_, "/healthz" | "/v1/version" | "/metrics" | "/v1/analyze" | "/v1/campaign") => {
            let e = Error::request(format!("method {} not allowed here", req.method));
            reply.error(405, &e)
        }
        (_, path) => reply.error(404, &Error::request(format!("no route `{path}`"))),
    }
}

/// Write an `ats-serve-error/1` body with `status`.
pub fn error_response(
    state: &AppState,
    stream: &mut impl Write,
    status: u16,
    err: &Error,
    keep: bool,
) -> io::Result<bool> {
    Reply {
        state,
        stream,
        keep,
    }
    .error(status, err)
}

/// Where one request's response goes: its stream, counted in the
/// session's registry, and whether the connection stays open after it.
struct Reply<'a, W> {
    state: &'a AppState,
    stream: &'a mut W,
    keep: bool,
}

impl<W: Write> Reply<'_, W> {
    /// Write a complete sized response.
    fn send(
        &mut self,
        status: u16,
        content_type: &str,
        extra: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<bool> {
        if let Some(h) = self.state.obs() {
            if status >= 400 {
                h.serve.errors.inc();
            }
            h.serve.bytes_out.add(body.len() as u64);
        }
        http::write_response(self.stream, status, content_type, extra, body, self.keep)?;
        Ok(self.keep)
    }

    /// Write an `ats-serve-error/1` body with `status`.
    fn error(&mut self, status: u16, err: &Error) -> io::Result<bool> {
        let body = wire::error_body(err);
        self.send(status, "application/json", &[], body.as_bytes())
    }

    /// An error body with the status of `err`'s kind.
    fn fail(&mut self, err: &Error) -> io::Result<bool> {
        self.error(wire::status_of(err.kind()), err)
    }

    /// A 429 for a tenant over its in-flight budget; the connection stays.
    fn over_budget(&mut self, tenant: &str) -> io::Result<bool> {
        let e = Error::request(format!("tenant `{tenant}` is over its concurrency budget"));
        self.error(429, &e)
    }
}

struct AnalyzeOut {
    key: CacheKey,
    cached: bool,
    report: Vec<u8>,
}

/// Run (or replay) one scenario, returning the frozen `ats-report/1`
/// bytes. Read-through: a hit reads, verifies and returns only the
/// stored `report.json`, verbatim; a miss executes, analyzes, and
/// publishes report + ATSB trace (the report first, where a hit's one
/// read of the entry's header finds it). Each handler has validated `sc`
/// already.
fn run_scenario(state: &AppState, sc: &Scenario) -> Result<AnalyzeOut, Error> {
    let opts = state.session.opts();
    let key = state.session.key_prefix().key(&wire::scenario_run_doc(sc));
    if let Some(cache) = state.session.result_cache() {
        if let Some(entry) = cache.lookup_file(&key, REPORT_FILE)? {
            if let Some(bytes) = entry.file(REPORT_FILE) {
                return Ok(AnalyzeOut {
                    key,
                    cached: true,
                    report: bytes.to_vec(),
                });
            }
        }
    }
    let trace = oracle::execute(sc, opts)?;
    let report = state.session.analyze(&trace).to_json().into_bytes();
    if let Some(cache) = state.session.result_cache() {
        let mut atsb = Vec::new();
        ats_trace::binfmt::write_binary(&trace, &mut atsb).map_err(Error::from)?;
        if let Some(obs) = state.session.obs() {
            obs.trace.binary_bytes_encoded.add(atsb.len() as u64);
        }
        let ingredients = wire::scenario_key_doc(sc, opts, state.session.analyzer_config());
        cache.publish(
            &key,
            &ingredients,
            &[(REPORT_FILE, &report), (TRACE_FILE, &atsb)],
        )?;
    }
    Ok(AnalyzeOut {
        key,
        cached: false,
        report,
    })
}

fn analyze(state: &AppState, req: &Request) -> Result<AnalyzeOut, Error> {
    let spec = std::str::from_utf8(&req.body)
        .map_err(|_| Error::scenario("spec body is not UTF-8"))?
        .trim();
    if spec.is_empty() {
        return Err(Error::scenario("empty scenario spec"));
    }
    let sc = Scenario::parse_line(spec)?;
    sc.validate()?;
    run_scenario(state, &sc)
}

/// Stream a campaign: validate every spec line up front (any malformed
/// line fails the whole request with 400 before the stream starts), then
/// execute in pool-parallel batches, writing one `ats-serve-row/1` JSONL
/// line per scenario in input order as each batch completes.
fn campaign(req: &Request, mut reply: Reply<'_, impl Write>) -> io::Result<bool> {
    let state = reply.state;
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return reply.fail(&Error::scenario("campaign body is not UTF-8"));
    };
    let mut scenarios = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Scenario::parse_line(line).and_then(|sc| sc.validate().map(|()| sc)) {
            Ok(sc) => scenarios.push(sc),
            Err(e) => {
                return reply.fail(&Error::scenario(format!("line {}: {e}", i + 1)));
            }
        }
    }
    if scenarios.is_empty() {
        return reply.fail(&Error::scenario("campaign has no scenarios"));
    }

    let count = scenarios.len().to_string();
    let (stream, keep) = (reply.stream, reply.keep);
    let extra = [("x-ats-count", count.as_str())];
    http::start_chunked(stream, 200, "application/jsonl", &extra, keep)?;
    let max_nprocs = scenarios.iter().map(|s| s.nprocs).max().unwrap_or(1);
    let jobs = state
        .gov
        .campaign_jobs(state.session.opts().jobs, max_nprocs);
    for chunk in scenarios.chunks(CAMPAIGN_CHUNK) {
        let results = run_indexed(jobs.min(chunk.len()).max(1), chunk.len(), |i| {
            run_scenario(state, &chunk[i])
        });
        for (sc, result) in chunk.iter().zip(results) {
            let line = match result.and_then(|out| row_of(sc, &out)) {
                Ok(row) => row.to_line(),
                Err(e) => {
                    let mut l = wire::error_doc(e.kind().as_str(), &e.to_string()).render();
                    l.push('\n');
                    l
                }
            };
            if let Some(h) = state.obs() {
                h.serve.rows_streamed.inc();
                h.serve.bytes_out.add(line.len() as u64);
            }
            http::write_chunk(stream, line.as_bytes())?;
        }
    }
    http::finish_chunked(stream)?;
    Ok(keep)
}

/// Summarize a finished scenario as a streamed row. The summary is read
/// back out of the frozen report bytes — the one report definition is the
/// only parser involved.
fn row_of(sc: &Scenario, out: &AnalyzeOut) -> Result<RowDoc, Error> {
    let text = std::str::from_utf8(&out.report)
        .map_err(|_| Error::report("cached report is not UTF-8"))?;
    let doc = ReportDoc::parse(text)?;
    Ok(RowDoc {
        scenario: sc.to_string(),
        key: out.key.hex(),
        cached: out.cached,
        findings: doc.findings.len() as u64,
        max_severity: doc.findings.iter().map(|f| f.severity).fold(0.0, f64::max),
        total_wait_ns: doc.total_wait().as_nanos(),
    })
}

/// `GET /v1/artifacts/{hex-key}/{file}` → verbatim artifact bytes.
fn artifact(state: &AppState, path: &str) -> Result<(&'static str, Vec<u8>), (u16, Error)> {
    let rest = path.strip_prefix("/v1/artifacts/").unwrap_or_default();
    let Some((hex, file)) = rest.split_once('/') else {
        return Err((
            400,
            Error::request("artifact path must be /v1/artifacts/{key}/{file}"),
        ));
    };
    let Some(key) = CacheKey::from_hex(hex) else {
        return Err((400, Error::request(format!("malformed cache key `{hex}`"))));
    };
    let Some(cache) = state.session.result_cache() else {
        return Err((404, Error::request("this session has no artifact store")));
    };
    let entry = cache
        .store
        .get_file(&key, file)
        .map_err(|e| (500, e))?
        .ok_or_else(|| (404, Error::request(format!("unknown cache key `{hex}`"))))?;
    let bytes = entry
        .file(file)
        .ok_or_else(|| {
            (
                404,
                Error::request(format!("entry has no artifact `{file}`")),
            )
        })?
        .to_vec();
    let content_type = if file.ends_with(".json") {
        "application/json"
    } else if file.ends_with(".atsb") {
        "application/octet-stream"
    } else {
        "text/plain"
    };
    Ok((content_type, bytes))
}

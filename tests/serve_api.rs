//! Integration tests for the `ats-serve` public API surface.
//!
//! Each test boots a real server on a loopback port with its own
//! temporary artifact store and talks to it through the typed
//! [`Client`] — the same path `curl` and the load driver take. Covered:
//! the frozen `ats-report/1` byte contract, cache read-through headers,
//! error discriminants (400/404/405/429), campaign streaming, artifact
//! fetches, Prometheus exposition and graceful drain.

use ats::harness::Session;
use ats::obs::ObsConfig;
use ats::serve::{start, Client, ServeConfig, ServerHandle};
use ats::store::CacheMode;
use ats_testutil::TempDir;

const SPEC: &str = "seed=7 nprocs=2 | whole g0:late_sender r=1";
const SPEC2: &str = "seed=8 nprocs=2 | whole g0:late_sender r=1";
/// `SPEC` in the JSON object layout, which is not a scenario wire form.
const SPEC_JSON: &str = r#"{"nprocs":2,"seed":7,"slots":[{"phases":[{"group":0,"params":{"r":"1"},"property":"late_sender"}],"split":"whole"}]}"#;

fn boot(dir: &TempDir, config: ServeConfig) -> ServerHandle {
    let session = Session::builder()
        .obs(ObsConfig::fresh())
        .cache(CacheMode::ReadWrite)
        .cache_dir(dir.path())
        .build();
    start(session, config).expect("server starts")
}

fn default_boot(dir: &TempDir) -> ServerHandle {
    boot(dir, ServeConfig::default())
}

/// The offline bytes the service must reproduce for `spec`.
fn offline_report(spec: &str) -> Vec<u8> {
    let session = Session::builder().build();
    let sc = spec.parse::<ats::fuzz::Scenario>().expect("spec parses");
    let trace = ats::fuzz::oracle::execute(&sc, session.opts()).expect("spec runs");
    session.analyze(&trace).to_json().into_bytes()
}

#[test]
fn analyze_returns_frozen_report_bytes_with_cache_headers() {
    let dir = TempDir::new("serve-analyze");
    let server = default_boot(&dir);
    let mut client = Client::new(server.addr());

    let first = client.analyze(SPEC).expect("analyze");
    assert!(!first.cached, "fresh store must miss");
    assert_eq!(first.key.len(), 32, "hex cache key: {}", first.key);
    assert_eq!(
        first.report,
        offline_report(SPEC),
        "served bytes must equal offline Report::to_json"
    );

    let second = client.analyze(SPEC).expect("replay");
    assert!(second.cached, "second request must hit the store");
    assert_eq!(second.key, first.key);
    assert_eq!(second.report, first.report, "hit replays identical bytes");
    server.shutdown();
}

#[test]
fn malformed_specs_are_400_with_the_error_discriminant() {
    let dir = TempDir::new("serve-badspec");
    let server = default_boot(&dir);
    let mut client = Client::new(server.addr());

    for body in ["{not json", "", "seed=1 nprocs=0 |", SPEC_JSON] {
        let resp = client
            .request("POST", "/v1/analyze", Some("text/plain"), body.as_bytes())
            .expect("transport ok");
        assert_eq!(resp.status, 400, "{body:?} -> {}", resp.text());
        let doc = ats::core::json::Json::parse(resp.text().trim()).expect("error body is JSON");
        assert_eq!(
            doc.get("kind").and_then(ats::core::json::Json::as_str),
            Some("scenario"),
            "discriminant for {body:?}"
        );
        assert_eq!(
            doc.get("schema").and_then(ats::core::json::Json::as_str),
            Some("ats-serve-error/1")
        );
    }
    server.shutdown();
}

/// A body nested 100,000 levels deep is a scenario error, not a stack
/// overflow that takes the whole server down.
#[test]
fn a_deeply_nested_body_is_a_400_and_the_server_keeps_answering() {
    let dir = TempDir::new("serve-deep");
    let server = default_boot(&dir);
    let mut client = Client::new(server.addr());

    let body = format!("{{\"seed\":{}", "[".repeat(100_000));
    assert_eq!(body.len(), 100_008);
    let resp = client
        .request("POST", "/v1/analyze", Some("text/plain"), body.as_bytes())
        .expect("transport ok");
    assert_eq!(resp.status, 400, "{}", resp.text());
    // The error quotes a bounded prefix of the offending token.
    assert!(
        resp.body.len() < 1024,
        "{}-byte error body",
        resp.body.len()
    );
    let doc = ats::core::json::Json::parse(resp.text().trim()).expect("error body is JSON");
    assert_eq!(
        doc.get("kind").and_then(ats::core::json::Json::as_str),
        Some("scenario")
    );

    let ok = client.analyze(SPEC).expect("the server still answers");
    assert_eq!(ok.report, offline_report(SPEC));
    server.shutdown();
}

/// A phase outside its declared ranges, or a world wider than the suite
/// simulates, is a 400 before anything runs. A team of zero threads used
/// to panic the worker that ran it, so a one-worker server must still
/// answer the next request.
/// A request the server cannot frame gets a 400 that quotes at most 64
/// bytes of it: a 10,000-byte header line without a colon is not echoed
/// whole.
#[test]
fn a_long_malformed_header_gets_a_short_400() {
    use std::io::{Read, Write};
    let dir = TempDir::new("serve-long-header");
    let server = default_boot(&dir);
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut request = b"GET /healthz HTTP/1.1\r\n".to_vec();
    request.resize(request.len() + 10_000, b'a');
    request.extend_from_slice(b"\r\n\r\n");
    stream.write_all(&request).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 400 "), "{head}");
    assert!(body.len() < 200, "{}-byte body", body.len());
    assert!(body.contains("malformed header `aaaa"), "{body}");
    Client::new(server.addr())
        .healthz()
        .expect("the server keeps answering");
    server.shutdown();
}

#[test]
fn out_of_range_scenarios_are_400_and_the_worker_survives() {
    let dir = TempDir::new("serve-range");
    let server = boot(
        &dir,
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let mut client = Client::new(server.addr());
    for (body, needle) in [
        (
            "seed=7 nprocs=2 | whole g0:imbalance_at_omp_barrier nthreads=0",
            "[1, 16]",
        ),
        (
            "seed=7 nprocs=1000000000 | whole g0:late_sender r=1",
            "8192",
        ),
    ] {
        let resp = client
            .request("POST", "/v1/analyze", Some("text/plain"), body.as_bytes())
            .expect("transport ok");
        assert_eq!(resp.status, 400, "{body:?} -> {}", resp.text());
        let doc = ats::core::json::Json::parse(resp.text().trim()).expect("error body is JSON");
        assert_eq!(
            doc.get("kind").and_then(ats::core::json::Json::as_str),
            Some("scenario"),
            "{body:?}"
        );
        assert!(resp.text().contains(needle), "{body:?} -> {}", resp.text());
    }
    let ok = client.analyze(SPEC).expect("the one worker still answers");
    assert_eq!(ok.report, offline_report(SPEC));
    server.shutdown();
}

#[test]
fn artifacts_are_fetchable_by_key_and_unknown_keys_are_404() {
    let dir = TempDir::new("serve-artifacts");
    let server = default_boot(&dir);
    let mut client = Client::new(server.addr());

    let out = client.analyze(SPEC).expect("analyze");
    let report = client
        .artifact(&out.key, "report.json")
        .expect("stored report");
    assert_eq!(report, out.report, "artifact bytes equal the served body");
    let trace = client
        .artifact(&out.key, "trace.atsb")
        .expect("stored trace");
    assert!(!trace.is_empty(), "ATSB trace is published on miss");

    // Unknown (but well-formed) key -> 404 with the request discriminant.
    let resp = client
        .request(
            "GET",
            &format!("/v1/artifacts/{}/report.json", "0".repeat(32)),
            None,
            b"",
        )
        .expect("transport ok");
    assert_eq!(resp.status, 404, "{}", resp.text());
    assert!(
        resp.text().contains("\"kind\": \"request\"")
            || resp.text().contains("\"kind\":\"request\"")
    );

    // Malformed key -> 400; missing file -> 404.
    let resp = client
        .request("GET", "/v1/artifacts/nothex/report.json", None, b"")
        .expect("transport ok");
    assert_eq!(resp.status, 400);
    let resp = client
        .request(
            "GET",
            &format!("/v1/artifacts/{}/nope.bin", out.key),
            None,
            b"",
        )
        .expect("transport ok");
    assert_eq!(resp.status, 404);
    server.shutdown();
}

/// A key has one spelling in a URL: the lowercase hex the service
/// returns. Any other spelling of a stored key is malformed, not a hit.
#[test]
fn artifact_keys_are_spelled_only_in_lowercase() {
    let dir = TempDir::new("serve-key-spelling");
    let server = default_boot(&dir);
    let mut client = Client::new(server.addr());
    let out = client.analyze(SPEC).expect("analyze");
    assert!(
        out.key.bytes().any(|b| b.is_ascii_lowercase()),
        "{}",
        out.key
    );
    for key in [out.key.to_uppercase(), format!("+{}", &out.key[1..])] {
        let resp = client
            .request(
                "GET",
                &format!("/v1/artifacts/{key}/report.json"),
                None,
                b"",
            )
            .expect("transport ok");
        assert_eq!(resp.status, 400, "{key}: {}", resp.text());
        assert!(
            resp.text().contains("malformed cache key"),
            "{}",
            resp.text()
        );
    }
    server.shutdown();
}

#[test]
fn full_admission_queue_sheds_new_connections_with_429() {
    let dir = TempDir::new("serve-shed");
    let server = boot(
        &dir,
        ServeConfig {
            max_conns: 1,
            ..ServeConfig::default()
        },
    );
    // Occupy the only slot with a keep-alive connection.
    let mut holder = Client::new(server.addr());
    holder.healthz().expect("first connection admitted");
    assert_eq!(server.live_connections(), 1);

    let mut second = Client::new(server.addr());
    let resp = second
        .request("GET", "/healthz", None, b"")
        .expect("shed response is still a well-formed HTTP exchange");
    assert_eq!(resp.status, 429, "{}", resp.text());
    assert!(resp.text().contains("capacity"), "{}", resp.text());

    // The holder's connection still works afterwards.
    holder
        .healthz()
        .expect("admitted connection survives the shed");
    server.shutdown();
}

#[test]
fn campaigns_stream_rows_in_input_order() {
    let dir = TempDir::new("serve-campaign");
    let server = default_boot(&dir);
    let mut client = Client::new(server.addr());

    let body = format!("{SPEC}\n{SPEC2}\n");
    let rows = client.campaign(&body).expect("campaign streams");
    assert_eq!(rows.len(), 2);
    let rows: Vec<_> = rows.into_iter().map(|r| r.expect("row ok")).collect();
    assert_eq!(
        rows[0].scenario,
        SPEC.parse::<ats::fuzz::Scenario>().unwrap().to_string()
    );
    assert_eq!(
        rows[1].scenario,
        SPEC2.parse::<ats::fuzz::Scenario>().unwrap().to_string()
    );
    assert!(
        rows.iter().all(|r| r.findings >= 1),
        "late_sender must be found"
    );

    // A second pass replays every row from the store.
    let rows = client.campaign(&body).expect("warm campaign");
    for row in rows {
        assert!(row.expect("row ok").cached, "warm campaign rows replay");
    }
    server.shutdown();
}

#[test]
fn campaign_with_a_bad_line_fails_whole_request_naming_the_line() {
    let dir = TempDir::new("serve-campaign-bad");
    let server = default_boot(&dir);
    let mut client = Client::new(server.addr());

    for bad in ["{broken", SPEC_JSON] {
        let body = format!("{SPEC}\n{bad}\n");
        let resp = client
            .request("POST", "/v1/campaign", Some("text/plain"), body.as_bytes())
            .expect("transport ok");
        assert_eq!(resp.status, 400, "{bad}: {}", resp.text());
        assert!(resp.text().contains("line 2"), "{bad}: {}", resp.text());
    }
    server.shutdown();
}

#[test]
fn metrics_version_and_unknown_routes_behave() {
    let dir = TempDir::new("serve-meta");
    let server = default_boot(&dir);
    let mut client = Client::new(server.addr());

    client.healthz().expect("healthz");
    let version = client.version().expect("version doc");
    assert_eq!(
        version
            .get("schema")
            .and_then(ats::core::json::Json::as_str),
        Some("ats-serve/1")
    );
    assert_eq!(
        version
            .get("report_schema")
            .and_then(ats::core::json::Json::as_str),
        Some("ats-report/1")
    );

    let _ = client.analyze(SPEC).expect("analyze once for the counters");
    let metrics = client.metrics().expect("prometheus text");
    assert!(metrics.contains("ats_serve_requests_total"), "{metrics}");
    assert!(metrics.contains("ats_serve_connections"), "{metrics}");

    let resp = client
        .request("GET", "/nope", None, b"")
        .expect("transport ok");
    assert_eq!(resp.status, 404);
    let resp = client
        .request("GET", "/v1/analyze", None, b"")
        .expect("transport ok");
    assert_eq!(resp.status, 405, "wrong method is 405, not 404");
    server.shutdown();
}

#[test]
fn shutdown_drains_and_stops_accepting() {
    let dir = TempDir::new("serve-drain");
    let server = default_boot(&dir);
    let addr = server.addr();
    let mut client = Client::new(addr);
    client.analyze(SPEC).expect("request before drain");

    server.shutdown();
    // The port no longer accepts work: either the connect itself fails or
    // the socket is closed without an HTTP response.
    let after = Client::new(addr).request("GET", "/healthz", None, b"");
    assert!(after.is_err(), "server must be gone after shutdown");
}

//! A typed blocking client for the service.
//!
//! One [`Client`] owns one keep-alive connection and retries a request
//! exactly once on a stale-connection failure (the server may have
//! closed an idle keep-alive socket between requests — the failure mode
//! every HTTP client must absorb). Both the replay load driver
//! (`ats bench serve`) and the integration tests speak to the server
//! through this type, so the client-visible contract is tested, not just the
//! server's framing.

use crate::http::{self, HttpError};
use crate::wire::RowDoc;
use ats_core::json::Json;
use ats_core::Error;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A decoded HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes (chunked transfer already decoded).
    pub body: Vec<u8>,
}

impl Response {
    /// First value of header `name` (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        http::header(&self.headers, name)
    }

    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// The result of `POST /v1/analyze`.
#[derive(Debug, Clone)]
pub struct AnalyzeResult {
    /// Hex cache key (the `x-ats-key` header).
    pub key: String,
    /// Whether the report was replayed from the store.
    pub cached: bool,
    /// Verbatim `ats-report/1` bytes.
    pub report: Vec<u8>,
}

/// A blocking keep-alive client for one server address.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    tenant: Option<String>,
    timeout: Duration,
    stream: Option<TcpStream>,
    leftover: Vec<u8>,
}

impl Client {
    /// A client for the server at `addr`.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            tenant: None,
            timeout: Duration::from_secs(30),
            stream: None,
            leftover: Vec::new(),
        }
    }

    /// Send an `X-Ats-Tenant` header on every request.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Client {
        self.tenant = Some(tenant.into());
        self
    }

    /// Socket read/write timeout (default 30 s).
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    /// Drop the connection: the next request opens a new one.
    fn disconnect(&mut self) {
        self.stream = None;
        self.leftover.clear();
    }

    /// Issue one request and decode the response. Reconnects and retries
    /// once if a reused keep-alive connection turns out to be stale.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) -> Result<Response, Error> {
        let reused = self.stream.is_some();
        let exchange = |client: &mut Client| {
            client.start(method, path, content_type, body)?;
            client.finish()
        };
        match exchange(self) {
            // Stale keep-alive connection: retry on a fresh one.
            Err(_) if reused => exchange(self),
            done => done,
        }
    }

    /// Write one request without reading its response. The load driver's
    /// barrier round uses this: every client writes, all synchronize
    /// (the requests are now provably in flight together), then all call
    /// [`Client::finish`]. No stale-connection retry.
    pub fn start(
        &mut self,
        method: &str,
        path: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) -> Result<(), Error> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr).and_then(|s| {
                s.set_nodelay(true).ok();
                s.set_read_timeout(Some(self.timeout))?;
                s.set_write_timeout(Some(self.timeout))?;
                Ok(s)
            });
            let stream = stream.map_err(|e| Error::request(format!("connect {}: {e}", self.addr)));
            self.stream = Some(stream?);
        }
        let extra = content_type
            .map(|ct| ("content-type", ct))
            .into_iter()
            .chain(self.tenant.as_deref().map(|t| ("x-ats-tenant", t)));
        let stream = self.stream.as_mut().expect("connected");
        http::write_request(stream, method, path, self.addr, extra, body).map_err(|e| {
            self.disconnect();
            Error::request(format!("{method} {path}: {e}"))
        })
    }

    /// Read the response to a request written with [`Client::start`];
    /// drop the connection after a failure, or when the server closes it.
    pub fn finish(&mut self) -> Result<Response, Error> {
        let in_flight = self.stream.as_mut();
        let stream = in_flight.ok_or_else(|| Error::request("no request in flight"))?;
        let resp = http::read_response(stream, &mut self.leftover);
        let keep = resp.as_ref().is_ok_and(|r| !http::wants_close(&r.headers));
        if !keep {
            self.disconnect();
        }
        resp.map_err(|e| {
            let why = match e {
                HttpError::Eof => "connection closed".to_owned(),
                HttpError::BadRequest(msg) | HttpError::TooLarge(msg) => msg,
                HttpError::Timeout => "timed out".to_owned(),
                HttpError::Io(e) => e.to_string(),
            };
            Error::request(format!("read response: {why}"))
        })
    }

    /// `GET /healthz`, expecting 200.
    pub fn healthz(&mut self) -> Result<(), Error> {
        let resp = self.request("GET", "/healthz", None, b"")?;
        expect_status(&resp, 200).map(|_| ())
    }

    /// `GET /v1/version` as parsed JSON.
    pub fn version(&mut self) -> Result<Json, Error> {
        let resp = self.request("GET", "/v1/version", None, b"")?;
        let resp = expect_status(resp, 200)?;
        Json::parse(resp.text().trim())
            .map_err(|e| Error::request(format!("invalid version body: {e}")))
    }

    /// `GET /metrics` Prometheus text.
    pub fn metrics(&mut self) -> Result<String, Error> {
        let resp = self.request("GET", "/metrics", None, b"")?;
        Ok(expect_status(resp, 200)?.text())
    }

    /// `POST /v1/analyze` with one scenario spec line.
    pub fn analyze(&mut self, spec: &str) -> Result<AnalyzeResult, Error> {
        let resp = self.request("POST", "/v1/analyze", Some("text/plain"), spec.as_bytes())?;
        let resp = expect_status(resp, 200)?;
        Ok(AnalyzeResult {
            key: resp.header("x-ats-key").unwrap_or_default().to_owned(),
            cached: resp.header("x-ats-cache") == Some("hit"),
            report: resp.body,
        })
    }

    /// `POST /v1/campaign` with one scenario text line per spec; one
    /// result per streamed line (a row, or the error the server reported
    /// for that scenario).
    pub fn campaign(&mut self, specs: &str) -> Result<Vec<Result<RowDoc, Error>>, Error> {
        let resp = self.request("POST", "/v1/campaign", Some("text/plain"), specs.as_bytes())?;
        let resp = expect_status(resp, 200)?;
        let text = resp.text();
        Ok(text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|line| {
                RowDoc::parse(line).map_err(|_| match Json::parse(line.trim()) {
                    Ok(v) => {
                        let (message, kind) = (field(&v, "error"), field(&v, "kind"));
                        Error::request(format!("row error: {message} (kind {kind})"))
                    }
                    Err(e) => Error::request(format!("undecodable row line: {e}")),
                })
            })
            .collect())
    }

    /// `GET /v1/artifacts/{key}/{file}` raw bytes.
    pub fn artifact(&mut self, key: &str, file: &str) -> Result<Vec<u8>, Error> {
        let path = format!("/v1/artifacts/{key}/{file}");
        let resp = self.request("GET", &path, None, b"")?;
        Ok(expect_status(resp, 200)?.body)
    }
}

fn expect_status<R: std::borrow::Borrow<Response>>(resp: R, want: u16) -> Result<R, Error> {
    let r = resp.borrow();
    if r.status == want {
        return Ok(resp);
    }
    let (kind, message) = match Json::parse(r.text().trim()) {
        Ok(v) => (field(&v, "kind"), field(&v, "error")),
        Err(_) => ("?".to_owned(), r.text()),
    };
    Err(Error::request(format!(
        "HTTP {}: {message} (kind {kind})",
        r.status
    )))
}

/// Member `name` of an `ats-serve-error/1` document, `?` when absent.
fn field(doc: &Json, name: &str) -> String {
    doc.get(name)
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::read_response;
    use std::io;

    #[test]
    fn decodes_sized_and_chunked_responses() {
        let bytes =
            b"HTTP/1.1 200 OK\r\ncontent-length: 3\r\nx-ats-cache: hit\r\n\r\nok\nHTTP/1.1 404 Not Found\r\ntransfer-encoding: chunked\r\n\r\n3\r\n{}\n\r\n0\r\n\r\n";
        let mut cur = io::Cursor::new(bytes.to_vec());
        let mut leftover = Vec::new();
        let first = read_response(&mut cur, &mut leftover).unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(first.header("x-ats-cache"), Some("hit"));
        assert_eq!(first.body, b"ok\n");
        let second = read_response(&mut cur, &mut leftover).unwrap();
        assert_eq!(second.status, 404);
        assert_eq!(second.body, b"{}\n");
        assert!(leftover.is_empty());
    }

    #[test]
    fn error_statuses_surface_kind_and_message() {
        let resp = Response {
            status: 400,
            headers: vec![],
            body: b"{\"error\":\"empty scenario spec\",\"kind\":\"scenario\",\"schema\":\"ats-serve-error/1\"}\n".to_vec(),
        };
        let err = expect_status(&resp, 200).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("HTTP 400"), "{msg}");
        assert!(msg.contains("kind scenario"), "{msg}");
        assert!(msg.contains("empty scenario spec"), "{msg}");
    }
}

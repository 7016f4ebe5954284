//! A typed blocking client for the service.
//!
//! One [`Client`] owns one keep-alive connection and retries a request
//! exactly once on a stale-connection failure (the server may have
//! closed an idle keep-alive socket between requests — the failure mode
//! every HTTP client must absorb). Both the replay load driver
//! (`ats bench serve`) and the integration tests speak to the server
//! through this type, so the client-visible contract is tested, not just the
//! server's framing.

use crate::wire::RowDoc;
use ats_core::json::Json;
use ats_core::Error;
use std::io::{self, Read, Write};
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
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
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

    fn connect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(self.timeout))?;
        stream.set_write_timeout(Some(self.timeout))?;
        self.stream = Some(stream);
        self.leftover.clear();
        Ok(())
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
        for _attempt in 0..2 {
            let reused = self.stream.is_some();
            if !reused {
                self.connect()
                    .map_err(|e| Error::request(format!("connect {}: {e}", self.addr)))?;
            }
            match self.try_once(method, path, content_type, body) {
                Ok(resp) => {
                    if resp
                        .header("connection")
                        .is_some_and(|v| v.eq_ignore_ascii_case("close"))
                    {
                        self.stream = None;
                        self.leftover.clear();
                    }
                    return Ok(resp);
                }
                Err(e) => {
                    self.stream = None;
                    self.leftover.clear();
                    if !reused {
                        return Err(Error::request(format!("{method} {path}: {e}")));
                    }
                    // Stale keep-alive connection: retry on a fresh one.
                }
            }
        }
        unreachable!("second attempt always runs on a fresh connection")
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
            self.connect()
                .map_err(|e| Error::request(format!("connect {}: {e}", self.addr)))?;
        }
        self.write_request(method, path, content_type, body)
            .map_err(|e| Error::request(format!("{method} {path}: {e}")))
    }

    /// Read the response to a request written with [`Client::start`].
    pub fn finish(&mut self) -> Result<Response, Error> {
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| Error::request("no request in flight"))?;
        let resp = read_response(stream, &mut self.leftover)
            .map_err(|e| Error::request(format!("read response: {e}")))?;
        if resp
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        {
            self.stream = None;
            self.leftover.clear();
        }
        Ok(resp)
    }

    fn try_once(
        &mut self,
        method: &str,
        path: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) -> io::Result<Response> {
        self.write_request(method, path, content_type, body)?;
        let stream = self.stream.as_mut().expect("connected");
        read_response(stream, &mut self.leftover)
    }

    fn write_request(
        &mut self,
        method: &str,
        path: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) -> io::Result<()> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\n",
            self.addr,
            body.len()
        );
        if let Some(ct) = content_type {
            head.push_str("content-type: ");
            head.push_str(ct);
            head.push_str("\r\n");
        }
        if let Some(t) = &self.tenant {
            head.push_str("x-ats-tenant: ");
            head.push_str(t);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let stream = self.stream.as_mut().expect("connected");
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        stream.flush()
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
                    Ok(v) => Error::request(format!(
                        "row error: {} (kind {})",
                        v.get("error").and_then(Json::as_str).unwrap_or("?"),
                        v.get("kind").and_then(Json::as_str).unwrap_or("?"),
                    )),
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
        Ok(v) => (
            v.get("kind")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_owned(),
            v.get("error")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_owned(),
        ),
        Err(_) => ("?".to_owned(), r.text()),
    };
    Err(Error::request(format!(
        "HTTP {}: {message} (kind {kind})",
        r.status
    )))
}

/// Decode one response (status line, headers, sized or chunked body).
/// `leftover` carries bytes past this response on a keep-alive socket.
fn read_response(stream: &mut impl Read, leftover: &mut Vec<u8>) -> io::Result<Response> {
    let mut buf = std::mem::take(leftover);
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        fill(stream, &mut buf)?;
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| bad("non-UTF-8 response head"))?
        .to_owned();
    let mut rest = buf.split_off(head_end + 4);

    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| bad("malformed header"))?;
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_owned()));
    }
    let find = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };

    let body = if find("transfer-encoding").is_some_and(|v| v.contains("chunked")) {
        decode_chunked(stream, &mut rest)?
    } else {
        let len: usize = find("content-length")
            .unwrap_or("0")
            .parse()
            .map_err(|_| bad("bad content-length"))?;
        while rest.len() < len {
            fill(stream, &mut rest)?;
        }
        let tail = rest.split_off(len);
        let body = rest;
        rest = tail;
        body
    };
    *leftover = rest;
    Ok(Response {
        status,
        headers,
        body,
    })
}

fn decode_chunked(stream: &mut impl Read, rest: &mut Vec<u8>) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    loop {
        let line = take_line(stream, rest)?;
        let size = usize::from_str_radix(line.trim(), 16).map_err(|_| bad("bad chunk size"))?;
        if size == 0 {
            // Consume the terminating CRLF after the zero chunk.
            let _ = take_line(stream, rest)?;
            return Ok(body);
        }
        while rest.len() < size + 2 {
            fill(stream, rest)?;
        }
        body.extend_from_slice(&rest[..size]);
        rest.drain(..size + 2);
    }
}

fn take_line(stream: &mut impl Read, rest: &mut Vec<u8>) -> io::Result<String> {
    loop {
        if let Some(pos) = rest.windows(2).position(|w| w == b"\r\n") {
            let line =
                String::from_utf8(rest[..pos].to_vec()).map_err(|_| bad("non-UTF-8 line"))?;
            rest.drain(..pos + 2);
            return Ok(line);
        }
        fill(stream, rest)?;
    }
}

fn fill(stream: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut chunk = [0u8; 4096];
    let n = stream.read(&mut chunk)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    buf.extend_from_slice(&chunk[..n]);
    Ok(())
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

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

//! Minimal HTTP/1.1 framing for the server and its client.
//!
//! The service speaks a deliberately small slice of HTTP — enough for
//! `curl`, Prometheus scrapers and the typed [`crate::Client`]: request
//! line + headers + `Content-Length` bodies in, status + headers +
//! either a sized body or `Transfer-Encoding: chunked` out, keep-alive by
//! default. Server and client frame through this one module, with heads
//! of requests and responses alike bounded by [`MAX_HEAD`]; errors surface
//! as [`HttpError`], so the server can answer with the right status.

use crate::client::Response;
use ats_core::error::quote;
use std::fmt;
use std::io::{self, Read, Write};

/// Maximum head bytes of a request or a response: the start line, the
/// header lines and the blank line that ends them.
pub const MAX_HEAD: usize = 16 * 1024;

/// Maximum request-body bytes, checked before any body is buffered.
pub const MAX_BODY: usize = 4 * 1024 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path with query string, as sent (`/v1/analyze`).
    pub path: String,
    /// Header name/value pairs in arrival order (names lowercased).
    pub headers: Vec<(String, String)>,
    /// The request body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// Did the client ask to close the connection after this exchange?
    pub fn wants_close(&self) -> bool {
        wants_close(&self.headers)
    }
}

/// First value of header `name` (lowercase) among `headers`.
pub(crate) fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|h| h.1.as_str())
}

/// Does a message with `headers` close its connection after the exchange?
pub(crate) fn wants_close(headers: &[(String, String)]) -> bool {
    header(headers, "connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
}

/// Why a message could not be framed.
#[derive(Debug)]
pub enum HttpError {
    /// Clean end of stream before the first byte of a message (keep-alive
    /// connection closed by the peer; not an error condition).
    Eof,
    /// Malformed start line, headers or body framing.
    BadRequest(String),
    /// Head over [`MAX_HEAD`] or request body over [`MAX_BODY`].
    TooLarge(String),
    /// The peer stalled past the socket timeout.
    Timeout,
    /// Any other transport failure.
    Io(io::Error),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::Timeout,
            _ => HttpError::Io(e),
        }
    }
}

fn bad(msg: impl Into<String>) -> HttpError {
    HttpError::BadRequest(msg.into())
}

/// Read one request from `stream`. `leftover` carries bytes read past the
/// previous request on a keep-alive connection; on return it holds any
/// bytes past this one.
pub fn read_request(stream: &mut impl Read, leftover: &mut Vec<u8>) -> Result<Request, HttpError> {
    let ((method, path), headers) = read_head(stream, leftover, "request head", |line| {
        let mut parts = line.split(' ');
        match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v)) if !m.is_empty() && p.starts_with('/') => {
                if !v.starts_with("HTTP/1.") {
                    return Err(bad(format!("unsupported protocol {}", quote(v))));
                }
                Ok((m.to_owned(), p.to_owned()))
            }
            _ => Err(bad(format!("malformed request line {}", quote(line)))),
        }
    })?;
    let len = content_length(&headers)?;
    if len > MAX_BODY {
        let msg = format!("request body of {len} bytes over {MAX_BODY}");
        return Err(HttpError::TooLarge(msg));
    }
    let body = read_sized(stream, leftover, len, "request body")?;
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Read one response: status line, headers, then a sized or chunked
/// body. `leftover` carries bytes read past the previous response on a
/// keep-alive connection; on return it holds any bytes past this one.
pub(crate) fn read_response(
    stream: &mut impl Read,
    leftover: &mut Vec<u8>,
) -> Result<Response, HttpError> {
    let (status, headers) = read_head(stream, leftover, "response head", |line| {
        let status = line.split(' ').nth(1).and_then(|s| s.parse().ok());
        status.ok_or_else(|| bad(format!("malformed status line {}", quote(line))))
    })?;
    let body = if header(&headers, "transfer-encoding").is_some_and(|v| v.contains("chunked")) {
        read_chunked(stream, leftover)?
    } else {
        read_sized(stream, leftover, content_length(&headers)?, "response body")?
    };
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// Read one message head that starts with the bytes in `buf`, leaving in
/// `buf` the bytes past it; `parse_start` parses the start line first.
fn read_head<T>(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    what: &str,
    parse_start: impl FnOnce(&str) -> Result<T, HttpError>,
) -> Result<(T, Vec<(String, String)>), HttpError> {
    let end = read_until(stream, buf, b"\r\n\r\n", what)?;
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| bad(format!("non-UTF-8 {what}")))?;
    let mut lines = head.split("\r\n");
    let start = parse_start(lines.next().unwrap_or_default())?;
    let mut headers = Vec::new();
    for line in lines.filter(|l| !l.is_empty()) {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad(format!("malformed header {}", quote(line))))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    *buf = buf.split_off(end + 4);
    Ok((start, headers))
}

/// Read until `buf` holds `delim`, and return its offset. A `what` (a
/// head, a chunk-size line) over [`MAX_HEAD`] bytes, `delim` included, is
/// refused once it is seen, so at most `MAX_HEAD` + one read are taken.
fn read_until<const N: usize>(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    delim: &[u8; N],
    what: &str,
) -> Result<usize, HttpError> {
    let too_large = || HttpError::TooLarge(format!("{what} over {MAX_HEAD} bytes"));
    loop {
        if let Some(pos) = buf.windows(N).position(|w| w == delim) {
            return (pos + N <= MAX_HEAD).then_some(pos).ok_or_else(too_large);
        }
        if buf.len() > MAX_HEAD {
            return Err(too_large());
        }
        if !fill(stream, buf)? {
            if buf.is_empty() {
                return Err(HttpError::Eof);
            }
            return Err(bad(format!("truncated {what}")));
        }
    }
}

/// Where the first head in `buf` ends: the offset of its `\r\n\r\n`.
pub(crate) fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The `content-length` of a message with `headers` (0 without one).
fn content_length(headers: &[(String, String)]) -> Result<usize, HttpError> {
    let len = header(headers, "content-length").unwrap_or("0");
    len.parse()
        .map_err(|_| bad(format!("bad content-length {}", quote(len))))
}

/// Read a `what` of `len` bytes that starts with the bytes in `buf`, and
/// leave in `buf` the bytes past it.
fn read_sized(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    len: usize,
    what: &str,
) -> Result<Vec<u8>, HttpError> {
    while buf.len() < len {
        if !fill(stream, buf)? {
            return Err(bad(format!("truncated {what}")));
        }
    }
    let rest = buf.split_off(len);
    Ok(std::mem::replace(buf, rest))
}

/// Append one read of at most 4 KiB to `buf`; `false` at the end of the stream.
fn fill(stream: &mut impl Read, buf: &mut Vec<u8>) -> Result<bool, HttpError> {
    let mut chunk = [0u8; 4096];
    let n = stream.read(&mut chunk)?;
    buf.extend_from_slice(&chunk[..n]);
    Ok(n > 0)
}

/// Standard reason phrase for the status codes the service uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write one message head in one write: `fixed` (the start line and the
/// fields every message of its kind carries), a line per `extra` field,
/// then the blank line that ends the head.
fn write_head<'a>(
    w: &mut impl Write,
    fixed: fmt::Arguments<'_>,
    extra: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> io::Result<()> {
    let mut head = fmt::format(fixed);
    for (name, value) in extra {
        head.extend(["\r\n", name, ": ", value]);
    }
    head.push_str("\r\n\r\n");
    w.write_all(head.as_bytes())
}

/// Write a request: the head (`host`, `content-length`, `extra`), then the body.
pub(crate) fn write_request<'a>(
    w: &mut impl Write,
    method: &str,
    path: &str,
    host: impl fmt::Display,
    extra: impl IntoIterator<Item = (&'a str, &'a str)>,
    body: &[u8],
) -> io::Result<()> {
    let len = body.len();
    let fixed = format_args!("{method} {path} HTTP/1.1\r\nhost: {host}\r\ncontent-length: {len}");
    write_head(w, fixed, extra)?;
    w.write_all(body)?;
    w.flush()
}

/// Write a response head: the status line, `content-type`, the body's
/// `framing` field, `connection`, then `extra`.
fn write_response_head(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    framing: fmt::Arguments<'_>,
    extra: &[(&str, &str)],
    keep_alive: bool,
) -> io::Result<()> {
    let reason = reason(status);
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let fixed = format_args!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\n{framing}\r\nconnection: {connection}"
    );
    write_head(w, fixed, extra.iter().copied())
}

/// Write a complete sized response. Extra headers are `(name, value)`
/// pairs; `Content-Length` and `Connection` are supplied here.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    extra: &[(&str, &str)],
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let framing = format_args!("content-length: {}", body.len());
    write_response_head(w, status, content_type, framing, extra, keep_alive)?;
    w.write_all(body)?;
    w.flush()
}

/// Start a chunked (streaming) response; follow with [`write_chunk`] and
/// [`finish_chunked`].
pub fn start_chunked(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    extra: &[(&str, &str)],
    keep_alive: bool,
) -> io::Result<()> {
    let framing = format_args!("transfer-encoding: chunked");
    write_response_head(w, status, content_type, framing, extra, keep_alive)
}

/// Write one chunk (empty input writes nothing — an empty chunk would
/// terminate the stream).
pub fn write_chunk(w: &mut impl Write, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    write!(w, "{:x}\r\n", data.len())?;
    w.write_all(data)?;
    w.write_all(b"\r\n")
}

/// Terminate a chunked response.
pub fn finish_chunked(w: &mut impl Write) -> io::Result<()> {
    w.write_all(b"0\r\n\r\n")?;
    w.flush()
}

/// Decode a chunked body that starts with the bytes in `buf`, leaving in
/// `buf` the bytes past it; every chunk, the last (empty) one too, ends in CRLF.
fn read_chunked(stream: &mut impl Read, buf: &mut Vec<u8>) -> Result<Vec<u8>, HttpError> {
    let mut body = Vec::new();
    loop {
        let eol = read_until(stream, buf, b"\r\n", "chunk-size line")?;
        let size = std::str::from_utf8(&buf[..eol]).ok();
        let size = size.and_then(|s| usize::from_str_radix(s.trim(), 16).ok());
        let size = size.ok_or_else(|| bad("bad chunk size"))?;
        buf.drain(..eol + 2);
        let framed = size
            .checked_add(2)
            .ok_or_else(|| bad("chunk size out of range"))?;
        let chunk = read_sized(stream, buf, framed, "chunk")?;
        if !chunk.ends_with(b"\r\n") {
            return Err(bad("chunk missing its CRLF"));
        }
        if size == 0 {
            return Ok(body);
        }
        body.extend_from_slice(&chunk[..size]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        let mut leftover = Vec::new();
        read_request(&mut io::Cursor::new(bytes.to_vec()), &mut leftover)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            b"POST /v1/analyze HTTP/1.1\r\nHost: x\r\nX-Ats-Tenant: t1\r\nContent-Length: 4\r\n\r\nspec",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/analyze");
        assert_eq!(req.header("x-ats-tenant"), Some("t1"));
        assert_eq!(req.body, b"spec");
        assert!(!req.wants_close());
    }

    #[test]
    fn keep_alive_leftover_carries_the_next_request() {
        let two = b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        let mut leftover = Vec::new();
        let mut cur = io::Cursor::new(two.to_vec());
        let first = read_request(&mut cur, &mut leftover).unwrap();
        assert_eq!(first.path, "/healthz");
        let second = read_request(&mut cur, &mut leftover).unwrap();
        assert_eq!(second.path, "/metrics");
        assert!(matches!(
            read_request(&mut cur, &mut leftover),
            Err(HttpError::Eof)
        ));
    }

    #[test]
    fn rejects_malformed_and_oversized_requests() {
        assert!(matches!(
            parse(b"NOPE\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"GET /x SPDY/9\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        let huge = format!(
            "POST /v1/analyze HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            1 << 30
        );
        assert!(matches!(
            parse(huge.as_bytes()),
            Err(HttpError::TooLarge(_))
        ));
        let mut head = b"GET /x HTTP/1.1\r\n".to_vec();
        head.extend(std::iter::repeat_n(b'a', 20 * 1024));
        assert!(matches!(parse(&head), Err(HttpError::TooLarge(_))));
    }

    #[test]
    fn head_limit_holds_wherever_the_terminator_lands() {
        // A head of `len` bytes, terminator included, followed by a body.
        let head = |len: usize| {
            let mut h = b"POST /v1/analyze HTTP/1.1\r\nContent-Length: 2\r\nX-Pad: ".to_vec();
            h.resize(len - 4, b'a');
            h.extend_from_slice(b"\r\n\r\nok");
            h
        };
        for len in [MAX_HEAD - 1, MAX_HEAD, MAX_HEAD + 1, MAX_HEAD + 100] {
            let bytes = head(len);
            // Streamed in 4 KiB reads, or already buffered from the
            // previous request on the connection.
            let streamed = parse(&bytes);
            let mut leftover = bytes.clone();
            let buffered = read_request(&mut io::empty(), &mut leftover);
            for got in [streamed, buffered] {
                match got {
                    Ok(req) => {
                        assert!(len <= MAX_HEAD, "{len}-byte head accepted");
                        assert_eq!(req.body, b"ok");
                    }
                    Err(HttpError::TooLarge(_)) => assert!(len > MAX_HEAD, "{len}"),
                    Err(e) => panic!("{len}: {e:?}"),
                }
            }
        }
    }

    #[test]
    fn a_response_head_over_the_limit_is_refused_one_read_past_it() {
        let mut bytes = b"HTTP/1.1 200 OK\r\nx-pad: ".to_vec();
        bytes.resize(1 << 20, b'a');
        let mut cur = io::Cursor::new(bytes);
        let got = read_response(&mut cur, &mut Vec::new());
        assert!(matches!(got, Err(HttpError::TooLarge(_))), "{got:?}");
        let taken = cur.position() as usize;
        assert!(taken <= MAX_HEAD + 4096, "{taken} bytes read");
    }

    #[test]
    fn bad_chunk_framing_is_an_error_not_a_panic() {
        let huge = "ffffffffffffffff\r\nabc\r\n0\r\n\r\n";
        for chunks in [huge, "3\r\nabcXY0\r\n\r\n"] {
            let bytes = format!("HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n{chunks}");
            let got = read_response(&mut io::Cursor::new(bytes), &mut Vec::new());
            let refused = matches!(got, Err(HttpError::BadRequest(_)));
            assert!(refused, "{chunks:?}: {got:?}");
        }
    }

    #[test]
    fn sized_and_chunked_responses_frame_correctly() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            200,
            "text/plain",
            &[("x-ats-key", "k")],
            b"ok\n",
            true,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("content-length: 3\r\n"));
        assert!(text.contains("x-ats-key: k\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));

        let mut out = Vec::new();
        start_chunked(&mut out, 200, "application/jsonl", &[], false).unwrap();
        write_chunk(&mut out, b"{}\n").unwrap();
        write_chunk(&mut out, b"").unwrap();
        finish_chunked(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("transfer-encoding: chunked"));
        assert!(text.ends_with("3\r\n{}\n\r\n0\r\n\r\n"), "{text}");
    }
}

//! Minimal HTTP/1.1 framing: request parsing and response writing.
//!
//! The service speaks a deliberately small slice of HTTP — enough for
//! `curl`, Prometheus scrapers and the typed [`crate::Client`]: request
//! line + headers + `Content-Length` bodies in, status + headers +
//! either a sized body or `Transfer-Encoding: chunked` out, keep-alive by
//! default. No external dependency is involved; framing errors surface
//! as [`HttpError`] so the server can answer with the right status
//! instead of dropping the connection.

use std::io::{self, Read, Write};

/// Maximum request-head bytes: the request line, the header lines and
/// the blank line that ends them.
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
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Did the client ask to close the connection after this exchange?
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be framed.
#[derive(Debug)]
pub enum HttpError {
    /// Clean end of stream before the first request byte (keep-alive
    /// connection closed by the peer; not an error condition).
    Eof,
    /// Malformed request line or headers.
    BadRequest(String),
    /// Head over [`MAX_HEAD`] or body over [`MAX_BODY`].
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

/// Read one request from `stream`. `leftover` carries bytes read past the
/// previous request on a keep-alive connection; on return it holds any
/// bytes past this one.
pub fn read_request(stream: &mut impl Read, leftover: &mut Vec<u8>) -> Result<Request, HttpError> {
    let mut buf = std::mem::take(leftover);
    let mut chunk = [0u8; 4096];
    let too_large = || HttpError::TooLarge(format!("request head over {MAX_HEAD} bytes"));
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            if pos + 4 > MAX_HEAD {
                return Err(too_large());
            }
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return Err(too_large());
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            if buf.is_empty() {
                return Err(HttpError::Eof);
            }
            return Err(HttpError::BadRequest("truncated request head".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let (method, path, headers) = {
        let head = std::str::from_utf8(&buf[..head_end])
            .map_err(|_| HttpError::BadRequest("non-UTF-8 request head".into()))?;
        let mut lines = head.split("\r\n");
        let request_line = lines
            .next()
            .ok_or_else(|| HttpError::BadRequest("empty request".into()))?;
        let mut parts = request_line.split(' ');
        let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v)) if !m.is_empty() && p.starts_with('/') => (m, p, v),
            _ => {
                return Err(HttpError::BadRequest(format!(
                    "malformed request line `{request_line}`"
                )))
            }
        };
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::BadRequest(format!(
                "unsupported protocol `{version}`"
            )));
        }
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| HttpError::BadRequest(format!("malformed header `{line}`")))?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
        (method.to_owned(), path.to_owned(), headers)
    };

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::BadRequest(format!("bad content-length `{v}`")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(HttpError::TooLarge(format!(
            "request body of {content_length} bytes over {MAX_BODY}"
        )));
    }

    let body_start = head_end + 4;
    let mut body = buf.split_off(body_start.min(buf.len()));
    while body.len() < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::BadRequest("truncated request body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    *leftover = body.split_off(content_length);

    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Where the first head in `buf` ends: the offset of its `\r\n\r\n`.
pub(crate) fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
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
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: {}\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (k, v) in extra {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())?;
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
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ntransfer-encoding: chunked\r\nconnection: {}\r\n",
        reason(status),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (k, v) in extra {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    w.write_all(head.as_bytes())
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

//! The exact bytes ats-serve and its client put on the wire, and how
//! each message is split into writes (head, then body).

use ats_core::Error;
use ats_serve::http::{finish_chunked, start_chunked, write_chunk, write_response};
use ats_serve::{wire, Client};
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::time::Duration;

/// Keeps each `write` call's bytes apart, and marks each flush.
#[derive(Default)]
struct Writes(Vec<String>);

impl Write for Writes {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.push(String::from_utf8(buf.to_vec()).unwrap());
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.push("<flush>".to_owned());
        Ok(())
    }
}

#[test]
fn client_analyze_request_bytes() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // Nothing answers, so the request times out and the client closes.
    let mut client = Client::new(addr)
        .with_tenant("t1")
        .with_timeout(Duration::from_millis(100));
    let spec = "seed=7 nprocs=2 | whole g0:late_sender r=1";
    assert!(client.analyze(spec).is_err());
    let mut got = String::new();
    let (mut peer, _) = listener.accept().unwrap();
    peer.read_to_string(&mut got).unwrap();
    let head = format!(
        "POST /v1/analyze HTTP/1.1\r\nhost: {addr}\r\ncontent-length: 42\r\n\
         content-type: text/plain\r\nx-ats-tenant: t1\r\n\r\n"
    );
    assert_eq!(got, head + spec);
}

/// The writes `send` makes, in order, each flush as `<flush>`.
fn writes(send: impl FnOnce(&mut Writes) -> io::Result<()>) -> Vec<String> {
    let mut w = Writes::default();
    send(&mut w).unwrap();
    w.0
}

#[test]
fn sized_responses_write_head_then_body() {
    let extra = [("x-ats-key", "0123abcd"), ("x-ats-cache", "hit")];
    let ok = writes(|w| write_response(w, 200, "text/plain", &extra, b"{}\n", true));
    let head = "HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\ncontent-length: 3\r\n\
                connection: keep-alive\r\nx-ats-key: 0123abcd\r\nx-ats-cache: hit\r\n\r\n";
    assert_eq!(ok, [head, "{}\n", "<flush>"]);

    // The body the acceptor sheds a connection with.
    let body = wire::error_body(&Error::request("server is at its connection capacity"));
    assert_eq!(
        body,
        "{\"error\":\"server is at its connection capacity\",\"kind\":\"request\",\
         \"schema\":\"ats-serve-error/1\"}\n"
    );
    let shed = writes(|w| write_response(w, 429, "application/json", &[], body.as_bytes(), false));
    let head = "HTTP/1.1 429 Too Many Requests\r\ncontent-type: application/json\r\n\
                content-length: 95\r\nconnection: close\r\n\r\n";
    assert_eq!(shed, [head, &body, "<flush>"]);
}

#[test]
fn chunked_campaign_response_bytes() {
    let w = writes(|w| {
        start_chunked(w, 200, "application/jsonl", &[("x-ats-count", "2")], true)?;
        write_chunk(w, b"{\"n\":1}\n")?;
        write_chunk(w, b"{\"n\":22}\n")?;
        finish_chunked(w)
    });
    let head = "HTTP/1.1 200 OK\r\ncontent-type: application/jsonl\r\n\
                transfer-encoding: chunked\r\nconnection: keep-alive\r\nx-ats-count: 2\r\n\r\n";
    assert_eq!(w[0], head);
    let body = "8\r\n{\"n\":1}\n\r\n9\r\n{\"n\":22}\n\r\n0\r\n\r\n<flush>";
    assert_eq!(w[1..].concat(), body);
}

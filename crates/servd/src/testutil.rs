//! Shared test-support HTTP client for the server integration suites.
//!
//! Every differential suite (serve/ingest equivalence, backpressure,
//! crash recovery) and the serving benches used to carry a private copy
//! of the same tiny client: connect with `TCP_NODELAY`, send a whole
//! request in **one write** (so the server's incremental parser sees the
//! common fast path unless a test deliberately dribbles bytes), and read
//! a complete `Content-Length`-framed response. This module is that
//! client, compiled only for tests and for dependents that enable the
//! `testutil` feature — it is not part of the serving API.
//!
//! Everything here panics on protocol violations: in a test, a malformed
//! response *is* the failure.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A fully read HTTP response: status, headers, raw body bytes.
#[derive(Debug, Clone)]
pub struct TestResponse {
    /// Numeric status code from the status line.
    pub status: u16,
    /// Header name/value pairs in wire order.
    pub headers: Vec<(String, String)>,
    /// The `Content-Length`-framed body, unparsed.
    pub body: Vec<u8>,
}

impl TestResponse {
    /// The first header with this name, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (panics if it is not — our endpoints only emit
    /// text).
    pub fn text(&self) -> String {
        String::from_utf8(self.body.clone()).expect("UTF-8 response body")
    }

    /// The `/whatif/jobs/:id` URL a `202` body names (panics if absent).
    pub fn poll_url(&self) -> String {
        self.text()
            .split("\"poll\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .expect("202 body carries a poll URL")
            .to_owned()
    }
}

/// Connects with `TCP_NODELAY` set, so one-write requests hit the wire
/// immediately instead of waiting out Nagle.
pub fn connect(addr: impl ToSocketAddrs) -> TcpStream {
    let conn = TcpStream::connect(addr).expect("connect to test server");
    conn.set_nodelay(true).expect("set TCP_NODELAY");
    conn
}

/// The request bytes `request_on` sends: `Connection: keep-alive`, plus
/// `Content-Length` whenever a body is present. Exposed so byte-dribble
/// tests can split the exact same wire image.
pub fn request_bytes(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: keep-alive\r\n");
    if !body.is_empty() || method == "POST" || method == "PUT" {
        req.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    req.push_str("\r\n");
    let mut out = req.into_bytes();
    out.extend_from_slice(body);
    out
}

/// Issues one request on an existing keep-alive connection — the whole
/// request in a single write — and reads the complete framed response.
pub fn request_on(conn: &mut TcpStream, method: &str, path: &str, body: &[u8]) -> TestResponse {
    conn.write_all(&request_bytes(method, path, body))
        .expect("request written in one write");
    read_response(conn)
}

/// `GET` convenience over [`request_on`].
pub fn get_on(conn: &mut TcpStream, path: &str) -> TestResponse {
    request_on(conn, "GET", path, b"")
}

/// One-shot convenience: connect, issue a single request, return the
/// response (the connection drops afterwards).
pub fn request(addr: impl ToSocketAddrs, method: &str, path: &str, body: &[u8]) -> TestResponse {
    let mut conn = connect(addr);
    request_on(&mut conn, method, path, body)
}

/// Drives a `/whatif` request to completion: follows a `202` by polling
/// its `/whatif/jobs/:id` URL until the campaign finishes (or `tries`
/// polls elapse — then panics). A direct `200`/error returns untouched,
/// so assertions about `X-Cache` etc. stay on the first response when
/// it completed synchronously.
pub fn whatif_to_completion(
    addr: impl ToSocketAddrs + Copy,
    path: &str,
    tries: usize,
) -> TestResponse {
    let first = request(addr, "GET", path, b"");
    if first.status != 202 {
        return first;
    }
    let poll = first.poll_url();
    for _ in 0..tries {
        std::thread::sleep(std::time::Duration::from_millis(100));
        let resp = request(addr, "GET", &poll, b"");
        if resp.status != 202 {
            return resp;
        }
    }
    panic!("whatif job did not finish within {tries} polls: {poll}");
}

/// Reads one `Content-Length`-framed response off the stream. Panics on
/// EOF mid-response, a head past 64 KiB, or a missing `Content-Length`
/// (the server always emits one).
///
/// The head is read in buffered chunks, not byte-at-a-time: the client
/// issues one request per read, so every byte a `read` returns belongs
/// to this response, and a per-byte syscall would make measured
/// throughput scale with *header length* — a 30-byte `X-Trace-Id`
/// would read as ~30 extra syscalls of "server overhead" in the
/// paired-fleet benches.
pub fn read_response(conn: &mut TcpStream) -> TestResponse {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        assert!(buf.len() < 64 * 1024, "unterminated response head");
        let n = conn.read(&mut chunk).expect("response bytes");
        assert!(n > 0, "EOF mid-response head");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).expect("ASCII response head");
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_owned(), v.trim().to_owned()))
        .collect();
    let length: usize = headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse().ok())
        .expect("Content-Length header");
    let mut body = buf.split_off(head_end);
    assert!(
        body.len() <= length,
        "server sent {} bytes past the declared Content-Length {length}",
        body.len() - length
    );
    let read_so_far = body.len();
    body.resize(length, 0);
    conn.read_exact(&mut body[read_so_far..])
        .expect("framed body");
    TestResponse {
        status,
        headers,
        body,
    }
}

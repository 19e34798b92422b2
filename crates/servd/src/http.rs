//! A minimal, defensive HTTP/1.1 reader/writer over `std::net` streams.
//!
//! Only what the serving subsystem needs: `GET`/`HEAD` queries, `POST`
//! ingest uploads with an exact `Content-Length` body, keep-alive, and
//! fixed-`Content-Length` responses. Everything is bounded — the request
//! head is read through a hard byte cap, `POST` bodies through their own
//! cap ([`RequestLimits::max_body_bytes`], answered `413` *before* any
//! body byte is read), and body reads carry a total time budget so a
//! slowloris dripping its body one byte per socket-timeout cannot hold a
//! worker past [`RequestLimits::body_timeout`]. `POST` without a
//! `Content-Length` is `411`; a non-numeric length is `400`;
//! `Transfer-Encoding` (chunked or otherwise) is never accepted.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// Why reading a request off a connection stopped.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete, well-formed request (head plus any declared body).
    Request(Request),
    /// The peer closed before sending anything; close quietly.
    Closed,
    /// The head exceeded the size cap — answer `413` and close.
    TooLarge,
    /// The declared body exceeds the body cap — answer `413` and close
    /// (the body is never read).
    BodyTooLarge,
    /// A `POST` without a `Content-Length` — answer `411` and close.
    LengthRequired,
    /// The socket read timed out mid-request, or the body read exceeded
    /// its total time budget — answer `408` and close.
    TimedOut,
    /// Bytes arrived but they are not HTTP we accept — answer `400`.
    Malformed(&'static str),
}

/// Read caps for one request: head bytes, body bytes, and the total time
/// budget for reading the body.
#[derive(Debug, Clone, Copy)]
pub struct RequestLimits {
    /// Request-head byte cap (`413` beyond it).
    pub max_head_bytes: usize,
    /// `POST` body byte cap (`413` beyond it, checked against the
    /// declared `Content-Length` before reading).
    pub max_body_bytes: usize,
    /// Wall-clock budget for reading the complete body across however
    /// many socket reads it takes (`408` beyond it). `None` disables the
    /// budget (unit tests); the per-read socket timeout still applies.
    pub body_timeout: Option<Duration>,
}

impl RequestLimits {
    /// Limits for in-memory parsing: generous caps, no clock.
    pub fn unbounded() -> Self {
        RequestLimits {
            max_head_bytes: 64 * 1024,
            max_body_bytes: 64 * 1024 * 1024,
            body_timeout: None,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `HEAD`, or `POST` (other methods parse — the router answers
    /// `405` — but may not carry a body).
    pub method: String,
    /// The decoded path, without the query string.
    pub path: String,
    /// Decoded `key=value` query pairs, in arrival order.
    pub query: Vec<(String, String)>,
    /// The request body (`POST` only; empty otherwise).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl Request {
    /// The canonical form of the query string: pairs sorted by key then
    /// value, re-encoded. Two requests naming the same slice in different
    /// parameter orders canonicalize identically — this is the response
    /// cache key (joined with the path by the cache itself).
    pub fn canonical_query(&self) -> String {
        let mut pairs: Vec<&(String, String)> = self.query.iter().collect();
        pairs.sort();
        let mut out = String::new();
        for (k, v) in pairs {
            if !out.is_empty() {
                out.push('&');
            }
            out.push_str(k);
            out.push('=');
            out.push_str(v);
        }
        out
    }

    /// The last value given for query key `k`, if any.
    pub fn query_value(&self, k: &str) -> Option<&str> {
        self.query
            .iter()
            .rev()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one request (head through the blank line, then exactly the
/// declared body for `POST`) from `stream` under `limits`. Reads exactly
/// to the end of the request, so the next head starts at the current
/// stream position on keep-alive connections.
///
/// The server itself parses with the incremental [`Parser`]; this
/// blocking reader is the oracle the parser is tested against, so it is
/// compiled only for tests and the `testutil` feature.
#[cfg(any(test, feature = "testutil"))]
pub fn read_request(stream: &mut impl io::Read, limits: &RequestLimits) -> ReadOutcome {
    let mut buf: Vec<u8> = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => {
                return if buf.is_empty() {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::Malformed("connection closed mid-request")
                };
            }
            Ok(_) => {
                buf.push(byte[0]);
                if buf.len() > limits.max_head_bytes {
                    return ReadOutcome::TooLarge;
                }
                if buf.ends_with(b"\r\n\r\n") || buf.ends_with(b"\n\n") {
                    let (mut request, body_len) = match parse_head(&buf) {
                        Ok(parsed) => parsed,
                        Err(outcome) => return outcome,
                    };
                    if body_len > limits.max_body_bytes {
                        return ReadOutcome::BodyTooLarge;
                    }
                    if body_len > 0 {
                        match read_body(stream, body_len, limits.body_timeout) {
                            Ok(body) => request.body = body,
                            Err(outcome) => return outcome,
                        }
                    }
                    return ReadOutcome::Request(request);
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return if buf.is_empty() {
                    ReadOutcome::Closed
                } else {
                    ReadOutcome::TimedOut
                };
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return ReadOutcome::Closed,
        }
    }
}

/// Reads exactly `len` body bytes, charging every read against one total
/// wall-clock `budget` — the per-read socket timeout alone would let a
/// peer drip one byte per timeout forever.
#[cfg(any(test, feature = "testutil"))]
fn read_body(
    stream: &mut impl io::Read,
    len: usize,
    budget: Option<Duration>,
) -> Result<Vec<u8>, ReadOutcome> {
    let started = Instant::now();
    let mut body = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        if budget.is_some_and(|b| started.elapsed() > b) {
            return Err(ReadOutcome::TimedOut);
        }
        match stream.read(&mut body[filled..]) {
            Ok(0) => return Err(ReadOutcome::Malformed("connection closed mid-body")),
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(ReadOutcome::TimedOut);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(ReadOutcome::Malformed("connection error mid-body")),
        }
    }
    Ok(body)
}

/// Parses a complete head, yielding the request plus how many body bytes
/// follow it on the wire.
fn parse_head(head: &[u8]) -> Result<(Request, usize), ReadOutcome> {
    let Ok(text) = std::str::from_utf8(head) else {
        return Err(ReadOutcome::Malformed("request head is not UTF-8"));
    };
    let mut lines = text.split("\r\n").flat_map(|l| l.split('\n'));
    let Some(request_line) = lines.next() else {
        return Err(ReadOutcome::Malformed("empty request"));
    };
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ReadOutcome::Malformed("bad request line"));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadOutcome::Malformed("unsupported HTTP version"));
    }

    let mut headers: BTreeMap<String, String> = BTreeMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_owned());
        }
    }
    // Body framing: only an exact Content-Length, and only on POST.
    if headers.contains_key("transfer-encoding") {
        return Err(ReadOutcome::Malformed(
            "transfer encodings are not accepted",
        ));
    }
    let body_len = if method == "POST" {
        match headers.get("content-length") {
            None => return Err(ReadOutcome::LengthRequired),
            Some(v) => match v.trim().parse::<usize>() {
                Ok(n) => n,
                Err(_) => return Err(ReadOutcome::Malformed("invalid Content-Length")),
            },
        }
    } else {
        if headers
            .get("content-length")
            .is_some_and(|v| v.trim() != "0")
        {
            return Err(ReadOutcome::Malformed(
                "request bodies are only accepted on POST",
            ));
        }
        0
    };

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let Some(path) = percent_decode(raw_path) else {
        return Err(ReadOutcome::Malformed("bad percent-encoding in path"));
    };
    let mut query = Vec::new();
    for pair in raw_query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        let (Some(k), Some(v)) = (percent_decode(k), percent_decode(v)) else {
            return Err(ReadOutcome::Malformed("bad percent-encoding in query"));
        };
        query.push((k, v));
    }

    let keep_alive = match headers.get("connection").map(String::as_str) {
        Some(c) if c.eq_ignore_ascii_case("close") => false,
        Some(c) if c.eq_ignore_ascii_case("keep-alive") => true,
        _ => version != "HTTP/1.0",
    };

    Ok((
        Request {
            method: method.to_owned(),
            path,
            query,
            body: Vec::new(),
            keep_alive,
        },
        body_len,
    ))
}

/// Decodes `%XX` escapes and `+`-as-space; `None` on truncated or
/// non-hex escapes.
pub fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = hex_val(*bytes.get(i + 1)?)?;
                let lo = hex_val(*bytes.get(i + 2)?)?;
                out.push(hi * 16 + lo);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// A response ready to serialize: status, body, and any extra headers
/// (`X-Snapshot`, `X-Cache`). `Content-Length` is always emitted so
/// clients on keep-alive connections know exactly where the body ends.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// The body bytes (suppressed on the wire for `HEAD`).
    pub body: String,
    /// Extra `(name, value)` headers.
    pub extra: Vec<(&'static str, String)>,
}

impl Response {
    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            extra: Vec::new(),
        }
    }

    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            extra: Vec::new(),
        }
    }

    /// A CSV response.
    pub fn csv(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/csv; charset=utf-8",
            body: body.into(),
            extra: Vec::new(),
        }
    }

    /// Adds an extra header, builder-style.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.extra.push((name, value.into()));
        self
    }

    /// The standard reason phrase for the status codes this server emits.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            411 => "Length Required",
            413 => "Content Too Large",
            429 => "Too Many Requests",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        }
    }
}

/// Serializes `response` onto `stream`. `head_only` suppresses the body
/// (HEAD requests) while keeping the headers — including the true
/// `Content-Length` — identical to the GET form.
pub fn write_response(
    stream: &mut impl Write,
    response: &Response,
    keep_alive: bool,
    head_only: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        response.reason(),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &response.extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    if !head_only {
        stream.write_all(response.body.as_bytes())?;
    }
    stream.flush()
}

// ------------------------------------------------------ incremental parser

/// What [`Parser::poll`] learned from the bytes pushed so far.
#[derive(Debug)]
pub enum ParseProgress {
    /// Not enough bytes yet — push more (or let a deadline fire).
    NeedMore,
    /// One complete request; any trailing bytes stay buffered for the
    /// next (pipelined) request.
    Done(Request),
    /// The request is unacceptable. Carries the same [`ReadOutcome`]
    /// variant the one-shot `read_request` oracle would have returned
    /// (`TooLarge`, `BodyTooLarge`, `LengthRequired`, `TimedOut`,
    /// `Malformed`) so the status-code mapping is shared.
    Fail(ReadOutcome),
}

/// Body phase bookkeeping: the parsed head waiting for its body.
#[derive(Debug)]
struct PendingBody {
    request: Request,
    body_len: usize,
    started: Option<Instant>,
}

/// An incremental HTTP/1.1 request parser for non-blocking connections.
///
/// [`Parser::push`] buffers whatever bytes the socket produced;
/// [`Parser::poll`] advances the state machine and yields
/// [`ParseProgress`]. The grammar, caps, and error taxonomy are
/// deliberately a second implementation of exactly what the blocking
/// `read_request` accepts — byte-for-byte the same verdicts however the
/// input is split — and `tests/parser_fuzz.rs` holds the two
/// implementations against each other across every split schedule
/// (`read_request` is compiled for tests and the `testutil` feature).
///
/// Per-byte accounting mirrors the one-shot reader: each head byte is
/// charged against `max_head_bytes` *before* the terminator test, so a
/// head whose final `\n` lands one past the cap is `TooLarge` even
/// though it terminates; the declared `Content-Length` is checked
/// against `max_body_bytes` before any body byte is consumed; and the
/// body's wall-clock budget starts when the head completes.
#[derive(Debug)]
pub struct Parser {
    limits: RequestLimits,
    buf: Vec<u8>,
    /// How many bytes of `buf` have already been tested for the head
    /// terminator — keeps repeated polls linear, not quadratic.
    scanned: usize,
    pending: Option<PendingBody>,
    failed: bool,
}

impl Parser {
    /// A parser enforcing `limits` for every request on the connection.
    pub fn new(limits: RequestLimits) -> Parser {
        Parser {
            limits,
            buf: Vec::with_capacity(512),
            scanned: 0,
            pending: None,
            failed: false,
        }
    }

    /// Buffers socket bytes. Call [`Parser::poll`] afterwards.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// True when nothing of a request has arrived — the connection is
    /// idle between requests (keep-alive timeout closes it silently
    /// rather than answering `408`).
    pub fn is_idle(&self) -> bool {
        self.buf.is_empty() && self.pending.is_none() && !self.failed
    }

    /// True while a request head or body is partially buffered.
    pub fn mid_request(&self) -> bool {
        !self.is_idle()
    }

    /// When the in-flight body started arriving, if the parser is in the
    /// body phase (used by the caller's timer wheel).
    pub fn body_started(&self) -> Option<Instant> {
        self.pending.as_ref().and_then(|p| p.started)
    }

    /// Advances the state machine. `now` feeds the body wall-clock
    /// budget; pass `None` to skip clock checks (differential tests).
    ///
    /// After a `Fail` the parser is poisoned — every later poll repeats
    /// a failure — because the connection is about to close anyway.
    pub fn poll(&mut self, now: Option<Instant>) -> ParseProgress {
        if self.failed {
            return ParseProgress::Fail(ReadOutcome::Malformed("parser already failed"));
        }
        if self.pending.is_none() {
            match self.scan_head() {
                HeadScan::NeedMore => return ParseProgress::NeedMore,
                HeadScan::Fail(outcome) => {
                    self.failed = true;
                    return ParseProgress::Fail(outcome);
                }
                HeadScan::Complete => {
                    if let Some(p) = self.pending.as_mut() {
                        p.started = now;
                    }
                }
            }
        }
        // Body phase (scan_head either returned above or left a parsed
        // head in `pending`; zero-length bodies complete inside
        // scan_head's caller below).
        let Some(pending) = self.pending.as_ref() else {
            return ParseProgress::NeedMore;
        };
        if let (Some(started), Some(budget), Some(clock)) =
            (pending.started, self.limits.body_timeout, now)
        {
            if clock.duration_since(started) > budget {
                self.failed = true;
                return ParseProgress::Fail(ReadOutcome::TimedOut);
            }
        }
        if self.buf.len() < pending.body_len {
            return ParseProgress::NeedMore;
        }
        let Some(mut pending) = self.pending.take() else {
            return ParseProgress::NeedMore;
        };
        pending.request.body = self.buf[..pending.body_len].to_vec();
        self.buf.drain(..pending.body_len);
        self.scanned = 0;
        ParseProgress::Done(pending.request)
    }

    /// Looks for the head terminator in the unscanned tail of `buf`,
    /// charging each byte against the head cap exactly like the one-shot
    /// reader (cap check first, terminator test second). On success the
    /// head bytes are drained and the parsed request parked in
    /// `pending`; a zero-length body short-circuits to `pending` with
    /// `body_len == 0`, completed by the caller.
    fn scan_head(&mut self) -> HeadScan {
        while self.scanned < self.buf.len() {
            let len = self.scanned + 1;
            self.scanned = len;
            if len > self.limits.max_head_bytes {
                return HeadScan::Fail(ReadOutcome::TooLarge);
            }
            let head = &self.buf[..len];
            if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
                let (request, body_len) = match parse_head(head) {
                    Ok(parsed) => parsed,
                    Err(outcome) => return HeadScan::Fail(outcome),
                };
                if body_len > self.limits.max_body_bytes {
                    return HeadScan::Fail(ReadOutcome::BodyTooLarge);
                }
                self.buf.drain(..len);
                self.scanned = 0;
                self.pending = Some(PendingBody {
                    request,
                    body_len,
                    started: None,
                });
                return HeadScan::Complete;
            }
        }
        HeadScan::NeedMore
    }

    /// The peer closed its write side (read returned 0). Maps buffered
    /// state to the same verdicts the one-shot reader gives at EOF.
    pub fn close(&mut self) -> Option<ReadOutcome> {
        self.failed = true;
        if self.pending.is_some() {
            Some(ReadOutcome::Malformed("connection closed mid-body"))
        } else if self.buf.is_empty() {
            None
        } else {
            Some(ReadOutcome::Malformed("connection closed mid-request"))
        }
    }
}

/// Result of one head-scanning pass.
enum HeadScan {
    NeedMore,
    Complete,
    Fail(ReadOutcome),
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::io::Read;

    fn parse(raw: &str) -> ReadOutcome {
        read_request(&mut raw.as_bytes(), &RequestLimits::unbounded())
    }

    fn request(raw: &str) -> Request {
        match parse(raw) {
            ReadOutcome::Request(r) => r,
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn parses_simple_get() {
        let r = request("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert!(r.query.is_empty());
        assert!(r.keep_alive);
    }

    #[test]
    fn parses_query_pairs_and_percent_escapes() {
        let r = request("GET /errors?host=gpub%30%31&xid=74&from=1+2 HTTP/1.1\r\n\r\n");
        assert_eq!(r.query_value("host"), Some("gpub01"));
        assert_eq!(r.query_value("xid"), Some("74"));
        assert_eq!(r.query_value("from"), Some("1 2"));
    }

    #[test]
    fn canonical_query_sorts_pairs() {
        let a = request("GET /errors?xid=74&host=h HTTP/1.1\r\n\r\n");
        let b = request("GET /errors?host=h&xid=74 HTTP/1.1\r\n\r\n");
        assert_eq!(a.canonical_query(), b.canonical_query());
        assert_eq!(a.canonical_query(), "host=h&xid=74");
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        assert!(!request("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive);
        assert!(!request("GET / HTTP/1.0\r\n\r\n").keep_alive);
        assert!(request("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").keep_alive);
    }

    #[test]
    fn oversized_head_is_too_large() {
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(100));
        let limits = RequestLimits {
            max_head_bytes: 64,
            ..RequestLimits::unbounded()
        };
        assert!(matches!(
            read_request(&mut raw.as_bytes(), &limits),
            ReadOutcome::TooLarge
        ));
    }

    #[test]
    fn empty_stream_is_closed_truncated_is_malformed() {
        assert!(matches!(parse(""), ReadOutcome::Closed));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\n"),
            ReadOutcome::Malformed(_)
        ));
    }

    #[test]
    fn bodies_on_get_and_bad_escapes_are_rejected() {
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc"),
            ReadOutcome::Malformed(_)
        ));
        assert!(matches!(
            parse("GET /%zz HTTP/1.1\r\n\r\n"),
            ReadOutcome::Malformed(_)
        ));
    }

    #[test]
    fn post_reads_exact_body() {
        let r = request("POST /ingest/logs?seq=0 HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"hello");
        assert_eq!(r.query_value("seq"), Some("0"));
    }

    #[test]
    fn post_body_stops_at_declared_length_for_keep_alive() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nabGET /y HTTP/1.1\r\n\r\n";
        let mut stream = &raw[..];
        let limits = RequestLimits::unbounded();
        match read_request(&mut stream, &limits) {
            ReadOutcome::Request(r) => assert_eq!(r.body, b"ab"),
            other => panic!("expected request, got {other:?}"),
        }
        // The next request head begins exactly where the body ended.
        match read_request(&mut stream, &limits) {
            ReadOutcome::Request(r) => assert_eq!(r.path, "/y"),
            other => panic!("expected second request, got {other:?}"),
        }
    }

    #[test]
    fn post_without_content_length_is_411() {
        assert!(matches!(
            parse("POST /ingest/logs HTTP/1.1\r\n\r\n"),
            ReadOutcome::LengthRequired
        ));
    }

    #[test]
    fn post_with_invalid_content_length_is_malformed() {
        for bad in ["abc", "-1", "3.5", ""] {
            let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n");
            assert!(
                matches!(parse(&raw), ReadOutcome::Malformed(_)),
                "Content-Length: {bad:?}"
            );
        }
    }

    #[test]
    fn transfer_encoding_is_always_rejected() {
        for head in [
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            "GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
        ] {
            assert!(matches!(parse(head), ReadOutcome::Malformed(_)), "{head}");
        }
    }

    #[test]
    fn oversized_declared_body_is_rejected_before_reading() {
        let limits = RequestLimits {
            max_body_bytes: 8,
            ..RequestLimits::unbounded()
        };
        // Only the head is on the wire; the verdict must not wait for
        // body bytes that will never arrive.
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n";
        assert!(matches!(
            read_request(&mut &raw[..], &limits),
            ReadOutcome::BodyTooLarge
        ));
    }

    #[test]
    fn body_at_the_cap_is_accepted() {
        let limits = RequestLimits {
            max_body_bytes: 4,
            ..RequestLimits::unbounded()
        };
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
        assert!(matches!(
            read_request(&mut &raw[..], &limits),
            ReadOutcome::Request(_)
        ));
    }

    #[test]
    fn truncated_body_is_malformed() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(matches!(
            read_request(&mut &raw[..], &RequestLimits::unbounded()),
            ReadOutcome::Malformed(_)
        ));
    }

    /// A reader that yields the head at once, then drips body bytes with
    /// a delay — the slowloris-on-body shape.
    struct DripBody {
        head: Vec<u8>,
        pos: usize,
        delay: Duration,
    }

    impl Read for DripBody {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos < self.head.len() {
                let n = buf.len().min(self.head.len() - self.pos);
                buf[..n].copy_from_slice(&self.head[self.pos..self.pos + n]);
                self.pos += n;
                return Ok(n);
            }
            std::thread::sleep(self.delay);
            buf[0] = b'x';
            Ok(1)
        }
    }

    #[test]
    fn slow_body_exceeding_the_budget_times_out() {
        let mut stream = DripBody {
            head: b"POST /x HTTP/1.1\r\nContent-Length: 1000\r\n\r\n".to_vec(),
            pos: 0,
            delay: Duration::from_millis(20),
        };
        let limits = RequestLimits {
            body_timeout: Some(Duration::from_millis(60)),
            ..RequestLimits::unbounded()
        };
        let started = Instant::now();
        assert!(matches!(
            read_request(&mut stream, &limits),
            ReadOutcome::TimedOut
        ));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "budget cut the drip short"
        );
    }

    #[test]
    fn reason_phrases_cover_every_emitted_status() {
        for (status, phrase) in [
            (200, "OK"),
            (400, "Bad Request"),
            (404, "Not Found"),
            (405, "Method Not Allowed"),
            (408, "Request Timeout"),
            (409, "Conflict"),
            (411, "Length Required"),
            (413, "Content Too Large"),
            (429, "Too Many Requests"),
            (503, "Service Unavailable"),
        ] {
            assert_eq!(Response::text(status, "").reason(), phrase);
        }
    }

    #[test]
    fn percent_decode_edge_cases() {
        assert_eq!(percent_decode("a%20b"), Some("a b".to_owned()));
        assert_eq!(percent_decode("a%2"), None);
        assert_eq!(percent_decode("a%gg"), None);
        assert_eq!(percent_decode("plain"), Some("plain".to_owned()));
    }

    #[test]
    fn response_serialization_sets_length_and_connection() {
        let mut out = Vec::new();
        let resp = Response::text(200, "hello").with_header("X-Snapshot", "3");
        write_response(&mut out, &resp, true, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.contains("X-Snapshot: 3\r\n"));
        assert!(text.ends_with("\r\n\r\nhello"));
    }

    #[test]
    fn head_suppresses_body_but_keeps_length() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::text(200, "hello"), false, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n"));
    }

    // ------------------------------------------- incremental parser

    #[test]
    fn incremental_parser_completes_byte_by_byte() {
        let raw = b"POST /ingest/logs?seq=3 HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let mut parser = Parser::new(RequestLimits::unbounded());
        for (i, b) in raw.iter().enumerate() {
            parser.push(std::slice::from_ref(b));
            match parser.poll(None) {
                ParseProgress::NeedMore => assert!(i + 1 < raw.len(), "never completed"),
                ParseProgress::Done(r) => {
                    assert_eq!(i + 1, raw.len(), "completed early at byte {i}");
                    assert_eq!(r.body, b"hello");
                    assert_eq!(r.query_value("seq"), Some("3"));
                }
                ParseProgress::Fail(o) => panic!("failed at byte {i}: {o:?}"),
            }
        }
    }

    #[test]
    fn incremental_parser_keeps_pipelined_leftovers() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nabGET /y HTTP/1.1\r\n\r\n";
        let mut parser = Parser::new(RequestLimits::unbounded());
        parser.push(raw);
        match parser.poll(None) {
            ParseProgress::Done(r) => assert_eq!(r.body, b"ab"),
            other => panic!("first request: {other:?}"),
        }
        match parser.poll(None) {
            ParseProgress::Done(r) => assert_eq!(r.path, "/y"),
            other => panic!("second request: {other:?}"),
        }
        assert!(parser.is_idle());
    }

    #[test]
    fn incremental_parser_matches_one_shot_cap_accounting() {
        // A head whose terminating newline lands one byte past the cap
        // must be TooLarge, exactly like the one-shot reader.
        let raw = b"GET /aaaa HTTP/1.1\r\n\r\n";
        let limits = RequestLimits {
            max_head_bytes: raw.len() - 1,
            ..RequestLimits::unbounded()
        };
        let mut parser = Parser::new(limits);
        parser.push(raw);
        assert!(matches!(
            parser.poll(None),
            ParseProgress::Fail(ReadOutcome::TooLarge)
        ));
        // And at exactly the cap it parses.
        let mut parser = Parser::new(RequestLimits {
            max_head_bytes: raw.len(),
            ..RequestLimits::unbounded()
        });
        parser.push(raw);
        assert!(matches!(parser.poll(None), ParseProgress::Done(_)));
    }

    #[test]
    fn incremental_parser_times_out_dripping_body() {
        let limits = RequestLimits {
            body_timeout: Some(Duration::from_millis(50)),
            ..RequestLimits::unbounded()
        };
        let mut parser = Parser::new(limits);
        parser.push(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\n");
        let t0 = Instant::now();
        assert!(matches!(parser.poll(Some(t0)), ParseProgress::NeedMore));
        parser.push(b"a");
        assert!(matches!(
            parser.poll(Some(t0 + Duration::from_millis(30))),
            ParseProgress::NeedMore
        ));
        parser.push(b"b");
        assert!(matches!(
            parser.poll(Some(t0 + Duration::from_millis(80))),
            ParseProgress::Fail(ReadOutcome::TimedOut)
        ));
    }

    #[test]
    fn incremental_parser_close_matches_eof_verdicts() {
        let mut idle = Parser::new(RequestLimits::unbounded());
        assert!(idle.close().is_none(), "clean EOF between requests");

        let mut mid_head = Parser::new(RequestLimits::unbounded());
        mid_head.push(b"GET /healthz HT");
        let _ = mid_head.poll(None);
        assert!(matches!(
            mid_head.close(),
            Some(ReadOutcome::Malformed("connection closed mid-request"))
        ));

        let mut mid_body = Parser::new(RequestLimits::unbounded());
        mid_body.push(b"POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\nabc");
        let _ = mid_body.poll(None);
        assert!(matches!(
            mid_body.close(),
            Some(ReadOutcome::Malformed("connection closed mid-body"))
        ));
    }
}

//! A minimal HTTP/1.1 client for the load generators: one keep-alive
//! connection, `Content-Length` framing, bounded waits.
//!
//! Anything but a complete `2xx` answer is a failed operation: refusals
//! (`429`, `503`, ...), timeouts, resets and short bodies.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Header pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// Whether the status is `2xx`.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// The first header named `name` (lower case).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request produced no response.
#[derive(Debug)]
pub enum Failure {
    /// No complete response within the read timeout.
    Timeout,
    /// The peer closed or reset the connection.
    Closed,
    /// The bytes were not a response this client understands.
    Malformed(String),
    /// Any other socket error.
    Io(io::Error),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Timeout => f.write_str("timed out"),
            Failure::Closed => f.write_str("connection closed"),
            Failure::Malformed(m) => write!(f, "malformed response: {m}"),
            Failure::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

fn classify(e: io::Error) -> Failure {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => Failure::Timeout,
        io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe
        | io::ErrorKind::UnexpectedEof => Failure::Closed,
        _ => Failure::Io(e),
    }
}

/// A keep-alive connection that reconnects when the server closes it.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Connections opened so far.
    pub connects: u64,
}

impl Client {
    /// A client for `addr`; connects lazily.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Client {
        Client {
            addr,
            timeout,
            stream: None,
            buf: Vec::with_capacity(16 * 1024),
            connects: 0,
        }
    }

    /// Drops the connection; the next request opens a new one.
    pub fn disconnect(&mut self) {
        self.stream = None;
        self.buf.clear();
    }

    fn stream(&mut self) -> Result<&mut TcpStream, Failure> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, self.timeout).map_err(classify)?;
            s.set_nodelay(true).map_err(Failure::Io)?;
            s.set_read_timeout(Some(self.timeout))
                .map_err(Failure::Io)?;
            s.set_write_timeout(Some(self.timeout))
                .map_err(Failure::Io)?;
            self.connects += 1;
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("connected just above"))
    }

    /// Sends one request and reads its response. A failure drops the
    /// connection, so the next request starts clean.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Response, Failure> {
        let result = self.exchange(method, path, body);
        match &result {
            Ok(resp) if resp.header("connection") == Some("close") => self.disconnect(),
            Ok(_) => {}
            Err(_) => self.disconnect(),
        }
        result
    }

    /// `GET path`.
    pub fn get(&mut self, path: &str) -> Result<Response, Failure> {
        self.request("GET", path, b"")
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> Result<Response, Failure> {
        let mut wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        self.stream()?.write_all(&wire).map_err(classify)?;
        self.read_response()
    }

    fn fill(&mut self) -> Result<(), Failure> {
        let mut chunk = [0u8; 16 * 1024];
        let stream = self.stream.as_mut().ok_or(Failure::Closed)?;
        match stream.read(&mut chunk) {
            Ok(0) => Err(Failure::Closed),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) => Err(classify(e)),
        }
    }

    fn read_response(&mut self) -> Result<Response, Failure> {
        let head_end = loop {
            if let Some(i) = find(&self.buf, b"\r\n\r\n") {
                break i + 4;
            }
            if self.buf.len() > 64 * 1024 {
                return Err(Failure::Malformed("response head over 64 KiB".to_owned()));
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| Failure::Malformed("head is not UTF-8".to_owned()))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status: u16 = status_line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| Failure::Malformed(format!("status line {status_line:?}")))?;
        let mut headers = Vec::new();
        for line in lines.filter(|l| !l.is_empty()) {
            let (k, v) = line
                .split_once(':')
                .ok_or_else(|| Failure::Malformed(format!("header line {line:?}")))?;
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_owned()));
        }
        let len: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| Failure::Malformed("no Content-Length".to_owned()))?;
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + len].to_vec();
        self.buf.drain(..head_end + len);
        Ok(Response {
            status,
            headers,
            body,
        })
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    /// Serves `replies` in order on one accepted connection, reading one
    /// request head (and its declared body) before each reply. Returns
    /// how many connections were accepted.
    fn serve(replies: Vec<Vec<u8>>) -> (SocketAddr, thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut pending = Vec::new();
            for reply in replies {
                let mut byte = [0u8; 1];
                while find(&pending, b"\r\n\r\n").is_none() {
                    conn.read_exact(&mut byte).unwrap();
                    pending.push(byte[0]);
                }
                let head = String::from_utf8(pending.clone()).unwrap();
                let len: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                    .map_or(0, |v| v.trim().parse().unwrap());
                let mut body = vec![0u8; len];
                conn.read_exact(&mut body).unwrap();
                pending.clear();
                conn.write_all(&reply).unwrap();
            }
            listener.set_nonblocking(true).unwrap();
            1 + usize::from(listener.accept().is_ok())
        });
        (addr, join)
    }

    fn reply(status: &str, body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 {status}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn reads_content_length_bodies_and_reuses_the_connection() {
        let (addr, join) = serve(vec![reply("200 OK", "hello"), reply("200 OK", "")]);
        let mut c = Client::new(addr, Duration::from_secs(5));
        let a = c.request("POST", "/ingest/logs?seq=0", b"abc").unwrap();
        assert!(a.ok());
        assert_eq!(a.body, b"hello");
        let b = c.get("/healthz").unwrap();
        assert_eq!(b.status, 200);
        assert!(b.body.is_empty());
        assert_eq!(c.connects, 1);
        assert_eq!(join.join().unwrap(), 1);
    }

    #[test]
    fn refusals_are_not_ok() {
        let (addr, _join) = serve(vec![
            reply("429 Too Many Requests", "slow down\n"),
            reply("503 Service Unavailable", "busy\n"),
        ]);
        let mut c = Client::new(addr, Duration::from_secs(5));
        let a = c.get("/x").unwrap();
        assert_eq!(a.status, 429);
        assert!(!a.ok());
        let b = c.get("/x").unwrap();
        assert_eq!(b.status, 503);
        assert!(!b.ok());
    }

    #[test]
    fn a_silent_server_times_out() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut c = Client::new(addr, Duration::from_millis(100));
        match c.get("/slow") {
            Err(Failure::Timeout) => {}
            other => panic!("expected a timeout, got {other:?}"),
        }
        drop(listener);
    }

    #[test]
    fn a_short_body_is_a_failure() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut head = [0u8; 256];
            let _ = conn.read(&mut head).unwrap();
            conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort")
                .unwrap();
        });
        let mut c = Client::new(addr, Duration::from_secs(5));
        let out = c.get("/x");
        join.join().unwrap();
        assert!(matches!(out, Err(Failure::Closed)), "{out:?}");
    }

    #[test]
    fn connection_close_forces_a_reconnect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = thread::spawn(move || {
            for _ in 0..2 {
                let (mut conn, _) = listener.accept().unwrap();
                let mut head = [0u8; 256];
                let _ = conn.read(&mut head).unwrap();
                conn.write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok",
                )
                .unwrap();
            }
        });
        let mut c = Client::new(addr, Duration::from_secs(5));
        assert_eq!(c.get("/a").unwrap().body, b"ok");
        assert_eq!(c.get("/b").unwrap().body, b"ok");
        join.join().unwrap();
        assert_eq!(c.connects, 2);
    }
}

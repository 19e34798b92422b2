//! End-to-end smoke for `delta-serve --access-log`: a real spawned
//! server process must emit one Common Log Format line per request on
//! stderr, while stdout stays reserved for the operator banner.
//!
//! The serving CI job tails this format with standard tooling
//! (`awk '{print $9}'`, `grep ' 500 '` and friends), so the shape is
//! load-bearing: `host - - [day/mon/year:h:m:s +0000] "METHOD target
//! HTTP/1.1" status bytes`. The target is percent-encoded, so a query
//! string cannot add a line, close the quoted field or shift a field.

use servd::testutil::get_on;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

struct Server {
    child: Child,
    addr: String,
    stderr: mpsc::Receiver<String>,
}

/// Spawns `delta-serve` in batch mode over the clean fixture log with
/// the access log on, and captures both output streams.
fn spawn_server() -> Server {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/clean.log");
    let mut child = Command::new(env!("CARGO_BIN_EXE_delta_serve"))
        .args([
            fixture.to_str().expect("utf-8 fixture path"),
            "--addr",
            "127.0.0.1:0",
            "--year",
            "2022",
            "--access-log",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("delta-serve spawns");

    let stdout = child.stdout.take().expect("piped stdout");
    let (out_tx, out_rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if out_tx.send(line).is_err() {
                break;
            }
        }
    });
    let stderr = child.stderr.take().expect("piped stderr");
    let (err_tx, err_rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            if err_tx.send(line).is_err() {
                break;
            }
        }
    });

    let addr = loop {
        let line = out_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("delta-serve printed its address before the deadline");
        if let Some(rest) = line.split("serving on http://").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .expect("address after scheme")
                .to_owned();
        }
    };
    Server {
        child,
        addr,
        stderr: err_rx,
    }
}

impl Server {
    fn connect(&self) -> TcpStream {
        for _ in 0..50 {
            if let Ok(conn) = TcpStream::connect(&self.addr) {
                conn.set_nodelay(true).expect("TCP_NODELAY");
                return conn;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("could not connect to {}", self.addr);
    }
}

/// A query value that decodes to a line break, a quote and spaces: logged
/// raw, it would write a second, forged CLF line.
const FORGERY: &str = "/healthz?note=a%0A127.0.0.1%20-%20-%20%5Bforged%5D%20%22GET+/x";

/// One spawned server, four requests, four well-formed CLF lines on
/// stderr — including the query string, a non-200 status, and a query
/// value that tries to forge a line of its own.
#[test]
fn access_log_emits_common_log_format_on_stderr() {
    let mut server = spawn_server();
    let mut conn = server.connect();

    let healthz = get_on(&mut conn, "/healthz");
    assert_eq!(healthz.status, 200);
    // The delta-serve binary traces by default: the access log and the
    // trace header come from the same wired-up observability state.
    assert!(
        healthz.header("X-Trace-Id").is_some(),
        "delta-serve default config should trace"
    );
    let errors = get_on(&mut conn, "/errors?host=gpub001");
    assert_eq!(errors.status, 200);
    let missing = get_on(&mut conn, "/nosuchpath");
    assert_eq!(missing.status, 404);
    let forgery = get_on(&mut conn, FORGERY);
    assert_eq!(forgery.status, 200);
    drop(conn);

    // Collect stderr until all four lines are in (the writes are
    // line-buffered per request, but give the pipe a moment).
    let mut lines: Vec<String> = Vec::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while std::time::Instant::now() < deadline {
        while let Ok(line) = server.stderr.try_recv() {
            lines.push(line);
        }
        if lines.iter().filter(|l| l.contains(" - - [")).count() >= 4 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    server.child.kill().expect("SIGKILL delivered");
    server.child.wait().expect("child reaped");
    while let Ok(line) = server.stderr.try_recv() {
        lines.push(line);
    }

    let clf: Vec<&String> = lines.iter().filter(|l| l.contains(" - - [")).collect();
    assert!(
        clf.len() >= 3,
        "want 3 access-log lines, got {}: {lines:?}",
        clf.len()
    );
    // The forging request logs exactly one line, its decoded value
    // re-encoded, with the status where `awk '{print $9}'` reads it.
    let forged: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains("note=") || l.contains("forged"))
        .collect();
    assert_eq!(
        forged.len(),
        1,
        "one line for the forging request: {lines:?}"
    );
    let line = forged[0];
    assert!(
        line.starts_with("127.0.0.1 - - ["),
        "CLF host field: {line}"
    );
    assert!(
        line.contains(
            "\"GET /healthz?note=a%0A127.0.0.1%20-%20-%20%5Bforged%5D%20%22GET%20/x HTTP/1.1\" 200 "
        ),
        "escaped target: {line}"
    );
    assert_eq!(
        line.split_whitespace().nth(8),
        Some("200"),
        "status in field 9: {line}"
    );
    for (needle, status) in [
        ("\"GET /healthz HTTP/1.1\" 200 ", 200),
        ("\"GET /errors?host=gpub001 HTTP/1.1\" 200 ", 200),
        ("\"GET /nosuchpath HTTP/1.1\" 404 ", 404),
    ] {
        let line = clf
            .iter()
            .find(|l| l.contains(needle))
            .unwrap_or_else(|| panic!("no CLF line for {needle:?} ({status}) in {clf:?}"));
        assert!(
            line.starts_with("127.0.0.1 - - ["),
            "CLF host field: {line}"
        );
        assert!(line.contains(" +0000] \""), "CLF timestamp field: {line}");
        let bytes = line
            .rsplit(' ')
            .next()
            .and_then(|n| n.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("CLF body-bytes field not numeric: {line}"));
        if status == 200 {
            assert!(bytes > 0, "200 responses have bodies: {line}");
        }
    }
}

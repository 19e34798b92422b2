//! The multi-year differential: a small campaign whose window straddles
//! 2022-12-31, written as per-day syslog files plus the CSV exports, and
//! read back by every binary that runs Stage I. Syslog stamps carry no
//! year, so this is where the scan's New Year rule is proven end to end.
//!
//! * Clean corpus: `delta_cli analyze` prints exactly the per-file-year
//!   reference `tests/cli_analyze.rs` builds (each day file into an
//!   `Archive` under its named year, then `Pipeline::run`); batch
//!   `delta_serve` serves that reference's Tables I–III, Fig. 2 and
//!   `/errors`; live ingest started with `--year 2022` converges to the
//!   same bodies at 1 KiB, 64 KiB and whole-corpus chunks, and across a
//!   restart between the December and the January chunks.
//! * 5% chaos: analyze, batch serve and live ingest agree with each
//!   other, and each quarantines exactly the lines the injector
//!   corrupted.

use delta_gpu_resilience::cli;
use delta_gpu_resilience::prelude::*;
use hpclog::archive::Archive;
use hpclog::chaos::{ChaosConfig, ChaosInjector, ChaosStats};
use resilience::csvio;
use servd::testutil::{connect, get_on, request_on};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;

const SCALE: f64 = 0.01;
const SEED: u64 = 0x2023;
/// The starting year live ingest is given; the stream crosses into 2023.
const START_YEAR: &str = "2022";
/// The served surfaces every leg compares.
const SURFACES: [&str; 5] = ["/tables/1", "/tables/2", "/tables/3", "/fig2", "/errors"];

// ---------------------------------------------------------------- corpus

/// One campaign written to disk in `delta_cli simulate`'s layout.
struct Corpus {
    dir: PathBuf,
    /// `(file name, bytes)` per day, in date order.
    days: Vec<(String, Vec<u8>)>,
    gpu_csv: String,
    cpu_csv: String,
    out_csv: String,
    /// What the injector did, for a corrupted corpus.
    chaos: Option<ChaosStats>,
}

impl Corpus {
    /// `analyze` and batch `delta_serve` arguments for the files.
    fn inputs(&self) -> Vec<String> {
        let path = |name: &str| self.dir.join(name).display().to_string();
        vec![
            path("logs"),
            "--jobs".to_owned(),
            path("gpu_jobs.csv"),
            "--cpu-jobs".to_owned(),
            path("cpu_jobs.csv"),
            "--outages".to_owned(),
            path("outages.csv"),
        ]
    }

    /// The day files' bytes, concatenated in date order.
    fn log(&self) -> Vec<u8> {
        self.days
            .iter()
            .flat_map(|(_, b)| b.iter().copied())
            .collect()
    }

    /// Bytes of the day files dated 2022, which precede the 2023 ones.
    fn december_len(&self) -> usize {
        self.days
            .iter()
            .filter(|(name, _)| cli::year_from_filename(Path::new(name)) == Some(2022))
            .map(|(_, b)| b.len())
            .sum()
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("multi-year-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Simulates the campaign with its scaled calendar shifted so that the
/// window's midpoint is 2023-01-01 (perfbench's corpus shifts its window
/// the same way to straddle the op boundary), optionally corrupts the
/// rendered lines with one injector across all days, and writes the day
/// files and CSVs under a fresh directory.
fn corpus(tag: &str, chaos_rate: f64) -> Corpus {
    let scaled = StudyPeriods::delta_scaled(SCALE);
    let half = Duration::from_secs((scaled.op.end - scaled.pre_op.start).as_secs() / 2);
    let new_year = Timestamp::from_ymd_hms(2023, 1, 1, 0, 0, 0).expect("valid instant");
    let shift = new_year - (scaled.pre_op.start + half);
    let periods = StudyPeriods {
        pre_op: Period::new(scaled.pre_op.start + shift, scaled.pre_op.end + shift),
        op: Period::new(scaled.op.start + shift, scaled.op.end + shift),
    };
    let mut config = FaultConfig::delta_scaled(SCALE);
    config.periods = periods;
    config.seed = SEED;
    if let Some(storm) = config.storm.as_mut() {
        storm.start = storm.start + shift;
    }
    let campaign = Campaign::new(config).run();
    let cluster = Cluster::new(campaign.config.spec);
    let mut workload = WorkloadConfig::delta_scaled(SCALE);
    workload.window = periods.op;
    let outcome =
        Simulation::new(&cluster, workload, SEED).run(&campaign.ground_truth, &campaign.holds);

    let mut injector = (chaos_rate > 0.0)
        .then(|| ChaosInjector::new(ChaosConfig::uniform_with_duplicates(chaos_rate, 0.02, SEED)));
    let mut days: Vec<(u64, Vec<u8>)> = Vec::new();
    for line in campaign.archive.iter() {
        let day = line.time.day_number();
        if days.last().map(|(d, _)| *d) != Some(day) {
            days.push((day, Vec::new()));
        }
        let out = &mut days.last_mut().expect("a day was just pushed").1;
        let rendered = line.to_string();
        match injector.as_mut() {
            Some(injector) => injector.corrupt_line(line.time, &rendered, out),
            None => {
                out.extend_from_slice(rendered.as_bytes());
                out.push(b'\n');
            }
        }
    }
    let days: Vec<(String, Vec<u8>)> = days
        .into_iter()
        .map(|(day, bytes)| {
            let (y, m, d) = Timestamp::from_unix(day * 86_400).ymd();
            (format!("syslog-{y:04}{m:02}{d:02}.log"), bytes)
        })
        .collect();

    let dir = scratch(tag);
    std::fs::create_dir_all(dir.join("logs")).expect("logs dir");
    for (name, bytes) in &days {
        std::fs::write(dir.join("logs").join(name), bytes).expect("write day file");
    }
    let c = Corpus {
        dir,
        days,
        gpu_csv: csvio::render_jobs(&bridge::jobs(&outcome.jobs)),
        cpu_csv: csvio::render_jobs(&bridge::jobs(&outcome.cpu_jobs)),
        out_csv: csvio::render_outages(&bridge::outages(campaign.ledger.outages())),
        chaos: injector.map(|i| i.stats()),
    };
    for (name, text) in [
        ("gpu_jobs.csv", &c.gpu_csv),
        ("cpu_jobs.csv", &c.cpu_csv),
        ("outages.csv", &c.out_csv),
    ] {
        std::fs::write(c.dir.join(name), text).expect("write export");
    }
    let december = c.december_len();
    assert!(
        december > 0 && december < c.log().len(),
        "the window must straddle New Year"
    );
    c
}

// ------------------------------------------------------------- reference

/// The per-file-year reference: each day file into an `Archive` under the
/// year its name carries, then `Pipeline::run`; returns the report and
/// the stdout `analyze` prints for it.
fn reference(c: &Corpus) -> (StudyReport, String) {
    let mut archive = Archive::new();
    let mut skipped = 0;
    for (name, bytes) in &c.days {
        let year = cli::year_from_filename(Path::new(name)).expect("dated file name");
        let text = std::str::from_utf8(bytes).expect("clean corpus is UTF-8");
        skipped += archive.ingest_day(text, year).1;
    }
    let gpu_jobs = csvio::parse_jobs(&c.gpu_csv).expect("gpu jobs");
    let cpu_jobs = csvio::parse_jobs(&c.cpu_csv).expect("cpu jobs");
    let outages = csvio::parse_outages(&c.out_csv).expect("outages");
    assert!(!gpu_jobs.is_empty() && !outages.is_empty());
    let report = Pipeline::delta().run(&archive, &gpu_jobs, &cpu_jobs, &outages);
    let stdout = format!(
        "ingested {} lines over {} days ({skipped} unparseable lines skipped)\n\
         \n=== Table I ===\n{}\n=== Table II ===\n{}\n=== Table III ===\n{}\n\
         === Figure 2 ===\n{}\n=== Findings ===\n{}\n",
        archive.line_count(),
        archive.day_count(),
        report::table1(&report),
        report::table2(&report),
        report::table3(&report),
        report::figure2(&report),
        Findings::evaluate(&report),
    );
    (report, stdout)
}

/// The report's bodies for [`SURFACES`], as the server renders them.
fn surfaces_of(report: &StudyReport) -> Vec<String> {
    let mut errors = String::from("time,host,pci,xid,kind,merged_lines\n");
    for e in &report.errors {
        let _ = writeln!(
            errors,
            "{},{},{},{},{},{}",
            e.time,
            e.host,
            e.pci,
            e.kind.primary_code(),
            e.kind.abbreviation(),
            e.merged_lines
        );
    }
    vec![
        report::table1(report),
        report::table2(report),
        report::table3(report),
        report::figure2(report),
        errors,
    ]
}

// -------------------------------------------------------------- binaries

/// `delta_cli analyze` over the corpus: `(stdout, stderr)`.
fn analyze(c: &Corpus) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_delta_cli"))
        .arg("analyze")
        .args(c.inputs())
        .output()
        .expect("spawn delta_cli");
    let text = |b: &[u8]| String::from_utf8(b.to_vec()).expect("UTF-8 output");
    assert!(out.status.success(), "{}", text(&out.stderr));
    (text(&out.stdout), text(&out.stderr))
}

/// A spawned `delta_serve` and the address it printed.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(args: &[String]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_delta_serve"))
            .args(args)
            .args(["--addr", "127.0.0.1:0", "--whatif-workers", "0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn delta_serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        // Drain stdout for the process's whole life, so it never blocks.
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let addr = loop {
            let line = rx
                .recv_timeout(std::time::Duration::from_secs(120))
                .expect("delta_serve printed its address");
            if let Some(rest) = line.split("serving on http://").nth(1) {
                break rest.split_whitespace().next().expect("address").to_owned();
            }
        };
        Server { child, addr }
    }

    /// A live-ingest server over `dir` that publishes only at a flush.
    fn live(dir: &Path) -> Server {
        Server::start(&[
            "--ingest-dir".to_owned(),
            dir.display().to_string(),
            "--year".to_owned(),
            START_YEAR.to_owned(),
            "--publish-events".to_owned(),
            u32::MAX.to_string(),
            "--publish-secs".to_owned(),
            "86400".to_owned(),
        ])
    }

    fn connect(&self) -> TcpStream {
        connect(&*self.addr)
    }

    /// The bodies of [`SURFACES`].
    fn surfaces(&self) -> Vec<String> {
        let mut conn = self.connect();
        SURFACES
            .iter()
            .map(|path| {
                let resp = get_on(&mut conn, path);
                assert_eq!(resp.status, 200, "{path}: {}", resp.text());
                resp.text()
            })
            .collect()
    }

    /// Log lines this process quarantined, from its `/metrics`.
    fn quarantined(&self) -> u64 {
        let metrics = get_on(&mut self.connect(), "/metrics").text();
        metrics
            .lines()
            .filter(|l| l.starts_with("hpclog_lines_quarantined_total"))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum::<f64>() as u64
    }

    /// Kills the process and returns what it wrote to stderr.
    fn kill(mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let mut stderr = String::new();
        if let Some(mut pipe) = self.child.stderr.take() {
            let _ = pipe.read_to_string(&mut stderr);
        }
        stderr
    }
}

impl Drop for Server {
    /// A failed assertion must not leave the server running.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// POSTs one chunk, backing off while the admission queue sheds with 429.
fn post(conn: &mut TcpStream, stream: &str, seq: u64, payload: &[u8]) {
    for _ in 0..10_000 {
        let resp = request_on(
            conn,
            "POST",
            &format!("/ingest/{stream}?seq={seq}"),
            payload,
        );
        match resp.status {
            200 => return,
            429 => std::thread::sleep(std::time::Duration::from_millis(2)),
            other => panic!(
                "POST /ingest/{stream}?seq={seq} -> {other}: {}",
                resp.text()
            ),
        }
    }
    panic!("chunk {stream}/{seq} never accepted");
}

/// POSTs `log` in `chunk`-byte pieces from sequence number `seq`;
/// returns the next one.
fn post_log(conn: &mut TcpStream, log: &[u8], chunk: usize, mut seq: u64) -> u64 {
    for piece in log.chunks(chunk) {
        post(conn, "logs", seq, piece);
        seq += 1;
    }
    seq
}

/// POSTs the three exports whole.
fn post_exports(conn: &mut TcpStream, c: &Corpus) {
    post(conn, "jobs", 0, c.gpu_csv.as_bytes());
    post(conn, "cpu-jobs", 0, c.cpu_csv.as_bytes());
    post(conn, "outages", 0, c.out_csv.as_bytes());
}

fn flush(conn: &mut TcpStream) {
    let resp = request_on(conn, "POST", "/ingest/flush", b"");
    assert_eq!(resp.status, 200, "flush: {}", resp.text());
}

/// Live ingest of the whole corpus in `chunk`-byte log POSTs, with its
/// state under the corpus directory.
fn ingest(c: &Corpus, tag: &str, chunk: usize) -> Server {
    let server = Server::live(&c.dir.join(tag));
    let mut conn = server.connect();
    post_log(&mut conn, &c.log(), chunk, 0);
    post_exports(&mut conn, c);
    flush(&mut conn);
    server
}

fn assert_same(got: &[String], expected: &[String], context: &str) {
    for ((path, got), expected) in SURFACES.iter().zip(got).zip(expected) {
        assert_eq!(got, expected, "{context}: {path} differs");
    }
}

// ----------------------------------------------------------------- tests

#[test]
fn clean_analyze_and_batch_serve_match_the_per_file_year_reference() {
    let c = corpus("clean-batch", 0.0);
    let (report, stdout) = reference(&c);
    assert!(
        report.errors.iter().any(|e| e.time.ymd().0 == 2022)
            && report.errors.iter().any(|e| e.time.ymd().0 == 2023),
        "errors on both sides of New Year"
    );
    let (got, stderr) = analyze(&c);
    assert_eq!(got, stdout);
    assert_eq!(stderr, "");

    let server = Server::start(&c.inputs());
    assert_same(&server.surfaces(), &surfaces_of(&report), "batch serve");
    assert_eq!(server.kill(), "");
    let _ = std::fs::remove_dir_all(&c.dir);
}

#[test]
fn clean_live_ingest_matches_at_every_chunking_and_across_a_restart() {
    let c = corpus("clean-live", 0.0);
    let expected = surfaces_of(&reference(&c).0);
    for chunk in [1024, 64 * 1024, usize::MAX] {
        let server = ingest(&c, &format!("live-{chunk}"), chunk);
        assert_same(&server.surfaces(), &expected, &format!("chunk {chunk}"));
        assert_eq!(server.quarantined(), 0, "chunk {chunk}");
        server.kill();
    }

    // Restart between the December and the January chunks: the
    // checkpoint written at the flush must carry the scan's December
    // reference, or the January lines would read as 2022.
    let dir = c.dir.join("live-restart");
    let log = c.log();
    let (december, january) = log.split_at(c.december_len());
    let server = Server::live(&dir);
    let next = post_log(&mut server.connect(), december, 64 * 1024, 0);
    flush(&mut server.connect());
    server.kill();
    let server = Server::live(&dir);
    let mut conn = server.connect();
    post_log(&mut conn, january, 64 * 1024, next);
    post_exports(&mut conn, &c);
    flush(&mut conn);
    assert_same(&server.surfaces(), &expected, "restart");
    server.kill();
    let _ = std::fs::remove_dir_all(&c.dir);
}

#[test]
fn chaos_corpus_reads_the_same_through_every_binary() {
    let c = corpus("chaos", 0.05);
    let stats = c.chaos.expect("a corrupted corpus");
    let quarantinable = stats.quarantinable();
    assert!(quarantinable > 0, "{stats:?}");

    let (stdout, analyze_stderr) = analyze(&c);
    let first = stdout.lines().next().unwrap_or_default();
    assert!(
        first.ends_with(&format!("({quarantinable} unparseable lines skipped)")),
        "{first} vs {stats:?}"
    );

    let batch = Server::start(&c.inputs());
    let served = batch.surfaces();
    assert_eq!(batch.quarantined(), quarantinable, "batch serve");
    // Both binaries print the scan's caveats the same way.
    let caveats = |stderr: &str| -> Vec<String> {
        stderr
            .lines()
            .filter(|l| l.starts_with("caveat:"))
            .map(str::to_owned)
            .collect()
    };
    assert_eq!(caveats(&batch.kill()), caveats(&analyze_stderr));
    let sections = format!(
        "\n=== Table I ===\n{}\n=== Table II ===\n{}\n=== Table III ===\n{}\n\
         === Figure 2 ===\n{}\n=== Findings ===\n",
        served[0], served[1], served[2], served[3]
    );
    assert!(stdout.contains(&sections), "analyze and serve disagree");

    let live = ingest(&c, "live", 64 * 1024);
    assert_same(&live.surfaces(), &served, "chaos live ingest");
    assert_eq!(live.quarantined(), quarantinable, "live ingest");
    live.kill();
    let _ = std::fs::remove_dir_all(&c.dir);
}

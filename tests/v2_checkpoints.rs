//! Checkpoints written in format 2, which stored each job export's rows,
//! still restore now that checkpoints store the job index (format 3).
//! The fixtures under `tests/fixtures/v2/` were written by the last
//! build that wrote format 2 (`tests/fixtures/README.md` names it and
//! the command that rewrites them) from the inputs beside them: the
//! whole log, then the first half of each CSV, which ends mid-row.
//!
//! - `engine.ckpt`, a bare engine checkpoint, restored and fed the rest
//!   of its inputs, finalizes byte-identical to the batch run.
//! - `ingest/`, a `delta_serve --ingest-dir` directory (a format-2
//!   envelope plus a write-ahead log holding the rest of the GPU
//!   export), recovers to the `/tables/1`–`3` that build served, then
//!   takes the rest of the inputs and converges to the batch run, before
//!   and after a restart from its new format-3 checkpoint.

use delta_gpu_resilience::prelude::*;
use resilience::checkpoint::Checkpoint;
use resilience::incremental::StreamingPipeline;
use servd::testutil;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

const YEAR: i32 = 2023;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v2")
}

fn read(name: &str) -> String {
    std::fs::read_to_string(fixture_dir().join(name)).expect("fixture reads")
}

/// The fixture inputs: the log, the GPU, CPU and outage exports.
fn inputs() -> [String; 4] {
    ["log", "gpu_jobs.csv", "cpu_jobs.csv", "outages.csv"].map(read)
}

/// The part of a CSV the fixtures were not fed: from byte `len / 2`.
fn rest(csv: &str) -> &str {
    &csv[csv.len() / 2..]
}

fn batch() -> (StudyReport, QuarantineReport) {
    let [log, gpu, cpu, outages] = inputs();
    Pipeline::delta().run_lenient(log.as_bytes(), YEAR, &gpu, &cpu, &outages)
}

#[test]
fn a_v2_engine_checkpoint_finalizes_like_the_batch_run() {
    let bytes = std::fs::read(fixture_dir().join("engine.ckpt")).expect("fixture reads");
    let v2 = Checkpoint::from_bytes(bytes).expect("a readable header");
    assert_eq!(v2.version(), 2);
    let mut engine = StreamingPipeline::restore(&v2).expect("a format-2 checkpoint restores");
    let [log, gpu, cpu, outages] = inputs();
    assert_eq!(engine.log_bytes_fed(), log.len() as u64);
    engine.finish_log();
    engine.push_gpu_jobs_csv(rest(&gpu));
    engine.push_cpu_jobs_csv(rest(&cpu));
    engine.push_outages_csv(rest(&outages));
    let (report, quarantine) = engine.finalize();
    let (want, want_q) = batch();
    assert!(
        want.impact.gpu_failed_jobs() > 0,
        "the fixture joins no job"
    );
    assert_eq!(report::full(&report), report::full(&want));
    assert_eq!(quarantine.ledger.counts(), want_q.ledger.counts());
    assert_eq!(quarantine.ledger.exemplars(), want_q.ledger.exemplars());
    assert_eq!(quarantine.caveats, want_q.caveats);
}

/// A spawned `delta_serve --ingest-dir`, SIGKILLed when dropped.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn spawn(dir: &Path) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_delta_serve"))
            .args(["--ingest-dir", dir.to_str().expect("utf-8 path")])
            .args(["--addr", "127.0.0.1:0", "--year", &YEAR.to_string()])
            .args(["--publish-events", "1000000000", "--publish-secs", "100000"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("delta_serve spawns");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let addr = loop {
            let line = rx
                .recv_timeout(Duration::from_secs(60))
                .expect("delta_serve printed its address");
            if let Some(rest) = line.split("serving on http://").nth(1) {
                break rest
                    .split_whitespace()
                    .next()
                    .expect("an address")
                    .to_owned();
            }
        };
        Server { child, addr }
    }

    fn request(&self, method: &str, path: &str, body: &[u8]) -> String {
        let mut conn: TcpStream = testutil::connect(&*self.addr);
        let resp = testutil::request_on(&mut conn, method, path, body);
        assert_eq!(resp.status, 200, "{method} {path}: {}", resp.text());
        resp.text()
    }

    fn tables(&self) -> [String; 3] {
        [1, 2, 3].map(|n| self.request("GET", &format!("/tables/{n}"), b""))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn a_v2_ingest_directory_recovers_to_the_same_tables() {
    let dir = std::env::temp_dir().join(format!("v2-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for entry in std::fs::read_dir(fixture_dir().join("ingest")).expect("fixture dir") {
        let entry = entry.expect("fixture entry");
        std::fs::copy(entry.path(), dir.join(entry.file_name())).expect("fixture copies");
    }

    let server = Server::spawn(&dir);
    assert_eq!(
        server.tables(),
        ["table1.txt", "table2.txt", "table3.txt"].map(read),
        "a recovered format-2 directory serves other tables than the build that wrote it"
    );

    // The rest of the inputs (the write-ahead log already holds the rest
    // of the GPU export), then a publish, which writes format 3.
    let [_, _, cpu, outages] = inputs();
    server.request("POST", "/ingest/cpu-jobs?seq=1", rest(&cpu).as_bytes());
    server.request("POST", "/ingest/outages?seq=1", rest(&outages).as_bytes());
    server.request("POST", "/ingest/flush", b"");
    let (want, _) = batch();
    let want = [
        report::table1(&want),
        report::table2(&want),
        report::table3(&want),
    ];
    assert_eq!(server.tables(), want, "after the rest of the inputs");
    drop(server);

    let ckpt = std::fs::read(servd::ingest::checkpoint_path(&dir)).expect("a checkpoint");
    assert_eq!(
        Checkpoint::from_bytes(ckpt).expect("a header").version(),
        Checkpoint::VERSION
    );
    let server = Server::spawn(&dir);
    assert_eq!(server.tables(), want, "after a restart from format 3");
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

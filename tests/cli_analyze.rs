//! `delta_cli analyze` driven as a process: its stdout against the
//! in-process pipeline, the stage spans its `--metrics-out` exports, and
//! the error order it keeps while the CSV decodes overlap the log ingest.
//!
//! The `--periods auto` stdout is pinned by a committed golden. To
//! regenerate it after an *intentional* change:
//!
//! ```text
//! BLESS=1 cargo test --test cli_analyze
//! git diff tests/fixtures/golden/   # review what moved, then commit
//! ```

use delta_gpu_resilience::cli;
use delta_gpu_resilience::prelude::*;
use hpclog::archive::Archive;
use resilience::csvio;
use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cli-analyze-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn delta_cli<I, S>(args: I) -> Output
where
    I: IntoIterator<Item = S>,
    S: AsRef<OsStr>,
{
    Command::new(env!("CARGO_BIN_EXE_delta_cli"))
        .args(args)
        .output()
        .expect("spawn delta_cli")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("UTF-8 output")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap()
}

/// The `analyze` arguments for a dataset `simulate` wrote to `dir`.
fn analyze_args(dir: &Path) -> Vec<PathBuf> {
    let mut args = vec![PathBuf::from("analyze"), dir.join("logs")];
    for (flag, file) in [
        ("--jobs", "gpu_jobs.csv"),
        ("--cpu-jobs", "cpu_jobs.csv"),
        ("--outages", "outages.csv"),
    ] {
        args.extend([PathBuf::from(flag), dir.join(file)]);
    }
    args
}

/// What `analyze` prints for the dataset in `dir`, computed in process:
/// the serial ingest, `Pipeline::run` and the report renderers, laid out
/// as the benchmark's oracle lays them out.
fn expected_stdout(dir: &Path) -> String {
    let logs = dir.join("logs").display().to_string();
    let mut archive = Archive::new();
    let mut skipped = 0;
    for file in cli::collect_log_files(&[logs]).unwrap() {
        let year = cli::year_from_filename(&file).expect("simulate names files by date");
        skipped += archive.ingest_day(&read(&file), year).1;
    }
    let gpu_jobs = csvio::parse_jobs(&read(&dir.join("gpu_jobs.csv"))).unwrap();
    let cpu_jobs = csvio::parse_jobs(&read(&dir.join("cpu_jobs.csv"))).unwrap();
    let outages = csvio::parse_outages(&read(&dir.join("outages.csv"))).unwrap();
    // The layout below prints every section, which `analyze` does only
    // when both exports have rows.
    assert!(!gpu_jobs.is_empty() && !outages.is_empty());
    let report = Pipeline::delta().run(&archive, &gpu_jobs, &cpu_jobs, &outages);
    format!(
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
    )
}

#[test]
fn analyze_stdout_matches_in_process_pipeline() {
    let dir = simulate_small("oracle");
    let out = delta_cli(analyze_args(&dir));
    assert!(out.status.success(), "{}", text(&out.stderr));
    assert_eq!(text(&out.stdout), expected_stdout(&dir));

    // Each CSV export decodes under its own span, counting its rows, and
    // is read in blocks, each read a span counting its bytes; the
    // printing and every day file read have theirs. The job exports
    // decode into their indexes, so no index is built after the join.
    let prom = dir.join("metrics.prom");
    let mut args = analyze_args(&dir);
    args.extend([PathBuf::from("--metrics-out"), prom.clone()]);
    let out = delta_cli(args);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let csvs = ["gpu_jobs.csv", "cpu_jobs.csv", "outages.csv"].map(|f| read(&dir.join(f)));
    let rows: usize = csvs.iter().map(|csv| csv.lines().skip(1).count()).sum();
    let bytes: usize = csvs.iter().map(String::len).sum();
    let metrics = read(&prom);
    assert!(
        metrics.contains("obs_span_count{span=\"stage_csv\"} 3\n"),
        "one stage_csv per export: {metrics}"
    );
    assert!(
        metrics.contains(&format!("obs_span_items{{span=\"stage_csv\"}} {rows}\n")),
        "{metrics}"
    );
    assert!(
        metrics.contains(&format!(
            "obs_span_items{{span=\"stage_csv_read\"}} {bytes}\n"
        )),
        "the CSV reads cover every byte: {metrics}"
    );
    assert!(
        metrics.contains("obs_span_count{span=\"stage_render\"} 1\n"),
        "{metrics}"
    );
    assert!(
        !metrics.contains("span=\"stage_job_index\""),
        "no index build on the batch path: {metrics}"
    );
    let day_files = cli::collect_log_files(&[dir.join("logs").display().to_string()])
        .unwrap()
        .len();
    assert!(
        metrics.contains(&format!(
            "obs_span_count{{span=\"stage_read\"}} {day_files}\n"
        )),
        "one stage_read per day file: {metrics}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Simulates `simulate --scale 0.01 --seed 7` into a fresh scratch dir.
fn simulate_small(tag: &str) -> PathBuf {
    let dir = scratch(tag);
    let mut args: Vec<&OsStr> = ["simulate", "--scale", "0.01", "--seed", "7", "--out"]
        .map(OsStr::new)
        .to_vec();
    args.push(dir.as_os_str());
    let out = delta_cli(args);
    assert!(out.status.success(), "{}", text(&out.stderr));
    dir
}

/// `--periods auto` infers the calendar from the data span (log lines
/// and job records), so the whole stdout, including the inferred
/// calendar line, is pinned.
#[test]
fn analyze_periods_auto_matches_golden() {
    let dir = simulate_small("periods-auto");
    let mut args = analyze_args(&dir);
    args.extend([PathBuf::from("--periods"), PathBuf::from("auto")]);
    let out = delta_cli(args);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden/analyze_periods_auto.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&golden, &stdout).expect("write golden file");
    } else {
        let expect = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); regenerate with \
                 BLESS=1 cargo test --test cli_analyze",
                golden.display()
            )
        });
        assert_eq!(
            stdout,
            expect,
            "analyze --periods auto drifted from {}; if intentional, regenerate with \
             BLESS=1 cargo test --test cli_analyze and review the diff",
            golden.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bad bytes in a day file are quarantined, never fatal: an invalid UTF-8
/// byte and a truncated line both count as skipped, and the caveat they
/// raise goes to stderr in the form `delta_serve` prints.
#[test]
fn bad_log_lines_are_skipped_not_fatal() {
    let dir = scratch("bad-lines");
    let log = dir.join("syslog-20230105.log");
    let mut bytes = Vec::new();
    bytes.extend_from_slice(
        b"Jan  5 10:00:00 gpub001 kernel: NVRM: Xid (PCI:0000:07:00): 119, GSP timeout\n",
    );
    bytes.extend_from_slice(b"Jan  5 10:00:01 gpub001 kernel: usb \xFF device\n");
    bytes.extend_from_slice(b"Jan  5 10:0\n");
    bytes.extend_from_slice(b"Jan  5 10:00:02 gpub001 kernel: usb 1-1 connected\n");
    std::fs::write(&log, bytes).unwrap();

    let out = delta_cli([PathBuf::from("analyze"), log]);
    assert_eq!(out.status.code(), Some(0), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(
        stdout.starts_with("ingested 2 lines over 1 days (2 unparseable lines skipped)\n"),
        "{stdout}"
    );
    assert_eq!(
        text(&out.stderr),
        "caveat: HighRejectRate { rejected: 2, seen: 4 }\n"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn input_errors_keep_the_serial_order() {
    let dir = scratch("errors");
    let log = dir.join("syslog-20230105.log");
    std::fs::write(
        &log,
        "Jan  5 10:00:00 gpub001 kernel: NVRM: Xid (PCI:0000:07:00): 119, GSP timeout\n",
    )
    .unwrap();
    let bad_jobs = dir.join("gpu_jobs.csv");
    std::fs::write(&bad_jobs, format!("{}\n1,a,b\n", csvio::JOB_HEADER)).unwrap();
    let bad_cpu = dir.join("cpu_jobs.csv");
    std::fs::write(&bad_cpu, "not a header\n").unwrap();
    let bad_outages = dir.join("outages.csv");
    std::fs::write(&bad_outages, format!("{}\nx\n", csvio::OUTAGE_HEADER)).unwrap();
    let missing = dir.join("no-such-logs");
    let flag = |f: &str| PathBuf::from(f);

    // A log error wins over any CSV error, and nothing was ingested.
    let out = delta_cli([
        flag("analyze"),
        missing.clone(),
        flag("--jobs"),
        bad_jobs.clone(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = text(&out.stderr);
    assert!(
        stderr.starts_with(&format!(
            "error: {}: no such file or directory\n",
            missing.display()
        )),
        "{stderr}"
    );
    assert!(!stderr.contains("CSV line"), "{stderr}");
    assert_eq!(text(&out.stdout), "");

    // With good logs, the first failing export in flag order is reported,
    // after the ingest line is already out.
    let out = delta_cli([
        flag("analyze"),
        log.clone(),
        flag("--jobs"),
        bad_jobs.clone(),
        flag("--cpu-jobs"),
        bad_cpu.clone(),
        flag("--outages"),
        bad_outages.clone(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        text(&out.stderr),
        "error: gpu-jobs export: CSV line 2: expected 8 fields, got 3\n"
    );
    assert_eq!(
        text(&out.stdout),
        "ingested 1 lines over 1 days (0 unparseable lines skipped)\n"
    );

    let out = delta_cli([
        flag("analyze"),
        log.clone(),
        flag("--cpu-jobs"),
        bad_cpu,
        flag("--outages"),
        bad_outages.clone(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = text(&out.stderr);
    assert!(
        stderr.starts_with("error: cpu-jobs export: CSV line 1: expected header"),
        "{stderr}"
    );

    // A missing export is a read error in the same slot of the order.
    let absent = dir.join("absent.csv");
    let out = delta_cli([
        flag("analyze"),
        log.clone(),
        flag("--jobs"),
        absent.clone(),
        flag("--outages"),
        bad_outages,
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = text(&out.stderr);
    assert!(
        stderr.starts_with(&format!("error: reading {}: ", absent.display())),
        "{stderr}"
    );

    // Bytes that are not UTF-8 anywhere in an export are a read error,
    // even after a malformed row: the export reads as if read whole
    // before any row is decoded.
    let late_bad_bytes = dir.join("late.csv");
    let mut bytes = format!("{}\n1,a,b\n", csvio::JOB_HEADER).into_bytes();
    bytes.extend_from_slice(b"\xFF\n");
    std::fs::write(&late_bad_bytes, bytes).unwrap();
    let out = delta_cli([
        flag("analyze"),
        log.clone(),
        flag("--jobs"),
        late_bad_bytes.clone(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        text(&out.stderr),
        format!(
            "error: reading {}: stream did not contain valid UTF-8\n",
            late_bad_bytes.display()
        )
    );

    // A bad `--window` comes after the ingest line and the inputs.
    let out = delta_cli([flag("analyze"), log, flag("--window"), flag("x")]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        text(&out.stderr).starts_with("error: bad --window \"x\"\n"),
        "{}",
        text(&out.stderr)
    );
    assert_eq!(
        text(&out.stdout),
        "ingested 1 lines over 1 days (0 unparseable lines skipped)\n"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A missing log path fails before any export is opened. The `--jobs`
/// export here is a FIFO that no writer ever opens, so opening it would
/// block for good: the run must end with the log error on its own.
#[test]
fn a_missing_log_fails_before_any_export_is_opened() {
    let dir = scratch("fifo");
    let fifo = dir.join("gpu_jobs.fifo");
    let made = Command::new("mkfifo").arg(&fifo).status();
    assert!(made.expect("spawn mkfifo").success(), "mkfifo failed");
    let missing = dir.join("no-such-logs");
    let mut child = Command::new(env!("CARGO_BIN_EXE_delta_cli"))
        .args([OsStr::new("analyze"), missing.as_os_str()])
        .args([OsStr::new("--jobs"), fifo.as_os_str()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn delta_cli");
    let deadline = Instant::now() + Duration::from_secs(30);
    while child.try_wait().expect("poll delta_cli").is_none() {
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_dir_all(&dir);
            panic!("analyze with a missing log still ran after 30 s: it opened --jobs");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let out = child.wait_with_output().expect("collect delta_cli output");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(1));
    let stderr = text(&out.stderr);
    assert!(
        stderr.starts_with(&format!(
            "error: {}: no such file or directory\n",
            missing.display()
        )),
        "{stderr}"
    );
    assert_eq!(text(&out.stdout), "");
}

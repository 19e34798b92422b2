//! `ingest`: `delta_serve --ingest-dir` on an empty directory, with one
//! writer and one reader.
//!
//! The writer POSTs the corpus with `?seq=`: log bytes in fixed-size
//! chunks, the CSV streams line-aligned, the streams interleaved by byte
//! share, and a `POST /ingest/flush` barrier every [`FLUSH_EVERY`] chunks
//! (below the admission queue's 256, so the writer never provokes a
//! `429`). The reader requests the dashboard set at a fixed open-loop
//! rate. This is the write path (WAL, queue, streaming engine, publish)
//! beside reads; it rebuilds the same store as `query` at every publish.
//!
//! Publishes are pinned to the flush barrier (`--publish-events` and
//! `--publish-secs` set out of reach), so every pass does the same work.

use super::{guards, med, prom_labeled, prom_sum, q, self_time, Ctx, Outcome};
use crate::client::Client;
use crate::corpus::Corpus;
use crate::oracle::Oracle;
use crate::procs::start_server;
use crate::spans::Recorder;
use delta_gpu_resilience::prelude::*;
use resilience::checkpoint::write_atomic;
use resilience::StreamingPipeline;
use servd::ingest::{IngestStream, Offer};
use servd::{IngestConfig, StoreHandle, StudyStore};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Bytes per log chunk (CSV chunks are cut at the last line end within it).
pub const CHUNK_BYTES: usize = 256 * 1024;
/// Chunks between `POST /ingest/flush` barriers.
pub const FLUSH_EVERY: usize = 16;
/// The reader's open-loop rate, requests per second.
const READ_RATE: f64 = 200.0;
/// The reader reconnects after this many requests, so a single accept
/// decision (which event-loop thread owns the connection) cannot decide
/// a run.
const READER_RECONNECT: u64 = 20;
/// Spawn-only probes per run for `setup_s`, besides each pass's server.
const SETUP_PROBES: usize = 12;
/// Cadence flags that keep publishes on the flush barrier only.
const PINNED_CADENCE: [&str; 4] = [
    "--publish-events",
    "1000000000000",
    "--publish-secs",
    "1000000",
];

/// One POST of the writer.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// Target stream.
    pub stream: IngestStream,
    /// Per-stream sequence number.
    pub seq: u64,
    /// Payload.
    pub bytes: Vec<u8>,
}

/// Cuts `data` into chunks of at most [`CHUNK_BYTES`]; `line_aligned`
/// cuts after the last newline within the limit instead.
fn cut(data: &[u8], line_aligned: bool) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut rest = data;
    while !rest.is_empty() {
        let mut n = rest.len().min(CHUNK_BYTES);
        if line_aligned && n < rest.len() {
            if let Some(nl) = rest[..n].iter().rposition(|&b| b == b'\n') {
                n = nl + 1;
            }
        }
        out.push(rest[..n].to_vec());
        rest = &rest[n..];
    }
    out
}

/// The writer's chunk sequence: each stream cut into chunks, then
/// interleaved so every stream advances by the same byte share.
pub fn plan(corpus: &Corpus) -> Vec<Chunk> {
    let streams = [
        (IngestStream::Logs, cut(&corpus.log_bytes(), false)),
        (IngestStream::GpuJobs, cut(corpus.gpu_csv.as_bytes(), true)),
        (IngestStream::CpuJobs, cut(corpus.cpu_csv.as_bytes(), true)),
        (
            IngestStream::Outages,
            cut(corpus.outages_csv.as_bytes(), true),
        ),
    ];
    let totals: Vec<f64> = streams
        .iter()
        .map(|(_, c)| c.iter().map(Vec::len).sum::<usize>().max(1) as f64)
        .collect();
    let mut sent = [0usize; 4];
    let mut next = [0usize; 4];
    let mut out = Vec::new();
    loop {
        let pick = (0..4)
            .filter(|&i| next[i] < streams[i].1.len())
            .min_by(|&a, &b| (sent[a] as f64 / totals[a]).total_cmp(&(sent[b] as f64 / totals[b])));
        let Some(i) = pick else { break };
        let bytes = streams[i].1[next[i]].clone();
        sent[i] += bytes.len();
        out.push(Chunk {
            stream: streams[i].0,
            seq: next[i] as u64,
            bytes,
        });
        next[i] += 1;
    }
    out
}

/// Per-stream chunk counts of a plan, in [`IngestStream::ALL`] order.
fn counts(plan: &[Chunk]) -> [u64; 4] {
    let mut n = [0u64; 4];
    for c in plan {
        if let Some(i) = IngestStream::ALL.iter().position(|s| *s == c.stream) {
            n[i] += 1;
        }
    }
    n
}

fn server_args(dir: &std::path::Path, year: i32) -> Vec<String> {
    let mut args = vec![
        "--ingest-dir".to_owned(),
        dir.display().to_string(),
        "--year".to_owned(),
        year.to_string(),
    ];
    args.extend(PINNED_CADENCE.iter().map(|s| (*s).to_owned()));
    args
}

/// What one pass (fresh server, whole corpus) measured.
#[derive(Debug, Default)]
struct Pass {
    ack_ms: Vec<f64>,
    flush_ms: Vec<f64>,
    read_ms: Vec<f64>,
    secs: f64,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: String,
    rss_mib: f64,
}

fn reader(addr: std::net::SocketAddr, seed: u64, stop: &AtomicBool) -> (Vec<f64>, u64, u64) {
    let mut client = Client::new(addr, Duration::from_secs(60));
    let mut rng = Rng::seed_from(seed).fork(0x1A6E57);
    let (mut lat, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
    let start = Instant::now();
    let period = Duration::from_secs_f64(1.0 / READ_RATE);
    while !stop.load(Ordering::Relaxed) {
        let due = start + period * attempted as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if attempted > 0 && attempted % READER_RECONNECT == 0 {
            client.disconnect();
        }
        let path = super::query::DASHBOARD[rng.range_u64(8) as usize];
        attempted += 1;
        match client.get(path) {
            Ok(r) if r.ok() => lat.push(due.elapsed().as_secs_f64() * 1e3),
            _ => failed += 1,
        }
    }
    (lat, attempted, failed)
}

fn pass(
    ctx: &Ctx,
    k: usize,
    plan: &[Chunk],
    year: i32,
    oracle: &Oracle,
) -> Result<(Pass, f64), String> {
    let dir = ctx.dir.join(format!("ingest-{k}"));
    let server = start_server(
        &ctx.bins.serve,
        &server_args(&dir, year),
        &ctx.dir.join(format!("ingest-{k}.log")),
    )?;
    let setup = server.setup.as_secs_f64();
    let mut p = Pass::default();
    let stop = AtomicBool::new(false);
    let (read_lat, read_attempted, read_failed) =
        std::thread::scope(|scope| -> Result<_, String> {
            let reader = scope.spawn(|| reader(server.addr, ctx.seed + k as u64, &stop));
            let mut w = Client::new(server.addr, Duration::from_secs(120));
            let started = Instant::now();
            for (i, chunk) in plan.iter().enumerate() {
                let path = format!("/ingest/{}?seq={}", chunk.stream.name(), chunk.seq);
                p.attempted += 1;
                let sent = Instant::now();
                match w.request("POST", &path, &chunk.bytes) {
                    Ok(r) if r.status == 200 => p.ack_ms.push(sent.elapsed().as_secs_f64() * 1e3),
                    Ok(r) => {
                        p.failed += 1;
                        p.problems.push(format!("{path} answered {}", r.status));
                    }
                    Err(e) => {
                        p.failed += 1;
                        p.problems.push(format!("{path}: {e}"));
                    }
                }
                if (i + 1) % FLUSH_EVERY == 0 || i + 1 == plan.len() {
                    p.attempted += 1;
                    let sent = Instant::now();
                    match w.request("POST", "/ingest/flush", b"") {
                        Ok(r) if r.status == 200 => {
                            p.flush_ms.push(sent.elapsed().as_secs_f64() * 1e3)
                        }
                        Ok(r) => {
                            p.failed += 1;
                            p.problems
                                .push(format!("/ingest/flush answered {}", r.status));
                        }
                        Err(e) => {
                            p.failed += 1;
                            p.problems.push(format!("/ingest/flush: {e}"));
                        }
                    }
                }
            }
            p.secs = started.elapsed().as_secs_f64();
            stop.store(true, Ordering::Relaxed);
            reader
                .join()
                .map_err(|_| "ingest reader panicked".to_owned())
        })?;
    p.read_ms = read_lat;
    p.attempted += read_attempted;
    p.failed += read_failed;

    // After the last flush everything acked is visible.
    let mut c = Client::new(server.addr, Duration::from_secs(30));
    let status = c
        .get("/ingest/status")
        .map_err(|e| format!("/ingest/status: {e}"))?;
    let status = String::from_utf8_lossy(&status.body).into_owned();
    let want = counts(plan);
    for (i, stream) in IngestStream::ALL.iter().enumerate() {
        let expect = format!(
            "\"{}\":{{\"accepted\":{n},\"applied\":{n}}}",
            stream.name(),
            n = want[i]
        );
        if !status.contains(&expect) {
            p.problems
                .push(format!("/ingest/status lacks {expect}: {}", status.trim()));
            p.failed += 1;
        }
    }
    for path in ["/tables/1", "/tables/2", "/tables/3", "/fig2"] {
        let body = c.get(path).map_err(|e| format!("{path}: {e}"))?;
        if Some(String::from_utf8_lossy(&body.body).into_owned()) != oracle.surface(path) {
            p.problems.push(format!(
                "{path} after the last flush differs from the oracle"
            ));
            p.failed += 1;
        }
    }
    p.metrics = String::from_utf8_lossy(
        &c.get("/metrics")
            .map_err(|e| format!("/metrics: {e}"))?
            .body,
    )
    .into_owned();
    let traces = c
        .get("/debug/traces?slowest=20")
        .map_err(|e| format!("/debug/traces: {e}"))?;
    super::dump_traces(ctx, "ingest", &traces.body)?;
    p.rss_mib = server
        .proc
        .peak_rss_mib()
        .ok_or("delta_serve exited early")?;
    Ok((p, setup))
}

/// The measured run: set-up probes, then whole-corpus passes on fresh
/// servers until the measuring time is used (at least one).
pub fn run(ctx: &Ctx, corpus: &Corpus, oracle: &Oracle) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let plan = plan(corpus);
    let bytes: usize = plan.iter().map(|c| c.bytes.len()).sum();
    let mut setups = Vec::new();
    for k in 0..SETUP_PROBES {
        let dir = ctx.dir.join(format!("probe-{k}"));
        let s = start_server(
            &ctx.bins.serve,
            &server_args(&dir, corpus.year),
            &ctx.dir.join("probe.log"),
        )?;
        setups.push(s.setup.as_secs_f64());
    }
    let (mut acks, mut flushes, mut reads) = (Vec::new(), Vec::new(), Vec::new());
    let (mut secs, mut passes, mut rss) = (0.0, 0usize, 0.0f64);
    let mut metrics = String::new();
    let started = Instant::now();
    while passes == 0 || started.elapsed() < ctx.seconds {
        let (p, setup) = pass(ctx, passes, &plan, corpus.year, oracle)?;
        setups.push(setup);
        acks.extend(p.ack_ms);
        flushes.extend(p.flush_ms);
        reads.extend(p.read_ms);
        secs += p.secs;
        out.attempted += p.attempted;
        out.failed += p.failed;
        out.problems.extend(p.problems.into_iter().take(5));
        rss = rss.max(p.rss_mib);
        metrics = p.metrics;
        passes += 1;
    }

    out.setup_s = med(&setups);
    // The unit operation is the flush barrier: acked → visible.
    out.p50_ms = q(&flushes, 0.5);
    out.tail_ms = q(&flushes, 0.9);
    out.ops_per_s = acks.len() as f64 / secs;
    out.peak_rss_mib = rss;
    out.name("setup_s", out.setup_s, "s");
    out.name(
        "ingest_mib_s",
        (bytes * passes) as f64 / secs / (1024.0 * 1024.0),
        "MiB/s",
    );
    out.name("ack_p50_ms", q(&acks, 0.5), "ms");
    out.name("ack_p99_ms", q(&acks, 0.99), "ms");
    out.name("flush_p50_ms", out.p50_ms, "ms");
    out.name("flush_p90_ms", out.tail_ms, "ms");
    out.name("read_p50_us", q(&reads, 0.5) * 1e3, "us");
    out.name("read_p99_us", q(&reads, 0.99) * 1e3, "us");
    out.name("peak_rss_mib", rss, "MiB");
    out.name("passes", passes as f64, "count");
    out.name_fail_ratio();

    if ctx.trace {
        let layers = &mut out.layers;
        let span = "span=\"servd_ingest_publish\"";
        let publishes = prom_labeled(&metrics, "obs_span_count", span);
        layers.insert(
            "servd.publishes",
            prom_sum(&metrics, "servd_ingest_publishes_total"),
        );
        layers.insert(
            "servd.publish_ms",
            prom_labeled(&metrics, "obs_span_total_us", span) / 1e3 / publishes.max(1.0),
        );
        layers.insert(
            "servd.publish_max_ms",
            prom_labeled(&metrics, "obs_span_max_us", span) / 1e3,
        );
        guards(&metrics, &mut out.layers);
        trace(ctx, corpus, &plan, &mut out)?;
    }
    Ok(out)
}

/// The traced run: the chunk stream through `servd::ingest::recover` and
/// `offer` with a worker running, then the worker's publish steps
/// (materialize, store build, checkpoint encode, checkpoint write)
/// re-executed one by one on the same chunk stream.
fn trace(ctx: &Ctx, corpus: &Corpus, plan: &[Chunk], out: &mut Outcome) -> Result<(), String> {
    let rec = Recorder::new();
    let wall = Instant::now();
    let dir = ctx.dir.join("ingest-traced");
    let mut config = IngestConfig::new(&dir);
    config.publish_every_events = u64::MAX;
    config.publish_every = Duration::from_secs(1_000_000);
    let recovered = servd::ingest::recover(config, Pipeline::delta(), corpus.year)
        .map_err(|e| format!("recover: {e}"))?;
    let (report, quarantine) = recovered.engine.materialize_full();
    let store = std::sync::Arc::new(StoreHandle::new(StudyStore::build(
        report,
        Some(&quarantine),
    )));
    let worker = servd::ingest::spawn_worker(
        recovered.engine,
        std::sync::Arc::clone(&recovered.handle),
        store,
    );
    let handle = recovered.handle;
    for (i, chunk) in plan.iter().enumerate() {
        let step = i as u64 + 1;
        let offer = rec.span("servd.offer", step, || {
            handle.offer(chunk.stream, Some(chunk.seq), &chunk.bytes)
        });
        if !matches!(offer, Offer::Accepted { .. }) {
            out.problem(format!("in-process offer {i} answered {offer:?}"));
        }
        if (i + 1) % FLUSH_EVERY == 0 || i + 1 == plan.len() {
            rec.span("servd.flush", step, || handle.flush())
                .map_err(|e| format!("flush: {e}"))?;
        }
    }
    worker.stop();

    let mut engine = StreamingPipeline::new(Pipeline::delta(), corpus.year);
    let ckpt = ctx.dir.join("ingest-traced-replica.ckpt");
    let mut ckpt_bytes = 0usize;
    for (i, chunk) in plan.iter().enumerate() {
        let step = i as u64 + 1;
        rec.span("core.stream_push", step, || match chunk.stream {
            IngestStream::Logs => engine.push_log(&chunk.bytes),
            IngestStream::GpuJobs => {
                engine.push_gpu_jobs_csv(&String::from_utf8_lossy(&chunk.bytes))
            }
            IngestStream::CpuJobs => {
                engine.push_cpu_jobs_csv(&String::from_utf8_lossy(&chunk.bytes))
            }
            IngestStream::Outages => {
                engine.push_outages_csv(&String::from_utf8_lossy(&chunk.bytes))
            }
        });
        if (i + 1) % FLUSH_EVERY == 0 || i + 1 == plan.len() {
            rec.span("servd.publish_steps", step, || -> Result<(), String> {
                let (report, quarantine) =
                    rec.span("core.materialize", step, || engine.materialize_full());
                std::hint::black_box(rec.span("servd.store_build", step, || {
                    StudyStore::build(report, Some(&quarantine))
                }));
                let checkpoint = rec.span("core.checkpoint", step, || engine.checkpoint());
                ckpt_bytes = checkpoint.as_bytes().len();
                rec.span("core.checkpoint_write", step, || {
                    write_atomic(&ckpt, checkpoint.as_bytes())
                })
                .map_err(|e| format!("{}: {e}", ckpt.display()))
            })?;
        }
    }
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
    let layers = &mut out.layers;
    layers.insert("servd.offer_us", self_time(&rec, "servd.offer", 1e3, true));
    layers.insert(
        "core.stream_push_ms",
        self_time(&rec, "core.stream_push", 1e6, false),
    );
    layers.insert(
        "core.materialize_ms",
        self_time(&rec, "core.materialize", 1e6, false),
    );
    layers.insert(
        "servd.store_build_ms",
        self_time(&rec, "servd.store_build", 1e6, false),
    );
    layers.insert(
        "core.checkpoint_ms",
        self_time(&rec, "core.checkpoint", 1e6, false),
    );
    layers.insert(
        "core.checkpoint_write_ms",
        self_time(&rec, "core.checkpoint_write", 1e6, false),
    );
    layers.insert("core.checkpoint_bytes", ckpt_bytes as f64);
    layers.insert("trace.wall_ms", wall_ms);
    super::write_spans(ctx.root, "ingest", ctx.seed, &rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_aligned_chunks_end_at_newlines_and_cover_the_input() {
        let line = b"0123456789abcdef0123456789abcdef\n";
        let data: Vec<u8> = line
            .iter()
            .copied()
            .cycle()
            .take(line.len() * 20_000)
            .collect();
        let chunks = cut(&data, true);
        assert!(chunks.len() > 1);
        assert!(chunks
            .iter()
            .all(|c| c.ends_with(b"\n") && c.len() <= CHUNK_BYTES));
        assert_eq!(chunks.concat(), data);
        let raw = cut(&data, false);
        assert!(raw[..raw.len() - 1].iter().all(|c| c.len() == CHUNK_BYTES));
        assert_eq!(raw.concat(), data);
    }
}

//! Live ingest: bounded admission, a write-ahead log, a publish cadence,
//! and crash recovery for a read-write `servd`.
//!
//! The read path (store/router/cache) never blocks on ingest; this module
//! is everything on the write path:
//!
//! ```text
//!   POST /ingest/{logs,jobs,cpu-jobs,outages}?seq=N
//!        │ offer(): dedup check → queue-full check → WAL append → ack
//!        ▼
//!   IngestHandle ── Mutex<{queue, accepted[], wal}> ── bounded, 429 on full
//!        │ pop (single worker thread)
//!        ▼
//!   StreamingPipeline ── publish cadence (N events or T seconds)
//!        │ publish = view → swap → checkpoint → compaction
//!        ▼
//!   materialize_full() (a view: open tails copied, job index read)
//!   → StoreHandle.publish_study() (store build + atomic swap)
//!   → checkpoint (encode + temp + fsync + rename) → WAL compaction
//! ```
//!
//! The checkpoint is an envelope around the engine's own checkpoint,
//! which the engine encodes straight into it. Since format 3 that holds
//! each job export's index, not its rows; recovery still reads a
//! format-2 envelope.
//!
//! Each publish step is its own `obs` span inside `servd_ingest_publish`
//! (`servd_ingest_materialize`, `servd_store_build`,
//! `servd_ingest_checkpoint`, `servd_ingest_wal_compact`), so `/metrics`
//! splits a live publish the way an offline trace would. Applying each
//! queued chunk to the engine is a `servd_ingest_apply` span counting the
//! chunk's bytes, so the worker's share of a flush barrier shows beside
//! the publish.
//!
//! # The recovery invariant
//!
//! A `200` on `/ingest/*` means the chunk survives a process kill, not a
//! power loss or kernel crash (ROADMAP item 6, "Honest durability"): the
//! chunk's bytes are written to the write-ahead log *before* the response
//! is written, but the append is not fsynced, so they may still sit in
//! the page cache.
//! The WAL is only compacted after a checkpoint capturing those bytes'
//! effect has been fsynced and atomically renamed into place. At every
//! instant
//!
//! ```text
//!   engine state in checkpoint  +  WAL records ≥ applied counts
//!       =  every acknowledged chunk, exactly once, in acceptance order
//! ```
//!
//! so [`recover`] after a SIGKILL rebuilds exactly the acknowledged
//! prefix: restore the checkpointed engine, then re-apply WAL records at
//! or beyond the checkpoint's per-stream applied counts, stopping at the
//! first torn record (a torn tail can only be an *unacknowledged* write,
//! because the ack happens after the append returns).
//!
//! # Exactly-once re-POST
//!
//! A client that crashes mid-upload (or never saw an ack the server did
//! write) can replay its chunks safely by numbering them: `?seq=N` is the
//! zero-based per-stream chunk index. A chunk below the accepted count is
//! acknowledged as a duplicate without being re-applied; a chunk beyond
//! it is refused with `409` (the client skipped something); only the
//! exact next chunk is admitted. `GET /ingest/status` reports the
//! accepted counts so a restarted client knows where to resume. Chunks
//! POSTed without `seq` are applied unconditionally (at-least-once).
//!
//! # Backpressure
//!
//! Admission is a bounded queue ahead of the single worker. A full queue
//! answers `429` with a `Retry-After` — load is *shed*, never buffered,
//! so slow materialization can cost an uploader a retry but can never
//! grow server memory or stall the GET path.

use crate::admission::AdmissionPolicy;
use crate::store::StoreHandle;
use resilience::checkpoint::{write_atomic, Checkpoint, CheckpointError, Decoder, Encoder};
use resilience::incremental::StreamingPipeline;
use resilience::Pipeline;
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Checkpoint file name inside the ingest directory.
const CKPT_FILE: &str = "ingest.ckpt";
/// Write-ahead log file name inside the ingest directory.
const WAL_FILE: &str = "wal.log";
/// Envelope tag distinguishing an ingest checkpoint from a bare engine
/// checkpoint (both share the container magic).
const ENVELOPE_TAG: &str = "servd-ingest-v1";
/// Fixed bytes of a WAL record ahead of the payload:
/// `u32` payload length, `u64` checksum, `u8` stream tag, `u64` seq.
const RECORD_HEADER: usize = 4 + 8 + 1 + 8;

/// One ingestible input stream, mirroring the batch pipeline's four
/// inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestStream {
    /// Raw syslog bytes (`POST /ingest/logs`).
    Logs,
    /// GPU job export CSV (`POST /ingest/jobs`).
    GpuJobs,
    /// CPU job export CSV (`POST /ingest/cpu-jobs`).
    CpuJobs,
    /// Outage export CSV (`POST /ingest/outages`).
    Outages,
}

impl IngestStream {
    /// Every stream, in tag order.
    pub const ALL: [IngestStream; 4] = [
        IngestStream::Logs,
        IngestStream::GpuJobs,
        IngestStream::CpuJobs,
        IngestStream::Outages,
    ];

    /// The `/ingest/<segment>` path segment naming this stream.
    pub fn name(self) -> &'static str {
        match self {
            IngestStream::Logs => "logs",
            IngestStream::GpuJobs => "jobs",
            IngestStream::CpuJobs => "cpu-jobs",
            IngestStream::Outages => "outages",
        }
    }

    /// Resolves a `/ingest/<segment>` path segment.
    pub fn from_segment(segment: &str) -> Option<Self> {
        IngestStream::ALL.into_iter().find(|s| s.name() == segment)
    }

    fn index(self) -> usize {
        match self {
            IngestStream::Logs => 0,
            IngestStream::GpuJobs => 1,
            IngestStream::CpuJobs => 2,
            IngestStream::Outages => 3,
        }
    }

    fn tag(self) -> u8 {
        self.index() as u8
    }

    fn from_tag(tag: u8) -> Option<Self> {
        IngestStream::ALL.get(tag as usize).copied()
    }
}

/// Ingest tunables. `dir` is where the WAL and checkpoint live; the rest
/// have serviceable defaults.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Durable state directory (created if missing).
    pub dir: PathBuf,
    /// Queue slots ahead of the worker; an offer beyond this is `429`.
    pub queue_capacity: usize,
    /// Publish after this many new input lines…
    pub publish_every_events: u64,
    /// …or after this long with unpublished input, whichever first.
    pub publish_every: Duration,
}

impl IngestConfig {
    /// A config with defaults, rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        IngestConfig {
            dir: dir.into(),
            queue_capacity: 256,
            publish_every_events: 5_000,
            publish_every: Duration::from_secs(2),
        }
    }

    /// Seconds suggested to a shed client via `Retry-After`.
    const RETRY_AFTER_SECS: u32 = 1;

    /// The shared shed contract this queue enforces.
    pub fn admission(&self) -> AdmissionPolicy {
        AdmissionPolicy {
            rejected_metric: "servd_ingest_rejected_total",
            queue_capacity: self.queue_capacity,
            retry_after_secs: Self::RETRY_AFTER_SECS,
        }
    }
}

/// Why ingest could not be set up or made durable.
#[derive(Debug)]
pub enum IngestError {
    /// A filesystem operation on the ingest directory failed.
    Io {
        /// What was being done, e.g. `"opening the write-ahead log"`.
        what: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The on-disk ingest checkpoint is structurally invalid. (Cannot
    /// arise from a crash — checkpoints land via atomic rename — so this
    /// means external corruption; refusing to serve beats silently
    /// dropping acknowledged data.)
    Checkpoint(CheckpointError),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io { what, path, source } => {
                write!(f, "{what} {}: {source}", path.display())
            }
            IngestError::Checkpoint(e) => write!(f, "ingest checkpoint: {e}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Io { source, .. } => Some(source),
            IngestError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<CheckpointError> for IngestError {
    fn from(e: CheckpointError) -> Self {
        IngestError::Checkpoint(e)
    }
}

/// The verdict on one offered chunk, rendered by the router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Offer {
    /// Admitted: WAL'd, queued, will be applied. Carries the assigned
    /// per-stream sequence number.
    Accepted {
        /// The chunk's zero-based per-stream index.
        seq: u64,
    },
    /// `seq` was below the accepted count — already in the WAL, not
    /// re-applied. Acknowledged `200` so blind client replays converge.
    Duplicate {
        /// The stream's accepted count (next expected `seq`).
        accepted: u64,
    },
    /// `seq` was beyond the accepted count — the client skipped a chunk;
    /// `409`.
    Gap {
        /// The `seq` the server expected.
        expected: u64,
    },
    /// The queue is full — `429` + `Retry-After`; nothing was written.
    Overloaded {
        /// Suggested client back-off, seconds.
        retry_after_secs: u32,
    },
    /// The server is draining for shutdown; `503`.
    Unavailable,
    /// The WAL append failed — the chunk is NOT durable and was not
    /// acknowledged; `503` with the error text.
    WalFailed(String),
}

/// One accepted-but-unapplied chunk.
#[derive(Debug, Clone)]
struct Record {
    stream: IngestStream,
    seq: u64,
    payload: Vec<u8>,
}

/// What the worker should do next.
enum Step {
    Apply(Record),
    Flush(u64),
    Tick,
    Shutdown,
}

/// Mutable ingest state, all behind one mutex.
#[derive(Debug)]
struct State {
    queue: VecDeque<Record>,
    /// Per-stream count of acknowledged chunks (== next expected seq).
    accepted: [u64; 4],
    /// Per-stream count of chunks the worker has fed to the engine
    /// (status mirror; the worker's own copy is authoritative for
    /// checkpoints).
    applied: [u64; 4],
    wal: Option<std::fs::File>,
    wal_bytes: u64,
    flush_requested: u64,
    flush_completed: u64,
    shutdown: bool,
    worker_running: bool,
    publishes: u64,
    last_snapshot: u64,
    last_error: Option<String>,
}

/// The write path's health snapshot, as `/readyz` reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyStats {
    /// Accepted-but-unapplied chunks waiting for the worker.
    pub queue_depth: usize,
    /// Bytes of WAL not yet folded into a checkpoint.
    pub wal_bytes: u64,
    /// Whether the ingest worker thread is alive.
    pub worker_running: bool,
}

/// The shared ingest front end: admission control, durability, and the
/// status surface. Construct via [`recover`], which also replays any
/// surviving WAL into the engine it returns.
#[derive(Debug)]
pub struct IngestHandle {
    config: IngestConfig,
    state: Mutex<State>,
    /// Wakes the worker (new record, flush request, shutdown).
    work: Condvar,
    /// Wakes flush waiters and the final join.
    done: Condvar,
}

/// [`recover`]'s result: the handle plus the engine positioned at the
/// exact acknowledged prefix.
#[derive(Debug)]
pub struct Recovered {
    /// The admission front end, ready for [`spawn_worker`].
    pub handle: Arc<IngestHandle>,
    /// The streaming engine, restored from the checkpoint with surviving
    /// WAL records re-applied.
    pub engine: StreamingPipeline,
    /// Per-stream chunk counts already inside `engine` (what a resuming
    /// client sees as the accepted counts).
    pub accepted: [u64; 4],
    /// How many WAL records were re-applied beyond the checkpoint.
    pub replayed: u64,
}

impl IngestHandle {
    fn lock(&self) -> MutexGuard<'_, State> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// The ingest configuration.
    pub fn config(&self) -> &IngestConfig {
        &self.config
    }

    /// Offers one chunk for ingest. On [`Offer::Accepted`] the bytes are
    /// already written to the WAL, so they survive a process kill, not a
    /// power loss or kernel crash (ROADMAP item 6, "Honest durability") —
    /// the caller can acknowledge `200`.
    pub fn offer(&self, stream: IngestStream, seq: Option<u64>, payload: &[u8]) -> Offer {
        let i = stream.index();
        let mut state = self.lock();
        if state.shutdown {
            return Offer::Unavailable;
        }
        let expected = state.accepted[i];
        match seq {
            Some(s) if s < expected => {
                drop(state);
                if obs::is_enabled() {
                    obs::counter(
                        "servd_ingest_duplicates_total",
                        &[("stream", stream.name())],
                    )
                    .inc();
                }
                return Offer::Duplicate { accepted: expected };
            }
            Some(s) if s > expected => {
                drop(state);
                if obs::is_enabled() {
                    obs::counter("servd_ingest_rejected_total", &[("reason", "gap")]).inc();
                }
                return Offer::Gap { expected };
            }
            _ => {}
        }
        if let Err(retry_after_secs) = self.config.admission().admit(state.queue.len()) {
            drop(state);
            return Offer::Overloaded { retry_after_secs };
        }
        // Durability before acknowledgement: the record must be in the
        // WAL before accepted[] moves (and before the caller writes 200).
        let record = Record {
            stream,
            seq: expected,
            payload: payload.to_vec(),
        };
        let encoded = encode_record(&record);
        let result = match state.wal.as_mut() {
            Some(file) => file.write_all(&encoded).and_then(|()| file.flush()),
            None => Err(io::Error::other("write-ahead log is not open")),
        };
        if let Err(e) = result {
            // The WAL handle may have written a partial record; replay
            // tolerates a torn tail, but further appends could land after
            // the tear. Drop the handle so subsequent offers fail fast
            // instead of corrupting the log.
            state.wal = None;
            drop(state);
            if obs::is_enabled() {
                obs::counter("servd_ingest_rejected_total", &[("reason", "wal")]).inc();
            }
            return Offer::WalFailed(e.to_string());
        }
        state.accepted[i] = expected + 1;
        state.wal_bytes += encoded.len() as u64;
        state.queue.push_back(record);
        let depth = state.queue.len() as u64;
        let wal_bytes = state.wal_bytes;
        drop(state);
        self.work.notify_one();
        if obs::is_enabled() {
            obs::counter("servd_ingest_accepted_total", &[("stream", stream.name())]).inc();
            obs::counter("servd_ingest_accepted_bytes_total", &[]).add(payload.len() as u64);
            obs::gauge("servd_ingest_queue_depth", &[]).set(depth);
            obs::gauge("servd_ingest_wal_bytes", &[]).set(wal_bytes);
        }
        Offer::Accepted { seq: expected }
    }

    /// Blocks until the worker has applied everything accepted so far,
    /// published a snapshot, and checkpointed. `Err` carries a reason
    /// (`no worker`, a worker-side failure, or a timeout).
    ///
    /// # Errors
    ///
    /// A human-readable reason when the flush could not be confirmed.
    pub fn flush(&self) -> Result<FlushInfo, String> {
        let mut state = self.lock();
        if !state.worker_running {
            return Err("no ingest worker is running".to_owned());
        }
        state.flush_requested += 1;
        let ticket = state.flush_requested;
        self.work.notify_one();
        let deadline = Instant::now() + Duration::from_secs(60);
        while state.flush_completed < ticket {
            if !state.worker_running {
                return Err("ingest worker exited before the flush completed".to_owned());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err("flush timed out".to_owned());
            }
            let (guard, _) = match self.done.wait_timeout(state, deadline - now) {
                Ok(r) => r,
                Err(poisoned) => poisoned.into_inner(),
            };
            state = guard;
        }
        if let Some(err) = &state.last_error {
            return Err(err.clone());
        }
        Ok(FlushInfo {
            snapshot: state.last_snapshot,
            applied: state.applied,
        })
    }

    /// The `/ingest/status` body: per-stream accepted/applied counts,
    /// queue occupancy, and publish bookkeeping.
    pub fn status_json(&self) -> String {
        let state = self.lock();
        let mut out = String::from("{\"streams\":{");
        for (n, stream) in IngestStream::ALL.into_iter().enumerate() {
            let i = stream.index();
            if n > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"accepted\":{},\"applied\":{}}}",
                stream.name(),
                state.accepted[i],
                state.applied[i]
            );
        }
        let _ = write!(
            out,
            "}},\"queue_depth\":{},\"queue_capacity\":{},\"publishes\":{},\"snapshot\":{},\"wal_bytes\":{},\"worker_running\":{}}}",
            state.queue.len(),
            self.config.queue_capacity,
            state.publishes,
            state.last_snapshot,
            state.wal_bytes,
            state.worker_running
        );
        out.push('\n');
        out
    }

    /// The write path's health snapshot for `/readyz`: queue depth, WAL
    /// backlog bytes, and whether the ingest worker is alive.
    pub fn ready_stats(&self) -> ReadyStats {
        let state = self.lock();
        ReadyStats {
            queue_depth: state.queue.len(),
            wal_bytes: state.wal_bytes,
            worker_running: state.worker_running,
        }
    }

    /// Per-stream accepted chunk counts (next expected `seq` values).
    pub fn accepted(&self) -> [u64; 4] {
        self.lock().accepted
    }

    /// Per-stream applied chunk counts.
    pub fn applied(&self) -> [u64; 4] {
        self.lock().applied
    }

    /// Worker side: wait for the next thing to do, waking at `deadline`
    /// for the time-based publish cadence.
    fn next_step(&self, deadline: Instant) -> Step {
        let mut state = self.lock();
        loop {
            if let Some(record) = state.queue.pop_front() {
                let depth = state.queue.len() as u64;
                drop(state);
                if obs::is_enabled() {
                    obs::gauge("servd_ingest_queue_depth", &[]).set(depth);
                }
                return Step::Apply(record);
            }
            if state.flush_requested > state.flush_completed {
                return Step::Flush(state.flush_requested);
            }
            if state.shutdown {
                return Step::Shutdown;
            }
            let now = Instant::now();
            if now >= deadline {
                return Step::Tick;
            }
            state = match self.work.wait_timeout(state, deadline - now) {
                Ok((guard, _)) => guard,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
    }

    fn note_applied(&self, stream: IngestStream) {
        let mut state = self.lock();
        state.applied[stream.index()] += 1;
        drop(state);
        if obs::is_enabled() {
            obs::counter("servd_ingest_applied_total", &[("stream", stream.name())]).inc();
        }
    }

    fn note_published(&self, snapshot: u64, error: Option<String>) {
        let mut state = self.lock();
        state.publishes += 1;
        state.last_snapshot = snapshot;
        state.last_error = error;
    }

    fn complete_flush(&self, ticket: u64) {
        let mut state = self.lock();
        state.flush_completed = ticket;
        drop(state);
        self.done.notify_all();
    }

    /// Rewrites the WAL to exactly the not-yet-applied records (the queue
    /// contents), via temp-file + atomic rename. Called by the worker
    /// right after a checkpoint lands; holding the state lock briefly
    /// blocks concurrent offers, which keeps "checkpoint + WAL = all
    /// acknowledged chunks" exact.
    fn compact_wal(&self) -> io::Result<()> {
        let path = self.config.dir.join(WAL_FILE);
        let mut state = self.lock();
        let mut bytes = Vec::new();
        for record in &state.queue {
            bytes.extend_from_slice(&encode_record(record));
        }
        write_atomic(&path, &bytes)?;
        let file = OpenOptions::new().append(true).open(&path)?;
        state.wal = Some(file);
        state.wal_bytes = bytes.len() as u64;
        drop(state);
        if obs::is_enabled() {
            obs::gauge("servd_ingest_wal_bytes", &[]).set(bytes.len() as u64);
        }
        Ok(())
    }

    /// Begins shutdown: no further offers are admitted; the worker drains
    /// the queue, publishes, checkpoints, and exits.
    fn request_shutdown(&self) {
        self.lock().shutdown = true;
        self.work.notify_all();
    }
}

/// What a completed flush observed.
#[derive(Debug, Clone, Copy)]
pub struct FlushInfo {
    /// The snapshot id the flush published.
    pub snapshot: u64,
    /// Per-stream applied counts after the flush.
    pub applied: [u64; 4],
}

/// Opens (creating if needed) the ingest directory, loads the newest
/// checkpoint, replays the surviving WAL tail, and returns the engine
/// positioned at exactly the acknowledged prefix plus the ready handle.
///
/// `pipeline` and `year` configure a *fresh* engine; both are ignored
/// when a checkpoint exists (its embedded config wins, so a restart
/// cannot silently change analysis parameters mid-stream).
///
/// # Errors
///
/// [`IngestError::Io`] on directory/WAL trouble, [`IngestError::Checkpoint`]
/// when an existing checkpoint is structurally invalid.
pub fn recover(
    config: IngestConfig,
    pipeline: Pipeline,
    year: i32,
) -> Result<Recovered, IngestError> {
    std::fs::create_dir_all(&config.dir).map_err(|source| IngestError::Io {
        what: "creating ingest directory",
        path: config.dir.clone(),
        source,
    })?;
    let ckpt_path = config.dir.join(CKPT_FILE);
    let wal_path = config.dir.join(WAL_FILE);

    // 1. Engine: from the checkpoint envelope when present, fresh
    //    otherwise. Leftover `.tmp` siblings are pre-rename debris from a
    //    crash; the rename never happened, so they are dead bytes.
    let mut applied = [0u64; 4];
    let mut engine = match std::fs::read(&ckpt_path) {
        Ok(bytes) => {
            let (engine_ckpt, counts) = decode_envelope(&bytes)?;
            applied = counts;
            StreamingPipeline::restore(&engine_ckpt)?
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => StreamingPipeline::new(pipeline, year),
        Err(source) => {
            return Err(IngestError::Io {
                what: "reading ingest checkpoint",
                path: ckpt_path,
                source,
            })
        }
    };

    // 2. WAL replay: apply every intact record at/beyond the applied
    //    counts, in file order; stop at the first torn or out-of-order
    //    record (only an unacknowledged tail can be torn).
    let mut accepted = applied;
    let mut replayed = 0u64;
    let wal_bytes = match std::fs::read(&wal_path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(source) => {
            return Err(IngestError::Io {
                what: "reading write-ahead log",
                path: wal_path,
                source,
            })
        }
    };
    let mut consistent_len = 0usize;
    let mut cursor = &wal_bytes[..];
    while let Some((record, rest)) = decode_record(cursor) {
        let i = record.stream.index();
        if record.seq < applied[i] {
            // Already inside the checkpointed engine state; a later
            // compaction will drop it.
        } else if record.seq == accepted[i] {
            apply_record(&mut engine, &record);
            accepted[i] += 1;
            applied[i] += 1;
            replayed += 1;
        } else {
            // A gap can only mean the log was tampered with or the tail
            // of a previous generation survived a partial compaction;
            // everything from here on is untrusted.
            break;
        }
        consistent_len = wal_bytes.len() - rest.len();
        cursor = rest;
    }
    // Drop the torn/untrusted tail so future appends extend a clean log.
    if consistent_len < wal_bytes.len() {
        write_atomic(&wal_path, &wal_bytes[..consistent_len]).map_err(|source| {
            IngestError::Io {
                what: "truncating torn write-ahead log tail",
                path: wal_path.clone(),
                source,
            }
        })?;
    }
    // A missing log starts empty; its appends are not fsynced (see the
    // module docs), so creating it needs no sync either.
    let wal = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&wal_path)
        .map_err(|source| IngestError::Io {
            what: "opening write-ahead log",
            path: wal_path,
            source,
        })?;

    let handle = Arc::new(IngestHandle {
        config,
        state: Mutex::new(State {
            queue: VecDeque::new(),
            accepted,
            applied,
            wal: Some(wal),
            wal_bytes: consistent_len as u64,
            flush_requested: 0,
            flush_completed: 0,
            shutdown: false,
            worker_running: false,
            publishes: 0,
            last_snapshot: 0,
            last_error: None,
        }),
        work: Condvar::new(),
        done: Condvar::new(),
    });
    Ok(Recovered {
        handle,
        engine,
        accepted,
        replayed,
    })
}

/// The running ingest worker; [`stop`](IngestWorker::stop) drains,
/// publishes, checkpoints, and joins.
#[derive(Debug)]
pub struct IngestWorker {
    handle: Arc<IngestHandle>,
    join: Option<JoinHandle<()>>,
}

impl IngestWorker {
    /// Graceful stop: refuse new offers, drain the queue, publish and
    /// checkpoint a final time, join the thread. Idempotent via `Drop`.
    pub fn stop(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        self.handle.request_shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for IngestWorker {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Starts the single ingest worker: pops accepted chunks, feeds the
/// engine, and publishes + checkpoints on the cadence policy (every
/// `publish_every_events` input lines or `publish_every` elapsed,
/// whichever comes first — plus always on flush and shutdown).
pub fn spawn_worker(
    engine: StreamingPipeline,
    handle: Arc<IngestHandle>,
    store: Arc<StoreHandle>,
) -> IngestWorker {
    handle.lock().worker_running = true;
    let thread_handle = Arc::clone(&handle);
    let join = std::thread::spawn(move || {
        worker_loop(engine, &thread_handle, &store);
        let mut state = thread_handle.lock();
        state.worker_running = false;
        drop(state);
        thread_handle.done.notify_all();
    });
    IngestWorker {
        handle,
        join: Some(join),
    }
}

fn worker_loop(mut engine: StreamingPipeline, handle: &IngestHandle, store: &StoreHandle) {
    // The worker's own applied counts are what checkpoints record: they
    // are exactly in step with `engine`, which the shared mirror (updated
    // after the fact, for status) is not guaranteed to be at the instant
    // `engine.checkpoint()` runs.
    let mut applied = handle.lock().applied;
    let cadence = handle.config.publish_every;
    let every_events = handle.config.publish_every_events.max(1);
    let mut last_publish = Instant::now();
    let mut published_lines = engine.ingested_lines();
    let mut dirty = false;

    loop {
        match handle.next_step(last_publish + cadence) {
            Step::Apply(record) => {
                apply_record(&mut engine, &record);
                applied[record.stream.index()] += 1;
                handle.note_applied(record.stream);
                dirty = true;
                if engine.ingested_lines().saturating_sub(published_lines) >= every_events {
                    publish(&engine, handle, store, &applied);
                    last_publish = Instant::now();
                    published_lines = engine.ingested_lines();
                    dirty = false;
                }
            }
            Step::Flush(ticket) => {
                // The queue is already drained (records outrank flushes
                // in next_step); publish unconditionally so a flush is a
                // reliable barrier even with nothing new.
                publish(&engine, handle, store, &applied);
                last_publish = Instant::now();
                published_lines = engine.ingested_lines();
                dirty = false;
                handle.complete_flush(ticket);
            }
            Step::Tick => {
                if dirty {
                    publish(&engine, handle, store, &applied);
                    last_publish = Instant::now();
                    published_lines = engine.ingested_lines();
                    dirty = false;
                } else {
                    last_publish = Instant::now();
                }
            }
            Step::Shutdown => {
                if dirty {
                    publish(&engine, handle, store, &applied);
                }
                return;
            }
        }
    }
}

/// Feeds one chunk to the engine under a `servd_ingest_apply` span
/// counting its bytes, so `/metrics` shows the worker's share of a flush
/// barrier (and a recovery's replay).
fn apply_record(engine: &mut StreamingPipeline, record: &Record) {
    let mut span = obs::span("servd_ingest_apply");
    span.add_items(record.payload.len() as u64);
    match record.stream {
        IngestStream::Logs => engine.push_log(&record.payload),
        IngestStream::GpuJobs => {
            engine.push_gpu_jobs_csv(&String::from_utf8_lossy(&record.payload));
        }
        IngestStream::CpuJobs => {
            engine.push_cpu_jobs_csv(&String::from_utf8_lossy(&record.payload));
        }
        IngestStream::Outages => {
            engine.push_outages_csv(&String::from_utf8_lossy(&record.payload));
        }
    }
}

/// Materializes, publishes, checkpoints, compacts — the whole durable
/// publish step. Failures to persist are recorded (status + metrics) but
/// never crash the worker: the WAL still holds everything unapplied and
/// the previous checkpoint still holds everything older, so the
/// durability invariant survives a full disk. Each step records its own
/// span (see the module docs).
fn publish(
    engine: &StreamingPipeline,
    handle: &IngestHandle,
    store: &StoreHandle,
    applied: &[u64; 4],
) {
    let mut span = obs::span("servd_ingest_publish");
    let (report, quarantine) = {
        let _view = obs::span("servd_ingest_materialize");
        engine.materialize_full()
    };
    span.add_items(report.errors.len() as u64);
    let snapshot = store.publish_study(report, &quarantine);

    let ckpt_path = handle.config.dir.join(CKPT_FILE);
    let written = {
        let _checkpoint = obs::span("servd_ingest_checkpoint");
        let envelope = encode_envelope(engine, applied);
        write_atomic(&ckpt_path, envelope.as_bytes())
    };
    let persisted = written
        .map_err(|e| format!("writing ingest checkpoint {}: {e}", ckpt_path.display()))
        .and_then(|()| {
            let _compact = obs::span("servd_ingest_wal_compact");
            handle
                .compact_wal()
                .map_err(|e| format!("compacting write-ahead log: {e}"))
        });
    let error = persisted.err();
    if obs::is_enabled() {
        obs::counter("servd_ingest_publishes_total", &[]).inc();
        if error.is_some() {
            obs::counter("servd_ingest_persist_errors_total", &[]).inc();
        }
    }
    if let Some(e) = &error {
        eprintln!("ingest: {e}");
    }
    handle.note_published(snapshot, error);
}

// ---- wire formats ---------------------------------------------------

/// FNV-1a 64-bit, the WAL record checksum (detects torn/garbled tails;
/// not cryptographic).
fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &b in *part {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn encode_record(record: &Record) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER + record.payload.len());
    out.extend_from_slice(&(record.payload.len() as u32).to_le_bytes());
    let checksum = fnv1a(&[
        &[record.stream.tag()],
        &record.seq.to_le_bytes(),
        &record.payload,
    ]);
    out.extend_from_slice(&checksum.to_le_bytes());
    out.push(record.stream.tag());
    out.extend_from_slice(&record.seq.to_le_bytes());
    out.extend_from_slice(&record.payload);
    out
}

/// Decodes the record at the head of `bytes`; `None` on a torn, short,
/// or corrupt head (replay stops there).
fn decode_record(bytes: &[u8]) -> Option<(Record, &[u8])> {
    if bytes.len() < RECORD_HEADER {
        return None;
    }
    let payload_len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
    let total = RECORD_HEADER.checked_add(payload_len)?;
    if bytes.len() < total {
        return None;
    }
    let mut checksum = [0u8; 8];
    checksum.copy_from_slice(&bytes[4..12]);
    let checksum = u64::from_le_bytes(checksum);
    let tag = bytes[12];
    let mut seq = [0u8; 8];
    seq.copy_from_slice(&bytes[13..21]);
    let seq = u64::from_le_bytes(seq);
    let payload = &bytes[RECORD_HEADER..total];
    if fnv1a(&[&[tag], &seq.to_le_bytes(), payload]) != checksum {
        return None;
    }
    let stream = IngestStream::from_tag(tag)?;
    Some((
        Record {
            stream,
            seq,
            payload: payload.to_vec(),
        },
        &bytes[total..],
    ))
}

/// Wraps the engine's checkpoint plus the per-stream applied counts in
/// the shared container format. The engine encodes straight into the
/// envelope, which holds its checkpoint as a length-prefixed byte
/// string: one encode and no second full-size copy per publish.
fn encode_envelope(engine: &StreamingPipeline, applied: &[u64; 4]) -> Checkpoint {
    let mut enc = Encoder::new();
    enc.str(ENVELOPE_TAG);
    engine.checkpoint_into(&mut enc);
    for n in applied {
        enc.u64(*n);
    }
    enc.finish()
}

fn decode_envelope(bytes: &[u8]) -> Result<(Checkpoint, [u64; 4]), CheckpointError> {
    let mut dec = Decoder::new(bytes);
    dec.header()?;
    let tag = dec.str("ingest envelope tag")?;
    if tag != ENVELOPE_TAG {
        return Err(CheckpointError::Invalid {
            what: "ingest envelope tag",
        });
    }
    let engine_bytes = dec.bytes("embedded engine checkpoint")?;
    let mut applied = [0u64; 4];
    for slot in &mut applied {
        *slot = dec.u64()?;
    }
    dec.finish()?;
    let engine = Checkpoint::from_bytes(engine_bytes)?;
    Ok((engine, applied))
}

/// The WAL path under an ingest directory (exposed for tests/tools that
/// want to inspect or truncate it).
pub fn wal_path(dir: &Path) -> PathBuf {
    dir.join(WAL_FILE)
}

/// The checkpoint path under an ingest directory.
pub fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join(CKPT_FILE)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::store::StudyStore;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "servd-ingest-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_config(dir: &Path) -> IngestConfig {
        IngestConfig {
            queue_capacity: 4,
            publish_every_events: 1_000_000,
            publish_every: Duration::from_secs(3600),
            ..IngestConfig::new(dir)
        }
    }

    #[test]
    fn record_roundtrip_and_torn_tail() {
        let a = Record {
            stream: IngestStream::Logs,
            seq: 0,
            payload: b"May 10 03:22:07 gpub001 kernel: x\n".to_vec(),
        };
        let b = Record {
            stream: IngestStream::GpuJobs,
            seq: 3,
            payload: b"id,name\n".to_vec(),
        };
        let mut wal = encode_record(&a);
        wal.extend_from_slice(&encode_record(&b));
        let (ra, rest) = decode_record(&wal).unwrap();
        assert_eq!(ra.payload, a.payload);
        assert_eq!(ra.seq, 0);
        let (rb, rest) = decode_record(rest).unwrap();
        assert_eq!(rb.stream, IngestStream::GpuJobs);
        assert_eq!(rb.seq, 3);
        assert!(rest.is_empty());

        // Truncate anywhere inside the second record: first still decodes,
        // torn tail yields None.
        let cut = encode_record(&a).len() + 5;
        let (ra2, rest2) = decode_record(&wal[..cut]).unwrap();
        assert_eq!(ra2.payload, a.payload);
        assert!(decode_record(rest2).is_none());

        // Flip a payload byte: checksum catches it.
        let mut flipped = encode_record(&a);
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(decode_record(&flipped).is_none());
    }

    #[test]
    fn envelope_roundtrip_rejects_bad_tag() {
        let engine = StreamingPipeline::new(Pipeline::delta(), 2023);
        let env = encode_envelope(&engine, &[1, 2, 3, 4]);
        let (ckpt, applied) = decode_envelope(env.as_bytes()).unwrap();
        assert_eq!(applied, [1, 2, 3, 4]);
        assert!(StreamingPipeline::restore(&ckpt).is_ok());

        // A bare engine checkpoint is not an envelope.
        assert!(decode_envelope(engine.checkpoint().as_bytes()).is_err());
    }

    /// The engine encoded in place lays the envelope out byte for byte as
    /// the tag, the engine's own checkpoint as a length-prefixed byte
    /// string, and the applied counts.
    #[test]
    fn envelope_embeds_the_engine_checkpoint_unchanged() {
        let mut engine = StreamingPipeline::new(Pipeline::delta(), 2023);
        engine.push_log(b"Mar 10 04:00:00 gpub001 kernel: NVRM: Xid (PCI:0000:27:00): 119, x\n");
        engine.push_gpu_jobs_csv(
            "id,name,submit,start,end,gpus,gpu_slots,state\n\
             1,train,2023-03-10T03:00:00Z,2023-03-10T03:00:00Z,2023-03-10T04:00:05Z,1,gpub001:0,FAILED\n2,ev",
        );
        let mut enc = Encoder::new();
        enc.str(ENVELOPE_TAG);
        enc.bytes(engine.checkpoint().as_bytes());
        for n in [5, 6, 7, 8] {
            enc.u64(n);
        }
        assert_eq!(encode_envelope(&engine, &[5, 6, 7, 8]), enc.finish());
    }

    #[test]
    fn offer_seq_protocol_dedups_and_rejects_gaps() {
        let dir = temp_dir("seq");
        let rec = recover(small_config(&dir), Pipeline::delta(), 2023).unwrap();
        let h = rec.handle;
        assert_eq!(
            h.offer(IngestStream::Logs, Some(0), b"a\n"),
            Offer::Accepted { seq: 0 }
        );
        assert_eq!(
            h.offer(IngestStream::Logs, Some(0), b"a\n"),
            Offer::Duplicate { accepted: 1 }
        );
        assert_eq!(
            h.offer(IngestStream::Logs, Some(5), b"f\n"),
            Offer::Gap { expected: 1 }
        );
        // Streams number independently.
        assert_eq!(
            h.offer(IngestStream::GpuJobs, Some(0), b"hdr\n"),
            Offer::Accepted { seq: 0 }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_queue_sheds_with_retry_after() {
        let dir = temp_dir("full");
        let rec = recover(small_config(&dir), Pipeline::delta(), 2023).unwrap();
        let h = rec.handle;
        for _ in 0..4 {
            assert!(matches!(
                h.offer(IngestStream::Logs, None, b"x\n"),
                Offer::Accepted { .. }
            ));
        }
        assert_eq!(
            h.offer(IngestStream::Logs, None, b"x\n"),
            Offer::Overloaded {
                retry_after_secs: 1
            }
        );
        // Shed offers are not acknowledged and must not advance seq.
        assert_eq!(h.accepted()[0], 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_replays_acknowledged_wal_records() {
        let dir = temp_dir("replay");
        let line = b"May 10 03:22:07 gpub001 kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, GPU has fallen off the bus\n";
        {
            let rec = recover(small_config(&dir), Pipeline::delta(), 2022).unwrap();
            assert!(matches!(
                rec.handle.offer(IngestStream::Logs, Some(0), line),
                Offer::Accepted { .. }
            ));
            // No worker ran: nothing applied, nothing checkpointed. The
            // handle is simply dropped — a crash.
        }
        let rec = recover(small_config(&dir), Pipeline::delta(), 2022).unwrap();
        assert_eq!(rec.accepted[0], 1, "acknowledged chunk recovered");
        assert_eq!(rec.replayed, 1);
        assert_eq!(rec.engine.scan_stats().lines_seen, 1);
        // The replayed record still counts as accepted for the dedup
        // protocol: a client re-POST of seq 0 is a duplicate.
        assert_eq!(
            rec.handle.offer(IngestStream::Logs, Some(0), line),
            Offer::Duplicate { accepted: 1 }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_tolerates_torn_wal_tail() {
        let dir = temp_dir("torn");
        {
            let rec = recover(small_config(&dir), Pipeline::delta(), 2022).unwrap();
            for i in 0..3 {
                assert!(matches!(
                    rec.handle
                        .offer(IngestStream::Logs, Some(i), b"May 10 03:22:07 h k: x\n"),
                    Offer::Accepted { .. }
                ));
            }
        }
        // Tear the last record mid-payload, as a crash mid-append would.
        let wal = wal_path(&dir);
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 7]).unwrap();

        let rec = recover(small_config(&dir), Pipeline::delta(), 2022).unwrap();
        assert_eq!(rec.accepted[0], 2, "intact prefix recovered");
        // The torn tail was truncated away; the next accept extends a
        // clean log at seq 2.
        assert!(matches!(
            rec.handle
                .offer(IngestStream::Logs, Some(2), b"May 10 03:22:08 h k: y\n"),
            Offer::Accepted { .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_publish_shows_its_steps_in_metrics() {
        use crate::testutil::{connect, get_on, request_on};

        obs::set_enabled(true);
        let dir = temp_dir("spans");
        let rec = recover(small_config(&dir), Pipeline::delta(), 2022).unwrap();
        let store = Arc::new(StoreHandle::new(StudyStore::build(
            rec.engine.materialize(),
            None,
        )));
        let worker = spawn_worker(rec.engine, Arc::clone(&rec.handle), Arc::clone(&store));
        let server = crate::start_with_ingest(
            crate::ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                ..crate::ServerConfig::default()
            },
            Arc::clone(&store),
            Some(Arc::clone(&rec.handle)),
        )
        .unwrap();
        let mut conn = connect(server.addr());
        let line = b"May 10 03:22:07 gpub001 kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, GPU has fallen off the bus\n";
        let post = request_on(&mut conn, "POST", "/ingest/logs?seq=0", line);
        assert_eq!(post.status, 200, "{}", post.text());
        let flush = request_on(&mut conn, "POST", "/ingest/flush", b"");
        assert_eq!(flush.status, 200, "{}", flush.text());

        let metrics = get_on(&mut conn, "/metrics").text();
        for span in [
            "servd_ingest_apply",
            "servd_ingest_materialize",
            "servd_ingest_checkpoint",
            "servd_ingest_wal_compact",
        ] {
            let series = format!("obs_span_count{{span=\"{span}\"}} ");
            let count: f64 = metrics
                .lines()
                .find_map(|l| l.strip_prefix(series.as_str()))
                .unwrap_or_else(|| panic!("no {span} series in /metrics"))
                .parse()
                .unwrap();
            assert!(count >= 1.0, "{span}: {count}");
        }

        server.shutdown();
        worker.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_applies_publishes_and_checkpoints_on_flush() {
        let dir = temp_dir("worker");
        let rec = recover(small_config(&dir), Pipeline::delta(), 2022).unwrap();
        let store = Arc::new(StoreHandle::new(StudyStore::build(
            rec.engine.materialize(),
            None,
        )));
        let worker = spawn_worker(rec.engine, Arc::clone(&rec.handle), Arc::clone(&store));
        let line = b"May 10 03:22:07 gpub001 kernel: NVRM: Xid (PCI:0000:07:00): 79, pid=1, GPU has fallen off the bus\n";
        assert!(matches!(
            rec.handle.offer(IngestStream::Logs, Some(0), line),
            Offer::Accepted { .. }
        ));
        let info = rec.handle.flush().unwrap();
        assert_eq!(info.applied[0], 1);
        assert!(info.snapshot >= 2, "a new snapshot was published");
        assert!(store.current().store.table1().contains("79"));
        // The checkpoint landed and the WAL compacted to empty.
        assert!(checkpoint_path(&dir).exists());
        assert_eq!(std::fs::metadata(wal_path(&dir)).unwrap().len(), 0);
        worker.stop();

        // A restart finds everything inside the checkpoint.
        let rec2 = recover(small_config(&dir), Pipeline::delta(), 2022).unwrap();
        assert_eq!(rec2.accepted[0], 1);
        assert_eq!(rec2.replayed, 0, "nothing left to replay");
        assert_eq!(rec2.engine.scan_stats().lines_seen, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

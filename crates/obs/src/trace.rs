//! Request-scoped tracing: per-request trace ids, child stage spans,
//! and a bounded flight recorder.
//!
//! The process-global [`crate::span`] totals answer "where does this
//! *process* spend its time"; this module answers "where did *that
//! request* go". A [`FlightRecorder`] mints one [`Trace`] per accepted
//! request; pipeline stages append [`StageRecord`]s (either through the
//! RAII [`StageGuard`] or with explicit instants via
//! [`Trace::record_span`]); when the response has fully drained the
//! server seals the trace into a [`TraceRecord`] and admits it back
//! into the recorder.
//!
//! # Retention policy
//!
//! The recorder is bounded three ways, so a hot server cannot grow it:
//!
//! * **Slowest-N per rolling window** — completed traces are bucketed
//!   by `started_unix_ms / window_ms`; the recorder keeps the current
//!   and the previous window, each truncated to the `capacity` slowest
//!   traces. Retention is a pure function of the record timestamps, so
//!   tests can drive it with an injected clock.
//! * **All error traces** — any trace sealed with status >= 400 also
//!   lands in a dedicated FIFO ring of `capacity` records, regardless
//!   of how fast it was.
//! * **Stage cap per trace** — a single trace holds at most
//!   [`Trace::MAX_STAGES`] stages; extra stages are counted in
//!   [`TraceRecord::stages_dropped`] and the global
//!   `obs_spans_dropped_total` counter instead of allocated.
//!
//! Everything here is `std`-only and panic-free: lock poisoning is
//! absorbed, ids are plain `u64`s rendered as 16 hex digits.

use crate::expose::escape;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Milliseconds since the unix epoch, for stamping trace starts. The
/// recorder itself never calls this — callers inject timestamps so
/// retention stays deterministic under test.
pub fn unix_ms_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// Parses a 16-hex-digit (or shorter) trace id as rendered by
/// [`Trace::id_hex`]. Returns `None` on empty, overlong or non-hex
/// input — never panics.
pub fn parse_hex_id(s: &str) -> Option<u64> {
    if s.is_empty() || s.len() > 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// One completed stage inside a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRecord {
    /// Stage name (static, interned by the call site).
    pub name: &'static str,
    /// Free-form low-cardinality detail (`kind=79`); empty
    /// when the stage needs none.
    pub detail: String,
    /// Start offset from the trace's epoch, in nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, in nanoseconds.
    pub duration_ns: u64,
    /// Items processed inside the stage (caller-reported).
    pub items: u64,
}

#[derive(Debug, Default)]
struct StageLog {
    stages: Vec<StageRecord>,
    dropped: u64,
}

/// An in-flight request trace: an id, an epoch instant, and the stages
/// recorded so far. Shared as `Arc<Trace>`: the connection keeps it
/// until the response drains, and every open stage guard holds a clone.
#[derive(Debug)]
pub struct Trace {
    id: u64,
    epoch: Instant,
    started_unix_ms: u64,
    stages: Mutex<StageLog>,
}

impl Trace {
    /// Hard cap on stages per trace; beyond it stages are counted, not
    /// stored, so one pathological request cannot balloon the recorder.
    pub const MAX_STAGES: usize = 128;

    fn new(id: u64, epoch: Instant, started_unix_ms: u64) -> Self {
        Trace {
            id,
            epoch,
            started_unix_ms,
            // Pre-sized for the longest request path (queue wait, parse,
            // route, the four what-if stages, write; a read records at
            // most six) so the per-request path allocates once, not on
            // every push.
            stages: Mutex::new(StageLog {
                stages: Vec::with_capacity(8),
                dropped: 0,
            }),
        }
    }

    /// The trace id minted by the recorder.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The id as 16 lowercase hex digits — the `X-Trace-Id` wire form.
    pub fn id_hex(&self) -> String {
        format!("{:016x}", self.id)
    }

    /// The instant all stage offsets are measured from (the moment the
    /// request's first byte arrived).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Wall-clock start, milliseconds since the unix epoch.
    pub fn started_unix_ms(&self) -> u64 {
        self.started_unix_ms
    }

    fn lock(&self) -> MutexGuard<'_, StageLog> {
        self.stages.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn push(&self, record: StageRecord) {
        let mut log = self.lock();
        if log.stages.len() < Self::MAX_STAGES {
            log.stages.push(record);
            return;
        }
        log.dropped += 1;
        drop(log);
        crate::counter("obs_spans_dropped_total", &[]).inc();
    }

    /// Opens an RAII stage guard; dropping it records the stage. The
    /// guard owns an `Arc` clone, so it can outlive the caller's borrow.
    pub fn stage(self: &Arc<Self>, name: &'static str) -> StageGuard {
        StageGuard {
            trace: Arc::clone(self),
            name,
            detail: String::new(),
            start: Instant::now(),
            items: 0,
        }
    }

    /// Records a stage from explicit instants — for stages whose
    /// boundaries the caller already timed (parse, queue wait, write).
    pub fn record_span(
        &self,
        name: &'static str,
        detail: &str,
        start: Instant,
        end: Instant,
        items: u64,
    ) {
        let start_ns = saturating_ns(start.saturating_duration_since(self.epoch).as_nanos());
        let duration_ns = saturating_ns(end.saturating_duration_since(start).as_nanos());
        self.push(StageRecord {
            name,
            detail: detail.to_owned(),
            start_ns,
            duration_ns,
            items,
        });
    }

    /// Seals the trace into an immutable record. The stages recorded so
    /// far are moved out (a trace seals once; this runs per request on
    /// the event loop, so it must not clone every stage) and sorted by
    /// start offset — stages land in completion order otherwise, and an
    /// enclosing stage completes after the stages it encloses.
    pub fn seal(&self, endpoint: impl Into<String>, status: u16, total_ns: u64) -> TraceRecord {
        let mut log = self.lock();
        let mut stages = std::mem::take(&mut log.stages);
        let dropped = log.dropped;
        drop(log);
        stages.sort_by_key(|s| (s.start_ns, s.duration_ns));
        TraceRecord {
            id: self.id,
            endpoint: endpoint.into(),
            status,
            started_unix_ms: self.started_unix_ms,
            total_ns,
            stages,
            stages_dropped: dropped,
        }
    }
}

/// RAII guard for an in-flight stage; records into its trace on drop.
#[derive(Debug)]
pub struct StageGuard {
    trace: Arc<Trace>,
    name: &'static str,
    detail: String,
    start: Instant,
    items: u64,
}

impl StageGuard {
    /// Sets the stage's detail string (`kind=79`).
    pub fn set_detail(&mut self, detail: impl Into<String>) {
        self.detail = detail.into();
    }

    /// Adds to the stage's item count.
    pub fn add_items(&mut self, n: u64) {
        self.items += n;
    }
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        self.trace.record_span(
            self.name,
            &self.detail,
            self.start,
            Instant::now(),
            self.items,
        );
    }
}

/// A completed, sealed trace as retained by the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The minted trace id.
    pub id: u64,
    /// `METHOD /path` of the traced request.
    pub endpoint: String,
    /// Response status code.
    pub status: u16,
    /// Wall-clock start, milliseconds since the unix epoch.
    pub started_unix_ms: u64,
    /// First byte in to last byte flushed, in nanoseconds.
    pub total_ns: u64,
    /// Stages sorted by start offset.
    pub stages: Vec<StageRecord>,
    /// Stages discarded because the trace hit [`Trace::MAX_STAGES`].
    pub stages_dropped: u64,
}

#[derive(Debug)]
struct Inner {
    capacity: usize,
    /// Window index (`started_unix_ms / window_ms`) of `current`.
    window: u64,
    /// Slowest-N of the current window, sorted by `total_ns` descending.
    current: Vec<TraceRecord>,
    /// Slowest-N of the previous window.
    previous: Vec<TraceRecord>,
    /// FIFO of error traces (status >= 400), newest at the back.
    errors: VecDeque<TraceRecord>,
    admitted: u64,
    evicted: u64,
}

/// Bounded retention for sealed traces; see the module docs for the
/// policy. Also the mint for trace ids.
#[derive(Debug)]
pub struct FlightRecorder {
    next_id: AtomicU64,
    window_ms: u64,
    inner: Mutex<Inner>,
}

impl FlightRecorder {
    /// Default rolling-window width: one minute.
    pub const DEFAULT_WINDOW_MS: u64 = 60_000;

    /// A recorder keeping the `capacity` slowest traces per rolling
    /// one-minute window (plus up to `capacity` error traces).
    pub fn new(capacity: usize) -> Self {
        Self::with_window_ms(capacity, Self::DEFAULT_WINDOW_MS)
    }

    /// As [`FlightRecorder::new`] with an explicit window width.
    pub fn with_window_ms(capacity: usize, window_ms: u64) -> Self {
        FlightRecorder {
            next_id: AtomicU64::new(1),
            window_ms: window_ms.max(1),
            inner: Mutex::new(Inner {
                capacity: capacity.max(1),
                window: 0,
                current: Vec::new(),
                previous: Vec::new(),
                errors: VecDeque::new(),
                admitted: 0,
                evicted: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Mints a fresh trace. `epoch` is the instant stage offsets are
    /// measured from; `started_unix_ms` stamps the wall clock (callers
    /// inject it — see [`unix_ms_now`]).
    pub fn begin(&self, epoch: Instant, started_unix_ms: u64) -> Arc<Trace> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Arc::new(Trace::new(id, epoch, started_unix_ms))
    }

    /// Admits a sealed trace, applying the retention policy. Pure in
    /// the record's own timestamps: no clock is read here.
    pub fn admit(&self, record: TraceRecord) {
        let idx = record.started_unix_ms / self.window_ms;
        let mut g = self.lock();
        g.admitted += 1;
        if idx > g.window {
            let expired = if idx == g.window + 1 {
                let rotated = std::mem::take(&mut g.current);
                std::mem::replace(&mut g.previous, rotated)
            } else {
                g.current.clear();
                std::mem::take(&mut g.previous)
            };
            g.evicted += expired.len() as u64;
            g.window = idx;
        }
        if record.status >= 400 {
            if g.errors.len() >= g.capacity {
                g.errors.pop_front();
                g.evicted += 1;
            }
            g.errors.push_back(record.clone());
        }
        // Slowest-N insert. This runs once per request on the event
        // loop, so the common case — a full window and a record faster
        // than everything kept — must not pay the sorted insert's
        // memmove; it is rejected on a single comparison instead.
        if g.current.len() >= g.capacity
            && g.current
                .last()
                .is_none_or(|slowest| record.total_ns <= slowest.total_ns)
        {
            g.evicted += 1;
            return;
        }
        let pos = g.current.partition_point(|r| r.total_ns >= record.total_ns);
        g.current.insert(pos, record);
        if g.current.len() > g.capacity {
            g.current.pop();
            g.evicted += 1;
        }
    }

    /// Finds a retained trace by id.
    pub fn find(&self, id: u64) -> Option<TraceRecord> {
        let g = self.lock();
        g.current
            .iter()
            .chain(g.previous.iter())
            .chain(g.errors.iter())
            .find(|r| r.id == id)
            .cloned()
    }

    /// Every retained trace, deduplicated by id (a slow error trace
    /// lives in both pools), sorted slowest first, id as tiebreak.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let g = self.lock();
        let mut out: Vec<TraceRecord> = Vec::new();
        for r in g
            .current
            .iter()
            .chain(g.previous.iter())
            .chain(g.errors.iter())
        {
            if !out.iter().any(|have| have.id == r.id) {
                out.push(r.clone());
            }
        }
        drop(g);
        out.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.id.cmp(&b.id)));
        out
    }

    /// Traces admitted over the recorder's lifetime.
    pub fn admitted(&self) -> u64 {
        self.lock().admitted
    }

    /// Traces discarded by the retention policy (window expiry or
    /// capacity truncation).
    pub fn evicted(&self) -> u64 {
        self.lock().evicted
    }
}

/// Renders trace records as the `/debug/traces` JSON document. Times
/// are microseconds; ids are the 16-hex-digit wire form.
pub fn render_traces_json(records: &[TraceRecord]) -> String {
    let mut out = String::from("{\n  \"count\": ");
    let _ = write!(out, "{}", records.len());
    out.push_str(",\n  \"traces\": [");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"id\": \"{:016x}\", \"endpoint\": \"{}\", \"status\": {}, \
             \"started_unix_ms\": {}, \"total_us\": {}, \"stages_dropped\": {}, \"stages\": [",
            r.id,
            escape(&r.endpoint),
            r.status,
            r.started_unix_ms,
            r.total_ns / 1_000,
            r.stages_dropped,
        );
        for (j, s) in r.stages.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\n      {{\"name\": \"{}\", \"detail\": \"{}\", \"start_us\": {}, \
                 \"duration_us\": {}, \"items\": {}}}",
                escape(s.name),
                escape(&s.detail),
                s.start_ns / 1_000,
                s.duration_ns / 1_000,
                s.items,
            );
        }
        if !r.stages.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("]}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

fn saturating_ns(n: u128) -> u64 {
    n.min(u64::MAX as u128) as u64
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn record(id: u64, ms: u64, total_ns: u64, status: u16) -> TraceRecord {
        TraceRecord {
            id,
            endpoint: "GET /errors".to_owned(),
            status,
            started_unix_ms: ms,
            total_ns,
            stages: Vec::new(),
            stages_dropped: 0,
        }
    }

    #[test]
    fn stage_guards_record_ordered_offsets() {
        let rec = FlightRecorder::new(4);
        let t = rec.begin(Instant::now(), 1_000);
        {
            let mut g = t.stage("route");
            g.set_detail("path=/errors");
            g.add_items(3);
        }
        {
            let _g = t.stage("render");
        }
        let sealed = t.seal("GET /errors", 200, 5_000);
        assert_eq!(sealed.stages.len(), 2);
        assert_eq!(sealed.stages[0].name, "route");
        assert_eq!(sealed.stages[0].detail, "path=/errors");
        assert_eq!(sealed.stages[0].items, 3);
        assert_eq!(sealed.stages[1].name, "render");
        assert!(sealed.stages[0].start_ns <= sealed.stages[1].start_ns);
    }

    #[test]
    fn explicit_spans_measure_from_the_epoch() {
        let rec = FlightRecorder::new(4);
        let epoch = Instant::now();
        let t = rec.begin(epoch, 1_000);
        let later = epoch + std::time::Duration::from_millis(2);
        t.record_span("parse", "", epoch, later, 7);
        let sealed = t.seal("GET /x", 200, 0);
        assert_eq!(sealed.stages[0].start_ns, 0);
        assert!(sealed.stages[0].duration_ns >= 2_000_000);
        assert_eq!(sealed.stages[0].items, 7);
    }

    #[test]
    fn ids_are_unique_and_hex_round_trips() {
        let rec = FlightRecorder::new(4);
        let a = rec.begin(Instant::now(), 0);
        let b = rec.begin(Instant::now(), 0);
        assert_ne!(a.id(), b.id());
        assert_eq!(parse_hex_id(&a.id_hex()), Some(a.id()));
        assert_eq!(parse_hex_id(""), None);
        assert_eq!(parse_hex_id("zz"), None);
        assert_eq!(parse_hex_id("00000000000000000"), None, "17 digits");
    }

    #[test]
    fn retains_the_slowest_n_in_a_window() {
        let rec = FlightRecorder::with_window_ms(2, 1_000);
        for (id, total) in [(1u64, 50u64), (2, 400), (3, 100), (4, 300)] {
            rec.admit(record(id, 10, total, 200));
        }
        let snap = rec.snapshot();
        let ids: Vec<u64> = snap.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![2, 4], "slowest two survive, sorted desc");
        assert_eq!(rec.admitted(), 4);
        assert_eq!(rec.evicted(), 2);
        assert!(rec.find(2).is_some());
        assert!(rec.find(1).is_none());
    }

    #[test]
    fn window_rotation_keeps_previous_and_expires_older() {
        let rec = FlightRecorder::with_window_ms(2, 1_000);
        rec.admit(record(1, 500, 100, 200)); // window 0
        rec.admit(record(2, 1_500, 200, 200)); // window 1: previous = {1}
        assert!(rec.find(1).is_some(), "previous window is retained");
        rec.admit(record(3, 2_500, 300, 200)); // window 2: previous = {2}
        assert!(rec.find(1).is_none(), "two windows back has expired");
        assert!(rec.find(2).is_some());
        rec.admit(record(4, 9_500, 400, 200)); // jump: both cleared
        assert!(rec.find(2).is_none());
        assert!(rec.find(3).is_none());
        assert!(rec.find(4).is_some());
    }

    #[test]
    fn error_traces_survive_even_when_fast() {
        let rec = FlightRecorder::with_window_ms(2, 1_000);
        rec.admit(record(1, 10, 900, 200));
        rec.admit(record(2, 10, 800, 200));
        rec.admit(record(3, 10, 1, 404)); // fast error, pushed out of slowest-2
        let snap = rec.snapshot();
        assert!(snap.iter().any(|r| r.id == 3), "error trace retained");
        assert_eq!(rec.find(3).unwrap().status, 404);
        // A slow error is not duplicated in the snapshot.
        rec.admit(record(4, 10, 5_000, 500));
        let snap = rec.snapshot();
        assert_eq!(snap.iter().filter(|r| r.id == 4).count(), 1);
        assert_eq!(snap[0].id, 4, "slowest first");
    }

    #[test]
    fn stage_overflow_is_counted_not_stored() {
        // The registry is process-wide, so compare before and after.
        let dropped = crate::counter("obs_spans_dropped_total", &[]);
        let before = dropped.get();
        let rec = FlightRecorder::new(1);
        let t = rec.begin(Instant::now(), 0);
        let now = Instant::now();
        for _ in 0..Trace::MAX_STAGES + 5 {
            t.record_span("s", "", now, now, 0);
        }
        let sealed = t.seal("GET /x", 200, 0);
        assert_eq!(sealed.stages.len(), Trace::MAX_STAGES);
        assert_eq!(sealed.stages_dropped, 5);
        assert_eq!(
            dropped.get() - before,
            5,
            "the global counter sees the loss"
        );
    }

    #[test]
    fn json_rendering_validates_and_escapes() {
        let rec = FlightRecorder::new(2);
        let t = rec.begin(Instant::now(), 42);
        {
            let mut g = t.stage("route");
            g.set_detail("q=\"a\\b\"");
        }
        rec.admit(t.seal("GET /errors?host=\"x\"", 200, 1_234_000));
        let json = render_traces_json(&rec.snapshot());
        crate::check::validate_json(&json).unwrap();
        assert!(json.contains(&t.id_hex()));
        assert!(json.contains("\"total_us\": 1234"));
        assert!(json.contains("\\\"a\\\\b\\\""));
        let empty = render_traces_json(&[]);
        crate::check::validate_json(&empty).unwrap();
        assert!(empty.contains("\"count\": 0"));
    }
}

//! The listener: a non-blocking epoll event loop core.
//!
//! `workers` event-loop threads each own an epoll instance
//! ([`crate::epoll::Poller`]), a clone of the shared non-blocking
//! listener (level-triggered shared accept — no dedicated acceptor
//! thread), a [`crate::wheel::TimerWheel`] of connection deadlines, and
//! the connections accepted on that loop. Each connection is a small
//! state machine: socket reads feed the incremental
//! [`crate::http::Parser`], completed requests are dispatched inline to
//! [`router::handle`] (a cache miss renders on this thread, from the
//! snapshot's report or its host/kind index), and responses drain
//! through a buffered non-blocking write with `EPOLLOUT` armed only
//! while bytes are pending.
//!
//! Every resource stays capped, exactly as in the thread-pool
//! predecessor: concurrent connections (`workers + max_queue`; one past
//! the cap is answered `503` in one round-trip), request-head bytes
//! (`413`), declared body bytes (`413` before the body is read), time to
//! deliver a request (`408` via the timer wheel — covers both a stalled
//! head and a slowloris body drip), time to drain a response (stalled
//! readers are dropped), and idle keep-alive lifetime (closed silently).
//! After an error response the connection lingers briefly discarding
//! request bytes (bounded in bytes and time) so the close is a clean FIN
//! and never an RST that clips the response.
//!
//! Shutdown ([`RunningServer::shutdown`], `Drop`, or a process signal)
//! drains: deregister the listener, close idle connections immediately,
//! let in-flight requests finish with `Connection: close`, and join the
//! loops under a bounded grace period.

use crate::cache::ResponseCache;
use crate::epoll::{Event, Interest, Poller, Waker};
use crate::http::{
    write_response, ParseProgress, Parser, ReadOutcome, Request, RequestLimits, Response,
};
use crate::ingest::IngestHandle;
use crate::router::{self, ObsState};
use crate::store::StoreHandle;
use crate::whatif::{WhatifConfig, WhatifHandle};
use crate::wheel::TimerWheel;
use obs::{FlightRecorder, Trace, Tsdb};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Listener tunables. The defaults suit a local query server; tests
/// shrink them to exercise the rejection and timeout paths.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7171` (`:0` for an ephemeral port).
    pub addr: String,
    /// Event-loop threads sharing the listener.
    pub workers: usize,
    /// Connection headroom beyond one-per-worker: the concurrent
    /// connection cap is `workers + max_queue`, and a connection beyond
    /// it is answered `503` (the name survives from the thread-pool
    /// core, where this was the accept-queue depth).
    pub max_queue: usize,
    /// Request-head byte cap; beyond it the request is answered `413`.
    pub max_request_bytes: usize,
    /// `POST` body byte cap; a larger declared `Content-Length` is
    /// answered `413` without reading the body.
    pub max_body_bytes: usize,
    /// Time budget for receiving a request (a stalled or dripping
    /// sender gets `408`, then close) and for an idle keep-alive
    /// connection (closed silently).
    pub read_timeout: Duration,
    /// Time budget for draining a response (a stalled reader gets
    /// dropped).
    pub write_timeout: Duration,
    /// Flight-recorder capacity: how many slowest traces each rolling
    /// window retains. `0` (the default) disables request tracing —
    /// no trace ids are minted, responses carry no `X-Trace-Id`, and
    /// `/debug/traces` answers `404`.
    pub trace_capacity: usize,
    /// Self-scrape cadence for `/metrics/history`, in seconds. `0`
    /// (the default) disables the scraper thread and the endpoint.
    pub scrape_secs: u64,
    /// Emit one Common Log Format line per dispatched request to
    /// stderr.
    pub access_log: bool,
    /// The `/whatif` counterfactual-campaign service: worker count,
    /// queue depth, rep cap. `workers == 0` disables the service
    /// (`/whatif` then answers `404`).
    pub whatif: WhatifConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            max_queue: 64,
            max_request_bytes: 8 * 1024,
            max_body_bytes: 8 * 1024 * 1024,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            trace_capacity: 0,
            scrape_secs: 0,
            access_log: false,
            whatif: WhatifConfig::default(),
        }
    }
}

/// Why the server could not start.
#[derive(Debug)]
pub enum ServeError {
    /// Binding the listen address failed.
    Bind {
        /// The address that was requested.
        addr: String,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// Creating the event-loop machinery (epoll instance, wakeup
    /// eventfd, listener clone) failed.
    EventLoop {
        /// The underlying I/O error.
        source: io::Error,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Bind { addr, source } => {
                write!(f, "failed to bind {addr}: {source}")
            }
            ServeError::EventLoop { source } => {
                write!(f, "failed to start event loop: {source}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Bind { source, .. } => Some(source),
            ServeError::EventLoop { source } => Some(source),
        }
    }
}

/// A started server: the bound address plus the handles needed to drain
/// its event loops.
#[derive(Debug)]
pub struct RunningServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    wakers: Vec<Arc<Waker>>,
    loops: Vec<JoinHandle<()>>,
    scraper: Option<JoinHandle<()>>,
    whatif: Option<Arc<WhatifHandle>>,
    whatif_workers: Vec<JoinHandle<()>>,
}

impl RunningServer {
    /// The actual bound address (resolves `:0` to the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests
    /// under a bounded grace period, join every loop. Idempotent via
    /// `Drop` (a second call finds the handles already taken).
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
        for handle in self.loops.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.scraper.take() {
            let _ = handle.join();
        }
        // After the loops: an in-flight synchronous /whatif request
        // blocks its loop thread on the campaign, so the workers must
        // outlive the loops.
        if let Some(whatif) = self.whatif.take() {
            whatif.request_shutdown();
        }
        for handle in self.whatif_workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Binds and starts serving `store` under `config`, read-only
/// (`/ingest/*` answers `404`).
///
/// # Errors
///
/// [`ServeError::Bind`] when the listen address cannot be bound;
/// [`ServeError::EventLoop`] when the epoll machinery cannot start.
pub fn start(config: ServerConfig, store: Arc<StoreHandle>) -> Result<RunningServer, ServeError> {
    start_with_ingest(config, store, None)
}

/// Binds and starts serving `store` under `config`, with the live ingest
/// write path attached when `ingest` is given (the handle should already
/// have a worker via [`crate::ingest::spawn_worker`]).
///
/// # Errors
///
/// [`ServeError::Bind`] when the listen address cannot be bound;
/// [`ServeError::EventLoop`] when the epoll machinery cannot start.
pub fn start_with_ingest(
    config: ServerConfig,
    store: Arc<StoreHandle>,
    ingest: Option<Arc<IngestHandle>>,
) -> Result<RunningServer, ServeError> {
    let listener = TcpListener::bind(&config.addr).map_err(|source| ServeError::Bind {
        addr: config.addr.clone(),
        source,
    })?;
    let addr = listener.local_addr().map_err(|source| ServeError::Bind {
        addr: config.addr.clone(),
        source,
    })?;
    listener
        .set_nonblocking(true)
        .map_err(|source| ServeError::EventLoop { source })?;

    let stop = Arc::new(AtomicBool::new(false));
    let conns_open = Arc::new(AtomicUsize::new(0));
    let cache = Arc::new(ResponseCache::new());
    let capacity = config.workers.max(1) + config.max_queue.max(1);

    let whatif = (config.whatif.workers > 0).then(|| WhatifHandle::new(config.whatif.clone()));
    let whatif_workers = whatif
        .as_ref()
        .map(WhatifHandle::spawn_workers)
        .unwrap_or_default();

    let obs_state = Arc::new(ObsState {
        recorder: (config.trace_capacity > 0)
            .then(|| Arc::new(FlightRecorder::new(config.trace_capacity))),
        tsdb: (config.scrape_secs > 0)
            .then(|| Arc::new(Tsdb::new(Tsdb::DEFAULT_POINTS_PER_SERIES))),
    });
    let scraper = obs_state.tsdb.as_ref().map(|tsdb| {
        let tsdb = Arc::clone(tsdb);
        let stop = Arc::clone(&stop);
        let cadence = Duration::from_secs(config.scrape_secs);
        std::thread::spawn(move || scrape_loop(&tsdb, &stop, cadence))
    });

    let nloops = config.workers.max(1);
    let mut wakers = Vec::with_capacity(nloops);
    let mut loops = Vec::with_capacity(nloops);
    for _ in 0..nloops {
        // Every loop gets its own clone of the shared listening socket;
        // the original drops when this function returns, and the socket
        // closes when the last loop exits.
        let listener = listener
            .try_clone()
            .map_err(|source| ServeError::EventLoop { source })?;
        let poller = Poller::new().map_err(|source| ServeError::EventLoop { source })?;
        let waker = Arc::new(Waker::new().map_err(|source| ServeError::EventLoop { source })?);
        wakers.push(Arc::clone(&waker));
        let event_loop = EventLoop::new(
            poller,
            listener,
            waker,
            config.clone(),
            Arc::clone(&store),
            Arc::clone(&cache),
            ingest.clone(),
            whatif.clone(),
            Arc::clone(&stop),
            Arc::clone(&conns_open),
            capacity,
            Arc::clone(&obs_state),
        );
        loops.push(std::thread::spawn(move || event_loop.run()));
    }

    Ok(RunningServer {
        addr,
        stop,
        wakers,
        loops,
        scraper,
        whatif,
        whatif_workers,
    })
}

/// The self-scrape driver: absorbs a registry snapshot into the
/// time-series rings every `cadence`, stamped with real unix seconds
/// (the tsdb ignores a scrape whose clock has not advanced, so a
/// sub-second cadence degrades gracefully to one point per second).
/// Polls the stop flag at 50 ms so shutdown never waits on a sleep.
fn scrape_loop(tsdb: &Tsdb, stop: &AtomicBool, cadence: Duration) {
    scrape_once(tsdb);
    let mut last = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
        if last.elapsed() >= cadence {
            last = Instant::now();
            scrape_once(tsdb);
        }
    }
}

fn scrape_once(tsdb: &Tsdb) {
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    if tsdb.scrape(t, &obs::global().registry().snapshot()) && obs::is_enabled() {
        let stats = tsdb.stats();
        obs::gauge("obs_tsdb_series", &[]).set(stats.series as u64);
        obs::gauge("obs_tsdb_points", &[]).set(stats.points as u64);
    }
}

/// Answers a connection over the capacity cap with a one-shot `503`.
/// The freshly accepted socket is still blocking with an empty send
/// buffer, so the write completes in one syscall.
fn shed(mut conn: TcpStream) {
    if obs::is_enabled() {
        obs::counter("servd_connections_rejected_total", &[]).inc();
    }
    let _ = conn.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = conn.write_all(
        b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 9\r\nConnection: close\r\n\r\noverload\n",
    );
}

// --------------------------------------------------------- event loop

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_BASE: u64 = 2;

/// Timer-wheel tick width: deadlines are second-scale, so ±10 ms of
/// quantization is invisible.
const WHEEL_TICK: Duration = Duration::from_millis(10);
const WHEEL_SLOTS: usize = 1024;

/// How long the loop sleeps with nothing armed — bounds the latency of
/// noticing the stop flag or a process signal.
const STOP_POLL: Duration = Duration::from_millis(500);

/// Post-error linger caps, matching the old `drain_input`: discard at
/// most this many request bytes / this much time before closing, so the
/// FIN is clean but a firehose cannot hold the connection.
const DRAIN_BYTE_CAP: usize = 64 * 1024;
const DRAIN_TIME_CAP: Duration = Duration::from_millis(250);

/// Per-readable-event read cap, so one firehose connection cannot
/// starve its loop; level triggering re-arms the leftover immediately.
const READ_BURST: usize = 64 * 1024;

/// Which deadline a connection currently has armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeadlineKind {
    /// Idle keep-alive expiry — close silently.
    IdleClose,
    /// A request started arriving but has not completed — answer `408`.
    Request408,
    /// Queued response bytes are not draining — drop the connection.
    WriteStall,
    /// Post-error linger elapsed — close.
    DrainOver,
}

/// Connection lifecycle phase.
#[derive(Debug)]
enum Phase {
    /// Parsing requests and writing responses.
    Serving,
    /// An error response was queued; discard request bytes (bounded)
    /// until the linger ends, then close.
    Draining { since: Instant, discarded: usize },
}

/// A dispatched request whose trace is waiting for its response bytes
/// to drain before sealing: the flight recorder only admits traces
/// whose `total_ns` includes the write, so a slow reader shows up as a
/// slow trace with a long `write` stage.
#[derive(Debug)]
struct PendingTrace {
    trace: Arc<Trace>,
    /// When the response bytes were queued — start of the write stage.
    queued: Instant,
    /// `METHOD /path`, the flight recorder's endpoint key.
    endpoint: String,
    status: u16,
}

/// Everything [`Conn::advance`] needs from its event loop to dispatch a
/// completed request (bundled so the signature survives clippy's
/// argument budget as the loop grows context).
struct Dispatch<'a> {
    store: &'a StoreHandle,
    cache: &'a ResponseCache,
    ingest: Option<&'a IngestHandle>,
    whatif: Option<&'a WhatifHandle>,
    obs: &'a ObsState,
    access_log: bool,
    server_draining: bool,
}

/// One connection's state machine.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    parser: Parser,
    phase: Phase,
    /// Peer address at accept time (for the access log; `None` if the
    /// accept path could not resolve it).
    peer: Option<SocketAddr>,
    /// Traces of dispatched requests whose responses are still
    /// draining; sealed when `out` empties (or the connection dies).
    pending: Vec<PendingTrace>,
    /// Buffered response bytes not yet written.
    out: Vec<u8>,
    written: usize,
    /// Close once `out` drains (Connection: close, or peer EOF).
    closing: bool,
    /// Fatal socket error — close unconditionally.
    dead: bool,
    /// The peer closed its write side; stop reading.
    peer_closed: bool,
    /// When the connection last became idle (accept, or last response
    /// of a completed request) — anchors the keep-alive deadline.
    idle_since: Instant,
    /// When the first byte of the in-flight request arrived.
    req_started: Option<Instant>,
    /// When `out` last became non-empty — anchors the write deadline.
    write_started: Option<Instant>,
    /// Interest currently registered with the poller.
    registered: Interest,
    /// Deadline currently armed (lazily cancelled via `gen`).
    armed: Option<(DeadlineKind, Instant)>,
    gen: u64,
    read_timeout: Duration,
    write_timeout: Duration,
}

impl Conn {
    fn new(
        stream: TcpStream,
        peer: Option<SocketAddr>,
        limits: RequestLimits,
        config: &ServerConfig,
        now: Instant,
    ) -> Conn {
        Conn {
            stream,
            parser: Parser::new(limits),
            phase: Phase::Serving,
            peer,
            pending: Vec::new(),
            out: Vec::new(),
            written: 0,
            closing: false,
            dead: false,
            peer_closed: false,
            idle_since: now,
            req_started: None,
            write_started: None,
            registered: Interest::READ,
            armed: None,
            gen: 0,
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
        }
    }

    fn out_done(&self) -> bool {
        self.written == self.out.len()
    }

    /// Reads whatever the socket has (up to [`READ_BURST`]), feeding the
    /// parser (serving) or the void (draining).
    fn fill(&mut self, now: Instant) {
        if self.peer_closed || self.dead {
            return;
        }
        let mut buf = [0u8; 16 * 1024];
        let mut taken = 0usize;
        loop {
            if taken >= READ_BURST {
                return; // level triggering will re-deliver the rest
            }
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.peer_closed = true;
                    match self.phase {
                        Phase::Serving => match self.parser.close() {
                            None => self.closing = true,
                            Some(outcome) => self.fail(&outcome, now),
                        },
                        Phase::Draining { .. } => {}
                    }
                    return;
                }
                Ok(n) => {
                    taken += n;
                    match &mut self.phase {
                        Phase::Serving => {
                            if self.closing {
                                // Response with Connection: close already
                                // queued; ignore pipelined leftovers.
                                continue;
                            }
                            self.parser.push(&buf[..n]);
                            if self.req_started.is_none() && self.parser.mid_request() {
                                self.req_started = Some(now);
                            }
                        }
                        Phase::Draining { discarded, .. } => {
                            *discarded += n;
                            if *discarded >= DRAIN_BYTE_CAP {
                                return;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Runs the parser over buffered bytes and dispatches every
    /// completed request (inline — a cache miss renders on this thread).
    ///
    /// With tracing on, each completed request mints a [`Trace`] whose
    /// epoch is the arrival of its first byte: `parse` covers first
    /// byte → dispatch, `queue_wait` covers the epoll wakeup →
    /// dispatch (for pipelined requests that includes time spent
    /// serving earlier requests in the batch), the router records its
    /// own child stages, and the final `write` stage lands when the
    /// response bytes drain (see [`EventLoop::after_io`]).
    fn advance(&mut self, now: Instant, ctx: &Dispatch<'_>) {
        while matches!(self.phase, Phase::Serving) && !self.closing && !self.dead {
            match self.parser.poll(Some(now)) {
                ParseProgress::NeedMore => break,
                ParseProgress::Done(req) => {
                    let head_only = req.method == "HEAD";
                    let keep = req.keep_alive && !ctx.server_draining;
                    let dispatch_start = Instant::now();
                    let trace = ctx.obs.recorder.as_ref().map(|recorder| {
                        let epoch = self.req_started.unwrap_or(now);
                        let trace = recorder.begin(epoch, obs::trace::unix_ms_now());
                        trace.record_span(
                            "parse",
                            "",
                            epoch,
                            dispatch_start,
                            req.body.len() as u64,
                        );
                        trace.record_span("queue_wait", "", now, dispatch_start, 0);
                        trace
                    });
                    let response = router::handle_traced(
                        &req,
                        ctx.store,
                        ctx.cache,
                        ctx.ingest,
                        ctx.whatif,
                        ctx.obs,
                        trace.as_ref(),
                    );
                    if ctx.access_log {
                        access_log_line(self.peer, &req, &response);
                    }
                    self.queue_response(&response, keep, head_only, now);
                    if let Some(trace) = trace {
                        self.pending.push(PendingTrace {
                            trace,
                            queued: Instant::now(),
                            endpoint: format!("{} {}", req.method, req.path),
                            status: response.status,
                        });
                    }
                    if !keep {
                        self.closing = true;
                    }
                    self.req_started = if self.parser.mid_request() {
                        Some(now)
                    } else {
                        self.idle_since = now;
                        None
                    };
                }
                ParseProgress::Fail(outcome) => {
                    self.fail(&outcome, now);
                    break;
                }
            }
        }
    }

    /// Queues the error response for a parse failure and enters the
    /// post-error linger. [`ReadOutcome::Closed`] never reaches here
    /// (EOF with an empty parser closes quietly in `fill`).
    fn fail(&mut self, outcome: &ReadOutcome, now: Instant) {
        let response = match outcome {
            ReadOutcome::Request(_) | ReadOutcome::Closed => return,
            ReadOutcome::TooLarge => Response::text(413, "request too large\n"),
            ReadOutcome::BodyTooLarge => Response::text(413, "request body too large\n"),
            ReadOutcome::LengthRequired => Response::text(411, "POST requires a Content-Length\n"),
            ReadOutcome::TimedOut => Response::text(408, "request timed out\n"),
            ReadOutcome::Malformed(why) => Response::text(400, format!("{why}\n")),
        };
        self.queue_response(&response, false, false, now);
        self.closing = true;
        self.phase = Phase::Draining {
            since: now,
            discarded: 0,
        };
    }

    fn queue_response(
        &mut self,
        response: &Response,
        keep_alive: bool,
        head_only: bool,
        now: Instant,
    ) {
        if self.out_done() {
            self.out.clear();
            self.written = 0;
        }
        if self.out.is_empty() {
            self.write_started = Some(now);
        }
        // Writing into a Vec is infallible.
        let _ = write_response(&mut self.out, response, keep_alive, head_only);
    }

    /// Writes queued response bytes until the socket would block.
    fn flush(&mut self) {
        while self.written < self.out.len() && !self.dead {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => {
                    self.dead = true;
                }
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
        if self.out_done() && !self.out.is_empty() {
            self.out.clear();
            self.written = 0;
            self.write_started = None;
        }
    }

    fn should_close(&self, now: Instant) -> bool {
        if self.dead {
            return true;
        }
        if !self.out_done() {
            return false;
        }
        match &self.phase {
            Phase::Serving => self.closing,
            Phase::Draining { since, discarded } => {
                self.peer_closed
                    || *discarded >= DRAIN_BYTE_CAP
                    || now.saturating_duration_since(*since) >= DRAIN_TIME_CAP
            }
        }
    }

    fn desired_interest(&self) -> Interest {
        let readable = !self.peer_closed
            && match &self.phase {
                Phase::Serving => !self.closing,
                Phase::Draining { discarded, .. } => *discarded < DRAIN_BYTE_CAP,
            };
        Interest {
            readable,
            writable: !self.out_done(),
        }
    }

    fn desired_deadline(&self) -> (DeadlineKind, Instant) {
        if let Phase::Draining { since, .. } = &self.phase {
            return (DeadlineKind::DrainOver, *since + DRAIN_TIME_CAP);
        }
        if let Some(started) = self.write_started {
            if !self.out_done() {
                return (DeadlineKind::WriteStall, started + self.write_timeout);
            }
        }
        if self.parser.mid_request() {
            // The body phase re-anchors the budget at its own start,
            // like the one-shot reader's body clock did; the parser's
            // internal budget handles drip-feeding, this wheel deadline
            // handles total silence.
            let anchor = self
                .parser
                .body_started()
                .or(self.req_started)
                .unwrap_or(self.idle_since);
            return (DeadlineKind::Request408, anchor + self.read_timeout);
        }
        (DeadlineKind::IdleClose, self.idle_since + self.read_timeout)
    }
}

/// One event-loop thread: poller, listener clone, timer wheel, and the
/// connections accepted here.
struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    waker: Arc<Waker>,
    config: ServerConfig,
    limits: RequestLimits,
    store: Arc<StoreHandle>,
    cache: Arc<ResponseCache>,
    ingest: Option<Arc<IngestHandle>>,
    whatif: Option<Arc<WhatifHandle>>,
    stop: Arc<AtomicBool>,
    conns_open: Arc<AtomicUsize>,
    capacity: usize,
    obs_state: Arc<ObsState>,
    conns: HashMap<u64, Conn>,
    wheel: TimerWheel,
    next_token: u64,
    draining: bool,
    drain_deadline: Option<Instant>,
}

impl EventLoop {
    #[allow(clippy::too_many_arguments)]
    fn new(
        poller: Poller,
        listener: TcpListener,
        waker: Arc<Waker>,
        config: ServerConfig,
        store: Arc<StoreHandle>,
        cache: Arc<ResponseCache>,
        ingest: Option<Arc<IngestHandle>>,
        whatif: Option<Arc<WhatifHandle>>,
        stop: Arc<AtomicBool>,
        conns_open: Arc<AtomicUsize>,
        capacity: usize,
        obs_state: Arc<ObsState>,
    ) -> EventLoop {
        let limits = RequestLimits {
            max_head_bytes: config.max_request_bytes,
            max_body_bytes: config.max_body_bytes,
            body_timeout: Some(config.read_timeout),
        };
        EventLoop {
            poller,
            listener,
            waker,
            config,
            limits,
            store,
            cache,
            ingest,
            whatif,
            stop,
            conns_open,
            capacity,
            obs_state,
            conns: HashMap::new(),
            wheel: TimerWheel::new(Instant::now(), WHEEL_TICK, WHEEL_SLOTS),
            next_token: TOKEN_BASE,
            draining: false,
            drain_deadline: None,
        }
    }

    fn run(mut self) {
        if self
            .poller
            .add(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
            .is_err()
        {
            return;
        }
        if self
            .poller
            .add(self.waker.fd(), TOKEN_WAKER, Interest::READ)
            .is_err()
        {
            return;
        }
        let mut events: Vec<Event> = Vec::new();
        let mut expired: Vec<(u64, u64)> = Vec::new();
        loop {
            let now = Instant::now();
            if !self.draining
                && (self.stop.load(Ordering::SeqCst) || crate::signal::shutdown_requested())
            {
                self.begin_drain(now);
            }
            if self.draining
                && (self.conns.is_empty() || self.drain_deadline.is_some_and(|d| now >= d))
            {
                break;
            }
            let timeout = self.wait_timeout(now);
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break;
            }
            let now = Instant::now();
            for &event in &events {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(now),
                    TOKEN_WAKER => self.waker.drain(),
                    token => self.conn_event(token, event.readable, event.writable, now),
                }
            }
            expired.clear();
            self.wheel.expire(now, &mut expired);
            for &(token, gen) in &expired {
                self.deadline_fired(token, gen, now);
            }
        }
        // Teardown: whatever is still open closes with the loop.
        let remaining = self.conns.len();
        self.conns.clear();
        self.conns_open.fetch_sub(remaining, Ordering::SeqCst);
    }

    fn wait_timeout(&self, now: Instant) -> Duration {
        let mut timeout = STOP_POLL;
        if let Some(next) = self.wheel.next_wakeup(now) {
            timeout = timeout.min(next);
        }
        if let Some(deadline) = self.drain_deadline {
            timeout = timeout.min(deadline.saturating_duration_since(now));
        }
        timeout.max(Duration::from_millis(1))
    }

    fn begin_drain(&mut self, now: Instant) {
        self.draining = true;
        self.drain_deadline =
            Some(now + self.config.read_timeout.max(self.config.write_timeout) + STOP_POLL);
        let _ = self.poller.remove(self.listener.as_raw_fd());
        // Idle connections close immediately; busy ones finish their
        // in-flight request with Connection: close.
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.parser.is_idle() && c.out_done())
            .map(|(t, _)| *t)
            .collect();
        for token in idle {
            self.close_conn(token);
        }
    }

    fn accept_ready(&mut self, _now: Instant) {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    if self.draining {
                        continue; // drop: we are on the way out
                    }
                    let prev = self.conns_open.fetch_add(1, Ordering::SeqCst);
                    if prev >= self.capacity {
                        self.conns_open.fetch_sub(1, Ordering::SeqCst);
                        shed(stream);
                        continue;
                    }
                    if obs::is_enabled() {
                        obs::counter("servd_connections_total", &[]).inc();
                    }
                    if stream.set_nonblocking(true).is_err() {
                        self.conns_open.fetch_sub(1, Ordering::SeqCst);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    let now = Instant::now();
                    if self
                        .poller
                        .add(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        self.conns_open.fetch_sub(1, Ordering::SeqCst);
                        continue;
                    }
                    let conn = Conn::new(stream, Some(peer), self.limits, &self.config, now);
                    self.conns.insert(token, conn);
                    self.after_io(token, now);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn conn_event(&mut self, token: u64, readable: bool, writable: bool, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if writable {
            conn.flush();
        }
        if readable {
            conn.fill(now);
        }
        let ctx = Dispatch {
            store: &self.store,
            cache: &self.cache,
            ingest: self.ingest.as_deref(),
            whatif: self.whatif.as_deref(),
            obs: &self.obs_state,
            access_log: self.config.access_log,
            server_draining: self.draining,
        };
        conn.advance(now, &ctx);
        conn.flush();
        self.after_io(token, now);
    }

    fn deadline_fired(&mut self, token: u64, gen: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.gen != gen {
            return; // stale entry, lazily cancelled
        }
        let Some((kind, _)) = conn.armed else {
            return;
        };
        match kind {
            DeadlineKind::IdleClose | DeadlineKind::WriteStall | DeadlineKind::DrainOver => {
                self.close_conn(token);
            }
            DeadlineKind::Request408 => {
                conn.fail(&ReadOutcome::TimedOut, now);
                conn.flush();
                self.after_io(token, now);
            }
        }
    }

    /// Post-I/O bookkeeping: close, or converge epoll interest and the
    /// armed deadline with the connection's current state. Traces of
    /// fully drained responses seal here — before the close check, so
    /// a normally completed `Connection: close` request is recorded as
    /// `write`, never `write_aborted`.
    fn after_io(&mut self, token: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.out_done() && !conn.pending.is_empty() {
            // A fresh instant, not the loop's `now`: that was taken
            // before this cycle dispatched, and the seal must cover
            // the dispatch and the write that just drained.
            seal_pending(conn, &self.obs_state, Instant::now(), "write");
        }
        if conn.should_close(now) {
            self.close_conn(token);
            return;
        }
        let interest = conn.desired_interest();
        if interest != conn.registered
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), token, interest)
                .is_ok()
        {
            conn.registered = interest;
        }
        let desired = conn.desired_deadline();
        if conn.armed != Some(desired) {
            conn.gen += 1;
            conn.armed = Some(desired);
            self.wheel.schedule(token, conn.gen, desired.1);
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(mut conn) = self.conns.remove(&token) {
            // Anything still pending here never finished draining
            // (dead socket, write stall, shutdown teardown): seal it
            // as an error-shaped trace so the abort is inspectable.
            if !conn.pending.is_empty() {
                seal_pending(&mut conn, &self.obs_state, Instant::now(), "write_aborted");
            }
            let _ = self.poller.remove(conn.stream.as_raw_fd());
            self.conns_open.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Seals every pending trace on `conn` into the flight recorder: the
/// terminal stage (`write` or `write_aborted`) spans queue → `now`,
/// and the trace's total is first byte → `now`.
fn seal_pending(conn: &mut Conn, obs_state: &ObsState, now: Instant, terminal: &'static str) {
    let Some(recorder) = obs_state.recorder.as_ref() else {
        conn.pending.clear();
        return;
    };
    for p in conn.pending.drain(..) {
        p.trace.record_span(terminal, "", p.queued, now, 0);
        let total_ns = now
            .saturating_duration_since(p.trace.epoch())
            .as_nanos()
            .min(u128::from(u64::MAX)) as u64;
        recorder.admit(p.trace.seal(p.endpoint, p.status, total_ns));
    }
}

/// One NCSA Common Log Format line to stderr:
/// `peer - - [07/Aug/2026:12:00:00 +0000] "GET /errors?host=h HTTP/1.1" 200 1234`.
/// The timestamp is wall-clock UTC; the byte count is the body length
/// (what `Content-Length` declares, also for `HEAD`).
fn access_log_line(peer: Option<SocketAddr>, req: &Request, response: &Response) {
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let stamp = simtime::Timestamp::from_unix(t);
    let (y, mo, d) = stamp.ymd();
    let (h, mi, s) = stamp.hms();
    const MONTHS: [&str; 12] = [
        "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
    ];
    let month = MONTHS[(mo as usize - 1).min(11)];
    let mut target = req.path.clone();
    for (i, (k, v)) in req.query.iter().enumerate() {
        target.push(if i == 0 { '?' } else { '&' });
        target.push_str(k);
        target.push('=');
        target.push_str(v);
    }
    let peer = peer.map_or_else(|| "-".to_owned(), |p| p.ip().to_string());
    let mut err = io::stderr().lock();
    let _ = writeln!(
        err,
        "{peer} - - [{d:02}/{month}/{y}:{h:02}:{mi:02}:{s:02} +0000] \"{} {target} HTTP/1.1\" {} {}",
        req.method,
        response.status,
        response.body.len(),
    );
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::store::StudyStore;
    use resilience::Pipeline;
    use std::net::Shutdown;

    fn handle() -> Arc<StoreHandle> {
        let report = Pipeline::delta().run_events(Vec::new(), None, &[], &[], &[]);
        Arc::new(StoreHandle::new(StudyStore::build(report, None)))
    }

    fn test_config() -> ServerConfig {
        ServerConfig {
            read_timeout: Duration::from_millis(400),
            write_timeout: Duration::from_millis(400),
            ..ServerConfig::default()
        }
    }

    fn get(addr: SocketAddr, target: &str) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(conn, "GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        let mut out = String::new();
        conn.read_to_string(&mut out).unwrap();
        out
    }

    /// Reads exactly one response (headers + `Content-Length` body) off a
    /// keep-alive connection; a single `read` may return a partial write.
    fn read_one_response(conn: &mut TcpStream) -> String {
        let mut buf = Vec::new();
        let mut byte = [0u8; 1];
        while !buf.ends_with(b"\r\n\r\n") {
            assert_eq!(conn.read(&mut byte).unwrap(), 1, "EOF mid-headers");
            buf.push(byte[0]);
        }
        let head = String::from_utf8(buf.clone()).unwrap();
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        let mut body = vec![0u8; length];
        conn.read_exact(&mut body).unwrap();
        buf.extend_from_slice(&body);
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn serves_healthz_end_to_end() {
        let server = start(test_config(), handle()).unwrap();
        let resp = get(server.addr(), "/healthz");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.ends_with("ok\n"));
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let server = start(test_config(), handle()).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        for _ in 0..3 {
            write!(conn, "GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            let text = read_one_response(&mut conn);
            assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
            assert!(text.contains("Connection: keep-alive"));
        }
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let server = start(test_config(), handle()).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Two requests in one segment: responses come back in order on
        // the same connection.
        write!(
            conn,
            "GET /healthz HTTP/1.1\r\n\r\nGET /snapshot HTTP/1.1\r\n\r\n"
        )
        .unwrap();
        let first = read_one_response(&mut conn);
        assert!(first.starts_with("HTTP/1.1 200 OK"), "{first}");
        assert!(first.ends_with("ok\n"), "{first}");
        let second = read_one_response(&mut conn);
        assert!(second.starts_with("HTTP/1.1 200 OK"), "{second}");
        assert!(second.contains("snapshot: 1"), "{second}");
        server.shutdown();
    }

    #[test]
    fn oversized_request_head_gets_413() {
        let config = ServerConfig {
            max_request_bytes: 128,
            ..test_config()
        };
        let server = start(config, handle()).unwrap();
        let resp = get(server.addr(), &format!("/{}", "x".repeat(500)));
        assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn stalled_sender_gets_408_not_a_stuck_loop() {
        let server = start(test_config(), handle()).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        // Half a request, then silence longer than the read timeout.
        write!(conn, "GET /healthz HT").unwrap();
        let mut out = String::new();
        conn.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 408"), "{out}");
    }

    #[test]
    fn connections_over_capacity_are_shed_with_503() {
        // Capacity is workers + max_queue = 2 here: the third concurrent
        // connection must be rejected in one round-trip, not parked.
        let config = ServerConfig {
            workers: 1,
            max_queue: 1,
            read_timeout: Duration::from_secs(2),
            ..test_config()
        };
        let server = start(config, handle()).unwrap();
        let wedge = TcpStream::connect(server.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(150));
        let parked = TcpStream::connect(server.addr()).unwrap();
        std::thread::sleep(Duration::from_millis(150));
        let mut shed_conn = TcpStream::connect(server.addr()).unwrap();
        shed_conn
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut out = String::new();
        shed_conn.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 503"), "{out}");
        drop(wedge);
        drop(parked);
        server.shutdown();
    }

    #[test]
    fn inverted_error_window_answers_header_only_and_keeps_the_loop() {
        use hpclog::{PciAddr, XidEvent};
        use xid::XidCode;

        // One event loop holds the only listener: a handler panic would
        // take the whole server down with it.
        let op = simtime::StudyPeriods::delta().op.start;
        let events = [(100, 119), (5000, 31)].map(|(secs, code)| {
            XidEvent::new(
                op + simtime::Duration::from_secs(secs),
                "gpub001",
                PciAddr::for_gpu_index(0),
                XidCode::new(code),
                "",
            )
        });
        let report = Pipeline::delta().run_events(events.to_vec(), None, &[], &[], &[]);
        let store = Arc::new(StoreHandle::new(StudyStore::build(report, None)));
        let config = ServerConfig {
            workers: 1,
            ..test_config()
        };
        let server = start(config, store).unwrap();
        // `from` after `to`, with the row at +100 s between them.
        let (from, to) = (op.unix() + 200, op.unix() + 50);
        for filter in ["host=gpub001", "xid=119", "host=gpub001&xid=119"] {
            let resp = get(
                server.addr(),
                &format!("/errors?{filter}&from={from}&to={to}"),
            );
            assert!(resp.starts_with("HTTP/1.1 200 OK"), "{filter}: {resp}");
            assert!(
                resp.ends_with("\r\n\r\ntime,host,pci,xid,kind,merged_lines\n"),
                "{filter}: {resp}"
            );
        }
        assert!(get(server.addr(), "/healthz").ends_with("ok\n"));
        server.shutdown();
    }

    #[test]
    fn idle_keep_alive_connection_is_closed_silently() {
        let server = start(test_config(), handle()).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(conn, "GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let first = read_one_response(&mut conn);
        assert!(first.starts_with("HTTP/1.1 200 OK"), "{first}");
        // Send nothing: past the idle timeout the server closes with no
        // status line (it would be 408 only mid-request).
        let mut rest = Vec::new();
        conn.read_to_end(&mut rest).unwrap();
        assert!(
            rest.is_empty(),
            "idle close leaked bytes: {:?}",
            String::from_utf8_lossy(&rest)
        );
        server.shutdown();
    }

    #[test]
    fn graceful_shutdown_joins_and_refuses_new_connections() {
        let server = start(test_config(), handle()).unwrap();
        let addr = server.addr();
        assert!(get(addr, "/healthz").contains("200 OK"));
        server.shutdown();
        // The listener is gone: either the connect fails outright or the
        // backlogged-then-dropped socket yields no bytes.
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut conn) => {
                conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
                let _ = write!(conn, "GET /healthz HTTP/1.1\r\n\r\n");
                let _ = conn.shutdown(Shutdown::Write);
                let mut out = Vec::new();
                let _ = conn.read_to_end(&mut out);
                assert!(out.is_empty(), "served after shutdown");
            }
        }
    }

    #[test]
    fn traced_request_resolves_via_debug_traces() {
        let config = ServerConfig {
            trace_capacity: 16,
            ..test_config()
        };
        let server = start(config, handle()).unwrap();
        let resp = get(server.addr(), "/errors");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        let id = resp
            .lines()
            .find_map(|l| l.strip_prefix("X-Trace-Id: "))
            .expect("traced response must carry X-Trace-Id")
            .trim()
            .to_owned();
        // The trace seals when its response bytes drain; that happens
        // before the connection closes, but poll defensively anyway.
        let mut lookup = String::new();
        for _ in 0..100 {
            lookup = get(server.addr(), &format!("/debug/traces?id={id}"));
            if lookup.starts_with("HTTP/1.1 200") {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(lookup.starts_with("HTTP/1.1 200"), "{lookup}");
        for stage in ["\"parse\"", "\"route\"", "\"cache_lookup\"", "\"write\""] {
            assert!(lookup.contains(stage), "missing {stage} in {lookup}");
        }
        assert!(lookup.contains(&format!("\"id\": \"{id}\"")), "{lookup}");
        server.shutdown();
    }

    #[test]
    fn tracing_disabled_by_default_and_debug_traces_404s() {
        let server = start(test_config(), handle()).unwrap();
        let resp = get(server.addr(), "/errors");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(!resp.contains("X-Trace-Id"), "{resp}");
        let dump = get(server.addr(), "/debug/traces");
        assert!(dump.starts_with("HTTP/1.1 404"), "{dump}");
        let history = get(server.addr(), "/metrics/history?name=x");
        assert!(history.starts_with("HTTP/1.1 404"), "{history}");
        server.shutdown();
    }

    #[test]
    fn readyz_reports_snapshot_and_no_ingest() {
        let server = start(test_config(), handle()).unwrap();
        let resp = get(server.addr(), "/readyz");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.contains("\"ready\":true"), "{resp}");
        assert!(resp.contains("\"snapshot\":1"), "{resp}");
        assert!(resp.contains("\"live_ingest\":false"), "{resp}");
        server.shutdown();
    }

    #[test]
    fn metrics_history_serves_scraped_points() {
        let config = ServerConfig {
            scrape_secs: 1,
            ..test_config()
        };
        let server = start(config, handle()).unwrap();
        // The scraper takes an immediate first sample; any metric the
        // registry already holds will have at least one point.
        let mut resp = String::new();
        for _ in 0..100 {
            resp = get(server.addr(), "/metrics/history?name=servd_requests_total");
            if resp.contains("\"points\": [[") {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "{resp}");
        assert!(resp.contains("\"points\": [["), "{resp}");
        // Span totals are registry series, so the scraper keeps their
        // history too: the store build behind handle() is in it.
        let spans = get(server.addr(), "/metrics/history?name=obs_span_count");
        assert!(
            spans.contains("{\"labels\": {\"span\": \"servd_store_build\"}, \"points\": [["),
            "{spans}"
        );
        server.shutdown();
    }

    #[test]
    fn malformed_request_gets_400_and_close() {
        let server = start(test_config(), handle()).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write!(conn, "BLETCH\r\n\r\n").unwrap();
        let mut out = String::new();
        conn.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        assert!(out.contains("Connection: close"));
        server.shutdown();
    }
}

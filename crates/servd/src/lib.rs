//! `servd` — the query/serving subsystem over a finished (or still
//! streaming) GPU-resilience study.
//!
//! Four PRs of pipeline produce a [`StudyReport`](resilience::StudyReport)
//! and render it once to stdout; this crate makes the same results
//! *queryable*: an immutable, columnar [`StudyStore`] behind a
//! hand-rolled HTTP/1.1 listener, in the workspace's zero-external-crates
//! discipline (everything is `std`).
//!
//! # Architecture
//!
//! ```text
//!  POST /ingest/* ─ IngestHandle ─ bounded queue + WAL ─ ingest worker
//!        (429 on overflow)                                   │ cadence
//!                                                            ▼
//!  Pipeline / StreamingPipeline ──────────────── materialize + checkpoint
//!        │ publish_study
//!        ▼
//!  StoreHandle ── RwLock<Arc<Published{id, StudyStore}>> ── atomic swap
//!        │ current(): Arc clone     │ StudyStore = report + host-range index
//!        ▼                          ▼
//!  router ── ResponseCache ── miss: render inline ─ k-way merge (hpclog)
//!        ▲
//!  server ── epoll event loops ─ conn state machines ─ timer wheel
//! ```
//!
//! * [`store`] — the snapshot: the study report plus a host-range index
//!   (sorted column vectors and posting lists answering filtered queries
//!   by binary search), every surface rendered from those two on the
//!   event loop that asks, and the [`StoreHandle`](store::StoreHandle)
//!   swap point that live ingest publishes through.
//! * [`router`] — path/query dispatch: `/tables/{1,2,3}`, `/fig2`
//!   (byte-identical to the offline renderers), `/errors`, `/mtbe`,
//!   `/jobs/impact`, `/availability`, `/snapshot`, `/healthz`,
//!   `/readyz` (snapshot age + ingest backlog), `/metrics` (the `obs`
//!   Prometheus exposition), `/metrics/history` (self-scraped series
//!   rings), and `/debug/traces` (the slow-trace flight recorder).
//! * [`cache`] — snapshot-scoped response memo, invalidated wholesale on
//!   swap.
//! * [`ingest`] — the write path: `POST /ingest/*` admission behind a
//!   bounded queue (`429` + `Retry-After` on overflow), a checksummed
//!   write-ahead log so an acknowledged chunk survives SIGKILL, a single
//!   worker driving the streaming pipeline on a publish cadence, and
//!   [`ingest::recover`] replaying WAL + checkpoint on restart.
//! * [`admission`] — the shed contract both bounded queues (ingest,
//!   whatif) share: capacity check, overload counter, `429` +
//!   `Retry-After` rendering.
//! * [`whatif`] — the compute path: `/whatif` counterfactual campaigns
//!   (`resilience::scenario`) on a dedicated worker pool with
//!   single-flight deduplication, deterministic job ids, snapshot-scoped
//!   result caching and `202` polling for long campaigns.
//! * [`http`] — bounded request parsing (one-shot and incremental — the
//!   two implementations are held byte-equivalent by
//!   `tests/parser_fuzz.rs`) and fixed-length responses.
//! * [`server`] — the listener: epoll event loops with per-connection
//!   state machines, a timer wheel of deadlines, `503` load shedding
//!   over the connection cap, graceful drain. With tracing enabled it
//!   mints one [`obs::Trace`] per parsed request (responses answer
//!   with `X-Trace-Id`), and with scraping enabled it runs the
//!   `/metrics/history` self-scrape thread and can emit a Common Log
//!   Format access log to stderr.
//! * [`epoll`] — the thin epoll/eventfd FFI under the event loops.
//! * [`wheel`] — the hashed timer wheel arming connection deadlines.
//! * [`signal`] — SIGINT/SIGTERM → atomic flag (with [`epoll`], the
//!   crate's only `unsafe` seams: direct libc bindings).
//!
//! The differential suite (`tests/serve_equivalence.rs` at the workspace
//! root) proves every endpoint byte-identical to the offline oracle over
//! clean and corrupted inputs, and that concurrent snapshot swaps never
//! produce a torn response.

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod admission;
pub mod cache;
pub mod epoll;
pub mod http;
pub mod ingest;
pub mod router;
pub mod server;
pub mod signal;
pub mod store;
#[cfg(any(test, feature = "testutil"))]
pub mod testutil;
pub mod whatif;
pub mod wheel;

pub use cache::ResponseCache;
pub use ingest::{IngestConfig, IngestError, IngestHandle, IngestStream, IngestWorker, ReadyStats};
pub use router::ObsState;
pub use server::{start, start_with_ingest, RunningServer, ServeError, ServerConfig};
pub use store::{ErrorFilter, RollupMetric, RollupQuery, StoreHandle, StudyStore};
pub use whatif::{WhatifConfig, WhatifHandle};

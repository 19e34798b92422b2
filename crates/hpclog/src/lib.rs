//! HPC syslog substrate: timestamps, syslog-style lines, NVRM/XID message
//! formats, a small pattern-matching engine and structured event extraction.
//!
//! This crate reproduces *Stage I* of the Delta study's pipeline (Fig. 1):
//! raw per-day system logs are filtered with pattern matching and the
//! selected XID error-recovery events are extracted into structured records
//! for analysis. It is equally the substrate the fault injector writes
//! *into*: `faultsim` renders injected errors through [`nvrm`] into
//! perfectly ordinary log text, so the extractor is exercised end-to-end on
//! the same byte format a real Delta node produces.
//!
//! # Layout
//!
//! * [`Timestamp`] — minimal civil time (no external time crates): seconds
//!   since the Unix epoch with Gregorian conversion, syslog and ISO-8601
//!   rendering/parsing.
//! * [`LogLine`] — an RFC3164-style record: timestamp, hostname, tag, body.
//! * [`nvrm`] — NVIDIA kernel-module message formats: render and parse
//!   `NVRM: Xid (PCI:0000:xx:00): NN, ...` bodies; [`nvrm::XidEvent`] is the
//!   structured form.
//! * [`pattern`] — the filtering engine: glob/capture patterns compiled once
//!   and matched against millions of lines without regex dependencies.
//! * [`extract`] — the Stage-I extractor: lines in, [`nvrm::XidEvent`]s out,
//!   tolerant of interleaved noise; its lenient scan classifies every
//!   defective line into the quarantine ledger, with the per-line rules
//!   (the syslog-year rule among them) written once and shared with
//!   [`stream`].
//! * [`archive`] — per-day log consolidation, mirroring Delta's collection.
//! * [`quarantine`] — the reject ledger lenient readers feed: per-category
//!   counts plus a bounded reservoir of exemplar bad lines.
//! * [`shard`] — the canonical `(time, host, seq)` event order every
//!   pipeline entry path produces, and the k-way merge kernel the serving
//!   store and rollup cubes merge per-shard results with.
//! * [`stream`] — the resumable lenient scanner: the same line classifier
//!   as [`extract`], fed in arbitrary-sized byte chunks, with snapshotable
//!   cross-line state (partial-line carry, line counter, order anchor,
//!   year reference).
//! * [`chaos`] — seeded corruption injection for resilience testing:
//!   truncation, invalid UTF-8, clock skew, interleaving, duplication.
//!
//! # Example
//!
//! ```
//! use hpclog::{LogLine, extract::XidExtractor};
//!
//! let line = "Mar 14 03:22:07 gpub042 kernel: NVRM: Xid (PCI:0000:27:00): 79, \
//!             pid=1234, GPU has fallen off the bus.";
//! let parsed: LogLine = line.parse()?;
//! let mut extractor = XidExtractor::new(2024);
//! let event = extractor.extract(&parsed).expect("an XID line");
//! assert_eq!(event.code.value(), 79);
//! assert_eq!(event.host, "gpub042");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod chaos;
pub mod extract;
mod line;
pub mod nvrm;
pub mod pattern;
pub mod quarantine;
pub mod shard;
pub mod stream;

pub use line::{LogLine, LogLineErrorKind, ParseLogLineError};
pub use nvrm::{PciAddr, XidEvent};
pub use quarantine::{QuarantineCategory, QuarantineCounts, QuarantineLedger};
pub use simtime::{Duration, ParseTimestampError, Timestamp};

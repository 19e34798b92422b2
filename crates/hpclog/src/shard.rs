//! The canonical event order.
//!
//! # The ordering invariant
//!
//! A scan yields events in `(time, seq)` order, where `seq` is the source
//! line's position in the scanned stream. The pipeline defines one
//! **canonical order** — `(time, host, seq)` — and every entry path
//! produces it:
//!
//! * `seq` is unique, so the triple is a total order (no ties, no
//!   tie-break ambiguity, no dependence on sort stability).
//! * A batch event stream reaches it via a **stable** sort on the
//!   `(time, host)` prefix: stability preserves `seq` order inside each
//!   `(time, host)` tie class, which realises the full triple without
//!   materialising `seq` at all ([`canonical_sort`]).
//! * The streaming engine (`resilience::incremental`) reproduces it
//!   online: the lenient scan rejects clock regressions, so it only has
//!   to buffer the events of the newest second and release them in the
//!   same stable host order once time moves on.
//!
//! Canonical order differs from scan order only in the relative placement
//! of *different hosts* within one timestamp — which no aggregate in the
//! pipeline can observe, because no stage merges across hosts (coalescing
//! keys on `(host, pci, kind)`). The analysis numbers are identical; the
//! canonical order merely pins the report's event listing to one byte
//! sequence for every entry path.

use crate::nvrm::XidEvent;

/// Stable-sorts events into canonical order.
///
/// A **stable** sort by the `(time, host)` prefix: on any stream whose
/// equal-`(time, host)` runs are already in scan order (the output of any
/// extractor), this realises the full `(time, host, seq)` total order
/// without carrying `seq`.
pub fn canonical_sort(events: &mut [XidEvent]) {
    events.sort_by(|a, b| a.time.cmp(&b.time).then_with(|| a.host.cmp(&b.host)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nvrm::PciAddr;
    use simtime::Timestamp;
    use xid::XidCode;

    #[test]
    fn canonical_sort_orders_hosts_within_a_second_stably() {
        let t = Timestamp::from_ymd_hms(2024, 3, 14, 3, 0, 0).unwrap();
        let ev = |secs, host: &str, code| {
            XidEvent::new(
                t + simtime::Duration::from_secs(secs),
                host,
                PciAddr::for_gpu_index(0),
                XidCode::new(code),
                "",
            )
        };
        let mut events = vec![
            ev(1, "gpub002", 79),
            ev(0, "gpub009", 31),
            ev(1, "gpub001", 94),
            ev(1, "gpub002", 48),
        ];
        canonical_sort(&mut events);
        let order: Vec<(u64, &str, u16)> = events
            .iter()
            .map(|e| (e.time.unix() - t.unix(), e.host.as_str(), e.code.value()))
            .collect();
        assert_eq!(
            order,
            vec![
                (0, "gpub009", 31),
                (1, "gpub001", 94),
                (1, "gpub002", 79),
                (1, "gpub002", 48),
            ]
        );
    }
}

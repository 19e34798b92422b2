//! The canonical event order, and the k-way merge kernel.
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
//!
//! # The merge kernel
//!
//! [`merge_sorted_by`] k-way merges streams that are each already sorted.
//! `servd`'s host-range sharded store merges per-shard query slices
//! through it.

use crate::nvrm::XidEvent;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One stream's head, queued for the generic k-way merge. Ordered by the
/// caller's comparator, ties broken by stream index so the merge is a
/// deterministic function of the input streams.
struct Pending<'c, T, C: Fn(&T, &T) -> std::cmp::Ordering> {
    item: T,
    stream: usize,
    cmp: &'c C,
}

impl<T, C: Fn(&T, &T) -> std::cmp::Ordering> Pending<'_, T, C> {
    fn order(&self, other: &Self) -> std::cmp::Ordering {
        (self.cmp)(&self.item, &other.item).then(self.stream.cmp(&other.stream))
    }
}

impl<T, C: Fn(&T, &T) -> std::cmp::Ordering> PartialEq for Pending<'_, T, C> {
    fn eq(&self, other: &Self) -> bool {
        self.order(other) == std::cmp::Ordering::Equal
    }
}
impl<T, C: Fn(&T, &T) -> std::cmp::Ordering> Eq for Pending<'_, T, C> {}
impl<T, C: Fn(&T, &T) -> std::cmp::Ordering> PartialOrd for Pending<'_, T, C> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T, C: Fn(&T, &T) -> std::cmp::Ordering> Ord for Pending<'_, T, C> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.order(other)
    }
}

/// K-way merges streams that are each already sorted under `cmp` into one
/// stream sorted under `cmp`.
///
/// The heap holds at most one head per stream, so the merge is
/// O(n log k) with no element clones. Elements that compare equal come
/// out in stream-index order, so the result is a deterministic function
/// of the inputs (and, when the merge key is unique across streams — the
/// serving store's global row id — independent of how items are
/// distributed over streams).
///
/// This is the one merge kernel in the workspace: `servd`'s host-range
/// sharded store merges per-shard `/errors` slices through it by global
/// row id, which is why the slice is byte-identical whether the store
/// was built with 1 shard or 8.
pub fn merge_sorted_by<T, C: Fn(&T, &T) -> std::cmp::Ordering>(
    streams: Vec<Vec<T>>,
    cmp: C,
) -> Vec<T> {
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut heap: BinaryHeap<Reverse<Pending<'_, T, C>>> = BinaryHeap::with_capacity(streams.len());
    let mut tails: Vec<std::vec::IntoIter<T>> = Vec::with_capacity(streams.len());
    for (stream, items) in streams.into_iter().enumerate() {
        let mut iter = items.into_iter();
        if let Some(item) = iter.next() {
            heap.push(Reverse(Pending {
                item,
                stream,
                cmp: &cmp,
            }));
        }
        tails.push(iter);
    }
    while let Some(Reverse(head)) = heap.pop() {
        if let Some(item) = tails[head.stream].next() {
            heap.push(Reverse(Pending {
                item,
                stream: head.stream,
                cmp: &cmp,
            }));
        }
        out.push(head.item);
    }
    out
}

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
    fn merge_interleaves_sorted_streams_and_breaks_ties_by_stream() {
        let streams = vec![
            vec![(1, 'a'), (4, 'a'), (4, 'b')],
            vec![],
            vec![(2, 'c'), (4, 'c')],
        ];
        let merged = merge_sorted_by(streams, |x: &(u32, char), y| x.0.cmp(&y.0));
        assert_eq!(
            merged,
            vec![(1, 'a'), (2, 'c'), (4, 'a'), (4, 'b'), (4, 'c')]
        );
    }

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

//! Calendar-aware rollup cubes over a shared aggregation kernel.
//!
//! Every headline artifact of the paper — Table I's per-phase counts,
//! Table II's per-kind impact tallies, the availability figures — is a
//! *grouped fold* over an event stream: classify each row into a key,
//! accumulate per key. [`group_fold`] is that kernel, written once;
//! [`stats`](crate::stats) and [`impact`](crate::impact)'s Table II
//! tallies route through it, so the canned paper queries and the
//! serving layer's time-bucketed rollups are the same code path with
//! different key functions. (Table III's bucket folds are kept as job
//! rows arrive instead, by the job index in [`crate::impact`].)
//!
//! The time-bucketed instantiations live here too:
//!
//! * [`RollupCube`] — per-civil-bucket error counts (total and per
//!   studied kind), folded in one linear scan from a time-sorted event
//!   stream: the report's coalesced errors, or one host's rows.
//! * [`impact_cells`] — distinct GPU-failed jobs per bucket of their
//!   termination instant, total and per attributed kind.
//! * [`availability_cells`] — node-outage downtime seconds apportioned
//!   to the buckets each outage overlaps.
//!
//! Buckets are the DST-correct civil intervals of
//! [`simtime::civiltime`]: a local day is 23 or 25 hours across a DST
//! transition, and every event lands in exactly one bucket.

use crate::impact::JobImpact;
use crate::job::OutageRecord;
use simtime::{Bucket, Timestamp, Tz};
use std::collections::BTreeMap;
use xid::ErrorKind;

/// Number of studied error kinds — the width of per-kind cube columns.
pub const STUDIED_LEN: usize = ErrorKind::STUDIED.len();

/// The column index of a studied kind in a cube's `by_kind` array
/// (Table I order), `None` for unstudied kinds.
pub fn kind_index(kind: ErrorKind) -> Option<usize> {
    ErrorKind::STUDIED.iter().position(|&k| k == kind)
}

/// The shared aggregation kernel: classify each row with `key` (rows
/// yielding `None` are dropped) and fold it into that key's accumulator.
///
/// Deterministic by construction: the result map is keyed in `K`'s order
/// and each group's accumulator sees its rows in input order. Table I
/// phase counts, Table II impact sets and the rollup cubes are
/// instantiations of this one fold.
pub fn group_fold<R, K: Ord, A: Default>(
    rows: impl IntoIterator<Item = R>,
    mut key: impl FnMut(&R) -> Option<K>,
    mut fold: impl FnMut(&mut A, R),
) -> BTreeMap<K, A> {
    let mut groups: BTreeMap<K, A> = BTreeMap::new();
    for row in rows {
        if let Some(k) = key(&row) {
            fold(groups.entry(k).or_default(), row);
        }
    }
    groups
}

/// One cell of an error cube: the counts of a single civil bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorCell {
    /// Bucket start (UTC instant), the cube's sort key.
    pub start: Timestamp,
    /// Bucket end (UTC instant, exclusive).
    pub end: Timestamp,
    /// All error rows in the bucket (studied or not).
    pub total: u64,
    /// Per-studied-kind counts, indexed by [`kind_index`].
    pub by_kind: [u64; STUDIED_LEN],
}

impl ErrorCell {
    fn zero(start: Timestamp, end: Timestamp) -> Self {
        ErrorCell {
            start,
            end,
            total: 0,
            by_kind: [0; STUDIED_LEN],
        }
    }
}

/// An error rollup for one `(timezone, bucket)` pair: sparse, sorted
/// cells (only buckets containing at least one event).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollupCube {
    cells: Vec<ErrorCell>,
}

impl RollupCube {
    /// Builds a cube from a **time-ascending** event stream (the order
    /// the canonical pipeline output and every posting list of the
    /// serving store's index guarantee).
    /// Because bucketing is monotone, equal bucket keys are consecutive
    /// and the build is one linear scan with no intermediate map.
    pub fn build(
        tz: &Tz,
        bucket: Bucket,
        events: impl IntoIterator<Item = (Timestamp, ErrorKind)>,
    ) -> Self {
        let mut cells: Vec<ErrorCell> = Vec::new();
        for (time, kind) in events {
            let start = tz.bucket_start(bucket, time);
            let fresh = match cells.last() {
                Some(cell) => {
                    debug_assert!(cell.start <= start, "events must be time-ascending");
                    cell.start != start
                }
                None => true,
            };
            if fresh {
                cells.push(ErrorCell::zero(start, tz.bucket_end(bucket, time)));
            }
            if let Some(cell) = cells.last_mut() {
                cell.total += 1;
                if let Some(i) = kind_index(kind) {
                    cell.by_kind[i] += 1;
                }
            }
        }
        RollupCube { cells }
    }

    /// The sparse cells, ascending by start.
    pub fn cells(&self) -> &[ErrorCell] {
        &self.cells
    }
}

/// One cell of the impact rollup: distinct GPU-failed jobs whose
/// termination instant falls in the bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImpactCell {
    /// Bucket start (UTC instant).
    pub start: Timestamp,
    /// Bucket end (UTC instant, exclusive).
    pub end: Timestamp,
    /// Distinct GPU-failed jobs ending in the bucket.
    pub failed_jobs: u64,
    /// Distinct jobs per attributed kind, indexed by [`kind_index`]. A
    /// job attributed to several kinds counts once per kind (the §V-B
    /// multiple-contributor rule), but once in `failed_jobs`.
    pub failed_by_kind: [u64; STUDIED_LEN],
}

/// Buckets a computed [`JobImpact`] by job-termination instant. Sparse:
/// only buckets with at least one failed job appear.
pub fn impact_cells(tz: &Tz, bucket: Bucket, impact: &JobImpact) -> Vec<ImpactCell> {
    #[derive(Default)]
    struct Acc {
        failed_jobs: u64,
        failed_by_kind: [u64; STUDIED_LEN],
    }
    let total = group_fold(
        impact.failed_job_ends(),
        |&(end, _)| Some(tz.bucket_start(bucket, end)),
        |acc: &mut Acc, _| acc.failed_jobs += 1,
    );
    let per_kind = group_fold(
        impact.attributions(),
        |&(end, kind, _)| kind_index(kind).map(|i| (tz.bucket_start(bucket, end), i)),
        |acc: &mut u64, _| *acc += 1,
    );
    let mut cells: Vec<ImpactCell> = total
        .into_iter()
        .map(|(start, acc)| ImpactCell {
            start,
            end: tz.bucket_end(bucket, start),
            failed_jobs: acc.failed_jobs,
            failed_by_kind: acc.failed_by_kind,
        })
        .collect();
    for ((start, i), count) in per_kind {
        if let Ok(pos) = cells.binary_search_by_key(&start, |c| c.start) {
            cells[pos].failed_by_kind[i] = count;
        }
    }
    cells
}

/// One cell of the availability rollup: downtime node-seconds the
/// bucket accumulated from overlapping node outages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AvailabilityCell {
    /// Bucket start (UTC instant).
    pub start: Timestamp,
    /// Bucket end (UTC instant, exclusive).
    pub end: Timestamp,
    /// Node-seconds of outage overlapping the bucket.
    pub downtime_node_secs: u64,
}

/// Apportions outage durations to the civil buckets they overlap —
/// walking each outage bucket-by-bucket, so an outage spanning a DST
/// transition splits exactly at the transition's bucket boundary.
/// Sparse: only buckets with downtime appear.
pub fn availability_cells(
    tz: &Tz,
    bucket: Bucket,
    outages: &[OutageRecord],
) -> Vec<AvailabilityCell> {
    let mut slices: Vec<(Timestamp, u64)> = Vec::new();
    for outage in outages {
        let end = outage.start + outage.duration;
        let mut cursor = outage.start;
        while cursor < end {
            let bucket_end = tz.bucket_end(bucket, cursor);
            let slice_end = bucket_end.min(end);
            slices.push((
                tz.bucket_start(bucket, cursor),
                slice_end.unix() - cursor.unix(),
            ));
            cursor = bucket_end;
        }
    }
    group_fold(
        slices,
        |&(start, _)| Some(start),
        |acc: &mut u64, (_, secs)| *acc += secs,
    )
    .into_iter()
    .map(|(start, downtime_node_secs)| AvailabilityCell {
        start,
        end: tz.bucket_end(bucket, start),
        downtime_node_secs,
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::Duration;

    fn t(secs: u64) -> Timestamp {
        Timestamp::from_unix(secs)
    }

    #[test]
    fn group_fold_groups_in_key_order_and_drops_none() {
        let rows = [("b", 2u64), ("a", 1), ("b", 3), ("skip", 9)];
        let sums = group_fold(
            rows,
            |&(k, _)| if k == "skip" { None } else { Some(k) },
            |acc: &mut u64, (_, v)| *acc += v,
        );
        assert_eq!(
            sums.into_iter().collect::<Vec<_>>(),
            vec![("a", 1), ("b", 5)]
        );
    }

    #[test]
    fn cube_build_is_a_linear_scan_over_sorted_events() {
        let tz = Tz::utc();
        let day = 86_400;
        let events = vec![
            (t(100), ErrorKind::GspError),
            (t(200), ErrorKind::GspError),
            (t(day + 5), ErrorKind::MmuError),
            (t(day + 6), ErrorKind::Other(xid::XidCode::new(200))),
        ];
        let cube = RollupCube::build(&tz, Bucket::Day, events);
        assert_eq!(cube.cells().len(), 2);
        let gsp = kind_index(ErrorKind::GspError).unwrap();
        let mmu = kind_index(ErrorKind::MmuError).unwrap();
        assert_eq!(cube.cells()[0].total, 2);
        assert_eq!(cube.cells()[0].by_kind[gsp], 2);
        // Unstudied kinds count toward the total only.
        assert_eq!(cube.cells()[1].total, 2);
        assert_eq!(cube.cells()[1].by_kind[mmu], 1);
        assert_eq!(cube.cells()[1].by_kind.iter().sum::<u64>(), 1);
    }

    #[test]
    fn availability_cells_split_outages_at_bucket_boundaries() {
        let tz = Tz::utc();
        // A 3-hour outage starting 30 minutes before a day boundary.
        let outages = [OutageRecord {
            host: "gpub001".to_owned(),
            start: t(86_400 - 1800),
            duration: Duration::from_hours(3),
        }];
        let cells = availability_cells(&tz, Bucket::Day, &outages);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].downtime_node_secs, 1800);
        assert_eq!(cells[1].downtime_node_secs, 3 * 3600 - 1800);
        // The same outage in hour buckets: 30 min + 2 full hours + 30 min.
        let hours = availability_cells(&tz, Bucket::Hour, &outages);
        assert_eq!(hours.len(), 4);
        assert_eq!(
            hours.iter().map(|c| c.downtime_node_secs).sum::<u64>(),
            3 * 3600
        );
    }

    #[test]
    fn availability_cells_sum_overlapping_outages() {
        let tz = Tz::utc();
        let outages = [
            OutageRecord {
                host: "a".to_owned(),
                start: t(1000),
                duration: Duration::from_secs(600),
            },
            OutageRecord {
                host: "b".to_owned(),
                start: t(1200),
                duration: Duration::from_secs(600),
            },
        ];
        let cells = availability_cells(&tz, Bucket::Day, &outages);
        assert_eq!(cells.len(), 1);
        // Two nodes down concurrently: node-seconds add.
        assert_eq!(cells[0].downtime_node_secs, 1200);
    }
}

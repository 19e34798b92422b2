//! The immutable study snapshot — the report plus one host/kind index
//! over its coalesced errors — and its atomic snapshot handle.
//!
//! A [`StudyStore`] is built once from a finished pipeline run (a
//! [`StudyReport`] plus, optionally, its [`QuarantineReport`]) and never
//! mutated afterwards. It keeps the report and one index over the
//! report's coalesced errors, which the pipeline emits in canonical
//! `(time, host)` order: the sorted host dictionary with each host's
//! posting list, and each kind's posting list. A posting list holds row
//! ids in ascending order, so it is in time order too and admits the
//! same binary searches as the rows themselves.
//!
//! Every endpoint renders from those two, on the calling thread, when
//! the response cache misses: the paper surfaces, `/jobs/impact` and
//! `/availability` through the offline renderers, `/mtbe` from the
//! report's stats, `/errors` by binary search over the narrowest posting
//! list, each row written straight into the body, and `/rollup` by
//! folding only the cube or cell set the query names.
//!
//! Serving threads never see a store mid-build: a [`StoreHandle`] holds
//! the current store behind an `Arc` and swaps it atomically on
//! [`publish`](StoreHandle::publish). Readers take the lock only long
//! enough to clone the `Arc` (two atomic ops); they never wait on store
//! construction, and a request that started on the old snapshot finishes
//! on the old snapshot — responses are never torn across a swap. Live
//! ingest publishes through [`publish_study`](StoreHandle::publish_study).

use resilience::report;
use resilience::rollup::{self, RollupCube};
use resilience::{CoalescedError, QuarantineReport, StudyReport};
use simtime::{Bucket, Phase, Timestamp, Tz};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;
use xid::{ErrorKind, XidCode};

/// The `/errors` CSV header.
const ERRORS_HEADER: &str = "time,host,pci,xid,kind,merged_lines\n";

/// A filter over the coalesced error columns (the `/errors` query).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ErrorFilter {
    /// Restrict to one host.
    pub host: Option<String>,
    /// Restrict to one error kind (resolved from a raw XID code).
    pub kind: Option<ErrorKind>,
    /// Inclusive lower time bound.
    pub from: Option<Timestamp>,
    /// Exclusive upper time bound: a row at exactly `to` is *not*
    /// returned, so adjacent `[from, to)` windows tile the timeline
    /// without double-counting — the same contract `/rollup` applies to
    /// bucket starts. A window with `from > to` selects nothing.
    pub to: Option<Timestamp>,
}

/// Which aggregate surface a `/rollup` request reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollupMetric {
    /// Coalesced error counts per bucket (total or one studied kind).
    Errors,
    /// Error counts plus the MTBE the bucket's span implies.
    Mtbe,
    /// Distinct GPU-failed jobs per bucket of their termination instant.
    Impact,
    /// Node-outage downtime hours apportioned to each bucket.
    Availability,
}

impl RollupMetric {
    /// Parses the `metric=` query value.
    ///
    /// # Errors
    ///
    /// A human-readable message listing the accepted values.
    pub fn parse(raw: &str) -> Result<RollupMetric, String> {
        match raw {
            "errors" => Ok(RollupMetric::Errors),
            "mtbe" => Ok(RollupMetric::Mtbe),
            "impact" => Ok(RollupMetric::Impact),
            "availability" => Ok(RollupMetric::Availability),
            other => Err(format!(
                "unknown metric {other:?}: expected errors|mtbe|impact|availability"
            )),
        }
    }

    fn label(self) -> &'static str {
        match self {
            RollupMetric::Errors => "errors",
            RollupMetric::Mtbe => "mtbe",
            RollupMetric::Impact => "impact",
            RollupMetric::Availability => "availability",
        }
    }
}

/// A parsed `/rollup` query. `from` is inclusive and `to` exclusive on
/// the *bucket start* — the same `[from, to)` contract as `/errors`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollupQuery {
    /// Which surface to read.
    pub metric: RollupMetric,
    /// Bucket granularity (default `day`).
    pub bucket: Bucket,
    /// Builtin timezone name (default `UTC`).
    pub tz: String,
    /// Restrict to one host (metric=errors only).
    pub host: Option<String>,
    /// Restrict counts to one studied kind (not with availability).
    pub kind: Option<ErrorKind>,
    /// Keep buckets whose start is `>= from`.
    pub from: Option<Timestamp>,
    /// Keep buckets whose start is `< to`.
    pub to: Option<Timestamp>,
}

impl RollupQuery {
    /// The default query for a metric: day buckets in UTC, no filters.
    pub fn for_metric(metric: RollupMetric) -> Self {
        RollupQuery {
            metric,
            bucket: Bucket::Day,
            tz: "UTC".to_owned(),
            host: None,
            kind: None,
            from: None,
            to: None,
        }
    }
}

/// The immutable serving snapshot of one study: the report, and one
/// host/kind index over its coalesced errors.
///
/// Every surface renders from these two on demand. The paper surfaces,
/// `/jobs/impact` and `/availability` are byte-identical to the offline
/// renderers because they *are* the offline renderers.
#[derive(Debug)]
pub struct StudyStore {
    report: StudyReport,
    caveat_count: usize,
    /// The sorted host dictionary: each host's rows, ascending.
    by_host: BTreeMap<String, Vec<u32>>,
    /// Each kind's rows, ascending.
    by_kind: BTreeMap<ErrorKind, Vec<u32>>,
}

impl StudyStore {
    /// Builds the store from a finished run. `quarantine` carries the
    /// lenient run's trust qualifiers into `/snapshot`; pass `None` for
    /// strict runs.
    pub fn build(report: StudyReport, quarantine: Option<&QuarantineReport>) -> Self {
        let mut span = obs::span("servd_store_build");
        span.add_items(report.errors.len() as u64);

        let mut by_host: BTreeMap<String, Vec<u32>> = BTreeMap::new();
        let mut by_kind: BTreeMap<ErrorKind, Vec<u32>> = BTreeMap::new();
        for (row, e) in report.errors.iter().enumerate() {
            by_host.entry(e.host.clone()).or_default().push(row as u32);
            by_kind.entry(e.kind).or_default().push(row as u32);
        }

        StudyStore {
            caveat_count: quarantine.map_or(0, |q| q.caveats.len()),
            report,
            by_host,
            by_kind,
        }
    }

    /// [`build`](Self::build) under its old name, ignoring the count: the
    /// store has one layout. It is kept only because perfbench's `query`
    /// replay still calls it; ROADMAP item 1 deletes it with the replay.
    pub fn build_sharded(
        report: StudyReport,
        quarantine: Option<&QuarantineReport>,
        _shards: usize,
    ) -> Self {
        Self::build(report, quarantine)
    }

    /// The report the store was built from.
    pub fn report(&self) -> &StudyReport {
        &self.report
    }

    /// Number of coalesced error rows stored.
    pub fn error_rows(&self) -> usize {
        self.report.errors.len()
    }

    /// Table I, rendered by [`report::table1`].
    pub fn table1(&self) -> String {
        report::table1(&self.report)
    }

    /// Table II, rendered by [`report::table2`].
    pub fn table2(&self) -> String {
        report::table2(&self.report)
    }

    /// Table III, rendered by [`report::table3`].
    pub fn table3(&self) -> String {
        report::table3(&self.report)
    }

    /// Figure 2, rendered by [`report::figure2`].
    pub fn fig2(&self) -> String {
        report::figure2(&self.report)
    }

    /// Renders the `/errors` slice as CSV:
    /// `time,host,pci,xid,kind,merged_lines`, rows in canonical order.
    ///
    /// The narrowest index applies (a host's posting list, else a kind's,
    /// else the rows themselves), sliced to `[from, to)` by binary
    /// search; only a host list can hold rows of another kind, so the
    /// kind is the one residual predicate.
    pub fn errors_csv(&self, filter: &ErrorFilter) -> String {
        let errors = &self.report.errors;
        let mut out = String::from(ERRORS_HEADER);
        let rows = match (&filter.host, filter.kind) {
            (None, None) => {
                for e in time_slice(errors, |e| e.time, filter) {
                    push_error_row(&mut out, e);
                }
                return out;
            }
            (Some(host), _) => self.by_host.get(host),
            (None, Some(kind)) => self.by_kind.get(&kind),
        };
        let rows = rows.map_or(&[][..], Vec::as_slice);
        for &r in time_slice(rows, |&r| errors[r as usize].time, filter) {
            let e = &errors[r as usize];
            if filter.kind.is_none_or(|k| e.kind == k) {
                push_error_row(&mut out, e);
            }
        }
        out
    }

    /// Renders `/mtbe` as CSV, one row per `(kind, phase)`:
    /// `xid,kind,phase,count,mtbe_system_h,mtbe_node_h`. With `kind`
    /// given, only that kind's rows.
    pub fn mtbe_csv(&self, kind: Option<ErrorKind>) -> String {
        let stats = &self.report.stats;
        let mut out = String::from("xid,kind,phase,count,mtbe_system_h,mtbe_node_h\n");
        let kinds: Vec<ErrorKind> = match kind {
            Some(k) => vec![k],
            None => ErrorKind::STUDIED.to_vec(),
        };
        for k in kinds {
            for (phase, label) in [(Phase::PreOp, "pre_op"), (Phase::Op, "op")] {
                let _ = writeln!(
                    out,
                    "{},{},{label},{},{},{}",
                    k.primary_code(),
                    k.abbreviation(),
                    stats.count(k, phase),
                    fmt_cell(stats.mtbe_system(k, phase)),
                    fmt_cell(stats.mtbe_per_node(k, phase)),
                );
            }
        }
        out
    }

    /// Renders `/jobs/impact`: the Table II join as CSV plus the total
    /// GPU-failed-jobs line.
    pub fn jobs_impact_csv(&self) -> String {
        let mut out = report::table2_csv(&self.report);
        let _ = writeln!(
            out,
            "total_gpu_failed_jobs,{}",
            self.report.impact.gpu_failed_jobs()
        );
        out
    }

    /// Renders `/availability` as a deterministic JSON object.
    pub fn availability_json(&self) -> String {
        let report = &self.report;
        let a = &report.availability;
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"outages\": {},", a.outage_count());
        let _ = writeln!(out, "  \"mttr_hours\": {},", fmt_json(a.mttr_hours()));
        let _ = writeln!(
            out,
            "  \"total_downtime_node_hours\": {},",
            fmt_json(Some(a.total_downtime_node_hours()))
        );
        let _ = writeln!(out, "  \"mttf_hours\": {},", fmt_json(report.mttf_hours));
        let _ = writeln!(
            out,
            "  \"availability\": {},",
            fmt_json(report.availability_estimate())
        );
        let _ = writeln!(
            out,
            "  \"availability_empirical\": {}",
            fmt_json(Some(a.availability_empirical()))
        );
        out.push_str("}\n");
        out
    }

    /// Renders `/snapshot` metadata for a snapshot id assigned by the
    /// handle.
    pub fn snapshot_info(&self, id: u64) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "snapshot: {id}");
        let _ = writeln!(out, "errors: {}", self.error_rows());
        let _ = writeln!(out, "hosts: {}", self.by_host.len());
        let _ = writeln!(
            out,
            "gpu_jobs_failed: {}",
            self.report.impact.gpu_failed_jobs()
        );
        let _ = writeln!(out, "outages: {}", self.report.availability.outage_count());
        let _ = writeln!(out, "caveats: {}", self.caveat_count);
        out
    }

    /// Renders a `/rollup` query as CSV, folding only the cube or cell
    /// set it names: errors from every coalesced row, or under `host=`
    /// from that host's posting list (an unknown host folds nothing,
    /// matching `/errors`). Rows are sparse (buckets with a zero value
    /// are omitted), ascending by bucket start, and sliced to
    /// `[from, to)` on the bucket *start*. Each row leads with the
    /// DST-disambiguated civil label of its bucket and carries the
    /// bucket's UTC span.
    ///
    /// # Errors
    ///
    /// A human-readable message when the timezone is not a builtin or a
    /// filter does not apply to the metric (host is errors-only, xid
    /// never applies to availability).
    pub fn rollup_csv(&self, q: &RollupQuery) -> Result<String, String> {
        let tz = Tz::by_name(&q.tz).map_err(|e| e.to_string())?;
        if q.host.is_some() && q.metric != RollupMetric::Errors {
            return Err("host filter applies to metric=errors only".to_owned());
        }
        if q.kind.is_some() && q.metric == RollupMetric::Availability {
            return Err("xid filter does not apply to metric=availability".to_owned());
        }
        let in_window =
            |start: Timestamp| q.from.is_none_or(|f| start >= f) && q.to.is_none_or(|t| start < t);
        let kind_column = q.kind.and_then(rollup::kind_index);
        let mut rendered = 0u64;

        let mut out = String::new();
        match q.metric {
            RollupMetric::Errors | RollupMetric::Mtbe => {
                let cube = match &q.host {
                    None => RollupCube::build(
                        &tz,
                        q.bucket,
                        self.report.errors.iter().map(|e| (e.time, e.kind)),
                    ),
                    // A host's posting list is in time order, as the
                    // fold needs.
                    Some(host) => RollupCube::build(
                        &tz,
                        q.bucket,
                        self.by_host.get(host).into_iter().flatten().map(|&r| {
                            let e = &self.report.errors[r as usize];
                            (e.time, e.kind)
                        }),
                    ),
                };
                let mtbe = q.metric == RollupMetric::Mtbe;
                out.push_str(if mtbe {
                    "bucket,start,end,count,mtbe_system_h,mtbe_node_h\n"
                } else {
                    "bucket,start,end,count\n"
                });
                let nodes = self.report.stats.node_count() as f64;
                for cell in cube.cells() {
                    if !in_window(cell.start) {
                        continue;
                    }
                    let count = kind_column.map_or(cell.total, |i| cell.by_kind[i]);
                    if count == 0 {
                        continue;
                    }
                    rendered += 1;
                    let label = tz.bucket_label(q.bucket, cell.start);
                    if mtbe {
                        let span_h = (cell.end.unix() - cell.start.unix()) as f64 / 3600.0;
                        let system = span_h / count as f64;
                        let _ = writeln!(
                            out,
                            "{label},{},{},{count},{},{}",
                            cell.start,
                            cell.end,
                            fmt_cell(Some(system)),
                            fmt_cell(Some(system * nodes)),
                        );
                    } else {
                        let _ = writeln!(out, "{label},{},{},{count}", cell.start, cell.end);
                    }
                }
            }
            RollupMetric::Impact => {
                out.push_str("bucket,start,end,failed_jobs\n");
                for cell in rollup::impact_cells(&tz, q.bucket, &self.report.impact) {
                    if !in_window(cell.start) {
                        continue;
                    }
                    let count = kind_column.map_or(cell.failed_jobs, |i| cell.failed_by_kind[i]);
                    if count == 0 {
                        continue;
                    }
                    rendered += 1;
                    let _ = writeln!(
                        out,
                        "{},{},{},{count}",
                        tz.bucket_label(q.bucket, cell.start),
                        cell.start,
                        cell.end,
                    );
                }
            }
            RollupMetric::Availability => {
                out.push_str("bucket,start,end,downtime_node_hours\n");
                for cell in rollup::availability_cells(&tz, q.bucket, &self.report.op_outages) {
                    if !in_window(cell.start) {
                        continue;
                    }
                    if cell.downtime_node_secs == 0 {
                        continue;
                    }
                    rendered += 1;
                    let _ = writeln!(
                        out,
                        "{},{},{},{}",
                        tz.bucket_label(q.bucket, cell.start),
                        cell.start,
                        cell.end,
                        fmt_cell(Some(cell.downtime_node_secs as f64 / 3600.0)),
                    );
                }
            }
        }
        if obs::is_enabled() {
            obs::counter(
                "servd_rollup_queries_total",
                &[("metric", q.metric.label())],
            )
            .inc();
            obs::counter("servd_rollup_cells_rendered_total", &[]).add(rendered);
        }
        Ok(out)
    }
}

/// Resolves a raw XID code string from a query into a studied kind.
///
/// # Errors
///
/// A human-readable message when the code is not a number or maps to a
/// kind the study excludes (XID 13/43, unknown codes).
pub fn parse_xid(raw: &str) -> Result<ErrorKind, String> {
    let code: u16 = raw
        .parse()
        .map_err(|_| format!("bad xid {raw:?}: expected a numeric XID code"))?;
    let kind = ErrorKind::from_code(XidCode::new(code));
    if kind.is_studied() {
        Ok(kind)
    } else {
        Err(format!("xid {code} is not a studied error kind"))
    }
}

/// Parses a query time bound: either raw Unix seconds or ISO-8601
/// `YYYY-MM-DDTHH:MM:SSZ` (the `Timestamp` display format).
///
/// # Errors
///
/// A human-readable message when neither form parses, including when a
/// date or time field does not fit its type (no field wraps).
pub fn parse_time(raw: &str) -> Result<Timestamp, String> {
    if raw.bytes().all(|b| b.is_ascii_digit()) && !raw.is_empty() {
        return raw
            .parse::<u64>()
            .map(Timestamp::from_unix)
            .map_err(|_| format!("bad time {raw:?}"));
    }
    let fields: Option<Vec<u32>> = raw
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().ok())
        .collect();
    if let Some(&[y, mo, d, h, mi, s]) = fields.as_deref() {
        let parsed = i32::try_from(y)
            .ok()
            .and_then(|y| Timestamp::from_ymd_hms(y, mo, d, h, mi, s).ok());
        if let Some(t) = parsed {
            return Ok(t);
        }
    }
    Err(format!(
        "bad time {raw:?}: expected Unix seconds or YYYY-MM-DDTHH:MM:SSZ"
    ))
}

/// Slices time-ordered rows to the filter's `[from, to)` window by
/// binary search; an inverted window (`from > to`) slices to nothing.
fn time_slice<'a, T>(
    rows: &'a [T],
    time: impl Fn(&T) -> Timestamp,
    filter: &ErrorFilter,
) -> &'a [T] {
    let lo = filter
        .from
        .map_or(0, |t| rows.partition_point(|r| time(r) < t));
    let hi = filter
        .to
        .map_or(rows.len(), |t| rows.partition_point(|r| time(r) < t));
    &rows[lo..hi.max(lo)]
}

/// Appends one `/errors` CSV row.
fn push_error_row(out: &mut String, e: &CoalescedError) {
    let _ = writeln!(
        out,
        "{},{},{},{},{},{}",
        e.time,
        e.host,
        e.pci,
        e.kind.primary_code(),
        e.kind.abbreviation(),
        e.merged_lines
    );
}

fn fmt_cell(v: Option<f64>) -> String {
    v.map_or(String::new(), |v| format!("{v:.3}"))
}

fn fmt_json(v: Option<f64>) -> String {
    match v {
        // `+ 0.0` folds IEEE negative zero into plain zero for display.
        Some(v) if v.is_finite() => format!("{:.6}", v + 0.0),
        _ => "null".to_owned(),
    }
}

/// One published snapshot: a store plus the monotone id the handle
/// assigned at publish time (surfaced as the `X-Snapshot` header) and
/// the publish instant (surfaced as `snapshot_age_secs` in `/readyz`).
#[derive(Debug)]
pub struct Published {
    /// Monotone snapshot id, starting at 1.
    pub id: u64,
    /// When this snapshot became the served one.
    pub at: Instant,
    /// The immutable store.
    pub store: StudyStore,
}

/// The swap point between the pipeline and the serving threads.
///
/// Writers build a complete [`StudyStore`] *outside* the lock and then
/// [`publish`](StoreHandle::publish) it; readers
/// [`current`](StoreHandle::current) an `Arc` clone and keep serving from
/// that snapshot no matter how many swaps happen behind them. The lock is
/// held only for the pointer exchange, never during store construction or
/// rendering, so readers are wait-free in all but the swap instant.
#[derive(Debug)]
pub struct StoreHandle {
    current: RwLock<Arc<Published>>,
    next_id: AtomicU64,
}

impl StoreHandle {
    /// Creates the handle with an initial store (snapshot id 1).
    pub fn new(store: StudyStore) -> Self {
        StoreHandle {
            current: RwLock::new(Arc::new(Published {
                id: 1,
                at: Instant::now(),
                store,
            })),
            next_id: AtomicU64::new(2),
        }
    }

    /// Atomically replaces the served snapshot; returns the new id.
    /// Requests already holding the old `Arc` finish on the old snapshot.
    pub fn publish(&self, store: StudyStore) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let published = Arc::new(Published {
            id,
            at: Instant::now(),
            store,
        });
        match self.current.write() {
            Ok(mut guard) => *guard = published,
            // A poisoned lock only means a reader panicked while cloning
            // the Arc; the data is an Arc swap away from consistent.
            Err(poisoned) => *poisoned.into_inner() = published,
        }
        if obs::is_enabled() {
            obs::counter("servd_snapshot_swaps_total", &[]).inc();
        }
        id
    }

    /// The snapshot to serve this request from.
    pub fn current(&self) -> Arc<Published> {
        match self.current.read() {
            Ok(guard) => Arc::clone(&guard),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }

    /// Builds a store from a materialized study and publishes it; returns
    /// the new snapshot id. The one store-build path of live publishes.
    pub fn publish_study(&self, report: StudyReport, quarantine: &QuarantineReport) -> u64 {
        self.publish(StudyStore::build(report, Some(quarantine)))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use hpclog::{PciAddr, XidEvent};
    use resilience::Pipeline;
    use simtime::{Duration, StudyPeriods};

    fn op_time(secs: u64) -> Timestamp {
        StudyPeriods::delta().op.start + Duration::from_secs(secs)
    }

    fn sample_report() -> StudyReport {
        let mk = |secs: u64, host: &str, gpu: u8, code: u16| {
            XidEvent::new(
                op_time(secs),
                host,
                PciAddr::for_gpu_index(gpu),
                XidCode::new(code),
                "",
            )
        };
        let events = vec![
            mk(100, "gpub001", 0, 119),
            mk(200, "gpub002", 1, 74),
            mk(5000, "gpub001", 0, 31),
            mk(9000, "gpub003", 2, 119),
            mk(12_000, "gpub001", 3, 63),
        ];
        Pipeline::delta().run_events(events, None, &[], &[], &[])
    }

    fn store() -> StudyStore {
        StudyStore::build(sample_report(), None)
    }

    #[test]
    fn surfaces_match_offline_renderers() {
        let report = sample_report();
        let s = StudyStore::build(report.clone(), None);
        assert_eq!(s.table1(), report::table1(&report));
        assert_eq!(s.table2(), report::table2(&report));
        assert_eq!(s.table3(), report::table3(&report));
        assert_eq!(s.fig2(), report::figure2(&report));
    }

    #[test]
    fn unfiltered_errors_list_everything_in_order() {
        let s = store();
        let csv = s.errors_csv(&ErrorFilter::default());
        assert_eq!(csv.lines().count(), 1 + 5);
        let times: Vec<&str> = csv
            .lines()
            .skip(1)
            .map(|l| l.split(',').next().unwrap())
            .collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
    }

    #[test]
    fn host_filter_slices_by_posting_list() {
        let s = store();
        let csv = s.errors_csv(&ErrorFilter {
            host: Some("gpub001".to_owned()),
            ..ErrorFilter::default()
        });
        assert_eq!(csv.lines().count(), 1 + 3);
        assert!(csv.lines().skip(1).all(|l| l.contains("gpub001")));
    }

    #[test]
    fn combined_filters_intersect() {
        let s = store();
        let filter = ErrorFilter {
            host: Some("gpub001".to_owned()),
            kind: Some(ErrorKind::GspError),
            from: Some(op_time(0)),
            to: Some(op_time(10_000)),
        };
        let csv = s.errors_csv(&filter);
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].contains("gpub001") && rows[0].contains("GSP"));
    }

    #[test]
    fn time_bounds_are_from_inclusive_to_exclusive() {
        let s = store();
        let csv = s.errors_csv(&ErrorFilter {
            from: Some(op_time(200)),
            to: Some(op_time(9000)),
            ..ErrorFilter::default()
        });
        // 200 is on the inclusive `from` edge, 9000 on the exclusive
        // `to` edge: the window keeps 200 and 5000 only.
        assert_eq!(csv.lines().count(), 1 + 2);
        // Adjacent windows tile: no row is lost or double-counted.
        let shifted = s.errors_csv(&ErrorFilter {
            from: Some(op_time(9000)),
            to: Some(op_time(20_000)),
            ..ErrorFilter::default()
        });
        assert_eq!(shifted.lines().count(), 1 + 2); // 9000, 12_000
                                                    // The same edges through the host-filtered (posting-list) path.
        let hosted = s.errors_csv(&ErrorFilter {
            host: Some("gpub001".to_owned()),
            from: Some(op_time(100)),
            to: Some(op_time(12_000)),
            ..ErrorFilter::default()
        });
        assert_eq!(hosted.lines().count(), 1 + 2); // 100, 5000
    }

    #[test]
    fn unknown_host_yields_empty_slice() {
        let s = store();
        let csv = s.errors_csv(&ErrorFilter {
            host: Some("nosuchhost".to_owned()),
            ..ErrorFilter::default()
        });
        assert_eq!(csv.lines().count(), 1);
    }

    #[test]
    fn inverted_windows_select_nothing() {
        let s = store();
        for (host, kind) in [
            (None, None),
            (Some("gpub001"), None),
            (None, Some(ErrorKind::GspError)),
            (Some("gpub001"), Some(ErrorKind::GspError)),
        ] {
            // `[from, to)` with `from` after `to`: rows in between
            // (100 on gpub001, a GSP row) must not invert the slice.
            let filter = ErrorFilter {
                host: host.map(str::to_owned),
                kind,
                from: Some(op_time(200)),
                to: Some(op_time(50)),
            };
            assert_eq!(s.errors_csv(&filter), ERRORS_HEADER, "filter={filter:?}");
        }
    }

    #[test]
    fn mtbe_rows_match_stats() {
        let report = sample_report();
        let s = StudyStore::build(report.clone(), None);
        let csv = s.mtbe_csv(Some(ErrorKind::GspError));
        let op_row = csv.lines().find(|l| l.contains(",op,")).unwrap();
        let count = report.stats.count(ErrorKind::GspError, Phase::Op);
        assert!(op_row.starts_with(&format!("119,GSP Error,op,{count},")));
        let all = s.mtbe_csv(None);
        assert_eq!(all.lines().count(), 1 + 2 * ErrorKind::STUDIED.len());
    }

    #[test]
    fn parse_xid_accepts_studied_rejects_excluded() {
        assert_eq!(parse_xid("119").unwrap(), ErrorKind::GspError);
        assert_eq!(parse_xid("120").unwrap(), ErrorKind::GspError);
        assert!(parse_xid("13").is_err());
        assert!(parse_xid("9999").is_err());
        assert!(parse_xid("abc").is_err());
    }

    #[test]
    fn parse_time_accepts_unix_and_iso() {
        assert_eq!(parse_time("1000").unwrap(), Timestamp::from_unix(1000));
        let iso = op_time(0).to_string();
        assert_eq!(parse_time(&iso).unwrap(), op_time(0));
        assert!(parse_time("not-a-time").is_err());
        // Fields that do not fit their type are rejected, not wrapped
        // (these two once read as 2022-01-01 and 2024-01-01).
        assert!(parse_time("4294969318-01-01T00:00:00Z").is_err());
        assert!(parse_time("2024-4294967297-01T00:00:00Z").is_err());
    }

    #[test]
    fn availability_json_is_deterministic() {
        let s = store();
        assert_eq!(s.availability_json(), s.availability_json());
        assert!(s.availability_json().contains("\"outages\": 0"));
    }

    #[test]
    fn handle_swaps_atomically_and_monotonically() {
        let handle = StoreHandle::new(store());
        assert_eq!(handle.current().id, 1);
        let held = handle.current();
        let id = handle.publish(store());
        assert_eq!(id, 2);
        assert_eq!(handle.current().id, 2);
        // A reader that grabbed the old snapshot keeps it intact.
        assert_eq!(held.id, 1);
        assert_eq!(held.store.error_rows(), 5);
    }

    #[test]
    fn rollup_errors_counts_match_raw_rows() {
        let s = store();
        let q = RollupQuery::for_metric(RollupMetric::Errors);
        let csv = s.rollup_csv(&q).unwrap();
        // All five events fall on the same UTC day.
        assert_eq!(csv.lines().count(), 1 + 1, "{csv}");
        assert!(csv.lines().nth(1).unwrap().ends_with(",5"), "{csv}");
        // In hour buckets they spread over op-epoch hours 0, 1, 2, 3.
        let hours = s
            .rollup_csv(&RollupQuery {
                bucket: Bucket::Hour,
                ..q
            })
            .unwrap();
        assert_eq!(hours.lines().count(), 1 + 4, "{hours}");
    }

    #[test]
    fn rollup_kind_and_host_filters_restrict_counts() {
        let s = store();
        let gsp = s
            .rollup_csv(&RollupQuery {
                kind: Some(ErrorKind::GspError),
                ..RollupQuery::for_metric(RollupMetric::Errors)
            })
            .unwrap();
        assert!(gsp.lines().nth(1).unwrap().ends_with(",2"), "{gsp}");
        let hosted = s
            .rollup_csv(&RollupQuery {
                host: Some("gpub001".to_owned()),
                ..RollupQuery::for_metric(RollupMetric::Errors)
            })
            .unwrap();
        assert!(hosted.lines().nth(1).unwrap().ends_with(",3"), "{hosted}");
        let unknown = s
            .rollup_csv(&RollupQuery {
                host: Some("nosuchhost".to_owned()),
                ..RollupQuery::for_metric(RollupMetric::Errors)
            })
            .unwrap();
        assert_eq!(unknown.lines().count(), 1, "{unknown}");
    }

    #[test]
    fn rollup_window_slices_on_bucket_start() {
        let s = store();
        let hour0 = Tz::utc().bucket_start(Bucket::Hour, op_time(0));
        let base = RollupQuery {
            bucket: Bucket::Hour,
            ..RollupQuery::for_metric(RollupMetric::Errors)
        };
        // A window ending exactly on a bucket start excludes that bucket.
        let empty = s
            .rollup_csv(&RollupQuery {
                from: Some(hour0),
                to: Some(hour0),
                ..base.clone()
            })
            .unwrap();
        assert_eq!(empty.lines().count(), 1, "{empty}");
        let first = s
            .rollup_csv(&RollupQuery {
                from: Some(hour0),
                to: Some(hour0 + Duration::from_secs(3600)),
                ..base
            })
            .unwrap();
        // Only hour 0 (events at +100 s and +200 s) survives.
        assert_eq!(first.lines().count(), 1 + 1, "{first}");
        assert!(first.lines().nth(1).unwrap().ends_with(",2"), "{first}");
    }

    #[test]
    fn rollup_rejects_bad_tz_and_inapplicable_filters() {
        let s = store();
        assert!(s
            .rollup_csv(&RollupQuery {
                tz: "Mars/Olympus".to_owned(),
                ..RollupQuery::for_metric(RollupMetric::Errors)
            })
            .is_err());
        assert!(s
            .rollup_csv(&RollupQuery {
                host: Some("gpub001".to_owned()),
                ..RollupQuery::for_metric(RollupMetric::Mtbe)
            })
            .is_err());
        assert!(s
            .rollup_csv(&RollupQuery {
                kind: Some(ErrorKind::GspError),
                ..RollupQuery::for_metric(RollupMetric::Availability)
            })
            .is_err());
    }

    #[test]
    fn publish_study_publishes_materialized_reports() {
        let handle = StoreHandle::new(store());
        let mut engine = resilience::StreamingPipeline::new(Pipeline::delta(), 2022);
        engine.push_log(b"");
        let (report, quarantine) = engine.materialize_full();
        handle.publish_study(report, &quarantine);
        assert_eq!(handle.current().id, 2);
        assert_eq!(handle.current().store.error_rows(), 0);
    }
}

//! Job-impact analysis — §V: correlating GPU errors with job failures
//! (Table II) and characterizing the workload mix (Table III).
//!
//! **Encounter**: a job encounters an error if the error fires on a GPU the
//! job holds, while the job is running.
//!
//! **Attribution**: an encountered error is attributed as a potential
//! failure cause if the job terminates unsuccessfully within the
//! attribution window (20 seconds in the paper) after the error. Multiple
//! error kinds near one termination are all attributed, exactly as §V-B
//! describes.
//!
//! A report reads the job exports only through a [`JobIndex`] per export:
//! each GPU's holders for the join, the Table III folds and the counts.
//! The batch loader ([`JobIndex::from_csv`]) and the streaming engine
//! decode every CSV row straight into it, so neither holds job rows; the
//! slice functions below ([`JobImpact::compute`], [`job_mix`],
//! [`success_rate`]) fold owned [`AccountedJob`]s through the same parts.
//! A streaming checkpoint stores the index itself (format 3), encoded
//! here beside it.

use crate::checkpoint::{CheckpointError, Decoder, Encoder};
use crate::coalesce::CoalescedError;
use crate::csvio::{self, CsvError, JobRow, ReadCsvError};
use crate::histogram::{mean, percentile_sorted};
use crate::job::{is_ml_name, AccountedJob};
use simtime::{Duration, Timestamp};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::Read;
use xid::ErrorKind;

/// The paper's attribution window between an error and a job failure.
pub const ATTRIBUTION_WINDOW: Duration = Duration::from_secs(20);

/// Encounter/failure tallies for one error kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindImpact {
    /// Distinct jobs that encountered this kind.
    pub encountered: u64,
    /// Of those, jobs whose failure was attributed to it.
    pub failed: u64,
}

impl KindImpact {
    /// P(job failure | job encountered this kind), `None` if never
    /// encountered — the Table II column.
    pub fn failure_probability(&self) -> Option<f64> {
        if self.encountered == 0 {
            None
        } else {
            Some(self.failed as f64 / self.encountered as f64)
        }
    }
}

/// The Table II analysis result.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct JobImpact {
    per_kind: BTreeMap<ErrorKind, KindImpact>,
    gpu_failed_jobs: u64,
    /// Distinct GPU-failed jobs as `(termination instant, job id)`,
    /// ascending by job id — the impact rollup buckets these.
    failed_ends: Vec<(Timestamp, u64)>,
    /// One entry per attributed `(kind, job)` pair as
    /// `(termination instant, kind, job id)`, kind-major order.
    attributions: Vec<(Timestamp, ErrorKind, u64)>,
}

impl JobImpact {
    /// Joins jobs against coalesced errors with the given attribution
    /// window.
    ///
    /// GPU allocations are exclusive on Delta, so at most one job holds a
    /// GPU at any instant; the join indexes jobs by GPU slot and binary-
    /// searches by time, making the whole pass `O((J + E) log J)`. A
    /// caller that reports repeatedly over a growing job set keeps a
    /// `JobIndex` instead and pays only the `O(E log J)` searches.
    pub fn compute(jobs: &[AccountedJob], errors: &[CoalescedError], window: Duration) -> Self {
        let mut slots = SlotLists::default();
        slots.extend(jobs);
        slots.join(&SlotLists::default(), errors, window)
    }

    /// The Table II tallies from the join's encounter and attribution
    /// events.
    fn tally(
        enc_events: Vec<(ErrorKind, u64)>,
        fail_events: Vec<(ErrorKind, u64, Timestamp)>,
    ) -> Self {
        // The Table II tallies are instantiations of the shared
        // aggregation kernel: group the encounter/attribution event
        // streams by kind, folding distinct job sets. The attribution
        // fold keeps each job's termination instant so the rollup layer
        // can re-bucket the same events by civil time.
        let encountered: BTreeMap<ErrorKind, BTreeSet<u64>> = crate::rollup::group_fold(
            enc_events,
            |&(kind, _)| Some(kind),
            |jobs: &mut BTreeSet<u64>, (_, id)| {
                jobs.insert(id);
            },
        );
        let failed: BTreeMap<ErrorKind, BTreeMap<u64, Timestamp>> = crate::rollup::group_fold(
            fail_events.iter().copied(),
            |&(kind, _, _)| Some(kind),
            |jobs: &mut BTreeMap<u64, Timestamp>, (_, id, end)| {
                jobs.insert(id, end);
            },
        );
        let mut gpu_failed: BTreeMap<u64, Timestamp> = BTreeMap::new();
        for &(_, id, end) in &fail_events {
            gpu_failed.insert(id, end);
        }

        let kinds: BTreeSet<ErrorKind> = encountered.keys().chain(failed.keys()).copied().collect();
        let per_kind = kinds
            .into_iter()
            .map(|k| {
                (
                    k,
                    KindImpact {
                        encountered: encountered.get(&k).map_or(0, BTreeSet::len) as u64,
                        failed: failed.get(&k).map_or(0, BTreeMap::len) as u64,
                    },
                )
            })
            .collect();
        if obs::is_enabled() {
            obs::counter("core_attribution_window_hits_total", &[]).add(gpu_failed.len() as u64);
        }
        let attributions = failed
            .iter()
            .flat_map(|(&kind, jobs)| jobs.iter().map(move |(&id, &end)| (end, kind, id)))
            .collect();
        JobImpact {
            per_kind,
            gpu_failed_jobs: gpu_failed.len() as u64,
            failed_ends: gpu_failed.iter().map(|(&id, &end)| (end, id)).collect(),
            attributions,
        }
    }

    /// Tallies for one kind (zeroes if never observed).
    pub fn kind(&self, kind: ErrorKind) -> KindImpact {
        self.per_kind.get(&kind).copied().unwrap_or_default()
    }

    /// All kinds with at least one encounter, in taxonomy order.
    pub fn kinds(&self) -> impl Iterator<Item = (ErrorKind, KindImpact)> + '_ {
        self.per_kind.iter().map(|(&k, &v)| (k, v))
    }

    /// Total distinct GPU-failed jobs (the paper reports 3,285).
    pub fn gpu_failed_jobs(&self) -> u64 {
        self.gpu_failed_jobs
    }

    /// Distinct GPU-failed jobs as `(termination instant, job id)` —
    /// the events the impact rollup buckets by civil time.
    pub fn failed_job_ends(&self) -> impl Iterator<Item = (Timestamp, u64)> + '_ {
        self.failed_ends.iter().copied()
    }

    /// Attributed `(kind, job)` pairs as `(termination instant, kind,
    /// job id)`. A job attributed to several kinds appears once per
    /// kind, matching the Table II per-kind `failed` counts.
    pub fn attributions(&self) -> impl Iterator<Item = (Timestamp, ErrorKind, u64)> + '_ {
        self.attributions.iter().copied()
    }
}

/// One row of the Table III workload-mix summary.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMixRow {
    /// Bucket label (`"1"`, `"2-4"`, ...).
    pub label: String,
    /// Smallest GPU count in the bucket.
    pub min_gpus: u32,
    /// Largest GPU count in the bucket (`u32::MAX` = unbounded).
    pub max_gpus: u32,
    /// Jobs in the bucket.
    pub count: u64,
    /// Share of all GPU jobs (percent).
    pub share_pct: f64,
    /// Mean elapsed minutes.
    pub mean_mins: f64,
    /// Median elapsed minutes.
    pub p50_mins: f64,
    /// 99th-percentile elapsed minutes.
    pub p99_mins: f64,
    /// GPU-hours (thousands) from ML-classified jobs.
    pub ml_gpu_hours_k: f64,
    /// GPU-hours (thousands) from non-ML jobs.
    pub non_ml_gpu_hours_k: f64,
}

/// The Table III bucket boundaries.
pub const MIX_BUCKETS: [(u32, u32, &str); 8] = [
    (1, 1, "1"),
    (2, 4, "2-4"),
    (5, 8, "4-8"),
    (9, 32, "8-32"),
    (33, 64, "32-64"),
    (65, 128, "64-128"),
    (129, 256, "128-256"),
    (257, u32::MAX, "256+"),
];

/// Computes the Table III rows over the GPU jobs in `jobs` (CPU jobs are
/// skipped). Empty buckets produce rows with zero counts and NaN-free
/// zeroed statistics.
pub fn job_mix(jobs: &[AccountedJob]) -> Vec<JobMixRow> {
    let mut mix = MixFolds::default();
    for job in jobs {
        mix.add(job.gpus, job.elapsed(), &job.name);
    }
    mix.rows(&[])
}

/// Success rate (completed fraction) of a job set, `None` if empty.
pub fn success_rate(jobs: &[AccountedJob]) -> Option<f64> {
    rate(jobs.len() as u64, completed(jobs))
}

fn completed(jobs: &[AccountedJob]) -> u64 {
    jobs.iter().filter(|j| j.completed).count() as u64
}

fn rate(jobs: u64, completed: u64) -> Option<f64> {
    (jobs > 0).then(|| completed as f64 / jobs as f64)
}

/// The job side of a report, kept as job rows arrive: what
/// [`JobImpact::compute`], [`job_mix`] and [`success_rate`] would rebuild
/// from every job on every call.
///
/// It holds each GPU's holders sorted stably by start, the Table III
/// bucket folds (count, sorted elapsed minutes, and ML and non-ML
/// GPU-hours summed in input order), the row and completed counts, and
/// the earliest submit and latest end. A row costs its slots plus an
/// amortized sort; a report from it costs `O(E log J)` for Table II and
/// one pass over the sorted minutes for Table III, with every float
/// summed in the order the one-shot functions sum it, so the rows are
/// bit-identical to theirs. A CPU row (no GPUs, no slots) adds only to
/// the counts and the time fold.
///
/// The batch loader ([`from_csv`](Self::from_csv)) and the streaming
/// engine push each decoded CSV row straight into one; the slice entry
/// points add owned rows. Either way rows are pushed one at a time and
/// settled once the call's rows are in. Every read takes a `tail`: rows
/// that follow the indexed ones in input order but are not indexed (a
/// streaming view's partial CSV row). They join and fold as if they had
/// been added.
#[derive(Debug, Default)]
pub struct JobIndex {
    slots: SlotLists,
    mix: MixFolds,
    jobs: u64,
    completed: u64,
    /// The earliest submit and the latest end over the rows.
    span: Option<(Timestamp, Timestamp)>,
}

/// Encoded bytes of one holder: start, end and id, then the state byte.
const HOLDER_BYTES: usize = 25;
/// Encoded bytes of one Table III minute.
const MINUTE_BYTES: usize = 8;

impl JobIndex {
    /// An index over `jobs`.
    pub(crate) fn build(jobs: &[AccountedJob]) -> Self {
        let mut index = JobIndex::default();
        index.extend(jobs);
        index
    }

    /// Decodes a job export ([`csvio::JOB_HEADER`] schema) straight into
    /// an index, one row at a time: no [`AccountedJob`] is built, and
    /// every row is checked as [`csvio::parse_jobs`] checks it.
    ///
    /// # Errors
    ///
    /// The [`CsvError`] [`csvio::parse_jobs`] returns on the same text.
    pub fn from_csv(text: &str) -> Result<Self, CsvError> {
        let mut index = JobIndex::default();
        csvio::strict_rows(text, csvio::JOB_HEADER, index.rows())?;
        index.settle();
        Ok(index)
    }

    /// [`from_csv`](Self::from_csv) over an export read from `reader` in
    /// fixed-size blocks, so the export is never held whole: the same
    /// line walk and row decode, pushing each row as `from_csv` does.
    ///
    /// # Errors
    ///
    /// [`ReadCsvError::Read`] when a read fails or the bytes are not
    /// UTF-8, anywhere in the export; else [`ReadCsvError::Csv`] with the
    /// error `from_csv` returns on the same text.
    pub fn read_csv(reader: impl Read) -> Result<Self, ReadCsvError> {
        let mut index = JobIndex::default();
        csvio::read_rows(reader, csvio::JOB_HEADER, index.rows())?;
        index.settle();
        Ok(index)
    }

    /// Decodes each job row through the one `csvio` row decoder into
    /// this index, to be settled.
    pub(crate) fn rows(&mut self) -> impl FnMut(&str, usize) -> Result<(), CsvError> + '_ {
        csvio::job_rows(|row| self.push_row(row))
    }

    /// Adds the rows that follow the indexed ones.
    pub(crate) fn extend(&mut self, jobs: &[AccountedJob]) {
        for job in jobs {
            self.push(
                Holder::of(job),
                job.submit,
                job.gpus,
                &job.name,
                slots_of(job),
            );
        }
        self.settle();
    }

    /// Adds one decoded CSV row after the indexed ones, to be settled.
    pub(crate) fn push_row(&mut self, row: &JobRow<'_>) {
        let holder = Holder {
            start: row.start,
            end: row.end,
            id: row.id,
            completed: row.completed,
        };
        let slots = row.slots.iter().copied();
        self.push(holder, row.submit, row.gpus, row.name, slots);
    }

    /// Adds one row after the indexed ones, to be settled.
    fn push<'s>(
        &mut self,
        holder: Holder,
        submit: Timestamp,
        gpus: u32,
        name: &str,
        slots: impl Iterator<Item = (&'s str, u8)>,
    ) {
        self.slots.add(holder, slots);
        self.jobs += 1;
        self.completed += u64::from(holder.completed);
        self.span = Some(match self.span {
            Some((first, last)) => (first.min(submit), last.max(holder.end)),
            None => (submit, holder.end),
        });
        self.mix.add(gpus, holder.end - holder.start, name);
    }

    /// Puts the rows pushed since the last settle in order: each GPU's
    /// holders by start, and the minutes of the folds they were added
    /// to; a fold no row touched is already settled.
    pub(crate) fn settle(&mut self) {
        self.slots.settle();
        for fold in &mut self.mix.0 {
            fold.settle();
        }
    }

    /// Writes the settled index as checkpoint format 3 stores it: each
    /// GPU's holders, list by list, at fixed width; each Table III fold's
    /// sorted and fresh minutes and its GPU-hours as `f64` bits; the row
    /// and completed counts; and the first-submit/last-end span.
    pub(crate) fn encode(&self, enc: &mut Encoder) {
        self.slots.encode(enc);
        for fold in &self.mix.0 {
            fold.encode(enc);
        }
        enc.u64(self.jobs);
        enc.u64(self.completed);
        enc.opt_u64(self.span.map(|(first, _)| first.unix()));
        enc.opt_u64(self.span.map(|(_, last)| last.unix()));
    }

    /// Reads what [`encode`](Self::encode) wrote, rebuilding and
    /// re-sorting nothing. It checks what a damaged checkpoint could
    /// break: the counts against the bytes left, one list per GPU, each
    /// list in start order, each fold's minutes ascending, and counts
    /// and span that agree.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on short input or any of those defects.
    pub(crate) fn decode(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        let slots = SlotLists::decode(dec)?;
        let mut mix = MixFolds::default();
        for fold in &mut mix.0 {
            *fold = MixFold::decode(dec)?;
        }
        let jobs = dec.u64()?;
        let completed = dec.u64()?;
        let span = match (dec.opt_u64("job span")?, dec.opt_u64("job span")?) {
            (Some(first), Some(last)) if first <= last => {
                Some((Timestamp::from_unix(first), Timestamp::from_unix(last)))
            }
            (None, None) => None,
            _ => return Err(CheckpointError::Invalid { what: "job span" }),
        };
        if completed > jobs || span.is_some() != (jobs > 0) {
            return Err(CheckpointError::Invalid { what: "job counts" });
        }
        Ok(JobIndex {
            slots,
            mix,
            jobs,
            completed,
            span,
        })
    }

    /// The rows indexed.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// The earliest submit and the latest end over the indexed rows;
    /// `None` when there are none.
    pub fn time_span(&self) -> Option<(Timestamp, Timestamp)> {
        self.span
    }

    /// [`JobImpact::compute`] over the indexed rows and `tail`.
    pub(crate) fn impact(
        &self,
        tail: &[AccountedJob],
        errors: &[CoalescedError],
        window: Duration,
    ) -> JobImpact {
        let mut tail_slots = SlotLists::default();
        tail_slots.extend(tail);
        self.slots.join(&tail_slots, errors, window)
    }

    /// [`job_mix`] over the indexed rows and `tail`.
    pub(crate) fn mix(&self, tail: &[AccountedJob]) -> Vec<JobMixRow> {
        self.mix.rows(tail)
    }

    /// [`success_rate`] over the indexed rows and `tail`.
    pub(crate) fn success_rate(&self, tail: &[AccountedJob]) -> Option<f64> {
        rate(
            self.jobs + tail.len() as u64,
            self.completed + completed(tail),
        )
    }
}

/// What the join needs of a job that held a GPU.
#[derive(Debug, Clone, Copy)]
struct Holder {
    start: Timestamp,
    end: Timestamp,
    id: u64,
    completed: bool,
}

impl Holder {
    fn of(job: &AccountedJob) -> Self {
        Holder {
            start: job.start,
            end: job.end,
            id: job.id,
            completed: job.completed,
        }
    }
}

/// An owned job's GPU slots, borrowed.
fn slots_of(job: &AccountedJob) -> impl Iterator<Item = (&str, u8)> {
    job.gpu_slots
        .iter()
        .map(|(host, gpu)| (host.as_str(), *gpu))
}

/// Each GPU's holders, sorted stably by start once settled.
#[derive(Debug, Default)]
struct SlotLists {
    /// Host → its GPUs as `(GPU index, position in lists)`.
    ids: HashMap<String, Vec<(u8, usize)>>,
    lists: Vec<Vec<Holder>>,
    /// Lists that took a holder out of start order since the last
    /// settle, and where.
    unsorted: Vec<(usize, usize)>,
}

impl SlotLists {
    fn extend(&mut self, jobs: &[AccountedJob]) {
        for job in jobs {
            self.add(Holder::of(job), slots_of(job));
        }
        self.settle();
    }

    /// Appends `holder` to the list of each slot.
    fn add<'s>(&mut self, holder: Holder, slots: impl Iterator<Item = (&'s str, u8)>) {
        for (host, gpu) in slots {
            let id = self.list_id(host, gpu);
            let list = &mut self.lists[id];
            if list.last().is_some_and(|last| last.start > holder.start) {
                self.unsorted.push((id, list.len()));
            }
            list.push(holder);
        }
    }

    /// Restores the stable start order of the lists holders were added
    /// to out of order.
    fn settle(&mut self) {
        let mut unsorted = std::mem::take(&mut self.unsorted);
        // A list is sorted up to its first out-of-order holder, and every
        // holder after that came later in input order, so a stable sort
        // from the first holder that can move equals the stable sort of
        // the whole list. An export in job-id order puts a backfilled job
        // after jobs that start later on its GPU; such a holder costs its
        // displacement, not the list.
        unsorted.sort_unstable();
        unsorted.dedup_by_key(|&mut (id, _)| id);
        for (id, first) in unsorted {
            let list = &mut self.lists[id];
            let Some(earliest) = list[first..].iter().map(|h| h.start).min() else {
                continue;
            };
            let from = list[..first].partition_point(|h| h.start <= earliest);
            list[from..].sort_by_key(|h| h.start);
        }
    }

    fn list_id(&mut self, host: &str, gpu: u8) -> usize {
        let next = self.lists.len();
        let gpus = match self.ids.get_mut(host) {
            Some(gpus) => gpus,
            None => self.ids.entry(host.to_owned()).or_default(),
        };
        if let Some(&(_, id)) = gpus.iter().find(|&&(g, _)| g == gpu) {
            return id;
        }
        gpus.push((gpu, next));
        self.lists.push(Vec::new());
        next
    }

    fn encode(&self, enc: &mut Encoder) {
        // The dictionary in list order, whatever order the map keeps.
        let mut keys = vec![("", 0); self.lists.len()];
        for (host, gpus) in &self.ids {
            for &(gpu, id) in gpus {
                keys[id] = (host.as_str(), gpu);
            }
        }
        enc.u64(self.lists.len() as u64);
        for ((host, gpu), list) in keys.into_iter().zip(&self.lists) {
            enc.str(host);
            enc.u8(gpu);
            enc.u64(list.len() as u64);
            for holder in list {
                enc.u64(holder.start.unix());
                enc.u64(holder.end.unix());
                enc.u64(holder.id);
                enc.bool(holder.completed);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        let mut slots = SlotLists::default();
        for id in 0..dec.len("slot list count")? {
            let host = dec.str("slot host")?;
            let gpu = dec.u8()?;
            let gpus = slots.ids.entry(host).or_default();
            if gpus.iter().any(|&(g, _)| g == gpu) {
                return Err(CheckpointError::Invalid {
                    what: "slot dictionary",
                });
            }
            gpus.push((gpu, id));
            let n = dec.len_of(HOLDER_BYTES, "holder count")?;
            let mut list = Vec::with_capacity(n);
            for _ in 0..n {
                let holder = Holder {
                    start: Timestamp::from_unix(dec.u64()?),
                    end: Timestamp::from_unix(dec.u64()?),
                    id: dec.u64()?,
                    completed: dec.bool("holder state")?,
                };
                if list
                    .last()
                    .is_some_and(|last: &Holder| last.start > holder.start)
                {
                    return Err(CheckpointError::Invalid {
                        what: "holder order",
                    });
                }
                list.push(holder);
            }
            slots.lists.push(list);
        }
        Ok(slots)
    }

    fn holders(&self, host: &str, gpu: u8) -> &[Holder] {
        self.ids
            .get(host)
            .and_then(|gpus| gpus.iter().find(|&&(g, _)| g == gpu))
            .map_or(&[], |&(_, id)| &self.lists[id])
    }

    /// The Table II join of `errors` against these holders followed by
    /// `tail`'s.
    fn join(&self, tail: &SlotLists, errors: &[CoalescedError], window: Duration) -> JobImpact {
        let mut enc_events: Vec<(ErrorKind, u64)> = Vec::new();
        let mut fail_events: Vec<(ErrorKind, u64, Timestamp)> = Vec::new();
        for err in errors {
            let Some(gpu) = err.gpu_index() else {
                continue;
            };
            let (base, extra) = (self.holders(&err.host, gpu), tail.holders(&err.host, gpu));
            holders_at(base, extra, err.time, |job| {
                enc_events.push((err.kind, job.id));
                if !job.completed && job.end - err.time <= window {
                    fail_events.push((err.kind, job.id, job.end));
                }
            });
        }
        JobImpact::tally(enc_events, fail_events)
    }
}

/// Visits the candidate holders of one GPU at an error's instant `t`.
///
/// Candidates hold the GPU over (start, end] — *inclusive* of the end
/// instant and *exclusive* of the start instant: a job killed by this
/// very error terminates exactly at the error time (the paper's window
/// is "error preceding the failure"), while a job that started in the
/// same second as the error is a successor backfilled onto the freed GPU
/// and never saw it. Allocations are exclusive, so walking back from the
/// last start < t visits at most the incumbent plus a predecessor that
/// ended exactly at t.
///
/// The walk runs over `base` followed by `tail` in one stable start
/// order: `tail`'s rows come later in input order, so on equal starts
/// they sort after `base`'s.
fn holders_at(base: &[Holder], tail: &[Holder], t: Timestamp, mut visit: impl FnMut(&Holder)) {
    let mut b = base.partition_point(|h| h.start < t);
    let mut e = tail.partition_point(|h| h.start < t);
    loop {
        let from_tail = match (b, e) {
            (0, 0) => return,
            (0, _) => true,
            (_, 0) => false,
            _ => tail[e - 1].start >= base[b - 1].start,
        };
        let holder = if from_tail {
            e -= 1;
            &tail[e]
        } else {
            b -= 1;
            &base[b]
        };
        if holder.end < t {
            return;
        }
        visit(holder);
    }
}

/// The Table III folds, one per [`MIX_BUCKETS`] entry.
#[derive(Debug, Default)]
struct MixFolds([MixFold; MIX_BUCKETS.len()]);

#[derive(Debug, Default)]
struct MixFold {
    /// Elapsed minutes, ascending.
    mins: Vec<f64>,
    /// Minutes added since `mins` last took them in, ascending once
    /// settled.
    fresh: Vec<f64>,
    /// GPU-hours of ML jobs, summed in input order.
    ml_hours: f64,
    /// GPU-hours of the other jobs, summed in input order.
    non_ml_hours: f64,
    /// Whether a row was added since the last settle.
    touched: bool,
}

impl MixFold {
    fn add(&mut self, gpus: u32, elapsed: Duration, ml: bool) {
        self.touched = true;
        self.fresh.push(elapsed.as_mins_f64());
        let hours = gpus as f64 * elapsed.as_hours_f64();
        if ml {
            self.ml_hours += hours;
        } else {
            self.non_ml_hours += hours;
        }
    }

    /// Sorts the fresh minutes, and merges them into the rest once they
    /// outgrow an eighth of it: a minute is merged a bounded number of
    /// times on average, and a report merges at most a short run. A fold
    /// no row was added to since the last settle is left as it is.
    fn settle(&mut self) {
        if !std::mem::take(&mut self.touched) {
            return;
        }
        self.fresh.sort_by(f64::total_cmp);
        if self.fresh.len() * 8 > self.mins.len() {
            self.mins.append(&mut self.fresh);
            // Two ascending runs: the stable sort merges them in one pass.
            self.mins.sort_by(f64::total_cmp);
        }
    }

    fn encode(&self, enc: &mut Encoder) {
        for mins in [&self.mins, &self.fresh] {
            enc.u64(mins.len() as u64);
            for &m in mins {
                enc.f64(m);
            }
        }
        enc.f64(self.ml_hours);
        enc.f64(self.non_ml_hours);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CheckpointError> {
        let mut minutes = || {
            let n = dec.len_of(MINUTE_BYTES, "minute count")?;
            let mut mins = Vec::with_capacity(n);
            let mut prev = 0.0;
            for _ in 0..n {
                let m = dec.f64()?;
                // Elapsed minutes are finite, non-negative and ascending.
                if !(prev <= m && m.is_finite()) {
                    return Err(CheckpointError::Invalid {
                        what: "minutes order",
                    });
                }
                mins.push(m);
                prev = m;
            }
            Ok(mins)
        };
        Ok(MixFold {
            mins: minutes()?,
            fresh: minutes()?,
            ml_hours: dec.f64()?,
            non_ml_hours: dec.f64()?,
            touched: false,
        })
    }

    /// This fold with the jobs of `tail` in its bucket added, and every
    /// minute sorted into `mins`.
    fn view(&self, bucket: usize, tail: &[AccountedJob]) -> MixFold {
        let mut mins = Vec::with_capacity(self.mins.len() + self.fresh.len() + tail.len());
        mins.extend_from_slice(&self.mins);
        mins.extend_from_slice(&self.fresh);
        let mut view = MixFold {
            mins,
            fresh: Vec::new(),
            ml_hours: self.ml_hours,
            non_ml_hours: self.non_ml_hours,
            touched: false,
        };
        for job in tail
            .iter()
            .filter(|job| mix_bucket(job.gpus) == Some(bucket))
        {
            view.add(job.gpus, job.elapsed(), job.is_ml());
        }
        view.mins.append(&mut view.fresh);
        view.mins.sort_by(f64::total_cmp);
        view
    }
}

impl MixFolds {
    /// Adds a job to its bucket's fold; a CPU job has none.
    fn add(&mut self, gpus: u32, elapsed: Duration, name: &str) {
        if let Some(bucket) = mix_bucket(gpus) {
            self.0[bucket].add(gpus, elapsed, is_ml_name(name));
        }
    }

    fn rows(&self, tail: &[AccountedJob]) -> Vec<JobMixRow> {
        let views: Vec<MixFold> = self
            .0
            .iter()
            .enumerate()
            .map(|(bucket, fold)| fold.view(bucket, tail))
            .collect();
        let total = views.iter().map(|v| v.mins.len()).sum::<usize>().max(1) as f64;
        MIX_BUCKETS
            .iter()
            .zip(&views)
            .map(|(&(lo, hi, label), view)| {
                let mins = view.mins.as_slice();
                JobMixRow {
                    label: label.to_owned(),
                    min_gpus: lo,
                    max_gpus: hi,
                    count: mins.len() as u64,
                    share_pct: mins.len() as f64 / total * 100.0,
                    mean_mins: mean(mins).unwrap_or(0.0),
                    p50_mins: if mins.is_empty() {
                        0.0
                    } else {
                        percentile_sorted(mins, 50.0)
                    },
                    p99_mins: if mins.is_empty() {
                        0.0
                    } else {
                        percentile_sorted(mins, 99.0)
                    },
                    ml_gpu_hours_k: view.ml_hours / 1000.0,
                    non_ml_gpu_hours_k: view.non_ml_hours / 1000.0,
                }
            })
            .collect()
    }
}

/// The Table III bucket of a job with `gpus` GPUs; `None` for a CPU job.
/// The buckets are disjoint, so the first match is the only match.
fn mix_bucket(gpus: u32) -> Option<usize> {
    MIX_BUCKETS
        .iter()
        .position(|&(lo, hi, _)| gpus >= lo && gpus <= hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpclog::PciAddr;
    use simtime::Timestamp;

    fn job(id: u64, host: &str, gpu: u8, start: u64, end: u64, completed: bool) -> AccountedJob {
        AccountedJob {
            id,
            name: format!("job{id}"),
            submit: Timestamp::from_unix(start.saturating_sub(60)),
            start: Timestamp::from_unix(start),
            end: Timestamp::from_unix(end),
            gpus: 1,
            gpu_slots: vec![(host.to_owned(), gpu)],
            completed,
        }
    }

    fn error(host: &str, gpu: u8, at: u64, kind: ErrorKind) -> CoalescedError {
        CoalescedError {
            time: Timestamp::from_unix(at),
            host: host.to_owned(),
            pci: PciAddr::for_gpu_index(gpu),
            kind,
            merged_lines: 1,
        }
    }

    const W: Duration = ATTRIBUTION_WINDOW;

    #[test]
    fn encounter_requires_running_overlap() {
        let jobs = [job(1, "n1", 0, 100, 200, true)];
        // Error before start and after end: no encounter.
        let impact = JobImpact::compute(
            &jobs,
            &[
                error("n1", 0, 50, ErrorKind::GspError),
                error("n1", 0, 250, ErrorKind::GspError),
            ],
            W,
        );
        assert_eq!(impact.kind(ErrorKind::GspError).encountered, 0);
        // Error during run: encounter.
        let impact = JobImpact::compute(&jobs, &[error("n1", 0, 150, ErrorKind::GspError)], W);
        assert_eq!(impact.kind(ErrorKind::GspError).encountered, 1);
        assert_eq!(impact.kind(ErrorKind::GspError).failed, 0); // completed
    }

    #[test]
    fn attribution_needs_failure_within_window() {
        // Job fails 10 s after the error: attributed.
        let jobs = [job(1, "n1", 0, 100, 210, false)];
        let impact = JobImpact::compute(&jobs, &[error("n1", 0, 200, ErrorKind::GspError)], W);
        let k = impact.kind(ErrorKind::GspError);
        assert_eq!((k.encountered, k.failed), (1, 1));
        assert_eq!(impact.gpu_failed_jobs(), 1);
        assert_eq!(k.failure_probability(), Some(1.0));

        // Job fails 30 s after: encountered but not attributed.
        let jobs = [job(1, "n1", 0, 100, 230, false)];
        let impact = JobImpact::compute(&jobs, &[error("n1", 0, 200, ErrorKind::GspError)], W);
        let k = impact.kind(ErrorKind::GspError);
        assert_eq!((k.encountered, k.failed), (1, 0));
        assert_eq!(impact.gpu_failed_jobs(), 0);
    }

    #[test]
    fn wrong_gpu_or_host_is_no_encounter() {
        let jobs = [job(1, "n1", 0, 100, 200, false)];
        let impact = JobImpact::compute(
            &jobs,
            &[
                error("n1", 1, 150, ErrorKind::GspError),
                error("n2", 0, 150, ErrorKind::GspError),
            ],
            W,
        );
        assert_eq!(impact.kind(ErrorKind::GspError).encountered, 0);
    }

    #[test]
    fn attribution_at_exact_window_boundary() {
        // §V-B's window is inclusive: a job failing *exactly* 20 s after
        // the error is attributed; one second later is not.
        let at_boundary = [job(1, "n1", 0, 100, 220, false)];
        let impact =
            JobImpact::compute(&at_boundary, &[error("n1", 0, 200, ErrorKind::GspError)], W);
        let k = impact.kind(ErrorKind::GspError);
        assert_eq!((k.encountered, k.failed), (1, 1));

        let past_boundary = [job(1, "n1", 0, 100, 221, false)];
        let impact = JobImpact::compute(
            &past_boundary,
            &[error("n1", 0, 200, ErrorKind::GspError)],
            W,
        );
        let k = impact.kind(ErrorKind::GspError);
        assert_eq!((k.encountered, k.failed), (1, 0));
        assert_eq!(impact.gpu_failed_jobs(), 0);
    }

    #[test]
    fn job_ending_in_the_same_tick_as_the_error() {
        // A job killed by the error terminates at the error's own
        // timestamp: occupancy is (start, end], so end == error time is
        // still an encounter, and the 0 s gap attributes.
        let jobs = [job(1, "n1", 0, 100, 200, false)];
        let impact = JobImpact::compute(&jobs, &[error("n1", 0, 200, ErrorKind::MmuError)], W);
        let k = impact.kind(ErrorKind::MmuError);
        assert_eq!((k.encountered, k.failed), (1, 1));

        // The successor backfilled onto the freed GPU in the same second
        // starts *at* the error time: occupancy excludes the start
        // instant, so it never saw the error.
        let jobs = [
            job(1, "n1", 0, 100, 200, false),
            job(2, "n1", 0, 200, 300, false),
        ];
        let impact = JobImpact::compute(&jobs, &[error("n1", 0, 200, ErrorKind::MmuError)], W);
        let k = impact.kind(ErrorKind::MmuError);
        assert_eq!((k.encountered, k.failed), (1, 1));
        assert_eq!(impact.gpu_failed_jobs(), 1);
    }

    #[test]
    fn multi_gpu_job_ignores_non_allocated_gpu_errors() {
        // A 2-GPU job on GPUs 0 and 1 of n1: an error on GPU 5 of the
        // same node is not an encounter (GPU scope, not node scope), but
        // errors on either held slot are.
        let mut wide = job(1, "n1", 0, 100, 210, false);
        wide.gpus = 2;
        wide.gpu_slots = vec![("n1".to_owned(), 0), ("n1".to_owned(), 1)];
        let jobs = [wide];

        let impact = JobImpact::compute(&jobs, &[error("n1", 5, 200, ErrorKind::MmuError)], W);
        assert_eq!(impact.kind(ErrorKind::MmuError).encountered, 0);
        assert_eq!(impact.gpu_failed_jobs(), 0);

        for held in [0u8, 1] {
            let impact =
                JobImpact::compute(&jobs, &[error("n1", held, 200, ErrorKind::MmuError)], W);
            let k = impact.kind(ErrorKind::MmuError);
            assert_eq!((k.encountered, k.failed), (1, 1), "gpu {held}");
        }

        // Errors on both held GPUs still count the job once per kind.
        let impact = JobImpact::compute(
            &jobs,
            &[
                error("n1", 0, 200, ErrorKind::MmuError),
                error("n1", 1, 201, ErrorKind::MmuError),
            ],
            W,
        );
        assert_eq!(impact.kind(ErrorKind::MmuError).encountered, 1);
        assert_eq!(impact.gpu_failed_jobs(), 1);
    }

    #[test]
    fn multiple_kinds_all_attributed() {
        // PMU then MMU both within 20 s of the failure: both attributed,
        // mirroring §V-B's multiple-contributor rule.
        let jobs = [job(1, "n1", 0, 100, 215, false)];
        let impact = JobImpact::compute(
            &jobs,
            &[
                error("n1", 0, 200, ErrorKind::PmuSpiError),
                error("n1", 0, 205, ErrorKind::MmuError),
            ],
            W,
        );
        assert_eq!(impact.kind(ErrorKind::PmuSpiError).failed, 1);
        assert_eq!(impact.kind(ErrorKind::MmuError).failed, 1);
        // But the job counts once in the distinct GPU-failed total.
        assert_eq!(impact.gpu_failed_jobs(), 1);
    }

    #[test]
    fn repeated_errors_count_one_distinct_job() {
        let jobs = [job(1, "n1", 0, 100, 500, true)];
        let errors: Vec<_> = (0..10)
            .map(|i| error("n1", 0, 150 + i * 10, ErrorKind::NvlinkError))
            .collect();
        let impact = JobImpact::compute(&jobs, &errors, W);
        assert_eq!(impact.kind(ErrorKind::NvlinkError).encountered, 1);
    }

    #[test]
    fn consecutive_jobs_on_one_gpu_resolve_correctly() {
        let jobs = [
            job(1, "n1", 0, 100, 200, true),
            job(2, "n1", 0, 200, 300, false),
        ];
        // Error at 250 belongs to job 2 only.
        let impact = JobImpact::compute(&jobs, &[error("n1", 0, 250, ErrorKind::MmuError)], W);
        assert_eq!(impact.kind(ErrorKind::MmuError).encountered, 1);
        let impact2 = JobImpact::compute(&jobs, &[error("n1", 0, 150, ErrorKind::MmuError)], W);
        assert_eq!(impact2.kind(ErrorKind::MmuError).encountered, 1);
        assert_eq!(impact2.kind(ErrorKind::MmuError).failed, 0);
    }

    #[test]
    fn failure_probability_table_shape() {
        // 4 jobs encounter NVLink, 2 die within window: p = 0.5.
        let jobs: Vec<AccountedJob> = (0..4)
            .map(|i| job(i, "n1", i as u8, 100, 200 + (i % 2) * 1000, i % 2 == 1))
            .collect();
        let errors: Vec<_> = (0..4)
            .map(|i| error("n1", i as u8, 190, ErrorKind::NvlinkError))
            .collect();
        let impact = JobImpact::compute(&jobs, &errors, W);
        let k = impact.kind(ErrorKind::NvlinkError);
        assert_eq!(k.encountered, 4);
        assert_eq!(k.failed, 2);
        assert_eq!(k.failure_probability(), Some(0.5));
    }

    #[test]
    fn kinds_iterator_and_default() {
        let impact = JobImpact::default();
        assert_eq!(impact.kinds().count(), 0);
        assert_eq!(impact.kind(ErrorKind::GspError).failure_probability(), None);
    }

    fn mix_job(id: u64, gpus: u32, mins: u64, name: &str) -> AccountedJob {
        AccountedJob {
            id,
            name: name.to_owned(),
            submit: Timestamp::from_unix(0),
            start: Timestamp::from_unix(0),
            end: Timestamp::from_unix(mins * 60),
            gpus,
            gpu_slots: Vec::new(),
            completed: true,
        }
    }

    #[test]
    fn job_mix_buckets_and_shares() {
        let jobs = [
            mix_job(1, 1, 10, "a"),
            mix_job(2, 1, 20, "b"),
            mix_job(3, 4, 30, "c"),
            mix_job(4, 64, 40, "train_model"),
            mix_job(5, 0, 99, "cpu_job"),
        ];
        let rows = job_mix(&jobs);
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].count, 2); // 1-GPU
        assert!((rows[0].share_pct - 50.0).abs() < 1e-9); // 2 of 4 GPU jobs
        assert_eq!(rows[1].count, 1); // 2-4
        assert_eq!(rows[4].count, 1); // 32-64
        assert_eq!(rows[7].count, 0);
    }

    #[test]
    fn job_mix_elapsed_statistics() {
        let jobs: Vec<AccountedJob> = (1..=100).map(|i| mix_job(i, 1, i, "job")).collect();
        let rows = job_mix(&jobs);
        assert!((rows[0].mean_mins - 50.5).abs() < 1e-9);
        assert!((rows[0].p50_mins - 50.5).abs() < 1.0);
        assert!((rows[0].p99_mins - 99.0).abs() < 1.1);
    }

    #[test]
    fn job_mix_ml_split() {
        let jobs = [
            mix_job(1, 2, 60, "train_resnet"), // 2 GPU-hours ML
            mix_job(2, 2, 60, "namd_apoa1"),   // 2 GPU-hours non-ML
        ];
        let rows = job_mix(&jobs);
        assert!((rows[1].ml_gpu_hours_k - 0.002).abs() < 1e-9);
        assert!((rows[1].non_ml_gpu_hours_k - 0.002).abs() < 1e-9);
    }

    #[test]
    fn job_mix_empty_is_all_zero() {
        let rows = job_mix(&[]);
        assert!(rows.iter().all(|r| r.count == 0 && r.mean_mins == 0.0));
    }

    #[test]
    fn success_rate_helper() {
        assert_eq!(success_rate(&[]), None);
        let jobs = [
            mix_job(1, 1, 10, "a"),
            AccountedJob {
                completed: false,
                ..mix_job(2, 1, 10, "b")
            },
        ];
        assert_eq!(success_rate(&jobs), Some(0.5));
    }

    /// Overlapping jobs on four GPUs: equal starts, a slot listed twice,
    /// zero-GPU rows, and ends within the window of the errors.
    fn random_job(g: &mut propcheck::Gen) -> AccountedJob {
        let start = g.choose(&[100u64, 100, 150, 200]) + g.u64_below(100);
        let mut slots: Vec<(String, u8)> = (0..g.usize_in(0, 3))
            .map(|_| (g.choose(&["n1", "n2"]).to_owned(), g.u8_in(0, 2)))
            .collect();
        if g.bool_with(0.1) {
            slots.extend(slots.first().cloned());
        }
        AccountedJob {
            id: g.u64_below(60),
            name: g.choose(&["train_net", "namd", "llm_eval"]).to_owned(),
            submit: Timestamp::from_unix(start),
            start: Timestamp::from_unix(start),
            end: Timestamp::from_unix(start + g.u64_below(200)),
            gpus: g.choose(&[0u32, 1, 1, 2, 8, 64, 300]),
            gpu_slots: slots,
            completed: g.bool(),
        }
    }

    #[test]
    fn an_index_extended_in_pieces_equals_a_one_shot_build() {
        propcheck::run("index_extended_in_pieces", 300, |g| {
            let jobs = g.vec_with(0, 120, random_job);
            let errors = g.vec_with(0, 16, |g| {
                let kind = g.choose(&[ErrorKind::GspError, ErrorKind::MmuError]);
                let host = g.choose(&["n1", "n2"]);
                error(host, g.u8_in(0, 2), 100 + g.u64_below(300), kind)
            });
            // Index a random prefix in random pieces; the rest is the
            // unindexed tail every read takes.
            let indexed = g.usize_in(0, jobs.len() + 1);
            let mut index = JobIndex::default();
            let mut pos = 0;
            while pos < indexed {
                let step = g.usize_in(1, indexed - pos + 1);
                index.extend(&jobs[pos..pos + step]);
                pos += step;
            }
            let tail = &jobs[indexed..];
            assert_eq!(
                index.impact(tail, &errors, W),
                JobImpact::compute(&jobs, &errors, W)
            );
            assert_eq!(index.mix(tail), job_mix(&jobs));
            assert_eq!(index.success_rate(tail), success_rate(&jobs));
        });
    }

    /// A reader that returns at most `k` bytes per `read`, so the block
    /// edges of [`JobIndex::read_csv`] fall anywhere.
    struct Trickle<'a> {
        bytes: &'a [u8],
        k: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.k.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    fn encoded(index: &JobIndex) -> Vec<u8> {
        let mut enc = Encoder::new();
        index.encode(&mut enc);
        enc.finish().into_bytes()
    }

    /// An export as bytes: random rows, some with multi-byte names, some
    /// lines CRLF, blank and whitespace-only lines between them, maybe no
    /// final newline, and maybe a malformed row at a random line and
    /// invalid UTF-8 before or after it; or an empty file, or a header
    /// alone.
    fn export_bytes(g: &mut propcheck::Gen) -> Vec<u8> {
        match g.u32_in(0, 10) {
            0 => return Vec::new(),
            1 => return format!("{}\n", csvio::JOB_HEADER).into_bytes(),
            _ => {}
        }
        let mut jobs = g.vec_with(0, 40, random_job);
        // Multi-byte names put block edges inside a character.
        for job in jobs.iter_mut().filter(|_| g.bool_with(0.2)) {
            job.name = "entraîné_模型".to_owned();
        }
        let mut lines: Vec<Vec<u8>> = csvio::render_jobs(&jobs)
            .lines()
            .map(|l| l.as_bytes().to_vec())
            .collect();
        for _ in 0..g.usize_in(0, 4) {
            let at = g.usize_in(1, lines.len() + 1);
            lines.insert(at, g.choose(&[&b""[..], b"  ", b"\t"]).to_vec());
        }
        if g.bool_with(0.4) {
            let bad = g.usize_in(1, lines.len() + 1);
            lines.insert(bad, b"1,a,b".to_vec());
            if g.bool_with(0.5) {
                let at = g.usize_in(0, lines.len());
                let line = &mut lines[at];
                let cut = g.usize_in(0, line.len() + 1);
                line.insert(cut, 0xFF);
            }
        }
        let mut bytes = Vec::new();
        for line in &lines {
            bytes.extend_from_slice(line);
            bytes.extend_from_slice(if g.bool_with(0.3) { b"\r\n" } else { b"\n" });
        }
        if g.bool_with(0.3) {
            while bytes.last().is_some_and(|b| b"\r\n".contains(b)) {
                bytes.pop();
            }
        }
        bytes
    }

    /// `bytes` streamed at every read size against the text read whole,
    /// as `std::fs::read_to_string` and `from_csv` take it: the same
    /// encoded index, the same CSV error, or the same read error.
    fn assert_streams_as_whole(bytes: &[u8]) {
        let mut text = String::new();
        let whole =
            Read::read_to_string(&mut &bytes[..], &mut text).map(|_| JobIndex::from_csv(&text));
        for k in [1, 7, 4096, bytes.len().max(1)] {
            let streamed = JobIndex::read_csv(Trickle { bytes, k });
            match (&whole, streamed) {
                (Ok(Ok(whole)), Ok(streamed)) => {
                    assert_eq!(encoded(whole), encoded(&streamed), "k={k} {text:?}");
                }
                (Ok(Err(whole)), Err(ReadCsvError::Csv(streamed))) => {
                    assert_eq!(whole, &streamed, "k={k}");
                }
                (Err(whole), Err(ReadCsvError::Read(streamed))) => {
                    assert_eq!(whole.kind(), streamed.kind(), "k={k}");
                    assert_eq!(whole.to_string(), streamed.to_string(), "k={k}");
                }
                (whole, streamed) => panic!("k={k}: whole {whole:?}, streamed {streamed:?}"),
            }
        }
    }

    #[test]
    fn a_streamed_export_decodes_as_the_whole_text_at_any_block_edge() {
        propcheck::run("streamed export", 300, |g| {
            assert_streams_as_whole(&export_bytes(g));
        });
        // A row longer than the read buffer grows it.
        let long = AccountedJob {
            name: "x".repeat(200_000),
            ..job(7, "n1", 0, 100, 200, false)
        };
        assert_streams_as_whole(csvio::render_jobs(&[long]).as_bytes());
    }
}

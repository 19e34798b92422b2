//! Property layer for the streaming pipeline: randomized logs (duplicate
//! bursts, exact Δt = 20 s gaps, clock regressions, garbage bytes) are
//! streamed with checkpoint/restore at random cut points and random batch
//! partitions, and must always equal the uncut batch run — with shrinking
//! to a minimal counterexample on failure. Views taken inside a CSV row
//! must equal the batch run over that prefix. Truncated and bit-flipped
//! snapshots must always come back as typed errors, never panics.

use hpclog::{PciAddr, XidEvent};
use propcheck::{run, run_shrinking, shrink_vec, Gen};
use resilience::checkpoint::Checkpoint;
use resilience::csvio::{render_jobs, render_outages};
use resilience::incremental::StreamingPipeline;
use resilience::{report, AccountedJob, OutageRecord, Pipeline, QuarantineReport, StudyReport};
use simtime::{Duration, StudyPeriods, Timestamp};
use xid::XidCode;

const LOG_YEAR: i32 = 2024;

fn base() -> Timestamp {
    StudyPeriods::delta().op.start
}

fn xid_line(t: Timestamp, host: &str, gpu: u8, code: u16) -> Vec<u8> {
    let mut line = XidEvent::new(
        t,
        host,
        PciAddr::for_gpu_index(gpu),
        XidCode::new(code),
        "d",
    )
    .to_log_line()
    .to_string()
    .into_bytes();
    line.push(b'\n');
    line
}

/// Random log lines biased toward the hazards that make streaming hard:
/// duplicate bursts (Δ = 0), exact coalescing-boundary gaps (Δ = 20 s),
/// just-past-boundary gaps (21 s), clock regressions (quarantined as
/// out-of-order) and structurally broken lines.
fn gen_lines(g: &mut Gen) -> Vec<Vec<u8>> {
    let mut t: u64 = 0;
    g.vec_with(1, 60, |g| {
        let roll = g.u64_below(100);
        if roll < 70 {
            t += g.choose(&[0u64, 0, 0, 1, 5, 19, 20, 20, 21, 100]);
            let host = format!("gpub00{}", g.u8_in(1, 3));
            let code = g.choose(&[31u16, 48, 63, 74, 79, 94, 119, 122]);
            xid_line(base() + Duration::from_secs(t), &host, g.u8_in(0, 1), code)
        } else if roll < 80 {
            // A clock regression: the scan must reject it without
            // advancing the order anchor.
            let back = g.u64_in(1, 50).min(t);
            xid_line(base() + Duration::from_secs(t - back), "gpub001", 0, 79)
        } else if roll < 87 {
            b"Mar 1\n".to_vec() // truncated stamp
        } else if roll < 94 {
            b"\xFF\xFE not utf8 at all\n".to_vec()
        } else {
            b"plain noise without structure\n".to_vec()
        }
    })
}

fn concat(lines: &[Vec<u8>]) -> Vec<u8> {
    lines.iter().flatten().copied().collect()
}

fn batch(log: &[u8]) -> (StudyReport, QuarantineReport) {
    Pipeline::delta().run_lenient(log, LOG_YEAR, "", "", "")
}

fn compare(
    what: &str,
    (r, q): (StudyReport, QuarantineReport),
    (br, bq): &(StudyReport, QuarantineReport),
) -> Result<(), String> {
    if r.errors != br.errors {
        return Err(format!("{what}: coalesced errors diverged"));
    }
    if report::full(&r) != report::full(br) {
        return Err(format!("{what}: rendered report diverged"));
    }
    if q.ledger.counts() != bq.ledger.counts() {
        return Err(format!("{what}: ledger counts diverged"));
    }
    if q.ledger.exemplars() != bq.ledger.exemplars() {
        return Err(format!("{what}: reservoir exemplars diverged"));
    }
    if q.caveats != bq.caveats {
        return Err(format!("{what}: caveats diverged"));
    }
    Ok(())
}

/// THE tentpole property: cut the stream at a random byte, checkpoint,
/// serialize, restore, continue — equals the uncut batch run. Cut points
/// land inside duplicate bursts, exactly on Δt = 20 s boundaries, inside
/// partial lines and inside garbage, because the generator emits all of
/// those and the cut is uniform over the bytes.
#[test]
fn checkpointed_run_equals_uncut_run() {
    run_shrinking(
        "checkpointed_run_equals_uncut_run",
        200,
        |g| (gen_lines(g), g.u64()),
        |(lines, cut_seed)| {
            shrink_vec(lines)
                .into_iter()
                .map(|l| (l, *cut_seed))
                .collect()
        },
        |(lines, cut_seed)| {
            let log = concat(lines);
            let cut = (cut_seed % (log.len() as u64 + 1)) as usize;
            let oracle = batch(&log);

            let mut first = StreamingPipeline::new(Pipeline::delta(), LOG_YEAR);
            first.push_log(&log[..cut]);
            let loaded = Checkpoint::from_bytes(first.checkpoint().into_bytes())
                .map_err(|e| format!("own snapshot rejected: {e}"))?;
            let mut resumed = StreamingPipeline::restore(&loaded)
                .map_err(|e| format!("own snapshot failed to restore: {e}"))?;
            if resumed.log_bytes_fed() != cut as u64 {
                return Err(format!(
                    "resume offset {} != cut {cut}",
                    resumed.log_bytes_fed()
                ));
            }
            resumed.push_log(&log[cut..]);
            compare(&format!("cut at byte {cut}"), resumed.finalize(), &oracle)
        },
    );
}

/// Any batch partition — with snapshot/restore cycles sprinkled between
/// chunks — equals the batch run. This is the "any batching, any number
/// of checkpoint cuts" closure of the single-cut property.
#[test]
fn any_partition_with_restarts_equals_batch() {
    run("any_partition_with_restarts_equals_batch", 100, |g| {
        let lines = gen_lines(g);
        let log = concat(&lines);
        let oracle = batch(&log);
        let mut engine = StreamingPipeline::new(Pipeline::delta(), LOG_YEAR);
        let mut pos = 0;
        while pos < log.len() {
            let remaining = log.len() - pos;
            let step = if remaining == 1 {
                1
            } else {
                g.usize_in(1, remaining)
            };
            engine.push_log(&log[pos..pos + step]);
            pos += step;
            if g.bool_with(0.3) {
                let loaded = Checkpoint::from_bytes(engine.checkpoint().into_bytes())
                    .expect("own snapshot reads back");
                engine = StreamingPipeline::restore(&loaded).expect("own snapshot restores");
            }
        }
        if let Err(msg) = compare("partitioned run", engine.finalize(), &oracle) {
            panic!("{msg}");
        }
    });
}

/// Materializing mid-stream is a pure read: the result equals the batch
/// run over the prefix, and the stream continues unperturbed.
#[test]
fn materialize_is_effect_free_at_any_point() {
    run("materialize_is_effect_free_at_any_point", 60, |g| {
        let lines = gen_lines(g);
        let log = concat(&lines);
        let cut = g.usize_in(0, log.len());
        let mut engine = StreamingPipeline::new(Pipeline::delta(), LOG_YEAR);
        engine.push_log(&log[..cut]);
        let (mid_r, mid_q) = engine.materialize_full();
        if let Err(msg) = compare("mid-stream view", (mid_r, mid_q), &batch(&log[..cut])) {
            panic!("{msg}");
        }
        engine.push_log(&log[cut..]);
        if let Err(msg) = compare("continued after view", engine.finalize(), &batch(&log)) {
            panic!("{msg}");
        }
    });
}

/// Job rows around `anchors`, the generated log's errors as `(time,
/// host, GPU index)`: holds that start before or at an error and end at
/// it, inside its 20 s attribution window, just past it or long after;
/// equal starts, a slot listed twice, zero-GPU rows, and malformed and
/// blank rows.
fn gen_job_csv(g: &mut Gen, anchors: &[(Timestamp, String, u8)]) -> String {
    let rows = g.vec_with(0, 30, |g| {
        let roll = g.u64_below(100);
        if roll < 8 {
            return "7,broken,row\n".to_owned();
        }
        if roll < 12 {
            return "\n".to_owned();
        }
        let (at, host, gpu) = if anchors.is_empty() || g.bool_with(0.2) {
            let at = base() + Duration::from_secs(g.u64_below(1500));
            (at, format!("gpub00{}", g.u8_in(1, 4)), g.u8_in(0, 2))
        } else {
            anchors[g.usize_in(0, anchors.len())].clone()
        };
        let start = at - Duration::from_secs(g.choose(&[0u64, 0, 1, 30, 400]));
        let gpus = g.choose(&[0u32, 1, 1, 2, 4, 9, 300]);
        let mut gpu_slots = Vec::new();
        if gpus > 0 || g.bool() {
            gpu_slots.push((host, gpu));
        }
        if g.bool_with(0.3) {
            gpu_slots.push((format!("gpub00{}", g.u8_in(1, 4)), g.u8_in(0, 2)));
        }
        if g.bool_with(0.15) {
            gpu_slots.extend(gpu_slots.first().cloned());
        }
        let job = AccountedJob {
            id: g.u64_below(40),
            name: g.choose(&["train_net", "namd_run", "llm_eval"]).to_owned(),
            submit: start,
            start,
            end: at + Duration::from_secs(g.choose(&[0u64, 5, 20, 21, 300])),
            gpus,
            gpu_slots,
            completed: g.bool(),
        };
        let csv = render_jobs(&[job]);
        csv.split_once('\n')
            .map_or(String::new(), |(_, row)| row.to_owned())
    });
    let header = render_jobs(&[]);
    header + &rows.concat()
}

fn gen_outage_csv(g: &mut Gen) -> String {
    let rows = g.vec_with(0, 6, |g| {
        if g.bool_with(0.2) {
            return "gpub001,not-a-time\n".to_owned();
        }
        let outage = OutageRecord {
            host: format!("gpub00{}", g.u8_in(1, 4)),
            start: base() + Duration::from_secs(g.u64_below(4000)),
            duration: Duration::from_secs(g.u64_in(60, 7200)),
        };
        let csv = render_outages(&[outage]);
        csv.split_once('\n')
            .map_or(String::new(), |(_, row)| row.to_owned())
    });
    render_outages(&[]) + &rows.concat()
}

/// Feeds `bytes` to `push` in random chunks.
fn feed_chunks(g: &mut Gen, bytes: &[u8], mut push: impl FnMut(&[u8])) {
    let mut pos = 0;
    while pos < bytes.len() {
        let step = g.usize_in(1, bytes.len() - pos + 1);
        push(&bytes[pos..pos + step]);
        pos += step;
    }
}

/// [`compare`], plus the report's job and outage fields read directly.
fn compare_records(
    what: &str,
    got: (StudyReport, QuarantineReport),
    want: &(StudyReport, QuarantineReport),
) -> Result<(), String> {
    let (r, br) = (&got.0, &want.0);
    if r.impact != br.impact {
        return Err(format!("{what}: Table II diverged"));
    }
    if r.mix != br.mix {
        return Err(format!("{what}: Table III diverged"));
    }
    if (r.gpu_success, r.cpu_success) != (br.gpu_success, br.cpu_success) {
        return Err(format!("{what}: success rates diverged"));
    }
    if r.op_outages != br.op_outages {
        return Err(format!("{what}: outages diverged"));
    }
    compare(what, got, want)
}

/// A view taken while a CSV feed holds a partial row equals the batch
/// run over that prefix, and the stream then finishes equal to the batch
/// run over everything.
#[test]
fn views_inside_csv_rows_equal_the_batch_prefix() {
    run("views_inside_csv_rows_equal_the_batch_prefix", 120, |g| {
        let log = concat(&gen_lines(g));
        let anchors: Vec<(Timestamp, String, u8)> = batch(&log)
            .0
            .errors
            .iter()
            .filter_map(|e| Some((e.time, e.host.clone(), e.gpu_index()?)))
            .collect();
        let csvs = [
            gen_job_csv(g, &anchors),
            gen_job_csv(g, &anchors),
            gen_outage_csv(g),
        ];
        let mut engine = StreamingPipeline::new(Pipeline::delta(), LOG_YEAR);
        feed_chunks(g, &log, |chunk| engine.push_log(chunk));
        engine.finish_log();
        for (stream, csv) in csvs.iter().enumerate() {
            let text = |bytes: &[u8]| std::str::from_utf8(bytes).expect("ASCII rows").to_owned();
            let push = |engine: &mut StreamingPipeline, chunk: &[u8]| match stream {
                0 => engine.push_gpu_jobs_csv(&text(chunk)),
                1 => engine.push_cpu_jobs_csv(&text(chunk)),
                _ => engine.push_outages_csv(&text(chunk)),
            };
            let cut = g.usize_in(0, csv.len() + 1);
            feed_chunks(g, &csv.as_bytes()[..cut], |chunk| push(&mut engine, chunk));
            let prefix: [&str; 3] = std::array::from_fn(|i| match i.cmp(&stream) {
                std::cmp::Ordering::Less => csvs[i].as_str(),
                std::cmp::Ordering::Equal => &csv[..cut],
                std::cmp::Ordering::Greater => "",
            });
            let [gpu, cpu, outages] = prefix;
            let oracle = Pipeline::delta().run_lenient(log.as_slice(), LOG_YEAR, gpu, cpu, outages);
            let what = format!("view in CSV stream {stream} at byte {cut}");
            if let Err(msg) = compare_records(&what, engine.materialize_full(), &oracle) {
                panic!("{msg}");
            }
            feed_chunks(g, &csv.as_bytes()[cut..], |chunk| push(&mut engine, chunk));
        }
        let oracle =
            Pipeline::delta().run_lenient(log.as_slice(), LOG_YEAR, &csvs[0], &csvs[1], &csvs[2]);
        if let Err(msg) = compare_records("finished after views", engine.finalize(), &oracle) {
            panic!("{msg}");
        }
    });
}

/// Every strict prefix of a snapshot, and every single-byte corruption of
/// one, either fails the container check or restores to a typed error /
/// a structurally valid engine — never a panic. (Panics would escape the
/// harness and fail the test.)
#[test]
fn damaged_snapshots_are_typed_errors_never_panics() {
    run("damaged_snapshots_are_typed_errors_never_panics", 40, |g| {
        let lines = gen_lines(g);
        let log = concat(&lines);
        let cut = g.usize_in(0, log.len());
        let mut engine = StreamingPipeline::new(Pipeline::delta(), LOG_YEAR);
        engine.push_log(&log[..cut]);
        let bytes = engine.checkpoint().into_bytes();

        for _ in 0..8 {
            let prefix = g.usize_in(0, bytes.len() - 1);
            if let Ok(ck) = Checkpoint::from_bytes(bytes[..prefix].to_vec()) {
                assert!(
                    StreamingPipeline::restore(&ck).is_err(),
                    "strict prefix of {prefix} bytes restored successfully"
                );
            }
        }
        for _ in 0..8 {
            let i = g.usize_in(0, bytes.len() - 1);
            let mut corrupt = bytes.clone();
            corrupt[i] ^= g.u8_in(1, 255);
            if let Ok(ck) = Checkpoint::from_bytes(corrupt) {
                // A flip in a free-form counter can decode; the contract
                // is only "no panic, structural damage is typed".
                let _ = StreamingPipeline::restore(&ck);
            }
        }
    });
}

/// An engine fed a generated log cut at a random byte (finished or not),
/// then GPU, CPU and outage exports each cut at a random byte, so every
/// carry may hold a partial line or row.
fn engine_with_exports(g: &mut Gen) -> StreamingPipeline {
    let log = concat(&gen_lines(g));
    let anchors: Vec<(Timestamp, String, u8)> = batch(&log)
        .0
        .errors
        .iter()
        .filter_map(|e| Some((e.time, e.host.clone(), e.gpu_index()?)))
        .collect();
    let mut engine = StreamingPipeline::new(Pipeline::delta(), LOG_YEAR);
    let cut = g.usize_in(0, log.len() + 1);
    feed_chunks(g, &log[..cut], |chunk| engine.push_log(chunk));
    if g.bool() {
        engine.finish_log();
    }
    let csvs = [
        gen_job_csv(g, &anchors),
        gen_job_csv(g, &anchors),
        gen_outage_csv(g),
    ];
    for (stream, csv) in csvs.iter().enumerate() {
        let cut = g.usize_in(0, csv.len() + 1);
        feed_chunks(g, &csv.as_bytes()[..cut], |chunk| {
            let text = std::str::from_utf8(chunk).expect("ASCII rows");
            match stream {
                0 => engine.push_gpu_jobs_csv(text),
                1 => engine.push_cpu_jobs_csv(text),
                _ => engine.push_outages_csv(text),
            }
        });
    }
    engine
}

/// [`damaged_snapshots_are_typed_errors_never_panics`] over snapshots
/// whose job exports hold rows, with a partial row in each CSV carry.
#[test]
fn damaged_snapshots_holding_jobs_are_typed_errors_never_panics() {
    run(
        "damaged_snapshots_holding_jobs_are_typed_errors_never_panics",
        40,
        |g| {
            let bytes = engine_with_exports(g).checkpoint().into_bytes();
            for _ in 0..8 {
                let prefix = g.usize_in(0, bytes.len() - 1);
                if let Ok(ck) = Checkpoint::from_bytes(bytes[..prefix].to_vec()) {
                    assert!(
                        StreamingPipeline::restore(&ck).is_err(),
                        "strict prefix of {prefix} bytes restored successfully"
                    );
                }
            }
            for _ in 0..8 {
                let i = g.usize_in(0, bytes.len() - 1);
                let mut corrupt = bytes.clone();
                corrupt[i] ^= g.u8_in(1, 255);
                if let Ok(ck) = Checkpoint::from_bytes(corrupt) {
                    let _ = StreamingPipeline::restore(&ck);
                }
            }
        },
    );
}

/// A restored engine checkpoints to the very bytes it was restored
/// from: the job indexes, the carries and the rest round-trip exactly.
#[test]
fn restored_snapshots_checkpoint_to_the_same_bytes() {
    run("restored_snapshots_checkpoint_to_the_same_bytes", 80, |g| {
        let ck = engine_with_exports(g).checkpoint();
        let restored = StreamingPipeline::restore(&ck).expect("own snapshot restores");
        assert!(restored.checkpoint() == ck, "re-checkpoint differs");
    });
}

//! The sharding-is-invisible proof: a [`servd::StudyStore`] built with
//! any shard count must be observationally identical to the unsharded
//! store — byte-for-byte, on every endpoint, for clean and corrupted
//! inputs, through both the in-process renderers and a live HTTP
//! server, whose event loops render every cache miss inline.
//!
//! Sharding partitions the host dictionary into contiguous ranges and
//! splits the canonical `(time, host)` row sequence into per-shard
//! subsequences; renders recombine them with a k-way merge on global
//! row ids. If the partition drops a host, duplicates a boundary row,
//! or the merge perturbs row order, one of these legs diverges. The
//! filter oracle here is an independent linear scan (no reference to
//! the store's indexes), pointed deliberately at host-range
//! boundaries: *every* host in the dictionary is queried, so each
//! shard's first and last host is exercised no matter where the
//! balanced partition put the cuts.

use delta_gpu_resilience::corpus;
use delta_gpu_resilience::prelude::*;
use hpclog::{PciAddr, XidEvent};
use servd::testutil::{connect, get_on};
use servd::{ErrorFilter, ServerConfig, StoreHandle, StudyStore};
use std::fmt::Write as _;
use std::sync::Arc;
use xid::{ErrorKind, XidCode};

const SCALE: f64 = 0.02;
const SEED: u64 = 0x5AAD;
const LOG_YEAR: i32 = 2022;

/// The shard counts under test; 1 is the fleet-of-one leg.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

// ---------------------------------------------------------------- dataset

/// One simulated study, optionally chaos-corrupted, run through the
/// lenient pipeline into a report the stores are built from.
fn study(chaos_rate: f64) -> (StudyReport, resilience::QuarantineReport) {
    let c = corpus::build(SCALE, SEED, chaos_rate, true);
    c.pipeline
        .run_lenient(c.log(), LOG_YEAR, c.gpu_csv(), c.cpu_csv(), c.out_csv())
}

/// Every distinct host in the study, sorted — by construction the
/// store's host dictionary, so walking it walks every shard boundary.
fn all_hosts(report: &StudyReport) -> Vec<String> {
    let mut hosts: Vec<String> = report.errors.iter().map(|e| e.host.clone()).collect();
    hosts.sort();
    hosts.dedup();
    hosts
}

/// Independent `/errors` oracle: a brute-force linear scan with
/// `[from, to)` bounds (from inclusive, to exclusive), sharing no code
/// with the store's posting lists, time slices, or merge.
fn brute_force_errors(report: &StudyReport, filter: &ErrorFilter) -> String {
    let mut out = String::from("time,host,pci,xid,kind,merged_lines\n");
    for e in &report.errors {
        if filter.host.as_deref().is_some_and(|h| e.host != h)
            || filter.kind.is_some_and(|k| e.kind != k)
            || filter.from.is_some_and(|t| e.time < t)
            || filter.to.is_some_and(|t| e.time >= t)
        {
            continue;
        }
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
    out
}

/// Every cacheable surface of one store, rendered in-process.
fn all_surfaces(store: &StudyStore) -> Vec<(String, String)> {
    vec![
        ("/tables/1".to_owned(), store.table1().to_owned()),
        ("/tables/2".to_owned(), store.table2().to_owned()),
        ("/tables/3".to_owned(), store.table3().to_owned()),
        ("/fig2".to_owned(), store.fig2().to_owned()),
        (
            "/errors".to_owned(),
            store.errors_csv(&ErrorFilter::default()),
        ),
        ("/mtbe".to_owned(), store.mtbe_csv(None)),
        (
            "/mtbe?xid=119".to_owned(),
            store.mtbe_csv(Some(ErrorKind::GspError)),
        ),
        ("/jobs/impact".to_owned(), store.jobs_impact_csv()),
        ("/availability".to_owned(), store.availability_json()),
    ]
}

// ---------------------------------------------------------------- tests

/// Store-level sweep: shard counts {1,2,4,8} × chaos {0%,5%}, every
/// surface byte-compared against the unsharded baseline, plus the
/// boundary-host filter cross-checks against the brute-force oracle.
#[test]
fn every_shard_count_and_chaos_rate_is_byte_identical_to_unsharded() {
    for chaos_rate in [0.0, 0.05] {
        let (oracle, quarantine) = study(chaos_rate);
        assert!(
            oracle.errors.len() > 100,
            "chaos={chaos_rate}: dataset too small to exercise the merge"
        );
        let hosts = all_hosts(&oracle);
        assert!(hosts.len() >= 4, "need hosts to shard across");
        let baseline = StudyStore::build(oracle.clone(), Some(&quarantine));
        let expected = all_surfaces(&baseline);

        // Representative filters, anchored in the data.
        let probe = &oracle.errors[oracle.errors.len() / 2];
        let from = oracle.errors[oracle.errors.len() / 4].time;
        let to = oracle.errors[3 * oracle.errors.len() / 4].time;
        let filters = vec![
            ErrorFilter::default(),
            ErrorFilter {
                kind: Some(probe.kind),
                ..ErrorFilter::default()
            },
            ErrorFilter {
                from: Some(from),
                to: Some(to),
                ..ErrorFilter::default()
            },
            ErrorFilter {
                host: Some(probe.host.clone()),
                kind: Some(probe.kind),
                from: Some(from),
                to: Some(to),
            },
            ErrorFilter {
                host: Some("nosuchhost".to_owned()),
                ..ErrorFilter::default()
            },
        ];

        for n in SHARD_COUNTS {
            let sharded = StudyStore::build_sharded(oracle.clone(), Some(&quarantine), n);
            assert!(
                (1..=n).contains(&sharded.shard_count()),
                "chaos={chaos_rate} n={n}: got {} shards",
                sharded.shard_count()
            );
            if n == 1 {
                // Fleet-of-one invariant: one shard IS today's store.
                assert_eq!(sharded.shard_count(), 1);
            }
            for (path, want) in &expected {
                let got = match path.as_str() {
                    "/tables/1" => sharded.table1().to_owned(),
                    "/tables/2" => sharded.table2().to_owned(),
                    "/tables/3" => sharded.table3().to_owned(),
                    "/fig2" => sharded.fig2().to_owned(),
                    "/errors" => sharded.errors_csv(&ErrorFilter::default()),
                    "/mtbe" => sharded.mtbe_csv(None),
                    "/mtbe?xid=119" => sharded.mtbe_csv(Some(ErrorKind::GspError)),
                    "/jobs/impact" => sharded.jobs_impact_csv(),
                    "/availability" => sharded.availability_json(),
                    other => unreachable!("unmapped surface {other}"),
                };
                assert_eq!(
                    &got, want,
                    "chaos={chaos_rate} n={n} {path} diverged from unsharded"
                );
            }
            for filter in &filters {
                assert_eq!(
                    sharded.errors_csv(filter),
                    brute_force_errors(&oracle, filter),
                    "chaos={chaos_rate} n={n}: filter {filter:?} diverged from brute force"
                );
            }
            // The boundary sweep: every host in the dictionary — hence
            // the first and last host of every shard range — against
            // the independent scan, alone and time-bounded.
            for host in &hosts {
                let by_host = ErrorFilter {
                    host: Some(host.clone()),
                    ..ErrorFilter::default()
                };
                assert_eq!(
                    sharded.errors_csv(&by_host),
                    brute_force_errors(&oracle, &by_host),
                    "chaos={chaos_rate} n={n}: host {host} diverged"
                );
                let bounded = ErrorFilter {
                    host: Some(host.clone()),
                    from: Some(from),
                    to: Some(to),
                    ..ErrorFilter::default()
                };
                assert_eq!(
                    sharded.errors_csv(&bounded),
                    brute_force_errors(&oracle, &bounded),
                    "chaos={chaos_rate} n={n}: bounded host {host} diverged"
                );
            }
        }
    }
}

/// HTTP leg: the same bytes must come off the wire whatever the shard
/// count — here `/errors` goes through the router's traced render, which
/// scans a multi-shard store shard by shard and merges on the event loop.
#[test]
fn served_bytes_are_identical_across_shard_counts() {
    let (oracle, quarantine) = study(0.0);
    let probe = &oracle.errors[oracle.errors.len() / 2];
    let host = probe.host.clone();
    let xid: XidCode = probe.kind.primary_code();
    let from = oracle.errors[oracle.errors.len() / 4].time;
    let to = oracle.errors[3 * oracle.errors.len() / 4].time;
    let paths: Vec<String> = vec![
        "/errors".to_owned(),
        format!("/errors?host={host}"),
        format!("/errors?xid={xid}"),
        format!(
            "/errors?host={host}&xid={xid}&from={}&to={}",
            from.unix(),
            to.unix()
        ),
        "/errors?host=nosuchhost".to_owned(),
        "/mtbe".to_owned(),
        "/mtbe?xid=119".to_owned(),
        "/tables/1".to_owned(),
        "/tables/2".to_owned(),
        "/tables/3".to_owned(),
        "/fig2".to_owned(),
        "/jobs/impact".to_owned(),
        "/availability".to_owned(),
    ];

    let mut baseline: Option<Vec<(u16, Vec<u8>)>> = None;
    for n in SHARD_COUNTS {
        let store = StudyStore::build_sharded(oracle.clone(), Some(&quarantine), n);
        let handle = Arc::new(StoreHandle::new(store));
        let server = servd::start(
            ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                ..ServerConfig::default()
            },
            Arc::clone(&handle),
        )
        .expect("server starts");
        let mut conn = connect(server.addr());
        let served: Vec<(u16, Vec<u8>)> = paths
            .iter()
            .map(|p| {
                let resp = get_on(&mut conn, p);
                (resp.status, resp.body)
            })
            .collect();
        match &baseline {
            None => baseline = Some(served),
            Some(expect) => {
                for (i, (path, (got, want))) in paths
                    .iter()
                    .zip(served.iter().zip(expect.iter()))
                    .enumerate()
                {
                    assert_eq!(got.0, want.0, "status drift at {path} with {n} shards");
                    assert_eq!(
                        String::from_utf8_lossy(&got.1),
                        String::from_utf8_lossy(&want.1),
                        "served bytes drift at {path} (leg {i}) with {n} shards"
                    );
                }
            }
        }
        server.shutdown();
    }
}

/// Fleet-of-one on the synthetic fixtures too: `build` and
/// `build_sharded(.., 1)` must be the same store observationally,
/// including the snapshot info text the `/snapshot` endpoint serves.
#[test]
fn one_shard_build_is_todays_store() {
    let base = StudyPeriods::delta().op.start;
    let mk = |secs: u64, host: &str, gpu: u8, code: u16| {
        XidEvent::new(
            base + Duration::from_secs(secs),
            host,
            PciAddr::for_gpu_index(gpu),
            XidCode::new(code),
            "",
        )
    };
    let report = Pipeline::delta().run_events(
        vec![
            mk(100, "gpub001", 0, 119),
            mk(5_000, "gpub002", 1, 74),
            mk(60_000, "gpub003", 2, 79),
            mk(90_000, "gpub001", 3, 31),
        ],
        None,
        &[],
        &[],
        &[],
    );
    let plain = StudyStore::build(report.clone(), None);
    let one = StudyStore::build_sharded(report, None, 1);
    assert_eq!(one.shard_count(), 1);
    assert_eq!(plain.error_rows(), one.error_rows());
    assert_eq!(plain.snapshot_info(7), one.snapshot_info(7));
    for ((path_a, a), (path_b, b)) in all_surfaces(&plain).into_iter().zip(all_surfaces(&one)) {
        assert_eq!(path_a, path_b);
        assert_eq!(a, b, "{path_a} differs between build and build_sharded(1)");
    }
}

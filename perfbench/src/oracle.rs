//! The offline oracle every served or printed output is checked against:
//! `resilience::report` over `Pipeline::run_lenient` on the corpus bytes,
//! plus brute-force filters over its error rows.

use crate::corpus::Corpus;
use delta_gpu_resilience::prelude::*;
use resilience::coalesce::CoalescedError;
use servd::{ErrorFilter, StudyStore};

/// Expected outputs for one corpus.
#[derive(Debug)]
pub struct Oracle {
    /// The lenient pipeline's report.
    pub report: StudyReport,
    /// The same report as a single-shard store, for the surfaces the
    /// server pre-renders (`/mtbe`, `/rollup`, `/jobs/impact`, ...).
    pub store: StudyStore,
    /// `delta_cli analyze`'s exact stdout for the corpus files.
    pub analyze_stdout: String,
}

impl Oracle {
    /// Runs the oracle pipeline over `corpus`.
    pub fn build(corpus: &Corpus) -> Oracle {
        let log = corpus.log_bytes();
        let (report, quarantine) = Pipeline::delta().run_lenient(
            log.as_slice(),
            corpus.year,
            &corpus.gpu_csv,
            &corpus.cpu_csv,
            &corpus.outages_csv,
        );
        let analyze_stdout = format!(
            "ingested {} lines over {} days (0 unparseable lines skipped)\n\
             \n=== Table I ===\n{}\n=== Table II ===\n{}\n=== Table III ===\n{}\n\
             === Figure 2 ===\n{}\n=== Findings ===\n{}\n",
            corpus.log_lines,
            corpus.days.len(),
            report::table1(&report),
            report::table2(&report),
            report::table3(&report),
            report::figure2(&report),
            Findings::evaluate(&report),
        );
        let store = StudyStore::build(report.clone(), Some(&quarantine));
        Oracle {
            report,
            store,
            analyze_stdout,
        }
    }

    /// The expected body of a paper surface served by `delta_serve`.
    pub fn surface(&self, path: &str) -> Option<String> {
        let s = &self.store;
        Some(match path {
            "/tables/1" => s.table1().to_owned(),
            "/tables/2" => s.table2().to_owned(),
            "/tables/3" => s.table3().to_owned(),
            "/fig2" => s.fig2().to_owned(),
            _ => return None,
        })
    }

    /// `/errors` by brute force: every oracle row the filter admits, in
    /// report order, rendered in the served CSV layout.
    pub fn errors_csv(&self, filter: &ErrorFilter) -> String {
        let keep = |e: &CoalescedError| {
            filter.host.as_ref().is_none_or(|h| *h == e.host)
                && filter.kind.is_none_or(|k| k == e.kind)
                && filter.from.is_none_or(|f| e.time >= f)
                && filter.to.is_none_or(|t| e.time < t)
        };
        let mut out = String::from("time,host,pci,xid,kind,merged_lines\n");
        for e in self.report.errors.iter().filter(|e| keep(e)) {
            out.push_str(&format!(
                "{},{},{},{},{},{}\n",
                e.time,
                e.host,
                e.pci,
                e.kind.primary_code(),
                e.kind.abbreviation(),
                e.merged_lines
            ));
        }
        out
    }
}

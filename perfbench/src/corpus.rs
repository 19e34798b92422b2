//! The seeded synthetic Delta corpus: per-day syslog files plus the GPU
//! job, CPU job and outage CSV exports, as `delta_cli simulate` writes
//! them, but with the window moved so it straddles Delta's 2022-10-01
//! pre-op/op boundary.
//!
//! `delta_serve` has no `--periods` flag and always applies the Delta
//! calendar, so a plain scaled corpus (which starts 2022-01-01) lies
//! wholly in pre-op and every op-phase surface would be empty.

use delta_gpu_resilience::prelude::*;
use resilience::csvio;
use std::path::{Path, PathBuf};

/// Calendar fraction of the full study the corpus covers.
pub const SCALE: f64 = 0.1;

/// One generated corpus, held in memory.
#[derive(Debug)]
pub struct Corpus {
    /// `(file name, contents)` per day, in date order.
    pub days: Vec<(String, String)>,
    /// GPU job export.
    pub gpu_csv: String,
    /// CPU job export.
    pub cpu_csv: String,
    /// Outage export.
    pub outages_csv: String,
    /// Syslog lines across all days.
    pub log_lines: usize,
    /// The year of every syslog stamp.
    pub year: i32,
}

/// FNV-1a 64 over a sequence of byte strings, each length-prefixed so
/// that moving bytes between parts changes the digest.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for part in parts {
        feed(&(part.len() as u64).to_le_bytes());
        feed(part);
    }
    hash
}

/// The Delta calendar scaled by `scale`, shifted so the pre-op/op
/// boundary falls on 2022-10-01 as in the real study.
fn straddled_periods(scale: f64) -> (StudyPeriods, Duration) {
    let scaled = StudyPeriods::delta_scaled(scale);
    let boundary = StudyPeriods::delta().op.start;
    let shift = boundary - scaled.pre_op.end;
    let periods = StudyPeriods {
        pre_op: Period::new(scaled.pre_op.start + shift, boundary),
        op: Period::new(boundary, scaled.op.end + shift),
    };
    (periods, shift)
}

/// Generates the corpus for `seed` at calendar fraction `scale`.
pub fn generate(scale: f64, seed: u64) -> Corpus {
    let mut config = FaultConfig::delta_scaled(scale);
    let (periods, shift) = straddled_periods(scale);
    config.periods = periods;
    if let Some(storm) = config.storm.as_mut() {
        storm.start = storm.start + shift;
    }
    config.seed = seed;
    let campaign = Campaign::new(config).run();
    let cluster = Cluster::new(campaign.config.spec);
    let mut workload = WorkloadConfig::delta_scaled(scale);
    workload.window = periods.op;
    let outcome =
        Simulation::new(&cluster, workload, seed).run(&campaign.ground_truth, &campaign.holds);

    let mut days = Vec::new();
    for (day, _) in campaign.archive.days() {
        let text = campaign
            .archive
            .render_day(day)
            .expect("Archive::days yields only renderable days");
        let (y, m, d) = Timestamp::from_unix(day * 86_400).ymd();
        days.push((format!("syslog-{y:04}{m:02}{d:02}.log"), text));
    }
    Corpus {
        days,
        gpu_csv: csvio::render_jobs(&bridge::jobs(&outcome.jobs)),
        cpu_csv: csvio::render_jobs(&bridge::jobs(&outcome.cpu_jobs)),
        outages_csv: csvio::render_outages(&bridge::outages(campaign.ledger.outages())),
        log_lines: campaign.archive.line_count(),
        year: periods.pre_op.start.ymd().0,
    }
}

/// Paths of a corpus written to disk.
#[derive(Debug, Clone)]
pub struct CorpusFiles {
    /// Directory of the per-day syslog files.
    pub logs: PathBuf,
    /// GPU job CSV.
    pub gpu: PathBuf,
    /// CPU job CSV.
    pub cpu: PathBuf,
    /// Outage CSV.
    pub outages: PathBuf,
}

impl CorpusFiles {
    /// The input arguments `delta_cli analyze` and `delta_serve` share.
    pub fn args(&self) -> Vec<String> {
        vec![
            self.logs.display().to_string(),
            "--jobs".to_owned(),
            self.gpu.display().to_string(),
            "--cpu-jobs".to_owned(),
            self.cpu.display().to_string(),
            "--outages".to_owned(),
            self.outages.display().to_string(),
        ]
    }
}

impl Corpus {
    /// The concatenated syslog, day files in date order, as `delta_serve`
    /// reads it.
    pub fn log_bytes(&self) -> Vec<u8> {
        let mut log = Vec::with_capacity(self.log_len());
        for (_, text) in &self.days {
            log.extend_from_slice(text.as_bytes());
            if !log.ends_with(b"\n") {
                log.push(b'\n');
            }
        }
        log
    }

    fn log_len(&self) -> usize {
        self.days.iter().map(|(_, t)| t.len() + 1).sum()
    }

    /// Bytes across every file.
    pub fn total_bytes(&self) -> usize {
        self.days.iter().map(|(_, t)| t.len()).sum::<usize>()
            + self.gpu_csv.len()
            + self.cpu_csv.len()
            + self.outages_csv.len()
    }

    /// CSV data rows (header lines excluded) of an export.
    pub fn rows(csv: &str) -> usize {
        csv.lines().count().saturating_sub(1)
    }

    /// Digest over every file name and byte.
    pub fn digest(&self) -> u64 {
        let mut parts: Vec<&[u8]> = Vec::new();
        for (name, text) in &self.days {
            parts.push(name.as_bytes());
            parts.push(text.as_bytes());
        }
        parts.push(self.gpu_csv.as_bytes());
        parts.push(self.cpu_csv.as_bytes());
        parts.push(self.outages_csv.as_bytes());
        digest(parts)
    }

    /// A one-line description: bytes, lines, rows and digest.
    pub fn describe(&self) -> String {
        format!(
            "corpus: {} bytes, {} syslog lines over {} days, {} GPU jobs, {} CPU jobs, {} outages, digest {:016x}",
            self.total_bytes(),
            self.log_lines,
            self.days.len(),
            Self::rows(&self.gpu_csv),
            Self::rows(&self.cpu_csv),
            Self::rows(&self.outages_csv),
            self.digest()
        )
    }

    /// Writes the corpus under `dir` in `delta_cli simulate`'s layout.
    pub fn write(&self, dir: &Path) -> std::io::Result<CorpusFiles> {
        let files = CorpusFiles {
            logs: dir.join("logs"),
            gpu: dir.join("gpu_jobs.csv"),
            cpu: dir.join("cpu_jobs.csv"),
            outages: dir.join("outages.csv"),
        };
        std::fs::create_dir_all(&files.logs)?;
        for (name, text) in &self.days {
            std::fs::write(files.logs.join(name), text)?;
        }
        std::fs::write(&files.gpu, &self.gpu_csv)?;
        std::fs::write(&files.cpu, &self.cpu_csv)?;
        std::fs::write(&files.outages, &self.outages_csv)?;
        Ok(files)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_SCALE: f64 = 0.01;

    #[test]
    fn window_straddles_the_operational_boundary() {
        let (periods, _) = straddled_periods(SCALE);
        let boundary = Timestamp::from_ymd_hms(2022, 10, 1, 0, 0, 0).unwrap();
        assert_eq!(periods.op.start, boundary);
        assert!(periods.pre_op.start < boundary);
        assert_eq!(periods.pre_op.start.ymd().0, periods.op.end.ymd().0);
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        let a = generate(TEST_SCALE, 7);
        let b = generate(TEST_SCALE, 7);
        let c = generate(TEST_SCALE, 8);
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert!(a.log_lines > 0 && Corpus::rows(&a.gpu_csv) > 0);
    }

    #[test]
    fn digest_separates_parts() {
        assert_ne!(digest([&b"ab"[..], b"c"]), digest([&b"a"[..], b"bc"]));
    }
}

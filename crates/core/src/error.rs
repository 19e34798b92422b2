//! The workspace error taxonomy for strict CSV decoding.
//!
//! A caller that decodes the accounting exports with the strict parsers
//! (`delta_cli analyze`) fails fast on the first bad row, but it fails
//! with *structure*: a [`PipelineError`] says which export broke and why,
//! instead of a stringly `Box<dyn Error>` the caller can only print. The
//! lenient paths ([`crate::Pipeline::run_lenient`], the streaming engine)
//! never return these at all — defects land in a quarantine ledger
//! instead.

use crate::csvio::CsvError;
use std::error::Error;
use std::fmt;

/// Which CSV export an error was found in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CsvInput {
    /// The GPU-job accounting export.
    GpuJobs,
    /// The CPU-job accounting export.
    CpuJobs,
    /// The node-outage export.
    Outages,
}

impl fmt::Display for CsvInput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CsvInput::GpuJobs => "gpu-jobs",
            CsvInput::CpuJobs => "cpu-jobs",
            CsvInput::Outages => "outages",
        })
    }
}

/// A failure on a strict ingestion path, tagged with the input it came
/// from.
#[derive(Debug)]
#[non_exhaustive]
pub enum PipelineError {
    /// A CSV export was malformed.
    Csv {
        /// Which export the bad row was in.
        input: CsvInput,
        /// The row-level parse error (carries the line number).
        source: CsvError,
    },
}

impl PipelineError {
    /// Wraps a CSV error with the input it was found in.
    pub fn csv(input: CsvInput, source: CsvError) -> Self {
        PipelineError::Csv { input, source }
    }
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Csv { input, source } => {
                write!(f, "{input} export: {source}")
            }
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Csv { source, .. } => Some(source),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_input() {
        let err = PipelineError::csv(
            CsvInput::Outages,
            crate::csvio::CsvError::new(7, "bad duration"),
        );
        let text = err.to_string();
        assert!(text.contains("outages"), "{text}");
        assert!(text.contains("line 7"), "{text}");
        assert!(err.source().is_some());
    }
}

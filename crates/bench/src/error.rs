//! Typed errors for the bench harness.
//!
//! The harness used to `.expect()` its way through builds and probes; a
//! failure in a long figure sweep then aborted the whole run with a
//! context-free panic. Every fallible step now reports a [`BenchError`]
//! naming what failed, so the `figures` binary can print one actionable
//! line and exit nonzero.

use std::fmt;

use uncat_storage::StorageError;

/// Everything the bench harness can fail on.
#[derive(Debug)]
pub enum BenchError {
    /// An index build, flush, or query failed in the storage layer.
    Storage {
        /// What the harness was doing (e.g. `"build inverted index"`).
        context: &'static str,
        /// The underlying typed failure.
        source: StorageError,
    },
    /// A sweep produced no data points (e.g. calibration found no
    /// queries at the requested selectivity).
    Empty {
        /// The sweep or workload that came up empty.
        what: &'static str,
    },
}

impl BenchError {
    /// Wrap a storage failure with the harness step it happened in.
    pub fn storage(context: &'static str) -> impl FnOnce(StorageError) -> BenchError {
        move |source| BenchError::Storage { context, source }
    }
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Storage { context, source } => write!(f, "{context}: {source}"),
            BenchError::Empty { what } => write!(f, "{what} produced no data points"),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Storage { source, .. } => Some(source),
            BenchError::Empty { .. } => None,
        }
    }
}

/// Shorthand for harness results.
pub type BenchResult<T> = Result<T, BenchError>;

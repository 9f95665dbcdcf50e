//! The repository's benchmark as a library: the binary in `main.rs` is
//! the command line over these modules, and the package test reads the
//! same tables and JSON reader the binary writes with.

pub mod adapter;
pub mod common;
pub mod compare;
pub mod ingest;
pub mod json;
pub mod probes;
pub mod report;
pub mod serve;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workload;

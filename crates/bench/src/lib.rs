//! Figure-regeneration harness for the ICDE'07 evaluation.
//!
//! Every figure of the paper's Section 4 has a function here returning a
//! [`FigureTable`]: the same series the paper plots, measured on this
//! reproduction (disk I/Os per query on the y-axis, query selectivity or
//! the figure's own x-axis on the x-axis).
//!
//! Run them all with `cargo run --release -p uncat-bench --bin figures`,
//! or one at a time (`… --bin figures -- fig6`). Wall-clock is not
//! measured here: that is `benchmark/run.sh`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod figures;
pub mod json;
pub mod measure;
pub mod table;

pub use error::{BenchError, BenchResult};
pub use figures::*;
pub use json::Json;
pub use measure::{avg_petq_io, avg_topk_io, build_inverted, build_pdr, Scale};
pub use table::{FigureTable, Series};

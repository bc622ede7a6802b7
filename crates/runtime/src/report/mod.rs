//! Machine-readable run artifacts.
//!
//! Three layers, one mechanism.  [`json`] is a dependency-free JSON value
//! type with an exact-round-trip writer and parser.  `codec` (crate-private)
//! turns typed values into [`Json`] trees and back: one two-method trait
//! implemented per shape, plus a `record!` table per struct that lists its
//! fields once and yields both directions.  [`export`] is the
//! schema-versioned [`RuntimeReport`](crate::telemetry::RuntimeReport)
//! document format — the tables for every report type; the syndrome-trace
//! format in [`scenario::trace`](crate::scenario::trace) is a second set of
//! tables over the same codec.

pub(crate) mod codec;
pub mod export;
pub mod json;

pub use export::{
    read_report, report_from_json, report_from_str, report_to_json, report_to_string, write_report,
    ExportError, SCHEMA_VERSION,
};
pub use json::{parse, Json, JsonError};

//! Machine-readable run artifacts.
//!
//! [`json`] is a dependency-free JSON value type with an exact-round-trip
//! writer and parser; [`export`] layers the schema-versioned
//! [`RuntimeReport`](crate::telemetry::RuntimeReport) document format on
//! top of it.

pub mod export;
pub mod json;

pub use export::{
    read_report, report_from_json, report_from_str, report_to_json, report_to_string, write_report,
    ExportError, SCHEMA_VERSION,
};
pub use json::{parse, Json, JsonError};

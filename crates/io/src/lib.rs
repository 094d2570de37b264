//! # dj-io — streaming corpus ingest and egress
//!
//! Makes ingest → pipeline → egress one continuous stream:
//!
//! - [`CorpusReader`] glob-expands multi-file JSONL/CSV input and cuts
//!   `shard_size` shard frames off the stream, feeding the executor's
//!   prefetch machinery without ever materializing the corpus — resident
//!   footprint stays bounded by the prefetch window, not the input size.
//! - [`JsonlReader`] / [`CsvReader`] stream one file each; malformed
//!   records are typed `path:line` parse errors, never panics.
//! - [`ShardedWriter`] writes manifest-tracked sharded output (JSONL or
//!   raw `DJSC` frames), each part committed atomically (temp + rename)
//!   and logged so a killed run resumes without rewriting finished parts.
//! - [`EgressManifest`] is the sealed description of an output directory:
//!   per-part sample counts, byte sizes and FNV-1a checksums.
//! - [`ErrorLedger`] routes malformed records and per-sample OP errors
//!   through the `on_error` policy (fail / skip / quarantine), bounded
//!   by an error-ratio budget; quarantined records land in a
//!   checksummed `quarantine-*.jsonl` sidecar next to the manifest.

// Panic-on-error is banned in library code: every unwrap/expect outside
// tests is either restructured away or carries an explicit `#[allow]`
// with its infallibility argument.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod csv;
pub mod glob;
pub mod jsonl;
pub mod policy;
pub mod reader;
pub mod writer;

pub use csv::CsvReader;
pub use glob::expand_glob;
pub use jsonl::JsonlReader;
pub use policy::{
    cleanup_partial_egress, read_quarantine, ErrorLedger, QuarantineEntry, QUARANTINE_FILE,
};
pub use reader::{detect_format, CorpusReader, FileFormat};
pub use writer::{EgressManifest, OutputFormat, PartEntry, ShardedWriter, MANIFEST_FILE};

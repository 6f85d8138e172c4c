//! Lossless, dependency-free JSON for scenario files and sweep reports.
//!
//! The workspace's vendored `serde` is a deliberate no-op (see
//! `vendor/README.md`), so this crate hand-rolls the whole pipeline:
//!
//! * [`parse()`] — a strict JSON parser producing a *spanned* tree: every
//!   value and object key remembers its 1-based `line:col`, so both
//!   syntax errors ([`ParseError`]) and semantic errors ([`SchemaError`])
//!   point at the exact spot in a committed file.
//! * [`write_string`] — the canonical writer. One tree has exactly one
//!   rendering; the sweep runner's "resume is bit-identical to an
//!   uninterrupted run" invariant is asserted as byte-equality of this
//!   output.
//! * [`schema`] — (de)serializers for the scenario vocabulary
//!   ([`mbaa::Scenario`](mbaa::prelude::Scenario), topologies, schedules,
//!   link-fault plans, …). Numbers round-trip losslessly: `u64` seeds must be plain integer literals (never routed
//!   through a lossy `f64`) and `f64`s are written in Rust's shortest
//!   round-trip form.
//! * [`metrics`] — the `mbaa-metrics/1` aggregated-telemetry document and
//!   the kind-tagged event lines of `--events-out` JSONL streams.
//! * [`ScenarioFile`] — the committed `*.scenario.json` document: one
//!   scenario plus seeds, gallery metadata, and at most one sweep axis.
//!
//! ```
//! use mbaa_json::ScenarioFile;
//!
//! let file = ScenarioFile::parse_str(
//!     r#"{
//!       "format": "mbaa-scenario/1",
//!       "name": "quickstart",
//!       "scenario": {"model": "garay", "n": 9, "f": 2},
//!       "seeds": [42]
//!     }"#,
//! )?;
//! assert_eq!(file.scenario.n, 9);
//! # Ok::<(), mbaa_json::JsonError>(())
//! ```
//!
//! Typos fail loudly with a path and position instead of silently
//! defaulting:
//!
//! ```
//! use mbaa_json::{JsonError, ScenarioFile};
//!
//! let err = ScenarioFile::parse_str(
//!     "{\"format\": \"mbaa-scenario/1\", \"name\": \"x\",\n \
//!      \"scenario\": {\"model\": \"garay\", \"n\": 9, \"f\": 2,\n  \
//!      \"epsilonn\": 0.1}, \"seeds\": [1]}",
//! )
//! .unwrap_err();
//! let JsonError::Schema(schema) = err else { panic!() };
//! assert_eq!(schema.path, "scenario.epsilonn");
//! assert_eq!((schema.pos.line, schema.pos.col), (3, 3));
//! ```

pub mod ctx;
pub mod doc;
pub mod error;
pub mod metrics;
pub mod parse;
pub mod schema;
pub mod value;
pub mod write;

pub use ctx::{ChildCtx, Ctx, ObjCtx};
pub use doc::{topology_label, ScenarioFile, SeedSpec, SweepSpec, FORMAT};
pub use error::{JsonError, ParseError, ParseErrorKind, SchemaError};
pub use metrics::{event_from, event_to_json, metrics_from, metrics_to_json, METRICS_FORMAT};
pub use parse::parse;
pub use value::{Json, Key, Node, Pos};
pub use write::{write_line, write_string};

//! `mbaa-analyze` — the workspace determinism & allocation-discipline
//! linter.
//!
//! Every result this reproduction produces rests on one invariant:
//! seed-keyed runs are bit-identical across execution paths and worker
//! counts, and (since PR 5) the steady-state round loop performs zero
//! heap allocations. Both are enforced dynamically by
//! `tests/scenario_api.rs` and `tests/alloc_regression.rs`; this crate
//! enforces them *statically*, at the source level, before a single run
//! executes. It is a hand-rolled lexer (the container is offline, so no
//! `syn`) feeding eight token-level lints:
//!
//! | lint | scope | forbids |
//! |------|-------|---------|
//! | `determinism/hash-collections` | result-affecting crates | `HashMap`/`HashSet` |
//! | `determinism/wall-clock` | everywhere but `crates/bench` | `Instant`/`SystemTime` |
//! | `determinism/ambient-rng` | everywhere | `thread_rng`/`OsRng`/`from_entropy` |
//! | `hot-path/allocation` | `mbaa: alloc-free` regions | `Vec::new`, `vec![]`, `.to_vec()`, `.clone()`, `.collect()`, `format!`, `Box::new`, `String::from`, … |
//! | `hot-path/vec-growth` | `mbaa: alloc-free` regions | `.push()`, `.extend()`, `.resize()`, … — growth that reallocates once the capacity bound breaks |
//! | `determinism/stable-sort` | result-affecting crates | `.sort()`/`.sort_by()` and `partial_cmp(..).unwrap()` |
//! | `determinism/iter-order` | result-affecting crates | `.retain()`/`.dedup()` on data not provably sorted |
//! | `determinism/global-alloc-counter` | files declaring `#[global_allocator]` | `static` atomics outside `thread_local!` |
//!
//! The *result-affecting crates* are `types`, `msr`, `net`, `adversary`,
//! `mixed`, `core`, `sim`, and `facade`. **Bench exemption rule:** the
//! sole crate allowed to read the wall clock is `crates/bench` — its
//! `benches/` targets included, e.g. the `Instant::now()` loop in
//! `crates/bench/benches/engine_batch.rs` — because it measures the
//! engine rather than feeding results; it remains fully subject to the
//! ambient-RNG lint, since even throughput numbers must be reproducible
//! from seeds.
//!
//! # Running the analyzer
//!
//! ```text
//! cargo run -p mbaa-analyze                       # lint the whole workspace
//! cargo run -p mbaa-analyze -- --format json      # machine-readable report (CI)
//! cargo run -p mbaa-analyze -- crates/core        # lint a subtree
//! cargo run -p mbaa-analyze -- --list-lints
//! ```
//!
//! The exit code is 0 when no unsuppressed error-severity diagnostic was
//! found, 1 otherwise, and 2 on usage or I/O errors — the `static-analysis`
//! CI job fails on any unsuppressed diagnostic and uploads the JSON report
//! as an artifact.
//!
//! # Suppressions and markers
//!
//! A finding is waived inline with `mbaa: allow(lint-name, reason)`,
//! placed on the offending line or the line directly above; the reason is
//! mandatory and lands in the JSON report:
//!
//! ```
//! let report = mbaa_analyze::analyze_source(
//!     "crates/sim/src/demo.rs",
//!     r#"
//!     // mbaa: allow(determinism/hash-collections, interned behind a sorted drain)
//!     use std::collections::HashMap;
//!     "#,
//! );
//! assert!(report.diagnostics.is_empty());
//! assert_eq!(report.suppressed.len(), 1);
//! assert_eq!(report.suppressed[0].reason, "interned behind a sorted drain");
//! ```
//!
//! Without the directive the same source fails with a `file:line:col`
//! diagnostic:
//!
//! ```
//! let report = mbaa_analyze::analyze_source(
//!     "crates/sim/src/demo.rs",
//!     "use std::collections::HashMap;",
//! );
//! assert_eq!(report.diagnostics.len(), 1);
//! assert_eq!(report.diagnostics[0].lint, "determinism/hash-collections");
//! assert_eq!((report.diagnostics[0].line, report.diagnostics[0].col), (1, 23));
//! ```
//!
//! Hot regions opt into the allocation lint with an `mbaa: alloc-free`
//! marker covering the next brace block (or, as `//! mbaa: alloc-free`,
//! the whole module):
//!
//! ```
//! let report = mbaa_analyze::analyze_source(
//!     "crates/core/src/demo.rs",
//!     r#"
//!     fn setup() -> Vec<u32> { Vec::new() }   // outside the region: fine
//!     // mbaa: alloc-free
//!     fn hot(xs: &[u32]) -> Vec<u32> { xs.to_vec() }
//!     "#,
//! );
//! assert_eq!(report.diagnostics.len(), 1);
//! assert_eq!(report.diagnostics[0].lint, "hot-path/allocation");
//! ```
//!
//! A malformed directive (unknown lint, missing reason, typo'd marker) is
//! itself an error (`analyzer/bad-directive`): a silently dropped waiver
//! or marker would be worse than none.

pub mod diagnostics;
pub mod directives;
pub mod lexer;
pub mod lints;
pub mod scan;

pub use diagnostics::{Diagnostic, Report, Severity, Suppressed};
pub use scan::{analyze_paths, analyze_source, analyze_workspace, find_workspace_root};

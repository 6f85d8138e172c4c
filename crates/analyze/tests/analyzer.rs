//! End-to-end tests for `mbaa-analyze`: fixtures exercised under virtual
//! paths (so crate scoping is tested without real files), a lint-clean
//! check of the shipped tree, and black-box runs of the compiled binary.
//!
//! Every forbidden name referenced here lives inside a string literal —
//! this file is itself scanned by the workspace walk and must stay clean.

use std::path::{Path, PathBuf};
use std::process::Command;

use mbaa_analyze::{analyze_source, analyze_workspace, Report};

const LEXER_TRICKY: &str = include_str!("fixtures/lexer_tricky.rs");
const HASH_COLLECTIONS: &str = include_str!("fixtures/hash_collections.rs");
const WALL_CLOCK: &str = include_str!("fixtures/wall_clock.rs");
const AMBIENT_RNG: &str = include_str!("fixtures/ambient_rng.rs");
const ALLOC_FREE: &str = include_str!("fixtures/alloc_free.rs");
const ALLOC_FREE_MODULE: &str = include_str!("fixtures/alloc_free_module.rs");
const VEC_GROWTH: &str = include_str!("fixtures/vec_growth.rs");
const STABLE_SORT: &str = include_str!("fixtures/stable_sort.rs");
const ITER_ORDER: &str = include_str!("fixtures/iter_order.rs");
const BAD_DIRECTIVES: &str = include_str!("fixtures/bad_directives.rs");
const GLOBAL_ALLOC_COUNTER: &str = include_str!("fixtures/global_alloc_counter.rs");

/// Analyzes fixture source as if it lived at `virtual_path`.
fn analyze_at(virtual_path: &str, source: &str) -> Report {
    analyze_source(virtual_path, source)
}

fn lints_and_lines(report: &Report) -> Vec<(&'static str, u32)> {
    report
        .diagnostics
        .iter()
        .map(|d| (d.lint, d.line))
        .collect()
}

#[test]
fn lexer_tricky_fixture_is_silent_even_in_result_affecting_scope() {
    let report = analyze_at("crates/msr/src/fixture.rs", LEXER_TRICKY);
    assert!(
        report.diagnostics.is_empty(),
        "needles inside literals/comments must not fire:\n{}",
        report.to_text()
    );
    assert!(report.suppressed.is_empty());
}

#[test]
fn hash_collections_positive_and_suppressed() {
    let report = analyze_at("crates/msr/src/fixture.rs", HASH_COLLECTIONS);
    assert_eq!(
        lints_and_lines(&report),
        vec![("determinism/hash-collections", 3)],
        "{}",
        report.to_text()
    );
    // `use std::collections::HashMap;` — the offending ident starts at col 23.
    assert_eq!(
        (report.diagnostics[0].line, report.diagnostics[0].col),
        (3, 23)
    );
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].lint, "determinism/hash-collections");
    assert_eq!(report.suppressed[0].line, 7);
    assert!(report.suppressed[0].reason.contains("waiver syntax"));
}

#[test]
fn hash_collections_only_fires_in_result_affecting_crates() {
    for path in [
        "crates/bench/src/fixture.rs",
        "crates/analyze/src/fixture.rs",
        "src/fixture.rs",
    ] {
        let report = analyze_at(path, HASH_COLLECTIONS);
        assert!(
            report.diagnostics.is_empty(),
            "{path} should be out of scope"
        );
    }
}

#[test]
fn wall_clock_positive_suppressed_and_bench_exempt() {
    let report = analyze_at("crates/core/src/fixture.rs", WALL_CLOCK);
    assert_eq!(
        lints_and_lines(&report),
        vec![("determinism/wall-clock", 3)]
    );
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].lint, "determinism/wall-clock");

    // The bench crate (including its benches/ targets) is exempt.
    let bench = analyze_at("crates/bench/benches/fixture.rs", WALL_CLOCK);
    assert!(bench.diagnostics.is_empty(), "{}", bench.to_text());
}

#[test]
fn wall_clock_exempts_obs_timing_but_not_the_rest_of_obs() {
    // The observability fence: `crates/obs/src/timing.rs` is the single
    // result-affecting module sanctioned to read the wall clock.
    let timing = analyze_at("crates/obs/src/timing.rs", WALL_CLOCK);
    assert!(timing.diagnostics.is_empty(), "{}", timing.to_text());

    // Everywhere else in crates/obs the lint fires as usual.
    let lib = analyze_at("crates/obs/src/lib.rs", WALL_CLOCK);
    assert_eq!(lints_and_lines(&lib), vec![("determinism/wall-clock", 3)]);
    // And a `timing.rs` outside crates/obs is not exempt.
    let elsewhere = analyze_at("crates/core/src/timing.rs", WALL_CLOCK);
    assert_eq!(
        lints_and_lines(&elsewhere),
        vec![("determinism/wall-clock", 3)]
    );
}

#[test]
fn iter_order_flags_unsorted_retain_and_dedup() {
    let report = analyze_at("crates/msr/src/fixture.rs", ITER_ORDER);
    assert_eq!(
        lints_and_lines(&report),
        vec![
            ("determinism/iter-order", 4),
            ("determinism/iter-order", 8),
            ("determinism/iter-order", 12),
        ],
        "{}",
        report.to_text()
    );
    // The chained-receiver positive explains why it cannot be verified.
    assert!(report.diagnostics[2].message.contains("plain identifier"));
    // `xs.sort_unstable(); xs.dedup();` passes; the waived retain is
    // recorded as suppressed.
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].lint, "determinism/iter-order");
    assert_eq!(report.suppressed[0].line, 23);
}

#[test]
fn iter_order_only_fires_in_result_affecting_crates() {
    for path in [
        "crates/bench/src/fixture.rs",
        "crates/cli/src/fixture.rs",
        "crates/analyze/src/fixture.rs",
        "tests/fixture.rs",
    ] {
        let report = analyze_at(path, ITER_ORDER);
        assert!(
            report.diagnostics.is_empty(),
            "{path} should be out of scope:\n{}",
            report.to_text()
        );
    }
}

#[test]
fn ambient_rng_fires_everywhere_including_bench() {
    for path in [
        "crates/msr/src/fixture.rs",
        "crates/bench/benches/fixture.rs",
        "examples/fixture.rs",
    ] {
        let report = analyze_at(path, AMBIENT_RNG);
        assert_eq!(
            lints_and_lines(&report),
            vec![("determinism/ambient-rng", 4)],
            "{path}:\n{}",
            report.to_text()
        );
        assert_eq!(report.suppressed.len(), 1, "{path}");
        assert_eq!(report.suppressed[0].line, 10);
    }
}

#[test]
fn alloc_free_region_scopes_the_allocation_lint() {
    let report = analyze_at("crates/core/src/fixture.rs", ALLOC_FREE);
    // Only the two allocations inside the marked region fire; the setup fn
    // before it and the fn after it allocate freely.
    assert_eq!(
        lints_and_lines(&report),
        vec![("hot-path/allocation", 12), ("hot-path/allocation", 13)],
        "{}",
        report.to_text()
    );
    // `    let copied = ys.to_vec();` — the method name starts at col 21.
    assert_eq!(
        (report.diagnostics[0].line, report.diagnostics[0].col),
        (12, 21)
    );
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].lint, "hot-path/allocation");
    assert_eq!(report.suppressed[0].line, 15);
}

#[test]
fn vec_growth_fires_only_inside_alloc_free_regions() {
    let report = analyze_at("crates/core/src/fixture.rs", VEC_GROWTH);
    // Only the two growth calls inside the marked region fire; the
    // pre-region setup and post-region fn grow freely, and the BTreeSet
    // insert inside the region is not Vec growth.
    assert_eq!(
        lints_and_lines(&report),
        vec![("hot-path/vec-growth", 13), ("hot-path/vec-growth", 14)],
        "{}",
        report.to_text()
    );
    // `    xs.push(7);` — the method name starts at col 8.
    assert_eq!(
        (report.diagnostics[0].line, report.diagnostics[0].col),
        (13, 8)
    );
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].lint, "hot-path/vec-growth");
    assert_eq!(report.suppressed[0].line, 16);
    assert!(report.suppressed[0].reason.contains("waiver syntax"));
}

#[test]
fn vec_growth_waivers_do_not_leak_across_lints() {
    // An allocation waiver on the line above must not suppress a
    // vec-growth finding on the same call, and vice versa — waivers are
    // matched per lint name.
    let source = concat!(
        "// mbaa: alloc-free\n",
        "fn hot(xs: &mut Vec<u64>, ys: &[u64]) {\n",
        "    // mbaa: allow(hot-path/allocation, wrong lint on purpose)\n",
        "    xs.extend(ys.iter().copied());\n",
        "}\n",
    );
    let report = analyze_at("crates/core/src/fixture.rs", source);
    assert_eq!(
        lints_and_lines(&report),
        vec![("hot-path/vec-growth", 4)],
        "{}",
        report.to_text()
    );
    assert!(report.suppressed.is_empty());
}

#[test]
fn module_level_alloc_free_marker_covers_the_whole_file() {
    let report = analyze_at("crates/analyze/src/fixture.rs", ALLOC_FREE_MODULE);
    assert_eq!(
        lints_and_lines(&report),
        vec![
            ("hot-path/allocation", 5),
            ("hot-path/allocation", 6),
            ("hot-path/vec-growth", 7),
        ],
        "{}",
        report.to_text()
    );
}

#[test]
fn stable_sort_positives_and_suppressed() {
    let report = analyze_at("crates/sim/src/fixture.rs", STABLE_SORT);
    // Line 4: stable sort(). Line 5: stable sort_by() AND the
    // partial_cmp(..).unwrap() comparator — two findings on one line.
    assert_eq!(
        lints_and_lines(&report),
        vec![
            ("determinism/stable-sort", 4),
            ("determinism/stable-sort", 5),
            ("determinism/stable-sort", 5),
        ],
        "{}",
        report.to_text()
    );
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].line, 11);

    let bench = analyze_at("crates/bench/src/fixture.rs", STABLE_SORT);
    assert!(bench.diagnostics.is_empty());
}

#[test]
fn global_alloc_counter_fires_only_beside_a_global_allocator() {
    // Test binaries live outside the result-affecting crates; the lint
    // applies everywhere.
    let report = analyze_at("tests/fixture.rs", GLOBAL_ALLOC_COUNTER);
    assert_eq!(
        lints_and_lines(&report),
        vec![("determinism/global-alloc-counter", 7)],
        "{}",
        report.to_text()
    );
    // Without the allocator declaration an atomic static is just a static.
    let plain = GLOBAL_ALLOC_COUNTER.replace("#[global_allocator]", "");
    let report = analyze_at("tests/fixture.rs", &plain);
    assert!(report.diagnostics.is_empty(), "{}", report.to_text());
}

#[test]
fn malformed_directives_are_errors_in_any_scope() {
    let report = analyze_at("crates/bench/src/fixture.rs", BAD_DIRECTIVES);
    assert_eq!(
        lints_and_lines(&report),
        vec![
            ("analyzer/bad-directive", 3),
            ("analyzer/bad-directive", 6),
            ("analyzer/bad-directive", 9),
        ],
        "{}",
        report.to_text()
    );
}

#[test]
fn json_report_carries_the_finding() {
    let report = analyze_at("crates/msr/src/fixture.rs", HASH_COLLECTIONS);
    let json = report.to_json();
    assert!(json.contains("\"version\": 1"));
    assert!(json.contains("determinism/hash-collections"));
    assert!(json.contains("crates/msr/src/fixture.rs"));
    assert!(json.contains("\"line\": 3"));
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn shipped_tree_is_lint_clean() {
    let report = analyze_workspace(&repo_root()).expect("workspace scan succeeds");
    assert!(
        report.files_scanned > 50,
        "expected a real scan, got {}",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "the shipped tree must carry no unsuppressed diagnostics:\n{}",
        report.to_text()
    );
}

/// Seeds one deliberate violation of each lint into a throwaway tree laid
/// out like a result-affecting crate, then checks the binary exits non-zero
/// with `file:line:col` diagnostics for all of them.
#[test]
fn binary_fails_on_seeded_violations_of_every_lint() {
    let dir = temp_tree("seeded");
    let bad = dir.join("crates/msr/src");
    std::fs::create_dir_all(&bad).expect("mkdirs");
    let source = concat!(
        "use std::collections::HashMap;\n",
        "use std::time::Instant;\n",
        "fn rng() { let _ = thread_rng(); }\n",
        "fn s(xs: &mut Vec<u64>) { xs.sort(); }\n",
        "// mbaa: alloc-free\n",
        "fn hot(xs: &[u64]) -> Vec<u64> { xs.to_vec() }\n",
        "// mbaa: alloc-free\n",
        "fn grow(xs: &mut Vec<u64>) { xs.push(1); }\n",
        "#[global_allocator]\n",
        "static COUNT: AtomicU64 = AtomicU64::new(0);\n",
    );
    std::fs::write(bad.join("bad.rs"), source).expect("write fixture");

    let out = run_binary(&[dir.to_str().expect("utf8 path")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    for lint in [
        "determinism/hash-collections",
        "determinism/wall-clock",
        "determinism/ambient-rng",
        "determinism/stable-sort",
        "hot-path/allocation",
        "hot-path/vec-growth",
        "determinism/global-alloc-counter",
    ] {
        assert!(stdout.contains(lint), "missing {lint} in:\n{stdout}");
    }
    // file:line:col anchors — one spot check per shape.
    assert!(
        stdout.contains("bad.rs:1:23"),
        "hash-collections anchor:\n{stdout}"
    );
    assert!(
        stdout.contains("bad.rs:6:37"),
        "allocation anchor:\n{stdout}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn binary_exits_zero_and_emits_json_on_a_clean_tree() {
    let dir = temp_tree("clean");
    let src = dir.join("crates/msr/src");
    std::fs::create_dir_all(&src).expect("mkdirs");
    std::fs::write(
        src.join("ok.rs"),
        "fn ok(xs: &mut Vec<u64>) { xs.sort_unstable(); }\n",
    )
    .expect("write fixture");

    let out = run_binary(&["--format", "json", dir.to_str().expect("utf8 path")]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(stdout.contains("\"version\": 1"));
    assert!(stdout.contains("\"errors\": 0"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn binary_rejects_unknown_flags() {
    let out = run_binary(&["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
}

fn run_binary(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mbaa-analyze"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("binary runs")
}

/// A unique throwaway directory; path includes `crates/msr/` segments so the
/// analyzer's substring scoping treats seeded files as result-affecting.
fn temp_tree(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mbaa_analyze_{}_{}", tag, std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir temp tree");
    dir
}

//! Black-box tests for the `mbaa` binary: exit codes, validate/explain/
//! gallery output, and the load-bearing guarantee of the checkpoint
//! subsystem — a killed sweep, resumed and merged, produces a report
//! byte-identical to an uninterrupted `run --out`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

const BIN: &str = env!("CARGO_BIN_EXE_mbaa");

/// A fresh scratch directory per call (no tempdir crate in the
/// workspace; cleaned up best-effort by the caller where it matters).
fn scratch(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mbaa-cli-test-{}-{tag}-{id}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn mbaa(args: &[&str], cwd: &Path) -> Output {
    Command::new(BIN)
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn mbaa")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

/// A small but non-trivial document: a 2-point `n` sweep over 6 seeds
/// (12 runs), cheap enough to execute several times per test run.
const SWEEP_DOC: &str = r#"{
  "format": "mbaa-scenario/1",
  "name": "ckpt-test",
  "scenario": {"model": "garay", "n": 9, "f": 2, "max_rounds": 50},
  "seeds": {"start": 0, "count": 6},
  "sweep": {"n": {"extra": 1}}
}"#;

// ---------------------------------------------------------------------------
// Exit codes and usage.
// ---------------------------------------------------------------------------

#[test]
fn unknown_command_is_a_usage_error() {
    let dir = scratch("usage");
    let out = mbaa(&["frobnicate"], &dir);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn unknown_flag_is_a_usage_error() {
    let dir = scratch("flag");
    let out = mbaa(&["run", "--frobnicate"], &dir);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown flag --frobnicate"));
}

#[test]
fn help_prints_usage_and_succeeds() {
    let dir = scratch("help");
    for invocation in [&["help"][..], &["--help"][..]] {
        let out = mbaa(invocation, &dir);
        assert_eq!(out.status.code(), Some(0));
        let text = stdout(&out);
        for command in [
            "run", "sweep", "resume", "merge", "validate", "explain", "gallery",
        ] {
            assert!(text.contains(command), "usage is missing {command:?}");
        }
    }
}

#[test]
fn missing_file_is_a_failure_not_a_usage_error() {
    let dir = scratch("missing");
    let out = mbaa(&["run", "no-such-file.scenario.json"], &dir);
    assert_eq!(out.status.code(), Some(1));
}

// ---------------------------------------------------------------------------
// validate / explain / gallery.
// ---------------------------------------------------------------------------

#[test]
fn validate_reports_line_col_and_counts_failures() {
    let dir = scratch("validate");
    let good = dir.join("good.scenario.json");
    let bad = dir.join("bad.scenario.json");
    fs::write(&good, SWEEP_DOC).unwrap();
    // An unknown field, anchored at its key on line 4.
    fs::write(
        &bad,
        "{\n  \"format\": \"mbaa-scenario/1\",\n  \"name\": \"bad\",\n  \"bogus\": 1,\n  \
         \"scenario\": {\"model\": \"garay\", \"n\": 9, \"f\": 2},\n  \"seeds\": [0]\n}",
    )
    .unwrap();

    let ok = mbaa(&["validate", good.to_str().unwrap()], &dir);
    assert_eq!(ok.status.code(), Some(0));
    assert!(stdout(&ok).contains("ok (ckpt-test, 2 point(s), 6 seed(s))"));

    let mixed = mbaa(
        &["validate", good.to_str().unwrap(), bad.to_str().unwrap()],
        &dir,
    );
    assert_eq!(mixed.status.code(), Some(1));
    let err = stderr(&mixed);
    assert!(
        err.contains("4:3: bogus: unknown field \"bogus\""),
        "missing line:col anchor: {err}"
    );
    assert!(err.contains("1 of 2 file(s) failed validation"));
}

#[test]
fn fixed_workload_of_the_wrong_length_fails_cleanly() {
    // The committed robot-gathering file holds 10 fixed positions; at
    // n = 11 it still parses, but `validate` names the point and `run`
    // fails it with a typed error instead of panicking.
    let dir = scratch("fixed-arity");
    let committed =
        fs::read_to_string(repo_root().join("scenarios/robot-gathering.scenario.json")).unwrap();
    let edited = committed.replacen("\"n\": 10,", "\"n\": 11,", 1);
    assert_ne!(
        edited, committed,
        "the committed file no longer sets n = 10"
    );
    let file = dir.join("robots11.scenario.json");
    fs::write(&file, edited).unwrap();

    let validated = mbaa(&["validate", file.to_str().unwrap()], &dir);
    assert_eq!(validated.status.code(), Some(1));
    let err = stderr(&validated);
    assert!(
        err.contains("point 'robot-gathering': fixed workload holds 10 values for n = 11"),
        "validate did not name the point: {err}"
    );

    let ran = mbaa(&["run", file.to_str().unwrap()], &dir);
    assert_eq!(ran.status.code(), Some(1), "stderr: {}", stderr(&ran));
    assert!(
        stderr(&ran).contains("expected 11 initial values (one per process), got 10"),
        "run did not report the typed error: {}",
        stderr(&ran)
    );

    // In an n sweep only the mismatching point is named.
    let sweep = dir.join("sweep.scenario.json");
    fs::write(
        &sweep,
        r#"{
  "format": "mbaa-scenario/1",
  "name": "fixed-sweep",
  "scenario": {"model": "garay", "n": 9, "f": 2, "max_rounds": 50,
               "workload": {"fixed": {"values": [0, 1, 2, 3, 4, 5, 6, 7, 8]}}},
  "seeds": [0],
  "sweep": {"n": {"extra": 1}}
}"#,
    )
    .unwrap();
    let validated = mbaa(&["validate", sweep.to_str().unwrap()], &dir);
    assert_eq!(validated.status.code(), Some(1));
    assert!(
        stderr(&validated).contains("point 'n=10': fixed workload holds 9 values for n = 10"),
        "validate did not name the sweep point: {}",
        stderr(&validated)
    );
}

/// A one-point, one-seed document around a `scenario` object.
fn single_point_doc(scenario: &str) -> String {
    format!(
        r#"{{"format": "mbaa-scenario/1", "name": "edge", "scenario": {scenario}, "seeds": [0]}}"#
    )
}

#[test]
fn agents_on_every_process_fail_the_run_cleanly() {
    // The document is schema-valid; `run` reports the typed parameter
    // error instead of panicking on an empty correct set.
    let dir = scratch("all-faulty");
    for (model, n) in [("garay", 9), ("buhrman", 1)] {
        let file = dir.join(format!("{model}.scenario.json"));
        let scenario =
            format!(r#"{{"model": "{model}", "n": {n}, "f": {n}, "allow_bound_violation": true}}"#);
        fs::write(&file, single_point_doc(&scenario)).unwrap();
        let ran = mbaa(&["run", file.to_str().unwrap()], &dir);
        assert_eq!(ran.status.code(), Some(1), "stderr: {}", stderr(&ran));
        assert!(
            stderr(&ran).contains(&format!(
                "invalid parameter: f={n} agents must leave at least one of the n={n} processes \
                 non-faulty"
            )),
            "{model}: {}",
            stderr(&ran)
        );
    }
}

#[test]
fn inverted_parameter_ranges_fail_validation_naming_the_field() {
    let dir = scratch("ranges");
    let cases = [
        (
            r#""corruption": {"random-noise": {"lo": 5, "hi": -5}}"#,
            "scenario.corruption.random-noise.hi: range [5.0, -5.0] needs lo <= hi",
        ),
        (
            r#""corruption": {"random-noise": {"lo": -1e308, "hi": 1e308}}"#,
            "scenario.corruption.random-noise.hi: range [-1e308, 1e308] needs lo <= hi and a \
             finite width",
        ),
        (
            r#""workload": {"uniform-spread": {"lo": 5, "hi": -5}}"#,
            "scenario.workload.uniform-spread.hi: range [5.0, -5.0] needs lo <= hi",
        ),
        (
            r#""workload": {"random-uniform": {"lo": 5, "hi": -5}}"#,
            "scenario.workload.random-uniform.hi: range [5.0, -5.0] needs lo <= hi",
        ),
        (
            r#""workload": {"clustered": {"centers": [0, 1], "jitter": -1}}"#,
            "scenario.workload.clustered.jitter: jitter must be >= 0",
        ),
        (
            r#""workload": {"clustered": {"centers": [], "jitter": 1}}"#,
            "scenario.workload.clustered.centers: a clustered workload needs at least one centre",
        ),
    ];
    for (i, (knob, expected)) in cases.into_iter().enumerate() {
        let file = dir.join(format!("case{i}.scenario.json"));
        let scenario = format!(r#"{{"model": "garay", "n": 9, "f": 2, {knob}}}"#);
        fs::write(&file, single_point_doc(&scenario)).unwrap();
        for command in ["validate", "run"] {
            let out = mbaa(&[command, file.to_str().unwrap()], &dir);
            assert_eq!(
                out.status.code(),
                Some(1),
                "{command} {knob}: {}",
                stderr(&out)
            );
            assert!(
                stderr(&out).contains(expected),
                "{command} {knob}: {}",
                stderr(&out)
            );
        }
    }
}

#[test]
fn overflowing_workloads_fail_validation_naming_the_field() {
    // Each workload is finite value by value but spans a range wider than
    // an f64 can hold; `run` used to panic on it after `validate` passed.
    let dir = scratch("overflow");
    let cases = [
        (
            r#""n": 3, "f": 0, "workload": {"fixed": {"values": [1.7e308, -1.7e308, 0]}}"#,
            "scenario.workload.fixed.values: fixed values' span [-1.7e308, 1.7e308] needs lo \
             <= hi and a finite width",
        ),
        (
            r#""n": 9, "f": 2, "workload": {"clustered": {"centers": [0], "jitter": 1e308}}"#,
            "scenario.workload.clustered.jitter: clustered range (centres ± jitter) [-1e308, \
             1e308] needs lo <= hi and a finite width",
        ),
        (
            r#""n": 9, "f": 2, "workload": {"clustered": {"centers": [-9e307, 9e307], "jitter": 0}}"#,
            "scenario.workload.clustered.jitter: clustered range (centres ± jitter) [-9e307, \
             9e307] needs lo <= hi and a finite width",
        ),
    ];
    for (i, (knobs, expected)) in cases.into_iter().enumerate() {
        let file = dir.join(format!("case{i}.scenario.json"));
        let scenario = format!(r#"{{"model": "garay", {knobs}}}"#);
        fs::write(&file, single_point_doc(&scenario)).unwrap();
        for command in ["validate", "run"] {
            let out = mbaa(&[command, file.to_str().unwrap()], &dir);
            assert_eq!(
                out.status.code(),
                Some(1),
                "{command} {knobs}: {}",
                stderr(&out)
            );
            assert!(
                stderr(&out).contains(expected),
                "{command} {knobs}: {}",
                stderr(&out)
            );
        }
    }
}

#[test]
fn values_near_the_float_limit_run_cleanly() {
    // Every value here is finite and every range has a finite width, but
    // `hi - lo` times a process index, or a magnitude added to the correct
    // range, overflows an f64: the run must keep its values finite.
    let dir = scratch("float-limit");
    let wide = r#""workload": {"uniform-spread": {"lo": -1e307, "hi": 1e307}}"#;
    let cases = [
        r#""workload": {"uniform-spread": {"lo": 0, "hi": 1e308}}"#.to_string(),
        format!(r#"{wide}, "corruption": {{"out-of-range": {{"magnitude": 1.7e308}}}}"#),
        format!(r#"{wide}, "corruption": {{"split": {{"magnitude": 1.7e308}}}}"#),
    ];
    for (i, knobs) in cases.iter().enumerate() {
        let file = dir.join(format!("case{i}.scenario.json"));
        let scenario = format!(r#"{{"model": "garay", "n": 9, "f": 2, {knobs}}}"#);
        fs::write(&file, single_point_doc(&scenario)).unwrap();
        for command in ["validate", "run"] {
            let out = mbaa(&[command, file.to_str().unwrap()], &dir);
            assert_eq!(
                out.status.code(),
                Some(0),
                "{command} {knobs}: {}",
                stderr(&out)
            );
        }
    }
}

#[test]
fn seed_ranges_are_counted_without_expanding_them() {
    // Validating or explaining a range must not materialize its seeds; a
    // range larger than any seed vector can hold is a schema error at the
    // count.
    let dir = scratch("seed-range");
    let cases = [
        ("100000000000", 0, "100000000000"),
        (
            "4611686018427387904",
            1,
            "schema error at 1:127: seeds.count: 4611686018427387904 seeds exceed the largest range",
        ),
    ];
    for (i, (count, code, expected)) in cases.into_iter().enumerate() {
        let file = dir.join(format!("case{i}.scenario.json"));
        let doc = format!(
            r#"{{"format": "mbaa-scenario/1", "name": "range", "scenario": {{"model": "garay", "n": 9, "f": 2}}, "seeds": {{"start": 0, "count": {count}}}}}"#
        );
        fs::write(&file, doc).unwrap();
        for command in ["validate", "explain"] {
            let out = mbaa(&[command, file.to_str().unwrap()], &dir);
            assert_eq!(
                out.status.code(),
                Some(code),
                "{command} {count}: {}",
                stderr(&out)
            );
            let text = if code == 0 {
                stdout(&out)
            } else {
                stderr(&out)
            };
            assert!(text.contains(expected), "{command} {count}: {text}");
        }
    }
}

#[test]
fn explain_shows_bound_and_points() {
    let dir = scratch("explain");
    let file = dir.join("sweep.scenario.json");
    fs::write(&file, SWEEP_DOC).unwrap();
    let out = mbaa(&["explain", file.to_str().unwrap()], &dir);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    assert!(text.contains("bound needs n \u{2265} 9, satisfied"));
    assert!(text.contains("points:      2"));
    assert!(text.contains("- n=9:"));
    assert!(text.contains("- n=10:"));
}

#[test]
fn gallery_lists_committed_scenarios() {
    let root = repo_root();
    let out = mbaa(&["gallery", "scenarios"], &root);
    assert_eq!(out.status.code(), Some(0));
    let text = stdout(&out);
    for name in ["quickstart", "table2-thresholds", "paper-report-f2"] {
        assert!(text.contains(name), "gallery is missing {name:?}");
    }
    assert!(text.contains("run with: mbaa run"));
}

#[test]
fn gallery_run_executes_and_writes_reports_identical_to_run() {
    // `gallery --run` must share `run`'s execution path exactly: the
    // report it writes for a scenario is byte-identical to `mbaa run
    // --out` over the same (smoke-trimmed) file.
    let dir = scratch("gallery_run");
    let file = dir.join("sweep.scenario.json");
    fs::write(&file, SWEEP_DOC).unwrap();
    let reports = dir.join("reports");
    let out = mbaa(
        &[
            "gallery",
            dir.to_str().unwrap(),
            "--run",
            "--smoke",
            "--workers",
            "2",
            "--out",
            reports.to_str().unwrap(),
        ],
        &dir,
    );
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("mean rounds"), "point table missing:\n{text}");

    let direct = dir.join("direct.json");
    let run = mbaa(
        &[
            "run",
            file.to_str().unwrap(),
            "--smoke",
            "--out",
            direct.to_str().unwrap(),
        ],
        &dir,
    );
    assert_eq!(run.status.code(), Some(0), "stderr: {}", stderr(&run));
    let written: Vec<_> = fs::read_dir(&reports)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(written.len(), 1, "one report per scenario: {written:?}");
    assert_eq!(
        fs::read_to_string(&written[0]).unwrap(),
        fs::read_to_string(&direct).unwrap(),
        "gallery --run report must be byte-identical to mbaa run --out"
    );
}

#[test]
fn gallery_rejects_run_flags_without_run() {
    let root = repo_root();
    let cases: &[&[&str]] = &[
        &["--smoke"],
        &["--workers", "2"],
        &["--out", "reports"],
        &["--metrics-out", "metrics.json"],
        &["--progress"],
    ];
    for flags in cases {
        let mut args = vec!["gallery", "scenarios"];
        args.extend_from_slice(flags);
        let out = mbaa(&args, &root);
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        assert!(
            stderr(&out).contains("--run"),
            "{flags:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn commands_reject_flags_they_do_not_take() {
    // Every command takes exactly the flags its usage block lists. Any
    // other flag is a usage error naming the flag and the command, raised
    // before anything runs or is written.
    let root = repo_root();
    let dir = scratch("flags");
    let quickstart = root.join("scenarios/quickstart.scenario.json");
    let quickstart = quickstart.to_str().unwrap();
    let gallery = root.join("scenarios");
    let gallery = gallery.to_str().unwrap();
    let ckpt = dir.join("ckpt");
    let ckpt = ckpt.to_str().unwrap();
    let cases: &[(&[&str], &str)] = &[
        (
            &["run", quickstart, "--chunks", "0..1", "--checkpoint", ckpt],
            "run does not take --chunks",
        ),
        (&["run", quickstart, "--run"], "run does not take --run"),
        (
            &["run", "--frobnicate"],
            "unknown flag --frobnicate for run",
        ),
        (
            &["sweep", quickstart, "--checkpoint", ckpt, "--out", "r.json"],
            "sweep does not take --out",
        ),
        (
            &["resume", ckpt, "--chunks", "0..1"],
            "resume does not take --chunks",
        ),
        (
            &["merge", ckpt, "--workers", "2"],
            "merge does not take --workers",
        ),
        (
            &["report", "m.json", "--metrics-out", "x.json"],
            "report does not take --metrics-out",
        ),
        (
            &["validate", quickstart, "--smoke"],
            "validate does not take --smoke",
        ),
        (
            &["explain", quickstart, "--out", "x"],
            "explain does not take --out",
        ),
        (
            &["gallery", gallery, "--events-out", "e.jsonl"],
            "gallery does not take --events-out",
        ),
        (
            &["gallery", gallery, "--profile"],
            "gallery does not take --profile",
        ),
    ];
    for (args, expected) in cases {
        let out = mbaa(args, &dir);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(expected), "{args:?}: {err}");
    }
    assert_eq!(
        fs::read_dir(&dir).unwrap().count(),
        0,
        "a rejected invocation wrote a file"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_seeds_run_every_point_once_per_distinct_seed() {
    // `run` executes the normalized (sorted, deduplicated) seed batch at
    // every point; a duplicate must not shift runs onto the next point.
    let dir = scratch("dup-seeds");
    let file = dir.join("dup.scenario.json");
    let doc = SWEEP_DOC.replace(r#"{"start": 0, "count": 6}"#, "[1, 0, 1]");
    assert_ne!(doc, SWEEP_DOC);
    fs::write(&file, doc).unwrap();
    let out = mbaa(&["run", file.to_str().unwrap()], &dir);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    let runs: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("n="))
        .map(|l| l.split_whitespace().nth(1).unwrap())
        .collect();
    assert_eq!(runs, ["2", "2"], "per-point run counts:\n{text}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn committed_gallery_runs_in_smoke_mode() {
    // Every committed scenario must stay executable; the cheapest one
    // proves the plumbing here, CI runs the full set.
    let root = repo_root();
    let out = mbaa(
        &[
            "run",
            "scenarios/quickstart.scenario.json",
            "--smoke",
            "--workers",
            "2",
        ],
        &root,
    );
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("quickstart"));
    assert!(text.contains('2'), "smoke mode should run 2 seeds");
}

// ---------------------------------------------------------------------------
// The checkpoint guarantee: kill, resume, merge == uninterrupted run.
// ---------------------------------------------------------------------------

#[test]
fn killed_sweep_resumes_to_a_byte_identical_report() {
    let dir = scratch("resume");
    let file = dir.join("sweep.scenario.json");
    fs::write(&file, SWEEP_DOC).unwrap();
    let ckpt = dir.join("ckpt");
    let direct = dir.join("direct.json");
    let merged = dir.join("merged.json");

    // The uninterrupted reference run.
    let run = mbaa(
        &[
            "run",
            file.to_str().unwrap(),
            "--out",
            direct.to_str().unwrap(),
        ],
        &dir,
    );
    assert_eq!(run.status.code(), Some(0), "stderr: {}", stderr(&run));

    // "Kill" a sweep partway: execute only chunk 0 of 3 (12 runs at
    // chunk size 5), single-threaded.
    let partial = mbaa(
        &[
            "sweep",
            file.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--chunk-size",
            "5",
            "--chunks",
            "0..1",
            "--workers",
            "1",
        ],
        &dir,
    );
    assert_eq!(
        partial.status.code(),
        Some(0),
        "stderr: {}",
        stderr(&partial)
    );
    assert!(ckpt.join("chunk-00000.json").exists());
    assert!(!ckpt.join("chunk-00001.json").exists());

    // Merging an incomplete checkpoint must fail loudly and name the
    // first missing chunk, never emit a partial report.
    let premature = mbaa(&["merge", ckpt.to_str().unwrap()], &dir);
    assert_eq!(premature.status.code(), Some(1));
    let err = stderr(&premature);
    assert!(
        err.contains("chunk-00001.json"),
        "unhelpful merge error: {err}"
    );
    assert!(err.contains("mbaa resume"));

    // Resume from the directory alone, with a different worker count
    // than the reference run — results must not care.
    let resume = mbaa(&["resume", ckpt.to_str().unwrap(), "--workers", "3"], &dir);
    assert_eq!(resume.status.code(), Some(0), "stderr: {}", stderr(&resume));
    let text = stdout(&resume);
    assert!(text.contains("2 chunk(s) executed, 1 already complete"));

    // A second resume is a no-op.
    let again = mbaa(&["resume", ckpt.to_str().unwrap()], &dir);
    assert_eq!(again.status.code(), Some(0));
    assert!(stdout(&again).contains("0 chunk(s) executed, 3 already complete"));

    let merge = mbaa(
        &[
            "merge",
            ckpt.to_str().unwrap(),
            "--out",
            merged.to_str().unwrap(),
        ],
        &dir,
    );
    assert_eq!(merge.status.code(), Some(0), "stderr: {}", stderr(&merge));

    let direct_bytes = fs::read(&direct).unwrap();
    let merged_bytes = fs::read(&merged).unwrap();
    assert!(!direct_bytes.is_empty(), "reference report is empty");
    assert_eq!(
        direct_bytes, merged_bytes,
        "merged report differs from the uninterrupted run"
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn tampered_chunk_is_a_hard_error() {
    let dir = scratch("tamper");
    let file = dir.join("sweep.scenario.json");
    fs::write(&file, SWEEP_DOC).unwrap();
    let ckpt = dir.join("ckpt");

    let sweep = mbaa(
        &[
            "sweep",
            file.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--chunk-size",
            "5",
        ],
        &dir,
    );
    assert_eq!(sweep.status.code(), Some(0), "stderr: {}", stderr(&sweep));

    // Atomic writes mean a kill cannot produce a torn chunk, so a chunk
    // that exists but does not validate is tampering — both resume and
    // merge must refuse rather than silently recompute.
    let chunk = ckpt.join("chunk-00001.json");
    let mut text = fs::read_to_string(&chunk).unwrap();
    text.truncate(text.len() / 2);
    fs::write(&chunk, text).unwrap();

    for command in ["resume", "merge"] {
        let out = mbaa(&[command, ckpt.to_str().unwrap()], &dir);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{command} accepted a torn chunk"
        );
        assert!(stderr(&out).contains("chunk-00001.json"));
    }

    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Telemetry: --metrics-out / --events-out / report.
// ---------------------------------------------------------------------------

#[test]
fn metrics_out_leaves_stdout_and_report_byte_identical() {
    // Attaching telemetry must not perturb the deterministic outputs:
    // stdout and the --out report stay byte-identical with and without
    // --metrics-out.
    let dir = scratch("metrics_inert");
    let file = dir.join("sweep.scenario.json");
    fs::write(&file, SWEEP_DOC).unwrap();
    let plain_report = dir.join("plain.json");
    let metered_report = dir.join("metered.json");
    let metrics = dir.join("metrics.json");

    let plain = mbaa(
        &[
            "run",
            file.to_str().unwrap(),
            "--out",
            plain_report.to_str().unwrap(),
        ],
        &dir,
    );
    assert_eq!(plain.status.code(), Some(0), "stderr: {}", stderr(&plain));
    let metered = mbaa(
        &[
            "run",
            file.to_str().unwrap(),
            "--out",
            metered_report.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ],
        &dir,
    );
    assert_eq!(
        metered.status.code(),
        Some(0),
        "stderr: {}",
        stderr(&metered)
    );
    // stdout differs only by the "written to" trailers (different paths
    // and the extra metrics line) — the result table itself is identical.
    let strip = |out: &Output| -> String {
        stdout(out)
            .lines()
            .filter(|l| !l.contains("written to"))
            .map(|l| format!("{l}\n"))
            .collect()
    };
    assert_eq!(strip(&plain), strip(&metered));
    assert_eq!(
        fs::read(&plain_report).unwrap(),
        fs::read(&metered_report).unwrap(),
        "--metrics-out must not change the report"
    );

    let text = fs::read_to_string(&metrics).unwrap();
    assert!(text.contains("\"format\": \"mbaa-metrics/1\""));
    assert!(text.contains("\"runs\": 12"), "2 points x 6 seeds: {text}");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn report_renders_doc_and_events_identically_and_round_trips() {
    // The same run, exported two ways — aggregated document and raw
    // event stream — must fold to the same table, and `report --out`
    // must re-emit the canonical document byte-identically.
    let dir = scratch("report");
    let file = dir.join("sweep.scenario.json");
    fs::write(&file, SWEEP_DOC).unwrap();
    let metrics = dir.join("metrics.json");
    let events = dir.join("events.jsonl");

    let run = mbaa(
        &[
            "run",
            file.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--events-out",
            events.to_str().unwrap(),
        ],
        &dir,
    );
    assert_eq!(run.status.code(), Some(0), "stderr: {}", stderr(&run));
    let events_text = fs::read_to_string(&events).unwrap();
    assert!(
        events_text.lines().all(|l| l.starts_with('{')),
        "events must be one JSON object per line"
    );
    assert!(events_text.contains("\"kind\": \"round\""));
    assert!(events_text.contains("\"kind\": \"run_end\""));

    let from_doc = mbaa(&["report", metrics.to_str().unwrap()], &dir);
    assert_eq!(
        from_doc.status.code(),
        Some(0),
        "stderr: {}",
        stderr(&from_doc)
    );
    let table = stdout(&from_doc);
    assert!(table.contains("runs"), "missing counter rows:\n{table}");
    assert!(table.contains("convergence rate"));
    assert!(table.contains("rounds to converge"));

    let from_events = mbaa(&["report", events.to_str().unwrap()], &dir);
    assert_eq!(
        from_events.status.code(),
        Some(0),
        "stderr: {}",
        stderr(&from_events)
    );
    assert_eq!(
        table,
        stdout(&from_events),
        "event stream and aggregated document disagree"
    );

    let rewritten = dir.join("rewritten.json");
    let round_trip = mbaa(
        &[
            "report",
            events.to_str().unwrap(),
            "--out",
            rewritten.to_str().unwrap(),
        ],
        &dir,
    );
    assert_eq!(round_trip.status.code(), Some(0));
    assert_eq!(
        fs::read(&metrics).unwrap(),
        fs::read(&rewritten).unwrap(),
        "report --out must reproduce the canonical document"
    );

    let _ = fs::remove_dir_all(&dir);
}

/// `SWEEP_DOC` with 40 seeds, so each point runs as two packs (32 + 8).
const PACKED_DOC: &str = r#"{
  "format": "mbaa-scenario/1",
  "name": "packed-events",
  "scenario": {"model": "garay", "n": 9, "f": 2, "max_rounds": 50},
  "seeds": {"start": 0, "count": 40},
  "sweep": {"n": {"extra": 1}}
}"#;

#[test]
fn events_out_records_the_packed_run_for_any_worker_count() {
    // The stream comes from the packed execution itself; it must equal
    // every (point, seed) run replayed one by one as a one-lane run,
    // whatever the worker count.
    let dir = scratch("events_workers");
    let file = dir.join("packed.scenario.json");
    fs::write(&file, PACKED_DOC).unwrap();
    let doc = mbaa_json::ScenarioFile::parse_str(PACKED_DOC).unwrap();
    let mut expected = String::new();
    for (_, scenario) in doc.points() {
        for seed in doc.seeds.normalized() {
            let mut log = mbaa::prelude::EventLog::new();
            scenario.run_observed(seed, &mut log).unwrap();
            for event in log.events() {
                expected.push_str(&mbaa_json::write_line(&mbaa_json::event_to_json(event)));
                expected.push('\n');
            }
        }
    }
    for workers in ["1", "3"] {
        let events = dir.join(format!("events-{workers}.jsonl"));
        let out = mbaa(
            &[
                "run",
                file.to_str().unwrap(),
                "--workers",
                workers,
                "--events-out",
                events.to_str().unwrap(),
            ],
            &dir,
        );
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
        assert!(
            fs::read_to_string(&events).unwrap() == expected,
            "--workers {workers}: events differ from the one-lane runs"
        );
    }

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_failing_point_writes_no_events_file() {
    // The second point (n = 10) cannot take the 9 fixed values; the run
    // fails after the first point executed, and no stream is left behind.
    let dir = scratch("events_failing");
    let file = dir.join("failing.scenario.json");
    fs::write(
        &file,
        r#"{
  "format": "mbaa-scenario/1",
  "name": "fixed-sweep",
  "scenario": {"model": "garay", "n": 9, "f": 2, "max_rounds": 50,
               "workload": {"fixed": {"values": [0, 1, 2, 3, 4, 5, 6, 7, 8]}}},
  "seeds": [0, 1],
  "sweep": {"n": {"extra": 1}}
}"#,
    )
    .unwrap();
    let events = dir.join("events.jsonl");
    let out = mbaa(
        &[
            "run",
            file.to_str().unwrap(),
            "--events-out",
            events.to_str().unwrap(),
        ],
        &dir,
    );
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(!events.exists(), "a failed run wrote an events file");
    assert!(!dir.join("events.jsonl.tmp").exists());

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn report_rejects_garbage_with_a_location() {
    let dir = scratch("report_bad");
    let bad = dir.join("bad.jsonl");
    fs::write(&bad, "{\"kind\": \"round\"}\n").unwrap();
    let out = mbaa(&["report", bad.to_str().unwrap()], &dir);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("bad.jsonl:1:"),
        "error must name file and line: {}",
        stderr(&out)
    );

    let empty = dir.join("empty.jsonl");
    fs::write(&empty, "\n").unwrap();
    let out = mbaa(&["report", empty.to_str().unwrap()], &dir);
    assert_eq!(out.status.code(), Some(1));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sweep_metrics_out_counts_only_this_invocation() {
    // Chunked sweeps aggregate only what they execute: a partial sweep's
    // registry covers its chunks, the resume's registry covers the rest,
    // and a no-op resume reports zero runs.
    let dir = scratch("sweep_metrics");
    let file = dir.join("sweep.scenario.json");
    fs::write(&file, SWEEP_DOC).unwrap();
    let ckpt = dir.join("ckpt");
    let first = dir.join("first.json");
    let rest = dir.join("rest.json");
    let noop = dir.join("noop.json");

    let partial = mbaa(
        &[
            "sweep",
            file.to_str().unwrap(),
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--chunk-size",
            "5",
            "--chunks",
            "0..1",
            "--metrics-out",
            first.to_str().unwrap(),
        ],
        &dir,
    );
    assert_eq!(
        partial.status.code(),
        Some(0),
        "stderr: {}",
        stderr(&partial)
    );
    assert!(fs::read_to_string(&first).unwrap().contains("\"runs\": 5"));

    let resume = mbaa(
        &[
            "resume",
            ckpt.to_str().unwrap(),
            "--metrics-out",
            rest.to_str().unwrap(),
        ],
        &dir,
    );
    assert_eq!(resume.status.code(), Some(0), "stderr: {}", stderr(&resume));
    assert!(fs::read_to_string(&rest).unwrap().contains("\"runs\": 7"));

    let again = mbaa(
        &[
            "resume",
            ckpt.to_str().unwrap(),
            "--metrics-out",
            noop.to_str().unwrap(),
        ],
        &dir,
    );
    assert_eq!(again.status.code(), Some(0));
    assert!(fs::read_to_string(&noop).unwrap().contains("\"runs\": 0"));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn profile_and_progress_write_to_stderr_only() {
    let dir = scratch("profile");
    let file = dir.join("sweep.scenario.json");
    fs::write(&file, SWEEP_DOC).unwrap();

    let plain = mbaa(&["run", file.to_str().unwrap()], &dir);
    let profiled = mbaa(
        &["run", file.to_str().unwrap(), "--profile", "--progress"],
        &dir,
    );
    assert_eq!(
        profiled.status.code(),
        Some(0),
        "stderr: {}",
        stderr(&profiled)
    );
    assert_eq!(
        stdout(&plain),
        stdout(&profiled),
        "--profile/--progress must never touch stdout"
    );
    let err = stderr(&profiled);
    assert!(err.contains("phase breakdown"), "missing breakdown: {err}");
    assert!(
        err.contains("(batch engine, 2 packs, "),
        "the header must name the packed run: {err}"
    );
    for phase in ["adversary_plan", "exchange", "msr_apply", "record"] {
        assert!(err.contains(phase), "breakdown is missing {phase:?}: {err}");
    }
    assert!(err.contains("ETA"), "missing progress line: {err}");

    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Golden digests: the committed gallery's artifacts do not drift.
// ---------------------------------------------------------------------------

/// The committed digests of every gallery artifact, one
/// `<scenario> <artifact> <fingerprint>` line each.
const GALLERY_DIGESTS: &str = "tests/golden/gallery.digests";

#[test]
fn gallery_artifacts_match_the_golden_digests() {
    // For every committed scenario, the full `run --out` report, the
    // `--metrics-out` document and the `--events-out` stream must hash to
    // the committed fingerprints. An intended output change shows up here
    // as a one-file diff: the failure message is the replacement file.
    let root = repo_root();
    let dir = scratch("golden");
    let mut files: Vec<PathBuf> = fs::read_dir(root.join("scenarios"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_str().is_some_and(|s| s.ends_with(".scenario.json")))
        .collect();
    files.sort();
    let mut actual = String::new();
    for file in &files {
        let name = file
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_suffix(".scenario.json"))
            .unwrap();
        let artifacts = [
            ("report", "--out", dir.join(format!("{name}.report.json"))),
            (
                "metrics",
                "--metrics-out",
                dir.join(format!("{name}.metrics.json")),
            ),
            (
                "events",
                "--events-out",
                dir.join(format!("{name}.events.jsonl")),
            ),
        ];
        let mut args = vec!["run", file.to_str().unwrap()];
        for (_, flag, path) in &artifacts {
            args.extend([*flag, path.to_str().unwrap()]);
        }
        let out = mbaa(&args, &dir);
        assert_eq!(out.status.code(), Some(0), "{name}: {}", stderr(&out));
        for (artifact, _, path) in &artifacts {
            let text = fs::read_to_string(path).unwrap();
            let digest = mbaa_cli::checkpoint::fingerprint(&text);
            actual.push_str(&format!("{name} {artifact} {digest}\n"));
        }
    }
    let _ = fs::remove_dir_all(&dir);
    let expected = fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(GALLERY_DIGESTS))
        .unwrap_or_default();
    assert!(
        expected == actual,
        "gallery artifacts differ from {GALLERY_DIGESTS}; if the change is \
         intended, replace the file with:\n{actual}"
    );
}

// ---------------------------------------------------------------------------
// Committed scenario files mean what the examples they reproduce mean.
// ---------------------------------------------------------------------------

#[test]
fn quickstart_scenario_file_equals_the_example_builder() {
    let root = repo_root();
    let text = fs::read_to_string(root.join("scenarios/quickstart.scenario.json")).unwrap();
    let doc = mbaa_json::ScenarioFile::parse_str(&text).unwrap();
    let expected = mbaa::prelude::Scenario::new(mbaa::prelude::MobileModel::Garay, 9, 2)
        .epsilon(1e-4)
        .max_rounds(200);
    assert_eq!(doc.scenario, expected);
    assert_eq!(doc.seeds.seeds(), (0..16).collect::<Vec<u64>>());
    assert!(doc.sweep.is_none());
}

#[test]
fn table2_scenario_file_expands_like_the_example_sweep() {
    let root = repo_root();
    let text = fs::read_to_string(root.join("scenarios/table2-thresholds.scenario.json")).unwrap();
    let doc = mbaa_json::ScenarioFile::parse_str(&text).unwrap();
    let base = mbaa::prelude::Scenario::new(mbaa::prelude::MobileModel::Garay, 9, 2);
    let direct = base.sweep_n(3);
    let points = doc.points();
    assert_eq!(
        points.iter().map(|(_, s)| s.clone()).collect::<Vec<_>>(),
        direct.points().to_vec()
    );
    assert_eq!(points[0].0, "n=9");
}

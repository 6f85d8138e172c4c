//! The `mbaa` command line: executes committed `*.scenario.json` files on
//! the work-stealing pool, shards large sweeps into resumable checkpoints,
//! and merges checkpoint directories into reports that are byte-identical
//! to an uninterrupted run.
//!
//! The subcommand surface (full reference in `docs/cli.md`):
//!
//! | command | what it does |
//! |---|---|
//! | `run` | execute a scenario file, print per-point tables, optionally write a report |
//! | `sweep` | execute through a checkpoint directory, one chunk file at a time |
//! | `resume` | finish an interrupted `sweep` from its checkpoint directory |
//! | `merge` | assemble a completed checkpoint directory into one report |
//! | `report` | render an `mbaa-metrics/1` document (or fold an events JSONL stream) as a table |
//! | `validate` | parse scenario files, reporting `line:col`-anchored errors |
//! | `explain` | show how a file expands: bounds, points, seeds |
//! | `gallery` | list the committed reproduction scenarios; `--run` re-executes each one |
//!
//! Telemetry rides along without disturbing any of it: `--metrics-out`
//! (on `run`, `sweep`, `resume`, and `gallery --run`) aggregates every
//! executed run into a canonical `mbaa-metrics/1` document, `run
//! --events-out` writes the per-round event stream as JSONL, `run
//! --profile` prints the sanctioned wall-clock phase breakdown to stderr,
//! and `--progress` keeps a live stderr line with throughput and ETA.
//! All of them observe the one packed execution that produces the
//! tables; nothing is run a second time. See `docs/observability.md`.
//!
//! Every command takes exactly the flags its `USAGE` block lists; any
//! other flag is a usage error naming the flag and the command.
//!
//! Exit codes: `0` success, `1` execution or validation failure, `2`
//! usage error. All stdout output is deterministic — tables and reports
//! depend only on the scenario file, never on thread scheduling or worker
//! count; wall-clock readings (`--progress`, `--profile`) go to stderr
//! only.

pub mod checkpoint;
pub mod report;

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use mbaa::obs::timing::PhaseProfiler;
use mbaa::obs::{Event, Sinks};
use mbaa::prelude::*;
use mbaa_json::{topology_label, write_string, ScenarioFile};

use checkpoint::{CheckpointError, SweepPlan, DEFAULT_CHUNK_SIZE};
use report::ReportPoint;

/// Process exit code for success.
pub const EXIT_OK: i32 = 0;
/// Process exit code for an execution or validation failure.
pub const EXIT_FAILURE: i32 = 1;
/// Process exit code for a usage error (bad flags, missing arguments).
pub const EXIT_USAGE: i32 = 2;

/// Seeds kept per point when `--smoke` trims a batch for CI.
const SMOKE_SEEDS: usize = 2;

const USAGE: &str = "\
mbaa — approximate agreement under mobile Byzantine faults

USAGE:
    mbaa <command> [options]

COMMANDS:
    run <file>       Execute a scenario file and print per-point results
                       --workers <n>        cap worker threads
                       --out <path>         write the merged report JSON
                       --smoke              trim each point to 2 seeds (CI mode)
                       --metrics-out <path> write the aggregated mbaa-metrics/1 document
                       --events-out <path>  write the per-round telemetry stream as JSONL
                       --profile            print the wall-clock phase breakdown (stderr)
                       --progress           live stderr progress line (points/s, ETA)
    sweep <file>     Execute through a resumable checkpoint directory
                       --checkpoint <dir>   where chunks live (required)
                       --chunk-size <n>     runs per chunk (default 64)
                       --chunks <a>..<b>    only execute chunk indices [a, b)
                       --workers <n>        cap worker threads
                       --metrics-out <path> metrics of the chunks executed THIS invocation
                       --progress           live stderr progress line (chunks/s, ETA)
    resume <dir>     Finish an interrupted sweep from its checkpoint
                       --workers <n>        cap worker threads
                       --metrics-out <path> metrics of the chunks executed THIS invocation
                       --progress           live stderr progress line (chunks/s, ETA)
    merge <dir>      Assemble a completed checkpoint into one report
                       --out <path>    write the report (default: stdout)
    report <file>    Render an mbaa-metrics/1 document — or fold an
                     events JSONL stream into one — as a table
                       --out <path>    also write the canonical metrics document
    validate <file>...   Parse scenario files; errors carry line:col
    explain <file>   Show how a file expands: bounds, points, seeds
    gallery [dir]    List committed scenarios (default dir: scenarios)
                       --run           execute each scenario after listing it
                       --smoke         with --run: trim each point to 2 seeds
                       --workers <n>   with --run: cap worker threads
                       --out <dir>     with --run: write <dir>/<name>.report.json per scenario
                       --metrics-out <path>  with --run: one merged metrics document
                       --progress      with --run: live stderr progress line
    help             Show this message

EXIT CODES:
    0  success    1  execution/validation failure    2  usage error";

/// A failure on its way to becoming an exit code.
enum CliError {
    /// Wrong invocation: prints to stderr and exits 2.
    Usage(String),
    /// A real failure (unparseable file, failed run): exits 1.
    Failure(String),
}

impl From<CheckpointError> for CliError {
    fn from(e: CheckpointError) -> Self {
        CliError::Failure(e.to_string())
    }
}

/// Runs the CLI against `args` (without the program name) and returns the
/// process exit code.
#[must_use]
pub fn run_cli(args: &[String]) -> i32 {
    let outcome = match args.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => {
            println!("{USAGE}");
            Ok(())
        }
        Some("run") => cmd_run(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("resume") => cmd_resume(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("explain") => cmd_explain(&args[1..]),
        Some("gallery") => cmd_gallery(&args[1..]),
        Some(other) => Err(CliError::Usage(format!("unknown command {other:?}"))),
    };
    match outcome {
        Ok(()) => EXIT_OK,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            eprintln!("run `mbaa help` for usage");
            EXIT_USAGE
        }
        Err(CliError::Failure(message)) => {
            eprintln!("error: {message}");
            EXIT_FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Option parsing (hand-rolled; the workspace takes no external deps).
// ---------------------------------------------------------------------------

/// Every `(command, flag)` pair `USAGE` lists: the first word of each
/// option line, attributed to the command line above it. The usage text is
/// the single source of truth, so `mbaa help` and the parser cannot
/// disagree about which flags a command takes.
fn usage_flags() -> impl Iterator<Item = (&'static str, &'static str)> {
    let mut command = "";
    USAGE.lines().filter_map(move |line| {
        let word = line.split_whitespace().next()?;
        if line
            .strip_prefix("    ")
            .is_some_and(|rest| !rest.starts_with(' '))
        {
            command = word;
            return None;
        }
        word.starts_with("--").then_some((command, word))
    })
}

/// Parsed flags plus positional arguments.
struct Opts {
    positional: Vec<String>,
    workers: Option<usize>,
    out: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    chunk_size: Option<usize>,
    chunks: Option<(usize, usize)>,
    smoke: bool,
    run: bool,
    metrics_out: Option<PathBuf>,
    events_out: Option<PathBuf>,
    profile: bool,
    progress: bool,
}

/// Parses `args` for `command`, rejecting every flag its `USAGE` block
/// does not list.
fn parse_opts(command: &str, args: &[String]) -> Result<Opts, CliError> {
    let mut opts = Opts {
        positional: Vec::new(),
        workers: None,
        out: None,
        checkpoint: None,
        chunk_size: None,
        chunks: None,
        smoke: false,
        run: false,
        metrics_out: None,
        events_out: None,
        profile: false,
        progress: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg.starts_with('-') && !usage_flags().any(|pair| pair == (command, arg.as_str())) {
            let known = usage_flags().any(|(_, flag)| flag == arg);
            return Err(CliError::Usage(if known {
                format!("{command} does not take {arg}")
            } else {
                format!("unknown flag {arg} for {command}")
            }));
        }
        let mut value_of = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "--workers" => {
                let raw = value_of("--workers")?;
                opts.workers = Some(parse_count("--workers", &raw)?);
            }
            "--out" => opts.out = Some(PathBuf::from(value_of("--out")?)),
            "--checkpoint" => opts.checkpoint = Some(PathBuf::from(value_of("--checkpoint")?)),
            "--chunk-size" => {
                let raw = value_of("--chunk-size")?;
                opts.chunk_size = Some(parse_count("--chunk-size", &raw)?);
            }
            "--chunks" => {
                let raw = value_of("--chunks")?;
                let (a, b) = raw
                    .split_once("..")
                    .ok_or_else(|| CliError::Usage("--chunks wants <a>..<b>".to_string()))?;
                let a = a
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad chunk index {a:?}")))?;
                let b = b
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad chunk index {b:?}")))?;
                if a >= b {
                    return Err(CliError::Usage(format!("empty chunk range {raw}")));
                }
                opts.chunks = Some((a, b));
            }
            "--metrics-out" => {
                opts.metrics_out = Some(PathBuf::from(value_of("--metrics-out")?));
            }
            "--events-out" => {
                opts.events_out = Some(PathBuf::from(value_of("--events-out")?));
            }
            "--smoke" => opts.smoke = true,
            "--run" => opts.run = true,
            "--profile" => opts.profile = true,
            "--progress" => opts.progress = true,
            _ => opts.positional.push(arg.clone()),
        }
    }
    Ok(opts)
}

fn parse_count(flag: &str, raw: &str) -> Result<usize, CliError> {
    match raw.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(CliError::Usage(format!(
            "{flag} wants a positive integer, got {raw:?}"
        ))),
    }
}

fn one_positional(opts: &Opts, what: &str) -> Result<PathBuf, CliError> {
    match opts.positional.as_slice() {
        [one] => Ok(PathBuf::from(one)),
        [] => Err(CliError::Usage(format!("missing {what}"))),
        _ => Err(CliError::Usage(format!("expected exactly one {what}"))),
    }
}

// ---------------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------------

fn load_doc(path: &Path) -> Result<ScenarioFile, CliError> {
    let text = fs::read_to_string(path)
        .map_err(|e| CliError::Failure(format!("{}: {e}", path.display())))?;
    ScenarioFile::parse_str(&text)
        .map_err(|e| CliError::Failure(format!("{}: {e}", path.display())))
}

/// `--smoke`: keep the first [`SMOKE_SEEDS`] of the normalized batch so a
/// CI pass over the whole gallery stays cheap while still executing every
/// point of every scenario. Determinism is untouched — the trimmed batch
/// is itself a fixed function of the file.
fn apply_smoke(doc: &ScenarioFile) -> ScenarioFile {
    let mut seeds = doc.seeds.normalized();
    seeds.truncate(SMOKE_SEEDS);
    let mut trimmed = doc.clone();
    trimmed.seeds = mbaa_json::SeedSpec::List(seeds);
    trimmed
}

/// One table row per point: label, runs, success rate, mean rounds, mean
/// contraction.
fn print_point_table(points: &[(String, Scenario)], rows: &[ReportPoint]) {
    let label_width = rows
        .iter()
        .map(|r| r.label.len())
        .chain(["point".len()])
        .max()
        .unwrap_or(5);
    println!(
        "{:<label_width$}  {:>5}  {:>9}  {:>11}  {:>12}",
        "point", "runs", "success", "mean rounds", "contraction"
    );
    for (row, (_, scenario)) in rows.iter().zip(points) {
        let aggregate = row.aggregate(scenario);
        let mean_rounds = aggregate
            .mean_rounds()
            .map_or_else(|| "-".to_string(), |r| format!("{r:.2}"));
        let contraction = aggregate
            .mean_contraction()
            .map_or_else(|| "-".to_string(), |c| format!("{c:.4}"));
        println!(
            "{:<label_width$}  {:>5}  {:>8.1}%  {:>11}  {:>12}",
            row.label,
            row.runs.len(),
            aggregate.success_rate() * 100.0,
            mean_rounds,
            contraction
        );
    }
}

fn write_report(
    doc: &ScenarioFile,
    points: &[(String, Scenario)],
    rows: &[ReportPoint],
    out: Option<&Path>,
) -> Result<(), CliError> {
    let text = write_string(&report::report_json(doc, points, rows));
    match out {
        Some(path) => {
            checkpoint::write_atomic(path, &text)?;
            println!("report written to {}", path.display());
        }
        None => println!("{text}"),
    }
    Ok(())
}

/// Writes an aggregated registry as a canonical `mbaa-metrics/1` document.
fn write_metrics(path: &Path, metrics: &MetricsRegistry) -> Result<(), CliError> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(parent)
            .map_err(|e| CliError::Failure(format!("{}: {e}", parent.display())))?;
    }
    let text = write_string(&mbaa_json::metrics_to_json(metrics));
    checkpoint::write_atomic(path, &text)?;
    println!("metrics written to {}", path.display());
    Ok(())
}

/// `--progress`: one carriage-return-rewritten stderr line with
/// throughput and ETA. Never touches stdout, so tables and reports stay
/// byte-identical with or without it; the wall clock it reads is the
/// sanctioned [`Stopwatch`](mbaa::obs::timing::Stopwatch).
fn progress_line(unit: &str, done: usize, total: usize, watch: &mbaa::obs::timing::Stopwatch) {
    let elapsed = watch.elapsed_secs();
    let rate = if elapsed > 0.0 {
        done as f64 / elapsed
    } else {
        0.0
    };
    let eta = if rate > 0.0 {
        (total.saturating_sub(done)) as f64 / rate
    } else {
        0.0
    };
    eprint!("\r{done}/{total} {unit}(s) \u{b7} {rate:.1} {unit}s/s \u{b7} ETA {eta:.0}s    ");
    if done == total {
        eprintln!();
    }
}

// ---------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------

/// The labelled scenario points of a plan, as `print_point_table` and
/// `write_report` consume them.
type LabelledPoints = Vec<(String, Scenario)>;

/// Executes every point of `doc` and returns the labelled points with one
/// report row each. One plan with a single all-covering chunk per point
/// keeps `run`, `gallery --run`, and `sweep` on the same execution path —
/// that shared path is what makes their reports byte-identical. The
/// attached sinks observe that execution itself: every run's telemetry is
/// folded into the registry, its events are appended point-major and
/// seed-minor, and its phase times are profiled. `progress` keeps a live
/// stderr line (stdout is untouched by all of them).
fn execute_doc(
    doc: &ScenarioFile,
    workers: Option<usize>,
    mut sinks: Sinks<'_>,
    progress: bool,
) -> Result<(LabelledPoints, Vec<ReportPoint>), CliError> {
    let plan = SweepPlan::new(doc, doc.seeds.normalized().len().max(1));
    let total = plan.points.len();
    let watch = mbaa::obs::timing::Stopwatch::start();
    let mut rows = Vec::with_capacity(plan.points.len());
    for (index, (label, _)) in plan.points.iter().enumerate() {
        let entries = checkpoint::execute_chunk_observed(&plan, index, workers, sinks.reborrow())?;
        rows.push(ReportPoint {
            label: label.clone(),
            runs: entries.into_iter().map(|e| e.summary).collect(),
        });
        if progress {
            progress_line("point", index + 1, total, &watch);
        }
    }
    Ok((plan.points, rows))
}

/// `--events-out`: renders the events recorded from the packed run, one
/// kind-tagged JSON line each, point-major / seed-minor, straight into the
/// atomically renamed file.
fn write_event_stream(path: &Path, events: &[Event]) -> Result<(), CliError> {
    checkpoint::write_atomic_with(path, |out| {
        for event in events {
            out.write_all(mbaa_json::write_line(&mbaa_json::event_to_json(event)).as_bytes())?;
            out.write_all(b"\n")?;
        }
        Ok(())
    })?;
    println!("events written to {}", path.display());
    Ok(())
}

/// `--profile`: prints the wall-clock phase breakdown of the packed run to
/// stderr — stdout stays byte-identical to an unprofiled invocation. Each
/// pack carries its own [`PhaseProfiler`], and their times are summed over
/// the workers that ran them. A profiler alone reports `enabled() ==
/// false`, so the engine skips telemetry assembly and the timings measure
/// the protocol; with `--metrics-out` or `--events-out` also given, the
/// record phase includes event assembly.
fn print_profile(runs: usize, packs: usize, workers: Option<usize>, profile: &PhaseProfiler) {
    let workers = workers.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    eprintln!(
        "wall-clock phase breakdown over {runs} run(s) \
         (batch engine, {packs} packs, {workers} workers, phase times summed over workers):"
    );
    eprint!("{}", profile.breakdown().render());
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let opts = parse_opts("run", args)?;
    let path = one_positional(&opts, "scenario file")?;
    let mut doc = load_doc(&path)?;
    if opts.smoke {
        doc = apply_smoke(&doc);
    }
    let mut metrics = opts.metrics_out.as_ref().map(|_| MetricsRegistry::new());
    let mut events = opts.events_out.as_ref().map(|_| Vec::new());
    let mut profile = opts.profile.then(PhaseProfiler::new);
    let sinks = Sinks {
        metrics: metrics.as_mut(),
        events: events.as_mut(),
        profile: profile.as_mut(),
    };
    let (points, rows) = execute_doc(&doc, opts.workers, sinks, opts.progress)?;
    print_point_table(&points, &rows);
    if opts.out.is_some() {
        write_report(&doc, &points, &rows, opts.out.as_deref())?;
    }
    if let Some(out) = opts.metrics_out.as_deref() {
        write_metrics(
            out,
            &metrics.expect("registry exists whenever --metrics-out does"),
        )?;
    }
    if let Some(out) = opts.events_out.as_deref() {
        write_event_stream(
            out,
            &events.expect("buffer exists whenever --events-out does"),
        )?;
    }
    if let Some(profile) = &profile {
        // Every point runs as its own chunk, and a point's lanes share one
        // shape, so each point fills ceil(seeds / BATCH_WIDTH) packs.
        let seeds = doc.seeds.normalized().len();
        let packs = points.len() * seeds.div_ceil(mbaa::sim::BATCH_WIDTH);
        print_profile(points.len() * seeds, packs, opts.workers, profile);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// sweep / resume
// ---------------------------------------------------------------------------

fn run_chunks(
    dir: &Path,
    plan: &SweepPlan,
    only: Option<(usize, usize)>,
    workers: Option<usize>,
    mut metrics: Option<&mut MetricsRegistry>,
    progress: bool,
) -> Result<(), CliError> {
    checkpoint::ensure_manifest(dir, plan)?;
    let total = plan.chunk_count();
    let (lo, hi) = match only {
        Some((a, b)) => (a.min(total), b.min(total)),
        None => (0, total),
    };
    let watch = mbaa::obs::timing::Stopwatch::start();
    let mut executed = 0usize;
    let mut skipped = 0usize;
    for index in lo..hi {
        if checkpoint::read_chunk(dir, plan, index)?.is_some() {
            skipped += 1;
        } else {
            let entries =
                checkpoint::execute_chunk_metrics(plan, index, workers, metrics.as_deref_mut())?;
            let text = write_string(&checkpoint::chunk_json(plan, index, &entries));
            checkpoint::write_atomic(&checkpoint::chunk_path(dir, index), &text)?;
            executed += 1;
            println!(
                "chunk {index:>5}/{total}: {} runs written",
                plan.chunk_range(index).len()
            );
        }
        if progress {
            progress_line("chunk", index + 1 - lo, hi - lo, &watch);
        }
    }
    println!(
        "{executed} chunk(s) executed, {skipped} already complete, \
         {total} total ({} runs over {} points)",
        plan.total_runs(),
        plan.points.len()
    );
    Ok(())
}

/// The metrics surface of `sweep`/`resume`: `--metrics-out` aggregates the
/// chunks executed by *this* invocation (already-complete chunks are not
/// re-run, so their runs are absent — the full-sweep document comes from
/// `mbaa run --metrics-out` or a single uninterrupted sweep).
fn finish_chunked(opts: &Opts, metrics: Option<MetricsRegistry>) -> Result<(), CliError> {
    if let Some(out) = opts.metrics_out.as_deref() {
        write_metrics(
            out,
            &metrics.expect("registry exists whenever --metrics-out does"),
        )?;
    }
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), CliError> {
    let opts = parse_opts("sweep", args)?;
    let path = one_positional(&opts, "scenario file")?;
    let dir = opts
        .checkpoint
        .clone()
        .ok_or_else(|| CliError::Usage("sweep needs --checkpoint <dir>".to_string()))?;
    let doc = load_doc(&path)?;
    let plan = SweepPlan::new(&doc, opts.chunk_size.unwrap_or(DEFAULT_CHUNK_SIZE));
    let mut metrics = opts.metrics_out.as_ref().map(|_| MetricsRegistry::new());
    run_chunks(
        &dir,
        &plan,
        opts.chunks,
        opts.workers,
        metrics.as_mut(),
        opts.progress,
    )?;
    finish_chunked(&opts, metrics)
}

fn cmd_resume(args: &[String]) -> Result<(), CliError> {
    let opts = parse_opts("resume", args)?;
    let dir = one_positional(&opts, "checkpoint directory")?;
    let doc = checkpoint::read_manifest_doc(&dir)?;
    let chunk_size = read_manifest_chunk_size(&dir)?;
    let plan = SweepPlan::new(&doc, chunk_size);
    let mut metrics = opts.metrics_out.as_ref().map(|_| MetricsRegistry::new());
    run_chunks(
        &dir,
        &plan,
        None,
        opts.workers,
        metrics.as_mut(),
        opts.progress,
    )?;
    finish_chunked(&opts, metrics)
}

/// The chunk size is part of the grid geometry, so `resume` must reuse
/// the manifest's value — a different `--chunk-size` would re-shard the
/// grid and invalidate every completed chunk.
fn read_manifest_chunk_size(dir: &Path) -> Result<usize, CliError> {
    let path = dir.join("manifest.json");
    let text = fs::read_to_string(&path)
        .map_err(|e| CliError::Failure(format!("{}: {e}", path.display())))?;
    let tree = mbaa_json::parse(&text)
        .map_err(|e| CliError::Failure(format!("{}: {e}", path.display())))?;
    let ctx = mbaa_json::Ctx::root(&tree);
    let mut obj = ctx
        .object()
        .map_err(|e| CliError::Failure(format!("{}: {e}", path.display())))?;
    obj.req("chunk_size")
        .and_then(|c| c.ctx().usize())
        .map_err(|e| CliError::Failure(format!("{}: {e}", path.display())))
}

// ---------------------------------------------------------------------------
// merge
// ---------------------------------------------------------------------------

fn cmd_merge(args: &[String]) -> Result<(), CliError> {
    let opts = parse_opts("merge", args)?;
    let dir = one_positional(&opts, "checkpoint directory")?;
    let doc = checkpoint::read_manifest_doc(&dir)?;
    let plan = SweepPlan::new(&doc, read_manifest_chunk_size(&dir)?);
    let mut missing = Vec::new();
    let mut per_point: Vec<Vec<RunSummary>> = vec![Vec::new(); plan.points.len()];
    for index in 0..plan.chunk_count() {
        match checkpoint::read_chunk(&dir, &plan, index)? {
            Some(entries) => {
                for entry in entries {
                    per_point[entry.point].push(entry.summary);
                }
            }
            None => missing.push(index),
        }
    }
    if !missing.is_empty() {
        return Err(CliError::Failure(format!(
            "checkpoint is incomplete: {} of {} chunks missing (first missing: {}); \
             run `mbaa resume {}` to finish it",
            missing.len(),
            plan.chunk_count(),
            checkpoint::chunk_file_name(missing[0]),
            dir.display()
        )));
    }
    let rows: Vec<ReportPoint> = plan
        .points
        .iter()
        .zip(per_point)
        .map(|((label, _), runs)| ReportPoint {
            label: label.clone(),
            runs,
        })
        .collect();
    write_report(&doc, &plan.points, &rows, opts.out.as_deref())
}

// ---------------------------------------------------------------------------
// report
// ---------------------------------------------------------------------------

/// Folds an events JSONL stream (one kind-tagged event per line, as
/// written by `mbaa run --events-out`) into a fresh registry.
fn fold_events(path: &Path, text: &str) -> Result<MetricsRegistry, CliError> {
    let mut metrics = MetricsRegistry::new();
    let mut folded = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e: &dyn std::fmt::Display| {
            CliError::Failure(format!("{}:{}: {e}", path.display(), lineno + 1))
        };
        let tree = mbaa_json::parse(line).map_err(|e| at(&e))?;
        let event = mbaa_json::event_from(mbaa_json::Ctx::root(&tree)).map_err(|e| at(&e))?;
        metrics.record_event(&event);
        folded += 1;
    }
    if folded == 0 {
        return Err(CliError::Failure(format!(
            "{}: neither an mbaa-metrics/1 document nor a non-empty events JSONL stream",
            path.display()
        )));
    }
    Ok(metrics)
}

fn histogram_rows(histogram: &mbaa::Histogram) -> Vec<(String, u64)> {
    let bounds = histogram.bounds();
    histogram
        .counts()
        .iter()
        .enumerate()
        .map(|(i, &count)| {
            let label = match bounds.get(i + 1) {
                Some(hi) => format!("[{}, {})", bounds[i], hi),
                None => format!("[{}, \u{221e})", bounds[i]),
            };
            (label, count)
        })
        .collect()
}

fn print_histogram(title: &str, histogram: &mbaa::Histogram) {
    println!();
    println!("{title} ({} sample(s)):", histogram.total());
    let rows = histogram_rows(histogram);
    let label_width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, count) in rows {
        println!("  {label:<label_width$}  {count:>8}");
    }
}

/// Renders an aggregated registry as the `mbaa report` table.
fn print_metrics_report(metrics: &MetricsRegistry) {
    println!("{:<20}  {:>12}", "counter", "value");
    for (name, value) in [
        ("runs", metrics.runs),
        ("converged", metrics.converged),
        ("validity_failures", metrics.validity_failures),
        ("rounds_total", metrics.rounds_total),
        ("messages_delivered", metrics.messages_delivered),
        ("omissions", metrics.omissions),
        ("link_omissions", metrics.link_omissions),
        ("corruptions", metrics.corruptions),
    ] {
        println!("{name:<20}  {value:>12}");
    }
    println!();
    let rate = metrics
        .convergence_rate()
        .map_or_else(|| "-".to_string(), |r| format!("{:.1}%", r * 100.0));
    let mean = metrics
        .mean_rounds()
        .map_or_else(|| "-".to_string(), |m| format!("{m:.2}"));
    println!("convergence rate: {rate}   mean rounds per run: {mean}");
    print_histogram("rounds to converge", &metrics.rounds_to_converge);
    print_histogram("per-round contraction ratio", &metrics.contraction_ratio);
}

fn cmd_report(args: &[String]) -> Result<(), CliError> {
    let opts = parse_opts("report", args)?;
    let path = one_positional(&opts, "metrics document or events JSONL file")?;
    let text = fs::read_to_string(&path)
        .map_err(|e| CliError::Failure(format!("{}: {e}", path.display())))?;
    // Dispatch on shape: a whole-file JSON object carrying a `format` field
    // is the aggregated document; anything else is treated as JSONL.
    let metrics = match mbaa_json::parse(&text) {
        Ok(tree)
            if mbaa_json::Ctx::root(&tree)
                .object()
                .is_ok_and(|mut obj| obj.opt("format").is_some()) =>
        {
            mbaa_json::metrics_from(mbaa_json::Ctx::root(&tree))
                .map_err(|e| CliError::Failure(format!("{}: {e}", path.display())))?
        }
        _ => fold_events(&path, &text)?,
    };
    print_metrics_report(&metrics);
    if let Some(out) = opts.out.as_deref() {
        write_metrics(out, &metrics)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// validate / explain / gallery
// ---------------------------------------------------------------------------

fn cmd_validate(args: &[String]) -> Result<(), CliError> {
    let opts = parse_opts("validate", args)?;
    if opts.positional.is_empty() {
        return Err(CliError::Usage(
            "validate needs at least one scenario file".to_string(),
        ));
    }
    let mut failures = 0usize;
    for raw in &opts.positional {
        let path = Path::new(raw);
        match fs::read_to_string(path) {
            Ok(text) => match ScenarioFile::parse_str(&text) {
                Ok(doc) => {
                    let points = doc.points();
                    if let Some(problem) = fixed_workload_mismatch(&points) {
                        eprintln!("{}: {problem}", path.display());
                        failures += 1;
                        continue;
                    }
                    println!(
                        "{}: ok ({}, {} point(s), {} seed(s))",
                        path.display(),
                        doc.name,
                        points.len(),
                        doc.seeds.seeds().len()
                    );
                }
                Err(e) => {
                    eprintln!("{}: {e}", path.display());
                    failures += 1;
                }
            },
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                failures += 1;
            }
        }
    }
    if failures > 0 {
        return Err(CliError::Failure(format!(
            "{failures} of {} file(s) failed validation",
            opts.positional.len()
        )));
    }
    Ok(())
}

/// The first point whose `fixed` workload does not hold one value per
/// process, described by label. Such a point parses, but every run of it
/// would fail with a wrong-input-count error.
fn fixed_workload_mismatch(points: &[(String, Scenario)]) -> Option<String> {
    points
        .iter()
        .find_map(|(label, scenario)| match &scenario.workload {
            Workload::Fixed { values } if values.len() != scenario.n => Some(format!(
                "point '{label}': fixed workload holds {} values for n = {} processes",
                values.len(),
                scenario.n
            )),
            _ => None,
        })
}

fn cmd_explain(args: &[String]) -> Result<(), CliError> {
    let opts = parse_opts("explain", args)?;
    let path = one_positional(&opts, "scenario file")?;
    let doc = load_doc(&path)?;
    let scenario = &doc.scenario;
    println!("name:        {}", doc.name);
    if let Some(title) = &doc.title {
        println!("title:       {title}");
    }
    if let Some(reproduces) = &doc.reproduces {
        println!("reproduces:  {reproduces}");
    }
    let required = scenario.model.required_processes(scenario.f);
    println!(
        "model:       {:?} (n = {}, f = {}; bound needs n \u{2265} {}{})",
        scenario.model,
        scenario.n,
        scenario.f,
        required,
        if scenario.n >= required {
            ", satisfied"
        } else if scenario.allow_bound_violation {
            ", VIOLATED by request"
        } else {
            ", VIOLATED"
        }
    );
    println!(
        "protocol:    epsilon = {}, max_rounds = {}",
        scenario.epsilon, scenario.max_rounds
    );
    println!("topology:    {}", topology_label(&scenario.topology));
    println!(
        "adversary:   {:?} / {:?}",
        scenario.mobility, scenario.corruption
    );
    println!(
        "seeds:       {} ({} after normalization)",
        doc.seeds.seeds().len(),
        doc.seeds.normalized().len()
    );
    let points = doc.points();
    println!("points:      {}", points.len());
    for (label, point) in &points {
        println!(
            "  - {label}: n = {}, f = {}, topology = {}",
            point.n,
            point.f,
            topology_label(&point.topology)
        );
    }
    Ok(())
}

fn cmd_gallery(args: &[String]) -> Result<(), CliError> {
    let opts = parse_opts("gallery", args)?;
    if !opts.run
        && (opts.smoke
            || opts.workers.is_some()
            || opts.out.is_some()
            || opts.metrics_out.is_some()
            || opts.progress)
    {
        return Err(CliError::Usage(
            "--smoke/--workers/--out/--metrics-out/--progress only make sense with gallery --run"
                .to_string(),
        ));
    }
    // One registry across every scenario file: `--metrics-out` on the
    // gallery is the whole-corpus aggregate, not one document per file.
    let mut metrics = opts.metrics_out.as_ref().map(|_| MetricsRegistry::new());
    let dir = match opts.positional.as_slice() {
        [] => PathBuf::from("scenarios"),
        [one] => PathBuf::from(one),
        _ => {
            return Err(CliError::Usage(
                "expected at most one directory".to_string(),
            ))
        }
    };
    let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
        .map_err(|e| CliError::Failure(format!("{}: {e}", dir.display())))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".scenario.json"))
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(CliError::Failure(format!(
            "{}: no *.scenario.json files",
            dir.display()
        )));
    }
    println!(
        "{} committed scenario(s) in {}:",
        paths.len(),
        dir.display()
    );
    if let Some(out_dir) = opts.out.as_deref() {
        fs::create_dir_all(out_dir)
            .map_err(|e| CliError::Failure(format!("{}: {e}", out_dir.display())))?;
    }
    for path in &paths {
        let mut doc = load_doc(path)?;
        let points = doc.points();
        let seeds = doc.seeds.seeds().len();
        println!();
        println!("  {} ({})", doc.name, path.display());
        if let Some(title) = &doc.title {
            println!("    {title}");
        }
        if let Some(reproduces) = &doc.reproduces {
            println!("    reproduces: {reproduces}");
        }
        println!(
            "    {} point(s) \u{d7} {} seed(s); run with: mbaa run {}",
            points.len(),
            seeds,
            path.display()
        );
        if opts.run {
            // `gallery --run` regenerates every committed scenario's
            // results through the exact per-file execution path of
            // `mbaa run`, so a CI pass is one invocation instead of a
            // shell loop and the reports stay byte-identical to it.
            if opts.smoke {
                doc = apply_smoke(&doc);
            }
            let sinks = Sinks {
                metrics: metrics.as_mut(),
                ..Sinks::default()
            };
            let (run_points, rows) = execute_doc(&doc, opts.workers, sinks, opts.progress)?;
            println!();
            print_point_table(&run_points, &rows);
            if let Some(out_dir) = opts.out.as_deref() {
                let report_path = out_dir.join(format!("{}.report.json", doc.name));
                write_report(&doc, &run_points, &rows, Some(&report_path))?;
            }
        }
    }
    if let Some(out) = opts.metrics_out.as_deref() {
        write_metrics(
            out,
            &metrics.expect("registry exists whenever --metrics-out does"),
        )?;
    }
    Ok(())
}

//! `perfbench-trace`: the in-process half of the `mbaa` benchmark.
//!
//! `perfbench/run.py` times the real `mbaa` binary for every end-to-end
//! number. This program supplies what cannot be seen from outside that
//! process:
//!
//! ```text
//! perfbench-trace setup <run|sweep> <chunk-size> <work-dir> <doc>...
//!     median wall time of the CLI's set-up: read + parse + plan, plus the
//!     checkpoint manifest for sweeps (everything before the first run).
//! perfbench-trace digest <file>...
//!     `mbaa_cli::checkpoint::fingerprint` of each file, one per line.
//! perfbench-trace trace <run|events|checkpoint> <chunk-size> <half-chunks>
//!                 <workers> <seconds> <out-dir> <doc>...
//!     replays the CLI's call sequence at one worker through each layer's
//!     public functions, recording spans around those calls, then probes
//!     the engine through the public `run_observed` entry points with a
//!     `PhaseProfiler` attached; prints the per-layer metrics as one JSON
//!     object on stdout and the self-time breakdown on stderr.
//! ```
//!
//! Every clock read goes through `mbaa::obs::timing` (`Stopwatch`,
//! `PhaseProfiler`), the workspace's sanctioned wall-clock home, and the
//! program adds no hooks inside the crates it measures.

use std::collections::BTreeMap;
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mbaa::core::{BatchEngine, PackedLane};
use mbaa::obs::timing::{PhaseProfiler, Stopwatch};
use mbaa::prelude::*;
use mbaa::sim::{mean_pack_occupancy, BATCH_WIDTH};
use mbaa::Phase;
use mbaa_cli::checkpoint::{self, SweepPlan};
use mbaa_cli::report::{report_json, ReportPoint};
use mbaa_json::{event_to_json, metrics_to_json, write_line, write_string, ScenarioFile};

/// Set-up repetitions: at least this many, then more until the budget
/// below is spent (bounded by `SETUP_MAX_REPS`).
const SETUP_MIN_REPS: usize = 7;
const SETUP_MAX_REPS: usize = 20_000;
const SETUP_BUDGET_S: f64 = 0.1;

/// Round budgets whose difference separates per-run set-up from per-round
/// cost in `core.setup_us_per_run`.
const SHORT_BUDGET: usize = 1;
const LONG_BUDGET: usize = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("setup") => cmd_setup(&args[1..]),
        Some("digest") => cmd_digest(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        _ => Err("usage: perfbench-trace <setup|digest|trace> ...".to_string()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench-trace: {message}");
            ExitCode::FAILURE
        }
    }
}

fn parse_arg<T: std::str::FromStr>(args: &[String], index: usize, what: &str) -> Result<T, String> {
    args.get(index)
        .and_then(|raw| raw.parse().ok())
        .ok_or_else(|| format!("missing or malformed <{what}>"))
}

fn load_doc(path: &Path) -> Result<ScenarioFile, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    ScenarioFile::parse_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The chunk size the CLI plans `doc` with: one chunk per point for `run`,
/// the `--chunk-size` for sweeps.
fn run_chunk_size(doc: &ScenarioFile) -> usize {
    doc.seeds.seeds().len().max(1)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

// ---------------------------------------------------------------------------
// setup / digest
// ---------------------------------------------------------------------------

fn cmd_setup(args: &[String]) -> Result<(), String> {
    let sweep = match args.first().map(String::as_str) {
        Some("run") => false,
        Some("sweep") => true,
        _ => return Err("setup wants <run|sweep>".to_string()),
    };
    let chunk_size: usize = parse_arg(args, 1, "chunk-size")?;
    let work = PathBuf::from(args.get(2).ok_or("missing <work-dir>")?);
    let docs: Vec<PathBuf> = args[3..].iter().map(PathBuf::from).collect();
    if docs.is_empty() {
        return Err("setup needs at least one scenario file".to_string());
    }
    let clock = Stopwatch::start();
    let mut samples = Vec::new();
    while samples.len() < SETUP_MIN_REPS
        || (clock.elapsed_secs() < SETUP_BUDGET_S && samples.len() < SETUP_MAX_REPS)
    {
        let dir = work.join(format!("setup-{}", samples.len()));
        let t0 = clock.elapsed_secs();
        for (index, path) in docs.iter().enumerate() {
            let doc = load_doc(path)?;
            let size = if sweep {
                chunk_size
            } else {
                run_chunk_size(&doc)
            };
            let plan = SweepPlan::new(&doc, size);
            if sweep {
                checkpoint::ensure_manifest(&dir.join(index.to_string()), &plan)
                    .map_err(|e| e.to_string())?;
            }
            black_box(&plan);
        }
        samples.push(clock.elapsed_secs() - t0);
        if sweep {
            fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
    }
    let reps = samples.len();
    println!(
        "{{\"setup_s\": {}, \"reps\": {reps}}}",
        median(&mut samples)
    );
    Ok(())
}

fn cmd_digest(args: &[String]) -> Result<(), String> {
    for raw in args {
        let text = fs::read_to_string(raw).map_err(|e| format!("{raw}: {e}"))?;
        println!("{} {raw}", checkpoint::fingerprint(&text));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One recorded call into a layer: name, start and end (seconds on the
/// tracer's clock), and the span that was open when it began.
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
}

/// In-memory span recorder. Disabled, it records nothing, so the same
/// replay code serves as the untraced baseline for `trace.overhead_share`.
struct Tracer {
    on: bool,
    clock: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            on,
            clock: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn begin(&mut self, name: &'static str) {
        if self.on {
            self.open.push(self.spans.len());
            self.spans.push(Span {
                name,
                start: self.clock.elapsed_secs(),
                end: f64::NAN,
                parent: self.open.iter().rev().nth(1).copied(),
            });
        }
    }

    fn end(&mut self) {
        if self.on {
            let index = self.open.pop().expect("every end matches a begin");
            self.spans[index].end = self.clock.elapsed_secs();
        }
    }

    fn span<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = call();
        self.end();
        out
    }

    /// Seconds per span name of *self* time: each span's duration minus
    /// the part its child spans cover (children never overlap: the replay
    /// is single-threaded).
    fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end - span.start;
            }
        }
        let mut out = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            *out.entry(span.name).or_insert(0.0) += span.end - span.start - covered;
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Replay of the CLI path
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// `mbaa run <doc> --out`.
    Run,
    /// `mbaa run <doc> --out --metrics-out --events-out`.
    Events,
    /// `mbaa sweep --chunks 0..half`, `mbaa resume`, `mbaa merge --out`.
    Checkpoint,
}

/// Work counted during one replay.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    render_bytes: u64,
    files_written: u64,
    events: u64,
    event_bytes: u64,
    points: u64,
    runs: u64,
    chunks: u64,
}

impl Counts {
    fn plan(&mut self, plan: &SweepPlan) {
        self.points += plan.points.len() as u64;
        self.runs += plan.total_runs() as u64;
        self.chunks += plan.chunk_count() as u64;
    }
}

struct Replay<'a> {
    kind: Kind,
    docs: &'a [PathBuf],
    chunk_size: usize,
    half_chunks: usize,
    out: &'a Path,
}

fn write_file(tr: &mut Tracer, counts: &mut Counts, path: &Path, text: &str) -> Result<(), String> {
    tr.span("checkpoint.write", || checkpoint::write_atomic(path, text))
        .map_err(|e| e.to_string())?;
    counts.files_written += 1;
    Ok(())
}

fn render(tr: &mut Tracer, counts: &mut Counts, json: impl FnOnce() -> String) -> String {
    let text = tr.span("json.render", json);
    counts.render_bytes += text.len() as u64;
    text
}

fn traced_load(tr: &mut Tracer, path: &Path) -> Result<ScenarioFile, String> {
    tr.span("json.scenario_parse", || load_doc(path))
}

/// Replays every CLI command of the workload once, at one worker, and
/// returns what it counted. Artifacts land in `replay.out` under the same
/// names the end-to-end run gives them, so their digests can be compared.
fn replay(replay: &Replay<'_>, tr: &mut Tracer) -> Result<Counts, String> {
    let mut counts = Counts::default();
    for path in replay.docs {
        match replay.kind {
            Kind::Run | Kind::Events => replay_run(replay, path, tr, &mut counts)?,
            Kind::Checkpoint => replay_checkpoint(replay, path, tr, &mut counts)?,
        }
    }
    Ok(counts)
}

fn replay_run(
    replay: &Replay<'_>,
    path: &Path,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    tr.begin("cli.run");
    let doc = traced_load(tr, path)?;
    let plan = tr.span("plan", || SweepPlan::new(&doc, run_chunk_size(&doc)));
    counts.plan(&plan);
    let mut metrics = (replay.kind == Kind::Events).then(MetricsRegistry::new);
    let mut rows = Vec::with_capacity(plan.points.len());
    for (index, (label, _)) in plan.points.iter().enumerate() {
        let entries = tr
            .span("exec", || {
                checkpoint::execute_chunk_metrics(&plan, index, Some(1), metrics.as_mut())
            })
            .map_err(|e| e.to_string())?;
        rows.push(ReportPoint {
            label: label.clone(),
            runs: entries.into_iter().map(|e| e.summary).collect(),
        });
    }
    let text = render(tr, counts, || {
        write_string(&report_json(&doc, &plan.points, &rows))
    });
    let name = &doc.name;
    write_file(
        tr,
        counts,
        &replay.out.join(format!("{name}.report.json")),
        &text,
    )?;
    if let Some(metrics) = &metrics {
        let text = render(tr, counts, || write_string(&metrics_to_json(metrics)));
        write_file(
            tr,
            counts,
            &replay.out.join(format!("{name}.metrics.json")),
            &text,
        )?;
        let events = replay.out.join(format!("{name}.events.jsonl"));
        replay_events(&doc, &plan.points, &events, tr, counts)?;
    }
    tr.end();
    Ok(())
}

/// `--events-out`: the scalar replay with an `EventLog` attached, one JSON
/// line per event, point-major / seed-minor.
fn replay_events(
    doc: &ScenarioFile,
    points: &[(String, Scenario)],
    path: &Path,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    let mut seeds = doc.seeds.seeds();
    seeds.sort_unstable();
    seeds.dedup();
    let mut lines = String::new();
    for (label, scenario) in points {
        for &seed in &seeds {
            let mut log = EventLog::new();
            tr.span("obs.replay", || scenario.run_observed(seed, &mut log))
                .map_err(|e| format!("{label}, seed {seed}: {e}"))?;
            let before = lines.len();
            tr.span("json.render", || {
                for event in log.events() {
                    lines.push_str(&write_line(&event_to_json(event)));
                    lines.push('\n');
                }
            });
            counts.events += log.len() as u64;
            counts.event_bytes += (lines.len() - before) as u64;
        }
    }
    lines.pop();
    counts.render_bytes += lines.len() as u64;
    write_file(tr, counts, path, &lines)
}

/// Reads a checkpoint manifest the way `resume`/`merge` do: the embedded
/// document plus the chunk size fixed at sweep time.
fn read_manifest(dir: &Path) -> Result<(ScenarioFile, usize), String> {
    let doc = checkpoint::read_manifest_doc(dir).map_err(|e| e.to_string())?;
    let path = dir.join("manifest.json");
    let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let tree = mbaa_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let chunk_size = mbaa_json::Ctx::root(&tree)
        .object()
        .and_then(|mut obj| obj.req("chunk_size").and_then(|c| c.ctx().usize()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((doc, chunk_size))
}

/// The body `sweep` and `resume` share: skip every chunk that validates,
/// execute and write the rest.
fn replay_chunks(
    plan: &SweepPlan,
    dir: &Path,
    chunks: std::ops::Range<usize>,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    tr.span("checkpoint.manifest", || {
        checkpoint::ensure_manifest(dir, plan)
    })
    .map_err(|e| e.to_string())?;
    for index in chunks {
        let done = tr
            .span("json.chunk_read", || {
                checkpoint::read_chunk(dir, plan, index)
            })
            .map_err(|e| e.to_string())?;
        if done.is_some() {
            continue;
        }
        let entries = tr
            .span("exec", || checkpoint::execute_chunk(plan, index, Some(1)))
            .map_err(|e| e.to_string())?;
        let text = render(tr, counts, || {
            write_string(&checkpoint::chunk_json(plan, index, &entries))
        });
        write_file(tr, counts, &checkpoint::chunk_path(dir, index), &text)?;
    }
    Ok(())
}

fn replay_checkpoint(
    replay: &Replay<'_>,
    path: &Path,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    let dir = replay.out.join("checkpoint");
    // sweep --chunks 0..half
    tr.begin("cli.sweep");
    let doc = traced_load(tr, path)?;
    let plan = tr.span("plan", || SweepPlan::new(&doc, replay.chunk_size));
    counts.plan(&plan);
    let half = replay.half_chunks.min(plan.chunk_count());
    replay_chunks(&plan, &dir, 0..half, tr, counts)?;
    tr.end();
    // resume
    tr.begin("cli.resume");
    let (doc, chunk_size) = tr.span("json.manifest_read", || read_manifest(&dir))?;
    let plan = tr.span("plan", || SweepPlan::new(&doc, chunk_size));
    replay_chunks(&plan, &dir, 0..plan.chunk_count(), tr, counts)?;
    tr.end();
    // merge --out
    tr.begin("cli.merge");
    let (doc, chunk_size) = tr.span("json.manifest_read", || read_manifest(&dir))?;
    let plan = tr.span("plan", || SweepPlan::new(&doc, chunk_size));
    let mut per_point: Vec<Vec<RunSummary>> = vec![Vec::new(); plan.points.len()];
    for index in 0..plan.chunk_count() {
        let entries = tr
            .span("json.chunk_read", || {
                checkpoint::read_chunk(&dir, &plan, index)
            })
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("chunk {index} missing after resume"))?;
        for entry in entries {
            per_point[entry.point].push(entry.summary);
        }
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
    let text = render(tr, counts, || {
        write_string(&report_json(&doc, &plan.points, &rows))
    });
    write_file(tr, counts, &replay.out.join("merged.report.json"), &text)?;
    tr.end();
    Ok(())
}

// ---------------------------------------------------------------------------
// Engine probes (untraced; timed with the sanctioned clock)
// ---------------------------------------------------------------------------

/// The lanes of one chunk, lowered exactly as the packed executor lowers
/// them (summary observation, per-lane seed and inputs).
fn chunk_lanes(
    plan: &SweepPlan,
    index: usize,
    max_rounds: Option<usize>,
) -> Result<Vec<PackedLane>, String> {
    plan.chunk_range(index)
        .map(|run| {
            let (point, seed) = plan.pair(run);
            let mut scenario = plan.points[point].1.clone();
            if let Some(budget) = max_rounds {
                scenario.max_rounds = budget;
            }
            let mut config = scenario.lower(seed).map_err(|e| e.to_string())?;
            config.observe = Observe::Summary;
            Ok(PackedLane {
                config,
                inputs: scenario.initial_values(seed),
            })
        })
        .collect()
}

/// Splits lanes into the executor's packs: consecutive, at most
/// `width` lanes, shape-compatible with the pack's first lane.
fn packs(lanes: &[PackedLane], width: usize) -> Vec<&[PackedLane]> {
    let mut out = Vec::new();
    let mut start = 0;
    for i in 0..lanes.len() {
        if i - start == width
            || (i > start && !mbaa::core::shape_compatible(&lanes[start].config, &lanes[i].config))
        {
            out.push(&lanes[start..i]);
            start = i;
        }
    }
    if start < lanes.len() {
        out.push(&lanes[start..]);
    }
    out
}

/// Runs lanes pack by pack and returns (seconds, lane-rounds retired).
fn run_lanes<O: Observer>(
    lanes: &[PackedLane],
    width: usize,
    observer: &mut O,
) -> Result<(f64, u64), String> {
    let clock = Stopwatch::start();
    let mut rounds = 0u64;
    for pack in packs(lanes, width) {
        for outcome in BatchEngine::run_packed_observed(pack, observer) {
            rounds += outcome.map_err(|e| e.to_string())?.rounds_executed as u64;
        }
    }
    Ok((clock.elapsed_secs(), rounds))
}

/// Engine-level numbers for one workload.
struct CoreProbe {
    lane_rounds: u64,
    seconds: f64,
    phase_nanos: [u64; 4],
}

/// Every run of the workload through the public `run_observed` entry
/// points with a `PhaseProfiler` attached: the batch engine in executor
/// packs, or — for the events workload — the scalar engine, which is what
/// its `--events-out` replay runs.
fn core_probe(kind: Kind, plans: &[SweepPlan]) -> Result<CoreProbe, String> {
    let mut profiler = PhaseProfiler::new();
    let mut lane_rounds = 0u64;
    let mut seconds = 0.0;
    for plan in plans {
        let (mut plan_seconds, mut plan_rounds) = (0.0, 0u64);
        for index in 0..plan.chunk_count() {
            let lanes = chunk_lanes(plan, index, None)?;
            let width = if kind == Kind::Events { 1 } else { BATCH_WIDTH };
            let (s, r) = run_lanes(&lanes, width, &mut profiler)?;
            plan_seconds += s;
            plan_rounds += r;
        }
        // Per document, so each engine path of a mixed workload shows.
        eprintln!(
            "core path {:<16} {plan_rounds:>9} lane-rounds {:>12.0} ns/lane-round",
            plan.doc.name,
            plan_seconds * 1e9 / plan_rounds.max(1) as f64
        );
        seconds += plan_seconds;
        lane_rounds += plan_rounds;
    }
    let breakdown = profiler.breakdown();
    let mut phase_nanos = [0u64; 4];
    for row in &breakdown.rows {
        phase_nanos[row.phase.index()] = row.total_nanos;
    }
    Ok(CoreProbe {
        lane_rounds,
        seconds,
        phase_nanos,
    })
}

/// The first `count` runs of a plan as lanes (crossing chunk boundaries).
fn leading_lanes(
    plan: &SweepPlan,
    count: usize,
    max_rounds: Option<usize>,
) -> Result<Vec<PackedLane>, String> {
    let mut lanes = Vec::with_capacity(count);
    let mut index = 0;
    while lanes.len() < count && index < plan.chunk_count() {
        lanes.extend(chunk_lanes(plan, index, max_rounds)?);
        index += 1;
    }
    lanes.truncate(count);
    Ok(lanes)
}

/// Per-run engine set-up in microseconds, by differencing two round
/// budgets over the same lanes: time = runs × setup + lane_rounds × c.
fn setup_probe(kind: Kind, plan: &SweepPlan) -> Result<f64, String> {
    let width = if kind == Kind::Events { 1 } else { BATCH_WIDTH };
    let count = 2 * BATCH_WIDTH;
    let short = leading_lanes(plan, count, Some(SHORT_BUDGET))?;
    let long = leading_lanes(plan, count, Some(LONG_BUDGET))?;
    let mut samples = Vec::new();
    for _ in 0..5 {
        let (t_short, r_short) = run_lanes(&short, width, &mut NoopObserver)?;
        let (t_long, r_long) = run_lanes(&long, width, &mut NoopObserver)?;
        let per_round = if r_long > r_short {
            (t_long - t_short) / (r_long - r_short) as f64
        } else {
            0.0
        };
        samples.push((t_short - per_round * r_short as f64) / short.len() as f64 * 1e6);
    }
    Ok(median(&mut samples))
}

/// One 32-lane batch against the same 32 runs one lane at a time:
/// (time of 32 single-lane runs) / (time of the batch).
fn batching_probe(plan: &SweepPlan) -> Result<f64, String> {
    let lanes = leading_lanes(plan, BATCH_WIDTH, None)?;
    let mut samples = Vec::new();
    for _ in 0..3 {
        let (batched, _) = run_lanes(&lanes, BATCH_WIDTH, &mut NoopObserver)?;
        let (single, _) = run_lanes(&lanes, 1, &mut NoopObserver)?;
        samples.push(single / batched);
    }
    Ok(median(&mut samples))
}

/// Mean pack occupancy over every chunk the workload executes, weighted
/// by lanes: total lanes / total batch slots.
fn occupancy(plans: &[SweepPlan]) -> Result<f64, String> {
    let mut lanes = 0.0;
    let mut slots = 0.0;
    for plan in plans {
        for index in 0..plan.chunk_count() {
            let mut configs: Vec<ExperimentConfig> = Vec::new();
            let mut last_point = None;
            let mut seeds = Vec::new();
            for run in plan.chunk_range(index) {
                let (point, seed) = plan.pair(run);
                if last_point.is_some_and(|p| p != point) {
                    let p: usize = last_point.expect("checked above");
                    configs.push(plan.points[p].1.to_experiment(std::mem::take(&mut seeds)));
                }
                last_point = Some(point);
                seeds.push(seed);
            }
            if let Some(p) = last_point {
                configs.push(plan.points[p].1.to_experiment(seeds));
            }
            let occ = mean_pack_occupancy(&configs).map_err(|e| e.to_string())?;
            let n = plan.chunk_range(index).len() as f64;
            lanes += n;
            slots += n / occ;
        }
    }
    Ok(if slots > 0.0 { lanes / slots } else { 1.0 })
}

/// Execution of every chunk at `workers` threads, untraced: the numerator
/// side of `exec.scaling_efficiency`.
fn exec_probe(plans: &[SweepPlan], workers: usize) -> Result<f64, String> {
    let clock = Stopwatch::start();
    for plan in plans {
        for index in 0..plan.chunk_count() {
            black_box(
                checkpoint::execute_chunk(plan, index, Some(workers)).map_err(|e| e.to_string())?,
            );
        }
    }
    Ok(clock.elapsed_secs())
}

// ---------------------------------------------------------------------------
// trace
// ---------------------------------------------------------------------------

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let kind = match args.first().map(String::as_str) {
        Some("run") => Kind::Run,
        Some("events") => Kind::Events,
        Some("checkpoint") => Kind::Checkpoint,
        _ => return Err("trace wants <run|events|checkpoint>".to_string()),
    };
    let chunk_size: usize = parse_arg(args, 1, "chunk-size")?;
    let half_chunks: usize = parse_arg(args, 2, "half-chunks")?;
    let workers: usize = parse_arg(args, 3, "workers")?;
    let seconds: f64 = parse_arg(args, 4, "seconds")?;
    let out = PathBuf::from(args.get(5).ok_or("missing <out-dir>")?);
    let docs: Vec<PathBuf> = args[6..].iter().map(PathBuf::from).collect();
    if docs.is_empty() {
        return Err("trace needs at least one scenario file".to_string());
    }
    let clock = Stopwatch::start();

    // Untraced and traced replays alternate until half the budget is
    // spent; each traced pass is compared with the untraced one before it.
    let mut walls_untraced = Vec::new();
    let mut walls_traced = Vec::new();
    let mut self_s: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut counts = Counts::default();
    let mut passes = 0usize;
    while passes == 0 || clock.elapsed_secs() < seconds / 2.0 {
        for on in [false, true] {
            let dir = out.join(if on { "traced" } else { "untraced" });
            if dir.exists() {
                fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let plan = Replay {
                kind,
                docs: &docs,
                chunk_size,
                half_chunks,
                out: &dir,
            };
            let mut tracer = Tracer::new(on);
            let t0 = tracer.clock.elapsed_secs();
            let counted = replay(&plan, &mut tracer)?;
            let wall = tracer.clock.elapsed_secs() - t0;
            if on {
                walls_traced.push(wall);
                for (name, s) in tracer.self_times() {
                    *self_s.entry(name).or_insert(0.0) += s;
                }
                counts = counted;
            } else {
                walls_untraced.push(wall);
            }
        }
        passes += 1;
    }
    let traced_total: f64 = walls_traced.iter().sum();
    let per_pass = |name: &str| self_s.get(name).copied().unwrap_or(0.0) / passes as f64;
    let traced_wall = traced_total / passes as f64;
    let untraced_wall = walls_untraced.iter().sum::<f64>() / passes as f64;

    // Probes over the workload's plans.
    let plans: Vec<SweepPlan> = docs
        .iter()
        .map(|path| {
            let doc = load_doc(path)?;
            let size = match kind {
                Kind::Checkpoint => chunk_size,
                Kind::Run | Kind::Events => run_chunk_size(&doc),
            };
            Ok(SweepPlan::new(&doc, size))
        })
        .collect::<Result<_, String>>()?;
    let exec_parallel = exec_probe(&plans, workers)?;
    let core = core_probe(kind, &plans)?;
    let setup_us = setup_probe(kind, &plans[0])?;
    let k32_over_k1 = batching_probe(&plans[0])?;
    let pack_occupancy = occupancy(&plans)?;

    let exec_1 = per_pass("exec");
    let lane_rounds = core.lane_rounds.max(1) as f64;
    let phase_ns = |phase: Phase| core.phase_nanos[phase.index()] as f64 / lane_rounds;
    let ms = |s: f64| s * 1e3;
    let parse_s = per_pass("json.scenario_parse")
        + per_pass("json.manifest_read")
        + per_pass("json.chunk_read");
    let metrics: Vec<(&str, f64)> = vec![
        (
            "json.scenario_parse_ms",
            ms(per_pass("json.scenario_parse")),
        ),
        ("json.parse_ms", ms(parse_s)),
        ("json.render_ms", ms(per_pass("json.render"))),
        ("json.render_bytes", counts.render_bytes as f64),
        (
            "checkpoint.write_ms",
            ms(per_pass("checkpoint.write") + per_pass("checkpoint.manifest")),
        ),
        ("checkpoint.files_written", counts.files_written as f64),
        ("plan.ms", ms(per_pass("plan"))),
        ("plan.points", counts.points as f64),
        ("plan.runs", counts.runs as f64),
        ("plan.chunks", counts.chunks as f64),
        ("exec.ms", ms(exec_1)),
        ("exec.share", exec_1 / traced_wall),
        (
            "exec.scaling_efficiency",
            exec_1 / (exec_parallel * workers as f64),
        ),
        ("sim.pack_occupancy", pack_occupancy),
        ("core.lane_rounds", core.lane_rounds as f64),
        ("core.ns_per_lane_round", core.seconds * 1e9 / lane_rounds),
        ("core.setup_us_per_run", setup_us),
        ("core.k32_over_k1", k32_over_k1),
        (
            "adversary.ns_per_lane_round",
            phase_ns(Phase::AdversaryPlan),
        ),
        ("net.ns_per_lane_round", phase_ns(Phase::Exchange)),
        ("msr.ns_per_lane_round", phase_ns(Phase::MsrApply)),
        ("record.ns_per_lane_round", phase_ns(Phase::Record)),
        ("obs.events", counts.events as f64),
        ("obs.event_bytes", counts.event_bytes as f64),
        ("trace.wall_ms", ms(traced_wall)),
        ("trace.overhead_share", traced_wall / untraced_wall - 1.0),
    ];

    // Self-time breakdown: the rows add up to the traced wall time.
    eprintln!(
        "traced replay at 1 worker, {passes} pass(es): wall {:.1} ms traced, {:.1} ms untraced",
        ms(traced_wall),
        ms(untraced_wall)
    );
    let attributed: f64 = self_s.values().sum::<f64>() / passes as f64;
    for (name, s) in &self_s {
        let s = s / passes as f64;
        eprintln!(
            "  {name:<22} {:>10.2} ms self  {:>6.1}%",
            ms(s),
            100.0 * s / traced_wall
        );
    }
    eprintln!(
        "  {:<22} {:>10.2} ms self  {:>6.1}%",
        "(outside spans)",
        ms(traced_wall - attributed),
        100.0 * (traced_wall - attributed) / traced_wall
    );

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {value}")
        })
        .collect();
    println!("{{{}}}", body.join(", "));
    Ok(())
}

//! Checkpointed sweep execution.
//!
//! A sweep flattens its `(point, seed)` grid into one global run list —
//! point-major, seed-minor — and shards that list into fixed-size chunks.
//! Each completed chunk is written to its own `chunk-NNNNN.json` next to a
//! `manifest.json` that embeds the scenario document and a fingerprint of
//! its canonical text. Writes are atomic (`.tmp` + rename), so a killed
//! run leaves only whole chunks behind; `resume` re-reads the manifest,
//! skips every chunk that validates, and executes the rest. Because every
//! run is independently seeded, the merged result is *byte-identical* to
//! an uninterrupted run — the integration tests assert exactly that.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

use mbaa::obs::Sinks;
use mbaa::prelude::*;
use mbaa_json::schema::{run_summary_from, run_summary_to_json};
use mbaa_json::{parse, write_string, Ctx, Json, ScenarioFile};

/// Format tag of `manifest.json`.
pub const MANIFEST_FORMAT: &str = "mbaa-checkpoint/1";
/// Format tag of every `chunk-NNNNN.json`.
pub const CHUNK_FORMAT: &str = "mbaa-chunk/1";
/// Default runs per chunk.
pub const DEFAULT_CHUNK_SIZE: usize = 64;

/// FNV-1a 64 over the canonical document text, rendered as 16 lowercase
/// hex digits. Chunks carry it so a checkpoint directory can never be
/// silently resumed against an edited scenario file.
///
/// ```
/// use mbaa_cli::checkpoint::fingerprint;
///
/// assert_eq!(fingerprint(""), "cbf29ce484222325");
/// assert_eq!(fingerprint("mbaa"), fingerprint("mbaa"));
/// assert_ne!(fingerprint("mbaa"), fingerprint("mbab"));
/// ```
#[must_use]
pub fn fingerprint(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Everything fixed about a sweep before any run executes: the document,
/// its expanded points, the normalized seed batch, and the chunk grid.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// The scenario document driving the sweep.
    pub doc: ScenarioFile,
    /// Fingerprint of the document's canonical text.
    pub fingerprint: String,
    /// Expanded `(label, scenario)` sweep points, in axis order.
    pub points: Vec<(String, Scenario)>,
    /// The seed batch, sorted and deduplicated (the same normalization
    /// every `Runner` applies, so all execution paths agree on the runs).
    pub seeds: Vec<u64>,
    /// Runs per chunk.
    pub chunk_size: usize,
}

impl SweepPlan {
    /// Plans a sweep: expands the document and fixes the chunk grid.
    #[must_use]
    pub fn new(doc: &ScenarioFile, chunk_size: usize) -> SweepPlan {
        SweepPlan {
            fingerprint: fingerprint(&doc.to_json_string()),
            points: doc.points(),
            seeds: doc.seeds.normalized(),
            chunk_size: chunk_size.max(1),
            doc: doc.clone(),
        }
    }

    /// Total runs in the flattened grid.
    #[must_use]
    pub fn total_runs(&self) -> usize {
        self.points.len() * self.seeds.len()
    }

    /// Number of chunks the grid shards into.
    #[must_use]
    pub fn chunk_count(&self) -> usize {
        self.total_runs().div_ceil(self.chunk_size)
    }

    /// The global run indices chunk `index` covers.
    #[must_use]
    pub fn chunk_range(&self, index: usize) -> Range<usize> {
        let start = index * self.chunk_size;
        start..(start + self.chunk_size).min(self.total_runs())
    }

    /// Decodes a global run index into its `(point, seed)` pair
    /// (point-major, seed-minor).
    #[must_use]
    pub fn pair(&self, run: usize) -> (usize, u64) {
        (run / self.seeds.len(), self.seeds[run % self.seeds.len()])
    }

    /// The manifest document for this plan.
    #[must_use]
    pub fn manifest_json(&self) -> Json {
        Json::object(vec![
            ("format", Json::str(MANIFEST_FORMAT)),
            ("fingerprint", Json::str(&self.fingerprint)),
            ("chunk_size", Json::usize(self.chunk_size)),
            ("total_runs", Json::usize(self.total_runs())),
            ("chunks", Json::usize(self.chunk_count())),
            ("doc", self.doc.to_json()),
        ])
    }
}

/// One completed run inside a chunk file.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkEntry {
    /// Index into the plan's point list.
    pub point: usize,
    /// The seed that drove the run.
    pub seed: u64,
    /// The run's summary row.
    pub summary: RunSummary,
}

/// A checkpoint failure, with enough context to say *which* file broke.
#[derive(Debug)]
pub struct CheckpointError(pub String);

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CheckpointError {}

fn fail(message: impl Into<String>) -> CheckpointError {
    CheckpointError(message.into())
}

/// The file name of chunk `index` (`chunk-00042.json`).
#[must_use]
pub fn chunk_file_name(index: usize) -> String {
    format!("chunk-{index:05}.json")
}

/// Writes `text` (plus a trailing newline) atomically: the bytes land in
/// `<path>.tmp` first and are renamed into place, so readers — and
/// resumed runs — never observe a half-written file.
pub fn write_atomic(path: &Path, text: &str) -> Result<(), CheckpointError> {
    write_atomic_with(path, |out| {
        out.write_all(text.as_bytes())?;
        out.write_all(b"\n")
    })
}

/// Streams a file atomically: `fill` writes the bytes through a buffered
/// writer into `<path>.tmp` (the full file name with `.tmp` appended), and
/// the finished file is renamed into place.
pub(crate) fn write_atomic_with(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> Result<(), CheckpointError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let written = File::create(&tmp).and_then(|file| {
        let mut out = BufWriter::new(file);
        fill(&mut out)?;
        out.flush()
    });
    written.map_err(|e| fail(format!("{}: {e}", tmp.display())))?;
    fs::rename(&tmp, path).map_err(|e| fail(format!("{}: {e}", path.display())))?;
    Ok(())
}

/// Renders one chunk file.
#[must_use]
pub fn chunk_json(plan: &SweepPlan, index: usize, entries: &[ChunkEntry]) -> Json {
    Json::object(vec![
        ("format", Json::str(CHUNK_FORMAT)),
        ("fingerprint", Json::str(&plan.fingerprint)),
        ("chunk", Json::usize(index)),
        (
            "entries",
            Json::array(
                entries
                    .iter()
                    .map(|entry| {
                        Json::object(vec![
                            ("point", Json::usize(entry.point)),
                            ("seed", Json::u64(entry.seed)),
                            ("summary", run_summary_to_json(&entry.summary)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Reads and fully validates one chunk file against the plan: format tag,
/// fingerprint, chunk index, entry count, and every entry's `(point,
/// seed)` pair must match the grid exactly. Any mismatch is an error —
/// a missing file is `Ok(None)` (the chunk simply has not run yet).
pub fn read_chunk(
    dir: &Path,
    plan: &SweepPlan,
    index: usize,
) -> Result<Option<Vec<ChunkEntry>>, CheckpointError> {
    let path = dir.join(chunk_file_name(index));
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(fail(format!("{}: {e}", path.display()))),
    };
    let invalid = |message: String| fail(format!("{}: {message}", path.display()));
    let tree = parse(&text).map_err(|e| invalid(format!("not valid JSON: {e}")))?;
    let entries = (|| -> Result<Vec<ChunkEntry>, String> {
        let ctx = Ctx::root(&tree);
        let mut obj = ctx.object().map_err(|e| e.to_string())?;
        let read_str = |c: &mbaa_json::ChildCtx<'_>| c.ctx().str().map(str::to_string);
        let format =
            read_str(&obj.req("format").map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
        if format != CHUNK_FORMAT {
            return Err(format!("unsupported chunk format {format:?}"));
        }
        let fp = read_str(&obj.req("fingerprint").map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        if fp != plan.fingerprint {
            return Err(format!(
                "fingerprint {fp} does not match the scenario document ({}); \
                 the checkpoint belongs to a different sweep",
                plan.fingerprint
            ));
        }
        let chunk_child = obj.req("chunk").map_err(|e| e.to_string())?;
        let chunk = chunk_child.ctx().usize().map_err(|e| e.to_string())?;
        if chunk != index {
            return Err(format!("file claims chunk {chunk}, expected {index}"));
        }
        let range = plan.chunk_range(index);
        let entries_child = obj.req("entries").map_err(|e| e.to_string())?;
        let items = entries_child.ctx().array().map_err(|e| e.to_string())?;
        if items.len() != range.len() {
            return Err(format!(
                "{} entries, expected {} (incomplete chunk)",
                items.len(),
                range.len()
            ));
        }
        let mut entries = Vec::with_capacity(items.len());
        for (offset, item) in items.iter().enumerate() {
            let mut entry = item.ctx().object().map_err(|e| e.to_string())?;
            let point_child = entry.req("point").map_err(|e| e.to_string())?;
            let point = point_child.ctx().usize().map_err(|e| e.to_string())?;
            let seed_child = entry.req("seed").map_err(|e| e.to_string())?;
            let seed = seed_child.ctx().u64().map_err(|e| e.to_string())?;
            let summary_child = entry.req("summary").map_err(|e| e.to_string())?;
            let summary = run_summary_from(summary_child.ctx()).map_err(|e| e.to_string())?;
            let (want_point, want_seed) = plan.pair(range.start + offset);
            if (point, seed) != (want_point, want_seed) {
                return Err(format!(
                    "entry {offset} is (point {point}, seed {seed}), \
                     expected (point {want_point}, seed {want_seed})"
                ));
            }
            if summary.seed != seed {
                return Err(format!(
                    "entry {offset}: summary seed {} disagrees with entry seed {seed}",
                    summary.seed
                ));
            }
            entries.push(ChunkEntry {
                point,
                seed,
                summary,
            });
        }
        Ok(entries)
    })()
    .map_err(invalid)?;
    Ok(Some(entries))
}

/// Initializes (or re-validates) a checkpoint directory for the plan: the
/// directory is created if needed, and a manifest is written on first use
/// or checked against the plan's fingerprint on every later use.
pub fn ensure_manifest(dir: &Path, plan: &SweepPlan) -> Result<(), CheckpointError> {
    fs::create_dir_all(dir).map_err(|e| fail(format!("{}: {e}", dir.display())))?;
    let path = dir.join("manifest.json");
    if path.exists() {
        let existing = read_manifest_doc(dir)?;
        let fp = fingerprint(&existing.to_json_string());
        if fp != plan.fingerprint {
            return Err(fail(format!(
                "{}: checkpoint was created for a different scenario document \
                 (fingerprint {fp}, this sweep is {})",
                path.display(),
                plan.fingerprint
            )));
        }
        return Ok(());
    }
    write_atomic(&path, &write_string(&plan.manifest_json()))
}

/// Reads the scenario document embedded in a checkpoint's manifest.
pub fn read_manifest_doc(dir: &Path) -> Result<ScenarioFile, CheckpointError> {
    let path = dir.join("manifest.json");
    let text = fs::read_to_string(&path).map_err(|e| fail(format!("{}: {e}", path.display())))?;
    let invalid = |message: String| fail(format!("{}: {message}", path.display()));
    let tree = parse(&text).map_err(|e| invalid(format!("not valid JSON: {e}")))?;
    let ctx = Ctx::root(&tree);
    let mut obj = ctx.object().map_err(|e| invalid(e.to_string()))?;
    let format = obj
        .req("format")
        .and_then(|c| c.ctx().str().map(str::to_string))
        .map_err(|e| invalid(e.to_string()))?;
    if format != MANIFEST_FORMAT {
        return Err(invalid(format!("unsupported manifest format {format:?}")));
    }
    let doc_ctx = obj.req("doc").map_err(|e| invalid(e.to_string()))?;
    ScenarioFile::from_json(doc_ctx.ctx().json()).map_err(|e| invalid(e.to_string()))
}

/// The path of chunk `index` inside `dir`.
#[must_use]
pub fn chunk_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(chunk_file_name(index))
}

/// Executes the runs of one chunk on the work-stealing pool and returns
/// the entries in grid order. Consecutive runs of the same point form one
/// seed segment, and all of a chunk's segments execute as **one**
/// cross-point packed pool (`mbaa::stream_segments`): shape-compatible
/// neighbouring points share seed-batched engine launches, so a chunk
/// spanning a point boundary no longer pays one under-full launch per
/// point. Chunk bytes depend only on the summaries, which are
/// bit-identical to the per-point path, so resumable checkpoints stay
/// byte-identical.
pub fn execute_chunk(
    plan: &SweepPlan,
    index: usize,
    workers: Option<usize>,
) -> Result<Vec<ChunkEntry>, CheckpointError> {
    execute_chunk_metrics(plan, index, workers, None)
}

/// [`execute_chunk`] with an optional metrics sink: when present, every
/// run's telemetry is folded into it by `mbaa::stream_segments`. The
/// summaries are bit-identical either way, and the
/// merged registry is bit-identical for every worker count — counter
/// addition commutes, so completion order cannot show through.
pub fn execute_chunk_metrics(
    plan: &SweepPlan,
    index: usize,
    workers: Option<usize>,
    metrics: Option<&mut MetricsRegistry>,
) -> Result<Vec<ChunkEntry>, CheckpointError> {
    let sinks = Sinks {
        metrics,
        ..Sinks::default()
    };
    execute_chunk_observed(plan, index, workers, sinks)
}

/// [`execute_chunk`] feeding every attached sink from the packed run (see
/// `mbaa::stream_segments`): the registry, the chunk's events in grid
/// order, and the phase profile. The summaries are bit-identical either
/// way.
pub(crate) fn execute_chunk_observed(
    plan: &SweepPlan,
    index: usize,
    workers: Option<usize>,
    sinks: Sinks<'_>,
) -> Result<Vec<ChunkEntry>, CheckpointError> {
    let range = plan.chunk_range(index);
    // Gather the chunk's per-point seed segments in grid order.
    let mut segments: Vec<(Scenario, Vec<u64>)> = Vec::new();
    let mut segment_points: Vec<usize> = Vec::new();
    let mut cursor = range.start;
    while cursor < range.end {
        let (point, _) = plan.pair(cursor);
        // Extend over every consecutive run of the same point.
        let mut stop = cursor + 1;
        while stop < range.end && plan.pair(stop).0 == point {
            stop += 1;
        }
        let seeds: Vec<u64> = (cursor..stop).map(|run| plan.pair(run).1).collect();
        segments.push((plan.points[point].1.clone(), seeds));
        segment_points.push(point);
        cursor = stop;
    }
    let results = mbaa::stream_segments(&segments, workers, sinks);
    let mut entries = Vec::with_capacity(range.len());
    for (&point, result) in segment_points.iter().zip(results) {
        let result = result.map_err(|e| fail(format!("point {point} failed: {e}")))?;
        for summary in result.runs {
            entries.push(ChunkEntry {
                point,
                seed: summary.seed,
                summary,
            });
        }
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_writes_stage_through_the_full_name_plus_tmp() {
        let dir = std::env::temp_dir().join(format!("mbaa-atomic-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        // A directory squatting on `r.jsonl.tmp` makes the staging step
        // fail, and the error names the staging path.
        fs::create_dir_all(dir.join("r.jsonl.tmp")).unwrap();
        let err = write_atomic(&dir.join("r.jsonl"), "{}").unwrap_err();
        assert!(err.0.contains("r.jsonl.tmp"), "{err}");
        // `.json` files keep staging through `<name>.json.tmp`.
        write_atomic(&dir.join("r.json"), "{}").unwrap();
        assert_eq!(fs::read_to_string(dir.join("r.json")).unwrap(), "{}\n");
        assert!(!dir.join("r.json.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}

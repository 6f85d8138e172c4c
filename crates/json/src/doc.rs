//! The committed scenario-file document (`*.scenario.json`).
//!
//! A [`ScenarioFile`] wraps one [`Scenario`] with the metadata the CLI and
//! the reproduction gallery need: a stable name, the paper table/figure it
//! reproduces, the exact seed batch, and (optionally) one sweep axis. The
//! format string `"mbaa-scenario/1"` is required at the top of every file
//! so future revisions can evolve without guessing.
//!
//! ```
//! use mbaa_json::ScenarioFile;
//!
//! let text = r#"{
//!   "format": "mbaa-scenario/1",
//!   "name": "demo",
//!   "scenario": {"model": "garay", "n": 9, "f": 2},
//!   "seeds": {"start": 0, "count": 3}
//! }"#;
//! let file = ScenarioFile::parse_str(text)?;
//! assert_eq!(file.seeds.seeds(), vec![0, 1, 2]);
//! assert_eq!(file.points().len(), 1);
//! // Canonical rendering is stable under a reparse.
//! let canon = file.to_json_string();
//! assert_eq!(ScenarioFile::parse_str(&canon)?.to_json_string(), canon);
//! # Ok::<(), mbaa_json::JsonError>(())
//! ```

use mbaa::prelude::*;

use crate::ctx::Ctx;
use crate::error::{JsonError, SchemaError};
use crate::schema::{scenario_from, scenario_to_json, topology_from, topology_to_json};
use crate::value::Json;
use crate::write::write_string;

/// The format tag every scenario file must carry.
pub const FORMAT: &str = "mbaa-scenario/1";

/// How a file names its seed batch: an explicit list or a contiguous
/// range. Both expand to the same `Vec<u64>`; the range form keeps large
/// committed batches readable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeedSpec {
    /// An explicit seed list, as written (runs execute the
    /// [`normalized`](SeedSpec::normalized) batch).
    List(Vec<u64>),
    /// The contiguous batch `start, start+1, …, start+count-1`.
    Range {
        /// First seed of the batch.
        start: u64,
        /// Number of seeds.
        count: u64,
    },
}

impl SeedSpec {
    /// Expands to the explicit seed list.
    #[must_use]
    pub fn seeds(&self) -> Vec<u64> {
        match self {
            SeedSpec::List(seeds) => seeds.clone(),
            SeedSpec::Range { start, count } => (0..*count).map(|i| start + i).collect(),
        }
    }

    /// The batch every execution path runs: the expanded seeds sorted and
    /// deduplicated by [`mbaa::sim::normalize_seeds`], the normalization
    /// every `Runner` applies.
    #[must_use]
    pub fn normalized(&self) -> Vec<u64> {
        mbaa::sim::normalize_seeds(self.seeds())
    }

    /// The number of seeds as written, counted without expanding a range.
    #[must_use]
    pub fn count(&self) -> u64 {
        match self {
            SeedSpec::List(seeds) => seeds.len() as u64,
            SeedSpec::Range { count, .. } => *count,
        }
    }

    /// The number of seeds in the [`normalized`](SeedSpec::normalized)
    /// batch; a range normalizes to itself, so it is not expanded.
    #[must_use]
    pub fn normalized_count(&self) -> u64 {
        match self {
            SeedSpec::List(_) => self.normalized().len() as u64,
            SeedSpec::Range { count, .. } => *count,
        }
    }

    fn to_json(&self) -> Json {
        match self {
            SeedSpec::List(seeds) => Json::array(seeds.iter().map(|&s| Json::u64(s)).collect()),
            SeedSpec::Range { start, count } => Json::object(vec![
                ("start", Json::u64(*start)),
                ("count", Json::u64(*count)),
            ]),
        }
    }

    fn from_ctx(ctx: Ctx<'_>) -> Result<Self, SchemaError> {
        if let Ok(items) = ctx.array() {
            let seeds = items
                .iter()
                .map(|s| s.ctx().u64())
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(SeedSpec::List(seeds));
        }
        let mut obj = ctx.object()?;
        let start = obj.req("start")?.ctx().u64()?;
        let count_field = obj.req("count")?;
        let count = count_field.ctx().u64()?;
        obj.finish()?;
        if start.checked_add(count).is_none() {
            return Err(ctx.err("seed range overflows u64"));
        }
        // The largest batch a `Vec<u64>` can hold.
        let max = isize::MAX as u64 / 8;
        if count > max {
            return Err(count_field
                .ctx()
                .err(format!("{count} seeds exceed the largest range, {max}")));
        }
        Ok(SeedSpec::Range { start, count })
    }
}

/// One sweep axis over the base scenario. Each variant maps onto the
/// matching [`Scenario`] sweep constructor, so a committed file and the
/// equivalent example code expand to identical point lists.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepSpec {
    /// [`Scenario::sweep_n`]: `n` from the model's minimum up to
    /// minimum + `extra`.
    N {
        /// How far past the minimum to sweep.
        extra: usize,
    },
    /// [`Scenario::sweep_f`]: one point per fault budget, holding the
    /// margin above the bound.
    F {
        /// Fault budgets to sweep.
        values: Vec<usize>,
    },
    /// [`Scenario::sweep_connectivity`]: one point per topology.
    Connectivity {
        /// Topologies to sweep.
        topologies: Vec<Topology>,
    },
    /// [`Scenario::sweep_degrees`]: one point per target degree.
    Degrees {
        /// Degrees to sweep.
        degrees: Vec<usize>,
    },
    /// [`Scenario::sweep_churn`]: one point per edge flip rate.
    Churn {
        /// Per-round edge flip rates to sweep.
        flip_rates: Vec<f64>,
    },
}

impl SweepSpec {
    /// Expands the axis against `base` into labelled sweep points, one
    /// `(label, scenario)` pair per point, in axis order.
    #[must_use]
    pub fn points(&self, base: &Scenario) -> Vec<(String, Scenario)> {
        let sweep = match self {
            SweepSpec::N { extra } => base.sweep_n(*extra),
            SweepSpec::F { values } => base.sweep_f(values.iter().copied()),
            SweepSpec::Connectivity { topologies } => {
                base.sweep_connectivity(topologies.iter().cloned())
            }
            SweepSpec::Degrees { degrees } => base.sweep_degrees(degrees.iter().copied()),
            SweepSpec::Churn { flip_rates } => base.sweep_churn(flip_rates.iter().copied()),
        };
        sweep
            .points()
            .iter()
            .map(|point| (self.label(point), point.clone()))
            .collect()
    }

    fn label(&self, point: &Scenario) -> String {
        match self {
            SweepSpec::N { .. } => format!("n={}", point.n),
            SweepSpec::F { .. } => format!("f={}", point.f),
            SweepSpec::Connectivity { .. } | SweepSpec::Degrees { .. } => {
                format!("topology={}", topology_label(&point.topology))
            }
            SweepSpec::Churn { .. } => match &point.schedule {
                Some(TopologySchedule::SeededChurn { flip_rate, .. }) => {
                    format!("flip_rate={flip_rate}")
                }
                _ => "flip_rate=?".to_string(),
            },
        }
    }

    fn to_json(&self) -> Json {
        match self {
            SweepSpec::N { extra } => Json::object(vec![(
                "n",
                Json::object(vec![("extra", Json::usize(*extra))]),
            )]),
            SweepSpec::F { values } => Json::object(vec![(
                "f",
                Json::object(vec![(
                    "values",
                    Json::array(values.iter().map(|&v| Json::usize(v)).collect()),
                )]),
            )]),
            SweepSpec::Connectivity { topologies } => Json::object(vec![(
                "connectivity",
                Json::object(vec![(
                    "topologies",
                    Json::array(topologies.iter().map(topology_to_json).collect()),
                )]),
            )]),
            SweepSpec::Degrees { degrees } => Json::object(vec![(
                "degrees",
                Json::object(vec![(
                    "degrees",
                    Json::array(degrees.iter().map(|&d| Json::usize(d)).collect()),
                )]),
            )]),
            SweepSpec::Churn { flip_rates } => Json::object(vec![(
                "churn",
                Json::object(vec![(
                    "flip_rates",
                    Json::array(flip_rates.iter().map(|&r| Json::f64(r)).collect()),
                )]),
            )]),
        }
    }

    fn from_ctx(ctx: Ctx<'_>) -> Result<Self, SchemaError> {
        let (tag, payload) = ctx.variant()?;
        match (tag, payload) {
            ("n", Some(child)) => {
                let mut obj = child.ctx().object()?;
                let extra = obj.req("extra")?.ctx().usize()?;
                obj.finish()?;
                Ok(SweepSpec::N { extra })
            }
            ("f", Some(child)) => {
                let mut obj = child.ctx().object()?;
                let values = obj
                    .req("values")?
                    .ctx()
                    .array()?
                    .iter()
                    .map(|v| v.ctx().usize())
                    .collect::<Result<Vec<_>, _>>()?;
                obj.finish()?;
                Ok(SweepSpec::F { values })
            }
            ("connectivity", Some(child)) => {
                let mut obj = child.ctx().object()?;
                let topologies = obj
                    .req("topologies")?
                    .ctx()
                    .array()?
                    .iter()
                    .map(|t| topology_from(t.ctx()))
                    .collect::<Result<Vec<_>, _>>()?;
                obj.finish()?;
                Ok(SweepSpec::Connectivity { topologies })
            }
            ("degrees", Some(child)) => {
                let mut obj = child.ctx().object()?;
                let degrees = obj
                    .req("degrees")?
                    .ctx()
                    .array()?
                    .iter()
                    .map(|d| d.ctx().usize())
                    .collect::<Result<Vec<_>, _>>()?;
                obj.finish()?;
                Ok(SweepSpec::Degrees { degrees })
            }
            ("churn", Some(child)) => {
                let mut obj = child.ctx().object()?;
                let flip_rates = obj
                    .req("flip_rates")?
                    .ctx()
                    .array()?
                    .iter()
                    .map(|r| r.ctx().f64())
                    .collect::<Result<Vec<_>, _>>()?;
                obj.finish()?;
                Ok(SweepSpec::Churn { flip_rates })
            }
            (other, _) => Err(ctx.err(format!(
                "unknown sweep axis {other:?} (expected \"n\", \"f\", \"connectivity\", \
                 \"degrees\", or \"churn\")"
            ))),
        }
    }
}

/// A human-readable label for one topology (used in sweep point labels
/// and CLI tables).
#[must_use]
pub fn topology_label(topology: &Topology) -> String {
    match topology {
        Topology::Complete => "complete".to_string(),
        Topology::Grid => "grid".to_string(),
        Topology::Ring { k } => format!("ring(k={k})"),
        Topology::RandomRegular { degree } => format!("random-regular(degree={degree})"),
        Topology::Custom(adjacency) => format!("custom(n={})", adjacency.n()),
    }
}

/// One committed `*.scenario.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioFile {
    /// Stable identifier; the gallery uses it as the scenario's name.
    pub name: String,
    /// Optional one-line human title.
    pub title: Option<String>,
    /// Optional pointer to what the file reproduces ("Table 1 of the
    /// paper", "examples/quickstart.rs", …).
    pub reproduces: Option<String>,
    /// The base scenario.
    pub scenario: Scenario,
    /// The seed batch.
    pub seeds: SeedSpec,
    /// At most one sweep axis; `None` means a single-point run.
    pub sweep: Option<SweepSpec>,
}

impl ScenarioFile {
    /// A single-point file with the given name, scenario, and seeds.
    #[must_use]
    pub fn new(name: impl Into<String>, scenario: Scenario, seeds: SeedSpec) -> Self {
        ScenarioFile {
            name: name.into(),
            title: None,
            reproduces: None,
            scenario,
            seeds,
            sweep: None,
        }
    }

    /// The labelled sweep points this file expands to: one point for a
    /// single run, or one per axis value. Expansion is deterministic —
    /// the same file always yields the same points in the same order.
    #[must_use]
    pub fn points(&self) -> Vec<(String, Scenario)> {
        match &self.sweep {
            None => vec![(self.name.clone(), self.scenario.clone())],
            Some(sweep) => sweep.points(&self.scenario),
        }
    }

    /// Serializes to a JSON tree (canonical field order).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("format", Json::str(FORMAT)),
            ("name", Json::str(&self.name)),
        ];
        if let Some(title) = &self.title {
            fields.push(("title", Json::str(title)));
        }
        if let Some(reproduces) = &self.reproduces {
            fields.push(("reproduces", Json::str(reproduces)));
        }
        fields.push(("scenario", scenario_to_json(&self.scenario)));
        fields.push(("seeds", self.seeds.to_json()));
        if let Some(sweep) = &self.sweep {
            fields.push(("sweep", sweep.to_json()));
        }
        Json::object(fields)
    }

    /// Serializes to canonical text (no trailing newline).
    #[must_use]
    pub fn to_json_string(&self) -> String {
        write_string(&self.to_json())
    }

    /// Parses a document from a JSON tree.
    pub fn from_json(json: &Json) -> Result<Self, SchemaError> {
        let ctx = Ctx::root(json);
        let mut obj = ctx.object()?;
        let format_ctx = obj.req("format")?;
        let format = format_ctx.ctx().str()?;
        if format != FORMAT {
            return Err(format_ctx.ctx().err(format!(
                "unsupported format {format:?} (this build reads {FORMAT:?})"
            )));
        }
        let name = obj.req("name")?.ctx().str()?.to_string();
        let title = match obj.opt("title") {
            Some(c) => Some(c.ctx().str()?.to_string()),
            None => None,
        };
        let reproduces = match obj.opt("reproduces") {
            Some(c) => Some(c.ctx().str()?.to_string()),
            None => None,
        };
        let scenario = scenario_from(obj.req("scenario")?.ctx())?;
        let seeds_ctx = obj.req("seeds")?;
        let seeds = SeedSpec::from_ctx(seeds_ctx.ctx())?;
        if seeds.count() == 0 {
            return Err(seeds_ctx.ctx().err("the seed batch is empty"));
        }
        let sweep = match obj.opt("sweep") {
            Some(c) => Some(SweepSpec::from_ctx(c.ctx())?),
            None => None,
        };
        obj.finish()?;
        Ok(ScenarioFile {
            name,
            title,
            reproduces,
            scenario,
            seeds,
            sweep,
        })
    }

    /// Parses a document from text, reporting syntax and schema errors
    /// alike with `line:col` anchors.
    pub fn parse_str(text: &str) -> Result<Self, JsonError> {
        let json = crate::parse::parse(text)?;
        Ok(ScenarioFile::from_json(&json)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_range_expands_contiguously() {
        let spec = SeedSpec::Range { start: 5, count: 3 };
        assert_eq!(spec.seeds(), vec![5, 6, 7]);
        assert_eq!(SeedSpec::List(vec![9, 1]).seeds(), vec![9, 1]);
    }

    #[test]
    fn minimal_file_round_trips() {
        let file = ScenarioFile::new(
            "minimal",
            Scenario::new(MobileModel::Garay, 9, 2),
            SeedSpec::Range { start: 0, count: 4 },
        );
        let text = file.to_json_string();
        let back = ScenarioFile::parse_str(&text).unwrap();
        assert_eq!(back, file);
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn sweep_points_match_constructor() {
        let base = Scenario::new(MobileModel::Garay, 9, 1);
        let file = ScenarioFile {
            sweep: Some(SweepSpec::Churn {
                flip_rates: vec![0.0, 0.25],
            }),
            ..ScenarioFile::new("churn", base.clone(), SeedSpec::List(vec![0]))
        };
        let points = file.points();
        let direct = base.sweep_churn([0.0, 0.25]);
        assert_eq!(points.len(), 2);
        assert_eq!(
            points.iter().map(|(_, s)| s.clone()).collect::<Vec<_>>(),
            direct.points().to_vec()
        );
        assert_eq!(points[1].0, "flip_rate=0.25");
    }

    #[test]
    fn bad_format_tag_is_anchored() {
        let err = ScenarioFile::parse_str(
            "{\n  \"format\": \"mbaa-scenario/99\",\n  \"name\": \"x\",\n  \
             \"scenario\": {\"model\": \"garay\", \"n\": 9, \"f\": 2},\n  \"seeds\": [1]\n}",
        )
        .unwrap_err();
        match err {
            JsonError::Schema(schema) => {
                assert_eq!((schema.pos.line, schema.pos.col), (2, 13));
                assert!(schema.message.contains("unsupported format"));
            }
            other => panic!("expected a schema error, got {other:?}"),
        }
    }

    #[test]
    fn empty_seed_batch_is_rejected() {
        let err = ScenarioFile::parse_str(
            "{\"format\": \"mbaa-scenario/1\", \"name\": \"x\", \
             \"scenario\": {\"model\": \"garay\", \"n\": 9, \"f\": 2}, \"seeds\": []}",
        )
        .unwrap_err();
        assert!(err.to_string().contains("seed batch is empty"));
    }
}

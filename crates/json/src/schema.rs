//! (De)serializers for the scenario vocabulary.
//!
//! Every function pair here is a lossless inverse: `X_from(ctx)` applied
//! to `X_to_json(&x)` reconstructs `x` exactly (asserted by the seeded
//! round-trip batteries in `tests/roundtrip.rs`), and parsing rejects
//! unknown fields, wrong types, and out-of-range values with
//! [`SchemaError`]s anchored at the offending `line:col`.
//!
//! The textual conventions (documented field by field in
//! `docs/scenario-format.md`):
//!
//! * enum variants are kebab-case strings (`"round-robin"`), or
//!   single-key objects when they carry data (`{"ring": {"k": 2}}`);
//! * optional knobs may be omitted (or `null`) and take the same defaults
//!   [`Scenario::new`] decides;
//! * seeds and other `u64`s must be plain unsigned integer literals, so
//!   they never round through a lossy `f64`.

use mbaa::prelude::*;
use mbaa::{Reduction, Selection};

use crate::ctx::{Ctx, ObjCtx};
use crate::error::SchemaError;
use crate::value::Json;

// ---------------------------------------------------------------------------
// Leaf enums.
// ---------------------------------------------------------------------------

/// Serializes a [`MobileModel`] (`"garay"` / `"bonnet"` / `"sasaki"` /
/// `"buhrman"`).
#[must_use]
pub fn model_to_json(model: MobileModel) -> Json {
    Json::str(match model {
        MobileModel::Garay => "garay",
        MobileModel::Bonnet => "bonnet",
        MobileModel::Sasaki => "sasaki",
        MobileModel::Buhrman => "buhrman",
    })
}

/// Parses a [`MobileModel`]; the paper's M1–M4 shorthands are accepted too.
pub fn model_from(ctx: Ctx<'_>) -> Result<MobileModel, SchemaError> {
    match ctx.str()? {
        "garay" | "M1" => Ok(MobileModel::Garay),
        "bonnet" | "M2" => Ok(MobileModel::Bonnet),
        "sasaki" | "M3" => Ok(MobileModel::Sasaki),
        "buhrman" | "M4" => Ok(MobileModel::Buhrman),
        other => Err(ctx.err(format!(
            "unknown model {other:?} (expected \"garay\", \"bonnet\", \"sasaki\", or \"buhrman\")"
        ))),
    }
}

/// Serializes a [`MobilityStrategy`] as its kebab-case name.
#[must_use]
pub fn mobility_to_json(mobility: MobilityStrategy) -> Json {
    Json::str(match mobility {
        MobilityStrategy::Stationary => "stationary",
        MobilityStrategy::RoundRobin => "round-robin",
        MobilityStrategy::Random => "random",
        MobilityStrategy::TargetExtremes => "target-extremes",
        MobilityStrategy::Sweep => "sweep",
        MobilityStrategy::TargetMedian => "target-median",
    })
}

/// Parses a [`MobilityStrategy`].
pub fn mobility_from(ctx: Ctx<'_>) -> Result<MobilityStrategy, SchemaError> {
    match ctx.str()? {
        "stationary" => Ok(MobilityStrategy::Stationary),
        "round-robin" => Ok(MobilityStrategy::RoundRobin),
        "random" => Ok(MobilityStrategy::Random),
        "target-extremes" => Ok(MobilityStrategy::TargetExtremes),
        "sweep" => Ok(MobilityStrategy::Sweep),
        "target-median" => Ok(MobilityStrategy::TargetMedian),
        other => Err(ctx.err(format!("unknown mobility strategy {other:?}"))),
    }
}

/// Serializes a [`DisconnectionPolicy`] (`"record"` / `"reject"`).
#[must_use]
pub fn disconnection_to_json(policy: DisconnectionPolicy) -> Json {
    Json::str(match policy {
        DisconnectionPolicy::Record => "record",
        DisconnectionPolicy::Reject => "reject",
    })
}

/// Parses a [`DisconnectionPolicy`].
pub fn disconnection_from(ctx: Ctx<'_>) -> Result<DisconnectionPolicy, SchemaError> {
    match ctx.str()? {
        "record" => Ok(DisconnectionPolicy::Record),
        "reject" => Ok(DisconnectionPolicy::Reject),
        other => Err(ctx.err(format!("unknown disconnection policy {other:?}"))),
    }
}

/// Serializes an [`Observe`] level (`"full"` / `"snapshots"` /
/// `"summary"`).
#[must_use]
pub fn observe_to_json(observe: Observe) -> Json {
    Json::str(match observe {
        Observe::Full => "full",
        Observe::Snapshots => "snapshots",
        Observe::Summary => "summary",
    })
}

/// Parses an [`Observe`] level.
pub fn observe_from(ctx: Ctx<'_>) -> Result<Observe, SchemaError> {
    match ctx.str()? {
        "full" => Ok(Observe::Full),
        "snapshots" => Ok(Observe::Snapshots),
        "summary" => Ok(Observe::Summary),
        other => Err(ctx.err(format!("unknown observe level {other:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Adversary corruption.
// ---------------------------------------------------------------------------

/// Serializes a [`CorruptionStrategy`]: dataless variants as strings,
/// parameterized ones as `{"variant": {fields}}`.
#[must_use]
pub fn corruption_to_json(corruption: CorruptionStrategy) -> Json {
    match corruption {
        CorruptionStrategy::Silent => Json::str("silent"),
        CorruptionStrategy::BoundaryDrag => Json::str("boundary-drag"),
        CorruptionStrategy::Stealth => Json::str("stealth"),
        CorruptionStrategy::MedianPull => Json::str("median-pull"),
        CorruptionStrategy::Fixed { value } => Json::object(vec![(
            "fixed",
            Json::object(vec![("value", Json::f64(value.get()))]),
        )]),
        CorruptionStrategy::OutOfRange { magnitude } => Json::object(vec![(
            "out-of-range",
            Json::object(vec![("magnitude", Json::f64(magnitude))]),
        )]),
        CorruptionStrategy::Split { magnitude } => Json::object(vec![(
            "split",
            Json::object(vec![("magnitude", Json::f64(magnitude))]),
        )]),
        CorruptionStrategy::RandomNoise { lo, hi } => Json::object(vec![(
            "random-noise",
            Json::object(vec![("lo", Json::f64(lo)), ("hi", Json::f64(hi))]),
        )]),
    }
}

/// `error` anchored at `field`, an invalid parameter by its bare message.
fn anchored(field: Ctx<'_>, error: Error) -> SchemaError {
    match error {
        Error::InvalidParameter(message) => field.err(message),
        other => field.err(other.to_string()),
    }
}

/// `workload` once [`Workload::validate`] accepts its span, or the
/// rejection anchored at `field`.
fn validated(workload: Workload, field: Ctx<'_>) -> Result<Workload, SchemaError> {
    workload.validate().map_err(|e| anchored(field, e))?;
    Ok(workload)
}

/// Reads the `lo` and `hi` fields of a sampling range, which must pass
/// [`check_range`](mbaa::types::check_range); the error is anchored at `hi`.
fn range_from(obj: &mut ObjCtx<'_>) -> Result<(f64, f64), SchemaError> {
    let lo = obj.req("lo")?.ctx().f64()?;
    let hi_ctx = obj.req("hi")?;
    let hi = hi_ctx.ctx().f64()?;
    mbaa::types::check_range("range", lo, hi).map_err(|e| anchored(hi_ctx.ctx(), e))?;
    Ok((lo, hi))
}

/// Parses a [`CorruptionStrategy`].
pub fn corruption_from(ctx: Ctx<'_>) -> Result<CorruptionStrategy, SchemaError> {
    let (tag, payload) = ctx.variant()?;
    match (tag, payload) {
        ("silent", None) => Ok(CorruptionStrategy::Silent),
        ("boundary-drag", None) => Ok(CorruptionStrategy::BoundaryDrag),
        ("stealth", None) => Ok(CorruptionStrategy::Stealth),
        ("median-pull", None) => Ok(CorruptionStrategy::MedianPull),
        ("fixed", Some(child)) => {
            let mut obj = child.ctx().object()?;
            let value_ctx = obj.req("value")?;
            let raw = value_ctx.ctx().f64()?;
            let value = Value::try_new(raw)
                .ok_or_else(|| value_ctx.ctx().err(format!("{raw} is not a finite value")))?;
            obj.finish()?;
            Ok(CorruptionStrategy::Fixed { value })
        }
        ("out-of-range", Some(child)) => {
            let mut obj = child.ctx().object()?;
            let magnitude = obj.req("magnitude")?.ctx().f64()?;
            obj.finish()?;
            Ok(CorruptionStrategy::OutOfRange { magnitude })
        }
        ("split", Some(child)) => {
            let mut obj = child.ctx().object()?;
            let magnitude = obj.req("magnitude")?.ctx().f64()?;
            obj.finish()?;
            Ok(CorruptionStrategy::Split { magnitude })
        }
        ("random-noise", Some(child)) => {
            let mut obj = child.ctx().object()?;
            let (lo, hi) = range_from(&mut obj)?;
            obj.finish()?;
            Ok(CorruptionStrategy::RandomNoise { lo, hi })
        }
        (other, _) => Err(ctx.err(format!("unknown corruption strategy {other:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Topology and schedules.
// ---------------------------------------------------------------------------

/// Serializes a [`Topology`]. A custom adjacency is written as its
/// universe size plus the undirected edge list (each edge once, `a < b`);
/// self-links are structural and never written.
#[must_use]
pub fn topology_to_json(topology: &Topology) -> Json {
    match topology {
        Topology::Complete => Json::str("complete"),
        Topology::Grid => Json::str("grid"),
        Topology::Ring { k } => {
            Json::object(vec![("ring", Json::object(vec![("k", Json::usize(*k))]))])
        }
        Topology::RandomRegular { degree } => Json::object(vec![(
            "random-regular",
            Json::object(vec![("degree", Json::usize(*degree))]),
        )]),
        Topology::Custom(adjacency) => {
            let n = adjacency.n();
            let mut edges = Vec::new();
            for a in 0..n {
                for b in adjacency.neighbors(ProcessId::new(a)) {
                    if b.index() > a {
                        edges.push(Json::array(vec![Json::usize(a), Json::usize(b.index())]));
                    }
                }
            }
            Json::object(vec![(
                "custom",
                Json::object(vec![("n", Json::usize(n)), ("edges", Json::array(edges))]),
            )])
        }
    }
}

/// Parses a [`Topology`].
pub fn topology_from(ctx: Ctx<'_>) -> Result<Topology, SchemaError> {
    let (tag, payload) = ctx.variant()?;
    match (tag, payload) {
        ("complete", None) => Ok(Topology::Complete),
        ("grid", None) => Ok(Topology::Grid),
        ("ring", Some(child)) => {
            let mut obj = child.ctx().object()?;
            let k = obj.req("k")?.ctx().usize()?;
            obj.finish()?;
            Ok(Topology::Ring { k })
        }
        ("random-regular", Some(child)) => {
            let mut obj = child.ctx().object()?;
            let degree = obj.req("degree")?.ctx().usize()?;
            obj.finish()?;
            Ok(Topology::RandomRegular { degree })
        }
        ("custom", Some(child)) => {
            let mut obj = child.ctx().object()?;
            let n = obj.req("n")?.ctx().usize()?;
            let edges_ctx = obj.req("edges")?;
            let mut edges = Vec::new();
            for pair in edges_ctx.ctx().array()? {
                let endpoints = pair.ctx().array()?;
                if endpoints.len() != 2 {
                    return Err(pair.ctx().err(format!(
                        "an edge is a two-element [a, b] pair, found {} elements",
                        endpoints.len()
                    )));
                }
                edges.push((endpoints[0].ctx().usize()?, endpoints[1].ctx().usize()?));
            }
            let adjacency = Adjacency::from_edges(n, edges)
                .map_err(|e| edges_ctx.ctx().err(format!("invalid adjacency: {e}")))?;
            obj.finish()?;
            Ok(Topology::Custom(adjacency))
        }
        (other, _) => Err(ctx.err(format!("unknown topology {other:?}"))),
    }
}

/// Serializes a [`TopologySchedule`].
#[must_use]
pub fn schedule_to_json(schedule: &TopologySchedule) -> Json {
    match schedule {
        TopologySchedule::Static(topology) => {
            Json::object(vec![("static", topology_to_json(topology))])
        }
        TopologySchedule::Periodic { phases } => Json::object(vec![(
            "periodic",
            Json::object(vec![(
                "phases",
                Json::array(phases.iter().map(topology_to_json).collect()),
            )]),
        )]),
        TopologySchedule::SeededChurn { base, flip_rate } => Json::object(vec![(
            "churn",
            Json::object(vec![
                ("base", topology_to_json(base)),
                ("flip_rate", Json::f64(*flip_rate)),
            ]),
        )]),
    }
}

/// Parses a [`TopologySchedule`].
pub fn schedule_from(ctx: Ctx<'_>) -> Result<TopologySchedule, SchemaError> {
    let (tag, payload) = ctx.variant()?;
    match (tag, payload) {
        ("static", Some(child)) => Ok(TopologySchedule::Static(topology_from(child.ctx())?)),
        ("periodic", Some(child)) => {
            let mut obj = child.ctx().object()?;
            let phases = obj
                .req("phases")?
                .ctx()
                .array()?
                .iter()
                .map(|phase| topology_from(phase.ctx()))
                .collect::<Result<Vec<_>, _>>()?;
            obj.finish()?;
            Ok(TopologySchedule::Periodic { phases })
        }
        ("churn", Some(child)) => {
            let mut obj = child.ctx().object()?;
            let base = topology_from(obj.req("base")?.ctx())?;
            let flip_rate = obj.req("flip_rate")?.ctx().f64()?;
            obj.finish()?;
            Ok(TopologySchedule::SeededChurn { base, flip_rate })
        }
        (other, _) => Err(ctx.err(format!("unknown topology schedule {other:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Link faults.
// ---------------------------------------------------------------------------

/// Serializes a [`LinkFaultPlan`] as its ordered rule list. Wildcarded
/// endpoints and unset behaviours are written as explicit `null`s, so a
/// committed file reads unambiguously.
#[must_use]
pub fn link_faults_to_json(plan: &LinkFaultPlan) -> Json {
    Json::array(
        plan.rules()
            .map(|rule| {
                Json::object(vec![
                    ("from", opt_usize_to_json(rule.from)),
                    ("to", opt_usize_to_json(rule.to)),
                    ("omit", rule.omit.map_or_else(Json::null, Json::f64)),
                    ("delay", opt_usize_to_json(rule.delay)),
                ])
            })
            .collect(),
    )
}

fn opt_usize_to_json(value: Option<usize>) -> Json {
    value.map_or_else(Json::null, Json::usize)
}

/// Parses a [`LinkFaultPlan`] from its rule list.
pub fn link_faults_from(ctx: Ctx<'_>) -> Result<LinkFaultPlan, SchemaError> {
    let mut plan = LinkFaultPlan::new();
    for rule_ctx in ctx.array()? {
        let mut obj = rule_ctx.ctx().object()?;
        let rule = LinkFaultRule {
            from: match obj.opt("from") {
                Some(c) => Some(c.ctx().usize()?),
                None => None,
            },
            to: match obj.opt("to") {
                Some(c) => Some(c.ctx().usize()?),
                None => None,
            },
            omit: match obj.opt("omit") {
                Some(c) => Some(c.ctx().f64()?),
                None => None,
            },
            delay: match obj.opt("delay") {
                Some(c) => Some(c.ctx().usize()?),
                None => None,
            },
        };
        if rule.omit.is_none() && rule.delay.is_none() {
            return Err(rule_ctx
                .ctx()
                .err("a link-fault rule must set \"omit\" and/or \"delay\""));
        }
        obj.finish()?;
        plan = plan.with_rule(rule);
    }
    Ok(plan)
}

// ---------------------------------------------------------------------------
// MSR functions.
// ---------------------------------------------------------------------------

/// Serializes an [`MsrFunction`] as its reduction/selection pair.
#[must_use]
pub fn function_to_json(function: &MsrFunction) -> Json {
    let reduction = match function.reduction() {
        Reduction::Identity => Json::str("identity"),
        Reduction::Trim { tau } => Json::object(vec![(
            "trim",
            Json::object(vec![("tau", Json::usize(tau))]),
        )]),
    };
    let selection = match function.selection() {
        Selection::All => Json::str("all"),
        Selection::Extremes => Json::str("extremes"),
        Selection::MedianOnly => Json::str("median-only"),
        Selection::EveryKth { k } => Json::object(vec![(
            "every-kth",
            Json::object(vec![("k", Json::usize(k))]),
        )]),
    };
    Json::object(vec![("reduction", reduction), ("selection", selection)])
}

/// Parses an [`MsrFunction`].
pub fn function_from(ctx: Ctx<'_>) -> Result<MsrFunction, SchemaError> {
    let mut obj = ctx.object()?;
    let reduction_ctx = obj.req("reduction")?;
    let reduction = {
        let (tag, payload) = reduction_ctx.ctx().variant()?;
        match (tag, payload) {
            ("identity", None) => Reduction::Identity,
            ("trim", Some(child)) => {
                let mut trim = child.ctx().object()?;
                let tau = trim.req("tau")?.ctx().usize()?;
                trim.finish()?;
                Reduction::Trim { tau }
            }
            (other, _) => {
                return Err(reduction_ctx
                    .ctx()
                    .err(format!("unknown reduction {other:?}")))
            }
        }
    };
    let selection_ctx = obj.req("selection")?;
    let selection = {
        let (tag, payload) = selection_ctx.ctx().variant()?;
        match (tag, payload) {
            ("all", None) => Selection::All,
            ("extremes", None) => Selection::Extremes,
            ("median-only", None) => Selection::MedianOnly,
            ("every-kth", Some(child)) => {
                let mut every = child.ctx().object()?;
                let k_ctx = every.req("k")?;
                let k = k_ctx.ctx().usize()?;
                if k == 0 {
                    return Err(k_ctx.ctx().err("selection step k must be at least 1"));
                }
                every.finish()?;
                Selection::EveryKth { k }
            }
            (other, _) => {
                return Err(selection_ctx
                    .ctx()
                    .err(format!("unknown selection {other:?}")))
            }
        }
    };
    obj.finish()?;
    Ok(MsrFunction::new(reduction, selection))
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// Serializes a [`Workload`].
#[must_use]
pub fn workload_to_json(workload: &Workload) -> Json {
    match workload {
        Workload::UniformSpread { lo, hi } => Json::object(vec![(
            "uniform-spread",
            Json::object(vec![("lo", Json::f64(*lo)), ("hi", Json::f64(*hi))]),
        )]),
        Workload::RandomUniform { lo, hi } => Json::object(vec![(
            "random-uniform",
            Json::object(vec![("lo", Json::f64(*lo)), ("hi", Json::f64(*hi))]),
        )]),
        Workload::Clustered { centers, jitter } => Json::object(vec![(
            "clustered",
            Json::object(vec![
                (
                    "centers",
                    Json::array(centers.iter().map(|c| Json::f64(*c)).collect()),
                ),
                ("jitter", Json::f64(*jitter)),
            ]),
        )]),
        Workload::Fixed { values } => Json::object(vec![(
            "fixed",
            Json::object(vec![(
                "values",
                Json::array(values.iter().map(|v| Json::f64(v.get())).collect()),
            )]),
        )]),
    }
}

/// Parses a [`Workload`].
pub fn workload_from(ctx: Ctx<'_>) -> Result<Workload, SchemaError> {
    let (tag, payload) = ctx.variant()?;
    match (tag, payload) {
        ("uniform-spread", Some(child)) => {
            let mut obj = child.ctx().object()?;
            let (lo, hi) = range_from(&mut obj)?;
            obj.finish()?;
            Ok(Workload::UniformSpread { lo, hi })
        }
        ("random-uniform", Some(child)) => {
            let mut obj = child.ctx().object()?;
            let (lo, hi) = range_from(&mut obj)?;
            obj.finish()?;
            Ok(Workload::RandomUniform { lo, hi })
        }
        ("clustered", Some(child)) => {
            let mut obj = child.ctx().object()?;
            let centers_ctx = obj.req("centers")?;
            let centers = centers_ctx
                .ctx()
                .array()?
                .iter()
                .map(|c| c.ctx().f64())
                .collect::<Result<Vec<_>, _>>()?;
            if centers.is_empty() {
                return Err(centers_ctx
                    .ctx()
                    .err("a clustered workload needs at least one centre"));
            }
            let jitter_ctx = obj.req("jitter")?;
            let jitter = jitter_ctx.ctx().f64()?;
            if jitter < 0.0 {
                return Err(jitter_ctx
                    .ctx()
                    .err(format!("jitter must be >= 0, got {jitter}")));
            }
            obj.finish()?;
            validated(Workload::Clustered { centers, jitter }, jitter_ctx.ctx())
        }
        ("fixed", Some(child)) => {
            let mut obj = child.ctx().object()?;
            let values_ctx = obj.req("values")?;
            let mut values = Vec::new();
            for v in values_ctx.ctx().array()? {
                let raw = v.ctx().f64()?;
                values.push(
                    Value::try_new(raw)
                        .ok_or_else(|| v.ctx().err(format!("{raw} is not a finite value")))?,
                );
            }
            obj.finish()?;
            validated(Workload::Fixed { values }, values_ctx.ctx())
        }
        (other, _) => Err(ctx.err(format!("unknown workload {other:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Scenarios.
// ---------------------------------------------------------------------------

/// Serializes a [`Scenario`] in canonical form: every non-optional knob is
/// written explicitly, optional knobs (`schedule`, `function`) only when
/// set.
#[must_use]
pub fn scenario_to_json(scenario: &Scenario) -> Json {
    let mut fields = vec![
        ("model", model_to_json(scenario.model)),
        ("n", Json::usize(scenario.n)),
        ("f", Json::usize(scenario.f)),
        ("epsilon", Json::f64(scenario.epsilon)),
        ("max_rounds", Json::usize(scenario.max_rounds)),
        ("mobility", mobility_to_json(scenario.mobility)),
        ("corruption", corruption_to_json(scenario.corruption)),
        ("topology", topology_to_json(&scenario.topology)),
    ];
    if let Some(schedule) = &scenario.schedule {
        fields.push(("schedule", schedule_to_json(schedule)));
    }
    fields.push(("link_faults", link_faults_to_json(&scenario.link_faults)));
    fields.push((
        "disconnection",
        disconnection_to_json(scenario.disconnection),
    ));
    if let Some(function) = &scenario.function {
        fields.push(("function", function_to_json(function)));
    }
    fields.push(("workload", workload_to_json(&scenario.workload)));
    fields.push((
        "allow_bound_violation",
        Json::bool(scenario.allow_bound_violation),
    ));
    fields.push(("observe", observe_to_json(scenario.observe)));
    Json::object(fields)
}

/// Parses a [`Scenario`]. Only `model`, `n`, and `f` are required; every
/// other field defaults exactly as [`Scenario::new`] does, so a minimal
/// committed file stays minimal.
pub fn scenario_from(ctx: Ctx<'_>) -> Result<Scenario, SchemaError> {
    let mut obj = ctx.object()?;
    let model = model_from(obj.req("model")?.ctx())?;
    let n = obj.req("n")?.ctx().usize()?;
    let f = obj.req("f")?.ctx().usize()?;
    let mut scenario = Scenario::new(model, n, f);
    if let Some(c) = obj.opt("epsilon") {
        scenario.epsilon = c.ctx().f64()?;
    }
    if let Some(c) = obj.opt("max_rounds") {
        scenario.max_rounds = c.ctx().usize()?;
    }
    if let Some(c) = obj.opt("mobility") {
        scenario.mobility = mobility_from(c.ctx())?;
    }
    if let Some(c) = obj.opt("corruption") {
        scenario.corruption = corruption_from(c.ctx())?;
    }
    if let Some(c) = obj.opt("topology") {
        scenario.topology = topology_from(c.ctx())?;
    }
    if let Some(c) = obj.opt("schedule") {
        scenario.schedule = Some(schedule_from(c.ctx())?);
    }
    if let Some(c) = obj.opt("link_faults") {
        scenario.link_faults = link_faults_from(c.ctx())?;
    }
    if let Some(c) = obj.opt("disconnection") {
        scenario.disconnection = disconnection_from(c.ctx())?;
    }
    if let Some(c) = obj.opt("function") {
        scenario.function = Some(function_from(c.ctx())?);
    }
    if let Some(c) = obj.opt("workload") {
        scenario.workload = workload_from(c.ctx())?;
    }
    if let Some(c) = obj.opt("allow_bound_violation") {
        scenario.allow_bound_violation = c.ctx().bool()?;
    }
    if let Some(c) = obj.opt("observe") {
        scenario.observe = observe_from(c.ctx())?;
    }
    obj.finish()?;
    Ok(scenario)
}

// ---------------------------------------------------------------------------
// Run summaries (checkpoint/report rows).
// ---------------------------------------------------------------------------

/// Serializes a [`RunSummary`] — the per-seed row checkpoint chunks and
/// merged reports are made of.
#[must_use]
pub fn run_summary_to_json(summary: &RunSummary) -> Json {
    Json::object(vec![
        ("seed", Json::u64(summary.seed)),
        ("reached_agreement", Json::bool(summary.reached_agreement)),
        ("validity", Json::bool(summary.validity)),
        ("rounds", Json::usize(summary.rounds)),
        ("final_diameter", Json::f64(summary.final_diameter)),
        ("initial_diameter", Json::f64(summary.initial_diameter)),
        (
            "mean_contraction",
            summary.mean_contraction.map_or_else(Json::null, Json::f64),
        ),
    ])
}

/// Parses a [`RunSummary`].
pub fn run_summary_from(ctx: Ctx<'_>) -> Result<RunSummary, SchemaError> {
    let mut obj = ctx.object()?;
    let summary = RunSummary {
        seed: obj.req("seed")?.ctx().u64()?,
        reached_agreement: obj.req("reached_agreement")?.ctx().bool()?,
        validity: obj.req("validity")?.ctx().bool()?,
        rounds: obj.req("rounds")?.ctx().usize()?,
        final_diameter: obj.req("final_diameter")?.ctx().f64()?,
        initial_diameter: obj.req("initial_diameter")?.ctx().f64()?,
        mean_contraction: match obj.opt("mean_contraction") {
            Some(c) => Some(c.ctx().f64()?),
            None => None,
        },
    };
    obj.finish()?;
    Ok(summary)
}

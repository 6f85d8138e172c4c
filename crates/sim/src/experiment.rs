//! Seeded experiments and their aggregated results.
//!
//! [`ExperimentConfig`] is a *lowered form*: plain data with no defaulting
//! of its own. The documented way to produce one is the `Scenario` builder
//! in the `mbaa` facade crate (`Scenario::to_experiment` /
//! `Scenario::batch(..).summarize()`), which is where every default is
//! decided.

use std::sync::Mutex;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use mbaa_adversary::{CorruptionStrategy, MobilityStrategy};
use mbaa_core::{
    shape_compatible, BatchEngine, MobileRunOutcome, Observe, PackedLane, ProtocolConfig,
};
use mbaa_msr::MsrFunction;
use mbaa_net::{DisconnectionPolicy, LinkFaultPlan, Topology, TopologySchedule};
use mbaa_obs::MetricsRegistry;
use mbaa_types::{MobileModel, Result};

use crate::Workload;

/// The description of one experiment point: a `(model, n, f, adversary,
/// algorithm, workload)` combination evaluated over a batch of seeds.
///
/// All fields are public plain data; construct it literally or lower a
/// `mbaa::Scenario` into it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// The mobile Byzantine model.
    pub model: MobileModel,
    /// The number of processes.
    pub n: usize,
    /// The number of agents.
    pub f: usize,
    /// The agreement tolerance.
    pub epsilon: f64,
    /// The per-run round budget.
    pub max_rounds: usize,
    /// The adversary's mobility strategy.
    pub mobility: MobilityStrategy,
    /// The adversary's corruption strategy.
    pub corruption: CorruptionStrategy,
    /// The communication graph every exchange is mediated by — recorded
    /// here so summary-level results stay self-describing.
    pub topology: Topology,
    /// The per-round topology schedule, or `None` for the static
    /// [`topology`](ExperimentConfig::topology) axis.
    pub schedule: Option<TopologySchedule>,
    /// Per-link omission/delay faults layered on the structural mask.
    pub link_faults: LinkFaultPlan,
    /// The per-round disconnection policy of a dynamic schedule.
    pub disconnection: DisconnectionPolicy,
    /// The MSR instance to run, or `None` for the model's default.
    pub function: Option<MsrFunction>,
    /// The seeds to evaluate (one full protocol run per seed).
    pub seeds: Vec<u64>,
    /// The initial-value workload.
    pub workload: Workload,
    /// Whether to allow `n` below the model's bound (threshold sweeps).
    pub allow_bound_violation: bool,
    /// The observability level the description was lowered from. Recorded
    /// for self-description; the summary-level executors always run the
    /// engine at [`Observe::Summary`], since only [`RunSummary`] fields
    /// survive anyway and summaries are bit-identical across levels.
    /// Defaults on deserialization so pre-`Observe` documents still load.
    #[serde(default)]
    pub observe: Observe,
}

impl ExperimentConfig {
    /// Lowers one seed of the experiment to its validated
    /// [`ProtocolConfig`].
    ///
    /// # Errors
    ///
    /// Propagates the builder's validation errors.
    pub fn protocol_config(&self, seed: u64) -> Result<ProtocolConfig> {
        let mut builder = ProtocolConfig::builder(self.model, self.n, self.f)
            .epsilon(self.epsilon)
            .max_rounds(self.max_rounds)
            .mobility(self.mobility)
            .corruption(self.corruption)
            .topology(self.topology.clone())
            .link_faults(self.link_faults.clone())
            .disconnection(self.disconnection)
            .observe(self.observe)
            .seed(seed);
        if let Some(schedule) = &self.schedule {
            builder = builder.topology_schedule(schedule.clone());
        }
        if let Some(function) = self.function {
            builder = builder.function(function);
        }
        if self.allow_bound_violation {
            builder = builder.allow_bound_violation();
        }
        builder.build()
    }
}

/// The outcome of one seeded run within an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// The adversary/workload seed of this run.
    pub seed: u64,
    /// Whether ε-agreement was reached within the round budget.
    pub reached_agreement: bool,
    /// Whether validity held at the end of the run.
    pub validity: bool,
    /// Number of rounds executed.
    pub rounds: usize,
    /// Diameter of the non-faulty values at the end of the run.
    pub final_diameter: f64,
    /// Diameter of the non-faulty initial values.
    pub initial_diameter: f64,
    /// Geometric-mean per-round contraction factor, when measurable.
    pub mean_contraction: Option<f64>,
}

impl RunSummary {
    /// Condenses one full run outcome into its summary — the single place
    /// the summary fields are derived, shared by [`run_experiment`], the
    /// facade's `BatchOutcome::to_experiment_result`, and the streaming
    /// paths, so all of them agree field for field.
    #[must_use]
    pub fn from_outcome(seed: u64, outcome: &MobileRunOutcome) -> Self {
        RunSummary {
            seed,
            reached_agreement: outcome.reached_agreement,
            validity: outcome.validity_holds(),
            rounds: outcome.rounds_executed,
            final_diameter: outcome.final_diameter(),
            initial_diameter: outcome.report.initial_diameter(),
            mean_contraction: outcome.report.mean_contraction_factor(),
        }
    }
}

/// The aggregated outcome of an experiment point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// The configuration that produced this result.
    pub config: ExperimentConfig,
    /// One summary per seed.
    pub runs: Vec<RunSummary>,
}

impl ExperimentResult {
    /// Fraction of runs that reached ε-agreement *and* preserved validity.
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        let ok = self
            .runs
            .iter()
            .filter(|r| r.reached_agreement && r.validity)
            .count();
        ok as f64 / self.runs.len() as f64
    }

    /// Returns `true` when every run reached ε-agreement with validity.
    #[must_use]
    pub fn all_succeeded(&self) -> bool {
        !self.runs.is_empty() && self.runs.iter().all(|r| r.reached_agreement && r.validity)
    }

    /// Rounds-to-agreement of the successful runs.
    #[must_use]
    pub fn rounds_of_successful_runs(&self) -> Vec<f64> {
        self.runs
            .iter()
            .filter(|r| r.reached_agreement)
            .map(|r| r.rounds as f64)
            .collect()
    }

    /// Mean rounds-to-agreement over the successful runs, or `None` when no
    /// run succeeded.
    #[must_use]
    pub fn mean_rounds(&self) -> Option<f64> {
        let rounds = self.rounds_of_successful_runs();
        if rounds.is_empty() {
            None
        } else {
            Some(rounds.iter().sum::<f64>() / rounds.len() as f64)
        }
    }

    /// Mean of the per-run contraction factors, over runs where one was
    /// measurable.
    #[must_use]
    pub fn mean_contraction(&self) -> Option<f64> {
        let factors: Vec<f64> = self
            .runs
            .iter()
            .filter_map(|r| r.mean_contraction)
            .collect();
        if factors.is_empty() {
            None
        } else {
            Some(factors.iter().sum::<f64>() / factors.len() as f64)
        }
    }
}

/// Runs every seed of an experiment point — in parallel, since seeded runs
/// are fully independent — and aggregates the outcomes in seed-batch order.
///
/// # Errors
///
/// Propagates configuration errors (for example `n` below the bound without
/// `allow_bound_violation`) and engine errors; the first failing seed in
/// batch order wins, so errors are deterministic.
pub fn run_experiment(config: &ExperimentConfig) -> Result<ExperimentResult> {
    run_experiment_with(config, |_| {})
}

/// How many seeds one [`BatchEngine`] advances in lockstep. Chunking keeps
/// the flat state arrays cache-resident (32 lanes × n values) and leaves
/// enough independent chunks for the rayon pool to spread across workers.
/// Public so the facade's sweep executor can chunk its `(point, seeds)`
/// work pool on the same boundary and stay bit-identical to this path.
pub const BATCH_WIDTH: usize = 32;

/// Explicitly batched form of [`run_experiment`]. Since the summary-level
/// executors route every point through the seed-batched [`BatchEngine`]
/// anyway, this is the same computation under a name that
/// documents the intent; it exists so callers can state "batch this point"
/// without depending on the routing rule.
///
/// # Errors
///
/// Exactly as [`run_experiment`].
pub fn run_batch_experiment(config: &ExperimentConfig) -> Result<ExperimentResult> {
    run_experiment(config)
}

/// Streaming variant of [`run_experiment`]: runs every seed-batch chunk in
/// parallel and invokes `on_run` with each completed [`RunSummary`] *as it
/// finishes*, in completion order, on the worker that produced it. The full
/// [`MobileRunOutcome`] (trace + per-round snapshots) is dropped inside the
/// worker as soon as the summary is folded out of it, so memory stays flat
/// no matter how many seeds the batch holds.
///
/// The returned [`ExperimentResult`] is assembled in seed-batch order and is
/// bit-identical to [`run_experiment`]'s for the same configuration,
/// regardless of worker count or steal order. `on_run` is never invoked for
/// a failing seed.
///
/// # Errors
///
/// Propagates configuration errors (surfaced deterministically, before any
/// run starts) and engine errors; the first failing seed in batch order
/// wins.
pub fn run_experiment_with<F>(config: &ExperimentConfig, on_run: F) -> Result<ExperimentResult>
where
    F: Fn(&RunSummary) + Sync,
{
    run_experiment_impl(config, &on_run, None)
}

/// [`run_experiment_with`] with cross-seed metric aggregation: every chunk
/// runs with a chunk-local [`MetricsRegistry`] attached to the seed-batched
/// engine, and the chunk registries are merged into one as workers finish.
/// Because a registry merge is commutative and associative (elementwise
/// `u64` addition), the merged registry is bit-identical regardless of
/// worker count or completion order — the same invariant the summaries
/// already enjoy. Summaries and the returned [`ExperimentResult`] are
/// bit-identical to [`run_experiment_with`]'s.
///
/// # Errors
///
/// Exactly as [`run_experiment_with`].
pub fn run_experiment_metrics<F>(
    config: &ExperimentConfig,
    on_run: F,
) -> Result<(ExperimentResult, MetricsRegistry)>
where
    F: Fn(&RunSummary) + Sync,
{
    let merged = Mutex::new(MetricsRegistry::new());
    let result = run_experiment_impl(config, &on_run, Some(&merged))?;
    let metrics = merged.into_inner().expect("metrics mutex poisoned");
    Ok((result, metrics))
}

/// The shared executor behind [`run_experiment_with`] and
/// [`run_experiment_metrics`]: the single-point special case of the
/// cross-point packed executor. A single point's seeds are trivially
/// shape-compatible, so the pack plan degenerates to the historical
/// "chunks of up to [`BATCH_WIDTH`] consecutive seeds" schedule and the
/// results stay bit-identical to every earlier release.
fn run_experiment_impl<F>(
    config: &ExperimentConfig,
    on_run: &F,
    metrics: Option<&Mutex<MetricsRegistry>>,
) -> Result<ExperimentResult>
where
    F: Fn(&RunSummary) + Sync,
{
    run_packed_impl(
        std::slice::from_ref(config),
        &|_point, summary: &RunSummary| on_run(summary),
        metrics,
    )
    .pop()
    .expect("one result per experiment point")
}

/// Runs several experiment points as **one** cross-point packed pool:
/// every `(point, seed)` pair is lowered up front (point-major,
/// seed-minor), and consecutive lanes whose lowered configurations are
/// [`shape_compatible`] — same `n`, `f`, model, and observe level — are
/// packed into shared [`BatchEngine`] batches of up to [`BATCH_WIDTH`]
/// lanes. A point whose seed batch does not fill its last batch is topped
/// up with the next compatible point's first seeds, so sweeping many
/// small points no longer pays one under-full batch per point (the
/// "occupancy cliff"): mean lane occupancy is governed by the *total*
/// lane count, not the per-point seed count.
///
/// Per-seed summaries are bit-identical to [`run_experiment`] on each
/// point alone, for every worker count and pack boundary — the packed
/// engine proves per-lane equivalence with the scalar engine. Results
/// come back **per point**, aligned with `configs`; a point whose
/// lowering or runs fail carries its first failing seed's error (in
/// seed-batch order) without disturbing its neighbours, so callers keep
/// point-level error attribution.
///
/// `on_run` receives `(point index, summary)` for every completed run,
/// in completion order, on the worker that produced it.
pub fn run_packed_experiments<F>(
    configs: &[ExperimentConfig],
    on_run: F,
) -> Vec<Result<ExperimentResult>>
where
    F: Fn(usize, &RunSummary) + Sync,
{
    run_packed_impl(configs, &on_run, None)
}

/// [`run_packed_experiments`] with cross-run metric aggregation into one
/// [`MetricsRegistry`], merged exactly as [`run_experiment_metrics`]
/// merges — elementwise counter addition, so the registry is
/// bit-identical for every worker count and completion order.
pub fn run_packed_experiments_metrics<F>(
    configs: &[ExperimentConfig],
    on_run: F,
) -> (Vec<Result<ExperimentResult>>, MetricsRegistry)
where
    F: Fn(usize, &RunSummary) + Sync,
{
    let merged = Mutex::new(MetricsRegistry::new());
    let results = run_packed_impl(configs, &on_run, Some(&merged));
    let metrics = merged.into_inner().expect("metrics mutex poisoned");
    (results, metrics)
}

/// Mean lane occupancy of the pack plan [`run_packed_experiments`] would
/// execute for `configs`: total lanes over `packs × BATCH_WIDTH` slots.
/// `1.0` means every batch launch runs completely full; the experiment
/// itself is not run. An empty plan (no seeds anywhere) is vacuously
/// full.
///
/// # Errors
///
/// Propagates the first lowering error in point-major, seed-minor order.
pub fn mean_pack_occupancy(configs: &[ExperimentConfig]) -> Result<f64> {
    let mut lanes = 0usize;
    let mut packs = 0usize;
    // Walk the point-major lane list exactly as the planner does, but keep
    // only the running shape of the open pack.
    let mut open: Option<(ProtocolConfig, usize)> = None;
    for config in configs {
        for &seed in &config.seeds {
            let mut p = config.protocol_config(seed)?;
            p.observe = Observe::Summary;
            lanes += 1;
            open = Some(match open.take() {
                Some((shape, width)) if width < BATCH_WIDTH && shape_compatible(&shape, &p) => {
                    (shape, width + 1)
                }
                Some(_) => {
                    packs += 1;
                    (p, 1)
                }
                None => (p, 1),
            });
        }
    }
    if open.is_some() {
        packs += 1;
    }
    if lanes == 0 {
        return Ok(1.0);
    }
    Ok(lanes as f64 / (packs * BATCH_WIDTH) as f64)
}

/// Splits the point-major lane list into contiguous packs of up to
/// [`BATCH_WIDTH`] shape-compatible lanes. Compatibility is an
/// equivalence (field equality), so comparing against the pack's first
/// lane suffices.
fn plan_packs(lanes: &[PackedLane]) -> Vec<std::ops::Range<usize>> {
    let mut packs = Vec::new();
    let mut start = 0;
    for i in 0..lanes.len() {
        if i - start == BATCH_WIDTH
            || (i > start && !shape_compatible(&lanes[start].config, &lanes[i].config))
        {
            packs.push(start..i);
            start = i;
        }
    }
    if start < lanes.len() {
        packs.push(start..lanes.len());
    }
    packs
}

/// The shared executor behind every summary-level entry point.
///
/// Lowering is validated up front, per point: a point whose lowering
/// fails is born-failed (its `on_run` never fires) and contributes no
/// lanes, while its neighbours still execute. The surviving lanes run
/// through [`plan_packs`] batches spread across the rayon pool; pack
/// results flatten back in point-major, seed-minor order because packs
/// are contiguous ranges of that list.
fn run_packed_impl<F>(
    configs: &[ExperimentConfig],
    on_run: &F,
    metrics: Option<&Mutex<MetricsRegistry>>,
) -> Vec<Result<ExperimentResult>>
where
    F: Fn(usize, &RunSummary) + Sync,
{
    // Only summaries leave this function, and summaries are bit-identical
    // across observability levels, so the engine always runs at
    // `Observe::Summary` — the allocation-free steady state — regardless
    // of each description's level.
    let mut lowered: Vec<Option<mbaa_types::Error>> = Vec::with_capacity(configs.len());
    let mut lanes: Vec<PackedLane> = Vec::new();
    // `points[i]` is the point index of `lanes[i]` — kept as a parallel
    // vector so pack ranges can borrow `lanes` as a contiguous slice.
    let mut points: Vec<usize> = Vec::new();
    for (point, config) in configs.iter().enumerate() {
        let lowering: Result<Vec<PackedLane>> = config
            .seeds
            .iter()
            .map(|&seed| {
                config.protocol_config(seed).map(|mut p| {
                    p.observe = Observe::Summary;
                    PackedLane {
                        config: p,
                        inputs: config.workload.generate(config.n, seed),
                    }
                })
            })
            .collect();
        match lowering {
            Ok(point_lanes) => {
                lowered.push(None);
                points.extend(std::iter::repeat_n(point, point_lanes.len()));
                lanes.extend(point_lanes);
            }
            Err(e) => lowered.push(Some(e)),
        }
    }
    let packs = plan_packs(&lanes);
    let pack_runs: Vec<Vec<Result<RunSummary>>> = packs
        .into_par_iter()
        .map(|range| {
            let outcomes = match metrics {
                Some(sink) => {
                    let mut local = MetricsRegistry::new();
                    let outcomes =
                        BatchEngine::run_packed_observed(&lanes[range.clone()], &mut local);
                    // Merge order across packs is completion order, which
                    // rayon does not fix — safe because the merge is
                    // order-independent (see `MetricsRegistry::merge`).
                    sink.lock().expect("metrics mutex poisoned").merge(&local);
                    outcomes
                }
                None => BatchEngine::run_packed(&lanes[range.clone()]),
            };
            outcomes
                .into_iter()
                .zip(range)
                .map(|(outcome, index)| {
                    let summary = RunSummary::from_outcome(lanes[index].config.seed, &outcome?);
                    on_run(points[index], &summary);
                    Ok(summary)
                })
                .collect()
        })
        .collect();
    // Scatter the point-major flat stream back into per-point results; the
    // first failing seed of a point (in seed-batch order) wins its slot.
    let mut per_point: Vec<Result<Vec<RunSummary>>> =
        configs.iter().map(|_| Ok(Vec::new())).collect();
    let mut flat = pack_runs.into_iter().flatten();
    for &point in &points {
        let run = flat.next().expect("one summary per planned lane");
        if let Ok(runs) = per_point[point].as_mut() {
            match run {
                Ok(summary) => runs.push(summary),
                Err(e) => per_point[point] = Err(e),
            }
        }
    }
    configs
        .iter()
        .zip(lowered)
        .zip(per_point)
        .map(|((config, lowering_error), runs)| match lowering_error {
            Some(e) => Err(e),
            None => Ok(ExperimentResult {
                config: config.clone(),
                runs: runs?,
            }),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A literal lowered form, mirroring what `mbaa::Scenario` produces.
    fn point(
        model: MobileModel,
        n: usize,
        f: usize,
        seeds: std::ops::Range<u64>,
    ) -> ExperimentConfig {
        ExperimentConfig {
            model,
            n,
            f,
            epsilon: 1e-3,
            max_rounds: 300,
            mobility: MobilityStrategy::TargetExtremes,
            corruption: CorruptionStrategy::split_attack(),
            topology: Topology::Complete,
            schedule: None,
            link_faults: LinkFaultPlan::default(),
            disconnection: DisconnectionPolicy::default(),
            function: None,
            seeds: seeds.collect(),
            workload: Workload::default(),
            allow_bound_violation: false,
            observe: Observe::default(),
        }
    }

    #[test]
    fn experiment_runs_every_seed() {
        let config = point(MobileModel::Buhrman, 7, 2, 0..4);
        let result = run_experiment(&config).unwrap();
        assert_eq!(result.runs.len(), 4);
        assert!(result.all_succeeded());
        assert_eq!(result.success_rate(), 1.0);
        assert!(result.mean_rounds().unwrap() >= 1.0);
    }

    #[test]
    fn below_bound_requires_explicit_opt_in() {
        let config = point(MobileModel::Garay, 8, 2, 0..1);
        assert!(run_experiment(&config).is_err());

        let permissive = ExperimentConfig {
            allow_bound_violation: true,
            ..config
        };
        assert!(run_experiment(&permissive).is_ok());
    }

    #[test]
    fn every_model_succeeds_at_its_bound() {
        for model in MobileModel::ALL {
            let f = 1;
            let n = model.required_processes(f);
            let config = point(model, n, f, 0..3);
            let result = run_experiment(&config).unwrap();
            assert!(result.all_succeeded(), "{model} failed: {:?}", result.runs);
        }
    }

    #[test]
    fn custom_function_and_workload_are_used() {
        let config = ExperimentConfig {
            function: Some(MsrFunction::fault_tolerant_midpoint(1)),
            workload: Workload::Clustered {
                centers: vec![0.0, 0.5, 1.0],
                jitter: 0.01,
            },
            mobility: MobilityStrategy::Random,
            corruption: CorruptionStrategy::BoundaryDrag,
            ..point(MobileModel::Buhrman, 7, 1, 0..2)
        };
        let result = run_experiment(&config).unwrap();
        assert!(result.all_succeeded());
        // Every run records its initial diameter even when the contraction
        // factor is unmeasurable (exact agreement reached in one step).
        assert!(result.runs.iter().all(|r| r.initial_diameter > 0.0));
    }

    #[test]
    fn topology_is_recorded_and_threaded_through_lowering() {
        let config = ExperimentConfig {
            topology: Topology::Ring { k: 2 },
            ..point(MobileModel::Garay, 9, 1, 0..2)
        };
        let result = run_experiment(&config).unwrap();
        // Summary-level results stay self-describing: the topology rides
        // along in the recorded configuration.
        assert_eq!(result.config.topology, Topology::Ring { k: 2 });
        assert_eq!(result.runs.len(), 2);
        let protocol = config.protocol_config(0).unwrap();
        assert_eq!(protocol.topology, Topology::Ring { k: 2 });
    }

    #[test]
    fn schedule_and_link_faults_are_recorded_and_threaded_through_lowering() {
        let schedule = TopologySchedule::SeededChurn {
            base: Topology::Complete,
            flip_rate: 0.2,
        };
        let config = ExperimentConfig {
            schedule: Some(schedule.clone()),
            link_faults: LinkFaultPlan::new().omit_all(0.05),
            disconnection: DisconnectionPolicy::Record,
            ..point(MobileModel::Garay, 9, 1, 0..2)
        };
        let result = run_experiment(&config).unwrap();
        assert_eq!(result.config.schedule, Some(schedule.clone()));
        assert!(!result.config.link_faults.is_clean());
        assert_eq!(result.runs.len(), 2);
        let protocol = config.protocol_config(0).unwrap();
        assert_eq!(protocol.schedule, Some(schedule));
        assert!(!protocol.link_faults.is_clean());
        assert_eq!(protocol.disconnection, DisconnectionPolicy::Record);
    }

    #[test]
    fn empty_seed_batch_yields_empty_result() {
        let config = point(MobileModel::Buhrman, 4, 1, 0..0);
        let result = run_experiment(&config).unwrap();
        assert!(result.runs.is_empty());
        assert_eq!(result.success_rate(), 0.0);
        assert!(!result.all_succeeded());
        assert_eq!(result.mean_rounds(), None);
    }

    #[test]
    fn streaming_observer_sees_every_summary_and_results_match() {
        let config = point(MobileModel::Buhrman, 7, 2, 0..6);
        let seen = std::sync::Mutex::new(Vec::new());
        let streamed = run_experiment_with(&config, |s| seen.lock().unwrap().push(*s)).unwrap();
        let eager = run_experiment(&config).unwrap();
        assert_eq!(streamed, eager);
        // The observer saw exactly the returned summaries (in completion
        // order; seed order once sorted).
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable_by_key(|s| s.seed);
        assert_eq!(seen, streamed.runs);
    }

    #[test]
    fn streaming_observer_is_not_invoked_for_failing_configs() {
        let config = point(MobileModel::Garay, 8, 2, 0..3);
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let err = run_experiment_with(&config, |_| {
            calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert!(err.is_err());
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 0);
    }

    #[test]
    fn packed_cross_point_results_match_per_point_runs() {
        // Three shape-compatible points (same n/f/model) whose other knobs
        // all differ — ε, topology, round budget, seed batches.
        let configs = [
            point(MobileModel::Garay, 9, 1, 0..12),
            ExperimentConfig {
                epsilon: 1e-4,
                topology: Topology::Ring { k: 2 },
                ..point(MobileModel::Garay, 9, 1, 5..17)
            },
            ExperimentConfig {
                max_rounds: 200,
                ..point(MobileModel::Garay, 9, 1, 100..112)
            },
        ];
        let seen = std::sync::Mutex::new(Vec::new());
        let packed = run_packed_experiments(&configs, |point, summary| {
            seen.lock().unwrap().push((point, summary.seed));
        });
        // Every point's result is bit-identical to running it alone, even
        // though its lanes shared packs with its neighbours.
        for (config, result) in configs.iter().zip(packed) {
            assert_eq!(result.unwrap(), run_experiment(config).unwrap());
        }
        // The streaming callback attributed every run to its point.
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        let expected: Vec<(usize, u64)> = configs
            .iter()
            .enumerate()
            .flat_map(|(i, c)| c.seeds.iter().map(move |&s| (i, s)))
            .collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn pack_plan_tops_up_tail_chunks_across_compatible_points() {
        // 3 points × 12 seeds = 36 lanes. Packed across points that is two
        // batch launches (32 + 4) — occupancy 36/64 — instead of the three
        // under-full per-point chunks (36/96) the old schedule paid.
        let compatible: Vec<ExperimentConfig> = (0..3)
            .map(|i| point(MobileModel::Garay, 9, 1, (i * 12)..(i * 12 + 12)))
            .collect();
        assert_eq!(mean_pack_occupancy(&compatible).unwrap(), 36.0 / 64.0);
        // Shape-incompatible neighbours still break packs at the boundary.
        let mixed = [
            point(MobileModel::Garay, 9, 1, 0..12),
            point(MobileModel::Garay, 13, 1, 0..12),
            point(MobileModel::Garay, 9, 1, 0..12),
        ];
        assert_eq!(mean_pack_occupancy(&mixed).unwrap(), 36.0 / 96.0);
        // No seeds anywhere: vacuously full.
        assert_eq!(
            mean_pack_occupancy(&[point(MobileModel::Garay, 9, 1, 0..0)]).unwrap(),
            1.0
        );
    }

    #[test]
    fn failing_point_does_not_disturb_its_neighbours() {
        let good = point(MobileModel::Garay, 9, 2, 0..3);
        // Below the bound without the explicit opt-in: lowering fails.
        let bad = point(MobileModel::Garay, 8, 2, 0..3);
        let results = run_packed_experiments(&[good.clone(), bad, good.clone()], |_, _| {});
        assert!(results[1].is_err());
        let alone = run_experiment(&good).unwrap();
        assert_eq!(results[0].as_ref().unwrap(), &alone);
        assert_eq!(results[2].as_ref().unwrap(), &alone);
    }

    #[test]
    fn parallel_execution_matches_run_order() {
        // Seeds are recorded in batch order regardless of which thread
        // finished first.
        let config = point(MobileModel::Garay, 9, 2, 0..16);
        let result = run_experiment(&config).unwrap();
        let seeds: Vec<u64> = result.runs.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, (0..16).collect::<Vec<u64>>());
        // And repeated execution is bit-identical.
        assert_eq!(result, run_experiment(&config).unwrap());
    }
}

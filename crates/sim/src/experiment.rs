//! Seeded experiments and their aggregated results.
//!
//! [`ExperimentConfig`] is a *lowered form*: plain data with no defaulting
//! of its own. The documented way to produce one is the `Scenario` builder
//! in the `mbaa` facade crate (`Scenario::to_experiment` /
//! `Scenario::batch(..).stream(None)`), which is where every default is
//! decided.

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use mbaa_adversary::{CorruptionStrategy, MobilityStrategy};
use mbaa_core::{
    shape_compatible, BatchEngine, MobileRunOutcome, Observe, PackedLane, ProtocolConfig,
};
use mbaa_msr::MsrFunction;
use mbaa_net::{DisconnectionPolicy, LinkFaultPlan, Topology, TopologySchedule};
use mbaa_obs::timing::PhaseProfiler;
use mbaa_obs::{
    ConvergenceEvent, Event, MetricsRegistry, NoopObserver, Observer, Phase, RoundEvent,
    RunEndEvent, Sinks,
};
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
    /// Propagates the workload's and the builder's validation errors
    /// ([`Workload::validate`]).
    pub fn protocol_config(&self, seed: u64) -> Result<ProtocolConfig> {
        self.workload.validate()?;
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

/// The one seed-batch normalization every execution path shares: sorted
/// ascending, duplicates removed. Seed batches are sets — supplying the
/// same seeds in any order, or twice, describes the same runs — so every
/// executor and every report describes its runs through this.
#[must_use]
pub fn normalize_seeds<I: IntoIterator<Item = u64>>(seeds: I) -> Vec<u64> {
    let mut seeds: Vec<u64> = seeds.into_iter().collect();
    seeds.sort_unstable();
    seeds.dedup();
    seeds
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
    /// the summary fields are derived, shared by
    /// [`run_packed_experiments`] and the facade's
    /// `BatchOutcome::to_experiment_result`, so both agree field for field.
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

/// How many seeds one [`BatchEngine`] pack advances in lockstep. Packing
/// keeps the flat state arrays cache-resident (32 lanes × n values) and
/// leaves enough independent packs for the rayon pool to spread across
/// workers.
pub const BATCH_WIDTH: usize = 32;

/// The summary-level executor: runs several experiment points as **one**
/// cross-point packed pool. Every `(point, seed)` pair is lowered up
/// front (point-major, seed-minor), and consecutive lanes whose lowered
/// configurations are [`shape_compatible`] — same `n`, `f`, and model —
/// are packed into shared [`BatchEngine`] batches of up
/// to [`BATCH_WIDTH`] lanes. A point whose seed batch does not fill its
/// last batch is topped up with the next compatible point's first seeds,
/// so sweeping many small points does not pay one under-full batch per
/// point: mean lane occupancy is governed by the *total* lane count, not
/// the per-point seed count. A single point is the one-element case.
///
/// Seeds run in parallel on the ambient rayon pool; results come back
/// **per point**, aligned with `configs`, each point's runs in its seed
/// batch order. Per-seed summaries are bit-identical for every worker
/// count and pack boundary — a lane's result does not depend on the pack
/// it rides in. A point whose lowering or runs
/// fail carries its first failing seed's error (in seed-batch order)
/// without disturbing its neighbours, so callers keep point-level error
/// attribution.
///
/// Each pack runs with pack-local copies of the attached [`Sinks`]: a
/// [`MetricsRegistry`], one event buffer per lane (routed by
/// [`Observer::on_lane`]), and a [`PhaseProfiler`]. After every pack has
/// run they are folded into `sinks` in pack order: registries and
/// profilers merge by `u64` addition, and each pack's buffers are appended
/// lane by lane, so events arrive point-major and seed-minor. The
/// registry and the events are the same for every worker count and pack
/// boundary (the profile sums wall time over the workers), and the
/// summaries are the same with or without any sink. A point whose
/// lowering fails contributes nothing to them. With nothing attached the
/// packs run under [`NoopObserver`].
///
/// Only summaries leave this function, and summaries are bit-identical
/// across observability levels, so the engine always runs at
/// [`Observe::Summary`] — the allocation-free steady state — whatever each
/// description's level.
pub fn run_packed_experiments(
    configs: &[ExperimentConfig],
    mut sinks: Sinks<'_>,
) -> Vec<Result<ExperimentResult>> {
    let mut lowered: Vec<Option<mbaa_types::Error>> = Vec::with_capacity(configs.len());
    let mut lanes: Vec<PackedLane> = Vec::new();
    // `points[i]` is the point index of `lanes[i]` — kept as a parallel
    // vector so pack ranges can borrow `lanes` as a contiguous slice.
    let mut points: Vec<usize> = Vec::new();
    for (point, config) in configs.iter().enumerate() {
        // A point whose lowering fails contributes no lanes; its
        // neighbours still execute.
        match lower_point(config) {
            Ok(point_lanes) => {
                lowered.push(None);
                points.extend(std::iter::repeat_n(point, point_lanes.len()));
                lanes.extend(point_lanes);
            }
            Err(e) => lowered.push(Some(e)),
        }
    }
    let (metrics, events, profile) = (
        sinks.metrics.is_some(),
        sinks.events.is_some(),
        sinks.profile.is_some(),
    );
    let packs: Vec<(Vec<Result<RunSummary>>, Option<PackSinks>)> = plan_packs(&lanes)
        .into_par_iter()
        .map(|range| {
            let pack = &lanes[range.clone()];
            let mut local = (metrics || events || profile).then(|| PackSinks {
                metrics: metrics.then(MetricsRegistry::new),
                events: events.then(|| vec![Vec::new(); pack.len()]),
                lane: 0,
                profile: profile.then(PhaseProfiler::new),
            });
            let outcomes = match &mut local {
                Some(local) => BatchEngine::run_packed_observed(pack, local),
                None => BatchEngine::run_packed_observed(pack, &mut NoopObserver),
            };
            let runs = outcomes
                .into_iter()
                .zip(pack)
                .map(|(outcome, lane)| Ok(RunSummary::from_outcome(lane.config.seed, &outcome?)))
                .collect();
            (runs, local)
        })
        .collect();
    // The pack-local sinks fold in pack order, whatever order the packs
    // completed in. Packs are contiguous ranges of the point-major lane
    // list, so the flattened pack results scatter back per point in
    // seed-batch order; the first failing seed of a point wins its slot.
    let (pack_runs, locals): (Vec<_>, Vec<_>) = packs.into_iter().unzip();
    for local in locals.into_iter().flatten() {
        local.fold_into(&mut sinks);
    }
    let mut per_point: Vec<Result<Vec<RunSummary>>> =
        configs.iter().map(|_| Ok(Vec::new())).collect();
    for (&point, run) in points.iter().zip(pack_runs.into_iter().flatten()) {
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

/// The pack-local side of [`Sinks`]: the observer one pack runs under.
struct PackSinks {
    metrics: Option<MetricsRegistry>,
    /// One event buffer per lane of the pack.
    events: Option<Vec<Vec<Event>>>,
    /// The lane the engine last announced through [`Observer::on_lane`].
    lane: usize,
    profile: Option<PhaseProfiler>,
}

impl PackSinks {
    fn record(&mut self, event: Event) {
        if let Some(events) = &mut self.events {
            events[self.lane].push(event);
        }
    }

    /// Folds this pack's results into the caller's sinks.
    fn fold_into(self, sinks: &mut Sinks<'_>) {
        if let (Some(local), Some(sink)) = (self.metrics, sinks.metrics.as_deref_mut()) {
            sink.merge(&local);
        }
        if let (Some(local), Some(sink)) = (self.events, sinks.events.as_deref_mut()) {
            sink.extend(local.into_iter().flatten());
        }
        if let (Some(local), Some(sink)) = (self.profile, sinks.profile.as_deref_mut()) {
            sink.merge(&local);
        }
    }
}

impl Observer for PackSinks {
    // The profiler alone leaves event assembly off, as on its own.
    fn enabled(&self) -> bool {
        self.metrics.is_some() || self.events.is_some()
    }

    fn on_lane(&mut self, lane: usize) {
        self.lane = lane;
    }

    fn on_round(&mut self, event: &RoundEvent) {
        if let Some(metrics) = &mut self.metrics {
            metrics.on_round(event);
        }
        self.record(Event::Round(*event));
    }

    fn on_convergence(&mut self, event: &ConvergenceEvent) {
        if let Some(metrics) = &mut self.metrics {
            metrics.on_convergence(event);
        }
        self.record(Event::Convergence(*event));
    }

    fn on_run_end(&mut self, event: &RunEndEvent) {
        if let Some(metrics) = &mut self.metrics {
            metrics.on_run_end(event);
        }
        self.record(Event::RunEnd(*event));
    }

    fn phase_start(&mut self, phase: Phase) {
        if let Some(profile) = &mut self.profile {
            profile.phase_start(phase);
        }
    }

    fn phase_end(&mut self, phase: Phase) {
        if let Some(profile) = &mut self.profile {
            profile.phase_end(phase);
        }
    }
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
    let mut lanes = Vec::new();
    for config in configs {
        lanes.extend(lower_point(config)?);
    }
    if lanes.is_empty() {
        return Ok(1.0);
    }
    Ok(lanes.len() as f64 / (plan_packs(&lanes).len() * BATCH_WIDTH) as f64)
}

/// Lowers every seed of one point to its [`PackedLane`], run at
/// [`Observe::Summary`]; the first failing seed's error wins.
fn lower_point(config: &ExperimentConfig) -> Result<Vec<PackedLane>> {
    config
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
        .collect()
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

    /// One point through the packed executor.
    fn run_one(config: &ExperimentConfig) -> Result<ExperimentResult> {
        run_one_metrics(config, None)
    }

    fn run_one_metrics(
        config: &ExperimentConfig,
        metrics: Option<&mut MetricsRegistry>,
    ) -> Result<ExperimentResult> {
        let sinks = Sinks {
            metrics,
            ..Sinks::default()
        };
        run_packed_experiments(std::slice::from_ref(config), sinks)
            .pop()
            .expect("one result per point")
    }

    #[test]
    fn experiment_runs_every_seed() {
        let config = point(MobileModel::Buhrman, 7, 2, 0..4);
        let result = run_one(&config).unwrap();
        assert_eq!(result.runs.len(), 4);
        assert!(result.all_succeeded());
        assert_eq!(result.success_rate(), 1.0);
        assert!(result.mean_rounds().unwrap() >= 1.0);
    }

    #[test]
    fn below_bound_requires_explicit_opt_in() {
        let config = point(MobileModel::Garay, 8, 2, 0..1);
        assert!(run_one(&config).is_err());

        let permissive = ExperimentConfig {
            allow_bound_violation: true,
            ..config
        };
        assert!(run_one(&permissive).is_ok());
    }

    #[test]
    fn every_model_succeeds_at_its_bound() {
        for model in MobileModel::ALL {
            let f = 1;
            let n = model.required_processes(f);
            let config = point(model, n, f, 0..3);
            let result = run_one(&config).unwrap();
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
        let result = run_one(&config).unwrap();
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
        let result = run_one(&config).unwrap();
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
        let result = run_one(&config).unwrap();
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
        let result = run_one(&config).unwrap();
        assert!(result.runs.is_empty());
        assert_eq!(result.success_rate(), 0.0);
        assert!(!result.all_succeeded());
        assert_eq!(result.mean_rounds(), None);
    }

    #[test]
    fn streaming_observer_sees_every_summary_and_results_match() {
        // A metrics registry folds every run the pool executes; attaching
        // it changes no summary.
        let config = point(MobileModel::Buhrman, 7, 2, 0..6);
        let mut metrics = MetricsRegistry::new();
        let streamed = run_one_metrics(&config, Some(&mut metrics)).unwrap();
        assert_eq!(streamed, run_one(&config).unwrap());
        assert_eq!(metrics.runs, 6);
        let converged = streamed.runs.iter().filter(|r| r.reached_agreement).count();
        assert_eq!(metrics.converged, converged as u64);
        let rounds: usize = streamed.runs.iter().map(|r| r.rounds).sum();
        assert_eq!(metrics.rounds_total, rounds as u64);
    }

    #[test]
    fn streaming_observer_is_not_invoked_for_failing_configs() {
        let config = point(MobileModel::Garay, 8, 2, 0..3);
        let mut metrics = MetricsRegistry::new();
        assert!(run_one_metrics(&config, Some(&mut metrics)).is_err());
        assert_eq!(metrics, MetricsRegistry::new());
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
        let mut metrics = MetricsRegistry::new();
        let sinks = Sinks {
            metrics: Some(&mut metrics),
            ..Sinks::default()
        };
        let packed = run_packed_experiments(&configs, sinks);
        // Every point's result is bit-identical to running it alone, even
        // though its lanes shared packs with its neighbours, and the packed
        // registry is the merge of the per-point registries.
        let mut expected = MetricsRegistry::new();
        for (config, result) in configs.iter().zip(packed) {
            let mut alone = MetricsRegistry::new();
            assert_eq!(
                result.unwrap(),
                run_one_metrics(config, Some(&mut alone)).unwrap()
            );
            expected.merge(&alone);
        }
        assert_eq!(metrics, expected);
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
        let results = run_packed_experiments(&[good.clone(), bad, good.clone()], Sinks::default());
        assert!(results[1].is_err());
        let alone = run_one(&good).unwrap();
        assert_eq!(results[0].as_ref().unwrap(), &alone);
        assert_eq!(results[2].as_ref().unwrap(), &alone);
    }

    #[test]
    fn parallel_execution_matches_run_order() {
        // Seeds are recorded in batch order regardless of which thread
        // finished first.
        let config = point(MobileModel::Garay, 9, 2, 0..16);
        let result = run_one(&config).unwrap();
        let seeds: Vec<u64> = result.runs.iter().map(|r| r.seed).collect();
        assert_eq!(seeds, (0..16).collect::<Vec<u64>>());
        // And repeated execution is bit-identical.
        assert_eq!(result, run_one(&config).unwrap());
    }
}

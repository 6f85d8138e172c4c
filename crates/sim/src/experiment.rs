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
use mbaa_core::{BatchEngine, MobileRunOutcome, Observe, PackedLane, ProtocolConfig};
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
    /// The observability level the description was lowered from. Runs
    /// whose full outcome is kept run at it; [`run_packed_experiments`]
    /// runs the engine at [`Observe::Summary`], since only [`RunSummary`]
    /// fields survive and summaries are bit-identical across levels.
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

/// How many lanes one [`BatchEngine`] pack runs, one after another, on one
/// round scratch and one set of network realizations. 32 lanes share the
/// per-pack setup and still leave enough independent packs for the rayon
/// pool to spread across workers.
pub const BATCH_WIDTH: usize = 32;

/// The summary level of [`run_packed`]: each run is folded into its
/// [`RunSummary`], and one [`ExperimentResult`] comes back per point. Only
/// summaries leave, and they are bit-identical across observability
/// levels, so every lane runs at [`Observe::Summary`] — the
/// allocation-free steady state — whatever its description's level.
pub fn run_packed_experiments(
    configs: &[ExperimentConfig],
    sinks: Sinks<'_>,
) -> Vec<Result<ExperimentResult>> {
    let fold = |seed, outcome: MobileRunOutcome| RunSummary::from_outcome(seed, &outcome);
    run_packed(configs, false, sinks, fold)
        .into_iter()
        .zip(configs)
        .map(|(runs, config)| {
            Ok(ExperimentResult {
                config: config.clone(),
                runs: runs?,
            })
        })
        .collect()
}

/// The packed executor every seed batch runs through: runs several
/// experiment points as **one** cross-point packed pool. Its run list
/// holds every `(point, seed)` pair, point-major and seed-minor, cut into
/// chunks whatever sizes, fault bounds and models a chunk mixes. The
/// calling thread lowers the chunks, and each chunk's runs that lowered
/// run as one [`BatchEngine`] pack. `fold` turns each outcome into what is
/// kept of it on the worker, so no unfolded outcome outlives its chunk.
///
/// With `keep_outcomes`, lanes run at their point's own level, and the run
/// list is one wave of equal chunks, as many as [`BATCH_WIDTH`]-wide ones
/// would be, rounded up to a multiple of the workers, so a few dozen seeds
/// still spread over the pool. Without it, lanes run at
/// [`Observe::Summary`] in [`BATCH_WIDTH`] chunks, lowered one wave at a
/// time, as many as the pool runs at once, so memory stays flat.
///
/// Results come back **per point**, aligned with `configs`, each point's
/// folded runs in seed-batch order, bit-identical for every worker count
/// and pack boundary. A point carries its first failing seed's error,
/// whether that seed failed lowering or in its rounds, without disturbing
/// its neighbours.
///
/// Each pack runs with pack-local copies of the attached [`Sinks`] (a
/// [`MetricsRegistry`], an event buffer, a [`PhaseProfiler`]), emitting
/// its lanes' events lane by lane, and the copies fold into `sinks` in
/// pack order: registries and profilers merge by `u64` addition and each
/// buffer is appended whole, so events arrive point-major and seed-minor.
/// The registry and the events are the same for every worker count and
/// pack boundary (the profile sums wall time over the workers), and the
/// results are the same with or without any sink. A failing point emits
/// what its runs that ran emit. With nothing attached the packs run under
/// [`NoopObserver`].
pub fn run_packed<T: Send>(
    configs: &[ExperimentConfig],
    keep_outcomes: bool,
    mut sinks: Sinks<'_>,
    fold: impl Fn(u64, MobileRunOutcome) -> T + Sync,
) -> Vec<Result<Vec<T>>> {
    let runs: Vec<(usize, u64)> = configs
        .iter()
        .enumerate()
        .flat_map(|(point, config)| config.seeds.iter().map(move |&seed| (point, seed)))
        .collect();
    let (metrics, events, profile) = (
        sinks.metrics.is_some(),
        sinks.events.is_some(),
        sinks.profile.is_some(),
    );
    // A summary wave is as many full packs as the pool runs at once,
    // lowered on this thread: workers lowering their own chunks read
    // 13-17% fewer runs/s on perfbench's complete graphs (CHANGES.md).
    let threads = rayon::current_num_threads();
    let summary = (!keep_outcomes).then_some(Observe::Summary);
    let (wave, width) = if keep_outcomes {
        let packs = runs.len().div_ceil(BATCH_WIDTH).next_multiple_of(threads);
        (runs.len().max(1), runs.len().div_ceil(packs.max(1)).max(1))
    } else {
        (BATCH_WIDTH * threads, BATCH_WIDTH)
    };
    let mut results: Vec<Result<T>> = Vec::with_capacity(runs.len());
    for wave in runs.chunks(wave) {
        let packs: Vec<_> = wave
            .chunks(width)
            .map(|chunk| {
                // A run whose lowering fails keeps its error in its slot;
                // the runs that lowered form the pack.
                let mut lanes = Vec::with_capacity(chunk.len());
                let lowered: Vec<Result<()>> = chunk
                    .iter()
                    .map(|&(point, seed)| {
                        let config = &configs[point];
                        let mut lane = config.protocol_config(seed)?;
                        lane.observe = summary.unwrap_or(lane.observe);
                        lanes.push(PackedLane {
                            config: lane,
                            inputs: config.workload.generate(config.n, seed),
                        });
                        Ok(())
                    })
                    .collect();
                (chunk, lowered, lanes)
            })
            .collect();
        let ran: Vec<(Vec<Result<T>>, Option<PackSinks>)> = packs
            .into_par_iter()
            .map(|(chunk, lowered, lanes)| {
                let mut local = (metrics || events || profile).then(|| PackSinks {
                    metrics: metrics.then(MetricsRegistry::new),
                    events: events.then(Vec::new),
                    profile: profile.then(PhaseProfiler::new),
                });
                let mut outcomes = match &mut local {
                    Some(local) => BatchEngine::run_packed_observed(&lanes, local),
                    None => BatchEngine::run_packed_observed(&lanes, &mut NoopObserver),
                }
                .into_iter();
                let runs = lowered
                    .into_iter()
                    .zip(chunk)
                    .map(|(lowered, &(_, seed))| {
                        lowered?;
                        let outcome = outcomes.next().expect("one outcome per lowered run")?;
                        Ok(fold(seed, outcome))
                    })
                    .collect();
                (runs, local)
            })
            .collect();
        // The pack-local sinks fold in pack order, whatever order the
        // packs completed in.
        for (runs, local) in ran {
            results.extend(runs);
            if let Some(local) = local {
                local.fold_into(&mut sinks);
            }
        }
    }
    // The results follow the run list, so they scatter back per point in
    // seed-batch order; the first failing seed of a point wins its slot.
    let mut per_point: Vec<Result<Vec<T>>> = configs.iter().map(|_| Ok(Vec::new())).collect();
    for (&(point, _), run) in runs.iter().zip(results) {
        if let Ok(folded) = per_point[point].as_mut() {
            match run {
                Ok(run) => folded.push(run),
                Err(e) => per_point[point] = Err(e),
            }
        }
    }
    per_point
}

/// The pack-local side of [`Sinks`]: the observer one pack runs under.
struct PackSinks {
    metrics: Option<MetricsRegistry>,
    events: Option<Vec<Event>>,
    profile: Option<PhaseProfiler>,
}

impl PackSinks {
    fn record(&mut self, event: Event) {
        if let Some(events) = &mut self.events {
            events.push(event);
        }
    }

    /// Folds this pack's results into the caller's sinks.
    fn fold_into(self, sinks: &mut Sinks<'_>) {
        if let (Some(local), Some(sink)) = (self.metrics, sinks.metrics.as_deref_mut()) {
            sink.merge(&local);
        }
        if let (Some(local), Some(sink)) = (self.events, sinks.events.as_deref_mut()) {
            sink.extend(local);
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

/// Mean lane occupancy of the packs [`run_packed_experiments`] would
/// execute for `configs`: total runs over `packs × BATCH_WIDTH` slots,
/// where a run list of `L` runs is `⌈L / BATCH_WIDTH⌉` chunks. Runs that
/// would fail still take their chunk slots, so nothing is lowered and no
/// error is returned. An empty run list is vacuously full. This stays
/// public, with its `Result`, because `perfbench/trace` reports it.
pub fn mean_pack_occupancy(configs: &[ExperimentConfig]) -> Result<f64> {
    let runs: usize = configs.iter().map(|config| config.seeds.len()).sum();
    if runs == 0 {
        return Ok(1.0);
    }
    Ok(runs as f64 / (runs.div_ceil(BATCH_WIDTH) * BATCH_WIDTH) as f64)
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
        // Points whose knobs all differ — ε, topology, round budget, seed
        // batches — and, inside the first 32-lane chunk, neighbours of
        // another size, fault bound and model.
        let configs = [
            point(MobileModel::Garay, 9, 1, 0..12),
            ExperimentConfig {
                epsilon: 1e-4,
                topology: Topology::Ring { k: 2 },
                ..point(MobileModel::Garay, 9, 1, 5..17)
            },
            point(MobileModel::Bonnet, 13, 2, 20..24),
            point(MobileModel::Buhrman, 7, 2, 30..33),
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
        // Neighbours of another size share chunks too.
        let mixed = [
            point(MobileModel::Garay, 9, 1, 0..12),
            point(MobileModel::Garay, 13, 1, 0..12),
            point(MobileModel::Garay, 9, 1, 0..12),
        ];
        assert_eq!(mean_pack_occupancy(&mixed).unwrap(), 36.0 / 64.0);
        // Runs that fail lowering still take their chunk slots.
        let failing = point(MobileModel::Garay, 8, 2, 0..12);
        assert_eq!(mean_pack_occupancy(&[failing]).unwrap(), 12.0 / 32.0);
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

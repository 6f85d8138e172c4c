//! Batch and sweep execution for [`Scenario`]s: parallel seed fan-out,
//! seed-keyed aggregation, and the experiment grids the paper's figures are
//! built from.
//!
//! Runs are fully seeded and independent, so the [`Runner`] fans them out
//! on the work-stealing `rayon` pool and reassembles the outcomes sorted by
//! seed — the result is deterministic and independent of thread scheduling,
//! steal order, worker count, and the order seeds were supplied in.
//! [`Sweep::run`] flattens all of its `(point, seed)` pairs into **one**
//! global work pool under a single concurrency budget, so cheap points
//! drain while a near-threshold point is still converging. For very large
//! seed batches, [`Runner::stream`] / [`Sweep::stream`] fold each completed
//! run into its [`RunSummary`] on the worker instead of materializing full
//! trajectories. Both are thin calls into [`stream_segments`], the one
//! summary-level entry point, which hands every lowered point to
//! `mbaa_sim`'s cross-point packed executor and optionally feeds every
//! run's telemetry to the attached [`Sinks`]: a [`MetricsRegistry`], an
//! event stream, and a phase profiler.

use serde::{Deserialize, Serialize};

use rayon::prelude::*;

use mbaa_adversary::{CorruptionStrategy, MobilityStrategy};
use mbaa_core::{defaults, MobileRunOutcome, Observe};
use mbaa_mixed::{FaultAssignment, StaticBehavior, StaticSimulator};
use mbaa_obs::{MetricsRegistry, Sinks};
use mbaa_sim::{normalize_seeds, ExperimentResult, RunSummary};
use mbaa_types::{Epsilon, Error, MobileModel, Result};

use crate::Scenario;

/// Runs `op` with an explicit worker budget installed, or on the ambient
/// pool when none was requested.
fn with_pool<R>(workers: Option<usize>, op: impl FnOnce() -> R) -> R {
    match workers {
        Some(width) => rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .expect("the vendored pool builder cannot fail")
            .install(op),
        None => op(),
    }
}

/// Executes one scenario over a batch of seeds, in parallel.
///
/// Produced by [`Scenario::batch`]; consumed by [`Runner::run`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Runner {
    scenario: Scenario,
    seeds: Vec<u64>,
    workers: Option<usize>,
}

impl Runner {
    pub(crate) fn new<I: IntoIterator<Item = u64>>(scenario: Scenario, seeds: I) -> Self {
        Runner {
            scenario,
            seeds: seeds.into_iter().collect(),
            workers: None,
        }
    }

    /// Caps the worker threads this runner fans out on (the default is the
    /// machine's available parallelism). Purely a throughput knob: results
    /// are bit-identical for every width, including `1`.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// The scenario this runner executes.
    #[must_use]
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The seeds this runner will execute (as supplied, duplicates and
    /// all; [`run`](Runner::run) sorts and deduplicates).
    #[must_use]
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Runs every seed in parallel and aggregates the full outcomes into a
    /// [`BatchOutcome`], sorted by seed. Supplying the same seeds in any
    /// order produces an identical result.
    ///
    /// # Errors
    ///
    /// Returns the error of the smallest failing seed (configuration errors
    /// surface like this deterministically; engine errors cannot occur for
    /// workload-generated inputs).
    pub fn run(&self) -> Result<BatchOutcome> {
        let seeds = normalize_seeds(self.seeds.iter().copied());
        let scenario = &self.scenario;
        let results: Vec<(u64, Result<MobileRunOutcome>)> = with_pool(self.workers, || {
            seeds
                .into_par_iter()
                .map(|seed| (seed, scenario.run(seed)))
                .collect()
        });
        let mut runs = Vec::with_capacity(results.len());
        for (seed, outcome) in results {
            runs.push(SeededRun {
                seed,
                outcome: outcome?,
            });
        }
        Ok(BatchOutcome {
            scenario: self.scenario.clone(),
            runs,
        })
    }

    /// Streams the batch through the summary-level packed executor: every
    /// seed still runs in parallel, but each completed run is folded into
    /// its [`RunSummary`] *on the worker* and the full trajectory is never
    /// materialized, so memory stays flat even for very large seed
    /// batches. Seeds are sorted and deduplicated exactly as in
    /// [`Runner::run`], and the result equals
    /// [`Runner::run`]`()?.to_experiment_result()` bit for bit, for every
    /// worker count.
    ///
    /// When `metrics` is supplied, every run's telemetry is folded into it.
    /// The per-pack registries merge by elementwise counter addition —
    /// commutative and associative — so the registry is bit-identical for
    /// every worker count and completion order, and the summaries are the
    /// same either way.
    ///
    /// # Example
    ///
    /// ```
    /// use mbaa::prelude::*;
    ///
    /// let scenario = Scenario::at_bound(MobileModel::Buhrman, 2);
    /// // A large seed batch without holding one trajectory per seed.
    /// let mut metrics = MetricsRegistry::new();
    /// let summary = scenario.batch(0..128).stream(Some(&mut metrics))?;
    /// assert_eq!(summary.runs.len(), 128);
    /// assert!(summary.success_rate() > 0.99);
    /// assert_eq!(metrics.runs, 128);
    /// # Ok::<(), mbaa::Error>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates configuration and engine errors, deterministically (the
    /// smallest failing seed wins).
    pub fn stream(&self, metrics: Option<&mut MetricsRegistry>) -> Result<ExperimentResult> {
        let segment = (self.scenario.clone(), self.seeds.clone());
        let sinks = Sinks {
            metrics,
            ..Sinks::default()
        };
        stream_segments(std::slice::from_ref(&segment), self.workers, sinks)
            .pop()
            .expect("one result per segment")
    }
}

/// One seeded run within a batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeededRun {
    /// The seed that drove the adversary and the workload.
    pub seed: u64,
    /// The full outcome of the run.
    pub outcome: MobileRunOutcome,
}

/// The aggregated outcome of one scenario over a seed batch: the full
/// [`MobileRunOutcome`] of every seed, sorted by seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchOutcome {
    /// The scenario that produced this batch.
    pub scenario: Scenario,
    /// One full outcome per distinct seed, in ascending seed order.
    pub runs: Vec<SeededRun>,
}

impl BatchOutcome {
    /// Number of runs in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// `true` when the batch holds no runs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The outcome of one seed, if it is part of the batch.
    #[must_use]
    pub fn get(&self, seed: u64) -> Option<&MobileRunOutcome> {
        self.runs
            .binary_search_by_key(&seed, |r| r.seed)
            .ok()
            .map(|i| &self.runs[i].outcome)
    }

    /// Iterates over `(seed, outcome)` pairs in ascending seed order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &MobileRunOutcome)> + '_ {
        self.runs.iter().map(|r| (r.seed, &r.outcome))
    }

    /// Fraction of runs that reached ε-agreement *and* preserved validity.
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        if self.runs.is_empty() {
            return 0.0;
        }
        let ok = self
            .runs
            .iter()
            .filter(|r| r.outcome.reached_agreement && r.outcome.validity_holds())
            .count();
        ok as f64 / self.runs.len() as f64
    }

    /// `true` when every run reached ε-agreement with validity.
    #[must_use]
    pub fn all_succeeded(&self) -> bool {
        !self.runs.is_empty()
            && self
                .runs
                .iter()
                .all(|r| r.outcome.reached_agreement && r.outcome.validity_holds())
    }

    /// Mean rounds-to-agreement over the successful runs, or `None` when no
    /// run succeeded.
    #[must_use]
    pub fn mean_rounds(&self) -> Option<f64> {
        let rounds: Vec<f64> = self
            .runs
            .iter()
            .filter(|r| r.outcome.reached_agreement)
            .map(|r| r.outcome.rounds_executed as f64)
            .collect();
        if rounds.is_empty() {
            None
        } else {
            Some(rounds.iter().sum::<f64>() / rounds.len() as f64)
        }
    }

    /// Mean per-round contraction factor over the runs where one was
    /// measurable.
    #[must_use]
    pub fn mean_contraction(&self) -> Option<f64> {
        let factors: Vec<f64> = self
            .runs
            .iter()
            .filter_map(|r| r.outcome.report.mean_contraction_factor())
            .collect();
        if factors.is_empty() {
            None
        } else {
            Some(factors.iter().sum::<f64>() / factors.len() as f64)
        }
    }

    /// Condenses the batch into the summary-level [`ExperimentResult`] the
    /// report tables consume.
    #[must_use]
    pub fn to_experiment_result(&self) -> ExperimentResult {
        ExperimentResult {
            config: self
                .scenario
                .to_experiment(self.runs.iter().map(|r| r.seed)),
            runs: self
                .runs
                .iter()
                .map(|r| RunSummary::from_outcome(r.seed, &r.outcome))
                .collect(),
        }
    }
}

/// A family of scenarios differing in one axis (system size, agent count,
/// or anything produced by [`Sweep::over`]), evaluated point by point over
/// a common seed batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sweep {
    points: Vec<Scenario>,
    seeds: Vec<u64>,
    workers: Option<usize>,
}

impl Sweep {
    pub(crate) fn new(points: Vec<Scenario>) -> Self {
        // The historical experiment default: ten seeds per point.
        Sweep {
            points,
            seeds: (0..10).collect(),
            workers: None,
        }
    }

    /// A sweep over an explicit list of scenario points.
    #[must_use]
    pub fn over<I: IntoIterator<Item = Scenario>>(points: I) -> Self {
        Sweep::new(points.into_iter().collect())
    }

    /// Replaces the seed batch evaluated at every point (default `0..10`).
    #[must_use]
    pub fn seeds<I: IntoIterator<Item = u64>>(mut self, seeds: I) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Caps the worker threads of the sweep's global work pool (the default
    /// is the machine's available parallelism) — the sweep's single
    /// concurrency budget. Purely a throughput knob: results are
    /// bit-identical for every width, including `1`.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// The scenario points of the sweep.
    #[must_use]
    pub fn points(&self) -> &[Scenario] {
        &self.points
    }

    /// Runs the whole sweep through **one** global work-stealing pool: all
    /// `(point, seed)` pairs are flattened into a single task list and
    /// workers steal across point boundaries, so a near-threshold point
    /// that needs many rounds no longer serializes the points behind it.
    /// Outcomes are regrouped per point afterwards; every
    /// [`SweepPoint::outcome`] is bit-identical to running
    /// `point.batch(seeds).run()` on its own, for every worker count and
    /// steal order.
    ///
    /// # Example
    ///
    /// ```
    /// use mbaa::prelude::*;
    ///
    /// // Three system sizes × four seeds = twelve runs in one pool.
    /// let points = Scenario::at_bound(MobileModel::Buhrman, 2)
    ///     .sweep_n(2)
    ///     .seeds(0..4)
    ///     .run()?;
    /// assert_eq!(points.len(), 3);
    /// assert!(points.iter().all(|p| p.outcome.all_succeeded()));
    /// # Ok::<(), mbaa::Error>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates the first failing `(point, seed)` pair's error in
    /// point-major, seed-minor order — the same error the old sequential
    /// point loop surfaced.
    pub fn run(&self) -> Result<Vec<SweepPoint>> {
        let seeds = normalize_seeds(self.seeds.iter().copied());
        let tasks: Vec<(usize, u64)> = (0..self.points.len())
            .flat_map(|point| seeds.iter().map(move |&seed| (point, seed)))
            .collect();
        let results: Vec<Result<MobileRunOutcome>> = with_pool(self.workers, || {
            tasks
                .into_par_iter()
                .map(|(point, seed)| self.points[point].run(seed))
                .collect()
        });
        let mut results = results.into_iter();
        self.points
            .iter()
            .map(|scenario| {
                let runs = seeds
                    .iter()
                    .map(|&seed| {
                        Ok(SeededRun {
                            seed,
                            outcome: results.next().expect("one result per task")?,
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                Ok(SweepPoint {
                    scenario: scenario.clone(),
                    outcome: BatchOutcome {
                        scenario: scenario.clone(),
                        runs,
                    },
                })
            })
            .collect()
    }

    /// Streaming variant of [`Sweep::run`]: the same flattened global pool,
    /// but every point is a seed segment of [`stream_segments`], so
    /// consecutive shape-compatible lanes — **across point boundaries** —
    /// share seed-batched engine launches of up to
    /// [`mbaa_sim::BATCH_WIDTH`] lanes, and each completed run is folded
    /// into its [`RunSummary`] on the worker with the trajectory never
    /// materialized. A sweep of many small points therefore neither pays
    /// one under-full batch per point nor holds its trajectories. Each
    /// point's [`ExperimentResult`] equals
    /// `point.batch(seeds).run()?.to_experiment_result()` bit for bit.
    ///
    /// When `metrics` is supplied, the telemetry of every `(point, seed)`
    /// run is folded into it, bit-identically for every worker count,
    /// steal order, and completion order.
    ///
    /// # Errors
    ///
    /// Propagates the first failing `(point, seed)` pair's error in
    /// point-major, seed-minor order.
    pub fn stream(&self, metrics: Option<&mut MetricsRegistry>) -> Result<Vec<SweepSummary>> {
        let segments: Vec<(Scenario, Vec<u64>)> = self
            .points
            .iter()
            .map(|scenario| (scenario.clone(), self.seeds.clone()))
            .collect();
        let sinks = Sinks {
            metrics,
            ..Sinks::default()
        };
        // Each point's result carries its first failing seed's error (in
        // seed order), and results are consumed point-major — the
        // deterministic point-major / seed-minor error order.
        self.points
            .iter()
            .zip(stream_segments(&segments, self.workers, sinks))
            .map(|(scenario, result)| {
                Ok(SweepSummary {
                    scenario: scenario.clone(),
                    result: result?,
                })
            })
            .collect()
    }
}

/// The summary-level executor of the facade: runs several scenario
/// seed-segments as **one** cross-point packed pool under the requested
/// worker budget and returns one [`ExperimentResult`] per segment, aligned
/// with the input. [`Runner::stream`] is the one-segment case,
/// [`Sweep::stream`] one segment per point, and the CLI's resumable
/// checkpoint chunks slice a sweep grid into runs of consecutive
/// `(point, seed)` pairs. Segments whose lowered configurations share a
/// batch shape (same `n`, `f`, model) ride in shared seed-batched engine
/// launches, so a segment too small to fill a batch is topped up by its
/// neighbour instead of paying an under-full launch.
///
/// Seeds are normalized (sorted, deduplicated) per segment exactly as
/// [`Runner::run`] normalizes, and each segment's result is bit-identical
/// to `scenario.batch(seeds).run()?.to_experiment_result()`, for every
/// worker count. A failing segment carries its first failing seed's error
/// (in seed order) without disturbing its neighbours.
///
/// The attached [`Sinks`] observe the packed run itself: the registry
/// folds every run's telemetry, the event stream receives every run's
/// events segment-major and seed-minor, and the profiler sums every
/// pack's phase times. The registry and the events are bit-identical for
/// every worker count and pack boundary (see
/// `mbaa_sim::run_packed_experiments`).
pub fn stream_segments(
    segments: &[(Scenario, Vec<u64>)],
    workers: Option<usize>,
    sinks: Sinks<'_>,
) -> Vec<Result<ExperimentResult>> {
    let configs: Vec<mbaa_sim::ExperimentConfig> = segments
        .iter()
        .map(|(scenario, seeds)| scenario.to_experiment(normalize_seeds(seeds.iter().copied())))
        .collect();
    with_pool(workers, || {
        mbaa_sim::run_packed_experiments(&configs, sinks)
    })
}

/// One evaluated point of a [`Sweep`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The scenario of this point (its `n`, `f`, … are the axis values).
    pub scenario: Scenario,
    /// The aggregated batch outcome at this point.
    pub outcome: BatchOutcome,
}

/// One summary-only point of a streamed [`Sweep`] (see [`Sweep::stream`]):
/// the per-seed [`RunSummary`]s without the trajectories.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSummary {
    /// The scenario of this point (its `n`, `f`, … are the axis values).
    pub scenario: Scenario,
    /// The aggregated summary-level result at this point.
    pub result: ExperimentResult,
}

/// One cell of the adversary-strategy ablation grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationPoint {
    /// The model evaluated.
    pub model: MobileModel,
    /// The mobility strategy of the adversary.
    pub mobility: MobilityStrategy,
    /// The corruption strategy of the adversary.
    pub corruption: CorruptionStrategy,
    /// The aggregated outcome of the cell.
    pub outcome: BatchOutcome,
}

/// Evaluates every (mobility, corruption) pair for every model at
/// `n = n_Mi(f)` (experiment **F4**), over the template's ε, round budget,
/// workload, and `f`. Every cell runs its model's mapped default MSR
/// instance — an explicit `template.function` is ignored, since a single
/// instance cannot be correctly parameterised for all four models at once.
///
/// All `(cell, seed)` pairs of the grid are flattened onto **one** global
/// work-stealing pool — the same scheduling [`Sweep::run`] uses — so a slow
/// cell (a worst-case adversary near the bound) no longer serializes the
/// cells behind it. Each cell's [`BatchOutcome`] is bit-identical to
/// running `scenario.batch(seeds).run()` on its own.
///
/// # Errors
///
/// Propagates the first failing `(cell, seed)` pair's error in grid-major,
/// seed-minor order — the same error the old sequential cell loop surfaced.
pub fn adversary_ablation<I: IntoIterator<Item = u64>>(
    template: &Scenario,
    seeds: I,
) -> Result<Vec<AblationPoint>> {
    let mut cells = Vec::new();
    for model in MobileModel::ALL {
        for mobility in MobilityStrategy::ALL {
            for corruption in CorruptionStrategy::all_representative() {
                let scenario = Scenario {
                    model,
                    n: model.required_processes(template.f),
                    mobility,
                    corruption,
                    function: None,
                    ..template.clone()
                };
                cells.push((model, mobility, corruption, scenario));
            }
        }
    }

    // The grid *is* a sweep over adversary cells: reuse its flattened pool,
    // seed normalization, regrouping, and error ordering wholesale.
    let points = Sweep::over(cells.iter().map(|(_, _, _, scenario)| scenario.clone()))
        .seeds(seeds)
        .run()?;
    Ok(cells
        .iter()
        .zip(points)
        .map(|((model, mobility, corruption, _), point)| AblationPoint {
            model: *model,
            mobility: *mobility,
            corruption: *corruption,
            outcome: point.outcome,
        })
        .collect())
}

/// The diameter trajectories of one mobile run and its static mixed-mode
/// image (experiment **F3**, Theorem 1's equivalence).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EquivalencePoint {
    /// The seed shared by the two runs.
    pub seed: u64,
    /// End-of-round diameters of the mobile execution.
    pub mobile_diameters: Vec<f64>,
    /// End-of-round diameters of the static mixed-mode execution.
    pub static_diameters: Vec<f64>,
    /// Whether both runs reached ε-agreement.
    pub both_converged: bool,
}

impl EquivalencePoint {
    /// Rounds the mobile run needed (length of its trajectory).
    #[must_use]
    pub fn mobile_rounds(&self) -> usize {
        self.mobile_diameters.len()
    }

    /// Rounds the static run needed.
    #[must_use]
    pub fn static_rounds(&self) -> usize {
        self.static_diameters.len()
    }
}

/// Runs, for each seed, a mobile execution of the scenario and a static
/// mixed-mode execution with the mapped fault counts (Lemmas 1–4), under
/// comparable adversarial value strategies, and returns both diameter
/// trajectories.
///
/// # Errors
///
/// Propagates configuration and engine errors. Rejects scenarios with a
/// partial [`Topology`](mbaa_net::Topology): Theorem 1's equivalence is
/// stated on the fully connected network, and the static mixed-mode
/// simulator has no topology axis — comparing a masked mobile run against
/// an all-to-all static image would claim an equivalence that was never
/// computed on the same graph.
pub fn mobile_vs_static<I: IntoIterator<Item = u64>>(
    scenario: &Scenario,
    seeds: I,
) -> Result<Vec<EquivalencePoint>> {
    if !scenario.topology.is_complete() {
        return Err(Error::InvalidParameter(format!(
            "mobile_vs_static requires the complete topology (Theorem 1's setting); \
             got {} — run the mobile side alone via Scenario::batch instead",
            scenario.topology
        )));
    }
    if scenario.schedule.is_some() || !scenario.link_faults.is_clean() {
        return Err(Error::InvalidParameter(
            "mobile_vs_static requires a static fault-free network (Theorem 1's \
             setting); drop the topology schedule / link-fault plan and run the \
             mobile side alone via Scenario::batch instead"
                .into(),
        ));
    }
    let epsilon = Epsilon::try_new(scenario.epsilon)
        .ok_or_else(|| Error::InvalidParameter("epsilon must be > 0".into()))?;
    let counts = scenario.model.mixed_fault_counts(scenario.f);
    // The static image runs the same voting function as the mobile
    // execution, honouring an explicit override.
    let function = scenario
        .function
        .unwrap_or_else(|| defaults::model_default_function(scenario.model, scenario.f));

    // Only the diameters are read, so the mobile side records nothing.
    let mobile_side = scenario.clone().observe(Observe::Summary);
    seeds
        .into_iter()
        .map(|seed| {
            let mobile = mobile_side.run(seed)?;
            let inputs = scenario.initial_values(seed);

            let assignment = FaultAssignment::with_first_processes_faulty(scenario.n, counts)?;
            let static_sim =
                StaticSimulator::new(assignment, StaticBehavior::spread_attack(), seed);
            let static_outcome =
                static_sim.run(&function, &inputs, epsilon, scenario.max_rounds)?;

            Ok(EquivalencePoint {
                seed,
                mobile_diameters: mobile.report.diameters().to_vec(),
                static_diameters: static_outcome.report.diameters().to_vec(),
                both_converged: mobile.reached_agreement && static_outcome.reached_agreement,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbaa_msr::MsrFunction;

    fn small() -> Scenario {
        Scenario::at_bound(MobileModel::Buhrman, 2).max_rounds(200)
    }

    #[test]
    fn batch_runs_every_seed_sorted() {
        let batch = small().batch([3, 1, 2, 0]).run().unwrap();
        assert_eq!(batch.len(), 4);
        let seeds: Vec<u64> = batch.iter().map(|(s, _)| s).collect();
        assert_eq!(seeds, vec![0, 1, 2, 3]);
        assert!(batch.all_succeeded());
        assert_eq!(batch.success_rate(), 1.0);
        assert!(batch.mean_rounds().unwrap() >= 1.0);
    }

    #[test]
    fn batch_is_order_independent_and_deduplicated() {
        let a = small().batch([0, 1, 2]).run().unwrap();
        let b = small().batch([2, 0, 1, 1, 2]).run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn batch_matches_single_runs() {
        let scenario = small();
        let batch = scenario.batch(0..3).run().unwrap();
        for (seed, outcome) in batch.iter() {
            assert_eq!(outcome, &scenario.run(seed).unwrap());
        }
        assert_eq!(batch.get(1), Some(&scenario.run(1).unwrap()));
        assert_eq!(batch.get(99), None);
    }

    #[test]
    fn summaries_match_the_lowered_experiment_path() {
        let scenario = small();
        let via_batch = scenario.batch(0..4).run().unwrap().to_experiment_result();
        let via_experiment = scenario.batch(0..4).stream(None).unwrap();
        assert_eq!(via_batch, via_experiment);
    }

    #[test]
    fn summarize_applies_the_same_seed_normalisation_as_run() {
        // Duplicate, unordered seeds must describe the same runs on both
        // paths.
        let runner = small().batch([3, 1, 1, 0, 3]);
        let via_batch = runner.run().unwrap().to_experiment_result();
        let via_experiment = runner.stream(None).unwrap();
        assert_eq!(via_batch, via_experiment);
        assert_eq!(
            via_experiment
                .runs
                .iter()
                .map(|r| r.seed)
                .collect::<Vec<_>>(),
            vec![0, 1, 3]
        );
    }

    #[test]
    fn empty_batch_is_legal() {
        let batch = small().batch(std::iter::empty()).run().unwrap();
        assert!(batch.is_empty());
        assert_eq!(batch.success_rate(), 0.0);
        assert!(!batch.all_succeeded());
        assert_eq!(batch.mean_rounds(), None);
    }

    #[test]
    fn below_bound_batch_errors_deterministically() {
        let scenario = Scenario::new(MobileModel::Garay, 8, 2);
        let err = scenario.batch(0..3).run().unwrap_err();
        assert!(matches!(
            err,
            Error::InsufficientProcesses {
                required: 9,
                n: 8,
                ..
            }
        ));
        assert!(scenario
            .clone()
            .allow_bound_violation()
            .batch(0..3)
            .run()
            .is_ok());
    }

    #[test]
    fn stream_matches_the_eager_experiment_result() {
        let runner = small().batch([4, 2, 0, 2, 1]);
        let eager = runner.run().unwrap().to_experiment_result();
        let streamed = runner.stream(None).unwrap();
        assert_eq!(eager, streamed);
    }

    #[test]
    fn stream_with_observes_every_completed_run() {
        // A registry attached to the stream folds every completed run.
        let runner = small().batch(0..5);
        let mut metrics = MetricsRegistry::new();
        let streamed = runner.stream(Some(&mut metrics)).unwrap();
        assert_eq!(metrics.runs, 5);
        let rounds: usize = streamed.runs.iter().map(|r| r.rounds).sum();
        assert_eq!(metrics.rounds_total, rounds as u64);
        assert_eq!(streamed, runner.run().unwrap().to_experiment_result());
    }

    #[test]
    fn batch_results_are_identical_for_every_worker_budget() {
        let reference = small().batch(0..6).workers(1).run().unwrap();
        for width in [2usize, 3, 16] {
            let outcome = small().batch(0..6).workers(width).run().unwrap();
            assert_eq!(outcome, reference, "{width} workers diverged");
        }
        assert_eq!(small().batch(0..6).run().unwrap(), reference);
    }

    #[test]
    fn sweep_runs_every_point() {
        let sweep = small().sweep_n(2).seeds(0..2);
        let points = sweep.run().unwrap();
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].scenario.n, 7);
        assert_eq!(points[2].scenario.n, 9);
        assert!(points.iter().all(|p| p.outcome.all_succeeded()));
    }

    #[test]
    fn flattened_sweep_matches_per_point_batches_for_every_worker_budget() {
        // Mixed costs on purpose: the bound point converges slowly, the
        // wider points quickly — exactly the shape static chunking stalls
        // on. Every width must regroup to identical per-point outcomes.
        let sweep = small().sweep_n(2).seeds([3, 0, 2, 0]);
        let reference: Vec<SweepPoint> = sweep.clone().workers(1).run().unwrap();
        for width in [2usize, 5, 32] {
            let points = sweep.clone().workers(width).run().unwrap();
            assert_eq!(points, reference, "{width} workers diverged");
        }
        for point in &reference {
            assert_eq!(
                point.outcome,
                point.scenario.batch([3, 0, 2, 0]).run().unwrap()
            );
        }
    }

    #[test]
    fn streamed_sweep_matches_the_eager_sweep() {
        let sweep = small().sweep_n(1).seeds(0..3);
        let eager = sweep.run().unwrap();
        let streamed = sweep.stream(None).unwrap();
        assert_eq!(eager.len(), streamed.len());
        for (point, summary) in eager.iter().zip(&streamed) {
            assert_eq!(point.scenario, summary.scenario);
            assert_eq!(point.outcome.to_experiment_result(), summary.result);
        }
    }

    #[test]
    fn sweep_error_is_the_first_failing_point_major_pair() {
        // Second point is below the bound; the flattened pool must still
        // surface that point's smallest-seed error, not an arbitrary one.
        let ok = small();
        let bad = Scenario::new(MobileModel::Garay, 8, 2);
        let err = Sweep::over([ok, bad]).seeds(0..3).run().unwrap_err();
        assert!(matches!(
            err,
            Error::InsufficientProcesses {
                required: 9,
                n: 8,
                ..
            }
        ));
    }

    #[test]
    fn empty_sweep_and_empty_seed_batch_are_legal() {
        assert!(Sweep::over([]).seeds(0..3).run().unwrap().is_empty());
        let points = small().sweep_n(1).seeds(std::iter::empty()).run().unwrap();
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.outcome.is_empty()));
        assert!(Sweep::over([]).stream(None).unwrap().is_empty());
    }

    #[test]
    fn ablation_covers_the_full_grid() {
        let template = Scenario::at_bound(MobileModel::Buhrman, 1).max_rounds(150);
        let points = adversary_ablation(&template, 0..1).unwrap();
        let expected = MobileModel::ALL.len()
            * MobilityStrategy::ALL.len()
            * CorruptionStrategy::all_representative().len();
        assert_eq!(points.len(), expected);
        for p in &points {
            assert!(
                p.outcome.all_succeeded(),
                "{} with {}/{} failed above the bound",
                p.model,
                p.mobility,
                p.corruption
            );
        }
    }

    #[test]
    fn stream_with_reports_every_completed_point_identically() {
        // The points' lanes share packs across point boundaries; every
        // reported point is still bit-identical to streaming it alone.
        let sweep = small().sweep_n(2).seeds([2, 0, 1]);
        let summaries = sweep.stream(None).unwrap();
        assert_eq!(summaries.len(), sweep.points().len());
        for (scenario, summary) in sweep.points().iter().zip(&summaries) {
            assert_eq!(&summary.scenario, scenario);
            assert_eq!(
                summary.result,
                scenario.batch([2, 0, 1]).stream(None).unwrap()
            );
        }
    }

    #[test]
    fn stream_with_reports_empty_points_and_skips_failing_ones() {
        // An empty seed batch still reports one (empty) summary per point.
        let empty = small().sweep_n(1).seeds(std::iter::empty());
        let summaries = empty.stream(None).unwrap();
        assert_eq!(summaries.len(), 2);
        assert!(summaries.iter().all(|p| p.result.runs.is_empty()));

        // A failing point runs nothing, so the registry stays empty.
        let bad = Scenario::new(MobileModel::Garay, 8, 2);
        let mut metrics = MetricsRegistry::new();
        let err = Sweep::over([bad]).seeds(0..2).stream(Some(&mut metrics));
        assert!(err.is_err());
        assert_eq!(metrics, MetricsRegistry::new());
    }

    #[test]
    fn runner_stream_metrics_matches_stream_for_every_worker_budget() {
        let stream_metrics = |runner: Runner| {
            let mut metrics = MetricsRegistry::new();
            let result = runner.stream(Some(&mut metrics)).unwrap();
            (result, metrics)
        };
        let runner = small().batch(0..5);
        let (result, metrics) = stream_metrics(runner.clone());
        assert_eq!(result, runner.stream(None).unwrap());
        assert_eq!(metrics.runs, 5);
        assert_eq!(metrics.converged, 5);
        assert_eq!(metrics.rounds_to_converge.total(), 5);
        let (reference, ref_metrics) = stream_metrics(small().batch(0..5).workers(1));
        assert_eq!(reference, result);
        assert_eq!(ref_metrics, metrics);
        for width in [2usize, 8] {
            let (r, m) = stream_metrics(small().batch(0..5).workers(width));
            assert_eq!(r, reference, "{width} workers diverged");
            assert_eq!(m, ref_metrics, "{width} workers: registry diverged");
        }
    }

    #[test]
    fn sweep_stream_metrics_matches_stream_and_sums_the_points() {
        let stream_metrics = |sweep: Sweep| {
            let mut metrics = MetricsRegistry::new();
            let summaries = sweep.stream(Some(&mut metrics)).unwrap();
            (summaries, metrics)
        };
        let sweep = small().sweep_n(1).seeds(0..3);
        let (summaries, metrics) = stream_metrics(sweep.clone());
        assert_eq!(summaries, sweep.stream(None).unwrap());
        // The sweep registry is the merge of each point's own registry.
        let mut expected = MetricsRegistry::new();
        for point in sweep.points() {
            point.batch(0..3).stream(Some(&mut expected)).unwrap();
        }
        assert_eq!(metrics, expected);
        for width in [1usize, 2, 8] {
            let (s, m) = stream_metrics(sweep.clone().workers(width));
            assert_eq!(s, summaries, "{width} workers diverged");
            assert_eq!(m, metrics, "{width} workers: registry diverged");
        }
    }

    #[test]
    fn observe_metrics_equals_plain_run() {
        let scenario = small();
        let mut metrics = MetricsRegistry::new();
        let outcome = scenario.run_observed(7, &mut metrics).unwrap();
        assert_eq!(outcome, scenario.run(7).unwrap());
        assert_eq!(metrics.runs, 1);
        assert_eq!(metrics.rounds_total, outcome.rounds_executed as u64);
    }

    #[test]
    fn stream_with_is_deterministic_for_every_worker_budget() {
        let sweep = || small().sweep_n(1).seeds(0..3);
        let reference = sweep().workers(1).stream(None).unwrap();
        for width in [2usize, 8] {
            assert_eq!(
                sweep().workers(width).stream(None).unwrap(),
                reference,
                "{width} workers diverged"
            );
        }
    }

    #[test]
    fn flattened_ablation_matches_per_cell_batches() {
        // The flattened grid must regroup to the exact BatchOutcome each
        // cell's standalone batch produces — unordered duplicate seeds and
        // all.
        let template = Scenario::at_bound(MobileModel::Buhrman, 1).max_rounds(150);
        let points = adversary_ablation(&template, [1, 0, 1]).unwrap();
        for p in &points {
            assert_eq!(p.outcome, p.outcome.scenario.batch([0, 1]).run().unwrap());
        }
    }

    #[test]
    fn ablation_ignores_an_explicit_function_override() {
        // A single MSR instance cannot fit all four models; the grid must
        // run each model's mapped default even when the template carries an
        // override tuned to one model.
        let template = Scenario::at_bound(MobileModel::Buhrman, 1)
            .max_rounds(150)
            .function(MsrFunction::for_fault_counts(
                MobileModel::Buhrman.mixed_fault_counts(1),
            ));
        let points = adversary_ablation(&template, 0..1).unwrap();
        assert!(points.iter().all(|p| p.outcome.all_succeeded()));
        assert!(points.iter().all(|p| p.outcome.scenario.function.is_none()));
    }

    #[test]
    fn mobile_vs_static_honours_an_explicit_function() {
        let function = MsrFunction::fault_tolerant_midpoint(2);
        let scenario = Scenario::new(MobileModel::Garay, 9, 2)
            .max_rounds(200)
            .function(function);
        let points = mobile_vs_static(&scenario, 0..2).unwrap();
        // The FT-midpoint halves the diameter per round; both sides must
        // still converge, running the *same* rule.
        for p in &points {
            assert!(p.both_converged, "seed {} diverged", p.seed);
        }
    }

    #[test]
    fn mobile_vs_static_rejects_partial_topologies() {
        // The static mixed-mode simulator has no topology axis; claiming
        // Theorem 1's equivalence across different graphs would be wrong.
        use mbaa_net::Topology;
        let scenario = Scenario::new(MobileModel::Garay, 9, 1)
            .max_rounds(100)
            .topology(Topology::Ring { k: 2 });
        let err = mobile_vs_static(&scenario, 0..2).unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)));
        assert!(err.to_string().contains("complete topology"));
    }

    #[test]
    fn mobile_vs_static_rejects_schedules_and_link_faults() {
        use mbaa_net::{LinkFaultPlan, Topology, TopologySchedule};
        let scheduled = Scenario::new(MobileModel::Garay, 9, 1)
            .max_rounds(100)
            .topology_schedule(TopologySchedule::SeededChurn {
                base: Topology::Complete,
                flip_rate: 0.2,
            });
        assert!(mobile_vs_static(&scheduled, 0..1).is_err());
        let faulted = Scenario::new(MobileModel::Garay, 9, 1)
            .max_rounds(100)
            .link_faults(LinkFaultPlan::new().omit_all(0.1));
        assert!(mobile_vs_static(&faulted, 0..1).is_err());
    }

    #[test]
    fn mobile_and_static_trajectories_both_converge() {
        let scenario = Scenario::new(MobileModel::Garay, 9, 2).max_rounds(200);
        let points = mobile_vs_static(&scenario, 0..3).unwrap();
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(p.both_converged, "seed {} diverged", p.seed);
            assert!(p.mobile_rounds() > 0);
            assert!(p.static_rounds() > 0);
        }
    }
}

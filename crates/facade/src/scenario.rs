//! The [`Scenario`] builder: the single entry point describing one
//! experiment point of the paper.
//!
//! A scenario is the `(model, n, f, ε, adversary, algorithm, workload)`
//! tuple every table and figure of Bonomi et al. (ICDCS 2016) sweeps. It
//! *lowers* to the pre-existing forms instead of replacing them:
//!
//! * [`Scenario::run`] lowers to a [`ProtocolConfig`] and executes one
//!   seeded run as a one-lane pack of the [`BatchEngine`] round loop —
//!   bit-identical to building the `ProtocolConfig` by hand.
//! * [`Scenario::batch`] produces a [`Runner`](crate::Runner) that runs a
//!   seed batch through the packed executor and aggregates full outcomes
//!   into a [`BatchOutcome`](crate::BatchOutcome).
//! * [`Scenario::sweep_n`] / [`Scenario::sweep_f`] produce
//!   [`Sweep`](crate::Sweep)s over system size or agent count.
//!
//! Every default an unspecified knob receives is decided here (drawing on
//! [`mbaa_core::defaults`]), not in the lowered forms: experiment-grade
//! ε = 1e-3, a 300-round budget, the worst-case adversary
//! (extreme-targeting mobility + split corruption), the model's mapped MSR
//! instance, and the unit-interval spread workload.

use serde::{Deserialize, Serialize};

use mbaa_adversary::{CorruptionStrategy, MobilityStrategy};
use mbaa_core::{defaults, BatchEngine, MobileRunOutcome, Observe, ProtocolConfig};
use mbaa_msr::{MsrFunction, VotingFunction};
use mbaa_net::{DisconnectionPolicy, LinkFaultPlan, Topology, TopologySchedule};
use mbaa_obs::{NoopObserver, Observer};
use mbaa_sim::{ExperimentConfig, Workload};
use mbaa_types::{MobileModel, Result, Value};

use crate::runner::{Runner, Sweep};

/// A builder-first description of one experiment point: the
/// `(model, n, f, ε, adversary, algorithm, workload)` tuple the paper's
/// tables sweep.
///
/// Construct with [`Scenario::new`], refine with the chainable setters, and
/// lower with [`run`](Scenario::run) (single seed),
/// [`batch`](Scenario::batch) (parallel seed batch), or the `sweep_*`
/// methods (parameter sweeps).
///
/// # Example
///
/// ```
/// use mbaa::prelude::*;
///
/// let scenario = Scenario::new(MobileModel::Garay, 9, 2).epsilon(1e-4);
/// let outcome = scenario.run(42)?;
/// assert!(outcome.reached_agreement && outcome.validity_holds());
/// # Ok::<(), mbaa::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// The mobile Byzantine model.
    pub model: MobileModel,
    /// The number of processes.
    pub n: usize,
    /// The number of mobile agents.
    pub f: usize,
    /// The agreement tolerance ε.
    pub epsilon: f64,
    /// The per-run round budget.
    pub max_rounds: usize,
    /// The adversary's agent placement strategy.
    pub mobility: MobilityStrategy,
    /// The adversary's value corruption strategy.
    pub corruption: CorruptionStrategy,
    /// The communication graph every exchange is mediated by
    /// ([`Topology::Complete`] by default — the paper's network).
    pub topology: Topology,
    /// The per-round topology schedule — the mobile-network axis — or
    /// `None` for the static [`topology`](Scenario::topology).
    pub schedule: Option<TopologySchedule>,
    /// Per-link omission/delay faults layered on the structural mask
    /// (clean by default — the paper's reliable links).
    pub link_faults: LinkFaultPlan,
    /// What a dynamic schedule does with a transiently disconnected round
    /// (record by default).
    pub disconnection: DisconnectionPolicy,
    /// The MSR instance to run, or `None` for the model's mapped default.
    pub function: Option<MsrFunction>,
    /// How initial values are generated.
    pub workload: Workload,
    /// Whether `n` below the model's replica bound is permitted.
    pub allow_bound_violation: bool,
    /// How much of each run the engine records
    /// ([`Observe::Full`] by default, so single runs stay inspectable).
    /// Single runs and full-outcome batches run at this level; summary
    /// paths always run at [`Observe::Summary`] — the allocation-free
    /// steady state — since summaries are bit-identical across levels.
    /// Defaults on deserialization so pre-`Observe` documents still load.
    #[serde(default)]
    pub observe: Observe,
}

impl Scenario {
    /// Describes `n` processes attacked by `f` mobile agents under `model`,
    /// with the workspace defaults: experiment-grade ε = 1e-3, a 300-round
    /// budget, the worst-case adversary (extreme-targeting mobility, split
    /// corruption), the model's mapped MSR instance, and evenly spread
    /// initial values in `[0, 1]`.
    #[must_use]
    pub fn new(model: MobileModel, n: usize, f: usize) -> Self {
        Scenario {
            model,
            n,
            f,
            epsilon: defaults::EXPERIMENT_EPSILON,
            max_rounds: defaults::EXPERIMENT_MAX_ROUNDS,
            mobility: defaults::worst_case_mobility(),
            corruption: defaults::worst_case_corruption(),
            topology: Topology::Complete,
            schedule: None,
            link_faults: LinkFaultPlan::default(),
            disconnection: DisconnectionPolicy::default(),
            function: None,
            workload: Workload::default(),
            allow_bound_violation: false,
            observe: Observe::default(),
        }
    }

    /// Describes the smallest legal system for `f` agents under `model`
    /// (`n = n_Mi`, Table 2).
    #[must_use]
    pub fn at_bound(model: MobileModel, f: usize) -> Self {
        Scenario::new(model, model.required_processes(f), f)
    }

    /// Sets the agreement tolerance ε.
    #[must_use]
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the per-run round budget.
    #[must_use]
    pub fn max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the agent placement strategy.
    #[must_use]
    pub fn mobility(mut self, mobility: MobilityStrategy) -> Self {
        self.mobility = mobility;
        self
    }

    /// Sets the value corruption strategy.
    #[must_use]
    pub fn corruption(mut self, corruption: CorruptionStrategy) -> Self {
        self.corruption = corruption;
        self
    }

    /// Sets both adversary strategies at once.
    #[must_use]
    pub fn adversary(mut self, mobility: MobilityStrategy, corruption: CorruptionStrategy) -> Self {
        self.mobility = mobility;
        self.corruption = corruption;
        self
    }

    /// Sets the communication graph (default [`Topology::Complete`]).
    ///
    /// Lowering validates the graph: disconnected topologies are rejected
    /// with a typed error, and a partial graph must give every process a
    /// closed neighbourhood of at least the model's replica requirement
    /// `n_Mi` unless
    /// [`allow_bound_violation`](Scenario::allow_bound_violation) is set.
    ///
    /// # Example
    ///
    /// ```
    /// use mbaa::prelude::*;
    ///
    /// // 9 processes on a ring lattice, each hearing 2 neighbours per side.
    /// let outcome = Scenario::new(MobileModel::Garay, 9, 1)
    ///     .topology(Topology::Ring { k: 2 })
    ///     .run(0)?;
    /// assert!(outcome.rounds_executed > 0);
    /// # Ok::<(), mbaa::Error>(())
    /// ```
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Sets a per-round topology schedule — the mobile-*network* axis,
    /// composing with the mobile adversary. Use
    /// [`TopologySchedule::Static`] instead of also setting
    /// [`topology`](Scenario::topology) (lowering rejects the ambiguous
    /// combination).
    ///
    /// # Example
    ///
    /// ```
    /// use mbaa::prelude::*;
    ///
    /// // Every link of the complete graph is down 20% of the rounds.
    /// let outcome = Scenario::new(MobileModel::Garay, 9, 1)
    ///     .topology_schedule(TopologySchedule::SeededChurn {
    ///         base: Topology::Complete,
    ///         flip_rate: 0.2,
    ///     })
    ///     .run(0)?;
    /// assert!(outcome.rounds_executed > 0);
    /// assert!(outcome.network_stats.unreachable > 0);
    /// # Ok::<(), mbaa::Error>(())
    /// ```
    #[must_use]
    pub fn topology_schedule(mut self, schedule: TopologySchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Sets the per-link omission/delay fault plan (clean by default).
    /// Lowering validates every rule against the universe; losses and
    /// delays are accounted in the dedicated
    /// [`NetworkStats`](mbaa_net::NetworkStats) fields, never as adversary
    /// omissions.
    #[must_use]
    pub fn link_faults(mut self, link_faults: LinkFaultPlan) -> Self {
        self.link_faults = link_faults;
        self
    }

    /// Sets the per-round disconnection policy of a dynamic schedule
    /// (default [`DisconnectionPolicy::Record`]).
    #[must_use]
    pub fn disconnection(mut self, policy: DisconnectionPolicy) -> Self {
        self.disconnection = policy;
        self
    }

    /// Sets the MSR instance explicitly (the default is the instance tuned
    /// to the model's mapped fault counts, Lemmas 1–4).
    #[must_use]
    pub fn function(mut self, function: MsrFunction) -> Self {
        self.function = Some(function);
        self
    }

    /// Sets the initial-value workload.
    #[must_use]
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Sets the observability level of single runs and full-outcome batches
    /// (default [`Observe::Full`]). Purely an observation knob: every field
    /// an outcome does record is bit-identical across levels, but
    /// [`Observe::Summary`] skips per-round snapshots and the network trace
    /// entirely, keeping steady-state rounds allocation-free.
    ///
    /// # Example
    ///
    /// ```
    /// use mbaa::prelude::*;
    ///
    /// let scenario = Scenario::at_bound(MobileModel::Buhrman, 2);
    /// let full = scenario.clone().run(3)?;
    /// let lean = scenario.observe(Observe::Summary).run(3)?;
    /// assert!(lean.trace.is_empty() && lean.configurations.is_empty());
    /// assert_eq!(lean.final_votes, full.final_votes);
    /// assert_eq!(lean.report, full.report);
    /// # Ok::<(), mbaa::Error>(())
    /// ```
    #[must_use]
    pub fn observe(mut self, observe: Observe) -> Self {
        self.observe = observe;
        self
    }

    /// Fixes the initial values explicitly (sugar for a
    /// [`Workload::Fixed`] workload). The vector length must equal `n` by
    /// the time the scenario runs.
    #[must_use]
    pub fn inputs<I: IntoIterator<Item = Value>>(mut self, values: I) -> Self {
        self.workload = Workload::Fixed {
            values: values.into_iter().collect(),
        };
        self
    }

    /// Permits `n` below the model's replica bound (threshold sweeps and
    /// lower-bound experiments).
    #[must_use]
    pub fn allow_bound_violation(mut self) -> Self {
        self.allow_bound_violation = true;
        self
    }

    /// Returns `true` when `n` satisfies the model's replica requirement
    /// `n > c·f` (Table 2).
    #[must_use]
    pub fn satisfies_bound(&self) -> bool {
        self.n >= self.model.required_processes(self.f)
    }

    /// Lowers this scenario to the validated [`ProtocolConfig`] of one
    /// seeded run, through the one lowering every path shares
    /// ([`ExperimentConfig::protocol_config`]).
    ///
    /// # Errors
    ///
    /// Propagates the builder's validation errors (zero-sized system, `f`
    /// exceeding `n`, or `n` below the bound without
    /// [`allow_bound_violation`](Scenario::allow_bound_violation)) and the
    /// workload's ([`Workload::validate`]: values spanning an infinitely
    /// wide range).
    pub fn lower(&self, seed: u64) -> Result<ProtocolConfig> {
        self.to_experiment([]).protocol_config(seed)
    }

    /// Lowers this scenario to the [`ExperimentConfig`] of a seed batch —
    /// the aggregate-summary form consumed by
    /// [`mbaa_sim::run_packed_experiments`].
    #[must_use]
    pub fn to_experiment<I: IntoIterator<Item = u64>>(&self, seeds: I) -> ExperimentConfig {
        ExperimentConfig {
            model: self.model,
            n: self.n,
            f: self.f,
            epsilon: self.epsilon,
            max_rounds: self.max_rounds,
            mobility: self.mobility,
            corruption: self.corruption,
            topology: self.topology.clone(),
            schedule: self.schedule.clone(),
            link_faults: self.link_faults.clone(),
            disconnection: self.disconnection,
            function: self.function,
            seeds: seeds.into_iter().collect(),
            workload: self.workload.clone(),
            allow_bound_violation: self.allow_bound_violation,
            observe: self.observe,
        }
    }

    /// The initial values of one seeded run, generated by the workload.
    #[must_use]
    pub fn initial_values(&self, seed: u64) -> Vec<Value> {
        self.workload.generate(self.n, seed)
    }

    /// Runs this scenario once with `seed`, driving both the adversary and
    /// the workload. The result is bit-identical to lowering by hand:
    /// building the same [`ProtocolConfig`], generating the workload, and
    /// calling [`BatchEngine::run`].
    ///
    /// # Errors
    ///
    /// Propagates lowering and engine errors.
    pub fn run(&self, seed: u64) -> Result<MobileRunOutcome> {
        let config = self.lower(seed)?;
        let inputs = self.initial_values(seed);
        BatchEngine::run(&config, &inputs)
    }

    /// Runs this scenario once with `seed` while feeding every telemetry
    /// event — per-round diameters, contraction, fault and delivery counts,
    /// convergence, and the run-end record — to `observer`. The outcome is
    /// bit-identical to [`Scenario::run`] with any observer attached,
    /// including the no-op one.
    ///
    /// # Errors
    ///
    /// Propagates lowering and engine errors.
    pub fn run_observed<O: Observer>(
        &self,
        seed: u64,
        observer: &mut O,
    ) -> Result<MobileRunOutcome> {
        let config = self.lower(seed)?;
        let inputs = self.initial_values(seed);
        BatchEngine::run_with(&config, &inputs, None, observer)
    }

    /// Runs this scenario once with an explicit voting function, overriding
    /// the configured MSR instance — used to compare MSR instances with
    /// non-MSR baselines under identical adversaries.
    ///
    /// # Errors
    ///
    /// Propagates lowering and engine errors.
    pub fn run_with_function(
        &self,
        function: &dyn VotingFunction,
        seed: u64,
    ) -> Result<MobileRunOutcome> {
        let config = self.lower(seed)?;
        let inputs = self.initial_values(seed);
        BatchEngine::run_with(&config, &inputs, Some(function), &mut NoopObserver)
    }

    /// A [`Runner`] over this scenario and a seed batch. Both its calls run
    /// the seeds through the one packed executor: `run()` keeps every full
    /// outcome in a [`BatchOutcome`](crate::BatchOutcome), while
    /// `stream(None)` folds each run into its summary on the worker — flat
    /// memory for very large batches. Both are deterministic for every
    /// worker count.
    #[must_use]
    pub fn batch<I: IntoIterator<Item = u64>>(&self, seeds: I) -> Runner {
        Runner::new(self.clone(), seeds)
    }

    /// A sweep over the system size: `n` from the model's requirement
    /// `n_Mi` up to `n_Mi + extra`, everything else as in this scenario.
    #[must_use]
    pub fn sweep_n(&self, extra: usize) -> Sweep {
        let start = self.model.required_processes(self.f);
        let points = (start..=start + extra)
            .map(|n| Scenario { n, ..self.clone() })
            .collect();
        Sweep::new(points)
    }

    /// A sweep over the agent count. Each point keeps this scenario's
    /// *margin* above the bound: at `f` agents it runs
    /// `n = n_Mi(f) + (self.n - n_Mi(self.f))` processes, so every point
    /// sits the same distance above its requirement.
    #[must_use]
    pub fn sweep_f<I: IntoIterator<Item = usize>>(&self, fs: I) -> Sweep {
        let margin = self.n.saturating_sub(self.model.required_processes(self.f));
        let points = fs
            .into_iter()
            .map(|f| Scenario {
                f,
                n: self.model.required_processes(f) + margin,
                ..self.clone()
            })
            .collect();
        Sweep::new(points)
    }

    /// A sweep over the network connectivity: one point per topology,
    /// everything else as in this scenario. Like every [`Sweep`], `run()`
    /// and `stream(None)` flatten all `(point, seed)` pairs onto the shared
    /// work-stealing pool, so a slow sparse point never serializes the
    /// denser points behind it — this is the convergence-vs-degree surface
    /// of the Li–Hurfin–Wang connectivity regimes
    /// (see `examples/partial_connectivity.rs`).
    #[must_use]
    pub fn sweep_connectivity<I: IntoIterator<Item = Topology>>(&self, topologies: I) -> Sweep {
        let points = topologies
            .into_iter()
            .map(|topology| Scenario {
                topology,
                ..self.clone()
            })
            .collect();
        Sweep::new(points)
    }

    /// A sweep over the network degree: one point per degree `d`, realized
    /// as `Ring { k: d / 2 }` for even degrees (deterministic circulant
    /// lattices) and `RandomRegular { degree: d }` for odd ones. This is
    /// the ROADMAP's degree-range convenience over
    /// [`sweep_connectivity`](Scenario::sweep_connectivity): charting
    /// convergence against the closed neighbourhood `d + 1` directly.
    ///
    /// No `d`-regular graph on `n` vertices exists when `n · d` is odd
    /// (handshake lemma), so odd degrees need an even `n`: an infeasible
    /// point fails the whole sweep at run time with the realization's
    /// typed error. Restrict an odd-`n` scenario to even degrees, e.g.
    /// `(lo..=hi).filter(|d| d % 2 == 0)`.
    ///
    /// # Example
    ///
    /// ```
    /// use mbaa::prelude::*;
    ///
    /// // Even n: every degree in the range is feasible.
    /// let sweep = Scenario::new(MobileModel::Garay, 10, 1)
    ///     .allow_bound_violation()
    ///     .sweep_degrees(2..=4);
    /// assert_eq!(sweep.points().len(), 3);
    /// assert_eq!(sweep.points()[0].topology, Topology::Ring { k: 1 });
    /// assert_eq!(
    ///     sweep.points()[1].topology,
    ///     Topology::RandomRegular { degree: 3 },
    /// );
    /// assert!(sweep.seeds(0..2).run().is_ok());
    /// ```
    #[must_use]
    pub fn sweep_degrees<I: IntoIterator<Item = usize>>(&self, degrees: I) -> Sweep {
        self.sweep_connectivity(degrees.into_iter().map(|degree| {
            if degree % 2 == 0 {
                Topology::Ring { k: degree / 2 }
            } else {
                Topology::RandomRegular { degree }
            }
        }))
    }

    /// A sweep over the churn rate: one point per `flip_rate`, each
    /// churning the scenario's *base graph* — the static/churned graph of
    /// an existing schedule, or the scenario's [`topology`] otherwise —
    /// with every link independently down that fraction of the rounds.
    /// This is the convergence-vs-churn surface of the Li–Hurfin–Wang
    /// evolving-network regimes (see `examples/mobile_network.rs`); like
    /// every [`Sweep`], all `(point, seed)` pairs are flattened onto the
    /// shared work-stealing pool.
    ///
    /// [`topology`]: Scenario::topology
    #[must_use]
    pub fn sweep_churn<I: IntoIterator<Item = f64>>(&self, flip_rates: I) -> Sweep {
        let base = match &self.schedule {
            Some(TopologySchedule::Static(topology)) => topology.clone(),
            Some(TopologySchedule::SeededChurn { base, .. }) => base.clone(),
            Some(TopologySchedule::Periodic { .. }) | None => self.topology.clone(),
        };
        let points = flip_rates
            .into_iter()
            .map(|flip_rate| Scenario {
                topology: Topology::Complete,
                schedule: Some(TopologySchedule::SeededChurn {
                    base: base.clone(),
                    flip_rate,
                }),
                ..self.clone()
            })
            .collect();
        Sweep::new(points)
    }
}

#[cfg(test)]
mod tests {
    use mbaa_types::Error;

    use super::*;

    #[test]
    fn defaults_are_the_experiment_defaults() {
        let s = Scenario::new(MobileModel::Garay, 9, 2);
        assert_eq!(s.epsilon, defaults::EXPERIMENT_EPSILON);
        assert_eq!(s.max_rounds, defaults::EXPERIMENT_MAX_ROUNDS);
        assert_eq!(s.mobility, defaults::worst_case_mobility());
        assert_eq!(s.corruption, defaults::worst_case_corruption());
        assert_eq!(s.function, None);
        assert!(!s.allow_bound_violation);
    }

    #[test]
    fn lowering_preserves_every_knob() {
        let s = Scenario::new(MobileModel::Bonnet, 11, 2)
            .epsilon(0.25)
            .max_rounds(17)
            .mobility(MobilityStrategy::Random)
            .corruption(CorruptionStrategy::BoundaryDrag);
        let config = s.lower(99).unwrap();
        assert_eq!(config.model, MobileModel::Bonnet);
        assert_eq!((config.n, config.f), (11, 2));
        assert_eq!(config.epsilon.get(), 0.25);
        assert_eq!(config.max_rounds, 17);
        assert_eq!(config.mobility, MobilityStrategy::Random);
        assert_eq!(config.corruption, CorruptionStrategy::BoundaryDrag);
        assert_eq!(config.seed, 99);
        // The default function decision is made exactly once, in the
        // lowering path.
        assert_eq!(
            config.function,
            defaults::model_default_function(MobileModel::Bonnet, 2)
        );
    }

    #[test]
    fn bound_violations_require_opt_in() {
        let s = Scenario::new(MobileModel::Garay, 8, 2);
        assert!(!s.satisfies_bound());
        assert!(s.lower(0).is_err());
        assert!(s.allow_bound_violation().lower(0).is_ok());
    }

    #[test]
    fn at_bound_picks_the_table2_requirement() {
        for model in MobileModel::ALL {
            let s = Scenario::at_bound(model, 2);
            assert_eq!(s.n, model.required_processes(2));
            assert!(s.satisfies_bound());
        }
    }

    #[test]
    fn to_experiment_copies_the_description() {
        let s = Scenario::at_bound(MobileModel::Buhrman, 2).epsilon(1e-4);
        let exp = s.to_experiment(0..5);
        assert_eq!(exp.model, MobileModel::Buhrman);
        assert_eq!((exp.n, exp.f), (7, 2));
        assert_eq!(exp.epsilon, 1e-4);
        assert_eq!(exp.seeds, vec![0, 1, 2, 3, 4]);
        assert_eq!(exp.workload, Workload::default());
    }

    #[test]
    fn overflowing_inputs_fail_to_lower_instead_of_panicking() {
        let s = Scenario::new(MobileModel::Garay, 3, 0).inputs([
            Value::new(1.7e308),
            Value::new(-1.7e308),
            Value::ZERO,
        ]);
        assert!(matches!(s.lower(0), Err(Error::InvalidParameter(_))));
        assert!(matches!(s.run(0), Err(Error::InvalidParameter(_))));
        let sweep = s.to_experiment([0]);
        assert!(matches!(
            sweep.protocol_config(0),
            Err(Error::InvalidParameter(_))
        ));
    }

    #[test]
    fn fixed_inputs_override_the_workload() {
        let values: Vec<Value> = (0..7).map(|i| Value::new(i as f64)).collect();
        let s = Scenario::at_bound(MobileModel::Buhrman, 2).inputs(values.clone());
        assert_eq!(s.initial_values(3), values);
        // Seed only drives the adversary when inputs are fixed.
        assert_eq!(s.initial_values(4), values);
    }

    #[test]
    fn sweep_n_covers_the_requested_range() {
        let sweep = Scenario::at_bound(MobileModel::Buhrman, 2).sweep_n(3);
        let ns: Vec<usize> = sweep.points().iter().map(|p| p.n).collect();
        assert_eq!(ns, vec![7, 8, 9, 10]);
    }

    #[test]
    fn default_topology_is_complete_and_lowers_through() {
        let s = Scenario::new(MobileModel::Garay, 9, 1);
        assert_eq!(s.topology, Topology::Complete);
        let ringed = s.topology(Topology::Ring { k: 2 });
        assert_eq!(ringed.lower(3).unwrap().topology, Topology::Ring { k: 2 });
        assert_eq!(ringed.to_experiment(0..2).topology, Topology::Ring { k: 2 });
    }

    #[test]
    fn sweep_connectivity_varies_only_the_topology() {
        let s = Scenario::new(MobileModel::Garay, 9, 1);
        let sweep = s.sweep_connectivity([
            Topology::Ring { k: 2 },
            Topology::Ring { k: 3 },
            Topology::Complete,
        ]);
        let topologies: Vec<Topology> = sweep.points().iter().map(|p| p.topology.clone()).collect();
        assert_eq!(
            topologies,
            vec![
                Topology::Ring { k: 2 },
                Topology::Ring { k: 3 },
                Topology::Complete,
            ]
        );
        assert!(sweep.points().iter().all(|p| p.n == 9 && p.f == 1));
    }

    #[test]
    fn schedule_and_link_faults_lower_through() {
        let schedule = TopologySchedule::SeededChurn {
            base: Topology::Complete,
            flip_rate: 0.25,
        };
        let plan = LinkFaultPlan::new().omit_all(0.1).delay(0, 1, 2);
        let s = Scenario::new(MobileModel::Garay, 9, 1)
            .topology_schedule(schedule.clone())
            .link_faults(plan.clone())
            .disconnection(DisconnectionPolicy::Reject);
        let config = s.lower(3).unwrap();
        assert_eq!(config.schedule, Some(schedule.clone()));
        assert_eq!(config.link_faults, plan);
        assert_eq!(config.disconnection, DisconnectionPolicy::Reject);
        let exp = s.to_experiment(0..2);
        assert_eq!(exp.schedule, Some(schedule));
        assert_eq!(exp.link_faults, plan);
        assert_eq!(exp.disconnection, DisconnectionPolicy::Reject);
    }

    #[test]
    fn sweep_degrees_picks_rings_for_even_and_regular_for_odd() {
        let s = Scenario::new(MobileModel::Garay, 10, 1).allow_bound_violation();
        let sweep = s.sweep_degrees(2..=5);
        let topologies: Vec<Topology> = sweep.points().iter().map(|p| p.topology.clone()).collect();
        assert_eq!(
            topologies,
            vec![
                Topology::Ring { k: 1 },
                Topology::RandomRegular { degree: 3 },
                Topology::Ring { k: 2 },
                Topology::RandomRegular { degree: 5 },
            ]
        );
        assert!(sweep.points().iter().all(|p| p.n == 10 && p.f == 1));
    }

    #[test]
    fn sweep_churn_churns_the_base_graph() {
        // Base from the static topology axis…
        let s = Scenario::new(MobileModel::Garay, 9, 1).topology(Topology::Ring { k: 3 });
        let sweep = s.sweep_churn([0.0, 0.2]);
        for (point, rate) in sweep.points().iter().zip([0.0, 0.2]) {
            assert_eq!(point.topology, Topology::Complete);
            assert_eq!(
                point.schedule,
                Some(TopologySchedule::SeededChurn {
                    base: Topology::Ring { k: 3 },
                    flip_rate: rate,
                })
            );
        }
        // …or from an existing churn schedule.
        let churned = Scenario::new(MobileModel::Garay, 9, 1).topology_schedule(
            TopologySchedule::SeededChurn {
                base: Topology::Grid,
                flip_rate: 0.5,
            },
        );
        let resweep = churned.sweep_churn([0.1]);
        assert_eq!(
            resweep.points()[0].schedule,
            Some(TopologySchedule::SeededChurn {
                base: Topology::Grid,
                flip_rate: 0.1,
            })
        );
    }

    #[test]
    fn sweep_f_keeps_the_margin_above_the_bound() {
        let s = Scenario::new(MobileModel::Garay, 11, 2); // margin 2 above 9
        let sweep = s.sweep_f(1..=3);
        let points: Vec<(usize, usize)> = sweep.points().iter().map(|p| (p.f, p.n)).collect();
        assert_eq!(points, vec![(1, 7), (2, 11), (3, 15)]);
    }
}

//! Protocol configuration and its builder.

use serde::{Deserialize, Serialize};

use mbaa_adversary::{CorruptionStrategy, MobilityStrategy};
use mbaa_msr::{MsrFunction, Selection};
use mbaa_net::{Adjacency, DisconnectionPolicy, LinkFaultPlan, Topology, TopologySchedule};
use mbaa_types::{check_range, Epsilon, Error, MobileModel, ProcessId, Result};

/// The single source of truth for every default the workspace fills in when
/// a knob is left unspecified. The `Scenario` entry point in the `mbaa`
/// facade crate and [`ProtocolConfigBuilder`] both draw from here, so a
/// default is never decided in two places.
pub mod defaults {
    use mbaa_adversary::{CorruptionStrategy, MobilityStrategy};
    use mbaa_msr::MsrFunction;
    use mbaa_types::MobileModel;

    /// ε for direct, low-level protocol runs (tight, convergence-focused).
    pub const PROTOCOL_EPSILON: f64 = 1e-6;

    /// Round budget for direct, low-level protocol runs.
    pub const PROTOCOL_MAX_ROUNDS: usize = 1_000;

    /// ε for experiment-style scenario runs (the paper's table settings).
    pub const EXPERIMENT_EPSILON: f64 = 1e-3;

    /// Round budget for experiment-style scenario runs.
    pub const EXPERIMENT_MAX_ROUNDS: usize = 300;

    /// The worst-case agent placement: occupy the extreme-valued processes.
    #[must_use]
    pub fn worst_case_mobility() -> MobilityStrategy {
        MobilityStrategy::TargetExtremes
    }

    /// The worst-case value corruption: the classic split attack.
    #[must_use]
    pub fn worst_case_corruption() -> CorruptionStrategy {
        CorruptionStrategy::split_attack()
    }

    /// The MSR instance the paper analyses for `model` at `f` agents: the
    /// instance tuned to the model's mapped Mixed-Mode fault counts
    /// (Lemmas 1–4).
    #[must_use]
    pub fn model_default_function(model: MobileModel, f: usize) -> MsrFunction {
        MsrFunction::for_fault_counts(model.mixed_fault_counts(f))
    }
}

/// How much of an execution the engine records — the observability level
/// threaded from `Scenario` through [`ProtocolConfig`] to each lane of the
/// round loop.
///
/// Recording is pure *observation*: the protocol computation is identical
/// at every level, so the fields an outcome does record are bit-identical
/// across levels. What changes is the per-round cost — under
/// [`Observe::Summary`] a steady-state round performs **zero heap
/// allocations**, which is what makes 10k-seed sweeps memory- and
/// allocation-flat.
///
/// * [`Observe::Full`] — per-round [`RoundSnapshot`](crate::RoundSnapshot)s
///   *and* the full n×n-per-round network trace (the Table 1 raw
///   material). The default: single runs stay fully inspectable.
/// * [`Observe::Snapshots`] — per-round snapshots, no network trace.
/// * [`Observe::Summary`] — neither; only the convergence report, final
///   votes/states, and network statistics survive. The summary-level
///   batch/stream paths run at this level.
///
/// # Example
///
/// ```
/// use mbaa_core::{BatchEngine, Observe, ProtocolConfig};
/// use mbaa_types::{MobileModel, Value};
///
/// let config = ProtocolConfig::builder(MobileModel::Garay, 9, 2)
///     .observe(Observe::Summary)
///     .build()?;
/// let inputs: Vec<Value> = (0..9).map(|i| Value::new(i as f64 / 9.0)).collect();
/// let outcome = BatchEngine::run(&config, &inputs)?;
/// // The computation is unchanged; only the recordings are skipped.
/// assert!(outcome.reached_agreement);
/// assert!(outcome.configurations.is_empty() && outcome.trace.is_empty());
/// # Ok::<(), mbaa_types::Error>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Observe {
    /// Record per-round snapshots and the full network trace.
    #[default]
    Full,
    /// Record per-round snapshots only.
    Snapshots,
    /// Record nothing beyond the run summary's inputs.
    Summary,
}

impl Observe {
    /// Whether per-round [`RoundSnapshot`](crate::RoundSnapshot)s are
    /// recorded at this level.
    #[must_use]
    pub fn records_snapshots(self) -> bool {
        matches!(self, Observe::Full | Observe::Snapshots)
    }

    /// Whether the network trace is recorded at this level.
    #[must_use]
    pub fn records_trace(self) -> bool {
        matches!(self, Observe::Full)
    }
}

/// The complete, validated configuration of one protocol execution.
///
/// Use [`ProtocolConfig::builder`] to assemble one; the builder checks the
/// model's resilience bound `n > n_Mi` unless the caller explicitly opts out
/// (which the lower-bound experiments do).
///
/// # Example
///
/// ```
/// use mbaa_core::ProtocolConfig;
/// use mbaa_types::MobileModel;
///
/// let config = ProtocolConfig::builder(MobileModel::Bonnet, 11, 2)
///     .epsilon(1e-3)
///     .max_rounds(200)
///     .build()?;
/// assert_eq!(config.n, 11);
/// # Ok::<(), mbaa_types::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProtocolConfig {
    /// The mobile Byzantine model under which the protocol runs.
    pub model: MobileModel,
    /// The number of processes.
    pub n: usize,
    /// The number of mobile Byzantine agents.
    pub f: usize,
    /// The agreement tolerance.
    pub epsilon: Epsilon,
    /// The maximum number of rounds the engine will execute.
    pub max_rounds: usize,
    /// The agent placement strategy.
    pub mobility: MobilityStrategy,
    /// The value corruption strategy.
    pub corruption: CorruptionStrategy,
    /// The communication graph mediating every exchange
    /// ([`Topology::Complete`] reproduces the paper's network exactly).
    pub topology: Topology,
    /// The per-round topology schedule, or `None` for the static
    /// [`topology`](ProtocolConfig::topology) axis. When set, the (then
    /// necessarily default-complete) static topology is ignored and the
    /// schedule's realized graph of each round masks delivery.
    pub schedule: Option<TopologySchedule>,
    /// Per-link omission/delay faults layered on the structural mask
    /// (clean by default — the paper's reliable links).
    pub link_faults: LinkFaultPlan,
    /// What a dynamic schedule does with a transiently disconnected round:
    /// record it in the network statistics (default) or reject the run
    /// with a typed error.
    pub disconnection: DisconnectionPolicy,
    /// The MSR instance run by non-faulty processes.
    pub function: MsrFunction,
    /// Seed of all adversarial randomness.
    pub seed: u64,
    /// Whether the configuration was allowed to violate the model's bound.
    pub bound_violation_allowed: bool,
    /// How much of the execution the engine records (snapshots / trace).
    /// Defaults on deserialization so pre-`Observe` documents still load.
    #[serde(default)]
    pub observe: Observe,
}

impl ProtocolConfig {
    /// Starts building a configuration for `n` processes and `f` agents
    /// under `model`.
    #[must_use]
    pub fn builder(model: MobileModel, n: usize, f: usize) -> ProtocolConfigBuilder {
        ProtocolConfigBuilder::new(model, n, f)
    }

    /// Returns `true` when the configuration satisfies the model's replica
    /// requirement `n > n_Mi` (Table 2).
    #[must_use]
    pub fn satisfies_bound(&self) -> bool {
        self.n >= self.model.required_processes(self.f)
    }

    /// The reduction parameter τ the configured MSR function uses.
    #[must_use]
    pub fn tau(&self) -> usize {
        self.function.reduction().tau()
    }
}

/// Builder for [`ProtocolConfig`].
#[derive(Debug, Clone)]
pub struct ProtocolConfigBuilder {
    model: MobileModel,
    n: usize,
    f: usize,
    epsilon: Epsilon,
    max_rounds: usize,
    mobility: MobilityStrategy,
    corruption: CorruptionStrategy,
    topology: Topology,
    schedule: Option<TopologySchedule>,
    link_faults: LinkFaultPlan,
    disconnection: DisconnectionPolicy,
    function: Option<MsrFunction>,
    seed: u64,
    allow_bound_violation: bool,
    observe: Observe,
}

impl ProtocolConfigBuilder {
    fn new(model: MobileModel, n: usize, f: usize) -> Self {
        ProtocolConfigBuilder {
            model,
            n,
            f,
            epsilon: Epsilon::new(defaults::PROTOCOL_EPSILON),
            max_rounds: defaults::PROTOCOL_MAX_ROUNDS,
            mobility: MobilityStrategy::default(),
            corruption: CorruptionStrategy::default(),
            topology: Topology::Complete,
            schedule: None,
            link_faults: LinkFaultPlan::default(),
            disconnection: DisconnectionPolicy::default(),
            function: None,
            seed: 0,
            allow_bound_violation: false,
            observe: Observe::default(),
        }
    }

    /// Sets the agreement tolerance ε.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not finite and strictly positive.
    #[must_use]
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = Epsilon::new(epsilon);
        self
    }

    /// Sets the maximum number of rounds (default 1000).
    #[must_use]
    pub fn max_rounds(mut self, max_rounds: usize) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the agent placement strategy (default round-robin).
    #[must_use]
    pub fn mobility(mut self, mobility: MobilityStrategy) -> Self {
        self.mobility = mobility;
        self
    }

    /// Sets the value corruption strategy (default split attack).
    #[must_use]
    pub fn corruption(mut self, corruption: CorruptionStrategy) -> Self {
        self.corruption = corruption;
        self
    }

    /// Sets the communication graph (default [`Topology::Complete`], the
    /// paper's fully connected network).
    ///
    /// [`build`](ProtocolConfigBuilder::build) realizes and validates the
    /// graph: disconnected topologies are always rejected, and on a partial
    /// graph every process must hear at least the model's replica
    /// requirement `n_Mi` per round (its closed neighbourhood) unless bound
    /// violations are explicitly allowed.
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Sets a per-round topology schedule — the mobile-network axis. The
    /// static topology must stay at its default ([`Topology::Complete`]);
    /// schedule a static graph with
    /// [`TopologySchedule::Static`] instead of setting both knobs.
    ///
    /// [`build`](ProtocolConfigBuilder::build) realizes and validates the
    /// schedule: the static graph or churn base must be connected (the
    /// typed [`Error::DisconnectedTopology`], never waived) and satisfy
    /// the model's degree-dependent resilience requirement unless bound
    /// violations are allowed. Periodic phases are held to the same checks
    /// under the [`DisconnectionPolicy::Reject`] policy; under the default
    /// [`DisconnectionPolicy::Record`] policy a phase may be transiently
    /// disconnected or sparse — the Li–Hurfin–Wang evolving-graph regime,
    /// where only the union over a window carries the bound.
    #[must_use]
    pub fn topology_schedule(mut self, schedule: TopologySchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Sets the per-link omission/delay fault plan (default clean — the
    /// paper's reliable links). [`build`](ProtocolConfigBuilder::build)
    /// validates every rule against the universe with typed errors.
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

    /// Sets the MSR instance explicitly. By default the builder picks
    /// [`MsrFunction::for_fault_counts`] with the model's mapped fault
    /// counts (Lemmas 1–4), which is the instance the paper analyses.
    #[must_use]
    pub fn function(mut self, function: MsrFunction) -> Self {
        self.function = Some(function);
        self
    }

    /// Sets the adversary seed (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the observability level (default [`Observe::Full`]). Purely an
    /// observation knob: the computation — and every recorded field — is
    /// bit-identical across levels, but [`Observe::Summary`] keeps
    /// steady-state rounds allocation-free.
    #[must_use]
    pub fn observe(mut self, observe: Observe) -> Self {
        self.observe = observe;
        self
    }

    /// Allows configurations with `n <= n_Mi`, which the model cannot
    /// tolerate — used by the lower-bound and threshold experiments.
    #[must_use]
    pub fn allow_bound_violation(mut self) -> Self {
        self.allow_bound_violation = true;
        self
    }

    /// Validates the parameters and produces the configuration.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidParameter`] when `n == 0`, `max_rounds == 0`,
    ///   `f >= n` (no process would be non-faulty), the voting function
    ///   selects every 0th value, a random-noise
    ///   corruption range is inverted or infinitely wide, or the topology
    ///   cannot be realized over `n` processes (mismatched custom matrix,
    ///   infeasible random-regular degree).
    /// * [`Error::InsufficientProcesses`] when `n <= n_Mi` and bound
    ///   violations were not explicitly allowed.
    /// * [`Error::DisconnectedTopology`] when the realized graph is not
    ///   connected (never waived: agreement is meaningless across
    ///   components).
    /// * [`Error::InsufficientConnectivity`] when, on a partial graph, some
    ///   process hears fewer than `n_Mi` processes per round and bound
    ///   violations were not explicitly allowed.
    /// * [`Error::UnknownProcess`] when a link-fault rule names an endpoint
    ///   outside the universe.
    pub fn build(self) -> Result<ProtocolConfig> {
        if self.n == 0 {
            return Err(Error::InvalidParameter("n must be at least 1".into()));
        }
        if self.max_rounds == 0 {
            return Err(Error::InvalidParameter(
                "max_rounds must be at least 1".into(),
            ));
        }
        if self.f >= self.n {
            // With every process faulty, validity and ε-agreement range
            // over an empty correct set.
            return Err(Error::InvalidParameter(format!(
                "f={} agents must leave at least one of the n={} processes non-faulty",
                self.f, self.n
            )));
        }
        if let Some(Selection::EveryKth { k: 0 }) = self.function.map(|f| f.selection()) {
            return Err(Error::InvalidParameter(
                "selection step k must be at least 1".into(),
            ));
        }
        if let CorruptionStrategy::RandomNoise { lo, hi } = self.corruption {
            check_range("random-noise range", lo, hi)?;
        }
        let required = self.model.required_processes(self.f);
        let satisfies = self.n >= required;
        if !satisfies && !self.allow_bound_violation {
            return Err(Error::InsufficientProcesses {
                model: self.model,
                n: self.n,
                f: self.f,
                required,
            });
        }
        // Link-fault rules are validated against the universe exactly once,
        // at build time, by `severed_arcs` (a clean plan has no rules to
        // check); the engine re-compiles the same plan infallibly.
        // Deterministic p = 1 cuts are structure in disguise, so they are
        // subtracted from the realized graph before the connectivity and
        // resilience checks below — a plan cannot smuggle in a partition
        // that the equivalent Topology::Custom would be rejected for.
        let severed = self.link_faults.severed_arcs(self.n)?;
        let validator = GraphValidator {
            model: self.model,
            f: self.f,
            n: self.n,
            required,
            allow_bound_violation: self.allow_bound_violation,
        };
        // The default Complete topology with no cuts is trivially connected
        // and needs no graph checks — skip realization entirely so the
        // common lowering path never allocates the n² matrix. Partial
        // descriptions are realized once here for validation; the engine
        // re-realizes deterministically from the same (n, seed) pair.
        if let Some(schedule) = &self.schedule {
            if !self.topology.is_complete() {
                return Err(Error::InvalidParameter(
                    "set either a static topology or a topology schedule, not both \
                     (schedule a static graph with TopologySchedule::Static)"
                        .into(),
                ));
            }
            if let TopologySchedule::SeededChurn { flip_rate, .. } = schedule {
                if *flip_rate >= 1.0 && self.n > 1 {
                    return Err(Error::InvalidParameter(
                        "churn flip_rate 1.0 severs every link in every round — a \
                         permanent partition, not transient churn"
                            .into(),
                    ));
                }
            }
            let realized = schedule.realize(self.n, self.seed)?;
            // A static graph or a churn base can never recover from
            // disconnection or sparsity, so the PR 3 checks apply in full.
            // Genuinely rotating periodic phases are transient under the
            // Record policy: a phase may be disconnected or sparse, but
            // the union over one period must still be connected — a
            // partition every phase shares is permanent. A schedule whose
            // phases are all identical is static in disguise (it also
            // lowers onto the static network path) and gets the full
            // checks regardless of policy.
            let transient_phases = matches!(schedule, TopologySchedule::Periodic { .. })
                && self.disconnection == DisconnectionPolicy::Record
                && realized.is_dynamic();
            if transient_phases {
                let union = union_of(self.n, realized.validation_graphs());
                validator.check(&union, &severed, false)?;
            } else {
                for graph in realized.validation_graphs() {
                    validator.check(graph, &severed, true)?;
                }
            }
        } else if !self.topology.is_complete() || !severed.is_empty() {
            let adjacency = self.topology.realize(self.n, self.seed)?;
            validator.check(&adjacency, &severed, true)?;
        }
        let function = self
            .function
            .unwrap_or_else(|| defaults::model_default_function(self.model, self.f));
        Ok(ProtocolConfig {
            model: self.model,
            n: self.n,
            f: self.f,
            epsilon: self.epsilon,
            max_rounds: self.max_rounds,
            mobility: self.mobility,
            corruption: self.corruption,
            topology: self.topology,
            schedule: self.schedule,
            link_faults: self.link_faults,
            disconnection: self.disconnection,
            function,
            seed: self.seed,
            bound_violation_allowed: self.allow_bound_violation,
            observe: self.observe,
        })
    }
}

/// The graph checks one realized communication graph goes through at build
/// time, shared by the static-topology and schedule paths.
struct GraphValidator {
    model: MobileModel,
    f: usize,
    n: usize,
    /// The model's replica requirement `n_Mi`.
    required: usize,
    allow_bound_violation: bool,
}

impl GraphValidator {
    /// Validates `graph` with the plan's deterministically severed arcs
    /// removed: connectivity is never waived (strong connectivity, since
    /// cuts make the graph directed), and — when `enforce_resilience` —
    /// every process must hear at least the replica requirement per round
    /// unless bound violations are allowed. A complete graph hears all `n`,
    /// which the process bound already covers.
    fn check(
        &self,
        graph: &Adjacency,
        severed: &[(usize, usize)],
        enforce_resilience: bool,
    ) -> Result<()> {
        let (components, min_neighborhood) = graph.cut_connectivity(severed);
        if components > 1 {
            return Err(Error::DisconnectedTopology {
                n: self.n,
                components,
            });
        }
        if enforce_resilience && min_neighborhood < self.required && !self.allow_bound_violation {
            return Err(Error::InsufficientConnectivity {
                model: self.model,
                f: self.f,
                min_neighborhood,
                required: self.required,
            });
        }
        Ok(())
    }
}

/// The union of several realized graphs over one universe: a link exists
/// when any of the graphs carries it. This is the graph a rotating
/// periodic schedule offers *across* one period — the quantity the
/// transient-disconnection reading needs connected.
fn union_of(n: usize, graphs: &[Adjacency]) -> Adjacency {
    let edges = (0..n).flat_map(|a| {
        (a + 1..n)
            .filter(move |&b| {
                graphs
                    .iter()
                    .any(|g| g.connected(ProcessId::new(a), ProcessId::new(b)))
            })
            .map(move |b| (a, b))
    });
    Adjacency::from_edges(n, edges).expect("union edges stay inside the universe")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbaa_types::FaultCounts;

    #[test]
    fn builder_defaults_are_sensible() {
        let config = ProtocolConfig::builder(MobileModel::Garay, 9, 2)
            .build()
            .unwrap();
        assert_eq!(config.model, MobileModel::Garay);
        assert_eq!(config.n, 9);
        assert_eq!(config.f, 2);
        assert!(config.satisfies_bound());
        assert_eq!(config.max_rounds, 1_000);
        // Default MSR instance uses the mapped fault counts: a=2, b=2 → τ=2.
        assert_eq!(config.tau(), FaultCounts::new(2, 0, 2).reduction_tau());
        assert!(!config.bound_violation_allowed);
    }

    #[test]
    fn bound_violation_rejected_by_default() {
        let err = ProtocolConfig::builder(MobileModel::Garay, 8, 2)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            Error::InsufficientProcesses {
                required: 9,
                n: 8,
                f: 2,
                ..
            }
        ));
    }

    #[test]
    fn bound_violation_allowed_when_requested() {
        let config = ProtocolConfig::builder(MobileModel::Sasaki, 6, 1)
            .allow_bound_violation()
            .build()
            .unwrap();
        assert!(!config.satisfies_bound());
        assert!(config.bound_violation_allowed);
    }

    #[test]
    fn per_model_required_processes_enforced() {
        // Smallest legal n per model for f = 1 (Table 2).
        for (model, min_n) in [
            (MobileModel::Garay, 5),
            (MobileModel::Bonnet, 6),
            (MobileModel::Sasaki, 7),
            (MobileModel::Buhrman, 4),
        ] {
            assert!(ProtocolConfig::builder(model, min_n, 1).build().is_ok());
            assert!(ProtocolConfig::builder(model, min_n - 1, 1)
                .build()
                .is_err());
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(matches!(
            ProtocolConfig::builder(MobileModel::Buhrman, 0, 0).build(),
            Err(Error::InvalidParameter(_))
        ));
        assert!(matches!(
            ProtocolConfig::builder(MobileModel::Buhrman, 4, 1)
                .max_rounds(0)
                .build(),
            Err(Error::InvalidParameter(_))
        ));
        assert!(matches!(
            ProtocolConfig::builder(MobileModel::Buhrman, 4, 5)
                .allow_bound_violation()
                .build(),
            Err(Error::InvalidParameter(_))
        ));
    }

    #[test]
    fn agents_on_every_process_are_rejected() {
        for (model, n) in [(MobileModel::Garay, 9), (MobileModel::Buhrman, 1)] {
            let err = ProtocolConfig::builder(model, n, n)
                .allow_bound_violation()
                .build()
                .unwrap_err();
            assert!(matches!(err, Error::InvalidParameter(_)), "{model}: {err}");
        }
    }

    #[test]
    fn every_zeroth_selection_is_rejected() {
        let every = |k| {
            ProtocolConfig::builder(MobileModel::Garay, 9, 2)
                .function(MsrFunction::new(
                    mbaa_msr::Reduction::trim(2),
                    Selection::EveryKth { k },
                ))
                .build()
        };
        assert!(every(1).is_ok());
        assert!(matches!(every(0), Err(Error::InvalidParameter(_))));
    }

    #[test]
    fn inverted_or_unbounded_noise_ranges_are_rejected() {
        let noise = |lo, hi| {
            ProtocolConfig::builder(MobileModel::Garay, 9, 2)
                .corruption(CorruptionStrategy::RandomNoise { lo, hi })
                .build()
        };
        assert!(noise(-1.0, 1.0).is_ok());
        assert!(noise(1.0, 1.0).is_ok());
        for (lo, hi) in [(1.0, -1.0), (-1e308, 1e308), (f64::NAN, 1.0)] {
            assert!(
                matches!(noise(lo, hi), Err(Error::InvalidParameter(_))),
                "[{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn explicit_function_overrides_default() {
        let config = ProtocolConfig::builder(MobileModel::Buhrman, 7, 2)
            .function(MsrFunction::fault_tolerant_midpoint(2))
            .build()
            .unwrap();
        assert_eq!(config.function, MsrFunction::fault_tolerant_midpoint(2));
    }

    #[test]
    fn custom_knobs_are_kept() {
        let config = ProtocolConfig::builder(MobileModel::Bonnet, 11, 2)
            .epsilon(0.25)
            .max_rounds(17)
            .mobility(MobilityStrategy::Random)
            .corruption(CorruptionStrategy::BoundaryDrag)
            .seed(99)
            .build()
            .unwrap();
        assert_eq!(config.epsilon.get(), 0.25);
        assert_eq!(config.max_rounds, 17);
        assert_eq!(config.mobility, MobilityStrategy::Random);
        assert_eq!(config.corruption, CorruptionStrategy::BoundaryDrag);
        assert_eq!(config.seed, 99);
    }

    #[test]
    fn topology_defaults_to_complete() {
        let config = ProtocolConfig::builder(MobileModel::Garay, 9, 2)
            .build()
            .unwrap();
        assert_eq!(config.topology, Topology::Complete);
    }

    #[test]
    fn sparse_topology_below_the_neighborhood_bound_is_rejected() {
        // Garay with f = 1 needs every process to hear n_Mi = 5 processes;
        // a k = 1 ring offers closed neighbourhoods of 3.
        let err = ProtocolConfig::builder(MobileModel::Garay, 9, 1)
            .topology(Topology::Ring { k: 1 })
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            Error::InsufficientConnectivity {
                model: MobileModel::Garay,
                f: 1,
                min_neighborhood: 3,
                required: 5,
            }
        ));
        // The threshold experiments can opt in, exactly like the global
        // bound.
        let config = ProtocolConfig::builder(MobileModel::Garay, 9, 1)
            .topology(Topology::Ring { k: 1 })
            .allow_bound_violation()
            .build()
            .unwrap();
        assert_eq!(config.topology, Topology::Ring { k: 1 });
    }

    #[test]
    fn topology_at_the_neighborhood_bound_builds() {
        // A k = 2 ring gives closed neighbourhoods of exactly 5 = n_Mi.
        assert!(ProtocolConfig::builder(MobileModel::Garay, 9, 1)
            .topology(Topology::Ring { k: 2 })
            .build()
            .is_ok());
    }

    #[test]
    fn disconnected_topology_is_rejected_even_with_bound_violations_allowed() {
        let err = ProtocolConfig::builder(MobileModel::Buhrman, 4, 1)
            .topology(Topology::Ring { k: 0 })
            .allow_bound_violation()
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            Error::DisconnectedTopology {
                n: 4,
                components: 4
            }
        ));
    }

    #[test]
    fn schedule_and_partial_topology_are_mutually_exclusive() {
        let err = ProtocolConfig::builder(MobileModel::Garay, 9, 1)
            .topology(Topology::Ring { k: 2 })
            .topology_schedule(TopologySchedule::Static(Topology::Complete))
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)));
        // The schedule alone carries the graph instead.
        let config = ProtocolConfig::builder(MobileModel::Garay, 9, 1)
            .topology_schedule(TopologySchedule::Static(Topology::Ring { k: 2 }))
            .build()
            .unwrap();
        assert_eq!(
            config.schedule,
            Some(TopologySchedule::Static(Topology::Ring { k: 2 }))
        );
    }

    #[test]
    fn static_schedule_gets_the_full_graph_checks() {
        // Disconnected: never waived, exactly like the static topology axis.
        let err = ProtocolConfig::builder(MobileModel::Buhrman, 4, 1)
            .topology_schedule(TopologySchedule::Static(Topology::Ring { k: 0 }))
            .allow_bound_violation()
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::DisconnectedTopology { n: 4, .. }));
        // Sparse below the neighbourhood bound: waivable.
        let err = ProtocolConfig::builder(MobileModel::Garay, 9, 1)
            .topology_schedule(TopologySchedule::Static(Topology::Ring { k: 1 }))
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InsufficientConnectivity { .. }));
    }

    #[test]
    fn churn_base_is_checked_but_periodic_phases_may_be_transient() {
        // A disconnected churn base can never recover: rejected.
        let err = ProtocolConfig::builder(MobileModel::Buhrman, 4, 1)
            .topology_schedule(TopologySchedule::SeededChurn {
                base: Topology::Ring { k: 0 },
                flip_rate: 0.1,
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::DisconnectedTopology { .. }));
        // A churn over a sound base builds.
        assert!(ProtocolConfig::builder(MobileModel::Garay, 9, 1)
            .topology_schedule(TopologySchedule::SeededChurn {
                base: Topology::Complete,
                flip_rate: 0.3,
            })
            .build()
            .is_ok());
        // Periodic phases under the Record policy may be individually
        // disconnected (the union over the cycle is the experimenter's
        // responsibility)…
        let phases = vec![Topology::Ring { k: 0 }, Topology::Complete];
        assert!(ProtocolConfig::builder(MobileModel::Buhrman, 4, 1)
            .topology_schedule(TopologySchedule::Periodic {
                phases: phases.clone(),
            })
            .build()
            .is_ok());
        // …but the Reject policy holds every phase to the static checks.
        let err = ProtocolConfig::builder(MobileModel::Buhrman, 4, 1)
            .topology_schedule(TopologySchedule::Periodic { phases })
            .disconnection(DisconnectionPolicy::Reject)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::DisconnectedTopology { .. }));
    }

    #[test]
    fn deterministic_cuts_join_the_connectivity_and_resilience_checks() {
        // Severing every link is a permanent partition — rejected even on
        // the complete topology, under either disconnection policy.
        for policy in [DisconnectionPolicy::Record, DisconnectionPolicy::Reject] {
            let err = ProtocolConfig::builder(MobileModel::Buhrman, 4, 0)
                .link_faults(LinkFaultPlan::new().omit_all(1.0))
                .disconnection(policy)
                .build()
                .unwrap_err();
            assert!(matches!(
                err,
                Error::DisconnectedTopology { components: 4, .. }
            ));
        }
        // A single one-way cut keeps the complete graph strongly connected.
        assert!(ProtocolConfig::builder(MobileModel::Garay, 9, 1)
            .link_faults(LinkFaultPlan::new().cut(0, 1))
            .build()
            .is_ok());
        // Cutting a bridge in both directions partitions a path graph.
        let path =
            Topology::Custom(mbaa_net::Adjacency::from_edges(4, [(0, 1), (1, 2), (2, 3)]).unwrap());
        let err = ProtocolConfig::builder(MobileModel::Buhrman, 4, 0)
            .topology(path.clone())
            .link_faults(LinkFaultPlan::new().cut(1, 2).cut(2, 1))
            .allow_bound_violation()
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            Error::DisconnectedTopology { components: 2, .. }
        ));
        // Cutting it one way is enough: {2, 3} still hears {0, 1} but never
        // answers, so the path is connected but not strongly connected.
        let err = ProtocolConfig::builder(MobileModel::Buhrman, 4, 0)
            .topology(path)
            .link_faults(LinkFaultPlan::new().cut(1, 2))
            .allow_bound_violation()
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            Error::DisconnectedTopology { components: 2, .. }
        ));
        // Self-links are never cut: a lone process survives any plan.
        assert!(ProtocolConfig::builder(MobileModel::Buhrman, 1, 0)
            .topology(Topology::Ring { k: 0 })
            .link_faults(LinkFaultPlan::new().omit_all(1.0))
            .build()
            .is_ok());
        // Cuts also count against the degree-dependent resilience bound: a
        // k = 2 ring sits exactly at Garay's requirement of 5, and one
        // inbound cut drops a closed in-neighbourhood to 4.
        let err = ProtocolConfig::builder(MobileModel::Garay, 9, 1)
            .topology(Topology::Ring { k: 2 })
            .link_faults(LinkFaultPlan::new().cut(1, 0))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            Error::InsufficientConnectivity {
                min_neighborhood: 4,
                required: 5,
                ..
            }
        ));
        assert!(ProtocolConfig::builder(MobileModel::Garay, 9, 1)
            .topology(Topology::Ring { k: 2 })
            .link_faults(LinkFaultPlan::new().cut(1, 0))
            .allow_bound_violation()
            .build()
            .is_ok());
    }

    #[test]
    fn degenerate_schedules_cannot_hide_permanent_partitions() {
        // A periodic schedule whose phases are all identical is static in
        // disguise: the Record policy's transient exemption does not apply.
        for phases in [
            vec![Topology::Ring { k: 0 }],
            vec![Topology::Ring { k: 0 }, Topology::Ring { k: 0 }],
        ] {
            let err = ProtocolConfig::builder(MobileModel::Buhrman, 4, 0)
                .topology_schedule(TopologySchedule::Periodic { phases })
                .build()
                .unwrap_err();
            assert!(matches!(err, Error::DisconnectedTopology { .. }));
        }
        // Genuinely rotating phases may each be disconnected, but their
        // union over one period must be connected: two phases confined to
        // the same two islands are a permanent partition.
        let islands = vec![
            Topology::Custom(mbaa_net::Adjacency::from_edges(4, [(0, 1)]).unwrap()),
            Topology::Custom(mbaa_net::Adjacency::from_edges(4, [(2, 3)]).unwrap()),
        ];
        let err = ProtocolConfig::builder(MobileModel::Buhrman, 4, 0)
            .topology_schedule(TopologySchedule::Periodic { phases: islands })
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            Error::DisconnectedTopology { components: 2, .. }
        ));
        // Churn at flip_rate 1.0 never delivers anything: rejected.
        let err = ProtocolConfig::builder(MobileModel::Buhrman, 4, 0)
            .topology_schedule(TopologySchedule::SeededChurn {
                base: Topology::Complete,
                flip_rate: 1.0,
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)));
    }

    #[test]
    fn link_fault_rules_are_validated_at_build() {
        let err = ProtocolConfig::builder(MobileModel::Buhrman, 4, 1)
            .link_faults(LinkFaultPlan::new().omit(0, 9, 0.5))
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::UnknownProcess { n: 4, .. }));
        let err = ProtocolConfig::builder(MobileModel::Buhrman, 4, 1)
            .link_faults(LinkFaultPlan::new().omit(0, 1, 2.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)));
        let config = ProtocolConfig::builder(MobileModel::Buhrman, 4, 1)
            .link_faults(LinkFaultPlan::new().omit(0, 1, 0.5).delay(1, 2, 3))
            .disconnection(DisconnectionPolicy::Reject)
            .build()
            .unwrap();
        assert!(!config.link_faults.is_clean());
        assert_eq!(config.disconnection, DisconnectionPolicy::Reject);
        assert_eq!(config.schedule, None);
    }

    #[test]
    fn zero_agents_is_a_legal_configuration() {
        let config = ProtocolConfig::builder(MobileModel::Garay, 3, 0)
            .build()
            .unwrap();
        assert!(config.satisfies_bound());
        assert_eq!(config.tau(), 0);
    }
}

//! The mobile adversary: agent movement and per-round fault planning for the
//! four models M1–M4.

use rand::rngs::StdRng;
use rand::SeedableRng;

use mbaa_net::Outbox;
use mbaa_types::{MobileModel, ProcessId, ProcessSet, Value};

use crate::{AdversaryView, CorruptionStrategy, MobilityStrategy};

/// Everything the adversary decides for one round, consumed by the protocol
/// engine.
///
/// * `faulty` — processes occupied by an agent during this round's send
///   phase; their outgoing messages are in `faulty_outboxes`.
/// * `cured` — processes an agent left at the beginning of this round; the
///   state value the agent left behind is in `corrupted_states`, and under
///   Sasaki's model the poisoned outgoing queue they will unknowingly flush
///   is in `poisoned_outboxes`.
///
/// All vectors are indexed by process and hold `Some(_)` exactly for the
/// processes in the corresponding set.
///
/// A plan reused across rounds — and across the lanes of a pack, which
/// share one — also keeps the outboxes of earlier rounds in a pool, so a
/// warm plan never allocates an outbox. Equality ignores the pool.
#[derive(Debug, Clone)]
pub struct RoundFaultPlan {
    /// Processes occupied by an agent this round.
    pub faulty: ProcessSet,
    /// Processes an agent just left (empty under Buhrman's model).
    pub cured: ProcessSet,
    /// Outbox of every faulty process.
    pub faulty_outboxes: Vec<Option<Outbox>>,
    /// The state value the departing agent wrote into each cured process.
    pub corrupted_states: Vec<Option<Value>>,
    /// The poisoned outgoing queue of each cured process (Sasaki only).
    pub poisoned_outboxes: Vec<Option<Outbox>>,
    /// Recycled outboxes: [`MobileAdversary::begin_round_into`] drains the
    /// previous round's outboxes into this pool and refills new entries
    /// from it.
    pool: Vec<Outbox>,
}

impl PartialEq for RoundFaultPlan {
    fn eq(&self, other: &Self) -> bool {
        self.faulty == other.faulty
            && self.cured == other.cured
            && self.faulty_outboxes == other.faulty_outboxes
            && self.corrupted_states == other.corrupted_states
            && self.poisoned_outboxes == other.poisoned_outboxes
    }
}

impl RoundFaultPlan {
    /// An empty plan over `n` processes: no agent placed, nothing
    /// corrupted. Used as the reusable scratch of
    /// [`MobileAdversary::begin_round_into`], which overwrites it in place
    /// every round.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        RoundFaultPlan {
            faulty: ProcessSet::empty(n),
            cured: ProcessSet::empty(n),
            faulty_outboxes: vec![None; n],
            corrupted_states: vec![None; n],
            poisoned_outboxes: vec![None; n],
            pool: Vec::new(),
        }
    }

    /// The number of processes covered by this plan.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.faulty_outboxes.len()
    }

    /// Clears the plan for reuse, recycling every outbox it holds into its
    /// pool instead of dropping the allocations.
    // mbaa: alloc-free
    fn recycle(&mut self) {
        self.faulty.clear();
        self.cured.clear();
        self.corrupted_states.fill(None);
        for slot in self
            .faulty_outboxes
            .iter_mut()
            .chain(self.poisoned_outboxes.iter_mut())
        {
            if let Some(outbox) = slot.take() {
                // mbaa: allow(hot-path/vec-growth, the pool is drained and refilled with the same <= 2f outboxes each round)
                self.pool.push(outbox);
            }
        }
    }

    /// An outbox over `n` receivers from the pool, or a new one while the
    /// pool is cold.
    fn pooled_outbox(&mut self, n: usize, sender: ProcessId) -> Outbox {
        self.pool.pop().unwrap_or_else(|| Outbox::silent(n, sender))
    }
}

/// The mobile Byzantine adversary: owns the `f` agents, decides where they
/// go each round ([`MobilityStrategy`]) and what damage they do
/// ([`CorruptionStrategy`]), respecting the movement and awareness semantics
/// of the chosen [`MobileModel`].
///
/// The adversary is deterministic given its seed, which is what makes every
/// experiment in the workspace reproducible.
#[derive(Debug)]
pub struct MobileAdversary {
    model: MobileModel,
    n: usize,
    f: usize,
    mobility: MobilityStrategy,
    corruption: CorruptionStrategy,
    rng: StdRng,
    occupied: Option<ProcessSet>,
    /// Sort and selection buffer of the vote-targeting mobility
    /// strategies, reused every round.
    order_scratch: Vec<usize>,
}

impl MobileAdversary {
    /// Creates an adversary controlling `f` agents over `n` processes.
    ///
    /// `f` may exceed the model's resilience bound — that is exactly what
    /// the lower-bound experiments need — but it is clamped to `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(
        model: MobileModel,
        n: usize,
        f: usize,
        mobility: MobilityStrategy,
        corruption: CorruptionStrategy,
        seed: u64,
    ) -> Self {
        assert!(n > 0, "adversary needs at least one process to attack");
        MobileAdversary {
            model,
            n,
            f: f.min(n),
            mobility,
            corruption,
            rng: StdRng::seed_from_u64(seed),
            occupied: None,
            order_scratch: Vec::new(),
        }
    }

    /// The mobile Byzantine model this adversary obeys.
    #[must_use]
    pub fn model(&self) -> MobileModel {
        self.model
    }

    /// The number of agents.
    #[must_use]
    pub fn agents(&self) -> usize {
        self.f
    }

    /// The processes currently hosting an agent (before the next
    /// [`MobileAdversary::begin_round_into`] call), if any round has been
    /// planned.
    #[must_use]
    pub fn occupied(&self) -> Option<&ProcessSet> {
        self.occupied.as_ref()
    }

    /// Plans one round: moves the agents according to the model's movement
    /// rule and overwrites a reused [`RoundFaultPlan`] with the round's
    /// decisions, recycling its outbox allocations through the plan's
    /// pool. The RNG draw sequence is placement, then faulty
    /// outboxes in ascending process order, then per cured process its
    /// corrupted state (and, under Sasaki, its poisoned queue), so a reused
    /// plan and a fresh [`RoundFaultPlan::empty`] plan the same round. Once
    /// the plan's pool is warm (after at most one round, and for good on a
    /// plan that earlier lanes of a pack used), planning performs no heap
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if the view's or plan's universe differs from the
    /// adversary's.
    // mbaa: alloc-free
    pub fn begin_round_into(&mut self, view: &AdversaryView<'_>, plan: &mut RoundFaultPlan) {
        assert_eq!(
            view.universe(),
            self.n,
            "adversary was configured for {} processes, view has {}",
            self.n,
            view.universe()
        );
        assert_eq!(
            plan.universe(),
            self.n,
            "plan was sized for {} processes, adversary attacks {}",
            plan.universe(),
            self.n
        );
        plan.recycle();

        // Movement rule: place the agents, then derive the cured set.
        self.mobility.place_into(
            view,
            self.f,
            self.occupied.as_ref(),
            &mut self.rng,
            &mut plan.faulty,
            &mut self.order_scratch,
        );
        match self.model {
            // Agents ride the messages: by the time anyone sends, the host
            // the agent left has already recovered, so the send phase sees
            // exactly `f` faulty processes and no cured ones (Lemma 4).
            MobileModel::Buhrman => {}
            // Agents move between rounds: whoever hosted an agent last round
            // and no longer does is cured this round.
            MobileModel::Garay | MobileModel::Bonnet | MobileModel::Sasaki => {
                if let Some(previous) = &self.occupied {
                    for p in previous.iter() {
                        if !plan.faulty.contains(p) {
                            plan.cured.insert(p);
                        }
                    }
                }
            }
        }

        for i in 0..self.n {
            let p = ProcessId::new(i);
            if !plan.faulty.contains(p) {
                continue;
            }
            let mut outbox = plan.pooled_outbox(self.n, p);
            self.corruption
                .fill_faulty_outbox(p, view, &mut self.rng, &mut outbox);
            plan.faulty_outboxes[i] = Some(outbox);
        }
        for i in 0..self.n {
            let p = ProcessId::new(i);
            if !plan.cured.contains(p) {
                continue;
            }
            plan.corrupted_states[i] = Some(self.corruption.corrupted_state(view, &mut self.rng));
            if self.model == MobileModel::Sasaki {
                let mut outbox = plan.pooled_outbox(self.n, p);
                // The queue the agent leaves behind is as malicious as its
                // own sends.
                self.corruption
                    .fill_faulty_outbox(p, view, &mut self.rng, &mut outbox);
                plan.poisoned_outboxes[i] = Some(outbox);
            }
        }

        match &mut self.occupied {
            Some(occupied) => occupied.copy_from(&plan.faulty),
            // mbaa: allow(hot-path/allocation, first round only; every later round copies in place)
            None => self.occupied = Some(plan.faulty.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbaa_types::{Interval, ProcessId, Round};

    fn make_view(round: u64, votes: &[Value]) -> AdversaryView<'_> {
        AdversaryView {
            round: Round::new(round),
            votes,
            correct_range: Interval::hull(votes.iter().copied()).unwrap(),
        }
    }

    /// The plan `begin_round_into` writes into a fresh plan.
    fn plan_round(adversary: &mut MobileAdversary, view: &AdversaryView<'_>) -> RoundFaultPlan {
        let mut plan = RoundFaultPlan::empty(view.universe());
        adversary.begin_round_into(view, &mut plan);
        plan
    }

    fn adversary(model: MobileModel, n: usize, f: usize) -> MobileAdversary {
        MobileAdversary::new(
            model,
            n,
            f,
            MobilityStrategy::RoundRobin,
            CorruptionStrategy::split_attack(),
            7,
        )
    }

    #[test]
    fn first_round_has_no_cured_processes() {
        let votes: Vec<Value> = (0..9).map(|i| Value::new(i as f64)).collect();
        for model in MobileModel::ALL {
            let mut adv = adversary(model, 9, 2);
            let plan = plan_round(&mut adv, &make_view(0, &votes));
            assert_eq!(plan.faulty.len(), 2, "{model}");
            assert!(plan.cured.is_empty(), "{model}");
            assert_eq!(plan.universe(), 9);
        }
    }

    #[test]
    fn subsequent_rounds_produce_cured_processes_in_between_round_models() {
        let votes: Vec<Value> = (0..9).map(|i| Value::new(i as f64)).collect();
        for model in [MobileModel::Garay, MobileModel::Bonnet, MobileModel::Sasaki] {
            let mut adv = adversary(model, 9, 2);
            plan_round(&mut adv, &make_view(0, &votes));
            let plan = plan_round(&mut adv, &make_view(1, &votes));
            assert_eq!(plan.faulty.len(), 2, "{model}");
            // Round-robin moved both agents, so both vacated hosts are cured.
            assert_eq!(plan.cured.len(), 2, "{model}");
            assert!(plan.faulty.is_disjoint(&plan.cured), "{model}");
        }
    }

    #[test]
    fn buhrman_never_has_cured_processes() {
        let votes: Vec<Value> = (0..7).map(|i| Value::new(i as f64)).collect();
        let mut adv = adversary(MobileModel::Buhrman, 7, 2);
        for round in 0..5 {
            let plan = plan_round(&mut adv, &make_view(round, &votes));
            assert_eq!(plan.faulty.len(), 2);
            assert!(plan.cured.is_empty());
        }
    }

    #[test]
    fn faulty_processes_get_outboxes_cured_get_states() {
        let votes: Vec<Value> = (0..9).map(|i| Value::new(i as f64)).collect();
        let mut adv = adversary(MobileModel::Bonnet, 9, 2);
        plan_round(&mut adv, &make_view(0, &votes));
        let plan = plan_round(&mut adv, &make_view(1, &votes));

        for p in plan.faulty.iter() {
            assert!(plan.faulty_outboxes[p.index()].is_some());
        }
        for p in plan.cured.iter() {
            assert!(plan.corrupted_states[p.index()].is_some());
            // Bonnet cured processes have no poisoned queue.
            assert!(plan.poisoned_outboxes[p.index()].is_none());
        }
        // Non-faulty processes have no adversary-made outbox.
        for p in plan.faulty.complement().iter() {
            assert!(plan.faulty_outboxes[p.index()].is_none());
        }
    }

    #[test]
    fn sasaki_cured_processes_get_poisoned_queues() {
        let votes: Vec<Value> = (0..13).map(|i| Value::new(i as f64)).collect();
        let mut adv = adversary(MobileModel::Sasaki, 13, 2);
        plan_round(&mut adv, &make_view(0, &votes));
        let plan = plan_round(&mut adv, &make_view(1, &votes));
        assert!(!plan.cured.is_empty());
        for p in plan.cured.iter() {
            assert!(plan.poisoned_outboxes[p.index()].is_some());
        }
    }

    #[test]
    fn stationary_mobility_keeps_processes_faulty_with_no_cured() {
        let votes: Vec<Value> = (0..9).map(|i| Value::new(i as f64)).collect();
        let mut adv = MobileAdversary::new(
            MobileModel::Garay,
            9,
            2,
            MobilityStrategy::Stationary,
            CorruptionStrategy::split_attack(),
            3,
        );
        let first = plan_round(&mut adv, &make_view(0, &votes));
        let second = plan_round(&mut adv, &make_view(1, &votes));
        assert_eq!(first.faulty, second.faulty);
        assert!(second.cured.is_empty());
    }

    #[test]
    fn agent_count_is_clamped_to_universe() {
        let votes: Vec<Value> = (0..3).map(|i| Value::new(i as f64)).collect();
        let mut adv = adversary(MobileModel::Garay, 3, 10);
        assert_eq!(adv.agents(), 3);
        let plan = plan_round(&mut adv, &make_view(0, &votes));
        assert_eq!(plan.faulty.len(), 3);
    }

    #[test]
    fn occupied_tracks_latest_placement() {
        let votes: Vec<Value> = (0..6).map(|i| Value::new(i as f64)).collect();
        let mut adv = adversary(MobileModel::Garay, 6, 1);
        assert!(adv.occupied().is_none());
        let plan = plan_round(&mut adv, &make_view(0, &votes));
        assert_eq!(adv.occupied(), Some(&plan.faulty));
        assert_eq!(adv.model(), MobileModel::Garay);
    }

    #[test]
    fn deterministic_under_seed() {
        let votes: Vec<Value> = (0..9).map(|i| Value::new(i as f64)).collect();
        let run = |seed| {
            let mut adv = MobileAdversary::new(
                MobileModel::Sasaki,
                9,
                2,
                MobilityStrategy::Random,
                CorruptionStrategy::RandomNoise { lo: -5.0, hi: 5.0 },
                seed,
            );
            let mut sets = Vec::new();
            for round in 0..4 {
                let plan = plan_round(&mut adv, &make_view(round, &votes));
                sets.push((plan.faulty, plan.cured));
            }
            sets
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_processes_panics() {
        let _ = adversary(MobileModel::Garay, 0, 1);
    }

    #[test]
    #[should_panic(expected = "configured for")]
    fn mismatched_view_panics() {
        let votes: Vec<Value> = (0..4).map(|i| Value::new(i as f64)).collect();
        let mut adv = adversary(MobileModel::Garay, 9, 2);
        let _ = plan_round(&mut adv, &make_view(0, &votes));
    }

    #[test]
    fn a_reused_plan_plans_what_a_fresh_plan_plans() {
        // The reused plan recycles last round's outboxes through the pool;
        // the fresh one starts from `RoundFaultPlan::empty` every round.
        let votes: Vec<Value> = (0..9).map(|i| Value::new(i as f64)).collect();
        for model in MobileModel::ALL {
            for mobility in MobilityStrategy::ALL {
                let corruption = CorruptionStrategy::RandomNoise { lo: -2.0, hi: 2.0 };
                let mut fresh = MobileAdversary::new(model, 9, 2, mobility, corruption, 13);
                let mut reused = MobileAdversary::new(model, 9, 2, mobility, corruption, 13);
                let mut scratch = RoundFaultPlan::empty(9);
                for round in 0..6 {
                    let view = make_view(round, &votes);
                    reused.begin_round_into(&view, &mut scratch);
                    assert_eq!(
                        plan_round(&mut fresh, &view),
                        scratch,
                        "{model}/{mobility} round {round}"
                    );
                }
            }
        }
    }

    #[test]
    fn targeted_mobility_hits_extreme_processes() {
        let votes = vec![
            Value::new(0.0),
            Value::new(100.0),
            Value::new(1.0),
            Value::new(-50.0),
            Value::new(2.0),
        ];
        let mut adv = MobileAdversary::new(
            MobileModel::Buhrman,
            5,
            1,
            MobilityStrategy::TargetExtremes,
            CorruptionStrategy::split_attack(),
            0,
        );
        let plan = plan_round(&mut adv, &make_view(0, &votes));
        assert!(plan.faulty.contains(ProcessId::new(1)));
    }
}

//! The mobile adversary: agent movement and per-round fault planning for the
//! four models M1–M4.

use rand::rngs::StdRng;
use rand::SeedableRng;

use mbaa_net::Outbox;
use mbaa_types::{MobileModel, ProcessId, ProcessSet, Value};

use crate::{AdversaryView, CorruptionStrategy, MobilityStrategy};

/// Everything the adversary decides for one round, consumed by the protocol
/// engine: the faulty processes (occupied by an agent during this round's
/// send phase) with their outboxes, and the cured ones (left by an agent at
/// the beginning of this round) with the state value the agent left behind
/// and, under Sasaki's model, the poisoned queue they unknowingly flush.
/// Both sets hold at most `f` processes, and what goes with them is kept by
/// *agent slot*, a process' position in its set's ascending order: O(f)
/// entries whatever `n` is, each looked up by process in O(1).
///
/// A plan reused across rounds — and across the lanes of a pack, which
/// share one — also keeps the outboxes of earlier rounds in a pool, so a
/// warm plan never allocates an outbox. Equality ignores the pool.
#[derive(Debug, Clone)]
pub struct RoundFaultPlan {
    faulty: ProcessSet,
    cured: ProcessSet,
    faulty_outboxes: Vec<Outbox>,
    corrupted_states: Vec<Value>,
    /// Sasaki only.
    poisoned_outboxes: Vec<Outbox>,
    /// Each host's agent slot; the entries of other processes are stale.
    slots: Vec<u32>,
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
            faulty_outboxes: Vec::with_capacity(n),
            corrupted_states: Vec::with_capacity(n),
            poisoned_outboxes: Vec::with_capacity(n),
            slots: vec![0; n],
            pool: Vec::new(),
        }
    }

    /// The number of processes covered by this plan.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.faulty.universe()
    }

    /// Processes occupied by an agent this round.
    #[must_use]
    pub fn faulty(&self) -> &ProcessSet {
        &self.faulty
    }

    /// Processes an agent just left (empty under Buhrman's model).
    #[must_use]
    pub fn cured(&self) -> &ProcessSet {
        &self.cured
    }

    /// Each cured process, ascending, with the state value the departing
    /// agent wrote into it.
    pub fn cured_states(&self) -> impl Iterator<Item = (ProcessId, Value)> + '_ {
        self.cured.iter().zip(self.corrupted_states.iter().copied())
    }

    /// The agent slot of `p` in `set`, if it is a member.
    fn slot(&self, set: &ProcessSet, p: ProcessId) -> Option<usize> {
        set.contains(p).then(|| self.slots[p.index()] as usize)
    }

    /// The outbox of `p`, if it is faulty.
    #[must_use]
    pub fn faulty_outbox(&self, p: ProcessId) -> Option<&Outbox> {
        self.slot(&self.faulty, p).map(|k| &self.faulty_outboxes[k])
    }

    /// The poisoned queue of `p`, if it is cured under Sasaki's model.
    #[must_use]
    pub fn poisoned_outbox(&self, p: ProcessId) -> Option<&Outbox> {
        self.poisoned_outboxes.get(self.slot(&self.cured, p)?)
    }

    /// Clears the plan in O(f + n/64), recycling every outbox it holds
    /// into its pool instead of dropping the allocations.
    // mbaa: alloc-free
    fn recycle(&mut self) {
        self.faulty.clear();
        self.cured.clear();
        self.corrupted_states.clear();
        for outboxes in [&mut self.faulty_outboxes, &mut self.poisoned_outboxes] {
            // mbaa: allow(hot-path/vec-growth, the pool is drained and refilled with the same <= 2f outboxes each round)
            self.pool.append(outboxes);
        }
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
    /// outboxes in ascending process order, then per cured process in
    /// ascending order its corrupted state (and, under Sasaki, its
    /// poisoned queue), so a reused plan and a fresh
    /// [`RoundFaultPlan::empty`] plan the same round. Past the placement,
    /// planning costs O(f + n/64) plus the outboxes' writes. Once the
    /// plan's pool is warm (after at most one round, and for good on a plan
    /// that earlier lanes of a pack used), planning performs no heap
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
        // Agents moving between rounds cure the hosts they leave. Under
        // Buhrman's model they ride the messages, so the send phase sees no
        // cured process (Lemma 4).
        let cures = self.model != MobileModel::Buhrman;
        if let Some(previous) = self.occupied.as_ref().filter(|_| cures) {
            for p in previous.iter() {
                if !plan.faulty.contains(p) {
                    plan.cured.insert(p);
                }
            }
        }

        let mut pooled = |p| plan.pool.pop().unwrap_or_else(|| Outbox::silent(self.n, p));
        for (k, p) in plan.faulty.iter().enumerate() {
            plan.slots[p.index()] = k as u32;
            let mut outbox = pooled(p);
            self.corruption
                .fill_faulty_outbox(p, view, &mut self.rng, &mut outbox);
            // mbaa: allow(hot-path/vec-growth, at most f outboxes, within the capacity `empty` reserved)
            plan.faulty_outboxes.push(outbox);
        }
        for (k, p) in plan.cured.iter().enumerate() {
            plan.slots[p.index()] = k as u32;
            let state = self.corruption.corrupted_state(view, &mut self.rng);
            // mbaa: allow(hot-path/vec-growth, at most f states, within the capacity `empty` reserved)
            plan.corrupted_states.push(state);
            if self.model == MobileModel::Sasaki {
                let mut outbox = pooled(p);
                // The queue the agent leaves behind is as malicious as its
                // own sends.
                self.corruption
                    .fill_faulty_outbox(p, view, &mut self.rng, &mut outbox);
                // mbaa: allow(hot-path/vec-growth, at most f queues, within the capacity `empty` reserved)
                plan.poisoned_outboxes.push(outbox);
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
    use mbaa_types::{Interval, Round};

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
            assert_eq!(plan.faulty().len(), 2, "{model}");
            assert!(plan.cured().is_empty(), "{model}");
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
            assert_eq!(plan.faulty().len(), 2, "{model}");
            // Round-robin moved both agents, so both vacated hosts are cured.
            assert_eq!(plan.cured().len(), 2, "{model}");
            assert!(plan.faulty().is_disjoint(plan.cured()), "{model}");
        }
    }

    #[test]
    fn buhrman_never_has_cured_processes() {
        let votes: Vec<Value> = (0..7).map(|i| Value::new(i as f64)).collect();
        let mut adv = adversary(MobileModel::Buhrman, 7, 2);
        for round in 0..5 {
            let plan = plan_round(&mut adv, &make_view(round, &votes));
            assert_eq!(plan.faulty().len(), 2);
            assert!(plan.cured().is_empty());
        }
    }

    #[test]
    fn faulty_processes_get_outboxes_cured_get_states() {
        let votes: Vec<Value> = (0..9).map(|i| Value::new(i as f64)).collect();
        let mut adv = adversary(MobileModel::Bonnet, 9, 2);
        plan_round(&mut adv, &make_view(0, &votes));
        let plan = plan_round(&mut adv, &make_view(1, &votes));

        for p in plan.faulty().iter() {
            assert!(plan.faulty_outbox(p).is_some());
        }
        assert_eq!(plan.faulty_outboxes.len(), 2);
        assert_eq!(plan.cured_states().count(), plan.cured().len());
        for p in plan.cured().iter() {
            // Bonnet cured processes have no poisoned queue.
            assert!(plan.poisoned_outbox(p).is_none());
        }
        // Non-faulty processes have no adversary-made outbox.
        for p in (0..9).map(ProcessId::new) {
            assert_eq!(plan.faulty_outbox(p).is_some(), plan.faulty().contains(p));
        }
    }

    #[test]
    fn sasaki_cured_processes_get_poisoned_queues() {
        let votes: Vec<Value> = (0..13).map(|i| Value::new(i as f64)).collect();
        let mut adv = adversary(MobileModel::Sasaki, 13, 2);
        plan_round(&mut adv, &make_view(0, &votes));
        let plan = plan_round(&mut adv, &make_view(1, &votes));
        assert!(!plan.cured().is_empty());
        for p in plan.cured().iter() {
            assert!(plan.poisoned_outbox(p).is_some());
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
        assert_eq!(plan.faulty().len(), 3);
    }

    #[test]
    fn occupied_tracks_latest_placement() {
        let votes: Vec<Value> = (0..6).map(|i| Value::new(i as f64)).collect();
        let mut adv = adversary(MobileModel::Garay, 6, 1);
        assert!(adv.occupied().is_none());
        let plan = plan_round(&mut adv, &make_view(0, &votes));
        assert_eq!(adv.occupied(), Some(plan.faulty()));
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
                sets.push((plan.faulty().clone(), plan.cured().clone()));
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

    /// An outbox's slots as bits, so −0.0 and 0.0 differ.
    fn slot_bits(outbox: Option<&Outbox>) -> Option<Vec<Option<u64>>> {
        outbox.map(|o| {
            o.iter()
                .map(|(_, v)| v.map(|v| v.get().to_bits()))
                .collect()
        })
    }

    #[test]
    fn wrapped_round_robin_draws_in_ascending_process_order() {
        // The reference plans as the process-keyed loop did: place, then
        // visit all n processes for the faulty outboxes, then all n again
        // for each cured state and (Sasaki) queue, drawing in that order.
        // RoundRobin at n = 9, f = 4 wraps past n in rounds 2, 4 and 6.
        let (n, f) = (9, 4);
        let votes: Vec<Value> = (0..n).map(|i| Value::new(i as f64 - 4.0)).collect();
        let corruptions = [
            CorruptionStrategy::RandomNoise { lo: -2.0, hi: 2.0 },
            CorruptionStrategy::Stealth,
        ];
        for model in MobileModel::ALL {
            for mobility in [MobilityStrategy::RoundRobin, MobilityStrategy::Random] {
                for corruption in corruptions {
                    let mut adv = MobileAdversary::new(model, n, f, mobility, corruption, 21);
                    let mut rng = StdRng::seed_from_u64(21);
                    let mut plan = RoundFaultPlan::empty(n);
                    let mut previous: Option<Vec<bool>> = None;
                    for round in 0..8 {
                        let view = make_view(round, &votes);
                        adv.begin_round_into(&view, &mut plan);
                        let mut faulty = vec![false; n];
                        match mobility {
                            MobilityStrategy::RoundRobin => {
                                (0..f).for_each(|i| faulty[(round as usize * f + i) % n] = true);
                            }
                            _ => {
                                let mut order = Vec::new();
                                rand::seq::index::sample_into(&mut rng, n, f, &mut order);
                                order.iter().for_each(|&i| faulty[i] = true);
                            }
                        }
                        let cured: Vec<bool> = (0..n)
                            .map(|i| {
                                model != MobileModel::Buhrman
                                    && previous.as_ref().is_some_and(|prev| prev[i])
                                    && !faulty[i]
                            })
                            .collect();
                        let mut outboxes = vec![None; n];
                        for i in (0..n).filter(|&i| faulty[i]) {
                            let mut outbox = Outbox::silent(n, ProcessId::new(i));
                            corruption.fill_faulty_outbox(
                                ProcessId::new(i),
                                &view,
                                &mut rng,
                                &mut outbox,
                            );
                            outboxes[i] = Some(outbox);
                        }
                        let mut states = vec![None; n];
                        let mut queues = vec![None; n];
                        for i in (0..n).filter(|&i| cured[i]) {
                            states[i] = Some(corruption.corrupted_state(&view, &mut rng));
                            if model == MobileModel::Sasaki {
                                let mut queue = Outbox::silent(n, ProcessId::new(i));
                                corruption.fill_faulty_outbox(
                                    ProcessId::new(i),
                                    &view,
                                    &mut rng,
                                    &mut queue,
                                );
                                queues[i] = Some(queue);
                            }
                        }
                        let at = format!("{model}/{mobility}/{corruption} round {round}");
                        let mut planted = vec![None; n];
                        for (p, state) in plan.cured_states() {
                            planted[p.index()] = Some(state.get().to_bits());
                        }
                        for i in 0..n {
                            let p = ProcessId::new(i);
                            assert_eq!(plan.faulty().contains(p), faulty[i], "{at}");
                            assert_eq!(plan.cured().contains(p), cured[i], "{at}");
                            assert_eq!(
                                slot_bits(plan.faulty_outbox(p)),
                                slot_bits(outboxes[i].as_ref()),
                                "{at}, p{i}"
                            );
                            assert_eq!(
                                planted[i],
                                states[i].map(|v: Value| v.get().to_bits()),
                                "{at}, p{i}"
                            );
                            assert_eq!(
                                slot_bits(plan.poisoned_outbox(p)),
                                slot_bits(queues[i].as_ref()),
                                "{at}, p{i}"
                            );
                        }
                        previous = Some(faulty);
                    }
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
        assert!(plan.faulty().contains(ProcessId::new(1)));
    }
}

//! A full synchronous execution under static mixed-mode faults.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use mbaa_msr::{ConvergenceReport, VotingFunction};
use mbaa_net::Outbox;
use mbaa_types::{Epsilon, Error, Interval, ProcessId, Result, Value, ValueMultiset};

use crate::{FaultAssignment, StaticBehavior};

/// The outcome of a static mixed-mode execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StaticRunOutcome {
    /// Whether the correct processes reached ε-agreement within the round
    /// budget.
    pub reached_agreement: bool,
    /// The number of rounds executed.
    pub rounds_executed: usize,
    /// The final vote of every process (indexed by process; faulty
    /// processes report their last internal value, which is meaningless).
    pub final_votes: Vec<Value>,
    /// The convergence history of the correct processes' votes.
    pub report: ConvergenceReport,
    /// The range of the correct processes' *initial* values (the validity
    /// envelope).
    pub validity_envelope: Interval,
}

impl StaticRunOutcome {
    /// Returns `true` when every correct process' final vote lies within the
    /// validity envelope (the range of correct initial values).
    #[must_use]
    pub fn validity_holds(&self, assignment: &FaultAssignment) -> bool {
        assignment
            .correct_set()
            .iter()
            .all(|p| self.validity_envelope.contains(self.final_votes[p.index()]))
    }

    /// The final diameter of the correct processes' votes.
    #[must_use]
    pub fn final_diameter(&self, assignment: &FaultAssignment) -> f64 {
        let correct: ValueMultiset = assignment
            .correct_set()
            .iter()
            .map(|p| self.final_votes[p.index()])
            .collect();
        correct.diameter()
    }
}

/// Runs an approximate agreement algorithm under a *static* mixed-mode fault
/// assignment — the baseline computation of the paper's Theorem 1 argument.
///
/// Correct processes broadcast their current vote every round and apply the
/// voting function to the multiset of delivered values. Faulty processes
/// behave according to their class and the configured [`StaticBehavior`].
#[derive(Debug, Clone)]
pub struct StaticSimulator {
    assignment: FaultAssignment,
    behavior: StaticBehavior,
    seed: u64,
}

impl StaticSimulator {
    /// Creates a simulator for the given assignment and adversarial
    /// behaviour; `seed` makes the run reproducible.
    #[must_use]
    pub fn new(assignment: FaultAssignment, behavior: StaticBehavior, seed: u64) -> Self {
        StaticSimulator {
            assignment,
            behavior,
            seed,
        }
    }

    /// The fault assignment driving this simulator.
    #[must_use]
    pub fn assignment(&self) -> &FaultAssignment {
        &self.assignment
    }

    /// Runs the protocol until the correct processes' votes are within
    /// `epsilon` of each other or until `max_rounds` rounds have elapsed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongInputCount`] when `initial_values` does not
    /// provide one value per process, and [`Error::InvalidParameter`] when
    /// `max_rounds` is zero.
    pub fn run(
        &self,
        function: &dyn VotingFunction,
        initial_values: &[Value],
        epsilon: Epsilon,
        max_rounds: usize,
    ) -> Result<StaticRunOutcome> {
        let n = self.assignment.universe();
        if initial_values.len() != n {
            return Err(Error::WrongInputCount {
                provided: initial_values.len(),
                expected: n,
            });
        }
        if max_rounds == 0 {
            return Err(Error::InvalidParameter("max_rounds must be > 0".into()));
        }

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut received = ValueMultiset::with_capacity(n);
        let mut votes: Vec<Value> = initial_values.to_vec();

        let correct_set = self.assignment.correct_set();
        let correct_values = |votes: &[Value]| -> ValueMultiset {
            correct_set.iter().map(|p| votes[p.index()]).collect()
        };

        let initial_correct = correct_values(&votes);
        let validity_envelope = initial_correct
            .range()
            .expect("bound n > 3a+2s+b guarantees at least one correct process");
        let mut report = ConvergenceReport::new(initial_correct.diameter());

        let mut reached = epsilon.covers_diameter(initial_correct.diameter());
        let mut rounds_executed = 0;

        for round_idx in 0..max_rounds {
            if reached {
                break;
            }
            let current_correct = correct_values(&votes);
            let correct_range = current_correct
                .range()
                .expect("at least one correct process");

            // Send phase.
            let outboxes: Vec<Outbox> = (0..n)
                .map(|i| {
                    let sender = ProcessId::new(i);
                    match self.assignment.class_of(sender) {
                        None => Outbox::broadcast(n, sender, votes[i]),
                        Some(class) => {
                            self.behavior
                                .outbox(class, sender, n, correct_range, &mut rng)
                        }
                    }
                })
                .collect();

            // Receive and compute phases: the network is complete and
            // reliable, so every correct process applies the voting
            // function to its slot of every outbox, in sender order.
            for p in correct_set.iter() {
                received.refill(outboxes.iter().filter_map(|outbox| outbox.get(p)));
                if let Some(next) = function.apply(&received) {
                    votes[p.index()] = next;
                }
            }

            rounds_executed = round_idx + 1;
            let diameter = correct_values(&votes).diameter();
            report.record_round(diameter);
            reached = epsilon.covers_diameter(diameter);
        }

        Ok(StaticRunOutcome {
            reached_agreement: reached,
            rounds_executed,
            final_votes: votes,
            report,
            validity_envelope,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbaa_msr::MsrFunction;
    use mbaa_types::FaultCounts;

    fn inputs(n: usize) -> Vec<Value> {
        (0..n).map(|i| Value::new(i as f64 / n as f64)).collect()
    }

    #[test]
    fn fault_free_run_converges() {
        let assignment = FaultAssignment::all_correct(5);
        let sim = StaticSimulator::new(assignment.clone(), StaticBehavior::spread_attack(), 1);
        let outcome = sim
            .run(
                &MsrFunction::dolev_mean(0),
                &inputs(5),
                Epsilon::new(1e-9),
                10,
            )
            .unwrap();
        assert!(outcome.reached_agreement);
        // Plain averaging with full information agrees exactly in one round.
        assert_eq!(outcome.rounds_executed, 1);
        assert!(outcome.validity_holds(&assignment));
    }

    #[test]
    fn benign_senders_are_absent_from_every_received_multiset() {
        // p0 is benign (silent): plain averaging over what the correct
        // processes hear never sees its input of 100, so they agree on the
        // mean of their own inputs in one round.
        let counts = FaultCounts::new(0, 0, 1);
        let assignment = FaultAssignment::with_first_processes_faulty(4, counts).unwrap();
        let sim = StaticSimulator::new(assignment, StaticBehavior::spread_attack(), 1);
        let values = [100.0, 0.0, 1.0, 2.0].map(Value::new);
        let outcome = sim
            .run(&MsrFunction::dolev_mean(0), &values, Epsilon::new(1e-9), 10)
            .unwrap();
        assert_eq!(outcome.rounds_executed, 1);
        assert_eq!(&outcome.final_votes[1..], &[Value::new(1.0); 3]);
    }

    #[test]
    fn tolerates_mixed_faults_above_bound() {
        // a=1, s=1, b=1: bound is 3+2+1 = 6, so n=7 suffices.
        let counts = FaultCounts::new(1, 1, 1);
        let assignment = FaultAssignment::with_first_processes_faulty(7, counts).unwrap();
        let sim = StaticSimulator::new(assignment.clone(), StaticBehavior::spread_attack(), 7);
        let outcome = sim
            .run(
                &MsrFunction::for_fault_counts(counts),
                &inputs(7),
                Epsilon::new(1e-6),
                200,
            )
            .unwrap();
        assert!(
            outcome.reached_agreement,
            "diameter trace: {:?}",
            outcome.report.diameters()
        );
        assert!(outcome.validity_holds(&assignment));
        assert!(outcome.report.is_monotonically_non_expanding());
    }

    #[test]
    fn asymmetric_attack_defeated_by_sufficient_replication() {
        let counts = FaultCounts::new(2, 0, 0);
        let assignment = FaultAssignment::with_first_processes_faulty(7, counts).unwrap();
        for behavior in [
            StaticBehavior::spread_attack(),
            StaticBehavior::Fixed {
                value: Value::new(50.0),
            },
            StaticBehavior::Random {
                lo: -10.0,
                hi: 10.0,
            },
        ] {
            let sim = StaticSimulator::new(assignment.clone(), behavior, 3);
            let outcome = sim
                .run(
                    &MsrFunction::for_fault_counts(counts),
                    &inputs(7),
                    Epsilon::new(1e-4),
                    300,
                )
                .unwrap();
            assert!(
                outcome.reached_agreement,
                "behavior {behavior} did not converge"
            );
            assert!(
                outcome.validity_holds(&assignment),
                "behavior {behavior} broke validity"
            );
        }
    }

    #[test]
    fn rejects_wrong_input_count() {
        let assignment = FaultAssignment::all_correct(4);
        let sim = StaticSimulator::new(assignment, StaticBehavior::spread_attack(), 0);
        let err = sim
            .run(
                &MsrFunction::dolev_mean(0),
                &inputs(3),
                Epsilon::new(0.1),
                5,
            )
            .unwrap_err();
        assert!(matches!(err, Error::WrongInputCount { .. }));
    }

    #[test]
    fn rejects_zero_round_budget() {
        let assignment = FaultAssignment::all_correct(4);
        let sim = StaticSimulator::new(assignment, StaticBehavior::spread_attack(), 0);
        let err = sim
            .run(
                &MsrFunction::dolev_mean(0),
                &inputs(4),
                Epsilon::new(0.1),
                0,
            )
            .unwrap_err();
        assert!(matches!(err, Error::InvalidParameter(_)));
    }

    #[test]
    fn already_agreed_inputs_need_no_rounds() {
        let assignment = FaultAssignment::all_correct(3);
        let sim = StaticSimulator::new(assignment, StaticBehavior::spread_attack(), 0);
        let same = vec![Value::new(0.5); 3];
        let outcome = sim
            .run(&MsrFunction::dolev_mean(0), &same, Epsilon::new(0.1), 5)
            .unwrap();
        assert!(outcome.reached_agreement);
        assert_eq!(outcome.rounds_executed, 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let counts = FaultCounts::new(1, 0, 0);
        let assignment = FaultAssignment::with_first_processes_faulty(4, counts).unwrap();
        let run = |seed| {
            StaticSimulator::new(
                assignment.clone(),
                StaticBehavior::Random { lo: -5.0, hi: 5.0 },
                seed,
            )
            .run(
                &MsrFunction::for_fault_counts(counts),
                &inputs(4),
                Epsilon::new(1e-6),
                50,
            )
            .unwrap()
        };
        assert_eq!(run(11), run(11));
    }
}

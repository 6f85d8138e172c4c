//! Value corruption strategies: what occupied processes send and what state
//! the agents leave behind.

use std::fmt;

use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};

use mbaa_net::Outbox;
use mbaa_types::{ProcessId, Value};

use crate::AdversaryView;

/// A strategy deciding the messages a faulty (agent-occupied) process sends
/// and the state the agent writes into a process before leaving it.
///
/// The strategies cover the attack repertoire used in the approximate
/// agreement literature:
///
/// * [`CorruptionStrategy::Silent`] — occupied processes send nothing
///   (pure omission, the weakest attack).
/// * [`CorruptionStrategy::Fixed`] — plant one constant value everywhere.
/// * [`CorruptionStrategy::OutOfRange`] — broadcast a value far above the
///   correct range, attacking validity.
/// * [`CorruptionStrategy::Split`] — the classic asymmetric attack: send a
///   far-low value to the lower half of the receivers and a far-high value
///   to the upper half, trying to keep the correct processes apart.
/// * [`CorruptionStrategy::RandomNoise`] — independent random values per
///   receiver.
/// * [`CorruptionStrategy::BoundaryDrag`] — always send the current minimum
///   of the correct range; values stay *inside* the correct range (so they
///   are never trimmed) but continually drag the average toward one
///   boundary, the strategy that slows convergence the most without risking
///   detection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CorruptionStrategy {
    /// Occupied processes omit every message.
    Silent,
    /// Occupied processes broadcast a fixed value.
    Fixed {
        /// The planted value.
        value: Value,
    },
    /// Occupied processes broadcast `max(correct range) + magnitude`.
    OutOfRange {
        /// Distance above the correct range.
        magnitude: f64,
    },
    /// Occupied processes send `min - magnitude` to half the receivers and
    /// `max + magnitude` to the other half.
    Split {
        /// Distance outside the correct range on each side.
        magnitude: f64,
    },
    /// Occupied processes send an independent uniform value per receiver.
    RandomNoise {
        /// Lower bound of the noise.
        lo: f64,
        /// Upper bound of the noise.
        hi: f64,
    },
    /// Occupied processes broadcast the current minimum of the correct
    /// range.
    BoundaryDrag,
    /// Stealth attack: occupied processes send values drawn uniformly from
    /// *inside* the correct range, a different one per receiver. The values
    /// are never trimmed (they are legitimate-looking) but keep the correct
    /// processes desynchronised.
    Stealth,
    /// Median-pull attack: occupied processes send the lower quartile of the
    /// correct range to everyone, skewing median-style voting rules while
    /// staying inside the valid range.
    MedianPull,
}

impl CorruptionStrategy {
    /// All strategies (with representative parameters), for ablation sweeps.
    #[must_use]
    pub fn all_representative() -> Vec<CorruptionStrategy> {
        vec![
            CorruptionStrategy::Silent,
            CorruptionStrategy::Fixed {
                value: Value::new(1e3),
            },
            CorruptionStrategy::OutOfRange { magnitude: 10.0 },
            CorruptionStrategy::split_attack(),
            CorruptionStrategy::RandomNoise {
                lo: -100.0,
                hi: 100.0,
            },
            CorruptionStrategy::BoundaryDrag,
            CorruptionStrategy::Stealth,
            CorruptionStrategy::MedianPull,
        ]
    }

    /// The canonical worst-case attack: a split attack planting values one
    /// correct-diameter outside the range on each side.
    #[must_use]
    pub fn split_attack() -> Self {
        CorruptionStrategy::Split { magnitude: 1.0 }
    }

    /// Writes the outbox an agent-occupied process `sender` hands to the
    /// network into a reused `out`, drawing from `rng` in receiver order.
    /// The poisoned queue an agent leaves behind under Sasaki's model is as
    /// malicious as its own sends, so it is filled the same way. Every
    /// value sent is one [`CorruptionStrategy::corrupted_state`] would
    /// plant, except the split attack's upper half and silence. No
    /// strategy allocates.
    ///
    /// # Panics
    ///
    /// Panics if `out`'s universe differs from the view's.
    // mbaa: alloc-free
    pub fn fill_faulty_outbox<R: Rng + ?Sized>(
        &self,
        sender: ProcessId,
        view: &AdversaryView<'_>,
        rng: &mut R,
        out: &mut Outbox,
    ) {
        let n = view.universe();
        assert_eq!(out.universe(), n, "outbox universe mismatch");
        out.set_sender(sender);
        match self {
            CorruptionStrategy::Silent => out.fill_silent(),
            CorruptionStrategy::Split { magnitude } => {
                let low = self.corrupted_state(view, rng);
                let high = far(view.correct_range.hi().get() + magnitude.max(f64::MIN_POSITIVE));
                out.fill_runs([(n / 2, Some(low)), (n, Some(high))]);
            }
            CorruptionStrategy::RandomNoise { .. } | CorruptionStrategy::Stealth => {
                out.fill_with(|_| Some(self.corrupted_state(view, rng)));
            }
            _ => out.fill_broadcast(self.corrupted_state(view, rng)),
        }
    }

    /// The value the agent writes into a process' local state before leaving
    /// it (what a cured process finds in its variables).
    #[must_use]
    pub fn corrupted_state<R: Rng + ?Sized>(&self, view: &AdversaryView<'_>, rng: &mut R) -> Value {
        let lo = view.correct_range.lo().get();
        let hi = view.correct_range.hi().get();
        match self {
            // Even a "silent" agent scrambles the state it leaves behind.
            CorruptionStrategy::Silent => Value::new(hi + 1.0),
            CorruptionStrategy::Fixed { value } => *value,
            CorruptionStrategy::OutOfRange { magnitude } => {
                far(hi + magnitude.max(f64::MIN_POSITIVE))
            }
            CorruptionStrategy::Split { magnitude } => far(lo - magnitude.max(f64::MIN_POSITIVE)),
            CorruptionStrategy::RandomNoise { lo, hi } => Value::new(rng.random_range(*lo..=*hi)),
            CorruptionStrategy::BoundaryDrag => Value::new(lo),
            CorruptionStrategy::Stealth => Value::new(if hi > lo {
                rng.random_range(lo..=hi)
            } else {
                lo
            }),
            CorruptionStrategy::MedianPull => Value::new(lo + 0.25 * (hi - lo)),
        }
    }
}

/// A value planted outside the correct range, clamped to `±f64::MAX`: a
/// magnitude near the float limit would otherwise overflow to infinity.
fn far(v: f64) -> Value {
    Value::new(v.clamp(-f64::MAX, f64::MAX))
}

impl Default for CorruptionStrategy {
    fn default() -> Self {
        Self::split_attack()
    }
}

impl fmt::Display for CorruptionStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptionStrategy::Silent => write!(f, "silent"),
            CorruptionStrategy::Fixed { value } => write!(f, "fixed({value})"),
            CorruptionStrategy::OutOfRange { magnitude } => write!(f, "out-of-range(+{magnitude})"),
            CorruptionStrategy::Split { magnitude } => write!(f, "split(±{magnitude})"),
            CorruptionStrategy::RandomNoise { lo, hi } => write!(f, "noise[{lo}, {hi}]"),
            CorruptionStrategy::BoundaryDrag => write!(f, "boundary-drag"),
            CorruptionStrategy::Stealth => write!(f, "stealth"),
            CorruptionStrategy::MedianPull => write!(f, "median-pull"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbaa_types::{Interval, Round};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The outbox `fill_faulty_outbox` writes into a fresh silent one.
    fn outbox(
        strategy: CorruptionStrategy,
        sender: ProcessId,
        view: &AdversaryView<'_>,
        rng: &mut StdRng,
    ) -> Outbox {
        let mut out = Outbox::silent(view.universe(), sender);
        strategy.fill_faulty_outbox(sender, view, rng, &mut out);
        out
    }

    fn test_view(votes: &[Value]) -> AdversaryView<'_> {
        AdversaryView {
            round: Round::ZERO,
            votes,
            correct_range: Interval::new(Value::new(0.0), Value::new(1.0)),
        }
    }

    #[test]
    fn silent_omits_everything_but_corrupts_state() {
        let votes = vec![Value::new(0.5); 4];
        let view = test_view(&votes);
        let mut rng = StdRng::seed_from_u64(0);
        let o = outbox(
            CorruptionStrategy::Silent,
            ProcessId::new(0),
            &view,
            &mut rng,
        );
        assert!(o.is_silent());
        let state = CorruptionStrategy::Silent.corrupted_state(&view, &mut rng);
        assert!(!view.correct_range.contains(state));
    }

    #[test]
    fn out_of_range_breaks_validity_if_unfiltered() {
        let votes = vec![Value::new(0.5); 4];
        let view = test_view(&votes);
        let mut rng = StdRng::seed_from_u64(0);
        let strategy = CorruptionStrategy::OutOfRange { magnitude: 5.0 };
        let o = outbox(strategy, ProcessId::new(1), &view, &mut rng);
        assert!(o.is_uniform());
        assert_eq!(o.get(ProcessId::new(0)), Some(Value::new(6.0)));
    }

    #[test]
    fn split_sends_different_values_to_the_two_halves() {
        let votes = vec![Value::new(0.5); 6];
        let view = test_view(&votes);
        let mut rng = StdRng::seed_from_u64(0);
        let o = outbox(
            CorruptionStrategy::split_attack(),
            ProcessId::new(0),
            &view,
            &mut rng,
        );
        assert!(!o.is_uniform());
        let (low, high) = (Some(Value::new(-1.0)), Some(Value::new(2.0)));
        let runs: Vec<_> = o.runs().collect();
        assert_eq!(runs, vec![(0..3, low), (3..6, high)]);
    }

    #[test]
    fn random_noise_stays_in_configured_interval_and_is_seeded() {
        let votes = vec![Value::new(0.5); 5];
        let view = test_view(&votes);
        let strategy = CorruptionStrategy::RandomNoise { lo: -3.0, hi: 3.0 };
        let gen_outbox = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            outbox(strategy, ProcessId::new(2), &view, &mut rng)
        };
        let o = gen_outbox(9);
        assert_eq!(o, gen_outbox(9));
        for (_, v) in o.iter() {
            let v = v.unwrap().get();
            assert!((-3.0..=3.0).contains(&v));
        }
    }

    #[test]
    fn boundary_drag_stays_inside_the_correct_range() {
        let votes = vec![Value::new(0.5); 4];
        let view = test_view(&votes);
        let mut rng = StdRng::seed_from_u64(0);
        let o = outbox(
            CorruptionStrategy::BoundaryDrag,
            ProcessId::new(0),
            &view,
            &mut rng,
        );
        assert_eq!(o.get(ProcessId::new(3)), Some(Value::new(0.0)));
        assert!(view
            .correct_range
            .contains(o.get(ProcessId::new(0)).unwrap()));
    }

    #[test]
    fn fixed_plants_constant_value_and_state() {
        let votes = vec![Value::new(0.5); 3];
        let view = test_view(&votes);
        let mut rng = StdRng::seed_from_u64(0);
        let strategy = CorruptionStrategy::Fixed {
            value: Value::new(7.0),
        };
        let o = outbox(strategy, ProcessId::new(0), &view, &mut rng);
        assert_eq!(o.get(ProcessId::new(1)), Some(Value::new(7.0)));
        assert_eq!(strategy.corrupted_state(&view, &mut rng), Value::new(7.0));
    }

    #[test]
    fn poisoned_outbox_mirrors_faulty_behaviour() {
        // Round-robin moves the Sasaki agent from p0 to p1, leaving p0 the
        // split queue it would have sent itself.
        let votes = vec![Value::new(0.5); 4];
        let view = test_view(&votes);
        let strategy = CorruptionStrategy::split_attack();
        let mut adversary = crate::MobileAdversary::new(
            mbaa_types::MobileModel::Sasaki,
            4,
            1,
            crate::MobilityStrategy::RoundRobin,
            strategy,
            1,
        );
        let mut plan = crate::RoundFaultPlan::empty(4);
        adversary.begin_round_into(&view, &mut plan);
        let next = AdversaryView {
            round: Round::new(1),
            ..view
        };
        adversary.begin_round_into(&next, &mut plan);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            plan.poisoned_outbox(ProcessId::new(0)),
            Some(&outbox(strategy, ProcessId::new(0), &view, &mut rng))
        );
    }

    #[test]
    fn representative_set_covers_every_variant() {
        let all = CorruptionStrategy::all_representative();
        assert_eq!(all.len(), 8);
    }

    #[test]
    fn stealth_values_stay_inside_the_correct_range() {
        let votes = vec![Value::new(0.5); 5];
        let view = test_view(&votes);
        let mut rng = StdRng::seed_from_u64(4);
        let o = outbox(
            CorruptionStrategy::Stealth,
            ProcessId::new(1),
            &view,
            &mut rng,
        );
        for (_, v) in o.iter() {
            assert!(view.correct_range.contains(v.unwrap()));
        }
        let state = CorruptionStrategy::Stealth.corrupted_state(&view, &mut rng);
        assert!(view.correct_range.contains(state));
    }

    #[test]
    fn median_pull_targets_the_lower_quartile() {
        let votes = vec![Value::new(0.5); 4];
        let view = test_view(&votes);
        let mut rng = StdRng::seed_from_u64(0);
        let o = outbox(
            CorruptionStrategy::MedianPull,
            ProcessId::new(0),
            &view,
            &mut rng,
        );
        assert!(o.is_uniform());
        assert_eq!(o.get(ProcessId::new(0)), Some(Value::new(0.25)));
        assert_eq!(
            CorruptionStrategy::MedianPull.corrupted_state(&view, &mut rng),
            Value::new(0.25)
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(CorruptionStrategy::Silent.to_string(), "silent");
        assert_eq!(CorruptionStrategy::split_attack().to_string(), "split(±1)");
        assert_eq!(
            CorruptionStrategy::BoundaryDrag.to_string(),
            "boundary-drag"
        );
        assert_eq!(CorruptionStrategy::Stealth.to_string(), "stealth");
        assert_eq!(CorruptionStrategy::MedianPull.to_string(), "median-pull");
    }
}

//! Agent placement strategies: where the `f` agents sit each round.

use std::cmp::Ordering;
use std::fmt;

use rand::seq::index::sample_into;
use rand::Rng;
use serde::{Deserialize, Serialize};

use mbaa_types::{ProcessId, ProcessSet};

use crate::AdversaryView;

/// A strategy deciding which processes the `f` mobile agents occupy in a
/// given round.
///
/// All strategies return exactly `min(f, n)` distinct processes. They differ
/// in how adversarial the placement is:
///
/// * [`MobilityStrategy::Stationary`] never moves the agents — the mobile
///   model degenerates to static Byzantine faults (a useful control in the
///   ablation experiments).
/// * [`MobilityStrategy::RoundRobin`] slides the agent block by `f`
///   positions every round, so every process is hit regularly and the number
///   of cured processes is always `f`.
/// * [`MobilityStrategy::Random`] picks `f` fresh processes uniformly at
///   random every round.
/// * [`MobilityStrategy::TargetExtremes`] occupies the non-faulty processes
///   whose votes are currently the extreme ones — the most damaging choice,
///   since it corrupts exactly the states that anchor the correct range and
///   maximises the cured fallout next round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum MobilityStrategy {
    /// Agents stay where they started.
    Stationary,
    /// Agents slide over the ring of processes by `f` positions per round.
    #[default]
    RoundRobin,
    /// Agents jump to uniformly random distinct processes every round.
    Random,
    /// Agents occupy the processes holding the currently most extreme votes.
    TargetExtremes,
    /// Agents sweep over the ring one position at a time, maximising the
    /// number of distinct processes that are cured at least once over a
    /// window of rounds (the "slow contagion" pattern).
    Sweep,
    /// Agents occupy the processes holding the most *central* votes —
    /// an attack on median-style voting rules.
    TargetMedian,
}

impl MobilityStrategy {
    /// All strategies, for ablation sweeps.
    pub const ALL: [MobilityStrategy; 6] = [
        MobilityStrategy::Stationary,
        MobilityStrategy::RoundRobin,
        MobilityStrategy::Random,
        MobilityStrategy::TargetExtremes,
        MobilityStrategy::Sweep,
        MobilityStrategy::TargetMedian,
    ];

    /// Chooses the set of processes occupied this round and writes it into
    /// `out`, reusing its allocation and the caller's `order` scratch (the
    /// sort and selection buffer of the vote-targeting strategies). Once
    /// the buffers are warm, no strategy allocates.
    ///
    /// `previous` is the set occupied in the previous round (`None` before
    /// the first placement). The placement always has `min(f, n)` members.
    ///
    /// # Panics
    ///
    /// Panics if `out`'s universe differs from the view's.
    // mbaa: alloc-free
    pub fn place_into<R: Rng + ?Sized>(
        &self,
        view: &AdversaryView<'_>,
        f: usize,
        previous: Option<&ProcessSet>,
        rng: &mut R,
        out: &mut ProcessSet,
        order: &mut Vec<usize>,
    ) {
        let n = view.universe();
        assert_eq!(out.universe(), n, "placement universe mismatch");
        let f = f.min(n);
        out.clear();
        if f == 0 {
            return;
        }
        // (vote, index) is a total order, so an unstable sort or selection
        // under it gives the permutation the historical stable sort by vote
        // produced over the ascending index array — ties keep index order —
        // without the merge sort's temporary buffer.
        let by_vote = |&a: &usize, &b: &usize| {
            let (x, y) = (view.votes[a].get(), view.votes[b].get());
            // Votes are finite, so this is `Value`'s order (−0.0 equals 0.0).
            if x < y {
                Ordering::Less
            } else if x > y {
                Ordering::Greater
            } else {
                a.cmp(&b)
            }
        };
        let every_process = |order: &mut Vec<usize>| {
            order.clear();
            // mbaa: allow(hot-path/vec-growth, refills the cleared scratch to the fixed universe size n)
            order.extend(0..n);
        };
        match self {
            MobilityStrategy::Stationary => match previous {
                Some(prev) if prev.len() == f => out.copy_from(prev),
                _ => (0..f).for_each(|i| {
                    out.insert(ProcessId::new(i));
                }),
            },
            MobilityStrategy::RoundRobin => {
                let shift = (view.round.index() as usize).wrapping_mul(f) % n;
                for i in 0..f {
                    out.insert(ProcessId::new((shift + i) % n));
                }
            }
            MobilityStrategy::Random => {
                sample_into(rng, n, f, order);
                for &i in order.iter() {
                    out.insert(ProcessId::new(i));
                }
            }
            MobilityStrategy::TargetExtremes => {
                // The agents swallow the extreme-most *currently non-faulty*
                // states: the ⌈f/2⌉ highest and ⌊f/2⌋ lowest processes by
                // (vote, index), found by two selections in O(n) — the set
                // sorting and alternating from both ends picked.
                every_process(order);
                let (high, low) = (f.div_ceil(2), f / 2);
                order.select_nth_unstable_by(n - high, by_vote);
                if low > 0 {
                    order[..n - high].select_nth_unstable_by(low - 1, by_vote);
                }
                for &i in order[..low].iter().chain(&order[n - high..]) {
                    out.insert(ProcessId::new(i));
                }
            }
            MobilityStrategy::Sweep => {
                let shift = (view.round.index() as usize) % n;
                for i in 0..f {
                    out.insert(ProcessId::new((shift + i) % n));
                }
            }
            MobilityStrategy::TargetMedian => {
                // Sort processes by vote and occupy the ones closest to the
                // median, working outwards: the median, then one below and
                // one above it at each distance.
                every_process(order);
                order.sort_unstable_by(by_vote);
                let mid = n / 2;
                let picks = (0..n).flat_map(|k| {
                    let below = mid.checked_sub(k).filter(|_| k > 0);
                    [below, Some(mid + k).filter(|&i| i < n)]
                });
                for i in picks.flatten().take(f) {
                    out.insert(ProcessId::new(order[i]));
                }
            }
        }
    }
}

impl fmt::Display for MobilityStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            MobilityStrategy::Stationary => "stationary",
            MobilityStrategy::RoundRobin => "round-robin",
            MobilityStrategy::Random => "random",
            MobilityStrategy::TargetExtremes => "target-extremes",
            MobilityStrategy::Sweep => "sweep",
            MobilityStrategy::TargetMedian => "target-median",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbaa_types::{Interval, Round, Value};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn view(round: u64, votes: &[Value]) -> AdversaryView<'_> {
        AdversaryView {
            round: Round::new(round),
            votes,
            correct_range: Interval::hull(votes.iter().copied()).unwrap(),
        }
    }

    /// The placement `place_into` writes into fresh buffers.
    fn place(
        strategy: MobilityStrategy,
        view: &AdversaryView<'_>,
        f: usize,
        previous: Option<&ProcessSet>,
        rng: &mut StdRng,
    ) -> ProcessSet {
        let mut out = ProcessSet::empty(view.universe());
        strategy.place_into(view, f, previous, rng, &mut out, &mut Vec::new());
        out
    }

    fn votes(n: usize) -> Vec<Value> {
        (0..n).map(|i| Value::new(i as f64)).collect()
    }

    #[test]
    fn placements_have_exactly_f_members() {
        let votes = votes(7);
        let mut rng = StdRng::seed_from_u64(0);
        for strategy in MobilityStrategy::ALL {
            for round in 0..5 {
                let v = view(round, &votes);
                let set = place(strategy, &v, 3, None, &mut rng);
                assert_eq!(set.len(), 3, "{strategy} round {round}");
            }
        }
    }

    #[test]
    fn zero_agents_yield_empty_placement() {
        let votes = votes(4);
        let mut rng = StdRng::seed_from_u64(0);
        let v = view(0, &votes);
        assert!(place(MobilityStrategy::Random, &v, 0, None, &mut rng).is_empty());
    }

    #[test]
    fn f_larger_than_n_is_clamped() {
        let votes = votes(3);
        let mut rng = StdRng::seed_from_u64(0);
        let v = view(0, &votes);
        let set = place(MobilityStrategy::RoundRobin, &v, 10, None, &mut rng);
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn stationary_keeps_previous_placement() {
        let votes = votes(6);
        let mut rng = StdRng::seed_from_u64(0);
        let v0 = view(0, &votes);
        let first = place(MobilityStrategy::Stationary, &v0, 2, None, &mut rng);
        let v1 = view(1, &votes);
        let second = place(MobilityStrategy::Stationary, &v1, 2, Some(&first), &mut rng);
        assert_eq!(first, second);
    }

    #[test]
    fn round_robin_moves_every_round() {
        let votes = votes(6);
        let mut rng = StdRng::seed_from_u64(0);
        let placements: Vec<ProcessSet> = (0..3)
            .map(|r| {
                place(
                    MobilityStrategy::RoundRobin,
                    &view(r, &votes),
                    2,
                    None,
                    &mut rng,
                )
            })
            .collect();
        assert_eq!(placements[0], ProcessSet::from_indices(6, [0, 1]));
        assert_eq!(placements[1], ProcessSet::from_indices(6, [2, 3]));
        assert_eq!(placements[2], ProcessSet::from_indices(6, [4, 5]));
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let votes = votes(9);
        let place = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            place(
                MobilityStrategy::Random,
                &view(4, &votes),
                3,
                None,
                &mut rng,
            )
        };
        assert_eq!(place(5), place(5));
    }

    #[test]
    fn target_extremes_occupies_extreme_votes() {
        let votes = vec![
            Value::new(5.0),
            Value::new(-10.0),
            Value::new(0.0),
            Value::new(42.0),
            Value::new(1.0),
        ];
        let mut rng = StdRng::seed_from_u64(0);
        let set = place(
            MobilityStrategy::TargetExtremes,
            &view(0, &votes),
            2,
            None,
            &mut rng,
        );
        // Picks the max (p3, vote 42) first, then the min (p1, vote -10).
        assert!(set.contains(ProcessId::new(3)));
        assert!(set.contains(ProcessId::new(1)));
    }

    #[test]
    fn display_and_default() {
        assert_eq!(MobilityStrategy::default(), MobilityStrategy::RoundRobin);
        assert_eq!(
            MobilityStrategy::TargetExtremes.to_string(),
            "target-extremes"
        );
        assert_eq!(MobilityStrategy::Sweep.to_string(), "sweep");
        assert_eq!(MobilityStrategy::TargetMedian.to_string(), "target-median");
    }

    #[test]
    fn sweep_moves_one_position_per_round() {
        let votes = votes(5);
        let mut rng = StdRng::seed_from_u64(0);
        let placements: Vec<ProcessSet> = (0..3)
            .map(|r| place(MobilityStrategy::Sweep, &view(r, &votes), 2, None, &mut rng))
            .collect();
        assert_eq!(placements[0], ProcessSet::from_indices(5, [0, 1]));
        assert_eq!(placements[1], ProcessSet::from_indices(5, [1, 2]));
        assert_eq!(placements[2], ProcessSet::from_indices(5, [2, 3]));
    }

    #[test]
    fn target_median_occupies_central_votes() {
        let votes = vec![
            Value::new(100.0),
            Value::new(0.0),
            Value::new(50.0),
            Value::new(-100.0),
            Value::new(49.0),
        ];
        let mut rng = StdRng::seed_from_u64(0);
        let set = place(
            MobilityStrategy::TargetMedian,
            &view(0, &votes),
            2,
            None,
            &mut rng,
        );
        // Median-most votes are 49.0 (p4) and 50.0 (p2) — with 0.0 (p1) the
        // next candidate; the extreme holders p0 and p3 must not be chosen.
        assert_eq!(set.len(), 2);
        assert!(!set.contains(ProcessId::new(0)));
        assert!(!set.contains(ProcessId::new(3)));
    }

    #[test]
    fn target_median_handles_f_equal_n() {
        let votes = votes(3);
        let mut rng = StdRng::seed_from_u64(0);
        let set = place(
            MobilityStrategy::TargetMedian,
            &view(0, &votes),
            3,
            None,
            &mut rng,
        );
        assert_eq!(set.len(), 3);
    }

    /// The placement `TargetExtremes` made by sorting every process by
    /// (vote, index) and picking alternately from the high and low ends.
    fn sorted_extremes(votes: &[Value], f: usize) -> ProcessSet {
        let n = votes.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| votes[a].cmp(&votes[b]).then(a.cmp(&b)));
        let mut out = ProcessSet::empty(n);
        let (mut lo, mut hi) = (0, n - 1);
        for k in 0..f.min(n) {
            if k % 2 == 0 {
                out.insert(ProcessId::new(order[hi]));
                hi = hi.saturating_sub(1);
            } else {
                out.insert(ProcessId::new(order[lo]));
                lo += 1;
            }
        }
        out
    }

    #[test]
    fn target_extremes_selects_what_sorting_picked() {
        // Few distinct votes, so ties are common, with both signs of zero.
        let palette = [-0.0, 0.0, 1.0, -1.0, 0.5, 2.0];
        let mut rng = StdRng::seed_from_u64(5);
        for n in 1..=40 {
            for _ in 0..4 {
                let votes: Vec<Value> = (0..n)
                    .map(|_| Value::new(palette[rng.random_range(0..palette.len())]))
                    .collect();
                let v = view(0, &votes);
                let mut order = Vec::new();
                let mut out = ProcessSet::empty(n);
                for f in 0..=n {
                    MobilityStrategy::TargetExtremes
                        .place_into(&v, f, None, &mut rng, &mut out, &mut order);
                    assert_eq!(
                        out,
                        sorted_extremes(&votes, f),
                        "n {n}, f {f}, votes {votes:?}"
                    );
                }
            }
        }
    }
}

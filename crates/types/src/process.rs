//! Process identities and sets of processes.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The identity of a process `p_i`, `0 <= i < n`.
///
/// The paper indexes processes `p_1 … p_n`; we use 0-based indices internally
/// and format them 0-based as well.
///
/// # Example
///
/// ```
/// use mbaa_types::ProcessId;
///
/// let p = ProcessId::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(p.to_string(), "p3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct ProcessId(usize);

impl ProcessId {
    /// Creates a process identity from its index.
    #[must_use]
    pub fn new(index: usize) -> Self {
        ProcessId(index)
    }

    /// The index of this process.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for ProcessId {
    fn from(index: usize) -> Self {
        ProcessId(index)
    }
}

impl From<ProcessId> for usize {
    fn from(id: ProcessId) -> usize {
        id.0
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A set of processes out of a universe of `n`, stored as a bitset of
/// `⌈n/64⌉` words: a membership test costs O(1), and clearing, copying,
/// counting and iterating (in ascending order) cost O(n/64 + members).
///
/// Used for the faulty set `B`, the cured set `T*`, and the correct set `C`
/// of each round.
///
/// # Example
///
/// ```
/// use mbaa_types::{ProcessId, ProcessSet};
///
/// let mut faulty = ProcessSet::empty(5);
/// faulty.insert(ProcessId::new(2));
/// assert!(faulty.contains(ProcessId::new(2)));
/// assert_eq!(faulty.len(), 1);
/// assert_eq!(faulty.complement().len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProcessSet {
    /// Member `i` is bit `i % 64` of word `i / 64`; bits past `n` are 0.
    words: Vec<u64>,
    n: usize,
}

impl ProcessSet {
    /// Creates an empty set over a universe of `n` processes.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        ProcessSet {
            words: vec![0; n.div_ceil(64)],
            n,
        }
    }

    /// Creates the full set over a universe of `n` processes.
    #[must_use]
    pub fn full(n: usize) -> Self {
        Self::from_indices(n, 0..n)
    }

    /// Creates a set from the given member indices over a universe of `n`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    #[must_use]
    pub fn from_indices<I: IntoIterator<Item = usize>>(n: usize, indices: I) -> Self {
        let mut set = Self::empty(n);
        for i in indices {
            set.insert(ProcessId::new(i));
        }
        set
    }

    /// Size of the universe `n`.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// Number of members of the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` when the set has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The word holding `p`'s bit and the bit's mask.
    fn bit(&self, p: ProcessId) -> (usize, u64) {
        let i = p.index();
        assert!(i < self.n, "{p} is outside a universe of {}", self.n);
        (i / 64, 1 << (i % 64))
    }

    /// Returns `true` when `p` belongs to the set.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the universe.
    #[must_use]
    pub fn contains(&self, p: ProcessId) -> bool {
        let (w, bit) = self.bit(p);
        self.words[w] & bit != 0
    }

    /// Adds `p` to the set. Returns `true` when `p` was not already a member.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the universe.
    pub fn insert(&mut self, p: ProcessId) -> bool {
        let (w, bit) = self.bit(p);
        let was = self.words[w] & bit != 0;
        self.words[w] |= bit;
        !was
    }

    /// Removes `p` from the set. Returns `true` when `p` was a member.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the universe.
    pub fn remove(&mut self, p: ProcessId) -> bool {
        let (w, bit) = self.bit(p);
        let was = self.words[w] & bit != 0;
        self.words[w] &= !bit;
        was
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Overwrites this set with the membership of `other`, reusing the
    /// existing allocation — the zero-allocation counterpart of
    /// `*self = other.clone()` for same-universe sets.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn copy_from(&mut self, other: &ProcessSet) {
        assert_eq!(self.universe(), other.universe(), "universe mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Iterates over the members in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest.wrapping_sub(1);
                (bit < 64).then(|| ProcessId::new(w * 64 + bit))
            })
        })
    }

    /// The complement of the set within its universe.
    #[must_use]
    pub fn complement(&self) -> ProcessSet {
        ProcessSet::full(self.n).zip_words(self, |all, member| all & !member)
    }

    /// The union of two sets over the same universe.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn union(&self, other: &ProcessSet) -> ProcessSet {
        self.zip_words(other, |a, b| a | b)
    }

    /// The intersection of two sets over the same universe.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn intersection(&self, other: &ProcessSet) -> ProcessSet {
        self.zip_words(other, |a, b| a & b)
    }

    /// The set whose words are `op` of the two sets' words.
    fn zip_words(&self, other: &ProcessSet, op: impl Fn(u64, u64) -> u64) -> ProcessSet {
        assert_eq!(self.universe(), other.universe(), "universe mismatch");
        let words = self.words.iter().zip(&other.words);
        let words = words.map(|(&a, &b)| op(a, b)).collect();
        ProcessSet { words, n: self.n }
    }

    /// Returns `true` when the two sets share no member.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    #[must_use]
    pub fn is_disjoint(&self, other: &ProcessSet) -> bool {
        self.intersection(other).is_empty()
    }
}

impl fmt::Display for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_round_trips() {
        let p = ProcessId::new(7);
        assert_eq!(p.index(), 7);
        assert_eq!(usize::from(p), 7);
        assert_eq!(ProcessId::from(7usize), p);
        assert_eq!(p.to_string(), "p7");
    }

    #[test]
    fn empty_and_full_sets() {
        let empty = ProcessSet::empty(4);
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        assert_eq!(empty.universe(), 4);

        let full = ProcessSet::full(4);
        assert_eq!(full.len(), 4);
        assert_eq!(full.complement(), empty);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = ProcessSet::empty(3);
        assert!(s.insert(ProcessId::new(1)));
        assert!(!s.insert(ProcessId::new(1)));
        assert!(s.contains(ProcessId::new(1)));
        assert!(!s.contains(ProcessId::new(0)));
        assert!(s.remove(ProcessId::new(1)));
        assert!(!s.remove(ProcessId::new(1)));
        assert!(s.is_empty());
    }

    #[test]
    fn from_indices_and_iteration() {
        let s = ProcessSet::from_indices(5, [4, 0, 2]);
        let ids: Vec<usize> = s.iter().map(ProcessId::index).collect();
        assert_eq!(ids, vec![0, 2, 4]);
        assert_eq!(s.to_string(), "{p0, p2, p4}");
    }

    #[test]
    #[should_panic]
    fn out_of_universe_panics() {
        let s = ProcessSet::empty(2);
        let _ = s.contains(ProcessId::new(5));
    }

    #[test]
    fn set_algebra() {
        let a = ProcessSet::from_indices(6, [0, 1, 2]);
        let b = ProcessSet::from_indices(6, [2, 3]);
        assert_eq!(a.union(&b), ProcessSet::from_indices(6, [0, 1, 2, 3]));
        assert_eq!(a.intersection(&b), ProcessSet::from_indices(6, [2]));
        assert!(!a.is_disjoint(&b));
        assert!(a.is_disjoint(&ProcessSet::from_indices(6, [4, 5])));
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn mismatched_universe_panics() {
        let a = ProcessSet::empty(3);
        let b = ProcessSet::empty(4);
        let _ = a.union(&b);
    }

    #[test]
    fn clear_resets_membership() {
        let mut s = ProcessSet::from_indices(4, [1, 3]);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.universe(), 4);
    }

    #[test]
    fn copy_from_overwrites_in_place() {
        let mut s = ProcessSet::from_indices(4, [0, 2]);
        s.copy_from(&ProcessSet::from_indices(4, [3]));
        assert_eq!(s, ProcessSet::from_indices(4, [3]));
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn copy_from_rejects_mismatched_universe() {
        let mut s = ProcessSet::empty(3);
        s.copy_from(&ProcessSet::empty(4));
    }
}

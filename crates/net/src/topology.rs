//! Network topologies: which process pairs share a link.
//!
//! The paper assumes a fully connected network, but an entire family of
//! results (partial-broadcast and bounded-connectivity regimes in the style
//! of Li–Hurfin–Wang, arXiv:1206.0089) lives on sparser graphs. This module
//! makes the communication graph a first-class, serializable description:
//!
//! * [`Topology`] — a *description* of the graph family (complete, ring
//!   lattice, random regular, grid, or an explicit adjacency matrix) that
//!   [`realize`](Topology::realize)s into a concrete graph for a given
//!   system size and seed.
//! * [`Adjacency`] — the realized, validated graph: a symmetric bit matrix
//!   with connectivity and degree queries. Self-delivery is always on
//!   (every process hears its own broadcast), matching the paper's
//!   all-to-all exchange on the complete graph.
//!
//! The exchange ([`SharedRealization`](crate::SharedRealization)) walks
//! the set bits of each receiver's row: slots between non-neighbours become
//! *structural* non-deliveries, counted separately from omission faults in
//! [`NetworkStats`](crate::NetworkStats) and flagged in the trace.
//!
//! # Example
//!
//! ```
//! use mbaa_net::Topology;
//!
//! // A ring lattice where every process hears its 2 nearest neighbours on
//! // each side: degree 4, connected for every n.
//! let adjacency = Topology::Ring { k: 2 }.realize(9, 0)?;
//! assert!(adjacency.is_connected());
//! assert_eq!(adjacency.min_degree(), 4);
//! assert_eq!(adjacency.min_closed_neighborhood(), 5);
//!
//! // The complete topology realizes to the all-to-all graph.
//! assert!(Topology::Complete.realize(9, 0)?.is_complete());
//! # Ok::<(), mbaa_types::Error>(())
//! ```

use std::fmt;

use rand::{rngs::StdRng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use mbaa_types::{Error, ProcessId, Result};

use crate::faults::churn_link_down;

/// How many stub-matching attempts [`Topology::RandomRegular`] makes before
/// giving up on realizing a connected simple regular graph.
const RANDOM_REGULAR_ATTEMPTS: usize = 1_000;

/// A description of the communication graph connecting the processes.
///
/// A topology is *scenario-level plain data*: it does not know the system
/// size until it is [`realize`](Topology::realize)d into an [`Adjacency`].
/// [`Topology::Complete`] is the default everywhere and reproduces the
/// paper's fully connected network bit for bit.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// Every pair of processes shares a link (the paper's assumption).
    #[default]
    Complete,
    /// A ring lattice (circulant graph): process `i` is linked to its `k`
    /// nearest neighbours on each side, `i ± 1, …, i ± k` (mod `n`). With
    /// `2k + 1 >= n` the lattice covers every pair and normalizes to the
    /// complete graph.
    Ring {
        /// Neighbours on each side of the ring (degree is `2k`, clamped).
        k: usize,
    },
    /// A random `degree`-regular simple graph, realized by greedy stub
    /// matching and re-drawn (deterministically from the seed) until it is
    /// simple and connected.
    RandomRegular {
        /// The degree of every process.
        degree: usize,
    },
    /// A nearly square two-dimensional grid with 4-neighbourhoods, laid out
    /// row-major; the last row may be partial.
    Grid,
    /// An explicit adjacency matrix (see [`Adjacency::from_matrix`]).
    Custom(Adjacency),
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Topology::Complete => f.write_str("complete"),
            Topology::Ring { k } => write!(f, "ring(k={k})"),
            Topology::RandomRegular { degree } => write!(f, "random-regular(d={degree})"),
            Topology::Grid => f.write_str("grid"),
            Topology::Custom(adjacency) => write!(f, "custom(n={})", adjacency.n()),
        }
    }
}

impl Topology {
    /// Returns `true` for the [`Topology::Complete`] description. Note that
    /// other descriptions may still *realize* to a complete graph (a ring
    /// with `2k + 1 >= n`); use [`Adjacency::is_complete`] to detect that.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        matches!(self, Topology::Complete)
    }

    /// Realizes this description into a concrete validated graph over `n`
    /// processes. `seed` only matters for [`Topology::RandomRegular`]
    /// (same seed, same graph); every other family is deterministic in `n`
    /// alone.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidParameter`] when `n == 0`, when a custom matrix
    ///   covers a different universe than `n`, when a random-regular degree
    ///   is infeasible (`degree >= n` or `n * degree` odd), or when no
    ///   connected simple regular graph was found within the attempt
    ///   budget.
    ///
    /// Realization does **not** reject disconnected graphs (a `Ring { k: 0
    /// }` realizes to isolated vertices); the protocol configuration layer
    /// does, with the typed [`Error::DisconnectedTopology`].
    pub fn realize(&self, n: usize, seed: u64) -> Result<Adjacency> {
        if n == 0 {
            return Err(Error::InvalidParameter(
                "a topology needs at least one process".into(),
            ));
        }
        match self {
            Topology::Complete => Ok(Adjacency::complete(n)),
            Topology::Ring { k } => Ok(Adjacency::ring(n, *k)),
            Topology::RandomRegular { degree } => Adjacency::random_regular(n, *degree, seed),
            Topology::Grid => Ok(Adjacency::grid(n)),
            Topology::Custom(adjacency) => {
                if adjacency.n() != n {
                    return Err(Error::InvalidParameter(format!(
                        "custom adjacency covers {} processes, expected {n}",
                        adjacency.n()
                    )));
                }
                Ok(adjacency.clone())
            }
        }
    }
}

/// A realized, validated communication graph over `n` processes: one row
/// of `⌈n / 64⌉` words per process, bit `b % 64` of word `b / 64` of row
/// `a` set when `a` and `b` share a link. The rows are symmetric, the
/// diagonal is always set (self-delivery is structural) and the bits past
/// `n` are zero, so equal graphs hold equal words.
///
/// Constructed by [`Topology::realize`] or directly from
/// [`Adjacency::from_matrix`] / [`Adjacency::from_edges`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Adjacency {
    n: usize,
    /// The rows back to back, [`width`](Adjacency::width) words each.
    rows: Vec<u64>,
}

impl Adjacency {
    /// The all-to-all graph over `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn complete(n: usize) -> Self {
        assert!(n > 0, "a graph needs at least one process");
        let mut row = vec![u64::MAX; n.div_ceil(64)];
        if !n.is_multiple_of(64) {
            row[n / 64] = (1 << (n % 64)) - 1;
        }
        Adjacency {
            n,
            rows: row.repeat(n),
        }
    }

    /// The ring lattice over `n` processes with `k` neighbours on each
    /// side. `k >= n` is clamped (offsets wrap), so an over-wide ring
    /// normalizes to the complete graph; `k == 0` yields isolated vertices.
    #[must_use]
    pub fn ring(n: usize, k: usize) -> Self {
        assert!(n > 0, "a graph needs at least one process");
        let mut adjacency = Adjacency::empty(n);
        let k = k.min(n.saturating_sub(1));
        for i in 0..n {
            for offset in 1..=k {
                adjacency.link(i, (i + offset) % n);
            }
        }
        adjacency
    }

    /// The nearly square 2D grid over `n` processes with 4-neighbourhoods.
    /// Rows are `⌊√n⌋`-by-`⌈n / ⌊√n⌋⌉` row-major; the last row may be
    /// partial. Connected for every `n >= 1`.
    #[must_use]
    pub fn grid(n: usize) -> Self {
        assert!(n > 0, "a graph needs at least one process");
        let rows = (1..=n).take_while(|r| r * r <= n).last().unwrap_or(1);
        let cols = n.div_ceil(rows);
        let mut adjacency = Adjacency::empty(n);
        for i in 0..n {
            if (i + 1) % cols != 0 && i + 1 < n {
                adjacency.link(i, i + 1);
            }
            if i + cols < n {
                adjacency.link(i, i + cols);
            }
        }
        adjacency
    }

    /// A random `degree`-regular simple connected graph over `n`
    /// processes, drawn by greedy stub matching and re-drawn (from a
    /// deterministic seed stream) until simple and connected.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] when `degree >= n`, when `n * degree` is
    /// odd (no regular graph exists), or when no connected simple graph was
    /// found within the attempt budget.
    pub fn random_regular(n: usize, degree: usize, seed: u64) -> Result<Self> {
        if n == 0 {
            return Err(Error::InvalidParameter(
                "a graph needs at least one process".into(),
            ));
        }
        if degree >= n {
            return Err(Error::InvalidParameter(format!(
                "a {degree}-regular graph needs more than {degree} processes, got n={n}"
            )));
        }
        if !(n * degree).is_multiple_of(2) {
            return Err(Error::InvalidParameter(format!(
                "no {degree}-regular graph on {n} processes exists (n * degree must be even)"
            )));
        }
        if degree == 0 {
            // Isolated vertices: legal as a graph; rejected downstream as
            // disconnected whenever n > 1.
            return Ok(Adjacency::empty(n));
        }
        // Decorrelate the graph stream from the adversary/workload streams
        // that consume the same run seed.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7093_A5B0_C41D_22E7);
        for _ in 0..RANDOM_REGULAR_ATTEMPTS {
            if let Some(adjacency) = Adjacency::pairing_attempt(n, degree, &mut rng) {
                // A 1-regular matching can never be connected beyond n = 2:
                // hand it back as drawn and let the configuration layer
                // reject it with the typed disconnection error.
                if degree < 2 || adjacency.is_connected() {
                    return Ok(adjacency);
                }
            }
        }
        Err(Error::InvalidParameter(format!(
            "could not realize a connected {degree}-regular graph on {n} processes \
             within {RANDOM_REGULAR_ATTEMPTS} attempts"
        )))
    }

    /// One stub-matching draw: greedily pair random stubs, skipping
    /// self-loops and duplicate edges, and give up (return `None`) when the
    /// remaining stubs admit no legal pairing — unlike the plain pairing
    /// model, this keeps the per-attempt success probability high even for
    /// dense degrees.
    fn pairing_attempt(n: usize, degree: usize, rng: &mut StdRng) -> Option<Adjacency> {
        let mut stubs: Vec<usize> = (0..n)
            .flat_map(|i| std::iter::repeat_n(i, degree))
            .collect();
        let mut adjacency = Adjacency::empty(n);
        let mut stalls = 0usize;
        while stubs.len() >= 2 {
            let i = (rng.next_u64() as usize) % stubs.len();
            let j = (rng.next_u64() as usize) % stubs.len();
            let (a, b) = (stubs[i], stubs[j]);
            if i == j || a == b || adjacency.connected(ProcessId::new(a), ProcessId::new(b)) {
                // Tolerate a bounded streak of illegal draws before
                // declaring the tail unmatchable and restarting the
                // attempt.
                stalls += 1;
                if stalls > 64 + stubs.len() * stubs.len() {
                    return None;
                }
                continue;
            }
            stalls = 0;
            adjacency.link(a, b);
            let (hi, lo) = (i.max(j), i.min(j));
            stubs.swap_remove(hi);
            stubs.swap_remove(lo);
        }
        Some(adjacency)
    }

    /// Builds a graph from an explicit boolean matrix, one row per process.
    ///
    /// The diagonal may be given either way (self-delivery is forced on);
    /// off-diagonal entries must be symmetric.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] when the matrix is empty, not square, or
    /// not symmetric.
    pub fn from_matrix(matrix: Vec<Vec<bool>>) -> Result<Self> {
        let n = matrix.len();
        if n == 0 {
            return Err(Error::InvalidParameter(
                "adjacency matrix must cover at least one process".into(),
            ));
        }
        if let Some(row) = matrix.iter().find(|row| row.len() != n) {
            return Err(Error::InvalidParameter(format!(
                "adjacency matrix must be square: a row covers {} of {n} processes",
                row.len()
            )));
        }
        for (a, row) in matrix.iter().enumerate() {
            for (b, &cell) in row.iter().enumerate().skip(a + 1) {
                if cell != matrix[b][a] {
                    return Err(Error::InvalidParameter(format!(
                        "adjacency matrix must be symmetric: ({a}, {b}) disagrees with ({b}, {a})"
                    )));
                }
            }
        }
        let mut adjacency = Adjacency::empty(n);
        for (a, row) in matrix.iter().enumerate() {
            for (b, &linked) in row.iter().enumerate() {
                if linked && a != b {
                    adjacency.link(a, b);
                }
            }
        }
        Ok(adjacency)
    }

    /// Builds a graph over `n` processes from an explicit undirected edge
    /// list.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] when `n == 0`, and
    /// [`Error::UnknownProcess`] when an endpoint is outside `[0, n)`.
    pub fn from_edges<I: IntoIterator<Item = (usize, usize)>>(n: usize, edges: I) -> Result<Self> {
        if n == 0 {
            return Err(Error::InvalidParameter(
                "a graph needs at least one process".into(),
            ));
        }
        let mut adjacency = Adjacency::empty(n);
        for (a, b) in edges {
            for endpoint in [a, b] {
                if endpoint >= n {
                    return Err(Error::UnknownProcess {
                        process: ProcessId::new(endpoint),
                        n,
                    });
                }
            }
            if a != b {
                adjacency.link(a, b);
            }
        }
        Ok(adjacency)
    }

    /// The edgeless graph (diagonal only).
    fn empty(n: usize) -> Self {
        let mut adjacency = Adjacency {
            n,
            rows: vec![0; n * n.div_ceil(64)],
        };
        for i in 0..n {
            adjacency.link(i, i);
        }
        adjacency
    }

    /// Sets the undirected link `a — b`.
    fn link(&mut self, a: usize, b: usize) {
        for (from, to) in [(a, b), (b, a)] {
            let (word, bit) = self.arc(from, to);
            self.rows[word] |= bit;
        }
    }

    /// Clears the one arc `a -> b`.
    fn cut(&mut self, a: usize, b: usize) {
        let (word, bit) = self.arc(a, b);
        self.rows[word] &= !bit;
    }

    /// Where the arc `a -> b` lives: its word in `rows`, and its bit there.
    #[inline]
    fn arc(&self, a: usize, b: usize) -> (usize, u64) {
        (a * self.width() + b / 64, 1 << (b % 64))
    }

    /// Words per row.
    #[inline]
    fn width(&self) -> usize {
        self.n.div_ceil(64)
    }

    /// Row `a`: bit `b % 64` of word `b / 64` is set when `a` and `b`
    /// share a link.
    #[inline]
    pub(crate) fn row_words(&self, a: usize) -> &[u64] {
        let width = self.width();
        &self.rows[a * width..(a + 1) * width]
    }

    /// Redraws `into`, a graph over the same universe, as this base graph
    /// in `round` of the lane seeded `seed` under churn at `flip_rate`:
    /// each base link `a — b`, `a < b`, survives its [`churn_link_down`].
    // mbaa: alloc-free
    pub(crate) fn churn_into(&self, seed: u64, round: u64, flip_rate: f64, into: &mut Adjacency) {
        into.rows.copy_from_slice(&self.rows);
        for a in 0..self.n {
            for b in ones(self.row_words(a)).filter(|&b| b > a) {
                if churn_link_down(seed, round, a, b, flip_rate) {
                    into.cut(a, b);
                    into.cut(b, a);
                }
            }
        }
    }

    /// The number of processes this graph covers.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Returns `true` when `a` and `b` share a link (always `true` for
    /// `a == b`: self-delivery is structural).
    ///
    /// # Panics
    ///
    /// Panics if either process is outside the universe.
    #[must_use]
    pub fn connected(&self, a: ProcessId, b: ProcessId) -> bool {
        assert!(
            a.index() < self.n && b.index() < self.n,
            "process outside the universe"
        );
        let (word, bit) = self.arc(a.index(), b.index());
        self.rows[word] & bit != 0
    }

    /// The neighbours of `p`, excluding `p` itself, in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the universe.
    #[must_use]
    pub fn neighbors(&self, p: ProcessId) -> Vec<ProcessId> {
        ones(self.row_words(p.index()))
            .filter(|&i| i != p.index())
            .map(ProcessId::new)
            .collect()
    }

    /// The degree of `p` (neighbours excluding itself).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the universe.
    #[must_use]
    pub fn degree(&self, p: ProcessId) -> usize {
        count_ones(self.row_words(p.index())) - 1
    }

    /// The smallest degree over all processes.
    #[must_use]
    pub fn min_degree(&self) -> usize {
        (0..self.n)
            .map(|i| self.degree(ProcessId::new(i)))
            .min()
            .expect("a graph covers at least one process")
    }

    /// The smallest *closed* neighbourhood size (`degree + 1`): the number
    /// of processes the worst-placed process hears each round, itself
    /// included. This is the quantity the degree-dependent resilience
    /// checks compare against the model's replica requirement.
    #[must_use]
    pub fn min_closed_neighborhood(&self) -> usize {
        self.min_degree() + 1
    }

    /// The number of undirected links (self-links excluded).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        (count_ones(&self.rows) - self.n) / 2
    }

    /// Returns `true` when every pair of processes shares a link.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        count_ones(&self.rows) == self.n * self.n
    }

    /// Returns `true` when the graph has a single connected component.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.component_count() == 1
    }

    /// The number of connected components.
    #[must_use]
    pub fn component_count(&self) -> usize {
        Reach::new(self.n).components(self)
    }

    /// This graph with the directed links `cut` (`(from, to)` pairs)
    /// removed, as `(strong components, smallest closed in-neighbourhood)`:
    /// how many groups of processes still reach one another both ways, and
    /// how many processes the worst-placed receiver hears each round,
    /// itself included. Self-links are never cut. Without cuts the pair is
    /// ([`component_count`](Adjacency::component_count),
    /// [`min_closed_neighborhood`](Adjacency::min_closed_neighborhood)); a
    /// one-way cut can leave a graph connected but not strongly connected.
    /// This is how the configuration layer checks a link-fault plan's
    /// [`severed_arcs`](crate::LinkFaultPlan::severed_arcs).
    ///
    /// # Example
    ///
    /// ```
    /// use mbaa_net::Adjacency;
    ///
    /// // On the path 0 — 1 — 2 — 3, cutting 2 -> 1 strands {2, 3}
    /// // downstream of {0, 1}: two strong components.
    /// let path = Adjacency::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
    /// assert_eq!(path.cut_connectivity(&[]), (1, 2));
    /// assert_eq!(path.cut_connectivity(&[(2, 1)]), (2, 2));
    /// # Ok::<(), mbaa_types::Error>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is outside the universe.
    #[must_use]
    pub fn cut_connectivity(&self, cut: &[(usize, usize)]) -> (usize, usize) {
        let n = self.n;
        // The arcs, and their transpose: the graph is symmetric, so row
        // `to` of `heard` lists the processes `to` hears once each cut
        // is reversed.
        let (mut arcs, mut heard) = (self.clone(), self.clone());
        for &(from, to) in cut {
            assert!(from < n && to < n, "process outside the universe");
            if from != to {
                arcs.cut(from, to);
                heard.cut(to, from);
            }
        }
        let mut assigned = vec![0u64; self.width()];
        let mut components = 0;
        for v in 0..n {
            if assigned[v / 64] >> (v % 64) & 1 != 0 {
                continue;
            }
            components += 1;
            // v's strong component is exactly the processes both reachable
            // from v and reaching v.
            let (mut reached, mut reaching) = (Reach::new(n), Reach::new(n));
            reached.from(&arcs, v);
            reaching.from(&heard, v);
            for ((slot, &to), &from) in assigned.iter_mut().zip(&reached.seen).zip(&reaching.seen) {
                *slot |= to & from;
            }
        }
        let min_heard = (0..n)
            .map(|to| count_ones(heard.row_words(to)))
            .min()
            .expect("a graph covers at least one process");
        (components, min_heard)
    }
}

impl fmt::Display for Adjacency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} processes, {} links, min degree {}",
            self.n,
            self.edge_count(),
            self.min_degree()
        )
    }
}

/// The number of set bits in `words`.
#[inline]
pub(crate) fn count_ones(words: &[u64]) -> usize {
    words.iter().map(|word| word.count_ones() as usize).sum()
}

/// The set bits of a word row, ascending.
pub(crate) fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            let bit = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
            bits &= bits - 1;
            Some(w * 64 + bit)
        })
    })
}

/// The word-parallel reachability search, with its scratch sized once for
/// one universe: the processes `seen` so far, and those of them whose
/// rows are still `todo`.
#[derive(Debug)]
pub(crate) struct Reach {
    seen: Vec<u64>,
    todo: Vec<u64>,
}

impl Reach {
    pub(crate) fn new(n: usize) -> Self {
        Reach {
            seen: vec![0; n.div_ceil(64)],
            todo: vec![0; n.div_ceil(64)],
        }
    }

    /// Adds to `seen` every process that `start` reaches along `graph`'s
    /// rows, `start` included, not searching on from processes seen
    /// already. Each reached row is read once, one word at a time.
    // mbaa: alloc-free
    fn from(&mut self, graph: &Adjacency, start: usize) {
        let (seen, todo) = (&mut self.seen, &mut self.todo);
        todo[start / 64] |= 1 << (start % 64);
        seen[start / 64] |= 1 << (start % 64);
        while let Some(w) = todo.iter().position(|&word| word != 0) {
            let v = w * 64 + todo[w].trailing_zeros() as usize;
            todo[w] &= todo[w] - 1;
            for ((todo, seen), &linked) in
                todo.iter_mut().zip(seen.iter_mut()).zip(graph.row_words(v))
            {
                *todo |= linked & !*seen;
                *seen |= linked;
            }
        }
    }

    /// The number of connected components of the symmetric `graph`.
    // mbaa: alloc-free
    pub(crate) fn components(&mut self, graph: &Adjacency) -> usize {
        self.seen.fill(0);
        let mut components = 0;
        for v in 0..graph.n {
            if self.seen[v / 64] >> (v % 64) & 1 == 0 {
                components += 1;
                self.from(graph, v);
            }
        }
        components
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn complete_graph_is_complete_and_connected() {
        let adjacency = Topology::Complete.realize(5, 0).unwrap();
        assert!(adjacency.is_complete());
        assert!(adjacency.is_connected());
        assert_eq!(adjacency.min_degree(), 4);
        assert_eq!(adjacency.edge_count(), 10);
        assert_eq!(adjacency.neighbors(pid(0)).len(), 4);
    }

    #[test]
    fn ring_has_degree_2k_and_is_connected() {
        let adjacency = Topology::Ring { k: 2 }.realize(9, 0).unwrap();
        assert!(adjacency.is_connected());
        assert!(!adjacency.is_complete());
        assert_eq!(adjacency.min_degree(), 4);
        assert_eq!(adjacency.min_closed_neighborhood(), 5);
        // Neighbours of 0 on a 9-ring with k=2: 1, 2, 7, 8.
        assert_eq!(
            adjacency.neighbors(pid(0)),
            vec![pid(1), pid(2), pid(7), pid(8)]
        );
    }

    #[test]
    fn over_wide_ring_normalizes_to_complete() {
        for k in [4, 5, 9, 100] {
            let adjacency = Topology::Ring { k }.realize(9, 0).unwrap();
            assert!(adjacency.is_complete(), "ring k={k} should be complete");
        }
        // k = (n-1)/2 on odd n is the widest non-complete... n=9, k=3 gives
        // degree 6 < 8, so still incomplete.
        assert!(!Topology::Ring { k: 3 }.realize(9, 0).unwrap().is_complete());
    }

    #[test]
    fn zero_width_ring_is_disconnected_unless_singleton() {
        let adjacency = Topology::Ring { k: 0 }.realize(4, 0).unwrap();
        assert!(!adjacency.is_connected());
        assert_eq!(adjacency.component_count(), 4);
        assert!(Topology::Ring { k: 0 }
            .realize(1, 0)
            .unwrap()
            .is_connected());
    }

    #[test]
    fn grid_is_connected_for_every_size() {
        for n in 1..=30 {
            let adjacency = Topology::Grid.realize(n, 0).unwrap();
            assert!(adjacency.is_connected(), "grid n={n} disconnected");
        }
        // A 3x3 grid: corner degree 2, centre degree 4.
        let nine = Topology::Grid.realize(9, 0).unwrap();
        assert_eq!(nine.degree(pid(0)), 2);
        assert_eq!(nine.degree(pid(4)), 4);
        assert_eq!(nine.min_degree(), 2);
    }

    #[test]
    fn random_regular_is_regular_connected_and_seed_deterministic() {
        let a = Topology::RandomRegular { degree: 4 }
            .realize(10, 7)
            .unwrap();
        let b = Topology::RandomRegular { degree: 4 }
            .realize(10, 7)
            .unwrap();
        assert_eq!(a, b);
        assert!(a.is_connected());
        for i in 0..10 {
            assert_eq!(a.degree(pid(i)), 4, "process {i} is not 4-regular");
        }
        // A different seed draws a different graph (overwhelmingly likely
        // for this size; this specific pair is fixed by determinism).
        let c = Topology::RandomRegular { degree: 4 }
            .realize(10, 8)
            .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn random_regular_realizes_every_feasible_degree() {
        // Greedy stub matching must not fall over on dense degrees, where
        // the plain pairing model's rejection rate explodes.
        for n in [8usize, 9, 12] {
            for degree in 1..n {
                if !(n * degree).is_multiple_of(2) {
                    continue;
                }
                let adjacency = Topology::RandomRegular { degree }.realize(n, 3).unwrap();
                for i in 0..n {
                    assert_eq!(adjacency.degree(pid(i)), degree, "n={n} d={degree}");
                }
                if degree >= 2 {
                    assert!(adjacency.is_connected(), "n={n} d={degree} disconnected");
                }
            }
        }
        // Degree n-1 is the complete graph.
        assert!(Topology::RandomRegular { degree: 7 }
            .realize(8, 0)
            .unwrap()
            .is_complete());
    }

    #[test]
    fn random_regular_rejects_infeasible_degrees() {
        assert!(matches!(
            Topology::RandomRegular { degree: 9 }.realize(9, 0),
            Err(Error::InvalidParameter(_))
        ));
        // n * degree odd: no 3-regular graph on 9 vertices.
        assert!(matches!(
            Topology::RandomRegular { degree: 3 }.realize(9, 0),
            Err(Error::InvalidParameter(_))
        ));
        assert!(Topology::RandomRegular { degree: 3 }.realize(10, 0).is_ok());
    }

    #[test]
    fn from_matrix_validates_shape_and_symmetry() {
        assert!(matches!(
            Adjacency::from_matrix(vec![]),
            Err(Error::InvalidParameter(_))
        ));
        assert!(matches!(
            Adjacency::from_matrix(vec![vec![true, false], vec![false]]),
            Err(Error::InvalidParameter(_))
        ));
        assert!(matches!(
            Adjacency::from_matrix(vec![
                vec![true, true, false],
                vec![false, true, false],
                vec![false, false, true],
            ]),
            Err(Error::InvalidParameter(_))
        ));
        let path = Adjacency::from_matrix(vec![
            vec![false, true, false],
            vec![true, false, true],
            vec![false, true, false],
        ])
        .unwrap();
        assert!(path.is_connected());
        // The diagonal is forced on regardless of the input.
        assert!(path.connected(pid(0), pid(0)));
        assert_eq!(path.degree(pid(1)), 2);
    }

    #[test]
    fn from_edges_validates_endpoints() {
        let path = Adjacency::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        assert!(path.is_connected());
        assert_eq!(path.edge_count(), 2);
        assert!(matches!(
            Adjacency::from_edges(3, [(0, 3)]),
            Err(Error::UnknownProcess { n: 3, .. })
        ));
        // Self-loops are ignored (self-delivery is structural anyway).
        assert_eq!(Adjacency::from_edges(2, [(0, 0)]).unwrap().edge_count(), 0);
    }

    #[test]
    fn custom_realization_checks_the_universe() {
        let two = Adjacency::from_edges(2, [(0, 1)]).unwrap();
        let topology = Topology::Custom(two);
        assert!(topology.realize(2, 0).is_ok());
        assert!(matches!(
            topology.realize(3, 0),
            Err(Error::InvalidParameter(_))
        ));
    }

    #[test]
    fn singleton_universe_is_connected_under_every_family() {
        for topology in [
            Topology::Complete,
            Topology::Ring { k: 3 },
            Topology::Grid,
            Topology::RandomRegular { degree: 0 },
        ] {
            let adjacency = topology.realize(1, 0).unwrap();
            assert!(adjacency.is_connected(), "{topology} disconnected at n=1");
            assert_eq!(adjacency.min_degree(), 0);
            assert_eq!(adjacency.min_closed_neighborhood(), 1);
        }
    }

    #[test]
    fn zero_processes_is_rejected() {
        assert!(Topology::Complete.realize(0, 0).is_err());
    }

    #[test]
    fn display_names_the_family() {
        assert_eq!(Topology::Complete.to_string(), "complete");
        assert_eq!(Topology::Ring { k: 2 }.to_string(), "ring(k=2)");
        assert_eq!(
            Topology::RandomRegular { degree: 4 }.to_string(),
            "random-regular(d=4)"
        );
        assert_eq!(Topology::Grid.to_string(), "grid");
        let custom = Topology::Custom(Adjacency::complete(3));
        assert_eq!(custom.to_string(), "custom(n=3)");
        let adjacency = Adjacency::ring(5, 1);
        assert_eq!(adjacency.to_string(), "5 processes, 5 links, min degree 2");
    }

    #[test]
    fn component_count_tracks_disconnection() {
        let two_islands = Adjacency::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(two_islands.component_count(), 2);
        assert!(!two_islands.is_connected());
    }

    /// Strong components and the smallest closed in-neighbourhood of the
    /// `bool` matrix with the arcs `cut` removed, searched cell by cell.
    fn naive_cut_connectivity(matrix: &[Vec<bool>], cut: &[(usize, usize)]) -> (usize, usize) {
        let n = matrix.len();
        let mut arcs = matrix.to_vec();
        for &(from, to) in cut {
            if from != to {
                arcs[from][to] = false;
            }
        }
        let reach = |start: usize, forward: bool| {
            let mut seen = vec![false; n];
            seen[start] = true;
            let mut stack = vec![start];
            while let Some(v) = stack.pop() {
                for w in 0..n {
                    let arc = if forward { arcs[v][w] } else { arcs[w][v] };
                    if arc && !seen[w] {
                        seen[w] = true;
                        stack.push(w);
                    }
                }
            }
            seen
        };
        let mut assigned = vec![false; n];
        let mut components = 0;
        for v in 0..n {
            if !assigned[v] {
                components += 1;
                let (reached, reaching) = (reach(v, true), reach(v, false));
                for u in 0..n {
                    assigned[u] |= reached[u] && reaching[u];
                }
            }
        }
        let min_heard = (0..n)
            .map(|to| (0..n).filter(|&from| arcs[from][to]).count())
            .min()
            .unwrap();
        (components, min_heard)
    }

    #[test]
    fn word_rows_agree_with_a_bool_matrix_at_word_boundaries() {
        use rand::RngExt;

        let mut rng = StdRng::seed_from_u64(5);
        for n in [1usize, 63, 64, 65, 128, 129] {
            // Sparse draws fall apart into components; 1.0 is complete.
            for density in [0.0, 1.0 / n as f64, 3.0 / n as f64, 0.5, 1.0] {
                let mut edges = Vec::new();
                for a in 0..n {
                    for b in a + 1..n {
                        if rng.random_range(0.0..1.0) < density {
                            edges.push((a, b));
                        }
                    }
                }
                let mut matrix = vec![vec![false; n]; n];
                for (a, row) in matrix.iter_mut().enumerate() {
                    row[a] = true;
                }
                for &(a, b) in &edges {
                    matrix[a][b] = true;
                    matrix[b][a] = true;
                }
                let graph = Adjacency::from_edges(n, edges.iter().copied()).unwrap();
                assert_eq!(graph, Adjacency::from_matrix(matrix.clone()).unwrap());
                let complete = matrix.iter().flatten().all(|&linked| linked);
                assert_eq!(graph.is_complete(), complete, "n={n} p={density}");
                assert_eq!(graph == Adjacency::complete(n), complete);
                assert_eq!(graph.edge_count(), edges.len());
                for (a, row) in matrix.iter().enumerate() {
                    let expected: Vec<ProcessId> =
                        (0..n).filter(|&b| b != a && row[b]).map(pid).collect();
                    assert_eq!(graph.degree(pid(a)), expected.len());
                    assert_eq!(graph.neighbors(pid(a)), expected);
                    for (b, &linked) in row.iter().enumerate() {
                        assert_eq!(graph.connected(pid(a), pid(b)), linked);
                    }
                }
                let whole = naive_cut_connectivity(&matrix, &[]);
                assert_eq!(graph.component_count(), whole.0, "n={n} p={density}");
                assert_eq!(graph.cut_connectivity(&[]), whole);
                // Cut arcs of both directions, and a self-link that stays.
                let mut cut = Vec::new();
                for &(a, b) in &edges {
                    match rng.random_range(0..8usize) {
                        0 => cut.push((a, b)),
                        1 => cut.push((b, a)),
                        _ => {}
                    }
                }
                cut.push((n - 1, n - 1));
                assert_eq!(
                    graph.cut_connectivity(&cut),
                    naive_cut_connectivity(&matrix, &cut),
                    "n={n} p={density} cut {cut:?}"
                );
            }
        }
    }
}

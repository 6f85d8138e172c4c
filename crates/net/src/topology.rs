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
//! * [`Adjacency`] — the realized, validated graph: a symmetric boolean
//!   matrix with connectivity and degree queries. Self-delivery is always
//!   on (every process hears its own broadcast), matching the paper's
//!   all-to-all exchange on the complete graph.
//!
//! The exchange ([`SharedRealization`](crate::SharedRealization)) masks
//! delivery by adjacency: slots between non-neighbours become
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

/// A realized, validated communication graph: a symmetric `n × n` boolean
/// matrix whose diagonal is always set (self-delivery is structural).
///
/// Constructed by [`Topology::realize`] or directly from
/// [`Adjacency::from_matrix`] / [`Adjacency::from_edges`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Adjacency {
    n: usize,
    /// Row-major `n * n` link matrix; `bits[a * n + b]` means `a` and `b`
    /// share a link. Symmetric, diagonal always `true`.
    bits: Vec<bool>,
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
        Adjacency {
            n,
            bits: vec![true; n * n],
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
        let mut bits = vec![false; n * n];
        for i in 0..n {
            bits[i * n + i] = true;
        }
        Adjacency { n, bits }
    }

    /// Sets the undirected link `a — b`.
    fn link(&mut self, a: usize, b: usize) {
        self.bits[a * self.n + b] = true;
        self.bits[b * self.n + a] = true;
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
        self.bits[a.index() * self.n + b.index()]
    }

    /// The neighbours of `p`, excluding `p` itself, in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the universe.
    #[must_use]
    pub fn neighbors(&self, p: ProcessId) -> Vec<ProcessId> {
        let row = &self.bits[p.index() * self.n..(p.index() + 1) * self.n];
        row.iter()
            .enumerate()
            .filter_map(|(i, &linked)| (linked && i != p.index()).then_some(ProcessId::new(i)))
            .collect()
    }

    /// The degree of `p` (neighbours excluding itself).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the universe.
    #[must_use]
    pub fn degree(&self, p: ProcessId) -> usize {
        let row = &self.bits[p.index() * self.n..(p.index() + 1) * self.n];
        row.iter().filter(|&&linked| linked).count() - 1
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
        (0..self.n)
            .map(|i| self.degree(ProcessId::new(i)))
            .sum::<usize>()
            / 2
    }

    /// Returns `true` when every pair of processes shares a link.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.bits.iter().all(|&linked| linked)
    }

    /// Returns `true` when the graph has a single connected component.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.component_count() == 1
    }

    /// The number of connected components.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.cut_connectivity(&[]).0
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
        let mut arcs = self.bits.clone();
        for &(from, to) in cut {
            assert!(from < n && to < n, "process outside the universe");
            if from != to {
                arcs[from * n + to] = false;
            }
        }
        // Which processes `start` reaches along arcs (`forward`), or which
        // reach it; `start` included.
        let search = |start: usize, forward: bool| {
            let mut seen = vec![false; n];
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(node) = stack.pop() {
                for next in 0..n {
                    let arc = if forward {
                        arcs[node * n + next]
                    } else {
                        arcs[next * n + node]
                    };
                    if arc && !seen[next] {
                        seen[next] = true;
                        stack.push(next);
                    }
                }
            }
            seen
        };
        let mut assigned = vec![false; n];
        let mut components = 0;
        for v in 0..n {
            if assigned[v] {
                continue;
            }
            components += 1;
            // v's strong component is exactly the processes both reachable
            // from v and reaching v.
            let (reached, reaching) = (search(v, true), search(v, false));
            for (u, slot) in assigned.iter_mut().enumerate() {
                *slot |= reached[u] && reaching[u];
            }
        }
        let min_heard = (0..n)
            .map(|to| (0..n).filter(|&from| arcs[from * n + to]).count())
            .min()
            .expect("a graph covers at least one process");
        (components, min_heard)
    }

    /// One row of the matrix as reachability flags: `row(p)[q]` is `true`
    /// when `q` hears (equivalently, is heard by) `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the universe.
    #[must_use]
    pub fn row(&self, p: ProcessId) -> &[bool] {
        &self.bits[p.index() * self.n..(p.index() + 1) * self.n]
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
}

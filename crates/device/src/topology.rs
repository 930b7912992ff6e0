//! Coupling graphs and hop-distance queries.

use crate::Edge;
use std::fmt;
use xtalk_ir::Fnv1a;

/// A device coupling graph: qubits are nodes, possible CNOT sites are
/// edges. Precomputes all-pairs hop distances (BFS) so the frequent
/// queries of the characterization and scheduling layers are O(1).
///
/// ```
/// use xtalk_device::{Edge, Topology};
/// let t = Topology::line(4);
/// assert_eq!(t.qubit_distance(0, 3), Some(3));
/// // Gate distance between CX0,1 and CX2,3 is 1 hop (via qubits 1-2).
/// assert_eq!(t.edge_distance(Edge::new(0, 1), Edge::new(2, 3)), Some(1));
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Topology {
    num_qubits: usize,
    edges: Vec<Edge>,
    adj: Vec<Vec<u32>>,
    dist: Vec<Vec<u32>>,
    /// [`Topology::content_key`], computed once: no method mutates a
    /// topology after [`Topology::new`].
    key: u64,
}

const UNREACHABLE: u32 = u32::MAX;

impl Topology {
    /// Builds a topology from an edge list.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a qubit `>= num_qubits` or if the edge
    /// list contains duplicates.
    pub fn new(num_qubits: usize, edge_list: &[(u32, u32)]) -> Self {
        let mut edges: Vec<Edge> = edge_list.iter().map(|&(a, b)| Edge::new(a, b)).collect();
        edges.sort_unstable();
        for w in edges.windows(2) {
            assert_ne!(w[0], w[1], "duplicate edge {}", w[0]);
        }
        let mut adj = vec![Vec::new(); num_qubits];
        for e in &edges {
            assert!(
                (e.hi() as usize) < num_qubits,
                "edge {e} references qubit outside register of {num_qubits}"
            );
            adj[e.lo() as usize].push(e.hi());
            adj[e.hi() as usize].push(e.lo());
        }
        for nbrs in &mut adj {
            nbrs.sort_unstable();
        }
        let dist = all_pairs_bfs(num_qubits, &adj);
        let mut h = Fnv1a::new();
        h.write_usize(num_qubits);
        h.write_usize(edges.len());
        for e in &edges {
            h.write_u32(e.lo());
            h.write_u32(e.hi());
        }
        Topology { num_qubits, edges, adj, dist, key: h.finish() }
    }

    /// FNV-1a content key of the register width and the sorted edge
    /// list: equal topologies have equal keys. Computed by
    /// [`Topology::new`]; reading it streams nothing.
    pub fn content_key(&self) -> u64 {
        self.key
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of coupling edges (hardware CNOT sites).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edges, sorted.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Neighbors of qubit `q`, sorted.
    pub fn neighbors(&self, q: u32) -> &[u32] {
        &self.adj[q as usize]
    }

    /// `true` if a CNOT can be driven directly between `a` and `b`.
    pub fn are_adjacent(&self, a: u32, b: u32) -> bool {
        a != b && self.adj[a as usize].binary_search(&b).is_ok()
    }

    /// `true` if `e` is an edge of this topology.
    pub fn has_edge(&self, e: Edge) -> bool {
        self.edges.binary_search(&e).is_ok()
    }

    /// Hop distance between two qubits; `None` if disconnected.
    pub fn qubit_distance(&self, a: u32, b: u32) -> Option<u32> {
        let d = self.dist[a as usize][b as usize];
        (d != UNREACHABLE).then_some(d)
    }

    /// Gate (edge) distance: the minimum hop distance between any endpoint
    /// of `a` and any endpoint of `b`. Two CNOTs that share a qubit have
    /// distance 0; the paper's "1-hop" interfering pairs have distance 1.
    /// `None` if the edges lie in disconnected components.
    pub fn edge_distance(&self, a: Edge, b: Edge) -> Option<u32> {
        let mut best: Option<u32> = None;
        for x in [a.lo(), a.hi()] {
            for y in [b.lo(), b.hi()] {
                if let Some(d) = self.qubit_distance(x, y) {
                    best = Some(best.map_or(d, |c| c.min(d)));
                }
            }
        }
        best
    }

    /// All unordered pairs of edges that do not share a qubit — the CNOT
    /// pairs that *can* be driven simultaneously, i.e. the experiment space
    /// of all-pairs simultaneous RB.
    pub fn simultaneous_pairs(&self) -> Vec<(Edge, Edge)> {
        let mut out = Vec::new();
        for (i, &a) in self.edges.iter().enumerate() {
            for &b in &self.edges[i + 1..] {
                if !a.shares_qubit(b) {
                    out.push((a, b));
                }
            }
        }
        out
    }

    /// The simultaneous pairs at exactly `hops` gate distance.
    pub fn pairs_at_distance(&self, hops: u32) -> Vec<(Edge, Edge)> {
        self.simultaneous_pairs()
            .into_iter()
            .filter(|&(a, b)| self.edge_distance(a, b) == Some(hops))
            .collect()
    }

    /// A shortest qubit path from `a` to `b` (inclusive); `None` if
    /// disconnected. Ties broken toward smaller qubit indices, so the
    /// result is deterministic.
    pub fn shortest_path(&self, a: u32, b: u32) -> Option<Vec<u32>> {
        self.qubit_distance(a, b)?;
        let mut path = vec![a];
        let mut cur = a;
        while cur != b {
            let next = *self.adj[cur as usize]
                .iter()
                .find(|&&n| {
                    self.dist[n as usize][b as usize] + 1 == self.dist[cur as usize][b as usize]
                })
                .expect("distance structure is consistent");
            path.push(next);
            cur = next;
        }
        Some(path)
    }

    /// A path (line) topology of `n` qubits.
    pub fn line(n: usize) -> Self {
        let edges: Vec<(u32, u32)> = (0..n.saturating_sub(1) as u32).map(|i| (i, i + 1)).collect();
        Topology::new(n, &edges)
    }

    /// A full `rows × cols` grid.
    pub fn grid(rows: usize, cols: usize) -> Self {
        let mut edges = Vec::new();
        let at = |r: usize, c: usize| (r * cols + c) as u32;
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((at(r, c), at(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((at(r, c), at(r + 1, c)));
                }
            }
        }
        Topology::new(rows * cols, &edges)
    }

    /// The 20-qubit IBMQ Poughkeepsie coupling map (22 edges): four
    /// horizontal chains of five qubits, with vertical links at the row
    /// ends (0-5, 4-9, 5-10, 9-14, 10-15, 14-19).
    pub fn poughkeepsie() -> Self {
        Topology::new(
            20,
            &[
                (0, 1), (1, 2), (2, 3), (3, 4),
                (5, 6), (6, 7), (7, 8), (8, 9),
                (10, 11), (11, 12), (12, 13), (13, 14),
                (15, 16), (16, 17), (17, 18), (18, 19),
                (0, 5), (4, 9), (5, 10), (9, 14), (10, 15), (14, 19),
            ],
        )
    }

    /// The 20-qubit IBMQ Johannesburg coupling map (23 edges):
    /// Poughkeepsie plus the central vertical link 7-12.
    pub fn johannesburg() -> Self {
        Topology::new(
            20,
            &[
                (0, 1), (1, 2), (2, 3), (3, 4),
                (5, 6), (6, 7), (7, 8), (8, 9),
                (10, 11), (11, 12), (12, 13), (13, 14),
                (15, 16), (16, 17), (17, 18), (18, 19),
                (0, 5), (4, 9), (5, 10), (9, 14), (10, 15), (14, 19),
                (7, 12),
            ],
        )
    }

    /// The 20-qubit IBMQ Boeblingen coupling map (23 edges): four
    /// horizontal chains with staggered vertical links
    /// (1-6, 3-8, 5-10, 7-12, 9-14, 11-16, 13-18).
    pub fn boeblingen() -> Self {
        Topology::new(
            20,
            &[
                (0, 1), (1, 2), (2, 3), (3, 4),
                (5, 6), (6, 7), (7, 8), (8, 9),
                (10, 11), (11, 12), (12, 13), (13, 14),
                (15, 16), (16, 17), (17, 18), (18, 19),
                (1, 6), (3, 8), (5, 10), (7, 12), (9, 14), (11, 16), (13, 18),
            ],
        )
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "topology<{} qubits, {} edges>", self.num_qubits, self.edges.len())
    }
}

#[allow(clippy::needless_range_loop)]
fn all_pairs_bfs(n: usize, adj: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let mut dist = vec![vec![UNREACHABLE; n]; n];
    let mut queue = std::collections::VecDeque::new();
    for s in 0..n {
        dist[s][s] = 0;
        queue.clear();
        queue.push_back(s as u32);
        while let Some(u) = queue.pop_front() {
            let du = dist[s][u as usize];
            for &v in &adj[u as usize] {
                if dist[s][v as usize] == UNREACHABLE {
                    dist[s][v as usize] = du + 1;
                    queue.push_back(v);
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_distances() {
        let t = Topology::line(5);
        assert_eq!(t.num_edges(), 4);
        assert_eq!(t.qubit_distance(0, 4), Some(4));
        assert!(t.are_adjacent(1, 2));
        assert!(!t.are_adjacent(0, 2));
    }

    #[test]
    fn grid_shape() {
        let t = Topology::grid(2, 3);
        assert_eq!(t.num_qubits(), 6);
        assert_eq!(t.num_edges(), 7); // 2*2 horizontal + 3 vertical
        assert_eq!(t.qubit_distance(0, 5), Some(3));
    }

    #[test]
    fn disconnected_reported() {
        let t = Topology::new(4, &[(0, 1), (2, 3)]);
        assert_eq!(t.qubit_distance(0, 3), None);
        assert_eq!(t.edge_distance(Edge::new(0, 1), Edge::new(2, 3)), None);
        assert_eq!(t.shortest_path(0, 2), None);
    }

    #[test]
    fn edge_distance_semantics() {
        let t = Topology::line(6);
        // CX0,1 and CX1,2 share qubit 1 → distance 0.
        assert_eq!(t.edge_distance(Edge::new(0, 1), Edge::new(1, 2)), Some(0));
        assert_eq!(t.edge_distance(Edge::new(0, 1), Edge::new(2, 3)), Some(1));
        assert_eq!(t.edge_distance(Edge::new(0, 1), Edge::new(3, 4)), Some(2));
    }

    #[test]
    fn poughkeepsie_shape() {
        let t = Topology::poughkeepsie();
        assert_eq!(t.num_qubits(), 20);
        assert_eq!(t.num_edges(), 22);
        assert!(t.has_edge(Edge::new(10, 15)));
        assert!(t.has_edge(Edge::new(11, 12)));
        assert!(!t.has_edge(Edge::new(7, 12)));
        // The paper's meet-in-the-middle example: 0-5-10 and 13-12-11.
        assert_eq!(t.shortest_path(0, 10), Some(vec![0, 5, 10]));
    }

    #[test]
    fn johannesburg_has_central_link() {
        let t = Topology::johannesburg();
        assert_eq!(t.num_edges(), 23);
        assert!(t.has_edge(Edge::new(7, 12)));
    }

    #[test]
    fn boeblingen_staggered_links() {
        let t = Topology::boeblingen();
        assert_eq!(t.num_edges(), 23);
        assert!(t.has_edge(Edge::new(1, 6)));
        assert!(t.has_edge(Edge::new(13, 18)));
        assert!(!t.has_edge(Edge::new(0, 5)));
    }

    #[test]
    fn simultaneous_pairs_exclude_shared_qubits() {
        let t = Topology::line(4);
        // Edges: 01, 12, 23. Only (01, 23) is simultaneous.
        assert_eq!(t.simultaneous_pairs(), vec![(Edge::new(0, 1), Edge::new(2, 3))]);
    }

    #[test]
    fn poughkeepsie_simultaneous_pair_count() {
        // 22 edges → C(22,2)=231 minus 28 qubit-sharing pairs = 203.
        let t = Topology::poughkeepsie();
        assert_eq!(t.simultaneous_pairs().len(), 203);
    }

    #[test]
    fn pairs_at_distance_filters() {
        let t = Topology::line(6);
        let one_hop = t.pairs_at_distance(1);
        assert!(one_hop.contains(&(Edge::new(0, 1), Edge::new(2, 3))));
        assert!(!one_hop.contains(&(Edge::new(0, 1), Edge::new(3, 4))));
    }

    #[test]
    fn shortest_path_is_shortest_and_deterministic() {
        let t = Topology::poughkeepsie();
        let p = t.shortest_path(0, 13).unwrap();
        assert_eq!(p.len() as u32 - 1, t.qubit_distance(0, 13).unwrap());
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&13));
        assert_eq!(p, t.shortest_path(0, 13).unwrap());
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edges_rejected() {
        Topology::new(3, &[(0, 1), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "outside register")]
    fn out_of_range_edge_rejected() {
        Topology::new(2, &[(0, 5)]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random connected-ish topologies: a spanning line plus extra edges.
    fn topology_strategy() -> impl Strategy<Value = Topology> {
        (4usize..12, prop::collection::vec((0u32..12, 0u32..12), 0..8)).prop_map(|(n, extra)| {
            let mut edges: Vec<(u32, u32)> =
                (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
            for (a, b) in extra {
                let (a, b) = (a % n as u32, b % n as u32);
                if a != b && !edges.contains(&(a.min(b), a.max(b))) {
                    edges.push((a.min(b), a.max(b)));
                }
            }
            Topology::new(n, &edges)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn distances_are_metric(topo in topology_strategy()) {
            let n = topo.num_qubits() as u32;
            for a in 0..n {
                prop_assert_eq!(topo.qubit_distance(a, a), Some(0));
                for b in 0..n {
                    // Symmetry.
                    prop_assert_eq!(topo.qubit_distance(a, b), topo.qubit_distance(b, a));
                    // Adjacency ⇔ distance 1.
                    prop_assert_eq!(topo.are_adjacent(a, b), topo.qubit_distance(a, b) == Some(1));
                    // Triangle inequality through every midpoint.
                    if let Some(dab) = topo.qubit_distance(a, b) {
                        for m in 0..n {
                            if let (Some(dam), Some(dmb)) =
                                (topo.qubit_distance(a, m), topo.qubit_distance(m, b))
                            {
                                prop_assert!(dab <= dam + dmb);
                            }
                        }
                    }
                }
            }
        }

        #[test]
        fn shortest_paths_realize_distances(topo in topology_strategy()) {
            let n = topo.num_qubits() as u32;
            for a in 0..n {
                for b in 0..n {
                    if let Some(path) = topo.shortest_path(a, b) {
                        prop_assert_eq!(
                            path.len() as u32 - 1,
                            topo.qubit_distance(a, b).unwrap()
                        );
                        for w in path.windows(2) {
                            prop_assert!(topo.are_adjacent(w[0], w[1]));
                        }
                    }
                }
            }
        }

        #[test]
        fn simultaneous_pairs_consistent(topo in topology_strategy()) {
            let pairs = topo.simultaneous_pairs();
            // No pair shares a qubit, every pair is of real edges, and the
            // count matches the combinatorial formula.
            for &(a, b) in &pairs {
                prop_assert!(!a.shares_qubit(b));
                prop_assert!(topo.has_edge(a) && topo.has_edge(b));
            }
            let e = topo.num_edges();
            let sharing: usize = (0..topo.num_qubits() as u32)
                .map(|q| {
                    let d = topo.neighbors(q).len();
                    d * (d - 1) / 2
                })
                .sum();
            prop_assert_eq!(pairs.len(), e * (e - 1) / 2 - sharing);
        }
    }
}

//! Data-dependency DAG of a circuit.

use crate::Circuit;

/// A compact bitset over instruction indices.
#[derive(Clone, PartialEq, Eq, Debug)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(len: usize) -> Self {
        BitSet { words: vec![0; len.div_ceil(64)] }
    }
    #[inline]
    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }
    #[inline]
    fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }
    fn or_assign(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }
}

/// The data-dependency DAG of a [`Circuit`].
///
/// Node `i` is instruction `i` of the circuit (program order is a valid
/// topological order). There is an edge `i → j` when `j` is the next
/// instruction after `i` on some shared qubit. Barriers participate like
/// ordinary instructions, which is how they enforce orderings.
///
/// The DAG answers the queries the scheduler needs:
/// ancestor/descendant tests ([`Dag::depends_on`]), the `CanOlp` sets of the
/// paper ([`Dag::can_overlap_set`]), and ASAP layering ([`Dag::layers`]).
///
/// ```
/// use xtalk_ir::Circuit;
/// let mut c = Circuit::new(3, 0);
/// c.cx(0, 1).cx(1, 2).h(0);
/// let dag = c.dag();
/// assert!(dag.depends_on(1, 0));       // cx(1,2) after cx(0,1)
/// assert!(dag.can_overlap(1, 2));      // h(0) independent of cx(1,2)
/// assert_eq!(dag.layers(), vec![vec![0], vec![1, 2]]);
/// ```
#[derive(Clone, Debug)]
pub struct Dag {
    len: usize,
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
    ancestors: Vec<BitSet>,
}

impl Dag {
    /// Builds the DAG for `circuit`.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let n = circuit.len();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut last_on_qubit: Vec<Option<usize>> = vec![None; circuit.num_qubits()];

        for (i, instr) in circuit.iter().enumerate() {
            for q in instr.qubits() {
                if let Some(p) = last_on_qubit[q.index()] {
                    if !preds[i].contains(&p) {
                        preds[i].push(p);
                        succs[p].push(i);
                    }
                }
                last_on_qubit[q.index()] = Some(i);
            }
        }

        // Transitive closure in topological (program) order: every
        // predecessor precedes `i`, so its finished set sits in the
        // `done` half and is OR-ed in place.
        let mut ancestors = vec![BitSet::new(n); n];
        for (i, ps) in preds.iter().enumerate() {
            let (done, rest) = ancestors.split_at_mut(i);
            let set = &mut rest[0];
            for &p in ps {
                set.set(p);
                set.or_assign(&done[p]);
            }
        }

        Dag { len: n, preds, succs, ancestors }
    }

    /// Number of nodes (instructions).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Direct predecessors of node `i` (instructions it immediately follows
    /// on some qubit).
    pub fn predecessors(&self, i: usize) -> &[usize] {
        &self.preds[i]
    }

    /// Direct successors of node `i`.
    pub fn successors(&self, i: usize) -> &[usize] {
        &self.succs[i]
    }

    /// `true` if instruction `node` transitively depends on `ancestor`
    /// (i.e. `ancestor` must finish before `node` starts).
    pub fn depends_on(&self, node: usize, ancestor: usize) -> bool {
        self.ancestors[node].get(ancestor)
    }

    /// `true` if `i` and `j` are unrelated in the dependency order: neither
    /// is an ancestor of the other, so a scheduler may overlap them in time.
    pub fn can_overlap(&self, i: usize, j: usize) -> bool {
        i != j && !self.depends_on(i, j) && !self.depends_on(j, i)
    }

    /// The paper's `CanOlp(g_i)`: all instruction indices that may overlap
    /// with instruction `i` in some legal schedule.
    pub fn can_overlap_set(&self, i: usize) -> Vec<usize> {
        (0..self.len).filter(|&j| self.can_overlap(i, j)).collect()
    }

    /// ASAP layering: `layers()[k]` holds the instructions whose longest
    /// dependency chain from an input has length `k`.
    pub fn layers(&self) -> Vec<Vec<usize>> {
        let mut level = vec![0usize; self.len];
        let mut out: Vec<Vec<usize>> = Vec::new();
        for i in 0..self.len {
            let lv = self.preds[i].iter().map(|&p| level[p] + 1).max().unwrap_or(0);
            level[i] = lv;
            if out.len() <= lv {
                out.resize_with(lv + 1, Vec::new);
            }
            out[lv].push(i);
        }
        out
    }

    /// Longest path length (in instructions) ending at node `i`, counting
    /// `i` itself. Equivalent to `critical path depth` of the node.
    pub fn chain_length(&self, i: usize) -> usize {
        // Recompute per call; the DAG is small and this keeps the structure
        // immutable.
        let mut level = vec![0usize; self.len];
        for k in 0..=i {
            level[k] = self.preds[k].iter().map(|&p| level[p] + 1).max().unwrap_or(0);
        }
        level[i] + 1
    }

    /// Nodes with no predecessors.
    pub fn sources(&self) -> Vec<usize> {
        (0..self.len).filter(|&i| self.preds[i].is_empty()).collect()
    }

    /// Nodes with no successors.
    pub fn sinks(&self) -> Vec<usize> {
        (0..self.len).filter(|&i| self.succs[i].is_empty()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain3() -> Circuit {
        let mut c = Circuit::new(3, 0);
        c.cx(0, 1).cx(1, 2).cx(0, 1);
        c
    }

    #[test]
    fn edges_follow_qubits() {
        let dag = chain3().dag();
        assert_eq!(dag.predecessors(0), &[] as &[usize]);
        assert_eq!(dag.predecessors(1), &[0]);
        // cx(0,1) #2 depends on #0 via q0 and on #1 via q1.
        let mut p = dag.predecessors(2).to_vec();
        p.sort_unstable();
        assert_eq!(p, vec![0, 1]);
    }

    #[test]
    fn transitive_dependencies() {
        let mut c = Circuit::new(4, 0);
        c.cx(0, 1).cx(1, 2).cx(2, 3);
        let dag = c.dag();
        assert!(dag.depends_on(2, 0));
        assert!(!dag.depends_on(0, 2));
        assert!(!dag.can_overlap(0, 2));
    }

    #[test]
    fn parallel_gates_can_overlap() {
        let mut c = Circuit::new(4, 0);
        c.cx(0, 1).cx(2, 3);
        let dag = c.dag();
        assert!(dag.can_overlap(0, 1));
        assert_eq!(dag.can_overlap_set(0), vec![1]);
    }

    #[test]
    fn barrier_orders_unrelated_gates() {
        let mut c = Circuit::new(4, 0);
        c.cx(0, 1).barrier_all().cx(2, 3);
        let dag = c.dag();
        // Without the barrier these would be independent.
        assert!(dag.depends_on(2, 0));
        assert!(!dag.can_overlap(0, 2));
    }

    #[test]
    fn layers_match_asap() {
        let mut c = Circuit::new(6, 0);
        c.cx(0, 1).cx(2, 3).cx(4, 5).cx(1, 2).cx(3, 4);
        let dag = c.dag();
        let layers = dag.layers();
        assert_eq!(layers[0], vec![0, 1, 2]);
        assert_eq!(layers[1], vec![3, 4]);
    }

    #[test]
    fn sources_and_sinks() {
        let dag = chain3().dag();
        assert_eq!(dag.sources(), vec![0]);
        assert_eq!(dag.sinks(), vec![2]);
    }

    #[test]
    fn self_is_not_overlap_candidate() {
        let dag = chain3().dag();
        assert!(!dag.can_overlap(1, 1));
    }

    #[test]
    fn chain_length_counts_nodes() {
        let dag = chain3().dag();
        assert_eq!(dag.chain_length(0), 1);
        assert_eq!(dag.chain_length(2), 3);
    }

    #[test]
    fn empty_circuit() {
        let dag = Circuit::new(2, 0).dag();
        assert!(dag.is_empty());
        assert!(dag.layers().is_empty());
    }
}

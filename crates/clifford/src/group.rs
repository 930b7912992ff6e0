//! Exhaustive enumerations of small Clifford groups with CX-optimal
//! decompositions.

use crate::tableau::gate_tableau;
use crate::CliffordTableau;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::OnceLock;
use xtalk_ir::{Circuit, Gate, Instruction, Qubit};

/// A gate applied to local (0-based) qubit indices within the group's
/// register.
pub type LocalGate = (Gate, Vec<usize>);

struct Element {
    tableau: CliffordTableau,
    /// `(parent element, appended generator)` — `None` for the identity.
    parent: Option<(usize, u8)>,
    cx_count: usize,
    gate_count: usize,
}

/// A fully enumerated Clifford group over `n` qubits, produced by
/// Dijkstra over a generating set with lexicographic cost
/// `(CX count, total gate count)` — so every element's stored
/// decomposition uses the minimum possible number of CNOTs.
///
/// The enumeration also keeps what it looked up on the way: the
/// successor table `succ[i][g]`, the index of "element `i`, then
/// generator `g`", and each element's generator word. Products of
/// elements ([`CliffordGroup::compose`]) and circuits of elements or
/// their inverses ([`CliffordGroup::emit`]) then need no tableau work.
///
/// ```
/// use xtalk_clifford::group;
/// let g1 = group::single_qubit_cliffords();
/// assert_eq!(g1.len(), 24);
/// // Single-qubit Cliffords never need a CX.
/// assert!((0..g1.len()).all(|i| g1.cx_count(i) == 0));
/// // H is its own inverse: composed with itself it is the identity.
/// let h = g1.index_of(&xtalk_clifford::gate_tableau(1, &xtalk_ir::Gate::H, &[0])).unwrap();
/// assert_eq!(g1.compose(h, h), group::CliffordGroup::IDENTITY);
/// ```
pub struct CliffordGroup {
    n: usize,
    generators: Vec<LocalGate>,
    elements: Vec<Element>,
    index: HashMap<CliffordTableau, usize>,
    /// `succ[i · generators + g]`: the index of element `i` followed by
    /// generator `g`.
    succ: Vec<u16>,
    /// Element `i`'s generator word is `words[word_start[i]..word_start[i + 1]]`,
    /// in application order.
    words: Vec<u8>,
    word_start: Vec<u32>,
}

impl CliffordGroup {
    /// Index of the identity element.
    pub const IDENTITY: usize = 0;

    /// Enumerates the group generated by `generators` on `n` qubits.
    fn enumerate(n: usize, generators: &[LocalGate]) -> Self {
        let gen_tableaus: Vec<CliffordTableau> =
            generators.iter().map(|(g, qs)| gate_tableau(n, g, qs)).collect();
        let mut elements: Vec<Element> = Vec::new();
        let mut index: HashMap<CliffordTableau, usize> = HashMap::new();
        let mut succ: Vec<u16> = Vec::new();
        let identity = CliffordTableau::identity(n);
        elements.push(Element {
            tableau: identity.clone(),
            parent: None,
            cx_count: 0,
            gate_count: 0,
        });
        index.insert(identity, 0);

        // Dijkstra with cost (cx, gates). Generator application costs are
        // uniform per generator, so a monotone frontier suffices. Every
        // element is settled exactly once, and settling it looks up all of
        // its successors: that lookup is the successor table's row.
        let mut heap: BinaryHeap<Reverse<((usize, usize), usize)>> = BinaryHeap::new();
        heap.push(Reverse(((0, 0), 0)));
        let mut settled = vec![false; 1];

        while let Some(Reverse((cost, i))) = heap.pop() {
            if settled[i] {
                continue;
            }
            settled[i] = true;
            if succ.len() < elements.len() * generators.len() {
                succ.resize(elements.len() * generators.len(), u16::MAX);
            }
            for (g, (gate, gt)) in generators.iter().zip(&gen_tableaus).enumerate() {
                let next = elements[i].tableau.then(gt);
                let add_cx = usize::from(gate.0.is_two_qubit());
                let ncost = (cost.0 + add_cx, cost.1 + 1);
                let j = match index.get(&next) {
                    Some(&j) => {
                        if !settled[j]
                            && ncost < (elements[j].cx_count, elements[j].gate_count)
                        {
                            elements[j].parent = Some((i, g as u8));
                            elements[j].cx_count = ncost.0;
                            elements[j].gate_count = ncost.1;
                            heap.push(Reverse((ncost, j)));
                        }
                        j
                    }
                    None => {
                        let j = elements.len();
                        index.insert(next.clone(), j);
                        elements.push(Element {
                            tableau: next,
                            parent: Some((i, g as u8)),
                            cx_count: ncost.0,
                            gate_count: ncost.1,
                        });
                        settled.push(false);
                        heap.push(Reverse((ncost, j)));
                        j
                    }
                };
                succ[i * generators.len() + g] =
                    u16::try_from(j).expect("group order fits the successor table");
            }
        }
        assert!(
            succ.len() == elements.len() * generators.len() && !succ.contains(&u16::MAX),
            "every element was settled"
        );

        // Words from the settled parent chains, in application order.
        let mut words = Vec::new();
        let mut word_start = Vec::with_capacity(elements.len() + 1);
        let mut rev = Vec::new();
        for i in 0..elements.len() {
            word_start.push(words.len() as u32);
            rev.clear();
            let mut cur = i;
            while let Some((p, g)) = elements[cur].parent {
                rev.push(g);
                cur = p;
            }
            words.extend(rev.iter().rev());
        }
        word_start.push(words.len() as u32);

        CliffordGroup {
            n,
            generators: generators.to_vec(),
            elements,
            index,
            succ,
            words,
            word_start,
        }
    }

    /// Register width.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Group order.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// `true` if the group is empty (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The tableau of element `i`.
    pub fn tableau(&self, i: usize) -> &CliffordTableau {
        &self.elements[i].tableau
    }

    /// CX count of the stored (optimal) decomposition of element `i`.
    pub fn cx_count(&self, i: usize) -> usize {
        self.elements[i].cx_count
    }

    /// Index of `gate` within the generating set, if it is a generator.
    pub fn generator_index(&self, gate: &LocalGate) -> Option<usize> {
        self.generators.iter().position(|g| g == gate)
    }

    /// Element `i`'s stored decomposition as generator indices, in
    /// application order.
    fn word(&self, i: usize) -> &[u8] {
        &self.words[self.word_start[i] as usize..self.word_start[i + 1] as usize]
    }

    /// The index of "element `i`, then generator `g`".
    pub fn then_generator(&self, i: usize, g: usize) -> usize {
        usize::from(self.succ[i * self.generators.len() + g])
    }

    /// The index of "first element `i`, then element `j`" (the tableau
    /// `tableau(i).then(tableau(j))`): `j`'s word walked through the
    /// successor table from `i`.
    pub fn compose(&self, i: usize, j: usize) -> usize {
        let stride = self.generators.len();
        self.word(j)
            .iter()
            .fold(i, |cur, &g| usize::from(self.succ[cur * stride + usize::from(g)]))
    }

    /// The stored decomposition of element `i` into generator gates, in
    /// application order.
    pub fn decomposition(&self, i: usize) -> Vec<LocalGate> {
        self.word(i).iter().map(|&g| self.generators[usize::from(g)].clone()).collect()
    }

    /// Index of a tableau within the group, if it belongs to it.
    pub fn index_of(&self, t: &CliffordTableau) -> Option<usize> {
        self.index.get(t).copied()
    }

    /// A decomposition of `t⁻¹` into native gates: the reverse of `t`'s
    /// optimal decomposition with each gate inverted (`S` ↔ `Sdg`;
    /// `H`/`CX` self-inverse). Returns `None` if `t` is not in the group.
    pub fn inverse_decomposition(&self, t: &CliffordTableau) -> Option<Vec<LocalGate>> {
        let i = self.index_of(t)?;
        let mut gates = self.decomposition(i);
        gates.reverse();
        for (g, _) in &mut gates {
            *g = g.inverse().expect("generator gates are invertible");
        }
        Some(gates)
    }

    /// Appends element `i` to `out` as its generator word, each generator
    /// through its template. With `inverse`, appends `i⁻¹` instead: the
    /// reversed word through the inverse templates, the same gates as
    /// [`CliffordGroup::inverse_decomposition`].
    pub fn emit(&self, i: usize, inverse: bool, templates: &Templates, out: &mut Circuit) {
        let word = self.word(i);
        if inverse {
            for &g in word.iter().rev() {
                for instr in &templates.inverse[usize::from(g)] {
                    out.push(instr.clone());
                }
            }
        } else {
            for &g in word {
                for instr in &templates.forward[usize::from(g)] {
                    out.push(instr.clone());
                }
            }
        }
    }
}

/// The instructions each generator of a group, and each generator's
/// inverse, emits on fixed physical qubits: what
/// [`CliffordGroup::emit`] writes for one generator of a word.
#[derive(Clone, PartialEq, Debug)]
pub struct Templates {
    physical: Vec<Qubit>,
    forward: Vec<Vec<Instruction>>,
    inverse: Vec<Vec<Instruction>>,
}

impl Templates {
    /// The generator gates themselves (and their inverses), local qubit
    /// `k` mapped to `physical[k]`.
    ///
    /// # Panics
    ///
    /// Panics if `physical` is narrower than the group.
    pub fn raw(group: &CliffordGroup, physical: &[Qubit]) -> Templates {
        assert!(physical.len() >= group.num_qubits(), "one physical qubit per group qubit");
        let place = |gate: Gate, qs: &[usize]| {
            let mapped: Vec<Qubit> = qs.iter().map(|&q| physical[q]).collect();
            vec![Instruction::new(gate, mapped, None)]
        };
        Templates {
            physical: physical[..group.num_qubits()].to_vec(),
            forward: group.generators.iter().map(|(g, qs)| place(*g, qs)).collect(),
            inverse: group
                .generators
                .iter()
                .map(|(g, qs)| place(g.inverse().expect("generator gates are invertible"), qs))
                .collect(),
        }
    }

    /// Replaces every template instruction by its expansion under
    /// `expand` — native lowering, say, so emitted sequences need no
    /// lowering pass.
    pub fn expand(self, mut expand: impl FnMut(&Instruction) -> Vec<Instruction>) -> Templates {
        let mut each = |ts: Vec<Vec<Instruction>>| -> Vec<Vec<Instruction>> {
            ts.iter().map(|t| t.iter().flat_map(&mut expand).collect()).collect()
        };
        Templates {
            physical: self.physical,
            forward: each(self.forward),
            inverse: each(self.inverse),
        }
    }

    /// The physical qubit of each group qubit.
    pub fn physical(&self) -> &[Qubit] {
        &self.physical
    }

    /// What generator `g` emits.
    pub fn generator(&self, g: usize) -> &[Instruction] {
        &self.forward[g]
    }
}

/// The 24-element single-qubit Clifford group (generated by `H`, `S`),
/// enumerated once per process.
pub fn single_qubit_cliffords() -> &'static CliffordGroup {
    static GROUP: OnceLock<CliffordGroup> = OnceLock::new();
    GROUP.get_or_init(|| {
        CliffordGroup::enumerate(1, &[(Gate::H, vec![0]), (Gate::S, vec![0])])
    })
}

/// The 11520-element two-qubit Clifford group (generated by `H`, `S` on
/// each qubit and both CNOT orientations), enumerated once per process
/// with CX-optimal decompositions (group average: exactly 1.5 CX).
pub fn two_qubit_cliffords() -> &'static CliffordGroup {
    static GROUP: OnceLock<CliffordGroup> = OnceLock::new();
    GROUP.get_or_init(|| {
        CliffordGroup::enumerate(
            2,
            &[
                (Gate::H, vec![0]),
                (Gate::H, vec![1]),
                (Gate::S, vec![0]),
                (Gate::S, vec![1]),
                (Gate::Cx, vec![0, 1]),
                (Gate::Cx, vec![1, 0]),
            ],
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_qubit_group_order() {
        assert_eq!(single_qubit_cliffords().len(), 24);
    }

    #[test]
    fn two_qubit_group_order() {
        assert_eq!(two_qubit_cliffords().len(), 11520);
    }

    #[test]
    fn decompositions_reproduce_tableaus() {
        let g = single_qubit_cliffords();
        for i in 0..g.len() {
            let mut t = CliffordTableau::identity(1);
            for (gate, qs) in g.decomposition(i) {
                t.apply_gate(&gate, &qs);
            }
            assert_eq!(&t, g.tableau(i), "element {i}");
        }
    }

    #[test]
    fn two_qubit_decompositions_sampled() {
        let g = two_qubit_cliffords();
        for i in (0..g.len()).step_by(997) {
            let mut t = CliffordTableau::identity(2);
            let d = g.decomposition(i);
            let mut cx = 0;
            for (gate, qs) in &d {
                if gate.is_two_qubit() {
                    cx += 1;
                }
                t.apply_gate(gate, qs);
            }
            assert_eq!(&t, g.tableau(i), "element {i}");
            assert_eq!(cx, g.cx_count(i), "element {i}");
        }
    }

    #[test]
    fn cx_cost_distribution_is_canonical() {
        // 576 elements at 0 CX, 5184 at 1, 5184 at 2, 576 at 3 → mean 1.5.
        let g = two_qubit_cliffords();
        let mut hist = [0usize; 4];
        for i in 0..g.len() {
            hist[g.cx_count(i)] += 1;
        }
        assert_eq!(hist, [576, 5184, 5184, 576]);
    }

    #[test]
    fn every_two_qubit_decomposition_is_native_with_canonical_cx_counts() {
        // The whole group, not a sample: every decomposition uses only
        // H/S/Sdg/X/Y/Z/CX, and the CNOTs they spend give 576/5184/5184/576
        // elements at 0/1/2/3, a mean of exactly 1.5.
        let g = two_qubit_cliffords();
        let mut hist = [0usize; 4];
        for i in 0..g.len() {
            let d = g.decomposition(i);
            for (gate, _) in &d {
                assert!(
                    matches!(
                        gate,
                        Gate::H | Gate::S | Gate::Sdg | Gate::X | Gate::Y | Gate::Z | Gate::Cx
                    ),
                    "element {i}: {gate:?}"
                );
            }
            hist[d.iter().filter(|(gate, _)| gate.is_two_qubit()).count()] += 1;
        }
        assert_eq!(hist, [576, 5184, 5184, 576]);
        let cx: usize = hist.iter().enumerate().map(|(k, n)| k * n).sum();
        assert_eq!(2 * cx, 3 * g.len(), "mean CX count is 1.5");
    }

    #[test]
    fn inverse_decomposition_cancels() {
        let g = two_qubit_cliffords();
        for i in (0..g.len()).step_by(1733) {
            let t = g.tableau(i).clone();
            let inv = g.inverse_decomposition(&t).unwrap();
            let mut total = t.clone();
            for (gate, qs) in &inv {
                total.apply_gate(gate, qs);
            }
            assert!(total.is_identity(), "element {i}");
        }
    }

    #[test]
    fn index_of_round_trips() {
        let g = single_qubit_cliffords();
        for i in 0..g.len() {
            assert_eq!(g.index_of(g.tableau(i)), Some(i));
        }
        // A tableau outside the register width is simply absent.
        assert_eq!(g.index_of(&CliffordTableau::identity(2)), None);
    }

    #[test]
    fn successor_table_matches_tableau_products_exhaustively() {
        for g in [single_qubit_cliffords(), two_qubit_cliffords()] {
            let gens: Vec<CliffordTableau> = g
                .generators
                .iter()
                .map(|(gate, qs)| gate_tableau(g.num_qubits(), gate, qs))
                .collect();
            for i in 0..g.len() {
                for (k, gt) in gens.iter().enumerate() {
                    let want = g.index_of(&g.tableau(i).then(gt));
                    assert_eq!(Some(g.then_generator(i, k)), want, "element {i}, generator {k}");
                }
            }
        }
    }

    #[test]
    fn words_reproduce_every_element() {
        for g in [single_qubit_cliffords(), two_qubit_cliffords()] {
            for i in 0..g.len() {
                let word = g.word(i);
                // Applying the word's gates one by one builds the tableau…
                let mut t = CliffordTableau::identity(g.num_qubits());
                for &k in word {
                    let (gate, qs) = &g.generators[usize::from(k)];
                    t.apply_gate(gate, qs);
                }
                assert_eq!(&t, g.tableau(i), "element {i}");
                // …walking it through the table from the identity lands
                // on the element, and its CX count is the stored one.
                assert_eq!(g.compose(CliffordGroup::IDENTITY, i), i, "element {i}");
                let cx = word
                    .iter()
                    .filter(|&&k| g.generators[usize::from(k)].0.is_two_qubit())
                    .count();
                assert_eq!(cx, g.cx_count(i), "element {i}");
                assert_eq!(word.len(), g.elements[i].gate_count, "element {i}");
            }
        }
    }

    #[test]
    fn table_products_equal_tableau_products() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for g in [single_qubit_cliffords(), two_qubit_cliffords()] {
            for _ in 0..2000 {
                let (i, j) = (rng.gen_range(0..g.len()), rng.gen_range(0..g.len()));
                let want = g.index_of(&g.tableau(i).then(g.tableau(j)));
                assert_eq!(Some(g.compose(i, j)), want, "{i} then {j}");
            }
        }
    }

    #[test]
    fn emitted_words_are_the_decompositions_on_physical_qubits() {
        let g = two_qubit_cliffords();
        let phys = [Qubit::new(4), Qubit::new(1)];
        let templates = Templates::raw(g, &phys);
        for i in (0..g.len()).step_by(97) {
            let (mut fwd, mut inv) = (Circuit::new(5, 0), Circuit::new(5, 0));
            g.emit(i, false, &templates, &mut fwd);
            g.emit(i, true, &templates, &mut inv);
            let inverse = g.inverse_decomposition(g.tableau(i)).unwrap();
            assert_eq!(fwd.instructions(), crate::instantiate(&g.decomposition(i), &phys));
            assert_eq!(inv.instructions(), crate::instantiate(&inverse, &phys));
        }
    }

    #[test]
    fn expanded_templates_replace_each_instruction() {
        let g = single_qubit_cliffords();
        let templates = Templates::raw(g, &[Qubit::new(2)]).expand(|instr| {
            vec![instr.clone(), Instruction::new(Gate::I, instr.qubits().to_vec(), None)]
        });
        let mut c = Circuit::new(3, 0);
        let i = (0..g.len()).find(|&i| g.word(i).len() == 3).unwrap();
        g.emit(i, true, &templates, &mut c);
        assert_eq!(c.len(), 6);
        assert!(c.iter().skip(1).step_by(2).all(|instr| *instr.gate() == Gate::I));
    }

    #[test]
    fn identity_is_element_zero() {
        let g = two_qubit_cliffords();
        assert!(g.tableau(0).is_identity());
        assert!(g.decomposition(0).is_empty());
    }
}

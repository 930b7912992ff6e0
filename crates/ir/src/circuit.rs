//! Ordered instruction lists with a builder API.

use crate::{Clbit, Dag, Fnv1a, Gate, Instruction, IrError, Qubit};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// A quantum circuit: a fixed register of qubits/clbits and an ordered list
/// of [`Instruction`]s.
///
/// Program order is significant (it is a topological order of the data
/// dependencies) but carries no timing; timing is assigned by a scheduler,
/// producing a [`crate::ScheduledCircuit`].
///
/// Builder methods (`h`, `cx`, `measure`, …) take anything convertible into
/// [`Qubit`] and return `&mut Self` for chaining:
///
/// ```
/// use xtalk_ir::Circuit;
/// let mut bell = Circuit::new(2, 2);
/// bell.h(0).cx(0, 1).measure_all();
/// assert_eq!(bell.len(), 4);
/// assert_eq!(bell.count_gate("cx"), 1);
/// ```
#[derive(Clone, Default)]
pub struct Circuit {
    num_qubits: usize,
    num_clbits: usize,
    instructions: Vec<Instruction>,
    /// Memo of [`Circuit::content_key`]. [`Circuit::try_push`] is the one
    /// place `instructions` changes and it resets the memo; a clone
    /// carries it. Equality and formatting ignore it.
    key: OnceLock<u64>,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits and `num_clbits`
    /// classical bits.
    pub fn new(num_qubits: usize, num_clbits: usize) -> Self {
        Circuit { num_qubits, num_clbits, instructions: Vec::new(), key: OnceLock::new() }
    }

    /// Number of qubits in the register.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of classical bits in the register.
    pub fn num_clbits(&self) -> usize {
        self.num_clbits
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// `true` if the circuit has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The instructions in program order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Iterates over the instructions in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }

    /// Appends an instruction after validating its bit indices.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::QubitOutOfRange`] / [`IrError::ClbitOutOfRange`]
    /// if the instruction references bits outside the registers.
    pub fn try_push(&mut self, instr: Instruction) -> Result<(), IrError> {
        for q in instr.qubits() {
            if q.index() >= self.num_qubits {
                return Err(IrError::QubitOutOfRange { qubit: q.index(), width: self.num_qubits });
            }
        }
        if let Some(c) = instr.clbit() {
            if c.index() >= self.num_clbits {
                return Err(IrError::ClbitOutOfRange { clbit: c.index(), width: self.num_clbits });
            }
        }
        self.instructions.push(instr);
        self.key.take();
        Ok(())
    }

    /// Appends an instruction.
    ///
    /// # Panics
    ///
    /// Panics if the instruction references out-of-range bits; use
    /// [`Circuit::try_push`] for fallible insertion.
    pub fn push(&mut self, instr: Instruction) -> &mut Self {
        self.try_push(instr).expect("instruction out of register range");
        self
    }

    fn push1(&mut self, g: Gate, q: impl Into<Qubit>) -> &mut Self {
        self.push(Instruction::single_qubit(g, q.into()))
    }

    fn push2(&mut self, g: Gate, a: impl Into<Qubit>, b: impl Into<Qubit>) -> &mut Self {
        self.push(Instruction::two_qubit(g, a.into(), b.into()))
    }

    /// Appends an identity (explicit idle) on `q`.
    pub fn id(&mut self, q: impl Into<Qubit>) -> &mut Self {
        self.push1(Gate::I, q)
    }
    /// Appends a Pauli-X on `q`.
    pub fn x(&mut self, q: impl Into<Qubit>) -> &mut Self {
        self.push1(Gate::X, q)
    }
    /// Appends a Pauli-Y on `q`.
    pub fn y(&mut self, q: impl Into<Qubit>) -> &mut Self {
        self.push1(Gate::Y, q)
    }
    /// Appends a Pauli-Z on `q`.
    pub fn z(&mut self, q: impl Into<Qubit>) -> &mut Self {
        self.push1(Gate::Z, q)
    }
    /// Appends a Hadamard on `q`.
    pub fn h(&mut self, q: impl Into<Qubit>) -> &mut Self {
        self.push1(Gate::H, q)
    }
    /// Appends an S gate on `q`.
    pub fn s(&mut self, q: impl Into<Qubit>) -> &mut Self {
        self.push1(Gate::S, q)
    }
    /// Appends an S† gate on `q`.
    pub fn sdg(&mut self, q: impl Into<Qubit>) -> &mut Self {
        self.push1(Gate::Sdg, q)
    }
    /// Appends a T gate on `q`.
    pub fn t(&mut self, q: impl Into<Qubit>) -> &mut Self {
        self.push1(Gate::T, q)
    }
    /// Appends a T† gate on `q`.
    pub fn tdg(&mut self, q: impl Into<Qubit>) -> &mut Self {
        self.push1(Gate::Tdg, q)
    }
    /// Appends `u1(lambda)` on `q`.
    pub fn u1(&mut self, lambda: f64, q: impl Into<Qubit>) -> &mut Self {
        self.push1(Gate::U1(lambda), q)
    }
    /// Appends `u2(phi, lambda)` on `q`.
    pub fn u2(&mut self, phi: f64, lambda: f64, q: impl Into<Qubit>) -> &mut Self {
        self.push1(Gate::U2(phi, lambda), q)
    }
    /// Appends `u3(theta, phi, lambda)` on `q`.
    pub fn u3(&mut self, theta: f64, phi: f64, lambda: f64, q: impl Into<Qubit>) -> &mut Self {
        self.push1(Gate::U3(theta, phi, lambda), q)
    }
    /// Appends `rx(angle)` on `q`.
    pub fn rx(&mut self, angle: f64, q: impl Into<Qubit>) -> &mut Self {
        self.push1(Gate::Rx(angle), q)
    }
    /// Appends `ry(angle)` on `q`.
    pub fn ry(&mut self, angle: f64, q: impl Into<Qubit>) -> &mut Self {
        self.push1(Gate::Ry(angle), q)
    }
    /// Appends `rz(angle)` on `q`.
    pub fn rz(&mut self, angle: f64, q: impl Into<Qubit>) -> &mut Self {
        self.push1(Gate::Rz(angle), q)
    }
    /// Appends a CNOT with control `c` and target `t`.
    pub fn cx(&mut self, c: impl Into<Qubit>, t: impl Into<Qubit>) -> &mut Self {
        self.push2(Gate::Cx, c, t)
    }
    /// Appends a CZ on `a`, `b`.
    pub fn cz(&mut self, a: impl Into<Qubit>, b: impl Into<Qubit>) -> &mut Self {
        self.push2(Gate::Cz, a, b)
    }
    /// Appends a SWAP on `a`, `b`.
    pub fn swap(&mut self, a: impl Into<Qubit>, b: impl Into<Qubit>) -> &mut Self {
        self.push2(Gate::Swap, a, b)
    }
    /// Appends a measurement of `q` into classical bit `c`.
    pub fn measure(&mut self, q: impl Into<Qubit>, c: impl Into<Clbit>) -> &mut Self {
        self.push(Instruction::measure(q.into(), c.into()))
    }
    /// Appends a barrier across the given qubits.
    pub fn barrier<I, Q>(&mut self, qubits: I) -> &mut Self
    where
        I: IntoIterator<Item = Q>,
        Q: Into<Qubit>,
    {
        self.push(Instruction::barrier(qubits.into_iter().map(Into::into)))
    }
    /// Appends a barrier across every qubit in the register.
    pub fn barrier_all(&mut self) -> &mut Self {
        let n = self.num_qubits as u32;
        self.barrier((0..n).map(Qubit::new))
    }
    /// Measures qubit `i` into clbit `i` for every qubit.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer classical bits than qubits.
    pub fn measure_all(&mut self) -> &mut Self {
        assert!(
            self.num_clbits >= self.num_qubits,
            "measure_all needs at least as many clbits as qubits"
        );
        for i in 0..self.num_qubits {
            self.measure(i as u32, i as u32);
        }
        self
    }

    /// Appends every instruction of `other` (registers must be no wider).
    ///
    /// # Errors
    ///
    /// Returns an error if `other` references bits beyond this circuit's
    /// registers.
    pub fn try_extend(&mut self, other: &Circuit) -> Result<(), IrError> {
        for instr in other.iter() {
            self.try_push(instr.clone())?;
        }
        Ok(())
    }

    /// Returns a new circuit applying this circuit's unitary instructions in
    /// reverse order with each gate inverted.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::NotInvertible`] if the circuit contains
    /// measurements (barriers are preserved in reversed position).
    pub fn inverse(&self) -> Result<Circuit, IrError> {
        let mut inv = Circuit::new(self.num_qubits, self.num_clbits);
        for instr in self.instructions.iter().rev() {
            if instr.gate().is_barrier() {
                inv.push(instr.clone());
            } else {
                let i = instr
                    .inverse()
                    .ok_or_else(|| IrError::NotInvertible { gate: instr.gate().name() })?;
                inv.push(i);
            }
        }
        Ok(inv)
    }

    /// Circuit depth: the number of layers when instructions are greedily
    /// packed as early as data dependencies allow. Barriers participate in
    /// the dependency structure but do not add a layer by themselves.
    pub fn depth(&self) -> usize {
        let mut level: Vec<usize> = vec![0; self.num_qubits];
        let mut depth = 0;
        for instr in &self.instructions {
            let lv = instr.qubits().iter().map(|q| level[q.index()]).max().unwrap_or(0);
            let next = if instr.gate().is_barrier() { lv } else { lv + 1 };
            for q in instr.qubits() {
                level[q.index()] = next;
            }
            depth = depth.max(next);
        }
        depth
    }

    /// Number of two-qubit gates.
    pub fn two_qubit_gate_count(&self) -> usize {
        self.instructions.iter().filter(|i| i.gate().is_two_qubit()).count()
    }

    /// Counts instructions by gate mnemonic.
    pub fn count_ops(&self) -> BTreeMap<&'static str, usize> {
        let mut m = BTreeMap::new();
        for i in &self.instructions {
            *m.entry(i.gate().name()).or_insert(0) += 1;
        }
        m
    }

    /// Number of instructions whose gate mnemonic is `name`.
    pub fn count_gate(&self, name: &str) -> usize {
        self.instructions.iter().filter(|i| i.gate().name() == name).count()
    }

    /// The set of qubits that appear in at least one instruction.
    pub fn active_qubits(&self) -> Vec<Qubit> {
        let mut seen = vec![false; self.num_qubits];
        for i in &self.instructions {
            for q in i.qubits() {
                seen[q.index()] = true;
            }
        }
        seen.iter()
            .enumerate()
            .filter(|(_, s)| **s)
            .map(|(i, _)| Qubit::from(i))
            .collect()
    }

    /// FNV-1a content key of the registers and the instructions: equal
    /// circuits have equal keys however they were built, parsed or
    /// cloned. The instructions are streamed the first time the key is
    /// read after a change; later reads return the memo. Debug builds
    /// re-stream on every read and assert the memo still holds.
    ///
    /// ```
    /// use xtalk_ir::Circuit;
    /// let mut a = Circuit::new(2, 0);
    /// a.h(0);
    /// let before = a.content_key();
    /// a.cx(0, 1);
    /// let mut b = Circuit::new(2, 0);
    /// b.h(0).cx(0, 1);
    /// assert_ne!(a.content_key(), before);
    /// assert_eq!(a.content_key(), b.content_key());
    /// ```
    pub fn content_key(&self) -> u64 {
        self.content_key_with(|| {})
    }

    /// [`Circuit::content_key`], calling `on_stream` each time the
    /// instructions are streamed to fill the memo (and never on a memo
    /// hit), so a caller can count streams exactly.
    pub fn content_key_with(&self, on_stream: impl FnOnce()) -> u64 {
        let key = *self.key.get_or_init(|| {
            on_stream();
            self.stream_key()
        });
        debug_assert_eq!(key, self.stream_key(), "content-key memo outlived a mutation");
        key
    }

    /// The one function that streams a circuit's bytes.
    fn stream_key(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_usize(self.num_qubits);
        h.write_usize(self.num_clbits);
        h.write_usize(self.instructions.len());
        for ins in &self.instructions {
            ins.hash_into(&mut h);
        }
        h.finish()
    }

    /// Builds the data-dependency DAG for this circuit.
    pub fn dag(&self) -> Dag {
        Dag::from_circuit(self)
    }

    /// Expands every `swap` into its three-CNOT decomposition
    /// (`swap a,b := cx a,b; cx b,a; cx a,b`), returning a new circuit.
    pub fn decompose_swaps(&self) -> Circuit {
        let mut out = Circuit::new(self.num_qubits, self.num_clbits);
        for instr in &self.instructions {
            if matches!(instr.gate(), Gate::Swap) {
                let (a, b) = (instr.qubits()[0], instr.qubits()[1]);
                out.cx(a, b).cx(b, a).cx(a, b);
            } else {
                out.push(instr.clone());
            }
        }
        out
    }
}

impl PartialEq for Circuit {
    fn eq(&self, other: &Circuit) -> bool {
        self.num_qubits == other.num_qubits
            && self.num_clbits == other.num_clbits
            && self.instructions == other.instructions
    }
}

impl fmt::Debug for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Circuit")
            .field("num_qubits", &self.num_qubits)
            .field("num_clbits", &self.num_clbits)
            .field("instructions", &self.instructions)
            .finish()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "circuit<{} qubits, {} clbits>", self.num_qubits, self.num_clbits)?;
        for (i, instr) in self.instructions.iter().enumerate() {
            writeln!(f, "  {i:>3}: {instr}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;
    fn into_iter(self) -> Self::IntoIter {
        self.instructions.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let mut c = Circuit::new(3, 3);
        c.h(0).cx(0, 1).cx(1, 2).barrier_all().measure_all();
        assert_eq!(c.len(), 7);
        assert_eq!(c.count_gate("cx"), 2);
        assert_eq!(c.count_gate("measure"), 3);
        assert_eq!(c.two_qubit_gate_count(), 2);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut c = Circuit::new(1, 0);
        assert!(matches!(
            c.try_push(Instruction::single_qubit(Gate::H, Qubit::new(1))),
            Err(IrError::QubitOutOfRange { qubit: 1, width: 1 })
        ));
        assert!(matches!(
            c.try_push(Instruction::measure(Qubit::new(0), Clbit::new(0))),
            Err(IrError::ClbitOutOfRange { .. })
        ));
    }

    #[test]
    fn depth_counts_layers() {
        let mut c = Circuit::new(3, 0);
        // Layer 1: h0 h1; layer 2: cx01; layer 3: cx12.
        c.h(0).h(1).cx(0, 1).cx(1, 2);
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn barriers_do_not_add_depth_but_order() {
        let mut a = Circuit::new(2, 0);
        a.h(0).h(1);
        assert_eq!(a.depth(), 1);
        let mut b = Circuit::new(2, 0);
        b.h(0).barrier_all().h(1);
        // h1 must come after the barrier, which comes after h0.
        assert_eq!(b.depth(), 2);
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut c = Circuit::new(2, 0);
        c.h(0).s(1).cx(0, 1);
        let inv = c.inverse().unwrap();
        assert_eq!(inv.instructions()[0].gate(), &Gate::Cx);
        assert_eq!(inv.instructions()[1].gate(), &Gate::Sdg);
        assert_eq!(inv.instructions()[2].gate(), &Gate::H);
    }

    #[test]
    fn inverse_rejects_measurement() {
        let mut c = Circuit::new(1, 1);
        c.measure(0, 0);
        assert!(matches!(c.inverse(), Err(IrError::NotInvertible { .. })));
    }

    #[test]
    fn swap_decomposition() {
        let mut c = Circuit::new(2, 0);
        c.swap(0, 1);
        let d = c.decompose_swaps();
        assert_eq!(d.len(), 3);
        assert_eq!(d.count_gate("cx"), 3);
        assert_eq!(d.instructions()[1].qubits(), &[Qubit::new(1), Qubit::new(0)]);
    }

    #[test]
    fn active_qubits_skips_idle() {
        let mut c = Circuit::new(4, 0);
        c.h(0).cx(2, 3);
        assert_eq!(c.active_qubits(), vec![Qubit::new(0), Qubit::new(2), Qubit::new(3)]);
    }

    #[test]
    fn count_ops_by_name() {
        let mut c = Circuit::new(2, 2);
        c.h(0).h(1).cx(0, 1).measure_all();
        let ops = c.count_ops();
        assert_eq!(ops["h"], 2);
        assert_eq!(ops["cx"], 1);
        assert_eq!(ops["measure"], 2);
    }

    #[test]
    fn extend_appends() {
        let mut a = Circuit::new(2, 0);
        a.h(0);
        let mut b = Circuit::new(2, 0);
        b.cx(0, 1);
        a.try_extend(&b).unwrap();
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn key_memo_is_invisible_to_debug_and_eq() {
        let mut c = Circuit::new(1, 0);
        c.h(0);
        let fresh = c.clone();
        c.content_key();
        assert_eq!(c, fresh);
        assert_eq!(
            format!("{c:?}"),
            format!(
                "Circuit {{ num_qubits: 1, num_clbits: 0, instructions: [{:?}] }}",
                c.instructions()[0]
            )
        );
    }

    #[test]
    #[should_panic(expected = "measure_all")]
    fn measure_all_requires_clbits() {
        Circuit::new(2, 1).measure_all();
    }
}

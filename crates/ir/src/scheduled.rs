//! Circuits with explicit start times.

use crate::{Circuit, IrError, Qubit};
use std::fmt;

/// The time slot assigned to one instruction: a start time and a duration,
/// both in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ScheduleSlot {
    /// Start time (ns).
    pub start: u64,
    /// Duration (ns). Virtual gates and barriers have duration 0.
    pub duration: u64,
}

impl ScheduleSlot {
    /// Creates a slot.
    pub const fn new(start: u64, duration: u64) -> Self {
        ScheduleSlot { start, duration }
    }

    /// Finish time (`start + duration`).
    pub const fn finish(self) -> u64 {
        self.start + self.duration
    }

    /// `true` if two slots overlap in time with positive measure (half-open
    /// interval intersection: `[s, s+d)`). Zero-duration slots never overlap
    /// anything.
    pub const fn overlaps(self, other: ScheduleSlot) -> bool {
        self.duration > 0
            && other.duration > 0
            && self.start < other.finish()
            && other.start < self.finish()
    }
}

/// The overlap sweep with its buffers, so a caller evaluating many
/// schedules of one circuit allocates them once.
#[derive(Clone, Debug, Default)]
pub struct OverlapSweep {
    order: Vec<usize>,
    active: Vec<usize>,
}

impl OverlapSweep {
    /// Calls `visit(i, j)` for every unordered pair of the instructions
    /// `instrs` whose `slots` overlap in time: a sweep line over
    /// start-sorted intervals, so densely parallel schedules stay cheap.
    /// Pairs are reported with `i` starting no later than `j` (ties by
    /// index); zero-duration slots overlap nothing.
    pub fn run(
        &mut self,
        instrs: impl IntoIterator<Item = usize>,
        slots: &[ScheduleSlot],
        mut visit: impl FnMut(usize, usize),
    ) {
        self.order.clear();
        self.order
            .extend(instrs.into_iter().filter(|&i| slots[i].duration > 0));
        // Keys are distinct, so the unstable sort is deterministic.
        self.order.sort_unstable_by_key(|&i| (slots[i].start, i));
        // Active set of intervals whose finish exceeds the sweep point.
        self.active.clear();
        for &j in &self.order {
            let start_j = slots[j].start;
            self.active.retain(|&i| slots[i].finish() > start_j);
            for &i in &self.active {
                debug_assert!(slots[i].overlaps(slots[j]));
                visit(i, j);
            }
            self.active.push(j);
        }
    }
}

/// A [`Circuit`] together with one [`ScheduleSlot`] per instruction — the
/// output of an instruction scheduler and the input to the noisy executor.
///
/// ```
/// use xtalk_ir::{Circuit, ScheduleSlot, ScheduledCircuit};
/// let mut c = Circuit::new(2, 0);
/// c.cx(0, 1).cx(0, 1);
/// let sched = ScheduledCircuit::new(
///     c,
///     vec![ScheduleSlot::new(0, 300), ScheduleSlot::new(300, 300)],
/// ).unwrap();
/// assert_eq!(sched.makespan(), 600);
/// sched.validate().unwrap();
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct ScheduledCircuit {
    circuit: Circuit,
    slots: Vec<ScheduleSlot>,
}

impl ScheduledCircuit {
    /// Pairs a circuit with its slots.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::ScheduleLengthMismatch`] if the slot count does
    /// not match the instruction count.
    pub fn new(circuit: Circuit, slots: Vec<ScheduleSlot>) -> Result<Self, IrError> {
        if circuit.len() != slots.len() {
            return Err(IrError::ScheduleLengthMismatch {
                slots: slots.len(),
                instructions: circuit.len(),
            });
        }
        Ok(ScheduledCircuit { circuit, slots })
    }

    /// The underlying circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The slot of instruction `i`.
    pub fn slot(&self, i: usize) -> ScheduleSlot {
        self.slots[i]
    }

    /// All slots, indexed like the circuit's instructions.
    pub fn slots(&self) -> &[ScheduleSlot] {
        &self.slots
    }

    /// Total schedule length: the latest finish time (0 for an empty
    /// circuit).
    pub fn makespan(&self) -> u64 {
        self.slots.iter().map(|s| s.finish()).max().unwrap_or(0)
    }

    /// Start of the first non-barrier instruction touching `q`, if any.
    pub fn qubit_first_start(&self, q: Qubit) -> Option<u64> {
        self.circuit
            .iter()
            .enumerate()
            .filter(|(_, ins)| !ins.gate().is_barrier() && ins.acts_on(q))
            .map(|(i, _)| self.slots[i].start)
            .min()
    }

    /// Finish of the last non-barrier instruction touching `q`, if any.
    pub fn qubit_last_finish(&self, q: Qubit) -> Option<u64> {
        self.circuit
            .iter()
            .enumerate()
            .filter(|(_, ins)| !ins.gate().is_barrier() && ins.acts_on(q))
            .map(|(i, _)| self.slots[i].finish())
            .max()
    }

    /// The paper's qubit lifetime `q.t` (Eq. 9): time between the first
    /// operation's start and the last operation's finish on `q`; 0 if the
    /// qubit is idle for the whole program.
    pub fn qubit_lifetime(&self, q: Qubit) -> u64 {
        match (self.qubit_first_start(q), self.qubit_last_finish(q)) {
            (Some(s), Some(f)) => f - s,
            _ => 0,
        }
    }

    /// All unordered pairs `(i, j)` of *two-qubit* instructions that overlap
    /// in time, in the order [`OverlapSweep::run`] reports them. This is
    /// what the crosstalk noise model consumes.
    pub fn overlapping_two_qubit_pairs(&self) -> Vec<(usize, usize)> {
        let two_qubit = self
            .circuit
            .iter()
            .enumerate()
            .filter(|(_, ins)| ins.gate().is_two_qubit())
            .map(|(i, _)| i);
        let mut out = Vec::new();
        OverlapSweep::default().run(two_qubit, &self.slots, |i, j| out.push((i, j)));
        out
    }

    /// Checks schedule legality.
    ///
    /// Runs in `O(n log n)`: dependencies through a last-instruction-on-
    /// qubit array, qubit exclusivity by a sort-and-sweep per qubit. Only
    /// a schedule already known to overlap pays for the pairwise scan
    /// that names the first overlapping pair.
    ///
    /// # Errors
    ///
    /// * [`IrError::ScheduleDependencyViolation`] — a dependent instruction
    ///   starts before its predecessor finishes (the first by successor,
    ///   then by the successor's qubit order).
    /// * [`IrError::ScheduleQubitOverlap`] — two instructions sharing a
    ///   qubit occupy overlapping slots (the first pair in index order).
    pub fn validate(&self) -> Result<(), IrError> {
        // Dependencies: the predecessors of `i` are the last instructions
        // on each of its qubits (barriers included), the same edges in the
        // same order as `Dag::predecessors`.
        let mut last_on_qubit: Vec<Option<usize>> = vec![None; self.circuit.num_qubits()];
        for (i, instr) in self.circuit.iter().enumerate() {
            for q in instr.qubits() {
                if let Some(p) = last_on_qubit[q.index()] {
                    if self.slots[i].start < self.slots[p].finish() {
                        return Err(IrError::ScheduleDependencyViolation { before: p, after: i });
                    }
                }
                last_on_qubit[q.index()] = Some(i);
            }
        }
        // Qubit exclusivity (dependencies already order each qubit's
        // instructions, but keep the check independent of that argument):
        // per qubit, sorted by start, a slot overlaps an earlier one iff
        // it starts before the latest finish so far. Zero-duration slots
        // overlap nothing.
        let mut uses: Vec<(usize, u64, u64)> = Vec::new();
        for (i, instr) in self.circuit.iter().enumerate() {
            let slot = self.slots[i];
            if !instr.gate().is_barrier() && slot.duration > 0 {
                uses.extend(instr.qubits().iter().map(|q| (q.index(), slot.start, slot.finish())));
            }
        }
        uses.sort_unstable();
        // The previous use's qubit and the latest finish on that qubit.
        let mut latest = (usize::MAX, 0u64);
        for &(q, start, finish) in &uses {
            if q == latest.0 && start < latest.1 {
                return self.first_qubit_overlap();
            }
            latest = (q, if q == latest.0 { latest.1.max(finish) } else { finish });
        }
        Ok(())
    }

    /// The pairwise scan naming the first overlapping pair in index order
    /// (`O(n²)`; [`ScheduledCircuit::validate`] runs it only once an
    /// overlap is known to exist).
    fn first_qubit_overlap(&self) -> Result<(), IrError> {
        let instrs = self.circuit.instructions();
        for i in 0..instrs.len() {
            if instrs[i].gate().is_barrier() {
                continue;
            }
            for j in i + 1..instrs.len() {
                if instrs[j].gate().is_barrier() {
                    continue;
                }
                if instrs[i].shares_qubit(&instrs[j]) && self.slots[i].overlaps(self.slots[j]) {
                    let q = instrs[i]
                        .qubits()
                        .iter()
                        .find(|q| instrs[j].acts_on(**q))
                        .expect("shared qubit exists");
                    return Err(IrError::ScheduleQubitOverlap {
                        first: i,
                        second: j,
                        qubit: q.index(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Shifts every slot right so the schedule ends exactly at `end`.
    ///
    /// Used to model IBMQ right-alignment, where readouts happen
    /// simultaneously at the end of the program.
    ///
    /// # Panics
    ///
    /// Panics if `end` is earlier than the current makespan.
    pub fn right_align_to(&mut self, end: u64) {
        let span = self.makespan();
        assert!(end >= span, "cannot right-align to earlier than makespan");
        let shift = end - span;
        for s in &mut self.slots {
            s.start += shift;
        }
    }
}

impl fmt::Display for ScheduledCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "schedule<makespan {} ns>", self.makespan())?;
        let mut order: Vec<usize> = (0..self.circuit.len()).collect();
        order.sort_by_key(|&i| (self.slots[i].start, i));
        for i in order {
            let s = self.slots[i];
            writeln!(
                f,
                "  [{:>6} .. {:>6}] {}",
                s.start,
                s.finish(),
                self.circuit.instructions()[i]
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl ScheduledCircuit {
        /// The `validate` body before it went linear: full DAG, then the
        /// pairwise exclusivity scan. The oracle for the property test.
        fn validate_reference(&self) -> Result<(), IrError> {
            let dag = self.circuit.dag();
            for i in 0..self.circuit.len() {
                for &p in dag.predecessors(i) {
                    if self.slots[i].start < self.slots[p].finish() {
                        return Err(IrError::ScheduleDependencyViolation { before: p, after: i });
                    }
                }
            }
            self.first_qubit_overlap()
        }
    }

    /// A random circuit over `n` qubits with barriers and zero-duration
    /// (virtual) gates, ASAP-scheduled with random durations and random
    /// extra delays: always valid.
    fn random_schedule(rng: &mut StdRng) -> ScheduledCircuit {
        let n = rng.gen_range(1..6usize);
        let mut c = Circuit::new(n, n);
        for _ in 0..rng.gen_range(0..40) {
            let a = rng.gen_range(0..n as u32);
            match rng.gen_range(0..6) {
                0 if n > 1 => {
                    let b = (a + rng.gen_range(1..n as u32)) % n as u32;
                    c.cx(a, b);
                }
                1 => {
                    let qs: Vec<u32> = (0..n as u32).filter(|_| rng.gen_range(0..2) == 0).collect();
                    if !qs.is_empty() {
                        c.barrier(qs);
                    }
                }
                2 => {
                    c.u1(0.5, a);
                }
                3 => {
                    c.measure(a, a);
                }
                _ => {
                    c.h(a);
                }
            }
        }
        let mut ready = vec![0u64; n];
        let mut slots = Vec::new();
        for instr in c.iter() {
            let duration = match instr.gate() {
                g if g.is_barrier() || g.is_virtual() => 0,
                _ => 100 * rng.gen_range(0..4u64),
            };
            let start = instr.qubits().iter().map(|q| ready[q.index()]).max().unwrap_or(0)
                + 50 * rng.gen_range(0..3u64);
            for q in instr.qubits() {
                ready[q.index()] = start + duration;
            }
            slots.push(ScheduleSlot::new(start, duration));
        }
        ScheduledCircuit::new(c, slots).unwrap()
    }

    #[test]
    fn linear_validate_matches_reference_on_valid_and_corrupted_schedules() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut outcomes = [0usize; 2];
        for _ in 0..3000 {
            let mut s = random_schedule(&mut rng);
            assert_eq!(s.validate(), Ok(()));
            assert_eq!(s.validate_reference(), Ok(()));
            if s.circuit.is_empty() {
                continue;
            }
            // Corrupt a few slots: shift a start either way, stretch a
            // duration (barriers included, which lets gates on either side
            // of a barrier overlap), or give a gate zero duration.
            for _ in 0..rng.gen_range(1..4) {
                let i = rng.gen_range(0..s.slots.len());
                let slot = &mut s.slots[i];
                match rng.gen_range(0..4) {
                    0 => slot.start = slot.start.saturating_sub(50 * rng.gen_range(1..6u64)),
                    1 => slot.start += 50 * rng.gen_range(1..6u64),
                    2 => slot.duration += 100 * rng.gen_range(1..4u64),
                    _ => slot.duration = 0,
                }
            }
            let got = s.validate();
            assert_eq!(got, s.validate_reference(), "{s}");
            outcomes[usize::from(got.is_err())] += 1;
        }
        // Both outcomes occur, so neither path is vacuous.
        assert!(outcomes.iter().all(|&k| k > 100), "valid/invalid after corruption: {outcomes:?}");
    }

    fn two_cx() -> Circuit {
        let mut c = Circuit::new(2, 0);
        c.cx(0, 1).cx(0, 1);
        c
    }

    #[test]
    fn length_mismatch_rejected() {
        let c = two_cx();
        assert!(matches!(
            ScheduledCircuit::new(c, vec![ScheduleSlot::new(0, 100)]),
            Err(IrError::ScheduleLengthMismatch { slots: 1, instructions: 2 })
        ));
    }

    #[test]
    fn overlap_detection() {
        let a = ScheduleSlot::new(0, 100);
        let b = ScheduleSlot::new(50, 100);
        let c = ScheduleSlot::new(100, 100);
        assert!(a.overlaps(b));
        assert!(!a.overlaps(c)); // touching endpoints do not overlap
        assert!(!ScheduleSlot::new(10, 0).overlaps(a)); // zero duration
    }

    #[test]
    fn dependency_violation_detected() {
        let s = ScheduledCircuit::new(
            two_cx(),
            vec![ScheduleSlot::new(0, 300), ScheduleSlot::new(100, 300)],
        )
        .unwrap();
        assert!(matches!(
            s.validate(),
            Err(IrError::ScheduleDependencyViolation { before: 0, after: 1 })
        ));
    }

    #[test]
    fn valid_schedule_passes() {
        let s = ScheduledCircuit::new(
            two_cx(),
            vec![ScheduleSlot::new(0, 300), ScheduleSlot::new(300, 300)],
        )
        .unwrap();
        s.validate().unwrap();
        assert_eq!(s.makespan(), 600);
    }

    #[test]
    fn lifetimes() {
        let mut c = Circuit::new(3, 0);
        c.cx(0, 1).h(2);
        let s = ScheduledCircuit::new(
            c,
            vec![ScheduleSlot::new(100, 300), ScheduleSlot::new(0, 50)],
        )
        .unwrap();
        assert_eq!(s.qubit_lifetime(Qubit::new(0)), 300);
        assert_eq!(s.qubit_lifetime(Qubit::new(2)), 50);
        assert_eq!(s.qubit_first_start(Qubit::new(2)), Some(0));
    }

    #[test]
    fn idle_qubit_has_zero_lifetime() {
        let mut c = Circuit::new(3, 0);
        c.h(0);
        let s = ScheduledCircuit::new(c, vec![ScheduleSlot::new(0, 50)]).unwrap();
        assert_eq!(s.qubit_lifetime(Qubit::new(2)), 0);
    }

    #[test]
    fn overlapping_two_qubit_pairs_found() {
        let mut c = Circuit::new(4, 0);
        c.cx(0, 1).cx(2, 3).h(0);
        let s = ScheduledCircuit::new(
            c,
            vec![
                ScheduleSlot::new(0, 300),
                ScheduleSlot::new(100, 300),
                ScheduleSlot::new(300, 50),
            ],
        )
        .unwrap();
        assert_eq!(s.overlapping_two_qubit_pairs(), vec![(0, 1)]);
    }

    #[test]
    fn right_align_shifts_all() {
        let mut s = ScheduledCircuit::new(
            two_cx(),
            vec![ScheduleSlot::new(0, 300), ScheduleSlot::new(300, 300)],
        )
        .unwrap();
        s.right_align_to(1000);
        assert_eq!(s.slot(0).start, 400);
        assert_eq!(s.makespan(), 1000);
        s.validate().unwrap();
    }

    #[test]
    fn barrier_slots_are_ignored_by_lifetime() {
        let mut c = Circuit::new(2, 0);
        c.barrier_all().cx(0, 1);
        let s = ScheduledCircuit::new(
            c,
            vec![ScheduleSlot::new(0, 0), ScheduleSlot::new(500, 300)],
        )
        .unwrap();
        assert_eq!(s.qubit_first_start(Qubit::new(0)), Some(500));
        assert_eq!(s.qubit_lifetime(Qubit::new(0)), 300);
    }
}

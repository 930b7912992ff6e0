//! The schedule timeline: what realizing and costing schedules of one
//! `(circuit, ctx)` needs, computed once, plus the buffers the work
//! reuses.
//!
//! A [`Timeline`] holds the gate durations and the base dependency edges
//! in compressed (CSR) arrays, and realizes a schedule into reused
//! buffers: a Kahn order over base plus serialization edges, ASAP times,
//! then right-aligned ALAP slots. [`crate::realize`],
//! [`crate::sched::schedule_cost`], ParSched, SerialSched and the SMT
//! engine's objective are one-shot uses of it.
//!
//! XtalkSched's search instead keeps its current node in an
//! [`Incremental`] state seeded from one realization, for the *key*
//! instructions alone — the ones the search reads: candidate-pair
//! members, hot gates, and each qubit's first and last operation. The
//! other instructions are folded into gap edges between key instructions
//! (the longest path through non-key instructions), so a branch pushes one
//! serialization edge and pops it, visiting only the key instructions
//! whose times change, and the makespan follows from the pushed edge
//! alone (see [`Incremental`] for why that is exact). The Eq. 17 cost
//! runs on either through the one [`CostModel`], whose rate and `ln`
//! tables give every cost bit for bit; a [`ScheduledCircuit`] (and the
//! circuit clone it owns) is only built for the schedule returned, by one
//! full realization of the best serializations.

use crate::{CoreError, SchedulerContext};
use xtalk_device::Edge;
use xtalk_ir::{Circuit, ScheduleSlot, ScheduledCircuit};

/// End of a serialization-edge list.
const NIL: u32 = u32::MAX;

/// Realizes schedules of one circuit under one context (see the module
/// docs).
pub(crate) struct Timeline<'a> {
    circuit: &'a Circuit,
    ctx: &'a SchedulerContext,
    durations: Vec<u64>,
    /// Base dependency edges: the successors of `i` are
    /// `succ[succ_start[i]..succ_start[i + 1]]`.
    succ_start: Vec<u32>,
    succ: Vec<u32>,
    base_indeg: Vec<u32>,
    // Per-evaluation buffers.
    indeg: Vec<u32>,
    ready: Vec<u32>,
    order: Vec<u32>,
    /// ASAP start times.
    asap: Vec<u64>,
    /// ALAP (right-aligned) finish times.
    finish: Vec<u64>,
    makespan: u64,
    /// Serialization edges as per-source linked lists: `ser_head[i]`
    /// indexes `ser_to`/`ser_next`, ending at [`NIL`].
    ser_head: Vec<u32>,
    ser_next: Vec<u32>,
    ser_to: Vec<u32>,
    slots: Vec<ScheduleSlot>,
    /// Built on the first cost query.
    cost: Option<CostModel>,
}

impl<'a> Timeline<'a> {
    /// Precomputes durations and base dependency edges (an edge `p → i`
    /// when `i` is the next instruction after `p` on some shared qubit,
    /// exactly the edges of [`Circuit::dag`]).
    pub(crate) fn new(circuit: &'a Circuit, ctx: &'a SchedulerContext) -> Self {
        let n = circuit.len();
        let durations: Vec<u64> = circuit
            .iter()
            .map(|ins| ctx.duration_of(ins.gate(), ins.qubits()))
            .collect();

        let mut last_on_qubit = vec![NIL; circuit.num_qubits()];
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(2 * n);
        let mut base_indeg = vec![0u32; n];
        let mut succ_start = vec![0u32; n + 1];
        for (i, ins) in circuit.iter().enumerate() {
            let first = edges.len();
            for q in ins.qubits() {
                let p = std::mem::replace(&mut last_on_qubit[q.index()], i as u32);
                if p != NIL && !edges[first..].iter().any(|&(e, _)| e == p) {
                    edges.push((p, i as u32));
                    base_indeg[i] += 1;
                    succ_start[p as usize + 1] += 1;
                }
            }
        }
        for i in 0..n {
            succ_start[i + 1] += succ_start[i];
        }
        let mut fill = succ_start.clone();
        let mut succ = vec![0u32; edges.len()];
        for &(p, i) in &edges {
            succ[fill[p as usize] as usize] = i;
            fill[p as usize] += 1;
        }

        Timeline {
            circuit,
            ctx,
            durations,
            succ_start,
            succ,
            base_indeg,
            indeg: vec![0; n],
            ready: Vec::with_capacity(n),
            order: Vec::with_capacity(n),
            asap: vec![0; n],
            finish: vec![0; n],
            makespan: 0,
            ser_head: vec![NIL; n],
            ser_next: Vec::new(),
            ser_to: Vec::new(),
            slots: vec![ScheduleSlot::default(); n],
            cost: None,
        }
    }

    /// Realizes the schedule under `serializations` into the reused slot
    /// buffer ([`Timeline::slots`]; see [`crate::realize`] for the timing
    /// model). Opens the `realize` span; [`crate::realize`] opens its own.
    ///
    /// # Errors
    ///
    /// [`CoreError::CyclicConstraints`] if the serialization pairs
    /// contradict the dependency order.
    pub(crate) fn realize(&mut self, serializations: &[(usize, usize)]) -> Result<(), CoreError> {
        let _span = xtalk_obs::span("realize");
        self.solve(serializations)
    }

    /// The realization itself, without the span.
    pub(crate) fn solve(&mut self, serializations: &[(usize, usize)]) -> Result<(), CoreError> {
        let n = self.durations.len();
        self.indeg.copy_from_slice(&self.base_indeg);
        self.ser_head.fill(NIL);
        self.ser_next.clear();
        self.ser_to.clear();
        for &(i, j) in serializations {
            assert!(
                i < n && j < n,
                "serialization references instruction out of range"
            );
            self.ser_next.push(self.ser_head[i]);
            self.ser_head[i] = self.ser_to.len() as u32;
            self.ser_to.push(j as u32);
            self.indeg[j] += 1;
        }

        // Kahn order over base plus serialization edges (detects cycles
        // the serializations introduce), with the ASAP forward pass
        // fused in: a node's start is final when it is popped.
        let Timeline {
            durations,
            succ_start,
            succ,
            indeg,
            ready,
            order,
            asap,
            finish,
            ser_head,
            ser_next,
            ser_to,
            slots,
            ..
        } = self;
        let (succ, succ_start, ser_head, ser_next, ser_to) =
            (&*succ, &*succ_start, &*ser_head, &*ser_next, &*ser_to);
        let succs = |i: usize| {
            let base = succ[succ_start[i] as usize..succ_start[i + 1] as usize]
                .iter()
                .copied();
            let mut k = ser_head[i];
            let sers = std::iter::from_fn(move || {
                (k != NIL).then(|| {
                    let to = ser_to[k as usize];
                    k = ser_next[k as usize];
                    to
                })
            });
            base.chain(sers).map(|j| j as usize)
        };
        asap.fill(0);
        order.clear();
        ready.clear();
        ready.extend((0..n as u32).filter(|&i| indeg[i as usize] == 0));
        let mut makespan = 0;
        while let Some(i) = ready.pop() {
            let i = i as usize;
            order.push(i as u32);
            let finish = asap[i] + durations[i];
            makespan = makespan.max(finish);
            for j in succs(i) {
                asap[j] = asap[j].max(finish);
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    ready.push(j as u32);
                }
            }
        }
        if order.len() != n {
            return Err(CoreError::CyclicConstraints);
        }

        // ALAP backward pass anchored at the makespan (right alignment):
        // the latest finish of each instruction.
        for &i in order.iter().rev() {
            let i = i as usize;
            finish[i] = succs(i).fold(makespan, |lf, j| lf.min(finish[j] - durations[j]));
        }
        for (slot, (&f, &d)) in slots.iter_mut().zip(finish.iter().zip(durations.iter())) {
            *slot = ScheduleSlot::new(f - d, d);
        }
        self.makespan = makespan;
        Ok(())
    }

    /// The Eq. 17 cost of the last realized slots.
    pub(crate) fn cost(&mut self, omega: f64) -> f64 {
        let model = self
            .cost
            .get_or_insert_with(|| CostModel::new(self.circuit, self.ctx));
        let slots = &self.slots;
        model.cost(omega, |i| slots[i])
    }

    /// Base successors of instruction `i`.
    fn base_succs(&self, i: usize) -> &[u32] {
        &self.succ[self.succ_start[i] as usize..self.succ_start[i + 1] as usize]
    }

    /// The last realized slots.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> &[ScheduleSlot] {
        &self.slots
    }

    /// The last realized slots, paired with a clone of the circuit.
    pub(crate) fn into_schedule(self) -> ScheduledCircuit {
        let sched = ScheduledCircuit::new(self.circuit.clone(), self.slots)
            .expect("slot count matches instruction count");
        debug_assert!(sched.validate().is_ok(), "realized schedule must be valid");
        sched
    }
}

/// The schedule of XtalkSched's current search node, kept incrementally
/// under pushed and popped serialization edges for the *key* instructions
/// alone: those the search reads.
///
/// The key set `K` is fixed when the node is seeded: the candidate-pair
/// members (the conflict scan reads their spans and serialization edges
/// join them) and what [`CostModel::reads`] names (the hot gates and each
/// qubit's first and last operation). Every other instruction is folded
/// into *skeleton* edges `x → y` between key instructions, each with a
/// *gap*: the longest sum of durations over the base paths from `x` to `y`
/// whose interior avoids `K`, counting the interior only.
///
/// Each key instruction `x` has a *head* (its ASAP start) and a *tail*
/// (the longest sum of durations along a path after `x` finishes), seeded
/// from the one unserialized realization. A path between key instructions
/// splits at the key instructions on it into skeleton edges and
/// serialization edges (gap 0), so pushing `a → b` raises heads forward
/// from `b` (`head[y] ≥ head[x] + d[x] + gap`) and tails backward from `a`
/// (`tail[x] ≥ gap + d[y] + tail[y]`), visiting only the key instructions
/// whose value changes; every change goes to an undo log, so popping the
/// edge restores heads, tails and the makespan `M`. The edge closes a
/// cycle iff the forward pass reaches `a`: around a cycle through `a → b`
/// the heads would have to grow by at least `d[a] > 0`.
///
/// The push sets `M` to `max(M, head[a] + d[a] + d[b] + tail[b])`, and
/// that is exact: every path the push lengthens uses `a → b`, the longest
/// of them weighs that sum, and the push changes neither `head[a]` (the
/// forward pass would have reached `a`) nor `tail[b]` (the backward pass
/// would have to reach `b` from `a`, the same cycle). The right-aligned
/// slot of a key instruction `i` then starts at `M − tail[i] − d[i]`:
/// exactly [`Timeline::solve`]'s ALAP slot, in integers.
pub(crate) struct Incremental {
    /// Key index of each instruction, [`NIL`] off the key set; key indices
    /// follow program order.
    key_of: Vec<u32>,
    /// Duration, head and tail of each key instruction.
    dur: Vec<u64>,
    head: Vec<u64>,
    tail: Vec<u64>,
    makespan: u64,
    /// Skeleton edges as `(other end, gap)`: out of key `x` at
    /// `fwd[fwd_start[x]..fwd_start[x + 1]]`, into key `y` at
    /// `bwd[bwd_start[y]..bwd_start[y + 1]]`.
    fwd_start: Vec<u32>,
    fwd: Vec<(u32, u64)>,
    bwd_start: Vec<u32>,
    bwd: Vec<(u32, u64)>,
    /// Pushed serialization edges `(a, b)` between key indices, a stack,
    /// threaded into per-key lists: out of `a` from `out_head[a]` through
    /// `out_next`, into `b` from `in_head[b]` through `in_next`.
    ser: Vec<(u32, u32)>,
    out_head: Vec<u32>,
    out_next: Vec<u32>,
    in_head: Vec<u32>,
    in_next: Vec<u32>,
    /// Undo logs of `(key index, old value)`.
    head_log: Vec<(u32, u64)>,
    tail_log: Vec<(u32, u64)>,
    /// Per pushed edge: the log lengths and makespan before it.
    frames: Vec<(usize, usize, u64)>,
    /// Key instructions whose raised value must still reach their
    /// neighbours: the forward pass takes them in program order and the
    /// backward pass in reverse, the order skeleton edges follow, so a key
    /// instruction is rarely raised twice in one push.
    work: KeyQueue,
}

impl Incremental {
    /// Seeds the node state over the key instructions `key` names
    /// (repeats allowed) from `timeline`'s last realization, which must be
    /// the one without serializations.
    pub(crate) fn seed(timeline: &Timeline<'_>, key: impl IntoIterator<Item = usize>) -> Self {
        debug_assert!(timeline.ser_to.is_empty(), "seed from the unserialized realization");
        let n = timeline.durations.len();
        let mut key_of = vec![NIL; n];
        for i in key {
            key_of[i] = 0;
        }
        let mut keys = Vec::new();
        for (i, k) in key_of.iter_mut().enumerate() {
            if *k != NIL {
                *k = keys.len() as u32;
                keys.push(i);
            }
        }
        let m = keys.len();
        let (bwd_start, bwd) = skeleton(timeline, &key_of);
        let mut fwd_start = vec![0u32; m + 1];
        for &(x, _) in &bwd {
            fwd_start[x as usize + 1] += 1;
        }
        for x in 0..m {
            fwd_start[x + 1] += fwd_start[x];
        }
        let mut fill = fwd_start[..m].to_vec();
        let mut fwd = vec![(0, 0); bwd.len()];
        for y in 0..m {
            for &(x, gap) in &bwd[bwd_start[y] as usize..bwd_start[y + 1] as usize] {
                fwd[fill[x as usize] as usize] = (y as u32, gap);
                fill[x as usize] += 1;
            }
        }
        let makespan = timeline.makespan;
        Incremental {
            key_of,
            dur: keys.iter().map(|&i| timeline.durations[i]).collect(),
            head: keys.iter().map(|&i| timeline.asap[i]).collect(),
            tail: keys.iter().map(|&i| makespan - timeline.finish[i]).collect(),
            makespan,
            fwd_start,
            fwd,
            bwd_start,
            bwd,
            ser: Vec::new(),
            out_head: vec![NIL; m],
            out_next: Vec::new(),
            in_head: vec![NIL; m],
            in_next: Vec::new(),
            head_log: Vec::new(),
            tail_log: Vec::new(),
            frames: Vec::new(),
            work: KeyQueue::new(m),
        }
    }

    /// Serializes `b` after `a`, both key instructions. Returns `false`,
    /// changing nothing, if the edge closes a cycle.
    pub(crate) fn push(&mut self, a: usize, b: usize) -> bool {
        let (a, b) = (self.key(a), self.key(b));
        debug_assert!(self.dur[a] > 0, "serializations join two-qubit gates");
        let frame = (self.head_log.len(), self.tail_log.len(), self.makespan);

        // Forward: heads from `b`, over skeleton then serialization
        // successors.
        if self.head[a] + self.dur[a] > self.head[b] {
            self.raise_head(b, self.head[a] + self.dur[a]);
        }
        while let Some(x) = self.work.pop_min() {
            let x = x as usize;
            let fx = self.head[x] + self.dur[x];
            for k in self.fwd_start[x] as usize..self.fwd_start[x + 1] as usize {
                let (y, gap) = self.fwd[k];
                if fx + gap > self.head[y as usize] {
                    if y as usize == a {
                        self.undo(frame);
                        return false;
                    }
                    self.raise_head(y as usize, fx + gap);
                }
            }
            let mut e = self.out_head[x];
            while e != NIL {
                let y = self.ser[e as usize].1 as usize;
                if fx > self.head[y] {
                    if y == a {
                        self.undo(frame);
                        return false;
                    }
                    self.raise_head(y, fx);
                }
                e = self.out_next[e as usize];
            }
        }

        // Only paths through the new edge grew (see the type docs).
        self.makespan = self
            .makespan
            .max(self.head[a] + self.dur[a] + self.dur[b] + self.tail[b]);
        let e = self.ser.len() as u32;
        self.ser.push((a as u32, b as u32));
        self.out_next.push(std::mem::replace(&mut self.out_head[a], e));
        self.in_next.push(std::mem::replace(&mut self.in_head[b], e));

        // Backward: tails from `a`, over skeleton then serialization
        // predecessors.
        if self.dur[b] + self.tail[b] > self.tail[a] {
            self.raise_tail(a, self.dur[b] + self.tail[b]);
        }
        while let Some(x) = self.work.pop_max() {
            let x = x as usize;
            let tx = self.dur[x] + self.tail[x];
            for k in self.bwd_start[x] as usize..self.bwd_start[x + 1] as usize {
                let (p, gap) = self.bwd[k];
                if tx + gap > self.tail[p as usize] {
                    self.raise_tail(p as usize, tx + gap);
                }
            }
            let mut e = self.in_head[x];
            while e != NIL {
                let p = self.ser[e as usize].0 as usize;
                if tx > self.tail[p] {
                    self.raise_tail(p, tx);
                }
                e = self.in_next[e as usize];
            }
        }
        self.frames.push(frame);
        true
    }

    /// Removes the last pushed edge, restoring heads, tails and makespan.
    pub(crate) fn pop(&mut self) {
        let frame = self.frames.pop().expect("pop follows a successful push");
        self.undo(frame);
        let (a, b) = self.ser.pop().expect("an edge per frame");
        self.out_head[a as usize] = self.out_next.pop().expect("one link per edge");
        self.in_head[b as usize] = self.in_next.pop().expect("one link per edge");
    }

    /// The key index of instruction `i`.
    fn key(&self, i: usize) -> usize {
        let k = self.key_of[i];
        debug_assert!(k != NIL, "instruction {i} is not a key instruction");
        k as usize
    }

    fn raise_head(&mut self, x: usize, value: u64) {
        self.head_log.push((x as u32, self.head[x]));
        self.head[x] = value;
        self.work.insert(x as u32);
    }

    fn raise_tail(&mut self, x: usize, value: u64) {
        self.tail_log.push((x as u32, self.tail[x]));
        self.tail[x] = value;
        self.work.insert(x as u32);
    }

    /// Rolls heads, tails and makespan back to `frame`.
    fn undo(&mut self, (heads, tails, makespan): (usize, usize, u64)) {
        for (x, old) in self.head_log.drain(heads..).rev() {
            self.head[x as usize] = old;
        }
        for (x, old) in self.tail_log.drain(tails..).rev() {
            self.tail[x as usize] = old;
        }
        self.makespan = makespan;
        self.work.clear();
    }

    /// Start and finish of key instruction `i` at this node.
    pub(crate) fn span(&self, i: usize) -> (u64, u64) {
        let k = self.key(i);
        let finish = self.makespan - self.tail[k];
        (finish - self.dur[k], finish)
    }

    /// The slot of key instruction `i` at this node.
    pub(crate) fn slot(&self, i: usize) -> ScheduleSlot {
        let (start, finish) = self.span(i);
        ScheduleSlot::new(start, finish - start)
    }

    /// Asserts that this node's makespan and key slots are what a full
    /// realization of `circuit` under `serialized` gives.
    #[cfg(test)]
    pub(crate) fn assert_matches_solve(
        &self,
        circuit: &Circuit,
        ctx: &SchedulerContext,
        serialized: &[(usize, usize)],
    ) {
        let mut fresh = Timeline::new(circuit, ctx);
        fresh
            .solve(serialized)
            .expect("the search only keeps acyclic nodes");
        assert_eq!(self.makespan, fresh.makespan, "makespan under {serialized:?}");
        for (i, &k) in self.key_of.iter().enumerate() {
            if k != NIL {
                assert_eq!(
                    self.slot(i),
                    fresh.slots()[i],
                    "key instruction {i}: incremental slot differs from a full solve under \
                     {serialized:?}"
                );
            }
        }
    }
}

/// The skeleton edges over the key instructions `key_of` marks, as
/// `(bwd_start, bwd)`: the edges into key `y` are
/// `bwd[bwd_start[y]..bwd_start[y + 1]]`, one `(x, gap)` per source `x`,
/// sorted by `x`.
///
/// One program-order pass over the base edges. Each instruction passes on
/// to its successors a list, sorted by key, of the keys that reach them
/// through it, each with the longest sum of durations from after the key
/// through the instruction: a key instruction passes on only itself, with
/// gap 0; a non-key instruction what reached it, plus its own duration. A
/// key instruction takes what reached it as its in-edges.
fn skeleton(timeline: &Timeline<'_>, key_of: &[u32]) -> (Vec<u32>, Vec<(u32, u64)>) {
    // Lists live in one arena; what has reached instruction `i` so far is
    // `reached[i]`. The first list to reach an instruction is shared, not
    // copied; each further one is merged into a new list.
    let mut arena: Vec<(u32, u64)> = Vec::new();
    let mut reached: Vec<List> = vec![(0, 0, 0); key_of.len()];
    let mut bwd_start = vec![0u32];
    let mut bwd = Vec::new();
    for (i, &key) in key_of.iter().enumerate() {
        let (from, to, offset) = reached[i];
        let passes = if key == NIL {
            (from, to, offset + timeline.durations[i])
        } else {
            bwd.extend(arena[from..to].iter().map(|&(x, gap)| (x, gap + offset)));
            bwd_start.push(bwd.len() as u32);
            arena.push((key, 0));
            (arena.len() - 1, arena.len(), 0)
        };
        if passes.0 == passes.1 {
            continue;
        }
        for &j in timeline.base_succs(i) {
            let into = &mut reached[j as usize];
            *into = if into.0 == into.1 {
                passes
            } else {
                merge(&mut arena, *into, passes)
            };
        }
    }
    (bwd_start, bwd)
}

/// A key-sorted list of `(key, gap)` in [`skeleton`]'s arena:
/// `(from, to, offset)`, every gap plus `offset`.
type List = (usize, usize, u64);

/// Appends the merge of two lists to `arena`, each key once with its
/// longest gap, and returns it.
fn merge(arena: &mut Vec<(u32, u64)>, (mut i, a_end, a): List, (mut j, b_end, b): List) -> List {
    let begin = arena.len();
    arena.reserve(a_end - i + b_end - j);
    while i < a_end && j < b_end {
        let ((x, g), (y, h)) = (arena[i], arena[j]);
        arena.push(match x.cmp(&y) {
            std::cmp::Ordering::Less => (x, g + a),
            std::cmp::Ordering::Greater => (y, h + b),
            std::cmp::Ordering::Equal => (x, (g + a).max(h + b)),
        });
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    for k in i..a_end {
        let (x, g) = arena[k];
        arena.push((x, g + a));
    }
    for k in j..b_end {
        let (y, h) = arena[k];
        arena.push((y, h + b));
    }
    (begin, arena.len(), 0)
}

/// A set of key indices taken lowest or highest first: a bitset, with
/// bounds on the words that may hold a bit.
struct KeyQueue {
    words: Vec<u64>,
    /// Every word outside `lo..hi` is zero; `lo == hi` when empty.
    lo: usize,
    hi: usize,
}

impl KeyQueue {
    fn new(len: usize) -> Self {
        KeyQueue {
            words: vec![0; len.div_ceil(64)],
            lo: 0,
            hi: 0,
        }
    }

    fn insert(&mut self, k: u32) {
        let w = k as usize / 64;
        self.words[w] |= 1 << (k % 64);
        if self.lo == self.hi {
            (self.lo, self.hi) = (w, w + 1);
        } else {
            self.lo = self.lo.min(w);
            self.hi = self.hi.max(w + 1);
        }
    }

    fn pop_min(&mut self) -> Option<u32> {
        while self.lo < self.hi {
            let word = &mut self.words[self.lo];
            if *word != 0 {
                let bit = word.trailing_zeros();
                *word &= *word - 1;
                return Some((self.lo * 64) as u32 + bit);
            }
            self.lo += 1;
        }
        None
    }

    fn pop_max(&mut self) -> Option<u32> {
        while self.lo < self.hi {
            let word = &mut self.words[self.hi - 1];
            if *word != 0 {
                let bit = 63 - word.leading_zeros();
                *word &= !(1 << bit);
                return Some(((self.hi - 1) * 64) as u32 + bit);
            }
            self.hi -= 1;
        }
        None
    }

    fn clear(&mut self) {
        self.words[self.lo..self.hi].fill(0);
        self.hi = self.lo;
    }
}

/// What the Eq. 17 cost needs of one circuit — its two-qubit gates, the
/// "hot" ones among them with a rate table over their edges, and each
/// qubit's first and last operation — plus the sweep buffers.
///
/// A gate's error is the maximum of its independent error and the
/// conditional errors against the two-qubit gates it overlaps. Only a
/// pair whose conditional error exceeds the independent one, in either
/// direction, can raise it, so the overlap sweep runs over the hot gates
/// alone: those whose edge forms such a pair with some edge of the
/// circuit (both members of a raising pair are hot). Every other gate
/// keeps its independent error, bit for bit. On a valid schedule a
/// qubit's first operation in program order starts first and its last
/// finishes last, so a lifetime is two slot reads.
///
/// The rates a hot gate's error can take — `E(a | b)` over the circuit's
/// distinct hot edges, and their independent rates — sit in one table
/// with their `ln`, built once. The sweep keeps the table index of the
/// rate winning each maximum, so a gate's `ln ε` is a lookup of the very
/// value the maximum picked; the sum over the gates stays in program
/// order, so every cost is bit for bit the direct computation's.
pub(crate) struct CostModel {
    /// Hot two-qubit instructions in program order: `(instruction,
    /// position among the two-qubit gates, hot-edge index)`.
    hot: Vec<(usize, usize, u32)>,
    /// Number of distinct hot edges `h`.
    hot_edges: usize,
    /// `E(a | b)` at `rate[a * h + b]` and the independent rate of `a` at
    /// `rate[h * h + a]`, for hot-edge indices `a` and `b`; `ln_rate`
    /// holds `ln max(rate, 1e-12)` at the same index once a cost has read
    /// it, NaN before.
    rate: Vec<f64>,
    ln_rate: Vec<f64>,
    /// `ln ε` of each two-qubit gate in program order; the cold gates'
    /// entries never change.
    log_error: Vec<f64>,
    /// `(first, last, coherence)` per qubit with operations other than
    /// barriers, in qubit order.
    lifetimes: Vec<(usize, usize, f64)>,
    // Sweep buffers, indexed by position in `hot`.
    /// Hot gates in `(start, instruction)` order as of the last cost: the
    /// insertion sort's warm start.
    order: Vec<u32>,
    start: Vec<u64>,
    finish: Vec<u64>,
    active: Vec<u32>,
    /// Table index of each hot gate's current error.
    worst: Vec<u32>,
}

impl CostModel {
    pub(crate) fn new(circuit: &Circuit, ctx: &SchedulerContext) -> Self {
        let model = ctx.model();
        // `(instruction, edge id)` of each two-qubit gate.
        let mut two_qubit = Vec::new();
        let mut ops: Vec<Option<(usize, usize)>> = vec![None; circuit.num_qubits()];
        for (i, ins) in circuit.iter().enumerate() {
            if ins.gate().is_two_qubit() {
                let id = ctx.edge_id(Edge::from(ins.edge().expect("two-qubit gate has an edge")));
                two_qubit.push((i, id));
            }
            if !ins.gate().is_barrier() {
                for q in ins.qubits() {
                    let span = &mut ops[q.index()];
                    *span = Some((span.map_or(i, |(first, _)| first), i));
                }
            }
        }

        let mut present: Vec<u32> = two_qubit.iter().map(|&(_, e)| e).collect();
        present.sort_unstable();
        present.dedup();
        // Only a measured entry can exceed the independent rate: walk the
        // rows of the circuit's edges for entries against its edges.
        let mut hot_edges = Vec::new();
        for &a in &present {
            let independent = model.independent(a);
            for (b, rate) in model.row(a) {
                if rate > independent && present.binary_search(&b).is_ok() {
                    hot_edges.extend([a, b]);
                }
            }
        }
        hot_edges.sort_unstable();
        hot_edges.dedup();
        // `E(a | b)` falls back to the independent rate of `a` where the
        // row of `a` has no entry for `b`.
        let h = hot_edges.len();
        let mut rate = vec![0.0; h * h + h];
        for (x, &a) in hot_edges.iter().enumerate() {
            let independent = model.independent(a);
            rate[x * h..(x + 1) * h].fill(independent);
            rate[h * h + x] = independent;
            for (b, r) in model.row(a) {
                if let Ok(y) = hot_edges.binary_search(&b) {
                    rate[x * h + y] = r;
                }
            }
        }
        let hot: Vec<(usize, usize, u32)> = two_qubit
            .iter()
            .enumerate()
            .filter_map(|(pos, &(i, e))| {
                hot_edges.binary_search(&e).ok().map(|x| (i, pos, x as u32))
            })
            .collect();
        let m = hot.len();
        CostModel {
            log_error: two_qubit
                .iter()
                .map(|&(_, e)| model.independent(e).max(1e-12).ln())
                .collect(),
            hot,
            hot_edges: h,
            ln_rate: vec![f64::NAN; rate.len()],
            rate,
            lifetimes: ops
                .iter()
                .enumerate()
                .filter_map(|(q, span)| {
                    span.map(|(first, last)| (first, last, ctx.coherence_ns(q as u32)))
                })
                .collect(),
            order: (0..m as u32).collect(),
            start: vec![0; m],
            finish: vec![0; m],
            active: Vec::with_capacity(m),
            worst: vec![0; m],
        }
    }

    /// The instructions whose slots [`CostModel::cost`] reads: the hot
    /// gates and each qubit's first and last operation (with repeats).
    pub(crate) fn reads(&self) -> impl Iterator<Item = usize> + '_ {
        let hot = self.hot.iter().map(|&(i, _, _)| i);
        hot.chain(self.lifetimes.iter().flat_map(|&(first, last, _)| [first, last]))
    }

    /// The paper's Eq. 17 objective of a valid schedule whose slots
    /// `slot` gives — the one implementation (see
    /// [`crate::sched::schedule_cost`]).
    pub(crate) fn cost(&mut self, omega: f64, slot: impl Fn(usize) -> ScheduleSlot) -> f64 {
        // Gate error term: a gate's error is its independent error unless
        // it overlaps other two-qubit gates, then the maximum conditional
        // error over those partners.
        let CostModel {
            hot,
            hot_edges: h,
            rate,
            ln_rate,
            log_error,
            order,
            start,
            finish,
            active,
            worst,
            ..
        } = self;
        let h = *h;
        for (g, &(i, _, x)) in hot.iter().enumerate() {
            let s = slot(i);
            (start[g], finish[g]) = (s.start, s.finish());
            worst[g] = (h * h) as u32 + x;
        }
        // Insertion sort from the last order. Keys are distinct, so the
        // order is the one a fresh sort gives.
        for k in 1..order.len() {
            let g = order[k];
            let key = (start[g as usize], g);
            let mut m = k;
            while m > 0 && (start[order[m - 1] as usize], order[m - 1]) > key {
                order[m] = order[m - 1];
                m -= 1;
            }
            order[m] = g;
        }
        // `OverlapSweep`'s sweep line over the start-sorted gates, where
        // zero-duration slots overlap nothing.
        active.clear();
        for &j in order.iter() {
            let j = j as usize;
            if finish[j] == start[j] {
                continue;
            }
            active.retain(|&g| finish[g as usize] > start[j]);
            let xj = hot[j].2 as usize;
            for &i in active.iter() {
                let i = i as usize;
                let xi = hot[i].2 as usize;
                if rate[xi * h + xj] > rate[worst[i] as usize] {
                    worst[i] = (xi * h + xj) as u32;
                }
                if rate[xj * h + xi] > rate[worst[j] as usize] {
                    worst[j] = (xj * h + xi) as u32;
                }
            }
            active.push(j as u32);
        }
        for (g, &(_, pos, _)) in hot.iter().enumerate() {
            let t = worst[g] as usize;
            if ln_rate[t].is_nan() {
                ln_rate[t] = rate[t].max(1e-12).ln();
            }
            log_error[pos] = ln_rate[t];
        }
        let gate_term: f64 = log_error.iter().sum();

        // Decoherence term: each qubit's lifetime, from its first
        // operation's start to its last one's finish.
        let mut deco = 0.0;
        for &(first, last, coherence) in &self.lifetimes {
            let t = slot(last).finish() - slot(first).start;
            if t > 0 {
                deco += t as f64 / coherence;
            }
        }

        omega * gate_term + (1.0 - omega) * deco
    }

    /// Hot two-qubit instructions, in program order.
    #[cfg(test)]
    pub(crate) fn hot(&self) -> Vec<usize> {
        self.hot.iter().map(|&(i, _, _)| i).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_circuits::supremacy_circuit;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xtalk_device::Device;

    /// The realization as it was before the timeline: a fresh DAG and
    /// adjacency lists per call. Kept as the oracle the timeline must
    /// match slot for slot.
    fn reference_realize(
        circuit: &Circuit,
        ctx: &SchedulerContext,
        serializations: &[(usize, usize)],
    ) -> Result<Vec<ScheduleSlot>, CoreError> {
        let n = circuit.len();
        let durations: Vec<u64> = circuit
            .iter()
            .map(|ins| ctx.duration_of(ins.gate(), ins.qubits()))
            .collect();
        let dag = circuit.dag();
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut indeg = vec![0usize; n];
        let add_edge = |succs: &mut Vec<Vec<usize>>, indeg: &mut Vec<usize>, a: usize, b: usize| {
            succs[a].push(b);
            indeg[b] += 1;
        };
        for j in 0..n {
            for &i in dag.predecessors(j) {
                add_edge(&mut succs, &mut indeg, i, j);
            }
        }
        for &(i, j) in serializations {
            add_edge(&mut succs, &mut indeg, i, j);
        }
        let mut order = Vec::with_capacity(n);
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        while let Some(i) = queue.pop() {
            order.push(i);
            for &j in &succs[i] {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    queue.push(j);
                }
            }
        }
        if order.len() != n {
            return Err(CoreError::CyclicConstraints);
        }
        let mut asap = vec![0u64; n];
        for &i in &order {
            for &j in &succs[i] {
                asap[j] = asap[j].max(asap[i] + durations[i]);
            }
        }
        let makespan = (0..n).map(|i| asap[i] + durations[i]).max().unwrap_or(0);
        let mut latest_finish = vec![makespan; n];
        for &i in order.iter().rev() {
            for &j in &succs[i] {
                latest_finish[i] = latest_finish[i].min(latest_finish[j] - durations[j]);
            }
        }
        Ok((0..n)
            .map(|i| ScheduleSlot::new(latest_finish[i] - durations[i], durations[i]))
            .collect())
    }

    /// Circuits with two-qubit gates on Poughkeepsie coupling edges,
    /// single-qubit and zero-duration gates, barriers and readouts.
    fn circuits(device: &Device) -> Vec<Circuit> {
        let topo = device.topology();
        let mut out: Vec<Circuit> = [
            (vec![5, 6, 10, 11, 12, 15, 16, 17], 4, 1),
            (vec![10, 11, 12, 13, 14, 15, 16, 17, 18, 19], 6, 2),
            (vec![0, 1, 2, 5, 6, 7, 10, 11], 3, 3),
        ]
        .into_iter()
        .map(|(region, depth, seed)| supremacy_circuit(topo, &region, depth, seed))
        .collect();
        let mut c = Circuit::new(20, 4);
        c.h(10)
            .cx(10, 15)
            .rz(0.3, 11)
            .cx(11, 12)
            .barrier([10, 11, 12, 15]);
        c.cx(10, 15)
            .cx(11, 12)
            .swap(5, 10)
            .measure(10, 0)
            .measure(15, 1);
        c.measure(11, 2).measure(12, 3);
        out.push(c);
        out.push(Circuit::new(20, 0));
        out
    }

    #[test]
    fn reused_timeline_matches_reference_realize() {
        let device = Device::poughkeepsie(1);
        let ctx = SchedulerContext::from_ground_truth(&device);
        let mut rng = StdRng::seed_from_u64(0x7151);
        let (mut feasible, mut cyclic) = (0, 0);
        for circuit in circuits(&device) {
            let n = circuit.len();
            let mut timeline = Timeline::new(&circuit, &ctx);
            for call in 0..200 {
                // Random pairs in either direction: some follow or repeat
                // a dependency, some reverse one (cyclic), some order
                // independent gates.
                let mut ser = Vec::new();
                if n >= 2 {
                    for _ in 0..rng.gen_range(0..(call % 7 + 1)) {
                        let i = rng.gen_range(0..n);
                        let j = rng.gen_range(0..n);
                        if i != j {
                            ser.push((i, j));
                        }
                    }
                }
                let expected = reference_realize(&circuit, &ctx, &ser);
                let got = timeline.realize(&ser).map(|()| timeline.slots().to_vec());
                assert_eq!(got, expected, "call {call} with serializations {ser:?}");
                match got {
                    Ok(_) => feasible += 1,
                    Err(_) => cyclic += 1,
                }
            }
        }
        assert!(
            feasible > 100 && cyclic > 100,
            "{feasible} feasible, {cyclic} cyclic calls"
        );
    }

    #[test]
    fn explicit_cycle_then_recovery() {
        let device = Device::poughkeepsie(1);
        let ctx = SchedulerContext::from_ground_truth(&device);
        let mut c = Circuit::new(20, 0);
        c.cx(10, 15).cx(11, 12).cx(10, 15);
        let mut timeline = Timeline::new(&c, &ctx);
        // 2 depends on 0; forcing 2 before 1 before 0 closes a cycle.
        assert_eq!(
            timeline.realize(&[(2, 1), (1, 0)]),
            Err(CoreError::CyclicConstraints)
        );
        // The buffers carry nothing over from the failed call.
        timeline.realize(&[(0, 1)]).unwrap();
        assert_eq!(Ok(timeline.slots().to_vec()), reference_realize(&c, &ctx, &[(0, 1)]));
    }

    #[test]
    fn slot_cost_matches_schedule_cost_on_reused_timeline() {
        let device = Device::poughkeepsie(1);
        let ctx = SchedulerContext::from_ground_truth(&device);
        let mut costed = 0;
        for circuit in circuits(&device) {
            // Serializing candidate pairs either way moves the two-qubit
            // overlaps between calls, so stale sweep results would show.
            let mut sets = vec![vec![]];
            for (i, j) in crate::XtalkSched::candidate_pairs(&circuit, &ctx)
                .into_iter()
                .take(4)
            {
                sets.push(vec![(i, j)]);
                sets.push(vec![(j, i)]);
            }
            let mut timeline = Timeline::new(&circuit, &ctx);
            for ser in &sets {
                timeline.realize(ser).unwrap();
                let sched = crate::realize(&circuit, &ctx, ser).unwrap();
                for omega in [0.0, 0.5, 1.0] {
                    let expected = crate::sched::schedule_cost(&sched, &ctx, omega);
                    assert_eq!(
                        timeline.cost(omega).to_bits(),
                        expected.to_bits(),
                        "{ser:?}"
                    );
                    costed += 1;
                }
            }
        }
        assert!(costed > 30, "only {costed} costs compared");
    }

    /// The leaf cost as it was before the rate tables: conditional rates
    /// from the model and one `ln` per hot gate, over an overlap sweep.
    fn reference_leaf_cost(
        circuit: &Circuit,
        ctx: &SchedulerContext,
        slots: &[ScheduleSlot],
        omega: f64,
    ) -> f64 {
        let model = ctx.model();
        let edge = |i: usize| ctx.edge_id(Edge::from(circuit.instructions()[i].edge().unwrap()));
        let two_qubit: Vec<usize> =
            (0..circuit.len()).filter(|&i| circuit.instructions()[i].gate().is_two_qubit()).collect();
        let mut eps = vec![0.0f64; circuit.len()];
        for &i in &two_qubit {
            eps[i] = model.independent(edge(i));
        }
        xtalk_ir::OverlapSweep::default().run(two_qubit.iter().copied(), slots, |i, j| {
            eps[i] = eps[i].max(model.conditional(edge(i), edge(j)));
            eps[j] = eps[j].max(model.conditional(edge(j), edge(i)));
        });
        let gate_term: f64 = two_qubit.iter().map(|&i| eps[i].max(1e-12).ln()).sum();
        let mut deco = 0.0;
        for &(first, last, coherence) in &CostModel::new(circuit, ctx).lifetimes {
            let t = slots[last].finish() - slots[first].start;
            if t > 0 {
                deco += t as f64 / coherence;
            }
        }
        omega * gate_term + (1.0 - omega) * deco
    }

    /// What a push that closes a cycle must leave untouched.
    fn node_state(node: &Incremental) -> impl PartialEq + std::fmt::Debug {
        (
            (node.head.clone(), node.tail.clone(), node.makespan),
            (node.ser.clone(), node.out_head.clone(), node.in_head.clone()),
            (node.head_log.len(), node.tail_log.len(), node.frames.len()),
        )
    }

    /// Supremacy and Figure 5 SWAP circuits on Poughkeepsie under its
    /// ground-truth and its measured characterization (whose conditional
    /// rates differ by direction): random pushes and pops over candidate
    /// pairs, checked after every step against full solves and costs.
    #[test]
    fn key_nodes_match_full_solves_under_random_pushes_and_pops() {
        let device = &crate::context::fixtures::devices()[0];
        let measured = &crate::context::fixtures::measured()[0];
        let topo = device.topology();
        let mut inputs = circuits(device);
        for (a, b) in [(0, 13), (5, 12), (10, 13), (6, 18), (1, 17)] {
            inputs.push(crate::routing::swap_benchmark(topo, a, b).unwrap().circuit);
        }
        let contexts =
            [SchedulerContext::from_ground_truth(device), SchedulerContext::new(device, measured)];
        let mut rng = StdRng::seed_from_u64(0x4b45);
        let (mut pushes, mut cycles, mut searched) = (0, 0, 0);
        for (ctx, circuit) in contexts.iter().flat_map(|ctx| inputs.iter().map(move |c| (ctx, c))) {
            let candidates = crate::XtalkSched::candidate_pairs(circuit, ctx);
            if candidates.is_empty() {
                continue;
            }
            searched += 1;
            let mut timeline = Timeline::new(circuit, ctx);
            timeline.realize(&[]).unwrap();
            let mut cost = CostModel::new(circuit, ctx);
            let key = candidates.iter().flat_map(|&(i, j)| [i, j]).chain(cost.reads());
            let mut node = Incremental::seed(&timeline, key.collect::<Vec<_>>());
            let mut serialized: Vec<(usize, usize)> = Vec::new();
            for step in 0..150 {
                let roll = rng.gen_range(0..6);
                if roll == 0 && !serialized.is_empty() {
                    node.pop();
                    serialized.pop();
                } else {
                    // Reversing the last pushed edge always closes a cycle;
                    // random pairs in random directions sometimes do.
                    let (a, b) = match serialized.last() {
                        Some(&(a, b)) if roll == 1 => (b, a),
                        _ => {
                            let (i, j) = candidates[rng.gen_range(0..candidates.len())];
                            if rng.gen_bool(0.5) {
                                (i, j)
                            } else {
                                (j, i)
                            }
                        }
                    };
                    let before = node_state(&node);
                    let mut with = serialized.clone();
                    with.push((a, b));
                    let feasible = Timeline::new(circuit, ctx).solve(&with).is_ok();
                    assert_eq!(node.push(a, b), feasible, "step {step}: push {a} → {b}");
                    if feasible {
                        serialized = with;
                        pushes += 1;
                    } else {
                        assert!(node_state(&node) == before, "step {step}: failed push moved");
                        assert!(node.work.words.iter().all(|&w| w == 0));
                        cycles += 1;
                    }
                }
                node.assert_matches_solve(circuit, ctx, &serialized);
                let sched = crate::realize(circuit, ctx, &serialized).unwrap();
                for omega in [0.0, 0.5, 1.0] {
                    let leaf = cost.cost(omega, |i| node.slot(i));
                    let expected = crate::sched::schedule_cost(&sched, ctx, omega);
                    assert_eq!(leaf.to_bits(), expected.to_bits(), "step {step}, ω = {omega}");
                    let direct = reference_leaf_cost(circuit, ctx, sched.slots(), omega);
                    assert_eq!(leaf.to_bits(), direct.to_bits(), "step {step}, ω = {omega}");
                }
            }
        }
        assert!(
            searched >= 12 && pushes > 600 && cycles > 200,
            "{searched} circuits, {pushes} pushes, {cycles} cycles"
        );
    }
}

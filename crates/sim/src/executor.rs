//! Noisy execution of scheduled circuits against a device model.

use crate::matrix::{single_qubit_matrix, two_qubit_matrix, Mat2, Mat4};
use crate::noise::{
    depolarizing_prob_for_error_1q, depolarizing_prob_for_error_2q, IdleChannel, NoiseModel,
};
use crate::{Counts, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use xtalk_budget::Budget;
use xtalk_device::{Calibration, Device, Edge};
use xtalk_ir::{Circuit, Gate, ScheduleSlot, ScheduledCircuit};

/// Shots per batch in [`Executor::run_budgeted`]. Fixed (independent of
/// the thread count) so the set of completed shots under an exhausted
/// budget is always a prefix `0..shots_completed` whose counts are
/// bit-identical to a fresh run of exactly that many shots at any thread
/// count.
pub const BUDGET_BATCH_SHOTS: u64 = 64;

/// Best-effort result of a budgeted run ([`Executor::run_budgeted`]).
#[derive(Clone, PartialEq, Debug)]
pub struct RunOutcome {
    /// Counts over the completed prefix of shots.
    pub counts: Counts,
    /// Exact number of trajectories sampled: shots `0..shots_completed`.
    pub shots_completed: u64,
    /// The configured shot target.
    pub shots_requested: u64,
    /// `true` iff every requested shot completed.
    pub complete: bool,
}

/// Knobs for the noisy executor; individual noise sources can be switched
/// off for ablation experiments.
#[derive(Clone, Copy, Debug)]
pub struct ExecutorConfig {
    /// Trajectories to sample.
    pub shots: u64,
    /// Base RNG seed; every `(shot, component)` derives its own stream.
    pub seed: u64,
    /// Apply per-gate depolarizing noise.
    pub gate_noise: bool,
    /// Apply crosstalk amplification to overlapping two-qubit gates.
    pub crosstalk: bool,
    /// Apply T1/T2 idle decay.
    pub decoherence: bool,
    /// Apply readout assignment errors.
    pub readout_noise: bool,
    /// Combine multiple simultaneous aggressors by *adding* their excess
    /// error instead of taking the worst one (the paper's Eq. 6 takes the
    /// max, noting triplet effects were not significant; this switch
    /// exists to test that choice).
    pub compound_crosstalk: bool,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            shots: 1024,
            seed: 0,
            gate_noise: true,
            crosstalk: true,
            decoherence: true,
            readout_noise: true,
            compound_crosstalk: false,
        }
    }
}

/// Runs [`ScheduledCircuit`]s against a [`Device`]'s ground-truth noise.
///
/// This is the stand-in for submitting a job to an IBMQ backend: the
/// executor (and only the executor) reads the device's hidden
/// [`xtalk_device::CrosstalkMap`].
///
/// ```
/// use xtalk_device::Device;
/// use xtalk_ir::Circuit;
/// use xtalk_sim::{Executor, ExecutorConfig};
///
/// let device = Device::line(2, 1);
/// let mut bell = Circuit::new(2, 2);
/// bell.h(0).cx(0, 1).measure_all();
/// let sched = Executor::asap_schedule(&bell, device.calibration());
/// let counts = Executor::new(&device).run(&sched);
/// assert_eq!(counts.shots(), 1024);
/// // Mostly 00/11 despite noise.
/// assert!(counts.probability(0b00) + counts.probability(0b11) > 0.8);
/// ```
#[derive(Debug)]
pub struct Executor<'a> {
    device: &'a Device,
    config: ExecutorConfig,
}

impl<'a> Executor<'a> {
    /// An executor with default configuration.
    pub fn new(device: &'a Device) -> Self {
        Executor { device, config: ExecutorConfig::default() }
    }

    /// An executor with explicit configuration.
    pub fn with_config(device: &'a Device, config: ExecutorConfig) -> Self {
        Executor { device, config }
    }

    /// The active configuration.
    pub fn config(&self) -> ExecutorConfig {
        self.config
    }

    /// ASAP-schedules a circuit using the calibration's duration model —
    /// the "hardware default" timing used when no scheduler pass ran.
    pub fn asap_schedule(circuit: &Circuit, cal: &Calibration) -> ScheduledCircuit {
        let mut ready = vec![0u64; circuit.num_qubits()];
        let mut slots = Vec::with_capacity(circuit.len());
        for instr in circuit.iter() {
            let start =
                instr.qubits().iter().map(|q| ready[q.index()]).max().unwrap_or(0);
            let dur = cal.duration_of(instr.gate(), instr.qubits());
            for q in instr.qubits() {
                ready[q.index()] = start + dur;
            }
            slots.push(ScheduleSlot::new(start, dur));
        }
        ScheduledCircuit::new(circuit.clone(), slots).expect("slot count matches by construction")
    }

    /// Executes the schedule, returning measured counts over the circuit's
    /// classical register.
    ///
    /// Equivalent to [`Executor::run_parallel`] with one thread: every
    /// trajectory derives its own RNG stream from `(seed, shot)`, so the
    /// counts are identical however the shots are later split over
    /// threads.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is invalid ([`ScheduledCircuit::validate`])
    /// or if a component exceeds the statevector limit.
    pub fn run(&self, sched: &ScheduledCircuit) -> Counts {
        self.run_parallel(sched, 1)
    }

    /// Executes the schedule with the Monte-Carlo trials split across
    /// `threads` OS threads (`0` = all available parallelism).
    ///
    /// Each shot seeds its own RNG from `(config.seed, shot)`, which makes
    /// the result **bit-identical** for a fixed seed regardless of thread
    /// count — `run_parallel(s, 8)` returns exactly `run(s)`'s counts.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is invalid ([`ScheduledCircuit::validate`]),
    /// if a component exceeds the statevector limit, or if a worker thread
    /// panics.
    pub fn run_parallel(&self, sched: &ScheduledCircuit, threads: usize) -> Counts {
        let _span = xtalk_obs::span("sim.run_parallel");
        sched.validate().expect("executor requires a valid schedule");
        let prep = self.prepare(sched);
        let shots = self.config.shots;
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
        .min(shots.max(1) as usize)
        .max(1);

        if threads == 1 {
            return self.run_shot_batch(&prep, 0, shots, 0);
        }

        let chunk = shots.div_ceil(threads as u64);
        std::thread::scope(|scope| {
            let prep = &prep;
            let handles: Vec<_> = (0..threads as u64)
                .map(|t| {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(shots);
                    scope.spawn(move || self.run_shot_batch(prep, lo, hi, t as usize))
                })
                .collect();
            let mut counts = Counts::new(sched.circuit().num_clbits().max(1));
            for handle in handles {
                counts.merge(&handle.join().expect("trajectory worker panicked"));
            }
            counts
        })
    }

    /// Executes the schedule under a cooperative [`Budget`], checked only
    /// at shot-batch boundaries.
    ///
    /// Shots are split into fixed-size batches of [`BUDGET_BATCH_SHOTS`]
    /// claimed from a shared atomic counter in index order; a worker polls
    /// the budget *before* claiming and always finishes a batch it
    /// claimed. Completed batches therefore form a prefix `0..n`, so the
    /// returned [`RunOutcome`] reports an exact `shots_completed` and its
    /// counts are **bit-identical** to a fresh run of exactly that many
    /// shots at any thread count (each shot still derives its own RNG
    /// stream from `(config.seed, shot)`). Budget-expiry latency is at
    /// most one batch per worker.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is invalid ([`ScheduledCircuit::validate`]),
    /// if a component exceeds the statevector limit, or if a worker thread
    /// panics.
    pub fn run_budgeted(
        &self,
        sched: &ScheduledCircuit,
        threads: usize,
        budget: &Budget,
    ) -> RunOutcome {
        let _span = xtalk_obs::span("sim.run_budgeted");
        sched.validate().expect("executor requires a valid schedule");
        let prep = self.prepare(sched);
        let shots = self.config.shots;
        let num_batches = shots.div_ceil(BUDGET_BATCH_SHOTS);
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
        .min(num_batches.max(1) as usize)
        .max(1);

        let next = AtomicU64::new(0);
        let run_worker = |thread_idx: usize| -> Counts {
            let mut counts = Counts::new(sched.circuit().num_clbits().max(1));
            loop {
                // Poll *before* claiming: a claimed batch always runs to
                // completion, keeping the completed set a prefix.
                if budget.exhausted().is_some() {
                    break;
                }
                let batch = next.fetch_add(1, Ordering::Relaxed);
                if batch >= num_batches {
                    break;
                }
                let lo = batch * BUDGET_BATCH_SHOTS;
                let hi = (lo + BUDGET_BATCH_SHOTS).min(shots);
                counts.merge(&self.run_shot_batch(&prep, lo, hi, thread_idx));
                budget.charge(1);
            }
            counts
        };

        let counts = if threads == 1 {
            run_worker(0)
        } else {
            std::thread::scope(|scope| {
                let run_worker = &run_worker;
                let handles: Vec<_> =
                    (0..threads).map(|t| scope.spawn(move || run_worker(t))).collect();
                let mut counts = Counts::new(sched.circuit().num_clbits().max(1));
                for handle in handles {
                    counts.merge(&handle.join().expect("trajectory worker panicked"));
                }
                counts
            })
        };

        // Every batch index below the final counter value was claimed and
        // completed (overshoot past `num_batches` claims nothing).
        let claimed = next.load(Ordering::Relaxed).min(num_batches);
        let shots_completed = (claimed * BUDGET_BATCH_SHOTS).min(shots);
        debug_assert_eq!(counts.shots(), shots_completed);
        RunOutcome {
            counts,
            shots_completed,
            shots_requested: shots,
            complete: shots_completed == shots,
        }
    }

    /// [`Executor::run_shot_range`] plus per-batch observability: batch
    /// wall time and per-thread shot counts. Metrics never feed back into
    /// the trajectory RNG streams, so parallel results stay bit-identical
    /// whether profiling is on or off.
    fn run_shot_batch(&self, prep: &Prepared, lo: u64, hi: u64, thread_idx: usize) -> Counts {
        // `sim.batch` injection point: an injected error panics the batch
        // (propagating to the caller as a worker/job panic, exercising the
        // serve stack's quarantine path); a delay only stalls wall time.
        // Neither touches the per-shot RNG streams, so counts from
        // surviving runs stay bit-identical.
        if let Some(msg) = xtalk_fault::fire("sim.batch") {
            panic!("injected sim.batch fault: {msg}");
        }
        let _batch = xtalk_obs::span("sim.shot_batch");
        let counts = self.run_shot_range(prep, lo, hi);
        if xtalk_obs::enabled() {
            xtalk_obs::counter_add("sim.shots", hi - lo);
            xtalk_obs::counter_add(&format!("sim.thread{thread_idx}.shots"), hi - lo);
        }
        counts
    }

    /// Compiles the schedule into one [`Program`] per connected component.
    /// Everything that depends only on the schedule, the calibration and
    /// the noise switches is evaluated here, once per run: qubit-local
    /// indices, unitary matrices, crosstalk-scaled depolarizing
    /// probabilities, idle gaps and their channels, readout errors. A shot
    /// then only walks the steps and draws from its RNG.
    fn prepare(&self, sched: &ScheduledCircuit) -> Prepared {
        let circuit = sched.circuit();
        let cal = self.device.calibration();
        let cfg = self.config;

        // Effective (crosstalk-conditioned) error factor per 2q gate: the
        // paper's Eq. 6 takes the max conditional error over overlapping
        // gates; with `compound_crosstalk` the excesses add instead.
        let mut factor = vec![1.0f64; circuit.len()];
        if cfg.crosstalk {
            for (i, j) in sched.overlapping_two_qubit_pairs() {
                let ei = edge_of(circuit, i);
                let ej = edge_of(circuit, j);
                let fi = self.device.crosstalk().factor(ei, ej);
                let fj = self.device.crosstalk().factor(ej, ei);
                if cfg.compound_crosstalk {
                    factor[i] += fi - 1.0;
                    factor[j] += fj - 1.0;
                } else {
                    factor[i] = factor[i].max(fi);
                    factor[j] = factor[j].max(fj);
                }
            }
        }

        // Component and local index of every active qubit.
        let comps = components(circuit);
        let mut home = vec![(0usize, 0u32); circuit.num_qubits()];
        for (c, qubits) in comps.iter().enumerate() {
            for (l, &p) in qubits.iter().enumerate() {
                home[p] = (c, l as u32);
            }
        }
        // Per-component instruction lists in time order, and each qubit's
        // first start: idle clocks start there (IBM convention:
        // decoherence starts at the first gate).
        let mut comp_instrs: Vec<Vec<usize>> = vec![Vec::new(); comps.len()];
        let mut busy_until = vec![u64::MAX; circuit.num_qubits()];
        for (i, instr) in circuit.iter().enumerate() {
            if instr.gate().is_barrier() {
                continue;
            }
            comp_instrs[home[instr.qubits()[0].index()].0].push(i);
            for q in instr.qubits() {
                busy_until[q.index()] = busy_until[q.index()].min(sched.slot(i).start);
            }
        }

        let mut mats = Matrices::default();
        let mut programs = Vec::with_capacity(comps.len());
        for (qubits, mut instrs) in comps.iter().zip(comp_instrs) {
            instrs.sort_by_key(|&i| (sched.slot(i).start, i));
            let mut steps = Vec::with_capacity(instrs.len());
            for i in instrs {
                let instr = &circuit.instructions()[i];
                let slot = sched.slot(i);
                let local = |k: usize| home[instr.qubits()[k].index()].1;
                for (k, q) in instr.qubits().iter().enumerate() {
                    let gap = slot.start.saturating_sub(busy_until[q.index()]);
                    busy_until[q.index()] = slot.finish();
                    if cfg.decoherence && gap > 0 {
                        let channel = IdleChannel::new(
                            gap as f64,
                            cal.t1_us(q.raw()) * 1000.0,
                            cal.t2_us(q.raw()) * 1000.0,
                        );
                        if !channel.is_inert() {
                            steps.push(Step::Idle { q: local(k), channel });
                        }
                    }
                }
                let q0 = instr.qubits()[0].raw();
                steps.push(match instr.gate() {
                    Gate::Measure => Step::Measure {
                        q: local(0),
                        readout: cfg.readout_noise.then(|| cal.readout_error(q0)),
                        clbit: instr.clbit().map(|c| c.index() as u32),
                    },
                    g if g.is_two_qubit() => Step::Gate2 {
                        a: local(0),
                        b: local(1),
                        mat: mats.two(g),
                        depol: cfg.gate_noise.then(|| {
                            let p1 = cal.cx_error(edge_of(circuit, i));
                            let base = match g {
                                Gate::Swap => 1.0 - (1.0 - p1).powi(3),
                                _ => p1,
                            };
                            depolarizing_prob_for_error_2q((base * factor[i]).min(1.0))
                        }),
                    },
                    g => Step::Gate1 {
                        q: local(0),
                        mat: mats.one(g),
                        depol: (cfg.gate_noise && !g.is_virtual())
                            .then(|| depolarizing_prob_for_error_1q(cal.sq_error(q0))),
                    },
                });
            }
            programs.push(Program { width: qubits.len(), steps });
        }
        Prepared { num_clbits: circuit.num_clbits(), mats, programs }
    }

    /// Runs shots `lo..hi`, each on its own derived RNG stream, reusing
    /// one state per component across the shots.
    fn run_shot_range(&self, prep: &Prepared, lo: u64, hi: u64) -> Counts {
        let mut counts = Counts::new(prep.num_clbits.max(1));
        if lo >= hi {
            return counts;
        }
        let mut states: Vec<StateVector> =
            prep.programs.iter().map(|p| StateVector::new(p.width)).collect();
        for shot in lo..hi {
            let mut rng = StdRng::seed_from_u64(shot_stream_seed(self.config.seed, shot));
            let mut outcome: u64 = 0;
            for (program, state) in prep.programs.iter().zip(&mut states) {
                outcome |= program.run(&prep.mats, state, &mut rng);
            }
            counts.record(outcome);
        }
        counts
    }
}

/// A compiled run: one trajectory program per connected component over a
/// shared matrix table. Built once by [`Executor::prepare`] and shared
/// (read-only) by every shot and thread.
struct Prepared {
    num_clbits: usize,
    mats: Matrices,
    programs: Vec<Program>,
}

/// The unitaries of a compiled run, each stored once however many steps
/// apply it.
#[derive(Default)]
struct Matrices {
    one: Vec<Mat2>,
    two: Vec<Mat4>,
    /// `one` indices by the bit pattern of the matrix entries.
    one_index: HashMap<[u64; 8], u32>,
}

impl Matrices {
    /// Index of a single-qubit gate's matrix, interning it on first use.
    fn one(&mut self, gate: &Gate) -> u32 {
        let m = single_qubit_matrix(gate);
        let mut key = [0u64; 8];
        for (k, c) in key.chunks_exact_mut(2).zip(m.0.iter().flatten()) {
            k[0] = c.re.to_bits();
            k[1] = c.im.to_bits();
        }
        *self.one_index.entry(key).or_insert_with(|| {
            self.one.push(m);
            (self.one.len() - 1) as u32
        })
    }

    /// Index of a two-qubit gate's matrix, interning it on first use.
    fn two(&mut self, gate: &Gate) -> u32 {
        let m = two_qubit_matrix(gate);
        let i = self.two.iter().position(|t| *t == m).unwrap_or_else(|| {
            self.two.push(m);
            self.two.len() - 1
        });
        i as u32
    }
}

/// One connected component's trajectory: its width and its steps in time
/// order. Qubit indices are local to the component's state.
struct Program {
    width: usize,
    steps: Vec<Step>,
}

/// One step of a [`Program`]. Every field is fixed by the schedule, the
/// calibration and the noise switches; only the RNG draws differ between
/// shots.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// `Matrices::one[mat]` on `q`, then depolarizing noise of strength
    /// `depol` (absent: no noise and no draw).
    Gate1 { q: u32, mat: u32, depol: Option<f64> },
    /// `Matrices::two[mat]` on `(a, b)`, then two-qubit depolarizing noise
    /// with the crosstalk factor (and the SWAP's three CNOTs) folded in.
    Gate2 { a: u32, b: u32, mat: u32, depol: Option<f64> },
    /// Idle decoherence of `q` over the gap before its next operation.
    Idle { q: u32, channel: IdleChannel },
    /// Measurement of `q` with readout flip probability `readout`, into
    /// `clbit` when there is one.
    Measure { q: u32, readout: Option<f64>, clbit: Option<u32> },
}

impl Program {
    /// Runs one trajectory from `|0…0⟩` in `state` (reset here); returns
    /// the measured bits positioned at their clbit indices.
    fn run(&self, mats: &Matrices, state: &mut StateVector, rng: &mut StdRng) -> u64 {
        state.reset();
        let mut bits: u64 = 0;
        for step in &self.steps {
            match *step {
                Step::Gate1 { q, mat, depol } => {
                    let q = q as usize;
                    state.apply_mat2(q, &mats.one[mat as usize]);
                    if let Some(p) = depol {
                        NoiseModel::depolarize_1q(state, q, p, rng);
                    }
                }
                Step::Gate2 { a, b, mat, depol } => {
                    let (a, b) = (a as usize, b as usize);
                    state.apply_mat4(a, b, &mats.two[mat as usize]);
                    if let Some(p) = depol {
                        NoiseModel::depolarize_2q(state, a, b, p, rng);
                    }
                }
                Step::Idle { q, channel } => channel.apply(state, q as usize, rng),
                Step::Measure { q, readout, clbit } => {
                    let mut bit = state.measure_qubit(q as usize, rng);
                    if let Some(error) = readout {
                        bit = NoiseModel::readout_flip(bit, error, rng);
                    }
                    if let (true, Some(c)) = (bit, clbit) {
                        bits |= 1u64 << c;
                    }
                }
            }
        }
        bits
    }
}

/// Derives shot `shot`'s RNG seed from the base seed (SplitMix64-style
/// finalizer). Independent of thread layout, so sequential and parallel
/// execution sample identical trajectories.
fn shot_stream_seed(base: u64, shot: u64) -> u64 {
    let mut z = base ^ shot.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x2545_f491_4f6c_dd1d);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn edge_of(circuit: &Circuit, i: usize) -> Edge {
    circuit.instructions()[i]
        .edge()
        .map(Edge::from)
        .expect("two-qubit instruction has an edge")
}

/// Connected components of the circuit's interaction graph: qubits joined
/// by any multi-qubit *unitary* (barriers and measurements do not
/// entangle). Only active qubits appear.
#[allow(clippy::needless_range_loop)]
fn components(circuit: &Circuit) -> Vec<Vec<usize>> {
    let n = circuit.num_qubits();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let root = find(parent, parent[x]);
            parent[x] = root;
        }
        parent[x]
    }
    let mut active = vec![false; n];
    for instr in circuit.iter() {
        if instr.gate().is_barrier() {
            continue;
        }
        for q in instr.qubits() {
            active[q.index()] = true;
        }
        if instr.gate().is_two_qubit() {
            let a = find(&mut parent, instr.qubits()[0].index());
            let b = find(&mut parent, instr.qubits()[1].index());
            parent[a] = b;
        }
    }
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for q in 0..n {
        if active[q] {
            let root = find(&mut parent, q);
            groups.entry(root).or_default().push(q);
        }
    }
    groups.into_values().collect()
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_device::{CrosstalkMap, Device};

    fn noiseless() -> ExecutorConfig {
        ExecutorConfig {
            shots: 256,
            seed: 7,
            gate_noise: false,
            crosstalk: false,
            decoherence: false,
            readout_noise: false,
            compound_crosstalk: false,
        }
    }

    #[test]
    fn noiseless_bell_is_perfectly_correlated() {
        let device = Device::line(2, 0);
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure_all();
        let sched = Executor::asap_schedule(&c, device.calibration());
        let counts = Executor::with_config(&device, noiseless()).run(&sched);
        for (b, _) in counts.iter() {
            assert!(b == 0b00 || b == 0b11, "uncorrelated outcome {b:#b}");
        }
    }

    #[test]
    fn asap_schedule_is_valid_and_compact() {
        let device = Device::line(3, 0);
        let mut c = Circuit::new(3, 0);
        c.h(0).cx(0, 1).cx(1, 2);
        let sched = Executor::asap_schedule(&c, device.calibration());
        sched.validate().unwrap();
        assert_eq!(sched.slot(0).start, 0);
        assert_eq!(sched.slot(1).start, sched.slot(0).finish());
    }

    #[test]
    fn readout_noise_flips_bits() {
        let device = Device::line(1, 0);
        let mut c = Circuit::new(1, 1);
        c.measure(0, 0);
        let sched = Executor::asap_schedule(&c, device.calibration());
        let mut cfg = noiseless();
        cfg.readout_noise = true;
        cfg.shots = 4096;
        let counts = Executor::with_config(&device, cfg).run(&sched);
        let p1 = counts.probability(1);
        let expected = device.calibration().readout_error(0);
        assert!((p1 - expected).abs() < 0.02, "flip rate {p1} vs {expected}");
    }

    #[test]
    fn gate_noise_degrades_ghz() {
        let device = Device::line(3, 1);
        let mut c = Circuit::new(3, 3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let sched = Executor::asap_schedule(&c, device.calibration());
        let mut cfg = noiseless();
        cfg.gate_noise = true;
        cfg.shots = 2048;
        let counts = Executor::with_config(&device, cfg).run(&sched);
        let good = counts.probability(0b000) + counts.probability(0b111);
        assert!(good < 1.0);
        assert!(good > 0.8, "too much noise: {good}");
    }

    #[test]
    fn crosstalk_amplifies_error_when_overlapping() {
        // Two CNOT pairs on a 4-qubit line with a planted 10x factor.
        let mut device = Device::line(4, 2);
        let mut xt = CrosstalkMap::new();
        xt.set_symmetric(Edge::new(0, 1), Edge::new(2, 3), 10.0, 10.0);
        device = device.with_crosstalk(xt);
        let mut cal = device.calibration().clone();
        cal.set_cx_error(Edge::new(0, 1), 0.03);
        cal.set_cx_error(Edge::new(2, 3), 0.03);
        let device = device.with_calibration(cal);

        let mut c = Circuit::new(4, 4);
        for _ in 0..6 {
            c.cx(0, 1).cx(2, 3);
        }
        c.measure_all();

        let run = |parallel: bool| {
            let sched = if parallel {
                Executor::asap_schedule(&c, device.calibration())
            } else {
                // Serialize by spacing starts.
                let mut t = 0;
                let mut slots = Vec::new();
                for instr in c.iter() {
                    let d = device.calibration().duration_of(instr.gate(), instr.qubits());
                    slots.push(ScheduleSlot::new(t, d));
                    t += d;
                }
                ScheduledCircuit::new(c.clone(), slots).unwrap()
            };
            let mut cfg = noiseless();
            cfg.gate_noise = true;
            cfg.crosstalk = true;
            cfg.shots = 4096;
            let counts = Executor::with_config(&device, cfg).run(&sched);
            counts.probability(0)
        };

        let p_parallel = run(true);
        let p_serial = run(false);
        assert!(
            p_serial > p_parallel + 0.1,
            "serialization should help: serial {p_serial} parallel {p_parallel}"
        );
    }

    #[test]
    fn decoherence_hurts_idle_qubits() {
        let mut device = Device::line(1, 3);
        let mut cal = device.calibration().clone();
        cal.set_coherence_us(0, 5.0, 5.0);
        device = device.with_calibration(cal);
        let mut c = Circuit::new(1, 1);
        c.x(0).measure(0, 0);
        // Insert a huge idle gap between X and measurement.
        let d_x = device.calibration().duration_of(&Gate::X, &[xtalk_ir::Qubit::new(0)]);
        let slots = vec![
            ScheduleSlot::new(0, d_x),
            ScheduleSlot::new(10_000, 1000), // 10 µs idle ≈ 2 T1
        ];
        let sched = ScheduledCircuit::new(c, slots).unwrap();
        let mut cfg = noiseless();
        cfg.decoherence = true;
        cfg.shots = 2048;
        let counts = Executor::with_config(&device, cfg).run(&sched);
        let p1 = counts.probability(1);
        assert!(p1 < 0.30, "excited population should decay, got {p1}");
    }

    #[test]
    fn run_parallel_is_bit_identical_to_run() {
        let device = Device::line(3, 1);
        let mut c = Circuit::new(3, 3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let sched = Executor::asap_schedule(&c, device.calibration());
        // 1000 shots: deliberately not a multiple of the thread count.
        let cfg = ExecutorConfig { shots: 1000, seed: 99, ..Default::default() };
        let exec = Executor::with_config(&device, cfg);
        let serial = exec.run(&sched);
        for threads in [2, 3, 4, 7] {
            assert_eq!(
                serial,
                exec.run_parallel(&sched, threads),
                "thread count {threads} changed the counts"
            );
        }
        // `0` = auto must also match.
        assert_eq!(serial, exec.run_parallel(&sched, 0));
    }

    #[test]
    fn run_parallel_handles_more_threads_than_shots() {
        let device = Device::line(2, 0);
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure_all();
        let sched = Executor::asap_schedule(&c, device.calibration());
        let mut cfg = noiseless();
        cfg.shots = 3;
        let exec = Executor::with_config(&device, cfg);
        let counts = exec.run_parallel(&sched, 64);
        assert_eq!(counts.shots(), 3);
        assert_eq!(counts, exec.run(&sched));
    }

    #[test]
    fn run_budgeted_unlimited_matches_run() {
        let device = Device::line(3, 1);
        let mut c = Circuit::new(3, 3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let sched = Executor::asap_schedule(&c, device.calibration());
        // Not a multiple of the batch size.
        let cfg = ExecutorConfig { shots: 1000, seed: 99, ..Default::default() };
        let exec = Executor::with_config(&device, cfg);
        let serial = exec.run(&sched);
        for threads in [1usize, 2, 4, 7] {
            let out = exec.run_budgeted(&sched, threads, &Budget::unlimited());
            assert!(out.complete);
            assert_eq!(out.shots_completed, 1000);
            assert_eq!(out.shots_requested, 1000);
            assert_eq!(out.counts, serial, "thread count {threads} changed the counts");
        }
    }

    #[test]
    fn run_budgeted_cancelled_returns_empty_partial() {
        let device = Device::line(2, 0);
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure_all();
        let sched = Executor::asap_schedule(&c, device.calibration());
        let exec = Executor::with_config(&device, noiseless());
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let out = exec.run_budgeted(&sched, 4, &budget);
        assert!(!out.complete);
        assert_eq!(out.shots_completed, 0);
        assert_eq!(out.counts.shots(), 0);
    }

    #[test]
    fn partial_counts_match_fresh_run_of_prefix_at_any_thread_count() {
        // The acceptance contract: whatever `shots_completed` a truncated
        // run reports, its counts equal a fresh full run configured with
        // exactly that many shots, at any thread count.
        let device = Device::line(3, 1);
        let mut c = Circuit::new(3, 3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let sched = Executor::asap_schedule(&c, device.calibration());
        let cfg = ExecutorConfig { shots: 1000, seed: 5, ..Default::default() };
        let exec = Executor::with_config(&device, cfg);
        // A quota budget truncates mid-run; racing threads make the exact
        // stop point nondeterministic, which is precisely the point.
        let out =
            exec.run_budgeted(&sched, 4, &Budget::unlimited().with_quota(7));
        assert!(!out.complete);
        assert!(out.shots_completed > 0 && out.shots_completed < 1000);
        assert_eq!(out.shots_completed % BUDGET_BATCH_SHOTS, 0);
        let fresh_cfg = ExecutorConfig { shots: out.shots_completed, ..cfg };
        let fresh = Executor::with_config(&device, fresh_cfg);
        for threads in [1usize, 3, 8] {
            assert_eq!(
                fresh.run_parallel(&sched, threads),
                out.counts,
                "partial counts diverge from a fresh {}-shot run at {threads} threads",
                out.shots_completed
            );
        }
    }

    #[test]
    fn shot_seeds_are_distinct_streams() {
        // Adjacent shots and adjacent base seeds must not collide.
        let mut seen = std::collections::HashSet::new();
        for base in 0..8u64 {
            for shot in 0..64u64 {
                assert!(seen.insert(shot_stream_seed(base, shot)));
            }
        }
    }

    #[test]
    fn disjoint_components_execute_independently() {
        let device = Device::line(4, 0);
        let mut c = Circuit::new(4, 4);
        c.x(0).cx(2, 3).measure_all();
        let comps = components(&c);
        // Qubit 1 is active (it is measured) but entangled with nothing.
        assert_eq!(comps, vec![vec![0], vec![1], vec![2, 3]]);
        let sched = Executor::asap_schedule(&c, device.calibration());
        let counts = Executor::with_config(&device, noiseless()).run(&sched);
        // Qubit 0 always 1; qubits 2,3 always 0; qubit 1 unmeasured→0.
        assert_eq!(counts.probability(0b0001), 1.0);
    }
}

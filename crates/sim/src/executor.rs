//! Noisy execution of scheduled circuits against a device model.

use crate::matrix::{single_qubit_matrix, two_qubit_matrix, Mat2, Mat4};
use crate::noise::{
    depolarizing_prob_for_error_1q, depolarizing_prob_for_error_2q, IdleChannel, NoiseModel,
};
use crate::state::{self, kernel, sample_outcome};
use crate::{Counts, C64};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::mem::Discriminant;
use std::sync::atomic::{AtomicU64, Ordering};
use xtalk_budget::Budget;
use xtalk_device::{Calibration, Device, Edge};
use xtalk_ir::{Circuit, Gate, OverlapSweep, ScheduleSlot, ScheduledCircuit};

/// Shots per batch in [`Executor::run_budgeted`]. Fixed (independent of
/// the thread count) so the set of completed shots under an exhausted
/// budget is always a prefix `0..shots_completed` whose counts are
/// bit-identical to a fresh run of exactly that many shots at any thread
/// count.
const BUDGET_BATCH_SHOTS: u64 = 64;

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
    /// Runs on the calling thread in batches of 4,096 shots, so a run of up
    /// to that many shots is one shared-trajectory block. Every
    /// trajectory derives its own RNG stream from `(seed, shot)`, so the
    /// counts equal [`Executor::run_budgeted`]'s under an unlimited budget
    /// at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is invalid ([`ScheduledCircuit::validate`])
    /// or if a component exceeds the statevector limit.
    pub fn run(&self, sched: &ScheduledCircuit) -> Counts {
        let _span = xtalk_obs::span("sim.run_parallel");
        self.run_batches(sched, 1, LANE_BLOCK as u64, &Budget::unlimited()).counts
    }

    /// Executes the schedule across `threads` OS threads (`0` = all
    /// available parallelism) under a cooperative [`Budget`], checked only
    /// at shot-batch boundaries.
    ///
    /// Shots run in fixed batches of 64, claimed in index order; a worker
    /// polls the budget *before* claiming and always finishes a batch it
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
        self.run_batches(sched, threads, BUDGET_BATCH_SHOTS, budget)
    }

    /// The batch loop behind both entries. Shots are cut into batches of
    /// `batch` shots, claimed in index order from one atomic counter by
    /// `threads` workers (`0` = available parallelism; never more workers
    /// than batches). A worker polls `budget` *before* each claim and
    /// always finishes a batch it claimed, so the completed batches form a
    /// prefix `0..n` whatever the thread count. Each batch runs as one
    /// [`Runner`] block, so `batch` must not exceed [`LANE_BLOCK`].
    fn run_batches(
        &self,
        sched: &ScheduledCircuit,
        threads: usize,
        batch: u64,
        budget: &Budget,
    ) -> RunOutcome {
        debug_assert!(batch > 0 && batch <= LANE_BLOCK as u64);
        sched.validate().expect("executor requires a valid schedule");
        let prep = self.prepare(sched);
        let shots = self.config.shots;
        let num_batches = shots.div_ceil(batch);
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
        .min(num_batches.max(1) as usize)
        .max(1);

        let next = AtomicU64::new(0);
        let run_worker = |thread_idx: usize| -> Counts {
            let mut counts = Counts::new(prep.num_clbits.max(1));
            let mut runner = Runner::new();
            loop {
                if budget.exhausted().is_some() {
                    break;
                }
                let claimed = next.fetch_add(1, Ordering::Relaxed);
                if claimed >= num_batches {
                    break;
                }
                let lo = claimed * batch;
                let hi = (lo + batch).min(shots);
                self.run_block(&prep, lo..hi, thread_idx, &mut runner, &mut counts);
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
                let mut counts = Counts::new(prep.num_clbits.max(1));
                for handle in handles {
                    counts.merge(&handle.join().expect("trajectory worker panicked"));
                }
                counts
            })
        };

        // Every batch index below the final counter value was claimed and
        // completed (overshoot past `num_batches` claims nothing).
        let claimed = next.load(Ordering::Relaxed).min(num_batches);
        let shots_completed = (claimed * batch).min(shots);
        debug_assert_eq!(counts.shots(), shots_completed);
        RunOutcome {
            counts,
            shots_completed,
            shots_requested: shots,
            complete: shots_completed == shots,
        }
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

        let edges = EdgeTable::new(circuit, self.device, cfg);
        let factor = self.crosstalk_factors(sched, &edges);

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
        let mut comp_instrs: Vec<Vec<(u64, usize)>> = vec![Vec::new(); comps.len()];
        let mut busy_until = vec![u64::MAX; circuit.num_qubits()];
        for (i, instr) in circuit.iter().enumerate() {
            if instr.gate().is_barrier() {
                continue;
            }
            let start = sched.slot(i).start;
            comp_instrs[home[instr.qubits()[0].index()].0].push((start, i));
            for q in instr.qubits() {
                busy_until[q.index()] = busy_until[q.index()].min(start);
            }
        }

        let mut mats = Matrices::default();
        // Idle channels by `(gap, qubit)`: a channel depends on nothing
        // else, and RB-style circuits repeat a handful of gaps per qubit.
        let mut idles: BTreeMap<(u64, u32), IdleChannel> = BTreeMap::new();
        let mut programs = Vec::with_capacity(comps.len());
        for (qubits, mut instrs) in comps.iter().zip(comp_instrs) {
            sort_nearly_sorted(&mut instrs);
            let mut steps = Vec::with_capacity(instrs.len());
            for (_, i) in instrs {
                let instr = &circuit.instructions()[i];
                let slot = sched.slot(i);
                let local = |k: usize| home[instr.qubits()[k].index()].1;
                for (k, q) in instr.qubits().iter().enumerate() {
                    let gap = slot.start.saturating_sub(busy_until[q.index()]);
                    busy_until[q.index()] = slot.finish();
                    if cfg.decoherence && gap > 0 {
                        let channel = *idles.entry((gap, q.raw())).or_insert_with(|| {
                            IdleChannel::new(
                                gap as f64,
                                cal.t1_us(q.raw()) * 1000.0,
                                cal.t2_us(q.raw()) * 1000.0,
                            )
                        });
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
                        depol: edges.of(i).cx_error.map(|p1| {
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

    /// Effective (crosstalk-conditioned) error factor per instruction (1
    /// off two-qubit gates): the paper's Eq. 6 takes the max conditional
    /// error over overlapping gates; with `compound_crosstalk` the excesses
    /// add instead.
    ///
    /// Only gates on an edge of some crosstalk entry whose other edge is in
    /// the circuit can move a factor, so the sweep visits the overlapping
    /// pairs among those alone — in the order the full sweep visits them,
    /// so compound sums add in the same order — and a circuit with none
    /// skips it.
    fn crosstalk_factors(&self, sched: &ScheduledCircuit, edges: &EdgeTable) -> Vec<f64> {
        let mut factor = vec![1.0f64; sched.circuit().len()];
        let involved = edges.involved();
        if !involved.iter().any(|&x| x) {
            return factor;
        }
        let gates = (0..factor.len())
            .filter(|&i| edges.ix[i] != u32::MAX && involved[edges.ix[i] as usize]);
        let compound = self.config.compound_crosstalk;
        OverlapSweep::default().run(gates, sched.slots(), |i, j| {
            let (ei, ej) = (edges.of(i), edges.of(j));
            let fi = ei.factor(ej.edge);
            let fj = ej.factor(ei.edge);
            if compound {
                factor[i] += fi - 1.0;
                factor[j] += fj - 1.0;
            } else {
                factor[i] = factor[i].max(fi);
                factor[j] = factor[j].max(fj);
            }
        });
        factor
    }

    /// Runs one batch, `shots`, as one block of the shared-trajectory
    /// [`Runner`], each shot on its own derived RNG stream, and records
    /// their outcomes in `counts`. Every component runs over the block in
    /// chunks of [`lanes_per_chunk`] lanes, in component order, so each
    /// lane's stream continues from one component to the next exactly as
    /// one shot's did.
    ///
    /// Per batch it also records the batch wall time, per-thread shot
    /// counts, and the sharing counters `sim.lane_steps` (shot-steps a
    /// per-shot interpreter would have run) and `sim.group_steps` (state
    /// updates made). Metrics never feed back into the trajectory RNG
    /// streams, so parallel results stay bit-identical whether profiling
    /// is on or off.
    fn run_block(
        &self,
        prep: &Prepared,
        shots: std::ops::Range<u64>,
        thread_idx: usize,
        runner: &mut Runner,
        counts: &mut Counts,
    ) {
        // `sim.batch` injection point: an injected error panics the batch
        // (propagating to the caller as a worker/job panic, exercising the
        // serve stack's quarantine path); a delay only stalls wall time.
        // Neither touches the per-shot RNG streams, so counts from
        // surviving runs stay bit-identical.
        if let Some(msg) = xtalk_fault::fire("sim.batch") {
            panic!("injected sim.batch fault: {msg}");
        }
        let _batch = xtalk_obs::span("sim.shot_batch");
        let steps_before = (runner.lane_steps, runner.group_steps);
        runner.begin_block(self.config.seed, shots);
        let lanes = runner.rngs.len();
        for program in &prep.programs {
            let chunk = runner.chunk.unwrap_or_else(|| lanes_per_chunk(program.width));
            for first in (0..lanes).step_by(chunk) {
                let last = lanes.min(first.saturating_add(chunk));
                runner.run_chunk(&prep.mats, program, first..last);
            }
        }
        for &bits in &runner.bits {
            counts.record(bits);
        }
        if xtalk_obs::enabled() {
            xtalk_obs::counter_add("sim.shots", lanes as u64);
            xtalk_obs::counter_add(&format!("sim.thread{thread_idx}.shots"), lanes as u64);
            xtalk_obs::counter_add("sim.lane_steps", runner.lane_steps - steps_before.0);
            xtalk_obs::counter_add("sim.group_steps", runner.group_steps - steps_before.1);
        }
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
    /// `one` indices by gate kind and parameter bits, so a repeated gate
    /// costs a lookup instead of its trigonometry.
    one_index: BTreeMap<GateKey, u32>,
    /// `two` indices by gate kind (`cx`, `cz` and `swap` have no
    /// parameters).
    two_index: Vec<(Discriminant<Gate>, u32)>,
}

impl Matrices {
    /// Index of a single-qubit gate's matrix, interning it on first use.
    fn one(&mut self, gate: &Gate) -> u32 {
        *self.one_index.entry(GateKey::new(gate)).or_insert_with(|| {
            self.one.push(single_qubit_matrix(gate));
            (self.one.len() - 1) as u32
        })
    }

    /// Index of a two-qubit gate's matrix, interning it on first use.
    fn two(&mut self, gate: &Gate) -> u32 {
        let kind = std::mem::discriminant(gate);
        if let Some(&(_, i)) = self.two_index.iter().find(|(k, _)| *k == kind) {
            return i;
        }
        self.two.push(two_qubit_matrix(gate));
        let i = (self.two.len() - 1) as u32;
        self.two_index.push((kind, i));
        i
    }
}

/// A single-qubit gate's interning key: its kind and its parameters'
/// bits, built without allocating. Ordered, not hashed: the angles come
/// from the submitted circuit, so an ordered map keeps a crafted set of
/// them from degrading every lookup.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct GateKey {
    kind: u8,
    params: [u64; 3],
}

impl GateKey {
    fn new(gate: &Gate) -> GateKey {
        let (kind, params) = match *gate {
            Gate::I => (0, [0.0; 3]),
            Gate::X => (1, [0.0; 3]),
            Gate::Y => (2, [0.0; 3]),
            Gate::Z => (3, [0.0; 3]),
            Gate::H => (4, [0.0; 3]),
            Gate::S => (5, [0.0; 3]),
            Gate::Sdg => (6, [0.0; 3]),
            Gate::T => (7, [0.0; 3]),
            Gate::Tdg => (8, [0.0; 3]),
            Gate::U1(l) => (9, [l, 0.0, 0.0]),
            Gate::U2(p, l) => (10, [p, l, 0.0]),
            Gate::U3(t, p, l) => (11, [t, p, l]),
            Gate::Rx(a) => (12, [a, 0.0, 0.0]),
            Gate::Ry(a) => (13, [a, 0.0, 0.0]),
            Gate::Rz(a) => (14, [a, 0.0, 0.0]),
            // Not single-qubit unitaries: `single_qubit_matrix` rejects them.
            Gate::Cx | Gate::Cz | Gate::Swap | Gate::Measure | Gate::Barrier => (15, [0.0; 3]),
        };
        GateKey { kind, params: params.map(f64::to_bits) }
    }
}

/// The distinct two-qubit edges of a run: each one's independent error
/// (with gate noise) and crosstalk row (with crosstalk), looked up once.
struct EdgeTable {
    index: BTreeMap<Edge, u32>,
    info: Vec<EdgeInfo>,
    /// Per instruction: its edge's record, `u32::MAX` off two-qubit gates.
    ix: Vec<u32>,
}

struct EdgeInfo {
    edge: Edge,
    cx_error: Option<f64>,
    /// `(aggressor, factor)` for every map entry that names this edge as
    /// affected.
    aggressors: Vec<(Edge, f64)>,
}

impl EdgeTable {
    /// The table of `circuit`'s two-qubit gates, under the noise switches
    /// of `cfg`.
    fn new(circuit: &Circuit, device: &Device, cfg: ExecutorConfig) -> EdgeTable {
        let mut table = EdgeTable { index: BTreeMap::new(), info: Vec::new(), ix: Vec::new() };
        table.ix = circuit
            .iter()
            .enumerate()
            .map(|(i, instr)| {
                if instr.gate().is_two_qubit() {
                    table.intern(edge_of(circuit, i), device, cfg)
                } else {
                    u32::MAX
                }
            })
            .collect();
        table
    }

    /// The record of two-qubit instruction `i`'s edge.
    fn of(&self, i: usize) -> &EdgeInfo {
        &self.info[self.ix[i] as usize]
    }

    /// Index of `edge`'s record, looking it up on first use.
    fn intern(&mut self, edge: Edge, device: &Device, cfg: ExecutorConfig) -> u32 {
        let info = &mut self.info;
        *self.index.entry(edge).or_insert_with(|| {
            info.push(EdgeInfo {
                edge,
                cx_error: cfg.gate_noise.then(|| device.calibration().cx_error(edge)),
                aggressors: if cfg.crosstalk {
                    device.crosstalk().aggressors(edge).collect()
                } else {
                    Vec::new()
                },
            });
            (info.len() - 1) as u32
        })
    }

    /// Per edge: `true` if it is either edge of a crosstalk entry whose
    /// other edge is in the table too. An overlap of two gates can only
    /// change a factor if both are.
    fn involved(&self) -> Vec<bool> {
        let mut involved = vec![false; self.info.len()];
        for (e, info) in self.info.iter().enumerate() {
            for (a, _) in &info.aggressors {
                if let Some(&k) = self.index.get(a) {
                    involved[e] = true;
                    involved[k as usize] = true;
                }
            }
        }
        involved
    }
}

impl EdgeInfo {
    /// The factor by which `aggressor` worsens this edge (1 without an
    /// entry): the map's own value.
    fn factor(&self, aggressor: Edge) -> f64 {
        self.aggressors.iter().find(|(a, _)| *a == aggressor).map_or(1.0, |&(_, f)| f)
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

/// Bytes of group states one chunk of lanes may hold. A chunk of a
/// `w`-qubit component has [`lanes_per_chunk`]`(w)` lanes, and a group
/// always keeps at least one lane, so its states fit in `BUDGET` (or are
/// one state, when a single state is larger).
const BUDGET: usize = 1 << 20;

/// Lanes per [`Runner`] block, and shots per batch in [`Executor::run`]:
/// bounds the per-lane bookkeeping (RNG stream, outcome, position) however
/// many shots run.
const LANE_BLOCK: usize = 4096;

/// Lanes simulated together in one chunk of a `width`-qubit component.
fn lanes_per_chunk(width: usize) -> usize {
    (BUDGET / (std::mem::size_of::<C64>() << width)).max(1)
}

/// The shared-trajectory runner: simulates a chunk of shots ("lanes") of
/// one component at once, keeping one state per *group* of lanes whose
/// noise histories agree so far.
///
/// Each step applies its unitary once per group. Every lane then makes the
/// draws the per-shot interpreter made at that step, in the same order and
/// on its own RNG stream; a group whose lanes pick different branches
/// (Pauli error, damping branch, dephasing flip, measurement outcome)
/// keeps its most common branch and hands each other branch's lanes to a
/// child copied from it *before* the branch is applied. So every group's
/// state is bit for bit the state each of its lanes would have computed
/// alone. One runner serves one thread; its buffers are reused across
/// chunks, components and shot batches.
struct Runner {
    /// Lanes per chunk, overriding [`lanes_per_chunk`] (tests only).
    chunk: Option<usize>,
    /// Per lane of the block: its RNG stream and its measured bits.
    rngs: Vec<StdRng>,
    bits: Vec<u64>,
    /// The chunk's lanes, grouped: each group owns a contiguous range.
    order: Vec<u32>,
    /// The branch drawn by the lane at each position of `order`.
    keys: Vec<u8>,
    /// Counting-sort scratch for `order`.
    sorted: Vec<u32>,
    groups: Vec<Group>,
    /// The groups' states back to back, group `g` at `g·2^w`, so a unitary
    /// step is one kernel call over every group. Cleared (not freed) when
    /// a chunk ends; its capacity is the largest chunk's need.
    states: Vec<C64>,
    /// Shot-steps a per-shot interpreter would have run, and state
    /// updates actually made, over the runner's life.
    lane_steps: u64,
    group_steps: u64,
}

/// Lanes `order[lo..hi]` sharing one state.
struct Group {
    lo: usize,
    hi: usize,
}

impl Runner {
    fn new() -> Self {
        Runner {
            chunk: None,
            rngs: Vec::new(),
            bits: Vec::new(),
            order: Vec::new(),
            keys: Vec::new(),
            sorted: Vec::new(),
            groups: Vec::new(),
            states: Vec::new(),
            lane_steps: 0,
            group_steps: 0,
        }
    }

    /// Seeds one lane per shot of `shots` from `(seed, shot)` and clears
    /// their outcomes.
    fn begin_block(&mut self, seed: u64, shots: std::ops::Range<u64>) {
        self.rngs.clear();
        self.rngs.extend(shots.map(|shot| StdRng::seed_from_u64(shot_stream_seed(seed, shot))));
        self.bits.clear();
        self.bits.resize(self.rngs.len(), 0);
    }

    /// Runs `program` from `|0…0⟩` for block lanes `lanes`, ORing each
    /// lane's measured bits (at their clbit indices) into `bits`.
    fn run_chunk(&mut self, mats: &Matrices, program: &Program, lanes: std::ops::Range<usize>) {
        state::assert_width(program.width);
        let dim = 1usize << program.width;
        self.order.clear();
        self.order.extend(lanes.map(|l| l as u32));
        self.keys.resize(self.order.len(), 0);
        // At most one state per lane: reserve them all up front, so the
        // buffer grows to the chunk's budget at most once.
        self.states.clear();
        self.states.reserve_exact(self.order.len() * dim);
        self.states.resize(dim, C64::ZERO);
        self.states[0] = C64::ONE;
        self.groups.push(Group { lo: 0, hi: self.order.len() });
        for step in &program.steps {
            match *step {
                Step::Gate1 { q, mat, depol } => {
                    let q = q as usize;
                    kernel::apply_mat2(&mut self.states, q, &mats.one[mat as usize]);
                    if let Some(p) = depol {
                        self.split::<4, _>(
                            dim,
                            |_| (),
                            |_, rng, _| NoiseModel::sample_pauli_1q(p, rng),
                            |s, _, k| NoiseModel::apply_pauli_1q(s, q, k),
                        );
                    }
                }
                Step::Gate2 { a, b, mat, depol } => {
                    let (a, b) = (a as usize, b as usize);
                    kernel::apply_mat4(&mut self.states, a, b, &mats.two[mat as usize]);
                    if let Some(p) = depol {
                        self.split::<16, _>(
                            dim,
                            |_| (),
                            |_, rng, _| NoiseModel::sample_pauli_2q(p, rng),
                            |s, _, k| NoiseModel::apply_pauli_2q(s, a, b, k),
                        );
                    }
                }
                Step::Idle { q, channel } => {
                    let q = q as usize;
                    self.split::<4, _>(
                        dim,
                        |s| channel.weigh(s, q),
                        |&w, rng, _| channel.sample_branch(w, rng),
                        |s, &w, k| channel.apply_branch(s, q, w, k),
                    );
                }
                Step::Measure { q, readout, clbit } => {
                    let q = q as usize;
                    self.split::<2, _>(
                        dim,
                        |s| kernel::prob_one(s, q),
                        |&p1, rng, bits| {
                            let outcome = sample_outcome(p1, rng);
                            let mut bit = outcome;
                            if let Some(error) = readout {
                                bit = NoiseModel::readout_flip(bit, error, rng);
                            }
                            if let (true, Some(c)) = (bit, clbit) {
                                *bits |= 1u64 << c;
                            }
                            usize::from(outcome)
                        },
                        |s, &p1, k| kernel::collapse(s, q, k == 1, p1),
                    );
                }
            }
            self.group_steps += self.groups.len() as u64;
        }
        self.lane_steps += (program.steps.len() * self.order.len()) as u64;
        self.groups.clear();
    }

    /// Splits every live group by the branch its lanes draw, one of `N`.
    /// For each group, `prepare` evaluates what the draws depend on
    /// (branch weights, `P(1)`) on its state (`dim` amplitudes), once;
    /// `draw` makes one lane's draws from its RNG (and may record its
    /// measured bit) and returns its branch; `apply` puts a state on a
    /// branch. Children are pushed after the groups visited, so a step
    /// never revisits them.
    fn split<const N: usize, P>(
        &mut self,
        dim: usize,
        prepare: impl Fn(&[C64]) -> P,
        mut draw: impl FnMut(&P, &mut StdRng, &mut u64) -> usize,
        apply: impl Fn(&mut [C64], &P, usize),
    ) {
        let Runner { rngs, bits, order, keys, sorted, groups, states, .. } = self;
        for g in 0..groups.len() {
            let (lo, hi) = (groups[g].lo, groups[g].hi);
            let own = g * dim..(g + 1) * dim;
            let pre = prepare(&states[own.clone()]);
            if hi - lo == 1 {
                let lane = order[lo] as usize;
                let k = draw(&pre, &mut rngs[lane], &mut bits[lane]);
                apply(&mut states[own], &pre, k);
                continue;
            }
            let mut count = [0usize; N];
            for pos in lo..hi {
                let lane = order[pos] as usize;
                let k = draw(&pre, &mut rngs[lane], &mut bits[lane]);
                keys[pos] = k as u8;
                count[k] += 1;
            }
            // The parent keeps its most common branch (ties: the lowest),
            // so a group never empties within a step.
            let first = keys[lo] as usize;
            let keep = if count[first] == hi - lo {
                first
            } else {
                (0..N).fold(0, |best, k| if count[k] > count[best] { k } else { best })
            };
            if count[keep] < hi - lo {
                // Counting sort of the group's lanes by branch, `keep`
                // first, so every branch owns a contiguous range.
                let mut start = [0usize; N];
                let mut next = lo + count[keep];
                start[keep] = lo;
                for k in (0..N).filter(|&k| k != keep) {
                    start[k] = next;
                    next += count[k];
                }
                let mut fill = start;
                sorted.resize(hi - lo, 0);
                for pos in lo..hi {
                    let k = keys[pos] as usize;
                    sorted[fill[k] - lo] = order[pos];
                    fill[k] += 1;
                }
                order[lo..hi].copy_from_slice(&sorted[..hi - lo]);
                for k in (0..N).filter(|&k| k != keep && count[k] > 0) {
                    let child = states.len();
                    states.extend_from_within(own.clone());
                    apply(&mut states[child..], &pre, k);
                    groups.push(Group { lo: start[k], hi: start[k] + count[k] });
                }
                groups[g].hi = lo + count[keep];
            }
            apply(&mut states[own], &pre, keep);
        }
    }
}

/// Sorts `v` ascending. A component's instructions arrive in circuit
/// order, and each qubit's in time order, so an insertion sort moves few
/// of them; one that would move more than a few per element falls back
/// to the general sort. Keys must be distinct for the result to be
/// unique.
fn sort_nearly_sorted<T: Ord + Copy>(v: &mut [T]) {
    let mut moves = 4 * v.len();
    for k in 1..v.len() {
        let x = v[k];
        let mut j = k;
        while j > 0 && v[j - 1] > x {
            if moves == 0 {
                v[j] = x;
                v.sort_unstable();
                return;
            }
            moves -= 1;
            v[j] = v[j - 1];
            j -= 1;
        }
        v[j] = x;
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
    // Components in the order of their roots, each's qubits ascending.
    let mut slot = vec![usize::MAX; n];
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for q in 0..n {
        if active[q] {
            let root = find(&mut parent, q);
            if slot[root] == usize::MAX {
                slot[root] = groups.len();
                groups.push((root, Vec::new()));
            }
            groups[slot[root]].1.push(q);
        }
    }
    groups.sort_unstable_by_key(|&(root, _)| root);
    groups.into_iter().map(|(_, qubits)| qubits).collect()
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
    fn run_budgeted_handles_more_threads_than_shots() {
        let device = Device::line(2, 0);
        let mut c = Circuit::new(2, 2);
        c.h(0).cx(0, 1).measure_all();
        let sched = Executor::asap_schedule(&c, device.calibration());
        let mut cfg = noiseless();
        cfg.shots = 3;
        let exec = Executor::with_config(&device, cfg);
        let counts = exec.run_budgeted(&sched, 64, &Budget::unlimited()).counts;
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
        // `0` = available parallelism must match too.
        for threads in [0usize, 1, 2, 3, 4, 7] {
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
                fresh.run_budgeted(&sched, threads, &Budget::unlimited()).counts,
                out.counts,
                "partial counts diverge from a fresh {}-shot run at {threads} threads",
                out.shots_completed
            );
        }
    }

    #[test]
    fn lane_chunks_fit_the_state_budget() {
        for width in 0..=26 {
            let state = std::mem::size_of::<C64>() << width;
            let lanes = lanes_per_chunk(width);
            assert!(lanes >= 1, "width {width}: no lane");
            assert!(lanes * state <= BUDGET.max(state), "width {width}: {lanes} lanes overflow");
            assert!((lanes + 1) * state > BUDGET, "width {width}: {lanes} lanes leave room unused");
        }
    }

    #[test]
    fn states_stay_within_the_budget_on_a_wide_component() {
        // One 14-qubit component: 256 KiB per state, so 4 lanes per chunk
        // and 1024 chunks. A heavily depolarized H and a measurement split
        // every chunk into up to four groups. (A hand-built program: the
        // 13 CNOTs joining 14 qubits would dominate the test's run time.)
        let mut mats = Matrices::default();
        let h = mats.one(&Gate::H);
        let steps = vec![
            Step::Gate1 { q: 0, mat: h, depol: Some(0.75) },
            Step::Measure { q: 0, readout: None, clbit: Some(0) },
        ];
        let prep = Prepared { num_clbits: 1, mats, programs: vec![Program { width: 14, steps }] };
        let device = Device::line(1, 0);
        let exec = Executor::with_config(&device, ExecutorConfig { shots: 4096, ..noiseless() });
        let mut runner = Runner::new();
        let mut counts = Counts::new(1);
        exec.run_block(&prep, 0..4096, 0, &mut runner, &mut counts);
        assert_eq!(counts.shots(), 4096);
        let state = std::mem::size_of::<C64>() << 14;
        let held = runner.states.capacity() * std::mem::size_of::<C64>();
        assert!(held <= BUDGET + state, "held {held} bytes against a budget of {BUDGET}");
        assert!(runner.group_steps > 2 * 1024, "the chunks never split");
    }

    #[test]
    fn nearly_sorted_lists_sort_like_the_general_sort() {
        let mut rng = StdRng::seed_from_u64(8);
        for len in [0usize, 1, 2, 7, 120, 600] {
            // Runs of local disorder, as a component's circuit order
            // gives, and a reversed list that exhausts the move budget.
            let mut near: Vec<(u64, usize)> = (0..len)
                .map(|i| ((i as u64 / 3) * 10 + rand::Rng::gen_range(&mut rng, 0..25u64), i))
                .collect();
            let mut reversed: Vec<(u64, usize)> = (0..len).map(|i| ((len - i) as u64, i)).collect();
            for v in [&mut near, &mut reversed] {
                let mut want = v.clone();
                want.sort_unstable();
                sort_nearly_sorted(v);
                assert_eq!(*v, want, "length {len}");
            }
        }
    }

    #[test]
    fn gate_keys_hold_the_parameter_bits() {
        let gates = [
            Gate::H,
            Gate::X,
            Gate::U1(0.5),
            Gate::U1(-0.5),
            Gate::Rz(0.5),
            Gate::U2(0.0, std::f64::consts::PI),
            Gate::U3(0.1, 0.2, 0.3),
            Gate::U3(0.1, 0.3, 0.2),
            Gate::Rx(0.25),
            Gate::Ry(0.25),
        ];
        for (a, ga) in gates.iter().enumerate() {
            let key = GateKey::new(ga);
            let params: Vec<u64> = ga.params().iter().map(|p| p.to_bits()).collect();
            assert_eq!(key.params[..params.len()], params[..], "{ga}");
            assert!(key.params[params.len()..].iter().all(|&b| b == 0), "{ga}");
            for (b, gb) in gates.iter().enumerate() {
                assert_eq!(key == GateKey::new(gb), a == b, "{ga} vs {gb}");
            }
        }
        // Interning: one matrix per distinct gate.
        let mut mats = Matrices::default();
        let ids: Vec<u32> = gates.iter().chain(&gates).map(|g| mats.one(g)).collect();
        assert_eq!(ids[..gates.len()], ids[gates.len()..]);
        assert_eq!(mats.one.len(), gates.len());
        assert_eq!((mats.two(&Gate::Cx), mats.two(&Gate::Swap), mats.two(&Gate::Cx)), (0, 1, 0));
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

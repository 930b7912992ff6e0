//! The executor as it was before trajectory programs — per-shot schedule
//! analysis, a fresh state per component, matrices rebuilt per gate and
//! the cloning Kraus step — kept as the oracle the compiled, shared-
//! trajectory path must match count for count.

use super::*;
use rand::Rng;
use std::collections::HashMap;
use crate::{StateVector, C64};
use xtalk_device::CrosstalkMap;
use xtalk_ir::Qubit;

impl Executor<'_> {
    /// All shots, sequentially, through the pre-compilation trajectory.
    fn run_reference(&self, sched: &ScheduledCircuit) -> Counts {
        sched.validate().expect("executor requires a valid schedule");
        let circuit = sched.circuit();
        let factor = self.reference_factors(sched);
        let comps = components(circuit);
        let comp_instrs: Vec<Vec<usize>> = comps
            .iter()
            .map(|qubits| {
                let mut idx: Vec<usize> = (0..circuit.len())
                    .filter(|&i| {
                        let instr = &circuit.instructions()[i];
                        !instr.gate().is_barrier()
                            && instr.qubits().iter().any(|q| qubits.contains(&q.index()))
                    })
                    .collect();
                idx.sort_by_key(|&i| (sched.slot(i).start, i));
                idx
            })
            .collect();

        let mut counts = Counts::new(circuit.num_clbits().max(1));
        for shot in 0..self.config.shots {
            let mut rng = StdRng::seed_from_u64(shot_stream_seed(self.config.seed, shot));
            let mut outcome: u64 = 0;
            for (qubits, instrs) in comps.iter().zip(&comp_instrs) {
                outcome |= self.run_trajectory(sched, qubits, instrs, &factor, &mut rng);
            }
            counts.record(outcome);
        }
        counts
    }

    /// The crosstalk factors as every overlapping pair's map lookups gave
    /// them.
    fn reference_factors(&self, sched: &ScheduledCircuit) -> Vec<f64> {
        let circuit = sched.circuit();
        let mut factor = vec![1.0f64; circuit.len()];
        if self.config.crosstalk {
            for (i, j) in sched.overlapping_two_qubit_pairs() {
                let ei = edge_of(circuit, i);
                let ej = edge_of(circuit, j);
                let fi = self.device.crosstalk().factor(ei, ej);
                let fj = self.device.crosstalk().factor(ej, ei);
                if self.config.compound_crosstalk {
                    factor[i] += fi - 1.0;
                    factor[j] += fj - 1.0;
                } else {
                    factor[i] = factor[i].max(fi);
                    factor[j] = factor[j].max(fj);
                }
            }
        }
        factor
    }

    /// One trajectory over one connected component; returns measured bits
    /// positioned at their clbit indices.
    fn run_trajectory(
        &self,
        sched: &ScheduledCircuit,
        comp_qubits: &[usize],
        instrs: &[usize],
        factor: &[f64],
        rng: &mut StdRng,
    ) -> u64 {
        let circuit = sched.circuit();
        let cal = self.device.calibration();
        let local: HashMap<usize, usize> =
            comp_qubits.iter().enumerate().map(|(l, &p)| (p, l)).collect();
        let mut state = StateVector::new(comp_qubits.len());
        let mut busy_until: Vec<u64> = comp_qubits
            .iter()
            .map(|&p| sched.qubit_first_start(Qubit::from(p)).unwrap_or(0))
            .collect();
        let mut bits: u64 = 0;

        for &i in instrs {
            let instr = &circuit.instructions()[i];
            let slot = sched.slot(i);
            let qs: Vec<usize> = instr.qubits().iter().map(|q| local[&q.index()]).collect();

            if self.config.decoherence {
                for (&lq, q) in qs.iter().zip(instr.qubits()) {
                    let gap = slot.start.saturating_sub(busy_until[lq]);
                    if gap > 0 {
                        idle_reference(
                            &mut state,
                            lq,
                            gap as f64,
                            cal.t1_us(q.raw()) * 1000.0,
                            cal.t2_us(q.raw()) * 1000.0,
                            rng,
                        );
                    }
                }
            }
            for &lq in &qs {
                busy_until[lq] = slot.finish();
            }

            match instr.gate() {
                Gate::Measure => {
                    let mut bit = state.measure_qubit(qs[0], rng);
                    if self.config.readout_noise {
                        bit = NoiseModel::readout_flip(
                            bit,
                            cal.readout_error(instr.qubits()[0].raw()),
                            rng,
                        );
                    }
                    if let Some(c) = instr.clbit() {
                        if bit {
                            bits |= 1u64 << c.index();
                        }
                    }
                }
                Gate::Barrier => {}
                g if g.is_two_qubit() => {
                    state.apply_gate(g, &qs);
                    if self.config.gate_noise {
                        let e = edge_of(circuit, i);
                        let base = match g {
                            Gate::Swap => {
                                let p1 = cal.cx_error(e);
                                1.0 - (1.0 - p1).powi(3)
                            }
                            _ => cal.cx_error(e),
                        };
                        let eff = (base * factor[i]).min(1.0);
                        let p = depolarizing_prob_for_error_2q(eff);
                        NoiseModel::depolarize_2q(&mut state, qs[0], qs[1], p, rng);
                    }
                }
                g => {
                    state.apply_gate(g, &qs);
                    if self.config.gate_noise && !g.is_virtual() {
                        let p =
                            depolarizing_prob_for_error_1q(cal.sq_error(instr.qubits()[0].raw()));
                        NoiseModel::depolarize_1q(&mut state, qs[0], p, rng);
                    }
                }
            }
        }
        bits
    }
}

/// Lanes per chunk the shared-trajectory runner is checked at: single
/// lanes, chunks that do not divide the shot count, and whole blocks.
const CHUNKS: [usize; 6] = [1, 2, 3, 7, 64, usize::MAX];

impl Executor<'_> {
    /// All shots as one [`Runner`] block with `chunk` lanes per chunk
    /// (`None`: [`lanes_per_chunk`]); returns the counts and the runner,
    /// for its step counters.
    fn run_chunked(&self, sched: &ScheduledCircuit, chunk: Option<usize>) -> (Counts, Runner) {
        assert!(self.config.shots <= LANE_BLOCK as u64, "one block holds the run");
        let prep = self.prepare(sched);
        let mut runner = Runner::new();
        runner.chunk = chunk;
        let mut counts = Counts::new(prep.num_clbits.max(1));
        self.run_block(&prep, 0..self.config.shots, 0, &mut runner, &mut counts);
        (counts, runner)
    }

    /// All shots through the batch loop in batches of `batch` shots on
    /// `threads` threads, unbudgeted.
    fn run_shaped(&self, sched: &ScheduledCircuit, batch: u64, threads: usize) -> Counts {
        self.run_batches(sched, threads, batch, &Budget::unlimited()).counts
    }
}

/// The idle channel as `NoiseModel::idle` evaluated it before
/// `IdleChannel` precomputed it, sampling the Kraus pair through the
/// cloning reference body.
fn idle_reference(
    state: &mut StateVector,
    q: usize,
    dt_ns: f64,
    t1_ns: f64,
    t2_ns: f64,
    rng: &mut StdRng,
) {
    if dt_ns <= 0.0 {
        return;
    }
    let gamma = 1.0 - (-dt_ns / t1_ns).exp();
    if gamma > 0.0 {
        let k0 = Mat2([
            [C64::ONE, C64::ZERO],
            [C64::ZERO, C64::real((1.0 - gamma).sqrt())],
        ]);
        let k1 = Mat2([[C64::ZERO, C64::real(gamma.sqrt())], [C64::ZERO, C64::ZERO]]);
        state.apply_kraus_1q_cloning(q, &[k0, k1], rng);
    }
    let inv_tphi = (1.0 / t2_ns - 0.5 / t1_ns).max(0.0);
    if inv_tphi > 0.0 {
        let p_z = 0.5 * (1.0 - (-dt_ns * inv_tphi).exp());
        if rng.gen_range(0.0..1.0) < p_z {
            state.apply_gate(&Gate::Z, &[q]);
        }
    }
}

/// Every combination of the five noise switches.
fn all_configs(shots: u64, seed: u64) -> Vec<ExecutorConfig> {
    (0..32u32)
        .map(|m| ExecutorConfig {
            shots,
            seed,
            gate_noise: m & 1 != 0,
            crosstalk: m & 2 != 0,
            decoherence: m & 4 != 0,
            readout_noise: m & 8 != 0,
            compound_crosstalk: m & 16 != 0,
        })
        .collect()
}

/// Stretches a schedule in time (every start ×`k`, durations kept), which
/// keeps it valid and opens idle gaps everywhere.
fn stretched(sched: &ScheduledCircuit, k: u64) -> ScheduledCircuit {
    let slots = sched
        .slots()
        .iter()
        .map(|s| ScheduleSlot::new(s.start * k, s.duration))
        .collect();
    ScheduledCircuit::new(sched.circuit().clone(), slots).unwrap()
}

/// RB-shaped bin: independent native Clifford-like sequences on disjoint
/// pairs, run simultaneously and measured at the end.
fn rb_bin(n: usize, pairs: &[(u32, u32)], len: usize, rng: &mut StdRng) -> Circuit {
    use std::f64::consts::{FRAC_PI_2, PI};
    let mut c = Circuit::new(n, 2 * pairs.len());
    for _ in 0..len {
        for &(a, b) in pairs {
            for q in [a, b] {
                match rng.gen_range(0..3) {
                    0 => c.u2(0.0, PI, q),
                    1 => c.u1(FRAC_PI_2, q),
                    _ => c.u1(-FRAC_PI_2, q),
                };
            }
            if rng.gen_range(0..2) == 0 {
                c.cx(a, b);
            } else {
                c.cx(b, a);
            }
        }
    }
    for (k, &(a, b)) in pairs.iter().enumerate() {
        c.measure(a, 2 * k as u32).measure(b, 2 * k as u32 + 1);
    }
    c
}

/// Supremacy-style layers on a Poughkeepsie region: random `u3`s, then
/// CNOTs on a rotating subset of the region's couplings.
fn supremacy(rng: &mut StdRng) -> Circuit {
    let edges = [(0u32, 1u32), (1, 2), (5, 6), (6, 7), (0, 5), (5, 10), (10, 11)];
    let qubits = [0u32, 1, 2, 5, 6, 7, 10, 11];
    let mut c = Circuit::new(20, qubits.len());
    for layer in 0..8 {
        for &q in &qubits {
            c.u3(rng.gen_range(0.0..3.0), rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0), q);
        }
        for (k, &(a, b)) in edges.iter().enumerate() {
            if (k + layer) % 3 == 0 {
                c.cx(a, b);
            }
        }
    }
    for (k, &q) in qubits.iter().enumerate() {
        c.measure(q, k as u32);
    }
    c
}

/// SWAPs along a path, a barrier, then the hot pair of the Figure 6 case
/// study running together.
fn swap_path_with_barrier() -> Circuit {
    let mut c = Circuit::new(20, 4);
    c.h(5).swap(5, 10).swap(10, 15).barrier([15u32, 16, 11, 12]);
    c.cx(15, 10).cx(11, 12).h(11).cx(15, 16);
    c.measure(15, 0).measure(10, 1).measure(11, 2).measure(12, 3);
    c
}

/// Mid-circuit measurements reused as later inputs, a measure without a
/// destination register entry, and an unmeasured component.
fn mid_circuit_measure() -> Circuit {
    let mut c = Circuit::new(5, 4);
    c.h(0).cx(0, 1).measure(1, 0).h(1).cx(1, 2).measure(0, 1);
    c.x(3).s(3).h(3).measure(3, 2).u3(0.3, 0.2, 0.1, 3).measure(3, 3);
    c.h(4).t(4);
    c
}

/// `line(8)` with edge (2,3) attacked by two aggressors at once, so the
/// max and compound crosstalk rules differ.
fn crosstalk_triad() -> (Device, Circuit) {
    let mut xt = CrosstalkMap::new();
    xt.set_symmetric(Edge::new(2, 3), Edge::new(0, 1), 4.0, 2.0);
    xt.set_symmetric(Edge::new(2, 3), Edge::new(4, 5), 3.0, 2.5);
    xt.set_symmetric(Edge::new(6, 7), Edge::new(4, 5), 5.0, 1.5);
    let device = Device::line(8, 4).with_crosstalk(xt);
    let mut c = Circuit::new(8, 8);
    for _ in 0..4 {
        c.cx(0, 1).cx(2, 3).cx(4, 5).cx(6, 7).h(1).h(3).h(5).h(7);
    }
    c.measure_all();
    (device, c)
}

/// `line(4)` where qubit 0 is T2-limited (`T2 = 2·T1`, no pure
/// dephasing), qubit 1 dephases fast, and qubit 3 only idles.
fn coherence_mix() -> (Device, Circuit) {
    let device = Device::line(4, 2);
    let mut cal = device.calibration().clone();
    cal.set_coherence_us(0, 20.0, 40.0);
    cal.set_coherence_us(1, 30.0, 4.0);
    cal.set_coherence_us(3, 8.0, 6.0);
    let device = device.with_calibration(cal);
    let mut c = Circuit::new(4, 4);
    c.x(0).h(1).x(3).cx(1, 2).h(2).cx(0, 1).h(1).x(3).measure_all();
    (device, c)
}

/// `line(4)` with a 40x crosstalk factor that drives both pairs'
/// depolarizing probability to its 0.9375 clamp, and T1/T2 of a few µs
/// (the schedule is stretched to open idle gaps), so almost every lane
/// leaves its group within the first gates.
fn saturated() -> (Device, Circuit) {
    let mut xt = CrosstalkMap::new();
    xt.set_symmetric(Edge::new(0, 1), Edge::new(2, 3), 40.0, 40.0);
    let device = Device::line(4, 5).with_crosstalk(xt);
    let mut cal = device.calibration().clone();
    cal.set_cx_error(Edge::new(0, 1), 0.05);
    cal.set_cx_error(Edge::new(2, 3), 0.05);
    for q in 0..4 {
        cal.set_coherence_us(q, 2.0, 3.0);
    }
    let device = device.with_calibration(cal);
    let mut c = Circuit::new(4, 4);
    for _ in 0..3 {
        c.h(0).h(2).cx(0, 1).cx(2, 3).x(1).x(3);
    }
    c.measure_all();
    (device, c)
}

/// Components of widths 1, 2 and 6 in one schedule on `line(12)`, so the
/// runner's chunk sizes differ per component and every lane's RNG stream
/// crosses components of different shapes.
fn mixed_widths() -> Circuit {
    let mut c = Circuit::new(12, 9);
    c.h(0).measure(0, 0);
    c.h(2).cx(2, 3).measure(2, 1).measure(3, 2);
    c.h(5);
    for q in 5..10u32 {
        c.cx(q, q + 1).u3(0.4, 0.1 * q as f64, -0.2, q);
    }
    for (k, q) in (5..11u32).enumerate() {
        c.measure(q, 3 + k as u32);
    }
    c
}

/// `(device, schedule)` cases covering the program step kinds.
fn cases() -> Vec<(&'static str, Device, ScheduledCircuit)> {
    let mut rng = StdRng::seed_from_u64(0x0dd5eed);
    let mut out = Vec::new();
    let pough = Device::poughkeepsie(3);
    let asap = |d: &Device, c: &Circuit| Executor::asap_schedule(c, d.calibration());

    let rb = rb_bin(20, &[(10, 15), (11, 12)], 6, &mut rng);
    out.push(("srb bin", pough.clone(), asap(&pough, &rb)));
    let rb = rb_bin(20, &[(0, 1), (13, 14), (18, 19)], 5, &mut rng);
    out.push(("rb bin", pough.clone(), asap(&pough, &rb)));
    let sup = supremacy(&mut rng);
    out.push(("supremacy", pough.clone(), asap(&pough, &sup)));
    let swap = swap_path_with_barrier();
    out.push(("swap path", pough.clone(), asap(&pough, &swap)));
    let line5 = Device::line(5, 1);
    let mid = mid_circuit_measure();
    out.push(("mid-circuit measure", line5.clone(), stretched(&asap(&line5, &mid), 3)));
    let (triad_dev, triad) = crosstalk_triad();
    out.push(("crosstalk triad", triad_dev.clone(), asap(&triad_dev, &triad)));
    let (coh_dev, coh) = coherence_mix();
    let mut late = stretched(&asap(&coh_dev, &coh), 4);
    let end = late.makespan() + 7_000;
    late.right_align_to(end);
    out.push(("coherence mix", coh_dev, late));
    let (sat_dev, sat) = saturated();
    out.push(("saturated", sat_dev.clone(), stretched(&asap(&sat_dev, &sat), 3)));
    let line12 = Device::line(12, 6);
    out.push(("mixed widths", line12.clone(), stretched(&asap(&line12, &mixed_widths()), 2)));
    out
}

#[test]
fn compiled_programs_match_reference_under_every_noise_switch() {
    for (name, device, sched) in cases() {
        for cfg in all_configs(96, 0x5eed) {
            let exec = Executor::with_config(&device, cfg);
            let reference = exec.run_reference(&sched);
            assert_eq!(exec.run(&sched), reference, "{name} under {cfg:?}");
            for chunk in CHUNKS {
                let (counts, _) = exec.run_chunked(&sched, Some(chunk));
                assert_eq!(counts, reference, "{name} under {cfg:?}, {chunk} lanes per chunk");
            }
        }
    }
}

#[test]
fn compiled_programs_match_reference_at_every_thread_count() {
    for (name, device, sched) in cases() {
        // 1100 shots: more lanes than one chunk of a 6-qubit component
        // holds, so the mixed-widths case runs components in different
        // chunkings.
        for cfg in [
            ExecutorConfig { shots: 1100, seed: 3, ..Default::default() },
            ExecutorConfig { shots: 150, seed: 4, compound_crosstalk: true, ..Default::default() },
        ] {
            let exec = Executor::with_config(&device, cfg);
            let reference = exec.run_reference(&sched);
            assert_eq!(exec.run(&sched), reference, "{name}, run");
            // Batches that end mid-chunk and off the 64-shot grid.
            for threads in [1usize, 3] {
                let counts = exec.run_shaped(&sched, 37, threads);
                assert_eq!(counts, reference, "{name}, 37-shot batches x{threads}");
            }
            for threads in [1usize, 2, 4] {
                let out = exec.run_budgeted(&sched, threads, &Budget::unlimited());
                assert!(out.complete);
                assert_eq!(out.counts, reference, "{name}, budgeted x{threads}");
            }
        }
    }
}

#[test]
fn run_past_one_lane_block_matches_reference() {
    // `run` cuts 4,196 shots into one full `LANE_BLOCK` batch and a
    // partial one; the mixed-widths case also chunks inside each block.
    let shots = LANE_BLOCK as u64 + 100;
    let (name, device, sched) =
        cases().into_iter().find(|(name, _, _)| *name == "mixed widths").unwrap();
    let cfg = ExecutorConfig { shots, seed: 6, ..Default::default() };
    let exec = Executor::with_config(&device, cfg);
    let reference = exec.run_reference(&sched);
    assert_eq!(exec.run(&sched), reference, "{name}, run");
    let out = exec.run_budgeted(&sched, 3, &Budget::unlimited());
    assert!(out.complete);
    assert_eq!(out.counts, reference, "{name}, budgeted x3");
}

#[test]
fn cases_exercise_every_step_kind() {
    // The oracle comparison is only as strong as its cases: they must hold
    // every step kind, idle gaps with and without pure dephasing, SWAPs,
    // and a gate attacked by two aggressors (where max and compound
    // crosstalk differ).
    let cases = cases();
    let mut kinds = [0usize; 4];
    let mut dephasing = [0usize; 2];
    for (_, device, sched) in &cases {
        let prep = Executor::new(device).prepare(sched);
        for step in prep.programs.iter().flat_map(|p| &p.steps) {
            match step {
                Step::Gate1 { .. } => kinds[0] += 1,
                Step::Gate2 { .. } => kinds[1] += 1,
                Step::Idle { channel, .. } => {
                    kinds[2] += 1;
                    dephasing[usize::from(channel.dephases())] += 1;
                }
                Step::Measure { .. } => kinds[3] += 1,
            }
        }
    }
    assert!(kinds.iter().all(|&k| k > 0), "step kinds {kinds:?}");
    assert!(dephasing.iter().all(|&k| k > 0), "idle channels {dephasing:?}");

    // Every case splits groups: with one chunk of all lanes, a run that
    // never split would make exactly one state update per step.
    let shots = 96;
    for (name, device, sched) in &cases {
        let cfg = ExecutorConfig { shots, seed: 0x5eed, ..Default::default() };
        let (_, runner) = Executor::with_config(device, cfg).run_chunked(sched, None);
        assert!(
            runner.group_steps > runner.lane_steps / shots,
            "{name}: no group split ({} group steps, {} lane steps)",
            runner.group_steps,
            runner.lane_steps
        );
        if *name == "saturated" {
            let prep = Executor::new(device).prepare(sched);
            let clamped = prep.programs.iter().flat_map(|p| &p.steps).any(
                |s| matches!(s, Step::Gate2 { depol: Some(p), .. } if *p == 0.9375),
            );
            assert!(clamped, "saturated case misses the depolarizing clamp");
            assert!(
                2 * runner.group_steps > runner.lane_steps,
                "saturated case shares too much: {} of {} steps",
                runner.group_steps,
                runner.lane_steps
            );
        }
        if *name == "mixed widths" {
            let prep = Executor::new(device).prepare(sched);
            let mut widths: Vec<usize> = prep.programs.iter().map(|p| p.width).collect();
            widths.sort_unstable();
            assert_eq!(widths, [1, 2, 6], "component widths");
            assert!(lanes_per_chunk(6) < 1100 && lanes_per_chunk(2) >= 1100);
        }
    }
    let swaps = cases.iter().flat_map(|(_, _, s)| s.circuit().iter());
    assert!(swaps.filter(|i| *i.gate() == Gate::Swap).count() > 0);

    let (_, _, triad) = cases.iter().find(|(name, _, _)| *name == "crosstalk triad").unwrap();
    let victim = Edge::new(2, 3);
    let attacks = triad
        .overlapping_two_qubit_pairs()
        .into_iter()
        .filter(|&(i, j)| {
            let (ei, ej) = (edge_of(triad.circuit(), i), edge_of(triad.circuit(), j));
            (ei == victim) != (ej == victim)
                && [ei, ej].iter().any(|&e| e == Edge::new(0, 1) || e == Edge::new(4, 5))
        })
        .count();
    assert!(attacks >= 2, "edge (2,3) needs two aggressors, got {attacks}");
}

#[test]
fn crosstalk_factors_match_every_pairs_lookups() {
    // The sweep over involved gates alone must give the full sweep's
    // factors bit for bit, compound sums included. The cases hold edges
    // with entries whose aggressor is absent ("rb bin"), none at all
    // (lines) and a gate under two aggressors at once ("crosstalk triad");
    // one more has one-way entries, whose aggressor no entry names as
    // affected.
    let mut xt = CrosstalkMap::new();
    xt.set(Edge::new(0, 1), Edge::new(2, 3), 3.0);
    xt.set(Edge::new(4, 5), Edge::new(2, 3), 2.0);
    let one_way = Device::line(6, 1).with_crosstalk(xt);
    let mut c = Circuit::new(6, 0);
    for _ in 0..3 {
        c.cx(0, 1).cx(2, 3).cx(4, 5).h(3);
    }
    let one_way_sched = Executor::asap_schedule(&c, one_way.calibration());
    let mut cases = cases();
    cases.push(("one-way entries", one_way, one_way_sched));
    for (name, device, sched) in cases {
        for cfg in all_configs(1, 0).into_iter().filter(|c| c.crosstalk) {
            let exec = Executor::with_config(&device, cfg);
            let edges = EdgeTable::new(sched.circuit(), &device, cfg);
            let bits = |f: Vec<f64>| f.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bits(exec.crosstalk_factors(&sched, &edges)),
                bits(exec.reference_factors(&sched)),
                "{name} under {cfg:?}"
            );
        }
    }
}

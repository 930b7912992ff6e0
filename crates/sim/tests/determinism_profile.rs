//! Determinism matrix: `Executor::sample` must return bit-identical
//! counts for every thread count **with profiling enabled**, on a program
//! with a component on each backend. The obs
//! layer records wall times and counters but must never touch the
//! per-shot RNG streams or reorder the merged counts.
//!
//! This lives in its own integration-test binary because the profiling
//! toggle is process-global.

use std::sync::{Mutex, MutexGuard, OnceLock};
use xtalk_budget::Budget;
use xtalk_device::Device;
use xtalk_ir::Circuit;
use xtalk_sim::{Counts, Executor, ExecutorConfig};

/// The profiling toggle and registry are process-global; the harness runs
/// tests concurrently, so serialize the ones that flip them.
fn obs_lock() -> MutexGuard<'static, ()> {
    static GATE: OnceLock<Mutex<()>> = OnceLock::new();
    GATE.get_or_init(|| Mutex::new(())).lock().unwrap()
}

/// Two components: `{11, 12}` takes the exact backend, while the
/// mid-circuit measurement of qubit 16 keeps `{5, 10, 15, 16}` on
/// trajectories.
fn bench_circuit() -> (Device, Circuit) {
    let device = Device::poughkeepsie(3);
    let mut c = Circuit::new(20, 7);
    c.h(10).cx(10, 15).cx(15, 16).measure(16, 6).cx(11, 12).cx(15, 16).h(5).cx(5, 10);
    for (bit, q) in [10u32, 15, 11, 12, 16, 5].into_iter().enumerate() {
        c.measure(q, bit as u32);
    }
    (device, c)
}

fn run_with_threads(device: &Device, c: &Circuit, shots: u64, threads: usize) -> Counts {
    let sched = Executor::asap_schedule(c, device.calibration());
    let cfg = ExecutorConfig { shots, seed: 41, ..Default::default() };
    let exec = Executor::with_config(device, cfg);
    let prep = exec.program(&sched);
    assert!(prep.trajectory_components() > 0 && prep.exact_components() > 0);
    exec.sample(&prep, threads, &Budget::unlimited()).counts
}

#[test]
fn counts_bit_identical_across_thread_matrix_with_profiling_on() {
    let _gate = obs_lock();
    let (device, c) = bench_circuit();
    // 999 shots: not a multiple of the batch size or of any thread count
    // in the matrix, so workers claim uneven shares of the batches.
    let shots = 999;

    // Reference run with profiling off.
    xtalk_obs::set_enabled(false);
    let reference = run_with_threads(&device, &c, shots, 1);

    xtalk_obs::set_enabled(true);
    xtalk_obs::reset();
    for threads in [1usize, 2, 4, 7] {
        let counts = run_with_threads(&device, &c, shots, threads);
        assert_eq!(
            reference, counts,
            "profiling perturbed the counts at {threads} threads"
        );
    }
    let snap = xtalk_obs::snapshot();
    xtalk_obs::set_enabled(false);
    xtalk_obs::reset();

    // The profile itself must be coherent: 4 instrumented runs, and the
    // per-thread shot counters must account for every sampled shot.
    let runs = snap.span("sim.run_budgeted").expect("run span missing");
    assert_eq!(runs.count, 4);
    assert_eq!(snap.counter("sim.shots"), Some(4 * shots));
    let per_thread: u64 = snap
        .counters
        .iter()
        .filter(|c| c.name.starts_with("sim.thread"))
        .map(|c| c.value)
        .sum();
    assert_eq!(per_thread, 4 * shots, "per-thread shot counters disagree");
}

#[test]
fn toggling_profiling_mid_stream_does_not_change_results() {
    let _gate = obs_lock();
    let (device, c) = bench_circuit();
    xtalk_obs::set_enabled(false);
    let off = run_with_threads(&device, &c, 321, 3);
    xtalk_obs::set_enabled(true);
    let on = run_with_threads(&device, &c, 321, 3);
    xtalk_obs::set_enabled(false);
    xtalk_obs::reset();
    assert_eq!(off, on, "toggling profiling changed simulation results");
}

#[test]
fn two_workers_both_claim_shots_of_a_long_run() {
    // A short circuit fits 4,096 shots under one claim's work cap; with
    // two workers a claim still takes at most an even share of the shots
    // left, so the second worker gets shots however late it starts.
    let _gate = obs_lock();
    let (device, c) = bench_circuit();
    xtalk_obs::set_enabled(true);
    xtalk_obs::reset();
    let counts = run_with_threads(&device, &c, 4096, 2);
    let snap = xtalk_obs::snapshot();
    xtalk_obs::set_enabled(false);
    xtalk_obs::reset();
    assert_eq!(counts.shots(), 4096);
    for thread in 0..2 {
        let shots = snap.counter(&format!("sim.thread{thread}.shots")).unwrap_or(0);
        assert!(shots > 0, "worker {thread} ran no shots");
    }
}

//! Determinism matrix: `Executor::run_budgeted` must return bit-identical
//! counts for every thread count **with profiling enabled**. The obs
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

fn bench_circuit() -> (Device, Circuit) {
    let device = Device::poughkeepsie(3);
    let mut c = Circuit::new(20, 6);
    c.h(10).cx(10, 15).cx(11, 12).cx(15, 16).h(5).cx(5, 10);
    for (bit, q) in [10u32, 15, 11, 12, 16, 5].into_iter().enumerate() {
        c.measure(q, bit as u32);
    }
    (device, c)
}

fn run_with_threads(device: &Device, c: &Circuit, shots: u64, threads: usize) -> Counts {
    let sched = Executor::asap_schedule(c, device.calibration());
    let cfg = ExecutorConfig { shots, seed: 41, ..Default::default() };
    Executor::with_config(device, cfg).run_budgeted(&sched, threads, &Budget::unlimited()).counts
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

//! Disabled-path overhead budget: with profiling off, the instrumentation
//! inside `Executor::run_budgeted` must cost well under 5% of a run.
//!
//! Rather than comparing two noisy end-to-end timings (flaky on shared
//! CI hardware), this measures the two quantities that actually make up
//! the overhead and bounds their product:
//!
//! 1. the per-probe cost of a disabled span + counter check (one relaxed
//!    atomic load each, no allocation), measured over a large batch, and
//! 2. the wall time of one `run_budgeted` call on a realistic circuit.
//!
//! `run_budgeted` executes a fixed, small number of probes per call
//! (one top-level span, plus one batch span and one counter check per
//! 64-shot batch), so `probes x per_probe_cost` is the total
//! instrumentation cost. The assertion leaves orders of magnitude of
//! headroom: ~130 probes of a few ns each against a run measured in
//! milliseconds.
//!
//! This lives in its own integration-test binary because the profiling
//! toggle is process-global and must stay off for the whole measurement.

use criterion::{black_box, Bencher};
use xtalk_budget::Budget;
use xtalk_device::Device;
use xtalk_ir::Circuit;
use xtalk_sim::{Executor, ExecutorConfig};

#[test]
fn disabled_profiling_overhead_is_under_five_percent() {
    xtalk_obs::set_enabled(false);

    // --- 1. Per-probe cost of the disabled instrumentation path. ---
    // Mirrors exactly what run_budgeted executes per probe when
    // profiling is off: a span guard (single atomic load, inert guard)
    // and the `enabled()` gate in front of the counters.
    let probe_iters = 200_000u64;
    let mut probe = Bencher::new(probe_iters);
    probe.iter(|| {
        let _s = xtalk_obs::span(black_box("overhead.probe"));
        if xtalk_obs::enabled() {
            xtalk_obs::counter_add("overhead.probe.count", 1);
        }
    });
    // Sub-ns ops truncate through Duration math per iteration, so derive
    // the mean from the batch total.
    let per_probe_ns = probe.elapsed().as_nanos() as f64 / probe_iters as f64;

    // --- 2. Wall time of one instrumented run_budgeted call. ---
    let threads = 4usize;
    let device = Device::poughkeepsie(3);
    let mut c = Circuit::new(20, 4);
    c.h(10).cx(10, 15).cx(11, 12).h(5).cx(5, 10);
    for (bit, q) in [10u32, 15, 11, 12].into_iter().enumerate() {
        c.measure(q, bit as u32);
    }
    let sched = Executor::asap_schedule(&c, device.calibration());
    let shots = 2000u64;
    let cfg = ExecutorConfig { shots, seed: 7, ..Default::default() };
    let exec = Executor::with_config(&device, cfg);
    let mut run = Bencher::new(5);
    run.iter(|| black_box(exec.run_budgeted(&sched, threads, &Budget::unlimited())));
    // min over samples: the least-perturbed observation of the run cost.
    let run_ns = run.min_time().as_nanos() as f64;

    // --- 3. Bound the product. ---
    // Probes per run_budgeted call: 1 top-level span + per batch one
    // shot-batch span and one counter gate (2,000 shots = 32 batches of
    // 64). Double it for slack.
    let batches = shots.div_ceil(64);
    let probes_per_run = (1 + 2 * batches) as f64 * 2.0;
    let overhead_ns = probes_per_run * per_probe_ns;
    let budget_ns = 0.05 * run_ns;
    assert!(
        overhead_ns < budget_ns,
        "disabled instrumentation too expensive: {probes_per_run} probes x \
         {per_probe_ns:.2} ns = {overhead_ns:.1} ns vs 5% budget {budget_ns:.1} ns \
         (run_budgeted min {run_ns:.0} ns)"
    );

    // Sanity on the probe measurement itself: a disabled span + counter
    // gate is a couple of atomic loads. If it ever exceeds 1 µs per op,
    // something regressed catastrophically (e.g. allocation on the
    // disabled path) regardless of how slow the run is.
    assert!(
        per_probe_ns < 1_000.0,
        "disabled probe costs {per_probe_ns:.1} ns each; the disabled path \
         must be a bare atomic load"
    );
}

//! Golden determinism tests for the managed pass pipeline.
//!
//! The pass-manager refactor must be invisible in the artifacts: for a
//! grid of seed circuits × the three schedulers,
//!
//! * the managed path produces schedules **bit-identical** (by `Debug`
//!   dump) to the hand-staged pre-refactor flow
//!   (lower → fuse → pad → place → route → `Scheduler::schedule`),
//! * a warm cache replays the exact artifacts a cold cache produced,
//! * execution counts are bit-identical at any thread count, cold or
//!   warm, and identical to a plain `Executor::run`.

use xtalk_core::layout::{greedy_layout, route, Layout};
use xtalk_core::optimize::fuse_single_qubit_gates;
use xtalk_core::transpile::lower_to_native;
use xtalk_core::{Compiler, ParSched, Scheduler, SchedulerContext, SerialSched, XtalkSched};
use xtalk_device::Device;
use xtalk_ir::{Circuit, ScheduledCircuit};
use xtalk_sim::{Executor, ExecutorConfig};

/// Seed circuits exercising every pipeline branch: already-compliant,
/// padding-only, and routing-heavy (greedy layout + SWAP insertion).
fn seed_circuits() -> Vec<(&'static str, Circuit)> {
    // A K4 interaction graph cannot embed in a planar grid, so greedy
    // placement *and* SWAP insertion always run.
    let mut ladder = Circuit::new(4, 4);
    ladder.h(0);
    ladder.cx(0, 1).cx(1, 2).cx(2, 3).cx(0, 2).cx(1, 3).cx(0, 3).t(2);
    ladder.measure_all();

    let mut hot = Circuit::new(20, 2);
    hot.h(10).cx(10, 15).cx(11, 12).measure(10, 0).measure(11, 1);

    vec![
        ("routing_ladder", ladder),
        ("hot_pair", hot),
        ("ghz", xtalk_core::bench_circuits::ghz(20, &[5, 10, 11, 12, 15])),
    ]
}

fn schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(SerialSched::new()),
        Box::new(ParSched::new()),
        Box::new(XtalkSched::new(0.5)),
    ]
}

/// The pre-refactor compile flow, staged by hand with the historical
/// building blocks: lower + fuse, pad to device width, trivial-or-greedy
/// placement, route, then a direct `Scheduler::schedule` call.
fn direct_schedule(
    device: &Device,
    ctx: &SchedulerContext,
    circuit: &Circuit,
    scheduler: &dyn Scheduler,
) -> ScheduledCircuit {
    let topo = device.topology();
    let lowered = fuse_single_qubit_gates(&lower_to_native(circuit));
    let n = topo.num_qubits();
    let mut padded = Circuit::new(n, lowered.num_clbits());
    padded.try_extend(&lowered).expect("padding cannot fail");
    let compliant = padded.iter().all(|ins| {
        !ins.gate().is_two_qubit()
            || topo.are_adjacent(ins.qubits()[0].raw(), ins.qubits()[1].raw())
    });
    let layout =
        if compliant { Layout::trivial(n, n) } else { greedy_layout(&padded, topo) };
    let routed = route(&padded, topo, layout).expect("device is connected");
    scheduler.schedule(&routed.circuit, ctx).expect("compliant after routing")
}

#[test]
fn managed_pipeline_matches_pre_refactor_path() {
    let device = Device::poughkeepsie(1);
    let ctx = SchedulerContext::from_ground_truth(&device);
    let compiler = Compiler::new(&device, ctx.clone());
    // The routing seed must genuinely exercise layout + SWAP insertion.
    let routed = compiler.prepare(&seed_circuits()[0].1).unwrap();
    assert!(routed.swaps_inserted > 0, "routing seed no longer forces SWAPs");
    for (name, circuit) in seed_circuits() {
        for s in schedulers() {
            let artifact = compiler.compile(&circuit, s.as_ref()).unwrap();
            let direct = direct_schedule(&device, &ctx, &circuit, s.as_ref());
            assert_eq!(
                format!("{:?}", artifact.sched),
                format!("{direct:?}"),
                "{name} × {} diverged from the pre-refactor flow",
                s.name()
            );
        }
    }
}

#[test]
fn warm_cache_replays_cold_artifacts_bit_identically() {
    let device = Device::poughkeepsie(1);
    let ctx = SchedulerContext::from_ground_truth(&device);
    let warm = Compiler::new(&device, ctx.clone());
    for (name, circuit) in seed_circuits() {
        for s in schedulers() {
            // Cold: a fresh compiler whose private cache has never seen
            // this circuit. Warm: the shared compiler, second time round.
            let cold = Compiler::new(&device, ctx.clone())
                .compile(&circuit, s.as_ref())
                .unwrap();
            let first = warm.compile(&circuit, s.as_ref()).unwrap();
            let second = warm.compile(&circuit, s.as_ref()).unwrap();
            assert_eq!(
                format!("{:?}", (&first.sched, &first.serializations, &first.report)),
                format!("{:?}", (&cold.sched, &cold.serializations, &cold.report)),
                "{name} × {}: shared-cache compile diverged from cold",
                s.name()
            );
            assert_eq!(
                format!("{:?}", (&second.sched, &second.serializations, &second.report)),
                format!("{:?}", (&cold.sched, &cold.serializations, &cold.report)),
                "{name} × {}: warm replay diverged from cold",
                s.name()
            );
        }
    }
    assert!(warm.cache().hits() > 0, "warm replays must come from the cache");
}

#[test]
fn execution_counts_are_thread_and_cache_invariant() {
    let device = Device::poughkeepsie(1);
    let ctx = SchedulerContext::from_ground_truth(&device);
    let compiler = Compiler::new(&device, ctx);
    let (_, circuit) = seed_circuits().remove(0);
    for s in schedulers() {
        let artifact = compiler.compile(&circuit, s.as_ref()).unwrap();
        let seq = compiler.run(&artifact.sched, 256, 7, 1).unwrap();
        assert!(seq.complete);
        for threads in [2, 4] {
            let par = compiler.run(&artifact.sched, 256, 7, threads).unwrap();
            assert!(par.complete);
            assert_eq!(seq.counts, par.counts, "{}: {threads} threads changed counts", s.name());
        }

        // The plain executor, whose batches are sized differently, sees
        // the same stream.
        let cfg = ExecutorConfig { shots: 256, seed: 7, ..Default::default() };
        let plain = Executor::with_config(&device, cfg).run(&artifact.sched);
        assert_eq!(plain, seq.counts, "{}: plain executor", s.name());
    }
}

//! The exact backend against the trajectory sampler on the circuit
//! families the job service is benchmarked with (4-qubit Bernstein–
//! Vazirani, Hidden Shift, GHZ and QAOA, and the 5-qubit SWAP path), as
//! `Compiler::run` dispatches them on Poughkeepsie.

use std::collections::BTreeSet;
use xtalk_budget::Budget;
use xtalk_core::bench_circuits::{bernstein_vazirani, ghz, hidden_shift, qaoa_ansatz};
use xtalk_core::routing::swap_benchmark;
use xtalk_core::{Compiler, ParSched, Scheduler, SchedulerContext, XtalkSched};
use xtalk_device::{Device, Topology};
use xtalk_ir::Circuit;
use xtalk_sim::{Counts, Executor, ExecutorConfig};

fn families() -> Vec<(&'static str, Circuit)> {
    let region = [0u32, 1, 2, 3];
    let bench = swap_benchmark(&Topology::line(5), 0, 4).expect("a line is connected");
    let mut swap_path = bench.circuit;
    swap_path.measure(bench.bell_pair.0, 0u32).measure(bench.bell_pair.1, 1u32);
    vec![
        ("bv", bernstein_vazirani(4, &region, 0b101)),
        ("hidden_shift", hidden_shift(4, &region, 0b0110, true)),
        ("ghz", ghz(4, &region)),
        ("qaoa", qaoa_ansatz(4, &region, 17)),
        ("swap_path", swap_path),
    ]
}

fn total_variation(a: &Counts, b: &Counts) -> f64 {
    let outcomes: BTreeSet<u64> = a.iter().chain(b.iter()).map(|(o, _)| o).collect();
    0.5 * outcomes.into_iter().map(|o| (a.probability(o) - b.probability(o)).abs()).sum::<f64>()
}

#[test]
fn exact_and_trajectory_histograms_agree_on_the_serve_families() {
    // 200k shots each: the TVD of two independent samples of one
    // distribution over ≤ 16 outcomes stays near 0.003 at that size.
    let shots = 200_000;
    let device = Device::poughkeepsie(7);
    let compiler = Compiler::new(&device, SchedulerContext::from_ground_truth(&device));
    for (name, circuit) in families() {
        let routed = compiler.prepare(&circuit).unwrap();
        let scheduler: &dyn Scheduler =
            if name == "swap_path" { &XtalkSched::new(0.5) } else { &ParSched::new() };
        let sched = &compiler.schedule(&routed.circuit, scheduler).unwrap().sched;
        let program = compiler.program(sched).unwrap();
        assert!(program.prepared.exact_components() > 0, "{name}: no exact component");
        assert_eq!(program.prepared.trajectory_components(), 0, "{name}");
        let exact = compiler.run(sched, shots, 11, 2).unwrap();
        let cfg = ExecutorConfig { shots, seed: 12, ..Default::default() };
        let trajectories = Executor::with_config(&device, cfg).run_budgeted(sched, 2, &Budget::unlimited());
        let tvd = total_variation(&exact.counts, &trajectories.counts);
        assert!(tvd < 0.01, "{name}: TVD {tvd} between exact and trajectory histograms");
    }
}

#[test]
fn a_64_shot_run_is_the_budget_prefix_of_a_4096_shot_run() {
    let device = Device::poughkeepsie(7);
    let ctx = SchedulerContext::from_ground_truth(&device);
    let compiler = Compiler::new(&device, ctx.clone());
    for (name, circuit) in families() {
        let routed = compiler.prepare(&circuit).unwrap();
        let sched = &compiler.compile(&routed.circuit, &XtalkSched::new(0.5)).unwrap().sched;
        let short = compiler.run(sched, 64, 5, 1).unwrap();
        for threads in [1, 4] {
            // One unit of work: the first 64-shot claim, then the budget is
            // spent.
            let quota = Compiler::new(&device, ctx.clone()).with_budget(Budget::unlimited().with_quota(1));
            let cut = quota.run(sched, 4096, 5, threads).unwrap();
            assert!(!cut.complete, "{name}");
            assert_eq!(cut.shots_completed % 64, 0, "{name}");
            if threads == 1 {
                assert_eq!(cut.shots_completed, 64, "{name}");
            }
            if cut.shots_completed == 64 {
                assert_eq!(cut.counts, short.counts, "{name} x{threads}");
            }
        }
        // Counts do not depend on the thread count.
        let full = compiler.run(sched, 4096, 5, 1).unwrap();
        for threads in [2, 3] {
            assert_eq!(compiler.run(sched, 4096, 5, threads).unwrap().counts, full.counts, "{name}");
        }
    }
}

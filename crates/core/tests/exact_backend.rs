//! Budget prefixes and thread invariance of `Compiler::run` on the
//! circuit families the job service is benchmarked with (4-qubit
//! Bernstein–Vazirani, Hidden Shift, GHZ and QAOA, and the 5-qubit SWAP
//! path) on Poughkeepsie.

use xtalk_budget::Budget;
use xtalk_core::bench_circuits::{bernstein_vazirani, ghz, hidden_shift, qaoa_ansatz};
use xtalk_core::routing::swap_benchmark;
use xtalk_core::{Compiler, SchedulerContext, XtalkSched};
use xtalk_device::{Device, Topology};
use xtalk_ir::Circuit;

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

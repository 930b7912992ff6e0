//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Solver engine** — lazy conflict-driven branch-and-bound vs the
//!    eager SMT-style encoding (both must find the same objective value;
//!    the lazy engine explores far fewer leaves).
//! 2. **High-crosstalk threshold** — how the candidate-pruning threshold
//!    (the paper uses 3×) trades compile effort against measured error.
//! 3. **Serialization ordering** — the Figure 6 insight: searching both
//!    orders of a serialized pair (vs naive program order) is worth
//!    measurable error on paths through low-coherence qubits.
//! 4. **Crosstalk weight ω** — endpoint sanity: ω=0 matches ParSched's
//!    objective, ω=1 eliminates hot overlaps.
//!
//! ```text
//! cargo run -p xtalk-bench --release --bin ablation_xtalksched
//! ```

use std::time::Instant;
use xtalk_bench::Scale;
use xtalk_core::routing::swap_benchmark;
use xtalk_core::sched::schedule_cost;
use xtalk_core::{Compiler, ParSched, Scheduler, SchedulerContext, XtalkSched};
use xtalk_device::Device;

fn main() {
    let scale = Scale::from_args();
    let device = Device::poughkeepsie(scale.seed);
    let ctx = SchedulerContext::from_ground_truth(&device);

    println!("=== Ablation 1: lazy B&B vs eager SMT encoding ===\n");
    println!(
        "{:<10} {:>6} {:>14} {:>10} {:>12} {:>14} {:>10} {:>12}",
        "path", "cands", "lazy cost", "leaves", "time (us)", "smt cost", "leaves", "time (us)"
    );
    for (a, b) in [(0u32, 12u32), (1, 7), (9, 11), (5, 12)] {
        let bench = swap_benchmark(device.topology(), a, b).expect("connected");
        let sched = XtalkSched::new(0.5);
        let t0 = Instant::now();
        let (_, lazy) = sched.schedule_with_report(&bench.circuit, &ctx).unwrap();
        let t_lazy = t0.elapsed().as_micros();
        let t0 = Instant::now();
        let (_, smt) = sched.schedule_via_smt(&bench.circuit, &ctx).unwrap();
        let t_smt = t0.elapsed().as_micros();
        assert!(
            (lazy.cost - smt.cost).abs() < 1e-9,
            "engines disagree on {a},{b}: {} vs {}",
            lazy.cost,
            smt.cost
        );
        println!(
            "{:<10} {:>6} {:>14.4} {:>10} {:>12} {:>14.4} {:>10} {:>12}",
            format!("{a},{b}"),
            lazy.candidate_pairs,
            lazy.cost,
            lazy.leaves,
            t_lazy,
            smt.cost,
            smt.leaves,
            t_smt
        );
    }
    println!("\n(equal costs by construction — the assert above enforces it)\n");

    println!("=== Ablation 2: candidate threshold (paper: 3x) ===\n");
    println!(
        "{:<10} {:>11} {:>14} {:>10} {:>12} {:>12}",
        "threshold", "candidates", "serialized", "leaves", "swap error", "duration"
    );
    let (a, b) = (0u32, 13u32);
    for threshold in [1.2, 2.0, 3.0, 6.0, 12.0] {
        let tctx = SchedulerContext::from_ground_truth(&device).with_threshold(threshold);
        let bench = swap_benchmark(device.topology(), a, b).unwrap();
        let (_, report) =
            XtalkSched::new(0.5).schedule_with_report(&bench.circuit, &tctx).unwrap();
        let out = Compiler::new(&device, tctx)
            .swap_bell_error(&XtalkSched::new(0.5), a, b, scale.tomo_shots, scale.seed, 1)
            .unwrap();
        println!(
            "{:<10.1} {:>11} {:>14} {:>10} {:>12.4} {:>12}",
            threshold,
            report.candidate_pairs,
            report.serializations.len(),
            report.leaves,
            out.error_rate,
            out.duration_ns
        );
    }
    println!(
        "\nLow thresholds blow up the candidate set (compile effort) for little\n\
         error benefit; high thresholds miss real interference. 3x is the knee.\n"
    );

    println!("=== Ablation 3: serialization ordering (the Figure 6 insight) ===\n");
    println!(
        "{:<10} {:>16} {:>18} {:>12}",
        "path", "optimal cost", "program-order", "error ratio"
    );
    for (a, b) in [(0u32, 13u32), (6, 13), (1, 13)] {
        let bench = swap_benchmark(device.topology(), a, b).unwrap();
        let (_, opt) = XtalkSched::new(0.5).schedule_with_report(&bench.circuit, &ctx).unwrap();
        let (_, fixed) = XtalkSched::new(0.5)
            .with_ordering(xtalk_core::OrderingPolicy::ProgramOrder)
            .schedule_with_report(&bench.circuit, &ctx)
            .unwrap();
        let compiler = Compiler::new(&device, ctx.clone());
        let e_opt = compiler
            .swap_bell_error(&XtalkSched::new(0.5), a, b, scale.tomo_shots, 21, 1)
            .unwrap()
            .error_rate;
        let e_fixed = compiler
            .swap_bell_error(
                &XtalkSched::new(0.5).with_ordering(xtalk_core::OrderingPolicy::ProgramOrder),
                a,
                b,
                scale.tomo_shots,
                21,
                1,
            )
            .unwrap()
            .error_rate;
        println!(
            "{:<10} {:>16.4} {:>18.4} {:>11.2}x",
            format!("{a},{b}"),
            opt.cost,
            fixed.cost,
            e_fixed / e_opt.max(1e-4)
        );
    }
    println!(
        "\nChoosing which gate of a serialized pair runs first (to shorten\n\
         low-coherence qubits' lifetimes) is worth measurable error on paths\n\
         through Poughkeepsie's 5.2 us qubit 10.\n"
    );

    println!("=== Ablation 4: omega endpoints ===\n");
    let bench = swap_benchmark(device.topology(), 0, 13).unwrap();
    let par = ParSched::new().schedule(&bench.circuit, &ctx).unwrap();
    let (_, at0) = XtalkSched::new(0.0).schedule_with_report(&bench.circuit, &ctx).unwrap();
    println!(
        "omega=0: XtalkSched cost {:.4} vs ParSched objective {:.4} (must be <=)",
        at0.cost,
        schedule_cost(&par, &ctx, 0.0)
    );
    let (s1, _) = XtalkSched::new(1.0).schedule_with_report(&bench.circuit, &ctx).unwrap();
    let hot_overlaps = s1
        .overlapping_two_qubit_pairs()
        .into_iter()
        .filter(|&(i, j)| {
            let p = if i < j { (i, j) } else { (j, i) };
            XtalkSched::candidate_pairs(&bench.circuit, &ctx).contains(&p)
        })
        .count();
    println!("omega=1: remaining high-crosstalk overlaps: {hot_overlaps} (must be 0)");
}

//! Scaling projection (beyond the paper's 20-qubit systems): how the
//! characterization budget and the scheduler behave on larger synthetic
//! grids — the regime the paper's conclusion argues software mitigation
//! matters most for ("especially as systems scale up").
//!
//! ```text
//! cargo run -p xtalk-bench --release --bin scaling_future_devices [--full]
//! ```

use std::time::Instant;
use xtalk_bench::Scale;
use xtalk_charac::policy::TimeModel;
use xtalk_charac::{CharacterizationPolicy, RbConfig};
use xtalk_core::{Compiler, ParSched, SchedulerContext, XtalkSched};
use xtalk_device::Device;

fn main() {
    let scale = Scale::from_args();
    let tm = TimeModel::default();
    let executions = RbConfig::paper_scale().executions();

    println!("=== Scaling projection: characterization budget vs device size ===\n");
    println!(
        "{:<12} {:>7} {:>7} {:>11} {:>9} {:>14} {:>14} {:>16}",
        "device", "qubits", "edges", "simul pairs", "1-hop", "all-pairs (h)", "optimized (h)", "reduction"
    );
    for (rows, cols) in [(4usize, 5usize), (5, 5), (6, 6), (7, 7), (8, 8)] {
        let device = Device::synthetic_grid(rows, cols, 0.06, scale.seed);
        let topo = device.topology();
        let all = CharacterizationPolicy::AllPairs.experiments(topo, 1).len();
        let _packed =
            CharacterizationPolicy::OneHopBinPacked { k_hops: 2 }.experiments(topo, 1).len();
        let known = device.crosstalk().high_unordered_pairs(3.0);
        let daily = CharacterizationPolicy::HighCrosstalkOnly { k_hops: 2, known_pairs: known }
            .experiments(topo, 1)
            .len()
            .max(1);
        println!(
            "{:<12} {:>7} {:>7} {:>11} {:>9} {:>14.1} {:>14.2} {:>15.0}x",
            device.name(),
            topo.num_qubits(),
            topo.num_edges(),
            topo.simultaneous_pairs().len(),
            topo.pairs_at_distance(1).len(),
            tm.hours(all, executions),
            tm.hours(daily, executions),
            all as f64 / daily as f64,
        );
    }
    println!(
        "\nAll-pairs SRB grows ~quadratically with edge count (days of machine time\n\
         on a 64-qubit grid); the optimized daily policy stays within minutes\n\
         because bin packing exploits the growing diameter.\n"
    );

    println!("=== Scheduler on a 49-qubit grid (6% hot pairs) ===\n");
    let device = Device::synthetic_grid(7, 7, 0.06, scale.seed);
    let ctx = SchedulerContext::from_ground_truth(&device);
    let compiler = Compiler::new(&device, ctx.clone());
    // Endpoint pairs whose routed circuit actually contains overlappable
    // hot CNOT pairs (the fig-5 selection criterion), longest paths first.
    let pairs = xtalk_bench::affected_swap_pairs(&device, &ctx, Some(4));
    println!(
        "{:<10} {:>8} {:>12} {:>12} {:>14} {:>12}",
        "path", "cands", "par error", "xtalk error", "compile (ms)", "dur ratio"
    );
    for &(a, b) in pairs.iter().rev().take(4) {
        let bench = xtalk_core::routing::swap_benchmark(device.topology(), a, b).unwrap();
        let t0 = Instant::now();
        let (_, report) = XtalkSched::new(0.5)
            .with_max_leaves(5_000)
            .schedule_with_report(&bench.circuit, &ctx)
            .unwrap();
        let compile_ms = t0.elapsed().as_secs_f64() * 1000.0;
        let par = compiler
            .swap_bell_error(&ParSched::new(), a, b, scale.tomo_shots, 3, 1)
            .unwrap();
        let xt = compiler
            .swap_bell_error(
                &XtalkSched::new(0.5).with_max_leaves(5_000),
                a,
                b,
                scale.tomo_shots,
                3,
                1,
            )
            .unwrap();
        println!(
            "{:<10} {:>8} {:>12.4} {:>12.4} {:>14.1} {:>11.2}x",
            format!("{a},{b}"),
            report.candidate_pairs,
            par.error_rate,
            xt.error_rate,
            compile_ms,
            xt.duration_ns as f64 / par.duration_ns as f64,
        );
    }
    println!(
        "\nLonger paths cross more hot pairs on bigger devices, so the ParSched\n\
         error balloons while XtalkSched holds — the paper's scaling argument."
    );
}

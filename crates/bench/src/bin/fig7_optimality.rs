//! Figure 7: XtalkSched error on crosstalk-affected SWAP paths vs the
//! "ideal" error measured on crosstalk-free paths of the same length —
//! near-optimal mitigation.
//!
//! ```text
//! cargo run -p xtalk-bench --release --bin fig7_optimality [--full]
//! ```

use std::collections::BTreeMap;
use xtalk_bench::{geomean, mean_sd, Scale};
use xtalk_core::routing::endpoint_pairs_by_crosstalk;
use xtalk_core::{Compiler, ParSched, Scheduler, SchedulerContext, SerialSched, XtalkSched};
use xtalk_device::Device;

fn main() {
    let scale = Scale::from_args();
    let device = Device::poughkeepsie(scale.seed);
    let ctx = SchedulerContext::from_ground_truth(&device);
    let compiler = Compiler::new(&device, ctx.clone());
    let cap_per_len = if scale.full { usize::MAX } else { 3 };

    println!("=== Figure 7: XtalkSched vs crosstalk-free ideal, {} ===\n", device.name());
    println!(
        "{:<10} {:>14} {:>22} {:>8}",
        "pair", "XtalkSched", "ideal (xtalk-free)", "len"
    );

    let mut ratios = Vec::new();
    let mut by_len: BTreeMap<u32, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for len in 3..=8u32 {
        let affected: Vec<_> = endpoint_pairs_by_crosstalk(device.topology(), &ctx, len, false)
            .into_iter()
            .take(cap_per_len)
            .collect();
        let free: Vec<_> = endpoint_pairs_by_crosstalk(device.topology(), &ctx, len, true)
            .into_iter()
            .take(cap_per_len)
            .collect();
        if affected.is_empty() || free.is_empty() {
            continue;
        }

        // Ideal: best scheduler per crosstalk-free path, averaged — the
        // paper's "lowest error schedule for each path".
        let mut ideal_errors = Vec::new();
        for &(a, b) in &free {
            let schedulers: [&dyn Scheduler; 3] =
                [&SerialSched::new(), &ParSched::new(), &XtalkSched::new(0.5)];
            let best = schedulers
                .iter()
                .map(|s| {
                    compiler
                        .swap_bell_error(*s, a, b, scale.tomo_shots, scale.seed, 1)
                        .expect("routing succeeds")
                        .error_rate
                })
                .fold(f64::INFINITY, f64::min);
            ideal_errors.push(best);
        }
        let (ideal_mean, ideal_sd) = mean_sd(&ideal_errors);

        for &(a, b) in &affected {
            let xt = compiler
                .swap_bell_error(
                    &XtalkSched::new(0.5),
                    a,
                    b,
                    scale.tomo_shots,
                    scale.seed ^ (u64::from(a) << 8) ^ u64::from(b),
                    1,
                )
                .expect("routing succeeds")
            .error_rate;
            println!(
                "{:<10} {:>14.4} {:>14.4} ± {:.3} {:>8}",
                format!("{a},{b}"),
                xt,
                ideal_mean,
                ideal_sd,
                len
            );
            ratios.push(((xt.max(1e-4)) / ideal_mean.max(1e-4)).max(1e-3));
            let e = by_len.entry(len).or_default();
            e.0.push(xt);
            e.1.push(ideal_mean);
        }
    }

    println!("\ngeomean XtalkSched/ideal error ratio: {:.3}", geomean(&ratios));
    println!(
        "Paper shape check: XtalkSched errors track the crosstalk-free ideal\n\
         (paper: within geomean 1% ± 16%), growing with path length."
    );
}

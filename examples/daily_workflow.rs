//! The operational loop the paper proposes: once the expensive 1-hop
//! characterization has been done, each day re-measures only the known
//! high-crosstalk pairs (minutes of machine time), refreshes the
//! scheduler's inputs, and compiles the day's workloads against them.
//!
//! ```text
//! cargo run --release --example daily_workflow
//! ```

use crosstalk_mitigation::charac::policy::TimeModel;
use crosstalk_mitigation::charac::{characterize, CharacterizationPolicy, RbConfig};
use crosstalk_mitigation::core::{Compiler, ParSched, SchedulerContext, XtalkSched};
use crosstalk_mitigation::device::Device;

fn main() {
    let base = Device::poughkeepsie(7);
    let rb = RbConfig { seqs_per_length: 4, shots: 128, ..Default::default() };
    let tm = TimeModel::default();

    // Day 0: the full (bin-packed, 1-hop) sweep discovers the hot pairs.
    println!("day 0: full one-hop sweep…");
    let (initial, report) = characterize(
        &base,
        &CharacterizationPolicy::OneHopBinPacked { k_hops: 2 },
        &rb,
        &tm,
    );
    let known = initial.high_pairs(3.0);
    println!(
        "  {} experiments; {} high pairs found: {:?}\n",
        report.num_experiments,
        known.len(),
        known.iter().map(|(a, b)| format!("{a}|{b}")).collect::<Vec<_>>()
    );

    println!(
        "{:<5} {:>12} {:>14} {:>12} {:>12} {:>8}",
        "day", "experiments", "machine (min)", "par error", "xtalk error", "gain"
    );
    for day in 1..=5u32 {
        let device = base.on_day(day);
        // Daily refresh: only yesterday's hot pairs.
        let policy = CharacterizationPolicy::HighCrosstalkOnly {
            k_hops: 2,
            known_pairs: known.clone(),
        };
        let (charac, report) = characterize(&device, &policy, &rb, &tm);
        let ctx = SchedulerContext::new(&device, &charac);

        // Compile & run the day's workload with the fresh estimates. A
        // per-day compiler mirrors the epoch-keyed serving cache: a new
        // calibration day means a new artifact space.
        let compiler = Compiler::new(&device, ctx);
        let par = compiler.swap_bell_error(&ParSched::new(), 0, 13, 384, u64::from(day), 1).unwrap();
        let xt = compiler
            .swap_bell_error(&XtalkSched::new(0.5), 0, 13, 384, u64::from(day), 1)
            .unwrap();
        println!(
            "{:<5} {:>12} {:>14.1} {:>12.4} {:>12.4} {:>7.2}x",
            day,
            report.num_experiments,
            // Machine time at the paper's full RB scale.
            tm.hours(report.num_experiments, RbConfig::paper_scale().executions()) * 60.0,
            par.error_rate,
            xt.error_rate,
            par.error_rate / xt.error_rate.max(1e-4)
        );
    }

    println!(
        "\nDaily refresh costs ~10 minutes of machine time and keeps the\n\
         scheduler's conditional-error inputs current as the hardware drifts."
    );
}

//! Execution of a schedule outside the pass manager: one entry point,
//! [`run_scheduled_opts`], parameterized by [`RunOpts`]. The paper's
//! metrics (Section 8.4: schedule → execute → score, readout-error
//! mitigated) are [`crate::Compiler`] methods.

use xtalk_budget::Budget;
use xtalk_device::Device;
use xtalk_ir::ScheduledCircuit;
use xtalk_sim::{Executor, ExecutorConfig, RunOutcome};

/// Execution options for [`run_scheduled_opts`].
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// OS threads to split trajectory sampling across (`0` = available
    /// parallelism). Counts are bit-identical at any thread count.
    pub threads: usize,
    /// Cooperative budget polled at shot-batch boundaries; exhaustion
    /// yields an honest completed-shot prefix, not an error.
    pub budget: Budget,
}

impl Default for RunOpts {
    /// Sequential, unlimited.
    fn default() -> Self {
        RunOpts { threads: 1, budget: Budget::unlimited() }
    }
}

/// Executes a schedule on a device with the given shot budget. The
/// returned [`RunOutcome`] reports the exact completed-shot prefix; its
/// counts are bit-identical to a fresh run of exactly `shots_completed`
/// shots at any thread count.
pub fn run_scheduled_opts(
    device: &Device,
    sched: &ScheduledCircuit,
    shots: u64,
    seed: u64,
    opts: &RunOpts,
) -> RunOutcome {
    let cfg = ExecutorConfig { shots, seed, ..Default::default() };
    Executor::with_config(device, cfg).run_budgeted(sched, opts.threads, &opts.budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_circuits::{hidden_shift, qaoa_ansatz};
    use crate::{Compiler, ParSched, Scheduler, SchedulerContext, SerialSched, XtalkSched};
    use xtalk_ir::Circuit;
    use xtalk_sim::{ideal, metrics};

    #[test]
    fn budgeted_run_matches_plain_run_when_unlimited() {
        let device = Device::line(3, 2);
        let ctx = SchedulerContext::from_ground_truth(&device);
        let mut c = Circuit::new(3, 3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let sched = ParSched::new().schedule(&c, &ctx).unwrap();
        let plain = run_scheduled_opts(&device, &sched, 300, 9, &RunOpts::default()).counts;
        let two_threads = |budget: &Budget| RunOpts { threads: 2, budget: budget.clone() };
        let out = run_scheduled_opts(&device, &sched, 300, 9, &two_threads(&Budget::unlimited()));
        assert!(out.complete);
        assert_eq!(out.shots_completed, 300);
        assert_eq!(out.counts, plain);
        let via_opts = run_scheduled_opts(
            &device,
            &sched,
            300,
            9,
            &RunOpts { threads: 4, ..Default::default() },
        );
        assert_eq!(via_opts.counts, plain);
        // A cancelled budget yields an honest empty prefix.
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let out = run_scheduled_opts(&device, &sched, 300, 9, &two_threads(&budget));
        assert!(!out.complete);
        assert_eq!(out.shots_completed, 0);
    }

    #[test]
    fn swap_error_is_sane_on_clean_line() {
        let device = Device::line(5, 4);
        let compiler = Compiler::new(&device, SchedulerContext::from_ground_truth(&device));
        let out = compiler.swap_bell_error(&ParSched::new(), 0, 4, 256, 1, 1).unwrap();
        assert!(out.error_rate > 0.0 && out.error_rate < 0.5, "error {}", out.error_rate);
        assert!(out.duration_ns > 0);
    }

    #[test]
    fn xtalksched_beats_parsched_on_hot_path() {
        // The paper's marquee comparison, miniature edition: route across
        // the Poughkeepsie 11x hot spot and compare measured Bell error.
        let device = Device::poughkeepsie(1);
        let compiler = Compiler::new(&device, SchedulerContext::from_ground_truth(&device));
        let par = compiler.swap_bell_error(&ParSched::new(), 0, 13, 384, 7, 1).unwrap();
        let xt = compiler.swap_bell_error(&XtalkSched::new(0.5), 0, 13, 384, 7, 1).unwrap();
        assert!(
            xt.error_rate < par.error_rate,
            "XtalkSched {} should beat ParSched {}",
            xt.error_rate,
            par.error_rate
        );
        // Modest duration increase only (paper: ≤1.7x).
        assert!(xt.duration_ns <= 2 * par.duration_ns);
    }

    #[test]
    fn qaoa_cross_entropy_ranks_schedulers() {
        let device = Device::poughkeepsie(1);
        let compiler = Compiler::new(&device, SchedulerContext::from_ground_truth(&device));
        let circuit = qaoa_ansatz(20, &[5, 10, 11, 12], 3);
        let ce_par = compiler.qaoa_cross_entropy(&ParSched::new(), &circuit, 2048, 11).unwrap();
        let ce_xt =
            compiler.qaoa_cross_entropy(&XtalkSched::new(0.1), &circuit, 2048, 11).unwrap();
        let ideal = ideal::distribution(&circuit);
        let floor = metrics::entropy(&ideal);
        assert!(ce_par > floor && ce_xt > floor, "noisy CE must exceed the floor");
        assert!(
            ce_xt <= ce_par + 0.05,
            "XtalkSched CE {ce_xt} should not lose to ParSched {ce_par}"
        );
    }

    #[test]
    fn hidden_shift_error_detects_serialization_cost() {
        let device = Device::poughkeepsie(1);
        let compiler = Compiler::new(&device, SchedulerContext::from_ground_truth(&device));
        // Region aligned with the planted (5,10)|(11,12) pair.
        let circuit = hidden_shift(20, &[5, 10, 11, 12], 0b1001, true);
        let serial = compiler
            .hidden_shift_error(&SerialSched::new(), &circuit, 0b1001, 2048, 5)
            .unwrap();
        let xt = compiler
            .hidden_shift_error(&XtalkSched::new(0.3), &circuit, 0b1001, 2048, 5)
            .unwrap();
        assert!(serial > 0.0 && serial < 1.0);
        assert!(xt <= serial + 0.05, "xtalk {xt} vs serial {serial}");
    }
}

//! The scheduler interface and the shared schedule-cost model.

pub mod par;
pub mod serial;
pub mod xtalk;

use crate::sched::xtalk::XtalkSchedReport;
use crate::timeline::CostModel;
use crate::{CoreError, SchedulerContext};
use xtalk_budget::Budget;
use xtalk_device::Edge;
use xtalk_ir::{Circuit, ScheduledCircuit};
use xtalk_pass::Fnv1a;

/// An instruction scheduler: assigns start times to a hardware-compliant
/// circuit.
pub trait Scheduler {
    /// Produces a timed schedule.
    ///
    /// # Errors
    ///
    /// Implementations return [`CoreError::NotHardwareCompliant`] for
    /// two-qubit gates off the coupling map and
    /// [`CoreError::CyclicConstraints`] on internal ordering conflicts.
    fn schedule(
        &self,
        circuit: &Circuit,
        ctx: &SchedulerContext,
    ) -> Result<ScheduledCircuit, CoreError>;

    /// Display name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Folds the scheduler's identity *and configuration* into a cache
    /// key. The default covers configuration-free schedulers; schedulers
    /// with knobs (e.g. `XtalkSched`'s ω, leaf cap, ordering)
    /// must override it so differently-configured instances never share
    /// cached schedules.
    fn fingerprint(&self, h: &mut Fnv1a) {
        h.write_str(self.name());
    }

    /// Schedules under a cooperative [`Budget`], returning the search
    /// report when the scheduler produces one. The default ignores the
    /// budget — the baseline schedulers are single-pass — and reports
    /// nothing; anytime schedulers override it.
    ///
    /// # Errors
    ///
    /// See [`Scheduler::schedule`].
    fn schedule_report(
        &self,
        circuit: &Circuit,
        ctx: &SchedulerContext,
        budget: &Budget,
    ) -> Result<(ScheduledCircuit, Option<XtalkSchedReport>), CoreError> {
        let _ = budget;
        Ok((self.schedule(circuit, ctx)?, None))
    }
}

/// A scheduler by name, as the CLI and the job service take it: `xtalk`
/// ([`XtalkSched`](xtalk::XtalkSched) with crosstalk weight `omega`),
/// `par` or `serial`. [`SchedulerName::parse`] is the one name table;
/// a request parses its scheduler once, so an unknown name is rejected
/// before any work runs.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SchedulerName {
    /// XtalkSched with crosstalk/decoherence weight `omega` ∈ [0, 1].
    Xtalk {
        /// The Eq. 17 weight ω.
        omega: f64,
    },
    /// ParSched: maximal parallelism.
    Par,
    /// SerialSched: no two-qubit gates overlap.
    Serial,
}

impl SchedulerName {
    /// Parses `name` with weight `omega`. `omega` is checked whatever the
    /// name, so a bad weight fails loudly even where it would go unused.
    ///
    /// # Errors
    ///
    /// `omega` outside `[0, 1]`, or an unknown name.
    pub fn parse(name: &str, omega: f64) -> Result<SchedulerName, String> {
        if !(0.0..=1.0).contains(&omega) {
            return Err(format!("omega must be in [0,1], got {omega}"));
        }
        Ok(match name {
            "xtalk" => SchedulerName::Xtalk { omega },
            "par" => SchedulerName::Par,
            "serial" => SchedulerName::Serial,
            other => return Err(format!("unknown scheduler `{other}`")),
        })
    }

    /// The scheduler this names.
    pub fn build(self) -> Box<dyn Scheduler> {
        match self {
            SchedulerName::Xtalk { omega } => Box::new(xtalk::XtalkSched::new(omega)),
            SchedulerName::Par => Box::new(par::ParSched::new()),
            SchedulerName::Serial => Box::new(serial::SerialSched::new()),
        }
    }
}

/// The scheduler named `name` with weight `omega`
/// ([`SchedulerName::parse`], then [`SchedulerName::build`]).
///
/// # Errors
///
/// `omega` outside `[0, 1]`, or an unknown name.
pub fn scheduler_by_name(name: &str, omega: f64) -> Result<Box<dyn Scheduler>, String> {
    SchedulerName::parse(name, omega).map(SchedulerName::build)
}

/// Verifies that every two-qubit gate sits on a calibrated coupling edge.
///
/// # Errors
///
/// [`CoreError::NotHardwareCompliant`] naming the first offending
/// instruction.
pub fn check_hardware_compliant(
    circuit: &Circuit,
    ctx: &SchedulerContext,
) -> Result<(), CoreError> {
    for (i, ins) in circuit.iter().enumerate() {
        if ins.gate().is_two_qubit() {
            let e = Edge::from(ins.edge().expect("two-qubit gate has an edge"));
            if !ctx.calibration().has_cx_edge(e) {
                return Err(CoreError::NotHardwareCompliant { instruction: i });
            }
        }
    }
    Ok(())
}

/// The paper's Eq. 17 objective evaluated on a realized schedule:
///
/// `ω · Σ_g log ε(g)  +  (1−ω) · Σ_q t(q)/T(q)`
///
/// where `ε(g)` is the gate's independent error unless it overlaps in
/// time with other two-qubit gates, in which case it is the *maximum*
/// conditional error over the overlapping partners (Eq. 6/7), and `t(q)`
/// is the qubit lifetime under the schedule. Lower is better; both terms
/// decrease when their error source shrinks (`log ε` is negative and
/// grows toward 0 as ε worsens — we keep the paper's published form).
///
/// `sched` must be valid (every scheduler's output is): lifetimes are read
/// off each qubit's first and last operation in program order.
pub fn schedule_cost(sched: &ScheduledCircuit, ctx: &SchedulerContext, omega: f64) -> f64 {
    let slots = sched.slots();
    CostModel::new(sched.circuit(), ctx).cost(omega, |i| slots[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realize;
    use xtalk_device::Device;

    #[test]
    fn compliance_check() {
        let dev = Device::line(4, 0);
        let ctx = SchedulerContext::from_ground_truth(&dev);
        let mut good = Circuit::new(4, 0);
        good.cx(0, 1).cx(2, 3);
        assert!(check_hardware_compliant(&good, &ctx).is_ok());
        let mut bad = Circuit::new(4, 0);
        bad.cx(0, 2);
        assert_eq!(
            check_hardware_compliant(&bad, &ctx),
            Err(CoreError::NotHardwareCompliant { instruction: 0 })
        );
    }

    #[test]
    fn cost_penalizes_overlapping_high_pairs() {
        let dev = Device::poughkeepsie(1);
        let ctx = SchedulerContext::from_ground_truth(&dev);
        let mut c = Circuit::new(20, 0);
        c.cx(10, 15).cx(11, 12);
        let par = realize(&c, &ctx, &[]).unwrap();
        let ser = realize(&c, &ctx, &[(0, 1)]).unwrap();
        // With ω = 1 (only crosstalk), serialization strictly wins.
        assert!(schedule_cost(&ser, &ctx, 1.0) < schedule_cost(&par, &ctx, 1.0));
        // With ω = 0 (only decoherence), parallelism wins (or ties).
        assert!(schedule_cost(&par, &ctx, 0.0) <= schedule_cost(&ser, &ctx, 0.0));
    }

    #[test]
    fn cost_ignores_single_qubit_gate_errors() {
        let dev = Device::line(2, 0);
        let ctx = SchedulerContext::from_ground_truth(&dev);
        let mut with_sq = Circuit::new(2, 0);
        with_sq.cx(0, 1);
        let mut extra = with_sq.clone();
        extra.rz(0.1, 0); // zero-duration virtual gate: no lifetime change
        let a = realize(&with_sq, &ctx, &[]).unwrap();
        let b = realize(&extra, &ctx, &[]).unwrap();
        assert!((schedule_cost(&a, &ctx, 0.7) - schedule_cost(&b, &ctx, 0.7)).abs() < 1e-12);
    }

    #[test]
    fn idle_qubits_contribute_nothing() {
        let dev = Device::line(5, 0);
        let ctx = SchedulerContext::from_ground_truth(&dev);
        let mut c = Circuit::new(5, 0);
        c.cx(0, 1);
        let sched = realize(&c, &ctx, &[]).unwrap();
        let cost = schedule_cost(&sched, &ctx, 0.0);
        let expected: f64 = (0..2)
            .map(|q| {
                sched.qubit_lifetime(xtalk_ir::Qubit::new(q)) as f64
                    / ctx.coherence_ns(q)
            })
            .sum();
        assert!((cost - expected).abs() < 1e-12);
    }
}

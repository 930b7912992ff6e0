//! [`Compiler`]: the unified compile/execute entry point.
//!
//! One `Compiler` binds a device, a [`SchedulerContext`] and a
//! [`xtalk_pass::PassManager`]; every stage — lowering, placement,
//! routing, scheduling, realization, execution — runs through the
//! manager, so spans, fault points, budget polls and the artifact cache
//! apply uniformly. Sharing one compiler (or one cache via
//! [`Compiler::with_cache`]) across several schedulers reuses the
//! lower/place/route prefix: only the schedule stage is keyed by the
//! scheduler's fingerprint.

use std::sync::Arc;

use crate::layout::RoutedCircuit;
use crate::passes::{
    ExecutePass, LowerPass, NativeCircuit, PlacePass, PlacedCircuit, RealizePass,
    RealizedSchedule, RoutePass, SchedulePass, ScheduledArtifact,
};
use crate::{CoreError, Scheduler, SchedulerContext};
use xtalk_budget::Budget;
use xtalk_device::Device;
use xtalk_ir::{Circuit, Qubit, ScheduledCircuit};
use xtalk_pass::{ArtifactCache, EpochToken, PassManager};
use xtalk_sim::mitigation::CalibrationMatrix;
use xtalk_sim::tomography::{
    bell_phi_plus, expectations_from_distributions, tomography_circuits, DensityMatrix2,
};
use xtalk_sim::{ideal, metrics, RunOutcome};

/// The SWAP-circuit metric's outcome (Figures 5–7).
pub struct SwapRunOutcome {
    /// `1 − F(ρ, |Φ+⟩)` — lower is better.
    pub error_rate: f64,
    /// Schedule makespan in ns (Figure 5d).
    pub duration_ns: u64,
}

/// The unified compile/execute flow over a device.
///
/// ```
/// use xtalk_core::{Compiler, SchedulerContext, XtalkSched};
/// use xtalk_device::Device;
/// use xtalk_ir::Circuit;
///
/// let device = Device::line(5, 3);
/// let ctx = SchedulerContext::from_ground_truth(&device);
/// let compiler = Compiler::new(&device, ctx);
/// let mut c = Circuit::new(2, 2);
/// c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
/// let artifact = compiler.compile(&c, &XtalkSched::new(0.5)).unwrap();
/// assert!(artifact.sched.makespan() > 0);
/// // A second compile of the same circuit is served from the cache.
/// let again = compiler.compile(&c, &XtalkSched::new(0.5)).unwrap();
/// assert_eq!(again.sched, artifact.sched);
/// assert!(compiler.cache().hits() > 0);
/// ```
pub struct Compiler<'d> {
    device: &'d Device,
    ctx: SchedulerContext,
    pm: PassManager,
}

impl<'d> Compiler<'d> {
    /// A compiler with a private cache keyed to epoch 0 of `device`.
    pub fn new(device: &'d Device, ctx: SchedulerContext) -> Self {
        let epoch = EpochToken::new(device.name(), 0);
        Compiler { device, ctx, pm: PassManager::new(epoch) }
    }

    /// A compiler over a shared artifact cache at a given device epoch —
    /// the serving configuration, where one cache outlives many jobs and
    /// calibration epochs.
    pub fn with_cache(
        device: &'d Device,
        ctx: SchedulerContext,
        cache: Arc<ArtifactCache>,
        epoch: EpochToken,
    ) -> Self {
        Compiler { device, ctx, pm: PassManager::with_cache(cache, epoch) }
    }

    /// Attaches an execution [`Budget`] polled before every pass and
    /// threaded into budget-aware stages (search, execution).
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.pm = self.pm.with_budget(budget);
        self
    }

    /// The device this compiler targets.
    pub fn device(&self) -> &'d Device {
        self.device
    }

    /// The scheduler context (calibration + characterization).
    pub fn ctx(&self) -> &SchedulerContext {
        &self.ctx
    }

    /// The artifact cache backing this compiler.
    pub fn cache(&self) -> &Arc<ArtifactCache> {
        self.pm.cache()
    }

    /// The underlying pass manager, for running custom passes in the
    /// same cache/budget/epoch regime.
    pub fn pass_manager(&self) -> &PassManager {
        &self.pm
    }

    /// Lowers a circuit to the native basis and fuses single-qubit runs.
    ///
    /// # Errors
    ///
    /// Budget exhaustion or an injected fault at `pass.lower`.
    pub fn lower(&self, circuit: &Circuit) -> Result<Arc<NativeCircuit>, CoreError> {
        self.pm.run(&LowerPass::default(), circuit).map_err(CoreError::from)
    }

    /// Pads a native circuit to device width and picks an initial layout.
    ///
    /// # Errors
    ///
    /// [`CoreError::WidthExceeded`] if the circuit is wider than the
    /// device; budget/fault as for every managed pass.
    pub fn place(&self, native: &NativeCircuit) -> Result<Arc<PlacedCircuit>, CoreError> {
        self.pm.run(&PlacePass::new(self.device.topology()), native).map_err(CoreError::from)
    }

    /// Routes a placed circuit onto the coupling graph.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoPath`] on disconnected topologies; budget/fault as
    /// for every managed pass.
    pub fn route(&self, placed: &PlacedCircuit) -> Result<Arc<RoutedCircuit>, CoreError> {
        self.pm.run(&RoutePass::new(self.device.topology()), placed).map_err(CoreError::from)
    }

    /// Lower → place → route: the scheduler-independent prefix. Its
    /// artifacts are cached once and shared by every scheduler compiled
    /// through the same cache.
    ///
    /// # Errors
    ///
    /// Any stage failure (see [`Compiler::lower`], [`Compiler::place`],
    /// [`Compiler::route`]).
    pub fn prepare(&self, circuit: &Circuit) -> Result<Arc<RoutedCircuit>, CoreError> {
        let native = self.lower(circuit)?;
        let placed = self.place(&native)?;
        self.route(&placed)
    }

    /// Schedules a hardware-compliant circuit with `scheduler`. The
    /// cache row is keyed by the scheduler's fingerprint and the full
    /// context, so differently-configured schedulers never collide.
    ///
    /// # Errors
    ///
    /// Scheduling failures ([`CoreError::NotHardwareCompliant`], …) plus
    /// budget/fault as for every managed pass.
    pub fn schedule(
        &self,
        circuit: &Circuit,
        scheduler: &dyn Scheduler,
    ) -> Result<Arc<ScheduledArtifact>, CoreError> {
        self.pm.run(&SchedulePass::new(scheduler, &self.ctx), circuit).map_err(CoreError::from)
    }

    /// Converts a scheduled artifact to its exportable barriered form.
    ///
    /// # Errors
    ///
    /// Budget/fault as for every managed pass.
    pub fn realize_export(
        &self,
        artifact: &ScheduledArtifact,
    ) -> Result<Arc<RealizedSchedule>, CoreError> {
        self.pm.run(&RealizePass, artifact).map_err(CoreError::from)
    }

    /// The full compile flow: prepare (lower/place/route) then schedule.
    ///
    /// # Errors
    ///
    /// Any stage failure.
    pub fn compile(
        &self,
        circuit: &Circuit,
        scheduler: &dyn Scheduler,
    ) -> Result<Arc<ScheduledArtifact>, CoreError> {
        let routed = self.prepare(circuit)?;
        self.schedule(&routed.circuit, scheduler)
    }

    /// Executes a schedule on the simulator (`threads = 0` uses all
    /// available parallelism). Never cached; the compiler's budget
    /// bounds the run and the outcome reports the honest shot prefix.
    ///
    /// # Errors
    ///
    /// Budget exhaustion *before* the run starts, or an injected fault
    /// at `pass.execute`. Mid-run exhaustion is not an error — it yields
    /// a truncated [`RunOutcome`].
    pub fn run(
        &self,
        sched: &ScheduledCircuit,
        shots: u64,
        seed: u64,
        threads: usize,
    ) -> Result<Arc<RunOutcome>, CoreError> {
        self.pm
            .run(&ExecutePass::new(self.device, shots, seed, threads), sched)
            .map_err(CoreError::from)
    }

    /// The SWAP-circuit metric (Figures 5–7) through the pass pipeline:
    /// schedules the meet-in-the-middle benchmark, runs mitigated
    /// two-qubit tomography, returns `1 − fidelity` with `|Φ+⟩`.
    ///
    /// # Errors
    ///
    /// Propagates routing/scheduling failures.
    pub fn swap_bell_error(
        &self,
        scheduler: &dyn Scheduler,
        a: u32,
        b: u32,
        shots_per_basis: u64,
        seed: u64,
        threads: usize,
    ) -> Result<SwapRunOutcome, CoreError> {
        let _span = xtalk_obs::span("pipeline.swap_bell");
        let bench = crate::routing::swap_benchmark(self.device.topology(), a, b)?;
        let (qa, qb) = bench.bell_pair;

        let cal_matrix = {
            let _cal = xtalk_obs::span("readout_cal");
            CalibrationMatrix::measure(
                self.device,
                &[qa.raw(), qb.raw()],
                shots_per_basis.max(512),
                seed,
            )
        };

        let mut duration = 0;
        let mut data = Vec::new();
        for (idx, (setting, circuit)) in
            tomography_circuits(&bench.circuit, qa, qb).into_iter().enumerate()
        {
            let artifact = self.schedule(&circuit, scheduler)?;
            duration = duration.max(artifact.sched.makespan());
            let outcome = {
                let _exec = xtalk_obs::span("execute");
                self.run(
                    &artifact.sched,
                    shots_per_basis,
                    seed ^ ((idx as u64 + 1) << 32),
                    threads,
                )?
            };
            data.push((setting, cal_matrix.mitigate(&outcome.counts)));
        }
        let rho = DensityMatrix2::from_expectations(&expectations_from_distributions(&data));
        Ok(SwapRunOutcome {
            error_rate: (1.0 - rho.fidelity_with(&bell_phi_plus())).clamp(0.0, 1.0),
            duration_ns: duration,
        })
    }

    /// The QAOA metric (Figure 8) through the pass pipeline: mitigated
    /// cross entropy against the noise-free ideal (lower is better).
    ///
    /// # Errors
    ///
    /// Propagates scheduling failures.
    pub fn qaoa_cross_entropy(
        &self,
        scheduler: &dyn Scheduler,
        circuit: &Circuit,
        shots: u64,
        seed: u64,
    ) -> Result<f64, CoreError> {
        let artifact = self.schedule(circuit, scheduler)?;
        let outcome = self.run(&artifact.sched, shots, seed, 1)?;
        let measured = measured_qubits(circuit);
        let cal =
            CalibrationMatrix::measure(self.device, &measured, shots.max(1024), seed ^ 0xfe);
        let mitigated = cal.mitigate(&outcome.counts);
        let ideal = ideal::distribution(circuit);
        Ok(metrics::cross_entropy(&ideal, &mitigated, 0.5 / shots as f64))
    }

    /// The Hidden Shift metric (Figure 9) through the pass pipeline:
    /// fraction of mitigated trials that missed the planted bitstring.
    ///
    /// # Errors
    ///
    /// Propagates scheduling failures.
    pub fn hidden_shift_error(
        &self,
        scheduler: &dyn Scheduler,
        circuit: &Circuit,
        target: u64,
        shots: u64,
        seed: u64,
    ) -> Result<f64, CoreError> {
        let artifact = self.schedule(circuit, scheduler)?;
        let outcome = self.run(&artifact.sched, shots, seed, 1)?;
        let measured = measured_qubits(circuit);
        let cal =
            CalibrationMatrix::measure(self.device, &measured, shots.max(1024), seed ^ 0xfd);
        let mitigated = cal.mitigate(&outcome.counts);
        Ok((1.0 - mitigated[target as usize]).clamp(0.0, 1.0))
    }
}

/// The physical qubits measured by a circuit, ordered by classical bit.
///
/// # Panics
///
/// Panics if two measurements target the same classical bit.
pub(crate) fn measured_qubits(circuit: &Circuit) -> Vec<u32> {
    let mut by_clbit: Vec<Option<Qubit>> = vec![None; circuit.num_clbits()];
    for ins in circuit.iter().filter(|i| i.gate().is_measurement()) {
        let c = ins.clbit().expect("measure carries clbit").index();
        assert!(by_clbit[c].is_none(), "clbit {c} written twice");
        by_clbit[c] = Some(ins.qubits()[0]);
    }
    by_clbit
        .into_iter()
        .map(|q| q.expect("every clbit is written").raw())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench_circuits::{hidden_shift, qaoa_ansatz};
    use crate::{ParSched, SerialSched, XtalkSched};
    use xtalk_sim::{Executor, ExecutorConfig};

    #[test]
    fn shared_cache_reuses_prefix_across_schedulers() {
        let device = Device::poughkeepsie(1);
        let ctx = SchedulerContext::from_ground_truth(&device);
        let compiler = Compiler::new(&device, ctx);
        let mut c = Circuit::new(4, 4);
        c.h(0).cx(0, 1).cx(2, 3).measure_all();

        let schedulers: [&dyn Scheduler; 3] =
            [&ParSched::new(), &SerialSched::new(), &XtalkSched::new(0.5)];
        let mut artifacts = Vec::new();
        for s in schedulers {
            artifacts.push(compiler.compile(&c, s).unwrap());
        }
        // One lower, one place, one route — the prefix is shared; three
        // schedule rows, one per fingerprint.
        assert_eq!(compiler.cache().len_of("lower"), 1);
        assert_eq!(compiler.cache().len_of("place"), 1);
        assert_eq!(compiler.cache().len_of("route"), 1);
        assert_eq!(compiler.cache().len_of("schedule"), 3);
        // Second and third compiles hit the prefix: 2 × (lower+place+route).
        assert_eq!(compiler.cache().hits(), 6);
        // Schedules genuinely differ between serial and parallel.
        assert_ne!(artifacts[0].sched, artifacts[1].sched);
    }

    #[test]
    fn compile_matches_direct_scheduler_calls() {
        // The refactor's behavioral anchor: the managed path must produce
        // bit-identical schedules to the pre-pass-manager flow.
        let device = Device::poughkeepsie(1);
        let ctx = SchedulerContext::from_ground_truth(&device);
        let compiler = Compiler::new(&device, ctx.clone());
        let mut c = Circuit::new(20, 2);
        c.h(10).cx(10, 15).cx(11, 12).measure(10, 0).measure(11, 1);

        for s in
            [&ParSched::new() as &dyn Scheduler, &SerialSched::new(), &XtalkSched::new(0.5)]
        {
            let artifact = compiler.compile(&c, s).unwrap();
            let direct = {
                let lowered = crate::optimize::fuse_single_qubit_gates(
                    &xtalk_pass::lower_to_native(&c),
                );
                s.schedule(&lowered, &ctx).unwrap()
            };
            assert_eq!(artifact.sched, direct, "scheduler {}", s.name());
        }
    }

    #[test]
    fn budget_exhaustion_surfaces_as_core_error() {
        let device = Device::line(3, 1);
        let ctx = SchedulerContext::from_ground_truth(&device);
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let compiler = Compiler::new(&device, ctx).with_budget(budget);
        let c = Circuit::new(2, 0);
        match compiler.lower(&c) {
            Err(CoreError::Budget(_)) => {}
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn realize_export_matches_to_barriered_circuit() {
        let device = Device::poughkeepsie(1);
        let ctx = SchedulerContext::from_ground_truth(&device);
        let compiler = Compiler::new(&device, ctx);
        let mut c = Circuit::new(20, 0);
        c.cx(10, 15).cx(11, 12);
        let artifact = compiler.compile(&c, &XtalkSched::new(0.9)).unwrap();
        let realized = compiler.realize_export(&artifact).unwrap();
        assert_eq!(
            realized.circuit,
            crate::to_barriered_circuit(&artifact.sched, &artifact.serializations)
        );
    }

    #[test]
    fn managed_run_matches_plain_executor() {
        let device = Device::line(3, 2);
        let ctx = SchedulerContext::from_ground_truth(&device);
        let compiler = Compiler::new(&device, ctx);
        let mut c = Circuit::new(3, 3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let artifact = compiler.compile(&c, &ParSched::new()).unwrap();
        let outcome = compiler.run(&artifact.sched, 256, 7, 2).unwrap();
        assert!(outcome.complete);
        let cfg = ExecutorConfig { shots: 256, seed: 7, ..Default::default() };
        let plain = Executor::with_config(&device, cfg).run(&artifact.sched);
        assert_eq!(outcome.counts, plain);
    }

    #[test]
    fn budgeted_run_matches_plain_run_when_unlimited() {
        let device = Device::line(3, 2);
        let ctx = SchedulerContext::from_ground_truth(&device);
        let mut c = Circuit::new(3, 3);
        c.h(0).cx(0, 1).cx(1, 2).measure_all();
        let sched = ParSched::new().schedule(&c, &ctx).unwrap();
        let cfg = ExecutorConfig { shots: 300, seed: 9, ..Default::default() };
        let exec = Executor::with_config(&device, cfg);
        let plain = exec.run(&sched);
        for threads in [1, 2, 4] {
            let out = exec.run_budgeted(&sched, threads, &Budget::unlimited());
            assert!(out.complete);
            assert_eq!(out.shots_completed, 300);
            assert_eq!(out.counts, plain, "{threads} threads");
        }
        // A cancelled budget yields an honest empty prefix.
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let out = exec.run_budgeted(&sched, 2, &budget);
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

//! The compile flow as typed passes over hashable artifacts.
//!
//! The paper's staged pipeline (Sections 6–7) expressed for the
//! [`xtalk_pass::PassManager`]:
//!
//! ```text
//! Circuit ──LowerPass──▶ NativeCircuit ──PlacePass──▶ PlacedCircuit
//!   ──RoutePass──▶ RoutedCircuit ──SchedulePass──▶ ScheduledArtifact
//!   ──RealizePass──▶ RealizedSchedule
//! ScheduledCircuit ──ProgramPass──▶ ProgramArtifact ──SamplePass──▶ RunOutcome
//!                                          (SamplePass: not cached)
//! ```
//!
//! Each pass declares its cache identity via [`xtalk_pass::ContentHash`]
//! on its input plus a `config_hash` covering everything else that
//! affects its output (topology, calibration, characterization,
//! scheduler knobs). The manager applies spans, fault points and the
//! artifact cache uniformly; nothing here touches those concerns
//! directly. Every pass receives the manager's budget: lower, place,
//! route, realize and program ignore it, while `SchedulePass` and
//! `SamplePass` thread it into the search and the shot loop.

use crate::layout::{greedy_layout, route, Layout, RoutedCircuit};
use crate::optimize::fuse_single_qubit_gates;
use crate::sched::xtalk::XtalkSchedReport;
use crate::{to_barriered_circuit, CoreError, Scheduler, SchedulerContext};
use xtalk_budget::Budget;
use xtalk_device::{Device, Edge, Topology};
use xtalk_ir::{Circuit, ScheduledCircuit};
use xtalk_pass::{ContentHash, Fnv1a, Pass};
use xtalk_sim::{Executor, ExecutorConfig, Prepared, RunOutcome};

/// A circuit lowered to the IBMQ native basis (and optionally fused).
#[derive(Clone, PartialEq, Debug)]
pub struct NativeCircuit {
    /// The native-basis circuit.
    pub circuit: Circuit,
}

/// A native circuit padded to device width with a chosen initial layout.
#[derive(Clone, PartialEq, Debug)]
pub struct PlacedCircuit {
    /// The (padded) native circuit, still on logical qubits.
    pub circuit: Circuit,
    /// Logical → physical placement for the router.
    pub layout: Layout,
}

/// A scheduled circuit plus the scheduler's report (when it emits one),
/// which carries the serialization decisions that produced it.
#[derive(Clone, PartialEq, Debug)]
pub struct ScheduledArtifact {
    /// The timed schedule.
    pub sched: ScheduledCircuit,
    /// Search diagnostics, when the scheduler produces them.
    pub report: Option<XtalkSchedReport>,
}

/// The exportable form of a schedule: the timed slots plus the barriered
/// circuit that enforces the serialization decisions on hardware.
#[derive(Clone, PartialEq, Debug)]
pub struct RealizedSchedule {
    /// The timed schedule.
    pub sched: ScheduledCircuit,
    /// The barriered executable circuit.
    pub circuit: Circuit,
}

impl ContentHash for NativeCircuit {
    fn content_hash(&self, h: &mut Fnv1a) {
        self.circuit.content_hash(h);
    }
}

impl ContentHash for Layout {
    fn content_hash(&self, h: &mut Fnv1a) {
        h.write_usize(self.num_physical());
        self.mapping().content_hash(h);
    }
}

impl ContentHash for PlacedCircuit {
    fn content_hash(&self, h: &mut Fnv1a) {
        self.circuit.content_hash(h);
        self.layout.content_hash(h);
    }
}

impl ContentHash for RoutedCircuit {
    fn content_hash(&self, h: &mut Fnv1a) {
        self.circuit.content_hash(h);
        self.initial_layout.content_hash(h);
        self.final_layout.content_hash(h);
        h.write_usize(self.swaps_inserted);
    }
}

impl ContentHash for XtalkSchedReport {
    fn content_hash(&self, h: &mut Fnv1a) {
        h.write_f64(self.cost);
        h.write_u64(self.leaves);
        self.serializations.content_hash(h);
        h.write_usize(self.candidate_pairs);
        h.write_u8(u8::from(self.complete));
        h.write_u8(u8::from(self.fallback));
    }
}

impl ContentHash for ScheduledArtifact {
    fn content_hash(&self, h: &mut Fnv1a) {
        self.sched.content_hash(h);
        self.report.content_hash(h);
    }
}

impl ContentHash for RealizedSchedule {
    fn content_hash(&self, h: &mut Fnv1a) {
        self.sched.content_hash(h);
        self.circuit.content_hash(h);
    }
}

/// Lowers to the native basis and fuses maximal single-qubit runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LowerPass;

impl Pass for LowerPass {
    type Input = Circuit;
    type Output = NativeCircuit;
    type Err = CoreError;

    fn id(&self) -> &'static str {
        "lower"
    }

    fn run(&self, input: &Circuit, _budget: &Budget) -> Result<NativeCircuit, CoreError> {
        let circuit = fuse_single_qubit_gates(&xtalk_pass::lower_to_native(input));
        Ok(NativeCircuit { circuit })
    }
}

/// Pads a native circuit to device width and chooses an initial layout:
/// identity when the circuit is already hardware-compliant, else the
/// greedy interaction-aware placement.
#[derive(Clone, Copy, Debug)]
pub struct PlacePass<'t> {
    topo: &'t Topology,
}

impl<'t> PlacePass<'t> {
    /// Placement onto `topo`.
    pub fn new(topo: &'t Topology) -> Self {
        PlacePass { topo }
    }
}

impl Pass for PlacePass<'_> {
    type Input = NativeCircuit;
    type Output = PlacedCircuit;
    type Err = CoreError;

    fn id(&self) -> &'static str {
        "place"
    }

    fn config_hash(&self, h: &mut Fnv1a) {
        self.topo.content_hash(h);
    }

    fn run(&self, input: &NativeCircuit, _budget: &Budget) -> Result<PlacedCircuit, CoreError> {
        let n = self.topo.num_qubits();
        if input.circuit.num_qubits() > n {
            return Err(CoreError::WidthExceeded {
                circuit: input.circuit.num_qubits(),
                device: n,
            });
        }
        let circuit = if input.circuit.num_qubits() == n {
            input.circuit.clone()
        } else {
            let mut padded = Circuit::new(n, input.circuit.num_clbits());
            padded
                .try_extend(&input.circuit)
                .expect("padding to a wider register cannot fail");
            padded
        };
        let compliant = circuit.iter().all(|ins| {
            !ins.gate().is_two_qubit()
                || self
                    .topo
                    .has_edge(Edge::from(ins.edge().expect("two-qubit gate has an edge")))
        });
        let layout = if compliant {
            Layout::trivial(n, n)
        } else {
            greedy_layout(&circuit, self.topo)
        };
        Ok(PlacedCircuit { circuit, layout })
    }
}

/// Routes a placed circuit: inserts SWAP chains (as CNOT triples) until
/// every two-qubit gate sits on a coupling edge.
#[derive(Clone, Copy, Debug)]
pub struct RoutePass<'t> {
    topo: &'t Topology,
}

impl<'t> RoutePass<'t> {
    /// Routing over `topo`.
    pub fn new(topo: &'t Topology) -> Self {
        RoutePass { topo }
    }
}

impl Pass for RoutePass<'_> {
    type Input = PlacedCircuit;
    type Output = RoutedCircuit;
    type Err = CoreError;

    fn id(&self) -> &'static str {
        "route"
    }

    fn config_hash(&self, h: &mut Fnv1a) {
        self.topo.content_hash(h);
    }

    fn run(&self, input: &PlacedCircuit, _budget: &Budget) -> Result<RoutedCircuit, CoreError> {
        route(&input.circuit, self.topo, input.layout.clone())
    }
}

/// Schedules a routed physical circuit with a given scheduler under the
/// manager's budget. The cache key covers the scheduler's fingerprint
/// (name + knobs) and the full scheduler context, so the three policies
/// share the lower/place/route prefix but never each other's schedules.
pub struct SchedulePass<'a> {
    scheduler: &'a dyn Scheduler,
    ctx: &'a SchedulerContext,
}

impl<'a> SchedulePass<'a> {
    /// Scheduling with `scheduler` in `ctx`.
    pub fn new(scheduler: &'a dyn Scheduler, ctx: &'a SchedulerContext) -> Self {
        SchedulePass { scheduler, ctx }
    }
}

impl Pass for SchedulePass<'_> {
    type Input = Circuit;
    type Output = ScheduledArtifact;
    type Err = CoreError;

    fn id(&self) -> &'static str {
        "schedule"
    }

    fn config_hash(&self, h: &mut Fnv1a) {
        self.scheduler.fingerprint(h);
        self.ctx.content_hash(h);
    }

    fn cache_output(&self, out: &ScheduledArtifact) -> bool {
        // A budget-truncated (or fallback) schedule is best-effort, not
        // canonical: a later run with a healthier budget must redo it.
        out.report.as_ref().is_none_or(|r| r.complete)
    }

    fn run(&self, input: &Circuit, budget: &Budget) -> Result<ScheduledArtifact, CoreError> {
        let (sched, report) = self.scheduler.schedule_report(input, self.ctx, budget)?;
        Ok(ScheduledArtifact { sched, report })
    }
}

/// Converts a scheduled artifact into its exportable barriered form.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RealizePass;

impl Pass for RealizePass {
    type Input = ScheduledArtifact;
    type Output = RealizedSchedule;
    type Err = CoreError;

    fn id(&self) -> &'static str {
        "realize"
    }

    fn run(&self, input: &ScheduledArtifact, _budget: &Budget) -> Result<RealizedSchedule, CoreError> {
        let serializations = input.report.as_ref().map_or(&[][..], |r| &r.serializations);
        let circuit = to_barriered_circuit(&input.sched, serializations);
        Ok(RealizedSchedule { sched: input.sched.clone(), circuit })
    }
}

/// A schedule compiled against the device's noise for sampling: the
/// [`ProgramPass`] artifact the sampling stage ([`SamplePass`]) runs.
#[derive(Debug)]
pub struct ProgramArtifact {
    /// The schedule's content key (circuit and slots): the artifact's
    /// identity within one device epoch.
    pub schedule_key: u64,
    /// Outcome tables for the exact components, trajectory programs for
    /// the rest ([`Executor::program`]).
    pub prepared: Prepared,
}

impl ContentHash for ProgramArtifact {
    fn content_hash(&self, h: &mut Fnv1a) {
        h.write_u64(self.schedule_key);
    }
}

/// Compiles a schedule for sampling: validates it once, evolves every
/// exact-eligible component's noisy channel into its outcome table and
/// keeps trajectory programs for the rest ([`Executor::program`]).
/// Cached: the key is the schedule's content key plus the device epoch,
/// and the configuration covers everything else the program reads — the
/// calibration and the ground-truth crosstalk map — so every run of one
/// schedule in one epoch samples one artifact. Every noise source is on.
#[derive(Clone, Copy, Debug)]
pub struct ProgramPass<'d> {
    device: &'d Device,
}

impl<'d> ProgramPass<'d> {
    /// Compilation against `device`.
    pub fn new(device: &'d Device) -> Self {
        ProgramPass { device }
    }
}

impl Pass for ProgramPass<'_> {
    type Input = ScheduledCircuit;
    type Output = ProgramArtifact;
    type Err = CoreError;

    fn id(&self) -> &'static str {
        "program"
    }

    fn config_hash(&self, h: &mut Fnv1a) {
        self.device.calibration().content_hash(h);
        self.device.crosstalk().content_hash(h);
    }

    fn run(&self, input: &ScheduledCircuit, _budget: &Budget) -> Result<ProgramArtifact, CoreError> {
        Ok(ProgramArtifact {
            schedule_key: input.hash_value(),
            prepared: Executor::new(self.device).program(input),
        })
    }
}

/// Samples a compiled program on the simulator. Never cached — output
/// depends on shots/seed/threads, and the executor's claim loop already
/// yields honest prefixes under the manager's budget.
#[derive(Clone, Copy, Debug)]
pub struct SamplePass<'d> {
    device: &'d Device,
    shots: u64,
    seed: u64,
    threads: usize,
}

impl<'d> SamplePass<'d> {
    /// Sampling of `shots` shots with base `seed` across `threads` OS
    /// threads (`0` = available parallelism).
    pub fn new(device: &'d Device, shots: u64, seed: u64, threads: usize) -> Self {
        SamplePass { device, shots, seed, threads }
    }
}

impl Pass for SamplePass<'_> {
    type Input = ProgramArtifact;
    type Output = RunOutcome;
    type Err = CoreError;

    fn id(&self) -> &'static str {
        "execute"
    }

    fn cacheable(&self) -> bool {
        false
    }

    fn run(&self, input: &ProgramArtifact, budget: &Budget) -> Result<RunOutcome, CoreError> {
        let cfg = ExecutorConfig { shots: self.shots, seed: self.seed, ..Default::default() };
        Ok(Executor::with_config(self.device, cfg).sample(&input.prepared, self.threads, budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;
    use xtalk_pass::{EpochToken, PassManager};

    #[test]
    fn place_pads_and_keeps_compliant_circuits_identity() {
        let topo = Topology::line(5);
        let mut c = Circuit::new(2, 2);
        c.u2(0.0, PI, 0).cx(0, 1).measure(0, 0).measure(1, 1);
        let pm = PassManager::new(EpochToken::new("t", 0));
        let native = pm.run(&LowerPass, &c).unwrap();
        let placed = pm.run(&PlacePass::new(&topo), &native).unwrap();
        assert_eq!(placed.circuit.num_qubits(), 5);
        assert_eq!(placed.layout, Layout::trivial(5, 5));
        let routed = pm.run(&RoutePass::new(&topo), &placed).unwrap();
        assert_eq!(routed.swaps_inserted, 0);
        // Identity routing preserves the padded circuit exactly.
        assert_eq!(routed.circuit, placed.circuit);
    }

    #[test]
    fn place_rejects_oversized_circuits() {
        let topo = Topology::line(2);
        let c = Circuit::new(3, 0);
        let pm = PassManager::new(EpochToken::new("t", 0));
        let native = pm.run(&LowerPass, &c).unwrap();
        match pm.run(&PlacePass::new(&topo), &native).map_err(CoreError::from) {
            Err(CoreError::WidthExceeded { circuit: 3, device: 2 }) => {}
            other => panic!("expected WidthExceeded, got {other:?}"),
        }
    }

    #[test]
    fn place_falls_back_to_greedy_layout_for_noncompliant() {
        let topo = Topology::line(4);
        let mut c = Circuit::new(4, 0);
        c.cx(0, 3); // non-adjacent on a line
        let pm = PassManager::new(EpochToken::new("t", 0));
        let native = pm.run(&LowerPass, &c).unwrap();
        let placed = pm.run(&PlacePass::new(&topo), &native).unwrap();
        let routed = pm.run(&RoutePass::new(&topo), &placed).unwrap();
        // Routed output must be hardware-compliant.
        for ins in routed.circuit.iter() {
            if ins.gate().is_two_qubit() {
                assert!(topo.has_edge(Edge::from(ins.edge().unwrap())));
            }
        }
    }
}

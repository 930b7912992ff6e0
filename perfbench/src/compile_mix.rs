//! `compile_mix`: closed loop, one thread. Compiles a seeded draw of
//! distinct circuits under XtalkSched(0.5), ParSched and SerialSched
//! through one `Compiler` per device, so the artifact cache shares only
//! the lower/place/route prefix across the three schedulers.
//!
//! The draw mixes the Figure 5 SWAP-tomography circuits on the three
//! IBMQ devices (many sub-millisecond compiles), in a seeded order, with
//! seeded supremacy-style circuits of 8–14 qubits × depth 10–30 on
//! Poughkeepsie whose crosstalk searches run into the leaf budget.
//! The same draw is compiled in repeated passes, each with fresh
//! compilers, until the run's time is used; every pass must produce the
//! same exact counts.

use crate::check::check_schedule;
use crate::host;
use crate::report::Report;
use crate::stats::{self, Rng};
use crate::trace;
use std::sync::Arc;
use std::time::Instant;
use xtalk_core::bench_circuits::supremacy_circuit;
use xtalk_core::layout::RoutedCircuit;
use xtalk_core::routing::{endpoint_pairs_by_crosstalk, swap_benchmark};
use xtalk_core::sched::schedule_cost;
use xtalk_core::{
    Compiler, CoreError, ParSched, ScheduledArtifact, Scheduler, SchedulerContext, SerialSched,
    XtalkSched,
};
use xtalk_device::Device;
use xtalk_ir::Circuit;
use xtalk_sim::tomography::tomography_circuits;

/// Calibration seed of the device models (the serve fleet's default).
const DEVICE_SEED: u64 = 7;
/// Supremacy-style circuits drawn per run.
const SUPREMACY_DRAW: usize = 250;
/// Leaf budget of every crosstalk search. Uncapped, a supremacy circuit's
/// search spans 10–10⁵ leaves and a few circuits of 10⁴+ leaves (seconds
/// each) decide a run's throughput by themselves; capped, most searches
/// are anytime searches that stop at the budget, and
/// `sched.xtalk.complete_ratio` counts those that finish.
const LEAF_CAP: u64 = 64;
/// Crosstalk weight of the XtalkSched under test.
const OMEGA: f64 = 0.5;
/// Circuits compiled between two samplings of the host's speed.
const SAMPLE_EVERY: usize = 25;

struct Item {
    device: usize,
    circuit: Circuit,
    /// Supremacy-style circuits search under [`LEAF_CAP`]; the Figure 5
    /// circuits under XtalkSched's default budget.
    capped: bool,
}

/// Generated inputs and the devices they compile for.
pub struct CompileMix {
    devices: Vec<Device>,
    contexts: Vec<SchedulerContext>,
    items: Vec<Item>,
    tomography: usize,
}

/// Exact per-pass counts; every pass of one seed must agree.
#[derive(Clone, PartialEq, Default, Debug)]
struct Exact {
    compiles: u64,
    leaves: u64,
    candidate_pairs: u64,
    searches: u64,
    complete: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_entries: u64,
    /// Σ over circuits of Eq. 17 cost(ParSched) − cost(XtalkSched).
    gain: f64,
}

struct Pass {
    /// Compile latencies, each scaled to the nominal host (see [`host`]).
    latencies_ms: Vec<f64>,
    /// The scale of each chunk of [`SAMPLE_EVERY`] circuits.
    scales: Vec<f64>,
    /// Time spent in compiles, seconds.
    busy_s: f64,
    exact: Exact,
}

impl CompileMix {
    /// Builds the devices and draws the circuits for `seed`.
    pub fn setup(seed: u64) -> CompileMix {
        let devices = Device::all_ibmq(DEVICE_SEED);
        let contexts: Vec<SchedulerContext> = devices
            .iter()
            .map(SchedulerContext::from_ground_truth)
            .collect();
        let mut rng = Rng::new(seed, 1);

        let mut pool = Vec::new();
        for (d, (device, ctx)) in devices.iter().zip(&contexts).enumerate() {
            for (a, b) in affected_swap_pairs(device, ctx) {
                let bench = swap_benchmark(device.topology(), a, b).expect("device is connected");
                let (qa, qb) = bench.bell_pair;
                for (_, circuit) in tomography_circuits(&bench.circuit, qa, qb) {
                    pool.push(Item {
                        device: d,
                        circuit,
                        capped: false,
                    });
                }
            }
        }
        let tomography = pool.len();

        let pk = devices
            .iter()
            .position(|d| d.name() == "ibmq_poughkeepsie")
            .expect("preset");
        for i in 0..SUPREMACY_DRAW {
            // The sizes walk the 7 × 21 grid of qubits × depth, the same for
            // every seed, so the heaviest searches weigh alike in every run;
            // the seed draws the regions and the gates.
            let qubits = 8 + i % 7;
            let depth = 10 + (i / 7) % 21;
            let region = connected_region(&devices[pk], rng.range(0, 19) as u32, qubits, &mut rng);
            let circuit = supremacy_circuit(devices[pk].topology(), &region, depth, rng.next_u64());
            pool.push(Item {
                device: pk,
                circuit,
                capped: true,
            });
        }
        rng.shuffle(&mut pool);

        let mix = CompileMix {
            devices,
            contexts,
            items: pool,
            tomography,
        };
        mix.warm_up();
        mix
    }

    /// One throwaway compile per device and scheduler, so lazy
    /// initialization is paid in set-up.
    fn warm_up(&self) {
        for (device, ctx) in self.devices.iter().zip(&self.contexts) {
            let compiler = Compiler::new(device, ctx.clone());
            let mut c = Circuit::new(2, 2);
            c.h(0).cx(0, 1).measure(0, 0).measure(1, 1);
            for s in schedulers(false) {
                compiler.compile(&c, s.as_ref()).expect("warm-up compiles");
            }
        }
    }

    /// Compiles the draw in passes until `seconds` are used (at least
    /// three), checking every schedule.
    pub fn run(&self, seconds: f64, traced: bool, report: &mut Report) {
        let mut passes: Vec<Pass> = Vec::new();
        let mut traced_passes = 0u64;
        let mut untraced_busy = 0.0;
        let started = Instant::now();
        loop {
            // A traced run compiles its first pass untraced and the rest
            // traced; the first two passes give the tracing overhead.
            let trace_this = traced && !passes.is_empty();
            trace::set_enabled(trace_this);
            let t = Instant::now();
            let pass = self.pass(report);
            let pass_wall = t.elapsed().as_secs_f64();
            trace::set_enabled(false);
            if trace_this {
                traced_passes += 1;
            } else {
                untraced_busy = pass.busy_s;
            }
            if let Some(first) = passes.first() {
                if first.exact != pass.exact {
                    report.fail(format!(
                        "pass {} counts differ from pass 1: {:?} vs {:?}",
                        passes.len() + 1,
                        pass.exact,
                        first.exact
                    ));
                }
            }
            passes.push(pass);
            let min_passes = if traced { 2 } else { 3 };
            if passes.len() >= min_passes && started.elapsed().as_secs_f64() + pass_wall > seconds {
                break;
            }
        }

        // Every pass compiles the same inputs in the same order, so a
        // compile's latency is the median of its scaled repetitions over
        // the passes. (A fastest repetition would fall with the number of
        // passes, which grows with the host's speed.)
        let exact = passes[0].exact.clone();
        let typical: Vec<f64> = (0..passes[0].latencies_ms.len())
            .map(|i| stats::median(&passes.iter().map(|p| p.latencies_ms[i]).collect::<Vec<_>>()))
            .collect();
        let p50 = stats::median(&typical);
        let p99 = stats::quantile(&typical, 0.99);
        let throughput = typical.len() as f64 / (typical.iter().sum::<f64>() / 1e3);
        let quality = exact.gain / self.items.len() as f64;

        report.attempted += passes.iter().map(|p| p.exact.compiles).sum::<u64>();
        report.set("latency_p50_ms", p50);
        report.set("latency_p99_ms", p99);
        report.set("throughput_per_s", throughput);
        report.set("quality", quality);

        report.exact("compiles_per_pass", exact.compiles);
        report.exact("sched.xtalk.leaves", exact.leaves);
        report.exact("sched.xtalk.candidate_pairs", exact.candidate_pairs);
        report.exact("sched.xtalk.complete", exact.complete);
        report.exact("pass.cache_hits", exact.cache_hits);
        report.exact("pass.cache_misses", exact.cache_misses);
        report.exact("xtalk_gain_sum", format!("{:?}", exact.gain));

        report.line(format!(
            "compile_mix: {} circuits ({} SWAP-tomography, {} supremacy) x 3 schedulers = {} compiles per pass, {} passes",
            self.items.len(),
            self.tomography,
            self.items.len() - self.tomography,
            exact.compiles,
            passes.len()
        ));
        let scales: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.scales.iter().copied())
            .collect();
        report.line(format!(
            "  compile_ms_p50 = {p50:.4} ms, compile_ms_p99 = {p99:.4} ms, compile_per_s = {throughput:.1} 1/s (each compile's median of {} passes; scales {:.3}..{:.3}, median {:.3})",
            passes.len(),
            scales.iter().copied().fold(f64::INFINITY, f64::min),
            scales.iter().copied().fold(0.0, f64::max),
            stats::median(&scales)
        ));
        report.line(format!(
            "  xtalk_objective gain over ParSched (Eq. 17, w=0.5) = {quality:.6} per circuit; leaves = {}, candidate pairs = {}, complete searches = {}/{}",
            exact.leaves, exact.candidate_pairs, exact.complete, exact.searches
        ));

        if traced {
            let spans = trace::take();
            let totals = trace::totals(&spans);
            let snap = xtalk_obs::snapshot();
            let per_pass = |v: u64| v as f64 / traced_passes.max(1) as f64;
            let prepare_ns: u64 = ["core.lower", "core.place", "core.route"]
                .iter()
                .map(|n| totals.get(n).map_or(0, |t| t.total_ns))
                .sum();
            let prepared = totals.get("core.lower").map_or(0, |t| t.count);
            let realize = trace::obs_totals(&snap, "realize", "");
            let traced_busy: f64 =
                passes[1..].iter().map(|p| p.busy_s).sum::<f64>() / traced_passes.max(1) as f64;
            report.set(
                "core.prepare_ms",
                stats::ratio(prepare_ns as f64, prepared as f64) / 1e6,
            );
            report.set(
                "core.schedule_ms",
                totals.get("core.schedule").map_or(0.0, |t| t.mean_ms()),
            );
            report.set("sched.realize_calls", per_pass(realize.count));
            report.set("sched.realize_ms", realize.mean_ms());
            report.set(
                "trace.overhead_pct",
                (traced_busy / untraced_busy - 1.0) * 100.0,
            );
            trace::finish("compile_mix", &spans, &snap, report);
        }
        report.set("sched.xtalk.leaves", exact.leaves as f64);
        report.set("sched.xtalk.candidate_pairs", exact.candidate_pairs as f64);
        report.set(
            "sched.xtalk.complete_ratio",
            stats::ratio(exact.complete as f64, exact.searches as f64),
        );
        report.set("pass.cache_hits", exact.cache_hits as f64);
        report.set("pass.cache_misses", exact.cache_misses as f64);
        report.set(
            "pass.cache_hit_ratio",
            stats::ratio(
                exact.cache_hits as f64,
                (exact.cache_hits + exact.cache_misses) as f64,
            ),
        );
        report.set("pass.cache_entries", exact.cache_entries as f64);
    }

    /// Compiles every drawn circuit under the three schedulers with
    /// fresh compilers, timing each compile.
    fn pass(&self, report: &mut Report) -> Pass {
        let compilers: Vec<Compiler<'_>> = self
            .devices
            .iter()
            .zip(&self.contexts)
            .map(|(d, ctx)| Compiler::new(d, ctx.clone()))
            .collect();
        let schedulers = [schedulers(false), schedulers(true)];
        let mut exact = Exact::default();
        let mut latencies = Vec::with_capacity(self.items.len() * 3);
        let mut busy = 0.0;
        // Reference readings before every chunk of circuits and after the
        // last; a chunk's scale comes from the readings on either side.
        let mut points: Vec<Vec<f64>> = Vec::new();
        for (req, item) in self.items.iter().enumerate() {
            if req % SAMPLE_EVERY == 0 {
                points.push(Vec::new());
                host::sample(points.last_mut().expect("just pushed"));
            }
            let compiler = &compilers[item.device];
            let ctx = &self.contexts[item.device];
            let mut costs = [0.0f64; 2];
            for (k, s) in schedulers[usize::from(item.capped)].iter().enumerate() {
                let t = Instant::now();
                let compiled = compile(compiler, &item.circuit, s.as_ref(), req as u64);
                let dt = t.elapsed().as_secs_f64();
                busy += dt;
                exact.compiles += 1;
                latencies.push(dt * 1e3);
                let (routed, artifact) = match compiled {
                    Ok(v) => v,
                    Err(e) => {
                        report.failed += 1;
                        report.fail(format!("circuit {req} under {}: {e}", s.name()));
                        continue;
                    }
                };
                let topo = self.devices[item.device].topology();
                if let Err(e) = check_schedule(&artifact.sched, &routed.circuit, topo) {
                    report.fail(format!("circuit {req} under {}: {e}", s.name()));
                }
                // XtalkSched's and ParSched's costs give the Eq. 17 gain.
                if k < 2 {
                    costs[k] = schedule_cost(&artifact.sched, ctx, OMEGA);
                }
                if let Some(r) = &artifact.report {
                    exact.searches += 1;
                    exact.leaves += r.leaves;
                    exact.candidate_pairs += r.candidate_pairs as u64;
                    exact.complete += u64::from(r.complete);
                }
            }
            exact.gain += costs[1] - costs[0];
        }
        for c in &compilers {
            exact.cache_hits += c.cache().hits();
            exact.cache_misses += c.cache().misses();
            exact.cache_entries += c.cache().len() as u64;
        }
        points.push(Vec::new());
        host::sample(points.last_mut().expect("just pushed"));
        let scales: Vec<f64> = points
            .windows(2)
            .map(|w| host::scale(&[w[0].as_slice(), w[1].as_slice()].concat()))
            .collect();
        // Three compiles per circuit, in circuit order.
        for (j, latency) in latencies.iter_mut().enumerate() {
            *latency *= scales[j / 3 / SAMPLE_EVERY];
        }
        Pass {
            latencies_ms: latencies,
            scales,
            busy_s: busy,
            exact,
        }
    }
}

/// XtalkSched first: it pays the shared prefix, the others hit it.
fn schedulers(capped: bool) -> [Box<dyn Scheduler>; 3] {
    let xtalk = XtalkSched::new(OMEGA);
    [
        Box::new(if capped {
            xtalk.with_max_leaves(LEAF_CAP)
        } else {
            xtalk
        }),
        Box::new(ParSched::new()),
        Box::new(SerialSched::new()),
    ]
}

/// Lower, place, route and schedule through the compiler's public
/// stages, one harness span per stage.
fn compile(
    compiler: &Compiler<'_>,
    circuit: &Circuit,
    scheduler: &dyn Scheduler,
    req: u64,
) -> Result<(Arc<RoutedCircuit>, Arc<ScheduledArtifact>), CoreError> {
    let _compile = trace::span("core.compile", req);
    let native = {
        let _s = trace::span("core.lower", req);
        compiler.lower(circuit)?
    };
    let placed = {
        let _s = trace::span("core.place", req);
        compiler.place(&native)?
    };
    let routed = {
        let _s = trace::span("core.route", req);
        compiler.route(&placed)?
    };
    let artifact = {
        let _s = trace::span("core.schedule", req);
        compiler.schedule(&routed.circuit, scheduler)?
    };
    Ok((routed, artifact))
}

/// The Figure 5 evaluation set: endpoint pairs at path length 3–8 whose
/// shortest path crosses a high-crosstalk pair and whose SWAP circuit
/// holds at least one pair of parallelizable high-crosstalk CNOTs.
fn affected_swap_pairs(device: &Device, ctx: &SchedulerContext) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for len in 3..=8 {
        for (a, b) in endpoint_pairs_by_crosstalk(device.topology(), ctx, len, false) {
            let bench = swap_benchmark(device.topology(), a, b).expect("device is connected");
            if !XtalkSched::candidate_pairs(&bench.circuit, ctx).is_empty() {
                out.push((a, b));
            }
        }
    }
    out
}

/// A connected set of `size` qubits grown from `start` in random
/// breadth-first order.
fn connected_region(device: &Device, start: u32, size: usize, rng: &mut Rng) -> Vec<u32> {
    let topo = device.topology();
    let mut region = vec![start];
    let mut frontier: Vec<u32> = topo.neighbors(start).to_vec();
    while region.len() < size && !frontier.is_empty() {
        let q = frontier.swap_remove(rng.below(frontier.len()));
        if region.contains(&q) {
            continue;
        }
        region.push(q);
        frontier.extend(topo.neighbors(q).iter().filter(|n| !region.contains(n)));
    }
    region
}

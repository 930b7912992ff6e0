//! Criterion bench: XtalkSched compile time vs circuit size (the paper's
//! Section 9.4 scalability claim, as a tracked microbenchmark).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xtalk_core::bench_circuits::supremacy_circuit;
use xtalk_core::{Scheduler, SchedulerContext, XtalkSched};
use xtalk_device::Device;

fn scheduler_scaling(c: &mut Criterion) {
    let device = Device::poughkeepsie(7);
    let ctx = SchedulerContext::from_ground_truth(&device);
    let mut group = c.benchmark_group("xtalksched_compile");
    group.sample_size(10);

    for (nq, depth) in [(6usize, 10usize), (10, 12), (12, 16)] {
        let qubits: Vec<u32> = (0..nq as u32).collect();
        let circuit = supremacy_circuit(device.topology(), &qubits, depth, 7);
        let scheduler = XtalkSched::new(0.5).with_max_leaves(2_000);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{nq}q_{}gates", circuit.len())),
            &circuit,
            |b, circuit| {
                b.iter(|| scheduler.schedule(circuit, &ctx).expect("schedulable"));
            },
        );
    }
    group.finish();
}

/// The supremacy searches of the `compile_mix` workload: Poughkeepsie
/// circuits of 8–14 qubits at depth 10–30 under a 64-leaf budget, so most
/// searches stop at the budget and the time is the search's own.
fn capped_search(c: &mut Criterion) {
    let device = Device::poughkeepsie(7);
    let ctx = SchedulerContext::from_ground_truth(&device);
    let scheduler = XtalkSched::new(0.5).with_max_leaves(64);
    let mut group = c.benchmark_group("xtalksched_64_leaves");
    group.sample_size(10);

    for (nq, depth) in [(8usize, 10usize), (11, 20), (14, 30)] {
        let qubits: Vec<u32> = (0..nq as u32).collect();
        let circuit = supremacy_circuit(device.topology(), &qubits, depth, 1);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{nq}q_depth{depth}_{}gates", circuit.len())),
            &circuit,
            |b, circuit| {
                b.iter(|| scheduler.schedule(circuit, &ctx).expect("schedulable"));
            },
        );
    }
    group.finish();
}

fn baseline_schedulers(c: &mut Criterion) {
    let device = Device::poughkeepsie(7);
    let ctx = SchedulerContext::from_ground_truth(&device);
    let qubits: Vec<u32> = (0..12).collect();
    let circuit = supremacy_circuit(device.topology(), &qubits, 16, 7);

    let mut group = c.benchmark_group("baseline_schedulers");
    group.bench_function("parsched", |b| {
        b.iter(|| xtalk_core::ParSched::new().schedule(&circuit, &ctx).expect("ok"));
    });
    group.bench_function("serialsched", |b| {
        b.iter(|| xtalk_core::SerialSched::new().schedule(&circuit, &ctx).expect("ok"));
    });
    group.finish();
}

criterion_group!(benches, scheduler_scaling, capped_search, baseline_schedulers);
criterion_main!(benches);

//! Criterion bench: simultaneous-RB characterization cost per pair (the
//! simulated analogue of the machine time Figure 10 accounts for).

use criterion::{criterion_group, criterion_main, Criterion};
use xtalk_charac::srb::{run_rb_bin, run_srb_pair};
use xtalk_charac::RbConfig;
use xtalk_device::{Device, Edge};

fn tiny_config() -> RbConfig {
    RbConfig { lengths: vec![2, 8, 16], seqs_per_length: 2, shots: 64, seed: 1 }
}

fn srb_pair(c: &mut Criterion) {
    let device = Device::poughkeepsie(7);
    let mut group = c.benchmark_group("srb");
    group.sample_size(10);
    group.bench_function("pair_10_15__11_12", |b| {
        b.iter(|| run_srb_pair(&device, Edge::new(10, 15), Edge::new(11, 12), &tiny_config()));
    });
    group.bench_function("independent_rb_bin", |b| {
        b.iter(|| run_rb_bin(&device, &[Edge::new(0, 1), Edge::new(15, 16)], &tiny_config()));
    });
    group.finish();
}

fn clifford_sampling(c: &mut Criterion) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xtalk_charac::rb::{clifford_sequence, native_templates};
    use xtalk_clifford::group::two_qubit_cliffords;
    use xtalk_ir::{Circuit, Qubit};
    // Build the group and the templates outside the measurement: one
    // 12-Clifford RB sequence on a pair, drawn and emitted as RB runs it.
    let group = two_qubit_cliffords();
    let templates = native_templates(group, &[Qubit::new(0), Qubit::new(1)]);
    c.bench_function("rb_clifford_sequence_m12", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| {
            let mut circuit = Circuit::new(2, 0);
            clifford_sequence(&mut circuit, group, &templates, 12, None, &mut rng);
            circuit
        });
    });
}

criterion_group!(benches, srb_pair, clifford_sampling);
criterion_main!(benches);

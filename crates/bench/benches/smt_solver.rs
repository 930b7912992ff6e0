//! Criterion bench: the optimizing difference-logic solver on synthetic
//! scheduling-shaped models.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xtalk_smt::{Model, Objective, Optimizer};

/// Builds a model with `pairs` independently serializable gate pairs.
fn build_model(pairs: usize) -> Model {
    let mut m = Model::new();
    let vars: Vec<_> = (0..2 * pairs).map(|_| m.real_var()).collect();
    for w in vars.chunks(2) {
        if let [a, b] = w {
            let ab = m.bool_var();
            let ba = m.bool_var();
            m.guard(ab, m.ge_diff(*b, *a, 300));
            m.guard(ba, m.ge_diff(*a, *b, 300));
            m.at_most_one(vec![ab, ba]);
        }
    }
    m
}

struct MakespanObjective;
impl Objective for MakespanObjective {
    fn evaluate(&self, bools: &[bool], times: &[i64]) -> f64 {
        let makespan = times.iter().copied().max().unwrap_or(0) as f64;
        let serialized = bools.iter().filter(|&&b| b).count() as f64;
        makespan - 10.0 * serialized
    }
}

fn smt_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("smt_optimizer");
    for pairs in [2usize, 4, 6] {
        group.bench_with_input(BenchmarkId::from_parameter(pairs), &pairs, |b, &pairs| {
            b.iter(|| {
                let model = build_model(pairs);
                Optimizer::new(model).minimize(&MakespanObjective).0.expect("sat")
            });
        });
    }
    group.finish();
}

fn difference_logic(c: &mut Criterion) {
    use xtalk_smt::DifferenceLogic;
    let mut m = Model::new();
    let vars: Vec<_> = (0..200).map(|_| m.real_var()).collect();
    c.bench_function("difference_logic_chain_200", |b| {
        b.iter(|| {
            let mut dl = DifferenceLogic::new(200);
            for w in vars.windows(2) {
                dl.add(m.ge_diff(w[1], w[0], 100));
            }
            dl.earliest().expect("feasible")
        });
    });
}

criterion_group!(benches, smt_solver, difference_logic);
criterion_main!(benches);

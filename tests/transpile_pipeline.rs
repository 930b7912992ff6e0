//! Property tests of the compiler front end: lowering, fusion, placement
//! and routing must preserve program semantics on arbitrary circuits, and
//! their outputs must feed the schedulers cleanly.

use crosstalk_mitigation::core::layout::{route_with_greedy_layout, Layout};
use crosstalk_mitigation::core::optimize::fuse_single_qubit_gates;
use crosstalk_mitigation::pass::lower::{is_native, lower_to_native};
use crosstalk_mitigation::core::{ParSched, Scheduler, SchedulerContext};
use crosstalk_mitigation::device::Device;
use crosstalk_mitigation::ir::Circuit;
use crosstalk_mitigation::sim::{ideal, metrics};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    H(u32),
    T(u32),
    S(u32),
    Rx(f64, u32),
    Rz(f64, u32),
    Cx(u32, u32),
    Cz(u32, u32),
    Swap(u32, u32),
}

fn ops_strategy(n: u32, len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0..n).prop_map(Op::H),
            (0..n).prop_map(Op::T),
            (0..n).prop_map(Op::S),
            ((-3.0..3.0f64), 0..n).prop_map(|(a, q)| Op::Rx(a, q)),
            ((-3.0..3.0f64), 0..n).prop_map(|(a, q)| Op::Rz(a, q)),
            (0..n, 1..n).prop_map(move |(a, d)| Op::Cx(a, (a + d) % n)),
            (0..n, 1..n).prop_map(move |(a, d)| Op::Cz(a, (a + d) % n)),
            (0..n, 1..n).prop_map(move |(a, d)| Op::Swap(a, (a + d) % n)),
        ],
        1..len,
    )
}

fn build(n: u32, ops: &[Op], measure: bool) -> Circuit {
    let mut c = Circuit::new(n as usize, n as usize);
    for op in ops {
        match *op {
            Op::H(q) => {
                c.h(q);
            }
            Op::T(q) => {
                c.t(q);
            }
            Op::S(q) => {
                c.s(q);
            }
            Op::Rx(a, q) => {
                c.rx(a, q);
            }
            Op::Rz(a, q) => {
                c.rz(a, q);
            }
            Op::Cx(a, b) => {
                c.cx(a, b);
            }
            Op::Cz(a, b) => {
                c.cz(a, b);
            }
            Op::Swap(a, b) => {
                c.swap(a, b);
            }
        }
    }
    if measure {
        c.measure_all();
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn lowering_preserves_state(ops in ops_strategy(4, 18)) {
        let c = build(4, &ops, false);
        let lowered = lower_to_native(&c);
        prop_assert!(is_native(&lowered));
        let f = ideal::final_state(&c).fidelity(&ideal::final_state(&lowered));
        prop_assert!(f > 1.0 - 1e-9, "fidelity {f}");
    }

    #[test]
    fn fusion_preserves_state_and_shrinks(ops in ops_strategy(4, 18)) {
        let c = build(4, &ops, false);
        let fused = fuse_single_qubit_gates(&c);
        prop_assert!(fused.len() <= c.len());
        let f = ideal::final_state(&c).fidelity(&ideal::final_state(&fused));
        prop_assert!(f > 1.0 - 1e-9, "fidelity {f}");
        // Fused circuits have no adjacent same-qubit 1q pairs left.
        let dag = fused.dag();
        for (i, ins) in fused.iter().enumerate() {
            if !ins.gate().is_single_qubit() { continue; }
            for &s in dag.successors(i) {
                prop_assert!(
                    !fused.instructions()[s].gate().is_single_qubit()
                        || fused.instructions()[s].qubits() != ins.qubits(),
                    "unfused 1q chain at {i}→{s}"
                );
            }
        }
    }

    #[test]
    fn routing_preserves_measured_distribution(ops in ops_strategy(5, 14)) {
        let device = Device::poughkeepsie(7);
        let logical = build(5, &ops, true);
        let native = lower_to_native(&logical);
        // Pad to device width before routing.
        let mut padded = Circuit::new(20, native.num_clbits());
        padded.try_extend(&native).unwrap();
        let routed = route_with_greedy_layout(&padded, device.topology()).unwrap();
        let want = ideal::distribution(&logical);
        let got = ideal::distribution(&routed.circuit);
        let tvd = metrics::total_variation(&want, &got);
        prop_assert!(tvd < 1e-9, "routing changed semantics: tvd {tvd}");
        // And the routed circuit schedules cleanly.
        let ctx = SchedulerContext::from_ground_truth(&device);
        let sched = ParSched::new().schedule(&routed.circuit, &ctx).unwrap();
        sched.validate().unwrap();
    }

    #[test]
    fn full_pipeline_composes(ops in ops_strategy(4, 12)) {
        // lower → fuse → route → schedule: semantics intact end to end.
        let device = Device::boeblingen(3);
        let logical = build(4, &ops, true);
        let staged = fuse_single_qubit_gates(&lower_to_native(&logical));
        let mut padded = Circuit::new(20, staged.num_clbits());
        padded.try_extend(&staged).unwrap();
        let routed = route_with_greedy_layout(&padded, device.topology()).unwrap();
        let tvd = metrics::total_variation(
            &ideal::distribution(&logical),
            &ideal::distribution(&routed.circuit),
        );
        prop_assert!(tvd < 1e-9, "pipeline changed semantics: tvd {tvd}");
    }

    #[test]
    fn arbitrary_layouts_route_correctly(ops in ops_strategy(4, 10), perm in 0usize..24) {
        // Any initial placement of 4 logical qubits on a line of 6.
        let device = Device::line(6, 2);
        let logical = build(4, &ops, true);
        let native = lower_to_native(&logical);
        let mut padded = Circuit::new(6, native.num_clbits());
        padded.try_extend(&native).unwrap();
        // perm indexes one of the 4! placements onto physical {0,2,3,5}.
        let sites = [0u32, 2, 3, 5];
        let mut order: Vec<u32> = sites.to_vec();
        let mut k = perm;
        let mut mapping = Vec::new();
        for i in (1..=4usize).rev() {
            mapping.push(order.remove(k % i));
            k /= i;
        }
        // Idle logical qubits 4,5 go to the leftover sites.
        let mut used: Vec<u32> = mapping.clone();
        for p in 0..6u32 {
            if !used.contains(&p) {
                mapping.push(p);
                used.push(p);
            }
        }
        let layout = Layout::from_mapping(&mapping, 6).unwrap();
        let routed = crosstalk_mitigation::core::layout::route(
            &padded, device.topology(), layout,
        ).unwrap();
        let tvd = metrics::total_variation(
            &ideal::distribution(&logical),
            &ideal::distribution(&routed.circuit),
        );
        prop_assert!(tvd < 1e-9, "layout {mapping:?}: tvd {tvd}");
    }
}

//! XtalkSched's search evaluates its nodes on a reused schedule timeline
//! and only builds a `ScheduledCircuit` for the schedule it returns. The
//! returned schedule and cost must be exactly what the standalone entry
//! points give for the chosen serializations: `realize` for the slots,
//! `schedule_cost` for the Eq. 17 value, bit for bit.

use xtalk_core::bench_circuits::supremacy_circuit;
use xtalk_core::routing::swap_benchmark;
use xtalk_core::sched::schedule_cost;
use xtalk_core::{realize, SchedulerContext, XtalkSched};
use xtalk_device::Device;
use xtalk_ir::Circuit;

/// Seeded supremacy-style circuits around Poughkeepsie's crosstalk hot
/// spots, plus the Figure 6 SWAP path (qubits 0 → 13).
fn circuits(device: &Device) -> Vec<(String, Circuit)> {
    let topo = device.topology();
    let regions: [&[u32]; 3] = [
        &[5, 6, 10, 11, 12, 15, 16, 17],
        &[10, 11, 12, 13, 14, 15, 16, 17, 18, 19],
        &[0, 1, 2, 5, 6, 7, 10, 11, 12],
    ];
    let mut out = Vec::new();
    for (r, region) in regions.iter().enumerate() {
        for seed in [1u64, 2] {
            let depth = 3 + r;
            out.push((
                format!("supremacy region {r} depth {depth} seed {seed}"),
                supremacy_circuit(topo, region, depth, seed),
            ));
        }
    }
    let fig6 = swap_benchmark(topo, 0, 13).expect("Poughkeepsie is connected");
    out.push(("fig6 swap path 0-13".into(), fig6.circuit));
    out
}

#[test]
fn search_output_is_bit_identical_to_standalone_realize_and_cost() {
    let device = Device::poughkeepsie(1);
    let ctx = SchedulerContext::from_ground_truth(&device);
    let mut serialized_any = false;
    for (name, circuit) in circuits(&device) {
        for omega in [0.0, 0.5, 1.0] {
            for cap in [Some(8), Some(64), None] {
                let mut sched = XtalkSched::new(omega);
                if let Some(cap) = cap {
                    sched = sched.with_max_leaves(cap);
                }
                let (got, report) = sched.schedule_with_report(&circuit, &ctx).unwrap();
                let expected = realize(&circuit, &ctx, &report.serializations).unwrap();
                assert_eq!(
                    got, expected,
                    "{name}, ω={omega}, cap {cap:?}: schedule differs"
                );
                assert_eq!(
                    report.cost.to_bits(),
                    schedule_cost(&got, &ctx, omega).to_bits(),
                    "{name}, ω={omega}, cap {cap:?}: cost {} differs",
                    report.cost
                );
                serialized_any |= !report.serializations.is_empty();
            }
        }
    }
    assert!(
        serialized_any,
        "no search serialized anything: the test would be vacuous"
    );
}

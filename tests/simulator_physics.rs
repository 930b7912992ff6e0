//! Cross-crate physics checks: the simulator's error compounding must
//! behave like the hardware phenomena the paper measures.

use crosstalk_mitigation::charac::srb::run_srb_pair;
use crosstalk_mitigation::charac::{rb::run_rb, RbConfig};
use crosstalk_mitigation::device::{CrosstalkMap, Device, Edge};
use crosstalk_mitigation::ir::Circuit;
use crosstalk_mitigation::sim::mitigation::CalibrationMatrix;
use crosstalk_mitigation::sim::{ideal, metrics, Executor, ExecutorConfig};

#[test]
fn sampled_distribution_converges_to_ideal_without_noise() {
    let device = Device::line(3, 2);
    let mut c = Circuit::new(3, 3);
    c.h(0).cx(0, 1).h(2).t(2).h(2).measure_all();
    let sched = Executor::asap_schedule(&c, device.calibration());
    let cfg = ExecutorConfig {
        shots: 20_000,
        seed: 5,
        gate_noise: false,
        crosstalk: false,
        decoherence: false,
        readout_noise: false,
    };
    let counts = Executor::with_config(&device, cfg).run(&sched);
    let tvd = metrics::total_variation(&ideal::distribution(&c), &counts.distribution());
    assert!(tvd < 0.02, "tvd {tvd}");
}

#[test]
fn rb_decay_worsens_with_error_rate() {
    // Two otherwise-identical devices, one with 3x the CNOT error: the
    // RB-estimated error must rank accordingly.
    let cfg = RbConfig { seqs_per_length: 4, shots: 160, seed: 1, ..Default::default() };
    let mut low = Device::line(2, 4);
    let mut cal = low.calibration().clone();
    cal.set_cx_error(Edge::new(0, 1), 0.008);
    low = low.with_calibration(cal);
    let mut high = Device::line(2, 4);
    let mut cal = high.calibration().clone();
    cal.set_cx_error(Edge::new(0, 1), 0.05);
    high = high.with_calibration(cal);

    let e_low = run_rb(&low, Edge::new(0, 1), &cfg).cnot_error;
    let e_high = run_rb(&high, Edge::new(0, 1), &cfg).cnot_error;
    assert!(
        e_high > 2.0 * e_low,
        "RB must separate 0.008 from 0.05: got {e_low} vs {e_high}"
    );
}

#[test]
fn srb_conditional_scales_with_planted_factor() {
    let cfg = RbConfig { seqs_per_length: 4, shots: 160, seed: 2, ..Default::default() };
    let mut results = Vec::new();
    for factor in [1.0, 4.0, 10.0] {
        let mut device = Device::line(4, 6);
        let mut cal = device.calibration().clone();
        cal.set_cx_error(Edge::new(0, 1), 0.012);
        cal.set_cx_error(Edge::new(2, 3), 0.012);
        device = device.with_calibration(cal);
        if factor > 1.0 {
            let mut xt = CrosstalkMap::new();
            xt.set_symmetric(Edge::new(0, 1), Edge::new(2, 3), factor, factor);
            device = device.with_crosstalk(xt);
        }
        let out = run_srb_pair(&device, Edge::new(0, 1), Edge::new(2, 3), &cfg);
        results.push(out.first_given_second);
    }
    assert!(
        results[0] < results[1] && results[1] < results[2],
        "conditional errors must order with factor: {results:?}"
    );
}

#[test]
fn decoherence_compounds_exponentially_with_idle_time() {
    use crosstalk_mitigation::ir::{ScheduleSlot, ScheduledCircuit};
    let mut device = Device::line(1, 8);
    let mut cal = device.calibration().clone();
    cal.set_coherence_us(0, 10.0, 10.0);
    device = device.with_calibration(cal);

    let survival = |idle_ns: u64| {
        let mut c = Circuit::new(1, 1);
        c.x(0).measure(0, 0);
        let slots = vec![
            ScheduleSlot::new(0, 50),
            ScheduleSlot::new(50 + idle_ns, 1000),
        ];
        let sched = ScheduledCircuit::new(c, slots).unwrap();
        let cfg = ExecutorConfig {
            shots: 6000,
            seed: 3,
            gate_noise: false,
            crosstalk: false,
            decoherence: true,
            readout_noise: false,
        };
        Executor::with_config(&device, cfg).run(&sched).probability(1)
    };

    let s0 = survival(0);
    let s1 = survival(10_000); // one T1
    let s2 = survival(20_000); // two T1
    assert!(s0 > 0.99, "no idle, no decay: {s0}");
    assert!((s1 - (-1.0f64).exp()).abs() < 0.04, "one T1 → e^-1: {s1}");
    assert!((s2 - (-2.0f64).exp()).abs() < 0.04, "two T1 → e^-2: {s2}");
}

#[test]
fn crosstalk_only_fires_on_temporal_overlap() {
    // Same circuit, two schedules: overlapping vs disjoint hot gates.
    use crosstalk_mitigation::ir::{ScheduleSlot, ScheduledCircuit};
    let mut device = Device::line(4, 1);
    let mut cal = device.calibration().clone();
    cal.set_cx_error(Edge::new(0, 1), 0.02);
    cal.set_cx_error(Edge::new(2, 3), 0.02);
    device = device.with_calibration(cal);
    let mut xt = CrosstalkMap::new();
    xt.set_symmetric(Edge::new(0, 1), Edge::new(2, 3), 20.0, 20.0);
    let device = device.with_crosstalk(xt);

    let mut c = Circuit::new(4, 4);
    for _ in 0..4 {
        c.cx(0, 1).cx(2, 3);
    }
    c.measure_all();

    let run = |offsets: [u64; 2]| {
        let mut slots = Vec::new();
        let mut t = offsets;
        for ins in c.iter() {
            match ins.edge() {
                Some((a, _)) if a.raw() == 0 => {
                    slots.push(ScheduleSlot::new(t[0], 300));
                    t[0] += 300;
                }
                Some(_) => {
                    slots.push(ScheduleSlot::new(t[1], 300));
                    t[1] += 300;
                }
                None => slots.push(ScheduleSlot::new(t[0].max(t[1]), 1000)),
            }
        }
        // Align measures at the common end.
        let end = t[0].max(t[1]);
        for (i, ins) in c.iter().enumerate() {
            if ins.gate().is_measurement() {
                slots[i] = ScheduleSlot::new(end, 1000);
            }
        }
        let sched = ScheduledCircuit::new(c.clone(), slots).unwrap();
        let cfg = ExecutorConfig {
            shots: 4096,
            seed: 9,
            gate_noise: true,
            crosstalk: true,
            decoherence: false,
            readout_noise: false,
        };
        Executor::with_config(&device, cfg).run(&sched).probability(0)
    };

    let overlapping = run([0, 0]);
    let disjoint = run([0, 1300]);
    assert!(
        disjoint > overlapping + 0.15,
        "disjoint {disjoint} must beat overlapping {overlapping}"
    );
}

#[test]
fn readout_mitigation_recovers_ghz_weights() {
    let device = Device::line(3, 12);
    let mut c = Circuit::new(3, 3);
    c.h(0).cx(0, 1).cx(1, 2).measure_all();
    let sched = Executor::asap_schedule(&c, device.calibration());
    let cfg = ExecutorConfig { shots: 8192, seed: 2, ..Default::default() };
    let counts = Executor::with_config(&device, cfg).run(&sched);
    let cal = CalibrationMatrix::measure(&device, &[0, 1, 2], 8192, 13);
    let fixed = cal.mitigate(&counts);
    let raw = counts.distribution();
    let good_raw = raw[0] + raw[7];
    let good_fixed = fixed[0] + fixed[7];
    assert!(good_fixed > good_raw, "mitigation helps: {good_raw} → {good_fixed}");
    assert!(good_fixed > 0.9, "mitigated GHZ weight {good_fixed}");
}

#[test]
fn two_aggressors_under_the_max_rule_favour_xtalksched() {
    // The paper's Eq. 6 takes the max over simultaneous aggressors. With
    // two aggressors hitting the same victim, running them all at once
    // must hurt, and the scheduler that serializes them must win.
    use crosstalk_mitigation::core::{ParSched, Scheduler, SchedulerContext, XtalkSched};

    let mut device = Device::line(6, 3);
    let mut cal = device.calibration().clone();
    for e in [Edge::new(0, 1), Edge::new(2, 3), Edge::new(4, 5)] {
        cal.set_cx_error(e, 0.02);
    }
    device = device.with_calibration(cal);
    let mut xt = CrosstalkMap::new();
    // Edge (2,3) is the victim of both neighbors.
    xt.set_symmetric(Edge::new(2, 3), Edge::new(0, 1), 6.0, 1.5);
    xt.set_symmetric(Edge::new(2, 3), Edge::new(4, 5), 6.0, 1.5);
    let device = device.with_crosstalk(xt);
    let ctx = SchedulerContext::from_ground_truth(&device);

    let mut c = Circuit::new(6, 6);
    for _ in 0..4 {
        c.cx(0, 1).cx(2, 3).cx(4, 5);
    }
    c.measure_all();

    let run = |sched: &dyn Scheduler, crosstalk: bool| {
        let s = sched.schedule(&c, &ctx).unwrap();
        let cfg = ExecutorConfig {
            shots: 4096,
            seed: 17,
            decoherence: false,
            readout_noise: false,
            crosstalk,
            ..Default::default()
        };
        Executor::with_config(&device, cfg).run(&s).probability(0)
    };

    let par_quiet = run(&ParSched::new(), false);
    let par = run(&ParSched::new(), true);
    assert!(par + 0.05 < par_quiet, "the aggressors must hurt: {par} vs {par_quiet}");
    let xt = run(&XtalkSched::new(0.7), true);
    assert!(xt > par + 0.05, "XtalkSched {xt} must beat ParSched {par}");
}

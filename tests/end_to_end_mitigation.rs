//! The headline end-to-end claim, with *measured* characterization (not
//! ground truth): characterize crosstalk through simultaneous RB, feed
//! the estimates to XtalkSched, and beat ParSched on real (simulated)
//! hardware runs.

use crosstalk_mitigation::charac::policy::TimeModel;
use crosstalk_mitigation::charac::{characterize, CharacterizationPolicy, RbConfig};
use crosstalk_mitigation::core::{Compiler, ParSched, SchedulerContext, SerialSched, XtalkSched};
use crosstalk_mitigation::device::Device;

fn rb_config() -> RbConfig {
    RbConfig { seqs_per_length: 4, shots: 128, seed: 3, ..Default::default() }
}

#[test]
fn measured_characterization_drives_mitigation() {
    let device = Device::poughkeepsie(7);

    // 1. Characterize with the paper's optimized policy.
    let (charac, report) = characterize(
        &device,
        &CharacterizationPolicy::OneHopBinPacked { k_hops: 2 },
        &rb_config(),
        &TimeModel::default(),
    );
    assert!(report.num_experiments < device.topology().simultaneous_pairs().len() / 5);

    // The strongest pair must be found even at low statistics.
    let high = charac.high_pairs(3.0);
    assert!(
        high.contains(&(
            crosstalk_mitigation::device::Edge::new(10, 15),
            crosstalk_mitigation::device::Edge::new(11, 12)
        )),
        "11x pair not detected: {high:?}"
    );

    // 2. Schedule the Figure 6 path with the *measured* context.
    let compiler = Compiler::new(&device, SchedulerContext::new(&device, &charac));
    let par = compiler.swap_bell_error(&ParSched::new(), 0, 13, 512, 5, 1).unwrap();
    let xt = compiler.swap_bell_error(&XtalkSched::new(0.5), 0, 13, 512, 5, 1).unwrap();

    // 3. The measured-characterization scheduler must still win.
    assert!(
        xt.error_rate < par.error_rate,
        "measured-charac XtalkSched {} should beat ParSched {}",
        xt.error_rate,
        par.error_rate
    );
    // And pay only a modest duration premium.
    assert!(xt.duration_ns <= 2 * par.duration_ns);
}

#[test]
fn all_three_schedulers_rank_correctly_on_hot_path() {
    // Ground-truth context; the ranking Par > Serial > Xtalk (in error)
    // holds on strongly-affected paths.
    let device = Device::poughkeepsie(7);
    let compiler = Compiler::new(&device, SchedulerContext::from_ground_truth(&device));
    let par = compiler.swap_bell_error(&ParSched::new(), 6, 13, 512, 11, 1).unwrap();
    let ser = compiler.swap_bell_error(&SerialSched::new(), 6, 13, 512, 11, 1).unwrap();
    let xt = compiler.swap_bell_error(&XtalkSched::new(0.5), 6, 13, 512, 11, 1).unwrap();
    assert!(xt.error_rate < par.error_rate, "xt {} par {}", xt.error_rate, par.error_rate);
    assert!(xt.error_rate <= ser.error_rate + 0.03, "xt {} ser {}", xt.error_rate, ser.error_rate);
    // Durations: Serial longest, Par shortest.
    assert!(ser.duration_ns > xt.duration_ns);
    assert!(xt.duration_ns >= par.duration_ns);
}

#[test]
fn crosstalk_free_devices_see_no_downside() {
    // On a crosstalk-free device XtalkSched degenerates to ParSched:
    // identical schedule, identical measured error.
    let device = Device::line(6, 9);
    let compiler = Compiler::new(&device, SchedulerContext::from_ground_truth(&device));
    let par = compiler.swap_bell_error(&ParSched::new(), 0, 5, 512, 3, 1).unwrap();
    let xt = compiler.swap_bell_error(&XtalkSched::new(0.5), 0, 5, 512, 3, 1).unwrap();
    assert_eq!(par.duration_ns, xt.duration_ns);
    assert!((par.error_rate - xt.error_rate).abs() < 1e-9);
}

#[test]
fn bernstein_vazirani_benefits_from_mitigation() {
    // A BV instance whose oracle CNOTs funnel into an ancilla placed so
    // that parallel oracle gates cross the planted hot pairs.
    use crosstalk_mitigation::core::bench_circuits::bernstein_vazirani;

    let device = Device::poughkeepsie(7);
    let compiler = Compiler::new(&device, SchedulerContext::from_ground_truth(&device));
    let logical = bernstein_vazirani(4, &[0, 1, 2, 3], 0b101);
    let native = crosstalk_mitigation::pass::lower::lower_to_native(&logical);
    let mut padded = crosstalk_mitigation::ir::Circuit::new(20, native.num_clbits());
    padded.try_extend(&native).unwrap();
    // Place the program right on the hot region.
    let layout = crosstalk_mitigation::core::layout::Layout::from_mapping(
        &[15, 10, 12, 11, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 14, 16, 17, 18, 19],
        20,
    )
    .unwrap();
    let routed =
        crosstalk_mitigation::core::layout::route(&padded, device.topology(), layout).unwrap();

    let par = compiler
        .hidden_shift_error(&ParSched::new(), &routed.circuit, 0b101, 2048, 3)
        .unwrap();
    let xt = compiler
        .hidden_shift_error(&XtalkSched::new(0.5), &routed.circuit, 0b101, 2048, 3)
        .unwrap();
    assert!(par > 0.0 && par < 1.0, "par error {par}");
    assert!(xt <= par + 0.03, "xtalk {xt} should not lose to par {par}");
}

//! Characterization takes the exact backend: every RB flavour's circuits
//! measure each qubit once, at its end, so no shot may run a trajectory.
//!
//! This lives in its own integration-test binary because the profiling
//! toggle is process-global.

use xtalk_charac::irb::run_irb;
use xtalk_charac::srb::{run_rb_bin, run_srb_bin};
use xtalk_charac::RbConfig;
use xtalk_device::{CrosstalkMap, Device, Edge};

#[test]
fn rb_srb_and_irb_sample_exact_tables_only() {
    let mut xt = CrosstalkMap::new();
    xt.set_symmetric(Edge::new(0, 1), Edge::new(2, 3), 4.0, 4.0);
    let device = Device::line(4, 11).with_crosstalk(xt);
    let config = RbConfig { lengths: vec![2, 7], seqs_per_length: 2, shots: 48, seed: 5 };
    let runs: [(&str, &dyn Fn()); 3] = [
        ("run_srb_bin", &|| {
            run_srb_bin(&device, &[(Edge::new(0, 1), Edge::new(2, 3))], &config);
        }),
        ("run_rb_bin", &|| {
            run_rb_bin(&device, &[Edge::new(0, 1), Edge::new(2, 3)], &config);
        }),
        ("run_irb", &|| {
            run_irb(&device, Edge::new(1, 2), &config);
        }),
    ];
    for (name, run) in runs {
        xtalk_obs::set_enabled(true);
        xtalk_obs::reset();
        run();
        let snap = xtalk_obs::snapshot();
        xtalk_obs::set_enabled(false);
        xtalk_obs::reset();
        // Span names are paths: the evolution nests under the run.
        let evolved = snap.spans.iter().any(|s| s.name.ends_with("sim.exact_evolve") && s.count > 0);
        assert!(evolved, "{name}: no exact evolution");
        assert!(snap.counter("sim.shots").unwrap_or(0) > 0, "{name}: no shots");
        assert_eq!(snap.counter("sim.lane_steps").unwrap_or(0), 0, "{name}: trajectories ran");
    }
}

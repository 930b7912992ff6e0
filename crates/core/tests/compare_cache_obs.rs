//! Acceptance test for the shared pass prefix: compiling one circuit
//! with all three schedulers — twice — performs the layout and routing
//! work **exactly once**, and streams each circuit into a cache key
//! exactly once, verified through the obs span/counter stream rather
//! than the cache's own bookkeeping.
//!
//! Lives in its own integration-test binary because the obs registry is
//! process-global; sharing a binary with unrelated tests would race on
//! `set_enabled`/`reset`.

use xtalk_core::{Compiler, ParSched, Scheduler, SchedulerContext, SerialSched, XtalkSched};
use xtalk_device::Device;
use xtalk_ir::Circuit;

#[test]
fn multi_scheduler_compare_shares_the_prefix_with_zero_redundancy() {
    xtalk_obs::set_enabled(true);
    xtalk_obs::reset();

    let device = Device::poughkeepsie(7);
    let ctx = SchedulerContext::from_ground_truth(&device);
    let compiler = Compiler::new(&device, ctx);

    // A K4 interaction graph cannot embed in the planar coupling grid,
    // so greedy placement and SWAP routing genuinely run (a compliant
    // circuit would skip `layout` entirely).
    let mut circuit = Circuit::new(4, 4);
    circuit.h(0);
    circuit.cx(0, 1).cx(1, 2).cx(2, 3).cx(0, 2).cx(1, 3).cx(0, 3);
    circuit.measure_all();

    let schedulers: [&dyn Scheduler; 3] =
        [&SerialSched::new(), &ParSched::new(), &XtalkSched::new(0.5)];
    for _round in 0..2 {
        for s in schedulers {
            compiler.compile(&circuit, s).unwrap();
        }
    }

    let snap = xtalk_obs::snapshot();
    xtalk_obs::set_enabled(false);

    // Every pass was *entered* six times (spans wrap the cache lookup)…
    for pass in ["pass.lower", "pass.place", "pass.route", "pass.schedule"] {
        let stat = snap.span(pass).unwrap_or_else(|| panic!("span {pass} missing"));
        assert_eq!(stat.count, 6, "{pass} should be entered once per compile");
    }
    // …but the underlying layout and routing work ran exactly once: the
    // other five entries were cache hits that never reached the body.
    let layout = snap.span("pass.place/layout").expect("layout span missing");
    assert_eq!(layout.count, 1, "greedy layout recomputed on a warm prefix");
    let routing = snap.span("pass.route/routing").expect("routing span missing");
    assert_eq!(routing.count, 1, "routing recomputed on a warm prefix");

    // Cache ledger agrees: 24 lookups = 6 misses (cold lower/place/route
    // + one schedule per policy) + 18 hits; one artifact per pass row.
    assert_eq!(snap.counter("pass.cache.miss"), Some(6));
    assert_eq!(snap.counter("pass.cache.hit"), Some(18));
    assert_eq!(compiler.cache().len_of("lower"), 1);
    assert_eq!(compiler.cache().len_of("place"), 1);
    assert_eq!(compiler.cache().len_of("route"), 1);
    assert_eq!(compiler.cache().len_of("schedule"), 3);

    // Every circuit was streamed into a cache key exactly once — the
    // input, the native, the padded and the routed circuit — however
    // many of the 24 lookups carried it: the memoized content key
    // answered the other 20.
    assert_eq!(snap.counter("pass.hash.circuit_streams"), Some(4));
}

//! Regression pins for the RB experiment builders, outside the
//! `charac_daily` digest.
//!
//! Each test runs one experiment on a small line device with planted
//! crosstalk and compares the `f64::to_bits` of its results with values
//! recorded with every lane on the exact backend (each lane's
//! measurements are terminal). Sequence synthesis, native lowering, clbit
//! offsets and masks, scheduling and execution all feed these numbers, so
//! a change that moves a single gate, a single RNG draw or a single
//! sampled count in any of them fails here.

use xtalk_charac::irb::run_irb;
use xtalk_charac::rb::{run_rb, run_rb_1q};
use xtalk_charac::srb::{run_rb_bin, run_srb_bin, run_srb_pair};
use xtalk_charac::RbConfig;
use xtalk_device::{CrosstalkMap, Device, Edge};

/// A 4-qubit line whose outer CNOTs interfere (factor 4).
fn device() -> Device {
    let mut xt = CrosstalkMap::new();
    xt.set_symmetric(Edge::new(0, 1), Edge::new(2, 3), 4.0, 4.0);
    Device::line(4, 11).with_crosstalk(xt)
}

/// An 8-qubit line with two interfering pairs (factors 4 and 2), so a
/// two-pair SRB bin runs four lanes that each see a different neighbour.
fn wide_device() -> Device {
    let mut xt = CrosstalkMap::new();
    xt.set_symmetric(Edge::new(0, 1), Edge::new(2, 3), 4.0, 4.0);
    xt.set_symmetric(Edge::new(4, 5), Edge::new(6, 7), 2.0, 2.0);
    Device::line(8, 11).with_crosstalk(xt)
}

fn config() -> RbConfig {
    RbConfig {
        lengths: vec![2, 7, 15],
        seqs_per_length: 2,
        shots: 48,
        seed: 5,
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn run_rb_is_pinned() {
    let out = run_rb(&device(), Edge::new(1, 2), &config());
    let fit = &out.fit;
    let mut values = vec![fit.a, fit.b, fit.alpha, fit.rmse, out.epc, out.cnot_error];
    values.extend(out.survival.iter().map(|&(_, p)| p));
    assert_eq!(bits(&values), RUN_RB, "{values:?}");
}

#[test]
fn run_rb_1q_is_pinned() {
    let values = [
        run_rb_1q(&device(), 0, &config()),
        run_rb_1q(&device(), 3, &config()),
    ];
    assert_eq!(bits(&values), RUN_RB_1Q, "{values:?}");
}

#[test]
fn run_irb_is_pinned() {
    let out = run_irb(&device(), Edge::new(0, 1), &config());
    let values = [
        out.reference.a,
        out.reference.alpha,
        out.reference.rmse,
        out.interleaved.a,
        out.interleaved.alpha,
        out.interleaved.rmse,
        out.gate_error,
    ];
    assert_eq!(bits(&values), RUN_IRB, "{values:?}");
}

#[test]
fn run_srb_pair_is_pinned() {
    let out = run_srb_pair(&device(), Edge::new(0, 1), Edge::new(2, 3), &config());
    let values = [out.first_given_second, out.second_given_first];
    assert_eq!(bits(&values), RUN_SRB_PAIR, "{values:?}");
}

#[test]
fn run_rb_bin_is_pinned() {
    let out = run_rb_bin(&device(), &[Edge::new(0, 1), Edge::new(2, 3)], &config());
    assert_eq!(
        out.iter().map(|&(e, _)| e).collect::<Vec<_>>(),
        [Edge::new(0, 1), Edge::new(2, 3)]
    );
    let values: Vec<f64> = out.iter().map(|&(_, rate)| rate).collect();
    assert_eq!(bits(&values), RUN_RB_BIN, "{values:?}");
}

#[test]
fn run_srb_bin_is_pinned() {
    let bin = [
        (Edge::new(0, 1), Edge::new(2, 3)),
        (Edge::new(4, 5), Edge::new(6, 7)),
    ];
    let out = run_srb_bin(&wide_device(), &bin, &config());
    let values: Vec<f64> = out
        .iter()
        .flat_map(|o| [o.first_given_second, o.second_given_first])
        .collect();
    assert_eq!(
        out.iter().map(|o| (o.first, o.second)).collect::<Vec<_>>(),
        bin
    );
    assert_eq!(bits(&values), RUN_SRB_BIN, "{values:?}");
}

const RUN_RB: [u64; 9] = [
    4603266379765760894,
    4598175219545276416,
    4606636646115106123,
    4579793220306250239,
    4586710093254729852,
    4584077714261340904,
    4604836793994095274,
    4603898544071726422,
    4601928219234751829,
];
const RUN_RB_1Q: [u64; 2] = [4574935791744708581, 4571226453216005219];
const RUN_IRB: [u64; 7] = [
    4603134267522674306,
    4606743776036177753,
    4578661780645784631,
    4603930096879124285,
    4606107228868334062,
    4586392795562279081,
    4588190421608862816,
];
const RUN_SRB_PAIR: [u64; 2] = [4594087904034753872, 4592305483995211517];
const RUN_RB_BIN: [u64; 2] = [4598585191973576284, 4590007890764970841];
const RUN_SRB_BIN: [u64; 4] = [
    4594105538561854016,
    4591205280120605564,
    4586301212447705544,
    4593659816788594601,
];

//! Regression pins for the RB experiment builders, outside the
//! `charac_daily` digest.
//!
//! Each test runs one experiment on a small line device with planted
//! crosstalk and compares the `f64::to_bits` of its results with recorded
//! values: the single-lane pins from the tableau-composition
//! implementation, the multi-lane bin pins from the per-flavour survival
//! loops that preceded the shared one. Sequence synthesis, native
//! lowering, clbit offsets and masks, scheduling and execution all feed
//! these numbers, so a change that moves a single gate, a single RNG draw
//! or a single sampled count in any of them fails here.

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
    4603739053677962085,
    4598175219545276416,
    4606479387136389708,
    4583425944076518514,
    4588597200999326832,
    4585584208155208118,
    4605024443978569045,
    4603898544071726422,
    4600989969312382976,
];
const RUN_RB_1Q: [u64; 2] = [4572958628846327475, 4567541791401879016];
const RUN_IRB: [u64; 7] = [
    4604239990720660280,
    4606321074420744722,
    4586118375231816583,
    4603539987130157290,
    4605941630057174410,
    4580585467688652887,
    4585195623704413836,
];
const RUN_SRB_PAIR: [u64; 2] = [4592647140325893891, 4597948005339232906];
const RUN_RB_BIN: [u64; 2] = [4593754966321022755, 4593649528799575165];
const RUN_SRB_BIN: [u64; 4] = [
    4593330896145895693,
    4587573996740781336,
    4586218187241355305,
    4592873090846724428,
];

//! Simultaneous randomized benchmarking (SRB) of CNOT pairs.

use crate::rb::{edge_lane, survival_curves, RbConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use xtalk_device::{Device, Edge};

/// Conditional error rates measured by one SRB experiment on a pair of
/// simultaneously driven CNOTs.
#[derive(Clone, PartialEq, Debug)]
pub struct SrbOutcome {
    /// First edge of the pair.
    pub first: Edge,
    /// Second edge of the pair.
    pub second: Edge,
    /// `E(first | second)` — CNOT error of `first` while `second` runs.
    pub first_given_second: f64,
    /// `E(second | first)`.
    pub second_given_first: f64,
}

/// Runs SRB on every pair in `bin` *simultaneously* (one machine
/// experiment): each pair's two edges run independent RB sequences of the
/// same length at the same time, so crosstalk between them (and only
/// them — bins contain pairs ≥2 hops apart) shows up in the decay. The
/// edges are the experiment's lanes in order: pair `p`'s edges measure
/// into clbits `4p .. 4p + 4`.
///
/// Returns one [`SrbOutcome`] per pair, in order.
///
/// # Panics
///
/// Panics if a bin entry shares a qubit between its edges or across
/// pairs, or references a non-edge.
pub fn run_srb_bin(device: &Device, bin: &[(Edge, Edge)], config: &RbConfig) -> Vec<SrbOutcome> {
    for &(a, b) in bin {
        assert!(!a.shares_qubit(b), "pair {a},{b} shares a qubit");
    }
    let lanes: Vec<_> = bin.iter().flat_map(|&(a, b)| [edge_lane(a), edge_lane(b)]).collect();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5bb5);
    let seeds = |m: u64, s: u64| config.seed ^ (m << 24) ^ (s << 8) ^ 0xcafe;
    let curves = survival_curves(device, &lanes, None, config, &mut rng, seeds);
    bin.iter()
        .zip(curves.chunks_exact(2))
        .map(|(&(first, second), pair)| SrbOutcome {
            first,
            second,
            first_given_second: pair[0].gate_error(),
            second_given_first: pair[1].gate_error(),
        })
        .collect()
}

/// Runs SRB on a single pair (one experiment).
pub fn run_srb_pair(device: &Device, a: Edge, b: Edge, config: &RbConfig) -> SrbOutcome {
    run_srb_bin(device, &[(a, b)], config)
        .pop()
        .expect("one pair yields one outcome")
}

/// Runs *independent* RB on several well-separated edges simultaneously
/// (one experiment, one lane per edge), returning each edge's estimated
/// CNOT error. This is how daily independent-rate calibration is
/// parallelized; callers should pack the edges with
/// [`crate::binpack::pack_edges`] first so that no two interfere.
///
/// # Panics
///
/// Panics if edges share qubits or reference non-edges.
pub fn run_rb_bin(device: &Device, edges: &[Edge], config: &RbConfig) -> Vec<(Edge, f64)> {
    let lanes: Vec<_> = edges.iter().map(|&e| edge_lane(e)).collect();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x1bb1);
    let seeds = |m: u64, s: u64| config.seed ^ (m << 24) ^ (s << 8) ^ 0xbead;
    let curves = survival_curves(device, &lanes, None, config, &mut rng, seeds);
    edges.iter().copied().zip(curves.iter().map(|curve| curve.gate_error())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_device::CrosstalkMap;

    fn device_with_factor(factor: f64) -> Device {
        let mut device = Device::line(4, 21);
        let mut cal = device.calibration().clone();
        cal.set_cx_error(Edge::new(0, 1), 0.012);
        cal.set_cx_error(Edge::new(2, 3), 0.012);
        device = device.with_calibration(cal);
        if factor > 1.0 {
            let mut xt = CrosstalkMap::new();
            xt.set_symmetric(Edge::new(0, 1), Edge::new(2, 3), factor, factor);
            device = device.with_crosstalk(xt);
        }
        device
    }

    #[test]
    fn srb_detects_high_crosstalk() {
        let device = device_with_factor(8.0);
        let config = RbConfig { seqs_per_length: 5, shots: 192, ..Default::default() };
        let out = run_srb_pair(&device, Edge::new(0, 1), Edge::new(2, 3), &config);
        // True conditional error = 0.012 × 8 ≈ 0.096.
        assert!(
            out.first_given_second > 0.05,
            "conditional {} should reflect the 8x factor",
            out.first_given_second
        );
        assert!(out.second_given_first > 0.05);
    }

    #[test]
    fn srb_on_clean_pair_matches_independent() {
        let device = device_with_factor(1.0);
        let config = RbConfig { seqs_per_length: 5, shots: 192, ..Default::default() };
        let out = run_srb_pair(&device, Edge::new(0, 1), Edge::new(2, 3), &config);
        assert!(
            out.first_given_second < 0.035,
            "clean pair conditional {} too high",
            out.first_given_second
        );
    }

    #[test]
    #[should_panic(expected = "shares a qubit")]
    fn shared_qubit_pair_rejected() {
        let device = Device::line(3, 0);
        run_srb_pair(&device, Edge::new(0, 1), Edge::new(1, 2), &RbConfig::default());
    }

    #[test]
    #[should_panic(expected = "reused across the bin")]
    fn overlapping_bin_rejected() {
        let device = Device::line(6, 0);
        run_srb_bin(
            &device,
            &[
                (Edge::new(0, 1), Edge::new(2, 3)),
                (Edge::new(2, 3), Edge::new(4, 5)),
            ],
            &RbConfig::default(),
        );
    }
}

//! Simultaneous randomized benchmarking (SRB) of CNOT pairs.

use crate::fit::{error_per_clifford, fit_decay_fixed_offset};
use crate::rb::{native_templates, rb_sequence, RbConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use xtalk_clifford::group::{two_qubit_cliffords, Templates};
use xtalk_device::{Device, Edge};
use xtalk_ir::Circuit;
use xtalk_sim::{Executor, ExecutorConfig};

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
/// them — bins contain pairs ≥2 hops apart) shows up in the decay.
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
    let edges: Vec<Edge> = bin.iter().flat_map(|&(a, b)| [a, b]).collect();
    let errors = simultaneous_rb(device, &edges, config, 0x5bb5, 0xcafe);
    bin.iter()
        .zip(errors.chunks_exact(2))
        .map(|(&(a, b), e)| SrbOutcome {
            first: a,
            second: b,
            first_given_second: e[0],
            second_given_first: e[1],
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
/// (one experiment), returning each edge's estimated CNOT error. This is
/// how daily independent-rate calibration is parallelized; callers should
/// pack the edges with [`crate::binpack::pack_edges`] first so that no
/// two interfere.
///
/// # Panics
///
/// Panics if edges share qubits or reference non-edges.
pub fn run_rb_bin(device: &Device, edges: &[Edge], config: &RbConfig) -> Vec<(Edge, f64)> {
    let errors = simultaneous_rb(device, edges, config, 0x1bb1, 0xbead);
    edges.iter().copied().zip(errors).collect()
}

/// The survival-curve loop shared by RB and SRB bins: every edge runs an
/// independent RB sequence of each length at the same time, edge `k`
/// measured into clbits `2k` and `2k + 1`, and each edge's CNOT error is
/// fitted from its own curve. Sequences draw from one stream seeded with
/// `config.seed ^ draw_salt`; the executor seed of sequence `s` at length
/// `m` mixes `m`, `s` and `run_salt` into `config.seed`.
///
/// # Panics
///
/// Panics if edges share qubits or reference non-edges.
fn simultaneous_rb(
    device: &Device,
    edges: &[Edge],
    config: &RbConfig,
    draw_salt: u64,
    run_salt: u64,
) -> Vec<f64> {
    let topo = device.topology();
    let mut used: Vec<u32> = Vec::new();
    for &e in edges {
        assert!(topo.has_edge(e), "bin references a non-edge");
        for q in [e.lo(), e.hi()] {
            assert!(!used.contains(&q), "qubit {q} reused across the bin");
            used.push(q);
        }
    }
    let n = topo.num_qubits();
    let mut rng = StdRng::seed_from_u64(config.seed ^ draw_salt);
    // survival[edge index] → (length, mean survival)
    let mut survival: Vec<Vec<(usize, f64)>> = vec![Vec::new(); edges.len()];
    let mut cx_counts = vec![0usize; edges.len()];
    let mut clifford_counts = vec![0usize; edges.len()];
    let group = two_qubit_cliffords();
    let templates: Vec<Templates> =
        edges.iter().map(|e| native_templates(group, &e.qubits())).collect();

    for &m in &config.lengths {
        let mut means = vec![0.0f64; edges.len()];
        for s in 0..config.seqs_per_length {
            let mut c = Circuit::new(n, 2 * edges.len());
            for (k, templates) in templates.iter().enumerate() {
                cx_counts[k] += rb_sequence(&mut c, templates, m, 2 * k as u32, &mut rng);
                clifford_counts[k] += m + 1;
            }
            let sched = Executor::asap_schedule(&c, device.calibration());
            let cfg = ExecutorConfig {
                shots: config.shots,
                seed: config.seed ^ ((m as u64) << 24) ^ ((s as u64) << 8) ^ run_salt,
                ..Default::default()
            };
            let counts = Executor::with_config(device, cfg).run(&sched);
            // Survival of edge k: both of its clbits read 0.
            for (k, mean) in means.iter_mut().enumerate() {
                let mask: u64 = 0b11 << (2 * k);
                let mut p = 0.0;
                for (outcome, cnt) in counts.iter() {
                    if outcome & mask == 0 {
                        p += cnt as f64;
                    }
                }
                *mean += p / counts.shots() as f64;
            }
        }
        for (k, mean) in means.iter().enumerate() {
            survival[k].push((m, mean / config.seqs_per_length as f64));
        }
    }

    (0..edges.len())
        .map(|k| conditional_error(&survival[k], cx_counts[k], clifford_counts[k]))
        .collect()
}

fn conditional_error(survival: &[(usize, f64)], cx: usize, cliffords: usize) -> f64 {
    let fit = fit_decay_fixed_offset(survival, 0.25);
    let epc = error_per_clifford(fit.alpha, 2);
    let cx_per_clifford = (cx as f64 / cliffords as f64).max(1e-9);
    (epc / cx_per_clifford).clamp(0.0, 1.0)
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

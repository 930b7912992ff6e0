//! Trajectory noise channels and error-rate conversions.

use crate::matrix::{single_qubit_matrix, Mat2};
use crate::state::{kernel, sample_branch};
use crate::{C64, StateVector};
use rand::Rng;
use xtalk_ir::Gate;

/// Converts a reported single-qubit gate error rate `r` (average gate
/// infidelity as measured by RB) into the probability `p` with which the
/// trajectory simulator applies a uniformly random non-identity Pauli.
///
/// For the channel "with probability `p` apply one of {X, Y, Z} uniformly",
/// the depolarizing parameter is `λ = 1 − 4p/3` and the RB-visible error
/// is `r = (d−1)/d · (1−λ) = 2p/3`, so `p = 3r/2`.
pub fn depolarizing_prob_for_error_1q(r: f64) -> f64 {
    (1.5 * r).clamp(0.0, 0.75)
}

/// Converts a reported CNOT error rate `r` into the probability of a
/// uniformly random non-identity two-qubit Pauli.
///
/// Here `λ = 1 − 16p/15` and `r = (d−1)/d · (1−λ) = 4p/5`, so `p = 5r/4`.
pub fn depolarizing_prob_for_error_2q(r: f64) -> f64 {
    (1.25 * r).clamp(0.0, 0.9375)
}

/// The stochastic noise model applied between and after ideal gates.
///
/// All channels are sampled per trajectory, so averaging over trajectories
/// reproduces the corresponding density-matrix channel exactly (for the
/// Pauli channels) or to first order (for the damping split between T1
/// and T2, the standard approximation).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoiseModel;

impl NoiseModel {
    /// Applies single-qubit depolarizing noise of strength `p` to `q`.
    pub fn depolarize_1q<R: Rng + ?Sized>(state: &mut StateVector, q: usize, p: f64, rng: &mut R) {
        Self::apply_pauli_1q(state.amps_mut(), q, Self::sample_pauli_1q(p, rng));
    }

    /// Applies two-qubit depolarizing noise of strength `p` to `(a, b)`:
    /// with probability `p`, one of the 15 non-identity Pauli pairs.
    pub fn depolarize_2q<R: Rng + ?Sized>(
        state: &mut StateVector,
        a: usize,
        b: usize,
        p: f64,
        rng: &mut R,
    ) {
        Self::apply_pauli_2q(state.amps_mut(), a, b, Self::sample_pauli_2q(p, rng));
    }

    /// Draws the Pauli of single-qubit depolarizing noise of strength `p`:
    /// `0` for none, `1..=3` for X, Y, Z.
    pub(crate) fn sample_pauli_1q<R: Rng + ?Sized>(p: f64, rng: &mut R) -> usize {
        if rng.gen_range(0.0..1.0) < p {
            1 + rng.gen_range(0..3usize)
        } else {
            0
        }
    }

    /// Applies Pauli `k` of [`NoiseModel::sample_pauli_1q`] to `q` of the
    /// state(s) in `amps`.
    pub(crate) fn apply_pauli_1q(amps: &mut [C64], q: usize, k: usize) {
        if k != 0 {
            pauli(amps, q, k);
        }
    }

    /// Draws the Pauli pair of two-qubit depolarizing noise of strength
    /// `p`: `0` for none, `k ∈ 1..16` for the pair `(k % 4, k / 4)`.
    pub(crate) fn sample_pauli_2q<R: Rng + ?Sized>(p: f64, rng: &mut R) -> usize {
        if rng.gen_range(0.0..1.0) < p {
            rng.gen_range(1..16usize)
        } else {
            0
        }
    }

    /// Applies Pauli pair `k` of [`NoiseModel::sample_pauli_2q`] to
    /// `(a, b)` of the state(s) in `amps`.
    pub(crate) fn apply_pauli_2q(amps: &mut [C64], a: usize, b: usize, k: usize) {
        for (which, q) in [(k % 4, a), (k / 4, b)] {
            if which != 0 {
                pauli(amps, q, which);
            }
        }
    }

    /// Applies idle decoherence to qubit `q` for a gap of `dt_ns`
    /// nanoseconds given `t1_ns`/`t2_ns`: amplitude damping with
    /// `γ = 1 − e^{−dt/T1}` followed by pure dephasing with rate derived
    /// from `1/T_φ = 1/T2 − 1/(2·T1)` (clamped at 0 when T2 is
    /// T1-limited).
    pub fn idle<R: Rng + ?Sized>(
        state: &mut StateVector,
        q: usize,
        dt_ns: f64,
        t1_ns: f64,
        t2_ns: f64,
        rng: &mut R,
    ) {
        IdleChannel::new(dt_ns, t1_ns, t2_ns).apply(state, q, rng);
    }

    /// Flips a classical bit with the given readout assignment error.
    pub fn readout_flip<R: Rng + ?Sized>(bit: bool, error: f64, rng: &mut R) -> bool {
        if rng.gen_range(0.0..1.0) < error {
            !bit
        } else {
            bit
        }
    }
}

/// Applies Pauli `k` (1, 2, 3: X, Y, Z) to qubit `q`, exactly as
/// [`StateVector::apply_gate`] applies the gate.
fn pauli(amps: &mut [C64], q: usize, k: usize) {
    kernel::apply_mat2(amps, q, &single_qubit_matrix(&[Gate::X, Gate::Y, Gate::Z][k - 1]));
}

/// The idle channel of [`NoiseModel::idle`] for one gap, with everything
/// that depends only on `(dt, T1, T2)` evaluated once: the amplitude
/// damping Kraus amplitudes and the dephasing flip probability. A compiled
/// trajectory program stores one per idle gap and samples it for every
/// group of shots.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) struct IdleChannel {
    /// `(√(1−γ), √γ)`: the nontrivial entries of the damping Kraus pair,
    /// or `None` when `γ = 0`.
    damping: Option<(f64, f64)>,
    /// Probability of the dephasing `Z`, or `None` when T2 is T1-limited.
    p_z: Option<f64>,
}

impl IdleChannel {
    /// The channel for a gap of `dt_ns` nanoseconds; inert for `dt_ns ≤ 0`.
    pub(crate) fn new(dt_ns: f64, t1_ns: f64, t2_ns: f64) -> Self {
        if dt_ns <= 0.0 {
            return IdleChannel { damping: None, p_z: None };
        }
        let gamma = 1.0 - (-dt_ns / t1_ns).exp();
        let damping = (gamma > 0.0).then(|| ((1.0 - gamma).sqrt(), gamma.sqrt()));
        // Pure dephasing beyond what T1 already causes.
        let inv_tphi = (1.0 / t2_ns - 0.5 / t1_ns).max(0.0);
        let p_z = (inv_tphi > 0.0).then(|| 0.5 * (1.0 - (-dt_ns * inv_tphi).exp()));
        IdleChannel { damping, p_z }
    }

    /// `true` if applying the channel neither changes the state nor draws
    /// from the RNG.
    pub(crate) fn is_inert(&self) -> bool {
        self.damping.is_none() && self.p_z.is_none()
    }

    /// Samples the channel on qubit `q`: the damping branch, then the
    /// dephasing flip.
    pub(crate) fn apply<R: Rng + ?Sized>(&self, state: &mut StateVector, q: usize, rng: &mut R) {
        let weights = self.weigh(state.amps(), q);
        let branch = self.sample_branch(weights, rng);
        self.apply_branch(state.amps_mut(), q, weights, branch);
    }

    /// The damping branch weights on the state `amps` and their sum
    /// ([`kernel::kraus_weights`]), or `None` without damping.
    pub(crate) fn weigh(&self, amps: &[C64], q: usize) -> Option<IdleWeights> {
        self.damping_kraus().map(|kraus| {
            let mut probs = [0.0; 2];
            let total = kernel::kraus_weights(amps, q, &kraus, &mut probs);
            (probs, total)
        })
    }

    /// Draws a branch of the channel, `d + 2·z`: damping branch `d` (0
    /// without damping), then whether the dephasing `Z` fires (`z`; no
    /// draw without dephasing).
    pub(crate) fn sample_branch<R: Rng + ?Sized>(
        &self,
        weights: Option<IdleWeights>,
        rng: &mut R,
    ) -> usize {
        let decay = weights.map_or(0, |(probs, total)| sample_branch(&probs, total, rng));
        let flip = self.p_z.is_some_and(|p_z| rng.gen_range(0.0..1.0) < p_z);
        decay + 2 * usize::from(flip)
    }

    /// Puts the state `amps` on branch `branch` of
    /// [`IdleChannel::sample_branch`], given the `weights` it was drawn
    /// from.
    pub(crate) fn apply_branch(
        &self,
        amps: &mut [C64],
        q: usize,
        weights: Option<IdleWeights>,
        branch: usize,
    ) {
        if let (Some(kraus), Some((probs, _))) = (self.damping_kraus(), weights) {
            let decay = branch % 2;
            kernel::apply_kraus_branch(amps, q, &kraus[decay], probs[decay]);
        }
        if branch >= 2 {
            pauli(amps, q, 3);
        }
    }

    /// The channel's rates for density-matrix evolution: the damping
    /// `γ` and `√(1−γ)` (`0` and `1` without damping), and the dephasing
    /// `Z` probability (`0` without dephasing).
    pub(crate) fn rates(&self) -> (f64, f64, f64) {
        let (keep, decay) = self.damping.unwrap_or((1.0, 0.0));
        (decay * decay, keep, self.p_z.unwrap_or(0.0))
    }

    /// The amplitude damping Kraus pair `(K0, K1)`, or `None` when `γ = 0`.
    fn damping_kraus(&self) -> Option<[Mat2; 2]> {
        self.damping.map(|(keep, decay)| {
            [
                Mat2([[C64::ONE, C64::ZERO], [C64::ZERO, C64::real(keep)]]),
                Mat2([[C64::ZERO, C64::real(decay)], [C64::ZERO, C64::ZERO]]),
            ]
        })
    }
}

/// Branch weights of an idle channel's damping pair and their sum.
pub(crate) type IdleWeights = ([f64; 2], f64);

#[cfg(test)]
impl IdleChannel {
    /// `true` if the channel includes pure dephasing.
    pub(crate) fn dephases(&self) -> bool {
        self.p_z.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn conversion_constants() {
        assert!((depolarizing_prob_for_error_1q(0.001) - 0.0015).abs() < 1e-12);
        assert!((depolarizing_prob_for_error_2q(0.02) - 0.025).abs() < 1e-12);
        // Clamped at full depolarization.
        assert_eq!(depolarizing_prob_for_error_2q(10.0), 0.9375);
        assert_eq!(depolarizing_prob_for_error_1q(10.0), 0.75);
    }

    #[test]
    fn depolarize_1q_rate() {
        let mut rng = StdRng::seed_from_u64(0);
        let trials = 20_000;
        let p = 0.3;
        let mut corrupted = 0;
        for _ in 0..trials {
            let mut s = StateVector::new(1);
            NoiseModel::depolarize_1q(&mut s, 0, p, &mut rng);
            // X or Y move |0⟩ to |1⟩; Z leaves it. Corruption detectable in
            // 2/3 of error draws.
            if s.prob_one(0) > 0.5 {
                corrupted += 1;
            }
        }
        let frac = corrupted as f64 / trials as f64;
        assert!((frac - p * 2.0 / 3.0).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn depolarize_2q_uniformity() {
        // On |00⟩, the 15 Paulis hit the four basis states in a fixed
        // pattern; just verify total corruption rate ≈ p·(12/15) (the 3
        // pure-Z/Z⊗Z/Z⊗I draws leave |00⟩ fixed).
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 20_000;
        let p = 0.5;
        let mut moved = 0;
        for _ in 0..trials {
            let mut s = StateVector::new(2);
            NoiseModel::depolarize_2q(&mut s, 0, 1, p, &mut rng);
            if s.probabilities()[0] < 0.5 {
                moved += 1;
            }
        }
        let frac = moved as f64 / trials as f64;
        assert!((frac - p * 12.0 / 15.0).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn idle_decay_relaxes_excited_state() {
        let mut rng = StdRng::seed_from_u64(2);
        let trials = 4000;
        let t1 = 50_000.0; // 50 µs
        let dt = 50_000.0; // one T1 → survival e^{-1} ≈ 0.368
        let mut survive = 0;
        for _ in 0..trials {
            let mut s = StateVector::new(1);
            s.apply_gate(&Gate::X, &[0]);
            NoiseModel::idle(&mut s, 0, dt, t1, 2.0 * t1, &mut rng);
            if s.prob_one(0) > 0.5 {
                survive += 1;
            }
        }
        let frac = survive as f64 / trials as f64;
        assert!((frac - (-1.0f64).exp()).abs() < 0.03, "survival {frac}");
    }

    #[test]
    fn idle_dephasing_destroys_superposition() {
        // With T2 ≪ T1, a |+⟩ state loses phase coherence: after many
        // trajectories the average X expectation decays.
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 4000;
        let (t1, t2) = (1.0e9, 10_000.0);
        let dt = 10_000.0;
        let mut x_exp = 0.0;
        for _ in 0..trials {
            let mut s = StateVector::new(1);
            s.apply_gate(&Gate::H, &[0]);
            NoiseModel::idle(&mut s, 0, dt, t1, t2, &mut rng);
            s.apply_gate(&Gate::H, &[0]);
            x_exp += 1.0 - 2.0 * s.prob_one(0);
        }
        x_exp /= trials as f64;
        // Expect ≈ e^{-dt/T2} = e^{-1} ≈ 0.368.
        assert!((x_exp - (-1.0f64).exp()).abs() < 0.05, "⟨X⟩ {x_exp}");
    }

    #[test]
    fn zero_gap_is_noiseless() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut s = StateVector::new(1);
        s.apply_gate(&Gate::X, &[0]);
        NoiseModel::idle(&mut s, 0, 0.0, 100.0, 100.0, &mut rng);
        assert!((s.prob_one(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn readout_flip_rate() {
        let mut rng = StdRng::seed_from_u64(5);
        let flips = (0..10_000)
            .filter(|_| NoiseModel::readout_flip(false, 0.05, &mut rng))
            .count();
        let frac = flips as f64 / 10_000.0;
        assert!((frac - 0.05).abs() < 0.01, "frac {frac}");
    }
}

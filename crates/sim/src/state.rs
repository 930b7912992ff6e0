//! Statevector representation and gate application.

use crate::matrix::{single_qubit_matrix, two_qubit_matrix, Mat2, Mat4};
use crate::C64;
use rand::Rng;
use xtalk_ir::Gate;

/// An `n`-qubit pure state, little-endian: basis index `b` assigns qubit
/// `q` the bit `(b >> q) & 1`.
///
/// ```
/// use xtalk_sim::StateVector;
/// use xtalk_ir::Gate;
/// let mut s = StateVector::new(2);
/// s.apply_gate(&Gate::H, &[0]);
/// s.apply_gate(&Gate::Cx, &[0, 1]);
/// // Bell state: P(00) = P(11) = 1/2.
/// let p = s.probabilities();
/// assert!((p[0] - 0.5).abs() < 1e-12 && (p[3] - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct StateVector {
    n: usize,
    amps: Vec<C64>,
}

impl StateVector {
    /// The all-zeros state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 26` (the executor should have split components).
    pub fn new(n: usize) -> Self {
        assert!(n <= 26, "statevector over {n} qubits would need {} GiB", (1u64 << n) >> 26);
        let mut amps = vec![C64::ZERO; 1 << n];
        amps[0] = C64::ONE;
        StateVector { n, amps }
    }

    /// Builds from explicit amplitudes (must have power-of-two length).
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two or the norm is not ≈ 1.
    pub fn from_amplitudes(amps: Vec<C64>) -> Self {
        assert!(amps.len().is_power_of_two(), "length must be a power of two");
        let n = amps.len().trailing_zeros() as usize;
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-6, "state norm {norm} != 1");
        StateVector { n, amps }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Amplitude of basis state `b`.
    pub fn amp(&self, b: usize) -> C64 {
        self.amps[b]
    }

    /// All `2^n` basis probabilities.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Probability that qubit `q` reads 1.
    pub fn prob_one(&self, q: usize) -> f64 {
        let bit = 1usize << q;
        self.amps
            .iter()
            .enumerate()
            .filter(|(b, _)| b & bit != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// ⟨self|other⟩.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn inner(&self, other: &StateVector) -> C64 {
        assert_eq!(self.n, other.n, "state widths must match");
        let mut acc = C64::ZERO;
        for (a, b) in self.amps.iter().zip(&other.amps) {
            acc += a.conj() * *b;
        }
        acc
    }

    /// State fidelity `|⟨self|other⟩|²`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// Applies a single-qubit unitary to qubit `q`.
    pub fn apply_mat2(&mut self, q: usize, m: &Mat2) {
        let bit = 1usize << q;
        for b in 0..self.amps.len() {
            if b & bit == 0 {
                let b1 = b | bit;
                let a0 = self.amps[b];
                let a1 = self.amps[b1];
                self.amps[b] = m.0[0][0] * a0 + m.0[0][1] * a1;
                self.amps[b1] = m.0[1][0] * a0 + m.0[1][1] * a1;
            }
        }
    }

    /// Applies a two-qubit unitary; `first` indexes the LSB of the matrix
    /// basis (see [`crate::Mat4`]).
    ///
    /// # Panics
    ///
    /// Panics if `first == second`.
    pub fn apply_mat4(&mut self, first: usize, second: usize, m: &Mat4) {
        assert_ne!(first, second, "two-qubit gate needs distinct qubits");
        let fb = 1usize << first;
        let sb = 1usize << second;
        for b in 0..self.amps.len() {
            if b & fb == 0 && b & sb == 0 {
                let idx = [b, b | fb, b | sb, b | fb | sb];
                let old = [self.amps[idx[0]], self.amps[idx[1]], self.amps[idx[2]], self.amps[idx[3]]];
                for (row, &target) in idx.iter().enumerate() {
                    let mut acc = C64::ZERO;
                    for (col, &o) in old.iter().enumerate() {
                        acc += m.0[row][col] * o;
                    }
                    self.amps[target] = acc;
                }
            }
        }
    }

    /// Applies a unitary gate by name.
    ///
    /// # Panics
    ///
    /// Panics for non-unitary gates or arity mismatches.
    pub fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) {
        if gate.is_two_qubit() {
            self.apply_mat4(qubits[0], qubits[1], &two_qubit_matrix(gate));
        } else {
            self.apply_mat2(qubits[0], &single_qubit_matrix(gate));
        }
    }

    /// Applies a single-qubit Kraus channel by trajectory sampling: picks
    /// branch `k` with probability `‖K_k ψ‖²` and renormalizes.
    ///
    /// Works in place: each branch norm is summed over the branch's
    /// amplitudes in basis order without materializing the branch, then
    /// only the chosen operator is applied. The arithmetic (and so every
    /// bit of the result and the RNG position) is that of applying each
    /// `K_k` to a copy of the state.
    ///
    /// # Panics
    ///
    /// Panics if the channel is not trace-preserving within 1e-6.
    pub fn apply_kraus_1q<R: Rng + ?Sized>(&mut self, q: usize, kraus: &[Mat2], rng: &mut R) {
        let bit = 1usize << q;
        let amps = &self.amps;
        // `K ψ` at basis index `b`, exactly as `apply_mat2` computes it.
        let branch_amp = |k: &Mat2, b: usize| {
            if b & bit == 0 {
                k.0[0][0] * amps[b] + k.0[0][1] * amps[b | bit]
            } else {
                k.0[1][0] * amps[b ^ bit] + k.0[1][1] * amps[b]
            }
        };
        let mut small = [0.0f64; 4];
        let mut large = Vec::new();
        let probs: &mut [f64] = if kraus.len() <= small.len() {
            &mut small[..kraus.len()]
        } else {
            large.resize(kraus.len(), 0.0);
            &mut large
        };
        for (p, k) in probs.iter_mut().zip(kraus) {
            *p = (0..amps.len()).map(|b| branch_amp(k, b).norm_sqr()).sum();
        }
        let total: f64 = probs.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "kraus set not trace preserving: {total}");
        let i = pick_branch(probs, rng.gen_range(0.0..total));
        let scale = 1.0 / probs[i].sqrt();
        self.apply_mat2(q, &kraus[i]);
        for a in &mut self.amps {
            *a = a.scale(scale);
        }
    }

    /// Resets to `|0…0⟩` without reallocating.
    pub(crate) fn reset(&mut self) {
        self.amps.fill(C64::ZERO);
        self.amps[0] = C64::ONE;
    }

    /// Samples one measurement of all qubits in the Z basis, returning the
    /// basis index (little-endian bits). Does not collapse the state.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut u: f64 = rng.gen_range(0.0..1.0);
        for (b, a) in self.amps.iter().enumerate() {
            let p = a.norm_sqr();
            if u < p {
                return b as u64;
            }
            u -= p;
        }
        (self.amps.len() - 1) as u64
    }

    /// Measures qubit `q` in the Z basis, collapsing the state and
    /// returning the outcome.
    pub fn measure_qubit<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> bool {
        let p1 = self.prob_one(q);
        let outcome = rng.gen_range(0.0..1.0) < p1;
        let bit = 1usize << q;
        let keep = if outcome { bit } else { 0 };
        let norm = if outcome { p1 } else { 1.0 - p1 };
        let scale = 1.0 / norm.max(f64::MIN_POSITIVE).sqrt();
        for (b, a) in self.amps.iter_mut().enumerate() {
            if b & bit == keep {
                *a = a.scale(scale);
            } else {
                *a = C64::ZERO;
            }
        }
        outcome
    }

    /// Renormalizes (useful after numerical drift in long trajectories).
    pub fn normalize(&mut self) {
        let norm: f64 = self.amps.iter().map(|a| a.norm_sqr()).sum();
        let s = 1.0 / norm.sqrt();
        for a in &mut self.amps {
            *a = a.scale(s);
        }
    }
}

/// The branch a uniform draw `u ∈ [0, Σp)` lands in; the most likely
/// branch if rounding lets `u` run past the last one.
fn pick_branch(probs: &[f64], mut u: f64) -> usize {
    for (i, &p) in probs.iter().enumerate() {
        if u < p {
            return i;
        }
        u -= p;
    }
    probs
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("kraus set is nonempty")
}

#[cfg(test)]
impl StateVector {
    /// The clone-per-branch body `apply_kraus_1q` had before it worked in
    /// place: the reference its results are checked against bit for bit.
    pub(crate) fn apply_kraus_1q_cloning<R: Rng + ?Sized>(
        &mut self,
        q: usize,
        kraus: &[Mat2],
        rng: &mut R,
    ) {
        let mut probs = Vec::with_capacity(kraus.len());
        let mut branches = Vec::with_capacity(kraus.len());
        for k in kraus {
            let mut branch = self.clone();
            branch.apply_mat2(q, k);
            let p: f64 = branch.amps.iter().map(|a| a.norm_sqr()).sum();
            probs.push(p);
            branches.push(branch);
        }
        let total: f64 = probs.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "kraus set not trace preserving: {total}");
        let mut u: f64 = rng.gen_range(0.0..total);
        let mut chosen = None;
        for (i, &p) in probs.iter().enumerate() {
            if u < p {
                chosen = Some(i);
                break;
            }
            u -= p;
        }
        let i = chosen.unwrap_or_else(|| {
            probs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .expect("kraus set is nonempty")
        });
        let mut branch = branches.swap_remove(i);
        let scale = 1.0 / probs[i].sqrt();
        for a in &mut branch.amps {
            *a = a.scale(scale);
        }
        *self = branch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn initial_state() {
        let s = StateVector::new(3);
        assert_eq!(s.amp(0), C64::ONE);
        assert_eq!(s.probabilities()[0], 1.0);
    }

    #[test]
    fn x_flips() {
        let mut s = StateVector::new(2);
        s.apply_gate(&Gate::X, &[1]);
        assert!((s.probabilities()[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bell_state_probabilities() {
        let mut s = StateVector::new(2);
        s.apply_gate(&Gate::H, &[0]);
        s.apply_gate(&Gate::Cx, &[0, 1]);
        let p = s.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[3] - 0.5).abs() < 1e-12);
        assert!(p[1].abs() < 1e-12 && p[2].abs() < 1e-12);
    }

    #[test]
    fn cx_direction_matters() {
        // Control=1 flips target; control in |0⟩ does nothing.
        let mut s = StateVector::new(2);
        s.apply_gate(&Gate::X, &[1]); // set qubit 1 (will be control)
        s.apply_gate(&Gate::Cx, &[1, 0]);
        // Now both qubits are 1.
        assert!((s.probabilities()[3] - 1.0).abs() < 1e-12);
        let mut t = StateVector::new(2);
        t.apply_gate(&Gate::X, &[1]);
        t.apply_gate(&Gate::Cx, &[0, 1]); // control = qubit 0 = |0⟩
        assert!((t.probabilities()[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn swap_exchanges() {
        let mut s = StateVector::new(2);
        s.apply_gate(&Gate::X, &[0]);
        s.apply_gate(&Gate::Swap, &[0, 1]);
        assert!((s.prob_one(1) - 1.0).abs() < 1e-12);
        assert!(s.prob_one(0) < 1e-12);
    }

    #[test]
    fn fidelity_and_inner() {
        let a = StateVector::new(1);
        let mut b = StateVector::new(1);
        b.apply_gate(&Gate::H, &[0]);
        assert!((a.fidelity(&a) - 1.0).abs() < 1e-12);
        assert!((a.fidelity(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sampling_respects_distribution() {
        let mut s = StateVector::new(1);
        s.apply_gate(&Gate::H, &[0]);
        let mut rng = StdRng::seed_from_u64(0);
        let ones: usize = (0..4000).map(|_| s.sample(&mut rng) as usize).sum();
        let frac = ones as f64 / 4000.0;
        assert!((frac - 0.5).abs() < 0.05, "frac {frac}");
    }

    #[test]
    fn amplitude_damping_kraus_drives_to_zero() {
        // γ = 1: |1⟩ decays to |0⟩ deterministically.
        let gamma: f64 = 1.0;
        let k0 = Mat2([
            [C64::ONE, C64::ZERO],
            [C64::ZERO, C64::real((1.0 - gamma).sqrt())],
        ]);
        let k1 = Mat2([[C64::ZERO, C64::real(gamma.sqrt())], [C64::ZERO, C64::ZERO]]);
        let mut s = StateVector::new(1);
        s.apply_gate(&Gate::X, &[0]);
        let mut rng = StdRng::seed_from_u64(1);
        s.apply_kraus_1q(0, &[k0, k1], &mut rng);
        assert!(s.prob_one(0) < 1e-12);
    }

    #[test]
    fn kraus_preserves_norm_statistically() {
        let gamma: f64 = 0.3;
        let k0 = Mat2([
            [C64::ONE, C64::ZERO],
            [C64::ZERO, C64::real((1.0 - gamma).sqrt())],
        ]);
        let k1 = Mat2([[C64::ZERO, C64::real(gamma.sqrt())], [C64::ZERO, C64::ZERO]]);
        let mut rng = StdRng::seed_from_u64(2);
        let mut ones = 0;
        let trials = 2000;
        for _ in 0..trials {
            let mut s = StateVector::new(1);
            s.apply_gate(&Gate::X, &[0]);
            s.apply_kraus_1q(0, &[k0, k1], &mut rng);
            if s.prob_one(0) > 0.5 {
                ones += 1;
            }
        }
        let survive = ones as f64 / trials as f64;
        assert!((survive - 0.7).abs() < 0.05, "survival {survive}");
    }

    #[test]
    fn in_place_kraus_matches_cloning_body_bit_for_bit() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(11);
        let bits = |s: &StateVector| -> Vec<(u64, u64)> {
            s.amps.iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect()
        };
        for trial in 0..400 {
            let n = 1 + trial % 4;
            let mut amps: Vec<C64> = (0..1usize << n)
                .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
            for a in &mut amps {
                *a = a.scale(1.0 / norm);
            }
            let state = StateVector::from_amplitudes(amps);
            // Amplitude damping, and a three-branch mixed-unitary channel
            // (√(1−p−r)·I, √p·X, √r·Y), with varied strengths.
            let gamma: f64 = rng.gen_range(0.0..1.0);
            let damping = vec![
                Mat2([[C64::ONE, C64::ZERO], [C64::ZERO, C64::real((1.0 - gamma).sqrt())]]),
                Mat2([[C64::ZERO, C64::real(gamma.sqrt())], [C64::ZERO, C64::ZERO]]),
            ];
            let (p, r): (f64, f64) = (rng.gen_range(0.0..0.5), rng.gen_range(0.0..0.5));
            let scaled = |g: &Gate, w: f64| {
                let m = crate::single_qubit_matrix(g);
                Mat2([[m.0[0][0].scale(w), m.0[0][1].scale(w)], [m.0[1][0].scale(w), m.0[1][1].scale(w)]])
            };
            let mixed = vec![
                scaled(&Gate::I, (1.0 - p - r).sqrt()),
                scaled(&Gate::X, p.sqrt()),
                scaled(&Gate::Y, r.sqrt()),
            ];
            for kraus in [&damping, &mixed] {
                let q = trial % n;
                let seed = rng.gen_range(0..u64::MAX);
                let (mut a, mut b) = (state.clone(), state.clone());
                let (mut ra, mut rb) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                a.apply_kraus_1q(q, kraus, &mut ra);
                b.apply_kraus_1q_cloning(q, kraus, &mut rb);
                assert_eq!(bits(&a), bits(&b), "trial {trial}: states differ");
                assert_eq!(ra, rb, "trial {trial}: RNG positions differ");
            }
        }
    }

    #[test]
    #[should_panic(expected = "distinct qubits")]
    fn mat4_needs_two_qubits() {
        StateVector::new(2).apply_mat4(1, 1, &Mat4::identity());
    }

    #[test]
    fn from_amplitudes_roundtrip() {
        let s = StateVector::from_amplitudes(vec![
            C64::real(std::f64::consts::FRAC_1_SQRT_2),
            C64::real(std::f64::consts::FRAC_1_SQRT_2),
        ]);
        assert_eq!(s.num_qubits(), 1);
        assert!((s.prob_one(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "norm")]
    fn unnormalized_rejected() {
        StateVector::from_amplitudes(vec![C64::ONE, C64::ONE]);
    }
}

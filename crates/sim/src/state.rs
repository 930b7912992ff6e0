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
        assert_width(n);
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
        kernel::prob_one(&self.amps, q)
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
        kernel::apply_mat2(&mut self.amps, q, m);
    }

    /// Applies a two-qubit unitary; `first` indexes the LSB of the matrix
    /// basis (see [`crate::Mat4`]).
    ///
    /// # Panics
    ///
    /// Panics if `first == second`.
    pub fn apply_mat4(&mut self, first: usize, second: usize, m: &Mat4) {
        kernel::apply_mat4(&mut self.amps, first, second, m);
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
    /// Works in place (`kernel::kraus_weights`, then `sample_branch`, then
    /// `kernel::apply_kraus_branch`). The arithmetic (and so every
    /// bit of the result and the RNG position) is that of applying each
    /// `K_k` to a copy of the state.
    ///
    /// # Panics
    ///
    /// Panics if the channel is not trace-preserving within 1e-6.
    pub fn apply_kraus_1q<R: Rng + ?Sized>(&mut self, q: usize, kraus: &[Mat2], rng: &mut R) {
        let mut small = [0.0f64; 4];
        let mut large = Vec::new();
        let probs: &mut [f64] = if kraus.len() <= small.len() {
            &mut small[..kraus.len()]
        } else {
            large.resize(kraus.len(), 0.0);
            &mut large
        };
        let total = kernel::kraus_weights(&self.amps, q, kraus, probs);
        let i = sample_branch(probs, total, rng);
        kernel::apply_kraus_branch(&mut self.amps, q, &kraus[i], probs[i]);
    }

    /// The amplitudes, for the crate's kernels.
    pub(crate) fn amps(&self) -> &[C64] {
        &self.amps
    }

    /// The amplitudes, for the crate's kernels.
    pub(crate) fn amps_mut(&mut self) -> &mut [C64] {
        &mut self.amps
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
        let p1 = kernel::prob_one(&self.amps, q);
        let outcome = sample_outcome(p1, rng);
        kernel::collapse(&mut self.amps, q, outcome, p1);
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

/// Panics unless an `n`-qubit state fits the simulator (`n ≤ 26`; the
/// executor splits circuits into components before that).
pub(crate) fn assert_width(n: usize) {
    assert!(n <= 26, "statevector over {n} qubits would need {} GiB", (1u64 << n) >> 26);
}

/// The statevector kernels, over a slice holding one or more whole states
/// back to back: an operation on qubit `q < n` of `n`-qubit states touches
/// amplitude blocks of at most `2^n`, so it acts on every state of the
/// slice independently with the arithmetic it has on one. Blocks are
/// walked directly, so no index is tested or bounds-checked per
/// amplitude.
pub(crate) mod kernel {
    use crate::matrix::{Mat2, Mat4};
    use crate::C64;

    /// Applies a single-qubit unitary to qubit `q`.
    pub(crate) fn apply_mat2(amps: &mut [C64], q: usize, m: &Mat2) {
        let bit = 1usize << q;
        for block in amps.chunks_exact_mut(2 * bit) {
            let (zeros, ones) = block.split_at_mut(bit);
            for (x0, x1) in zeros.iter_mut().zip(ones) {
                let (a0, a1) = (*x0, *x1);
                *x0 = m.0[0][0] * a0 + m.0[0][1] * a1;
                *x1 = m.0[1][0] * a0 + m.0[1][1] * a1;
            }
        }
    }

    /// Applies a two-qubit unitary; `first` indexes the LSB of the matrix
    /// basis.
    ///
    /// # Panics
    ///
    /// Panics if `first == second`.
    pub(crate) fn apply_mat4(amps: &mut [C64], first: usize, second: usize, m: &Mat4) {
        assert_ne!(first, second, "two-qubit gate needs distinct qubits");
        // Quadruples `(b, b|low, b|high, b|low|high)` block by block; the
        // matrix basis order is `(b, b|first, b|second, b|first|second)`.
        let (low, high) = (1usize << first.min(second), 1usize << first.max(second));
        let first_low = first < second;
        for block in amps.chunks_exact_mut(2 * high) {
            let (h0, h1) = block.split_at_mut(high);
            for (c0, c1) in h0.chunks_exact_mut(2 * low).zip(h1.chunks_exact_mut(2 * low)) {
                let (c00, c01) = c0.split_at_mut(low);
                let (c10, c11) = c1.split_at_mut(low);
                for (((x00, x01), x10), x11) in c00.iter_mut().zip(c01).zip(c10).zip(c11) {
                    let quad = if first_low { [x00, x01, x10, x11] } else { [x00, x10, x01, x11] };
                    let old = [*quad[0], *quad[1], *quad[2], *quad[3]];
                    for (row, target) in quad.into_iter().enumerate() {
                        let mut acc = C64::ZERO;
                        for (col, &o) in old.iter().enumerate() {
                            acc += m.0[row][col] * o;
                        }
                        *target = acc;
                    }
                }
            }
        }
    }

    /// Probability that qubit `q` of one state reads 1: the basis
    /// probabilities with bit `q` set, summed in basis order.
    pub(crate) fn prob_one(amps: &[C64], q: usize) -> f64 {
        let bit = 1usize << q;
        amps.chunks_exact(2 * bit).flat_map(|block| &block[bit..]).map(|a| a.norm_sqr()).sum()
    }

    /// Writes each branch weight `‖K_k ψ‖²` of a single-qubit Kraus set on
    /// qubit `q` of one state into `probs` and returns their sum. Each norm
    /// is summed over the branch's amplitudes in basis order without
    /// materializing the branch.
    ///
    /// # Panics
    ///
    /// Panics if the channel is not trace-preserving within 1e-6.
    pub(crate) fn kraus_weights(amps: &[C64], q: usize, kraus: &[Mat2], probs: &mut [f64]) -> f64 {
        let bit = 1usize << q;
        for (p, k) in probs.iter_mut().zip(kraus) {
            // `K ψ` exactly as `apply_mat2` computes it, in basis order:
            // each block's bit-clear half, then its bit-set half. (Every
            // term is `+0` or positive, so the sum's starting zero cannot
            // matter.)
            *p = 0.0;
            for block in amps.chunks_exact(2 * bit) {
                let (zeros, ones) = block.split_at(bit);
                for (&a0, &a1) in zeros.iter().zip(ones) {
                    *p += (k.0[0][0] * a0 + k.0[0][1] * a1).norm_sqr();
                }
                for (&a0, &a1) in zeros.iter().zip(ones) {
                    *p += (k.0[1][0] * a0 + k.0[1][1] * a1).norm_sqr();
                }
            }
        }
        let total: f64 = probs.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "kraus set not trace preserving: {total}");
        total
    }

    /// Applies the Kraus operator `k` whose branch weight
    /// ([`kraus_weights`]) is `weight` to one state, and renormalizes.
    pub(crate) fn apply_kraus_branch(amps: &mut [C64], q: usize, k: &Mat2, weight: f64) {
        let scale = 1.0 / weight.sqrt();
        apply_mat2(amps, q, k);
        for a in amps {
            *a = a.scale(scale);
        }
    }

    /// Projects qubit `q` of one state onto `outcome` and renormalizes,
    /// given `p1 = prob_one(q)` of the state before the projection.
    pub(crate) fn collapse(amps: &mut [C64], q: usize, outcome: bool, p1: f64) {
        let bit = 1usize << q;
        let norm = if outcome { p1 } else { 1.0 - p1 };
        let scale = 1.0 / norm.max(f64::MIN_POSITIVE).sqrt();
        for block in amps.chunks_exact_mut(2 * bit) {
            let (zeros, ones) = block.split_at_mut(bit);
            let (kept, dropped) = if outcome { (ones, zeros) } else { (zeros, ones) };
            for a in kept {
                *a = a.scale(scale);
            }
            dropped.fill(C64::ZERO);
        }
    }
}

/// Draws a Kraus branch from its weights `probs` summing to `total`.
pub(crate) fn sample_branch<R: Rng + ?Sized>(probs: &[f64], total: f64, rng: &mut R) -> usize {
    pick_branch(probs, rng.gen_range(0.0..total))
}

/// Draws a Z-basis measurement outcome of a qubit that reads 1 with
/// probability `p1`.
pub(crate) fn sample_outcome<R: Rng + ?Sized>(p1: f64, rng: &mut R) -> bool {
    rng.gen_range(0.0..1.0) < p1
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
    /// The index-testing bodies the kernels had before they walked blocks:
    /// the references they are checked against bit for bit.
    fn apply_mat2_indexed(&mut self, q: usize, m: &Mat2) {
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

    fn apply_mat4_indexed(&mut self, first: usize, second: usize, m: &Mat4) {
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

    fn prob_one_indexed(&self, q: usize) -> f64 {
        let bit = 1usize << q;
        self.amps
            .iter()
            .enumerate()
            .filter(|(b, _)| b & bit != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    fn collapse_indexed(&mut self, q: usize, outcome: bool, p1: f64) {
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
    }

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
            branch.apply_mat2_indexed(q, k);
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
    fn block_kernels_match_indexed_bodies_bit_for_bit() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(12);
        let bits = |s: &StateVector| -> Vec<(u64, u64)> {
            s.amps.iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect()
        };
        let entry = |rng: &mut StdRng| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0));
        for trial in 0..300 {
            let n = 1 + trial % 6;
            // Signed zeros too: the kernels must agree on every bit.
            let mut amps: Vec<C64> = (0..1usize << n)
                .map(|i| match i % 7 {
                    5 => C64::new(-0.0, 0.0),
                    6 => C64::ZERO,
                    _ => entry(&mut rng),
                })
                .collect();
            let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
            for a in &mut amps {
                *a = a.scale(1.0 / norm);
            }
            let state = StateVector::from_amplitudes(amps);
            let m2 = Mat2([[entry(&mut rng), entry(&mut rng)], [entry(&mut rng), entry(&mut rng)]]);
            let mut m4 = Mat4::identity();
            for row in &mut m4.0 {
                for e in row.iter_mut() {
                    *e = entry(&mut rng);
                }
            }
            let q = trial % n;
            let (mut a, mut b) = (state.clone(), state.clone());
            a.apply_mat2(q, &m2);
            b.apply_mat2_indexed(q, &m2);
            assert_eq!(bits(&a), bits(&b), "trial {trial}: apply_mat2");
            assert_eq!(state.prob_one(q).to_bits(), state.prob_one_indexed(q).to_bits());
            let p1 = state.prob_one(q);
            for outcome in [false, true] {
                let (mut a, mut b) = (state.clone(), state.clone());
                kernel::collapse(&mut a.amps, q, outcome, p1);
                b.collapse_indexed(q, outcome, p1);
                assert_eq!(bits(&a), bits(&b), "trial {trial}: collapse");
            }
            if n >= 2 {
                let r = (q + 1 + trial / 6 % (n - 1)) % n;
                let (mut a, mut b) = (state.clone(), state.clone());
                a.apply_mat4(q, r, &m4);
                b.apply_mat4_indexed(q, r, &m4);
                assert_eq!(bits(&a), bits(&b), "trial {trial}: apply_mat4({q}, {r})");
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

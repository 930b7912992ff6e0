//! Exact density-matrix evolution for small registers: a test oracle.
//!
//! The trajectory executor approximates open-system dynamics by Monte
//! Carlo sampling, and the executor's exact backend evolves a flat density
//! matrix with closed-form channels; this module evolves a nested one
//! gate by gate, Pauli branch by Pauli branch, giving an independent
//! oracle against which both are validated (the
//! `trajectory_matches_density_*` tests below, and the executor oracle's
//! `exact_tables_match_density_under_every_noise_switch`).

use crate::matrix::{single_qubit_matrix, two_qubit_matrix, Mat2};
use crate::{C64, StateVector};
use xtalk_ir::Gate;

/// An exact `2^n × 2^n` density matrix (`n ≤ 6` to stay small).
#[derive(Clone, PartialEq, Debug)]
pub struct DensityMatrix {
    n: usize,
    rho: Vec<Vec<C64>>,
}

impl DensityMatrix {
    /// The pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 6`.
    pub fn new(n: usize) -> Self {
        assert!(n <= 6, "density matrices above 6 qubits are impractical here");
        let dim = 1 << n;
        let mut rho = vec![vec![C64::ZERO; dim]; dim];
        rho[0][0] = C64::ONE;
        DensityMatrix { n, rho }
    }

    /// The pure state `|ψ⟩⟨ψ|` of a statevector.
    pub fn from_state(state: &StateVector) -> Self {
        let n = state.num_qubits();
        assert!(n <= 6, "density matrices above 6 qubits are impractical here");
        let dim = 1 << n;
        let mut rho = vec![vec![C64::ZERO; dim]; dim];
        for (i, row) in rho.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = state.amp(i) * state.amp(j).conj();
            }
        }
        DensityMatrix { n, rho }
    }

    /// Matrix element `⟨i|ρ|j⟩`.
    pub fn element(&self, i: usize, j: usize) -> C64 {
        self.rho[i][j]
    }

    /// Trace (≈ 1 for a physical state).
    pub fn trace(&self) -> C64 {
        let mut t = C64::ZERO;
        for i in 0..self.rho.len() {
            t += self.rho[i][i];
        }
        t
    }

    /// Purity `Tr(ρ²)`.
    pub fn purity(&self) -> f64 {
        let mut p = C64::ZERO;
        for i in 0..self.rho.len() {
            for k in 0..self.rho.len() {
                p += self.rho[i][k] * self.rho[k][i];
            }
        }
        p.re
    }

    /// Measurement probabilities in the computational basis.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.rho.len()).map(|i| self.rho[i][i].re).collect()
    }

    /// Fidelity `⟨ψ|ρ|ψ⟩` with a pure state.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn fidelity_with(&self, psi: &StateVector) -> f64 {
        assert_eq!(psi.num_qubits(), self.n, "widths must match");
        let mut f = C64::ZERO;
        for i in 0..self.rho.len() {
            for j in 0..self.rho.len() {
                f += psi.amp(i).conj() * self.rho[i][j] * psi.amp(j);
            }
        }
        f.re
    }

    /// Applies a unitary gate `ρ → UρU†`.
    ///
    /// # Panics
    ///
    /// Panics for non-unitary gates.
    pub fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) {
        if gate.is_two_qubit() {
            let m = two_qubit_matrix(gate);
            // Left multiply on the ket index…
            for col in 0..self.rho.len() {
                let mut column: Vec<C64> = (0..self.rho.len()).map(|r| self.rho[r][col]).collect();
                apply_mat4_vec(&mut column, qubits[0], qubits[1], &m.0, false);
                for (r, v) in column.into_iter().enumerate() {
                    self.rho[r][col] = v;
                }
            }
            // …then U† on the bra index.
            for row in self.rho.iter_mut() {
                apply_mat4_vec(row, qubits[0], qubits[1], &m.0, true);
            }
        } else {
            let m = single_qubit_matrix(gate);
            self.apply_kraus_1q(qubits[0], &[m]);
        }
    }

    /// Applies a single-qubit Kraus channel `ρ → Σ_k K_k ρ K_k†`.
#[allow(clippy::needless_range_loop)]
    pub fn apply_kraus_1q(&mut self, q: usize, kraus: &[Mat2]) {
        let dim = self.rho.len();
        let bit = 1usize << q;
        let mut out = vec![vec![C64::ZERO; dim]; dim];
        for k in kraus {
            // K ρ K†: transform kets then bras.
            let mut tmp = self.rho.clone();
            for col in 0..dim {
                for r0 in 0..dim {
                    if r0 & bit == 0 {
                        let r1 = r0 | bit;
                        let a0 = tmp[r0][col];
                        let a1 = tmp[r1][col];
                        tmp[r0][col] = k.0[0][0] * a0 + k.0[0][1] * a1;
                        tmp[r1][col] = k.0[1][0] * a0 + k.0[1][1] * a1;
                    }
                }
            }
            for row in &mut tmp {
                for c0 in 0..dim {
                    if c0 & bit == 0 {
                        let c1 = c0 | bit;
                        let a0 = row[c0];
                        let a1 = row[c1];
                        // (ρK†)[·, c] = Σ_k ρ[·, k] · conj(K[c][k]).
                        row[c0] = a0 * k.0[0][0].conj() + a1 * k.0[0][1].conj();
                        row[c1] = a0 * k.0[1][0].conj() + a1 * k.0[1][1].conj();
                    }
                }
            }
            for (o, t) in out.iter_mut().zip(&tmp) {
                for (a, b) in o.iter_mut().zip(t) {
                    *a += *b;
                }
            }
        }
        self.rho = out;
    }

    /// Exact single-qubit depolarizing channel: with probability `p`
    /// apply a uniformly random non-identity Pauli — the density-matrix
    /// form of [`crate::NoiseModel::depolarize_1q`].
    pub fn depolarize_1q(&mut self, q: usize, p: f64) {
        let mut acc = scaled(&self.rho, 1.0 - p);
        for g in [Gate::X, Gate::Y, Gate::Z] {
            let mut branch = self.clone();
            branch.apply_gate(&g, &[q]);
            add_scaled(&mut acc, &branch.rho, p / 3.0);
        }
        self.rho = acc;
    }

    /// Exact two-qubit depolarizing channel (15 non-identity Paulis).
    pub fn depolarize_2q(&mut self, a: usize, b: usize, p: f64) {
        let mut acc = scaled(&self.rho, 1.0 - p);
        let paulis = [None, Some(Gate::X), Some(Gate::Y), Some(Gate::Z)];
        for (i, ga) in paulis.iter().enumerate() {
            for (j, gb) in paulis.iter().enumerate() {
                if i == 0 && j == 0 {
                    continue;
                }
                let mut branch = self.clone();
                if let Some(g) = ga {
                    branch.apply_gate(g, &[a]);
                }
                if let Some(g) = gb {
                    branch.apply_gate(g, &[b]);
                }
                add_scaled(&mut acc, &branch.rho, p / 15.0);
            }
        }
        self.rho = acc;
    }

    /// Exact idle decoherence matching [`crate::NoiseModel::idle`]:
    /// amplitude damping `γ = 1 − e^{−dt/T1}` followed by pure dephasing
    /// with `1/T_φ = 1/T2 − 1/(2 T1)`.
    pub fn idle(&mut self, q: usize, dt_ns: f64, t1_ns: f64, t2_ns: f64) {
        if dt_ns <= 0.0 {
            return;
        }
        let gamma = 1.0 - (-dt_ns / t1_ns).exp();
        if gamma > 0.0 {
            let k0 = Mat2([
                [C64::ONE, C64::ZERO],
                [C64::ZERO, C64::real((1.0 - gamma).sqrt())],
            ]);
            let k1 = Mat2([[C64::ZERO, C64::real(gamma.sqrt())], [C64::ZERO, C64::ZERO]]);
            self.apply_kraus_1q(q, &[k0, k1]);
        }
        let inv_tphi = (1.0 / t2_ns - 0.5 / t1_ns).max(0.0);
        if inv_tphi > 0.0 {
            let p_z = 0.5 * (1.0 - (-dt_ns * inv_tphi).exp());
            let mut flipped = self.clone();
            flipped.apply_gate(&Gate::Z, &[q]);
            let mut acc = scaled(&self.rho, 1.0 - p_z);
            add_scaled(&mut acc, &flipped.rho, p_z);
            self.rho = acc;
        }
    }

    /// Applies per-bit symmetric readout confusion to the classical
    /// distribution (diagonal), returning the observed distribution.
    pub fn readout_distribution(&self, flip: &[f64]) -> Vec<f64> {
        assert_eq!(flip.len(), self.n, "one flip probability per qubit");
        let diag = self.probabilities();
        let dim = diag.len();
        let mut out = vec![0.0; dim];
        for (truth, &p) in diag.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            for (obs, o) in out.iter_mut().enumerate() {
                let mut w = p;
                for (q, &f) in flip.iter().enumerate() {
                    let flipped = ((truth >> q) ^ (obs >> q)) & 1 == 1;
                    w *= if flipped { f } else { 1.0 - f };
                }
                *o += w;
            }
        }
        out
    }
}

fn scaled(m: &[Vec<C64>], s: f64) -> Vec<Vec<C64>> {
    m.iter().map(|row| row.iter().map(|c| c.scale(s)).collect()).collect()
}

fn add_scaled(acc: &mut [Vec<C64>], m: &[Vec<C64>], s: f64) {
    for (a, b) in acc.iter_mut().zip(m) {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y.scale(s);
        }
    }
}

/// Applies a 4×4 matrix (or its conjugate) to a dense vector over the
/// two target qubits; `conj` selects `U†`-from-the-right semantics.
fn apply_mat4_vec(v: &mut [C64], first: usize, second: usize, m: &[[C64; 4]; 4], conj: bool) {
    let fb = 1usize << first;
    let sb = 1usize << second;
    for b in 0..v.len() {
        if b & fb == 0 && b & sb == 0 {
            let idx = [b, b | fb, b | sb, b | fb | sb];
            let old = [v[idx[0]], v[idx[1]], v[idx[2]], v[idx[3]]];
            for (row, &t) in idx.iter().enumerate() {
                let mut acc = C64::ZERO;
                for (col, &o) in old.iter().enumerate() {
                    acc += if conj {
                        // (ρ U†)[_, row] = Σ_col ρ[_, col] · conj(U[row][col])
                        m[row][col].conj() * o
                    } else {
                        m[row][col] * o
                    };
                }
                v[t] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoiseModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pure_state_roundtrip() {
        let mut s = StateVector::new(2);
        s.apply_gate(&Gate::H, &[0]);
        s.apply_gate(&Gate::Cx, &[0, 1]);
        let rho = DensityMatrix::from_state(&s);
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
        assert!((rho.fidelity_with(&s) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unitary_evolution_matches_statevector() {
        let mut rho = DensityMatrix::new(2);
        let mut s = StateVector::new(2);
        for (g, qs) in [
            (Gate::H, vec![0usize]),
            (Gate::T, vec![1]),
            (Gate::Cx, vec![0, 1]),
            (Gate::S, vec![0]),
            (Gate::Cz, vec![1, 0]),
        ] {
            rho.apply_gate(&g, &qs);
            s.apply_gate(&g, &qs);
        }
        assert!((rho.fidelity_with(&s) - 1.0).abs() < 1e-9);
        assert!((rho.purity() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn full_depolarization_yields_maximally_mixed() {
        let mut rho = DensityMatrix::new(1);
        rho.apply_gate(&Gate::H, &[0]);
        // p = 3/4 of the {I,X,Y,Z}/4 channel = full depolarizing.
        rho.depolarize_1q(0, 0.75);
        assert!((rho.purity() - 0.5).abs() < 1e-12);
        let p = rho.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn amplitude_damping_fixed_point_is_ground_state() {
        let mut rho = DensityMatrix::new(1);
        rho.apply_gate(&Gate::X, &[0]);
        rho.idle(0, 1e9, 100.0, 200.0); // dt >> T1
        let p = rho.probabilities();
        assert!(p[1] < 1e-9, "excited population {}", p[1]);
        assert!((rho.purity() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn trajectory_matches_density_depolarizing() {
        // Monte-Carlo average over trajectories converges to the exact
        // channel output.
        let p = 0.2;
        let mut exact = DensityMatrix::new(2);
        exact.apply_gate(&Gate::H, &[0]);
        exact.apply_gate(&Gate::Cx, &[0, 1]);
        exact.depolarize_2q(0, 1, p);
        let want = exact.probabilities();

        let mut rng = StdRng::seed_from_u64(1);
        let trials = 60_000;
        let mut got = vec![0.0; 4];
        for _ in 0..trials {
            let mut s = StateVector::new(2);
            s.apply_gate(&Gate::H, &[0]);
            s.apply_gate(&Gate::Cx, &[0, 1]);
            NoiseModel::depolarize_2q(&mut s, 0, 1, p, &mut rng);
            for (i, pr) in s.probabilities().iter().enumerate() {
                got[i] += pr / trials as f64;
            }
        }
        for (w, g) in want.iter().zip(&got) {
            assert!((w - g).abs() < 0.01, "want {w} got {g}");
        }
    }

    #[test]
    fn trajectory_matches_density_idle() {
        let (t1, t2, dt) = (40_000.0, 30_000.0, 25_000.0);
        let mut exact = DensityMatrix::new(1);
        exact.apply_gate(&Gate::H, &[0]);
        exact.idle(0, dt, t1, t2);
        let want_p1 = exact.probabilities()[1];
        // Also check the off-diagonal decay (coherence).
        let want_coh = exact.element(0, 1).norm();

        let mut rng = StdRng::seed_from_u64(2);
        let trials = 60_000;
        let mut got_p1 = 0.0;
        let mut got_re = 0.0;
        let mut got_im = 0.0;
        for _ in 0..trials {
            let mut s = StateVector::new(1);
            s.apply_gate(&Gate::H, &[0]);
            NoiseModel::idle(&mut s, 0, dt, t1, t2, &mut rng);
            got_p1 += s.prob_one(0) / trials as f64;
            let coh = s.amp(0) * s.amp(1).conj();
            got_re += coh.re / trials as f64;
            got_im += coh.im / trials as f64;
        }
        let got_coh = (got_re * got_re + got_im * got_im).sqrt();
        assert!((want_p1 - got_p1).abs() < 0.01, "p1: want {want_p1} got {got_p1}");
        assert!((want_coh - got_coh).abs() < 0.01, "coh: want {want_coh} got {got_coh}");
    }

    #[test]
    fn readout_confusion_matches_tensor_model() {
        let mut rho = DensityMatrix::new(2);
        rho.apply_gate(&Gate::X, &[0]);
        let obs = rho.readout_distribution(&[0.1, 0.05]);
        // Truth is |01⟩ (bit0 = 1): P(observe 01) = 0.9·0.95.
        assert!((obs[0b01] - 0.9 * 0.95).abs() < 1e-12);
        assert!((obs[0b00] - 0.1 * 0.95).abs() < 1e-12);
        assert!((obs[0b11] - 0.9 * 0.05).abs() < 1e-12);
        assert!((obs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kraus_channel_preserves_trace() {
        let gamma: f64 = 0.3;
        let k0 = Mat2([
            [C64::ONE, C64::ZERO],
            [C64::ZERO, C64::real((1.0 - gamma).sqrt())],
        ]);
        let k1 = Mat2([[C64::ZERO, C64::real(gamma.sqrt())], [C64::ZERO, C64::ZERO]]);
        let mut rho = DensityMatrix::new(2);
        rho.apply_gate(&Gate::H, &[0]);
        rho.apply_gate(&Gate::Cx, &[0, 1]);
        rho.apply_kraus_1q(1, &[k0, k1]);
        assert!((rho.trace().re - 1.0).abs() < 1e-12);
        assert!(rho.trace().im.abs() < 1e-12);
        assert!(rho.purity() < 1.0);
    }
}

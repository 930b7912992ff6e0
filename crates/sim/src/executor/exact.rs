//! The exact backend: a component's noisy channel evolved once as a
//! density matrix, then sampled with one uniform draw per shot.
//!
//! ρ of a `w`-qubit component is one flat vector of `4^w` amplitudes,
//! entry `(r, c)` at index `r | c << w`, so `ρ → UρU†` is the statevector
//! kernel applying `U` to the row bits and `conj(U)` to the column bits
//! (`q + w`). The noise channels act in closed form on each qubit's 2×2
//! (or each pair's 4×4) blocks. Every measurement is terminal on its
//! qubit ([`Program::exact_eligible`]), and a Z-basis projection commutes
//! with everything later on other qubits, so the component's outcome
//! distribution is ρ's final diagonal with the readout flips folded in.

use super::{Matrices, Program, Step};
use crate::matrix::{Mat2, Mat4};
use crate::state::kernel;
use crate::C64;
use rand::rngs::StdRng;
use rand::Rng;

/// The outcome distribution of one exact component, over the clbit masks
/// its measurements can write, as an alias table: one uniform draw picks
/// an outcome.
#[derive(Clone, Debug)]
pub(super) struct OutcomeTable {
    /// The clbit mask of each outcome.
    outcomes: Vec<u64>,
    /// Per outcome: the share of its slot it keeps, and the outcome that
    /// takes the rest.
    alias: Vec<(f64, u32)>,
    /// The exact probability of each outcome (what the alias table
    /// samples), for the oracle tests.
    #[cfg(test)]
    pub(super) probs: Vec<f64>,
}

impl OutcomeTable {
    /// Evolves `program` from `|0…0⟩⟨0…0|` and tabulates the distribution
    /// of the bits its measurements write; `None` if it writes none (the
    /// component then contributes nothing to any shot).
    pub(super) fn evolve(program: &Program, mats: &Matrices) -> Option<OutcomeTable> {
        let w = program.width;
        let mut rho = vec![C64::ZERO; 1 << (2 * w)];
        rho[0] = C64::ONE;
        // `(qubit, readout error, clbit)` of every recorded measurement.
        let mut measured: Vec<(usize, Option<f64>, u32)> = Vec::new();
        for step in &program.steps {
            match *step {
                Step::Gate1 { q, mat, depol } => {
                    let (q, m) = (q as usize, &mats.one[mat as usize]);
                    kernel::apply_mat2(&mut rho, q, m);
                    kernel::apply_mat2(&mut rho, q + w, &Mat2(m.0.map(|row| row.map(C64::conj))));
                    if let Some(p) = depol {
                        depolarize_1q(&mut rho, q, w, p);
                    }
                }
                Step::Gate2 { a, b, mat, depol } => {
                    let (a, b, m) = (a as usize, b as usize, &mats.two[mat as usize]);
                    kernel::apply_mat4(&mut rho, a, b, m);
                    let conj = Mat4(m.0.map(|row| row.map(C64::conj)));
                    kernel::apply_mat4(&mut rho, a + w, b + w, &conj);
                    if let Some(p) = depol {
                        depolarize_2q(&mut rho, a, b, w, p);
                    }
                }
                Step::Idle { q, channel } => {
                    let (gamma, keep, p_z) = channel.rates();
                    for_blocks(&mut rho, q as usize, w, |[r00, r01, r10, r11]| {
                        let coherence = keep * (1.0 - 2.0 * p_z);
                        *r00 += r11.scale(gamma);
                        *r11 = r11.scale(keep * keep);
                        *r01 = r01.scale(coherence);
                        *r10 = r10.scale(coherence);
                    });
                }
                Step::Measure { q, readout, clbit } => {
                    if let Some(c) = clbit {
                        measured.push((q as usize, readout, c));
                    }
                }
            }
        }
        if measured.is_empty() {
            return None;
        }
        let mut diag: Vec<f64> = (0..1usize << w).map(|i| rho[i | i << w].re.max(0.0)).collect();
        for &(q, readout, _) in &measured {
            let Some(e) = readout else { continue };
            let bit = 1usize << q;
            for i in (0..diag.len()).filter(|i| i & bit == 0) {
                let (p0, p1) = (diag[i], diag[i | bit]);
                diag[i] = (1.0 - e) * p0 + e * p1;
                diag[i | bit] = e * p0 + (1.0 - e) * p1;
            }
        }
        // Marginal over the measured qubits, outcome `k` holding bit `j`
        // of `k` for measurement `j`.
        let mut probs = vec![0.0; 1 << measured.len()];
        for (i, p) in diag.into_iter().enumerate() {
            let k = measured
                .iter()
                .enumerate()
                .fold(0, |k, (j, &(q, _, _))| k | ((i >> q) & 1) << j);
            probs[k] += p;
        }
        let outcomes = (0..probs.len())
            .map(|k| {
                measured
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| (k >> j) & 1 == 1)
                    .fold(0u64, |mask, (_, &(_, _, c))| mask | 1 << c)
            })
            .collect();
        Some(OutcomeTable {
            outcomes,
            alias: alias_table(&probs),
            #[cfg(test)]
            probs,
        })
    }

    /// One outcome's clbit mask, from one uniform draw of `rng`.
    pub(super) fn sample(&self, rng: &mut StdRng) -> u64 {
        let n = self.alias.len();
        let x = rng.gen::<f64>() * n as f64;
        let i = (x as usize).min(n - 1);
        let (keep, alias) = self.alias[i];
        self.outcomes[if (x - i as f64) < keep { i } else { alias as usize }]
    }

    /// `(clbit mask, probability)` of every outcome.
    #[cfg(test)]
    pub(super) fn distribution(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.outcomes.iter().copied().zip(self.probs.iter().copied())
    }
}

/// Vose's alias table of `probs` (normalized here): slot `i` keeps
/// outcome `i` for the first `keep` of its width and hands the rest to
/// `alias`.
fn alias_table(probs: &[f64]) -> Vec<(f64, u32)> {
    let n = probs.len();
    let total: f64 = probs.iter().sum();
    let mut scaled: Vec<f64> = probs.iter().map(|p| p * n as f64 / total).collect();
    let mut table: Vec<(f64, u32)> = (0..n as u32).map(|i| (1.0, i)).collect();
    let (mut small, mut large): (Vec<usize>, Vec<usize>) = (0..n).partition(|&i| scaled[i] < 1.0);
    while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
        small.pop();
        table[s] = (scaled[s], l as u32);
        scaled[l] -= 1.0 - scaled[s];
        if scaled[l] < 1.0 {
            large.pop();
            small.push(l);
        }
    }
    // Whatever is left holds (up to rounding) exactly one slot's width.
    table
}

/// Calls `f` on every 2×2 block `[ρ00, ρ01, ρ10, ρ11]` of qubit `q` (row
/// bit `q`, column bit `q + w`) of a `w`-qubit density matrix.
fn for_blocks(rho: &mut [C64], q: usize, w: usize, mut f: impl FnMut([&mut C64; 4])) {
    let (r, c) = (1usize << q, 1usize << (q + w));
    for i in (0..rho.len()).filter(|i| i & (r | c) == 0) {
        let [r00, r01, r10, r11] = rho
            .get_disjoint_mut([i, i | c, i | r, i | r | c])
            .expect("a block's four entries are distinct");
        f([r00, r01, r10, r11]);
    }
}

/// Single-qubit depolarizing noise of strength `p` (a uniformly random
/// X, Y or Z with probability `p`) on qubit `q`:
/// `ρ → (1 − 4p/3)·ρ + (2p/3)·I ⊗ Tr_q ρ`.
fn depolarize_1q(rho: &mut [C64], q: usize, w: usize, p: f64) {
    let (keep, mix) = (1.0 - 4.0 * p / 3.0, 2.0 * p / 3.0);
    for_blocks(rho, q, w, |[r00, r01, r10, r11]| {
        let trace = *r00 + *r11;
        *r00 = r00.scale(keep) + trace.scale(mix);
        *r11 = r11.scale(keep) + trace.scale(mix);
        *r01 = r01.scale(keep);
        *r10 = r10.scale(keep);
    });
}

/// Two-qubit depolarizing noise of strength `p` (one of the 15
/// non-identity Pauli pairs with probability `p`) on qubits `a`, `b`:
/// `ρ → (1 − 16p/15)·ρ + (4p/15)·I ⊗ Tr_ab ρ`.
fn depolarize_2q(rho: &mut [C64], a: usize, b: usize, w: usize, p: f64) {
    let (keep, mix) = (1.0 - 16.0 * p / 15.0, 4.0 * p / 15.0);
    let z = [0, 1usize << a, 1usize << b, (1usize << a) | (1usize << b)];
    let mask = z[3] | z[3] << w;
    for base in (0..rho.len()).filter(|i| i & mask == 0) {
        let trace = z.iter().fold(C64::ZERO, |t, &k| t + rho[base | k | k << w]);
        for (x, &row) in z.iter().enumerate() {
            for (y, &col) in z.iter().enumerate() {
                let entry = &mut rho[base | row | col << w];
                *entry = entry.scale(keep);
                if x == y {
                    *entry += trace.scale(mix);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn alias_tables_sample_their_distribution() {
        let probs = [0.5, 0.0, 0.125, 0.375, 1e-9, 0.0];
        let table = OutcomeTable {
            outcomes: (0..probs.len() as u64).collect(),
            alias: alias_table(&probs),
            probs: probs.to_vec(),
        };
        // Each slot's kept share plus what other slots hand it is its
        // (normalized) probability, exactly up to rounding.
        let n = probs.len() as f64;
        let total: f64 = probs.iter().sum();
        for (k, &p) in probs.iter().enumerate() {
            let mass: f64 = table
                .alias
                .iter()
                .enumerate()
                .map(|(i, &(keep, alias))| {
                    let own = if i == k { keep } else { 0.0 };
                    let handed = if alias as usize == k && i != k { 1.0 - keep } else { 0.0 };
                    (own + handed) / n
                })
                .sum();
            assert!((mass - p / total).abs() < 1e-12, "outcome {k}: {mass} vs {p}");
        }
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [0u64; 6];
        for _ in 0..200_000 {
            seen[table.sample(&mut rng) as usize] += 1;
        }
        assert_eq!((seen[1], seen[5]), (0, 0), "zero-probability outcomes drawn");
        for (k, &p) in probs.iter().enumerate() {
            let got = seen[k] as f64 / 200_000.0;
            assert!((got - p).abs() < 0.005, "outcome {k}: {got} vs {p}");
        }
    }
}

//! Uniform random sampling of Clifford elements.

use crate::group::{self, CliffordGroup, LocalGate};
use rand::Rng;
use xtalk_ir::{Circuit, Gate};

/// Samples a uniformly random element index from a fully enumerated group.
pub fn uniform_element<R: Rng + ?Sized>(group: &CliffordGroup, rng: &mut R) -> usize {
    rng.gen_range(0..group.len())
}

/// Samples a uniformly random two-qubit Clifford decomposition
/// (CX-optimal, averaging 1.5 CNOTs).
pub fn random_two_qubit_clifford<R: Rng + ?Sized>(rng: &mut R) -> Vec<LocalGate> {
    let g = group::two_qubit_cliffords();
    g.decomposition(uniform_element(g, rng))
}

/// Builds a random `n`-qubit Clifford circuit of `depth` layers, each a
/// random pattern of single-qubit Cliffords and CNOTs on disjoint pairs.
/// Useful for stress tests; sampling is *not* uniform over the group for
/// `n > 2`.
pub fn random_clifford_circuit<R: Rng + ?Sized>(n: usize, depth: usize, rng: &mut R) -> Circuit {
    let mut c = Circuit::new(n, 0);
    for _ in 0..depth {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut i = 0;
        while i < order.len() {
            if i + 1 < order.len() && rng.gen_bool(0.4) {
                c.cx(order[i] as u32, order[i + 1] as u32);
                i += 2;
            } else {
                match rng.gen_range(0..4) {
                    0 => c.h(order[i] as u32),
                    1 => c.s(order[i] as u32),
                    2 => c.x(order[i] as u32),
                    _ => c.z(order[i] as u32),
                };
                i += 1;
            }
        }
    }
    c
}

/// `true` if a decomposition contains only gates native to IBMQ-style
/// hardware after trivial lowering (H/S/Sdg/X/Y/Z/CX).
pub fn is_native(gates: &[LocalGate]) -> bool {
    gates.iter().all(|(g, _)| {
        matches!(g, Gate::H | Gate::S | Gate::Sdg | Gate::X | Gate::Y | Gate::Z | Gate::Cx)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CliffordTableau;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn uniform_sampling_covers_group() {
        let g = group::single_qubit_cliffords();
        let mut rng = StdRng::seed_from_u64(0);
        let seen: HashSet<usize> =
            (0..2000).map(|_| uniform_element(g, &mut rng)).collect();
        assert_eq!(seen.len(), 24, "2000 draws should hit all 24 elements");
    }

    #[test]
    fn sampled_two_qubit_cliffords_are_native() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let d = random_two_qubit_clifford(&mut rng);
            assert!(is_native(&d));
        }
    }

    #[test]
    fn mean_cx_count_close_to_1_5() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 2000;
        let total: usize = (0..n)
            .map(|_| {
                random_two_qubit_clifford(&mut rng)
                    .iter()
                    .filter(|(g, _)| g.is_two_qubit())
                    .count()
            })
            .sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 1.5).abs() < 0.1, "mean CX {mean}");
    }

    #[test]
    fn random_circuit_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let c = random_clifford_circuit(6, 10, &mut rng);
        assert_eq!(c.num_qubits(), 6);
        assert!(c.len() >= 10);
        // All Clifford: the tableau builds without panicking.
        let _ = CliffordTableau::from_circuit(&c);
    }
}

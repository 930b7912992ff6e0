//! Uniform random sampling of Clifford elements.

use crate::group::CliffordGroup;
use rand::Rng;
use xtalk_ir::Circuit;

/// Samples a uniformly random element index from a fully enumerated group.
pub fn uniform_element<R: Rng + ?Sized>(group: &CliffordGroup, rng: &mut R) -> usize {
    rng.gen_range(0..group.len())
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group;
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
    fn random_circuit_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let c = random_clifford_circuit(6, 10, &mut rng);
        assert_eq!(c.num_qubits(), 6);
        assert!(c.len() >= 10);
        // All Clifford: the tableau builds without panicking.
        let _ = CliffordTableau::from_circuit(&c);
    }
}

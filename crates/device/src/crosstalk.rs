//! Ground-truth crosstalk: conditional-error factors between CNOT pairs.

use crate::{Calibration, Edge};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Ground-truth crosstalk model of a device.
///
/// For an ordered pair of simultaneously-driven CNOTs, the *conditional
/// error rate* is `E(gᵢ|gⱼ) = factor(gᵢ|gⱼ) · E(gᵢ)`. A factor of 1 means
/// no interference; the paper observes factors up to 11× on 1-hop pairs.
///
/// This map is the hidden state of the hardware: the simulator consults it
/// to corrupt overlapping gates, while the characterization module must
/// rediscover it through simultaneous RB.
///
/// ```
/// use xtalk_device::{CrosstalkMap, Edge};
/// let mut xt = CrosstalkMap::new();
/// xt.set_symmetric(Edge::new(10, 15), Edge::new(11, 12), 11.0, 4.0);
/// assert_eq!(xt.factor(Edge::new(10, 15), Edge::new(11, 12)), 11.0);
/// assert_eq!(xt.factor(Edge::new(11, 12), Edge::new(10, 15)), 4.0);
/// assert_eq!(xt.factor(Edge::new(0, 1), Edge::new(2, 3)), 1.0);
/// ```
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CrosstalkMap {
    /// `(affected, aggressor) → factor ≥ 1`.
    factors: BTreeMap<(Edge, Edge), f64>,
}

impl CrosstalkMap {
    /// An empty (crosstalk-free) map.
    pub fn new() -> Self {
        CrosstalkMap::default()
    }

    /// Sets the factor by which simultaneous operation of `aggressor`
    /// worsens `affected` (`E(affected|aggressor) = factor · E(affected)`).
    ///
    /// # Panics
    ///
    /// Panics if the edges share a qubit (such CNOTs can never be driven
    /// simultaneously) or if `factor < 1`.
    pub fn set(&mut self, affected: Edge, aggressor: Edge, factor: f64) {
        assert!(!affected.shares_qubit(aggressor), "{affected} and {aggressor} share a qubit");
        assert!(factor >= 1.0, "crosstalk factor must be >= 1, got {factor}");
        self.factors.insert((affected, aggressor), factor);
    }

    /// Sets both directions of a pair: `a` is worsened by `f_a_given_b`
    /// when `b` runs, and vice versa.
    pub fn set_symmetric(&mut self, a: Edge, b: Edge, f_a_given_b: f64, f_b_given_a: f64) {
        self.set(a, b, f_a_given_b);
        self.set(b, a, f_b_given_a);
    }

    /// The factor by which `affected` degrades while `aggressor` runs
    /// simultaneously (1.0 when the pair does not interfere).
    pub fn factor(&self, affected: Edge, aggressor: Edge) -> f64 {
        self.factors.get(&(affected, aggressor)).copied().unwrap_or(1.0)
    }

    /// Every aggressor that worsens `affected`, with its factor, in edge
    /// order: one range of the map, empty for an edge no entry names as
    /// affected.
    ///
    /// ```
    /// use xtalk_device::{CrosstalkMap, Edge};
    /// let mut xt = CrosstalkMap::new();
    /// xt.set(Edge::new(0, 1), Edge::new(2, 3), 4.0);
    /// let row: Vec<_> = xt.aggressors(Edge::new(0, 1)).collect();
    /// assert_eq!(row, vec![(Edge::new(2, 3), 4.0)]);
    /// assert_eq!(xt.aggressors(Edge::new(2, 3)).count(), 0);
    /// ```
    pub fn aggressors(&self, affected: Edge) -> impl Iterator<Item = (Edge, f64)> + '_ {
        // `CX0,1` is the least edge, so the range starts at `affected`'s
        // first entry.
        self.factors
            .range((affected, Edge::new(0, 1))..)
            .take_while(move |((a, _), _)| *a == affected)
            .map(|(&(_, aggressor), &f)| (aggressor, f))
    }

    /// The conditional error rate `E(affected|aggressor)` under
    /// `calibration`, clamped to 1.
    pub fn conditional_error(&self, cal: &Calibration, affected: Edge, aggressor: Edge) -> f64 {
        (cal.cx_error(affected) * self.factor(affected, aggressor)).min(1.0)
    }

    /// All ordered pairs with a factor `>= threshold` (the paper uses 3×
    /// to call a pair "high crosstalk").
    pub fn high_pairs(&self, threshold: f64) -> Vec<(Edge, Edge)> {
        self.factors
            .iter()
            .filter(|(_, &f)| f >= threshold)
            .map(|(&k, _)| k)
            .collect()
    }

    /// Unordered pairs where *either* direction reaches `threshold` — the
    /// edges the scheduler must consider serializing.
    pub fn high_unordered_pairs(&self, threshold: f64) -> Vec<(Edge, Edge)> {
        let mut out: Vec<(Edge, Edge)> = Vec::new();
        for (&(a, b), &f) in &self.factors {
            if f >= threshold {
                let key = if a < b { (a, b) } else { (b, a) };
                if !out.contains(&key) {
                    out.push(key);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Iterates over all `(affected, aggressor) → factor` entries.
    pub fn iter(&self) -> impl Iterator<Item = ((Edge, Edge), f64)> + '_ {
        self.factors.iter().map(|(&k, &v)| (k, v))
    }

    /// Number of stored directed entries.
    pub fn len(&self) -> usize {
        self.factors.len()
    }

    /// `true` if no crosstalk is modeled.
    pub fn is_empty(&self) -> bool {
        self.factors.is_empty()
    }

    /// A next-day crosstalk model: factors jitter multiplicatively by up to
    /// roughly ±2× over a week while remaining ≥ 1 — matching the paper's
    /// observation that conditional error rates vary 2–3× day to day but
    /// the *set* of high-crosstalk pairs stays stable (Figure 4).
    pub fn drifted(&self, seed: u64) -> CrosstalkMap {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5851_f42d_4c95_7f2d);
        let mut out = self.clone();
        for v in out.factors.values_mut() {
            let jitter = (0.22 * normal(&mut rng)).exp();
            *v = (*v * jitter).max(1.0);
        }
        out
    }
}

fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CalibrationProfile, Topology};

    fn sample_map() -> CrosstalkMap {
        let mut xt = CrosstalkMap::new();
        xt.set_symmetric(Edge::new(10, 15), Edge::new(11, 12), 11.0, 4.0);
        xt.set_symmetric(Edge::new(13, 14), Edge::new(18, 19), 5.0, 4.5);
        xt.set_symmetric(Edge::new(0, 1), Edge::new(2, 3), 1.5, 1.4);
        xt
    }

    #[test]
    fn default_factor_is_one() {
        let xt = CrosstalkMap::new();
        assert_eq!(xt.factor(Edge::new(0, 1), Edge::new(2, 3)), 1.0);
        assert!(xt.is_empty());
    }

    #[test]
    fn asymmetric_factors() {
        let xt = sample_map();
        assert_eq!(xt.factor(Edge::new(10, 15), Edge::new(11, 12)), 11.0);
        assert_eq!(xt.factor(Edge::new(11, 12), Edge::new(10, 15)), 4.0);
    }

    #[test]
    fn high_pairs_filtering() {
        let xt = sample_map();
        let high = xt.high_unordered_pairs(3.0);
        assert_eq!(high.len(), 2);
        assert!(!high.contains(&(Edge::new(0, 1), Edge::new(2, 3))));
        // Directed view contains both directions of pair (10,15)-(11,12).
        assert_eq!(xt.high_pairs(3.0).len(), 4);
    }

    #[test]
    #[should_panic(expected = "share a qubit")]
    fn shared_qubit_rejected() {
        CrosstalkMap::new().set(Edge::new(0, 1), Edge::new(1, 2), 2.0);
    }

    #[test]
    #[should_panic(expected = "must be >= 1")]
    fn subunit_factor_rejected() {
        CrosstalkMap::new().set(Edge::new(0, 1), Edge::new(2, 3), 0.5);
    }

    #[test]
    fn conditional_error_clamped() {
        let topo = Topology::line(4);
        let mut cal = Calibration::sample(&topo, &CalibrationProfile::default(), 3);
        cal.set_cx_error(Edge::new(0, 1), 0.2);
        let mut xt = CrosstalkMap::new();
        xt.set(Edge::new(0, 1), Edge::new(2, 3), 11.0);
        assert_eq!(xt.conditional_error(&cal, Edge::new(0, 1), Edge::new(2, 3)), 1.0);
    }

    #[test]
    fn drift_preserves_high_pair_set_roughly() {
        let xt = sample_map();
        // Across a week of drift, the two genuinely-high pairs stay >= 3x.
        for day in 0..7 {
            let d = xt.drifted(day);
            let high = d.high_unordered_pairs(3.0);
            assert!(
                high.contains(&(Edge::new(10, 15), Edge::new(11, 12)))
                    || high.contains(&(Edge::new(11, 12), Edge::new(10, 15))),
                "day {day} lost the dominant pair"
            );
            for (_, f) in d.iter() {
                assert!(f >= 1.0);
            }
        }
    }
}

//! Characterization policies: which SRB experiments to run (the paper's
//! baseline and its three optimizations) and what they cost in machine
//! time.

use crate::binpack;
use xtalk_device::{Edge, Topology};

/// Which simultaneous-RB experiments a characterization run performs.
#[derive(Clone, PartialEq, Debug)]
pub enum CharacterizationPolicy {
    /// Baseline: SRB on *every* pair of CNOTs that can be driven in
    /// parallel, one pair per experiment (>8 h of machine time on the
    /// paper's devices).
    AllPairs,
    /// Optimization 1: only pairs separated by exactly 1 hop.
    OneHop,
    /// Optimizations 1+2: 1-hop pairs, packed into parallel experiments
    /// (pairs at least `k_hops` apart share an experiment).
    OneHopBinPacked {
        /// Minimum separation between pairs within one experiment.
        k_hops: u32,
    },
    /// Optimizations 1+2+3: restrict to the known high-crosstalk pairs
    /// (stable day to day), bin-packed.
    HighCrosstalkOnly {
        /// Minimum separation between pairs within one experiment.
        k_hops: u32,
        /// Yesterday's high-crosstalk pairs (unordered).
        known_pairs: Vec<(Edge, Edge)>,
    },
}

impl CharacterizationPolicy {
    /// Short display name (used in Figure 10's legend).
    pub fn name(&self) -> &'static str {
        match self {
            CharacterizationPolicy::AllPairs => "All pairs",
            CharacterizationPolicy::OneHop => "Opt 1: One hop",
            CharacterizationPolicy::OneHopBinPacked { .. } => "Opt 2: One hop + bin packing",
            CharacterizationPolicy::HighCrosstalkOnly { .. } => {
                "Opt 3: Only high crosstalk pairs"
            }
        }
    }

    /// The experiment plan: each inner vector is one machine experiment
    /// (a set of SRB pairs measured simultaneously).
    pub fn experiments(&self, topo: &Topology, seed: u64) -> Vec<Vec<(Edge, Edge)>> {
        match self {
            CharacterizationPolicy::AllPairs => {
                topo.simultaneous_pairs().into_iter().map(|p| vec![p]).collect()
            }
            CharacterizationPolicy::OneHop => {
                topo.pairs_at_distance(1).into_iter().map(|p| vec![p]).collect()
            }
            CharacterizationPolicy::OneHopBinPacked { k_hops } => {
                binpack::pack(topo, &topo.pairs_at_distance(1), *k_hops, 50, seed)
            }
            CharacterizationPolicy::HighCrosstalkOnly { k_hops, known_pairs } => {
                binpack::pack(topo, known_pairs, *k_hops, 50, seed)
            }
        }
    }
}

/// A characterization policy by the name the `xtalk` CLI and the job
/// service accept: the device model's ground truth or one of the
/// measured policies. This is the one table of those names.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PolicyName {
    /// `truth`: the tables are read off the device model; nothing is
    /// measured.
    Truth,
    /// `all`: [`CharacterizationPolicy::AllPairs`].
    All,
    /// `onehop`: [`CharacterizationPolicy::OneHop`].
    OneHop,
    /// `binpacked`: [`CharacterizationPolicy::OneHopBinPacked`] with
    /// `k_hops = 2`.
    BinPacked,
}

impl PolicyName {
    /// Every accepted policy.
    const ALL: [PolicyName; 4] =
        [PolicyName::Truth, PolicyName::All, PolicyName::OneHop, PolicyName::BinPacked];

    /// The policy named `name`.
    ///
    /// # Errors
    ///
    /// `` unknown policy `name` `` for any other name.
    pub fn parse(name: &str) -> Result<PolicyName, String> {
        PolicyName::ALL
            .into_iter()
            .find(|p| p.as_str() == name)
            .ok_or_else(|| format!("unknown policy `{name}`"))
    }

    /// The accepted name.
    pub fn as_str(self) -> &'static str {
        match self {
            PolicyName::Truth => "truth",
            PolicyName::All => "all",
            PolicyName::OneHop => "onehop",
            PolicyName::BinPacked => "binpacked",
        }
    }

    /// The SRB plan a measured policy runs; `None` for `truth`.
    pub fn measured(self) -> Option<CharacterizationPolicy> {
        match self {
            PolicyName::Truth => None,
            PolicyName::All => Some(CharacterizationPolicy::AllPairs),
            PolicyName::OneHop => Some(CharacterizationPolicy::OneHop),
            PolicyName::BinPacked => Some(CharacterizationPolicy::OneHopBinPacked { k_hops: 2 }),
        }
    }
}

/// Machine-time accounting for a characterization run.
///
/// The paper reports ~22.6 M circuit executions for 221 all-pairs SRB
/// experiments taking over 8 hours, i.e. ≈1.27 ms per execution at
/// current IBMQ rates; [`TimeModel::default`] uses that figure.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TimeModel {
    /// Wall-clock seconds consumed per circuit execution (one trial).
    pub seconds_per_execution: f64,
}

impl Default for TimeModel {
    fn default() -> Self {
        TimeModel { seconds_per_execution: 8.0 * 3600.0 / 22.6e6 }
    }
}

impl TimeModel {
    /// Total machine hours for `num_experiments`, each costing
    /// `executions_per_experiment` trials.
    pub fn hours(&self, num_experiments: usize, executions_per_experiment: u64) -> f64 {
        num_experiments as f64 * executions_per_experiment as f64 * self.seconds_per_execution
            / 3600.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_pairs_counts_match_topology() {
        let topo = Topology::poughkeepsie();
        let plan = CharacterizationPolicy::AllPairs.experiments(&topo, 0);
        assert_eq!(plan.len(), topo.simultaneous_pairs().len());
        assert!(plan.iter().all(|bin| bin.len() == 1));
    }

    #[test]
    fn one_hop_is_much_smaller() {
        let topo = Topology::poughkeepsie();
        let all = CharacterizationPolicy::AllPairs.experiments(&topo, 0).len();
        let one = CharacterizationPolicy::OneHop.experiments(&topo, 0).len();
        // The paper reports ~5x reduction from optimization 1.
        assert!(one * 3 < all, "one-hop {one} vs all {all}");
    }

    #[test]
    fn bin_packing_reduces_experiments_further() {
        let topo = Topology::poughkeepsie();
        let one = CharacterizationPolicy::OneHop.experiments(&topo, 0).len();
        let packed =
            CharacterizationPolicy::OneHopBinPacked { k_hops: 2 }.experiments(&topo, 0).len();
        assert!(packed < one, "packed {packed} vs one-hop {one}");
    }

    #[test]
    fn high_only_is_smallest() {
        let topo = Topology::poughkeepsie();
        let known = vec![
            (Edge::new(10, 15), Edge::new(11, 12)),
            (Edge::new(13, 14), Edge::new(18, 19)),
        ];
        let plan = CharacterizationPolicy::HighCrosstalkOnly { k_hops: 2, known_pairs: known }
            .experiments(&topo, 0);
        assert!(plan.len() <= 2);
        assert_eq!(plan.iter().map(|b| b.len()).sum::<usize>(), 2);
    }

    #[test]
    fn time_model_matches_paper_baseline() {
        // 221 experiments × 100 seqs × 1024 trials ≈ 8 hours.
        let tm = TimeModel::default();
        let hours = tm.hours(221, 100 * 1024);
        assert!((hours - 8.0).abs() < 0.1, "hours {hours}");
    }

    #[test]
    fn names_are_distinct() {
        let topoless = [
            CharacterizationPolicy::AllPairs.name(),
            CharacterizationPolicy::OneHop.name(),
            CharacterizationPolicy::OneHopBinPacked { k_hops: 2 }.name(),
            CharacterizationPolicy::HighCrosstalkOnly { k_hops: 2, known_pairs: vec![] }.name(),
        ];
        let mut uniq = topoless.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 4);
    }

    #[test]
    fn policy_names_round_trip() {
        for policy in PolicyName::ALL {
            assert_eq!(PolicyName::parse(policy.as_str()), Ok(policy));
            assert_eq!(policy.measured().is_none(), policy == PolicyName::Truth);
        }
        assert_eq!(PolicyName::parse("psychic"), Err("unknown policy `psychic`".to_string()));
    }
}

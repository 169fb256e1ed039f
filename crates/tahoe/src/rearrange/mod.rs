//! Forest rearrangement: the two tree-structure-aware optimizations of §4.
//!
//! - [`node_swap`] — probability-based node rearrangement (§4.1).
//! - [`tokenize`] → [`simhash`] → [`lsh`] → [`order`] — the similarity-based
//!   tree rearrangement pipeline (§4.2, Fig. 3).
//! - [`pairwise`] — the exact O(N²) baseline used for cost and quality
//!   comparisons (§4.2/§7.4).
//!
//! [`adaptive_plan`] combines both into the [`LayoutPlan`] consumed by the
//! adaptive forest format, and [`RearrangeReport`] records the per-stage CPU
//! cost for the paper's §7.4 overhead analysis.

pub mod lsh;
pub mod node_swap;
pub mod order;
pub mod pairwise;
pub mod sha1;
pub mod simhash;
pub mod tokenize;

use std::time::Instant;

use tahoe_forest::Forest;
use tahoe_gpu_sim::parallel::parallel_map;

use crate::format::LayoutPlan;

/// Parameters of the similarity pipeline (§7.1: `T_nodes = 4`,
/// `L_hash = 128`, `M = 64`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimilarityParams {
    /// Nodes per token.
    pub t_nodes: usize,
    /// SimHash checksum length in bits.
    pub l_hash: usize,
    /// LSH chunk count.
    pub m_chunks: usize,
    /// Whether tokens are weighted by node probability (ablation hook; the
    /// paper says the weight "is necessary", and the ablation bench
    /// quantifies it).
    pub weighted: bool,
}

impl Default for SimilarityParams {
    fn default() -> Self {
        Self {
            t_nodes: 4,
            l_hash: 128,
            m_chunks: 64,
            weighted: true,
        }
    }
}

/// Per-stage CPU cost of one rearrangement run (paper §7.4).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RearrangeReport {
    /// Node-swap planning time (§7.4 part 2, "rearranging nodes of trees").
    pub node_swap_ns: u64,
    /// Tokenize + SimHash time.
    pub simhash_ns: u64,
    /// LSH + ordering time (§7.4 part 3, "detecting similarity").
    pub lsh_ns: u64,
}

impl RearrangeReport {
    /// Total rearrangement time.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.node_swap_ns + self.simhash_ns + self.lsh_ns
    }
}

/// Computes the similarity-based tree order (§4.2).
#[must_use]
pub fn similarity_order(forest: &Forest, params: &SimilarityParams) -> Vec<usize> {
    similarity_order_timed(forest, params).0
}

/// As [`similarity_order`], also returning stage timings.
#[must_use]
pub fn similarity_order_timed(
    forest: &Forest,
    params: &SimilarityParams,
) -> (Vec<usize>, RearrangeReport) {
    let mut report = RearrangeReport::default();
    let t0 = Instant::now();
    let normalized: Vec<Vec<bool>> = parallel_map(forest.n_trees(), |t| {
        let mut tokens = tokenize::tokenize(&forest.trees()[t], params.t_nodes);
        if !params.weighted {
            for tok in &mut tokens {
                tok.weight = 1.0;
            }
        }
        simhash::normalize(&simhash::simhash(&tokens, params.l_hash))
    });
    report.simhash_ns = t0.elapsed().as_nanos() as u64;
    let t1 = Instant::now();
    let counts = lsh::count_collisions(&normalized, params.m_chunks);
    let order = order::order_by_similarity(&counts);
    report.lsh_ns = t1.elapsed().as_nanos() as u64;
    (order, report)
}

/// Builds the full adaptive layout plan: similarity tree order plus
/// probability child swaps (§4.3, "adaptive forest format").
#[must_use]
pub fn adaptive_plan(forest: &Forest, params: &SimilarityParams) -> LayoutPlan {
    adaptive_plan_timed(forest, params).0
}

/// As [`adaptive_plan`], also returning stage timings.
#[must_use]
pub fn adaptive_plan_timed(
    forest: &Forest,
    params: &SimilarityParams,
) -> (LayoutPlan, RearrangeReport) {
    let (tree_order, mut report) = similarity_order_timed(forest, params);
    let t0 = Instant::now();
    let swaps = node_swap::forest_swaps(forest);
    report.node_swap_ns = t0.elapsed().as_nanos() as u64;
    (LayoutPlan { tree_order, swaps }, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe_datasets::{DatasetSpec, Scale};
    use tahoe_forest::train_for_spec;

    fn trained(name: &str) -> Forest {
        let spec = DatasetSpec::by_name(name).unwrap();
        let data = spec.generate(Scale::Smoke);
        train_for_spec(&spec, &data, Scale::Smoke)
    }

    #[test]
    fn similarity_order_is_a_permutation() {
        let forest = trained("letter");
        let order = similarity_order(&forest, &SimilarityParams::default());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..forest.n_trees()).collect::<Vec<_>>());
    }

    #[test]
    fn similarity_order_is_deterministic() {
        let forest = trained("ijcnn1");
        let p = SimilarityParams::default();
        assert_eq!(similarity_order(&forest, &p), similarity_order(&forest, &p));
    }

    #[test]
    fn lsh_order_approaches_pairwise_quality() {
        // The LSH ordering must place similar trees adjacently at least half
        // as well as exact pairwise comparison — the paper's claim that LSH
        // gives "a correct order of trees based on their similarity".
        let forest = trained("letter");
        let p = SimilarityParams::default();
        let counts = pairwise::pairwise_counts(&forest, p.t_nodes);
        let exact = pairwise::pairwise_order(&forest, p.t_nodes);
        let approx = similarity_order(&forest, &p);
        let exact_score = pairwise::adjacency_score(&exact, &counts);
        let approx_score = pairwise::adjacency_score(&approx, &counts);
        let random_score = pairwise::adjacency_score(
            &(0..forest.n_trees()).collect::<Vec<_>>(),
            &counts,
        );
        assert!(
            approx_score >= random_score,
            "LSH order ({approx_score}) must beat index order ({random_score})"
        );
        assert!(
            approx_score >= 0.3 * exact_score,
            "LSH order ({approx_score}) too far below exact ({exact_score})"
        );
    }

    #[test]
    fn adaptive_plan_is_valid_for_its_forest() {
        let forest = trained("phishing");
        let plan = adaptive_plan(&forest, &SimilarityParams::default());
        plan.validate(&forest);
        // At least one swap is expected on real data (skewed probabilities).
        let any_swap = plan.swaps.iter().flatten().any(|&s| s);
        assert!(any_swap, "trained forests should have sub-0.5 left probs somewhere");
    }

    #[test]
    fn timing_report_is_populated() {
        let forest = trained("ijcnn1");
        let (_, report) = adaptive_plan_timed(&forest, &SimilarityParams::default());
        assert!(report.simhash_ns > 0);
        assert!(report.total_ns() >= report.simhash_ns);
    }
}

//! Edge-probability measurement (paper §2 and Algorithm 1 line 16).
//!
//! The tree builders already record training-time `left_prob` on every
//! decision node. This module *re-measures* edge probabilities by routing an
//! arbitrary dataset through the forest — used for the incremental-learning
//! path (recount after a forest update) and for the oracle-probability
//! ablation (count on the inference split instead of the training split).

use tahoe_datasets::SampleMatrix;

use crate::forest::Forest;
use crate::node::Node;
use crate::tree::Tree;

/// Incremental edge-visit counter for a fixed forest structure.
///
/// Algorithm 1 line 16 counts edge probabilities *during inference*; an
/// [`EdgeCounter`] accumulates observations across any number of batches and
/// can then re-annotate the forest. Counts are keyed by node id per tree, so
/// the forest's structure must not change between `observe` calls (a changed
/// forest needs a fresh counter).
#[derive(Clone, Debug)]
pub struct EdgeCounter {
    visits: Vec<Vec<u32>>,
    lefts: Vec<Vec<u32>>,
}

impl EdgeCounter {
    /// A zeroed counter shaped for `forest`.
    #[must_use]
    pub fn new(forest: &Forest) -> Self {
        Self {
            visits: forest.trees().iter().map(|t| vec![0; t.n_nodes()]).collect(),
            lefts: forest.trees().iter().map(|t| vec![0; t.n_nodes()]).collect(),
        }
    }

    /// Routes every sample through every tree, accumulating edge counts.
    ///
    /// # Panics
    ///
    /// Panics if the forest's shape does not match the counter.
    pub fn observe(&mut self, forest: &Forest, samples: &SampleMatrix) {
        assert_eq!(forest.n_trees(), self.visits.len(), "forest shape changed");
        for (t, tree) in forest.trees().iter().enumerate() {
            let visits = &mut self.visits[t];
            let lefts = &mut self.lefts[t];
            let nodes = tree.nodes();
            assert_eq!(nodes.len(), visits.len(), "tree {t} shape changed");
            for row in samples.rows() {
                let mut id = 0usize;
                // The routing rule of `Node::route`: a missing value takes
                // the default path.
                while let Node::Decision {
                    attribute,
                    threshold,
                    default_left,
                    left,
                    right,
                    ..
                } = nodes[id]
                {
                    let v = row[attribute as usize];
                    let go_left = if v.is_nan() { default_left } else { v < threshold };
                    visits[id] += 1;
                    lefts[id] += u32::from(go_left);
                    id = if go_left { left } else { right } as usize;
                }
            }
        }
    }

    /// Total observations at the root of tree 0 (≈ samples observed).
    #[must_use]
    pub fn observations(&self) -> u64 {
        self.visits
            .first()
            .and_then(|v| v.first())
            .map_or(0, |&v| u64::from(v))
    }

    /// Builds a forest with `left_prob` re-estimated from the counts.
    ///
    /// Unvisited decision nodes keep a neutral `0.5`; counts are
    /// Laplace-smoothed so a node visited once does not get a degenerate
    /// probability.
    ///
    /// # Panics
    ///
    /// Panics if the forest's shape does not match the counter.
    #[must_use]
    pub fn annotate(&self, forest: &Forest) -> Forest {
        assert_eq!(forest.n_trees(), self.visits.len(), "forest shape changed");
        let trees: Vec<Tree> = forest
            .trees()
            .iter()
            .enumerate()
            .map(|(t, tree)| {
                let visits = &self.visits[t];
                let lefts = &self.lefts[t];
                let nodes: Vec<Node> = tree
                    .nodes()
                    .iter()
                    .enumerate()
                    .map(|(i, n)| match *n {
                        Node::Leaf { value } => Node::Leaf { value },
                        Node::Decision {
                            attribute,
                            threshold,
                            default_left,
                            left,
                            right,
                            ..
                        } => {
                            let left_prob = if visits[i] == 0 {
                                0.5
                            } else {
                                (lefts[i] as f32 + 1.0) / (visits[i] as f32 + 2.0)
                            };
                            Node::Decision {
                                attribute,
                                threshold,
                                default_left,
                                left,
                                right,
                                left_prob,
                            }
                        }
                    })
                    .collect();
                Tree::new(nodes)
            })
            .collect();
        Forest::new(
            trees,
            forest.n_attributes(),
            forest.kind(),
            forest.task(),
            forest.base_score(),
        )
    }
}

/// Returns a forest whose `left_prob` values are re-estimated by routing
/// `samples` through every tree (one-shot convenience over [`EdgeCounter`]).
#[must_use]
pub fn annotate_edge_probabilities(forest: &Forest, samples: &SampleMatrix) -> Forest {
    let mut counter = EdgeCounter::new(forest);
    counter.observe(forest, samples);
    counter.annotate(forest)
}

/// Coefficient of variation of tree depths — a cheap structural-imbalance
/// indicator used in reports.
#[must_use]
pub fn depth_cv(forest: &Forest) -> f64 {
    let depths: Vec<f64> = forest.trees().iter().map(|t| t.depth() as f64).collect();
    let mean = depths.iter().sum::<f64>() / depths.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = depths.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / depths.len() as f64;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe_datasets::{ForestKind, Task};

    fn skewed_forest() -> Forest {
        // Root sends x<0 left; tree below only leaves.
        let tree = Tree::new(vec![
            Node::Decision {
                attribute: 0,
                threshold: 0.0,
                default_left: true,
                left: 1,
                right: 2,
                left_prob: 0.5,
            },
            Node::Leaf { value: 1.0 },
            Node::Leaf { value: 2.0 },
        ]);
        Forest::new(vec![tree], 1, ForestKind::Gbdt, Task::Regression, 0.0)
    }

    #[test]
    fn annotation_counts_left_fraction() {
        let f = skewed_forest();
        // 3 of 4 samples go left.
        let m = SampleMatrix::from_vec(4, 1, vec![-1.0, -2.0, -3.0, 5.0]);
        let annotated = annotate_edge_probabilities(&f, &m);
        match annotated.trees()[0].node(0) {
            Node::Decision { left_prob, .. } => {
                // Laplace smoothed: (3+1)/(4+2).
                assert!((left_prob - 4.0 / 6.0).abs() < 1e-6);
            }
            Node::Leaf { .. } => panic!("root is a decision node"),
        }
    }

    #[test]
    fn unvisited_nodes_get_half() {
        let f = skewed_forest();
        let m = SampleMatrix::from_vec(0, 1, vec![]);
        let annotated = annotate_edge_probabilities(&f, &m);
        match annotated.trees()[0].node(0) {
            Node::Decision { left_prob, .. } => assert!((left_prob - 0.5).abs() < 1e-6),
            Node::Leaf { .. } => panic!("root is a decision node"),
        }
    }

    #[test]
    fn annotation_preserves_predictions() {
        let f = skewed_forest();
        let m = SampleMatrix::from_vec(4, 1, vec![-1.0, -2.0, -3.0, 5.0]);
        let annotated = annotate_edge_probabilities(&f, &m);
        for i in 0..m.n_samples() {
            assert_eq!(
                crate::predict::predict_sample(&f, m.row(i)),
                crate::predict::predict_sample(&annotated, m.row(i)),
            );
        }
    }

    #[test]
    fn edge_counter_accumulates_across_batches() {
        let f = skewed_forest();
        let batch1 = SampleMatrix::from_vec(2, 1, vec![-1.0, -2.0]);
        let batch2 = SampleMatrix::from_vec(2, 1, vec![-3.0, 5.0]);
        let mut counter = EdgeCounter::new(&f);
        counter.observe(&f, &batch1);
        counter.observe(&f, &batch2);
        assert_eq!(counter.observations(), 4);
        let annotated = counter.annotate(&f);
        match annotated.trees()[0].node(0) {
            Node::Decision { left_prob, .. } => {
                assert!((left_prob - 4.0 / 6.0).abs() < 1e-6);
            }
            Node::Leaf { .. } => panic!("root is a decision node"),
        }
    }

    #[test]
    #[should_panic(expected = "forest shape changed")]
    fn edge_counter_rejects_mismatched_forest() {
        let f = skewed_forest();
        let counter = EdgeCounter::new(&f);
        let bigger = Forest::new(
            vec![f.trees()[0].clone(), f.trees()[0].clone()],
            1,
            ForestKind::Gbdt,
            Task::Regression,
            0.0,
        );
        let _ = counter.annotate(&bigger);
    }

    #[test]
    fn observe_matches_counts_rebuilt_from_prediction_paths() {
        use tahoe_datasets::{DatasetSpec, Scale};
        // allstate trains with missing values, so both defaults occur.
        let spec = DatasetSpec::by_name("allstate").unwrap();
        let data = spec.generate(Scale::Smoke);
        let (train, infer) = data.split_train_infer();
        let forest = crate::train_for_spec(&spec, &train, Scale::Smoke);
        // Blank, in every third sample, one attribute tested by a
        // default-left node and one tested by a default-right node.
        let decisions = || {
            forest.trees().iter().flat_map(Tree::nodes).filter_map(|n| match *n {
                Node::Decision { attribute, default_left, .. } => Some((attribute, default_left)),
                Node::Leaf { .. } => None,
            })
        };
        let nan_attrs: Vec<u32> = [true, false]
            .iter()
            .map(|&dl| decisions().find(|&(_, d)| d == dl).expect("both defaults occur").0)
            .collect();
        let mut samples = infer.samples;
        for i in (0..samples.n_samples()).step_by(3) {
            for &a in &nan_attrs {
                samples.row_mut(i)[a as usize] = f32::NAN;
            }
        }

        let mut counter = EdgeCounter::new(&forest);
        counter.observe(&forest, &samples);

        let mut visits: Vec<Vec<u32>> =
            forest.trees().iter().map(|t| vec![0; t.n_nodes()]).collect();
        let mut lefts = visits.clone();
        // Missing values routed at default-left and default-right nodes.
        let mut nan_routes = [0u32; 2];
        for (t, tree) in forest.trees().iter().enumerate() {
            for row in samples.rows() {
                for step in tree.predict_path(row).windows(2) {
                    let Node::Decision { attribute, default_left, left, .. } = *tree.node(step[0])
                    else {
                        unreachable!("a path only steps out of decision nodes");
                    };
                    if row[attribute as usize].is_nan() {
                        nan_routes[usize::from(default_left)] += 1;
                    }
                    visits[t][step[0] as usize] += 1;
                    lefts[t][step[0] as usize] += u32::from(step[1] == left);
                }
            }
        }
        assert!(nan_routes.iter().all(|&n| n > 0), "NaNs reach both defaults: {nan_routes:?}");
        assert_eq!(counter.visits, visits);
        assert_eq!(counter.lefts, lefts);
    }

    #[test]
    fn depth_cv_zero_for_identical_trees() {
        let f = skewed_forest();
        assert!(depth_cv(&f).abs() < 1e-12);
    }
}

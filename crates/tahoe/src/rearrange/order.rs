//! Similarity-driven tree ordering (paper §4.2, "Map trees into groups and
//! sort").
//!
//! The paper places tree `A` next to tree `B` when their collision count is
//! the largest among `A`'s counts (Fig. 3: order `T2 T3 T1` because `T2&T3`
//! collide most, then `T1&T3`). We implement that as a greedy chain: start
//! from the globally most-similar pair, then repeatedly append the unplaced
//! tree most similar to the chain's tail; when the tail has no similar
//! unplaced tree, restart from the most similar remaining pair (or any
//! remaining tree). Ties break toward lower indices for determinism.

use std::cmp::Reverse;

use super::lsh::CollisionCounts;

/// Produces a tree order (layout position → original index) over the trees
/// `counts` covers.
#[must_use]
pub fn order_by_similarity(counts: &CollisionCounts) -> Vec<usize> {
    let n_trees = counts.n_trees();
    let mut placed = vec![false; n_trees];
    let mut order = Vec::with_capacity(n_trees);
    // Ranked pair list: highest count first, then lexicographic — the
    // triangle walk yields pairs in ascending order and the sort is stable.
    // u32 ids halve the entries the sort moves (all ~80k pairs of a
    // 400-tree forest collide at 2-bit chunks).
    let mut pairs: Vec<(u32, u32, u32)> =
        counts.pairs().map(|(c, a, b)| (c, a as u32, b as u32)).collect();
    pairs.sort_by_key(|&(c, ..)| Reverse(c));
    let mut pair_cursor = 0usize;
    while order.len() < n_trees {
        // Start (or restart) the chain from the best unplaced pair.
        let mut tail: Option<usize> = None;
        while pair_cursor < pairs.len() {
            let (_, a, b) = pairs[pair_cursor];
            let (a, b) = (a as usize, b as usize);
            if !placed[a] && !placed[b] {
                placed[a] = true;
                placed[b] = true;
                order.push(a);
                order.push(b);
                tail = Some(b);
                break;
            }
            pair_cursor += 1;
        }
        let Some(mut tail) = tail else {
            // No collision pairs left; append remaining trees in index order.
            for (t, p) in placed.iter_mut().enumerate() {
                if !*p {
                    *p = true;
                    order.push(t);
                }
            }
            break;
        };
        // Extend the chain while the tail has similar unplaced trees.
        loop {
            // Only a strictly higher count displaces the best, so ties keep
            // the lowest index.
            let mut best: Option<(u32, usize)> = None;
            for (t, _) in placed.iter().enumerate().filter(|&(_, &p)| !p) {
                let c = counts.pair_count(tail, t);
                if c > 0 && best.is_none_or(|(bc, _)| c > bc) {
                    best = Some((c, t));
                }
            }
            match best {
                Some((_, t)) => {
                    placed[t] = true;
                    order.push(t);
                    tail = t;
                }
                None => break,
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(n_trees: usize, pairs: &[((usize, usize), u32)]) -> CollisionCounts {
        let mut counts = CollisionCounts::new(n_trees);
        for &((a, b), c) in pairs {
            counts.add(a, b, c);
        }
        counts
    }

    #[test]
    fn fig3_example_order() {
        // Paper Fig. 3: collisions T1&T2 = 0, T2&T3 = 2, T1&T3 = 1
        // → order T2, T3, T1 (indices 1, 2, 0).
        let c = counts(3, &[((0, 1), 0), ((1, 2), 2), ((0, 2), 1)]);
        assert_eq!(order_by_similarity(&c), vec![1, 2, 0]);
    }

    #[test]
    fn order_is_a_permutation() {
        let c = counts(7, &[((0, 3), 5), ((1, 2), 4), ((4, 5), 1)]);
        let order = order_by_similarity(&c);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn chain_follows_similarity() {
        // 0-1 strongest, then 1-2, then 2-3.
        let c = counts(4, &[((0, 1), 9), ((1, 2), 5), ((2, 3), 3)]);
        assert_eq!(order_by_similarity(&c), vec![0, 1, 2, 3]);
    }

    #[test]
    fn no_collisions_preserves_index_order() {
        assert_eq!(order_by_similarity(&CollisionCounts::new(4)), vec![0, 1, 2, 3]);
    }

    #[test]
    fn disjoint_groups_form_separate_chains() {
        let c = counts(4, &[((2, 3), 9), ((0, 1), 8)]);
        let order = order_by_similarity(&c);
        assert_eq!(order, vec![2, 3, 0, 1]);
    }

    #[test]
    fn equal_counts_break_toward_lower_pairs() {
        // All three pairs tie: the chain starts from (0, 1), the lowest
        // pair, then extends 1 → 2 → 3.
        let c = counts(4, &[((2, 3), 2), ((1, 2), 2), ((0, 1), 2)]);
        assert_eq!(order_by_similarity(&c), vec![0, 1, 2, 3]);
        // Ties while extending pick the lowest-indexed tree.
        let c = counts(4, &[((0, 1), 3), ((1, 3), 1), ((1, 2), 1)]);
        assert_eq!(order_by_similarity(&c), vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_input() {
        assert!(order_by_similarity(&CollisionCounts::new(0)).is_empty());
    }

    #[test]
    fn determinism() {
        let c = counts(4, &[((0, 1), 2), ((2, 3), 2), ((1, 2), 2)]);
        let a = order_by_similarity(&c);
        let b = order_by_similarity(&c);
        assert_eq!(a, b);
    }
}

//! Locality-sensitive hashing over normalized checksums (paper §4.2,
//! "Applying LSH").
//!
//! Each normalized checksum is divided into `M` chunks; each chunk is hashed
//! with a Rabin–Karp polynomial hash into a bucket. Two trees whose chunks
//! collide are counted as similar once per colliding chunk; the collision
//! counts drive the tree ordering.
//!
//! With the paper's `L_hash = 128` and `M = 64` every chunk is 2 bits, so a
//! chunk has at most 4 buckets and nearly every pair of trees collides
//! somewhere: counting is O(N² · M), not O(N · M). The counts therefore live
//! in a dense upper triangle rather than a map keyed by pair.

/// Rabin–Karp polynomial hash of a bit chunk.
///
/// Uses a 64-bit rolling polynomial with a large odd base — collisions
/// between *different* chunks are negligible at these chunk lengths, so a
/// bucket collision means chunk equality, exactly what the similarity count
/// wants.
#[must_use]
pub fn rabin_karp(bits: &[bool]) -> u64 {
    const BASE: u64 = 1_000_003;
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bits {
        h = h.wrapping_mul(BASE).wrapping_add(u64::from(b) + 1);
    }
    h
}

/// Pairwise similarity counts over `n` trees, stored densely as the strict
/// upper triangle of the `n × n` count matrix (row `a` holds the pairs
/// `(a, a + 1) .. (a, n - 1)`). Pairs never counted read as zero.
#[derive(Clone, Debug)]
pub struct CollisionCounts {
    n_trees: usize,
    triangle: Vec<u32>,
}

impl CollisionCounts {
    /// All-zero counts over `n_trees` trees.
    #[must_use]
    pub(crate) fn new(n_trees: usize) -> Self {
        Self {
            n_trees,
            triangle: vec![0; n_trees * n_trees.saturating_sub(1) / 2],
        }
    }

    /// Number of trees the counts cover.
    #[must_use]
    pub fn n_trees(&self) -> usize {
        self.n_trees
    }

    /// Offset of row `a` in the triangle; pair `(a, b)`, `a < b`, lives at
    /// `row_start(a) + b - a - 1`.
    fn row_start(&self, a: usize) -> usize {
        a * (2 * self.n_trees - a - 1) / 2
    }

    /// Slot of the unordered pair `{a, b}`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either tree is out of range.
    fn slot(&self, a: usize, b: usize) -> usize {
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        assert!(a < b && b < self.n_trees, "pair ({a}, {b}) out of range");
        self.row_start(a) + b - a - 1
    }

    /// Count for an unordered pair (zero for a tree paired with itself).
    ///
    /// # Panics
    ///
    /// Panics if either tree is out of range.
    #[must_use]
    pub fn pair_count(&self, a: usize, b: usize) -> u32 {
        if a == b {
            assert!(a < self.n_trees, "tree {a} out of range");
            return 0;
        }
        self.triangle[self.slot(a, b)]
    }

    /// Adds `count` to an unordered pair.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either tree is out of range.
    pub(crate) fn add(&mut self, a: usize, b: usize, count: u32) {
        let slot = self.slot(a, b);
        self.triangle[slot] += count;
    }

    /// Every pair with a non-zero count as `(count, a, b)`, `a < b`, in
    /// ascending `(a, b)` order.
    pub fn pairs(&self) -> impl Iterator<Item = (u32, usize, usize)> + '_ {
        (0..self.n_trees).flat_map(move |a| {
            let row = &self.triangle[self.row_start(a)..][..self.n_trees - a - 1];
            row.iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(move |(i, &c)| (c, a, a + 1 + i))
        })
    }
}

/// Counts chunk collisions between all trees.
///
/// Each chunk groups the trees by sorting `(chunk hash, tree)`; every pair
/// inside a group of equal hashes gains one collision.
///
/// # Panics
///
/// Panics if checksums have differing lengths or `m_chunks` is zero.
#[must_use]
pub fn count_collisions(normalized: &[Vec<bool>], m_chunks: usize) -> CollisionCounts {
    assert!(m_chunks > 0, "need at least one chunk");
    let mut counts = CollisionCounts::new(normalized.len());
    if normalized.is_empty() {
        return counts;
    }
    let l = normalized[0].len();
    for c in normalized {
        assert_eq!(c.len(), l, "checksum lengths differ");
    }
    let chunk_len = (l / m_chunks).max(1);
    let n_chunks = l / chunk_len;
    let mut keyed: Vec<(u64, usize)> = Vec::with_capacity(normalized.len());
    for chunk_idx in 0..n_chunks {
        let start = chunk_idx * chunk_len;
        let end = start + chunk_len;
        keyed.clear();
        keyed.extend(
            normalized
                .iter()
                .enumerate()
                .map(|(tree, checksum)| (rabin_karp(&checksum[start..end]), tree)),
        );
        keyed.sort_unstable();
        // Within a bucket the trees ascend, so each member's later
        // partners are a strictly increasing run of its triangle row.
        for bucket in keyed.chunk_by(|x, y| x.0 == y.0) {
            for (i, &(_, a)) in bucket.iter().enumerate() {
                let row = counts.row_start(a);
                for &(_, b) in &bucket[i + 1..] {
                    counts.triangle[row + b - a - 1] += 1;
                }
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rabin_karp_distinguishes_order_and_length() {
        assert_ne!(rabin_karp(&[true, false]), rabin_karp(&[false, true]));
        assert_ne!(rabin_karp(&[true]), rabin_karp(&[true, true]));
        assert_eq!(rabin_karp(&[true, false]), rabin_karp(&[true, false]));
    }

    #[test]
    fn identical_checksums_collide_in_every_chunk() {
        let c = vec![vec![true; 16], vec![true; 16]];
        let counts = count_collisions(&c, 4);
        assert_eq!(counts.pair_count(0, 1), 4);
    }

    #[test]
    fn disjoint_checksums_do_not_collide() {
        let c = vec![vec![true; 16], vec![false; 16]];
        let counts = count_collisions(&c, 4);
        assert_eq!(counts.pair_count(0, 1), 0);
    }

    #[test]
    fn partial_similarity_counts_matching_chunks() {
        // First half equal, second half different → 2 of 4 chunks collide.
        let mut a = vec![true; 16];
        let b = a.clone();
        a[8..].iter_mut().for_each(|v| *v = false);
        let counts = count_collisions(&[a, b], 4);
        assert_eq!(counts.pair_count(0, 1), 2);
    }

    #[test]
    fn more_similar_pairs_count_higher() {
        let base = vec![true; 32];
        let mut near = base.clone();
        near[0] = false; // One chunk disturbed.
        let mut far = base.clone();
        for (i, v) in far.iter_mut().enumerate() {
            *v = i % 2 == 0;
        }
        let counts = count_collisions(&[base, near, far], 8);
        assert!(counts.pair_count(0, 1) > counts.pair_count(0, 2));
    }

    #[test]
    fn pair_count_is_symmetric() {
        let c = vec![vec![true; 8], vec![true; 8]];
        let counts = count_collisions(&c, 2);
        assert_eq!(counts.pair_count(0, 1), counts.pair_count(1, 0));
        assert_eq!(counts.pair_count(1, 1), 0);
    }

    #[test]
    fn empty_input_is_empty() {
        let counts = count_collisions(&[], 4);
        assert_eq!(counts.n_trees(), 0);
        assert_eq!(counts.pairs().count(), 0);
    }

    #[test]
    fn pairs_walk_the_triangle_in_pair_order() {
        let mut counts = CollisionCounts::new(4);
        counts.add(2, 3, 1);
        counts.add(1, 0, 5);
        counts.add(0, 3, 2);
        counts.add(0, 3, 2);
        let pairs: Vec<_> = counts.pairs().collect();
        assert_eq!(pairs, vec![(5, 0, 1), (4, 0, 3), (1, 2, 3)]);
    }

    /// Pair-by-pair reference: one collision per chunk whose hashes agree.
    fn naive_counts(normalized: &[Vec<bool>], m_chunks: usize) -> Vec<(u32, usize, usize)> {
        let l = normalized[0].len();
        let chunk_len = (l / m_chunks).max(1);
        let mut out = Vec::new();
        for a in 0..normalized.len() {
            for b in a + 1..normalized.len() {
                let c = (0..l / chunk_len)
                    .filter(|&k| {
                        let r = k * chunk_len..(k + 1) * chunk_len;
                        rabin_karp(&normalized[a][r.clone()]) == rabin_karp(&normalized[b][r])
                    })
                    .count() as u32;
                if c > 0 {
                    out.push((c, a, b));
                }
            }
        }
        out
    }

    #[test]
    fn matches_naive_pairwise_reference() {
        // (l, m_chunks) → chunk lengths 1, 2, 3 and 8, plus 20 bits over 6
        // chunks (3-bit chunks, 2 trailing bits never hashed) and more
        // chunks than bits.
        let shapes = [(16, 16), (128, 64), (24, 8), (64, 8), (20, 6), (5, 9)];
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for (l, m_chunks) in shapes {
            // Noisy copies of a few prototypes, so long chunks still collide.
            let prototypes: Vec<Vec<bool>> =
                (0..3).map(|_| (0..l).map(|_| rng.gen::<bool>()).collect()).collect();
            let normalized: Vec<Vec<bool>> = (0..37)
                .map(|_| {
                    let p = &prototypes[rng.gen_range(0..prototypes.len())];
                    p.iter().map(|&bit| bit ^ rng.gen_bool(0.1)).collect()
                })
                .collect();
            let counts = count_collisions(&normalized, m_chunks);
            assert_eq!(counts.n_trees(), normalized.len());
            let got: Vec<_> = counts.pairs().collect();
            assert_eq!(got, naive_counts(&normalized, m_chunks), "l={l} m={m_chunks}");
        }
    }
}

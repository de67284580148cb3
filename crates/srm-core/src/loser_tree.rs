//! Tree of losers for `R`-way internal merging.
//!
//! The paper delegates internal merge processing to the classic selection
//! tree of Knuth §5.4.1: `R` leaves, each holding the current key of one
//! run; the root identifies the smallest in `O(1)`, and replacing the
//! winner's key costs one leaf-to-root replay, `O(log R)` comparisons.
//!
//! Layout: leaf `i` sits at heap position `R + i`, so internal node `n`
//! (for `1 ≤ n < R`) has children `2n` and `2n + 1` and leaf `i`'s path
//! runs through `(R + i) / 2, (R + i) / 4, …, 1`.  Each internal node
//! stores the *loser* of its match as an inline `(key, leaf)` pair, and
//! slot 0 caches the overall winner.  Replaying after the winner's key
//! changes therefore touches only the winner's path and never its
//! siblings' subtrees: at each level the travelling candidate meets the
//! stored loser, the smaller `(key, leaf)` travels on and the larger stays
//! — one branch-free select per level.
//!
//! Leaves compare by `(key, leaf index)`: equal keys go to the lower
//! leaf, so equal keys resolve deterministically and the merge is stable.
//! Exhausted runs are parked at [`u64::MAX`]; the tie rule keeps the tree
//! well-defined when several runs are exhausted.

use std::hint::select_unpredictable;

/// One match result: a leaf and the key it entered with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    key: u64,
    leaf: usize,
}

impl Entry {
    /// Placeholder for slots the build overwrites.
    const PARKED: Entry = Entry {
        key: u64::MAX,
        leaf: 0,
    };

    /// `true` when `self` beats `other`: smaller key, lower leaf on ties.
    #[inline(always)]
    fn beats(self, other: Entry) -> bool {
        (self.key < other.key) | ((self.key == other.key) & (self.leaf < other.leaf))
    }
}

/// A tree of losers over `k` leaves with `u64` keys.
#[derive(Debug, Clone)]
pub struct LoserTree {
    k: usize,
    /// `nodes[0]` is the overall winner; `nodes[n]` for `1 ≤ n < k` is the
    /// loser of the match at internal node `n`.
    nodes: Vec<Entry>,
}

impl LoserTree {
    /// Build a tree over the given initial keys (one per run).
    ///
    /// # Panics
    /// Panics if `keys` is empty.
    pub fn new(keys: Vec<u64>) -> Self {
        let k = keys.len();
        assert!(k > 0, "tournament tree needs at least one leaf");
        let mut tree = LoserTree {
            k,
            nodes: vec![Entry::PARKED; k],
        };
        tree.build(&keys);
        tree
    }

    /// Play every match bottom-up: `O(k)`.
    fn build(&mut self, keys: &[u64]) {
        let k = self.k;
        // Winners of the internal matches, needed only while building.
        let mut winners = vec![Entry::PARKED; k];
        let at = |winners: &[Entry], pos: usize| {
            if pos >= k {
                Entry {
                    key: keys[pos - k],
                    leaf: pos - k,
                }
            } else {
                winners[pos]
            }
        };
        for n in (1..k).rev() {
            let (a, b) = (at(&winners, 2 * n), at(&winners, 2 * n + 1));
            let (win, lose) = if b.beats(a) { (b, a) } else { (a, b) };
            winners[n] = win;
            self.nodes[n] = lose;
        }
        // Position 1 is the root match, or the only leaf when k == 1.
        self.nodes[0] = at(&winners, 1);
    }

    /// Current overall winner: `(leaf, key)`.
    #[inline]
    pub fn peek(&self) -> (usize, u64) {
        let w = self.nodes[0];
        (w.leaf, w.key)
    }

    /// The key currently registered at `leaf`.  `O(k)`: meant for
    /// assertions, not for the merge loop.
    pub fn key_of(&self, leaf: usize) -> u64 {
        self.nodes
            .iter()
            .find(|e| e.leaf == leaf)
            .map_or(u64::MAX, |e| e.key)
    }

    /// Replace the current winner's key and replay its path to the root.
    /// The key may move in either direction.
    #[inline]
    pub fn replace_top(&mut self, key: u64) {
        let leaf = self.nodes[0].leaf;
        let mut win = Entry { key, leaf };
        let mut n = (self.k + leaf) / 2;
        while n > 0 {
            let lose = self.nodes[n];
            // The outcome of each match is data-dependent and ~50/50, so
            // ask for conditional moves rather than a mispredicted branch.
            let swap = lose.beats(win);
            self.nodes[n] = select_unpredictable(swap, win, lose);
            win = select_unpredictable(swap, lose, win);
            n /= 2;
        }
        self.nodes[0] = win;
    }

    /// Replace `leaf`'s key.  Correct for any leaf and either direction:
    /// the winner replays its path in `O(log k)`; any other leaf rebuilds
    /// the tree in `O(k)`, since a loser's change can reorder matches off
    /// its own path.
    pub fn update(&mut self, leaf: usize, key: u64) {
        debug_assert!(leaf < self.k);
        if leaf == self.nodes[0].leaf {
            self.replace_top(key);
            return;
        }
        // Every leaf appears exactly once: the winner in slot 0 and each
        // other leaf as the loser of exactly one internal match.
        let mut keys = vec![0; self.k];
        for e in &self.nodes {
            keys[e.leaf] = e.key;
        }
        keys[leaf] = key;
        self.build(&keys);
    }

    /// True when every leaf is parked at `u64::MAX` (all runs exhausted).
    #[inline]
    pub fn all_exhausted(&self) -> bool {
        self.nodes[0].key == u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn single_leaf() {
        let mut t = LoserTree::new(vec![42]);
        assert_eq!(t.peek(), (0, 42));
        t.replace_top(7);
        assert_eq!(t.peek(), (0, 7));
        t.update(0, u64::MAX);
        assert!(t.all_exhausted());
    }

    #[test]
    fn winner_is_global_min_after_build() {
        let t = LoserTree::new(vec![5, 3, 9, 1, 7]);
        assert_eq!(t.peek(), (3, 1));
    }

    #[test]
    fn ties_resolve_to_lowest_leaf() {
        let t = LoserTree::new(vec![4, 2, 2, 8]);
        assert_eq!(t.peek(), (1, 2));
    }

    /// Full k-way merge through the tree equals a plain sort, across many
    /// random shapes (including k = 2, odd k, and k not a power of two).
    #[test]
    fn merging_matches_sort() {
        let mut rng = SmallRng::seed_from_u64(123);
        for &k in &[1usize, 2, 3, 5, 8, 13, 31] {
            let runs: Vec<Vec<u64>> = (0..k)
                .map(|_| {
                    let len = rng.random_range(0..40);
                    let mut v: Vec<u64> = (0..len).map(|_| rng.random_range(0..500)).collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            let mut expected: Vec<u64> = runs.iter().flatten().copied().collect();
            expected.sort_unstable();

            let mut cursors = vec![0usize; k];
            let initial: Vec<u64> = runs
                .iter()
                .map(|r| r.first().copied().unwrap_or(u64::MAX))
                .collect();
            let mut tree = LoserTree::new(initial);
            let mut out = Vec::with_capacity(expected.len());
            while !tree.all_exhausted() {
                let (leaf, key) = tree.peek();
                out.push(key);
                cursors[leaf] += 1;
                let next = runs[leaf].get(cursors[leaf]).copied().unwrap_or(u64::MAX);
                tree.replace_top(next);
            }
            assert_eq!(out, expected, "k = {k}");
            for (i, r) in runs.iter().enumerate() {
                assert_eq!(cursors[i], r.len());
            }
        }
    }

    /// Non-winner leaves must be updatable in both directions.
    #[test]
    fn arbitrary_leaf_updates() {
        let mut t = LoserTree::new(vec![u64::MAX; 5]);
        // Fill in arbitrary order, peeking as we go.
        t.update(3, 30);
        assert_eq!(t.peek(), (3, 30));
        t.update(1, 50);
        assert_eq!(t.peek(), (3, 30));
        t.update(1, 10); // lower a loser below the winner
        assert_eq!(t.peek(), (1, 10));
        t.update(3, 5); // lower a loser below again
        assert_eq!(t.peek(), (3, 5));
        t.update(3, 60); // raise the winner
        assert_eq!(t.peek(), (1, 10));
        t.update(0, 10); // tie: lower leaf wins
        assert_eq!(t.peek(), (0, 10));
    }

    #[test]
    fn repeated_equal_keys() {
        let mut t = LoserTree::new(vec![1, 1, 1]);
        assert_eq!(t.peek().0, 0);
        t.replace_top(1);
        assert_eq!(t.peek().0, 0);
        t.replace_top(2);
        assert_eq!(t.peek().0, 1);
        t.replace_top(2);
        assert_eq!(t.peek().0, 2);
        t.replace_top(2);
        assert_eq!(t.peek(), (0, 2));
    }

    mod properties {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        /// Key pool for the property: a handful of small values (so
        /// duplicates are common) plus the exhaustion sentinel.
        fn pool_key(pick: u8) -> u64 {
            match pick % 6 {
                5 => u64::MAX,
                v => u64::from(v),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// After every `replace_top` and every non-winner `update`,
            /// the tree's winner equals a `BinaryHeap` reference over the
            /// same `(key, leaf)` pairs — ties to the lower leaf included —
            /// and every leaf still reads back its own key.
            #[test]
            fn winner_matches_binary_heap(
                k_pick in 0usize..7,
                init in vec(any::<u8>(), 31..32),
                ops in vec((any::<bool>(), any::<u8>(), any::<u8>()), 0..200),
            ) {
                let k = [1usize, 2, 3, 5, 16, 17, 31][k_pick];
                let mut keys: Vec<u64> = init[..k].iter().map(|&p| pool_key(p)).collect();
                let mut tree = LoserTree::new(keys.clone());
                let reference = |keys: &[u64]| {
                    let heap: BinaryHeap<Reverse<(u64, usize)>> =
                        keys.iter().enumerate().map(|(i, &v)| Reverse((v, i))).collect();
                    let Reverse((key, leaf)) = heap.peek().copied().unwrap();
                    (leaf, key)
                };
                prop_assert_eq!(tree.peek(), reference(&keys));
                for (top, leaf_pick, key_pick) in ops {
                    let key = pool_key(key_pick);
                    let winner = tree.peek().0;
                    if top || k == 1 {
                        keys[winner] = key;
                        tree.replace_top(key);
                    } else {
                        // A leaf other than the winner.
                        let leaf = (winner + 1 + leaf_pick as usize % (k - 1)) % k;
                        keys[leaf] = key;
                        tree.update(leaf, key);
                    }
                    prop_assert_eq!(tree.peek(), reference(&keys));
                    for (leaf, &key) in keys.iter().enumerate() {
                        prop_assert_eq!(tree.key_of(leaf), key);
                    }
                }
            }
        }
    }
}

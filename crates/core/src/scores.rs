//! Sparse single-source SimRank result vectors.

use prsim_graph::NodeId;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// The ranking order of [`SimRankScores::top_k`]: descending score,
/// then ascending node id. Scores compare with `partial_cmp`, so `-0.0`
/// and `0.0` tie (and fall through to the node id).
fn rank_cmp(a: &(NodeId, f64), b: &(NodeId, f64)) -> Ordering {
    b.1.partial_cmp(&a.1)
        .unwrap_or(Ordering::Equal)
        .then(a.0.cmp(&b.0))
}

/// The `k` best of `entries` by [`rank_cmp`], `source` excluded, in
/// ranking order: the selection behind [`SimRankScores::top_k`] and the
/// engine's served top-k, which scans its accumulator in touched order.
/// The result does not depend on the input order (the ranking is a
/// total order on NaN-free scores, since node ids are unique). `len`
/// bounds the number of entries, so the heap allocates at most
/// `min(k, len)` slots.
pub(crate) fn select_top_k(
    entries: impl Iterator<Item = (NodeId, f64)>,
    len: usize,
    k: usize,
    source: NodeId,
) -> Vec<(NodeId, f64)> {
    let mut heap = BinaryHeap::with_capacity(k.min(len));
    // Score of the worst kept entry once `k` are kept: an entry scoring
    // strictly below it ranks after it, so one float compare rejects
    // the bulk of the entries.
    let mut floor = f64::NEG_INFINITY;
    for (v, s) in entries {
        if s < floor || v == source {
            continue;
        }
        let entry = Ranked((v, s));
        if heap.len() < k {
            heap.push(entry);
        } else if let Some(mut worst) = heap.peek_mut() {
            if entry < *worst {
                *worst = entry;
            }
        }
        if heap.len() == k {
            floor = heap.peek().map_or(floor, |worst| worst.0 .1);
        }
    }
    heap.into_sorted_vec()
        .into_iter()
        .map(|Ranked(e)| e)
        .collect()
}

/// A served single-source answer: the best entries of a score vector
/// and its size, without the vector itself
/// ([`crate::Prsim::try_single_source_top_k_with_workspace`]).
#[derive(Clone, Debug, PartialEq)]
pub struct TopEntries {
    /// The best entries, ranked as [`SimRankScores::top_k`] ranks them:
    /// descending score, ties by ascending node id, source excluded.
    pub top: Vec<(NodeId, f64)>,
    /// Entries the full score vector stores, the source included
    /// ([`SimRankScores::len`]).
    pub len: usize,
}

/// A `(v, score)` entry ordered by [`rank_cmp`]: the better-ranked
/// entry is the *smaller* one, so a max-heap of them keeps the worst
/// selected entry on top, ready to be displaced.
#[derive(Clone, Copy, Debug)]
struct Ranked((NodeId, f64));

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        rank_cmp(&self.0, &other.0)
    }
}

/// Result of a single-source SimRank query: sparse scores `ŝ(u, ·)`.
///
/// Only nodes with non-zero estimates are stored; `get` returns 0.0 for
/// the rest, matching the semantics of all algorithms in the suite (they
/// return "all non-zero estimates", paper Algorithm 4 line 19).
///
/// Internally an id-sorted `Vec<(NodeId, f64)>`: the query engine
/// produces its entries already sorted from dense scratch, so
/// construction is one `memcpy`-shaped pass (no hashing), `get` is a
/// binary search, and iteration is a cache-friendly slice walk. The
/// mutating [`SimRankScores::add`] / [`SimRankScores::set`] keep working
/// (binary search + ordered insert) but are `O(len)` worst case — they
/// exist for tests and small fix-ups, not for bulk assembly; bulk callers
/// use [`SimRankScores::from_map`] or [`SimRankScores::from_pairs`].
#[derive(Clone, Debug)]
pub struct SimRankScores {
    source: NodeId,
    n: usize,
    /// `(v, ŝ(u,v))` sorted by `v`, unique, always containing the source.
    entries: Vec<(NodeId, f64)>,
}

impl SimRankScores {
    /// Creates a score vector for `source` over a graph with `n` nodes;
    /// `s(u,u) = 1` is inserted automatically.
    pub fn new(source: NodeId, n: usize) -> Self {
        SimRankScores {
            source,
            n,
            entries: vec![(source, 1.0)],
        }
    }

    /// Creates a score vector from raw parts (used by the baselines).
    pub fn from_map(source: NodeId, n: usize, scores: HashMap<NodeId, f64>) -> Self {
        let mut entries: Vec<(NodeId, f64)> = scores.into_iter().collect();
        entries.sort_unstable_by_key(|&(v, _)| v);
        let mut out = SimRankScores { source, n, entries };
        out.upsert_source();
        out
    }

    /// Bulk constructor from an iterator of `(v, ŝ(u,v))` pairs with a
    /// known entry count — one sized allocation. Already-sorted unique
    /// input (what the query engine's dense scratch produces) is taken
    /// as-is; anything else is sorted, with later duplicates overwriting
    /// earlier ones. `s(u,u) = 1` is enforced last.
    pub fn from_pairs<I>(source: NodeId, n: usize, count: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, f64)>,
    {
        let mut entries: Vec<(NodeId, f64)> = Vec::with_capacity(count + 1);
        entries.extend(pairs);
        if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
            // Stable sort keeps duplicate keys in insertion order, so
            // "previous keeps the last value" below overwrites correctly.
            entries.sort_by_key(|&(v, _)| v);
            entries.dedup_by(|cur, prev| {
                if cur.0 == prev.0 {
                    prev.1 = cur.1;
                    true
                } else {
                    false
                }
            });
        }
        let mut out = SimRankScores { source, n, entries };
        out.upsert_source();
        out
    }

    /// [`SimRankScores::from_pairs`] for an entry vector the caller
    /// guarantees to be sorted by node id with unique keys (what the
    /// query engine's merge assembly produces) — takes the vector as-is
    /// with no sortedness scan, which is a full extra pass over a large
    /// score vector.
    pub fn from_sorted_entries(source: NodeId, n: usize, entries: Vec<(NodeId, f64)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let mut out = SimRankScores { source, n, entries };
        out.upsert_source();
        out
    }

    fn upsert_source(&mut self) {
        match self.entries.binary_search_by_key(&self.source, |&(v, _)| v) {
            Ok(i) => self.entries[i].1 = 1.0,
            Err(i) => self.entries.insert(i, (self.source, 1.0)),
        }
    }

    /// The query node `u`.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Number of nodes in the underlying graph.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// `ŝ(u, v)`; 0.0 for nodes without a stored estimate.
    #[inline]
    pub fn get(&self, v: NodeId) -> f64 {
        self.entries
            .binary_search_by_key(&v, |&(node, _)| node)
            .map(|i| self.entries[i].1)
            .unwrap_or(0.0)
    }

    /// Adds `delta` to `ŝ(u, v)`. `O(len)` worst case (ordered insert).
    pub fn add(&mut self, v: NodeId, delta: f64) {
        match self.entries.binary_search_by_key(&v, |&(node, _)| node) {
            Ok(i) => self.entries[i].1 += delta,
            Err(i) => self.entries.insert(i, (v, delta)),
        }
    }

    /// Overwrites `ŝ(u, v)`. `O(len)` worst case (ordered insert).
    pub fn set(&mut self, v: NodeId, value: f64) {
        match self.entries.binary_search_by_key(&v, |&(node, _)| node) {
            Ok(i) => self.entries[i].1 = value,
            Err(i) => self.entries.insert(i, (v, value)),
        }
    }

    /// Number of stored (non-zero) entries, including the source.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when only the trivial self-score is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.len() <= 1
    }

    /// Iterates over stored `(v, ŝ(u,v))` pairs in ascending node-id
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// The `k` highest-scoring nodes **excluding the source** (whose score
    /// is trivially 1), sorted by descending score with ascending node-id
    /// tie-breaking — the ranking used for Precision@k, pooling and the
    /// served `query … top=K` reply.
    ///
    /// One pass over the stored entries through a `k`-bounded heap: no
    /// copy of the entries, `O(len · log k)` time, and an allocation of
    /// at most `min(k, len)` slots, so a huge `k` costs no more than
    /// `k = len`. The order is the same as a stable full sort under the
    /// same comparator truncated to `k`, for any NaN-free scores.
    pub fn top_k(&self, k: usize) -> Vec<(NodeId, f64)> {
        select_top_k(self.iter(), self.entries.len(), k, self.source)
    }

    /// Materializes the dense score vector of length `n`.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        for &(v, s) in &self.entries {
            out[v as usize] = s;
        }
        out
    }

    /// Largest absolute difference against another score vector over all
    /// `n` nodes (used by the accuracy tests). A merge walk over the two
    /// sorted entry lists: `O(len_a + len_b)`, independent of `n`.
    pub fn max_abs_diff(&self, other: &SimRankScores) -> f64 {
        let a = &self.entries;
        let b = &other.entries;
        let mut worst: f64 = 0.0;
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Equal => {
                    worst = worst.max((a[i].1 - b[j].1).abs());
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    worst = worst.max(a[i].1.abs());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    worst = worst.max(b[j].1.abs());
                    j += 1;
                }
            }
        }
        for &(_, s) in &a[i..] {
            worst = worst.max(s.abs());
        }
        for &(_, s) in &b[j..] {
            worst = worst.max(s.abs());
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_score_is_one() {
        let s = SimRankScores::new(3, 10);
        assert_eq!(s.get(3), 1.0);
        assert_eq!(s.get(0), 0.0);
        assert_eq!(s.source(), 3);
        assert!(s.is_empty());
    }

    #[test]
    fn add_and_set() {
        let mut s = SimRankScores::new(0, 5);
        s.add(1, 0.25);
        s.add(1, 0.25);
        s.set(2, 0.9);
        assert_eq!(s.get(1), 0.5);
        assert_eq!(s.get(2), 0.9);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn top_k_excludes_source_and_sorts() {
        let mut s = SimRankScores::new(0, 6);
        s.set(1, 0.3);
        s.set(2, 0.7);
        s.set(3, 0.7);
        s.set(4, 0.1);
        let top = s.top_k(3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].0, 2); // tie broken by node id
        assert_eq!(top[1].0, 3);
        assert_eq!(top[2].0, 1);
        assert!(s.top_k(100).len() == 4);
        assert!(s.top_k(0).is_empty());
        assert_eq!(s.top_k(usize::MAX).len(), 4);
    }

    /// The pre-heap implementation: a stable full sort, truncated.
    fn full_sort_top_k(s: &SimRankScores, k: usize) -> Vec<(NodeId, f64)> {
        let mut entries: Vec<(NodeId, f64)> = s.iter().filter(|&(v, _)| v != s.source()).collect();
        entries.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        entries.truncate(k);
        entries
    }

    #[test]
    fn top_k_matches_a_full_sort_under_heavy_ties() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for trial in 0..50u32 {
            let n = 1 + rng.gen_range(0..400usize);
            let source = rng.gen_range(0..n as NodeId);
            // A handful of distinct values (signed zeros included), so
            // most selections cut through a run of tied scores.
            let levels = [0.5, 0.25, 0.125, 0.0, -0.0, 1e-9, 0.25 + 1e-12];
            let mut pairs = Vec::new();
            for v in 0..n as NodeId {
                if rng.gen_bool(0.7) {
                    pairs.push((v, levels[rng.gen_range(0..levels.len())]));
                }
            }
            let s = SimRankScores::from_pairs(source, n, pairs.len(), pairs);
            for k in [0, 1, 2, 7, s.len() - 1, s.len(), s.len() + 3, usize::MAX] {
                assert_eq!(s.top_k(k), full_sort_top_k(&s, k), "trial {trial}, k = {k}");
            }
        }
    }

    #[test]
    fn dense_round_trip() {
        let mut s = SimRankScores::new(1, 4);
        s.set(3, 0.5);
        assert_eq!(s.to_dense(), vec![0.0, 1.0, 0.0, 0.5]);
    }

    #[test]
    fn max_abs_diff() {
        let mut a = SimRankScores::new(0, 4);
        let mut b = SimRankScores::new(0, 4);
        a.set(2, 0.8);
        b.set(2, 0.6);
        b.set(3, 0.1);
        assert!((a.max_abs_diff(&b) - 0.2).abs() < 1e-12);
        assert!((b.max_abs_diff(&a) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn from_pairs_sizes_and_inserts_self() {
        let s = SimRankScores::from_pairs(1, 6, 3, vec![(2, 0.4), (3, 0.2), (5, 0.1)]);
        assert_eq!(s.get(1), 1.0);
        assert_eq!(s.get(2), 0.4);
        assert_eq!(s.get(5), 0.1);
        assert_eq!(s.len(), 4);
        // Source score stays 1.0 even when the pairs carry a stale value.
        let s = SimRankScores::from_pairs(0, 3, 1, vec![(0, 0.5)]);
        assert_eq!(s.get(0), 1.0);
    }

    #[test]
    fn from_map_inserts_self() {
        let mut m = HashMap::new();
        m.insert(2u32, 0.4);
        let s = SimRankScores::from_map(1, 5, m);
        assert_eq!(s.get(1), 1.0);
        assert_eq!(s.get(2), 0.4);
    }
}

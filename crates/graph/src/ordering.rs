//! Counting-sort of out-adjacency lists by target in-degree.
//!
//! Paper Algorithm 1, lines 1–4: construct a tuple `(x, y, d_in(y))` per
//! edge, counting-sort the tuples by ascending `d_in(y)` (in-degrees are
//! integers in `[0, n]`, so this is `O(n + m)`), then append each `y` to
//! `x`'s out list in sorted order. Sorting each out list stably on its
//! own gives the same lists without the edge-sized temporaries, which is
//! what [`sort_out_by_in_degree`] does.
//!
//! Both backward-walk algorithms (paper Algorithms 2 and 3) rely on this
//! ordering: they scan a node's out-neighbors and stop at the first target
//! whose in-degree exceeds a random threshold, touching only the prefix
//! that can actually receive mass.

use crate::csr::{DiGraph, NodeId};

/// Reorders every out-adjacency list of `g` by ascending in-degree of the
/// target node, and marks the graph as sorted.
///
/// Ties keep their previous order within the list (the sort is stable),
/// so the result is deterministic: it is exactly what the paper's global
/// counting sort of all edges by `d_in(y)`, scattered back per source,
/// produces. The in-adjacency is untouched.
///
/// ```
/// use prsim_graph::{DiGraph, ordering::sort_out_by_in_degree};
///
/// // 0 -> {1, 2}; node 1 has in-degree 2, node 2 has in-degree 1.
/// let mut g = DiGraph::from_edges(4, &[(0, 1), (0, 2), (3, 1)]);
/// sort_out_by_in_degree(&mut g);
/// assert_eq!(g.out_neighbors(0), &[2, 1]); // ascending d_in
/// assert!(g.is_out_sorted_by_in_degree());
/// ```
pub fn sort_out_by_in_degree(g: &mut DiGraph) {
    sort_out_by_in_degree_with(g, &mut Vec::new());
}

/// Lists at most this long are insertion-sorted in place.
const INSERTION_SORT_MAX: usize = 32;

/// [`sort_out_by_in_degree`] with a caller-held scratch buffer, which
/// only ever grows to the longest list that is out of order. Each list
/// is sorted on its own: a short one by insertion sort in place, a long
/// one that is out of order by sorting `(d_in(y), position, y)` keys
/// in `scratch` (unique keys, so an unstable sort is stable), and a long
/// one already in order is left alone. The dynamic engine's snapshots
/// are nearly sorted already, so this is one pass over the adjacency
/// with no `O(n + m)` temporaries.
pub(crate) fn sort_out_by_in_degree_with(g: &mut DiGraph, scratch: &mut Vec<u128>) {
    let n = g.node_count();
    let (offsets, targets, in_degrees) = g.out_adjacency_mut();
    let key = |y: NodeId| in_degrees[y as usize];
    for u in 0..n {
        let list = &mut targets[offsets[u]..offsets[u + 1]];
        if list.len() <= INSERTION_SORT_MAX {
            for i in 1..list.len() {
                let y = list[i];
                let mut j = i;
                while j > 0 && key(list[j - 1]) > key(y) {
                    list[j] = list[j - 1];
                    j -= 1;
                }
                list[j] = y;
            }
        } else if list.windows(2).any(|w| key(w[0]) > key(w[1])) {
            scratch.clear();
            scratch.extend(list.iter().enumerate().map(|(pos, &y)| {
                (u128::from(key(y)) << 64) | ((pos as u128) << 32) | u128::from(y)
            }));
            scratch.sort_unstable();
            for (slot, &packed) in list.iter_mut().zip(scratch.iter()) {
                *slot = packed as u32;
            }
        }
    }
    g.set_out_sorted_by_in_degree(true);
}

/// Number of out-neighbors of `x` whose in-degree is `<= bound`.
///
/// Requires the graph to be sorted with [`sort_out_by_in_degree`]; the
/// sorted prefix is located with a binary search (`O(log d_out(x))`).
///
/// # Panics
///
/// Panics in debug builds if the graph is not sorted.
#[inline]
pub fn prefix_len_by_in_degree(g: &DiGraph, x: NodeId, bound: f64) -> usize {
    debug_assert!(
        g.is_out_sorted_by_in_degree(),
        "prefix_len_by_in_degree requires sort_out_by_in_degree"
    );
    let neigh = g.out_neighbors(x);
    neigh.partition_point(|&y| (g.in_degree(y) as f64) <= bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_each_list_by_target_in_degree() {
        // in-degrees: 0:0, 1:3, 2:1, 3:2
        let mut g =
            DiGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (2, 1), (3, 1), (1, 3), (1, 2)]);
        // avoid surprising the test: node 2 gets in-edges from 0 and 1 -> d_in(2)=2
        // recompute expectations directly below instead of by hand.
        sort_out_by_in_degree(&mut g);
        for u in g.nodes() {
            let ds: Vec<usize> = g.out_neighbors(u).iter().map(|&y| g.in_degree(y)).collect();
            assert!(
                ds.windows(2).all(|w| w[0] <= w[1]),
                "node {u} not sorted: {ds:?}"
            );
        }
        assert!(g.is_out_sorted_by_in_degree());
    }

    #[test]
    fn preserves_edge_multiset() {
        let edges = vec![
            (0, 1),
            (0, 2),
            (0, 3),
            (2, 1),
            (3, 1),
            (1, 3),
            (1, 2),
            (3, 0),
        ];
        let g0 = DiGraph::from_edges(4, &edges);
        let mut g = g0.clone();
        sort_out_by_in_degree(&mut g);
        let mut before: Vec<_> = g0.edges().collect();
        let mut after: Vec<_> = g.edges().collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after);
        // In-adjacency untouched.
        for u in g.nodes() {
            assert_eq!(g.in_neighbors(u), g0.in_neighbors(u));
        }
    }

    #[test]
    fn prefix_len_counts_small_in_degree_targets() {
        let mut g = DiGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (4, 2)]);
        sort_out_by_in_degree(&mut g);
        // in-degrees: 1 -> 1, 2 -> 2, 3 -> 3
        assert_eq!(prefix_len_by_in_degree(&g, 0, 0.5), 0);
        assert_eq!(prefix_len_by_in_degree(&g, 0, 1.0), 1);
        assert_eq!(prefix_len_by_in_degree(&g, 0, 2.5), 2);
        assert_eq!(prefix_len_by_in_degree(&g, 0, 100.0), 3);
    }

    #[test]
    fn empty_and_singleton_lists() {
        let mut g = DiGraph::from_edges(3, &[(0, 1)]);
        sort_out_by_in_degree(&mut g);
        assert_eq!(g.out_neighbors(0), &[1]);
        assert!(g.out_neighbors(1).is_empty());
        assert_eq!(prefix_len_by_in_degree(&g, 1, 10.0), 0);
    }

    /// The global counting sort this module used to run (all edges keyed
    /// by target in-degree, then scattered back per source), kept as the
    /// oracle for the per-list sort.
    fn counting_sort_oracle(g: &DiGraph) -> Vec<Vec<NodeId>> {
        let n = g.node_count();
        let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
        let max_key = (0..n as NodeId).map(|v| g.in_degree(v)).max().unwrap_or(0);
        let mut count = vec![0usize; max_key + 2];
        for &(_, y) in &edges {
            count[g.in_degree(y) + 1] += 1;
        }
        for k in 1..count.len() {
            count[k] += count[k - 1];
        }
        let mut sorted = vec![(0, 0); edges.len()];
        for &(x, y) in &edges {
            let slot = &mut count[g.in_degree(y)];
            sorted[*slot] = (x, y);
            *slot += 1;
        }
        let mut lists = vec![Vec::new(); n];
        for (x, y) in sorted {
            lists[x as usize].push(y);
        }
        lists
    }

    #[test]
    fn per_list_sort_matches_the_global_counting_sort() {
        // Random multigraphs with long out-lists (the scratch-sort path)
        // and heavy in-degree ties (stability), sorted twice over one
        // scratch buffer: once from arbitrary order, once after the
        // in-degrees moved.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound) as NodeId
        };
        let mut scratch = Vec::new();
        for n in [1usize, 7, 60, 300] {
            let mut edges = Vec::new();
            for _ in 0..n * 6 {
                edges.push((next(n as u64), next(n as u64)));
            }
            // Two hubs with out-lists past the insertion-sort cutoff.
            for y in 0..n as NodeId {
                edges.push((0, y));
                edges.push(((n / 2) as NodeId, (n as NodeId - 1) - y));
            }
            let mut g = DiGraph::from_edges(n, &edges);
            let want = counting_sort_oracle(&g);
            sort_out_by_in_degree_with(&mut g, &mut scratch);
            for u in g.nodes() {
                assert_eq!(g.out_neighbors(u), &want[u as usize][..], "n={n} node {u}");
            }
            // Re-sort after changing in-degrees: the sorted lists plus a
            // few new edges, a nearly sorted input.
            let mut edges: Vec<_> = g.edges().collect();
            edges.extend((0..n as NodeId / 3).map(|y| (next(n as u64), y)));
            let mut h = DiGraph::from_edges(n, &edges);
            let want = counting_sort_oracle(&h);
            sort_out_by_in_degree_with(&mut h, &mut scratch);
            for u in h.nodes() {
                assert_eq!(h.out_neighbors(u), &want[u as usize][..], "n={n} node {u}");
                let (neigh, degs) = h.out_neighbors_with_in_degrees(u);
                assert!(neigh
                    .iter()
                    .zip(degs)
                    .all(|(&y, &d)| h.in_degree(y) == d as usize));
            }
        }
    }

    #[test]
    fn works_on_empty_graph() {
        let mut g = DiGraph::from_edges(0, &[]);
        sort_out_by_in_degree(&mut g);
        assert!(g.is_out_sorted_by_in_degree());
    }
}

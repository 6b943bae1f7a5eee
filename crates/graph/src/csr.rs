//! Immutable compressed-sparse-row directed graph.
//!
//! [`DiGraph`] keeps both orientations of every edge:
//!
//! * the **out**-adjacency (`u → {v : (u,v) ∈ E}`) is what the backward
//!   search (paper Algorithm 1) and the backward walks (Algorithms 2–3)
//!   traverse;
//! * the **in**-adjacency (`u → {v : (v,u) ∈ E}`) is what √c-walks follow,
//!   one uniformly random in-neighbor per step.
//!
//! Node ids are dense `u32` values in `0..n`. The structure is immutable
//! after construction except for [`ordering::sort_out_by_in_degree`]
//! (re-permutes each out list in place), which the PRSim query phase
//! requires.
//!
//! [`ordering::sort_out_by_in_degree`]: crate::ordering::sort_out_by_in_degree

use crate::mem::{copy_reusing, reserve_headroom};

/// Dense node identifier. The suite supports up to `u32::MAX - 1` nodes,
/// enough for every dataset in the paper (UK-Union has 1.3e8 nodes).
pub type NodeId = u32;

/// An immutable directed graph in CSR form with both adjacency orientations.
#[derive(Debug, PartialEq, Eq)]
pub struct DiGraph {
    /// `out_offsets[u]..out_offsets[u+1]` indexes `out_targets` for node `u`.
    out_offsets: Vec<usize>,
    /// Concatenated out-neighbor lists.
    out_targets: Vec<NodeId>,
    /// `in_offsets[u]..in_offsets[u+1]` indexes `in_sources` for node `u`.
    in_offsets: Vec<usize>,
    /// Concatenated in-neighbor lists.
    in_sources: Vec<NodeId>,
    /// Flat per-node in-degree cache (`in_offsets[u+1] - in_offsets[u]`),
    /// kept so the backward-walk inner loops read one `u32` instead of two
    /// `usize` offsets per neighbor probe.
    in_degrees: Vec<u32>,
    /// `out_target_in_degs[i] = in_degrees[out_targets[i]]` — the targets'
    /// in-degrees *inline with the out-adjacency*, so the backward scans
    /// (which walk an out list until a degree threshold is exceeded) read
    /// one sequential stream instead of one random `in_degrees` probe per
    /// neighbor. Present iff `out_sorted_by_in_degree` (built by
    /// `ordering::sort_out_by_in_degree`, which every backward consumer
    /// requires anyway); empty on unsorted graphs.
    out_target_in_degs: Vec<u32>,
    /// Whether every out list is sorted by ascending in-degree of the target.
    out_sorted_by_in_degree: bool,
}

/// Per-node list lengths implied by a CSR offset array.
fn degrees_from_offsets(offsets: &[usize]) -> Vec<u32> {
    let mut degrees = Vec::new();
    fill_degrees(&mut degrees, offsets);
    degrees
}

/// Overwrites `degrees` with the per-node list lengths of `offsets`,
/// reusing its allocation.
fn fill_degrees(degrees: &mut Vec<u32>, offsets: &[usize]) {
    degrees.clear();
    reserve_headroom(degrees, offsets.len().saturating_sub(1));
    degrees.extend(offsets.windows(2).map(|w| {
        u32::try_from(w[1] - w[0]).expect("per-node degree must fit in u32 (NodeId width)")
    }));
}

impl Clone for DiGraph {
    fn clone(&self) -> Self {
        DiGraph {
            out_offsets: self.out_offsets.clone(),
            out_targets: self.out_targets.clone(),
            in_offsets: self.in_offsets.clone(),
            in_sources: self.in_sources.clone(),
            in_degrees: self.in_degrees.clone(),
            out_target_in_degs: self.out_target_in_degs.clone(),
            out_sorted_by_in_degree: self.out_sorted_by_in_degree,
        }
    }

    /// Copies `source` into `self`'s existing buffers
    /// ([`copy_reusing`]): refreshing a graph of about the same size
    /// allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        copy_reusing(&mut self.out_offsets, &source.out_offsets);
        copy_reusing(&mut self.out_targets, &source.out_targets);
        copy_reusing(&mut self.in_offsets, &source.in_offsets);
        copy_reusing(&mut self.in_sources, &source.in_sources);
        copy_reusing(&mut self.in_degrees, &source.in_degrees);
        copy_reusing(&mut self.out_target_in_degs, &source.out_target_in_degs);
        self.out_sorted_by_in_degree = source.out_sorted_by_in_degree;
    }
}

/// The empty graph (no nodes, no edges).
impl Default for DiGraph {
    fn default() -> Self {
        DiGraph::from_edges(0, &[])
    }
}

impl DiGraph {
    /// Builds a graph from an edge list over nodes `0..n`.
    ///
    /// Edges are `(source, target)` pairs; parallel edges and self loops are
    /// kept verbatim (use [`crate::GraphBuilder`] for deduplication).
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut out_degree = vec![0usize; n];
        let mut in_degree = vec![0usize; n];
        for &(u, v) in edges {
            assert!((u as usize) < n, "edge source {u} out of range (n = {n})");
            assert!((v as usize) < n, "edge target {v} out of range (n = {n})");
            out_degree[u as usize] += 1;
            in_degree[v as usize] += 1;
        }

        let out_offsets = prefix_sum(&out_degree);
        let in_offsets = prefix_sum(&in_degree);

        let mut out_targets = vec![0 as NodeId; edges.len()];
        let mut in_sources = vec![0 as NodeId; edges.len()];
        let mut out_cursor = out_offsets.clone();
        let mut in_cursor = in_offsets.clone();
        for &(u, v) in edges {
            out_targets[out_cursor[u as usize]] = v;
            out_cursor[u as usize] += 1;
            in_sources[in_cursor[v as usize]] = u;
            in_cursor[v as usize] += 1;
        }

        let in_degrees = degrees_from_offsets(&in_offsets);
        DiGraph {
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
            in_degrees,
            out_target_in_degs: Vec::new(),
            out_sorted_by_in_degree: false,
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of directed edges `m` (parallel edges counted separately).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Average degree `m / n` (0.0 on the empty graph).
    #[inline]
    pub fn avg_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            self.edge_count() as f64 / self.node_count() as f64
        }
    }

    /// Out-neighbors of `u` (targets of edges leaving `u`).
    #[inline]
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.out_targets[self.out_offsets[u as usize]..self.out_offsets[u as usize + 1]]
    }

    /// In-neighbors of `u` (sources of edges entering `u`).
    #[inline]
    pub fn in_neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.in_sources[self.in_offsets[u as usize]..self.in_offsets[u as usize + 1]]
    }

    /// Out-neighbors of `u` paired with their in-degrees as parallel
    /// slices — the backward-scan fast path: the degree stream is read
    /// sequentially instead of probing `in_degrees[y]` per neighbor.
    ///
    /// # Panics
    ///
    /// Panics (on non-empty out lists) unless the graph is out-sorted by
    /// in-degree ([`crate::ordering::sort_out_by_in_degree`]), which is
    /// when the inline degree stream is materialized.
    #[inline]
    pub fn out_neighbors_with_in_degrees(&self, u: NodeId) -> (&[NodeId], &[u32]) {
        let (s, e) = (
            self.out_offsets[u as usize],
            self.out_offsets[u as usize + 1],
        );
        (&self.out_targets[s..e], &self.out_target_in_degs[s..e])
    }

    /// Hints the CPU to pull `u`'s out-offset cache line toward L1. A
    /// pure scheduling hint: no fault, no observable effect on results.
    /// Backward walks issue this for every node pushed into the next
    /// frontier, so the offset probe at the next level hits a warm line
    /// instead of serializing a dependent miss per level.
    #[inline]
    #[allow(unsafe_code)] // non-faulting scheduling hint; see lib.rs
    pub fn prefetch_out_offsets(&self, u: NodeId) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `u < n` is the caller contract everywhere in this type;
        // prefetch of any address is non-faulting regardless.
        unsafe {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let p = self.out_offsets.as_ptr().add(u as usize);
            _mm_prefetch(p as *const i8, _MM_HINT_T0);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = u;
    }

    /// Hints the CPU to pull the head of `u`'s out-adjacency (targets and
    /// the parallel in-degree stream) toward L1. Assumes the offset line
    /// is already close (see [`Self::prefetch_out_offsets`]); reading it
    /// here is what turns the two-level CSR dependency into one overlapped
    /// level. Covers the first cache line of each array — the in-degree
    /// sorted scans rarely read past the first dozen neighbors.
    #[inline]
    #[allow(unsafe_code)] // non-faulting scheduling hint; see lib.rs
    pub fn prefetch_out_lists(&self, u: NodeId) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: offsets are `<= m`, and one-past-end pointers are valid
        // to form; prefetch never faults.
        unsafe {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let s = *self.out_offsets.get_unchecked(u as usize);
            _mm_prefetch(self.out_targets.as_ptr().add(s) as *const i8, _MM_HINT_T0);
            _mm_prefetch(
                self.out_target_in_degs.as_ptr().add(s) as *const i8,
                _MM_HINT_T0,
            );
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = u;
    }

    /// Hints the CPU to pull `u`'s in-offset cache line toward L1.
    /// Same contract as [`Self::prefetch_out_offsets`], for the
    /// in-adjacency that √c-walks traverse.
    #[inline]
    #[allow(unsafe_code)] // non-faulting scheduling hint; see lib.rs
    pub fn prefetch_in_offsets(&self, u: NodeId) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `u < n` is the caller contract everywhere in this type;
        // prefetch of any address is non-faulting regardless.
        unsafe {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let p = self.in_offsets.as_ptr().add(u as usize);
            _mm_prefetch(p as *const i8, _MM_HINT_T0);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = u;
    }

    /// Hints the CPU to pull the head of `u`'s in-adjacency toward L1.
    /// Same contract as [`Self::prefetch_out_lists`]: assumes the offset
    /// line is already close, covers the first cache line of the source
    /// list — one uniform draw from it is the whole per-step read.
    #[inline]
    #[allow(unsafe_code)] // non-faulting scheduling hint; see lib.rs
    pub fn prefetch_in_lists(&self, u: NodeId) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: offsets are `<= m`, and one-past-end pointers are valid
        // to form; prefetch never faults.
        unsafe {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let s = *self.in_offsets.get_unchecked(u as usize);
            _mm_prefetch(self.in_sources.as_ptr().add(s) as *const i8, _MM_HINT_T0);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = u;
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out_offsets[u as usize + 1] - self.out_offsets[u as usize]
    }

    /// In-degree of `u`.
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.in_degrees[u as usize] as usize
    }

    /// The flat in-degree array (`in_degrees()[u] == in_degree(u)`),
    /// cached at construction so hot loops avoid the offset subtraction.
    #[inline]
    pub fn in_degrees(&self) -> &[u32] {
        &self.in_degrees
    }

    /// Iterator over all node ids `0..n`.
    #[inline]
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.node_count() as NodeId
    }

    /// Iterator over all edges as `(source, target)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Whether [`crate::ordering::sort_out_by_in_degree`] has run on this
    /// graph, i.e. whether every out list is ordered by ascending in-degree
    /// of the target (a precondition of the backward walks).
    #[inline]
    pub fn is_out_sorted_by_in_degree(&self) -> bool {
        self.out_sorted_by_in_degree
    }

    /// Returns the transposed graph (every edge reversed).
    ///
    /// The reverse PageRank of `w` in `G` equals the PageRank of `w` in
    /// `G.transpose()`; the transpose is mostly used in tests since
    /// [`DiGraph`] already stores both orientations.
    pub fn transpose(&self) -> DiGraph {
        DiGraph {
            out_offsets: self.in_offsets.clone(),
            out_targets: self.in_sources.clone(),
            in_offsets: self.out_offsets.clone(),
            in_sources: self.out_targets.clone(),
            in_degrees: degrees_from_offsets(&self.out_offsets),
            out_target_in_degs: Vec::new(),
            out_sorted_by_in_degree: false,
        }
    }

    /// Bytes the CSR arrays hold allocated, counted from their
    /// capacities (the memory accounting of a long-lived graph whose
    /// buffers are refilled in place).
    pub fn capacity_bytes(&self) -> usize {
        self.out_offsets.capacity() * std::mem::size_of::<usize>()
            + self.in_offsets.capacity() * std::mem::size_of::<usize>()
            + self.out_targets.capacity() * std::mem::size_of::<NodeId>()
            + self.in_sources.capacity() * std::mem::size_of::<NodeId>()
            + self.in_degrees.capacity() * std::mem::size_of::<u32>()
            + self.out_target_in_degs.capacity() * std::mem::size_of::<u32>()
    }

    /// Approximate resident memory of the CSR arrays in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.out_offsets.len() * std::mem::size_of::<usize>()
            + self.in_offsets.len() * std::mem::size_of::<usize>()
            + self.out_targets.len() * std::mem::size_of::<NodeId>()
            + self.in_sources.len() * std::mem::size_of::<NodeId>()
            + self.in_degrees.len() * std::mem::size_of::<u32>()
            + self.out_target_in_degs.len() * std::mem::size_of::<u32>()
    }

    /// Mutable out-adjacency access for the in-degree sort, with the
    /// in-degrees it sorts by; the inline degree stream is invalidated
    /// (the sort rebuilds it via [`DiGraph::set_out_sorted_by_in_degree`]).
    pub(crate) fn out_adjacency_mut(&mut self) -> (&[usize], &mut [NodeId], &[u32]) {
        self.out_target_in_degs.clear();
        self.out_sorted_by_in_degree = false;
        (&self.out_offsets, &mut self.out_targets, &self.in_degrees)
    }

    pub(crate) fn set_out_sorted_by_in_degree(&mut self, flag: bool) {
        self.out_sorted_by_in_degree = flag;
        self.out_target_in_degs.clear();
        if flag {
            reserve_headroom(&mut self.out_target_in_degs, self.out_targets.len());
            let in_degrees = &self.in_degrees;
            self.out_target_in_degs
                .extend(self.out_targets.iter().map(|&y| in_degrees[y as usize]));
        }
    }

    /// Rebuilds the graph in its own buffers: `fill` receives the four
    /// cleared CSR arrays (out offsets, out targets, in offsets, in
    /// sources) and writes the new adjacency; the derived arrays are
    /// recomputed in place and the result is unsorted. Reuses every
    /// allocation the graph already holds.
    pub(crate) fn refill(
        &mut self,
        fill: impl FnOnce(&mut Vec<usize>, &mut Vec<NodeId>, &mut Vec<usize>, &mut Vec<NodeId>),
    ) {
        self.out_offsets.clear();
        self.out_targets.clear();
        self.in_offsets.clear();
        self.in_sources.clear();
        fill(
            &mut self.out_offsets,
            &mut self.out_targets,
            &mut self.in_offsets,
            &mut self.in_sources,
        );
        fill_degrees(&mut self.in_degrees, &self.in_offsets);
        self.out_target_in_degs.clear();
        self.out_sorted_by_in_degree = false;
    }

    pub(crate) fn raw_parts(&self) -> (&[usize], &[NodeId], &[usize], &[NodeId], bool) {
        (
            &self.out_offsets,
            &self.out_targets,
            &self.in_offsets,
            &self.in_sources,
            self.out_sorted_by_in_degree,
        )
    }

    pub(crate) fn from_raw_parts(
        out_offsets: Vec<usize>,
        out_targets: Vec<NodeId>,
        in_offsets: Vec<usize>,
        in_sources: Vec<NodeId>,
        out_sorted_by_in_degree: bool,
    ) -> Self {
        let in_degrees = degrees_from_offsets(&in_offsets);
        let mut g = DiGraph {
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
            in_degrees,
            out_target_in_degs: Vec::new(),
            out_sorted_by_in_degree: false,
        };
        if out_sorted_by_in_degree {
            g.set_out_sorted_by_in_degree(true);
        }
        g
    }
}

fn prefix_sum(degrees: &[usize]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(degrees.len() + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &d in degrees {
        acc += d;
        offsets.push(acc);
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> DiGraph {
        DiGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::from_edges(0, &[]);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn isolated_nodes() {
        let g = DiGraph::from_edges(5, &[]);
        assert_eq!(g.node_count(), 5);
        for u in 0..5 {
            assert!(g.out_neighbors(u).is_empty());
            assert!(g.in_neighbors(u).is_empty());
        }
    }

    #[test]
    fn triangle_adjacency() {
        let g = triangle();
        assert_eq!(g.out_neighbors(0), &[1]);
        assert_eq!(g.out_neighbors(1), &[2]);
        assert_eq!(g.out_neighbors(2), &[0]);
        assert_eq!(g.in_neighbors(0), &[2]);
        assert_eq!(g.in_neighbors(1), &[0]);
        assert_eq!(g.in_neighbors(2), &[1]);
    }

    #[test]
    fn degrees_match_adjacency() {
        let g = DiGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]);
        assert_eq!(g.out_degree(0), 3);
        assert_eq!(g.in_degree(3), 3);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(0), 0);
        for u in g.nodes() {
            assert_eq!(g.out_degree(u), g.out_neighbors(u).len());
            assert_eq!(g.in_degree(u), g.in_neighbors(u).len());
        }
    }

    #[test]
    fn parallel_edges_and_self_loops_kept() {
        let g = DiGraph::from_edges(2, &[(0, 1), (0, 1), (1, 1)]);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_neighbors(0), &[1, 1]);
        assert_eq!(g.out_neighbors(1), &[1]);
        assert_eq!(g.in_neighbors(1), &[0, 0, 1]);
    }

    #[test]
    fn edges_iterator_round_trips() {
        let edges = vec![(0, 1), (1, 2), (2, 0), (2, 1)];
        let g = DiGraph::from_edges(3, &edges);
        let mut got: Vec<_> = g.edges().collect();
        let mut want = edges.clone();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (3, 1)]);
        let t = g.transpose();
        assert_eq!(t.node_count(), 4);
        let mut got: Vec<_> = t.edges().collect();
        got.sort_unstable();
        assert_eq!(got, vec![(1, 0), (1, 3), (2, 1)]);
        // Double transpose restores the original edge multiset.
        let tt = t.transpose();
        let mut orig: Vec<_> = g.edges().collect();
        let mut back: Vec<_> = tt.edges().collect();
        orig.sort_unstable();
        back.sort_unstable();
        assert_eq!(orig, back);
    }

    #[test]
    fn avg_degree() {
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!((g.avg_degree() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let _ = DiGraph::from_edges(2, &[(0, 2)]);
    }

    #[test]
    fn memory_bytes_positive() {
        let g = triangle();
        assert!(g.memory_bytes() > 0);
    }

    #[test]
    fn in_degree_cache_matches_adjacency() {
        let g = DiGraph::from_edges(5, &[(0, 1), (2, 1), (3, 1), (1, 1), (0, 4)]);
        assert_eq!(g.in_degrees().len(), 5);
        for u in g.nodes() {
            assert_eq!(g.in_degrees()[u as usize] as usize, g.in_neighbors(u).len());
            assert_eq!(g.in_degree(u), g.in_neighbors(u).len());
        }
        // Survives transpose (where in-degrees become the old out-degrees).
        let t = g.transpose();
        for u in t.nodes() {
            assert_eq!(t.in_degrees()[u as usize] as usize, g.out_degree(u));
        }
    }
}

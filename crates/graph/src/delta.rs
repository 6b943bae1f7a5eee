//! Mutable edge-delta overlay over an immutable CSR base graph.
//!
//! [`DiGraph`] is deliberately immutable: every consumer of the PRSim
//! suite reads raw CSR slices. Dynamic workloads instead mutate a
//! [`DeltaGraph`] — a base CSR plus two small sorted overlays (pending
//! inserts and pending deletes). A mutation costs `O(d_out(u) + log k)`
//! for an overlay of `k` edges — the `d_out(u)` term is the base
//! membership scan (out-lists are in-degree-sorted, so id lookups cannot
//! binary-search) and dominates on high-degree sources. Materializing a
//! query-ready snapshot is a **linear merge** of the base adjacency with
//! the overlay (`O(n + m + k)`), far cheaper than the `O(m log m)` sort
//! a [`crate::GraphBuilder`] rebuild pays. Once the overlay exceeds `compact_threshold`, the next snapshot
//! is promoted to become the new base and the overlay resets, which keeps
//! both overlay memory and merge cost bounded.
//!
//! Semantics are the simple-graph semantics of the SimRank literature
//! (and of `GraphBuilder`'s defaults): no self loops, no parallel edges.
//! Inserting an existing edge or deleting an absent one is a no-op that
//! reports `false`.

use std::collections::BTreeSet;

use crate::csr::{DiGraph, NodeId};
use crate::mem::reserve_headroom;
use crate::ordering::sort_out_by_in_degree_with;

/// One edge mutation of a dynamic graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeUpdate {
    /// Insert directed edge `u → v`.
    Insert(NodeId, NodeId),
    /// Delete directed edge `u → v`.
    Delete(NodeId, NodeId),
}

impl EdgeUpdate {
    /// The `(source, target)` pair the update touches.
    #[inline]
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        match *self {
            EdgeUpdate::Insert(u, v) | EdgeUpdate::Delete(u, v) => (u, v),
        }
    }

    /// Whether this is an insertion.
    #[inline]
    pub fn is_insert(&self) -> bool {
        matches!(self, EdgeUpdate::Insert(_, _))
    }
}

impl std::fmt::Display for EdgeUpdate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            EdgeUpdate::Insert(u, v) => write!(f, "+ {u} {v}"),
            EdgeUpdate::Delete(u, v) => write!(f, "- {u} {v}"),
        }
    }
}

/// Default overlay size at which [`DeltaGraph`] compacts into the base.
pub const DEFAULT_COMPACT_THRESHOLD: usize = 1024;

/// A directed graph under edge insertions/deletions: immutable CSR base
/// plus a bounded overlay of pending mutations.
#[derive(Clone, Debug)]
pub struct DeltaGraph {
    base: DiGraph,
    /// Live edges not present in the base, sorted by `(u, v)`.
    inserts: BTreeSet<(NodeId, NodeId)>,
    /// Base edges marked dead, sorted by `(u, v)`.
    deletes: BTreeSet<(NodeId, NodeId)>,
    /// Node universe (grows with inserted endpoints; never shrinks).
    n: usize,
    /// Overlay size that triggers compaction on the next snapshot.
    compact_threshold: usize,
    /// Compactions performed (observability).
    compactions: usize,
    /// Scratch of the snapshot's in-degree sort, kept across snapshots
    /// (it only grows to the longest out-list that is out of order).
    sort_scratch: Vec<u128>,
}

impl DeltaGraph {
    /// Wraps a base graph with an empty overlay and the
    /// [`DEFAULT_COMPACT_THRESHOLD`].
    pub fn new(base: DiGraph) -> Self {
        Self::with_threshold(base, DEFAULT_COMPACT_THRESHOLD)
    }

    /// Wraps a base graph with an explicit compaction threshold
    /// (clamped to at least 1).
    pub fn with_threshold(base: DiGraph, compact_threshold: usize) -> Self {
        let n = base.node_count();
        DeltaGraph {
            base,
            inserts: BTreeSet::new(),
            deletes: BTreeSet::new(),
            n,
            compact_threshold: compact_threshold.max(1),
            compactions: 0,
            sort_scratch: Vec::new(),
        }
    }

    /// Number of nodes (grows automatically with inserted endpoints).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of live edges (base − deletes + inserts).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.base.edge_count() - self.deletes.len() + self.inserts.len()
    }

    /// Pending overlay size (inserts + deletes not yet compacted).
    #[inline]
    pub fn overlay_len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Compactions performed so far.
    #[inline]
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    /// Whether edge `u → v` is currently live.
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        if self.inserts.contains(&(u, v)) {
            return true;
        }
        if self.deletes.contains(&(u, v)) {
            return false;
        }
        (u as usize) < self.base.node_count() && self.base.out_neighbors(u).contains(&v)
    }

    /// Inserts edge `u → v`. Returns `false` (no-op) when the edge is
    /// already live or is a self loop.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v || self.contains_edge(u, v) {
            return false;
        }
        // Re-inserting a deleted base edge cancels the delete instead of
        // growing the insert overlay.
        if !self.deletes.remove(&(u, v)) {
            self.inserts.insert((u, v));
        }
        self.n = self.n.max(u as usize + 1).max(v as usize + 1);
        true
    }

    /// Deletes edge `u → v`. Returns `false` (no-op) when the edge is not
    /// currently live.
    pub fn delete_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if self.inserts.remove(&(u, v)) {
            return true;
        }
        if self.deletes.contains(&(u, v)) {
            return false;
        }
        if (u as usize) < self.base.node_count() && self.base.out_neighbors(u).contains(&v) {
            self.deletes.insert((u, v));
            true
        } else {
            false
        }
    }

    /// Applies one [`EdgeUpdate`]; returns whether it changed the graph.
    pub fn apply(&mut self, update: EdgeUpdate) -> bool {
        match update {
            EdgeUpdate::Insert(u, v) => self.insert_edge(u, v),
            EdgeUpdate::Delete(u, v) => self.delete_edge(u, v),
        }
    }

    /// Iterator over all live edges: surviving base edges, then the
    /// insert overlay (callers rebuild sets/CSR, so order is free).
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.base
            .edges()
            .filter(move |e| !self.deletes.contains(e))
            .chain(self.inserts.iter().copied())
    }

    /// Materializes the current edge set as a query-ready [`DiGraph`]
    /// whose out-lists are counting-sorted by target in-degree. When the
    /// overlay has reached the compaction threshold, the snapshot also
    /// becomes the new base and the overlay resets.
    pub fn snapshot(&mut self) -> DiGraph {
        let mut snap = DiGraph::default();
        self.snapshot_into(&mut snap);
        snap
    }

    /// [`DeltaGraph::snapshot`] written into `g`'s buffers, replacing
    /// whatever graph `g` held. Fed the previous snapshot, it allocates
    /// nothing unless the graph outgrew that snapshot's headroom; a
    /// compaction copies the result into the base's own buffers.
    pub fn snapshot_into(&mut self, g: &mut DiGraph) {
        self.merge_into(g);
        if self.overlay_len() >= self.compact_threshold {
            self.base.clone_from(g);
            self.inserts.clear();
            self.deletes.clear();
            self.compactions += 1;
        }
    }

    /// Forces compaction now, regardless of the threshold.
    pub fn compact(&mut self) -> &DiGraph {
        if self.overlay_len() > 0 || self.base.node_count() < self.n {
            let mut merged = DiGraph::default();
            self.merge_into(&mut merged);
            self.base = merged;
            self.inserts.clear();
            self.deletes.clear();
            self.compactions += 1;
        }
        &self.base
    }

    /// Bytes held by the base CSR and the scratch, counted from
    /// capacities, plus the overlay's edges (memory accounting).
    pub fn capacity_bytes(&self) -> usize {
        self.base.capacity_bytes()
            + self.sort_scratch.capacity() * std::mem::size_of::<u128>()
            + self.overlay_len() * std::mem::size_of::<(NodeId, NodeId)>()
    }

    /// Linear merge of base CSR and overlay into `g`'s buffers, then the
    /// in-degree sort.
    fn merge_into(&mut self, g: &mut DiGraph) {
        let n = self.n;
        let m = self.edge_count();
        let base = &self.base;
        let base_n = base.node_count();

        // Overlay views sorted by source (inserts/deletes already are) and
        // by target (for the in-adjacency merge).
        let ins_by_src: Vec<(NodeId, NodeId)> = self.inserts.iter().copied().collect();
        let del_by_src: Vec<(NodeId, NodeId)> = self.deletes.iter().copied().collect();
        let mut ins_by_dst = ins_by_src.clone();
        ins_by_dst.sort_unstable_by_key(|&(u, v)| (v, u));
        let mut del_by_dst = del_by_src.clone();
        del_by_dst.sort_unstable_by_key(|&(u, v)| (v, u));

        g.refill(|out_offsets, out_targets, in_offsets, in_sources| {
            reserve_headroom(out_offsets, n + 1);
            reserve_headroom(out_targets, m);
            reserve_headroom(in_offsets, n + 1);
            reserve_headroom(in_sources, m);

            // Out-adjacency: per source u, base list minus deletes plus inserts.
            let mut ins_i = 0usize;
            let mut del_i = 0usize;
            out_offsets.push(0);
            let mut removal: Vec<NodeId> = Vec::new();
            for u in 0..n as NodeId {
                // Targets deleted from u (consume the sorted run for u).
                removal.clear();
                while del_i < del_by_src.len() && del_by_src[del_i].0 == u {
                    removal.push(del_by_src[del_i].1);
                    del_i += 1;
                }
                if (u as usize) < base_n {
                    if removal.is_empty() {
                        out_targets.extend_from_slice(base.out_neighbors(u));
                    } else {
                        for &v in base.out_neighbors(u) {
                            // Remove exactly one occurrence per delete (the
                            // base is a simple graph, so one suffices).
                            if let Some(pos) = removal.iter().position(|&d| d == v) {
                                removal.swap_remove(pos);
                            } else {
                                out_targets.push(v);
                            }
                        }
                    }
                }
                while ins_i < ins_by_src.len() && ins_by_src[ins_i].0 == u {
                    out_targets.push(ins_by_src[ins_i].1);
                    ins_i += 1;
                }
                out_offsets.push(out_targets.len());
            }

            // In-adjacency: per target v, base list minus deletes plus inserts.
            let mut ins_j = 0usize;
            let mut del_j = 0usize;
            in_offsets.push(0);
            for v in 0..n as NodeId {
                removal.clear();
                while del_j < del_by_dst.len() && del_by_dst[del_j].1 == v {
                    removal.push(del_by_dst[del_j].0);
                    del_j += 1;
                }
                if (v as usize) < base_n {
                    if removal.is_empty() {
                        in_sources.extend_from_slice(base.in_neighbors(v));
                    } else {
                        for &u in base.in_neighbors(v) {
                            if let Some(pos) = removal.iter().position(|&d| d == u) {
                                removal.swap_remove(pos);
                            } else {
                                in_sources.push(u);
                            }
                        }
                    }
                }
                while ins_j < ins_by_dst.len() && ins_by_dst[ins_j].1 == v {
                    in_sources.push(ins_by_dst[ins_j].0);
                    ins_j += 1;
                }
                in_offsets.push(in_sources.len());
            }

            debug_assert_eq!(out_targets.len(), m);
            debug_assert_eq!(in_sources.len(), m);
        });
        sort_out_by_in_degree_with(g, &mut self.sort_scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::sort_out_by_in_degree;
    use crate::GraphBuilder;

    /// Reference: rebuild the expected graph through GraphBuilder.
    fn rebuilt(n: usize, edges: &[(NodeId, NodeId)]) -> DiGraph {
        let mut b = GraphBuilder::new();
        b.ensure_nodes(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        let mut g = b.build();
        sort_out_by_in_degree(&mut g);
        g
    }

    fn assert_same_edges(a: &DiGraph, b: &DiGraph) {
        assert_eq!(a.node_count(), b.node_count());
        let mut ea: Vec<_> = a.edges().collect();
        let mut eb: Vec<_> = b.edges().collect();
        ea.sort_unstable();
        eb.sort_unstable();
        assert_eq!(ea, eb);
    }

    #[test]
    fn insert_delete_and_snapshot_match_rebuild() {
        let base = rebuilt(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let mut d = DeltaGraph::new(base);
        assert!(d.insert_edge(0, 3));
        assert!(d.delete_edge(1, 2));
        assert!(!d.insert_edge(0, 3)); // duplicate
        assert!(!d.delete_edge(1, 2)); // already gone
        assert!(!d.insert_edge(2, 2)); // self loop
        assert_eq!(d.edge_count(), 5);
        assert!(d.contains_edge(0, 3));
        assert!(!d.contains_edge(1, 2));

        let snap = d.snapshot();
        assert!(snap.is_out_sorted_by_in_degree());
        assert_same_edges(
            &snap,
            &rebuilt(5, &[(0, 1), (2, 3), (3, 4), (4, 0), (0, 3)]),
        );
    }

    #[test]
    fn snapshot_matches_builder_rebuild_edge_set() {
        // Same final edge multiset and valid counting-sort order (tie
        // order inside equal in-degree runs may differ from a from-scratch
        // build; the engine only requires the in-degree ordering).
        let base = rebuilt(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let mut d = DeltaGraph::new(base);
        d.insert_edge(0, 4);
        d.insert_edge(2, 5);
        d.delete_edge(1, 2);
        let want = rebuilt(6, &[(0, 1), (2, 0), (3, 4), (4, 5), (5, 3), (0, 4), (2, 5)]);
        let snap = d.snapshot();
        assert_same_edges(&snap, &want);
        for u in snap.nodes() {
            let degs: Vec<usize> = snap
                .out_neighbors(u)
                .iter()
                .map(|&v| snap.in_degree(v))
                .collect();
            assert!(degs.windows(2).all(|w| w[0] <= w[1]), "node {u} not sorted");
        }
    }

    #[test]
    fn reinsert_of_deleted_base_edge_cancels() {
        let base = rebuilt(3, &[(0, 1), (1, 2)]);
        let mut d = DeltaGraph::new(base.clone());
        assert!(d.delete_edge(0, 1));
        assert!(d.insert_edge(0, 1));
        assert_eq!(d.overlay_len(), 0, "delete+reinsert must cancel");
        assert_eq!(d.snapshot(), base);
    }

    #[test]
    fn node_universe_grows_with_inserts() {
        let base = rebuilt(3, &[(0, 1), (1, 2)]);
        let mut d = DeltaGraph::new(base);
        assert!(d.insert_edge(2, 9));
        assert_eq!(d.node_count(), 10);
        let snap = d.snapshot();
        assert_eq!(snap.node_count(), 10);
        assert_eq!(snap.in_neighbors(9), &[2]);
        assert!(snap.out_neighbors(9).is_empty());
    }

    #[test]
    fn threshold_triggers_compaction() {
        let base = rebuilt(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut d = DeltaGraph::with_threshold(base, 2);
        d.insert_edge(3, 0);
        assert_eq!(d.compactions(), 0);
        let _ = d.snapshot(); // overlay 1 < 2: no compaction
        assert_eq!(d.compactions(), 0);
        d.insert_edge(0, 2);
        let _ = d.snapshot(); // overlay 2 >= 2: compacts
        assert_eq!(d.compactions(), 1);
        assert_eq!(d.overlay_len(), 0);
        assert_eq!(d.edge_count(), 5);
        // Deleting a formerly-overlay edge now hits the base path.
        assert!(d.delete_edge(3, 0));
        assert_eq!(d.edge_count(), 4);
    }

    #[test]
    fn force_compact_folds_overlay() {
        let base = rebuilt(3, &[(0, 1)]);
        let mut d = DeltaGraph::new(base);
        d.insert_edge(1, 2);
        d.compact();
        assert_eq!(d.overlay_len(), 0);
        assert_eq!(d.compactions(), 1);
        assert_eq!(d.edge_count(), 2);
        // Idempotent when clean.
        d.compact();
        assert_eq!(d.compactions(), 1);
    }

    #[test]
    fn edges_iterator_reflects_overlay() {
        let base = rebuilt(3, &[(0, 1), (1, 2)]);
        let mut d = DeltaGraph::new(base);
        d.delete_edge(0, 1);
        d.insert_edge(2, 0);
        let mut edges: Vec<_> = d.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(1, 2), (2, 0)]);
    }

    #[test]
    fn update_display_round_trips_format() {
        assert_eq!(EdgeUpdate::Insert(3, 7).to_string(), "+ 3 7");
        assert_eq!(EdgeUpdate::Delete(0, 1).to_string(), "- 0 1");
        assert_eq!(EdgeUpdate::Insert(3, 7).endpoints(), (3, 7));
        assert!(EdgeUpdate::Insert(0, 1).is_insert());
        assert!(!EdgeUpdate::Delete(0, 1).is_insert());
    }
}

//! Level-wise backward search (the inner loop of paper Algorithm 1).
//!
//! Given a target node `w`, the search computes deterministic estimates
//! `ψ_ℓ(v, w)` of the ℓ-hop RPPR `π_ℓ(v, w)` for every source `v` and
//! level `ℓ`, with per-entry error below the residue threshold `r_max`
//! (Lemma 3.1 / Lofgren et al. \[27\]).
//!
//! Mechanics: node `v` holds a *residue* `r_ℓ(v,w)` — unconverted
//! `h_ℓ(v,w)` hitting-probability mass. Pushing `v` at level `ℓ` converts
//! `(1−√c)·r` into the *reserve* `ψ_ℓ(v,w)` (the walk terminates at `v`)
//! and forwards `√c·r/d_in(z)` to every out-neighbor `z` at level `ℓ+1`
//! (the walk from `z` steps to `v`). Residues at or below `r_max` are
//! abandoned, bounding both work and error. Because pushes from level `ℓ`
//! only feed level `ℓ+1`, a single pass per level suffices and the search
//! ends at the first level with no residue above threshold.

use prsim_graph::{DiGraph, NodeId};

/// Output of a backward search from one target node.
#[derive(Clone, Debug)]
pub struct BackwardSearchResult {
    /// `levels[ℓ]` lists `(v, ψ_ℓ(v,w))` with `ψ > 0`, sorted by `v`.
    pub levels: Vec<Vec<(NodeId, f64)>>,
    /// Every node that held residue at any level, with its **maximum
    /// residue over all levels**, sorted by node id (empty unless the
    /// search ran with `track_touched`). This is the search's
    /// *dependence record*: an edge update `(a, b)` perturbs only `b`'s
    /// residues — the divisor `d_in(b)` changes from `k` to `k'`, scaling
    /// every inflow of `b` at every level by exactly `k/k'`, and the flow
    /// `√c·r_a/k'` from `a` appears (insert) or disappears (delete).
    /// Nothing else in the search moves unless `b`'s push status (residue
    /// vs `r_max`) or pushed values change, so `max(r_b, r_b·k/k' +
    /// √c·r_a/k') ≤ r_max` guarantees the stored reserves are
    /// bit-identical on the mutated graph. The dynamic engine's dirty-hub
    /// tracking ([`crate::index::HubTouchSets`]) is built on exactly this
    /// invariant.
    pub touched: Vec<(NodeId, f64)>,
    /// Number of residue pushes performed (cost instrumentation).
    pub pushes: usize,
    /// Total edge traversals performed (cost instrumentation).
    pub edge_traversals: usize,
}

impl BackwardSearchResult {
    /// Reserve `ψ_ℓ(v, w)` (0.0 when absent).
    pub fn reserve(&self, level: usize, v: NodeId) -> f64 {
        self.levels
            .get(level)
            .and_then(|lv| {
                lv.binary_search_by_key(&v, |&(node, _)| node)
                    .ok()
                    .map(|i| lv[i].1)
            })
            .unwrap_or(0.0)
    }

    /// Total number of stored `(v, ℓ)` entries.
    pub fn entry_count(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }
}

/// Dense scratch state of [`backward_search`], reused across searches.
///
/// It grows to the graph's node count on first use (and again whenever a
/// larger graph comes along) and is all-zero between searches, so one
/// workspace serves any number of searches over graphs of any size, with
/// no allocation after the first. Hold one per worker thread: a fresh
/// workspace per search would cost `O(n)` each time.
#[derive(Clone, Debug, Default)]
pub struct BackwardWorkspace {
    /// Next-level residue per node.
    acc: Vec<f64>,
    /// Maximum residue per node over the levels so far (only grown and
    /// written by searches that track the touched record).
    maxres: Vec<f64>,
    /// One bit per node holding next-level residue.
    next: Vec<u64>,
    /// One bit per node that held residue at any level (tracking only).
    seen: Vec<u64>,
    /// The current level's `(node, residue)`, ascending by node id.
    frontier: Vec<(NodeId, f64)>,
}

impl BackwardWorkspace {
    /// An empty workspace; it sizes itself on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize, track_touched: bool) {
        let words = n.div_ceil(64);
        if self.acc.len() < n {
            self.acc.resize(n, 0.0);
            self.next.resize(words, 0);
            // A frontier never holds more than n nodes: room for all of
            // them up front means no search ever grows it (memory that
            // is never written is never made resident).
            self.frontier.clear();
            self.frontier.reserve_exact(n);
        }
        if track_touched && self.maxres.len() < n {
            self.maxres.resize(n, 0.0);
            self.seen.resize(words, 0);
        }
    }

    /// Bytes the workspace holds allocated (memory accounting).
    pub fn capacity_bytes(&self) -> usize {
        (self.acc.capacity() + self.maxres.capacity()) * std::mem::size_of::<f64>()
            + (self.next.capacity() + self.seen.capacity()) * std::mem::size_of::<u64>()
            + self.frontier.capacity() * std::mem::size_of::<(NodeId, f64)>()
    }

    /// Whether every dense array is back to zero (the between-searches
    /// invariant).
    #[cfg(test)]
    fn is_clear(&self) -> bool {
        self.acc
            .iter()
            .chain(&self.maxres)
            .all(|&x| x.to_bits() == 0)
            && self.next.iter().chain(&self.seen).all(|&w| w == 0)
    }
}

/// One entry of a stored touched record: a node the search touched and an
/// upper bound on its maximum residue over all levels, rounded *up* to
/// `f32` (8 bytes instead of the 16 of an exact `(u32, f64)` pair).
///
/// The dirty rule ([`crate::index::HubTouchSets::plan_update`]) only
/// compares bounds with `r_max` after monotone rescalings, so a bound
/// rounded up stays a sound bound: at worst a hub whose exact bound sits
/// within one `f32` ulp of `r_max` is re-searched when it need not be,
/// which changes nothing the search stores.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TouchEntry {
    /// The touched node.
    pub node: NodeId,
    /// Upper bound on the node's maximum residue, rounded up to `f32`.
    pub bound: f32,
}

impl TouchEntry {
    /// The entry for `node` with bound `x` rounded up to the next `f32`
    /// at or above it (`x` is a nonnegative residue bound).
    #[inline]
    pub fn new(node: NodeId, x: f64) -> Self {
        TouchEntry {
            node,
            bound: f32_at_least(x),
        }
    }
}

/// The smallest `f32` that is `>= x`, for nonnegative `x` (an `f64` too
/// large for `f32` rounds to infinity).
#[inline]
fn f32_at_least(x: f64) -> f32 {
    debug_assert!(x >= 0.0, "residue bounds are nonnegative: {x}");
    let f = x as f32;
    if f64::from(f) < x {
        // Round-to-nearest went down; step one ulp up (positive finite
        // floats order like their bit patterns).
        f32::from_bits(f.to_bits() + 1)
    } else {
        f
    }
}

/// Receives a search's output as [`search_into`] produces it, so callers
/// decide what to keep and where: the allocating
/// [`backward_search`] builds a [`BackwardSearchResult`], the index
/// writes straight into reused buffers.
pub(crate) trait SearchSink {
    /// Node `v` was pushed at the current level with reserve `psi`
    /// (nodes arrive in ascending id order within a level).
    fn reserve(&mut self, v: NodeId, psi: f64);
    /// The current level ended; called once per level that pushed.
    fn end_level(&mut self);
    /// Whether the search should build the touched record.
    fn tracks_touched(&self) -> bool;
    /// The touched record follows: `count` calls to [`Self::touched`],
    /// ascending by node id.
    fn begin_touched(&mut self, count: usize);
    /// One node of the touched record with its maximum residue.
    fn touched(&mut self, v: NodeId, max_residue: f64);
}

/// Collects a search into a [`BackwardSearchResult`].
struct ResultSink {
    result: BackwardSearchResult,
    level: Vec<(NodeId, f64)>,
    track: bool,
}

impl SearchSink for ResultSink {
    fn reserve(&mut self, v: NodeId, psi: f64) {
        self.level.push((v, psi));
    }

    fn end_level(&mut self) {
        self.result.levels.push(std::mem::take(&mut self.level));
    }

    fn tracks_touched(&self) -> bool {
        self.track
    }

    fn begin_touched(&mut self, count: usize) {
        self.result.touched = Vec::with_capacity(count);
    }

    fn touched(&mut self, v: NodeId, max_residue: f64) {
        self.result.touched.push((v, max_residue));
    }
}

/// Runs the backward search from target `w` with residue threshold
/// `r_max`, exploring at most `max_level` levels, in the scratch state of
/// `ws`. The touched record ([`BackwardSearchResult::touched`]) is only
/// built when `track_touched` is set.
///
/// Every stored reserve satisfies `|ψ_ℓ(v,w) − π_ℓ(v,w)| < r_max·(1−√c)⁻¹`
/// in the worst case and `< r_max` under the paper's accounting
/// (Lemma 3.1); the property tests check against the exact oracle.
pub fn backward_search(
    g: &DiGraph,
    ws: &mut BackwardWorkspace,
    sqrt_c: f64,
    w: NodeId,
    r_max: f64,
    max_level: usize,
    track_touched: bool,
) -> BackwardSearchResult {
    let mut sink = ResultSink {
        result: BackwardSearchResult {
            levels: Vec::new(),
            touched: Vec::new(),
            pushes: 0,
            edge_traversals: 0,
        },
        level: Vec::new(),
        track: track_touched,
    };
    let (pushes, edge_traversals) = search_into(g, ws, sqrt_c, w, r_max, max_level, &mut sink);
    sink.result.pushes = pushes;
    sink.result.edge_traversals = edge_traversals;
    sink.result
}

/// The search kernel behind [`backward_search`], streaming its output
/// into `sink` and returning `(pushes, edge_traversals)`. It allocates
/// nothing itself once `ws` is sized to the graph; what the output costs
/// is up to the sink.
pub(crate) fn search_into<S: SearchSink>(
    g: &DiGraph,
    ws: &mut BackwardWorkspace,
    sqrt_c: f64,
    w: NodeId,
    r_max: f64,
    max_level: usize,
    sink: &mut S,
) -> (usize, usize) {
    let n = g.node_count();
    assert!((w as usize) < n, "target {w} out of range for {n} nodes");
    let alpha = 1.0 - sqrt_c;
    let track_touched = sink.tracks_touched();
    let (mut pushes, mut edge_traversals) = (0usize, 0usize);

    // Dense per-node state instead of a traversal log: each level scatters
    // its pushes into `acc` and marks the receivers in the `next` bitset;
    // the next frontier is then read off the set bits in ascending id
    // order, taking (and zeroing) each node's sum. The frontier is walked
    // in id order and each out-list in adjacency order, so every node's
    // inflows are summed in push order starting from its first inflow —
    // and every reserve, bit for bit, is what a sorted per-node coalesce
    // of the pushes gives (the test oracle). The word scan covers only the
    // span of words the level wrote, and the touched record is one scan of
    // `seen`.
    ws.ensure(n, track_touched);
    let BackwardWorkspace {
        acc,
        maxres,
        next,
        seen,
        frontier,
    } = ws;
    frontier.clear();
    frontier.push((w, 1.0));
    let (mut seen_lo, mut seen_hi) = (w as usize >> 6, w as usize >> 6);
    if track_touched {
        maxres[w as usize] = 1.0;
        seen[w as usize >> 6] |= 1 << (w & 63);
    }
    let use_inline_degs = g.is_out_sorted_by_in_degree();

    for _level in 0..=max_level {
        let pushed = frontier.iter().filter(|&&(_, r)| r > r_max).count();
        if pushed == 0 {
            break;
        }
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        for &(v, r) in frontier.iter() {
            if r <= r_max {
                continue; // abandoned residue: bounded error
            }
            sink.reserve(v, alpha * r);
            if use_inline_degs {
                // Sorted graphs carry the targets' in-degrees inline with
                // the out-adjacency: one sequential stream, no random
                // in_degrees probe per neighbor.
                let (neigh, degs) = g.out_neighbors_with_in_degrees(v);
                edge_traversals += neigh.len();
                for (&z, &dz) in neigh.iter().zip(degs) {
                    debug_assert!(dz >= 1, "out-neighbor must have an in-edge");
                    let (z, word) = (z as usize, z as usize >> 6);
                    acc[z] += sqrt_c * r / dz as f64;
                    next[word] |= 1 << (z & 63);
                    lo = lo.min(word);
                    hi = hi.max(word);
                }
            } else {
                let neigh = g.out_neighbors(v);
                edge_traversals += neigh.len();
                for &z in neigh {
                    let din = g.in_degree(z) as f64;
                    debug_assert!(din >= 1.0, "out-neighbor must have an in-edge");
                    let (z, word) = (z as usize, z as usize >> 6);
                    acc[z] += sqrt_c * r / din;
                    next[word] |= 1 << (z & 63);
                    lo = lo.min(word);
                    hi = hi.max(word);
                }
            }
        }
        pushes += pushed;
        // The frontier is sorted, so the level's reserves arrive sorted by v.
        sink.end_level();

        frontier.clear();
        // Empty when nothing received residue (lo = usize::MAX > hi).
        for word in lo..=hi {
            let bits = std::mem::take(&mut next[word]);
            let mut rest = bits;
            while rest != 0 {
                let z = (word << 6) | rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let r = std::mem::take(&mut acc[z]);
                frontier.push((z as NodeId, r));
                if track_touched {
                    maxres[z] = maxres[z].max(r);
                }
            }
            if track_touched {
                seen[word] |= bits;
            }
        }
        seen_lo = seen_lo.min(lo);
        seen_hi = seen_hi.max(hi);
    }

    if track_touched {
        let count = seen[seen_lo..=seen_hi]
            .iter()
            .map(|bits| bits.count_ones() as usize)
            .sum();
        sink.begin_touched(count);
        for (word, bits) in seen[seen_lo..=seen_hi].iter_mut().enumerate() {
            let mut rest = std::mem::take(bits);
            while rest != 0 {
                let z = ((seen_lo + word) << 6) | rest.trailing_zeros() as usize;
                rest &= rest - 1;
                sink.touched(z as NodeId, std::mem::take(&mut maxres[z]));
            }
        }
    }
    (pushes, edge_traversals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::exact_lhop_rppr_to;
    use proptest::prelude::*;
    use prsim_graph::ordering::sort_out_by_in_degree;

    const SQRT_C: f64 = 0.774_596_669_241_483_4;

    /// A tracked search on its own workspace (tests only: production
    /// callers hold one workspace per worker).
    fn search(g: &DiGraph, w: NodeId, r_max: f64, max_level: usize) -> BackwardSearchResult {
        backward_search(
            g,
            &mut BackwardWorkspace::new(),
            SQRT_C,
            w,
            r_max,
            max_level,
            true,
        )
    }

    #[test]
    fn tiny_threshold_recovers_exact_values_on_path() {
        let g = prsim_gen::toys::path(4); // walks flow 3 -> 2 -> 1 -> 0
        let res = search(&g, 0, 1e-12, 32);
        let alpha = 1.0 - SQRT_C;
        assert!((res.reserve(0, 0) - alpha).abs() < 1e-9);
        assert!((res.reserve(1, 1) - alpha * SQRT_C).abs() < 1e-9);
        assert!((res.reserve(2, 2) - alpha * SQRT_C.powi(2)).abs() < 1e-9);
        assert!((res.reserve(3, 3) - alpha * SQRT_C.powi(3)).abs() < 1e-9);
        // Nothing beyond the path end.
        assert!(res.levels.len() <= 4);
    }

    #[test]
    fn reserves_close_to_exact_on_random_graph() {
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(150, 5.0, 2.0, 4));
        let r_max = 1e-4;
        let mut ws = BackwardWorkspace::new();
        for w in [0u32, 3, 75] {
            let res = backward_search(&g, &mut ws, SQRT_C, w, r_max, 64, false);
            let exact = exact_lhop_rppr_to(&g, SQRT_C, w, res.levels.len().max(1));
            for (l, level) in res.levels.iter().enumerate() {
                for &(v, psi) in level {
                    let truth = exact[l][v as usize];
                    // ψ never exceeds π and the deficit is bounded by the
                    // abandoned residue mass; empirically well under r_max
                    // scaled by the level count.
                    assert!(psi <= truth + 1e-12, "ψ {psi} > π {truth}");
                    assert!(
                        truth - psi < 50.0 * r_max,
                        "level {l}, node {v}: ψ={psi}, π={truth}"
                    );
                }
            }
        }
    }

    #[test]
    fn larger_threshold_costs_less() {
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(400, 8.0, 2.0, 7));
        let cheap = search(&g, 0, 1e-2, 64);
        let costly = search(&g, 0, 1e-5, 64);
        assert!(cheap.pushes < costly.pushes);
        assert!(cheap.entry_count() <= costly.entry_count());
    }

    #[test]
    fn level_zero_always_contains_target() {
        let g = prsim_gen::toys::cycle(5);
        let res = search(&g, 2, 1e-3, 64);
        let alpha = 1.0 - SQRT_C;
        assert!((res.reserve(0, 2) - alpha).abs() < 1e-12);
    }

    #[test]
    fn dangling_target_has_only_level_zero_when_unreachable() {
        // star_out: hub 0 -> leaves; target = leaf 1. Walks from any v can
        // reach 1 only if 1 is on an in-path... in-neighbors of 1 = {0};
        // backward search pushes along out-edges of 1: none. So only the
        // self reserve exists.
        let g = prsim_gen::toys::star_out(4);
        let res = search(&g, 1, 1e-9, 64);
        assert_eq!(res.levels.len(), 1);
        assert_eq!(res.levels[0].len(), 1);
        assert_eq!(res.levels[0][0].0, 1);
    }

    fn touched_residue(res: &BackwardSearchResult, v: NodeId) -> Option<f64> {
        res.touched
            .binary_search_by_key(&v, |&(x, _)| x)
            .ok()
            .map(|i| res.touched[i].1)
    }

    #[test]
    fn touched_covers_all_reserve_nodes_and_their_frontier() {
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(120, 5.0, 2.0, 11));
        let r_max = 1e-3;
        let alpha = 1.0 - SQRT_C;
        let res = search(&g, 7, r_max, 64);
        // Sorted by node, positive residues, target present with max 1.
        assert!(res.touched.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(res.touched.iter().all(|&(_, r)| r > 0.0));
        assert_eq!(touched_residue(&res, 7), Some(1.0));
        // Every node with a stored reserve was pushed (residue > r_max),
        // so its recorded max residue exceeds r_max and matches the
        // largest reserve/α; every out-neighbor received residue.
        for level in &res.levels {
            for &(v, psi) in level {
                let r = touched_residue(&res, v).expect("reserve node is touched");
                assert!(r > r_max, "pushed node {v} max residue {r}");
                assert!(r >= psi / alpha - 1e-12, "residue {r} < ψ/α for {v}");
                for &z in g.out_neighbors(v) {
                    assert!(
                        touched_residue(&res, z).is_some(),
                        "frontier node {z} of pushed {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn untouched_edge_updates_leave_search_invariant() {
        // The dirty rule's contract: if neither endpoint of a changed edge
        // is in `touched`, re-running the search on the mutated graph
        // yields identical levels AND identical touched records.
        use prsim_graph::delta::DeltaGraph;
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(200, 4.0, 2.2, 13));
        let w = 3;
        let before = search(&g, w, 1e-3, 64);
        // Find an edge with both endpoints untouched.
        let edge = g.edges().find(|&(u, v)| {
            touched_residue(&before, u).is_none() && touched_residue(&before, v).is_none()
        });
        let Some((u, v)) = edge else {
            // Search touched everything; nothing to assert on this graph.
            return;
        };
        let mut d = DeltaGraph::new(g);
        assert!(d.delete_edge(u, v));
        let after = search(&d.snapshot(), w, 1e-3, 64);
        assert_eq!(before.levels, after.levels);
        assert_eq!(before.touched, after.touched);
    }

    #[test]
    fn clean_endpoint_updates_rescale_residues_exactly() {
        // The self-preservation half of the dirty rule: when neither
        // endpoint is pushed (max residue ≤ r_max before and after the
        // d_in rescale), the reserves are unchanged and every residue of
        // the target endpoint scales by exactly k/k'.
        use prsim_graph::delta::DeltaGraph;
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(250, 5.0, 2.1, 29));
        let w = 5;
        let r_max = 1e-3;
        let before = search(&g, w, r_max, 64);
        // A clean insert target: b touched but far from pushed, source
        // untouched entirely.
        let pick = g.nodes().find_map(|a| {
            if touched_residue(&before, a).is_some() {
                return None;
            }
            before
                .touched
                .iter()
                .find(|&&(b, r)| b != a && r <= 0.25 * r_max && !g.out_neighbors(a).contains(&b))
                .map(|&(b, _)| (a, b))
        });
        let Some((a, b)) = pick else { return };
        let k = g.in_degree(b) as f64;
        let mut d = DeltaGraph::new(g);
        assert!(d.insert_edge(a, b));
        let after = search(&d.snapshot(), w, r_max, 64);
        assert_eq!(before.levels, after.levels, "reserves must not change");
        let rb_before = touched_residue(&before, b).unwrap();
        let rb_after = touched_residue(&after, b).unwrap();
        let expect = rb_before * k / (k + 1.0);
        assert!(
            (rb_after - expect).abs() <= 1e-12 * expect.max(1e-300),
            "residue {rb_before} should rescale to {expect}, got {rb_after}"
        );
    }

    #[test]
    fn touch_entries_round_bounds_up_to_the_nearest_f32() {
        for x in [
            0.0,
            1.0,
            0.1,
            SQRT_C,
            1e-3 / 3.0,
            1e-40,
            f64::MIN_POSITIVE,
            3.4e38,
            1e39,
        ] {
            let b = f64::from(TouchEntry::new(0, x).bound);
            assert!(b >= x, "{x} rounded down to {b}");
            // Nothing representable sits between x and its bound.
            let below = f64::from(f32::from_bits((b as f32).to_bits().saturating_sub(1)));
            assert!(b == x || below < x, "{x} rounded past {below} to {b}");
        }
    }

    #[test]
    fn respects_max_level() {
        let g = prsim_gen::toys::cycle(4);
        let res = search(&g, 0, 1e-15, 5);
        assert!(res.levels.len() <= 6);
    }

    #[test]
    fn monotone_error_in_threshold() {
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(200, 6.0, 2.5, 9));
        let exact = exact_lhop_rppr_to(&g, SQRT_C, 5, 20);
        let mut ws = BackwardWorkspace::new();
        let mut prev_err = f64::INFINITY;
        for r_max in [1e-2, 1e-3, 1e-4, 1e-5] {
            let res = backward_search(&g, &mut ws, SQRT_C, 5, r_max, 20, false);
            // Max error over the exact table's support.
            let mut err: f64 = 0.0;
            for (l, level) in exact.iter().enumerate() {
                for (v, &truth) in level.iter().enumerate() {
                    if truth > 0.0 {
                        err = err.max((truth - res.reserve(l, v as u32)).abs());
                    }
                }
            }
            assert!(
                err <= prev_err + 1e-12,
                "error should shrink with r_max: {err} > {prev_err}"
            );
            prev_err = err;
        }
    }

    /// The sorted-vector kernel the dense one replaced, kept as the
    /// bit-identity oracle: pushes append `(z, Δ)` to a log that a stable
    /// sort and a linear coalesce turn into the next frontier, and a
    /// sorted merge folds each level into the per-node maximum residues.
    fn oracle_search(
        g: &DiGraph,
        sqrt_c: f64,
        w: NodeId,
        r_max: f64,
        max_level: usize,
    ) -> BackwardSearchResult {
        let alpha = 1.0 - sqrt_c;
        let mut result = BackwardSearchResult {
            levels: Vec::new(),
            touched: Vec::new(),
            pushes: 0,
            edge_traversals: 0,
        };
        let mut touched: Vec<(NodeId, f64)> = vec![(w, 1.0)];
        let mut frontier: Vec<(NodeId, f64)> = vec![(w, 1.0)];
        let mut next_log: Vec<(NodeId, f64)> = Vec::new();
        for _level in 0..=max_level {
            let mut reserves = Vec::new();
            next_log.clear();
            for &(v, r) in &frontier {
                if r <= r_max {
                    continue;
                }
                result.pushes += 1;
                reserves.push((v, alpha * r));
                if g.is_out_sorted_by_in_degree() {
                    let (neigh, degs) = g.out_neighbors_with_in_degrees(v);
                    for (&z, &dz) in neigh.iter().zip(degs) {
                        result.edge_traversals += 1;
                        next_log.push((z, sqrt_c * r / dz as f64));
                    }
                } else {
                    for &z in g.out_neighbors(v) {
                        result.edge_traversals += 1;
                        next_log.push((z, sqrt_c * r / g.in_degree(z) as f64));
                    }
                }
            }
            if reserves.is_empty() {
                break;
            }
            result.levels.push(reserves);
            // Stable sort: equal ids keep push order, fixing each node's
            // accumulation order.
            next_log.sort_by_key(|&(z, _)| z);
            let mut coalesced: Vec<(NodeId, f64)> = Vec::new();
            for &(z, delta) in &next_log {
                match coalesced.last_mut() {
                    Some(last) if last.0 == z => last.1 += delta,
                    _ => coalesced.push((z, delta)),
                }
            }
            let mut merged = Vec::with_capacity(touched.len() + coalesced.len());
            let (mut i, mut j) = (0, 0);
            while i < touched.len() && j < coalesced.len() {
                match touched[i].0.cmp(&coalesced[j].0) {
                    std::cmp::Ordering::Less => {
                        merged.push(touched[i]);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push(coalesced[j]);
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push((touched[i].0, touched[i].1.max(coalesced[j].1)));
                        i += 1;
                        j += 1;
                    }
                }
            }
            merged.extend_from_slice(&touched[i..]);
            merged.extend_from_slice(&coalesced[j..]);
            touched = merged;
            frontier = coalesced;
        }
        result.touched = touched;
        result
    }

    fn bits(list: &[(NodeId, f64)]) -> Vec<(NodeId, u64)> {
        list.iter().map(|&(v, x)| (v, x.to_bits())).collect()
    }

    /// Runs the dense kernel tracked and untracked on `ws` against the
    /// oracle and checks bit-identity and the all-zero workspace.
    fn check_against_oracle(
        g: &DiGraph,
        ws: &mut BackwardWorkspace,
        w: NodeId,
        r_max: f64,
        max_level: usize,
    ) -> Result<(), String> {
        let want = oracle_search(g, SQRT_C, w, r_max, max_level);
        let want_levels: Vec<_> = want.levels.iter().map(|l| bits(l)).collect();
        for track in [true, false] {
            let got = backward_search(g, ws, SQRT_C, w, r_max, max_level, track);
            let case = format!(
                "n={} w={w} r_max={r_max:e} max_level={max_level} track={track} sorted={}",
                g.node_count(),
                g.is_out_sorted_by_in_degree()
            );
            if !ws.is_clear() {
                return Err(format!("workspace not all-zero after the search ({case})"));
            }
            let got_levels: Vec<_> = got.levels.iter().map(|l| bits(l)).collect();
            if got_levels != want_levels {
                return Err(format!("levels differ ({case})"));
            }
            let want_touched = if track {
                bits(&want.touched)
            } else {
                Vec::new()
            };
            if bits(&got.touched) != want_touched {
                return Err(format!("touched records differ ({case})"));
            }
            if (got.pushes, got.edge_traversals) != (want.pushes, want.edge_traversals) {
                return Err(format!(
                    "cost counters differ: ({}, {}) vs ({}, {}) ({case})",
                    got.pushes, got.edge_traversals, want.pushes, want.edge_traversals
                ));
            }
        }
        Ok(())
    }

    /// Random directed graphs on 1..200 nodes: several bitset words, some
    /// nodes without in- or out-edges.
    fn arb_digraph() -> impl Strategy<Value = DiGraph> {
        (1usize..200).prop_flat_map(|n| {
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..3 * n).prop_map(move |edges| {
                let mut edges: Vec<_> = edges.into_iter().filter(|(u, v)| u != v).collect();
                edges.sort_unstable();
                edges.dedup();
                DiGraph::from_edges(n, &edges)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn dense_kernel_is_bit_identical_to_the_sorted_vector_oracle(
            graphs in proptest::collection::vec(arb_digraph(), 1..5),
            r_exp in 2i32..10,
            depth in 0usize..4,
            offset in 0usize..64,
        ) {
            let r_max = 10f64.powi(-r_exp);
            let max_level = [0, 1, 2, 40][depth];
            // One workspace across graphs that shrink and grow.
            let mut ws = BackwardWorkspace::new();
            for g in graphs {
                let mut sorted = g.clone();
                sort_out_by_in_degree(&mut sorted);
                let n = g.node_count();
                for layout in [&g, &sorted] {
                    for w in (offset % n..n).step_by(n.div_ceil(6)) {
                        if let Err(msg) = check_against_oracle(layout, &mut ws, w as NodeId, r_max, max_level) {
                            prop_assert!(false, "{msg}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dense_kernel_matches_the_oracle_on_power_law_graphs() {
        // Directed Chung-Lu graphs: heavy-tailed frontiers that span many
        // bitset words; one workspace across sizes that grow and shrink.
        let mut ws = BackwardWorkspace::new();
        for (i, n) in [2_000usize, 60, 3_000, 700].into_iter().enumerate() {
            let cfg = prsim_gen::ChungLuConfig::new(n, 6.0, 2.1, 100 + i as u64);
            let g = prsim_gen::chung_lu_directed(cfg, 2.4, 7 + i as u64);
            let mut sorted = g.clone();
            sort_out_by_in_degree(&mut sorted);
            let hub = (0..n as NodeId).max_by_key(|&v| g.out_degree(v)).unwrap();
            for layout in [&g, &sorted] {
                for w in [hub, 0, (n / 2) as NodeId] {
                    for (r_max, max_level) in [(1e-3, 64), (1e-5, 64), (1e-7, 3)] {
                        check_against_oracle(layout, &mut ws, w, r_max, max_level)
                            .unwrap_or_else(|msg| panic!("{msg}"));
                    }
                }
            }
        }
    }
}

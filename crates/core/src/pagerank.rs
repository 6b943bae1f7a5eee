//! Reverse PageRank and ℓ-hop reverse personalized PageRank (RPPR).
//!
//! The reverse PageRank `π(w)` (paper §2) is the probability that a
//! √c-walk from a *uniformly random* source terminates at `w`; it equals
//! ordinary PageRank with damping `√c` on the transposed graph. The hub
//! selection of Algorithm 1, the complexity bounds of Theorems 3.11/3.12
//! and the second-moment hardness measure `Σ_w π(w)²` all live here.

use prsim_graph::{DiGraph, NodeId};
use rand::Rng;
use std::collections::HashMap;

use crate::walk::{sample_terminal, Terminal};

/// Computes the reverse PageRank vector `π` by forward propagation of the
/// walk-occupancy distribution (exact up to the truncation tolerance).
///
/// Iteration: let `p_t(x)` be the probability that a √c-walk from a
/// uniform source is alive at step `t` at node `x`. Then
/// `π(w) = (1−√c)·Σ_t p_t(w)` and
/// `p_{t+1}(z) = √c · Σ_{x ∈ O(z)} p_t(x)/d_in(x)` (the walk moves from
/// `x` to one of its in-neighbors, i.e. `z` receives from nodes `x` it
/// points to). Mass that survives its flip at a dangling node dies, which
/// is why `Σ_w π(w) ≤ 1` with equality iff no dangling node is reachable.
///
/// Stops when the total live mass drops below `tol` or after `max_iter`
/// levels. With survival rate `√c`, live mass at level `t` is at most
/// `(√c)^t`, so `max_iter = log(tol)/log(√c)` always suffices.
pub fn reverse_pagerank(g: &DiGraph, sqrt_c: f64, tol: f64, max_iter: usize) -> Vec<f64> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let alpha = 1.0 - sqrt_c;
    let mut p = vec![1.0 / n as f64; n];
    let mut pi = vec![0.0; n];
    let mut next = vec![0.0; n];
    for _ in 0..max_iter {
        let mut live = 0.0;
        for x in 0..n {
            let mass = p[x];
            if mass == 0.0 {
                continue;
            }
            pi[x] += alpha * mass;
            let moving = sqrt_c * mass;
            let ins = g.in_neighbors(x as NodeId);
            if ins.is_empty() {
                continue; // dangling: moving mass dies
            }
            let share = moving / ins.len() as f64;
            for &z in ins {
                next[z as usize] += share;
                live += share;
            }
        }
        std::mem::swap(&mut p, &mut next);
        next.iter_mut().for_each(|x| *x = 0.0);
        if live < tol {
            break;
        }
    }
    // Flush whatever live mass remains (truncation-level termination).
    for x in 0..n {
        pi[x] += alpha * p[x];
    }
    pi
}

/// Outcome of a warm-start reverse-PageRank refinement.
#[derive(Clone, Copy, Debug, Default)]
pub struct RefineOutcome {
    /// Richardson iterations performed.
    pub iterations: usize,
    /// L1 norm of the residual before any iteration (how stale the
    /// warm-start vector was).
    pub initial_residual: f64,
    /// L1 norm of the residual when iteration stopped.
    pub final_residual: f64,
    /// Total L1 mass moved in `π` by this refinement — the drift signal
    /// the dynamic engine accumulates against its rebuild budget.
    pub l1_change: f64,
}

/// Refines a reverse-PageRank vector in place toward the exact solution
/// for the (possibly mutated) graph `g`, warm-starting from the previous
/// vector.
///
/// The exact vector solves the linear system `π/α = p₀ + A·(π/α)` where
/// `p₀` is uniform `1/n` and `(A·x)(z) = √c · Σ_{v ∈ O(z)} x(v)/d_in(v)`
/// (the occupancy-propagation operator of [`reverse_pagerank`], whose L1
/// operator norm is at most `√c`). Refinement is Richardson iteration on
/// the *residual*: with `g = π/α` and `r = p₀ + A·g − g`, repeatedly
/// `g += r; r ← A·r` until `‖r‖₁ < tol`. Each step contracts the
/// residual by `√c`, so after `k` edge updates the warm start converges
/// in `O(log(‖r₀‖/tol))` iterations — `‖r₀‖` is tiny when few edges
/// changed, which is the whole point.
///
/// `pi` is resized (with zeros) when `g` has grown new nodes. Passing an
/// all-zero vector computes the PageRank from scratch, which is how the
/// equivalence tests pin this against [`reverse_pagerank`].
pub fn refine_reverse_pagerank(
    g: &DiGraph,
    sqrt_c: f64,
    tol: f64,
    max_iter: usize,
    pi: &mut Vec<f64>,
) -> RefineOutcome {
    refine_reverse_pagerank_with(g, sqrt_c, tol, max_iter, pi, &mut RefineScratch::default())
}

/// The four `n`-vectors of a refinement (occupancy, scaled occupancy,
/// residual and next residual), kept by a caller that refines on every
/// update so that a refinement allocates nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct RefineScratch {
    occ: Vec<f64>,
    scaled: Vec<f64>,
    r: Vec<f64>,
    next_r: Vec<f64>,
}

impl RefineScratch {
    /// Bytes the four vectors hold allocated (memory accounting).
    pub(crate) fn capacity_bytes(&self) -> usize {
        (self.occ.capacity() + self.scaled.capacity() + self.r.capacity() + self.next_r.capacity())
            * std::mem::size_of::<f64>()
    }
}

/// [`refine_reverse_pagerank`] on caller-held scratch vectors; the result
/// is bit-identical.
pub(crate) fn refine_reverse_pagerank_with(
    g: &DiGraph,
    sqrt_c: f64,
    tol: f64,
    max_iter: usize,
    pi: &mut Vec<f64>,
    scratch: &mut RefineScratch,
) -> RefineOutcome {
    let n = g.node_count();
    pi.resize(n, 0.0);
    if n == 0 {
        return RefineOutcome::default();
    }
    let alpha = 1.0 - sqrt_c;
    let inv_n = 1.0 / n as f64;

    // Occupancy g = π/α and per-node x/d_in scratch.
    let RefineScratch {
        occ,
        scaled,
        r,
        next_r,
    } = scratch;
    occ.clear();
    occ.extend(pi.iter().map(|&x| x / alpha));
    scaled.clear();
    scaled.resize(n, 0.0);
    let in_degrees = g.in_degrees();

    // (A·x)(z) = √c Σ_{v ∈ O(z)} x(v)/d_in(v), reading `scaled[v]`.
    let apply = |scaled: &[f64], out: &mut Vec<f64>| {
        out.clear();
        for z in 0..n as NodeId {
            let mut acc = 0.0;
            for &v in g.out_neighbors(z) {
                acc += scaled[v as usize];
            }
            out.push(sqrt_c * acc);
        }
    };

    // r = p0 + A·occ − occ.
    for (slot, (&x, &d)) in scaled.iter_mut().zip(occ.iter().zip(in_degrees)) {
        *slot = if d == 0 { 0.0 } else { x / d as f64 };
    }
    apply(scaled, r);
    for (slot, &x) in r.iter_mut().zip(occ.iter()) {
        *slot += inv_n - x;
    }

    let mut outcome = RefineOutcome {
        initial_residual: r.iter().map(|x| x.abs()).sum(),
        ..Default::default()
    };
    let mut residual_l1 = outcome.initial_residual;
    while residual_l1 >= tol && outcome.iterations < max_iter {
        outcome.iterations += 1;
        outcome.l1_change += alpha * residual_l1;
        for v in 0..n {
            occ[v] += r[v];
            let d = in_degrees[v];
            scaled[v] = if d == 0 { 0.0 } else { r[v] / d as f64 };
        }
        apply(scaled, next_r);
        std::mem::swap(r, next_r);
        residual_l1 = r.iter().map(|x| x.abs()).sum();
    }
    outcome.final_residual = residual_l1;

    for (slot, &o) in pi.iter_mut().zip(occ.iter()) {
        *slot = alpha * o;
    }
    outcome
}

/// Monte-Carlo estimate of reverse PageRank from `nr` walks per the
/// definition — used to cross-validate [`reverse_pagerank`] in tests.
pub fn reverse_pagerank_monte_carlo<R: Rng + ?Sized>(
    g: &DiGraph,
    sqrt_c: f64,
    nr: usize,
    max_len: usize,
    rng: &mut R,
) -> Vec<f64> {
    let n = g.node_count();
    let mut counts = vec![0usize; n];
    for _ in 0..nr {
        let src = rng.gen_range(0..n) as NodeId;
        if let Terminal::At { node, .. } = sample_terminal(g, sqrt_c, src, max_len, rng) {
            counts[node as usize] += 1;
        }
    }
    counts.into_iter().map(|c| c as f64 / nr as f64).collect()
}

/// Exact ℓ-hop RPPR `π_ℓ(·, w)` *to* a fixed target `w` for all sources,
/// by dense level-wise propagation of Eq. (3):
/// `π_{ℓ+1}(y,w) = Σ_{x ∈ I(y)} √c/d_in(y) · π_ℓ(x,w)`.
///
/// Returns `table[ℓ][v] = π_ℓ(v, w)` for `ℓ = 0..=levels`. Cost is
/// `O(levels · m)` — this is the brute-force oracle the backward-walk
/// estimators are tested against; production code uses
/// [`crate::backward`] / [`crate::vbbw`].
pub fn exact_lhop_rppr_to(g: &DiGraph, sqrt_c: f64, w: NodeId, levels: usize) -> Vec<Vec<f64>> {
    let n = g.node_count();
    let alpha = 1.0 - sqrt_c;
    // h[ℓ][v] = Pr[walk from v is alive at step ℓ at w]; π_ℓ = α·h_ℓ.
    let mut h = vec![0.0; n];
    h[w as usize] = 1.0;
    let mut out = Vec::with_capacity(levels + 1);
    out.push(h.iter().map(|&x| alpha * x).collect::<Vec<_>>());
    for _ in 0..levels {
        let mut nh = vec![0.0; n];
        for (y, slot) in nh.iter_mut().enumerate() {
            let din = g.in_degree(y as NodeId);
            if din == 0 {
                continue;
            }
            let mut acc = 0.0;
            for &x in g.in_neighbors(y as NodeId) {
                acc += h[x as usize];
            }
            *slot = sqrt_c * acc / din as f64;
        }
        h = nh;
        out.push(h.iter().map(|&x| alpha * x).collect::<Vec<_>>());
    }
    out
}

/// Second moment `Σ_w π(w)²` of a reverse-PageRank vector — the paper's
/// hardness measure for SimRank computation (Theorem 3.11).
pub fn second_moment(pi: &[f64]) -> f64 {
    pi.iter().map(|&x| x * x).sum()
}

/// Returns node ids sorted by descending reverse PageRank (ties broken by
/// node id for determinism) — the hub order of Algorithm 1.
pub fn rank_by_pagerank(pi: &[f64]) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = (0..pi.len() as NodeId).collect();
    order.sort_by(|&a, &b| {
        pi[b as usize]
            .partial_cmp(&pi[a as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    order
}

/// Exact single-source RPPR distribution `π_ℓ(u, ·)` *from* a fixed source
/// as a sparse per-level map — the forward analogue of
/// [`exact_lhop_rppr_to`], used by tests of the η·π estimator.
pub fn exact_lhop_rppr_from(
    g: &DiGraph,
    sqrt_c: f64,
    u: NodeId,
    levels: usize,
) -> Vec<HashMap<NodeId, f64>> {
    let alpha = 1.0 - sqrt_c;
    // occupancy[x] = Pr[walk alive at current step at x]
    let mut occ: HashMap<NodeId, f64> = HashMap::new();
    occ.insert(u, 1.0);
    let mut out = Vec::with_capacity(levels + 1);
    out.push(occ.iter().map(|(&k, &v)| (k, alpha * v)).collect());
    for _ in 0..levels {
        let mut next: HashMap<NodeId, f64> = HashMap::new();
        for (&x, &mass) in &occ {
            let ins = g.in_neighbors(x);
            if ins.is_empty() {
                continue;
            }
            let share = sqrt_c * mass / ins.len() as f64;
            for &z in ins {
                *next.entry(z).or_insert(0.0) += share;
            }
        }
        occ = next;
        out.push(occ.iter().map(|(&k, &v)| (k, alpha * v)).collect());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SQRT_C: f64 = 0.774_596_669_241_483_4;

    #[test]
    fn pagerank_uniform_on_cycle() {
        let g = prsim_gen::toys::cycle(6);
        let pi = reverse_pagerank(&g, SQRT_C, 1e-12, 200);
        for &x in &pi {
            assert!(
                (x - 1.0 / 6.0).abs() < 1e-9,
                "cycle should be uniform, got {x}"
            );
        }
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pagerank_sums_below_one_with_dangling() {
        // star_in: hub 0 has in-degree n-1; leaves dangling.
        let g = prsim_gen::toys::star_in(5);
        let pi = reverse_pagerank(&g, SQRT_C, 1e-12, 200);
        let total: f64 = pi.iter().sum();
        assert!(
            total < 1.0,
            "dangling death should lose mass, total = {total}"
        );
        // Exact: walk from hub: terminates at hub w.p. 1-√c, else moves to
        // a leaf and terminates there w.p. 1-√c (or dies).
        // π(hub) = (1/5)(1-√c). π(leaf ℓ) = (1/5)[(1-√c)          (start there)
        //   + √c·(1/4)·(1-√c)]                                     (from hub)
        let alpha = 1.0 - SQRT_C;
        assert!((pi[0] - alpha / 5.0).abs() < 1e-9);
        let want = (alpha + SQRT_C * alpha / 4.0) / 5.0;
        for &leaf_pi in &pi[1..5] {
            assert!((leaf_pi - want).abs() < 1e-9);
        }
    }

    #[test]
    fn pagerank_matches_monte_carlo() {
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(300, 6.0, 2.0, 5));
        let exact = reverse_pagerank(&g, SQRT_C, 1e-12, 200);
        let mut rng = StdRng::seed_from_u64(9);
        let mc = reverse_pagerank_monte_carlo(&g, SQRT_C, 2_000_000, 64, &mut rng);
        // Compare the head (largest values) within generous MC tolerance.
        let order = rank_by_pagerank(&exact);
        for &w in order.iter().take(10) {
            let e = exact[w as usize];
            let m = mc[w as usize];
            assert!(
                (e - m).abs() < 0.1 * e + 5e-4,
                "node {w}: exact {e:.5} vs mc {m:.5}"
            );
        }
    }

    #[test]
    fn refine_from_zero_matches_direct_computation() {
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(150, 5.0, 2.0, 21));
        let direct = reverse_pagerank(&g, SQRT_C, 1e-12, 300);
        let mut pi = Vec::new();
        let out = refine_reverse_pagerank(&g, SQRT_C, 1e-12, 300, &mut pi);
        assert!(out.iterations > 0);
        assert!(out.final_residual < 1e-12);
        for (v, (&a, &b)) in direct.iter().zip(pi.iter()).enumerate() {
            assert!((a - b).abs() < 1e-9, "node {v}: {a} vs {b}");
        }
    }

    #[test]
    fn warm_refine_tracks_edge_updates_cheaply() {
        use prsim_graph::delta::DeltaGraph;
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(200, 6.0, 2.0, 22));
        let mut pi = reverse_pagerank(&g, SQRT_C, 1e-12, 300);

        let mut d = DeltaGraph::new(g);
        let (du, dv) = d.edges().next().unwrap();
        assert!(d.delete_edge(du, dv));
        assert!(d.insert_edge(0, 190));
        let g2 = d.snapshot();

        let fresh = reverse_pagerank(&g2, SQRT_C, 1e-12, 300);
        let mut cold = Vec::new();
        let cold_out = refine_reverse_pagerank(&g2, SQRT_C, 1e-10, 300, &mut cold);
        let warm_out = refine_reverse_pagerank(&g2, SQRT_C, 1e-10, 300, &mut pi);

        for (v, (&a, &b)) in fresh.iter().zip(pi.iter()).enumerate() {
            assert!((a - b).abs() < 1e-8, "node {v}: fresh {a} vs warm {b}");
        }
        // Warm start must start much closer (and so converge in fewer
        // iterations) than the cold solve.
        assert!(warm_out.initial_residual < 0.1 * cold_out.initial_residual);
        assert!(warm_out.iterations < cold_out.iterations);
        assert!(warm_out.l1_change < 0.1, "two edits move little mass");
    }

    #[test]
    fn refine_grows_with_node_universe() {
        use prsim_graph::delta::DeltaGraph;
        let g = prsim_gen::toys::cycle(5);
        let mut pi = reverse_pagerank(&g, SQRT_C, 1e-12, 200);
        let mut d = DeltaGraph::new(g);
        assert!(d.insert_edge(4, 9)); // grows n to 10
        let g2 = d.snapshot();
        refine_reverse_pagerank(&g2, SQRT_C, 1e-12, 300, &mut pi);
        let fresh = reverse_pagerank(&g2, SQRT_C, 1e-12, 300);
        assert_eq!(pi.len(), 10);
        for (v, (&a, &b)) in fresh.iter().zip(pi.iter()).enumerate() {
            assert!((a - b).abs() < 1e-9, "node {v}: {a} vs {b}");
        }
    }

    #[test]
    fn refine_empty_graph_is_a_noop() {
        let g = prsim_graph::DiGraph::from_edges(0, &[]);
        let mut pi = Vec::new();
        let out = refine_reverse_pagerank(&g, SQRT_C, 1e-9, 10, &mut pi);
        assert!(pi.is_empty());
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn lhop_rppr_to_matches_hand_computation_on_path() {
        // Graph 0 -> 1 -> 2. Walks move along in-edges: from 2 to 1 to 0.
        let g = prsim_gen::toys::path(3);
        let alpha = 1.0 - SQRT_C;
        let table = exact_lhop_rppr_to(&g, SQRT_C, 0, 3);
        // π_0(0,0) = α; π_1(1,0) = α√c; π_2(2,0) = α·c.
        assert!((table[0][0] - alpha).abs() < 1e-12);
        assert!((table[1][1] - alpha * SQRT_C).abs() < 1e-12);
        assert!((table[2][2] - alpha * SQRT_C * SQRT_C).abs() < 1e-12);
        // Everything else at those levels is zero.
        assert_eq!(table[0][1], 0.0);
        assert_eq!(table[1][0], 0.0);
        assert_eq!(table[2][0], 0.0);
    }

    #[test]
    fn lhop_sums_equal_n_pi() {
        // Σ_ℓ Σ_v π_ℓ(v,w) = n·π(w) (paper Eq. 4).
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(120, 5.0, 2.0, 3));
        let n = g.node_count();
        let pi = reverse_pagerank(&g, SQRT_C, 1e-14, 300);
        for w in [0u32, 5, 77] {
            let table = exact_lhop_rppr_to(&g, SQRT_C, w, 200);
            let total: f64 = table.iter().flat_map(|lv| lv.iter()).sum();
            let want = n as f64 * pi[w as usize];
            assert!(
                (total - want).abs() < 1e-6,
                "node {w}: Σπ_ℓ = {total:.8} vs n·π = {want:.8}"
            );
        }
    }

    #[test]
    fn forward_and_backward_lhop_agree() {
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(80, 4.0, 2.0, 8));
        let levels = 12;
        let from = exact_lhop_rppr_from(&g, SQRT_C, 3, levels);
        for w in [0u32, 7, 40] {
            let to = exact_lhop_rppr_to(&g, SQRT_C, w, levels);
            for l in 0..=levels {
                let f = from[l].get(&w).copied().unwrap_or(0.0);
                let t = to[l][3];
                assert!((f - t).abs() < 1e-12, "π_{l}(3,{w}) mismatch: {f} vs {t}");
            }
        }
    }

    #[test]
    fn forward_levels_sum_to_at_most_one() {
        let g =
            prsim_gen::chung_lu_directed(prsim_gen::ChungLuConfig::new(100, 5.0, 1.8, 2), 2.2, 3);
        let from = exact_lhop_rppr_from(&g, SQRT_C, 10, 100);
        let total: f64 = from.iter().flat_map(|m| m.values()).sum();
        assert!(total <= 1.0 + 1e-9, "probability mass {total} exceeds 1");
        assert!(total > 0.2, "walk must terminate somewhere: {total}");
    }

    #[test]
    fn second_moment_bounds() {
        // Uniform distribution minimizes the second moment at 1/n.
        let uni = vec![0.25; 4];
        assert!((second_moment(&uni) - 0.25).abs() < 1e-12);
        let point = vec![1.0, 0.0, 0.0, 0.0];
        assert!((second_moment(&point) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ranking_is_deterministic_and_descending() {
        let pi = vec![0.1, 0.5, 0.5, 0.2];
        let order = rank_by_pagerank(&pi);
        assert_eq!(order, vec![1, 2, 3, 0]);
    }

    #[test]
    fn empty_graph_pagerank() {
        let g = prsim_graph::DiGraph::from_edges(0, &[]);
        assert!(reverse_pagerank(&g, SQRT_C, 1e-9, 10).is_empty());
    }
}

//! Erdős–Rényi `G(n, p)` random graphs.
//!
//! Used for the paper's Figure 7 (non-power-law graphs with average degree
//! swept from 5 to 10⁴). Sampling skips over non-edges geometrically, so
//! generation costs `O(n + m)` rather than `O(n²)`.

use prsim_graph::{DiGraph, GraphBuilder, NodeId};
use rand::Rng;

use crate::{invalid, is_probability, rng_from_seed, GenError};

const GENERATOR: &str = "erdos-renyi";

/// Checks `G(n, p)`'s domain: `n` within the node-id range, `p ∈ [0, 1]`.
fn validate(n: usize, p: f64) -> Result<(), GenError> {
    if n >= u32::MAX as usize {
        return Err(GenError::SizeOverflow {
            generator: GENERATOR,
            n,
        });
    }
    if !is_probability(p) {
        return invalid(GENERATOR, "p", p, "in [0, 1]");
    }
    Ok(())
}

/// Generates a directed `G(n, p)` graph without self loops.
///
/// Every ordered pair `(u, v)`, `u ≠ v`, is an edge independently with
/// probability `p`. Pass `p = d̄ / (n − 1)` to target average out-degree d̄.
///
/// # Panics
///
/// Panics on the parameters [`try_erdos_renyi_directed`] rejects.
pub fn erdos_renyi_directed(n: usize, p: f64, seed: u64) -> DiGraph {
    try_erdos_renyi_directed(n, p, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`erdos_renyi_directed`]: rejects `p ∉ [0, 1]` and sizes
/// beyond the node-id range with a [`GenError`] instead of panicking.
pub fn try_erdos_renyi_directed(n: usize, p: f64, seed: u64) -> Result<DiGraph, GenError> {
    validate(n, p)?;
    let mut b = GraphBuilder::new();
    b.ensure_nodes(n);
    if n == 0 || p == 0.0 {
        return Ok(b.build());
    }
    let mut rng = rng_from_seed(seed);
    // Walk the flattened pair space of size n*(n-1) with geometric skips.
    let total: u64 = (n as u64) * (n as u64 - 1);
    let mut idx: u64 = 0;
    let log1p = (1.0 - p).ln();
    loop {
        if p < 1.0 {
            let r: f64 = rng.gen_range(f64::EPSILON..1.0);
            idx += (r.ln() / log1p).floor() as u64;
        }
        if idx >= total {
            break;
        }
        let u = (idx / (n as u64 - 1)) as usize;
        let mut v = (idx % (n as u64 - 1)) as usize;
        if v >= u {
            v += 1; // skip the diagonal
        }
        b.add_edge(u as NodeId, v as NodeId);
        idx += 1;
    }
    Ok(b.build())
}

/// Generates an undirected `G(n, p)` graph, stored symmetrically.
///
/// # Panics
///
/// Panics on the parameters [`try_erdos_renyi_undirected`] rejects.
pub fn erdos_renyi_undirected(n: usize, p: f64, seed: u64) -> DiGraph {
    try_erdos_renyi_undirected(n, p, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`erdos_renyi_undirected`]: rejects `p ∉ [0, 1]` and sizes
/// beyond the node-id range with a [`GenError`] instead of panicking.
pub fn try_erdos_renyi_undirected(n: usize, p: f64, seed: u64) -> Result<DiGraph, GenError> {
    validate(n, p)?;
    let mut b = GraphBuilder::new();
    b.ensure_nodes(n);
    if n < 2 || p == 0.0 {
        return Ok(b.build());
    }
    let mut rng = rng_from_seed(seed);
    let total: u64 = (n as u64) * (n as u64 - 1) / 2;
    let mut idx: u64 = 0;
    let log1p = (1.0 - p).ln();
    loop {
        if p < 1.0 {
            let r: f64 = rng.gen_range(f64::EPSILON..1.0);
            idx += (r.ln() / log1p).floor() as u64;
        }
        if idx >= total {
            break;
        }
        let (u, v) = unrank_pair(idx, n as u64);
        b.add_undirected_edge(u as NodeId, v as NodeId);
        idx += 1;
    }
    Ok(b.build())
}

/// Maps a linear index in `0..n(n-1)/2` to the `idx`-th pair `(u, v)` with
/// `u < v`, ordered lexicographically.
fn unrank_pair(idx: u64, n: u64) -> (u32, u32) {
    // Row u starts at offset u*n - u*(u+1)/2 - u... solve via the standard
    // triangular-number inversion.
    // Pairs in row u: (u, u+1..n), count n-1-u. Cumulative before row u:
    // C(u) = u*(2n - u - 1)/2. Find largest u with C(u) <= idx.
    let fidx = idx as f64;
    let fn_ = n as f64;
    // Initial guess from the quadratic formula, then correct locally.
    let mut u = ((2.0 * fn_ - 1.0 - ((2.0 * fn_ - 1.0).powi(2) - 8.0 * fidx).sqrt()) / 2.0)
        .floor()
        .max(0.0) as u64;
    let cum = |u: u64| u * (2 * n - u - 1) / 2;
    while u + 1 < n && cum(u + 1) <= idx {
        u += 1;
    }
    while u > 0 && cum(u) > idx {
        u -= 1;
    }
    let v = u + 1 + (idx - cum(u));
    (u as u32, v as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unrank_enumerates_all_pairs() {
        let n = 7u64;
        let total = n * (n - 1) / 2;
        let mut seen = Vec::new();
        for idx in 0..total {
            let (u, v) = unrank_pair(idx, n);
            assert!(u < v && (v as u64) < n, "bad pair ({u},{v})");
            seen.push((u, v));
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len() as u64, total);
    }

    #[test]
    fn try_rejects_probabilities_outside_the_unit_interval() {
        for p in [-0.1, 1.5, f64::NAN] {
            for g in [
                try_erdos_renyi_directed(10, p, 1),
                try_erdos_renyi_undirected(10, p, 1),
            ] {
                match g {
                    Err(GenError::InvalidParameter { name, .. }) => assert_eq!(name, "p"),
                    other => panic!("p {p}: got {other:?}"),
                }
            }
        }
        assert!(matches!(
            try_erdos_renyi_directed(usize::MAX, 0.5, 1),
            Err(GenError::SizeOverflow { .. })
        ));
        assert_eq!(try_erdos_renyi_directed(0, 1.0, 1).unwrap().node_count(), 0);
    }

    #[test]
    fn directed_edge_count_concentrates() {
        let n = 2_000;
        let d = 10.0;
        let p = d / (n as f64 - 1.0);
        let g = erdos_renyi_directed(n, p, 42);
        let m = g.edge_count() as f64;
        let expect = n as f64 * d;
        assert!(
            (m - expect).abs() < 0.1 * expect,
            "m = {m}, expected about {expect}"
        );
        for u in g.nodes() {
            assert!(!g.out_neighbors(u).contains(&u), "self loop at {u}");
        }
    }

    #[test]
    fn undirected_edge_count_concentrates_and_symmetric() {
        let n = 2_000;
        let p = 0.005;
        let g = erdos_renyi_undirected(n, p, 7);
        let m = g.edge_count() as f64; // both directions stored
        let expect = (n * (n - 1) / 2) as f64 * p * 2.0;
        assert!(
            (m - expect).abs() < 0.15 * expect,
            "m = {m}, expected about {expect}"
        );
        for u in g.nodes() {
            for &v in g.out_neighbors(u) {
                assert!(g.out_neighbors(v).contains(&u));
            }
        }
    }

    #[test]
    fn p_zero_and_one() {
        let g = erdos_renyi_directed(50, 0.0, 1);
        assert_eq!(g.edge_count(), 0);
        let g = erdos_renyi_directed(20, 1.0, 1);
        assert_eq!(g.edge_count(), 20 * 19);
        let g = erdos_renyi_undirected(20, 1.0, 1);
        assert_eq!(g.edge_count(), 20 * 19);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = erdos_renyi_directed(500, 0.01, 3);
        let b = erdos_renyi_directed(500, 0.01, 3);
        assert_eq!(a, b);
        let c = erdos_renyi_directed(500, 0.01, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn empty_graph() {
        let g = erdos_renyi_directed(0, 0.5, 1);
        assert_eq!(g.node_count(), 0);
    }
}

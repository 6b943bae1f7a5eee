//! Planted-partition (stochastic block model) generator.
//!
//! Nodes are split into equal-size communities; an undirected edge appears
//! with probability `p_in` inside a community and `p_out` across
//! communities. This is the standard substrate for tasks where SimRank's
//! structural signal matters (link prediction, community-aware ranking):
//! unlike Chung–Lu graphs — whose edges are independent given degrees —
//! planted partitions have real local structure to recover.

use prsim_graph::{DiGraph, GraphBuilder, NodeId};
use rand::Rng;

use crate::{invalid, is_probability, rng_from_seed, GenError};

/// Generates an undirected planted-partition graph with `communities`
/// equal blocks of `size` nodes. Node `v` belongs to block `v / size`.
///
/// # Panics
///
/// Panics on the parameters [`try_planted_partition`] rejects.
pub fn planted_partition(
    communities: usize,
    size: usize,
    p_in: f64,
    p_out: f64,
    seed: u64,
) -> DiGraph {
    try_planted_partition(communities, size, p_in, p_out, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`planted_partition`]: requires both dimensions positive,
/// `0 ≤ p_out ≤ p_in ≤ 1` (the planted structure) and a node count
/// within the node-id range, and reports a [`GenError`] otherwise.
pub fn try_planted_partition(
    communities: usize,
    size: usize,
    p_in: f64,
    p_out: f64,
    seed: u64,
) -> Result<DiGraph, GenError> {
    const GENERATOR: &str = "planted-partition";
    let n = communities
        .checked_mul(size)
        .filter(|&n| n < u32::MAX as usize)
        .ok_or(GenError::SizeOverflow {
            generator: GENERATOR,
            n: communities.saturating_mul(size),
        })?;
    if communities == 0 {
        return invalid(GENERATOR, "communities", communities, "positive");
    }
    if size == 0 {
        return invalid(GENERATOR, "size", size, "positive");
    }
    if !is_probability(p_in) {
        return invalid(GENERATOR, "p_in", p_in, "in [0, 1]");
    }
    if !is_probability(p_out) || p_out > p_in {
        return invalid(GENERATOR, "p_out", p_out, "in [0, p_in]");
    }
    let mut rng = rng_from_seed(seed);
    let mut b = GraphBuilder::new();
    b.ensure_nodes(n);

    // Intra-community edges: explicit pair loop per block (blocks are
    // small by construction).
    for c in 0..communities {
        let base = c * size;
        for i in 0..size {
            for j in (i + 1)..size {
                if rng.gen::<f64>() < p_in {
                    b.add_undirected_edge((base + i) as NodeId, (base + j) as NodeId);
                }
            }
        }
    }

    // Inter-community edges: geometric skip over all unordered pairs,
    // rejecting intra pairs (they were handled above).
    if p_out > 0.0 {
        let total: u64 = (n as u64) * (n as u64 - 1) / 2;
        let log1p = (1.0 - p_out).ln();
        let mut idx: u64 = 0;
        loop {
            if p_out < 1.0 {
                let r: f64 = rng.gen_range(f64::EPSILON..1.0);
                idx += (r.ln() / log1p).floor() as u64;
            }
            if idx >= total {
                break;
            }
            let (u, v) = unrank_pair(idx, n as u64);
            if (u as usize / size) != (v as usize / size) {
                b.add_undirected_edge(u, v);
            }
            idx += 1;
        }
    }
    Ok(b.build())
}

/// Community label of node `v` for a graph from [`planted_partition`].
#[inline]
pub fn community_of(v: NodeId, size: usize) -> usize {
    v as usize / size
}

// Same triangular unranking as the Erdős–Rényi module (kept private
// there); duplicated locally to keep the modules self-contained.
fn unrank_pair(idx: u64, n: u64) -> (u32, u32) {
    let fidx = idx as f64;
    let fn_ = n as f64;
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
    fn shape_and_symmetry() {
        let g = planted_partition(10, 20, 0.3, 0.01, 5);
        assert_eq!(g.node_count(), 200);
        for u in g.nodes() {
            for &v in g.out_neighbors(u) {
                assert!(g.out_neighbors(v).contains(&u));
            }
        }
    }

    #[test]
    fn intra_density_dominates() {
        let g = planted_partition(8, 25, 0.4, 0.005, 9);
        let size = 25;
        let mut intra = 0usize;
        let mut inter = 0usize;
        for (u, v) in g.edges() {
            if community_of(u, size) == community_of(v, size) {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(intra > 4 * inter, "intra {intra} vs inter {inter}");
        // Expected intra edges (directed count): 8 * C(25,2) * 0.4 * 2 = 1920.
        let expect = 8.0 * 300.0 * 0.4 * 2.0;
        assert!(
            (intra as f64 - expect).abs() < 0.2 * expect,
            "intra {intra} vs expected {expect}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            planted_partition(4, 10, 0.5, 0.02, 3),
            planted_partition(4, 10, 0.5, 0.02, 3)
        );
        assert_ne!(
            planted_partition(4, 10, 0.5, 0.02, 3),
            planted_partition(4, 10, 0.5, 0.02, 4)
        );
    }

    #[test]
    fn zero_p_out_gives_disconnected_blocks() {
        let g = planted_partition(3, 5, 1.0, 0.0, 1);
        let (_, k) = prsim_graph::traversal::weakly_connected_components(&g);
        assert_eq!(k, 3);
    }

    #[test]
    #[should_panic(expected = "p_out must be in [0, p_in]")]
    fn rejects_inverted_probabilities() {
        let _ = planted_partition(2, 5, 0.1, 0.5, 1);
    }

    #[test]
    fn try_rejects_out_of_domain_parameters() {
        for (communities, size, p_in, p_out, name) in [
            (0, 5, 0.5, 0.1, "communities"),
            (2, 0, 0.5, 0.1, "size"),
            (2, 5, 1.5, 0.1, "p_in"),
            (2, 5, f64::NAN, 0.1, "p_in"),
            (2, 5, 0.5, -0.1, "p_out"),
            (2, 5, 0.1, 0.5, "p_out"),
        ] {
            match try_planted_partition(communities, size, p_in, p_out, 1) {
                Err(GenError::InvalidParameter { name: got, .. }) => assert_eq!(got, name),
                other => panic!("{name}: got {other:?}"),
            }
        }
        assert!(matches!(
            try_planted_partition(usize::MAX, 2, 0.5, 0.1, 1),
            Err(GenError::SizeOverflow { .. })
        ));
    }
}

//! Barabási–Albert preferential attachment.
//!
//! Classic growth model: each new node attaches `m_attach` edges to
//! existing nodes chosen proportionally to their current degree. The
//! resulting degree distribution has density exponent 3, i.e. cumulative
//! exponent γ = 2 — exactly the boundary case of the paper's Theorem 3.12
//! (`O(log²n / ε²)` query cost), which makes BA graphs a useful fixture.

use prsim_graph::{DiGraph, GraphBuilder, NodeId};
use rand::Rng;

use crate::{invalid, rng_from_seed, GenError};

/// Generates an undirected Barabási–Albert graph (stored symmetrically).
///
/// Starts from a `m_attach + 1`-clique and adds `n - m_attach - 1` nodes,
/// each with `m_attach` edges attached preferentially by degree (the
/// repeated-endpoint-list trick gives exact degree-proportional sampling
/// in O(1) per draw).
///
/// # Panics
///
/// Panics on the parameters [`try_barabasi_albert`] rejects.
pub fn barabasi_albert(n: usize, m_attach: usize, seed: u64) -> DiGraph {
    try_barabasi_albert(n, m_attach, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`barabasi_albert`]: rejects `m_attach == 0`,
/// `n <= m_attach` and sizes beyond the node-id range with a
/// [`GenError`] instead of panicking.
pub fn try_barabasi_albert(n: usize, m_attach: usize, seed: u64) -> Result<DiGraph, GenError> {
    const GENERATOR: &str = "barabasi-albert";
    let endpoint_slots = (n < u32::MAX as usize)
        .then(|| m_attach.checked_mul(n)?.checked_mul(2))
        .flatten()
        .ok_or(GenError::SizeOverflow {
            generator: GENERATOR,
            n,
        })?;
    if m_attach == 0 {
        return invalid(GENERATOR, "m_attach", m_attach, "positive");
    }
    if n <= m_attach {
        return invalid(GENERATOR, "n", n, "greater than m_attach");
    }
    let mut rng = rng_from_seed(seed);

    // endpoints[k] appears once per incident edge: sampling a uniform
    // element of `endpoints` is degree-proportional sampling.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(endpoint_slots);
    let mut builder = GraphBuilder::new();
    builder.ensure_nodes(n);

    // Seed clique over nodes 0..=m_attach.
    let seed_nodes = m_attach + 1;
    for u in 0..seed_nodes {
        for v in (u + 1)..seed_nodes {
            builder.add_undirected_edge(u as NodeId, v as NodeId);
            endpoints.push(u as NodeId);
            endpoints.push(v as NodeId);
        }
    }

    let mut chosen: Vec<NodeId> = Vec::with_capacity(m_attach);
    for u in seed_nodes..n {
        chosen.clear();
        // Sample m_attach distinct targets preferentially.
        while chosen.len() < m_attach {
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &t in &chosen {
            builder.add_undirected_edge(u as NodeId, t);
            endpoints.push(u as NodeId);
            endpoints.push(t);
        }
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prsim_graph::degrees::{degree_sequence, powerlaw_exponent_hill, DegreeKind};
    use prsim_graph::traversal::weakly_connected_components;

    #[test]
    fn node_and_edge_counts() {
        let n = 1_000;
        let m_attach = 4;
        let g = barabasi_albert(n, m_attach, 0);
        assert_eq!(g.node_count(), n);
        // Each direction stored: clique edges + m_attach per new node.
        let seed_edges = (m_attach + 1) * m_attach / 2;
        let expect = 2 * (seed_edges + (n - m_attach - 1) * m_attach);
        assert_eq!(g.edge_count(), expect);
    }

    #[test]
    fn connected_and_symmetric() {
        let g = barabasi_albert(500, 3, 1);
        let (_, k) = weakly_connected_components(&g);
        assert_eq!(k, 1);
        for u in g.nodes() {
            for &v in g.out_neighbors(u) {
                assert!(g.out_neighbors(v).contains(&u));
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(barabasi_albert(300, 2, 9), barabasi_albert(300, 2, 9));
        assert_ne!(barabasi_albert(300, 2, 9), barabasi_albert(300, 2, 10));
    }

    #[test]
    fn tail_exponent_near_two() {
        let g = barabasi_albert(30_000, 5, 4);
        let degs = degree_sequence(&g, DegreeKind::Out);
        let est = powerlaw_exponent_hill(&degs, 20).unwrap();
        assert!((est - 2.0).abs() < 0.6, "hill exponent {est}, wanted ~2");
    }

    #[test]
    fn try_rejects_out_of_domain_parameters() {
        for (n, m_attach, name) in [(10, 0, "m_attach"), (4, 4, "n"), (0, 4, "n")] {
            match try_barabasi_albert(n, m_attach, 1) {
                Err(GenError::InvalidParameter { name: got, .. }) => assert_eq!(got, name),
                other => panic!("n {n}, m_attach {m_attach}: got {other:?}"),
            }
        }
        assert!(matches!(
            try_barabasi_albert(usize::MAX, 2, 1),
            Err(GenError::SizeOverflow { .. })
        ));
        assert_eq!(
            try_barabasi_albert(50, 2, 3).unwrap(),
            barabasi_albert(50, 2, 3)
        );
    }

    #[test]
    fn minimum_degree_is_m_attach() {
        let g = barabasi_albert(200, 3, 2);
        for u in g.nodes() {
            assert!(g.out_degree(u) >= 3, "node {u} degree {}", g.out_degree(u));
        }
    }
}

//! SLING (Tian & Xiao, SIGMOD 2016) — the state-of-the-art index the
//! paper compares against and improves upon.
//!
//! SLING precomputes, for every node `w` and level `ℓ`, the hitting
//! probabilities `h_ℓ(v,w)` above the accuracy threshold `ε_a` (via the
//! same backward search PRSim uses), plus a Monte-Carlo estimate of the
//! last-meeting probability `η(w)` for **every** node — the expensive
//! `O(n·log(n/δ)/ε²)` preprocessing step PRSim's joint η·π estimator
//! eliminates. The query evaluates paper Eq. (5) deterministically:
//!
//! ```text
//! s(u,v) = Σ_ℓ Σ_w h_ℓ(u,w)·h_ℓ(v,w)·η(w)
//! ```
//!
//! reading `h_ℓ(u,·)` from per-source forward lists and `h_ℓ(·,w)` from
//! per-target inverted lists.

use prsim_core::backward::{backward_search, BackwardWorkspace};
use prsim_core::scores::SimRankScores;
use prsim_core::walk::estimate_eta;
use prsim_graph::{DiGraph, NodeId};
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::sync::Arc;

use crate::SingleSourceSimRank;

/// SLING configuration.
#[derive(Clone, Copy, Debug)]
pub struct SlingConfig {
    /// SimRank decay factor `c`.
    pub c: f64,
    /// Absolute accuracy threshold ε_a (controls index density: entries
    /// with `h_ℓ(v,w) ≤ ε_a` are dropped).
    pub eps_a: f64,
    /// Walk pairs used to estimate each `η(w)`.
    pub eta_samples: usize,
    /// Level / walk-length cap.
    pub max_level: usize,
}

impl Default for SlingConfig {
    fn default() -> Self {
        SlingConfig {
            c: 0.6,
            eps_a: 0.05,
            eta_samples: 2_000,
            max_level: 64,
        }
    }
}

/// A built SLING index.
#[derive(Clone, Debug)]
pub struct Sling {
    graph: Arc<DiGraph>,
    config: SlingConfig,
    /// `η(w)` per node.
    eta: Vec<f64>,
    /// Forward lists: `forward[u]` = `(ℓ, w, h_ℓ(u,w))`, entries > ε_a.
    forward: Vec<Vec<(u32, NodeId, f64)>>,
    /// Inverted lists keyed `(w, ℓ)`: `(v, h_ℓ(v,w))`, entries > ε_a.
    inverted: HashMap<(NodeId, u32), Vec<(NodeId, f64)>>,
    /// Preprocessing wall time in seconds (for the Figure 5 harness).
    pub preprocess_seconds: f64,
}

impl Sling {
    /// Builds the SLING index: one backward search per node plus `η`
    /// estimation per node.
    pub fn build(graph: Arc<DiGraph>, config: SlingConfig, rng: &mut StdRng) -> Self {
        assert!(config.c > 0.0 && config.c < 1.0);
        let start = std::time::Instant::now();
        let g = &*graph;
        let n = g.node_count();
        let sqrt_c = config.c.sqrt();
        let alpha = 1.0 - sqrt_c;
        // Backward search tolerance chosen so reserve error ≈ ε_a·α (the
        // stored h = ψ/α then has error ≈ ε_a, mirroring SLING's ε_a).
        let r_max = (config.eps_a * alpha).max(1e-12);

        let mut forward: Vec<Vec<(u32, NodeId, f64)>> = vec![Vec::new(); n];
        let mut inverted: HashMap<(NodeId, u32), Vec<(NodeId, f64)>> = HashMap::new();
        let mut ws = BackwardWorkspace::new();
        for w in 0..n as NodeId {
            let res = backward_search(g, &mut ws, sqrt_c, w, r_max, config.max_level, false);
            for (l, level) in res.levels.iter().enumerate() {
                for &(v, psi) in level {
                    let h = psi / alpha;
                    if h > config.eps_a {
                        forward[v as usize].push((l as u32, w, h));
                        inverted.entry((w, l as u32)).or_default().push((v, h));
                    }
                }
            }
        }

        let eta: Vec<f64> = (0..n as NodeId)
            .map(|w| estimate_eta(g, sqrt_c, w, config.eta_samples, config.max_level, rng))
            .collect();

        let preprocess_seconds = start.elapsed().as_secs_f64();
        Sling {
            graph,
            config,
            eta,
            forward,
            inverted,
            preprocess_seconds,
        }
    }

    /// The estimated `η(w)` vector.
    pub fn eta(&self) -> &[f64] {
        &self.eta
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &SlingConfig {
        &self.config
    }

    /// Total stored `(entry)` count across forward and inverted lists.
    pub fn entry_count(&self) -> usize {
        let f: usize = self.forward.iter().map(Vec::len).sum();
        let i: usize = self.inverted.values().map(Vec::len).sum();
        f + i
    }
}

impl SingleSourceSimRank for Sling {
    fn name(&self) -> &'static str {
        "SLING"
    }

    fn single_source(&self, u: NodeId, _rng: &mut StdRng) -> SimRankScores {
        let n = self.graph.node_count();
        let mut map: HashMap<NodeId, f64> = HashMap::new();
        for &(l, w, h_u) in &self.forward[u as usize] {
            if let Some(list) = self.inverted.get(&(w, l)) {
                let eta_w = self.eta[w as usize];
                for &(v, h_v) in list {
                    if v != u {
                        *map.entry(v).or_insert(0.0) += h_u * h_v * eta_w;
                    }
                }
            }
        }
        SimRankScores::from_map(u, n, map)
    }

    fn index_size_bytes(&self) -> usize {
        // forward entry: 4 + 4 + 8; inverted entry: 4 + 8; η: 8 per node.
        let f: usize = self.forward.iter().map(|l| l.len() * 16).sum();
        let i: usize = self.inverted.values().map(|l| l.len() * 12 + 16).sum();
        f + i + self.eta.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power_method::power_method;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x51165)
    }

    fn build(graph: prsim_graph::DiGraph, eps_a: f64) -> Sling {
        Sling::build(
            Arc::new(graph),
            SlingConfig {
                eps_a,
                eta_samples: 20_000,
                ..Default::default()
            },
            &mut rng(),
        )
    }

    #[test]
    fn eta_values_in_unit_interval() {
        let s = build(prsim_gen::toys::star_out(5), 0.01);
        for &e in s.eta() {
            assert!((0.0..=1.0).contains(&e));
        }
        // Leaves of star_out have a single in-neighbor (the hub): two
        // walks from a leaf meet iff both survive the first flip: c.
        assert!((s.eta()[1] - (1.0 - 0.6)).abs() < 0.02);
    }

    #[test]
    fn matches_power_method_on_small_graph() {
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(40, 4.0, 2.0, 14));
        let exact = power_method(&g, 0.6, 1e-10, 100);
        let s = build(g, 0.005);
        let mut r = rng();
        for u in [0u32, 7, 20] {
            let scores = s.single_source(u, &mut r);
            for v in 0..40u32 {
                let err = (scores.get(v) - exact.get(u, v)).abs();
                assert!(
                    err < 0.08,
                    "u={u} v={v}: sling {} vs exact {}",
                    scores.get(v),
                    exact.get(u, v)
                );
            }
        }
    }

    #[test]
    fn star_out_query() {
        let s = build(prsim_gen::toys::star_out(6), 0.005);
        let mut r = rng();
        let scores = s.single_source(1, &mut r);
        for v in 2..6u32 {
            assert!(
                (scores.get(v) - 0.6).abs() < 0.05,
                "s(1,{v}) = {}, want 0.6",
                scores.get(v)
            );
        }
    }

    #[test]
    fn smaller_eps_means_bigger_index() {
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(80, 5.0, 2.0, 3));
        let coarse = build(g.clone(), 0.1);
        let fine = build(g, 0.005);
        assert!(fine.entry_count() > coarse.entry_count());
        assert!(fine.index_size_bytes() > coarse.index_size_bytes());
    }

    #[test]
    fn preprocess_time_recorded() {
        let s = build(prsim_gen::toys::cycle(10), 0.05);
        assert!(s.preprocess_seconds > 0.0);
    }
}

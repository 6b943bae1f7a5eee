//! Adapter exposing the PRSim engine through the shared baseline trait.

use std::sync::Mutex;

use prsim_baselines::SingleSourceSimRank;
use prsim_core::{Prsim, PrsimConfig, QueryWorkspace, SimRankScores};
use prsim_graph::{DiGraph, NodeId};
use rand::rngs::StdRng;

/// PRSim wrapped as a [`SingleSourceSimRank`] implementation, carrying its
/// build (preprocessing) time for the Figure 5 harness.
pub struct PrsimAlgo {
    engine: Prsim,
    /// One query workspace reused by every query, so a timed query pays
    /// for its own work and not for an `O(n)` scratch setup. Reuse is
    /// bit-identical to a fresh workspace.
    ws: Mutex<QueryWorkspace>,
    /// Wall-clock preprocessing time of [`Prsim::build`], in seconds.
    pub preprocess_seconds: f64,
}

impl PrsimAlgo {
    /// Builds a PRSim engine, timing the preprocessing.
    pub fn build(graph: DiGraph, config: PrsimConfig) -> Result<Self, prsim_core::PrsimError> {
        let start = std::time::Instant::now();
        let engine = Prsim::build(graph, config)?;
        let preprocess_seconds = start.elapsed().as_secs_f64();
        Ok(PrsimAlgo {
            engine,
            ws: Mutex::new(QueryWorkspace::new()),
            preprocess_seconds,
        })
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Prsim {
        &self.engine
    }
}

impl SingleSourceSimRank for PrsimAlgo {
    fn name(&self) -> &'static str {
        "PRSim"
    }

    /// # Panics
    ///
    /// Panics if `u` is out of range, like [`Prsim::single_source`].
    fn single_source(&self, u: NodeId, rng: &mut StdRng) -> SimRankScores {
        let answer = {
            let mut ws = self
                .ws
                .lock()
                .expect("a query panicked while holding the workspace");
            self.engine
                .try_single_source_with_workspace(u, &mut ws, rng)
        };
        answer.expect("query node out of range").0
    }

    fn index_size_bytes(&self) -> usize {
        self.engine.index().size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn adapter_round_trip() {
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(100, 5.0, 2.0, 3));
        let algo = PrsimAlgo::build(g, PrsimConfig::default()).unwrap();
        assert_eq!(algo.name(), "PRSim");
        assert!(algo.preprocess_seconds > 0.0);
        assert!(algo.index_size_bytes() > 0);
        let mut rng = StdRng::seed_from_u64(1);
        let s = algo.single_source(0, &mut rng);
        assert_eq!(s.get(0), 1.0);
    }

    #[test]
    fn reused_workspace_answers_bit_identically_to_the_engine() {
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(400, 6.0, 2.0, 11));
        let algo = PrsimAlgo::build(g, PrsimConfig::default()).unwrap();
        // Several sources in a row, so later queries run on a workspace
        // earlier ones have dirtied.
        for (i, u) in [0u32, 17, 203, 17, 399, 5].into_iter().enumerate() {
            let seed = 1_000 + i as u64;
            let got = algo.single_source(u, &mut StdRng::seed_from_u64(seed));
            let want = algo
                .engine()
                .single_source(u, &mut StdRng::seed_from_u64(seed));
            let bits = |s: &SimRankScores| -> Vec<(NodeId, u64)> {
                s.iter().map(|(v, x)| (v, x.to_bits())).collect()
            };
            assert_eq!(bits(&got), bits(&want), "source {u}");
        }
    }
}

//! # prsim-core
//!
//! From-scratch implementation of **PRSim** (Wei et al., SIGMOD 2019):
//! sublinear-time approximate single-source SimRank queries on power-law
//! graphs.
//!
//! ## The algorithm in one paragraph
//!
//! SimRank admits the √c-walk formulation: `s(u,v)` is the probability
//! that two *reverse √c-discounted random walks* started at `u` and `v`
//! meet. PRSim rewrites this (paper Eq. 6) through ℓ-hop reverse
//! personalized PageRank (RPPR):
//!
//! ```text
//! s(u,v) = 1/(1−√c)² · Σ_ℓ Σ_w  π_ℓ(u,w) · π_ℓ(v,w) · η(w)
//! ```
//!
//! where `π_ℓ(u,w)` is the probability a √c-walk from `u` terminates at
//! `w` after exactly `ℓ` steps and `η(w)` is the probability two √c-walks
//! from `w` never meet again. The query algorithm (Algorithm 4) estimates
//! `η(w)·π_ℓ(u,w)` jointly by sampling, reads `π_ℓ(v,w)` for *hub* nodes
//! `w` from a precomputed index (Algorithm 1), and estimates it for
//! non-hub `w` with the Variance Bounded Backward Walk (Algorithm 3).
//! Hubs are the `j₀` nodes with the largest reverse PageRank, which is
//! what ties the query cost to the reverse-PageRank distribution and
//! yields sublinear time on power-law graphs (Theorem 3.12).
//!
//! ## Module map
//!
//! | paper artifact | module |
//! |---|---|
//! | √c-walks, meeting probability | [`walk`] |
//! | reverse PageRank / RPPR | [`pagerank`] |
//! | Algorithm 1 (level-wise backward search) | [`backward`] |
//! | Algorithms 2 & 3 (backward walks) | [`vbbw`] |
//! | hub index, serialization | [`index`] |
//! | Algorithm 4 (query) | [`query`] |
//!
//! ## Dangling nodes
//!
//! A √c-walk that survives its termination flip but sits at a node with
//! no in-neighbors *dies*: it terminates nowhere and contributes to no
//! estimator. This keeps the identity `π_ℓ(u,w) = (1−√c)·h_ℓ(u,w)` exact
//! on every graph (see DESIGN.md §3), matching SimRank's `s(u,v) = 0`
//! whenever `I(u) = ∅, u ≠ v`.
//!
//! ## Quickstart
//!
//! ```
//! use prsim_core::{Prsim, PrsimConfig};
//! use prsim_graph::DiGraph;
//! use rand::SeedableRng;
//!
//! // A 4-cycle: every node plays the same role.
//! let g = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
//! let engine = Prsim::build(g, PrsimConfig::default()).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let scores = engine.single_source(0, &mut rng);
//! assert_eq!(scores.get(0), 1.0); // s(u,u) = 1 by definition
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backward;
pub mod config;
pub mod dynamic;
pub mod index;
pub mod pagerank;
pub mod paging;
pub mod query;
pub mod scores;
pub mod topk;
pub mod vbbw;
pub mod walk;
pub mod walkcache;
pub mod workspace;

pub use config::{DynamicParams, HubCount, PrsimConfig, QueryParams};
pub use dynamic::{DynamicPrsim, DynamicTotals, MemoryStats, UpdateMode, UpdateStats};
pub use index::{ArenaMemory, HubTouchSets, IndexStats, Postings, PrsimIndex, ReservePrecision};
pub use paging::{BufferPool, PageScrub, PagedOptions, PagingStats, PostingsScratch};
pub use query::{Prsim, QueryStats};
pub use scores::{SimRankScores, TopEntries};
pub use topk::{TopKParams, TopKResult};
pub use walkcache::WalkCache;
pub use workspace::QueryWorkspace;

/// Errors produced while building or querying a PRSim engine.
#[derive(Debug)]
pub enum PrsimError {
    /// Configuration parameter out of range.
    InvalidConfig(String),
    /// A query named a node id `>= n`.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// The graph's node count.
        n: usize,
    },
    /// Index deserialization failed.
    CorruptIndex(String),
    /// A paged-arena page could not be read and verified within the
    /// bounded retry budget (I/O fault, checksum mismatch, or a full
    /// frame table). Queries catch this and degrade to a live backward
    /// walk; serialization and maintenance paths surface it.
    PageFault(String),
}

impl std::fmt::Display for PrsimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrsimError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            PrsimError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for graph with {n} nodes")
            }
            PrsimError::CorruptIndex(msg) => write!(f, "corrupt index: {msg}"),
            PrsimError::PageFault(msg) => write!(f, "page fault: {msg}"),
        }
    }
}

impl std::error::Error for PrsimError {}

//! The PRSim engine: preprocessing + the query algorithm (paper Alg. 4).
//!
//! [`Prsim::build`] performs the whole of Algorithm 1 — counting-sort of
//! the out-adjacency, reverse-PageRank computation, hub selection and the
//! per-hub backward searches. [`Prsim::single_source`] then answers
//! queries:
//!
//! 1. sample `n_r = d_r·f_r` √c-walks from the query node `u`; a walk
//!    terminating at `w` after `ℓ` steps, followed by a pair of walks from
//!    `w` that do **not** meet, contributes `1/n_r` to the joint estimator
//!    `η̂π_ℓ(u,w)` of `η(w)·π_ℓ(u,w)` (§3.2);
//! 2. for such non-meeting samples whose `w` is *not* a hub, run one
//!    Variance Bounded Backward Walk to level `ℓ` and fold the estimates
//!    `π̂_ℓ(v,w)` into the current round's `ŝ_B` (§3.4);
//! 3. take the median of the `f_r` round estimators `ŝ_B^i` (median
//!    trick), and for every `(w, ℓ)` with `η̂π_ℓ(u,w)` above threshold and
//!    `w` a hub, accumulate `ŝ_I` from the index lists (§3.3);
//! 4. return `ŝ = ŝ_I + ŝ_B`, with `ŝ(u,u) = 1`.
//!
//! Note on the paper's listing: lines 11–13 render flat, but Lemma 3.7's
//! proof samples `(w, ℓ)` with probability `π_ℓ(u,w)·η(w)`, so the
//! backward-walk update must be *nested inside* the no-meet branch; that
//! is what we implement (see DESIGN.md §3).
//!
//! ## Hot-path layout
//!
//! The whole query runs on a caller-owned [`QueryWorkspace`] of dense
//! epoch-stamped scratch buffers (see [`crate::workspace`]): per-round
//! `ŝ_B` accumulation, backward-walk frontiers, hub-membership memos and
//! the final score accumulator are all `O(1)` array probes with
//! `O(touched)` clearing — no hashing, no per-query allocation after
//! warmup (beyond the returned score vector itself). Terminal
//! observations are aggregated into `η̂π_ℓ(u,w)` by sorting a flat
//! `(w, ℓ)` vector instead of a hash map, which also supplies the
//! sorted iteration order the deterministic `ŝ_I` accumulation needs.
//! Results are **bit-identical** between a fresh and a reused
//! workspace, so the allocating entry points simply construct a
//! transient one.
//!
//! There is one query body. Each round draws its √c-walks in chunks of
//! `CHUNK_WALKS` through the prefetching 8-lane kernel
//! ([`crate::walk::sample_walk_phase_interleaved`]), which consumes the
//! [`crate::walkcache::WalkCache`]'s pre-drawn samples wherever a walk
//! arrives at a cached node, and every chunk is folded straight into the
//! dense accumulator: each non-hub terminal's VBBW folds its final level
//! into the round's `ŝ_B`, and after the rounds each accepted hub
//! terminal's postings run is scattered into the same accumulator
//! ([`crate::index::Postings::scatter_into`]). An optional deadline is checked only
//! between chunks; a round it cuts short is rescaled by
//! `d_r / realized`, so untimed queries and deadlines that never fire
//! run the same instructions on the same RNG stream. Two finishers
//! share the accumulator: the full score vector (one radix drain of the
//! touched ids) and the served top-k (one selection pass, no vector).

use std::time::{Duration, Instant};

use prsim_graph::ordering::sort_out_by_in_degree;
use prsim_graph::{DiGraph, NodeId};
use rand::{Rng, SeedableRng};

use crate::config::PrsimConfig;
use crate::index::PrsimIndex;
use crate::pagerank::{rank_by_pagerank, reverse_pagerank};
use crate::scores::{select_top_k, SimRankScores, TopEntries};
use crate::vbbw::variance_bounded_backward_walk_fold_with_workspace;
use crate::walk::{
    sample_walk_phase_interleaved, sample_walks_meet_with_table, GeomLenTable, NoDraws,
};
use crate::walkcache::{pool_samples, WalkCache};
use crate::workspace::{DenseScratch, QueryWorkspace};
use crate::PrsimError;

/// Walk-draw granularity of the query loop: every round's √c-walks are
/// drawn in chunks of this many, each folded into the estimators before
/// the next is drawn. A deadline is consulted only between chunks, so
/// the worst-case overrun past it is one chunk's sampling plus its
/// backward walks, while the 8-lane walk kernel still gets batches large
/// enough to amortize its lane setup.
const CHUNK_WALKS: usize = 1_024;

/// Instrumentation counters for one single-source query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// √c-walks sampled from the query node.
    pub walks: usize,
    /// Walks that died (dangling) and contributed nothing.
    pub died: usize,
    /// Walks whose follow-up pair met (η rejection).
    pub pair_met: usize,
    /// Backward walks executed (non-hub terminals).
    pub backward_walks: usize,
    /// Total neighbor visits inside backward walks.
    pub backward_cost: usize,
    /// Index entries scanned while assembling `ŝ_I`.
    pub index_entries: usize,
    /// Walks resolved by a cached terminal draw (the walk hit a cached
    /// node and consumed a pre-drawn sample instead of chasing pointers).
    pub cached_terminals: usize,
    /// η tests resolved by a cached verdict bit (no pair walk run).
    pub cached_eta: usize,
    /// Hub terminals whose paged postings run could not be read (I/O
    /// fault, bit-rot, or an exhausted memory budget) and were estimated
    /// by a live backward walk instead. Always 0 on a resident arena.
    pub page_fallbacks: usize,
    /// Whether this query shed work: a per-request deadline cut sampling
    /// short, or a paged postings run faulted and fell back to a live
    /// backward walk (`page_fallbacks`). The scores remain an unbiased
    /// estimate, at correspondingly higher variance.
    pub degraded: bool,
}

/// Fixed base seed of the engine-built walk-cache pools (mixed per pool
/// and per refill generation inside [`WalkCache`]). A constant keeps
/// engine builds deterministic: two engines over the same graph and
/// config hold identical pools.
const WALK_CACHE_SEED: u64 = 0x57A1_CACE_0BEA_CE5D;

/// A built PRSim engine, ready to answer single-source queries.
#[derive(Debug)]
pub struct Prsim {
    graph: DiGraph,
    pi: Vec<f64>,
    index: PrsimIndex,
    config: PrsimConfig,
    /// Survival table for geometric walk-length draws (one per engine).
    geom: GeomLenTable,
    /// Pre-drawn terminal/η pools for the top-π nodes (None when
    /// `walk_cache_budget` is 0).
    cache: Option<WalkCache>,
    dr: usize,
    fr: usize,
}

impl Clone for Prsim {
    fn clone(&self) -> Self {
        Prsim {
            graph: self.graph.clone(),
            pi: self.pi.clone(),
            index: self.index.clone(),
            config: self.config.clone(),
            geom: self.geom.clone(),
            cache: self.cache.clone(),
            dr: self.dr,
            fr: self.fr,
        }
    }

    /// Copies `source` into `self`'s existing buffers, part by part: an
    /// epoch snapshot refreshed from the live engine copies the same
    /// bytes a fresh clone would, without allocating them again.
    fn clone_from(&mut self, source: &Self) {
        self.graph.clone_from(&source.graph);
        prsim_graph::mem::copy_reusing(&mut self.pi, &source.pi);
        self.index.clone_from(&source.index);
        self.config.clone_from(&source.config);
        self.geom.clone_from(&source.geom);
        self.cache.clone_from(&source.cache);
        self.dr = source.dr;
        self.fr = source.fr;
    }
}

impl Prsim {
    /// Runs the full preprocessing pipeline of Algorithm 1 and returns a
    /// query-ready engine. The graph is consumed because its out-adjacency
    /// is re-permuted (counting-sorted by target in-degree).
    pub fn build(mut graph: DiGraph, config: PrsimConfig) -> Result<Self, PrsimError> {
        config.validate()?;
        if !graph.is_out_sorted_by_in_degree() {
            sort_out_by_in_degree(&mut graph);
        }
        let sqrt_c = config.sqrt_c();
        let pi = reverse_pagerank(&graph, sqrt_c, 1e-12, config.max_level);
        let j0 = config
            .hubs
            .resolve(graph.node_count(), graph.avg_degree(), config.eps);
        // One π ranking serves both consumers: the top j₀ become index
        // hubs, the top `walk_cache_budget` get pre-sampled walk pools.
        let order = rank_by_pagerank(&pi);
        let hubs: Vec<NodeId> = order.iter().take(j0).copied().collect();
        let index = PrsimIndex::build_with(
            &graph,
            hubs,
            sqrt_c,
            config.r_max(),
            config.max_level,
            config.build_threads,
            config.reserve_precision,
        );
        Self::from_parts_full(graph, pi, index, config, None, Some(order))
    }

    /// Assembles an engine from precomputed parts (e.g. a deserialized
    /// index). The graph must already be out-sorted by in-degree.
    pub fn from_parts(
        graph: DiGraph,
        pi: Vec<f64>,
        index: PrsimIndex,
        config: PrsimConfig,
    ) -> Result<Self, PrsimError> {
        Self::from_parts_full(graph, pi, index, config, None, None)
    }

    /// [`Prsim::from_parts`] with an optional pre-built walk cache (the
    /// dynamic engine threads its incrementally-maintained cache through
    /// here instead of redrawing pools on every update) and an optional
    /// precomputed descending-π ranking (saves the `O(n log n)` re-rank
    /// when the caller — [`Prsim::build`] — already holds one).
    pub(crate) fn from_parts_full(
        graph: DiGraph,
        pi: Vec<f64>,
        index: PrsimIndex,
        config: PrsimConfig,
        cache: Option<WalkCache>,
        order_hint: Option<Vec<NodeId>>,
    ) -> Result<Self, PrsimError> {
        config.validate()?;
        // A deserialized index carries its own precision; hold it to the
        // same quantization-vs-eps budget the build path enforces, so a
        // small-eps config cannot silently query an f32 arena.
        crate::config::validate_reserve_precision(index.precision(), config.eps, config.c)?;
        if !graph.is_out_sorted_by_in_degree() {
            return Err(PrsimError::InvalidConfig(
                "graph must be out-sorted by in-degree (run sort_out_by_in_degree)".into(),
            ));
        }
        if pi.len() != graph.node_count() {
            return Err(PrsimError::InvalidConfig(format!(
                "reverse-PageRank vector has {} entries for {} nodes",
                pi.len(),
                graph.node_count()
            )));
        }
        let (dr, fr) = config
            .query
            .resolve(graph.node_count(), config.c, config.eps, config.delta);
        let geom = GeomLenTable::new(config.sqrt_c(), config.max_level);
        let cache = match cache {
            Some(cache) => Some(cache),
            None if config.walk_cache_budget > 0 => {
                let order = order_hint.unwrap_or_else(|| rank_by_pagerank(&pi));
                Some(WalkCache::build(
                    &graph,
                    &geom,
                    &order,
                    config.walk_cache_budget,
                    pool_samples(dr * fr),
                    WALK_CACHE_SEED,
                ))
            }
            None => None,
        };
        Ok(Prsim {
            graph,
            pi,
            index,
            config,
            geom,
            cache,
            dr,
            fr,
        })
    }

    /// Disassembles the engine into its parts. The dynamic engine uses
    /// this to mutate graph/π/index/cache in place and cheaply reassemble
    /// via [`Prsim::from_parts_full`] without cloning CSR-sized state.
    #[allow(clippy::type_complexity)] // the engine's five parts, once
    pub(crate) fn into_parts(
        self,
    ) -> (
        DiGraph,
        Vec<f64>,
        PrsimIndex,
        PrsimConfig,
        Option<WalkCache>,
    ) {
        (self.graph, self.pi, self.index, self.config, self.cache)
    }

    /// The walk-engine terminal-sample cache, when enabled.
    pub fn walk_cache(&self) -> Option<&WalkCache> {
        self.cache.as_ref()
    }

    /// Builds the cache's dynamic-invalidation masks over the engine's
    /// graph if the cache exists and lacks them (no-op otherwise). Called
    /// by [`crate::DynamicPrsim`] after every (re)assembly.
    pub(crate) fn ensure_cache_masks(&mut self) {
        if let Some(cache) = &mut self.cache {
            cache.ensure_masks(&self.graph, self.config.max_level);
        }
    }

    /// The underlying (out-sorted) graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The reverse-PageRank vector `π` computed during preprocessing.
    pub fn reverse_pagerank(&self) -> &[f64] {
        &self.pi
    }

    /// The hub index.
    pub fn index(&self) -> &PrsimIndex {
        &self.index
    }

    /// Demotes the hub index's postings arena to a v4 page file at
    /// `path` and reopens it paged under `opts`' memory budget (see
    /// [`PrsimIndex::page_out`]). On `Err` the engine is unchanged and
    /// keeps serving the resident arena.
    pub fn page_out_index(
        &mut self,
        storage: std::sync::Arc<dyn prsim_storage::Storage>,
        path: &std::path::Path,
        opts: &crate::paging::PagedOptions,
    ) -> Result<(), PrsimError> {
        self.index.page_out(storage, path, opts)
    }

    /// The engine configuration.
    pub fn config(&self) -> &PrsimConfig {
        &self.config
    }

    /// Resolved per-round sample count `d_r` and round count `f_r`.
    pub fn sample_counts(&self) -> (usize, usize) {
        (self.dr, self.fr)
    }

    /// Answers a single-pair query `ŝ(u, v)` via the √c-walk meeting
    /// probability, using `d_r·f_r` walk pairs (the classic Monte-Carlo
    /// estimator over the engine's graph and decay factor).
    pub fn single_pair<R: Rng + ?Sized>(
        &self,
        u: NodeId,
        v: NodeId,
        rng: &mut R,
    ) -> Result<f64, PrsimError> {
        let n = self.graph.node_count();
        for node in [u, v] {
            if node as usize >= n {
                return Err(PrsimError::NodeOutOfRange { node, n });
            }
        }
        if u == v {
            return Ok(1.0);
        }
        let nr = self.dr * self.fr;
        let inv_nr = 1.0 / nr as f64;
        let mut meets = 0usize;
        for _ in 0..nr {
            if sample_walks_meet_with_table(&self.graph, &self.geom, u, v, rng) {
                meets += 1;
            }
        }
        Ok(meets as f64 * inv_nr)
    }

    /// Answers a single-source SimRank query for `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`; use [`Prsim::try_single_source`] for a checked
    /// variant.
    pub fn single_source<R: Rng + ?Sized>(&self, u: NodeId, rng: &mut R) -> SimRankScores {
        self.try_single_source(u, rng)
            .expect("query node out of range")
            .0
    }

    /// [`Prsim::single_source`] against a caller-owned scratch workspace:
    /// no per-query allocation after the workspace has warmed up, and
    /// results bit-identical to the allocating entry point.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`; use [`Prsim::try_single_source_with_workspace`]
    /// for a checked variant.
    pub fn single_source_with_workspace<R: Rng + ?Sized>(
        &self,
        u: NodeId,
        ws: &mut QueryWorkspace,
        rng: &mut R,
    ) -> SimRankScores {
        self.try_single_source_with_workspace(u, ws, rng)
            .expect("query node out of range")
            .0
    }

    /// Single-source query with an explicit per-round sample count
    /// (`f_r = 1`), used by the adaptive top-k driver.
    pub fn single_source_with_samples<R: Rng + ?Sized>(
        &self,
        u: NodeId,
        samples: usize,
        rng: &mut R,
    ) -> Result<(SimRankScores, QueryStats), PrsimError> {
        let mut ws = QueryWorkspace::new();
        self.run_query(u, samples.max(1), 1, None, &mut ws, rng)
    }

    /// [`Prsim::single_source_with_samples`] against a caller-owned
    /// scratch workspace.
    pub fn single_source_with_samples_with_workspace<R: Rng + ?Sized>(
        &self,
        u: NodeId,
        samples: usize,
        ws: &mut QueryWorkspace,
        rng: &mut R,
    ) -> Result<(SimRankScores, QueryStats), PrsimError> {
        self.run_query(u, samples.max(1), 1, None, ws, rng)
    }

    /// The worker count [`Prsim::batch_single_source`] actually uses for
    /// `queries` when asked for `requested` threads: capped at the
    /// hardware parallelism (oversubscribing a box only adds scheduling
    /// overhead — measured *negative* scaling pre-cap) and sized so every
    /// worker gets at least [`Prsim::MIN_BATCH_QUERIES_PER_THREAD`]
    /// queries before the batch splits further.
    pub fn effective_batch_threads(queries: usize, requested: usize) -> usize {
        let hardware = std::thread::available_parallelism().map_or(1, |p| p.get());
        requested
            .max(1)
            .min(hardware)
            .min(queries.div_ceil(Self::MIN_BATCH_QUERIES_PER_THREAD).max(1))
    }

    /// Minimum queries per worker before [`Prsim::batch_single_source`]
    /// splits a batch across another thread (spawn + cold-workspace cost
    /// must amortize over real work).
    pub const MIN_BATCH_QUERIES_PER_THREAD: usize = 8;

    /// Runs `queries` in parallel over at most `threads` workers (capped
    /// by [`Prsim::effective_batch_threads`]). Each query gets an RNG
    /// seeded `base_seed + query index` and workspace reuse is
    /// bit-identical to fresh workspaces, so results are identical to
    /// serial execution and independent of scheduling and of the cap.
    ///
    /// Lock-free: each worker owns a disjoint `&mut` chunk of the output
    /// plus its own [`QueryWorkspace`]; no result ever crosses a mutex.
    pub fn batch_single_source(
        &self,
        queries: &[NodeId],
        threads: usize,
        base_seed: u64,
    ) -> Result<Vec<SimRankScores>, PrsimError> {
        for &u in queries {
            if u as usize >= self.graph.node_count() {
                return Err(PrsimError::NodeOutOfRange {
                    node: u,
                    n: self.graph.node_count(),
                });
            }
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let threads = Self::effective_batch_threads(queries.len(), threads);
        let mut slots: Vec<Option<SimRankScores>> = vec![None; queries.len()];
        if threads <= 1 {
            let mut ws = QueryWorkspace::new();
            for (i, (&u, slot)) in queries.iter().zip(slots.iter_mut()).enumerate() {
                let mut rng = rand::rngs::StdRng::seed_from_u64(base_seed + i as u64);
                *slot = Some(
                    self.try_single_source_with_workspace(u, &mut ws, &mut rng)
                        .map(|(s, _)| s)
                        .expect("node range pre-checked"),
                );
            }
        } else {
            let chunk = queries.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for (t, (q_chunk, s_chunk)) in queries
                    .chunks(chunk)
                    .zip(slots.chunks_mut(chunk))
                    .enumerate()
                {
                    scope.spawn(move || {
                        let mut ws = QueryWorkspace::new();
                        for (j, (&u, slot)) in q_chunk.iter().zip(s_chunk.iter_mut()).enumerate() {
                            let i = t * chunk + j;
                            let mut rng = rand::rngs::StdRng::seed_from_u64(base_seed + i as u64);
                            *slot = Some(
                                self.try_single_source_with_workspace(u, &mut ws, &mut rng)
                                    .map(|(s, _)| s)
                                    .expect("node range pre-checked"),
                            );
                        }
                    });
                }
            });
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("all queries processed"))
            .collect())
    }

    /// Checked single-source query returning instrumentation counters.
    pub fn try_single_source<R: Rng + ?Sized>(
        &self,
        u: NodeId,
        rng: &mut R,
    ) -> Result<(SimRankScores, QueryStats), PrsimError> {
        let mut ws = QueryWorkspace::new();
        self.run_query(u, self.dr, self.fr, None, &mut ws, rng)
    }

    /// Checked single-source query against a caller-owned workspace.
    pub fn try_single_source_with_workspace<R: Rng + ?Sized>(
        &self,
        u: NodeId,
        ws: &mut QueryWorkspace,
        rng: &mut R,
    ) -> Result<(SimRankScores, QueryStats), PrsimError> {
        self.run_query(u, self.dr, self.fr, None, ws, rng)
    }

    /// Checked single-source query under an optional wall-clock budget.
    ///
    /// `timeout = None` *is* [`Prsim::try_single_source`], and so is a
    /// budget that never runs out: the same code path, the same RNG
    /// stream, bit-identical scores. The walk phase draws in chunks of
    /// `CHUNK_WALKS` and checks the deadline between chunks; once it has
    /// passed, sampling stops and the returned scores are the estimate
    /// over the samples drawn so far (a cut round is rescaled to its
    /// realized sample count and the η̂π denominator to the realized walk
    /// total, so truncation costs variance, not bias).
    /// [`QueryStats::degraded`] reports whether any work was shed.
    pub fn try_single_source_with_deadline<R: Rng + ?Sized>(
        &self,
        u: NodeId,
        timeout: Option<Duration>,
        rng: &mut R,
    ) -> Result<(SimRankScores, QueryStats), PrsimError> {
        let mut ws = QueryWorkspace::new();
        self.try_single_source_with_deadline_with_workspace(u, timeout, &mut ws, rng)
    }

    /// [`Prsim::try_single_source_with_deadline`] against a caller-owned
    /// scratch workspace.
    pub fn try_single_source_with_deadline_with_workspace<R: Rng + ?Sized>(
        &self,
        u: NodeId,
        timeout: Option<Duration>,
        ws: &mut QueryWorkspace,
        rng: &mut R,
    ) -> Result<(SimRankScores, QueryStats), PrsimError> {
        self.run_query(u, self.dr, self.fr, deadline_after(timeout), ws, rng)
    }

    /// The served form of
    /// [`Prsim::try_single_source_with_deadline_with_workspace`]: the
    /// `k` best entries and the entry count ([`TopEntries`]), selected
    /// straight from the dense accumulator — no radix drain and no
    /// allocation of the full-length entry vector. The result is
    /// `top_k(k)` and `len()` of the full-vector query on the same RNG
    /// stream, and the stats are the same.
    pub fn try_single_source_top_k_with_workspace<R: Rng + ?Sized>(
        &self,
        u: NodeId,
        k: usize,
        timeout: Option<Duration>,
        ws: &mut QueryWorkspace,
        rng: &mut R,
    ) -> Result<(TopEntries, QueryStats), PrsimError> {
        let stats = self.accumulate(u, self.dr, self.fr, deadline_after(timeout), ws, rng)?;
        let acc = &ws.acc;
        let top = TopEntries {
            top: select_top_k(acc.iter(), acc.len(), k, u),
            len: acc.len() + usize::from(!acc.contains(u)),
        };
        Ok((top, stats))
    }

    /// The full-vector finisher: [`Prsim::accumulate`], then one radix
    /// drain of the touched ids with the value gather fused into its
    /// last pass.
    fn run_query<R: Rng + ?Sized>(
        &self,
        u: NodeId,
        dr: usize,
        fr: usize,
        deadline: Option<Instant>,
        ws: &mut QueryWorkspace,
        rng: &mut R,
    ) -> Result<(SimRankScores, QueryStats), PrsimError> {
        let stats = self.accumulate(u, dr, fr, deadline, ws, rng)?;
        let mut entries = Vec::new();
        ws.acc.drain_sorted_into(&mut entries);
        let scores = SimRankScores::from_sorted_entries(u, self.graph.node_count(), entries);
        Ok((scores, stats))
    }

    /// The query body both finishers share: every sampling and folding
    /// phase of Algorithm 4, leaving `ŝ = ŝ_B + ŝ_I` (source diagonal
    /// not yet set) in `ws.acc`.
    ///
    /// * Each round draws its `dr` √c-walks in `CHUNK_WALKS` chunks, and
    ///   every chunk is folded before the next is drawn: each non-hub
    ///   terminal's VBBW folds its final level straight into the round
    ///   accumulator ([`variance_bounded_backward_walk_fold_with_workspace`]),
    ///   with the next terminal's root adjacency prefetched across walks.
    /// * With `f_r > 1` rounds, the per-node median over the rounds that
    ///   ran lands in `ws.acc`; with one round `ŝ_B` accumulates there
    ///   directly.
    /// * Each accepted hub terminal's postings run — resolved by one
    ///   `bounds` offset probe — is scattered into the same accumulator
    ///   by the branchless 8-lane kernel
    ///   ([`crate::index::Postings::scatter_into`]); a run that cannot be
    ///   read from a paged arena is estimated by a live VBBW instead.
    ///
    /// `deadline` is checked only between chunks, and the first chunk
    /// always runs. A round it cuts is rescaled by `dr / realized`, so a
    /// query that completes its sampling never takes an extra pass.
    fn accumulate<R: Rng + ?Sized>(
        &self,
        u: NodeId,
        dr: usize,
        fr: usize,
        deadline: Option<Instant>,
        ws: &mut QueryWorkspace,
        rng: &mut R,
    ) -> Result<QueryStats, PrsimError> {
        let n = self.graph.node_count();
        if u as usize >= n {
            return Err(PrsimError::NodeOutOfRange { node: u, n });
        }
        let sqrt_c = self.config.sqrt_c();
        let alpha = 1.0 - sqrt_c;
        let alpha2 = alpha * alpha;
        let backward_scale = 1.0 / (alpha2 * dr as f64);
        let expired = || deadline.is_some_and(|d| Instant::now() >= d);
        let mut stats = QueryStats::default();

        let QueryWorkspace {
            backward,
            round,
            acc,
            hub_memo,
            terminals,
            round_entries,
            median_buf,
            cache_cursors,
            sample_buf,
            pages,
        } = ws;
        let graph = &self.graph;
        let index = &self.index;
        let cache = self.cache.as_ref();
        if let Some(cache) = cache {
            // One without-replacement generation per query, spanning all
            // of its rounds.
            cache_cursors.begin(cache.pool_count());
        }
        hub_memo.begin(n);
        terminals.clear();
        round_entries.clear();
        if fr > 1 {
            acc.begin(n);
        }

        let mut rounds = 0usize;
        let mut cut = false;
        while rounds < fr && !cut {
            if rounds > 0 && expired() {
                cut = true;
                break;
            }
            // Per-round backward estimator ŝ_B^i, always on dense
            // scratch; with a single round it accumulates straight into
            // `acc` alongside ŝ_I.
            let round: &mut DenseScratch = if fr == 1 { &mut *acc } else { &mut *round };
            round.begin(n);
            let mut drawn = 0usize;
            while drawn < dr {
                if drawn > 0 && expired() {
                    cut = true;
                    break;
                }
                let chunk = (dr - drawn).min(CHUNK_WALKS);
                sample_buf.clear();
                let wstats = match cache {
                    Some(cache) => sample_walk_phase_interleaved(
                        graph,
                        &self.geom,
                        u,
                        chunk,
                        &mut cache.session(cache_cursors),
                        sample_buf,
                        rng,
                    ),
                    None => sample_walk_phase_interleaved(
                        graph,
                        &self.geom,
                        u,
                        chunk,
                        &mut NoDraws,
                        sample_buf,
                        rng,
                    ),
                };
                drawn += chunk;
                stats.walks += chunk;
                stats.died += wstats.died;
                stats.cached_terminals += wstats.cache_hits;
                stats.cached_eta += wstats.eta_hits;

                // Accepted samples fold into η̂π and straight into the
                // round accumulator. A two-deep software pipeline runs
                // across terminals: while terminal i's walk chases its
                // frontier, terminal i+1's root adjacency is already on
                // its way up the cache hierarchy.
                for i in 0..sample_buf.len() {
                    let (w, level, met) = sample_buf[i];
                    if let Some(&(wn, _, met_n)) = sample_buf.get(i + 1) {
                        if !met_n {
                            hub_memo.prefetch(wn);
                            index.prefetch_lookup(wn);
                            graph.prefetch_out_offsets(wn);
                            graph.prefetch_out_lists(wn);
                        }
                    }
                    if met {
                        stats.pair_met += 1;
                        continue;
                    }
                    terminals.push((w, level));
                    if !hub_memo.get_or_insert_with(w, || index.contains(w)) {
                        stats.backward_walks += 1;
                        stats.backward_cost += variance_bounded_backward_walk_fold_with_workspace(
                            graph,
                            sqrt_c,
                            w,
                            level as usize,
                            backward,
                            rng,
                            |v, pi_hat| round.add(v, pi_hat * backward_scale),
                        );
                    }
                }
            }
            if drawn < dr {
                // The fold scaled by 1/(α²·d_r); the round realized only
                // `drawn` walks.
                round.scale(dr as f64 / drawn as f64);
            }
            if fr > 1 {
                // Bank the round for the median pass; no per-round sort
                // (round_entries is sorted globally below).
                round_entries.extend(round.iter());
            }
            rounds += 1;
        }
        stats.degraded = cut;

        // Median trick over the rounds that ran. Untouched rounds
        // contribute an implicit 0; the value order within a node is
        // irrelevant because the median sorts them anyway.
        if fr > 1 {
            round_entries.sort_unstable_by_key(|&(v, _)| v);
            let mut i = 0usize;
            while i < round_entries.len() {
                let v = round_entries[i].0;
                median_buf.clear();
                while i < round_entries.len() && round_entries[i].0 == v {
                    median_buf.push(round_entries[i].1);
                    i += 1;
                }
                median_buf.resize(rounds, 0.0);
                median_buf.sort_by(|a, b| a.partial_cmp(b).expect("finite estimates"));
                let mid = median_buf.len() / 2;
                let med = if median_buf.len() % 2 == 1 {
                    median_buf[mid]
                } else {
                    0.5 * (median_buf[mid - 1] + median_buf[mid])
                };
                if med != 0.0 {
                    acc.add(v, med);
                }
            }
        }

        // Index part ŝ_I: threshold η̂π at ε/c₁ = ε(1−√c)²/12 (Alg. 4
        // line 16), over the walks actually drawn. Sorting the flat
        // observation list both aggregates the per-(w, ℓ) counts and
        // fixes the deterministic accumulation order; every accepted run
        // is resolved by one offset probe and scattered branchlessly into
        // `acc` — the run *is* the aggregation unit.
        let inv_nr = 1.0 / stats.walks as f64;
        let threshold = self.config.eps * alpha2 / 12.0;
        terminals.sort_unstable();
        let mut i = 0usize;
        while i < terminals.len() {
            let key = terminals[i];
            let start = i;
            while i < terminals.len() && terminals[i] == key {
                i += 1;
            }
            let ep = (i - start) as f64 * inv_nr;
            // The next run's membership probe overlaps this run's
            // scatter instead of heading the next iteration's chain.
            if let Some(&(wn, _)) = terminals.get(i) {
                hub_memo.prefetch(wn);
                index.prefetch_lookup(wn);
            }
            let (w, level) = key;
            if ep <= threshold || !hub_memo.get_or_insert_with(w, || index.contains(w)) {
                continue;
            }
            let scale = ep / alpha2;
            match index.postings_in(w, level as usize, pages) {
                Ok(Some(postings)) => {
                    stats.index_entries += postings.len();
                    postings.scatter_into(acc, scale);
                }
                Ok(None) => {}
                Err(_) => {
                    // Page fault: estimate π_ℓ(·,w) live instead of
                    // reading it — one VBBW scaled by the whole run's
                    // η̂π keeps the estimator unbiased, at higher
                    // variance. The response is flagged degraded.
                    stats.degraded = true;
                    stats.page_fallbacks += 1;
                    stats.backward_walks += 1;
                    stats.backward_cost += variance_bounded_backward_walk_fold_with_workspace(
                        graph,
                        sqrt_c,
                        w,
                        level as usize,
                        backward,
                        rng,
                        |v, pi_hat| acc.add(v, pi_hat * scale),
                    );
                }
            }
        }

        Ok(stats)
    }
}

/// The instant `timeout` from now; `None` (no deadline) when there is no
/// timeout or the sum is not representable.
fn deadline_after(timeout: Option<Duration>) -> Option<Instant> {
    timeout.and_then(|t| Instant::now().checked_add(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HubCount, QueryParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(eps: f64) -> PrsimConfig {
        PrsimConfig {
            eps,
            query: QueryParams::Practical { c_mult: 5.0 },
            ..Default::default()
        }
    }

    #[test]
    fn build_sorts_graph_and_selects_hubs() {
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(300, 6.0, 2.0, 5));
        let engine = Prsim::build(g, cfg(0.1)).unwrap();
        assert!(engine.graph().is_out_sorted_by_in_degree());
        // SqrtN policy: j0 = ceil(sqrt(300)) = 18.
        assert_eq!(engine.index().hub_count(), 18);
        // Hubs really are the top-π nodes.
        let order = crate::pagerank::rank_by_pagerank(engine.reverse_pagerank());
        assert_eq!(engine.index().hubs(), &order[..18]);
    }

    #[test]
    fn self_score_is_one_and_range_checked() {
        let g = prsim_gen::toys::cycle(6);
        let engine = Prsim::build(g, cfg(0.2)).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let s = engine.single_source(2, &mut rng);
        assert_eq!(s.get(2), 1.0);
        assert!(engine.try_single_source(6, &mut rng).is_err());
    }

    #[test]
    fn scores_lie_in_unit_interval() {
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(200, 6.0, 2.0, 9));
        let engine = Prsim::build(g, cfg(0.1)).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for u in [0u32, 10, 100] {
            let s = engine.single_source(u, &mut rng);
            for (v, val) in s.iter() {
                assert!(
                    (0.0..=1.0 + 0.35).contains(&val),
                    "s({u},{v}) = {val} implausible"
                );
                assert!(val >= 0.0);
            }
        }
    }

    #[test]
    fn disconnected_components_have_zero_similarity() {
        let g = prsim_gen::toys::two_triangles();
        let engine = Prsim::build(g, cfg(0.05)).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let s = engine.single_source(0, &mut rng);
        for v in 3..6 {
            assert_eq!(s.get(v), 0.0, "cross-component similarity must be 0");
        }
    }

    #[test]
    fn index_free_and_full_index_agree() {
        // j0 = 0 (pure backward walks) and j0 = n (pure index) must both
        // approximate the same function.
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(120, 5.0, 2.0, 17));
        let mk = |hubs| PrsimConfig {
            hubs,
            eps: 0.05,
            query: QueryParams::Explicit { dr: 4000, fr: 1 },
            ..Default::default()
        };
        let free = Prsim::build(g.clone(), mk(HubCount::Fixed(0))).unwrap();
        let full = Prsim::build(g, mk(HubCount::Fixed(usize::MAX))).unwrap();
        assert_eq!(free.index().hub_count(), 0);
        assert_eq!(full.index().hub_count(), 120);
        let mut rng = StdRng::seed_from_u64(2);
        let a = free.single_source(5, &mut rng);
        let b = full.single_source(5, &mut rng);
        let diff = a.max_abs_diff(&b);
        assert!(diff < 0.12, "index-free vs full-index diff {diff}");
    }

    #[test]
    fn median_trick_rounds_produce_sane_output() {
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(100, 5.0, 2.0, 23));
        let config = PrsimConfig {
            query: QueryParams::Explicit { dr: 500, fr: 5 },
            ..cfg(0.1)
        };
        let engine = Prsim::build(g, config).unwrap();
        assert_eq!(engine.sample_counts(), (500, 5));
        let mut rng = StdRng::seed_from_u64(4);
        let (s, stats) = engine.try_single_source(0, &mut rng).unwrap();
        assert_eq!(stats.walks, 2500);
        assert_eq!(s.get(0), 1.0);
        for (_, val) in s.iter() {
            assert!(val >= 0.0 && val.is_finite());
        }
    }

    #[test]
    fn stats_account_for_every_walk() {
        let g =
            prsim_gen::chung_lu_directed(prsim_gen::ChungLuConfig::new(150, 5.0, 1.8, 3), 2.2, 7);
        let engine = Prsim::build(g, cfg(0.1)).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let (_, stats) = engine.try_single_source(3, &mut rng).unwrap();
        let (dr, fr) = engine.sample_counts();
        assert_eq!(stats.walks, dr * fr);
        assert!(stats.died + stats.pair_met <= stats.walks);
        assert!(stats.backward_walks <= stats.walks - stats.died - stats.pair_met);
    }

    #[test]
    fn served_top_k_matches_the_full_vector_on_every_path() {
        // The served top-k must be exactly `top_k(k)` and `len()` of the
        // full-vector query on the same RNG stream: single round and
        // median trick, untimed, a deadline that never fires, and an
        // expired one (cut after the first chunk, so the rescale runs
        // under both finishers).
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(400, 6.0, 2.0, 29));
        let rounds = PrsimConfig {
            query: QueryParams::Explicit { dr: 1500, fr: 3 },
            ..cfg(0.1)
        };
        let mut ws = QueryWorkspace::new();
        for config in [cfg(0.1), rounds] {
            let engine = Prsim::build(g.clone(), config).unwrap();
            for timeout in [None, Some(Duration::from_secs(60)), Some(Duration::ZERO)] {
                for (i, u) in [0u32, 9, 123, 399].into_iter().enumerate() {
                    let k = [0, 1, 10, usize::MAX][i];
                    let seed = 7 * u64::from(u) + 1;
                    let mut rng = StdRng::seed_from_u64(seed);
                    let (scores, full) = engine
                        .try_single_source_with_deadline(u, timeout, &mut rng)
                        .unwrap();
                    let mut rng = StdRng::seed_from_u64(seed);
                    let (served, stats) = engine
                        .try_single_source_top_k_with_workspace(u, k, timeout, &mut ws, &mut rng)
                        .unwrap();
                    let at = format!("timeout {timeout:?}, source {u}, k {k}");
                    assert_eq!(served.top, scores.top_k(k), "{at}");
                    assert_eq!(served.len, scores.len(), "{at}");
                    assert_eq!(stats, full, "{at}");
                    let (dr, fr) = engine.sample_counts();
                    assert_eq!(
                        stats.degraded,
                        timeout == Some(Duration::ZERO) && dr * fr > CHUNK_WALKS,
                        "{at}"
                    );
                }
            }
        }
        let engine = Prsim::build(g, cfg(0.1)).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            engine.try_single_source_top_k_with_workspace(400, 5, None, &mut ws, &mut rng),
            Err(PrsimError::NodeOutOfRange { node: 400, n: 400 })
        ));
    }

    #[test]
    fn batch_matches_serial_and_is_schedule_independent() {
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(120, 5.0, 2.0, 31));
        let engine = Prsim::build(g, cfg(0.1)).unwrap();
        let queries = [0u32, 7, 33, 99, 45, 12, 80];
        let serial = engine.batch_single_source(&queries, 1, 1234).unwrap();
        let parallel = engine.batch_single_source(&queries, 4, 1234).unwrap();
        assert_eq!(serial.len(), queries.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.max_abs_diff(b), 0.0);
        }
        // Out-of-range rejected before any work.
        assert!(engine.batch_single_source(&[0, 500], 2, 0).is_err());
    }

    #[test]
    fn batch_thread_cap_respects_hardware_and_chunk_floor() {
        let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
        // Never above hardware, never above ceil(queries / 8), never 0.
        assert!(Prsim::effective_batch_threads(1000, 64) <= hw);
        assert_eq!(Prsim::effective_batch_threads(1000, 0), 1);
        assert_eq!(
            Prsim::effective_batch_threads(7, 4),
            1,
            "7 queries: 1 worker"
        );
        assert!(Prsim::effective_batch_threads(16, 4) <= 2);
        assert_eq!(
            Prsim::effective_batch_threads(usize::MAX, usize::MAX),
            hw,
            "huge batches saturate exactly the hardware"
        );
    }

    #[test]
    fn no_deadline_is_bit_identical_to_untimed() {
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(150, 5.0, 2.0, 11));
        let engine = Prsim::build(g, cfg(0.1)).unwrap();
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        let (a, _) = engine.try_single_source(7, &mut rng_a).unwrap();
        let (b, stats) = engine
            .try_single_source_with_deadline(7, None, &mut rng_b)
            .unwrap();
        assert_eq!(a.max_abs_diff(&b), 0.0, "timeout=None must not perturb");
        assert!(!stats.degraded);
    }

    #[test]
    fn generous_deadline_completes_undegraded() {
        // A deadline that never fires runs the untimed query's code on
        // its RNG stream: the same bits and the same stats, across
        // several chunks per round and the median trick.
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(120, 5.0, 2.0, 13));
        let config = PrsimConfig {
            query: QueryParams::Explicit { dr: 2500, fr: 3 },
            ..cfg(0.1)
        };
        let engine = Prsim::build(g, config).unwrap();
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let (a, untimed) = engine.try_single_source(3, &mut rng_a).unwrap();
        let (b, stats) = engine
            .try_single_source_with_deadline(3, Some(Duration::from_secs(120)), &mut rng_b)
            .unwrap();
        assert!(!stats.degraded);
        assert_eq!(stats.walks, 7500, "all rounds must run to completion");
        assert_eq!(stats, untimed);
        assert_eq!(
            a.max_abs_diff(&b),
            0.0,
            "a non-firing deadline must not perturb"
        );
    }

    #[test]
    fn deadline_cut_matches_the_realized_sample_budget() {
        // An expired deadline stops after the first chunk. The cut round
        // is rescaled to the walks it drew, so it must equal — bit for
        // bit — the untimed query of an engine whose whole budget is that
        // one chunk (power-of-two scale factors are exact in floating
        // point). Cache off: pool sizes follow the sample budget.
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(300, 6.0, 2.0, 37));
        let engine = |dr, fr| {
            let config = PrsimConfig {
                query: QueryParams::Explicit { dr, fr },
                walk_cache_budget: 0,
                ..cfg(0.1)
            };
            Prsim::build(g.clone(), config).unwrap()
        };
        let one_chunk = engine(CHUNK_WALKS, 1);
        // Cut mid-round (rescale by 2), and cut between rounds (the
        // median over the single round that ran).
        for cut in [engine(2 * CHUNK_WALKS, 1), engine(CHUNK_WALKS, 3)] {
            for u in [0u32, 42, 299] {
                let mut rng = StdRng::seed_from_u64(11 + u64::from(u));
                let (a, cut_stats) = cut
                    .try_single_source_with_deadline(u, Some(Duration::ZERO), &mut rng)
                    .unwrap();
                let mut rng = StdRng::seed_from_u64(11 + u64::from(u));
                let (b, whole) = one_chunk.try_single_source(u, &mut rng).unwrap();
                assert!(cut_stats.degraded && !whole.degraded);
                assert_eq!(
                    QueryStats {
                        degraded: false,
                        ..cut_stats
                    },
                    whole,
                    "source {u}"
                );
                assert_eq!(a.max_abs_diff(&b), 0.0, "source {u}");
            }
        }
    }

    #[test]
    fn tight_deadline_degrades_gracefully() {
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(200, 6.0, 2.0, 17));
        let config = PrsimConfig {
            query: QueryParams::Explicit { dr: 200_000, fr: 3 },
            ..cfg(0.1)
        };
        let engine = Prsim::build(g, config).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let (s, stats) = engine
            .try_single_source_with_deadline(0, Some(Duration::ZERO), &mut rng)
            .unwrap();
        // An already-expired deadline still processes the first chunk —
        // a degraded answer is an estimate, never an empty one.
        assert!(stats.degraded);
        assert!(stats.walks >= 1 && stats.walks < 600_000);
        assert_eq!(s.get(0), 1.0);
        for (_, val) in s.iter() {
            assert!(val.is_finite() && val >= 0.0);
        }
    }

    #[test]
    fn single_pair_matches_known_values() {
        let g = prsim_gen::toys::star_out(6);
        let engine = Prsim::build(
            g,
            PrsimConfig {
                query: QueryParams::Explicit { dr: 50_000, fr: 1 },
                ..cfg(0.05)
            },
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        assert_eq!(engine.single_pair(2, 2, &mut rng).unwrap(), 1.0);
        let s = engine.single_pair(1, 2, &mut rng).unwrap();
        assert!((s - 0.6).abs() < 0.02, "s(1,2) = {s}, want 0.6");
        assert!(engine.single_pair(1, 99, &mut rng).is_err());
    }

    #[test]
    fn from_parts_validates() {
        let g = prsim_gen::toys::cycle(4); // unsorted
        let idx = PrsimIndex::empty(4);
        let err = Prsim::from_parts(g, vec![0.25; 4], idx, cfg(0.1));
        assert!(err.is_err(), "unsorted graph must be rejected");

        let mut g = prsim_gen::toys::cycle(4);
        prsim_graph::ordering::sort_out_by_in_degree(&mut g);
        let idx = PrsimIndex::empty(4);
        let err = Prsim::from_parts(g, vec![0.25; 3], idx, cfg(0.1));
        assert!(err.is_err(), "wrong-length π must be rejected");
    }

    #[test]
    fn from_parts_holds_loaded_f32_index_to_the_eps_budget() {
        // A deserialized f32 index must not bypass the quantization
        // guard: querying it with an eps below the f32 floor is exactly
        // the accuracy contract the config validation protects.
        use crate::index::ReservePrecision;
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(60, 4.0, 2.0, 9));
        let narrow = Prsim::build(
            g,
            PrsimConfig {
                reserve_precision: ReservePrecision::F32,
                ..cfg(0.1)
            },
        )
        .unwrap();
        let bytes = narrow.index().to_bytes();
        let (graph, pi, _, _, _) = narrow.into_parts();
        let loaded = PrsimIndex::from_bytes(&bytes, graph.node_count()).unwrap();
        assert_eq!(loaded.precision(), ReservePrecision::F32);
        // Same index, tiny eps, default (f64) config precision: rejected.
        let err = Prsim::from_parts(graph.clone(), pi.clone(), loaded.clone(), cfg(1e-7));
        assert!(err.is_err(), "f32 index + eps below the floor accepted");
        // A generous eps is fine.
        Prsim::from_parts(graph, pi, loaded, cfg(0.1)).unwrap();
    }
}

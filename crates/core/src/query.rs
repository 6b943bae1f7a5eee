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
//! final score assembly are all `O(1)` array probes with `O(touched)`
//! clearing — no hashing, no per-query allocation after warmup (beyond
//! the returned score vector itself). Terminal observations are
//! aggregated into `η̂π_ℓ(u,w)` by sorting a flat `(w, ℓ)` vector instead
//! of a hash map, which also supplies the sorted iteration order the
//! deterministic `ŝ_I` accumulation needs. Results are **bit-identical**
//! between a fresh and a reused workspace, so the allocating entry
//! points simply construct a transient one.
//!
//! The walk phases run as **sorted wavefronts** (terminals, then the η
//! pair tests): all in-flight walks advance level-synchronously with the
//! frontier radix-binned by current node id, so one level's CSR reads
//! sweep the adjacency arrays in ascending order instead of chasing
//! independent pointers, and walks arriving at a node cached by the
//! [`crate::walkcache::WalkCache`] retire immediately on a pre-drawn
//! sample (the top-π nodes carry most of the walk mass, so most walks
//! end within a hop or two of leaving the source). The index part `ŝ_I`
//! reads each accepted hub terminal as
//! one *sequential scan* of a postings run in the flat arena
//! ([`crate::index`]); its aggregation is adaptive — random scatter
//! into the dense accumulator while that array is cache-resident
//! (small graphs), and above `SCATTER_NODES_MAX` a scatter-free
//! stream into a flat buffer that is radix-sorted, coalesced, and
//! two-pointer merged with the (bwalk-only, hence small) accumulator
//! into the final sorted score vector. Fully fused/interleaved variants
//! of the sampling and backward-walk kernels exist
//! ([`crate::walk::sample_terminals_with_eta_interleaved`],
//! [`crate::vbbw::variance_bounded_backward_walks_interleaved`]) for
//! latency-bound hosts; on the benchmark box the phase-separated loop
//! measures faster, so it is what the engine runs.

use std::time::{Duration, Instant};

use prsim_graph::ordering::sort_out_by_in_degree;
use prsim_graph::{DiGraph, NodeId};
use rand::{Rng, SeedableRng};

use crate::config::{PrsimConfig, QueryPlan};
use crate::index::{Postings, PrsimIndex};
use crate::pagerank::{rank_by_pagerank, reverse_pagerank};
use crate::scores::{select_top_k, SimRankScores, TopEntries};
use crate::vbbw::{
    variance_bounded_backward_walk_fold_with_workspace,
    variance_bounded_backward_walk_with_workspace,
};
use crate::walk::{
    sample_pairs_meet_wavefront, sample_terminals_wavefront, sample_walk_phase_interleaved,
    sample_walk_phase_interleaved_prefetch, sample_walks_meet_with_table, GeomLenTable, NoDraws,
    TerminalDraws, WaveScratch, WaveStats,
};
use crate::walkcache::{pool_samples, WalkCache};
use crate::workspace::{DenseScratch, QueryWorkspace};
use crate::PrsimError;

/// Node-count ceiling for the scatter variant of the `ŝ_I`/`ŝ_B`
/// aggregation: up to this size the dense accumulator (16 bytes per
/// node) stays cache-resident and random adds beat the streaming sort
/// path.
const SCATTER_NODES_MAX: usize = 32_768;

/// Walk-count floor for the sorted-wavefront kernels: below it the walk
/// phase runs the fused 8-lane interleaved kernel, whose memory-level
/// parallelism wins when the frontier is too sparse for radix-binned CSR
/// reads to coalesce (measured decisively on the benchmark box at
/// per-query sizes — see `BENCH_query.json`'s protocol note); at or
/// above it the level-synchronous wavefront takes over, where one
/// level's sorted sweep amortizes across many walks per adjacency
/// region. Both kernels consume the same cache hooks and workspace
/// scratch, so the switch is purely an execution-strategy decision.
const WAVEFRONT_MIN_WALKS: usize = 4_096;

/// Walk-draw granularity of deadline-bounded queries: the wall clock is
/// consulted only between chunks of this many √c-walks (each folded into
/// the estimators immediately), so the worst-case overrun past a
/// deadline is one chunk's sampling plus its backward walks, while the
/// fused walk kernel still gets frontiers large enough to amortize its
/// lane setup.
const DEADLINE_CHUNK_WALKS: usize = 1_024;

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
    /// Largest wavefront frontier carried across a level in this query.
    pub wavefront_peak: usize,
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
#[derive(Clone, Debug)]
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
        let (index, _) = PrsimIndex::build_tracked_with(
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

    /// Overrides the configured [`QueryPlan`] in place. Both plans draw
    /// the same RNG stream, so flipping the plan between queries is a
    /// measurement tool (the interleaved fused-vs-reference protocol in
    /// `query_hot`), not a semantic switch: estimates differ only by the
    /// final-level reassociation bound documented on [`QueryPlan`].
    pub fn set_query_plan(&mut self, plan: QueryPlan) {
        self.config.plan = plan;
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
        self.run_query(u, samples.max(1), 1, &mut ws, rng)
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
        self.run_query(u, samples.max(1), 1, ws, rng)
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
        self.run_query(u, self.dr, self.fr, &mut ws, rng)
    }

    /// Checked single-source query against a caller-owned workspace.
    pub fn try_single_source_with_workspace<R: Rng + ?Sized>(
        &self,
        u: NodeId,
        ws: &mut QueryWorkspace,
        rng: &mut R,
    ) -> Result<(SimRankScores, QueryStats), PrsimError> {
        self.run_query(u, self.dr, self.fr, ws, rng)
    }

    /// Checked single-source query under an optional wall-clock budget.
    ///
    /// `timeout = None` *is* [`Prsim::try_single_source`] — the same
    /// code path, the same RNG stream, bit-identical scores. With a
    /// budget, the walk phase draws in `DEADLINE_CHUNK_WALKS`-sized
    /// chunks and stops sampling once the deadline passes: the returned
    /// scores are the estimate over the samples drawn so far (every
    /// estimator denominator is rescaled to the realized sample count,
    /// so truncation costs variance, not bias) and
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
        match timeout {
            None => self.run_query(u, self.dr, self.fr, ws, rng),
            Some(budget) => {
                let deadline = Instant::now() + budget;
                self.run_query_deadline(u, self.dr, self.fr, deadline, ws, rng)
            }
        }
    }

    /// The served form of
    /// [`Prsim::try_single_source_with_deadline_with_workspace`]: the
    /// `k` best entries and the entry count ([`TopEntries`]), without
    /// building the score vector where possible.
    ///
    /// An untimed query on the fused plan selects straight from the
    /// dense accumulator: no radix drain and no allocation of the
    /// full-length entry vector. The reference plan and deadline
    /// queries assemble the full vector and rank it. Either way the
    /// result is `top_k(k)` and `len()` of the full-vector query on the
    /// same RNG stream, and the stats are the same.
    pub fn try_single_source_top_k_with_workspace<R: Rng + ?Sized>(
        &self,
        u: NodeId,
        k: usize,
        timeout: Option<Duration>,
        ws: &mut QueryWorkspace,
        rng: &mut R,
    ) -> Result<(TopEntries, QueryStats), PrsimError> {
        if timeout.is_some() || self.query_plan() == QueryPlan::Reference {
            let (scores, stats) =
                self.try_single_source_with_deadline_with_workspace(u, timeout, ws, rng)?;
            let top = scores.top_k(k);
            return Ok((
                TopEntries {
                    top,
                    len: scores.len(),
                },
                stats,
            ));
        }
        let stats = self.accumulate_fused(u, self.dr, self.fr, ws, rng)?;
        let acc = &ws.acc;
        let top = TopEntries {
            top: select_top_k(acc.iter(), acc.len(), k, u),
            len: acc.len() + usize::from(!acc.contains(u)),
        };
        Ok((top, stats))
    }

    /// The query plan this engine actually runs: the configured
    /// [`QueryPlan`], with `Auto` resolved to `Fused` while the postings
    /// arena is memory-resident (see [`PrsimIndex::is_resident`]) and
    /// `Reference` otherwise. Both plans consume identical RNG streams;
    /// see [`QueryPlan`] for the numeric contract between them.
    pub fn query_plan(&self) -> QueryPlan {
        match self.config.plan {
            QueryPlan::Fused => QueryPlan::Fused,
            QueryPlan::Reference => QueryPlan::Reference,
            QueryPlan::Auto => {
                if self.index.is_resident() {
                    QueryPlan::Fused
                } else {
                    QueryPlan::Reference
                }
            }
        }
    }

    fn run_query<R: Rng + ?Sized>(
        &self,
        u: NodeId,
        dr: usize,
        fr: usize,
        ws: &mut QueryWorkspace,
        rng: &mut R,
    ) -> Result<(SimRankScores, QueryStats), PrsimError> {
        match self.query_plan() {
            QueryPlan::Reference => self.run_query_reference(u, dr, fr, ws, rng),
            _ => self.run_query_fused(u, dr, fr, ws, rng),
        }
    }

    /// The fused query plan ([`QueryPlan::Fused`]): same sampling phases
    /// and RNG stream as the reference pipeline, but the back half never
    /// materializes an intermediate sorted buffer —
    ///
    /// * each non-hub terminal's VBBW folds its final level straight
    ///   into the dense accumulator
    ///   ([`variance_bounded_backward_walk_fold_with_workspace`]), with
    ///   next-level CSR lines prefetched inside the walk and the next
    ///   terminal's root adjacency prefetched across walks;
    /// * each accepted hub terminal's postings run — resolved by one
    ///   `bounds` offset probe ([`PrsimIndex::postings`]) — is scattered
    ///   into the same accumulator by the branchless 8-lane kernel
    ///   ([`Postings::scatter_into`]);
    /// * final assembly is one radix sort of the touched node ids; no
    ///   per-entry pair sort, no coalesce, no two-pointer merge.
    ///
    /// The dense accumulator is written unconditionally at every graph
    /// size (the reference plan's streaming mode exists to avoid random
    /// writes over a large node universe, but the measured crossover
    /// favors the scatter once the pair sort is gone — see
    /// `BENCH_query.json`). Per-node addition order is chronological
    /// exactly as in the reference plan, so estimates differ only by the
    /// documented final-level fold reassociation.
    fn run_query_fused<R: Rng + ?Sized>(
        &self,
        u: NodeId,
        dr: usize,
        fr: usize,
        ws: &mut QueryWorkspace,
        rng: &mut R,
    ) -> Result<(SimRankScores, QueryStats), PrsimError> {
        let stats = self.accumulate_fused(u, dr, fr, ws, rng)?;
        // Final assembly: the accumulator already holds ŝ = ŝ_B + ŝ_I;
        // the terminal drain runs the touched-id radix sort with the
        // value gather fused into its last pass.
        let mut entries = Vec::new();
        ws.acc.drain_sorted_into(&mut entries);
        let scores = SimRankScores::from_sorted_entries(u, self.graph.node_count(), entries);
        Ok((scores, stats))
    }

    /// The fused plan up to its final assembly: every sampling and
    /// folding phase of [`Prsim::run_query_fused`], leaving
    /// `ŝ = ŝ_B + ŝ_I` (source diagonal not yet set) in `ws.acc`.
    fn accumulate_fused<R: Rng + ?Sized>(
        &self,
        u: NodeId,
        dr: usize,
        fr: usize,
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
        let nr = dr * fr;
        let inv_nr = 1.0 / nr as f64;
        let backward_scale = 1.0 / (alpha2 * dr as f64);
        let mut stats = QueryStats::default();

        let QueryWorkspace {
            backward,
            round,
            acc,
            hub_memo,
            terminals,
            term_buf,
            pair_buf,
            met_buf,
            round_entries,
            median_buf,
            wave,
            cache_cursors,
            pair_idx,
            pair_met,
            sample_buf,
            pages,
            ..
        } = ws;
        let graph = &self.graph;
        let index = &self.index;
        let cache = self.cache.as_ref();
        if let Some(cache) = cache {
            cache_cursors.begin(cache.pool_count());
        }
        hub_memo.begin(n);
        terminals.clear();
        round_entries.clear();
        if fr > 1 {
            acc.begin(n);
        }

        for _ in 0..fr {
            // Per-round backward estimator ŝ_B^i, always on dense
            // scratch; with a single round it accumulates straight into
            // `acc` alongside ŝ_I.
            let round: &mut DenseScratch = if fr == 1 { &mut *acc } else { &mut *round };
            round.begin(n);

            sample_buf.clear();
            stats.walks += dr;
            let wstats: WaveStats = match cache {
                Some(cache) => {
                    let mut session = cache.session(cache_cursors);
                    walk_phase::<_, _, true>(
                        graph,
                        &self.geom,
                        u,
                        dr,
                        &mut session,
                        sample_buf,
                        term_buf,
                        pair_buf,
                        pair_idx,
                        pair_met,
                        met_buf,
                        wave,
                        rng,
                    )
                }
                None => walk_phase::<_, _, true>(
                    graph,
                    &self.geom,
                    u,
                    dr,
                    &mut NoDraws,
                    sample_buf,
                    term_buf,
                    pair_buf,
                    pair_idx,
                    pair_met,
                    met_buf,
                    wave,
                    rng,
                ),
            };
            stats.died += wstats.died;
            stats.cached_terminals += wstats.cache_hits;
            stats.cached_eta += wstats.eta_hits;
            stats.wavefront_peak = stats.wavefront_peak.max(wstats.peak_frontier);

            // Phase 3, fused: accepted samples fold into η̂π and straight
            // into the round accumulator. A two-deep software pipeline
            // runs across terminals: while terminal i's walk chases its
            // frontier, terminal i+1's root adjacency is already on its
            // way up the cache hierarchy.
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
            if fr > 1 {
                // Bank the round for the median pass; no per-round sort
                // (round_entries is sorted globally below).
                for (v, s) in round.iter() {
                    round_entries.push((v, s));
                }
            }
        }

        // Median trick over the f_r rounds (identical to the reference
        // plan's scatter mode).
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
                median_buf.resize(fr, 0.0);
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

        // Index part ŝ_I, fused: every accepted run is resolved by one
        // offset probe and scattered branchlessly into `acc` — the run
        // *is* the aggregation unit; nothing is streamed or re-sorted.
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
            match index.postings_in(w, level as usize, pages) {
                Ok(Some(postings)) => {
                    stats.index_entries += postings.len();
                    postings.scatter_into(acc, ep / alpha2);
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
                    let scale = ep / alpha2;
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

    /// The reference query plan ([`QueryPlan::Reference`]): the
    /// phase-separated pipeline (materialized backward estimates,
    /// size-adaptive scatter/streaming aggregation, radix sort +
    /// coalesce + merge). Kept intact as the differential baseline for
    /// the fused plan — and as the landing path for non-resident
    /// (paged) arenas once the out-of-core buffer manager exists.
    fn run_query_reference<R: Rng + ?Sized>(
        &self,
        u: NodeId,
        dr: usize,
        fr: usize,
        ws: &mut QueryWorkspace,
        rng: &mut R,
    ) -> Result<(SimRankScores, QueryStats), PrsimError> {
        let n = self.graph.node_count();
        if u as usize >= n {
            return Err(PrsimError::NodeOutOfRange { node: u, n });
        }
        let sqrt_c = self.config.sqrt_c();
        let alpha = 1.0 - sqrt_c;
        let alpha2 = alpha * alpha;
        let nr = dr * fr;
        let inv_nr = 1.0 / nr as f64;
        let backward_scale = 1.0 / (alpha2 * dr as f64);
        let mut stats = QueryStats::default();

        let QueryWorkspace {
            backward,
            round,
            acc,
            hub_memo,
            terminals,
            term_buf,
            pair_buf,
            met_buf,
            round_entries,
            median_buf,
            ix_buf,
            ix_tmp,
            bw_buf,
            wave,
            cache_cursors,
            pair_idx,
            pair_met,
            sample_buf,
            pages,
        } = ws;
        let index = &self.index;
        let cache = self.cache.as_ref();
        if let Some(cache) = cache {
            // Arm the without-replacement cursors: one generation per
            // query, spanning all of its rounds.
            cache_cursors.begin(cache.pool_count());
        }
        hub_memo.begin(n);
        terminals.clear();
        round_entries.clear();
        bw_buf.clear();
        // Accumulation strategy for ŝ_B and ŝ_I alike: while the dense
        // per-node accumulator is cache-resident (small graphs), random
        // scatter into it is nearly free; above SCATTER_NODES_MAX every
        // contribution is streamed into a flat buffer and duplicates are
        // resolved by a stable radix sort + coalesce — no random writes
        // over the (large) node universe at all. Chronological per-node
        // addition order is identical either way, so the two strategies
        // produce bit-identical sums.
        let scatter = n <= SCATTER_NODES_MAX;
        if scatter && fr > 1 {
            acc.begin(n);
        }

        for _ in 0..fr {
            // Per-round backward estimator ŝ_B^i. Scatter mode runs it on
            // dense scratch (with a single round ŝ_B is the final
            // backward part, so it accumulates straight into `acc` and
            // skips the merge); streaming mode appends to `bw_buf`, which
            // is coalesced per round (fr > 1) or once at the end (fr = 1).
            let round: &mut DenseScratch = if fr == 1 { &mut *acc } else { &mut *round };
            if scatter {
                round.begin(n);
            } else if fr > 1 {
                bw_buf.clear();
            }

            // Phases 1+2: the round's √c-walk terminals and their η
            // verdicts, consuming cached pre-drawn samples wherever a
            // walk arrives at (or terminates on) a cached node. Execution
            // strategy is adaptive (see [`WAVEFRONT_MIN_WALKS`]): fused
            // 8-lane interleaving at per-query sizes, sorted wavefront on
            // large frontiers.
            sample_buf.clear();
            stats.walks += dr;
            let wstats: WaveStats = match cache {
                Some(cache) => {
                    let mut session = cache.session(cache_cursors);
                    walk_phase::<_, _, false>(
                        &self.graph,
                        &self.geom,
                        u,
                        dr,
                        &mut session,
                        sample_buf,
                        term_buf,
                        pair_buf,
                        pair_idx,
                        pair_met,
                        met_buf,
                        wave,
                        rng,
                    )
                }
                None => walk_phase::<_, _, false>(
                    &self.graph,
                    &self.geom,
                    u,
                    dr,
                    &mut NoDraws,
                    sample_buf,
                    term_buf,
                    pair_buf,
                    pair_idx,
                    pair_met,
                    met_buf,
                    wave,
                    rng,
                ),
            };
            stats.died += wstats.died;
            stats.cached_terminals += wstats.cache_hits;
            stats.cached_eta += wstats.eta_hits;
            stats.wavefront_peak = stats.wavefront_peak.max(wstats.peak_frontier);

            // Phase 3: fold accepted samples into η̂π and ŝ_B.
            for &(w, level, met) in sample_buf.iter() {
                if met {
                    stats.pair_met += 1;
                    continue;
                }
                // η̂π_ℓ(u, w) observation; aggregated after the rounds.
                terminals.push((w, level));
                if !hub_memo.get_or_insert_with(w, || index.contains(w)) {
                    stats.backward_walks += 1;
                    let est = variance_bounded_backward_walk_with_workspace(
                        &self.graph,
                        sqrt_c,
                        w,
                        level as usize,
                        backward,
                        rng,
                    );
                    stats.backward_cost += est.cost();
                    if scatter {
                        for (v, pi_hat) in est.iter() {
                            round.add(v, pi_hat * backward_scale);
                        }
                    } else {
                        for (v, pi_hat) in est.iter() {
                            bw_buf.push((v, pi_hat * backward_scale));
                        }
                    }
                }
            }
            if fr > 1 {
                if scatter {
                    // No per-round sort: round_entries is sorted globally
                    // by node id below, and the median pass re-sorts each
                    // node's values anyway.
                    for (v, s) in round.iter() {
                        round_entries.push((v, s));
                    }
                } else {
                    // Coalesce the round's stream (per-round per-node sums
                    // are what the median ranks) and bank it.
                    crate::workspace::radix_sort_pairs(bw_buf, ix_tmp);
                    coalesce_sorted(bw_buf);
                    round_entries.extend_from_slice(bw_buf);
                }
            }
        }
        if !scatter {
            if fr == 1 {
                // Single round: the stream *is* ŝ_B; coalesce it once.
                crate::workspace::radix_sort_pairs(bw_buf, ix_tmp);
                coalesce_sorted(bw_buf);
            } else {
                bw_buf.clear(); // rebuilt below from the medians
            }
        }

        // Median trick over the f_r rounds.
        if fr > 1 {
            // Group per node; the value order within a node is irrelevant
            // because the median sorts them anyway.
            round_entries.sort_unstable_by_key(|&(v, _)| v);
            let mut i = 0usize;
            while i < round_entries.len() {
                let v = round_entries[i].0;
                median_buf.clear();
                while i < round_entries.len() && round_entries[i].0 == v {
                    median_buf.push(round_entries[i].1);
                    i += 1;
                }
                // Untouched rounds contribute an implicit 0.
                median_buf.resize(fr, 0.0);
                median_buf.sort_by(|a, b| a.partial_cmp(b).expect("finite estimates"));
                let mid = median_buf.len() / 2;
                let med = if median_buf.len() % 2 == 1 {
                    median_buf[mid]
                } else {
                    0.5 * (median_buf[mid - 1] + median_buf[mid])
                };
                if med != 0.0 {
                    if scatter {
                        acc.add(v, med);
                    } else {
                        // round_entries is sorted by node, so the medians
                        // emerge in ascending order: bw_buf becomes the
                        // sorted coalesced ŝ_B directly.
                        bw_buf.push((v, med));
                    }
                }
            }
        }

        // Index part ŝ_I: threshold η̂π at ε/c₁ = ε(1−√c)²/12 (Alg. 4 line
        // 16). Sorting the flat observation list both aggregates the
        // per-(w, ℓ) counts and fixes the deterministic accumulation order
        // the old sorted-hash-map iteration provided.
        //
        // Postings aggregation follows the same `scatter` strategy the
        // rounds chose for ŝ_B above: scatter straight into `acc` while
        // the dense accumulator is cache-resident; above that size each
        // accepted hub terminal's run is *streamed sequentially* out of
        // the arena into a flat scaled buffer and duplicates are resolved
        // by a stable radix sort + coalesce over the (small) buffer —
        // no random writes over the (large) node universe at all.
        let threshold = self.config.eps * alpha2 / 12.0;
        terminals.sort_unstable();
        ix_buf.clear();
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
                    // One match per slice, then a monomorphic sequential
                    // scan of the arena run.
                    match (scatter, postings) {
                        (true, Postings::F64 { nodes, reserves }) => {
                            acc.add_scaled(nodes, reserves, scale)
                        }
                        (true, Postings::F32 { nodes, reserves }) => {
                            acc.add_scaled_f32(nodes, reserves, scale)
                        }
                        (false, Postings::F64 { nodes, reserves }) => {
                            for (&v, &psi) in nodes.iter().zip(reserves) {
                                ix_buf.push((v, scale * psi));
                            }
                        }
                        (false, Postings::F32 { nodes, reserves }) => {
                            for (&v, &psi) in nodes.iter().zip(reserves) {
                                ix_buf.push((v, scale * f64::from(psi)));
                            }
                        }
                    }
                }
                Ok(None) => {}
                Err(_) => {
                    // Page fault: fall back to one live backward walk
                    // scaled by the run's η̂π (unbiased, higher variance)
                    // and flag the response degraded.
                    stats.degraded = true;
                    stats.page_fallbacks += 1;
                    stats.backward_walks += 1;
                    if scatter {
                        stats.backward_cost += variance_bounded_backward_walk_fold_with_workspace(
                            &self.graph,
                            sqrt_c,
                            w,
                            level as usize,
                            backward,
                            rng,
                            |v, pi_hat| acc.add(v, pi_hat * scale),
                        );
                    } else {
                        stats.backward_cost += variance_bounded_backward_walk_fold_with_workspace(
                            &self.graph,
                            sqrt_c,
                            w,
                            level as usize,
                            backward,
                            rng,
                            |v, pi_hat| ix_buf.push((v, pi_hat * scale)),
                        );
                    }
                }
            }
        }
        // Aggregate ŝ_I by node: stable radix sort keeps per-node addend
        // order (= accepted-terminal order), then coalesce adjacent runs.
        // (No-op on the scatter path: ix_buf stays empty.)
        crate::workspace::radix_sort_pairs(ix_buf, ix_tmp);
        coalesce_sorted(ix_buf);

        // Final assembly ŝ = ŝ_B + ŝ_I: two-pointer merge of the sorted
        // backward part (dense accumulator in scatter mode, coalesced
        // stream in streaming mode) and the sorted index buffer.
        let entries: Vec<(NodeId, f64)> = if scatter {
            acc.sort_touched();
            let mut entries = Vec::with_capacity(acc.len() + ix_buf.len() + 1);
            merge_sorted_into(acc.iter(), ix_buf, &mut entries);
            entries
        } else {
            let mut entries = Vec::with_capacity(bw_buf.len() + ix_buf.len() + 1);
            merge_sorted_into(bw_buf.iter().copied(), ix_buf, &mut entries);
            entries
        };
        let scores = SimRankScores::from_sorted_entries(u, n, entries);
        Ok((scores, stats))
    }

    /// Deadline-bounded variant of [`Prsim::run_query`]: the same
    /// estimator pipeline, but the per-round √c-walks are drawn in
    /// [`DEADLINE_CHUNK_WALKS`]-sized chunks that are folded into the
    /// estimators immediately, and sampling stops at the deadline. The
    /// backward scale `1/(α²·d_r)` and the joint-estimator denominator
    /// `1/n_r` are computed from the walks *actually drawn* — backward
    /// estimates are banked unscaled and rescaled once the round's
    /// realized sample count is known — so a truncated query returns an
    /// unbiased estimate over its smaller sample. Accumulation always
    /// runs in streaming mode (the deferred rescale is a flat multiply
    /// over the round's buffer there); the median trick ranks only the
    /// rounds that ran.
    fn run_query_deadline<R: Rng + ?Sized>(
        &self,
        u: NodeId,
        dr: usize,
        fr: usize,
        deadline: Instant,
        ws: &mut QueryWorkspace,
        rng: &mut R,
    ) -> Result<(SimRankScores, QueryStats), PrsimError> {
        let n = self.graph.node_count();
        if u as usize >= n {
            return Err(PrsimError::NodeOutOfRange { node: u, n });
        }
        let sqrt_c = self.config.sqrt_c();
        let alpha = 1.0 - sqrt_c;
        let alpha2 = alpha * alpha;
        let mut stats = QueryStats::default();

        let QueryWorkspace {
            backward,
            hub_memo,
            terminals,
            round_entries,
            median_buf,
            ix_buf,
            ix_tmp,
            bw_buf,
            cache_cursors,
            sample_buf,
            pages,
            ..
        } = ws;
        let index = &self.index;
        let cache = self.cache.as_ref();
        if let Some(cache) = cache {
            cache_cursors.begin(cache.pool_count());
        }
        hub_memo.begin(n);
        terminals.clear();
        round_entries.clear();

        let mut total_walks = 0usize;
        let mut rounds_done = 0usize;
        let mut cut = false;
        for _ in 0..fr {
            bw_buf.clear();
            let mut round_walks = 0usize;
            while round_walks < dr {
                let chunk = (dr - round_walks).min(DEADLINE_CHUNK_WALKS);
                sample_buf.clear();
                let wstats: WaveStats = match cache {
                    Some(cache) => {
                        let mut session = cache.session(cache_cursors);
                        sample_walk_phase_interleaved(
                            &self.graph,
                            &self.geom,
                            u,
                            chunk,
                            &mut session,
                            sample_buf,
                            rng,
                        )
                    }
                    None => sample_walk_phase_interleaved(
                        &self.graph,
                        &self.geom,
                        u,
                        chunk,
                        &mut NoDraws,
                        sample_buf,
                        rng,
                    ),
                };
                round_walks += chunk;
                stats.walks += chunk;
                stats.died += wstats.died;
                stats.cached_terminals += wstats.cache_hits;
                stats.cached_eta += wstats.eta_hits;
                stats.wavefront_peak = stats.wavefront_peak.max(wstats.peak_frontier);
                // Fold the chunk now (phase 3), banking backward
                // estimates *unscaled*: the round's realized d_r is only
                // known once the deadline has had its say.
                for &(w, level, met) in sample_buf.iter() {
                    if met {
                        stats.pair_met += 1;
                        continue;
                    }
                    terminals.push((w, level));
                    if !hub_memo.get_or_insert_with(w, || index.contains(w)) {
                        stats.backward_walks += 1;
                        let est = variance_bounded_backward_walk_with_workspace(
                            &self.graph,
                            sqrt_c,
                            w,
                            level as usize,
                            backward,
                            rng,
                        );
                        stats.backward_cost += est.cost();
                        for (v, pi_hat) in est.iter() {
                            bw_buf.push((v, pi_hat));
                        }
                    }
                }
                if Instant::now() >= deadline {
                    cut = round_walks < dr;
                    break;
                }
            }
            total_walks += round_walks;
            rounds_done += 1;
            // Bank the round: coalesce the stream, then apply the
            // realized-sample backward scale.
            crate::workspace::radix_sort_pairs(bw_buf, ix_tmp);
            coalesce_sorted(bw_buf);
            let backward_scale = 1.0 / (alpha2 * round_walks as f64);
            for entry in bw_buf.iter_mut() {
                entry.1 *= backward_scale;
            }
            round_entries.extend_from_slice(bw_buf);
            if Instant::now() >= deadline {
                cut = cut || rounds_done < fr;
                break;
            }
        }

        // Median trick over the rounds that actually ran. With a single
        // round `bw_buf` already holds the final sorted coalesced ŝ_B.
        if rounds_done > 1 {
            bw_buf.clear();
            round_entries.sort_unstable_by_key(|&(v, _)| v);
            let mut i = 0usize;
            while i < round_entries.len() {
                let v = round_entries[i].0;
                median_buf.clear();
                while i < round_entries.len() && round_entries[i].0 == v {
                    median_buf.push(round_entries[i].1);
                    i += 1;
                }
                median_buf.resize(rounds_done, 0.0);
                median_buf.sort_by(|a, b| a.partial_cmp(b).expect("finite estimates"));
                let mid = median_buf.len() / 2;
                let med = if median_buf.len() % 2 == 1 {
                    median_buf[mid]
                } else {
                    0.5 * (median_buf[mid - 1] + median_buf[mid])
                };
                if med != 0.0 {
                    bw_buf.push((v, med));
                }
            }
        }

        // Index part ŝ_I, with the η̂π denominator rescaled to the walks
        // actually drawn.
        let inv_nr = 1.0 / total_walks as f64;
        let threshold = self.config.eps * alpha2 / 12.0;
        terminals.sort_unstable();
        ix_buf.clear();
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
                    match postings {
                        Postings::F64 { nodes, reserves } => {
                            for (&v, &psi) in nodes.iter().zip(reserves) {
                                ix_buf.push((v, scale * psi));
                            }
                        }
                        Postings::F32 { nodes, reserves } => {
                            for (&v, &psi) in nodes.iter().zip(reserves) {
                                ix_buf.push((v, scale * f64::from(psi)));
                            }
                        }
                    }
                }
                Ok(None) => {}
                Err(_) => {
                    // Page fault under a deadline: same live-backward-walk
                    // fallback as the undeadlined plans.
                    stats.degraded = true;
                    stats.page_fallbacks += 1;
                    stats.backward_walks += 1;
                    stats.backward_cost += variance_bounded_backward_walk_fold_with_workspace(
                        &self.graph,
                        sqrt_c,
                        w,
                        level as usize,
                        backward,
                        rng,
                        |v, pi_hat| ix_buf.push((v, pi_hat * scale)),
                    );
                }
            }
        }
        crate::workspace::radix_sort_pairs(ix_buf, ix_tmp);
        coalesce_sorted(ix_buf);

        stats.degraded = stats.degraded || cut;
        let mut entries = Vec::with_capacity(bw_buf.len() + ix_buf.len() + 1);
        merge_sorted_into(bw_buf.iter().copied(), ix_buf, &mut entries);
        let scores = SimRankScores::from_sorted_entries(u, n, entries);
        Ok((scores, stats))
    }
}

/// One round's walk phase: `dr` √c-walk terminals from `u` with η
/// verdicts, resolved into `sample_buf` as `(w, ℓ, met)` triples.
/// Strategy-adaptive (see [`WAVEFRONT_MIN_WALKS`]): the fused
/// interleaved kernel below the threshold, the sorted wavefront pair of
/// kernels at or above it — both consuming the same [`TerminalDraws`]
/// cache hooks.
#[allow(clippy::too_many_arguments)] // threads the workspace's split borrows
fn walk_phase<R: Rng + ?Sized, C: TerminalDraws, const PF: bool>(
    graph: &DiGraph,
    geom: &GeomLenTable,
    u: NodeId,
    dr: usize,
    cache: &mut C,
    sample_buf: &mut Vec<(NodeId, u32, bool)>,
    term_buf: &mut Vec<(NodeId, u32)>,
    pair_buf: &mut Vec<(NodeId, NodeId)>,
    pair_idx: &mut Vec<u32>,
    pair_met: &mut Vec<bool>,
    met_buf: &mut Vec<bool>,
    wave: &mut WaveScratch,
    rng: &mut R,
) -> WaveStats {
    if dr < WAVEFRONT_MIN_WALKS {
        // `PF` picks the prefetch-hinted kernel (fused plan) or the
        // unhinted baseline (reference plan); both are draw-for-draw
        // identical. The wavefront regime below already reads the CSR
        // level-synchronously in sorted batches, so it takes no hint.
        return if PF {
            sample_walk_phase_interleaved_prefetch(graph, geom, u, dr, cache, sample_buf, rng)
        } else {
            sample_walk_phase_interleaved(graph, geom, u, dr, cache, sample_buf, rng)
        };
    }
    // Wavefront regime: terminals level-synchronously with radix-binned
    // CSR reads, then η — cached bits first, the remainder through the
    // wavefront pair kernel. Level-0 terminals are diagonal-only (the
    // engine pins ŝ(u,u) = 1) and dropped before the η phase, matching
    // the fused kernel's contract.
    term_buf.clear();
    let mut stats = sample_terminals_wavefront(graph, geom, u, dr, cache, term_buf, wave, rng);
    let before = term_buf.len();
    term_buf.retain(|&(_, l)| l > 0);
    stats.diagonal += before - term_buf.len();
    met_buf.clear();
    met_buf.resize(term_buf.len(), false);
    pair_buf.clear();
    pair_idx.clear();
    for (i, &(w, _)) in term_buf.iter().enumerate() {
        match cache.try_eta(w, rng) {
            Some(met) => {
                met_buf[i] = met;
                stats.eta_hits += 1;
            }
            None => {
                pair_buf.push((w, w));
                pair_idx.push(i as u32);
            }
        }
    }
    sample_pairs_meet_wavefront(graph, geom, pair_buf, pair_met, wave, rng);
    for (&i, &m) in pair_idx.iter().zip(pair_met.iter()) {
        met_buf[i as usize] = m;
    }
    sample_buf.extend(
        term_buf
            .iter()
            .zip(met_buf.iter())
            .map(|(&(w, l), &m)| (w, l, m)),
    );
    stats
}

/// Sums adjacent runs of equal node ids in a sorted `(node, value)`
/// buffer in place (append order within a run = chronological order, so
/// the float sums match a dense accumulator bit for bit).
fn coalesce_sorted(buf: &mut Vec<(NodeId, f64)>) {
    let mut write = 0usize;
    let mut read = 0usize;
    while read < buf.len() {
        let (v, mut sum) = buf[read];
        read += 1;
        while read < buf.len() && buf[read].0 == v {
            sum += buf[read].1;
            read += 1;
        }
        buf[write] = (v, sum);
        write += 1;
    }
    buf.truncate(write);
}

/// Two-pointer merge of a sorted backward part and the sorted index
/// buffer into `out`, summing nodes present in both.
fn merge_sorted_into(
    backward: impl Iterator<Item = (NodeId, f64)>,
    ix_buf: &[(NodeId, f64)],
    out: &mut Vec<(NodeId, f64)>,
) {
    let mut b_iter = backward.peekable();
    let mut j = 0usize;
    while let Some(&(bv, bs)) = b_iter.peek() {
        while j < ix_buf.len() && ix_buf[j].0 < bv {
            out.push(ix_buf[j]);
            j += 1;
        }
        if j < ix_buf.len() && ix_buf[j].0 == bv {
            out.push((bv, bs + ix_buf[j].1));
            j += 1;
        } else {
            out.push((bv, bs));
        }
        b_iter.next();
    }
    out.extend_from_slice(&ix_buf[j..]);
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
    fn fused_and_reference_plans_report_identical_stats() {
        // Stats parity is part of the fused plan's contract: every
        // counter (wavefront_peak, cached_terminals, cached_eta, walk
        // accounting, index_entries, …) must read the same as the
        // reference plan on the same RNG stream — the fused plan changes
        // the execution schedule, never what is counted.
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(600, 6.0, 2.0, 19));
        let mut engine = Prsim::build(g, cfg(0.1)).unwrap();
        let mut exercised = QueryStats::default();
        for u in [0u32, 17, 255, 404] {
            engine.set_query_plan(QueryPlan::Fused);
            let mut rng = StdRng::seed_from_u64(100 + u as u64);
            let (sf, fused) = engine.try_single_source(u, &mut rng).unwrap();
            engine.set_query_plan(QueryPlan::Reference);
            let mut rng = StdRng::seed_from_u64(100 + u as u64);
            let (sr, reference) = engine.try_single_source(u, &mut rng).unwrap();
            assert_eq!(fused, reference, "stats diverged at source {u}");
            let diff = sf.max_abs_diff(&sr);
            assert!(diff < 1e-12, "plans diverged by {diff} at source {u}");
            exercised.pair_met += fused.pair_met;
            exercised.backward_walks += fused.backward_walks;
            exercised.index_entries += fused.index_entries;
            exercised.cached_terminals += fused.cached_terminals;
            exercised.cached_eta += fused.cached_eta;
        }
        // The parity claim is vacuous if the workload never exercises
        // the counters; this graph and seed set must light them all up.
        assert!(exercised.pair_met > 0, "no pair rejections exercised");
        assert!(exercised.backward_walks > 0, "no backward walks");
        assert!(exercised.index_entries > 0, "no index entries scanned");
        assert!(exercised.cached_terminals > 0, "no cache hits");
        assert!(exercised.cached_eta > 0, "no cached eta verdicts");
    }

    #[test]
    fn served_top_k_matches_the_full_vector_on_every_path() {
        // The served top-k must be exactly `top_k(k)` and `len()` of the
        // full-vector query on the same RNG stream: the fused plan's
        // accumulator scan (single round and median trick) as well as
        // the reference-plan and deadline fallbacks.
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(400, 6.0, 2.0, 29));
        let rounds = PrsimConfig {
            query: QueryParams::Explicit { dr: 300, fr: 3 },
            ..cfg(0.1)
        };
        let mut ws = QueryWorkspace::new();
        for config in [cfg(0.1), rounds] {
            let mut engine = Prsim::build(g.clone(), config).unwrap();
            for plan in [QueryPlan::Fused, QueryPlan::Reference] {
                engine.set_query_plan(plan);
                for timeout in [None, Some(Duration::from_secs(60))] {
                    for (i, u) in [0u32, 9, 123, 399].into_iter().enumerate() {
                        let k = [0, 1, 10, usize::MAX][i];
                        let seed = 7 * u64::from(u) + 1;
                        let mut rng = StdRng::seed_from_u64(seed);
                        let (scores, full) = engine
                            .try_single_source_with_deadline(u, timeout, &mut rng)
                            .unwrap();
                        let mut rng = StdRng::seed_from_u64(seed);
                        let (served, stats) = engine
                            .try_single_source_top_k_with_workspace(
                                u, k, timeout, &mut ws, &mut rng,
                            )
                            .unwrap();
                        let at = format!("{plan:?}, timeout {timeout:?}, source {u}, k {k}");
                        assert_eq!(served.top, scores.top_k(k), "{at}");
                        assert_eq!(served.len, scores.len(), "{at}");
                        assert_eq!(stats, full, "{at}");
                    }
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
        let g = prsim_gen::chung_lu_undirected(prsim_gen::ChungLuConfig::new(120, 5.0, 2.0, 13));
        let config = PrsimConfig {
            query: QueryParams::Explicit { dr: 800, fr: 3 },
            ..cfg(0.1)
        };
        let engine = Prsim::build(g, config).unwrap();
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let (a, _) = engine.try_single_source(3, &mut rng_a).unwrap();
        let (b, stats) = engine
            .try_single_source_with_deadline(3, Some(Duration::from_secs(120)), &mut rng_b)
            .unwrap();
        assert!(!stats.degraded);
        assert_eq!(stats.walks, 2400, "all rounds must run to completion");
        // Same samples, same estimators; only the accumulation strategy
        // (streaming vs scatter) may differ, which reorders float adds.
        let diff = a.max_abs_diff(&b);
        assert!(diff < 1e-9, "generous deadline drifted by {diff}");
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

//! Per-node terminal-sample cache for the walk engine.
//!
//! Single-source PRSim queries are **walk-bound**: almost all query time
//! goes into sampling √c-walk terminals and η-pair verdicts, one
//! cache-missing CSR hop at a time. The paper's power-law analysis says
//! that walk mass concentrates on the few nodes with the largest reverse
//! PageRank — the same concentration that makes the hub index work — so
//! those nodes' terminal distributions can be **pre-sampled once** and
//! the draws reused across queries.
//!
//! For the top-`B` nodes by reverse PageRank (`B` =
//! [`crate::PrsimConfig::walk_cache_budget`]) the cache pre-draws and
//! stores, in one flat structure-of-arrays arena (the
//! [`crate::index`] postings-arena style):
//!
//! * a pool of **terminal samples** — full √c-walk outcomes
//!   `(terminal node, level)` from the cached node, with died walks
//!   stored as an explicit sentinel so the pool is an exchangeable
//!   sequence of honest draws, and
//! * a pool of **η-pair verdict bits** — one bit per pre-run pair of
//!   √c-walks from the cached node, recording whether they met at some
//!   step `i ≥ 1`.
//!
//! ```text
//! pos     : node ──────▶ pool rank          (dense, NOT_CACHED elsewhere)
//! nodes   : rank ──────▶ cached node id
//! bounds  : CSR offsets; pool r's samples are [bounds[r], bounds[r+1])
//! terms   : ┌──────────────────────────────────────────────┐
//!           │ (w,ℓ) (w,ℓ) … (pool 0) │ (w,ℓ) … (pool 1) │ …│
//!           └──────────────────────────────────────────────┘
//!           one packed u64 per sample (node | level << 32; DIED = died),
//!           so a hit costs a single random load
//! eta_bits: parallel verdict bitset (bit i of global sample index i)
//! ```
//!
//! ## Why consuming cached draws is still honest Monte Carlo
//!
//! A √c-walk's step count is geometric, hence **memoryless**: a walk
//! alive on arrival at node `x` — including the query source itself at
//! step 0, *before* the termination flip at `x` — has a future (number
//! of further steps and terminal) distributed exactly like a fresh
//! √c-walk from `x`. Substituting an independent pre-drawn sample
//! `(w, ℓ')` for that future therefore leaves the walk's terminal law
//! unchanged: a walk that arrives at `x` after `k` steps retires with
//! terminal `(w, k + ℓ')`, or dies when the pool sample died or the
//! composed level outlives the cap (both of which the truthful walk
//! would also have turned into a death). The same argument covers the
//! η test whole: it is one Bernoulli draw per terminal `w`, so a
//! pre-drawn verdict bit from `w`'s pool is exactly one realization of
//! it.
//!
//! **Within one query** draws are consumed *without replacement* through
//! per-pool cursors ([`CacheCursors`], held in the query workspace) that
//! start at a per-query random rotation: every consumed entry is a
//! distinct, untouched i.i.d. sample, so each query's estimate is an
//! unbiased Monte-Carlo draw with the same per-sample law as live
//! sampling, and a pool that runs dry mid-query simply falls back to
//! live sampling (the kernel reports a miss and keeps walking).
//!
//! **Across queries** the pools are shared, so estimates are
//! *correlated between queries*: two queries whose walks drain the same
//! pool region see overlapping samples (in the extreme — repeated
//! queries from the same cached source with `d_r` ≥ half the pool — the
//! terminal phase is nearly identical across runs, and only the
//! rotation, the η draws, and the backward walks vary). Each individual
//! answer still satisfies the single-query accuracy bound; what the
//! cache trades away is *independence between answers*. Callers that
//! need independent repeated estimates of the same query should disable
//! the cache (`walk_cache_budget = 0`). Pools hold
//! [`pool_samples`]`(n_r)` = `2·n_r` draws (capped) so the rotation has
//! room to decorrelate consecutive queries.
//!
//! ## Invalidation under edge updates
//!
//! An edge update `(a, b)` changes only `b`'s in-adjacency, so a pool at
//! `x` goes stale **iff a walk from `x` can visit `b`** — i.e. iff there
//! is a directed out-path `b → … → x` no longer than the walk cap. (A
//! path that first exists *because* of an inserted edge `(a, b)` must
//! itself pass through `b`, so reachability in the pre-update graph is
//! the exact criterion for inserts and deletes alike.) The cache keeps
//! this reachability as per-node **pool bitmasks** ([`ReachMasks`]):
//! `mask[y]` holds a bit per pool rank `r` iff `y` can out-reach the
//! cached node of `r`, computed by monotone bitset propagation along
//! out-edges and maintained as a sound over-approximation across
//! updates (inserts propagate new bits from the endpoint; deletes only
//! shrink true reachability, so the stale mask stays conservative).
//! [`crate::DynamicPrsim`] reads `mask[b]` to find the dirty pools,
//! refills exactly those against the updated graph, and reports the
//! count through `UpdateStats`/`DynamicTotals`.

use prsim_graph::mem::copy_reusing;
use prsim_graph::{DiGraph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::walk::{
    sample_terminal_with_table, sample_walks_meet_with_table, GeomLenTable, Terminal, TerminalDraws,
};

/// Sentinel in the dense `pos` table marking uncached nodes.
const NOT_CACHED: u32 = u32::MAX;

/// Sentinel in the terminal arena marking a died cached walk.
const DIED: u64 = u64::MAX;

/// Packs a terminal sample into one arena word (node in the low 32
/// bits, level above): a cache hit costs a single random load.
#[inline]
fn pack_sample(node: NodeId, level: u32) -> u64 {
    (u64::from(level) << 32) | u64::from(node)
}

/// Hard ceiling on per-pool sample counts, so huge `d_r` configurations
/// (the paper's literal constants) cannot balloon the cache; exhausted
/// pools fall back to live sampling, which only costs speed.
const MAX_POOL_SAMPLES: usize = 8192;

/// Floor on per-pool sample counts under the rank-decayed sizing: even
/// deep-tail pools keep enough draws that a typical query cannot drain
/// them (per-query consumption at rank `r` decays like the visit share,
/// which is far below this floor once the harmonic sizing kicks in).
const MIN_POOL_SAMPLES: usize = 32;

/// Top-rank pool size for a query budget of `nr = d_r·f_r` walks: twice
/// the per-query draw, so the per-query random rotation decorrelates
/// consecutive queries' consumption windows, capped at
/// `MAX_POOL_SAMPLES`.
pub fn pool_samples(nr: usize) -> usize {
    (2 * nr.max(1)).min(MAX_POOL_SAMPLES)
}

/// Per-rank pool size: the top-rank size decayed harmonically with the
/// pool's π rank. On power-law graphs the per-query consumption of pool
/// `r` scales with its visit share — roughly `1/r` under the paper's
/// degree exponents — so sizing pools the same way keeps every pool
/// bigger than what one query draws from it while the whole arena stays
/// `O(top·ln B + B·MIN)` instead of `O(top·B)`. A drained pool only
/// falls back to live sampling, so the sizing is a memory/correlation
/// knob, never a correctness one.
fn pool_samples_at_rank(top: usize, rank: usize) -> usize {
    (top / (1 + rank)).max(MIN_POOL_SAMPLES).min(top)
}

/// Per-pool reachability bitmasks driving dynamic invalidation (see the
/// module docs): `mask[y]` has bit `r` set iff node `y` can reach pool
/// `r`'s cached node along out-edges within the walk cap — equivalently,
/// iff walks from that cached node can visit `y`.
#[derive(Debug)]
pub struct ReachMasks {
    /// Words per node row (`⌈pools / 64⌉`).
    words: usize,
    /// `n · words` row-major bit rows.
    bits: Vec<u64>,
}

impl Clone for ReachMasks {
    fn clone(&self) -> Self {
        ReachMasks {
            words: self.words,
            bits: self.bits.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.words = source.words;
        copy_reusing(&mut self.bits, &source.bits);
    }
}

impl ReachMasks {
    fn row(&self, y: usize) -> &[u64] {
        &self.bits[y * self.words..(y + 1) * self.words]
    }

    /// Builds the masks by monotone bitset propagation: seed each cached
    /// node with its own bit, then sweep `mask[y] |= mask[z]` over every
    /// edge `(y → z)` until a fixpoint (or `max_rounds` sweeps — each
    /// sweep extends covered path length by at least one hop, so
    /// `max_rounds = max_level` covers every cap-bounded walk; in-place
    /// sweeps may propagate further, which only over-approximates and
    /// stays sound).
    fn build(g: &DiGraph, cached: &[NodeId], max_rounds: usize) -> Self {
        let n = g.node_count();
        let words = cached.len().div_ceil(64).max(1);
        let mut bits = vec![0u64; n * words];
        for (rank, &x) in cached.iter().enumerate() {
            bits[x as usize * words + rank / 64] |= 1u64 << (rank % 64);
        }
        // One scratch row reused across every node and sweep (a per-node
        // allocation here would dominate the build on wide masks).
        let mut acc = vec![0u64; words];
        for _ in 0..max_rounds.max(1) {
            let mut changed = false;
            for y in 0..n {
                acc.copy_from_slice(&bits[y * words..y * words + words]);
                for &z in g.out_neighbors(y as NodeId) {
                    for w in 0..words {
                        acc[w] |= bits[z as usize * words + w];
                    }
                }
                for w in 0..words {
                    if bits[y * words + w] != acc[w] {
                        bits[y * words + w] = acc[w];
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        ReachMasks { words, bits }
    }

    fn ensure_nodes(&mut self, n: usize) {
        if self.bits.len() < n * self.words {
            self.bits.resize(n * self.words, 0);
        }
    }

    /// Pool ranks whose bit is set in `b`'s row.
    fn dirty_pools(&self, b: NodeId) -> Vec<usize> {
        let y = b as usize;
        if (y + 1) * self.words > self.bits.len() {
            return Vec::new(); // node newer than the mask: unreachable
        }
        let mut out = Vec::new();
        for (w, &word) in self.row(y).iter().enumerate() {
            let mut bitsleft = word;
            while bitsleft != 0 {
                let bit = bitsleft.trailing_zeros() as usize;
                out.push(w * 64 + bit);
                bitsleft &= bitsleft - 1;
            }
        }
        out
    }

    /// Folds the new edge `(a → b)` into the masks: `a` gains `b`'s
    /// bits, and the gain propagates to everything that out-reaches `a`
    /// (walking the *in*-adjacency). Monotone, so termination is
    /// guaranteed; path-length bounds are ignored, which only
    /// over-approximates (sound).
    fn note_insert(&mut self, g_new: &DiGraph, a: NodeId, b: NodeId) {
        self.ensure_nodes(g_new.node_count());
        let words = self.words;
        let or_into = |bits: &mut Vec<u64>, dst: usize, src: usize| -> bool {
            let mut changed = false;
            for w in 0..words {
                let v = bits[src * words + w];
                if bits[dst * words + w] | v != bits[dst * words + w] {
                    bits[dst * words + w] |= v;
                    changed = true;
                }
            }
            changed
        };
        if !or_into(&mut self.bits, a as usize, b as usize) {
            return;
        }
        let mut worklist = vec![a];
        while let Some(y) = worklist.pop() {
            for &p in g_new.in_neighbors(y) {
                if or_into(&mut self.bits, p as usize, y as usize) {
                    worklist.push(p);
                }
            }
        }
    }

    fn resident_bytes(&self) -> usize {
        self.bits.len() * 8
    }
}

/// The terminal-sample cache: pre-drawn √c-walk terminals and η-pair
/// verdicts for the top-π nodes, consumed by the engine's walk kernel
/// through per-query [`CacheCursors`]. See the module docs for layout,
/// honesty, and invalidation.
#[derive(Debug)]
pub struct WalkCache {
    /// Membership bitset over the node universe: the walk kernel
    /// probes this on **every** walk arrival, and at one bit per node it
    /// stays L1/L2-resident where the `pos` table would miss — the probe
    /// must be nearly free because the overwhelming majority of arrivals
    /// are at uncached nodes.
    member: Vec<u64>,
    /// Dense node → pool rank table ([`NOT_CACHED`] elsewhere).
    pos: Vec<u32>,
    /// Pool rank → cached node id (descending reverse PageRank).
    nodes: Vec<NodeId>,
    /// CSR offsets into the sample arena.
    bounds: Vec<u32>,
    /// Packed terminal samples ([`pack_sample`]); [`DIED`] for died
    /// walks. One word per sample so a hit is one random load.
    terms: Vec<u64>,
    /// η verdict bits, addressed by global sample index.
    eta_bits: Vec<u64>,
    /// Reachability masks (built on demand by the dynamic engine).
    masks: Option<ReachMasks>,
    /// Refill generation, mixed into refill seeds so redrawn pools are
    /// fresh realizations rather than replays.
    generation: u64,
    /// Base seed of the pool draws.
    seed: u64,
}

impl Clone for WalkCache {
    fn clone(&self) -> Self {
        WalkCache {
            member: self.member.clone(),
            pos: self.pos.clone(),
            nodes: self.nodes.clone(),
            bounds: self.bounds.clone(),
            terms: self.terms.clone(),
            eta_bits: self.eta_bits.clone(),
            masks: self.masks.clone(),
            generation: self.generation,
            seed: self.seed,
        }
    }

    /// Copies `source` into `self`'s existing buffers
    /// ([`copy_reusing`]), as engine snapshots are refreshed.
    fn clone_from(&mut self, source: &Self) {
        copy_reusing(&mut self.member, &source.member);
        copy_reusing(&mut self.pos, &source.pos);
        copy_reusing(&mut self.nodes, &source.nodes);
        copy_reusing(&mut self.bounds, &source.bounds);
        copy_reusing(&mut self.terms, &source.terms);
        copy_reusing(&mut self.eta_bits, &source.eta_bits);
        self.masks.clone_from(&source.masks);
        self.generation = source.generation;
        self.seed = source.seed;
    }
}

impl WalkCache {
    /// Builds pools for the first `budget` nodes of `order` (node ids in
    /// descending reverse-PageRank order — the hub ranking of Algorithm
    /// 1, which the engine computes once and reuses here), each holding
    /// `samples` pre-drawn terminals and η bits. Fully deterministic for
    /// a fixed `seed`.
    pub fn build(
        g: &DiGraph,
        table: &GeomLenTable,
        order: &[NodeId],
        budget: usize,
        samples: usize,
        seed: u64,
    ) -> Self {
        let picked = budget.min(order.len());
        let samples = samples.max(1);
        let mut cache = WalkCache {
            member: vec![0u64; g.node_count().div_ceil(64).max(1)],
            pos: vec![NOT_CACHED; g.node_count()],
            nodes: order[..picked].to_vec(),
            bounds: Vec::with_capacity(picked + 1),
            terms: Vec::with_capacity(picked * samples),
            eta_bits: Vec::new(), // sized after the arena layout below
            masks: None,
            generation: 0,
            seed,
        };
        // Lay the arena out first (rank-decayed pool sizes), then draw.
        cache.bounds.push(0);
        for rank in 0..picked {
            let x = cache.nodes[rank];
            cache.pos[x as usize] = rank as u32;
            cache.member[x as usize / 64] |= 1u64 << (x as usize % 64);
            let len = pool_samples_at_rank(samples, rank);
            cache.terms.resize(cache.terms.len() + len, 0);
            cache
                .bounds
                .push(u32::try_from(cache.terms.len()).expect("cache arena exceeds u32"));
        }
        cache.eta_bits = vec![0u64; cache.terms.len().div_ceil(64).max(1)];
        for rank in 0..picked {
            cache.fill_pool(g, table, rank);
        }
        cache
    }

    /// Redraws pool `rank`'s terminals and η bits against `g`, preserving
    /// draw order (pool entries must stay an exchangeable i.i.d.
    /// sequence — storing outcomes in draw order, died walks included, is
    /// what makes any without-replacement window an honest sample).
    fn fill_pool(&mut self, g: &DiGraph, table: &GeomLenTable, rank: usize) {
        let x = self.nodes[rank];
        let (s, e) = (self.bounds[rank] as usize, self.bounds[rank + 1] as usize);
        // One generator per (pool, generation): refills draw fresh
        // realizations, and pool fills are independent of each other.
        let mut rng = StdRng::seed_from_u64(
            self.seed
                ^ (x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ self.generation.wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        for i in s..e {
            match sample_terminal_with_table(g, table, x, &mut rng) {
                Terminal::At { node, level } => {
                    self.terms[i] = pack_sample(node, level);
                }
                Terminal::Died => {
                    self.terms[i] = DIED;
                }
            }
            let met = sample_walks_meet_with_table(g, table, x, x, &mut rng);
            let (word, bit) = (i / 64, i % 64);
            if met {
                self.eta_bits[word] |= 1u64 << bit;
            } else {
                self.eta_bits[word] &= !(1u64 << bit);
            }
        }
    }

    /// Number of pools (cached nodes).
    #[inline]
    pub fn pool_count(&self) -> usize {
        self.nodes.len()
    }

    /// The cached node ids in descending reverse-PageRank order.
    #[inline]
    pub fn cached_nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Whether `w` has a pool.
    #[inline]
    pub fn is_cached(&self, w: NodeId) -> bool {
        self.pos.get(w as usize).is_some_and(|&p| p != NOT_CACHED)
    }

    /// Total pre-drawn terminal samples across all pools.
    pub fn sample_count(&self) -> usize {
        self.terms.len()
    }

    /// Resident bytes of the cache payload (pools, tables, and the
    /// reachability masks when built).
    pub fn resident_bytes(&self) -> usize {
        self.member.len() * 8
            + self.pos.len() * 4
            + self.nodes.len() * 4
            + self.bounds.len() * 4
            + self.terms.len() * 8
            + self.eta_bits.len() * 8
            + self.masks.as_ref().map_or(0, ReachMasks::resident_bytes)
    }

    /// Whether the reachability masks have been built.
    pub fn has_masks(&self) -> bool {
        self.masks.is_some()
    }

    /// Builds the invalidation masks over `g` if absent (the dynamic
    /// engine calls this once per (re)build; static engines never pay
    /// for them). `max_rounds` should be the walk cap.
    pub fn ensure_masks(&mut self, g: &DiGraph, max_rounds: usize) {
        if self.masks.is_none() {
            self.masks = Some(ReachMasks::build(g, &self.nodes, max_rounds));
        }
    }

    /// Extends the node universe to `n` (new nodes are uncached and,
    /// being unreachable until their first edge lands, have empty mask
    /// rows).
    pub fn ensure_nodes(&mut self, n: usize) {
        if n > self.pos.len() {
            self.pos.resize(n, NOT_CACHED);
        }
        if n.div_ceil(64) > self.member.len() {
            self.member.resize(n.div_ceil(64), 0);
        }
        if let Some(m) = &mut self.masks {
            m.ensure_nodes(n);
        }
    }

    /// The pool ranks an edge update `(_, b)` invalidates: pools whose
    /// walks can visit `b`, judged against the **pre-update** masks (the
    /// exact criterion for inserts and deletes alike — see the module
    /// docs). Falls back to "all pools" when the masks were never built,
    /// which is sound but repays the whole cache.
    pub fn dirty_pools(&self, b: NodeId) -> Vec<usize> {
        match &self.masks {
            Some(m) => m.dirty_pools(b),
            None => (0..self.nodes.len()).collect(),
        }
    }

    /// Folds an inserted edge `(a → b)` into the masks (call after
    /// [`WalkCache::dirty_pools`]; deletions need no mask maintenance —
    /// they only shrink true reachability, leaving the mask a sound
    /// over-approximation).
    pub fn note_insert(&mut self, g_new: &DiGraph, a: NodeId, b: NodeId) {
        if let Some(m) = &mut self.masks {
            m.note_insert(g_new, a, b);
        }
    }

    /// Redraws the given pools against the updated graph `g`. Bumps the
    /// refill generation so the new draws are fresh realizations.
    pub fn refill(&mut self, g: &DiGraph, table: &GeomLenTable, ranks: &[usize]) {
        if ranks.is_empty() {
            return;
        }
        self.generation = self.generation.wrapping_add(1);
        for &rank in ranks {
            self.fill_pool(g, table, rank);
        }
    }

    /// Binds the cache to a query's cursor state as a
    /// [`TerminalDraws`] supplier for the walk kernel.
    pub fn session<'a>(&'a self, cursors: &'a mut CacheCursors) -> CacheSession<'a> {
        CacheSession {
            cache: self,
            cursors,
        }
    }

    /// Consumes one pre-drawn terminal sample from `node`'s pool, if any
    /// remain this query. See [`TerminalDraws::try_draw`] for the return
    /// convention.
    /// Bitset membership probe — the only cache work the overwhelmingly
    /// common uncached arrival pays.
    #[inline(always)]
    fn member_bit(&self, node: NodeId) -> bool {
        let i = node as usize;
        self.member
            .get(i / 64)
            .is_some_and(|&w| w >> (i % 64) & 1 == 1)
    }

    #[inline]
    fn try_term_draw<R: Rng + ?Sized>(
        &self,
        cursors: &mut CacheCursors,
        node: NodeId,
        rng: &mut R,
    ) -> Option<Option<(NodeId, u32)>> {
        if !self.member_bit(node) {
            return None;
        }
        let rank = self.pos[node as usize] as usize;
        let (s, e) = (self.bounds[rank] as usize, self.bounds[rank + 1] as usize);
        let idx = cursors.term.next_index(rank, (e - s) as u32, rng)?;
        let i = s + idx as usize;
        let sample = self.terms[i];
        Some(if sample == DIED {
            None
        } else {
            Some((sample as u32, (sample >> 32) as u32))
        })
    }

    /// Consumes one pre-drawn η verdict from `w`'s pool, if any remain
    /// this query (`None`: uncached or exhausted — run a live pair).
    #[inline]
    pub fn try_eta_draw<R: Rng + ?Sized>(
        &self,
        cursors: &mut CacheCursors,
        w: NodeId,
        rng: &mut R,
    ) -> Option<bool> {
        if !self.member_bit(w) {
            return None;
        }
        let rank = self.pos[w as usize] as usize;
        let (s, e) = (self.bounds[rank] as usize, self.bounds[rank + 1] as usize);
        let idx = cursors.eta.next_index(rank, (e - s) as u32, rng)?;
        let i = s + idx as usize;
        Some(self.eta_bits[i / 64] >> (i % 64) & 1 == 1)
    }
}

/// A [`WalkCache`] bound to one query's cursors — the
/// [`TerminalDraws`] supplier handed to the walk kernel.
pub struct CacheSession<'a> {
    cache: &'a WalkCache,
    cursors: &'a mut CacheCursors,
}

impl TerminalDraws for CacheSession<'_> {
    #[inline]
    fn try_draw<R: Rng + ?Sized>(
        &mut self,
        node: NodeId,
        rng: &mut R,
    ) -> Option<Option<(NodeId, u32)>> {
        self.cache.try_term_draw(self.cursors, node, rng)
    }

    #[inline]
    fn try_eta<R: Rng + ?Sized>(&mut self, w: NodeId, rng: &mut R) -> Option<bool> {
        self.cache.try_eta_draw(self.cursors, w, rng)
    }
}

/// One epoch-stamped cursor set: per pool, how many draws this query has
/// consumed and the query's random rotation offset. The stamp trick is
/// the [`crate::workspace::DenseScratch`] invariant — `begin` costs
/// `O(1)` and a reused cursor set behaves bit-identically to a fresh one.
#[derive(Clone, Debug, Default)]
struct CursorSet {
    stamp: Vec<u32>,
    used: Vec<u32>,
    rot: Vec<u32>,
    epoch: u32,
}

impl CursorSet {
    fn begin(&mut self, pools: usize) {
        if self.stamp.len() < pools {
            self.stamp.resize(pools, 0);
            self.used.resize(pools, 0);
            self.rot.resize(pools, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// The next without-replacement index into a pool of `len` samples,
    /// or `None` when the query has drained it. The first touch of a
    /// pool in a query draws its rotation offset from the query RNG.
    #[inline]
    fn next_index<R: Rng + ?Sized>(&mut self, rank: usize, len: u32, rng: &mut R) -> Option<u32> {
        if len == 0 {
            return None;
        }
        if self.stamp[rank] != self.epoch {
            self.stamp[rank] = self.epoch;
            self.used[rank] = 0;
            self.rot[rank] = rng.gen_range(0..len);
        }
        let used = self.used[rank];
        if used == len {
            return None;
        }
        self.used[rank] = used + 1;
        let idx = self.rot[rank] + used;
        Some(if idx >= len { idx - len } else { idx })
    }
}

/// Per-query consumption state over a [`WalkCache`]'s pools: terminal
/// and η cursors, epoch-stamped so starting a query is `O(1)` and reuse
/// is bit-identical to a fresh instance. Lives in
/// [`crate::QueryWorkspace`] (one per thread); the cache itself is
/// immutable at query time, which is what keeps batch queries lock-free.
#[derive(Clone, Debug, Default)]
pub struct CacheCursors {
    term: CursorSet,
    eta: CursorSet,
}

impl CacheCursors {
    /// Creates an empty cursor state; buffers grow on first `begin`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new query over `pools` pools: all cursors reset.
    pub fn begin(&mut self, pools: usize) {
        self.term.begin(pools);
        self.eta.begin(pools);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::sample_walk_phase_interleaved;

    const SQRT_C: f64 = 0.774_596_669_241_483_4; // sqrt(0.6)

    fn cycle_cache(samples: usize) -> (DiGraph, GeomLenTable, WalkCache) {
        let g = prsim_gen::toys::cycle(5);
        let table = GeomLenTable::new(SQRT_C, 64);
        let order: Vec<NodeId> = (0..5).collect();
        let cache = WalkCache::build(&g, &table, &order, 5, samples, 0xCACE);
        (g, table, cache)
    }

    #[test]
    fn pool_samples_scales_and_caps() {
        assert_eq!(pool_samples(500), 1000);
        assert_eq!(pool_samples(0), 2);
        assert_eq!(pool_samples(1_000_000), MAX_POOL_SAMPLES);
    }

    #[test]
    fn pools_hold_honest_terminal_draws() {
        // On a cycle the terminal node is a deterministic function of the
        // level; the pool must reproduce the geometric level law.
        let (_, _, cache) = cycle_cache(40_000);
        assert_eq!(cache.pool_count(), 5);
        assert!(cache.is_cached(0) && !cache.is_cached(5));
        let (s, e) = (cache.bounds[0] as usize, cache.bounds[1] as usize);
        let mut level_counts = [0usize; 6];
        for i in s..e {
            let sample = cache.terms[i];
            assert_ne!(sample, DIED, "no deaths on a cycle");
            let (w, l) = (sample as u32, (sample >> 32) as u32);
            assert_eq!(w, ((5i64 - l as i64 % 5) % 5) as u32);
            if (l as usize) < level_counts.len() {
                level_counts[l as usize] += 1;
            }
        }
        let total = (e - s) as f64;
        for (l, &count) in level_counts.iter().enumerate() {
            let want = SQRT_C.powi(l as i32) * (1.0 - SQRT_C);
            let got = count as f64 / total;
            assert!(
                (got - want).abs() < 0.015,
                "level {l}: pool {got:.4} vs geometric {want:.4}"
            );
        }
        // η on a cycle: both walks move in lockstep through the unique
        // in-neighbor, so they meet iff both survive step 1: P = c.
        let met: u32 = (s..e)
            .map(|i| (cache.eta_bits[i / 64] >> (i % 64) & 1) as u32)
            .sum();
        let rate = met as f64 / total;
        assert!((rate - 0.6).abs() < 0.015, "eta meet rate {rate:.4}");
    }

    #[test]
    fn session_draws_without_replacement_then_exhausts() {
        let (_, _, cache) = cycle_cache(8);
        let mut cursors = CacheCursors::new();
        cursors.begin(cache.pool_count());
        let mut rng = StdRng::seed_from_u64(1);
        let mut session = cache.session(&mut cursors);
        let mut seen = Vec::new();
        for _ in 0..8 {
            let draw = session.try_draw(0, &mut rng);
            let inner = draw.expect("pool has samples");
            seen.push(inner);
        }
        assert!(
            session.try_draw(0, &mut rng).is_none(),
            "ninth draw must miss: pool drained this query"
        );
        // A new query generation re-arms the pool.
        cursors.begin(cache.pool_count());
        assert!(cache.try_term_draw(&mut cursors, 0, &mut rng).is_some());
        // η cursors are independent of terminal cursors.
        for _ in 0..8 {
            assert!(cache.try_eta_draw(&mut cursors, 0, &mut rng).is_some());
        }
        assert!(cache.try_eta_draw(&mut cursors, 0, &mut rng).is_none());
        // Uncached node: always a miss.
        assert!(cache.try_eta_draw(&mut cursors, 4_000, &mut rng).is_none());
    }

    #[test]
    fn cached_walk_phase_matches_live_distribution() {
        // Terminals sampled *through* the cache must obey the same law as
        // live sampling: cycle source 1, large pools, many walks. The
        // kernel drops level-0 samples, so level 0 is read off its
        // diagonal count.
        let (g, table, cache) = cycle_cache(8192);
        let trials = 60_000usize;
        let mut cursors = CacheCursors::new();
        let mut out = Vec::new();
        let mut level_counts = [0usize; 6];
        let mut rng = StdRng::seed_from_u64(0xFEED);
        let mut hits = 0usize;
        // Many small queries so the without-replacement windows rotate.
        for _ in 0..trials / 500 {
            cursors.begin(cache.pool_count());
            out.clear();
            let stats = sample_walk_phase_interleaved(
                &g,
                &table,
                1,
                500,
                &mut cache.session(&mut cursors),
                &mut out,
                &mut rng,
            );
            assert_eq!(stats.died + stats.diagonal + out.len(), 500);
            hits += stats.cache_hits;
            level_counts[0] += stats.diagonal;
            for &(node, level, _) in &out {
                assert!(level >= 1, "level-0 samples must be dropped");
                assert_eq!(node, ((6i64 - level as i64 % 5) % 5) as u32 % 5);
                if (level as usize) < level_counts.len() {
                    level_counts[level as usize] += 1;
                }
            }
        }
        assert!(hits > 0, "cached source must serve draws");
        // No deaths on a cycle, so the draw total is exactly the trial
        // count; 60k draws recycle an 8192-sample pool ~7x, so the
        // effective sample size is the pool's — tolerance sized for that.
        for (l, &count) in level_counts.iter().enumerate().take(4) {
            let want = SQRT_C.powi(l as i32) * (1.0 - SQRT_C);
            let got = count as f64 / trials as f64;
            assert!(
                (got - want).abs() < 0.03,
                "level {l}: cached {got:.4} vs geometric {want:.4}"
            );
        }
    }

    #[test]
    fn masks_track_reachability_and_inserts() {
        // Path 0 -> 1 -> 2 (edges (0,1),(1,2)): walks from 2 can visit 1
        // and 0; walks from 0 visit only 0. Cache all three nodes.
        let g = DiGraph::from_edges(4, &[(0, 1), (1, 2)]);
        let table = GeomLenTable::new(SQRT_C, 64);
        let order: Vec<NodeId> = vec![2, 1, 0];
        let mut cache = WalkCache::build(&g, &table, &order, 3, 4, 1);
        // Unbuilt masks: conservative full invalidation.
        assert_eq!(cache.dirty_pools(0), vec![0, 1, 2]);
        cache.ensure_masks(&g, 64);
        assert!(cache.has_masks());
        // b = 0: out-reaches 1 (rank 1) and 2 (rank 0) and itself (rank 2)
        // -> an edge into node 0 perturbs every pool.
        assert_eq!(cache.dirty_pools(0), vec![0, 1, 2]);
        // b = 2: only walks from 2 itself visit 2.
        assert_eq!(cache.dirty_pools(2), vec![0]);
        // b = 3: isolated, reaches nothing.
        assert!(cache.dirty_pools(3).is_empty());
        // Insert (2, 3): now 2 -> 3, so an edge into 3 perturbs pool 0
        // (walks from... node 3 out-reaches nothing yet; but node 2
        // gains nothing). Then insert (3, 0): 3 out-reaches 0's pools.
        let g2 = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        cache.note_insert(&g2, 2, 3);
        assert_eq!(cache.dirty_pools(2), vec![0]);
        let g3 = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        cache.note_insert(&g3, 3, 0);
        // 3 -> 0 means 3 now out-reaches 0, 1, 2: all pools dirty on an
        // edge into 3; and 2 (via 3) keeps its own.
        assert_eq!(cache.dirty_pools(3), vec![0, 1, 2]);
    }

    #[test]
    fn refill_redraws_against_the_new_graph() {
        // Cache node 0 on a 2-cycle, then re-point the graph so walks
        // from 0 land elsewhere; the refilled pool must reflect it.
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 0)]);
        let table = GeomLenTable::new(SQRT_C, 64);
        let mut cache = WalkCache::build(&g, &table, &[0], 1, 256, 7);
        let level1_before: Vec<NodeId> = (0..256)
            .filter(|&i| cache.terms[i] >> 32 == 1)
            .map(|i| cache.terms[i] as u32)
            .collect();
        assert!(
            level1_before.iter().all(|&w| w == 1),
            "in-neighbor of 0 is 1"
        );
        // New graph: 2 -> 0 replaces 1 -> 0.
        let g2 = DiGraph::from_edges(3, &[(0, 1), (2, 0)]);
        cache.refill(&g2, &table, &[0]);
        let level1_after: Vec<NodeId> = (0..256)
            .filter(|&i| cache.terms[i] >> 32 == 1)
            .map(|i| cache.terms[i] as u32)
            .collect();
        assert!(!level1_after.is_empty());
        assert!(
            level1_after.iter().all(|&w| w == 2),
            "refill must see 2 -> 0"
        );
        // Refill with no ranks is a no-op.
        let gen = cache.generation;
        cache.refill(&g2, &table, &[]);
        assert_eq!(cache.generation, gen);
    }

    #[test]
    fn resident_bytes_counts_pools_and_masks() {
        let (g, _, mut cache) = cycle_cache(64);
        let before = cache.resident_bytes();
        assert!(before > 0);
        cache.ensure_masks(&g, 64);
        assert!(cache.resident_bytes() > before, "masks add resident bytes");
        cache.ensure_nodes(10);
        assert!(!cache.is_cached(9));
    }
}

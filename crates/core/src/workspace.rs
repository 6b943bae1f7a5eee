//! Reusable dense scratch buffers for the query hot path.
//!
//! The dense structures here ([`DenseScratch`], [`StampedFlags`])
//! implement the same **epoch-stamping invariant**: a dense per-node
//! value buffer is paired with per-node generation stamps and a
//! monotonically increasing `epoch` counter. An entry is *live* if and
//! only if its stamp equals the current epoch; everything else is stale
//! garbage from earlier generations and is treated as absent. Starting a
//! new generation ([`DenseScratch::begin`]) therefore costs `O(touched)`
//! — just clearing the touched list and bumping the epoch — instead of
//! `O(n)` for zeroing the whole array, while reads and writes stay
//! `O(1)` with no hashing. When the epoch counter would wrap, the stamps
//! are zeroed once and the counter restarts, so a stale stamp can never
//! collide with a live epoch. (The backward-walk frontiers in
//! [`BackwardWorkspace`] are deliberately *not* dense: they hold a
//! handful of nodes per level, where reused coalesced vectors beat
//! n-sized arrays — see its docs.)
//!
//! The invariant has a corollary the engine relies on for determinism:
//! **a reused scratch behaves bit-identically to a fresh one**. Stale
//! values are unreachable (the stamp check masks them), the touched list
//! is rebuilt from scratch each generation, and accumulation order is
//! decided by the caller — so `Prsim` queries produce the same bits
//! whether a [`QueryWorkspace`] is fresh or has served a thousand
//! queries. `query::tests` and `tests/determinism.rs` assert this.
//!
//! [`QueryWorkspace`] bundles all scratch the single-source query needs:
//! the backward-walk frontiers, the per-round `ŝ_B` accumulator, the
//! final score accumulator, a stamped memo of `index.contains(w)`
//! verdicts, and reusable vectors for terminal observations, walk
//! samples and the median trick.

use prsim_graph::NodeId;

/// One dense slot: generation stamp + value, interleaved so a probe
/// costs a single cache line instead of one miss in a stamp array plus
/// one in a value array.
#[derive(Clone, Copy, Debug, Default)]
struct Slot {
    stamp: u32,
    value: f64,
}

/// A dense epoch-stamped `NodeId -> f64` accumulator map.
///
/// Semantically a `HashMap<NodeId, f64>` restricted to keys `< n`, but
/// with `O(1)` unhashed access, `O(touched)` clearing and allocation-free
/// reuse across generations. See the module docs for the stamping
/// invariant.
#[derive(Clone, Debug, Default)]
pub struct DenseScratch {
    slots: Vec<Slot>,
    touched: Vec<NodeId>,
    /// Scratch for the radix sort in [`Self::sort_touched`].
    sort_buf: Vec<NodeId>,
    epoch: u32,
}

impl DenseScratch {
    /// Creates an empty scratch; buffers grow on first [`Self::begin`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new generation over `n` nodes: all entries become absent.
    /// `O(touched)` unless the buffers must grow (first use or larger
    /// graph) or the epoch counter wraps.
    pub fn begin(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, Slot::default());
        }
        if self.epoch == u32::MAX {
            self.slots.iter_mut().for_each(|s| s.stamp = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.touched.clear();
    }

    /// Adds `delta` to the entry for `v`, creating it when absent.
    #[inline]
    pub fn add(&mut self, v: NodeId, delta: f64) {
        let slot = &mut self.slots[v as usize];
        if slot.stamp == self.epoch {
            slot.value += delta;
        } else {
            slot.stamp = self.epoch;
            slot.value = delta;
            self.touched.push(v);
        }
    }

    /// Multiplies every live entry by `factor`.
    pub(crate) fn scale(&mut self, factor: f64) {
        for &v in &self.touched {
            self.slots[v as usize].value *= factor;
        }
    }

    /// `self[v] += scale·x` for parallel `nodes`/`values` arrays: the
    /// query's postings fold. Instead of the stamp *branch* per entry,
    /// each lane runs straight-line code — an arithmetic select over the
    /// stamp comparison (`base = stale ? 0.0 : value`, a cmov/blend),
    /// unconditional value+stamp stores, and a branch-free conditional
    /// append to the touched list (`touched[len] = v; len += fresh`) —
    /// processed in a manual 8-lane unroll over the SoA run (`u32`
    /// nodes + reserves) so the multiplies pipeline without `std::simd`.
    /// The accumulated values and the touched list are **bit-identical**
    /// to a loop of [`Self::add`] calls: only control flow differs.
    /// (The prefetch hints this pairs with on the query path are
    /// `#[cfg(target_arch)]`-gated in `prsim_graph`; this scatter is
    /// portable straight-line Rust.)
    pub fn scatter_scaled(&mut self, nodes: &[NodeId], values: &[f64], scale: f64) {
        self.scatter_scaled_impl(nodes, values, scale, |x| x);
    }

    /// [`DenseScratch::scatter_scaled`] over f32 values (quantized
    /// reserve arenas), widening each value before the multiply.
    pub fn scatter_scaled_f32(&mut self, nodes: &[NodeId], values: &[f32], scale: f64) {
        self.scatter_scaled_impl(nodes, values, scale, f64::from);
    }

    #[inline]
    fn scatter_scaled_impl<T: Copy>(
        &mut self,
        nodes: &[NodeId],
        values: &[T],
        scale: f64,
        widen: impl Fn(T) -> f64 + Copy,
    ) {
        assert_eq!(nodes.len(), values.len(), "SoA run slices must parallel");
        let epoch = self.epoch;
        // Over-extend the touched list once, write every lane's id
        // unconditionally, advance the cursor only on fresh slots, and
        // truncate back. The zero-fill is one memset over the run; the
        // per-lane append is a predictable in-bounds store, no branch on
        // `fresh`.
        let old_len = self.touched.len();
        self.touched.resize(old_len + nodes.len(), 0);
        let mut len = old_len;
        let slots = &mut self.slots;
        let touched = &mut self.touched;
        #[inline(always)]
        fn lane<T: Copy>(
            slots: &mut [Slot],
            touched: &mut [NodeId],
            epoch: u32,
            len: &mut usize,
            (v, x): (NodeId, T),
            scale: f64,
            widen: impl Fn(T) -> f64,
        ) {
            let slot = &mut slots[v as usize];
            let fresh = slot.stamp != epoch;
            // Arithmetic select (no branch): a stale slot contributes 0.
            let base = if fresh { 0.0 } else { slot.value };
            slot.value = base + scale * widen(x);
            slot.stamp = epoch;
            // Branch-free append: always write, conditionally advance.
            touched[*len] = v;
            *len += fresh as usize;
        }
        // Slot probes are random against a dense array the hardware
        // prefetcher cannot predict, but the whole probe set is known up
        // front: sweep the run once issuing write-intent prefetches at
        // full rate (the probes are independent, so they overlap up to
        // the machine's miss parallelism), then run the read-modify-write
        // sweep over lines that are resident or already in flight. A
        // postings run (~hundreds of entries) fits L1 comfortably.
        for &v in nodes.iter() {
            prsim_graph::mem::prefetch_write(&*slots, v as usize);
        }
        let nodes_rem = nodes.chunks_exact(8).remainder();
        let values_rem = values.chunks_exact(8).remainder();
        for (nc, vc) in nodes.chunks_exact(8).zip(values.chunks_exact(8)) {
            // Manual 8-lane unroll: the fixed-trip inner loop unrolls
            // fully, so the eight scaled multiplies issue back to back.
            for k in 0..8 {
                lane(
                    slots,
                    touched,
                    epoch,
                    &mut len,
                    (nc[k], vc[k]),
                    scale,
                    widen,
                );
            }
        }
        for (&v, &x) in nodes_rem.iter().zip(values_rem) {
            lane(slots, touched, epoch, &mut len, (v, x), scale, widen);
        }
        self.touched.truncate(len);
    }

    /// Current value for `v` (0.0 when absent).
    #[inline]
    pub fn get(&self, v: NodeId) -> f64 {
        match self.slots.get(v as usize) {
            Some(slot) if slot.stamp == self.epoch => slot.value,
            _ => 0.0,
        }
    }

    /// Whether `v` has a live entry in this generation.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        matches!(self.slots.get(v as usize), Some(slot) if slot.stamp == self.epoch)
    }

    /// Number of live entries in this generation.
    #[inline]
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// True when no entry is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// The nodes touched this generation, in insertion order (or sorted
    /// order after [`Self::sort_touched`]).
    #[inline]
    pub fn touched(&self) -> &[NodeId] {
        &self.touched
    }

    /// Sorts the touched list by node id — used to fix the frontier
    /// iteration order (and hence RNG consumption) deterministically, and
    /// to hand sorted entries to [`crate::SimRankScores`]. LSD radix sort
    /// above a small cutoff (node ids cluster far below `u32::MAX`, so
    /// 2–3 byte passes beat comparison sorting), `sort_unstable` below.
    pub fn sort_touched(&mut self) {
        radix_sort_ids(&mut self.touched, &mut self.sort_buf);
    }

    /// Iterates live `(v, value)` pairs in touched-list order. The slot
    /// gather is random (slots are dense; touched order is insertion
    /// order, or id order after [`Self::sort_touched`]), so each probe is
    /// issued a fixed distance ahead of its demand read.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        const PF_AHEAD: usize = 16;
        self.touched.iter().enumerate().map(move |(i, &v)| {
            if let Some(&ahead) = self.touched.get(i + PF_AHEAD) {
                prsim_graph::mem::prefetch_read(&self.slots, ahead as usize);
            }
            (v, self.slots[v as usize].value)
        })
    }

    /// Sorts the touched list and emits the live `(v, value)` entries
    /// into `out` in ascending id order — `sort_touched` plus the
    /// [`Self::iter`] gather, fused: the *final* radix pass scatters
    /// finished pairs straight into `out`, gathering each slot value as
    /// its id streams by (with the probe prefetched a fixed distance
    /// ahead), so the ids make one fewer trip through memory and the
    /// gather rides the pass that was already running. `out` is cleared
    /// first and reserved one entry beyond the live count (the caller's
    /// diagonal upsert); the touched list is left in unspecified order —
    /// this is the accumulator's terminal drain for the query.
    pub fn drain_sorted_into(&mut self, out: &mut Vec<(NodeId, f64)>) {
        const CUTOFF: usize = 96;
        const BITS: u32 = 11;
        const BUCKETS: usize = 1 << BITS;
        const PF_AHEAD: usize = 16;
        let len = self.touched.len();
        out.clear();
        out.reserve(len + 1);
        if len == 0 {
            return;
        }
        if len <= CUTOFF {
            self.touched.sort_unstable();
            out.extend(
                self.touched
                    .iter()
                    .map(|&v| (v, self.slots[v as usize].value)),
            );
            return;
        }
        let max = *self.touched.iter().max().expect("len > 0");
        let mut passes = 0u32;
        {
            let mut shift = 0u32;
            while shift < 32 && (max >> shift) > 0 {
                passes += 1;
                shift += BITS;
            }
        }
        // All but the last digit pass move ids alone (the usual LSD
        // ping-pong between `touched` and `sort_buf`).
        self.sort_buf.clear();
        self.sort_buf.resize(len, 0);
        let mut shift = 0u32;
        for _ in 1..passes {
            let mut counts = [0usize; BUCKETS + 1];
            for &x in self.touched.iter() {
                counts[((x >> shift) as usize & (BUCKETS - 1)) + 1] += 1;
            }
            for i in 1..=BUCKETS {
                counts[i] += counts[i - 1];
            }
            for &x in self.touched.iter() {
                let d = (x >> shift) as usize & (BUCKETS - 1);
                self.sort_buf[counts[d]] = x;
                counts[d] += 1;
            }
            std::mem::swap(&mut self.touched, &mut self.sort_buf);
            shift += BITS;
        }
        // Final pass: scatter `(id, value)` pairs into place.
        let mut counts = [0usize; BUCKETS + 1];
        for &x in self.touched.iter() {
            counts[((x >> shift) as usize & (BUCKETS - 1)) + 1] += 1;
        }
        for i in 1..=BUCKETS {
            counts[i] += counts[i - 1];
        }
        out.resize(len, (0, 0.0));
        for (i, &x) in self.touched.iter().enumerate() {
            if let Some(&ahead) = self.touched.get(i + PF_AHEAD) {
                prsim_graph::mem::prefetch_read(&self.slots, ahead as usize);
            }
            let d = (x >> shift) as usize & (BUCKETS - 1);
            out[counts[d]] = (x, self.slots[x as usize].value);
            counts[d] += 1;
        }
    }

    #[cfg(test)]
    fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

/// LSD radix sort of node ids in 11-bit digits, using `tmp` as the
/// ping-pong buffer. Stable (irrelevant for ids, but cheap) and
/// `O(passes · len)` with `passes = ⌈significant bits / 11⌉` of the
/// maximum id — two passes for any graph under 4M nodes.
fn radix_sort_ids(data: &mut Vec<NodeId>, tmp: &mut Vec<NodeId>) {
    const CUTOFF: usize = 96;
    const BITS: u32 = 11;
    const BUCKETS: usize = 1 << BITS;
    if data.len() <= CUTOFF {
        data.sort_unstable();
        return;
    }
    let max = *data.iter().max().expect("len > cutoff");
    tmp.clear();
    tmp.resize(data.len(), 0);
    let mut shift = 0u32;
    // `shift < 32` guards the u32 shift itself: ids >= 2^22 need a third
    // pass whose *termination check* would otherwise shift by 33.
    while shift < 32 && (max >> shift) > 0 {
        let mut counts = [0usize; BUCKETS + 1];
        for &x in data.iter() {
            counts[((x >> shift) as usize & (BUCKETS - 1)) + 1] += 1;
        }
        for i in 1..=BUCKETS {
            counts[i] += counts[i - 1];
        }
        for &x in data.iter() {
            let d = (x >> shift) as usize & (BUCKETS - 1);
            tmp[counts[d]] = x;
            counts[d] += 1;
        }
        std::mem::swap(data, tmp);
        shift += BITS;
    }
}

/// A dense epoch-stamped memo of per-node boolean verdicts (used to cache
/// `index.contains(w)` across the samples of one query). Stamp and flag
/// share one word per node — `slot >> 1` is the stamp, `slot & 1` the
/// verdict — so a probe is a single load.
#[derive(Clone, Debug, Default)]
pub struct StampedFlags {
    slots: Vec<u32>,
    epoch: u32,
}

impl StampedFlags {
    const MAX_EPOCH: u32 = u32::MAX >> 1;

    /// Starts a new generation over `n` nodes: all memos become absent.
    pub fn begin(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, 0);
        }
        if self.epoch == Self::MAX_EPOCH {
            self.slots.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Hints the CPU to pull `v`'s memo line toward L1 ahead of its
    /// [`Self::get_or_insert_with`] probe (draw-free, result-free).
    #[inline]
    pub fn prefetch(&self, v: NodeId) {
        prsim_graph::mem::prefetch_write(&self.slots, v as usize);
    }

    /// Returns the memoized verdict for `v`, computing it with `f` on the
    /// first lookup of this generation.
    #[inline]
    pub fn get_or_insert_with<F: FnOnce() -> bool>(&mut self, v: NodeId, f: F) -> bool {
        let slot = &mut self.slots[v as usize];
        if *slot >> 1 != self.epoch {
            *slot = (self.epoch << 1) | f() as u32;
        }
        *slot & 1 == 1
    }
}

/// Scratch for one backward walk: the current and next level frontiers.
///
/// Backward-walk frontiers hold a handful of nodes per level (the
/// expected total cost is `O(n·π(w))`, a few neighbor visits for a
/// typical non-hub `w`), so they are represented as reused *coalesced
/// sorted vectors* rather than n-sized dense arrays: appends and the
/// per-level sort-and-merge stay L1-resident, where an n-sized scratch
/// would pay a cache miss per probe. `cur` is always sorted by node id
/// with unique keys — that fixes the RNG-consumption order — and
/// coalescing sums duplicate appends left-to-right (chronologically),
/// which keeps the float accumulation order, and therefore every
/// estimate, bit-identical to a dense per-node accumulator.
#[derive(Clone, Debug, Default)]
pub struct BackwardWorkspace {
    /// Current frontier: sorted by node id, unique.
    pub(crate) cur: Vec<(NodeId, f64)>,
    /// Next-level append log; coalesced into `cur` at each level end.
    pub(crate) next: Vec<(NodeId, f64)>,
}

impl BackwardWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sorts the append log and merges duplicate node ids (summing their
    /// deltas in append order), leaving the result in `cur`.
    pub(crate) fn coalesce_next_into_cur(&mut self) {
        // Stable sort: equal ids keep append (chronological) order.
        // Typical backward-walk frontiers hold a handful of entries, where
        // `sort_by_key`'s merge-sort buffer allocation dwarfs the sort
        // itself — insertion sort (also stable) is allocation-free and
        // faster until well past the frontier sizes walks produce.
        if self.next.len() <= 32 {
            for i in 1..self.next.len() {
                let mut j = i;
                while j > 0 && self.next[j - 1].0 > self.next[j].0 {
                    self.next.swap(j - 1, j);
                    j -= 1;
                }
            }
        } else {
            self.next.sort_by_key(|&(v, _)| v);
        }
        self.cur.clear();
        for &(v, delta) in &self.next {
            match self.cur.last_mut() {
                Some(last) if last.0 == v => last.1 += delta,
                _ => self.cur.push((v, delta)),
            }
        }
        self.next.clear();
    }
}

/// All scratch state one thread needs to answer single-source queries
/// without per-query allocation.
///
/// Create once (per thread), pass to the `*_with_workspace` query
/// variants, reuse forever. Results are bit-identical to using a fresh
/// workspace per query (see the module docs), so reuse is purely a
/// performance decision.
#[derive(Clone, Debug, Default)]
pub struct QueryWorkspace {
    /// Backward-walk frontiers (Algorithms 2/3).
    pub(crate) backward: BackwardWorkspace,
    /// Per-round `ŝ_B` accumulator (Algorithm 4 line 13).
    pub(crate) round: DenseScratch,
    /// Final score accumulator (`ŝ_I + ŝ_B` assembly).
    pub(crate) acc: DenseScratch,
    /// Memoized `index.contains(w)` verdicts for this query.
    pub(crate) hub_memo: StampedFlags,
    /// Raw `(w, ℓ)` terminal observations; sorted + run-length counted
    /// into `η̂π` at the end of the sampling phase.
    pub(crate) terminals: Vec<(NodeId, u32)>,
    /// Flattened `(v, ŝ_B^i(v))` entries across rounds (median trick).
    pub(crate) round_entries: Vec<(NodeId, f64)>,
    /// Per-node value buffer for the median computation.
    pub(crate) median_buf: Vec<f64>,
    /// Per-query consumption cursors over the terminal-sample cache.
    pub(crate) cache_cursors: crate::walkcache::CacheCursors,
    /// One chunk's resolved `(w, ℓ, met)` samples (the walk kernel's
    /// output).
    pub(crate) sample_buf: Vec<(NodeId, u32, bool)>,
    /// Decode buffers for postings served out of a paged arena's buffer
    /// pool ([`crate::PrsimIndex::postings_in`]); unused (and unsized)
    /// while the arena is resident.
    pub(crate) pages: crate::paging::PostingsScratch,
}

impl QueryWorkspace {
    /// Creates an empty workspace; buffers grow to the graph size on the
    /// first query.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_until_added_and_cleared_by_begin() {
        let mut s = DenseScratch::new();
        s.begin(4);
        assert_eq!(s.get(2), 0.0);
        assert!(s.is_empty());
        s.add(2, 1.5);
        s.add(2, 0.5);
        s.add(0, 1.0);
        assert_eq!(s.get(2), 2.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.touched(), &[2, 0]);
        s.sort_touched();
        assert_eq!(s.touched(), &[0, 2]);

        s.begin(4);
        assert_eq!(s.get(2), 0.0, "stale value must be masked by the stamp");
        assert!(s.is_empty());
        s.add(2, 7.0);
        assert_eq!(s.get(2), 7.0, "stale value must not leak into a new add");
    }

    #[test]
    fn scatter_scaled_is_bit_identical_to_scalar_adds() {
        // The branchless unrolled scatter must produce the exact bits of
        // the naive add loop — same per-slot addition order — including
        // duplicate ids inside one batch (lane N must see lane N−1's
        // write) and re-touches across batches.
        let nodes: Vec<NodeId> = (0..57u32)
            .map(|i| (i.wrapping_mul(2654435761)) % 40)
            .collect();
        let wide: Vec<f64> = (0..57).map(|i| 0.125 * (i as f64) - 3.0).collect();
        let narrow: Vec<f32> = wide.iter().map(|&x| x as f32).collect();
        let mut a = DenseScratch::new();
        let mut b = DenseScratch::new();
        a.begin(64);
        b.begin(64);
        a.scatter_scaled(&nodes, &wide, 1.75);
        for (&v, &x) in nodes.iter().zip(&wide) {
            b.add(v, 1.75 * x);
        }
        // Second batch overlapping the first: stamps are already set.
        a.scatter_scaled(&nodes[..16], &wide[..16], -0.5);
        for (&v, &x) in nodes[..16].iter().zip(&wide[..16]) {
            b.add(v, -0.5 * x);
        }
        assert_eq!(a.len(), b.len(), "touched dedup must match");
        for v in 0..64 {
            assert!(a.get(v).to_bits() == b.get(v).to_bits(), "slot {v}");
        }
        let mut c = DenseScratch::new();
        c.begin(64);
        c.scatter_scaled_f32(&nodes, &narrow, 1.75);
        let mut d = DenseScratch::new();
        d.begin(64);
        for (&v, &x) in nodes.iter().zip(&narrow) {
            d.add(v, 1.75 * f64::from(x));
        }
        for v in 0..64 {
            assert!(c.get(v).to_bits() == d.get(v).to_bits(), "f32 slot {v}");
        }
    }

    #[test]
    fn drain_sorted_matches_sort_then_gather() {
        // Small (insertion-sorted), medium and large (multi-pass radix
        // with the fused gather in the last pass) touched sets.
        for len in [5usize, 90, 97, 700, 6000] {
            let mut a = DenseScratch::new();
            let mut b = DenseScratch::new();
            let n = 1 << 23; // ids above 2^22 exercise the shift bound
            a.begin(n);
            b.begin(n);
            for i in 0..len {
                let v = ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 41) as NodeId;
                let x = i as f64 * 0.25 - 1.0;
                a.add(v, x);
                b.add(v, x);
            }
            let mut fused = Vec::new();
            a.drain_sorted_into(&mut fused);
            b.sort_touched();
            let plain: Vec<(NodeId, f64)> = b.iter().collect();
            assert_eq!(fused, plain, "len {len}");
            // The drain consumes the touched list but leaves the scratch
            // reusable: the next begin must start clean.
            a.begin(8);
            assert!(a.is_empty());
            a.add(3, 1.0);
            assert_eq!(a.get(3), 1.0);
        }
    }

    #[test]
    fn grows_to_larger_graphs() {
        let mut s = DenseScratch::new();
        s.begin(2);
        s.add(1, 1.0);
        s.begin(10);
        assert_eq!(s.get(9), 0.0);
        s.add(9, 3.0);
        assert_eq!(s.get(9), 3.0);
        assert_eq!(s.get(1), 0.0);
    }

    #[test]
    fn epoch_wrap_resets_stamps() {
        let mut s = DenseScratch::new();
        s.begin(3);
        s.add(1, 42.0);
        // Force the counter to the wrap point; the stale stamp at node 1
        // (u32::MAX after the next begin would collide) must be cleared.
        s.force_epoch(u32::MAX);
        s.begin(3);
        assert_eq!(s.get(1), 0.0, "wrapped epoch must not resurrect entries");
        s.add(2, 1.0);
        assert_eq!(s.get(2), 1.0);
    }

    #[test]
    fn iter_yields_touched_pairs() {
        let mut s = DenseScratch::new();
        s.begin(5);
        s.add(3, 0.25);
        s.add(1, 0.75);
        s.sort_touched();
        let pairs: Vec<(NodeId, f64)> = s.iter().collect();
        assert_eq!(pairs, vec![(1, 0.75), (3, 0.25)]);
    }

    #[test]
    fn radix_sort_matches_std_sort() {
        // Deterministic pseudo-random ids spanning several byte digits,
        // above and below the radix cutoff.
        for len in [3usize, 95, 96, 97, 1000, 6000] {
            let mut data: Vec<NodeId> = (0..len)
                .map(|i| {
                    let x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    // Full u32 range: exercises all three digit passes and
                    // the shift-bound guard (ids >= 2^22).
                    (x >> 13) as NodeId
                })
                .collect();
            let mut want = data.clone();
            want.sort_unstable();
            let mut tmp = Vec::new();
            radix_sort_ids(&mut data, &mut tmp);
            assert_eq!(data, want, "len {len}");
        }
        let mut empty: Vec<NodeId> = Vec::new();
        radix_sort_ids(&mut empty, &mut Vec::new());
        assert!(empty.is_empty());
        // All-zero ids: the while loop never runs, already sorted.
        let mut zeros = vec![0 as NodeId; 200];
        radix_sort_ids(&mut zeros, &mut Vec::new());
        assert_eq!(zeros, vec![0; 200]);
    }

    #[test]
    fn stamped_flags_memoize_per_generation() {
        let mut f = StampedFlags::default();
        f.begin(3);
        let mut calls = 0;
        assert!(f.get_or_insert_with(1, || {
            calls += 1;
            true
        }));
        assert!(f.get_or_insert_with(1, || {
            calls += 1;
            false // must not be called, let alone believed
        }));
        assert_eq!(calls, 1);
        f.begin(3);
        assert!(!f.get_or_insert_with(1, || false), "new generation re-asks");
    }
}

//! The steady-state update path allocates nothing large.
//!
//! Every block the applier frees on an update is memory the allocator
//! keeps resident, so the server's peak RSS grew with each update until
//! the update path stopped allocating. This test holds that property:
//! after warm-up, an applied single-edge update plus the epoch publish
//! makes no allocation of [`LARGE`] bytes or more, unless it trips a
//! drift rebuild or a delta-overlay compaction (the two full rebuilds of
//! the update path, which may allocate).
//!
//! It lives alone in its own test binary because it installs a counting
//! global allocator, and counts every thread's allocations while an
//! update is in flight.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::fs;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use prsim_core::PrsimConfig;
use prsim_gen::{chung_lu_undirected, ChungLuConfig};
use prsim_graph::{EdgeUpdate, NodeId};
use prsim_server::{EngineHost, HostOptions, ServerStats};

/// Allocations at least this large are the ones the steady-state update
/// path must not make.
const LARGE: usize = 64 << 10;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LARGE_BLOCKS: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting large allocations (and reallocations
/// that grow to a large size) while [`COUNTING`] is set.
struct Counting;

fn note(size: usize) {
    if size >= LARGE && COUNTING.load(Ordering::Relaxed) {
        LARGE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            note(new_size);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A deterministic single-edge update stream over the live edge set:
/// inserts of absent edges alternating with deletes of present ones,
/// endpoints drawn by splitmix64.
struct Stream {
    live: HashSet<(NodeId, NodeId)>,
    edges: Vec<(NodeId, NodeId)>,
    n: u64,
    state: u64,
    step: u64,
}

impl Stream {
    fn draw(&mut self, bound: u64) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % bound
    }

    fn next(&mut self) -> EdgeUpdate {
        self.step += 1;
        if self.step % 2 == 0 {
            let i = self.draw(self.edges.len() as u64) as usize;
            let (u, v) = self.edges.swap_remove(i);
            self.live.remove(&(u, v));
            return EdgeUpdate::Delete(u, v);
        }
        loop {
            let (u, v) = (self.draw(self.n) as NodeId, self.draw(self.n) as NodeId);
            if u != v && self.live.insert((u, v)) {
                self.edges.push((u, v));
                return EdgeUpdate::Insert(u, v);
            }
        }
    }
}

/// Applies one update and waits for its epoch, counting large
/// allocations made meanwhile; returns that count and the stats before
/// and after.
fn apply(host: &EngineHost, update: EdgeUpdate) -> (usize, ServerStats, ServerStats) {
    let before = host.stats();
    LARGE_BLOCKS.store(0, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    host.update(vec![update]).expect("update acked");
    host.sync().expect("update applied");
    COUNTING.store(false, Ordering::Relaxed);
    let large = LARGE_BLOCKS.load(Ordering::Relaxed);
    (large, before, host.stats())
}

#[test]
fn steady_state_updates_allocate_no_large_block() {
    let g = chung_lu_undirected(ChungLuConfig::new(20_000, 8.0, 2.0, 43));
    let dir = std::env::temp_dir().join(format!("prsim_update_allocs_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let mut options = HostOptions::new(PrsimConfig::default());
    options.scrub_interval = None;
    let host = EngineHost::open(&g, &dir, options).expect("host opens");

    let edges: Vec<(NodeId, NodeId)> = g.edges().collect();
    let mut stream = Stream {
        live: edges.iter().copied().collect(),
        edges,
        n: g.node_count() as u64,
        state: 43,
        step: 0,
    };

    // Warm-up: sizes every workspace, buffer and epoch copy, and runs the
    // arena through at least one compaction cycle.
    let mut warm = 0;
    while warm < 10 || host.stats().totals.index_compactions == 0 {
        assert!(warm < 200, "no arena compaction within {warm} updates");
        apply(&host, stream.next());
        warm += 1;
    }

    // Steady state: no reader holds an old epoch, so every publish
    // recycles the retired one.
    let (mut clean, mut total) = (0, 0);
    while clean < 50 {
        assert!(
            total < 150,
            "only {clean} of {total} updates ran without a rebuild"
        );
        let update = stream.next();
        let (large, before, after) = apply(&host, update);
        total += 1;
        let rebuilt = after.totals.rebuilds > before.totals.rebuilds
            || after.totals.compactions > before.totals.compactions;
        if rebuilt {
            continue;
        }
        clean += 1;
        assert_eq!(
            large,
            0,
            "update {total} after warm-up ({update}) made {large} allocations of at least \
             {LARGE} bytes, the largest {} bytes",
            LARGEST.load(Ordering::Relaxed)
        );
        assert_eq!(
            after.epochs_recycled,
            before.epochs_recycled + 1,
            "a quiet host recycles its retired epoch"
        );
    }
    host.shutdown().unwrap();
    let _ = fs::remove_dir_all(&dir);
}

//! Immutable epoch snapshots and the swap handle readers share.
//!
//! The applier thread never mutates a published engine: it repairs its
//! own private [`prsim_core::DynamicPrsim`], copies the resulting
//! [`Prsim`] (cheap — the arena, π vector, walk cache and CSR graph are
//! flat buffers) and *swaps* the `Arc` behind [`SnapshotHandle`].
//! Readers clone the `Arc` out and then query entirely lock-free; a
//! reader holding epoch `e` keeps it alive for the duration of its query
//! even while epoch `e+1` is being published.
//!
//! The copy lands in the epoch the previous publish retired whenever no
//! reader still holds it (`EpochSnapshot::refresh`, which reuses its
//! buffers), so a quiet server recycles two engine copies instead of
//! allocating one per update.

use prsim_core::{Prsim, PrsimError, QueryStats, QueryWorkspace, SimRankScores, TopEntries};
use prsim_graph::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// One immutable published engine state.
#[derive(Debug)]
pub struct EpochSnapshot {
    epoch: u64,
    last_lsn: u64,
    engine: Prsim,
}

impl EpochSnapshot {
    /// Wraps an engine clone as epoch `epoch`, current through WAL
    /// record `last_lsn`.
    pub fn new(epoch: u64, last_lsn: u64, engine: Prsim) -> Self {
        EpochSnapshot {
            epoch,
            last_lsn,
            engine,
        }
    }

    /// Turns this (retired, unshared) snapshot into epoch `epoch`,
    /// current through `last_lsn`, holding a copy of `engine` written
    /// into the buffers it already has ([`Prsim`]'s `clone_from`).
    pub(crate) fn refresh(&mut self, epoch: u64, last_lsn: u64, engine: &Prsim) {
        self.epoch = epoch;
        self.last_lsn = last_lsn;
        self.engine.clone_from(engine);
    }

    /// Monotone epoch counter (1 is the boot snapshot).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Highest WAL LSN whose updates this snapshot reflects.
    pub fn last_lsn(&self) -> u64 {
        self.last_lsn
    }

    /// The frozen engine.
    pub fn engine(&self) -> &Prsim {
        &self.engine
    }

    /// Answers a single-source query with a seed-deterministic RNG: the
    /// same `(u, seed)` against the same snapshot state always returns
    /// the same scores, which is what lets the crash-recovery test
    /// compare servers bit-for-bit.
    pub fn query(&self, u: NodeId, seed: u64) -> Result<(SimRankScores, QueryStats), PrsimError> {
        let mut rng = StdRng::seed_from_u64(seed);
        self.engine.try_single_source(u, &mut rng)
    }

    /// [`EpochSnapshot::query`] under an optional wall-clock budget.
    /// `timeout = None` is bit-identical to the untimed entry point;
    /// with a budget the engine stops sampling at the deadline and the
    /// returned [`QueryStats::degraded`] says whether work was shed.
    pub fn query_with_deadline(
        &self,
        u: NodeId,
        seed: u64,
        timeout: Option<Duration>,
    ) -> Result<(SimRankScores, QueryStats), PrsimError> {
        let mut rng = StdRng::seed_from_u64(seed);
        self.engine
            .try_single_source_with_deadline(u, timeout, &mut rng)
    }

    /// The served query: the `k` best entries of
    /// [`EpochSnapshot::query_with_deadline`]'s scores, ranked as
    /// [`SimRankScores::top_k`] ranks them, and the number of stored
    /// entries, computed against a caller-owned workspace (see
    /// [`Prsim::try_single_source_top_k_with_workspace`]). A connection
    /// keeps one workspace across its queries and epochs; reuse is
    /// bit-identical to a fresh workspace (see [`QueryWorkspace`]).
    pub fn query_top_k(
        &self,
        u: NodeId,
        seed: u64,
        timeout: Option<Duration>,
        k: usize,
        ws: &mut QueryWorkspace,
    ) -> Result<(TopEntries, QueryStats), PrsimError> {
        let mut rng = StdRng::seed_from_u64(seed);
        self.engine
            .try_single_source_top_k_with_workspace(u, k, timeout, ws, &mut rng)
    }
}

/// Shared slot holding the current [`EpochSnapshot`].
///
/// `current()` is a read-lock held only long enough to clone the `Arc`
/// (publish takes the write lock equally briefly), so queries never wait
/// on update application — only on the pointer swap itself.
#[derive(Debug)]
pub struct SnapshotHandle {
    slot: RwLock<Arc<EpochSnapshot>>,
}

impl SnapshotHandle {
    /// Creates the handle with its boot snapshot.
    pub fn new(first: EpochSnapshot) -> Self {
        SnapshotHandle {
            slot: RwLock::new(Arc::new(first)),
        }
    }

    /// The current snapshot; the caller keeps it alive across publishes.
    ///
    /// Recovers from lock poisoning: a snapshot is immutable once
    /// published, so a panic while some thread held the lock cannot have
    /// left the *pointed-to* state torn — serving the last published
    /// epoch is exactly the degraded-mode contract.
    pub fn current(&self) -> Arc<EpochSnapshot> {
        self.slot.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Atomically replaces the published snapshot. Recovers from lock
    /// poisoning for the same reason as [`SnapshotHandle::current`]: the
    /// slot only ever holds a complete `Arc`.
    pub fn publish(&self, next: Arc<EpochSnapshot>) {
        self.replace(next);
    }

    /// [`SnapshotHandle::publish`], returning the snapshot it retired
    /// (which readers may still hold).
    pub(crate) fn replace(&self, next: Arc<EpochSnapshot>) -> Arc<EpochSnapshot> {
        std::mem::replace(
            &mut *self.slot.write().unwrap_or_else(|e| e.into_inner()),
            next,
        )
    }
}

//! The engine host: recovery, the background applier thread, and the
//! durable update path.
//!
//! Threading model: the host owns a [`SnapshotHandle`] plus a WAL behind
//! a mutex; a single background *applier* thread owns the mutable
//! [`DynamicPrsim`]. `update()` reserves queue space (the backpressure
//! bound), appends the batch to the WAL (fsync — the ack point) and
//! enqueues it; the applier drains the queue, coalescing every batch it
//! finds before cloning the engine into one new [`EpochSnapshot`] and
//! atomically publishing it. Queries touch only the snapshot handle, so
//! they are never blocked by an in-flight batch — the property the
//! `serve` bench scenario measures.
//!
//! ## Overload and failure behavior
//!
//! The applier queue is bounded by batch count *and* bytes, where the
//! accounted "inflight" work covers both queued batches and the batch
//! the applier is currently applying (otherwise the applier's
//! drain-everything strategy would make any count bound meaningless).
//! An `update` past the bound blocks up to
//! [`HostOptions::busy_timeout`], then fails with the retryable
//! [`ServerError::Busy`]. The applier body runs under `catch_unwind`:
//! a panic (or an unappliable record) marks the host *degraded* — reads
//! keep serving the last published epoch, writes fail fast, and
//! [`EngineHost::health`] reports the reason. A WAL whose failed append
//! could not be repaired is retried with exponential backoff on
//! subsequent `update` calls rather than poisoning the process.
//!
//! Every internal lock acquisition recovers from poisoning
//! (`lock_recover`): the shared structures are updated atomically
//! under their locks, so a panicking peer cannot leave them mid-update,
//! and degraded-mode reporting — not process death — is the designed
//! response to a dead thread.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use prsim_core::{
    DynamicPrsim, DynamicTotals, MemoryStats, PagedOptions, PagingStats, PrsimConfig, PrsimIndex,
};
use prsim_graph::{DiGraph, EdgeUpdate};

use crate::snapshot::{EpochSnapshot, SnapshotHandle};
use crate::storage::{FsStorage, Storage};
use crate::wal::{self, Wal, WalStats};
use crate::ServerError;

/// Locks a mutex, recovering the guard if a panicking thread poisoned
/// it. Safe here by construction: every critical section in this crate
/// leaves the protected value consistent at each await-free step (plain
/// field writes, queue pushes), and the panic that poisoned the lock is
/// separately surfaced through degraded-mode health reporting.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// [`Condvar::wait`] with the same poison recovery as [`lock_recover`].
fn wait_recover<'a, T>(cond: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cond.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// [`Condvar::wait_timeout`] with the same poison recovery.
pub(crate) fn wait_timeout_recover<'a, T>(
    cond: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> (MutexGuard<'a, T>, bool) {
    match cond.wait_timeout(guard, timeout) {
        Ok((g, t)) => (g, t.timed_out()),
        Err(e) => {
            let (g, t) = e.into_inner();
            (g, t.timed_out())
        }
    }
}

/// Host configuration.
#[derive(Clone, Debug)]
pub struct HostOptions {
    /// Engine configuration (must match across restarts for recovery to
    /// reproduce the pre-crash state).
    pub config: PrsimConfig,
    /// WAL segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Maximum inflight update batches (queued + being applied) before
    /// `update` blocks. A single batch is always admitted when the
    /// queue is empty, so no batch can be too large to ever accept.
    pub queue_depth: usize,
    /// Maximum inflight update bytes (WAL record encoding size) before
    /// `update` blocks; the same empty-queue exception applies.
    pub queue_bytes: usize,
    /// How long `update` blocks for queue space before failing with the
    /// retryable [`ServerError::Busy`].
    pub busy_timeout: Duration,
    /// First retry delay after the WAL breaks (doubles per failed
    /// repair attempt, capped at [`HostOptions::wal_retry_cap`]).
    pub wal_retry_base: Duration,
    /// Ceiling for the WAL repair backoff delay.
    pub wal_retry_cap: Duration,
    /// Chaos/testing hook: sleep this long before applying each batch,
    /// so tests can hold the queue full deterministically. Zero in
    /// production.
    pub applier_delay: Duration,
    /// Chaos/testing hook: panic inside the applier when it reaches
    /// this LSN, to exercise the supervision path end-to-end. `None` in
    /// production.
    pub applier_panic_at_lsn: Option<u64>,
    /// Hard memory budget in bytes for the paged postings arena's base:
    /// the page file's buffer pool, its page index and the offset
    /// tables. It is not a budget for the process. `None` (default)
    /// serves fully resident. `Some(budget)` demotes the recovered index
    /// to a paged arena file (`arena-<lsn>.pages` in the WAL directory)
    /// behind a pin/unpin buffer pool whose resident bytes never exceed
    /// the budget; a budget too small for the page index, the pinned hot
    /// set and one working frame fails `open` with
    /// [`prsim_core::PrsimError::InvalidConfig`]. Outside the budget stay
    /// the graph, π, the walk cache, the touched records, the update
    /// scratch, the epoch copies and the resident overlay that repairs
    /// append to (compacted in place like a resident arena), all
    /// reported by `stats`' `mem_` keys.
    pub memory_budget: Option<u64>,
    /// Page size of the paged arena file (ignored without
    /// [`HostOptions::memory_budget`]).
    pub page_bytes: u32,
    /// Hub ranks (highest reverse PageRank first) whose postings pages
    /// are pinned resident — the hot set exempt from eviction.
    pub page_hot_ranks: usize,
    /// Pause between background integrity-scrub cycles ([`crate::scrub`]).
    /// `Some(interval)` starts the scrubber thread, which re-verifies
    /// checksums across cold WAL segments, checkpoint images and paged
    /// arena pages, healing what it can and degrading on what it
    /// cannot. `None` (default) disables scrubbing.
    pub scrub_interval: Option<Duration>,
}

impl HostOptions {
    /// Options with the default 4 MiB segments, a 256-batch / 16 MiB
    /// queue bound, a 250 ms busy budget and a 100 ms..10 s WAL retry
    /// backoff.
    pub fn new(config: PrsimConfig) -> Self {
        HostOptions {
            config,
            segment_bytes: 4 << 20,
            queue_depth: 256,
            queue_bytes: 16 << 20,
            busy_timeout: Duration::from_millis(250),
            wal_retry_base: Duration::from_millis(100),
            wal_retry_cap: Duration::from_secs(10),
            applier_delay: Duration::ZERO,
            applier_panic_at_lsn: None,
            memory_budget: None,
            page_bytes: PagedOptions::default().page_bytes,
            page_hot_ranks: PagedOptions::default().hot_ranks,
            scrub_interval: None,
        }
    }

    /// The paged-arena knobs as core's [`PagedOptions`], or `None` when
    /// the host serves fully resident.
    fn paged_options(&self) -> Option<PagedOptions> {
        self.memory_budget.map(|budget| PagedOptions {
            page_bytes: self.page_bytes,
            memory_budget: budget,
            hot_ranks: self.page_hot_ranks,
        })
    }
}

/// Path of the paged arena generation demoted at `lsn`.
fn arena_path(wal_dir: &Path, lsn: u64) -> PathBuf {
    wal_dir.join(format!("arena-{lsn:020}.pages"))
}

/// What recovery found when the host opened its WAL directory.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryReport {
    /// LSN of the checkpoint recovery started from, if any.
    pub checkpoint_lsn: Option<u64>,
    /// WAL records re-applied behind the checkpoint.
    pub replayed_records: usize,
    /// Individual edge updates inside those records.
    pub replayed_updates: usize,
    /// Bytes removed by torn-tail / corrupt-record repair.
    pub truncated_bytes: u64,
    /// Whole segments dropped after a mid-log corruption.
    pub dropped_segments: usize,
}

/// Result of a completed checkpoint request.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointInfo {
    /// LSN the image covers.
    pub lsn: u64,
    /// Image size in bytes.
    pub bytes: u64,
}

/// Serving health, reported by `stats` and the `health` protocol verb.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Health {
    /// Fully operational.
    Ok,
    /// Read-only (applier dead) or write-degraded (WAL broken, healing
    /// with backoff); reads keep serving the last published epoch.
    Degraded {
        /// Human-readable cause.
        reason: String,
    },
}

impl Health {
    /// Whether the host is degraded.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Health::Degraded { .. })
    }

    /// Protocol rendering: `ok` or `degraded reason=<cause>`.
    pub fn render(&self) -> String {
        match self {
            Health::Ok => "ok".into(),
            Health::Degraded { reason } => format!("degraded reason={reason}"),
        }
    }
}

/// Point-in-time server observability, rendered by `stats`.
#[derive(Clone, Debug)]
pub struct ServerStats {
    /// Currently published epoch.
    pub epoch: u64,
    /// Highest LSN the published snapshot reflects.
    pub applied_lsn: u64,
    /// Highest LSN fsynced to the WAL (≥ `applied_lsn`).
    pub durable_lsn: u64,
    /// Update batches waiting for the applier.
    pub queue_depth: usize,
    /// Inflight update bytes (queued + being applied).
    pub queue_bytes: usize,
    /// Updates rejected with `BUSY` after the busy budget expired.
    pub busy_rejects: u64,
    /// High-water mark of inflight batches.
    pub max_queue_depth: usize,
    /// High-water mark of inflight bytes.
    pub max_queue_bytes: usize,
    /// Current serving health.
    pub health: Health,
    /// Nodes in the served graph.
    pub nodes: usize,
    /// Edges in the served graph.
    pub edges: usize,
    /// Hubs in the served index.
    pub hubs: usize,
    /// WAL file statistics.
    pub wal: WalStats,
    /// Checkpoints written by this process.
    pub checkpoints: u64,
    /// What recovery replayed at boot.
    pub recovery: RecoveryReport,
    /// Lifetime engine totals (repairs, rebuilds, compactions).
    pub totals: DynamicTotals,
    /// Buffer-pool counters of the served snapshot's paged arena;
    /// `None` when serving fully resident.
    pub paging: Option<PagingStats>,
    /// Completed integrity-scrub cycles.
    pub scrub_cycles: u64,
    /// Bytes re-verified at rest by the scrubber.
    pub scrub_bytes_verified: u64,
    /// At-rest integrity errors the scrubber found.
    pub scrub_errors_found: u64,
    /// Found errors healed in place (page rewrite, checkpoint refresh,
    /// redundant-artifact removal).
    pub scrub_errors_healed: u64,
    /// The applier's engine memory by component, as of the published
    /// epoch.
    pub memory: MemoryStats,
    /// Publishes that refreshed the epoch the previous publish retired
    /// (no reader held it), reusing its buffers.
    pub epochs_recycled: u64,
    /// Publishes that cloned the engine into a new epoch (boot, or a
    /// reader still held the retired one).
    pub epochs_cloned: u64,
}

impl ServerStats {
    /// Renders the stats as one `key=value` line (the `stats` protocol
    /// response payload). Paging counters are appended only when the
    /// host serves a paged arena, so resident deployments keep their
    /// historical line format.
    pub fn render(&self) -> String {
        let mut line = self.render_resident();
        if let Some(p) = &self.paging {
            line.push_str(&format!(
                " paged_resident_bytes={} paged_peak_resident_bytes={} paged_budget_frames={} \
                 page_hits={} page_misses={} page_evictions={} page_faults={} page_unhealed={}",
                p.resident_bytes,
                p.peak_resident_bytes,
                p.frame_budget,
                p.hits,
                p.misses,
                p.evictions,
                p.faults,
                p.unhealed_pages,
            ));
        }
        line.push_str(&format!(
            " scrub_cycles={} scrub_bytes_verified={} scrub_errors_found={} scrub_errors_healed={}",
            self.scrub_cycles,
            self.scrub_bytes_verified,
            self.scrub_errors_found,
            self.scrub_errors_healed,
        ));
        let m = &self.memory;
        line.push_str(&format!(
            " mem_touch_bytes={} mem_update_scratch_bytes={} mem_arena_live_bytes={} \
             mem_arena_dead_bytes={} mem_arena_bytes={} mem_graph_bytes={} mem_delta_bytes={} \
             mem_epochs_recycled={} mem_epochs_cloned={}",
            m.touch_bytes,
            m.update_scratch_bytes,
            m.arena_live_bytes,
            m.arena_dead_bytes,
            m.arena_bytes,
            m.graph_bytes,
            m.delta_bytes,
            self.epochs_recycled,
            self.epochs_cloned,
        ));
        line
    }

    fn render_resident(&self) -> String {
        format!(
            "epoch={} applied_lsn={} durable_lsn={} queue_depth={} nodes={} edges={} hubs={} \
             wal_bytes={} wal_segments={} wal_syncs={} checkpoints={} \
             replayed_records={} replayed_updates={} truncated_bytes={} \
             applied_updates={} noop_updates={} repaired_hubs={} rebuilds={} \
             health={} queue_bytes={} busy_rejects={} max_queue_depth={} max_queue_bytes={} \
             wal_failed_appends={}",
            self.epoch,
            self.applied_lsn,
            self.durable_lsn,
            self.queue_depth,
            self.nodes,
            self.edges,
            self.hubs,
            self.wal.bytes,
            self.wal.segments,
            self.wal.syncs,
            self.checkpoints,
            self.recovery.replayed_records,
            self.recovery.replayed_updates,
            self.recovery.truncated_bytes,
            self.totals.applied_updates,
            self.totals.noop_updates,
            self.totals.repaired_hubs,
            self.totals.rebuilds,
            if self.health.is_degraded() {
                "degraded"
            } else {
                "ok"
            },
            self.queue_bytes,
            self.busy_rejects,
            self.max_queue_depth,
            self.max_queue_bytes,
            self.wal.failed_appends,
        )
    }
}

/// Work items for the applier thread.
pub(crate) enum Task {
    /// A durable batch to apply (already fsynced under `lsn`).
    Batch {
        /// The batch's WAL LSN.
        lsn: u64,
        /// The batch, applied in order under that LSN.
        updates: Vec<EdgeUpdate>,
        /// WAL-encoded size, released from the inflight budget after
        /// the batch is applied.
        bytes: usize,
    },
    /// Checkpoint the applied state and report back.
    Checkpoint {
        /// Where the applier reports the result.
        done: mpsc::Sender<Result<CheckpointInfo, String>>,
    },
}

/// The bounded applier queue plus its admission-control accounting.
pub(crate) struct QueueState {
    pub(crate) tasks: VecDeque<Task>,
    /// Batches reserved but not yet applied (includes the batch the
    /// applier drained and is currently applying).
    inflight_batches: usize,
    /// WAL-encoded bytes of those batches.
    inflight_bytes: usize,
    busy_rejects: u64,
    max_inflight_batches: usize,
    max_inflight_bytes: usize,
}

/// Degraded-mode bookkeeping: why, and when to retry the WAL.
pub(crate) struct HealthState {
    /// The applier's terminal error, if it died.
    applier_dead: Option<String>,
    /// The WAL's unrepaired-failure reason, if it is broken.
    wal_broken: Option<String>,
    /// Failed repair attempts since the WAL broke (drives the backoff
    /// exponent).
    wal_repair_failures: u32,
    /// Earliest instant the next repair attempt may run.
    wal_retry_at: Option<Instant>,
    /// Why the paged arena could not be re-demoted after a drift
    /// rebuild, if that happened (the host keeps serving the resident
    /// rebuild — over budget, reported honestly — until a later
    /// rebuild's re-demote succeeds).
    paging_broken: Option<String>,
    /// The first unhealable integrity error the scrubber's latest cycle
    /// found, if any (cleared by a later clean cycle — a degraded state
    /// the disk grew out of, e.g. a re-checkpoint finally covering a
    /// rotten segment, exits on its own).
    pub(crate) scrub_broken: Option<String>,
}

/// Lifetime counters of the integrity scrubber, folded into
/// [`ServerStats`].
#[derive(Debug, Default)]
pub(crate) struct ScrubCounters {
    pub(crate) cycles: AtomicU64,
    pub(crate) bytes_verified: AtomicU64,
    pub(crate) errors_found: AtomicU64,
    pub(crate) errors_healed: AtomicU64,
}

pub(crate) struct Shared {
    pub(crate) opts: HostOptions,
    /// Storage backend, kept for demoting rebuilt indexes back out of
    /// core (and for the scrubber's at-rest reads and heal rewrites).
    pub(crate) storage: Arc<dyn Storage>,
    /// WAL directory (paged arena generations live next to the log).
    pub(crate) wal_dir: PathBuf,
    pub(crate) snapshot: SnapshotHandle,
    pub(crate) wal: Mutex<Wal>,
    pub(crate) queue: Mutex<QueueState>,
    /// Wakes the applier when work arrives.
    pub(crate) queue_cond: Condvar,
    /// Wakes blocked updaters when inflight space frees up.
    space_cond: Condvar,
    progress: Mutex<Progress>,
    progress_cond: Condvar,
    pub(crate) shutdown: AtomicBool,
    pub(crate) health: Mutex<HealthState>,
    pub(crate) scrub: ScrubCounters,
}

/// Applier-published progress, waited on by `sync`/`checkpoint`.
struct Progress {
    epoch: u64,
    applied_lsn: u64,
    totals: DynamicTotals,
    checkpoints: u64,
    memory: MemoryStats,
    epochs_recycled: u64,
    epochs_cloned: u64,
}

/// A resident PRSim engine over a durable WAL. See the crate docs for
/// the recovery guarantee and the failure model.
pub struct EngineHost {
    shared: Arc<Shared>,
    applier: Mutex<Option<JoinHandle<()>>>,
    scrubber: Mutex<Option<JoinHandle<()>>>,
    recovery: RecoveryReport,
}

impl std::fmt::Debug for EngineHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineHost")
            .field("recovery", &self.recovery)
            .finish_non_exhaustive()
    }
}

impl EngineHost {
    /// Opens the host on the real filesystem. See
    /// [`EngineHost::open_with_storage`].
    pub fn open(
        base_graph: &DiGraph,
        wal_dir: &Path,
        options: HostOptions,
    ) -> Result<EngineHost, ServerError> {
        EngineHost::open_with_storage(base_graph, wal_dir, options, Arc::new(FsStorage))
    }

    /// Opens the host on the given storage backend: recover from the
    /// newest valid checkpoint in `wal_dir` (falling back to
    /// `base_graph`), replay the WAL suffix through the incremental
    /// repair path, publish epoch 1 and start the applier thread.
    /// `base_graph` is only the seed for a log directory without a
    /// checkpoint — a recovering host ignores it in favor of the
    /// checkpoint image.
    pub fn open_with_storage(
        base_graph: &DiGraph,
        wal_dir: &Path,
        options: HostOptions,
        storage: Arc<dyn Storage>,
    ) -> Result<EngineHost, ServerError> {
        let checkpoint = wal::latest_checkpoint_with_storage(storage.as_ref(), wal_dir)?;
        let (base, start_lsn, checkpoint_lsn) = match checkpoint {
            Some(ckpt) => {
                // The image must be self-consistent before we trust it.
                PrsimIndex::from_bytes(&ckpt.index_bytes, ckpt.graph.node_count())?;
                (ckpt.graph, ckpt.lsn, Some(ckpt.lsn))
            }
            None => (base_graph.clone(), 0, None),
        };
        let mut dynamic = DynamicPrsim::new_incremental(&base, options.config.clone())?;
        let (wal, outcome) = Wal::open_with_storage(
            Arc::clone(&storage),
            wal_dir,
            options.segment_bytes,
            start_lsn,
        )?;
        let mut applied_lsn = start_lsn;
        let mut replayed_updates = 0usize;
        for record in &outcome.records {
            for &update in &record.updates {
                dynamic.apply(update)?;
                replayed_updates += 1;
            }
            applied_lsn = record.lsn;
        }
        let recovery = RecoveryReport {
            checkpoint_lsn,
            replayed_records: outcome.records.len(),
            replayed_updates,
            truncated_bytes: outcome.truncated_bytes,
            dropped_segments: outcome.dropped_segments,
        };

        if let Some(paged) = options.paged_options() {
            // Arena generations from previous incarnations are dead
            // weight now that recovery rebuilt the index from the
            // checkpoint + log; drop them before writing this boot's.
            remove_stale_arenas(storage.as_ref(), wal_dir);
            dynamic.page_out_index(
                Arc::clone(&storage),
                &arena_path(wal_dir, applied_lsn),
                &paged,
            )?;
        }

        let engine = dynamic
            .engine()
            .expect("incremental engine is always built")
            .clone();
        let totals = dynamic.totals();
        let memory = dynamic.memory();
        let shared = Arc::new(Shared {
            opts: options,
            storage,
            wal_dir: wal_dir.to_path_buf(),
            snapshot: SnapshotHandle::new(EpochSnapshot::new(1, applied_lsn, engine)),
            wal: Mutex::new(wal),
            queue: Mutex::new(QueueState {
                tasks: VecDeque::new(),
                inflight_batches: 0,
                inflight_bytes: 0,
                busy_rejects: 0,
                max_inflight_batches: 0,
                max_inflight_bytes: 0,
            }),
            queue_cond: Condvar::new(),
            space_cond: Condvar::new(),
            progress: Mutex::new(Progress {
                epoch: 1,
                applied_lsn,
                totals,
                checkpoints: 0,
                memory,
                epochs_recycled: 0,
                epochs_cloned: 1,
            }),
            progress_cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
            health: Mutex::new(HealthState {
                applier_dead: None,
                wal_broken: None,
                wal_repair_failures: 0,
                wal_retry_at: None,
                paging_broken: None,
                scrub_broken: None,
            }),
            scrub: ScrubCounters::default(),
        });
        let applier_shared = Arc::clone(&shared);
        let applier = std::thread::Builder::new()
            .name("prsim-applier".into())
            .spawn(move || applier_loop(applier_shared, dynamic, applied_lsn))
            .map_err(ServerError::Io)?;
        let scrubber = match shared.opts.scrub_interval {
            Some(interval) => {
                let scrub_shared = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("prsim-scrub".into())
                        .spawn(move || crate::scrub::scrub_loop(scrub_shared, interval))
                        .map_err(ServerError::Io)?,
                )
            }
            None => None,
        };
        Ok(EngineHost {
            shared,
            applier: Mutex::new(Some(applier)),
            scrubber: Mutex::new(scrubber),
            recovery,
        })
    }

    /// What recovery replayed when this host booted.
    pub fn recovery(&self) -> RecoveryReport {
        self.recovery
    }

    /// The currently published snapshot (lock-free queries run here).
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        self.shared.snapshot.current()
    }

    /// Current serving health. Besides the applier and WAL states this
    /// folds in the paged arena's: a failed re-demote after a drift
    /// rebuild, or a buffer pool whose retries stopped healing page
    /// faults (bit-rot or a dying disk under the arena file), both
    /// degrade the host while reads keep serving — exact where pages
    /// still load, `degraded` per query where they do not.
    pub fn health(&self) -> Health {
        {
            let h = lock_recover(&self.shared.health);
            if let Some(msg) = &h.applier_dead {
                return Health::Degraded {
                    reason: format!("applier dead: {msg}"),
                };
            }
            if let Some(msg) = &h.wal_broken {
                return Health::Degraded {
                    reason: format!("wal broken: {msg}"),
                };
            }
            if let Some(msg) = &h.paging_broken {
                return Health::Degraded {
                    reason: format!("paging broken: {msg}"),
                };
            }
            if let Some(msg) = &h.scrub_broken {
                return Health::Degraded {
                    reason: format!("scrub: {msg}"),
                };
            }
        }
        if self
            .shared
            .snapshot
            .current()
            .engine()
            .index()
            .paging_unhealthy()
        {
            return Health::Degraded {
                reason: "paging unhealthy: repeated unhealed page faults".into(),
            };
        }
        Health::Ok
    }

    /// Appends one batch to the WAL, fsyncs it (the durability ack), and
    /// queues it for the applier. Returns the batch's LSN.
    ///
    /// Backpressure: when the inflight queue is at its count or byte
    /// bound, blocks up to [`HostOptions::busy_timeout`] for space, then
    /// fails with the retryable [`ServerError::Busy`]. On any error the
    /// batch is **not** durable and was not applied.
    pub fn update(&self, updates: Vec<EdgeUpdate>) -> Result<u64, ServerError> {
        self.check_applier()?;
        let bytes = wal::encoded_len(&updates);
        self.admit(bytes)?;
        let result = self.append_and_enqueue(updates, bytes);
        if result.is_err() {
            // The reservation from `admit` will never reach the applier;
            // hand the space back to any blocked updater.
            let mut q = lock_recover(&self.shared.queue);
            q.inflight_batches -= 1;
            q.inflight_bytes -= bytes;
            self.shared.space_cond.notify_one();
        }
        result
    }

    /// Blocks until the inflight queue has room for `bytes`, reserving
    /// the space on success.
    fn admit(&self, bytes: usize) -> Result<(), ServerError> {
        let opts = &self.shared.opts;
        let start = Instant::now();
        let deadline = start + opts.busy_timeout;
        let mut q = lock_recover(&self.shared.queue);
        loop {
            self.check_applier()?;
            // An empty queue always admits (a batch larger than the byte
            // budget must still be serviceable), otherwise both bounds
            // must hold.
            let fits = q.inflight_batches == 0
                || (q.inflight_batches < opts.queue_depth
                    && q.inflight_bytes + bytes <= opts.queue_bytes);
            if fits {
                q.inflight_batches += 1;
                q.inflight_bytes += bytes;
                q.max_inflight_batches = q.max_inflight_batches.max(q.inflight_batches);
                q.max_inflight_bytes = q.max_inflight_bytes.max(q.inflight_bytes);
                return Ok(());
            }
            let now = Instant::now();
            if now >= deadline {
                q.busy_rejects += 1;
                return Err(ServerError::Busy {
                    waited_ms: start.elapsed().as_millis() as u64,
                });
            }
            let (next, _) = wait_timeout_recover(&self.shared.space_cond, q, deadline - now);
            q = next;
        }
    }

    /// The durability half of `update`: append under the WAL lock and
    /// enqueue in LSN order. WAL failures are mapped to the retryable
    /// [`ServerError::WalWrite`] and, when the log breaks, tracked for
    /// backoff-gated repair.
    fn append_and_enqueue(
        &self,
        updates: Vec<EdgeUpdate>,
        bytes: usize,
    ) -> Result<u64, ServerError> {
        // The WAL lock is held across the enqueue so the queue sees
        // batches in LSN order.
        let mut wal = lock_recover(&self.shared.wal);
        if wal.broken_reason().is_some() {
            self.retry_broken_wal(&mut wal)?;
        }
        match wal.append(&updates) {
            Ok(lsn) => {
                let mut q = lock_recover(&self.shared.queue);
                q.tasks.push_back(Task::Batch {
                    lsn,
                    updates,
                    bytes,
                });
                self.shared.queue_cond.notify_one();
                Ok(lsn)
            }
            Err(err) => {
                let mut h = lock_recover(&self.shared.health);
                if let Some(reason) = wal.broken_reason() {
                    // The tail repair failed too: enter degraded mode and
                    // schedule the first backoff-gated repair attempt.
                    if h.wal_broken.is_none() {
                        h.wal_broken = Some(reason.to_string());
                        h.wal_repair_failures = 0;
                        h.wal_retry_at = Some(Instant::now() + self.shared.opts.wal_retry_base);
                    }
                }
                Err(ServerError::WalWrite(err.to_string()))
            }
        }
    }

    /// Backoff-gated repair of a broken WAL: fails fast inside the
    /// backoff window, otherwise retries the tail repair, doubling the
    /// window on failure and clearing degraded state on success.
    fn retry_broken_wal(&self, wal: &mut Wal) -> Result<(), ServerError> {
        let reason = wal.broken_reason().unwrap_or("unknown").to_string();
        let mut h = lock_recover(&self.shared.health);
        if let Some(at) = h.wal_retry_at {
            if Instant::now() < at {
                return Err(ServerError::WalWrite(format!(
                    "wal degraded ({reason}); repair backoff in effect"
                )));
            }
        }
        match wal.try_repair() {
            Ok(()) => {
                h.wal_broken = None;
                h.wal_repair_failures = 0;
                h.wal_retry_at = None;
                Ok(())
            }
            Err(err) => {
                h.wal_repair_failures = h.wal_repair_failures.saturating_add(1);
                let exp = h.wal_repair_failures.min(10);
                let delay = self
                    .shared
                    .opts
                    .wal_retry_base
                    .saturating_mul(1u32 << exp)
                    .min(self.shared.opts.wal_retry_cap);
                h.wal_retry_at = Some(Instant::now() + delay);
                h.wal_broken = Some(reason);
                Err(ServerError::WalWrite(format!("wal repair failed: {err}")))
            }
        }
    }

    /// Blocks until every batch durable at the time of the call has been
    /// applied and published; returns `(applied_lsn, epoch)`. This is
    /// the protocol's barrier for tests and scripted clients.
    pub fn sync(&self) -> Result<(u64, u64), ServerError> {
        let target = {
            let wal = lock_recover(&self.shared.wal);
            wal.stats().next_lsn.saturating_sub(1)
        };
        let mut progress = lock_recover(&self.shared.progress);
        while progress.applied_lsn < target {
            self.check_applier()?;
            let (next, _) = wait_timeout_recover(
                &self.shared.progress_cond,
                progress,
                Duration::from_millis(100),
            );
            // Loop re-checks applier health so a dead applier cannot
            // strand the caller.
            progress = next;
        }
        Ok((progress.applied_lsn, progress.epoch))
    }

    /// Checkpoints the applied state: the applier writes the image (and
    /// garbage-collects covered segments) after finishing the batches
    /// queued ahead of this call.
    pub fn checkpoint(&self) -> Result<CheckpointInfo, ServerError> {
        self.check_applier()?;
        let (done, rx) = mpsc::channel();
        {
            let mut queue = lock_recover(&self.shared.queue);
            queue.tasks.push_back(Task::Checkpoint { done });
            self.shared.queue_cond.notify_one();
        }
        match rx.recv() {
            Ok(Ok(info)) => Ok(info),
            Ok(Err(msg)) => Err(ServerError::ApplierDead(msg)),
            Err(_) => {
                self.check_applier()?;
                Err(ServerError::ApplierDead("checkpoint reply lost".into()))
            }
        }
    }

    /// Current observability snapshot.
    pub fn stats(&self) -> ServerStats {
        let snap = self.shared.snapshot.current();
        let wal = lock_recover(&self.shared.wal).stats();
        let (queue_depth, queue_bytes, busy_rejects, max_queue_depth, max_queue_bytes) = {
            let q = lock_recover(&self.shared.queue);
            (
                q.tasks.len(),
                q.inflight_bytes,
                q.busy_rejects,
                q.max_inflight_batches,
                q.max_inflight_bytes,
            )
        };
        let health = self.health();
        let progress = lock_recover(&self.shared.progress);
        ServerStats {
            epoch: progress.epoch,
            applied_lsn: progress.applied_lsn,
            durable_lsn: wal.next_lsn.saturating_sub(1),
            queue_depth,
            queue_bytes,
            busy_rejects,
            max_queue_depth,
            max_queue_bytes,
            health,
            nodes: snap.engine().graph().node_count(),
            edges: snap.engine().graph().edge_count(),
            hubs: snap.engine().index().hub_count(),
            wal,
            checkpoints: progress.checkpoints,
            recovery: self.recovery,
            totals: progress.totals,
            paging: snap.engine().index().paging_stats(),
            scrub_cycles: self.shared.scrub.cycles.load(Ordering::Relaxed),
            scrub_bytes_verified: self.shared.scrub.bytes_verified.load(Ordering::Relaxed),
            scrub_errors_found: self.shared.scrub.errors_found.load(Ordering::Relaxed),
            scrub_errors_healed: self.shared.scrub.errors_healed.load(Ordering::Relaxed),
            memory: progress.memory,
            epochs_recycled: progress.epochs_recycled,
            epochs_cloned: progress.epochs_cloned,
        }
    }

    /// Graceful drain for SIGTERM/SIGINT: waits (up to `timeout`) for
    /// the applier to finish every batch committed to the WAL, takes a
    /// final checkpoint, then shuts down. The drained state is
    /// bit-identical to an uninterrupted run over the same committed
    /// prefix — the e2e gate the CLI's drain path is held to.
    ///
    /// Returns the final checkpoint, or why none was written: the
    /// applier did not catch up within `timeout`
    /// ([`ServerError::DrainTimeout`]), the applier is dead, or the
    /// checkpoint itself failed. The host is shut down either way, and
    /// nothing acked is lost: without the final checkpoint the next
    /// boot replays the WAL suffix instead.
    pub fn drain(&self, timeout: Duration) -> Result<CheckpointInfo, ServerError> {
        let deadline = Instant::now() + timeout;
        let target = {
            let wal = lock_recover(&self.shared.wal);
            wal.stats().next_lsn.saturating_sub(1)
        };
        let applied = {
            let mut progress = lock_recover(&self.shared.progress);
            while progress.applied_lsn < target {
                if self.check_applier().is_err() || Instant::now() >= deadline {
                    break;
                }
                let (next, _) = wait_timeout_recover(
                    &self.shared.progress_cond,
                    progress,
                    Duration::from_millis(100),
                );
                progress = next;
            }
            progress.applied_lsn
        };
        let checkpoint = self.check_applier().and_then(|()| {
            if applied < target || Instant::now() >= deadline {
                Err(ServerError::DrainTimeout {
                    applied_lsn: applied,
                    durable_lsn: target,
                    timeout_ms: timeout.as_millis() as u64,
                })
            } else {
                self.checkpoint()
            }
        });
        self.shutdown()?;
        checkpoint
    }

    /// Stops the applier (after it drains the queue) and joins it.
    /// Idempotent; also run by `Drop`. Always succeeds: an applier that
    /// died earlier is already reported through [`EngineHost::health`],
    /// and shutdown's job is only to stop serving cleanly.
    pub fn shutdown(&self) -> Result<(), ServerError> {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.queue_cond.notify_all();
        self.shared.space_cond.notify_all();
        let handle = lock_recover(&self.applier).take();
        if let Some(handle) = handle {
            if handle.join().is_err() {
                // Can only happen if a panic escaped catch_unwind (e.g.
                // inside the drain loop itself); record it.
                let mut h = lock_recover(&self.shared.health);
                if h.applier_dead.is_none() {
                    h.applier_dead = Some("applier panicked outside supervision".into());
                }
            }
        }
        // The scrubber polls the shutdown flag between (and inside) its
        // sleep slices; joining after the applier keeps WAL teardown
        // single-threaded.
        let scrubber = lock_recover(&self.scrubber).take();
        if let Some(handle) = scrubber {
            let _ = handle.join();
        }
        Ok(())
    }

    fn check_applier(&self) -> Result<(), ServerError> {
        let health = lock_recover(&self.shared.health);
        match health.applier_dead.as_ref() {
            Some(msg) => Err(ServerError::ApplierDead(msg.clone())),
            None => Ok(()),
        }
    }
}

impl Drop for EngineHost {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// The applier thread: drain → apply (supervised) → publish, until
/// shutdown or a terminal failure (which leaves the host serving
/// read-only from the last published epoch).
fn applier_loop(shared: Arc<Shared>, mut dynamic: DynamicPrsim, mut applied_lsn: u64) {
    // The epoch the last publish retired, refreshed by the next publish
    // if no reader holds it by then.
    let mut retired = None;
    loop {
        let mut tasks = {
            let mut q = lock_recover(&shared.queue);
            while q.tasks.is_empty() && !shared.shutdown.load(Ordering::Acquire) {
                q = wait_recover(&shared.queue_cond, q);
            }
            if q.tasks.is_empty() {
                return; // clean shutdown: queue fully drained
            }
            std::mem::take(&mut q.tasks)
        };
        // Coalesce: apply every drained batch, publish one epoch at the
        // end (checkpoints force an intermediate publish so the image
        // LSN always matches a published snapshot).
        let mut dirty = false;
        for task in tasks.drain(..) {
            match task {
                Task::Batch {
                    lsn,
                    updates,
                    bytes,
                } => {
                    if !shared.opts.applier_delay.is_zero() {
                        std::thread::sleep(shared.opts.applier_delay);
                    }
                    let panic_at = shared.opts.applier_panic_at_lsn;
                    // AssertUnwindSafe: on panic the closure's only
                    // captured mutable state, `dynamic`, is never touched
                    // again — the loop records the failure and returns,
                    // and the host serves the last *published* clone.
                    let applied = catch_unwind(AssertUnwindSafe(|| {
                        if panic_at == Some(lsn) {
                            panic!("injected applier panic at lsn {lsn}");
                        }
                        for update in updates {
                            dynamic.apply(update)?;
                        }
                        Ok::<(), prsim_core::PrsimError>(())
                    }));
                    release_inflight(&shared, bytes);
                    match applied {
                        Ok(Ok(())) => {
                            applied_lsn = lsn;
                            dirty = true;
                        }
                        Ok(Err(err)) => {
                            fail(&shared, format!("apply(lsn {lsn}): {err}"));
                            return;
                        }
                        Err(payload) => {
                            fail(
                                &shared,
                                format!(
                                    "panicked applying lsn {lsn}: {}",
                                    panic_message(payload.as_ref())
                                ),
                            );
                            return;
                        }
                    }
                }
                Task::Checkpoint { done } => {
                    if dirty {
                        redemote_if_resident(&shared, &mut dynamic, applied_lsn);
                        publish(&shared, &dynamic, applied_lsn, &mut retired);
                        dirty = false;
                    }
                    let result = write_checkpoint(&shared, &dynamic, applied_lsn);
                    if result.is_ok() {
                        let mut progress = lock_recover(&shared.progress);
                        progress.checkpoints += 1;
                    }
                    let _ = done.send(result);
                }
            }
        }
        if dirty {
            redemote_if_resident(&shared, &mut dynamic, applied_lsn);
            publish(&shared, &dynamic, applied_lsn, &mut retired);
        }
    }
}

/// Re-demotes the engine's arena after a drift rebuild left it resident
/// (incremental repair appends to the paged overlay in place; only a
/// full rebuild replaces the index with a resident one). Demote failure
/// keeps serving the resident rebuild — temporarily over budget — and
/// reports `paging broken` through [`EngineHost::health`] until a later
/// rebuild's demote succeeds.
fn redemote_if_resident(shared: &Shared, dynamic: &mut DynamicPrsim, applied_lsn: u64) {
    let Some(paged) = shared.opts.paged_options() else {
        return;
    };
    let rebuilt_resident = dynamic.engine().is_some_and(|e| e.index().is_resident());
    if !rebuilt_resident {
        return;
    }
    let path = arena_path(&shared.wal_dir, applied_lsn);
    match dynamic.page_out_index(Arc::clone(&shared.storage), &path, &paged) {
        Ok(()) => {
            let mut h = lock_recover(&shared.health);
            h.paging_broken = None;
        }
        Err(err) => {
            let mut h = lock_recover(&shared.health);
            h.paging_broken = Some(format!("re-demote after rebuild failed: {err}"));
        }
    }
}

/// Removes paged arena generations left by previous incarnations of
/// this host (recovery reconstitutes the index from the checkpoint and
/// log, so old generations are dead weight). Best-effort: a file we
/// cannot list or remove only wastes disk, it is never read again.
fn remove_stale_arenas(storage: &dyn Storage, wal_dir: &Path) {
    let Ok(paths) = storage.list(wal_dir) else {
        return;
    };
    for path in paths {
        let is_arena = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .is_some_and(|n| n.starts_with("arena-") && n.ends_with(".pages"));
        if is_arena {
            let _ = storage.remove_file(&path);
        }
    }
}

/// Returns one batch's reservation to the inflight budget.
fn release_inflight(shared: &Shared, bytes: usize) {
    let mut q = lock_recover(&shared.queue);
    q.inflight_batches = q.inflight_batches.saturating_sub(1);
    q.inflight_bytes = q.inflight_bytes.saturating_sub(bytes);
    shared.space_cond.notify_one();
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Copies the repaired engine into a new epoch and swaps it in. The copy
/// goes into `retired` — the epoch the previous publish swapped out —
/// when no reader holds it any more, so it reuses that epoch's buffers;
/// otherwise the engine is cloned afresh and the readers keep the old
/// epoch alive as long as they need it. Either way `retired` ends up
/// holding the epoch this publish swapped out.
fn publish(
    shared: &Shared,
    dynamic: &DynamicPrsim,
    applied_lsn: u64,
    retired: &mut Option<Arc<EpochSnapshot>>,
) {
    let engine = dynamic
        .engine()
        .expect("incremental engine is always built");
    // Only this thread advances the epoch, so it can be read ahead of
    // the copy, which then runs without holding the progress lock.
    let epoch = lock_recover(&shared.progress).epoch + 1;
    let mut spare = retired.take();
    let (next, recycled) = match spare.as_mut().and_then(Arc::get_mut) {
        Some(snap) => {
            snap.refresh(epoch, applied_lsn, engine);
            (spare.expect("just refreshed"), true)
        }
        None => {
            drop(spare);
            let snap = EpochSnapshot::new(epoch, applied_lsn, engine.clone());
            (Arc::new(snap), false)
        }
    };
    *retired = Some(shared.snapshot.replace(next));
    let mut progress = lock_recover(&shared.progress);
    if recycled {
        progress.epochs_recycled += 1;
    } else {
        progress.epochs_cloned += 1;
    }
    progress.epoch = epoch;
    progress.applied_lsn = applied_lsn;
    progress.totals = dynamic.totals();
    progress.memory = dynamic.memory();
    shared.progress_cond.notify_all();
}

fn write_checkpoint(
    shared: &Shared,
    dynamic: &DynamicPrsim,
    applied_lsn: u64,
) -> Result<CheckpointInfo, String> {
    let engine = dynamic
        .engine()
        .expect("incremental engine is always built");
    // A paged arena streams its base runs back through the buffer pool
    // here, so an unhealed page fault fails the checkpoint (with the
    // previous checkpoint still in place) instead of poisoning it.
    let index_bytes = engine
        .index()
        .try_to_bytes()
        .map_err(|e| format!("checkpoint at lsn {applied_lsn}: serialize index: {e}"))?;
    let mut wal = lock_recover(&shared.wal);
    wal.write_checkpoint(applied_lsn, engine.graph(), &index_bytes)
        .map(|bytes| CheckpointInfo {
            lsn: applied_lsn,
            bytes,
        })
        .map_err(|e| format!("checkpoint at lsn {applied_lsn}: {e}"))
}

/// Records the applier's terminal error, flips the host to degraded
/// read-only serving, and wakes every waiter so nothing stays blocked
/// on progress that will never come.
fn fail(shared: &Shared, msg: String) {
    eprintln!("prsim-applier: fatal: {msg}");
    {
        let mut h = lock_recover(&shared.health);
        if h.applier_dead.is_none() {
            h.applier_dead = Some(msg);
        }
    }
    shared.shutdown.store(true, Ordering::Release);
    shared.progress_cond.notify_all();
    shared.space_cond.notify_all();
}

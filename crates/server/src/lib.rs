//! Resident PRSim engine host: epoch-snapshot reads over a durable
//! update WAL.
//!
//! The CLI's one-shot commands rebuild or reload the index on every
//! invocation, which never exercises the incremental machinery the way
//! production traffic would. This crate keeps one engine alive:
//!
//! * **Queries** run against an immutable [`EpochSnapshot`] — a cheap
//!   clone of the whole engine (the postings arena, walk cache, π vector
//!   and graph are contiguous buffers) behind an `Arc` that readers grab
//!   lock-free relative to updates. A snapshot is never mutated, so an
//!   in-flight update batch can never block or tear a query.
//! * **Updates** are appended to a write-ahead log ([`wal`]) and fsynced
//!   *before* they are acknowledged, then drained by a background
//!   applier thread through [`prsim_core::DynamicPrsim`]'s repair path
//!   (tombstone repair, walk-cache invalidation, drift-budget rebuilds).
//!   Each drained batch run publishes a fresh epoch by atomically
//!   swapping the snapshot `Arc`.
//! * **Recovery** replays the log on start. [`DynamicPrsim`]'s repair is
//!   deterministic in the initial graph, configuration and update
//!   sequence, so a process that crashes — even SIGKILL mid-write — and
//!   restarts over the same log serves *bit-identical* query responses
//!   to an uninterrupted process that applied the same committed prefix.
//!   Checkpoints ([`wal::Wal::write_checkpoint`]) are rebuild points:
//!   recovery from a checkpoint re-selects hubs from the checkpointed
//!   graph exactly like a drift-budget rebuild would, and is itself
//!   deterministic — every recovery from the same (checkpoint, log) pair
//!   yields the same engine.
//!
//! ## Failure model
//!
//! The serving layer is built to *degrade*, not die:
//!
//! * All WAL I/O runs through the injectable [`storage`] layer, and the
//!   chaos suite drives it with [`fault::FaultyStorage`] schedules. The
//!   durability invariant under any schedule: **no acked update is ever
//!   lost, no unacked update is ever half-applied** — a failed append
//!   repairs its own tail before returning the error.
//! * The applier queue is bounded by batch count *and* bytes; an
//!   `update` past the bound blocks up to a budget, then fails with the
//!   retryable [`ServerError::Busy`].
//! * Every [`ServerError`] is classified [retryable or
//!   fatal](ServerError::retryable), and the line protocol surfaces the
//!   class (`err retryable …` / `err fatal …`).
//! * The applier runs under `catch_unwind`; a panic or unappliable
//!   record flips the host to a read-only *degraded* state that keeps
//!   serving the last published epoch (`health=degraded`), and a broken
//!   WAL is retried with exponential backoff instead of poisoning every
//!   future call.
//!
//! [`protocol`] exposes the host over a single-line text protocol
//! (`query` / `update` / `sync` / `stats` / `health` / `checkpoint` /
//! `shutdown`) on stdin/stdout or TCP; `prsim serve` is the CLI entry
//! point. The TCP front end is the supervised concurrent server in
//! [`conn`]: a bounded worker pool with per-read deadlines, per-line
//! byte budgets, an in-flight query admission gate, and graceful
//! SIGTERM/SIGINT drain (see [`signal`]). [`scrub`] runs the background
//! integrity scrubber that continuously re-verifies at-rest checksums
//! (cold WAL segments, checkpoint images, paged-arena pages) and heals
//! or degrades on bit-rot.
//!
//! [`DynamicPrsim`]: prsim_core::DynamicPrsim

// `signal` needs two raw `extern` declarations (no libc dependency);
// everything else stays `unsafe_code`-free, enforced per-module.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod host;
pub mod protocol;
pub mod scrub;
pub mod signal;
pub mod snapshot;
pub mod wal;

// The storage traits and the fault injector moved to `prsim-storage` so
// the core crate's buffer pool can share them; these aliases keep every
// pre-existing `prsim_server::storage::…` / `prsim_server::fault::…`
// path working.
pub use prsim_storage as storage;
pub use prsim_storage::fault;

pub use conn::{ChaosClient, ChaosReport, ConnOptions, InflightGate, ServeSummary};
pub use fault::{FaultPlan, FaultyStorage};
pub use host::{CheckpointInfo, EngineHost, Health, HostOptions, RecoveryReport, ServerStats};
pub use snapshot::{EpochSnapshot, SnapshotHandle};
pub use storage::{FsStorage, Storage, WalFile};

use std::fmt;
use std::io;

/// Errors surfaced by the serving layer.
#[derive(Debug)]
pub enum ServerError {
    /// WAL, checkpoint or socket I/O failed.
    Io(io::Error),
    /// The engine rejected a configuration, update or rebuild.
    Engine(prsim_core::PrsimError),
    /// A checkpoint's graph section failed to decode.
    Graph(prsim_graph::GraphError),
    /// The background applier thread died; the message is its last error.
    /// The host keeps serving reads from the last published epoch.
    ApplierDead(String),
    /// The bounded applier queue stayed full past the busy budget; the
    /// update was not accepted and can be retried.
    Busy {
        /// How long the call blocked waiting for queue space.
        waited_ms: u64,
    },
    /// The WAL rejected or failed the write; the update was **not**
    /// committed and can be retried (the host heals the log with
    /// exponential backoff).
    WalWrite(String),
    /// The server shed this request under overload (connection or
    /// in-flight query limits); retry after a short backoff.
    Overloaded(String),
    /// A graceful drain ran out of time before it could write its final
    /// checkpoint. Every acked update is still in the WAL; the next
    /// boot replays the records past the last checkpoint.
    DrainTimeout {
        /// The last LSN the applier had applied.
        applied_lsn: u64,
        /// The last LSN durable in the WAL when the drain began.
        durable_lsn: u64,
        /// The drain budget that ran out.
        timeout_ms: u64,
    },
}

impl ServerError {
    /// Whether a client may retry the exact same call and reasonably
    /// expect it to succeed. `Busy`, `WalWrite` and `Overloaded` are
    /// transient (overload, healing I/O); everything else is fatal for
    /// the request or the process.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            ServerError::Busy { .. } | ServerError::WalWrite(_) | ServerError::Overloaded(_)
        )
    }
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "i/o: {e}"),
            ServerError::Engine(e) => write!(f, "engine: {e}"),
            ServerError::Graph(e) => write!(f, "graph: {e}"),
            ServerError::ApplierDead(msg) => write!(f, "applier thread died: {msg}"),
            ServerError::Busy { waited_ms } => {
                write!(f, "busy: queue full after waiting {waited_ms} ms")
            }
            ServerError::WalWrite(msg) => write!(f, "wal write failed: {msg}"),
            ServerError::Overloaded(msg) => write!(f, "overloaded: {msg}"),
            ServerError::DrainTimeout {
                applied_lsn,
                durable_lsn,
                timeout_ms,
            } => write!(
                f,
                "drain timed out after {timeout_ms} ms with applied_lsn={applied_lsn} \
                 of durable_lsn={durable_lsn}"
            ),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<prsim_core::PrsimError> for ServerError {
    fn from(e: prsim_core::PrsimError) -> Self {
        ServerError::Engine(e)
    }
}

impl From<prsim_graph::GraphError> for ServerError {
    fn from(e: prsim_graph::GraphError) -> Self {
        ServerError::Graph(e)
    }
}

#[cfg(test)]
mod send_sync_audit {
    //! Compile-time audit that everything crossing the applier/reader
    //! boundary is [`Send`] + [`Sync`]: the snapshot types here, and the
    //! engine/workspace/cache types they embed from `prsim-core` (none
    //! of which use interior mutability).

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn shared_types_are_send_sync() {
        assert_send_sync::<prsim_graph::DiGraph>();
        assert_send_sync::<prsim_core::PrsimIndex>();
        assert_send_sync::<prsim_core::WalkCache>();
        assert_send_sync::<prsim_core::Prsim>();
        assert_send_sync::<prsim_core::QueryWorkspace>();
        assert_send_sync::<prsim_core::DynamicPrsim>();
        assert_send_sync::<crate::EpochSnapshot>();
        assert_send_sync::<crate::SnapshotHandle>();
        assert_send_sync::<crate::EngineHost>();
        assert_send_sync::<crate::wal::Wal>();
        assert_send_sync::<crate::FsStorage>();
        assert_send_sync::<crate::FaultyStorage>();
    }
}

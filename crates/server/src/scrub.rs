//! Background integrity scrubber: continuous at-rest verification of
//! everything the server would need in a crash.
//!
//! Checksums are only worth what re-reads them. The WAL verifies
//! records at replay and the buffer pool verifies pages at fault time —
//! but an artifact nobody touches (a cold segment behind the applied
//! frontier, the checkpoint a recovery would boot from, an evicted
//! arena page) can rot for weeks and only announce itself during the
//! recovery that needed it intact. The scrubber closes that window: a
//! low-priority thread walks every cold artifact each cycle,
//! re-verifies its FNV-1a checksums from disk, and either **heals**
//! (the artifact is redundant or reconstructible: rewrite a page from
//! its clean resident frame, refresh a rotten checkpoint from the live
//! engine, drop a segment a fresh checkpoint provably covers) or
//! **degrades** the host (`health` reason `scrub: …`) when serving
//! state is the only copy left.
//!
//! Every at-rest read is double-checked before it counts as rot: a
//! transient in-flight corruption (a flipped read under fault
//! injection, a torn page cache) does not repeat, real rot does. The
//! scrubber never touches the live WAL tail's bytes beyond verifying
//! them — the tail is the appender's property, and rot there is
//! unhealable by definition (its records may be the only copy of acked
//! updates).
//!
//! Counters surface through `stats` as `scrub_cycles`,
//! `scrub_bytes_verified`, `scrub_errors_found`, `scrub_errors_healed`.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use prsim_core::PageScrub;

use crate::host::{lock_recover, CheckpointInfo, Shared, Task};
use crate::storage::Storage;
use crate::wal;

/// Sleep slice between shutdown checks while idling between cycles —
/// bounds how long a drain waits on the scrubber.
const SLEEP_SLICE: Duration = Duration::from_millis(25);

/// How long one checkpoint-reply poll waits before re-checking for
/// shutdown (a checkpoint task queued behind a dead applier would
/// otherwise block the scrubber forever).
const REPLY_POLL: Duration = Duration::from_millis(100);

/// What one artifact check concluded.
enum Artifact {
    /// Bytes verified clean.
    Clean(u64),
    /// Confirmed at-rest rot (the detail names the first bad byte).
    Rotten(String),
    /// Transiently unreadable or concurrently removed — skip, next
    /// cycle retries.
    Skip,
}

/// The scrubber thread body: cycle, then sleep `interval` in
/// shutdown-checking slices, until the host shuts down (or its applier
/// dies — `fail` raises the same flag, and healing without an applier
/// to checkpoint through is impossible anyway).
pub(crate) fn scrub_loop(shared: Arc<Shared>, interval: Duration) {
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        run_cycle(&shared);
        let mut slept = Duration::ZERO;
        while slept < interval {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            let slice = SLEEP_SLICE.min(interval - slept);
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// One full verification pass over cold segments, checkpoint images,
/// paged-arena pages and the live tail's sealed prefix.
fn run_cycle(shared: &Shared) {
    let mut found = 0u64;
    let mut healed = 0u64;
    let mut bytes = 0u64;
    let mut unhealable: Vec<String> = Vec::new();
    let storage = shared.storage.as_ref();
    let dir = &shared.wal_dir;
    // The live boundary is captured once: everything below `live_seq`
    // is sealed, and the live segment's first `live_len` bytes are
    // immutable (append-only file, known-good length).
    let (live_seq, live_len) = lock_recover(&shared.wal).live_segment();

    // Cold WAL segments.
    let segments = wal::list_segments(storage, dir).unwrap_or_default();
    for (seq, path) in &segments {
        if *seq >= live_seq || shared.shutdown.load(Ordering::Acquire) {
            continue;
        }
        match check_segment(storage, path, None) {
            Artifact::Clean(n) => bytes += n,
            Artifact::Skip => {}
            Artifact::Rotten(detail) => {
                found += 1;
                match heal_segment(shared, path, *seq, &segments, &detail) {
                    Ok(()) => healed += 1,
                    Err(msg) => unhealable.push(msg),
                }
            }
        }
    }

    // Checkpoint images.
    let checkpoints = wal::list_checkpoints(storage, dir).unwrap_or_default();
    let newest_lsn = checkpoints.iter().map(|&(l, _)| l).max();
    for (lsn, path) in &checkpoints {
        if shared.shutdown.load(Ordering::Acquire) {
            continue;
        }
        match check_checkpoint(storage, path) {
            Artifact::Clean(n) => bytes += n,
            Artifact::Skip => {}
            Artifact::Rotten(detail) => {
                found += 1;
                match heal_checkpoint(shared, path, *lsn, newest_lsn, &detail) {
                    Ok(()) => healed += 1,
                    Err(msg) => unhealable.push(msg),
                }
            }
        }
    }

    // Paged-arena pages (the pool double-reads and heals internally).
    // Only the pool is held across the walk: holding the snapshot would
    // keep its epoch from being recycled by the next publish.
    let pool = shared.snapshot.current().engine().index().paged_pool();
    if let Some(pool) = pool {
        for page in 0..pool.page_count() {
            if shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            match pool.scrub_page(page) {
                PageScrub::Clean { bytes: n } => bytes += n,
                PageScrub::Healed { bytes: n } => {
                    found += 1;
                    healed += 1;
                    bytes += n;
                }
                PageScrub::Unhealable { detail } => {
                    found += 1;
                    unhealable.push(detail);
                }
                PageScrub::Unreadable { .. } => {}
            }
        }
    }

    // The live segment's sealed prefix. Rot here is unhealable: these
    // records may be the only copy of acked-but-uncheckpointed updates.
    let live_path = wal::segment_path(dir, live_seq);
    match check_segment(storage, &live_path, Some(live_len as usize)) {
        Artifact::Clean(n) => bytes += n,
        Artifact::Skip => {}
        Artifact::Rotten(detail) => {
            found += 1;
            unhealable.push(format!(
                "live wal tail {} is rotten: {detail}",
                live_path.display()
            ));
        }
    }

    {
        let mut h = lock_recover(&shared.health);
        h.scrub_broken = unhealable.first().cloned();
    }
    for msg in &unhealable {
        eprintln!("prsim-scrub: unhealable: {msg}");
    }
    shared.scrub.cycles.fetch_add(1, Ordering::Relaxed);
    shared
        .scrub
        .bytes_verified
        .fetch_add(bytes, Ordering::Relaxed);
    shared
        .scrub
        .errors_found
        .fetch_add(found, Ordering::Relaxed);
    shared
        .scrub
        .errors_healed
        .fetch_add(healed, Ordering::Relaxed);
}

/// Verifies a segment's bytes (all of them, or the first `upto` for the
/// live tail), double-reading before declaring rot.
fn check_segment(storage: &dyn Storage, path: &Path, upto: Option<usize>) -> Artifact {
    let read = |storage: &dyn Storage| -> std::io::Result<Vec<u8>> {
        match upto {
            Some(n) => storage.read_prefix(path, n),
            None => storage.read(path),
        }
    };
    let Ok(data) = read(storage) else {
        return Artifact::Skip;
    };
    let limit = upto.unwrap_or(data.len());
    match wal::verify_segment_bytes(&data, limit) {
        Ok(n) => Artifact::Clean(n),
        Err(first) => {
            // Confirm: a flipped in-flight read does not repeat.
            let Ok(again) = read(storage) else {
                return Artifact::Skip;
            };
            match wal::verify_segment_bytes(&again, limit) {
                Ok(n) => Artifact::Clean(n),
                Err(_) => Artifact::Rotten(first),
            }
        }
    }
}

/// Verifies one checkpoint image end to end (header, payload checksum,
/// graph and index framing), double-reading before declaring rot.
fn check_checkpoint(storage: &dyn Storage, path: &Path) -> Artifact {
    let verify = || -> Option<Result<u64, String>> {
        if !storage.exists(path) {
            return None; // concurrently GC'd
        }
        let len = storage.file_len(path).unwrap_or(0);
        match wal::read_checkpoint(storage, path) {
            Ok(_) => Some(Ok(len)),
            Err(e) => Some(Err(e.to_string())),
        }
    };
    match verify() {
        None => Artifact::Skip,
        Some(Ok(n)) => Artifact::Clean(n),
        Some(Err(first)) => match verify() {
            None => Artifact::Skip,
            Some(Ok(n)) => Artifact::Clean(n),
            Some(Err(_)) => Artifact::Rotten(first),
        },
    }
}

/// Heals a rotten cold segment: a fresh checkpoint makes its records
/// redundant, after which the segment is removed. The segment is
/// provably covered when its successor's `first_lsn` fits inside the
/// new image's horizon; otherwise the rot sits in records only this
/// segment holds, and that is unhealable.
fn heal_segment(
    shared: &Shared,
    path: &Path,
    seq: u64,
    segments: &[(u64, PathBuf)],
    detail: &str,
) -> Result<(), String> {
    let name = path.display();
    let info = request_checkpoint(shared).map_err(|e| {
        format!("cold segment {name} is rotten ({detail}) and re-checkpoint failed: {e}")
    })?;
    if !shared.storage.exists(path) {
        return Ok(()); // the checkpoint's GC already collected it
    }
    if let Some((_, next_path)) = segments.iter().find(|(s, _)| *s > seq) {
        if let Ok(next_first) = wal::read_segment_first_lsn(shared.storage.as_ref(), next_path) {
            if next_first <= info.lsn + 1 {
                shared.storage.remove_file(path).map_err(|e| {
                    format!("cold segment {name} is rotten ({detail}); removal failed: {e}")
                })?;
                return Ok(());
            }
        }
    }
    Err(format!(
        "cold segment {name} is rotten ({detail}) and not covered by checkpoint lsn {}",
        info.lsn
    ))
}

/// Heals a rotten checkpoint: an older image is redundant (the newest
/// one recovers further) and is simply removed; the newest image is
/// refreshed from the live engine, which either overwrites it in place
/// (same LSN) or supersedes it (the applier moved on), after which the
/// rotten file goes.
fn heal_checkpoint(
    shared: &Shared,
    path: &Path,
    lsn: u64,
    newest_lsn: Option<u64>,
    detail: &str,
) -> Result<(), String> {
    let name = path.display();
    if Some(lsn) != newest_lsn {
        return shared.storage.remove_file(path).map_err(|e| {
            format!("redundant checkpoint {name} is rotten ({detail}); removal failed: {e}")
        });
    }
    let info = request_checkpoint(shared).map_err(|e| {
        format!("newest checkpoint {name} is rotten ({detail}) and refresh failed: {e}")
    })?;
    if info.lsn != lsn && shared.storage.exists(path) {
        shared.storage.remove_file(path).map_err(|e| {
            format!("superseded checkpoint {name} is rotten ({detail}); removal failed: {e}")
        })?;
    }
    Ok(())
}

/// Requests a checkpoint through the applier queue, polling the reply
/// so a shutdown (or a dead applier, which raises the same flag) cannot
/// strand the scrubber on a task nobody will ever drain.
fn request_checkpoint(shared: &Shared) -> Result<CheckpointInfo, String> {
    let (done, rx) = mpsc::channel();
    {
        let mut q = lock_recover(&shared.queue);
        q.tasks.push_back(Task::Checkpoint { done });
        shared.queue_cond.notify_one();
    }
    loop {
        match rx.recv_timeout(REPLY_POLL) {
            Ok(Ok(info)) => return Ok(info),
            Ok(Err(msg)) => return Err(msg),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return Err("host shut down before the checkpoint ran".into());
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err("applier dropped the checkpoint request".into());
            }
        }
    }
}

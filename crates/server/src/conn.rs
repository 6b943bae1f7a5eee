//! Supervised concurrent TCP front end for the line protocol.
//!
//! The sequential `serve_tcp` loop this replaces had a trivial failure
//! mode: one slow client wedged everyone behind it. [`serve_supervised`]
//! instead runs a bounded worker pool over `std::thread::scope`:
//!
//! * **Connection cap** — at most [`ConnOptions::max_clients`] live
//!   connections; an excess connection is written one line,
//!   `err retryable overloaded …`, and closed. The shed is cheap by
//!   construction (no worker is spawned for it).
//! * **Admission gate** — [`InflightGate`] bounds the queries executing
//!   at any instant across *all* connections; a query past the bound is
//!   shed with `err retryable overloaded …` instead of queueing without
//!   limit behind every other client's work.
//! * **Slowloris defense** — every socket read carries a short poll
//!   deadline ([`POLL_TICK`]); a client that stays silent past the
//!   configured idle budget is dropped, and one that streams bytes
//!   without ever sending a newline is cut off at
//!   [`ConnOptions::max_line_bytes`] with `err fatal parse …`.
//! * **Isolation** — a worker that hits a client-side error (reset,
//!   broken pipe, timeout) drops only its own connection; the host and
//!   every other client are untouched. Responses are byte-identical to
//!   the sequential server for any interleaving of per-client scripts,
//!   because each line is handled by the same pure
//!   [`protocol::handle_line_session`] path against an epoch snapshot.
//!   Each worker owns one [`protocol::Session`] — a query workspace and
//!   a reply buffer reused across its connection's requests.
//! * **Drain** — when the external `stop` flag flips (SIGTERM/SIGINT,
//!   see [`crate::signal`]) or a client sends `shutdown`, the listener
//!   stops accepting and every worker closes its connection at the next
//!   line boundary; in-flight requests finish first.
//!
//! [`ChaosClient`] is the adversarial counterpart used by the tests: a
//! seed-scheduled client that interleaves valid queries with garbage
//! frames, half-written lines, stalls and mid-query disconnects, so the
//! supervisor's isolation claims are exercised rather than assumed.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use crate::host::EngineHost;
use crate::protocol;

/// Per-read socket poll deadline: how quickly a blocked worker notices
/// a drain request. Short enough that drain latency is negligible, long
/// enough that polling idle sockets costs nothing measurable.
pub const POLL_TICK: Duration = Duration::from_millis(100);

/// Accept-loop poll deadline (the listener is non-blocking so the loop
/// can watch the stop flag).
const ACCEPT_TICK: Duration = Duration::from_millis(10);

/// Socket write deadline. A client that stops draining responses for
/// this long is dropped rather than allowed to wedge its worker.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// Read-buffer chunk size for the per-connection line reader.
const READ_CHUNK: usize = 4096;

/// Tuning knobs for [`serve_supervised`].
#[derive(Clone, Debug)]
pub struct ConnOptions {
    /// Maximum concurrently served connections; excess connections are
    /// shed with `err retryable overloaded` and closed.
    pub max_clients: usize,
    /// Maximum queries executing at any instant across all connections
    /// (the [`InflightGate`] bound).
    pub max_inflight_queries: usize,
    /// Idle budget per connection: a client that sends no bytes for
    /// this long is dropped. `None` tolerates arbitrarily idle clients.
    pub read_timeout: Option<Duration>,
    /// Per-line byte budget: a connection that streams more than this
    /// without a newline gets `err fatal parse …` and is closed.
    pub max_line_bytes: usize,
    /// Budget for graceful drain on SIGTERM/SIGINT (consumed by the
    /// CLI via [`crate::host::EngineHost::drain`], carried here so the
    /// serve entry point owns one options struct).
    pub drain_timeout: Duration,
}

impl Default for ConnOptions {
    fn default() -> Self {
        ConnOptions {
            max_clients: 64,
            max_inflight_queries: 256,
            read_timeout: None,
            max_line_bytes: 1 << 20,
            drain_timeout: Duration::from_millis(5000),
        }
    }
}

/// Global in-flight query admission gate: a lock-free counting
/// semaphore with shed-instead-of-wait semantics.
#[derive(Debug)]
pub struct InflightGate {
    limit: usize,
    inflight: AtomicUsize,
    shed: AtomicU64,
}

impl InflightGate {
    /// A gate admitting at most `limit` concurrent queries.
    pub fn new(limit: usize) -> Self {
        InflightGate {
            limit: limit.max(1),
            inflight: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// The admission bound.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Queries executing right now.
    pub fn in_flight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }

    /// Queries shed at the bound so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Tries to admit one query; `None` means the caller must shed it
    /// (the gate never blocks — overload is answered, not queued).
    pub fn try_acquire(&self) -> Option<GatePermit<'_>> {
        let mut cur = self.inflight.load(Ordering::Acquire);
        loop {
            if cur >= self.limit {
                self.shed.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(GatePermit { gate: self }),
                Err(now) => cur = now,
            }
        }
    }
}

/// An admitted query's slot; dropping it releases the slot.
#[derive(Debug)]
pub struct GatePermit<'a> {
    gate: &'a InflightGate,
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        self.gate.inflight.fetch_sub(1, Ordering::Release);
    }
}

/// What a [`serve_supervised`] run did, for the CLI's exit log and the
/// tests' assertions.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeSummary {
    /// Connections accepted *and* served by a worker.
    pub connections: u64,
    /// Connections shed at the `max_clients` bound.
    pub overload_rejects: u64,
    /// Queries shed at the in-flight gate.
    pub gate_shed: u64,
    /// Whether a client's `shutdown` verb (as opposed to the external
    /// stop flag) ended the run.
    pub shutdown_requested: bool,
}

/// Whether a connection-level error means *this client* went away or
/// stalled (drop the connection, keep the server) as opposed to a
/// server-side I/O failure worth logging.
fn is_client_error(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
    )
}

/// Serves concurrent TCP connections until the external `stop` flag
/// flips or a client sends `shutdown`. Returns after every worker has
/// closed its connection; the caller then decides between
/// [`EngineHost::shutdown`] (client-requested) and
/// [`EngineHost::drain`](crate::host::EngineHost::drain) (signal).
///
/// The host is only borrowed: supervised serving never consumes or
/// tears down engine state, so a drain after this returns still sees
/// every committed update.
pub fn serve_supervised(
    host: &EngineHost,
    listener: TcpListener,
    opts: &ConnOptions,
    stop: &AtomicBool,
) -> io::Result<ServeSummary> {
    listener.set_nonblocking(true)?;
    let gate = InflightGate::new(opts.max_inflight_queries);
    let draining = AtomicBool::new(false);
    let shutdown_requested = AtomicBool::new(false);
    let active = AtomicUsize::new(0);
    let connections = AtomicU64::new(0);
    let overload_rejects = AtomicU64::new(0);

    let result = std::thread::scope(|scope| -> io::Result<()> {
        loop {
            if stop.load(Ordering::SeqCst) || draining.load(Ordering::SeqCst) {
                return Ok(());
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    if active.load(Ordering::SeqCst) >= opts.max_clients {
                        overload_rejects.fetch_add(1, Ordering::Relaxed);
                        shed_connection(stream, opts.max_clients);
                        continue;
                    }
                    active.fetch_add(1, Ordering::SeqCst);
                    connections.fetch_add(1, Ordering::Relaxed);
                    let (gate, active) = (&gate, &active);
                    let (draining, shutdown_requested) = (&draining, &shutdown_requested);
                    scope.spawn(move || {
                        let peer = stream
                            .peer_addr()
                            .map(|a| a.to_string())
                            .unwrap_or_else(|_| "<unknown>".into());
                        let served = serve_conn(
                            host,
                            stream,
                            opts,
                            gate,
                            draining,
                            shutdown_requested,
                            stop,
                        );
                        active.fetch_sub(1, Ordering::SeqCst);
                        match served {
                            Ok(()) => {}
                            Err(err) if is_client_error(&err) => {
                                eprintln!("prsim serve: dropping client {peer}: {err}");
                            }
                            Err(err) => {
                                eprintln!("prsim serve: worker error for client {peer}: {err}");
                            }
                        }
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_TICK);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    // Fatal listener failure: release the workers before
                    // propagating, or the scope join would hang on
                    // clients that never disconnect.
                    draining.store(true, Ordering::SeqCst);
                    return Err(e);
                }
            }
        }
    });
    result?;

    Ok(ServeSummary {
        connections: connections.load(Ordering::Relaxed),
        overload_rejects: overload_rejects.load(Ordering::Relaxed),
        gate_shed: gate.shed(),
        shutdown_requested: shutdown_requested.load(Ordering::SeqCst),
    })
}

/// Writes the one-line overload shed and closes the connection. Best
/// effort: a client that vanished mid-shed is already gone.
fn shed_connection(mut stream: TcpStream, max_clients: usize) {
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = writeln!(
        stream,
        "err retryable overloaded connection shed at {max_clients} clients, retry later"
    );
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

/// Serves one connection: a bounded line reader over a polled socket.
fn serve_conn(
    host: &EngineHost,
    mut stream: TcpStream,
    opts: &ConnOptions,
    gate: &InflightGate,
    draining: &AtomicBool,
    shutdown_requested: &AtomicBool,
    stop: &AtomicBool,
) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL_TICK))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    // One-line replies are latency-bound, not bandwidth-bound: without
    // this, Nagle + delayed ACK can hold a reply's tail segment for
    // ~40 ms per request.
    let _ = stream.set_nodelay(true);
    // Per-connection query workspace and reply buffer, reused by every
    // request this worker serves.
    let mut session = protocol::Session::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; READ_CHUNK];
    let mut idle = Duration::ZERO;
    loop {
        if stop.load(Ordering::SeqCst) || draining.load(Ordering::SeqCst) {
            return Ok(());
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                // EOF with a final unterminated line still gets served:
                // scripted clients that forget the trailing newline
                // deserve their answer.
                if !buf.is_empty() {
                    let line = decode_line(&buf);
                    respond(
                        host,
                        &mut stream,
                        &line,
                        &mut session,
                        gate,
                        draining,
                        shutdown_requested,
                    )?;
                }
                return Ok(());
            }
            Ok(n) => {
                idle = Duration::ZERO;
                buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    if pos > opts.max_line_bytes {
                        // A completed line over budget is as fatal as an
                        // unterminated one — it must never reach the
                        // parser.
                        return refuse_oversized(&mut stream, opts.max_line_bytes);
                    }
                    let line = decode_line(&buf[..pos]);
                    buf.drain(..=pos);
                    let quit = respond(
                        host,
                        &mut stream,
                        &line,
                        &mut session,
                        gate,
                        draining,
                        shutdown_requested,
                    )?;
                    if quit || draining.load(Ordering::SeqCst) || stop.load(Ordering::SeqCst) {
                        return Ok(());
                    }
                }
                if buf.len() > opts.max_line_bytes {
                    // Oversized-frame defense: answer once, then cut the
                    // stream off — the client can never finish this line
                    // into something parseable.
                    return refuse_oversized(&mut stream, opts.max_line_bytes);
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                idle += POLL_TICK;
                if let Some(budget) = opts.read_timeout {
                    if idle >= budget {
                        // Slowloris defense: silent past the budget.
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("idle past the {budget:?} read budget"),
                        ));
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Rejects an over-budget frame: answer once with a structured parse
/// error, then cut the stream off — nothing this client sends on the
/// same connection can be trusted to frame correctly anymore.
fn refuse_oversized(stream: &mut TcpStream, max_line_bytes: usize) -> io::Result<()> {
    writeln!(
        stream,
        "err fatal parse line exceeds {max_line_bytes} bytes"
    )?;
    stream.flush()?;
    let _ = stream.shutdown(Shutdown::Both);
    Ok(())
}

/// Decodes one wire line: lossy UTF-8 (garbage bytes become U+FFFD and
/// parse as garbage rather than killing the connection) with the
/// protocol's optional trailing `\r` stripped.
fn decode_line(bytes: &[u8]) -> String {
    let line = String::from_utf8_lossy(bytes);
    line.trim_end_matches('\r').to_string()
}

/// Handles one decoded line and writes the response; returns whether
/// the client requested shutdown (which this records in the shared
/// flags so the accept loop and every sibling worker drain too).
fn respond(
    host: &EngineHost,
    stream: &mut TcpStream,
    line: &str,
    session: &mut protocol::Session,
    gate: &InflightGate,
    draining: &AtomicBool,
    shutdown_requested: &AtomicBool,
) -> io::Result<bool> {
    let quit = protocol::handle_line_session(host, line, Some(gate), session);
    if !session.reply().is_empty() {
        // One write_all, newline included: `writeln!` would issue the
        // body and the terminator as separate writes, i.e. separate TCP
        // segments, and the terminator segment is what Nagle holds.
        stream.write_all(session.reply_frame())?;
        stream.flush()?;
    }
    if quit {
        shutdown_requested.store(true, Ordering::SeqCst);
        draining.store(true, Ordering::SeqCst);
    }
    Ok(quit)
}

/// A deterministic misbehaving client for the chaos tests: the same
/// `(addr, seed)` replays the same schedule of valid queries, garbage
/// frames (NUL bytes included), half-written lines with stalls, silent
/// stalls, and mid-query disconnects.
#[derive(Clone, Debug)]
pub struct ChaosClient {
    addr: String,
    seed: u64,
}

/// What a [`ChaosClient::run`] schedule observed.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChaosReport {
    /// Scheduled actions performed.
    pub actions: u64,
    /// `ok …` response lines read back.
    pub ok_replies: u64,
    /// `err …` response lines read back.
    pub err_replies: u64,
    /// Deliberate disconnects plus connections the server dropped.
    pub disconnects: u64,
}

/// splitmix64: the chaos schedule's deterministic generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ChaosClient {
    /// A client that will attack `addr` on the schedule derived from
    /// `seed`.
    pub fn new(addr: impl Into<String>, seed: u64) -> Self {
        ChaosClient {
            addr: addr.into(),
            seed,
        }
    }

    /// Runs `actions` scheduled misbehaviors (queries target nodes
    /// `< max_node`) and reports what happened. Never panics: every
    /// connection failure is counted and retried with a fresh socket.
    pub fn run(&self, actions: usize, max_node: u32) -> ChaosReport {
        let mut state = self.seed ^ 0xC4A0_5C1E_11EB_D15E;
        let mut report = ChaosReport::default();
        let mut conn: Option<TcpStream> = None;
        for _ in 0..actions {
            report.actions += 1;
            let stream = match Self::ensure_conn(&mut conn, &self.addr) {
                Some(s) => s,
                None => {
                    report.disconnects += 1;
                    continue;
                }
            };
            let roll = splitmix64(&mut state);
            let outcome = match roll % 5 {
                0 | 1 => {
                    // Valid query — the server must answer it correctly
                    // no matter what this client did beforehand.
                    let u = (splitmix64(&mut state) % u64::from(max_node.max(1))) as u32;
                    let s = splitmix64(&mut state);
                    Self::transact(stream, format!("query {u} top=4 seed={s}\n").as_bytes())
                }
                2 => {
                    // Garbage frame with embedded NULs and non-UTF-8.
                    let junk = [
                        b'\x00', b'q', b'\xFF', b'\x00', b'u', b'e', b'\xFE', b'r', b'y', b'\n',
                    ];
                    Self::transact(stream, &junk)
                }
                3 => {
                    // Half-write then stall, then finish the line: the
                    // server must wait out the stall (within its idle
                    // budget) and still parse the whole line.
                    let u = (splitmix64(&mut state) % u64::from(max_node.max(1))) as u32;
                    let line = format!("query {u} top=2 seed=7\n");
                    let (a, b) = line.as_bytes().split_at(line.len() / 2);
                    if stream.write_all(a).is_err() {
                        Err(())
                    } else {
                        std::thread::sleep(Duration::from_millis(splitmix64(&mut state) % 50));
                        Self::transact(stream, b)
                    }
                }
                _ => {
                    // Mid-query disconnect: start a line, vanish.
                    let _ = stream.write_all(b"query 0 top=");
                    conn = None;
                    report.disconnects += 1;
                    continue;
                }
            };
            match outcome {
                Ok(reply) if reply.starts_with("ok") => report.ok_replies += 1,
                Ok(_) => report.err_replies += 1,
                Err(()) => {
                    conn = None;
                    report.disconnects += 1;
                }
            }
        }
        report
    }

    /// Connects (or reuses) the client socket with bounded timeouts.
    fn ensure_conn<'a>(conn: &'a mut Option<TcpStream>, addr: &str) -> Option<&'a mut TcpStream> {
        if conn.is_none() {
            let stream = TcpStream::connect(addr).ok()?;
            stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
            stream
                .set_write_timeout(Some(Duration::from_secs(5)))
                .ok()?;
            let _ = stream.set_nodelay(true);
            *conn = Some(stream);
        }
        conn.as_mut()
    }

    /// Writes `bytes`, reads one reply line. `Err(())` means the server
    /// dropped this connection (which for garbage is a legal outcome).
    fn transact(stream: &mut TcpStream, bytes: &[u8]) -> Result<String, ()> {
        stream.write_all(bytes).map_err(|_| ())?;
        stream.flush().map_err(|_| ())?;
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            match stream.read(&mut byte) {
                Ok(0) => return Err(()),
                Ok(_) if byte[0] == b'\n' => return Ok(String::from_utf8_lossy(&line).into_owned()),
                Ok(_) => line.push(byte[0]),
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_admits_to_limit_then_sheds_then_reopens() {
        let gate = InflightGate::new(2);
        let a = gate.try_acquire().expect("slot 1");
        let b = gate.try_acquire().expect("slot 2");
        assert_eq!(gate.in_flight(), 2);
        assert!(gate.try_acquire().is_none());
        assert_eq!(gate.shed(), 1);
        drop(a);
        let c = gate.try_acquire().expect("slot freed by drop");
        assert_eq!(gate.in_flight(), 2);
        drop(b);
        drop(c);
        assert_eq!(gate.in_flight(), 0);
    }

    #[test]
    fn gate_limit_floor_is_one() {
        let gate = InflightGate::new(0);
        assert_eq!(gate.limit(), 1);
        let p = gate.try_acquire().expect("a zero limit would deadlock");
        assert!(gate.try_acquire().is_none());
        drop(p);
    }

    #[test]
    fn decode_line_strips_cr_and_survives_garbage() {
        assert_eq!(decode_line(b"query 3\r"), "query 3");
        assert_eq!(decode_line(b""), "");
        let garbled = decode_line(&[b'q', 0xFF, 0x00, b'x']);
        assert!(garbled.contains('\u{FFFD}'));
        assert!(garbled.contains('\u{0}'));
    }
}

//! Line protocol for `prsim serve`.
//!
//! One request per line, one response line per request. Responses start
//! with `ok` or `err`. The grammar (tokens are space-separated):
//!
//! | request | response |
//! |---|---|
//! | `query U [top=K] [seed=S] [timeout=MS]` | `ok epoch=E lsn=L node=U entries=N top K v:score …` |
//! | `update + U V [- U V …]` | `ok lsn=L queued=K` (sent after fsync) |
//! | `sync` | `ok applied_lsn=L epoch=E` (barrier: durable ⇒ applied) |
//! | `stats` | `ok epoch=… applied_lsn=… …` (see [`crate::host::ServerStats::render`]) |
//! | `health` | `ok health=ok` or `ok health=degraded reason=…` |
//! | `checkpoint` | `ok checkpoint lsn=L bytes=B` |
//! | `shutdown` | `ok bye`, then the server exits |
//!
//! ## Error taxonomy
//!
//! Server-side failures render as `err retryable <msg>` (transient —
//! the same request may succeed if retried: a full applier queue, a
//! healing WAL, a shed under overload) or `err fatal <msg>` (it will
//! not: unappliable update, dead applier). Malformed requests render
//! `err fatal parse <msg>`: retrying the same bytes can never succeed,
//! and the `parse` marker lets clients and fuzzers distinguish protocol
//! garbage from a server-side failure.
//!
//! `query` is seed-deterministic: the same `U`, `seed` and engine state
//! produce the same response bytes (scores are printed with Rust's
//! shortest round-trip `f64` formatting), which is what the
//! crash-recovery CI gate compares. The default seed is derived from
//! `U` so even seedless queries are reproducible. A `timeout=MS` query
//! may stop sampling at the deadline; it then reports the estimate over
//! the samples drawn so far and appends ` degraded=true` (timed queries
//! that finish append ` degraded=false`, untimed queries append
//! nothing, keeping their response bytes stable across versions).
//!
//! Transport is stdin/stdout by default or TCP with `--listen` (the
//! server prints `listening <addr>` once the socket is bound). The TCP
//! front end is the supervised concurrent server in [`crate::conn`]: a
//! bounded worker pool where a client disconnect never tears down
//! served state, a client that stalls past the per-read deadline is
//! dropped, and excess connections or queries are shed with retryable
//! errors.

use std::fmt::Write as _;
use std::io::{self, BufRead, Write};
use std::time::Duration;

use prsim_core::QueryWorkspace;
use prsim_graph::EdgeUpdate;

use crate::conn::InflightGate;
use crate::host::EngineHost;
use crate::ServerError;

/// Default `top=` for `query` responses.
const DEFAULT_TOP: usize = 10;

/// Seed mixer for seedless queries (keeps them deterministic per node).
const DEFAULT_SEED_SALT: u64 = 0x5EED_CAFE;

/// Reply-buffer capacity a [`Session`] keeps between requests. A
/// `top=` covering every entry renders a reply of tens of kilobytes per
/// thousand entries; a session that served one gives the excess back
/// instead of holding it for the connection's lifetime.
const REPLY_KEEP_BYTES: usize = 64 << 10;

/// Why a request got no `ok` reply — enough structure to render the
/// error taxonomy: protocol-level garbage is always fatal for the
/// request, since retrying the same bytes cannot succeed.
enum Refusal {
    /// Malformed request: `err fatal parse <msg>`.
    BadRequest(String),
    /// The host failed the request: `err retryable|fatal <msg>`.
    Failed(ServerError),
}

impl Refusal {
    fn render(self, out: &mut String) {
        let _ = match self {
            Refusal::BadRequest(msg) => write!(out, "err fatal parse {msg}"),
            Refusal::Failed(e) => {
                let class = if e.retryable() { "retryable" } else { "fatal" };
                write!(out, "err {class} {e}")
            }
        };
    }
}

/// Per-connection protocol state: one query workspace and one reply
/// buffer, both reused across the connection's requests.
///
/// The workspace's dense buffers grow to the graph size on the first
/// query and are reused after that, bit-identically to a fresh
/// workspace; a connection that never queries never grows them. The
/// reply buffer is rendered in place and keeps at most 64 KiB of
/// capacity between requests.
#[derive(Debug, Default)]
pub struct Session {
    workspace: QueryWorkspace,
    reply: String,
}

impl Session {
    /// A session with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// The reply to the last request handled through
    /// [`handle_line_session`], without its line terminator (empty for
    /// a blank request line).
    pub fn reply(&self) -> &str {
        &self.reply
    }

    /// The reply with its `\n` appended, as one wire frame.
    pub(crate) fn reply_frame(&mut self) -> &[u8] {
        self.reply.push('\n');
        self.reply.as_bytes()
    }
}

/// Handles one request line; the `bool` is true when the client asked
/// the server to shut down.
pub fn handle_line(host: &EngineHost, line: &str) -> (String, bool) {
    handle_line_gated(host, line, None)
}

/// [`handle_line`] with an optional in-flight query admission gate: a
/// `query` that cannot acquire a slot is shed with
/// `err retryable overloaded …` instead of queueing unboundedly behind
/// every other client's queries. Non-query verbs never contend for the
/// gate (they are bounded by their own backpressure — the applier
/// queue — or are O(1) reads).
///
/// Runs [`handle_line_session`] on a fresh [`Session`], so its replies
/// are byte-identical to a connection's.
pub fn handle_line_gated(
    host: &EngineHost,
    line: &str,
    gate: Option<&InflightGate>,
) -> (String, bool) {
    let mut session = Session::new();
    let quit = handle_line_session(host, line, gate, &mut session);
    (session.reply, quit)
}

/// [`handle_line_gated`] against a connection's [`Session`]: the reply
/// is rendered into [`Session::reply`] and the returned `bool` is true
/// when the client asked the server to shut down. This is the one code
/// path behind every transport — the TCP workers, stdio and
/// [`handle_line`].
pub fn handle_line_session(
    host: &EngineHost,
    line: &str,
    gate: Option<&InflightGate>,
    session: &mut Session,
) -> bool {
    let out = &mut session.reply;
    out.clear();
    out.shrink_to(REPLY_KEEP_BYTES);
    let mut tokens = line.split_whitespace();
    let handled = match tokens.next() {
        None => return false, // blank line: no response
        Some("query") => match gate.map(InflightGate::try_acquire) {
            Some(None) => Err(Refusal::Failed(ServerError::Overloaded(format!(
                "query shed at {} in flight, retry later",
                gate.expect("checked above").limit()
            )))),
            // The permit (if any) is held until the reply is rendered.
            _permit => handle_query(host, tokens, &mut session.workspace, out),
        },
        Some("update") => handle_update(host, tokens, out),
        Some("sync") => host
            .sync()
            .map(|(applied_lsn, epoch)| {
                let _ = write!(out, "ok applied_lsn={applied_lsn} epoch={epoch}");
            })
            .map_err(Refusal::Failed),
        Some("stats") => {
            let _ = write!(out, "ok {}", host.stats().render());
            Ok(())
        }
        Some("health") => {
            let _ = write!(out, "ok health={}", host.health().render());
            Ok(())
        }
        Some("checkpoint") => host
            .checkpoint()
            .map(|info| {
                let _ = write!(out, "ok checkpoint lsn={} bytes={}", info.lsn, info.bytes);
            })
            .map_err(Refusal::Failed),
        Some("shutdown") => {
            out.push_str("ok bye");
            return true;
        }
        Some(other) => Err(Refusal::BadRequest(format!("unknown command {other:?}"))),
    };
    if let Err(refusal) = handled {
        out.clear();
        refusal.render(out);
    }
    false
}

/// Answers `query U [top=K] [seed=S] [timeout=MS]` into `out`.
///
/// The reply carries the `K` best entries by descending score, ties
/// broken by ascending node id, with the source itself excluded (its
/// score is trivially 1); `entries=` counts every stored entry, the
/// source included.
fn handle_query<'a>(
    host: &EngineHost,
    mut tokens: impl Iterator<Item = &'a str>,
    ws: &mut QueryWorkspace,
    out: &mut String,
) -> Result<(), Refusal> {
    let u: u32 = match tokens.next() {
        None => return Err(Refusal::BadRequest("query needs a node id".into())),
        Some(t) => t
            .parse()
            .map_err(|_| Refusal::BadRequest("query node id must be a u32".into()))?,
    };
    let mut top = DEFAULT_TOP;
    let mut seed = u64::from(u) ^ DEFAULT_SEED_SALT;
    let mut timeout = None;
    for token in tokens {
        if let Some(v) = token.strip_prefix("top=") {
            top = v
                .parse()
                .map_err(|_| Refusal::BadRequest(format!("bad top= value {v:?}")))?;
        } else if let Some(v) = token.strip_prefix("seed=") {
            seed = v
                .parse()
                .map_err(|_| Refusal::BadRequest(format!("bad seed= value {v:?}")))?;
        } else if let Some(v) = token.strip_prefix("timeout=") {
            let ms: u64 = v
                .parse()
                .map_err(|_| Refusal::BadRequest(format!("bad timeout= value {v:?}")))?;
            timeout = Some(Duration::from_millis(ms));
        } else {
            return Err(Refusal::BadRequest(format!(
                "unknown query option {token:?}"
            )));
        }
    }
    let snapshot = host.snapshot();
    let (ranked, stats) = snapshot
        .query_top_k(u, seed, timeout, top, ws)
        .map_err(|e| Refusal::Failed(ServerError::Engine(e)))?;
    let _ = write!(
        out,
        "ok epoch={} lsn={} node={u} entries={} top {}",
        snapshot.epoch(),
        snapshot.last_lsn(),
        ranked.len,
        ranked.top.len()
    );
    for (v, s) in ranked.top {
        let _ = write!(out, " {v}:{s}");
    }
    if timeout.is_some() {
        let _ = write!(out, " degraded={}", stats.degraded);
    }
    Ok(())
}

fn handle_update<'a>(
    host: &EngineHost,
    tokens: impl Iterator<Item = &'a str>,
    out: &mut String,
) -> Result<(), Refusal> {
    let tokens: Vec<&str> = tokens.collect();
    if tokens.is_empty() {
        return Err(Refusal::BadRequest(
            "update needs at least one `+ U V` or `- U V` triple".into(),
        ));
    }
    if tokens.len() % 3 != 0 {
        return Err(Refusal::BadRequest(
            "update arguments must be (op, u, v) triples".into(),
        ));
    }
    let node = |t: &str| -> Result<u32, Refusal> {
        t.parse()
            .map_err(|_| Refusal::BadRequest(format!("bad node id {t:?}")))
    };
    let mut updates = Vec::with_capacity(tokens.len() / 3);
    for triple in tokens.chunks_exact(3) {
        let (u, v) = (node(triple[1])?, node(triple[2])?);
        updates.push(match triple[0] {
            "+" => EdgeUpdate::Insert(u, v),
            "-" => EdgeUpdate::Delete(u, v),
            op => {
                return Err(Refusal::BadRequest(format!(
                    "bad update op {op:?} (want + or -)"
                )))
            }
        });
    }
    let queued = updates.len();
    let lsn = host.update(updates).map_err(Refusal::Failed)?;
    let _ = write!(out, "ok lsn={lsn} queued={queued}");
    Ok(())
}

/// Serves one request stream until EOF or `shutdown`; returns whether
/// shutdown was requested. Responses are flushed per line so interactive
/// and scripted clients both see acks promptly.
pub fn serve_stream<R: BufRead, W: Write>(
    host: &EngineHost,
    reader: R,
    writer: &mut W,
) -> io::Result<bool> {
    let mut session = Session::new();
    for line in reader.lines() {
        let line = line?;
        let quit = handle_line_session(host, &line, None, &mut session);
        if !session.reply().is_empty() {
            writer.write_all(session.reply_frame())?;
            writer.flush()?;
        }
        if quit {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Serves stdin/stdout until EOF or `shutdown`, then shuts the host
/// down cleanly.
pub fn serve_stdio(host: &EngineHost) -> io::Result<()> {
    let stdin = io::stdin();
    let mut stdout = io::stdout().lock();
    serve_stream(host, stdin.lock(), &mut stdout)?;
    host.shutdown().map_err(|e| io::Error::other(e.to_string()))
}

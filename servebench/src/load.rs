//! End-to-end load: the real `prsim serve` in its own process, driven
//! over TCP by closed-loop query clients and one writer.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::workload::{update_line, Queries, Spec, UpdateStream, Updates};

/// How long any single reply may take before it counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// How long the server may take to print `listening`.
const LISTEN_TIMEOUT: Duration = Duration::from_secs(60);
/// How long the server may take to exit after `shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);
/// Untimed closed-loop load before the measured window.
const WARMUP: Duration = Duration::from_secs(1);

/// The value of `key=` in a protocol reply.
pub fn field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply
        .split_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
}

/// The value of `key=` parsed as an integer.
pub fn field_u64(reply: &str, key: &str) -> Option<u64> {
    field(reply, key)?.parse().ok()
}

/// One blocking line-protocol connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects with Nagle off and bounded reads and writes.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request line and reads its reply line.
    pub fn call(&mut self, line: &str) -> io::Result<String> {
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.writer.write_all(&out)?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let trimmed = reply.trim_end_matches(['\n', '\r']).len();
        reply.truncate(trimmed);
        Ok(reply)
    }
}

/// How to start `prsim serve`: CLI defaults plus `--listen` and, for a
/// paged workload, `--memory-budget`.
pub struct Launch<'a> {
    /// The `prsim` binary.
    pub prsim: &'a Path,
    /// The graph file it serves.
    pub graph: &'a Path,
    /// `--memory-budget`, if any.
    pub memory_budget: Option<u64>,
}

/// A running `prsim serve`; killed on drop if still alive.
pub struct ServerProc {
    child: Child,
    addr: SocketAddr,
    stdout: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Starts the server over a fresh WAL directory and waits for its
    /// `listening` line. Returns the server and its set-up time: spawn
    /// to `listening` (graph load, engine build, WAL open, page-out).
    pub fn spawn(launch: &Launch, wal_dir: &Path, log: &Path) -> io::Result<(ServerProc, f64)> {
        let mut cmd = Command::new(launch.prsim);
        cmd.arg("serve")
            .arg(launch.graph)
            .arg("--wal")
            .arg(wal_dir)
            .args(["--listen", "127.0.0.1:0"]);
        if let Some(budget) = launch.memory_budget {
            cmd.arg("--memory-budget").arg(budget.to_string());
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(File::create(log)?));
        let start = Instant::now();
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // Drains stdout for the server's whole life, so it never blocks
        // on a full pipe.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let _ = tx.send(line);
            }
        });
        let mut server = ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout: Some(reader),
        };
        let deadline = start + LISTEN_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = rx.recv_timeout(left).map_err(|_| {
                io::Error::other(format!(
                    "prsim serve printed no `listening` line (log: {})",
                    log.display()
                ))
            })?;
            if let Some(addr) = line.strip_prefix("listening ") {
                server.addr = addr.trim().parse().map_err(|e| {
                    io::Error::other(format!("bad listening address {addr:?}: {e}"))
                })?;
                return Ok((server, start.elapsed().as_secs_f64()));
            }
        }
    }

    /// The server's TCP address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Peak resident set (`VmHWM`) so far, in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
        Ok(kb / 1024.0)
    }

    /// Sends `shutdown` and waits for a clean exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        let reply = Client::connect(self.addr)?.call("shutdown")?;
        if reply != "ok bye" {
            return Err(io::Error::other(format!("shutdown answered {reply:?}")));
        }
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            if let Some(status) = self.child.try_wait()? {
                if let Some(h) = self.stdout.take() {
                    let _ = h.join();
                }
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!(
                        "prsim serve exited with {status}"
                    )))
                };
            }
            if Instant::now() >= deadline {
                return Err(io::Error::other("prsim serve did not exit after shutdown"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

/// One query request as a client saw it.
pub struct QueryReq {
    /// Index in the seeded query stream.
    pub i: u64,
    /// When the line was sent.
    pub sent: Instant,
    /// When the reply (or the failure) arrived.
    pub done: Instant,
    /// The reply line, or the transport error.
    pub reply: Result<String, String>,
}

impl QueryReq {
    /// Whether the request got an `ok` reply.
    pub fn ok(&self) -> bool {
        self.reply.as_ref().is_ok_and(|r| r.starts_with("ok "))
    }
}

/// One update as the writer saw it.
pub struct UpdateReq {
    /// When the `update` line was sent.
    pub sent: Instant,
    /// When `ok lsn=` arrived (None: failed).
    pub acked: Option<Instant>,
    /// When a query client first received a reply with `lsn=` ≥ the
    /// acked LSN (None: never, within the reply timeout).
    pub visible: Option<Instant>,
    /// The acked LSN (0 when the update failed).
    pub lsn: u64,
}

/// The visibility probe: query clients report every reply's `lsn=`;
/// the writer waits for the first reply at or past its target.
struct Visibility {
    state: Mutex<(u64, Option<Instant>)>,
    cond: Condvar,
}

impl Visibility {
    fn new() -> Self {
        Visibility {
            state: Mutex::new((u64::MAX, None)),
            cond: Condvar::new(),
        }
    }

    fn arm(&self, target: u64) {
        *self.state.lock().expect("visibility lock") = (target, None);
    }

    fn observe(&self, lsn: u64, at: Instant) {
        let mut st = self.state.lock().expect("visibility lock");
        if lsn >= st.0 {
            st.1 = Some(st.1.map_or(at, |t| t.min(at)));
            self.cond.notify_all();
        }
    }

    fn wait(&self, timeout: Duration) -> Option<Instant> {
        let st = self.state.lock().expect("visibility lock");
        let (st, _) = self
            .cond
            .wait_timeout_while(st, timeout, |s| s.1.is_none())
            .expect("visibility lock");
        st.1
    }
}

/// Everything one end-to-end run observed.
pub struct E2e {
    /// Set-up times of every server start.
    pub setup_s: Vec<f64>,
    /// Start of the measured window.
    pub window_start: Instant,
    /// End of the measured window.
    pub window_end: Instant,
    /// Every query request, all clients, all phases.
    pub queries: Vec<QueryReq>,
    /// Every update, in order.
    pub updates: Vec<UpdateReq>,
    /// Replies whose `lsn=` was lower than an earlier one on the same
    /// connection.
    pub lsn_regressions: usize,
    /// The final `stats` reply.
    pub final_stats: String,
    /// Server `VmHWM` at the end of the run, MB.
    pub peak_rss_mb: f64,
}

/// Server starts per run; the median set-up time is reported.
pub const SETUPS: usize = 3;

/// Runs one workload end to end against `prsim serve`.
pub fn run(
    launch: &Launch,
    spec: &Spec,
    graph: &prsim_graph::DiGraph,
    seed: u64,
    seconds: Duration,
    work: &Path,
) -> io::Result<E2e> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    for k in 1..SETUPS {
        let wal = work.join(format!("wal-setup-{k}"));
        let (server, s) =
            ServerProc::spawn(launch, &wal, &work.join(format!("serve-setup-{k}.log")))?;
        setup_s.push(s);
        server.shutdown()?;
        std::fs::remove_dir_all(&wal)?;
    }
    let (server, s) = ServerProc::spawn(launch, &work.join("wal"), &work.join("serve.log"))?;
    setup_s.push(s);
    let addr = server.addr();

    let queries = Queries::new(seed, spec.n);
    let next = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let vis = Visibility::new();
    let window_start = Instant::now() + WARMUP;
    let window_end = window_start + seconds;

    let (logs, updates) = std::thread::scope(|scope| -> io::Result<_> {
        // A read-only workload keeps one client through the probe, as
        // the visibility probe; the others stop with the window.
        let clients: Vec<_> = (0..spec.query_clients)
            .map(|c| {
                let stop_at = match spec.updates {
                    Updates::Probe(_) if c > 0 => Some(window_end),
                    _ => None,
                };
                let (queries, next, stop, vis) = (&queries, &next, &stop, &vis);
                scope.spawn(move || query_client(addr, queries, next, stop, stop_at, vis))
            })
            .collect();
        sleep_until(window_start);
        let (count, think) = match spec.updates {
            Updates::Window { think } => (None, think),
            Updates::Probe(k) => {
                sleep_until(window_end);
                (Some(k), Duration::ZERO)
            }
        };
        let written = write_updates(
            addr,
            graph,
            spec.update_seed(seed),
            count,
            think,
            window_end,
            &vis,
        );
        stop.store(true, Ordering::SeqCst);
        let logs: Vec<_> = clients
            .into_iter()
            .map(|h| h.join().expect("query client panicked"))
            .collect();
        Ok((logs, written?))
    })?;

    let final_stats = Client::connect(addr)?.call("stats")?;
    let peak_rss_mb = server.peak_rss_mb()?;
    server.shutdown()?;

    let mut all = Vec::new();
    let mut lsn_regressions = 0;
    for log in logs {
        let log = log?;
        lsn_regressions += log.1;
        all.extend(log.0);
    }
    all.sort_by_key(|q| q.i);
    Ok(E2e {
        setup_s,
        window_start,
        window_end,
        queries: all,
        updates,
        lsn_regressions,
        final_stats,
        peak_rss_mb,
    })
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// A closed-loop query client: takes the next request of the shared
/// stream, waits for its reply, repeats until `stop` (or `stop_at`) or
/// the first transport failure. Returns its requests and how often
/// `lsn=` went backwards on its connection.
fn query_client(
    addr: SocketAddr,
    queries: &Queries,
    next: &AtomicU64,
    stop: &AtomicBool,
    stop_at: Option<Instant>,
    vis: &Visibility,
) -> io::Result<(Vec<QueryReq>, usize)> {
    let mut client = Client::connect(addr)?;
    let mut reqs: Vec<QueryReq> = Vec::new();
    let mut regressions = 0;
    let mut last_lsn = 0;
    while !stop.load(Ordering::SeqCst) && stop_at.is_none_or(|t| Instant::now() < t) {
        let i = next.fetch_add(1, Ordering::SeqCst);
        let line = queries.line(i);
        let sent = Instant::now();
        let reply = client.call(&line);
        let done = Instant::now();
        let failed = reply.is_err();
        if let Some(lsn) = reply.as_deref().ok().and_then(|r| field_u64(r, "lsn")) {
            if lsn < last_lsn {
                regressions += 1;
            }
            last_lsn = last_lsn.max(lsn);
            vis.observe(lsn, done);
        }
        reqs.push(QueryReq {
            i,
            sent,
            done,
            reply: reply.map_err(|e| e.to_string()),
        });
        if failed {
            break;
        }
    }
    Ok((reqs, regressions))
}

/// The writer: sends one update, waits for its durable ack, then waits
/// until a query client has received a reply reflecting it, and only
/// then — after `think` — sends the next. Sends `count` updates, or
/// (with `None`) keeps going until `until`; stops at the first failure.
fn write_updates(
    addr: SocketAddr,
    graph: &prsim_graph::DiGraph,
    seed: u64,
    count: Option<usize>,
    think: Duration,
    until: Instant,
    vis: &Visibility,
) -> io::Result<Vec<UpdateReq>> {
    let mut client = Client::connect(addr)?;
    let mut stream = UpdateStream::new(graph, seed);
    let mut out = Vec::new();
    let mut last_lsn = 0;
    loop {
        if !out.is_empty() {
            sleep_until((Instant::now() + think).min(until));
        }
        let more = match count {
            Some(k) => out.len() < k,
            None => Instant::now() < until,
        };
        if !more {
            return Ok(out);
        }
        let line = update_line(stream.next_update());
        // With one writer the next LSN is the last one plus one; arming
        // before sending catches a reply that beats the ack home.
        vis.arm(last_lsn + 1);
        let sent = Instant::now();
        let reply = client.call(&line);
        let acked = Instant::now();
        let lsn = match &reply {
            Ok(r) if r.starts_with("ok ") => field_u64(r, "lsn").unwrap_or(0),
            _ => 0,
        };
        if lsn == 0 {
            out.push(UpdateReq {
                sent,
                acked: None,
                visible: None,
                lsn,
            });
            return Ok(out);
        }
        if lsn != last_lsn + 1 {
            vis.arm(lsn);
        }
        last_lsn = lsn;
        let visible = vis.wait(REPLY_TIMEOUT);
        out.push(UpdateReq {
            sent,
            acked: Some(acked),
            visible,
            lsn,
        });
        if visible.is_none() {
            return Ok(out);
        }
    }
}

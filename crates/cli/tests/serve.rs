//! End-to-end tests of `prsim serve`: the stdio protocol round trip,
//! SIGKILL crash recovery over TCP (the CI `server-recovery` gate), and
//! torn-tail WAL repair through the real binary.
//!
//! The crash test's contract: after killing the server at an arbitrary
//! point in an update stream, a restart over the same WAL directory
//! must serve scores **bit-identical** to an uninterrupted server that
//! applied exactly the committed prefix. The committed prefix `P`
//! satisfies `acked ⊆ P ⊆ sent` (fsync happens before the ack, the kill
//! can land after a record's fsync but before its ack is read); the
//! test learns `|P|` from the recovered server's `applied_lsn`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prsim_serve_test_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Generates the shared test graph into `dir` and returns its path.
fn make_graph(dir: &Path) -> String {
    let graph = dir.join("g.bin");
    let out = Command::new(env!("CARGO_BIN_EXE_prsim"))
        .args([
            "generate",
            "chung-lu",
            "--n",
            "400",
            "--avg-degree",
            "6",
            "--gamma",
            "2.0",
            "--seed",
            "42",
            "--out",
            graph.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "generate failed: {:?}", out);
    graph.to_str().unwrap().to_string()
}

/// Engine flags shared by every server in a test (state equivalence
/// requires identical configuration).
const ENGINE_FLAGS: &[&str] = &["--eps", "0.2", "--hubs", "16", "--walk-cache", "32"];

/// Starts `prsim serve --listen 127.0.0.1:0` and returns the child plus
/// the bound address parsed from its `listening` line.
fn spawn_tcp_server(graph: &str, wal: &Path) -> (Child, String) {
    spawn_tcp_server_with(graph, wal, &[])
}

/// [`spawn_tcp_server`] with extra serve flags (chaos hooks, queue
/// bounds) appended.
fn spawn_tcp_server_with(graph: &str, wal: &Path, extra: &[&str]) -> (Child, String) {
    spawn_server(graph, wal, extra, Stdio::null())
}

/// [`spawn_tcp_server_with`] keeping the server's stderr log, which
/// `wait_with_output` collects once the server exits.
fn spawn_tcp_server_logged(graph: &str, wal: &Path, extra: &[&str]) -> (Child, String) {
    spawn_server(graph, wal, extra, Stdio::piped())
}

fn spawn_server(graph: &str, wal: &Path, extra: &[&str], stderr: Stdio) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_prsim"))
        .args(["serve", graph, "--wal", wal.to_str().unwrap()])
        .args(ENGINE_FLAGS)
        .args(["--segment-bytes", "4096", "--listen", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .expect("server spawns");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("server prints its listening line")
        .expect("readable stdout");
    let addr = banner
        .strip_prefix("listening ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();
    (child, addr)
}

struct ProtocolClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ProtocolClient {
    fn connect(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        ProtocolClient {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("request written");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("response read");
        line.trim_end().to_string()
    }

    fn request(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

/// The deterministic update stream both servers replay. Deletes target
/// likely-present low-degree pairs, inserts add fresh edges; what
/// matters is that batch `i` is identical across servers.
fn update_line(i: usize) -> String {
    let u = (i * 13 + 7) % 400;
    let v = (i * 31 + 1) % 400;
    let w = (i * 17 + 3) % 400;
    if i % 3 == 2 {
        format!("update - {u} {v} + {v} {w}")
    } else {
        format!("update + {u} {v} + {w} {u}")
    }
}

/// Query fingerprint lines with the `epoch=` field stripped: the epoch
/// counts publishes within one process (a recovered server is on epoch
/// 1), while everything else — lsn, entries and every score bit —
/// must match exactly.
fn fingerprint(client: &mut ProtocolClient) -> Vec<String> {
    (0..8u32)
        .map(|i| {
            let u = i * 47 % 400;
            let line = client.request(&format!("query {u} top=8 seed={}", 0xBEEF + u64::from(u)));
            assert!(line.starts_with("ok "), "query failed: {line}");
            line.split_whitespace()
                .filter(|t| !t.starts_with("epoch="))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

fn field(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|t| t.strip_prefix(key))
        .unwrap_or_else(|| panic!("no {key} in {line:?}"))
        .parse()
        .unwrap_or_else(|_| panic!("bad {key} in {line:?}"))
}

#[test]
fn stdio_round_trip() {
    let dir = tmpdir("stdio");
    let graph = make_graph(&dir);
    let wal = dir.join("wal");

    let mut child = Command::new(env!("CARGO_BIN_EXE_prsim"))
        .args(["serve", &graph, "--wal", wal.to_str().unwrap()])
        .args(ENGINE_FLAGS)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("server spawns");
    let mut stdin = child.stdin.take().unwrap();
    write!(
        stdin,
        "query 5 top=3 seed=7\nupdate + 1 2 - 3 4\nsync\nstats\ncheckpoint\nbogus\nshutdown\n"
    )
    .unwrap();
    drop(stdin);
    let out = child.wait_with_output().expect("server exits");
    assert!(out.status.success(), "clean exit: {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 7, "one response per request: {stdout}");
    assert!(
        lines[0].starts_with("ok epoch=1 lsn=0 node=5"),
        "{}",
        lines[0]
    );
    assert_eq!(lines[1], "ok lsn=1 queued=2");
    assert_eq!(lines[2], "ok applied_lsn=1 epoch=2");
    assert!(
        lines[3].contains("applied_lsn=1") && lines[3].contains("queue_depth=0"),
        "{}",
        lines[3]
    );
    assert_eq!(
        lines[4],
        "ok checkpoint lsn=1 bytes=".to_string() + lines[4].rsplit('=').next().unwrap()
    );
    assert!(field(lines[4], "bytes=") > 0, "{}", lines[4]);
    assert!(
        lines[5].starts_with("err fatal parse unknown command"),
        "{}",
        lines[5]
    );
    assert_eq!(lines[6], "ok bye");

    // The checkpoint must have landed in the WAL directory.
    let snaps = std::fs::read_dir(&wal)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with("ckpt-")
        })
        .count();
    assert_eq!(snaps, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigkill_recovery_is_bit_identical_to_uninterrupted_run() {
    let dir = tmpdir("sigkill");
    let graph = make_graph(&dir);
    let wal_crash = dir.join("wal_crash");

    // Phase 1: stream updates and SIGKILL the server mid-stream. The
    // first `ACKED` batches are confirmed durable; the rest are in
    // flight — sent but with unread acks — when the kill lands.
    const SENT: usize = 40;
    const ACKED: usize = 25;
    let (mut server, addr) = spawn_tcp_server(&graph, &wal_crash);
    let mut client = ProtocolClient::connect(&addr);
    for i in 0..SENT {
        client.send(&update_line(i));
        if i < ACKED {
            let ack = client.recv();
            assert_eq!(field(&ack, "lsn="), i as u64 + 1, "{ack}");
        }
    }
    server.kill().expect("SIGKILL delivered"); // Child::kill is SIGKILL on unix
    server.wait().expect("reaped");

    // Phase 2: restart over the crashed WAL. Replay must land on a
    // committed prefix P with ACKED <= P <= SENT.
    let (server, addr) = spawn_tcp_server(&graph, &wal_crash);
    let mut client = ProtocolClient::connect(&addr);
    let stats = client.request("stats");
    let committed = field(&stats, "applied_lsn=");
    assert!(
        (ACKED as u64..=SENT as u64).contains(&committed),
        "committed prefix {committed} outside [{ACKED}, {SENT}]: {stats}"
    );
    assert_eq!(field(&stats, "durable_lsn="), committed);
    assert_eq!(field(&stats, "replayed_records="), committed);
    let recovered = fingerprint(&mut client);
    assert_eq!(client.request("shutdown"), "ok bye");
    server.wait_with_output().expect("clean exit");

    // Phase 3: an uninterrupted server applies exactly the committed
    // prefix. Its responses must match the recovered server's bit for
    // bit.
    let wal_ref = dir.join("wal_ref");
    let (server, addr) = spawn_tcp_server(&graph, &wal_ref);
    let mut client = ProtocolClient::connect(&addr);
    for i in 0..committed as usize {
        let ack = client.request(&update_line(i));
        assert!(ack.starts_with("ok "), "{ack}");
    }
    let sync = client.request("sync");
    assert_eq!(field(&sync, "applied_lsn="), committed);
    let reference = fingerprint(&mut client);
    assert_eq!(client.request("shutdown"), "ok bye");
    server.wait_with_output().expect("clean exit");

    assert_eq!(
        recovered, reference,
        "crash recovery must serve bit-identical scores"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigterm_drains_to_a_bit_identical_clean_state() {
    let dir = tmpdir("sigterm");
    let graph = make_graph(&dir);
    let wal_drain = dir.join("wal_drain");

    // Phase 1: stream updates, then SIGTERM. Unlike the SIGKILL gate,
    // *everything* acked must survive: the drain finishes the committed
    // queue, writes a final checkpoint and exits 0. The drain budget is
    // sized for a loaded debug build (applying the 20 queued updates
    // there takes several seconds), so the test checks the drain's
    // outcome rather than racing its clock.
    const SENT: usize = 20;
    let (server, addr) =
        spawn_tcp_server_logged(&graph, &wal_drain, &["--drain-timeout-ms", "120000"]);
    let mut client = ProtocolClient::connect(&addr);
    for i in 0..SENT {
        let ack = client.request(&update_line(i));
        assert!(ack.starts_with("ok "), "{ack}");
    }
    drop(client);
    let status = Command::new("kill")
        .args(["-TERM", &server.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success(), "SIGTERM delivered");
    let out = server.wait_with_output().expect("reaped");
    let log = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "graceful drain must exit 0, got {:?}: {log}",
        out.status
    );
    assert!(
        log.contains(&format!("drained: final checkpoint lsn={SENT} ")),
        "the drain must report its final checkpoint: {log}"
    );

    // Phase 2: restart over the drained WAL. The final checkpoint
    // covers every acked update, so replay is empty and nothing is
    // lost.
    let (server, addr) = spawn_tcp_server(&graph, &wal_drain);
    let mut client = ProtocolClient::connect(&addr);
    let stats = client.request("stats");
    assert_eq!(field(&stats, "applied_lsn="), SENT as u64, "{stats}");
    assert_eq!(
        field(&stats, "replayed_records="),
        0,
        "drain checkpoint must cover all acked updates: {stats}"
    );
    let drained = fingerprint(&mut client);
    assert_eq!(client.request("shutdown"), "ok bye");
    server.wait_with_output().expect("clean exit");

    // Phase 3: the uninterrupted reference applies the same stream,
    // checkpoints explicitly and shuts down via the protocol — then
    // restarts. Both servers now boot from a checkpoint at the same
    // LSN, and that rebuild is deterministic, so the drained server
    // must serve the reference's exact bits.
    let wal_ref = dir.join("wal_ref");
    let (server, addr) = spawn_tcp_server(&graph, &wal_ref);
    let mut client = ProtocolClient::connect(&addr);
    for i in 0..SENT {
        let ack = client.request(&update_line(i));
        assert!(ack.starts_with("ok "), "{ack}");
    }
    let sync = client.request("sync");
    assert_eq!(field(&sync, "applied_lsn="), SENT as u64);
    let ckpt = client.request("checkpoint");
    assert_eq!(field(&ckpt, "lsn="), SENT as u64, "{ckpt}");
    assert_eq!(client.request("shutdown"), "ok bye");
    server.wait_with_output().expect("clean exit");
    let (server, addr) = spawn_tcp_server(&graph, &wal_ref);
    let mut client = ProtocolClient::connect(&addr);
    let reference = fingerprint(&mut client);
    assert_eq!(client.request("shutdown"), "ok bye");
    server.wait_with_output().expect("clean exit");

    assert_eq!(
        drained, reference,
        "a drained server must be bit-identical to an uninterrupted clean shutdown"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_clients_through_the_binary_stay_deterministic() {
    let dir = tmpdir("concurrent");
    let graph = make_graph(&dir);
    let wal = dir.join("wal");
    let (server, addr) = spawn_tcp_server_with(&graph, &wal, &["--max-clients", "8"]);

    // Settle some state, capture the sequential reference fingerprint.
    let mut c0 = ProtocolClient::connect(&addr);
    for i in 0..10 {
        let ack = c0.request(&update_line(i));
        assert!(ack.starts_with("ok "), "{ack}");
    }
    let sync = c0.request("sync");
    assert_eq!(field(&sync, "applied_lsn="), 10);
    let expected = fingerprint(&mut c0);

    // One client connects and stalls for the whole test; it must not
    // block the four concurrently querying clients.
    let staller = TcpStream::connect(&addr).expect("staller connects");
    let workers: Vec<_> = (0..4)
        .map(|_| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = ProtocolClient::connect(&addr);
                fingerprint(&mut c)
            })
        })
        .collect();
    for w in workers {
        assert_eq!(
            w.join().expect("worker finishes"),
            expected,
            "concurrent replies must be byte-identical to sequential ones"
        );
    }
    drop(staller);

    assert_eq!(c0.request("shutdown"), "ok bye");
    server.wait_with_output().expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn health_probe_busy_rejection_and_timed_queries() {
    let dir = tmpdir("busy");
    let graph = make_graph(&dir);
    let wal = dir.join("wal");

    // One batch inflight at a time, held for 600 ms, with a 50 ms busy
    // budget: the second back-to-back update must get BUSY.
    let (server, addr) = spawn_tcp_server_with(
        &graph,
        &wal,
        &[
            "--queue-depth",
            "1",
            "--applier-delay-ms",
            "600",
            "--busy-timeout-ms",
            "50",
            "--client-timeout-ms",
            "120000",
        ],
    );
    let mut client = ProtocolClient::connect(&addr);
    assert_eq!(client.request("health"), "ok health=ok");

    // Timed queries report their degradation flag; a generous budget
    // finishes the full sample.
    let timed = client.request("query 5 top=3 seed=7 timeout=60000");
    assert!(
        timed.starts_with("ok ") && timed.ends_with(" degraded=false"),
        "{timed}"
    );
    // Untimed queries keep their exact legacy shape (no flag).
    let untimed = client.request("query 5 top=3 seed=7");
    assert!(
        untimed.starts_with("ok ") && !untimed.contains("degraded"),
        "{untimed}"
    );

    assert!(
        client.request(&update_line(0)).starts_with("ok "),
        "first update admitted"
    );
    let busy = client.request(&update_line(1));
    assert!(busy.starts_with("err retryable busy"), "{busy}");
    // Overload is not an outage: health stays ok, reads keep serving,
    // and the same update succeeds once the applier drains.
    assert_eq!(client.request("health"), "ok health=ok");
    client.request("sync");
    let retried = client.request(&update_line(1));
    assert_eq!(field(&retried, "lsn="), 2, "{retried}");
    client.request("sync");
    let stats = client.request("stats");
    assert_eq!(field(&stats, "busy_rejects="), 1, "{stats}");
    assert!(field(&stats, "max_queue_bytes=") > 0, "{stats}");
    assert!(stats.contains(" health=ok"), "{stats}");
    assert_eq!(client.request("shutdown"), "ok bye");
    server.wait_with_output().expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn applier_panic_degrades_to_read_only_but_keeps_serving() {
    let dir = tmpdir("degraded");
    let graph = make_graph(&dir);
    let wal = dir.join("wal");

    let (server, addr) = spawn_tcp_server_with(&graph, &wal, &["--chaos-applier-panic-lsn", "2"]);
    let mut client = ProtocolClient::connect(&addr);
    assert!(client.request(&update_line(0)).starts_with("ok "));
    client.request("sync");
    let before = fingerprint(&mut client);

    // LSN 2 is acked durable, then its application panics.
    assert!(client.request(&update_line(1)).starts_with("ok "));
    let sync = client.request("sync");
    assert!(sync.starts_with("err fatal "), "{sync}");

    // Degraded mode: reads still serve the last published epoch, writes
    // fail fatally, health says why.
    let health = client.request("health");
    assert!(health.starts_with("ok health=degraded reason="), "{health}");
    assert_eq!(
        fingerprint(&mut client),
        before,
        "reads serve the pre-panic epoch"
    );
    let refused = client.request(&update_line(2));
    assert!(refused.starts_with("err fatal "), "{refused}");
    let stats = client.request("stats");
    assert!(stats.contains(" health=degraded"), "{stats}");
    assert_eq!(client.request("shutdown"), "ok bye");
    server
        .wait_with_output()
        .expect("degraded server still exits cleanly");

    // The acked-but-unapplied record is on the log: a restart without
    // the chaos hook applies it and reports healthy.
    let (server, addr) = spawn_tcp_server(&graph, &wal);
    let mut client = ProtocolClient::connect(&addr);
    let stats = client.request("stats");
    assert_eq!(field(&stats, "applied_lsn="), 2, "{stats}");
    assert_eq!(client.request("health"), "ok health=ok");
    assert_eq!(client.request("shutdown"), "ok bye");
    server.wait_with_output().expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigkill_under_fault_injection_recovers_exactly_the_acked_updates() {
    let dir = tmpdir("chaos_kill");
    let graph = make_graph(&dir);
    let wal_chaos = dir.join("wal_chaos");

    // Phase 1: stream updates through a fault-injecting WAL, reading
    // every ack (a failed append repairs its tail before responding, so
    // after each exchange the log is exactly the acked batches), then
    // SIGKILL the server.
    const SENT: usize = 30;
    let (mut server, addr) = spawn_tcp_server_with(&graph, &wal_chaos, &["--fault-seed", "9034"]);
    let mut client = ProtocolClient::connect(&addr);
    let mut acked: Vec<String> = Vec::new();
    for i in 0..SENT {
        let line = update_line(i);
        let resp = client.request(&line);
        if resp.starts_with("ok ") {
            assert_eq!(field(&resp, "lsn="), acked.len() as u64 + 1, "{resp}");
            acked.push(line);
        } else {
            assert!(
                resp.starts_with("err retryable "),
                "injected faults are transient: {resp}"
            );
        }
    }
    assert!(!acked.is_empty(), "some updates must survive the schedule");
    server.kill().expect("SIGKILL delivered");
    server.wait().expect("reaped");

    // Phase 2: restart on clean storage. Replay must surface exactly
    // the acked updates — an errored append never reaches the log.
    let (server, addr) = spawn_tcp_server(&graph, &wal_chaos);
    let mut client = ProtocolClient::connect(&addr);
    let stats = client.request("stats");
    assert_eq!(field(&stats, "applied_lsn="), acked.len() as u64, "{stats}");
    let recovered = fingerprint(&mut client);
    assert_eq!(client.request("shutdown"), "ok bye");
    server.wait_with_output().expect("clean exit");

    // Phase 3: a reference server fed exactly the acked updates, no
    // faults, must serve bit-identical scores.
    let wal_ref = dir.join("wal_ref");
    let (server, addr) = spawn_tcp_server(&graph, &wal_ref);
    let mut client = ProtocolClient::connect(&addr);
    for line in &acked {
        assert!(client.request(line).starts_with("ok "));
    }
    client.request("sync");
    let reference = fingerprint(&mut client);
    assert_eq!(client.request("shutdown"), "ok bye");
    server.wait_with_output().expect("clean exit");

    assert_eq!(
        recovered, reference,
        "chaos-era log replays to the acked-only state"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_tail_is_repaired_through_the_binary() {
    let dir = tmpdir("torn");
    let graph = make_graph(&dir);
    let wal = dir.join("wal");

    // Write a few batches and shut down cleanly.
    let (server, addr) = spawn_tcp_server(&graph, &wal);
    let mut client = ProtocolClient::connect(&addr);
    for i in 0..5 {
        client.request(&update_line(i));
    }
    client.request("sync");
    assert_eq!(client.request("shutdown"), "ok bye");
    server.wait_with_output().expect("clean exit");

    // Tear the log: append half a record to the newest segment.
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&wal)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("wal-"))
        .collect();
    segments.sort();
    let tail = segments.last().expect("log has segments");
    let mut bytes = std::fs::read(tail).unwrap();
    bytes.extend_from_slice(&[0x40, 0x00, 0x00, 0x00, 0xDE, 0xAD, 0xBE]);
    std::fs::write(tail, &bytes).unwrap();

    // Restart: the torn tail must be truncated away, the five committed
    // batches preserved, and the server must keep accepting updates.
    let (server, addr) = spawn_tcp_server(&graph, &wal);
    let mut client = ProtocolClient::connect(&addr);
    let stats = client.request("stats");
    assert_eq!(field(&stats, "applied_lsn="), 5, "{stats}");
    assert_eq!(field(&stats, "truncated_bytes="), 7, "{stats}");
    let ack = client.request(&update_line(5));
    assert_eq!(field(&ack, "lsn="), 6, "LSNs continue past the repair");
    assert_eq!(client.request("shutdown"), "ok bye");
    server.wait_with_output().expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigkill_recovery_is_bit_identical_with_paging_enabled() {
    let dir = tmpdir("sigkill_paged");
    let graph = make_graph(&dir);
    let wal_crash = dir.join("wal_crash");

    // Every server in this test serves out-of-core: the postings arena
    // is demoted to a page file under a hard memory budget. Small pages
    // force real paging traffic on the 400-node graph.
    const PAGED_FLAGS: &[&str] = &[
        "--memory-budget",
        "1048576",
        "--page-bytes",
        "256",
        "--page-hot",
        "4",
    ];

    // Phase 1: stream updates and SIGKILL the paged server mid-stream.
    const SENT: usize = 40;
    const ACKED: usize = 25;
    let (mut server, addr) = spawn_tcp_server_with(&graph, &wal_crash, PAGED_FLAGS);
    let mut client = ProtocolClient::connect(&addr);
    for i in 0..SENT {
        client.send(&update_line(i));
        if i < ACKED {
            let ack = client.recv();
            assert_eq!(field(&ack, "lsn="), i as u64 + 1, "{ack}");
        }
    }
    server.kill().expect("SIGKILL delivered");
    server.wait().expect("reaped");

    // Phase 2: restart paged over the crashed WAL (stale arena
    // generations from the killed process are cleaned at boot).
    let (server, addr) = spawn_tcp_server_with(&graph, &wal_crash, PAGED_FLAGS);
    let mut client = ProtocolClient::connect(&addr);
    let stats = client.request("stats");
    let committed = field(&stats, "applied_lsn=");
    assert!(
        (ACKED as u64..=SENT as u64).contains(&committed),
        "committed prefix {committed} outside [{ACKED}, {SENT}]: {stats}"
    );
    // The stats line must report the buffer pool, and the pool must
    // honor the budget.
    assert!(
        field(&stats, "paged_peak_resident_bytes=") <= 1_048_576,
        "budget overrun: {stats}"
    );
    assert_eq!(field(&stats, "page_unhealed="), 0, "{stats}");
    assert_eq!(client.request("health"), "ok health=ok");
    let recovered = fingerprint(&mut client);
    assert_eq!(client.request("shutdown"), "ok bye");
    server.wait_with_output().expect("clean exit");

    // Phase 3: an uninterrupted paged server fed exactly the committed
    // prefix must serve bit-identical scores.
    let wal_ref = dir.join("wal_ref");
    let (server, addr) = spawn_tcp_server_with(&graph, &wal_ref, PAGED_FLAGS);
    let mut client = ProtocolClient::connect(&addr);
    for i in 0..committed as usize {
        let ack = client.request(&update_line(i));
        assert!(ack.starts_with("ok "), "{ack}");
    }
    let sync = client.request("sync");
    assert_eq!(field(&sync, "applied_lsn="), committed);
    let reference = fingerprint(&mut client);
    assert_eq!(client.request("shutdown"), "ok bye");
    server.wait_with_output().expect("clean exit");

    assert_eq!(
        recovered, reference,
        "paged crash recovery must serve bit-identical scores"
    );
    std::fs::remove_dir_all(&dir).ok();
}

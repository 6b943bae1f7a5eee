//! Differential test of the served `query` reply.
//!
//! Every reply the TCP supervisor sends — a per-connection query
//! workspace reused across requests and epochs, bounded-heap top-k
//! selection, rendering into a reused buffer — must equal, byte for
//! byte, a reply assembled the long way: a fresh-workspace engine query
//! ranked by a stable full sort of its entries. Both servebench's gate
//! and the conn suite compare the served binary with
//! `protocol::handle_line`, which runs the same new code, so neither
//! can see a ranking change; this oracle can.
//!
//! Covered: resident and paged hosts (the paged budget forces
//! evictions), `timeout=`, engineered exact score ties straddling the
//! `top=` cut, `top=0`, `top=` past the entry count, `top=u64::MAX`,
//! and a workspace carried across an epoch change.

use prsim_core::{HubCount, PrsimConfig, QueryParams, SimRankScores};
use prsim_gen::{chung_lu_undirected, ChungLuConfig};
use prsim_graph::{DiGraph, GraphBuilder, NodeId};
use prsim_server::{conn, ConnOptions, EngineHost, EpochSnapshot, HostOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Chung–Lu nodes; the tie gadget's nodes follow them.
const BASE_N: u32 = 2000;
/// Out-degree of the tie gadget's fan node.
const FAN: u32 = 40;
/// The `top=` values cycled through the requests.
const TOPS: [u64; 7] = [10, 0, 3, 5000, u64::MAX, 1, 25];

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prsim_reply_diff_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A 2k-node Chung–Lu graph plus a tie gadget: a fan node `F` with an
/// edge to each of `FAN` leaves, every leaf's only in-neighbor. A query
/// from one leaf reaches every other leaf through the same `F`
/// terminals with the same arithmetic, so the siblings' scores tie
/// exactly and the `top=` cut falls inside the tied run.
fn graph() -> DiGraph {
    let base = chung_lu_undirected(ChungLuConfig::new(BASE_N as usize, 6.0, 2.0, 7));
    let fan = BASE_N;
    let mut b = GraphBuilder::new();
    b.ensure_nodes((BASE_N + 1 + FAN) as usize);
    for (u, v) in base.edges() {
        b.add_edge(u, v);
    }
    for leaf in fan + 1..=fan + FAN {
        b.add_edge(fan, leaf);
    }
    // Tie the gadget into the rest of the graph on the fan's side only,
    // so the leaves keep a single in-neighbor.
    b.add_edge(0, fan);
    b.add_edge(1, fan);
    b.build()
}

fn options() -> HostOptions {
    HostOptions::new(PrsimConfig {
        eps: 0.1,
        hubs: HubCount::Fixed(48),
        query: QueryParams::Practical { c_mult: 1.0 },
        walk_cache_budget: 32,
        build_threads: 2,
        ..Default::default()
    })
}

/// The ranking the served path used before bounded-heap selection: a
/// stable sort of every non-source entry by descending score, then
/// ascending node id, truncated to `k`.
fn full_sort_top_k(scores: &SimRankScores, k: usize) -> Vec<(NodeId, f64)> {
    let mut entries: Vec<(NodeId, f64)> = scores
        .iter()
        .filter(|&(v, _)| v != scores.source())
        .collect();
    entries.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    entries.truncate(k);
    entries
}

/// One `query` request and the reply the oracle expects for it.
struct Case {
    line: String,
    expected: String,
    /// Whether the expected ranking holds two equal adjacent scores.
    tied: bool,
}

/// Builds the request and the oracle's reply against `snap`: a fresh
/// workspace (`try_single_source`, or its deadline form for timed
/// requests), a full sort, and `format!`-per-entry rendering.
fn case(snap: &EpochSnapshot, u: NodeId, seed: u64, top: u64, timeout_ms: Option<u64>) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let engine = snap.engine();
    let (scores, stats) = match timeout_ms {
        None => engine.try_single_source(u, &mut rng),
        Some(ms) => {
            engine.try_single_source_with_deadline(u, Some(Duration::from_millis(ms)), &mut rng)
        }
    }
    .expect("oracle query");
    let ranked = full_sort_top_k(&scores, usize::try_from(top).unwrap_or(usize::MAX));
    let tied = ranked.windows(2).any(|w| w[0].1 == w[1].1);
    let mut expected = format!(
        "ok epoch={} lsn={} node={u} entries={} top {}",
        snap.epoch(),
        snap.last_lsn(),
        scores.len(),
        ranked.len()
    );
    for (v, s) in ranked {
        expected.push_str(&format!(" {v}:{s}"));
    }
    let mut line = format!("query {u} top={top} seed={seed}");
    if let Some(ms) = timeout_ms {
        line.push_str(&format!(" timeout={ms}"));
        expected.push_str(&format!(" degraded={}", stats.degraded));
    }
    Case {
        line,
        expected,
        tied,
    }
}

/// `count` request cases against the host's current snapshot: sources
/// spread over the Chung–Lu nodes with every fourth one a gadget leaf,
/// per-request seeds, `top=` cycling through [`TOPS`].
fn cases(host: &EngineHost, count: usize, salt: u64, timeout_ms: Option<u64>) -> Vec<Case> {
    let snap = host.snapshot();
    (0..count as u64)
        .map(|i| {
            let u = if i % 4 == 0 {
                BASE_N + 1 + (i as u32 / 4) % FAN
            } else {
                ((i * 7919 + salt) % u64::from(BASE_N)) as NodeId
            };
            let seed = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
            case(&snap, u, seed, TOPS[i as usize % TOPS.len()], timeout_ms)
        })
        .collect()
}

/// A client of a running `serve_supervised`.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn request(&mut self, line: &str) -> String {
        // One write per request: a line split over two segments waits
        // out Nagle plus the server's delayed ACK on every request.
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("request written");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reply read");
        reply.trim_end().to_string()
    }

    /// Sends every case on this one connection and checks each reply.
    fn check(&mut self, cases: &[Case], what: &str) {
        for c in cases {
            assert_eq!(
                self.request(&c.line),
                c.expected,
                "{what}: served reply differs from the oracle for {:?}",
                c.line
            );
        }
    }
}

/// Serves `host` over TCP for the duration of `body`, which gets one
/// connected client — one connection, hence one reused workspace.
fn with_served_client(host: &EngineHost, body: impl FnOnce(&mut Client)) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server =
            scope.spawn(|| conn::serve_supervised(host, listener, &ConnOptions::default(), &stop));
        let stream = TcpStream::connect(addr).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        stream.set_nodelay(true).unwrap();
        let mut client = Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        };
        // A failed check must still stop the server, or the scope
        // would wait on it forever instead of reporting the failure.
        let checked = panic::catch_unwind(AssertUnwindSafe(|| body(&mut client)));
        drop(client);
        stop.store(true, Ordering::SeqCst);
        server.join().expect("supervisor").expect("served");
        if let Err(failure) = checked {
            panic::resume_unwind(failure);
        }
    });
}

#[test]
fn resident_replies_match_the_full_sort_oracle_across_epochs() {
    let g = graph();
    let dir = tmpdir("resident");
    let host = EngineHost::open(&g, &dir, options()).unwrap();
    let boot = cases(&host, 240, 1, None);
    let timed = cases(&host, 30, 2, Some(60_000));
    assert!(
        boot.iter().any(|c| c.tied),
        "the tie gadget must produce tied scores inside a reply"
    );
    assert!(timed
        .iter()
        .all(|c| c.expected.ends_with(" degraded=false")));
    with_served_client(&host, |client| {
        client.check(&boot, "boot epoch");
        client.check(&timed, "timeout=");
        // A new epoch, served on the same connection: the workspace
        // sized by the boot epoch must answer it like a fresh one.
        let ack = client.request("update + 5 9 - 0 2000");
        assert!(ack.starts_with("ok lsn=1 "), "{ack}");
        assert!(client.request("sync").starts_with("ok applied_lsn=1 "));
        let next = cases(&host, 60, 3, None);
        assert!(next[0].expected.starts_with("ok epoch=2 lsn=1 "));
        client.check(&next, "second epoch");
    });
    host.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn paged_replies_match_the_full_sort_oracle_under_evictions() {
    let g = graph();
    let dir = tmpdir("paged");
    let mut opts = options();
    opts.memory_budget = Some(96 << 10);
    opts.page_bytes = 256;
    opts.page_hot_ranks = 0;
    let host = EngineHost::open(&g, &dir, opts).unwrap();
    let before = host.stats().paging.expect("paged host").evictions;
    let paged = cases(&host, 90, 4, None);
    with_served_client(&host, |client| client.check(&paged, "paged"));
    let after = host.stats().paging.expect("paged host").evictions;
    assert!(
        after > before,
        "the budget must force evictions while serving ({before} -> {after})"
    );
    host.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn degenerate_top_values_answer_normally() {
    let g = graph();
    let dir = tmpdir("degenerate");
    let host = EngineHost::open(&g, &dir, options()).unwrap();
    let snap = host.snapshot();
    let all = case(&snap, 17, 5, u64::MAX, None);
    let entries: usize = all.expected["ok ".len()..]
        .split(' ')
        .find_map(|t| t.strip_prefix("entries="))
        .and_then(|v| v.parse().ok())
        .expect("entries= field");
    with_served_client(&host, |client| {
        // `top=u64::MAX` ranks every entry but the source.
        let reply = client.request(&all.line);
        assert_eq!(reply, all.expected);
        assert!(reply.contains(&format!(" top {} ", entries - 1)));
        let none = case(&snap, 17, 5, 0, None);
        let reply = client.request(&none.line);
        assert_eq!(reply, none.expected);
        assert!(reply.ends_with(" top 0"), "{reply}");
        // Past the entry count, the reply is the same as for u64::MAX.
        let past = case(&snap, 17, 5, entries as u64 + 7, None);
        assert_eq!(client.request(&past.line), all.expected);
    });
    host.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

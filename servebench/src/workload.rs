//! Workload definitions and the seeded request streams they replay.
//!
//! Every input is a pure function of the workload's graph seed and the
//! benchmark's `--seed`: the graph, the `i`-th query line, and the
//! update stream. The end-to-end run and the traced replay regenerate
//! the same streams independently, so neither has to ship requests to
//! the other.

use std::collections::HashSet;
use std::path::Path;
use std::time::Duration;

use prsim_gen::{chung_lu_undirected, ChungLuConfig};
use prsim_graph::{DiGraph, EdgeUpdate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Average degree of every benchmark graph.
const AVG_DEGREE: f64 = 8.0;
/// Power-law exponent of every benchmark graph.
const GAMMA: f64 = 2.0;
/// `top=` of every query line.
const TOP: usize = 10;

/// When the writer sends updates.
#[derive(Clone, Copy, Debug)]
pub enum Updates {
    /// Closed-loop updates for the whole measured window, competing
    /// with the queries, with `think` between one update turning
    /// visible and the next being sent.
    Window {
        /// The writer's pause after each visible update.
        think: Duration,
    },
    /// A fixed number of updates after the read-only window, with one
    /// query client still running as the visibility probe.
    Probe(usize),
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Node count of the Chung-Lu graph.
    pub n: usize,
    /// Seed of the Chung-Lu graph.
    pub graph_seed: u64,
    /// `prsim serve --memory-budget`, when the arena is paged.
    pub memory_budget: Option<u64>,
    /// Closed-loop query clients.
    pub query_clients: usize,
    /// The update schedule.
    pub updates: Updates,
}

/// Updates a read-only workload sends after its window, so that its
/// update-path metrics exist too.
const PROBE_UPDATES: usize = 32;

/// The benchmark's workloads.
const SPECS: &[Spec] = &[
    Spec {
        name: "query_resident",
        n: 100_000,
        graph_seed: 44,
        memory_budget: None,
        query_clients: 2,
        updates: Updates::Probe(PROBE_UPDATES),
    },
    Spec {
        name: "query_paged",
        n: 100_000,
        graph_seed: 44,
        memory_budget: Some(7_500_000),
        query_clients: 2,
        updates: Updates::Probe(PROBE_UPDATES),
    },
    Spec {
        name: "mixed_updates",
        n: 20_000,
        graph_seed: 43,
        memory_budget: None,
        query_clients: 1,
        // Without a pause the applier is busy all the time, and about
        // half the queries overlap its multi-threaded hub repair: the
        // query median then sits on the cliff between the fast and the
        // slow mode and jumps between them from run to run. A 100 ms
        // pause (a third of each update cycle) keeps it in the fast one.
        updates: Updates::Window {
            think: Duration::from_millis(100),
        },
    },
];

/// Seed of the probe's update stream. The probe is a fixed yardstick:
/// its 32 updates are too few to average out which edges a seed picks
/// (across seeds that choice alone doubled the run-to-run spread of the
/// probe's freshness median), so it replays the same stream whatever
/// `--seed` is; the queries around it still follow `--seed`.
const PROBE_STREAM_SEED: u64 = 0;

impl Spec {
    /// Seed of this workload's update stream under `--seed seed`.
    pub fn update_seed(&self, seed: u64) -> u64 {
        match self.updates {
            Updates::Window { .. } => seed,
            Updates::Probe(_) => PROBE_STREAM_SEED,
        }
    }
}

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// Generates the workload's graph and writes it in the binary format
/// `prsim serve` reads.
pub fn write_graph(n: usize, graph_seed: u64, path: &Path) -> std::io::Result<()> {
    let g = chung_lu_undirected(ChungLuConfig::new(n, AVG_DEGREE, GAMMA, graph_seed));
    prsim_graph::io::write_binary_file(&g, path).map_err(|e| std::io::Error::other(e.to_string()))
}

/// splitmix64 finalizer over `x + golden`: a bijection, so distinct
/// inputs give distinct outputs.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded query stream: request `i` is a uniformly random source
/// with its own `seed=` (distinct across `i`).
#[derive(Clone, Copy, Debug)]
pub struct Queries {
    base: u64,
    n: u64,
}

impl Queries {
    /// The stream of `--seed seed` over an `n`-node graph.
    pub fn new(seed: u64, n: usize) -> Self {
        Queries {
            base: splitmix64(seed ^ 0x51E5_C0DE),
            n: n as u64,
        }
    }

    /// Source node and engine seed of request `i`.
    pub fn request(&self, i: u64) -> (u32, u64) {
        let x = self.base.wrapping_add(i.wrapping_mul(2));
        let u = (splitmix64(x) % self.n) as u32;
        (u, splitmix64(x.wrapping_add(1)))
    }

    /// Protocol line of request `i`.
    pub fn line(&self, i: u64) -> String {
        let (u, s) = self.request(i);
        format!("query {u} top={TOP} seed={s}")
    }
}

/// The seeded update stream: single-edge updates alternating between
/// deleting a live edge and inserting an absent one, so every update
/// changes the graph.
pub struct UpdateStream {
    rng: StdRng,
    n: u32,
    live: Vec<(u32, u32)>,
    present: HashSet<(u32, u32)>,
    delete_next: bool,
}

impl UpdateStream {
    /// The stream of `--seed seed` starting from graph `g`.
    pub fn new(g: &DiGraph, seed: u64) -> Self {
        let live: Vec<(u32, u32)> = g.edges().collect();
        let present = live.iter().copied().collect();
        UpdateStream {
            rng: StdRng::seed_from_u64(splitmix64(seed ^ 0xED6E_5EED)),
            n: g.node_count() as u32,
            live,
            present,
            delete_next: true,
        }
    }

    /// The next update.
    pub fn next_update(&mut self) -> EdgeUpdate {
        let delete = self.delete_next;
        self.delete_next = !delete;
        if delete {
            let k = self.rng.gen_range(0..self.live.len());
            let (u, v) = self.live.swap_remove(k);
            self.present.remove(&(u, v));
            EdgeUpdate::Delete(u, v)
        } else {
            loop {
                let u = self.rng.gen_range(0..self.n);
                let v = self.rng.gen_range(0..self.n);
                if u != v && self.present.insert((u, v)) {
                    self.live.push((u, v));
                    return EdgeUpdate::Insert(u, v);
                }
            }
        }
    }

    /// The first `count` updates of the stream of `--seed seed`.
    pub fn prefix(g: &DiGraph, seed: u64, count: usize) -> Vec<EdgeUpdate> {
        let mut stream = UpdateStream::new(g, seed);
        (0..count).map(|_| stream.next_update()).collect()
    }
}

/// Protocol line of one update.
pub fn update_line(update: EdgeUpdate) -> String {
    match update {
        EdgeUpdate::Insert(u, v) => format!("update + {u} {v}"),
        EdgeUpdate::Delete(u, v) => format!("update - {u} {v}"),
    }
}

//! Property tests for [`PrsimIndex`] serialization: round trips of the
//! flat postings arena (both reserve precisions) over arbitrary graphs,
//! and byte-level corruption — including targeted offset-table attacks —
//! handled without panics or attacker-sized allocations.

use proptest::prelude::*;
use prsim_core::pagerank::{rank_by_pagerank, reverse_pagerank};
use prsim_core::{PrsimIndex, ReservePrecision};
use prsim_graph::ordering::sort_out_by_in_degree;
use prsim_graph::{DiGraph, GraphBuilder, NodeId};

const SQRT_C: f64 = 0.774_596_669_241_483_4;

/// Random simple graphs over up to 30 nodes (the builder dedups).
fn arb_graph() -> impl Strategy<Value = DiGraph> {
    (2usize..30).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..120).prop_map(move |es| {
            let mut b = GraphBuilder::new();
            b.ensure_nodes(n);
            for (u, v) in es {
                b.add_edge(u, v);
            }
            let mut g = b.build();
            sort_out_by_in_degree(&mut g);
            g
        })
    })
}

fn arb_precision() -> impl Strategy<Value = ReservePrecision> {
    (0u8..2).prop_map(|wide| {
        if wide == 0 {
            ReservePrecision::F64
        } else {
            ReservePrecision::F32
        }
    })
}

fn build_index(g: &DiGraph, j0: usize, precision: ReservePrecision) -> PrsimIndex {
    let pi = reverse_pagerank(g, SQRT_C, 1e-10, 64);
    let hubs: Vec<NodeId> = rank_by_pagerank(&pi)
        .into_iter()
        .take(j0.min(g.node_count()))
        .collect();
    PrsimIndex::build_with(g, hubs, SQRT_C, 1e-3, 64, 1, precision)
}

/// Structural invariants query code relies on: whatever `from_bytes`
/// accepts must be safe to scan.
fn assert_structurally_valid(parsed: &PrsimIndex, n: usize) -> Result<(), String> {
    let check = |ok: bool, what: &str| {
        if ok {
            Ok(())
        } else {
            Err(format!("accepted index violates: {what}"))
        }
    };
    check(parsed.hub_count() <= n, "hub count <= n")?;
    for &h in parsed.hubs() {
        check((h as usize) < n, "hub id in range")?;
        check(parsed.contains(h), "hub_pos consistent")?;
    }
    for rank in 0..parsed.hub_count() {
        let w = parsed.hubs()[rank];
        let mut level = 0usize;
        while let Some(postings) = parsed.postings(w, level) {
            for (v, psi) in postings.iter() {
                check((v as usize) < n, "posting node in range")?;
                check(psi.is_finite() && psi >= 0.0, "posting reserve sane")?;
            }
            level += 1;
            if level > 128 {
                break;
            }
        }
    }
    Ok(())
}

/// Byte position where the serialized offset table starts (see the
/// format doc in `index.rs`): magic(8) + flags(4) + j0(8) + hubs(4·j0) +
/// level_counts(4·j0).
fn offsets_at(idx: &PrsimIndex) -> usize {
    8 + 4 + 8 + 8 * idx.hub_count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// to_bytes/from_bytes is the identity for arenas over arbitrary
    /// graphs, hub counts (including 0 and n) and both precisions.
    #[test]
    fn index_round_trips(g in arb_graph(), j0 in 0usize..30, p in arb_precision()) {
        let idx = build_index(&g, j0, p);
        let bytes = idx.to_bytes();
        let back = PrsimIndex::from_bytes(&bytes, g.node_count())
            .map_err(|e| format!("round trip rejected: {e}"))?;
        prop_assert_eq!(&idx, &back);
        prop_assert_eq!(idx.precision(), back.precision());
        prop_assert_eq!(idx.entry_count(), back.entry_count());
    }

    /// Random single-byte corruption must never panic, and whatever
    /// `from_bytes` accepts must still be a structurally valid index for
    /// the graph (validation is what protects query code from reading
    /// out of range).
    #[test]
    fn index_corruption_never_panics(g in arb_graph(), j0 in 1usize..20,
                                     p in arb_precision(),
                                     pos in 0usize..1 << 16, mask in 1u8..255) {
        let idx = build_index(&g, j0, p);
        let mut bytes = idx.to_bytes().to_vec();
        let at = pos % bytes.len();
        bytes[at] ^= mask;
        if let Ok(parsed) = PrsimIndex::from_bytes(&bytes, g.node_count()) {
            // Accepted despite the flip (e.g. a ψ mantissa bit): every
            // invariant queries rely on must still hold.
            assert_structurally_valid(&parsed, g.node_count())?;
        }
    }

    /// Targeted offset-table corruption: overwriting any offset slot with
    /// an arbitrary value must either be rejected (non-monotone table,
    /// postings overrun) or still parse into a structurally valid index —
    /// never a panic, never an allocation beyond the payload.
    #[test]
    fn offset_table_corruption_is_contained(g in arb_graph(), j0 in 1usize..20,
                                            slot_raw in 0usize..4096,
                                            value in 0u32..u32::MAX) {
        let idx = build_index(&g, j0, ReservePrecision::F64);
        let mut bytes = idx.to_bytes().to_vec();
        let start = offsets_at(&idx);
        // The table has one u32 per stored level plus one.
        let slots = idx.stats().level_slots + 1;
        let at = start + (slot_raw % slots) * 4;
        bytes[at..at + 4].copy_from_slice(&value.to_le_bytes());
        if let Ok(parsed) = PrsimIndex::from_bytes(&bytes, g.node_count()) {
            assert_structurally_valid(&parsed, g.node_count())?;
        }
    }

    /// A decreasing offset pair is always rejected as non-monotone.
    #[test]
    fn non_monotone_offsets_always_rejected(g in arb_graph(), j0 in 1usize..20) {
        let idx = build_index(&g, j0, ReservePrecision::F64);
        prop_assume!(idx.entry_count() > 0);
        let mut bytes = idx.to_bytes().to_vec();
        let start = offsets_at(&idx);
        // Force offsets[1] above the grand total: some later offset must
        // then decrease (the table ends at entry_count), so parsing has
        // to reject — it must never mis-slice the arena.
        let poison = idx.entry_count() as u32 + 1;
        bytes[start + 4..start + 8].copy_from_slice(&poison.to_le_bytes());
        prop_assert!(PrsimIndex::from_bytes(&bytes, g.node_count()).is_err());
    }

    /// Every truncation of a valid payload is rejected with an error.
    #[test]
    fn index_truncation_always_rejected(g in arb_graph(), j0 in 1usize..20,
                                        p in arb_precision(), cut_frac in 0.0f64..1.0) {
        let idx = build_index(&g, j0, p);
        let bytes = idx.to_bytes();
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(
            PrsimIndex::from_bytes(&bytes[..cut], g.node_count()).is_err(),
            "truncation at {} of {} accepted", cut, bytes.len()
        );
    }

    /// A hub count claiming more hubs than `n` (the oversized-allocation
    /// vector) is rejected before any allocation proportional to it.
    #[test]
    fn index_rejects_oversized_hub_counts(g in arb_graph(), claim in 0u64..u64::MAX) {
        let idx = build_index(&g, 2, ReservePrecision::F64);
        let mut bytes = idx.to_bytes().to_vec();
        let n = g.node_count() as u64;
        prop_assume!(claim > n);
        bytes[12..20].copy_from_slice(&claim.to_le_bytes());
        prop_assert!(PrsimIndex::from_bytes(&bytes, g.node_count()).is_err());
    }

    /// Level counts claiming an offset table (and hence postings) far
    /// beyond the payload are rejected before the table is allocated.
    #[test]
    fn index_rejects_oversized_level_counts(g in arb_graph(), claim in 1u32..u32::MAX) {
        let idx = build_index(&g, 2, ReservePrecision::F64);
        prop_assume!(idx.hub_count() >= 1);
        let mut bytes = idx.to_bytes().to_vec();
        // First level-count slot sits right after the hub table.
        let at = 8 + 4 + 8 + 4 * idx.hub_count();
        prop_assume!(claim as usize > (bytes.len() - at) / 4);
        bytes[at..at + 4].copy_from_slice(&claim.to_le_bytes());
        prop_assert!(PrsimIndex::from_bytes(&bytes, g.node_count()).is_err());
    }
}

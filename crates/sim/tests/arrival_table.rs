//! Property tests on [`ArrivalTable`] as a container and on the lossy
//! playback analysis: the flat storage against a nested model, and the
//! buffer high-water mark with gaps against a slot-by-slot oracle, on
//! rows both denser and sparser than the split between the analysis's
//! counting and sorting arms.

use clustream_core::{NodeId, PacketId, Slot};
use clustream_sim::ArrivalTable;
use proptest::prelude::*;

const NODES: usize = 4;
const TRACK: u64 = 6;

/// `(node, packet, usable slot)` with some packets past the tracked
/// window.
fn records() -> impl Strategy<Value = Vec<(u32, u64, u64)>> {
    proptest::collection::vec((0..NODES as u32, 0..TRACK + 3, 0u64..50), 0..60)
}

fn fill(records: &[(u32, u64, u64)]) -> ArrivalTable {
    let mut t = ArrivalTable::new(NODES, TRACK);
    for &(n, p, u) in records {
        t.record(NodeId(n), PacketId(p), Slot(u));
    }
    t
}

/// Slot-by-slot occupancy with playback starting at `a`, missing
/// packets concealed.
fn reference_lossy_buffer(usables: &[Option<u64>], a: u64) -> usize {
    let last = usables.iter().flatten().max().copied().unwrap_or(0);
    (0..=last)
        .map(|t| {
            usables
                .iter()
                .enumerate()
                .filter(|&(j, u)| {
                    // Received by slot t, not played strictly before it.
                    u.is_some_and(|u| u.saturating_sub(1) <= t) && j as u64 + a >= t
                })
                .count()
        })
        .max()
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// First arrival wins, untracked packets vanish, completeness is
    /// per row, and two tables are equal iff their contents are —
    /// whatever order the cells were filled in.
    #[test]
    fn flat_table_matches_nested_model(recs in records(), flip in 0usize..60) {
        let mut model = vec![vec![None::<u64>; TRACK as usize]; NODES];
        for &(n, p, u) in &recs {
            if let Some(cell) = model[n as usize].get_mut(p as usize) {
                cell.get_or_insert(u);
            }
        }
        let t = fill(&recs);
        for (n, row) in model.iter().enumerate() {
            let node = NodeId(n as u32);
            for p in 0..TRACK + 3 {
                let want = row.get(p as usize).copied().flatten().map(Slot);
                prop_assert_eq!(t.usable_slot(node, PacketId(p)), want);
            }
            prop_assert_eq!(t.complete_for(node), row.iter().all(Option::is_some));
        }

        // The same first arrivals recorded in another order.
        let mut firsts: Vec<(u32, u64, u64)> = Vec::new();
        for (n, row) in model.iter().enumerate() {
            for (p, u) in row.iter().enumerate() {
                firsts.extend(u.map(|u| (n as u32, p as u64, u)));
            }
        }
        firsts.reverse();
        prop_assert_eq!(&fill(&firsts), &t);
        // One cell different: not equal.
        let len = firsts.len();
        if let Some(cell) = firsts.get_mut(flip % len.max(1)) {
            cell.2 += 1;
            prop_assert_ne!(&fill(&firsts), &t);
        }
    }

    /// `analyze_lossy` against the oracle, with gaps, on clustered rows
    /// (the counting arm) and on rows with a far straggler (the sorting
    /// arm); on a gap-free row `analyze` agrees.
    #[test]
    fn lossy_buffer_matches_reference(
        row in proptest::collection::vec((0u64..40, 0u8..4), 1..20),
        straggler in 0u64..400,
    ) {
        let mut usables: Vec<Option<u64>> =
            row.iter().map(|&(u, keep)| (keep > 0).then_some(u)).collect();
        if straggler >= 100 {
            usables[0] = Some(straggler);
        }
        let mut t = ArrivalTable::new(1, usables.len() as u64);
        for (j, u) in usables.iter().enumerate() {
            if let Some(u) = u {
                t.record(NodeId(0), PacketId(j as u64), Slot(*u));
            }
        }
        let l = t.analyze_lossy(NodeId(0));
        let a = usables
            .iter()
            .enumerate()
            .filter_map(|(j, u)| u.map(|u| u.saturating_sub(j as u64)))
            .max()
            .unwrap_or(0);
        prop_assert_eq!(l.missing, usables.iter().filter(|u| u.is_none()).count());
        prop_assert_eq!(l.playback_delay, a);
        prop_assert_eq!(l.max_buffer, reference_lossy_buffer(&usables, a));
        if l.missing == 0 {
            let full = t.analyze(NodeId(0)).unwrap();
            prop_assert_eq!((full.playback_delay, full.max_buffer), (a, l.max_buffer));
        }
    }
}

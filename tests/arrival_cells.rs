//! The arrival table's 32-bit cells hold `usable slot + 1` up to slot
//! `u32::MAX − 2` and spill later slots to a side list. Nothing outside
//! the table may tell: every accessor and analysis agrees with a plain
//! `Vec<Option<u64>>` model on slots drawn from both sides of the cell
//! boundary, and the mega engine's steady gears still engage — and still
//! match the fast engine — when the horizon itself is past 2³².

use clustream::prelude::*;
use proptest::prelude::*;

const NODES: usize = 3;
const TRACK: u64 = 7;

/// A usable slot: small, around the cell boundary 2³² − 2, or far past it.
fn slot(kind: u8, x: u64) -> u64 {
    match kind % 5 {
        0 | 1 => x % 64,
        2 => (1u64 << 32) - 3 + x % 5,
        3 => 1 << 40,
        _ => u64::MAX - 1,
    }
}

/// `(node, packet, kind, x)`: some packets past the tracked window.
fn records() -> impl Strategy<Value = Vec<(u32, u64, u8, u64)>> {
    proptest::collection::vec(
        (0..NODES as u32, 0..TRACK + 2, any::<u8>(), any::<u64>()),
        0..40,
    )
}

fn fill(recs: &[(u32, u64, u64)]) -> ArrivalTable {
    let mut t = ArrivalTable::new(NODES, TRACK);
    for &(n, p, u) in recs {
        t.record(NodeId(n), PacketId(p), Slot(u));
    }
    t
}

/// `max_j (usable(j) − j)` over the arrived packets.
fn delay_of(row: &[Option<u64>]) -> u64 {
    row.iter()
        .enumerate()
        .filter_map(|(j, u)| u.map(|u| u.saturating_sub(j as u64)))
        .max()
        .unwrap_or(0)
}

/// Buffer peak with playback from `a`: packets received by slot `t`
/// (usable − 1) and not played before it (`j + a ≥ t`), maximised over
/// the receive slots — between two of them the count only falls.
fn buffer_of(row: &[Option<u64>], a: u64) -> usize {
    let recv: Vec<(usize, u64)> = row
        .iter()
        .enumerate()
        .filter_map(|(j, u)| u.map(|u| (j, u.saturating_sub(1))))
        .collect();
    recv.iter()
        .map(|&(_, t)| {
            recv.iter()
                .filter(|&&(j, r)| r <= t && (j as u64).saturating_add(a) >= t)
                .count()
        })
        .max()
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn narrow_cells_match_the_wide_model(recs in records(), flip in any::<usize>()) {
        let recs: Vec<(u32, u64, u64)> =
            recs.iter().map(|&(n, p, k, x)| (n, p, slot(k, x))).collect();
        let mut model = vec![vec![None::<u64>; TRACK as usize]; NODES];
        for &(n, p, u) in &recs {
            if let Some(cell) = model[n as usize].get_mut(p as usize) {
                cell.get_or_insert(u);
            }
        }
        let t = fill(&recs);
        for (n, row) in model.iter().enumerate() {
            let node = NodeId(n as u32);
            for p in 0..TRACK + 2 {
                let want = row.get(p as usize).copied().flatten().map(Slot);
                prop_assert_eq!(t.usable_slot(node, PacketId(p)), want);
            }
            prop_assert_eq!(t.complete_for(node), row.iter().all(Option::is_some));

            let a = delay_of(row);
            let l = t.analyze_lossy(node);
            prop_assert_eq!(l.missing, row.iter().filter(|u| u.is_none()).count());
            prop_assert_eq!(l.playback_delay, a);
            prop_assert_eq!(l.max_buffer, buffer_of(row, a));
            match row.iter().position(Option::is_none) {
                Some(j) => prop_assert!(matches!(
                    t.analyze(node),
                    Err(CoreError::Hiccup { packet, .. }) if packet == PacketId(j as u64)
                )),
                None => {
                    let full = t.analyze(node).unwrap();
                    prop_assert_eq!((full.playback_delay, full.max_buffer), (a, l.max_buffer));
                }
            }

            let steady = row.iter().all(Option::is_some) && {
                let half = &row[..row.len() / 2];
                delay_of(half) == a
            };
            prop_assert_eq!(t.steady_state_for(node), steady);
        }

        // The same first arrivals recorded in another order: equal.
        let mut firsts: Vec<(u32, u64, u64)> = Vec::new();
        for (n, row) in model.iter().enumerate() {
            for (p, u) in row.iter().enumerate() {
                firsts.extend(u.map(|u| (n as u32, p as u64, u)));
            }
        }
        firsts.reverse();
        prop_assert_eq!(&fill(&firsts), &t);
        // One first arrival moved, across the cell boundary or not: not
        // equal.
        let len = firsts.len();
        if let Some(cell) = firsts.get_mut(flip % len.max(1)) {
            cell.2 = if cell.2 < 64 { cell.2 + (1 << 32) } else { cell.2 - 1 };
            prop_assert_ne!(&fill(&firsts), &t);
        }
    }
}

/// The horizon does not pick the engine's gears: at `max_slots = 2³³`
/// the mega engine still lowers multitree N = 1000 into its steady
/// table and returns exactly what the fast engine does.
#[test]
fn a_horizon_past_two_to_the_32_keeps_the_steady_gears() {
    let scheme = || MultiTreeScheme::new(greedy_forest(1000, 3).unwrap(), StreamMode::PreRecorded);
    let cfg = SimConfig::until_complete(256, 1 << 33);
    let want = FastSimulator::run(&mut scheme(), &cfg).unwrap();
    let mut mega = MegaEngine::new();
    let got = mega.run(&mut scheme(), &cfg).unwrap();
    assert!(mega.steady_slots() > 0, "the steady table never ran");
    assert_eq!(diff_fields(&want, &got), Vec::<&str>::new());
    assert_eq!(want, got);
}

//! The arrival table's cells hold one byte of lateness `usable − packet`,
//! and a row whose first arrival no byte holds is widened to 64-bit
//! slots. Nothing outside the table may tell: every accessor and analysis
//! agrees with a plain `Vec<Option<u64>>` model on slots from small to
//! past 2³² and on lateness drawn from both sides of each edge of a byte,
//! equality ignores the order rows widened in, and the mega engine's
//! steady gears still engage — and still match the plain kernel loop
//! (`sim::fast`) — when the horizon itself is past 2³² and when the rows
//! they write are wide.

use clustream::prelude::*;
use clustream::sim::FastSimulator;
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

/// The table's bias: a byte holds lateness `usable − packet` from
/// `−BIAS` through `253 − BIAS`, and a row widens on any other.
const BIAS: i64 = 64;

/// Enough packets for lateness `−BIAS − 1` to be a real slot.
const WIDE_TRACK: u64 = 80;

/// A lateness on one side or the other of a byte's edges, or anywhere
/// between them.
fn lateness(kind: u8, x: i64) -> i64 {
    match kind % 4 {
        0 => -BIAS - 1 + x.rem_euclid(3),
        1 => 252 - BIAS + x.rem_euclid(4),
        _ => (-BIAS - 1) + x.rem_euclid(256 + 1),
    }
}

/// `(node, packet, kind, x)`: some packets past the tracked window.
fn late_records() -> impl Strategy<Value = Vec<(u32, u64, u8, i64)>> {
    proptest::collection::vec(
        (
            0..NODES as u32,
            0..WIDE_TRACK + 2,
            any::<u8>(),
            any::<i64>(),
        ),
        0..120,
    )
}

/// `(node, packet, usable)` first arrivals at every lateness between
/// `−BIAS − 1` and `255 − BIAS`; packets too early to have a slot at
/// their lateness are dropped.
fn at_lateness(recs: &[(u32, u64, u8, i64)]) -> Vec<(u32, u64, u64)> {
    recs.iter()
        .filter_map(|&(n, p, kind, x)| {
            let usable = p as i64 + lateness(kind, x);
            (usable >= 0).then_some((n, p, usable as u64))
        })
        .collect()
}

fn fill_wide(recs: &[(u32, u64, u64)]) -> ArrivalTable {
    let mut t = ArrivalTable::new(NODES, WIDE_TRACK);
    for &(n, p, u) in recs {
        t.record(NodeId(n), PacketId(p), Slot(u));
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Narrow records first, then records at any lateness: a row that
    /// widens carries its bytes over, and every accessor, the analysis
    /// and equality agree with the model — whatever order the rows
    /// widened in.
    #[test]
    fn rows_widen_past_a_byte_of_lateness(
        narrow in late_records(),
        late in late_records(),
        flip in any::<usize>(),
    ) {
        let fits = |&(_, p, u): &(u32, u64, u64)| {
            (-BIAS..=253 - BIAS).contains(&(u as i64 - p as i64))
        };
        let recs: Vec<_> = at_lateness(&narrow)
            .into_iter()
            .filter(fits)
            .chain(at_lateness(&late))
            .collect();
        let mut model = vec![vec![None::<u64>; WIDE_TRACK as usize]; NODES];
        for &(n, p, u) in &recs {
            if let Some(cell) = model[n as usize].get_mut(p as usize) {
                cell.get_or_insert(u);
            }
        }
        let t = fill_wide(&recs);
        for (n, row) in model.iter().enumerate() {
            let node = NodeId(n as u32);
            for p in 0..WIDE_TRACK + 2 {
                let want = row.get(p as usize).copied().flatten().map(Slot);
                prop_assert_eq!(t.usable_slot(node, PacketId(p)), want);
            }
            prop_assert_eq!(t.complete_for(node), row.iter().all(Option::is_some));
            let a = delay_of(row);
            let l = t.analyze_lossy(node);
            prop_assert_eq!(l.missing, row.iter().filter(|u| u.is_none()).count());
            prop_assert_eq!(l.playback_delay, a);
            prop_assert_eq!(l.max_buffer, buffer_of(row, a));
            if let Ok(full) = t.analyze(node) {
                prop_assert_eq!((full.playback_delay, full.max_buffer), (a, l.max_buffer));
            }
            prop_assert_eq!(
                t.steady_state_for(node),
                row.iter().all(Option::is_some) && delay_of(&row[..row.len() / 2]) == a
            );
        }

        // The first arrivals in reverse: rows widen before their narrow
        // cells are written, and in another order.
        let mut firsts: Vec<(u32, u64, u64)> = Vec::new();
        for (n, row) in model.iter().enumerate() {
            for (p, u) in row.iter().enumerate() {
                firsts.extend(u.map(|u| (n as u32, p as u64, u)));
            }
        }
        firsts.reverse();
        prop_assert_eq!(&fill_wide(&firsts), &t);
        // One first arrival a slot later: not equal, on whichever side of
        // an edge it lands.
        let len = firsts.len();
        if let Some(cell) = firsts.get_mut(flip % len.max(1)) {
            cell.2 += 1;
            prop_assert_ne!(&fill_wide(&firsts), &t);
        }
    }
}

/// Chain node `i` plays `i` slots late, so at N = 400 the rows past
/// lateness 189 are wide while the steady gears — sequential and
/// sharded — write them; both must return what the fast engine does.
#[test]
fn a_chain_past_a_byte_of_lateness_matches_fast_on_mega() {
    let cfg = SimConfig::until_complete(512, 100_000);
    let want = FastSimulator::run(&mut ChainScheme::new(400), &cfg).unwrap();
    assert_eq!(want.qos.max_delay(), 400);
    for shards in [1, 2] {
        let mut mega = MegaEngine::with_shards(shards);
        let got = mega.run(&mut ChainScheme::new(400), &cfg).unwrap();
        assert!(mega.steady_slots() > 0, "the steady table never ran");
        assert_eq!(
            diff_fields(&want, &got),
            Vec::<&str>::new(),
            "{shards} shards"
        );
        assert_eq!(want, got);
    }
}

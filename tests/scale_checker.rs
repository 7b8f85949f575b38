//! An independent checker of mega's per-node playback at scale.
//!
//! A multi-tree's schedule has a closed form: the node at position `pos`
//! of tree `k` receives packet `k + m·d` in slot
//! `MultiTreeScheme::recv_slot_at(k, pos, m)`, so packet `j` is usable
//! there one slot later. This test derives every node's usable slots
//! from that formula alone — no simulation, no arrival table — scores
//! them with the reference simulator's own sort-and-sweep
//! (`sim::engine::score_row`), and requires mega's `playback_delay` and
//! `max_buffer` to equal the score node by node, and every delay to lie
//! within Theorem 2's `h·d`.
//!
//! Both constructions, `d ∈ {2, 3}`, 256 tracked packets (the ledger's
//! `--track 256`): at `N = 2000` in the suite, at `N = 10⁵` as an
//! ignored test that `ci.sh full` runs in release.

use clustream::multitree::{Construction, MultiTreeScheme};
use clustream::prelude::*;
use clustream::sim::engine::score_row;
use clustream_plan::{Family, SchemeSpec};

const TRACK: u64 = 256;

/// Check mega against the closed form on one spec; returns how many
/// nodes were checked.
fn check(n: usize, d: usize, construction: Construction) -> usize {
    let spec = SchemeSpec {
        construction,
        ..SchemeSpec::new(Family::MultiTree, n, d)
    };
    let what = format!("n {n}, d {d}, {construction:?}");
    let mut scheme: MultiTreeScheme = spec.multitree().unwrap();
    let bound = spec.worst_delay_bound();
    let cfg = SimConfig::until_complete(TRACK, spec.completion_horizon(TRACK));
    let mut mega = MegaEngine::new();
    let got = mega.run(&mut scheme, &cfg).unwrap();
    assert!(
        mega.steady_slots() > 0,
        "{what}: the steady table never ran"
    );
    assert_eq!(got.qos.nodes.len(), n, "{what}");

    let forest = scheme.forest();
    let mut usable = vec![None; TRACK as usize];
    for q in &got.qos.nodes {
        let node = q.node.0;
        for (j, u) in usable.iter_mut().enumerate() {
            let (k, m) = (j % d, (j / d) as u64);
            *u = Some(scheme.recv_slot_at(k, forest.position(k, node), m) + 1);
        }
        let want = score_row(&usable);
        assert_eq!(
            (q.playback_delay, q.max_buffer),
            (want.playback_delay, want.max_buffer),
            "{what}: node {node}"
        );
        assert!(
            q.playback_delay <= bound.slots,
            "{what}: node {node}'s delay {} breaks {} = {}",
            q.playback_delay,
            bound.theorem,
            bound.slots
        );
    }
    got.qos.nodes.len()
}

fn check_all(n: usize) {
    for d in [2, 3] {
        for construction in [Construction::Greedy, Construction::Structured] {
            assert_eq!(check(n, d, construction), n);
        }
    }
}

#[test]
fn mega_scores_every_node_as_the_closed_form_does_at_n_2000() {
    check_all(2000);
}

/// `ci.sh full` runs this in release (`--ignored`); a debug build takes
/// minutes.
#[test]
#[ignore]
fn mega_scores_every_node_as_the_closed_form_does_at_n_100000() {
    check_all(100_000);
}

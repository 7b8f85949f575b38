//! Property tests on the multi-tree internals: constructions, schedule
//! arithmetic, and churn bookkeeping.

use clustream_multitree::{
    build_forest, greedy_forest, structured_forest, Construction, DelayProfile, DynamicForest,
    MultiTreeScheme, StreamMode,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Structural invariants across a wide (N, d) range for both
    /// constructions.
    #[test]
    fn constructions_validate(n in 1usize..400, d in 1usize..9, structured in any::<bool>()) {
        let c = if structured { Construction::Structured } else { Construction::Greedy };
        build_forest(n, d, c).unwrap().validate().unwrap();
    }

    /// Every node's receive-slot residues are a permutation of 0..d — the
    /// strongest form of the no-collision lemma.
    #[test]
    fn residues_form_permutations(n in 1usize..200, d in 2usize..7) {
        let f = greedy_forest(n, d).unwrap();
        for id in 1..=f.n_pad() as u32 {
            let mut seen = vec![false; d];
            for k in 0..d {
                let r = (f.position(k, id) - 1) % d;
                prop_assert!(!seen[r]);
                seen[r] = true;
            }
            prop_assert!(seen.iter().all(|&s| s));
        }
    }

    /// Schedule recursion sanity: a child receives strictly after its
    /// parent, within d slots, in its own residue class.
    #[test]
    fn child_arrivals_follow_parents(n in 2usize..150, d in 2usize..6) {
        let f = greedy_forest(n, d).unwrap();
        let s = MultiTreeScheme::new(f.clone(), StreamMode::PreRecorded);
        for k in 0..d {
            for pos in 1..=f.n_pad() {
                let r = s.recv_slot_at(k, pos, 0);
                prop_assert_eq!(r % d as u64, ((pos - 1) % d) as u64);
                let parent = f.parent_pos(pos);
                if parent >= 1 {
                    let rp = s.recv_slot_at(k, parent, 0);
                    prop_assert!(r > rp && r <= rp + d as u64, "pos {} tree {}", pos, k);
                }
            }
        }
    }

    /// Packet periodicity: m-th packet of a tree arrives exactly m·d slots
    /// after the first.
    #[test]
    fn schedule_is_periodic(n in 2usize..100, d in 2usize..5, m in 0u64..20) {
        let f = greedy_forest(n, d).unwrap();
        let s = MultiTreeScheme::new(f.clone(), StreamMode::PreRecorded);
        for k in 0..d {
            for pos in 1..=f.n_pad() {
                prop_assert_eq!(
                    s.recv_slot_at(k, pos, m),
                    s.recv_slot_at(k, pos, 0) + m * d as u64
                );
            }
        }
    }

    /// The interior tree of a node (if any) is unique and its children
    /// count is exactly d in the padded forest.
    #[test]
    fn interior_roles_unique(n in 1usize..150, d in 2usize..6) {
        let f = structured_forest(n, d).unwrap();
        for id in 1..=f.n_pad() as u32 {
            if let Some(k) = f.interior_tree_of(id) {
                let pos = f.position(k, id);
                prop_assert!(f.is_interior_pos(pos));
                prop_assert_eq!(f.children_pos(pos).count(), d);
                for k2 in 0..d {
                    if k2 != k {
                        prop_assert!(!f.is_interior_pos(f.position(k2, id)));
                    }
                }
            }
        }
    }

    /// Delay profiles: every node's delay lies in [1, h·d] and the average
    /// is between the per-node min and max.
    #[test]
    fn delay_profile_sane(n in 1usize..200, d in 2usize..6) {
        let f = greedy_forest(n, d).unwrap();
        let h = f.height() as u64;
        let p = DelayProfile::compute(&MultiTreeScheme::new(f, StreamMode::PreRecorded)).unwrap();
        let delays: Vec<u64> = p.qos().nodes.iter().map(|q| q.playback_delay).collect();
        let min = *delays.iter().min().unwrap();
        let max = *delays.iter().max().unwrap();
        prop_assert!(min >= 1);
        prop_assert!(max <= h * d as u64);
        prop_assert!(p.avg_delay() >= min as f64 - 1e-9);
        prop_assert!(p.avg_delay() <= max as f64 + 1e-9);
    }

    /// Churn: add-then-remove of the same node restores the member set,
    /// and swap counts respect the paper's per-op budgets.
    #[test]
    fn add_remove_roundtrip(n in 4usize..60, d in 2usize..5, lazy in any::<bool>()) {
        let mut f = DynamicForest::new(n, d, Construction::Greedy, lazy).unwrap();
        let before = f.members();
        let (ext, rep_add) = f.add();
        prop_assert!(rep_add.swaps <= d, "add swaps {} > d", rep_add.swaps);
        f.validate().unwrap();
        let rep_rm = f.remove(ext).unwrap();
        // Removing a freshly added all-leaf node is swap-free unless it
        // forces a shrink-rebuild.
        if rep_rm.resized.is_none() {
            prop_assert_eq!(rep_rm.swaps, 0);
        }
        f.validate().unwrap();
        prop_assert_eq!(f.members(), before);
    }

    /// Snapshots after arbitrary single ops stay schedulable and keep all
    /// member external ids.
    #[test]
    fn snapshot_after_op_is_consistent(
        n in 4usize..40,
        d in 2usize..5,
        remove_rank in 0usize..40,
    ) {
        let mut f = DynamicForest::new(n, d, Construction::Greedy, false).unwrap();
        let members = f.members();
        f.remove(members[remove_rank % members.len()]).unwrap();
        let (snap, map) = f.snapshot().unwrap();
        snap.validate().unwrap();
        prop_assert_eq!(map.len(), n - 1);
        let p = DelayProfile::compute(&MultiTreeScheme::new(snap, StreamMode::PreRecorded)).unwrap();
        prop_assert!(p.max_delay() >= 1);
    }
}

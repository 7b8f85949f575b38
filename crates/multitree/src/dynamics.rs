//! Node addition and deletion under churn (paper appendix).
//!
//! The appendix maintains the multi-tree invariants "on the fly": departing
//! nodes are replaced by *all-leaf* nodes (nodes that are leaves in every
//! tree, the `G_d` group), and arriving nodes join as all-leaf nodes,
//! occasionally promoting an all-leaf node to interior when a tree level
//! fills up. We represent the paper's bookkeeping with explicit **dummy
//! slots**: the population is always padded to a multiple of `d`, the tail
//! `d` positions of every tree hold the same set of `d` all-leaf nodes, and
//! dummies are a subset of that set. Then:
//!
//! * **addition** with a dummy available is a pure relabel (the paper's
//!   "replace the deleted node with the newly added one" — zero swaps);
//! * **addition** with no dummy grows every tree by `d` positions; first,
//!   per tree, the position `p* = N_pad/d` about to become interior is
//!   swapped with the same-residue tail position (the paper's Step 1,
//!   "swap the node in position ⌊N/d⌋ with … position N−d+(r₂−1)"), then
//!   the new node and `d−1` fresh dummies fill the new tail so that the
//!   new node's positions cover all residues (the paper's Step 2 layout
//!   "position N+1 in T_0, N+2 in T_1, …");
//! * **deletion** of a non-all-leaf node swaps it with a real all-leaf
//!   node `x` in all `d` trees (the paper's "find replacement") and then
//!   relabels the departed node's slot as a dummy;
//! * **eager** mode shrinks the forest by `d` positions as soon as all `d`
//!   tail nodes are dummies; **lazy** mode defers the shrink until a
//!   further deletion forces it, so a deletion followed by an addition
//!   costs zero swaps — exactly the optimization the paper's "lazy"
//!   variants target.
//!
//! Every operation reports the number of per-tree position swaps and the
//! set of *displaced* receivers (nodes whose positions changed and may
//! therefore suffer transient hiccups — the paper bounds these by `d²`).
//!
//! # A note on the paper's "restore property" step
//!
//! Because every receiver appears once in each of the `d` trees and its
//! position residues mod `d` must be pairwise distinct, **every node uses
//! every residue exactly once**. Consequently the only churn moves that
//! provably preserve the no-collision invariant are (a) swapping two
//! same-residue positions within one tree and (b) exchanging the *entire
//! position vectors* of two nodes. The paper's deletion Step 2 ("swap the
//! nodes in `P(i)` with the nodes in positions `N−d` to `N−1` in each
//! tree", up to `d²` swaps) is neither, and one can construct states where
//! no assignment of the demoted interior nodes to tail positions keeps all
//! residues distinct — i.e. the literal step can introduce receive
//! collisions. We therefore implement the boundary-crossing case (the
//! interior level shrinking by one) as a **rebuild** of the forest over the
//! surviving members, report it honestly as displacing everyone, and rely
//! on the lazy variant to make it rare — which is precisely the
//! optimization the paper's lazy algorithms target ("these swaps are not
//! really necessary if the next event is an addition").

use crate::groups::Groups;
use crate::tree::DisjointTrees;
use crate::Construction;
use clustream_core::CoreError;
use std::collections::BTreeMap;

/// External, stable identity of a receiver across churn.
pub type ExtId = u64;

/// Report of one churn operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnReport {
    /// Per-tree position swaps performed.
    pub swaps: usize,
    /// External ids of real receivers whose position changed in at least
    /// one tree (candidates for transient hiccups).
    pub displaced: Vec<ExtId>,
    /// Whether the forest grew (`+d` positions) or shrank (`−d`).
    pub resized: Option<isize>,
}

/// A churn-capable multi-tree forest.
///
/// ```
/// use clustream_multitree::{Construction, DynamicForest};
///
/// let mut forest = DynamicForest::new(15, 3, Construction::Greedy, /*lazy=*/ true)?;
/// let (newcomer, report) = forest.add();
/// assert_eq!(report.swaps <= 3, true); // paper: at most d swaps per join
/// forest.remove(newcomer)?;
/// forest.validate()?;                  // all §2.2 invariants still hold
/// assert_eq!(forest.n_real(), 15);
/// # Ok::<(), clustream_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DynamicForest {
    d: usize,
    /// `labels[h−1]`: external id of internal handle `h`, `None` = dummy.
    labels: Vec<Option<ExtId>>,
    /// `trees[k][p−1]` = handle at position `p` of tree `k`.
    trees: Vec<Vec<u32>>,
    /// `pos_of[k][h−1]` = position of handle `h` in tree `k`.
    pos_of: Vec<Vec<u32>>,
    next_ext: ExtId,
    lazy: bool,
    total_swaps: u64,
    /// Scan hint: no dummy slot sits at a `labels` index below this, so
    /// `add` finds its reuse slot in amortised O(1) instead of O(N_pad)
    /// — the difference between O(N) and O(N²) for a flash crowd of N
    /// joins.
    first_free: usize,
}

impl DynamicForest {
    /// Build from a static construction with `n` initial receivers
    /// (external ids `1..=n`). `lazy` selects the deferred-swap variants.
    pub fn new(
        n: usize,
        d: usize,
        construction: Construction,
        lazy: bool,
    ) -> Result<Self, CoreError> {
        let f = crate::build_forest(n, d, construction)?;
        let n_pad = f.n_pad();
        let labels = (1..=n_pad as u32)
            .map(|h| {
                if h as usize <= n {
                    Some(h as ExtId)
                } else {
                    None
                }
            })
            .collect();
        let trees: Vec<Vec<u32>> = (0..d).map(|k| f.tree(k).to_vec()).collect();
        let mut pos_of = vec![vec![0u32; n_pad]; d];
        for (k, t) in trees.iter().enumerate() {
            for (i, &h) in t.iter().enumerate() {
                pos_of[k][h as usize - 1] = (i + 1) as u32;
            }
        }
        Ok(DynamicForest {
            d,
            labels,
            trees,
            pos_of,
            next_ext: n as ExtId + 1,
            lazy,
            total_swaps: 0,
            first_free: n,
        })
    }

    /// Tree degree.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Current number of real receivers.
    pub fn n_real(&self) -> usize {
        self.labels.iter().filter(|l| l.is_some()).count()
    }

    /// Current padded population (positions per tree).
    pub fn n_pad(&self) -> usize {
        self.labels.len()
    }

    /// Number of dummy slots.
    pub fn dummies(&self) -> usize {
        self.n_pad() - self.n_real()
    }

    /// Total per-tree position swaps performed so far.
    pub fn total_swaps(&self) -> u64 {
        self.total_swaps
    }

    /// External ids of current receivers, ascending.
    pub fn members(&self) -> Vec<ExtId> {
        let mut m: Vec<ExtId> = self.labels.iter().flatten().copied().collect();
        m.sort_unstable();
        m
    }

    fn interior_positions(&self) -> usize {
        self.n_pad() / self.d - 1
    }

    fn handle_of(&self, ext: ExtId) -> Option<u32> {
        self.labels
            .iter()
            .position(|l| *l == Some(ext))
            .map(|i| (i + 1) as u32)
    }

    /// Whether handle `h` sits in the tail-`d` positions of every tree
    /// (the all-leaf set).
    fn is_all_leaf(&self, h: u32) -> bool {
        let tail_from = self.n_pad() - self.d + 1;
        (0..self.d).all(|k| (self.pos_of[k][h as usize - 1] as usize) >= tail_from)
    }

    /// Turn handle `h`'s slot into a dummy, keeping the `first_free`
    /// scan hint sound (no dummy below the hint).
    fn clear_label(&mut self, h: u32) {
        self.labels[h as usize - 1] = None;
        self.first_free = self.first_free.min(h as usize - 1);
    }

    /// Swap the occupants of positions `pa` and `pb` in tree `k`.
    fn swap_positions(&mut self, k: usize, pa: usize, pb: usize) {
        if pa == pb {
            return;
        }
        let ha = self.trees[k][pa - 1];
        let hb = self.trees[k][pb - 1];
        self.trees[k].swap(pa - 1, pb - 1);
        self.pos_of[k][ha as usize - 1] = pb as u32;
        self.pos_of[k][hb as usize - 1] = pa as u32;
        self.total_swaps += 1;
    }

    /// Add a receiver; returns its external id and the churn report.
    pub fn add(&mut self) -> (ExtId, ChurnReport) {
        let ext = self.next_ext;
        self.next_ext += 1;

        // Reuse a dummy slot when available: zero swaps, nobody displaced.
        let start = self.first_free.min(self.labels.len());
        if let Some(off) = self.labels[start..].iter().position(|l| l.is_none()) {
            let i = start + off;
            self.labels[i] = Some(ext);
            self.first_free = i + 1;
            return (
                ext,
                ChurnReport {
                    swaps: 0,
                    displaced: vec![],
                    resized: None,
                },
            );
        }

        // Grow: every tree gains d positions; position p* = N_pad/d becomes
        // interior and must hold a (distinct per tree) all-leaf node.
        let n_pad = self.n_pad();
        let d = self.d;
        let p_star = n_pad / d;
        let tail_from = n_pad - d + 1;
        let mut displaced = Vec::new();
        let mut swaps = 0usize;
        for k in 0..d {
            // Tail position with the same residue as p*.
            let q_star = (tail_from..=n_pad)
                .find(|q| (q - 1) % d == (p_star - 1) % d)
                .expect("tail spans all residues");
            if q_star != p_star {
                for &p in &[p_star, q_star] {
                    if let Some(ext) = self.labels[self.trees[k][p - 1] as usize - 1] {
                        displaced.push(ext);
                    }
                }
                self.swap_positions(k, p_star, q_star);
                swaps += 1;
            }
        }

        // Extend: new handles n_pad+1 (the new receiver) and n_pad+2..+d
        // (fresh dummies); handle n_pad+1+j goes to position
        // n_pad+1+((j+k) mod d) in tree k, covering all residues.
        self.labels.push(Some(ext));
        for _ in 1..d {
            self.labels.push(None);
        }
        self.first_free = n_pad + 1;
        for k in 0..d {
            for j in 0..d {
                let h = (n_pad + 1 + j) as u32;
                let p = n_pad + 1 + ((j + k) % d);
                if self.trees[k].len() < n_pad + d {
                    self.trees[k].resize(n_pad + d, 0);
                }
                self.trees[k][p - 1] = h;
            }
            self.pos_of[k].resize(n_pad + d, 0);
            for p in n_pad + 1..=n_pad + d {
                let h = self.trees[k][p - 1];
                self.pos_of[k][h as usize - 1] = p as u32;
            }
        }

        displaced.sort_unstable();
        displaced.dedup();
        (
            ext,
            ChurnReport {
                swaps,
                displaced,
                resized: Some(d as isize),
            },
        )
    }

    /// Remove the receiver with external id `ext`.
    pub fn remove(&mut self, ext: ExtId) -> Result<ChurnReport, CoreError> {
        let h = self
            .handle_of(ext)
            .ok_or(CoreError::InvalidConfig(format!("no member with id {ext}")))?;
        if self.n_real() == 1 {
            return Err(CoreError::InvalidConfig(
                "cannot remove the last receiver".into(),
            ));
        }

        let mut swaps = 0usize;
        let mut displaced = Vec::new();
        let mut resized = None;
        let mut h = h;

        if !self.is_all_leaf(h) {
            // Find replacement x: the real all-leaf node at the highest
            // position of T_0 (the paper's "last all leaf node in tree
            // T_0"). In lazy mode the whole tail may be dummies, in which
            // case the deferred shrink is forced now.
            let find_x = |s: &DynamicForest| {
                (s.n_pad() - s.d + 1..=s.n_pad())
                    .rev()
                    .map(|p| s.trees[0][p - 1])
                    .find(|&cand| s.labels[cand as usize - 1].is_some())
            };
            let x = match find_x(self) {
                Some(x) => x,
                None => {
                    let rep = self.shrink_rebuild();
                    swaps += rep.swaps;
                    displaced.extend(rep.displaced);
                    resized = rep.resized;
                    h = self.handle_of(ext).expect("member survives rebuild");
                    if self.is_all_leaf(h) {
                        // The rebuild may have demoted the victim to the
                        // all-leaf set; no replacement needed.
                        self.clear_label(h);
                        displaced.sort_unstable();
                        displaced.dedup();
                        return Ok(ChurnReport {
                            swaps,
                            displaced,
                            resized,
                        });
                    }
                    find_x(self).ok_or(CoreError::InvalidConfig(
                        "no real all-leaf replacement after rebuild".into(),
                    ))?
                }
            };
            // Swap i with x in all d trees (a full-vector exchange, which
            // provably preserves every invariant).
            for k in 0..self.d {
                let pi = self.pos_of[k][h as usize - 1] as usize;
                let px = self.pos_of[k][x as usize - 1] as usize;
                self.swap_positions(k, pi, px);
                swaps += 1;
            }
            displaced.push(self.labels[x as usize - 1].expect("x is real"));
        }

        // The departed node now sits in the all-leaf tail: make its slot a
        // dummy.
        self.clear_label(h);

        // Eager mode restores the "fewer than d dummies" property
        // immediately; lazy mode defers until a later event forces it.
        if !self.lazy && self.dummies() >= self.d {
            let rep = self.shrink_rebuild();
            swaps += rep.swaps;
            displaced.extend(rep.displaced);
            resized = rep.resized;
        }

        displaced.sort_unstable();
        displaced.dedup();
        Ok(ChurnReport {
            swaps,
            displaced,
            resized,
        })
    }

    /// Shrink by rebuilding the forest over the surviving members (the
    /// interior level boundary moved; see the module docs for why a local
    /// `d²`-swap restore is unsound). External ids are preserved; the swap
    /// count is reported as the new `N_pad` (every slot is re-placed).
    fn shrink_rebuild(&mut self) -> ChurnReport {
        let members = self.members();
        let n = members.len();
        debug_assert!(n >= 1);
        let fresh = crate::greedy::greedy_forest(n, self.d).expect("rebuild parameters are valid");
        let n_pad = fresh.n_pad();
        let old_pad = self.n_pad();
        self.labels = (1..=n_pad as u32)
            .map(|h| (h as usize <= n).then(|| members[h as usize - 1]))
            .collect();
        self.first_free = n;
        self.trees = (0..self.d).map(|k| fresh.tree(k).to_vec()).collect();
        self.pos_of = vec![vec![0u32; n_pad]; self.d];
        for k in 0..self.d {
            for p in 1..=n_pad {
                let h = self.trees[k][p - 1];
                self.pos_of[k][h as usize - 1] = p as u32;
            }
        }
        self.total_swaps += n_pad as u64;
        ChurnReport {
            swaps: n_pad,
            displaced: members,
            resized: Some(n_pad as isize - old_pad as isize),
        }
    }

    /// Verify every structural invariant; used by tests after each op.
    pub fn validate(&self) -> Result<(), CoreError> {
        let d = self.d;
        let n_pad = self.n_pad();
        if !n_pad.is_multiple_of(d) {
            return Err(CoreError::InvalidConfig("n_pad not a multiple of d".into()));
        }
        let i_count = self.interior_positions();
        let tail_from = n_pad - d + 1;

        // Permutations + pos_of consistency.
        for k in 0..d {
            let mut seen = vec![false; n_pad + 1];
            for p in 1..=n_pad {
                let h = self.trees[k][p - 1];
                if h == 0 || h as usize > n_pad || seen[h as usize] {
                    return Err(CoreError::InvalidConfig(format!(
                        "tree {k} not a permutation at position {p}"
                    )));
                }
                seen[h as usize] = true;
                if self.pos_of[k][h as usize - 1] as usize != p {
                    return Err(CoreError::InvalidConfig("pos_of out of sync".into()));
                }
            }
        }

        // The tail-d positions hold the same node set in every tree.
        let tail_set = |k: usize| {
            let mut s: Vec<u32> = (tail_from..=n_pad).map(|p| self.trees[k][p - 1]).collect();
            s.sort_unstable();
            s
        };
        let t0 = tail_set(0);
        for k in 1..d {
            if tail_set(k) != t0 {
                return Err(CoreError::InvalidConfig(format!(
                    "all-leaf sets differ between trees 0 and {k}"
                )));
            }
        }

        for h in 1..=n_pad as u32 {
            // Dummies must be all-leaf.
            if self.labels[h as usize - 1].is_none() && !self.is_all_leaf(h) {
                return Err(CoreError::InvalidConfig(format!(
                    "dummy handle {h} is not all-leaf"
                )));
            }
            // Interior-disjoint.
            let interior_in = (0..d)
                .filter(|&k| (self.pos_of[k][h as usize - 1] as usize) <= i_count)
                .count();
            if interior_in > 1 {
                return Err(CoreError::InvalidConfig(format!(
                    "handle {h} interior in {interior_in} trees"
                )));
            }
            // No-collision residues.
            let mut residues = vec![false; d];
            for k in 0..d {
                let r = (self.pos_of[k][h as usize - 1] as usize - 1) % d;
                if residues[r] {
                    return Err(CoreError::InvalidConfig(format!(
                        "handle {h} repeats residue {r}"
                    )));
                }
                residues[r] = true;
            }
        }
        Ok(())
    }

    /// Current playback delay of every member (external id → `a(i)` under
    /// the pre-recorded schedule of a compacted snapshot).
    ///
    /// Comparing this map across a churn operation estimates **hiccups**:
    /// a displaced member whose delay grows by `Δ` must either stall
    /// playback for `Δ` slots or have pre-buffered `Δ` extra packets —
    /// the effect the paper's appendix discusses qualitatively ("nodes
    /// participating in the swapping process may suffer from hiccups").
    pub fn member_delays(&self) -> Result<BTreeMap<ExtId, u64>, CoreError> {
        let (snapshot, map) = self.snapshot()?;
        let scheme = crate::schedule::MultiTreeScheme::new(
            snapshot,
            crate::schedule::StreamMode::PreRecorded,
        );
        let profile = crate::delay::DelayProfile::compute(&scheme)?;
        Ok(map
            .into_iter()
            .map(|(ext, id)| {
                let q = profile
                    .qos()
                    .node(clustream_core::NodeId(id))
                    .expect("snapshot covers every member");
                (ext, q.playback_delay)
            })
            .collect())
    }

    /// Estimated hiccup slots caused by the last operation: for each
    /// member in `displaced`, the growth of its playback delay from
    /// `before` (a [`DynamicForest::member_delays`] map taken before the
    /// operation) to now.
    pub fn hiccup_estimate(
        &self,
        before: &BTreeMap<ExtId, u64>,
        displaced: &[ExtId],
    ) -> Result<u64, CoreError> {
        let after = self.member_delays()?;
        Ok(displaced
            .iter()
            .filter_map(|ext| match (before.get(ext), after.get(ext)) {
                (Some(&b), Some(&a)) => Some(a.saturating_sub(b)),
                _ => None, // joined or departed during the op
            })
            .sum())
    }

    /// Compact to a static [`DisjointTrees`] snapshot (real receivers get
    /// contiguous ids `1..=N` in ascending external-id order; dummies take
    /// the top ids), suitable for [`crate::MultiTreeScheme`]. Also returns
    /// the external-id ↦ snapshot-id mapping.
    pub fn snapshot(&self) -> Result<(DisjointTrees, BTreeMap<ExtId, u32>), CoreError> {
        let mut work = self.clone();
        // A deferred shrink (lazy mode) would leave d dummies; compact it
        // away so Groups::new sees dummies < d.
        if work.dummies() >= work.d {
            work.shrink_rebuild();
        }
        let n_pad = work.n_pad();
        let n_real = work.n_real();
        // handle → snapshot id
        let mut ext_sorted: Vec<(ExtId, u32)> = work
            .labels
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.map(|e| (e, (i + 1) as u32)))
            .collect();
        ext_sorted.sort_unstable();
        let mut id_of_handle = vec![0u32; n_pad];
        let mut ext_to_id = BTreeMap::new();
        for (rank, &(ext, h)) in ext_sorted.iter().enumerate() {
            id_of_handle[h as usize - 1] = (rank + 1) as u32;
            ext_to_id.insert(ext, (rank + 1) as u32);
        }
        let mut next_dummy = n_real as u32;
        for (i, l) in work.labels.iter().enumerate() {
            if l.is_none() {
                next_dummy += 1;
                id_of_handle[i] = next_dummy;
            }
        }
        let groups = Groups::new(n_real, work.d)?;
        let positions: Vec<Vec<u32>> = (0..work.d)
            .map(|k| {
                (1..=n_pad)
                    .map(|p| id_of_handle[work.trees[k][p - 1] as usize - 1])
                    .collect()
            })
            .collect();
        let f = DisjointTrees::from_positions(groups, positions)?;
        Ok((f, ext_to_id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn forest(n: usize, d: usize, lazy: bool) -> DynamicForest {
        DynamicForest::new(n, d, Construction::Greedy, lazy).unwrap()
    }

    #[test]
    fn fresh_forest_validates() {
        for (n, d) in [(15, 3), (14, 3), (8, 2), (25, 5)] {
            forest(n, d, false).validate().unwrap();
        }
    }

    #[test]
    fn add_into_dummy_slot_is_free() {
        // N = 14, d = 3 ⇒ one dummy; the first addition must be a relabel.
        let mut f = forest(14, 3, false);
        assert_eq!(f.dummies(), 1);
        let (ext, rep) = f.add();
        assert_eq!(ext, 15);
        assert_eq!(rep.swaps, 0);
        assert!(rep.displaced.is_empty());
        assert_eq!(rep.resized, None);
        assert_eq!(f.n_real(), 15);
        f.validate().unwrap();
    }

    #[test]
    fn add_when_full_grows_by_d() {
        // N = 15, d = 3 (d | N): growth with at most d swaps.
        let mut f = forest(15, 3, false);
        assert_eq!(f.dummies(), 0);
        let (ext, rep) = f.add();
        assert_eq!(ext, 16);
        assert!(
            rep.swaps <= 3,
            "paper: between 0 and d swaps, got {}",
            rep.swaps
        );
        assert_eq!(rep.resized, Some(3));
        assert_eq!(f.n_pad(), 18);
        assert_eq!(f.n_real(), 16);
        assert_eq!(f.dummies(), 2);
        f.validate().unwrap();
    }

    #[test]
    fn remove_all_leaf_node_is_free() {
        let mut f = forest(15, 3, false);
        // Node 14 is in G_d (ids 13..15) — all-leaf initially.
        let rep = f.remove(14).unwrap();
        assert_eq!(rep.swaps, 0);
        assert!(rep.displaced.is_empty());
        assert_eq!(f.n_real(), 14);
        f.validate().unwrap();
    }

    #[test]
    fn remove_interior_node_swaps_d_times() {
        let mut f = forest(15, 3, false);
        // Node 1 is interior in T_0.
        let rep = f.remove(1).unwrap();
        assert_eq!(rep.swaps, 3, "one position swap per tree");
        assert_eq!(rep.displaced.len(), 1, "the replacement x is displaced");
        assert!(!f.members().contains(&1));
        f.validate().unwrap();
    }

    #[test]
    fn eager_shrinks_when_dummies_reach_d() {
        let mut f = forest(15, 3, false);
        f.remove(13).unwrap();
        f.remove(14).unwrap();
        let rep = f.remove(15).unwrap();
        assert_eq!(rep.resized, Some(-3));
        assert_eq!(f.n_pad(), 12);
        assert_eq!(f.dummies(), 0);
        f.validate().unwrap();
    }

    #[test]
    fn lazy_defers_shrink_and_saves_swaps_on_readd() {
        let mut lazy = forest(15, 3, true);
        lazy.remove(13).unwrap();
        lazy.remove(14).unwrap();
        let rep = lazy.remove(15).unwrap();
        assert_eq!(rep.resized, None, "lazy defers the shrink");
        assert_eq!(lazy.dummies(), 3);
        let before = lazy.total_swaps();
        let (_, rep) = lazy.add();
        assert_eq!(rep.swaps, 0, "lazy re-add reuses a dummy slot");
        assert_eq!(lazy.total_swaps(), before);
        lazy.validate().unwrap();

        // Eager pays: shrink at the third removal, then growth swaps on
        // the re-add.
        let mut eager = forest(15, 3, false);
        eager.remove(13).unwrap();
        eager.remove(14).unwrap();
        eager.remove(15).unwrap();
        let (_, rep) = eager.add();
        assert_eq!(rep.resized, Some(3), "eager must regrow");
        eager.validate().unwrap();
    }

    #[test]
    fn lazy_shrinks_when_forced() {
        let mut f = forest(15, 3, true);
        f.remove(13).unwrap();
        f.remove(14).unwrap();
        f.remove(15).unwrap();
        assert_eq!(f.dummies(), 3);
        // A fourth removal would push dummies past d: shrink must fire.
        let rep = f.remove(12).unwrap();
        assert_eq!(rep.resized, Some(-3));
        assert!(f.dummies() < 3);
        f.validate().unwrap();
    }

    #[test]
    fn cannot_remove_unknown_or_last() {
        let mut f = forest(2, 2, false);
        assert!(f.remove(99).is_err());
        f.remove(1).unwrap();
        assert!(f.remove(2).is_err(), "refuse to empty the forest");
    }

    #[test]
    fn snapshot_roundtrips_to_valid_static_forest() {
        let mut f = forest(15, 3, false);
        f.remove(1).unwrap();
        f.add();
        f.remove(7).unwrap();
        let (s, map) = f.snapshot().unwrap();
        s.validate().unwrap();
        assert_eq!(s.n(), 14);
        assert_eq!(map.len(), 14);
        // Mapping covers exactly the members.
        for m in f.members() {
            assert!(map.contains_key(&m));
        }
    }

    #[test]
    fn snapshot_compacts_lazy_dummies() {
        let mut f = forest(15, 3, true);
        f.remove(13).unwrap();
        f.remove(14).unwrap();
        f.remove(15).unwrap();
        assert_eq!(f.dummies(), 3);
        let (s, _) = f.snapshot().unwrap();
        s.validate().unwrap();
        assert_eq!(s.n(), 12);
        assert_eq!(s.n_pad(), 12);
    }

    #[test]
    fn random_churn_preserves_invariants() {
        for seed in 0..8u64 {
            for &(n, d) in &[(12usize, 3usize), (16, 4), (10, 2)] {
                for &lazy in &[false, true] {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed * 31 + d as u64);
                    let mut f = forest(n, d, lazy);
                    for step in 0..120 {
                        if rng.gen_bool(0.5) && f.n_real() > 1 {
                            let members = f.members();
                            let victim = members[rng.gen_range(0..members.len())];
                            f.remove(victim).unwrap();
                        } else {
                            f.add();
                        }
                        f.validate().unwrap_or_else(|e| {
                            panic!("seed {seed} N={n} d={d} lazy={lazy} step {step}: {e}")
                        });
                    }
                    // Snapshot still schedulable.
                    let (s, _) = f.snapshot().unwrap();
                    s.validate().unwrap();
                }
            }
        }
    }

    #[test]
    fn member_delays_cover_all_members_and_respect_thm2() {
        let mut f = forest(15, 3, false);
        f.remove(1).unwrap();
        f.add();
        let delays = f.member_delays().unwrap();
        assert_eq!(delays.len(), f.n_real());
        let h = 3u64; // N = 15, d = 3
        for (&ext, &a) in &delays {
            assert!(a <= h * 3, "member {ext}: delay {a}");
        }
    }

    #[test]
    fn hiccup_estimate_is_zero_for_free_operations() {
        // Adding into a dummy slot displaces nobody.
        let mut f = forest(14, 3, false);
        let before = f.member_delays().unwrap();
        let (_, rep) = f.add();
        assert!(rep.displaced.is_empty());
        let hiccup = f.hiccup_estimate(&before, &rep.displaced).unwrap();
        assert_eq!(hiccup, 0);
    }

    #[test]
    fn hiccup_estimate_counts_delay_growth_for_swaps() {
        // Removing an interior node swaps in a tail node, whose delay can
        // only move; the estimate is finite and bounded by h·d per node.
        let mut f = forest(15, 3, false);
        let before = f.member_delays().unwrap();
        let rep = f.remove(1).unwrap();
        assert_eq!(rep.displaced.len(), 1);
        let hiccup = f.hiccup_estimate(&before, &rep.displaced).unwrap();
        assert!(hiccup <= 9, "hiccup {hiccup} exceeds h·d");
    }

    #[test]
    fn displaced_counts_stay_within_paper_bound() {
        // The paper bounds hiccup-affected nodes by d² per event.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let d = 4;
        let mut f = forest(32, d, false);
        for _ in 0..200 {
            let rep = if rng.gen_bool(0.5) && f.n_real() > 1 {
                let members = f.members();
                let victim = members[rng.gen_range(0..members.len())];
                f.remove(victim).unwrap()
            } else {
                f.add().1
            };
            // The paper's d² bound applies to the incremental operations;
            // a shrink (negative resize) is a rebuild and displaces
            // everyone by design.
            if !matches!(rep.resized, Some(r) if r < 0) {
                assert!(
                    rep.displaced.len() <= d * d,
                    "{} displaced > d² = {}",
                    rep.displaced.len(),
                    d * d
                );
            }
        }
    }
}

//! Multi-tree streaming: §2 of Chow, Golubchik, Khuller & Yao (IPPS 2009).
//!
//! The source `S` streams over `d` interior-disjoint `d`-ary trees that all
//! contain all `N` receivers. Every receiver is an **interior** node (with
//! exactly `d` children) in at most one tree and a **leaf** in the others,
//! so each node's upload bandwidth equals its download bandwidth — the
//! resource-efficiency motivation of the paper. Packets are split
//! round-robin over the trees (tree `T_k` carries packets `k, k+d,
//! k+2d, …`), and within each tree an interior node forwards to its `r`-th
//! child in slots `t ≡ r (mod d)`.
//!
//! The crate provides:
//!
//! * [`groups`] — the `G_0 … G_d` node-id partition with dummy padding;
//! * [`tree`] — the [`tree::DisjointTrees`] position tables and the
//!   structural invariants (interior-disjointness, per-node position
//!   residues pairwise distinct mod `d` — the no-collision lemma);
//! * [`structured`] / [`greedy`] — the paper's two constructions (§2.2.1,
//!   §2.2.2), reproducing Figure 3 exactly;
//! * [`schedule`] — the transmission schedule (§2.2.3) as a
//!   [`clustream_core::Scheme`], in pre-recorded and both live variants,
//!   plus closed-form per-node arrival times;
//! * [`delay`] — exact per-node playback delay and buffer occupancy from
//!   the closed form (validated against full simulation in tests);
//! * [`dynamics`] — node addition/deletion under churn (paper appendix),
//!   eager and lazy, with swap counting.

#![warn(missing_docs)]

pub mod calendar;
pub mod delay;
pub mod dynamics;
pub mod greedy;
pub mod groups;
pub mod neighbors;
pub mod schedule;
pub mod structured;
pub mod tree;

pub use calendar::{node_calendar, NodeCalendar};
pub use delay::DelayProfile;
pub use dynamics::DynamicForest;
pub use greedy::greedy_forest;
pub use groups::Groups;
pub use neighbors::{neighbor_sets, NeighborSet};
pub use schedule::{MultiTreeScheme, StreamMode};
pub use structured::structured_forest;
pub use tree::DisjointTrees;

/// Construction algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Construction {
    /// §2.2.1 — group-rotation construction.
    Structured,
    /// §2.2.2 — parity-greedy construction.
    Greedy,
}

/// Build the `d` interior-disjoint trees for `n` receivers with the chosen
/// construction.
pub fn build_forest(
    n: usize,
    d: usize,
    construction: Construction,
) -> Result<DisjointTrees, clustream_core::CoreError> {
    match construction {
        Construction::Structured => structured_forest(n, d),
        Construction::Greedy => greedy_forest(n, d),
    }
}

//! Invariant model-checker for the clustream engines.
//!
//! Three layers, one goal — the paper's guarantees hold *everywhere*,
//! not just on hand-picked configurations:
//!
//! - an **invariant registry** ([`invariant`]): pluggable [`Invariant`]
//!   objects encoding collision-freedom, the Theorem 2 delay bound
//!   (`h·d`), the buffer bound, in-order playback, and the `O(d)`
//!   neighbor bound, evaluated against any engine's [`RunResult`]
//!   (plus recovery-layer invariants in [`lattice`]);
//! - an **exhaustive small-world driver** ([`lattice`]): every genome in
//!   a bounded lattice (`d ∈ {2,3,4}`, `N ≤ 64`, both constructions,
//!   all four families, canonical fault plans) through every
//!   [`Column::ALL`] engine column with cross-engine agreement;
//! - a **coverage-guided explorer** ([`mod@explore`]): seeded genome
//!   mutation, telemetry-shape novelty, and automatic
//!   [`shrink`](mod@shrink)ing of violations to 1-minimal
//!   counterexamples persisted in the [`corpus`] and replayed forever
//!   by `cargo test`.
//!
//! [`RunResult`]: clustream_sim::RunResult
//! [`Column::ALL`]: clustream_des::Column::ALL

#![warn(missing_docs)]

pub mod checker;
pub mod corpus;
pub mod explore;
pub mod genome;
pub mod invariant;
pub mod lattice;
pub mod sabotage;
pub mod shrink;

pub use checker::{check_genome, check_genome_mega, check_genome_with, CheckReport};
pub use corpus::{load_dir, replay_dir, CorpusEntry, ReplayReport};
pub use explore::{coverage_signature, explore, Counterexample, ExploreOptions, ExploreReport};
pub use genome::{ConstructionChoice, Family, Genome, ModeChoice, MAX_D, MAX_N, MAX_TRACK};
pub use invariant::{
    bounds_for, check_result, registry, Bounds, CheckContext, Invariant, Violation,
};
pub use lattice::{
    canonical_fault_plans, enumerate, exhaustive, exhaustive_recovery, LatticeOptions,
    LatticeReport, RecoveryReport,
};
pub use sabotage::{Sabotage, SabotagedScheme};
pub use shrink::shrink;

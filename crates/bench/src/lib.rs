//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `fig*`/`table*`/`thm*`/`prop*`/`ext_*` function of
//! [`experiments`] produces the rows of one display item; [`catalog`]
//! defines every item once — id, parameters, rendering, verdict (see
//! DESIGN.md §5 for the index) — and the `experiments` binary runs it.
//! `EXPERIMENTS.md` records the paper-vs-measured comparison.
//! [`scenarios`] holds the flash-crowd and heterogeneity runs behind the
//! catalog's `ext_flash_crowd` and `ext_heterogeneity` items. Nothing
//! here measures speed: that
//! is `benchmark/`'s ledger. Sweeps run in parallel through
//! `clustream_sim::sweep`.

// Experiment row structs carry self-describing measurement fields; field-level
// docs would only repeat the names.
#![allow(missing_docs)]

pub mod catalog;
pub mod experiments;
pub mod scenarios;
pub mod table;

pub use experiments::*;
pub use table::render_table;

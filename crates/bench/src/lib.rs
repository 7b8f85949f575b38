//! Experiment harness regenerating every table and figure of the paper,
//! and the committed bench suites.
//!
//! Each `fig*`/`table*`/`thm*`/`prop*`/`ext_*` function of
//! [`experiments`] produces the rows of one display item; [`catalog`]
//! defines every item once — id, parameters, rendering, verdict (see
//! DESIGN.md §5 for the index) — and the `experiments` binary runs it.
//! `EXPERIMENTS.md` records the paper-vs-measured comparison. [`suites`]
//! holds the workloads and measurement loops that the `bench_*`
//! recorders and `bench_check` share. Sweeps run in parallel with rayon.

// Experiment row structs carry self-describing measurement fields; field-level
// docs would only repeat the names.
#![allow(missing_docs)]

pub mod catalog;
pub mod experiments;
pub mod scenarios;
pub mod suites;
pub mod table;
pub mod timing;

pub use experiments::*;
pub use table::render_table;

//! One typed description of a clustream run.
//!
//! The paper's experimental space is a handful of coordinates — scheme
//! family, `N`, `d`, stream mode, and around them runtime, latency and
//! uplink model, recovery tier and churn or scenario. This crate spells
//! them once, for the CLI, the cluster orchestrator, the model checker
//! and the bench harness alike:
//!
//! * [`SchemeSpec`] holds the workspace's only family → constructor
//!   match; [`SchemeSpec::build`] is total (out-of-domain parameters are
//!   a [`clustream_core::CoreError::InvalidConfig`], never an assert).
//!   Its [`SchemeSpec::worst_delay_bound`] is the only family → theorem
//!   match, and sizes every completing run's horizon
//!   ([`DelayBound::completion_horizon`]).
//! * [`RunPlan`] is one `simulate` run as data: [`RunPlan::from_args`]
//!   parses it, [`RunPlan::validate`] owns every cross-field rule,
//!   [`RunPlan::sim_config`] / [`RunPlan::des_config`] lower it and
//!   [`RunPlan::run`] dispatches it.
//! * [`args`] is the `--key value` / `--switch` parser; a subcommand's
//!   usage text is also the vocabulary (names and arities) its flags are
//!   checked against.
//!
//! It sits above `analysis`, `des`, `recovery`, `hypercube` and `baselines` and below
//! `net`, `mc`, `cli` and `bench`: `des` is the lowest crate those four
//! share, but it should not learn about slot-engine dispatch.

#![warn(missing_docs)]

pub mod args;
pub mod run;
pub mod scheme;

pub use args::{flag_list, render_usage, usage_flags, ArgMap, CliError, Usage};
pub use run::{choice, member_timelines, Engine, Outcome, RunPlan, Runtime, SIMULATE_USAGE};
pub use scheme::{DelayBound, Family, SchemeSpec, SCHEME_USAGE};

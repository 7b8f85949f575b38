//! A validated plan runs.
//!
//! `RunPlan::validate` is the rule book: whatever it accepts, the layers
//! below must be able to execute. The flag-soup proptest in
//! `crates/plan` stops at `validate()`; this sweep executes every
//! accepted cell of a small exhaustive flag lattice and demands `Ok` or a
//! model error — never a panic, never a usage error from below the rule
//! book — and, for scenario plans, that `clustream simulate` renders its
//! report (the QoE lines are sized from a second scheme instance). Every
//! accepted `--check` plan names in its `engine` line what it compared,
//! so no accepted flag drops a check unseen.

use clustream::des::UplinkModel;
use clustream::telemetry::Telemetry;
use clustream_cli::{ArgMap, CliError};
use clustream_plan::{RunPlan, Runtime};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// `Ok`/model error → `None`; anything else → what went wrong.
fn verdict<T>(run: impl FnOnce() -> Result<T, CliError>) -> Option<String> {
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(Ok(_)) | Ok(Err(CliError::Model(_))) => None,
        Ok(Err(CliError::Usage(m))) => Some(format!("usage error below the rule book: {m}")),
        Err(_) => Some("panicked".into()),
    }
}

/// The lattice: one flag fragment per axis value (N = 12, track 8,
/// horizon 120 throughout). An empty fragment leaves the default: the
/// mega engine, the wheel queue, no check.
const AXES: [&[&str]; 9] = [
    &["--d 2", "--d 3"],
    &["--runtime slot", "--runtime des"],
    &["", "--engine reference", "--engine mega"],
    &["", "--queue wheel"],
    &["", "--check"],
    &[
        "--recovery off",
        "--recovery repair",
        "--recovery repair+nack",
    ],
    &["", "--churn-leave 0.01 --churn-slots 40"],
    &[
        "",
        "--scenario step:4@2",
        "--scenario ramp:3@1+4,fail:2-3@6",
    ],
    &["--uplink unconstrained", "--uplink serialized"],
];

/// What an accepted `--check` plan's `engine` line must say it compared:
/// the slot engines, or the DES's two queues and, where the DES is
/// slot-faithful, mega.
fn names_its_check(plan: &RunPlan) -> bool {
    let label = plan.label();
    let strict = plan.churn.is_none()
        && !plan.recovery.mode.enabled()
        && plan.uplink == UplinkModel::Unconstrained;
    match plan.runtime {
        Runtime::Slot => label == "checked (reference ≡ mega)",
        Runtime::Des if strict => label.ends_with(", checked (heap ≡ wheel ≡ mega)"),
        Runtime::Des => label.ends_with(", checked (heap ≡ wheel)"),
    }
}

#[test]
fn every_plan_the_rule_book_accepts_runs() {
    let cells: usize = AXES.iter().map(|axis| axis.len()).product();
    let (mut accepted, mut checked, mut rendered) = (0, 0, 0);
    let mut broken: Vec<String> = Vec::new();
    for cell in 0..cells {
        let mut rest = cell;
        let picks = AXES.map(|axis| {
            let pick = axis[rest % axis.len()];
            rest /= axis.len();
            pick
        });
        let flags = format!(
            "--scheme multitree --n 12 --track 8 --horizon 120 {}",
            picks.join(" ")
        );
        let argv: Vec<String> = flags.split_whitespace().map(str::to_string).collect();
        let plan = RunPlan::from_args(&ArgMap::parse(&argv).unwrap())
            .unwrap_or_else(|e| panic!("`{flags}` must parse: {e}"));
        if plan.validate().is_err() {
            continue;
        }
        accepted += 1;
        if plan.check {
            checked += 1;
            if !names_its_check(&plan) {
                broken.push(format!("`{flags}` is labelled `{}`", plan.label()));
            }
        }
        if let Some(why) = verdict(|| plan.run(&Telemetry::disabled())) {
            broken.push(format!("run `{flags}`: {why}"));
        }
        if plan.scenario.is_some() {
            rendered += 1;
            let cli = [vec!["simulate".to_string()], argv].concat();
            if let Some(why) = verdict(|| clustream_cli::run(&cli)) {
                broken.push(format!("simulate `{flags}`: {why}"));
            }
        }
    }
    assert!(broken.is_empty(), "{}", broken.join("\n"));
    // The lattice is worth its name: both verdicts of the rule book and
    // the report path are all well populated.
    let rejected = cells - accepted;
    assert_eq!(cells, 1728);
    assert!(
        accepted >= 100 && rejected >= 100 && checked >= 40 && rendered >= 40,
        "{accepted} accepted ({checked} checked), {rejected} rejected, {rendered} rendered"
    );
}

//! Scenario plans: scripted flash crowds and correlated regional
//! failures, compiled to replayable [`ChurnTrace`]s.
//!
//! Where [`ChurnTrace::generate`] samples *statistical* churn (Poisson
//! arrivals, exponential lifetimes), a [`ScenarioPlan`] scripts the
//! *shape* of a crowd deterministically: join-rate curves (step, ramp,
//! spike-train) plus correlated regional failures that take out a
//! contiguous id range in one slot. [`ScenarioPlan::compile`] expands
//! the script into ordinary `ChurnTrace` events, so every consumer of
//! churn traces — the slot engines via the crowd scheme, the DES, the
//! differential oracles — replays a scenario bit-identically.
//!
//! Entries are split by the shared spec tokenizer
//! ([`clustream_core::spec`]); this grammar adds the curve kinds, the
//! `LO-HI` id range, trimmed numbers and the size bounds:
//!
//! ```text
//! KIND:ARGS@START[+DUR][=PARAM]
//!
//! step:1000@20          1000 joins, all in slot 20
//! ramp:1000@20+50       1000 joins spread evenly over slots 20..70
//! spikes:200@10+30=5    5 spikes of 200 joins at slots 10,40,70,100,130
//! fail:3-6@40           members 3..=6 fail together in slot 40
//! ```

use crate::churn::{ChurnAction, ChurnEvent, ChurnTrace, ChurnTraceConfig};
use clustream_core::{spec, CoreError};
use serde::{Deserialize, Serialize};
use std::collections::TryReserveError;
use std::fmt;

/// One join-rate curve: when the crowd arrives and how it is shaped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinCurve {
    /// `joins` arrivals, all in slot `at`.
    Step {
        /// Total joins in the step.
        joins: u64,
        /// Slot the step fires.
        at: u64,
    },
    /// `joins` arrivals spread evenly over `start .. start + duration`.
    Ramp {
        /// Total joins in the ramp.
        joins: u64,
        /// First slot of the ramp.
        start: u64,
        /// Slots the ramp spans (≥ 1).
        duration: u64,
    },
    /// `count` spikes of `joins` arrivals each, at `start`,
    /// `start + period`, `start + 2·period`, …
    SpikeTrain {
        /// Joins per spike.
        joins: u64,
        /// Slot of the first spike.
        start: u64,
        /// Slots between consecutive spikes (≥ 1).
        period: u64,
        /// Number of spikes (≥ 1).
        count: u64,
    },
}

impl JoinCurve {
    /// The grammar's kind label.
    pub fn label(&self) -> &'static str {
        match self {
            JoinCurve::Step { .. } => "step",
            JoinCurve::Ramp { .. } => "ramp",
            JoinCurve::SpikeTrain { .. } => "spikes",
        }
    }

    /// Total arrivals the curve contributes.
    pub fn total_joins(&self) -> u64 {
        match *self {
            JoinCurve::Step { joins, .. } | JoinCurve::Ramp { joins, .. } => joins,
            JoinCurve::SpikeTrain { joins, count, .. } => joins * count,
        }
    }

    /// Last slot the curve fires an event in.
    pub fn last_slot(&self) -> u64 {
        match *self {
            JoinCurve::Step { at, .. } => at,
            JoinCurve::Ramp {
                joins,
                start,
                duration,
            } => {
                // The last join lands at the last occupied ramp slot.
                // (u128: JOINS·DUR can exceed u64 for a parsed plan.)
                let spread = (joins.max(1) - 1) as u128 * duration as u128;
                match spread.checked_div(joins as u128) {
                    Some(off) => start + off as u64,
                    None => start,
                }
            }
            JoinCurve::SpikeTrain {
                start,
                period,
                count,
                ..
            } => start + period * count.saturating_sub(1),
        }
    }

    /// Expand the curve into per-slot join counts, appended to `out`
    /// as `(slot, joins_in_slot)` pairs in ascending slot order; `out`
    /// grows fallibly (a spike train's count is the spec's to choose).
    fn expand(&self, out: &mut Vec<(u64, u64)>) -> Result<(), TryReserveError> {
        match *self {
            JoinCurve::Step { joins, at } => {
                if joins > 0 {
                    out.try_reserve(1)?;
                    out.push((at, joins));
                }
            }
            JoinCurve::Ramp {
                joins,
                start,
                duration,
            } => {
                // Deterministic even spread: join i lands at
                // start + ⌊i·duration/joins⌋, in u128: the products can
                // exceed u64 for a parsed plan.
                let (n, dur) = (joins as u128, duration as u128);
                let mut i = 0;
                while i < n {
                    let off = i * dur / n;
                    let next = ((off + 1) * n).div_ceil(dur);
                    let here = next.min(n) - i;
                    out.try_reserve(1)?;
                    out.push((start + off as u64, here as u64));
                    i += here;
                }
            }
            JoinCurve::SpikeTrain {
                joins,
                start,
                period,
                count,
            } => {
                for k in 0..count {
                    if joins > 0 {
                        out.try_reserve(1)?;
                        out.push((start + k * period, joins));
                    }
                }
            }
        }
        Ok(())
    }
}

/// A correlated regional failure: every current member with external id
/// in `lo ..= hi` fails together in slot `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionalFailure {
    /// Lowest external id in the region (inclusive).
    pub lo: u64,
    /// Highest external id in the region (inclusive).
    pub hi: u64,
    /// Slot the region goes down.
    pub at: u64,
}

/// A deterministic scenario script: join curves plus regional failures.
///
/// Compile with [`ScenarioPlan::compile`]; parse from / render to the
/// `--scenario` grammar with [`ScenarioPlan::parse`] and
/// [`fmt::Display`].
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ScenarioPlan {
    /// Join-rate curves, in spec order.
    pub curves: Vec<JoinCurve>,
    /// Correlated regional failures, in spec order.
    pub failures: Vec<RegionalFailure>,
}

impl ScenarioPlan {
    /// Parse a comma-separated `--scenario` spec. Errors name the
    /// offending entry and restate the expected format.
    ///
    /// Sizes are bounded here, so no later stage loops or wraps on a
    /// hostile spec: total joins and every failed id fit the `u32` node
    /// id space, and each entry's last slot fits `u64`.
    pub fn parse(s: &str) -> Result<Self, String> {
        const IDS: u64 = u32::MAX as u64;
        let mut plan = ScenarioPlan::default();
        let (mut joined, mut failed) = (0u64, 0u64);
        for e in spec::entries("scenario", s) {
            let e = e.trim();
            let Some(at) = e.arg.and_then(spec::at) else {
                return Err(e.expected(
                    "KIND:ARGS@START[+DUR][=PARAM]",
                    "step:1000@20, ramp:1000@20+50, spikes:200@10+30=5, fail:3-6@40",
                ));
            };
            let int = |s: &str, what| e.int::<u64>(s.trim(), what);
            let dur = at.dur.map(|d| int(d, "DUR")).transpose()?;
            let start = int(at.start, "START")?;
            let at_least_1 = |n: u64, what: &str| match n {
                0 => Err(e.bad(&format!("{what} must be at least 1"))),
                n => Ok(n),
            };
            let joins = || at_least_1(int(at.target, "JOINS")?, "JOINS");
            // Per kind: the joins the entry adds and the slots it spans
            // (`None`: the product overflowed).
            let (added, span) = match e.head {
                "step" => {
                    let joins = joins()?;
                    if dur.is_some() || at.param.is_some() {
                        return Err(e.bad("step takes no `+DUR` or `=PARAM`"));
                    }
                    plan.curves.push(JoinCurve::Step { joins, at: start });
                    (Some(joins), Some(1))
                }
                "ramp" => {
                    let joins = joins()?;
                    let duration = dur.ok_or_else(|| e.bad("ramp needs `+DUR` (slots spanned)"))?;
                    let duration = at_least_1(duration, "DUR")?;
                    if at.param.is_some() {
                        return Err(e.bad("ramp takes no `=PARAM`"));
                    }
                    plan.curves.push(JoinCurve::Ramp {
                        joins,
                        start,
                        duration,
                    });
                    (Some(joins), Some(duration))
                }
                "spikes" => {
                    let joins = joins()?;
                    let period =
                        dur.ok_or_else(|| e.bad("spikes needs `+PERIOD` (slots between)"))?;
                    let period = at_least_1(period, "PERIOD")?;
                    let count = at.param.ok_or_else(|| e.bad("spikes needs `=COUNT`"))?;
                    let count = at_least_1(int(count, "COUNT")?, "COUNT")?;
                    plan.curves.push(JoinCurve::SpikeTrain {
                        joins,
                        start,
                        period,
                        count,
                    });
                    (joins.checked_mul(count), period.checked_mul(count))
                }
                "fail" => {
                    let Some((lo, hi)) = at.target.split_once('-') else {
                        return Err(e.bad("fail needs an id range `LO-HI`"));
                    };
                    let (lo, hi) = (int(lo, "LO")?, int(hi, "HI")?);
                    if lo == 0 {
                        return Err(e.bad("LO must be at least 1 (node 0 is the source)"));
                    }
                    if lo > hi {
                        return Err(e.bad("LO must not exceed HI"));
                    }
                    if dur.is_some() || at.param.is_some() {
                        return Err(e.bad("fail takes no `+DUR` or `=PARAM`"));
                    }
                    if hi > IDS {
                        return Err(e.bad("HI must fit the u32 node id space"));
                    }
                    failed = failed
                        .checked_add(hi - lo + 1)
                        .ok_or_else(|| e.bad("regional failures overflow a u64 count"))?;
                    plan.failures.push(RegionalFailure { lo, hi, at: start });
                    (Some(0), Some(1))
                }
                other => {
                    return Err(format!(
                        "unknown --scenario curve kind `{other}`; valid kinds are: step, ramp, spikes, fail"
                    ));
                }
            };
            joined = added
                .and_then(|j| joined.checked_add(j))
                .filter(|&total| total <= IDS)
                .ok_or_else(|| e.bad("total joins must fit the u32 node id space"))?;
            if span.and_then(|d| start.checked_add(d)).is_none() {
                return Err(e.bad("START plus the slots spanned overflows u64"));
            }
        }
        Ok(plan)
    }

    /// Total arrivals across every curve.
    pub fn total_joins(&self) -> u64 {
        self.curves.iter().map(JoinCurve::total_joins).sum()
    }

    /// Last slot any scripted event fires in.
    pub fn last_event_slot(&self) -> u64 {
        let c = self.curves.iter().map(JoinCurve::last_slot).max();
        let f = self.failures.iter().map(|f| f.at).max();
        c.into_iter().chain(f).max().unwrap_or(0)
    }

    /// Compile the script against an initial population of
    /// `initial_members` (external ids `1..=initial_members`) into a
    /// replayable [`ChurnTrace`].
    ///
    /// Joins become `ChurnAction::Join` events; each regional failure
    /// becomes one `Leave` per present member of the region, with the
    /// victim *rank* computed against the membership the trace itself
    /// produces — so `ChurnTrace::resolve(&[1..=n0], &[])` maps every
    /// `Leave` back to exactly the region's external ids. Within a
    /// slot, joins land before failures. A script whose events do not fit
    /// in memory is an `InvalidConfig` error, not an allocator abort.
    pub fn compile(&self, initial_members: usize) -> Result<ChurnTrace, CoreError> {
        let oom = |_: TryReserveError| {
            CoreError::InvalidConfig(format!(
                "a scenario of {initial_members} initial members and {} joins does not fit in \
                 memory",
                self.total_joins()
            ))
        };
        // Per-slot join totals, merged across curves.
        let mut joins: Vec<(u64, u64)> = Vec::new();
        for c in &self.curves {
            c.expand(&mut joins).map_err(oom)?;
        }
        joins.sort_by_key(|&(slot, _)| slot);

        let mut failures = self.failures.clone();
        failures.sort_by_key(|f| f.at);

        // Membership simulation mirroring `ChurnTrace::resolve`: sorted
        // external ids, fresh joins take max + 1.
        let mut members: Vec<u64> = Vec::new();
        members.try_reserve_exact(initial_members).map_err(oom)?;
        members.extend(1..=initial_members as u64);
        let mut next = initial_members as u64 + 1;
        let mut events = Vec::new();
        let (mut ji, mut fi) = (0usize, 0usize);
        while ji < joins.len() || fi < failures.len() {
            let js = joins.get(ji).map(|&(s, _)| s).unwrap_or(u64::MAX);
            let fs = failures.get(fi).map(|f| f.at).unwrap_or(u64::MAX);
            // Joins land before failures within the same slot.
            if js <= fs {
                let (slot, n) = joins[ji];
                events.try_reserve(n as usize).map_err(oom)?;
                members.try_reserve(n as usize).map_err(oom)?;
                for _ in 0..n {
                    events.push(ChurnEvent {
                        slot,
                        action: ChurnAction::Join,
                    });
                    members.push(next);
                    next += 1;
                }
                ji += 1;
            } else {
                // The region's present members are one contiguous run of
                // the sorted membership; each leaves from the run's head.
                let f = failures[fi];
                let head = members.partition_point(|&m| m < f.lo);
                let tail = members.partition_point(|&m| m <= f.hi);
                events.try_reserve(tail - head).map_err(oom)?;
                for _ in head..tail {
                    events.push(ChurnEvent {
                        slot: f.at,
                        action: ChurnAction::Leave { victim_rank: head },
                    });
                }
                members.drain(head..tail);
                fi += 1;
            }
        }

        Ok(ChurnTrace {
            config: ChurnTraceConfig {
                initial_members,
                slots: self.last_event_slot() + 1,
                join_rate: 0.0,
                leave_rate: 0.0,
                rejoin_rate: 0.0,
                seed: 0,
            },
            events,
        })
    }
}

impl fmt::Display for ScenarioPlan {
    /// Render the canonical spec string; `parse(format!("{plan}"))`
    /// round-trips.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        for c in &self.curves {
            let parts: [Option<&dyn fmt::Display>; 4] = match c {
                JoinCurve::Step { joins, at } => [Some(joins), Some(at), None, None],
                JoinCurve::Ramp {
                    joins,
                    start,
                    duration,
                } => [Some(joins), Some(start), Some(duration), None],
                JoinCurve::SpikeTrain {
                    joins,
                    start,
                    period,
                    count,
                } => [Some(joins), Some(start), Some(period), Some(count)],
            };
            spec::push_entry(&mut out, &c.label(), parts);
        }
        for r in &self.failures {
            let range = format!("{}-{}", r.lo, r.hi);
            spec::push_entry(&mut out, &"fail", [Some(&range), Some(&r.at), None, None]);
        }
        f.write_str(&out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ResolvedChurnAction;
    use proptest::prelude::*;

    #[test]
    fn step_compiles_to_joins_in_one_slot() {
        let plan = ScenarioPlan::parse("step:5@20").unwrap();
        let trace = plan.compile(4).unwrap();
        assert_eq!(trace.events.len(), 5);
        assert!(trace
            .events
            .iter()
            .all(|e| e.slot == 20 && e.action == ChurnAction::Join));
        assert_eq!(trace.config.initial_members, 4);
        assert_eq!(plan.total_joins(), 5);
        assert_eq!(plan.last_event_slot(), 20);
    }

    #[test]
    fn ramp_spreads_joins_evenly() {
        let plan = ScenarioPlan::parse("ramp:10@5+5").unwrap();
        let trace = plan.compile(2).unwrap();
        assert_eq!(trace.events.len(), 10);
        for slot in 5..10 {
            assert_eq!(
                trace.events.iter().filter(|e| e.slot == slot).count(),
                2,
                "slot {slot}"
            );
        }
        // Sparse ramp: fewer joins than slots still lands every join.
        let plan = ScenarioPlan::parse("ramp:3@0+10").unwrap();
        let slots: Vec<u64> = plan
            .compile(2)
            .unwrap()
            .events
            .iter()
            .map(|e| e.slot)
            .collect();
        assert_eq!(slots, vec![0, 3, 6]);
        assert_eq!(plan.last_event_slot(), 6);
    }

    #[test]
    fn spike_train_fires_on_the_period() {
        let plan = ScenarioPlan::parse("spikes:2@10+30=3").unwrap();
        let trace = plan.compile(2).unwrap();
        assert_eq!(trace.events.len(), 6);
        let slots: Vec<u64> = trace.events.iter().map(|e| e.slot).collect();
        assert_eq!(slots, vec![10, 10, 40, 40, 70, 70]);
        assert_eq!(plan.last_event_slot(), 70);
    }

    #[test]
    fn regional_failure_resolves_to_the_region_ids() {
        let plan = ScenarioPlan::parse("step:3@1,fail:2-3@4").unwrap();
        let trace = plan.compile(4).unwrap();
        let initial: Vec<u64> = (1..=4).collect();
        let resolved = trace.resolve(&initial, &[]).unwrap();
        let left: Vec<u64> = resolved
            .iter()
            .filter_map(|e| match e.action {
                ResolvedChurnAction::Leave { ext } => Some(ext),
                _ => None,
            })
            .collect();
        assert_eq!(left, vec![2, 3]);
        // Joins got fresh monotone ids above the initial population.
        let joined: Vec<u64> = resolved
            .iter()
            .filter_map(|e| match e.action {
                ResolvedChurnAction::Join { ext } => Some(ext),
                _ => None,
            })
            .collect();
        assert_eq!(joined, vec![5, 6, 7]);
    }

    #[test]
    fn failure_region_covering_joiners_resolves_to_them() {
        // Region 5-6 only exists because the step created ids 5..=7.
        let plan = ScenarioPlan::parse("step:3@0,fail:5-6@2").unwrap();
        let trace = plan.compile(4).unwrap();
        let resolved = trace.resolve(&(1..=4).collect::<Vec<_>>(), &[]).unwrap();
        let left: Vec<u64> = resolved
            .iter()
            .filter_map(|e| match e.action {
                ResolvedChurnAction::Leave { ext } => Some(ext),
                _ => None,
            })
            .collect();
        assert_eq!(left, vec![5, 6]);
    }

    #[test]
    fn absent_region_members_are_skipped() {
        // Ids 9..12 never exist: the failure compiles to zero events.
        let plan = ScenarioPlan::parse("fail:9-12@4").unwrap();
        assert!(plan.compile(4).unwrap().events.is_empty());
    }

    #[test]
    fn unknown_kind_lists_valid_kinds() {
        let err = ScenarioPlan::parse("flood:10@0").unwrap_err();
        assert!(
            err.contains("unknown --scenario curve kind `flood`"),
            "{err}"
        );
        assert!(err.contains("step, ramp, spikes, fail"), "{err}");
    }

    #[test]
    fn malformed_entries_name_the_entry_and_reason() {
        for (spec, needle) in [
            ("step10@0", "expected KIND:ARGS@START"),
            ("step:0@5", "JOINS must be at least 1"),
            ("ramp:10@5", "ramp needs `+DUR`"),
            ("ramp:10@5+0", "DUR must be at least 1"),
            ("spikes:5@0+10", "spikes needs `=COUNT`"),
            ("spikes:5@0+0=2", "PERIOD must be at least 1"),
            ("fail:6@2", "fail needs an id range `LO-HI`"),
            ("fail:7-3@2", "LO must not exceed HI"),
            ("fail:0-3@2", "LO must be at least 1"),
            ("step:x@5", "JOINS must be a non-negative integer"),
        ] {
            let err = ScenarioPlan::parse(spec).unwrap_err();
            assert!(err.contains("bad --scenario entry"), "{spec}: {err}");
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn hostile_sizes_are_rejected_at_parse() {
        for (spec, needle) in [
            // Each of these used to hang `simulate` or wrap its horizon.
            ("step:18446744073709551615@0", "total joins must fit"),
            ("fail:1-18446744073709551615@3", "HI must fit"),
            ("spikes:4294967296@0+1=4294967296", "total joins must fit"),
            ("spikes:65536@0+1=65536", "total joins must fit"),
            ("step:4294967295@0,step:1@1", "total joins must fit"),
            ("step:1@18446744073709551615", "overflows u64"),
            ("ramp:5@18446744073709551615+50", "overflows u64"),
            ("spikes:1@5+9223372036854775808=2", "overflows u64"),
        ] {
            let err = ScenarioPlan::parse(spec).unwrap_err();
            assert!(err.contains("bad --scenario entry"), "{spec}: {err}");
            assert!(err.contains(needle), "{spec}: {err}");
        }
        // The bounds themselves are accepted, and a failure region far
        // wider than the membership compiles in membership time.
        let plan = ScenarioPlan::parse("step:4294967295@18446744073709551614,fail:1-4294967295@0")
            .unwrap();
        assert_eq!(plan.total_joins(), u32::MAX as u64);
        let wide = ScenarioPlan::parse("fail:2-4294967295@0").unwrap();
        assert_eq!(wide.compile(5).unwrap().events.len(), 4);
    }

    #[test]
    fn ramp_wider_than_u64_products_spreads_exactly() {
        // i·DUR overflows u64 from the second join on.
        let plan = ScenarioPlan::parse("ramp:3@1+18446744073709551613").unwrap();
        let slots: Vec<u64> = plan
            .compile(0)
            .unwrap()
            .events
            .iter()
            .map(|e| e.slot)
            .collect();
        let third = 18446744073709551613 / 3;
        assert_eq!(slots, vec![1, 1 + third, 1 + 2 * third]);
        assert_eq!(plan.last_event_slot(), 1 + 2 * third);
    }

    fn build_curve(kind: u32, joins: u64, start: u64, span: u64, count: u64) -> JoinCurve {
        match kind {
            0 => JoinCurve::Step { joins, at: start },
            1 => JoinCurve::Ramp {
                joins,
                start,
                duration: span,
            },
            _ => JoinCurve::SpikeTrain {
                joins,
                start,
                period: span,
                count,
            },
        }
    }

    proptest! {
        #[test]
        fn spec_format_parse_round_trips(
            raw in proptest::collection::vec(
                ((0u32..3, 1u64..500), (0u64..100, 1u64..60, 1u64..6)), 1..4),
            fails in proptest::collection::vec(
                (1u64..40, 0u64..40, 0u64..100), 0..3),
        ) {
            let plan = ScenarioPlan {
                curves: raw
                    .into_iter()
                    .map(|((k, j), (s, sp, c))| build_curve(k, j, s, sp, c))
                    .collect(),
                failures: fails
                    .into_iter()
                    .map(|(lo, extra, at)| RegionalFailure { lo, hi: lo + extra, at })
                    .collect(),
            };
            let rendered = plan.to_string();
            let reparsed = ScenarioPlan::parse(&rendered).unwrap();
            prop_assert_eq!(reparsed, plan);
        }

        #[test]
        fn compiled_joins_match_the_plan_total(
            raw in proptest::collection::vec(
                ((0u32..3, 1u64..500), (0u64..100, 1u64..60, 1u64..6)), 1..4),
            n0 in 2usize..12,
        ) {
            let plan = ScenarioPlan {
                curves: raw
                    .into_iter()
                    .map(|((k, j), (s, sp, c))| build_curve(k, j, s, sp, c))
                    .collect(),
                failures: vec![],
            };
            let trace = plan.compile(n0).unwrap();
            prop_assert_eq!(trace.events.len() as u64, plan.total_joins());
            // Events are slot-sorted, none past the advertised last slot.
            let slots: Vec<u64> = trace.events.iter().map(|e| e.slot).collect();
            let mut sorted = slots.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&slots, &sorted);
            prop_assert!(slots.last().copied().unwrap_or(0) <= plan.last_event_slot());
        }
    }
}

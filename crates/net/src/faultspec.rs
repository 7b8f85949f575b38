//! `--chaos` specification parsing: which faults the chaos layer injects
//! into the networked data path, where, and when.
//!
//! Entries are split by the shared spec tokenizer
//! ([`clustream_core::spec`]); this grammar adds the fault kinds, the
//! target shapes and the `SLOTS~JITTER` parameter:
//!
//! ```text
//! KIND:TARGET@START[+DUR][=PARAM]
//!
//! drop:3@10+40=0.05        node 3's outbound frames drop at 5% for 40 slots
//! drop:0>5@0=0.1           only the 0→5 link, 10%, until the run ends
//! dup:2@0+60=0.3           duplicate 30% of node 2's outbound frames
//! reorder:2@0=0.25         swap 25% of frames behind their successor
//! delay:4@8+32=2~1         +2 slots outbound delay, up to +1 slot jitter
//! partition:2/5@20+30      no frames between 2 and 5 (either way) for 30 slots
//! gray:4@0=3               node 4 is slow-but-alive: +3 slots on everything
//! ```
//!
//! `TARGET` is a node (all its outbound links), a directed link `A>B`
//! (drop/dup/reorder/delay only), or an unordered pair `A/B` (partition
//! only). Rates are probabilities in `[0,1]`; delays are in slots. The
//! parsed entries ship to every node inside its `NodeConfig` and into
//! the recorded `RunTrace`, so a chaos run documents its own schedule.

use clustream_core::spec::{self, Entry};
use serde::{Deserialize, Serialize};

/// Which frames a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChaosTarget {
    /// Every outbound link of one node.
    Node(u32),
    /// One directed link `from → to`.
    Link(u32, u32),
    /// An unordered pair: frames in either direction (partitions).
    Pair(u32, u32),
}

/// What the fault does to a matched frame.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChaosKind {
    /// Drop the frame with probability `rate`.
    Drop {
        /// Per-frame drop probability in `[0,1]`.
        rate: f64,
    },
    /// Send the frame twice with probability `rate`.
    Dup {
        /// Per-frame duplication probability in `[0,1]`.
        rate: f64,
    },
    /// Hold the frame behind its successor with probability `rate`.
    Reorder {
        /// Per-frame reorder probability in `[0,1]`.
        rate: f64,
    },
    /// Delay every matched frame by `slots`, plus up to `jitter_slots`
    /// of seeded per-frame jitter.
    Delay {
        /// Fixed extra wire delay, in slots.
        slots: u64,
        /// Additional per-frame jitter bound, in slots.
        jitter_slots: u64,
    },
    /// A bidirectional blackout: every matched frame is dropped.
    Partition,
    /// A gray failure: the node is alive but slow — every outbound frame
    /// is delayed by `slots`.
    Gray {
        /// Slowdown applied to every outbound frame, in slots.
        slots: u64,
    },
}

impl ChaosKind {
    /// The grammar's kind label.
    pub fn label(&self) -> &'static str {
        match self {
            ChaosKind::Drop { .. } => "drop",
            ChaosKind::Dup { .. } => "dup",
            ChaosKind::Reorder { .. } => "reorder",
            ChaosKind::Delay { .. } => "delay",
            ChaosKind::Partition => "partition",
            ChaosKind::Gray { .. } => "gray",
        }
    }
}

/// One scheduled fault: `kind` applied to `target` from slot `start`,
/// for `duration` slots (`None` = until the run ends).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChaosSpec {
    /// The fault.
    pub kind: ChaosKind,
    /// The frames it matches.
    pub target: ChaosTarget,
    /// First slot the fault is active.
    pub start: u64,
    /// Slots the fault stays active; `None` = rest of the run.
    pub duration: Option<u64>,
}

impl ChaosSpec {
    /// Whether the fault is active at `slot`.
    pub fn active(&self, slot: u64) -> bool {
        slot >= self.start
            && match self.duration {
                Some(d) => slot < self.start.saturating_add(d),
                None => true,
            }
    }

    /// Whether the fault matches a frame `from → to` sent at `slot`.
    pub fn applies(&self, from: u32, to: u32, slot: u64) -> bool {
        self.active(slot)
            && match self.target {
                ChaosTarget::Node(n) => from == n,
                ChaosTarget::Link(a, b) => from == a && to == b,
                ChaosTarget::Pair(a, b) => (from == a && to == b) || (from == b && to == a),
            }
    }

    /// Every node id the spec names (population-bound validation).
    pub fn nodes(&self) -> [u32; 2] {
        match self.target {
            ChaosTarget::Node(n) => [n, n],
            ChaosTarget::Link(a, b) | ChaosTarget::Pair(a, b) => [a, b],
        }
    }
}

/// `=RATE`: a probability.
fn rate(e: &Entry, param: Option<&str>) -> Result<f64, String> {
    let param = param.ok_or_else(|| e.bad("this kind needs `=RATE`"))?;
    match param.parse() {
        Ok(rate) if (0.0..=1.0).contains(&rate) => Ok(rate),
        _ => Err(e.bad("RATE must be a number in [0,1]")),
    }
}

/// `=SLOTS[~JITTER]`.
fn slots(e: &Entry, param: Option<&str>) -> Result<(u64, u64), String> {
    let param =
        param.ok_or_else(|| e.bad("this kind needs `=SLOTS` (optionally `=SLOTS~JITTER`)"))?;
    let (fixed, jitter) = spec::split(param, '~');
    Ok((
        e.int(fixed, "SLOTS")?,
        jitter.map_or(Ok(0), |j| e.int(j, "JITTER"))?,
    ))
}

/// Parse a comma-separated `--chaos` fault list. Errors name the
/// offending entry and restate the expected format.
pub fn parse_chaos_spec(s: &str) -> Result<Vec<ChaosSpec>, String> {
    spec::entries("chaos", s)
        .map(|e| {
            let e = e.trim();
            let Some(at) = e.arg.and_then(spec::at) else {
                return Err(e.expected("KIND:TARGET@START[+DUR][=PARAM]", "drop:3@10+40=0.05"));
            };
            let duration = at.dur.map(|d| e.int(d, "DUR")).transpose()?;
            let start = e.int(at.start, "START")?;
            let node = |s| e.int(s, "TARGET");
            let target = match (spec::split(at.target, '/'), spec::split(at.target, '>')) {
                ((a, Some(b)), _) => ChaosTarget::Pair(node(a)?, node(b)?),
                (_, (a, Some(b))) => ChaosTarget::Link(node(a)?, node(b)?),
                _ => ChaosTarget::Node(node(at.target)?),
            };
            let kind = match e.head {
                "drop" => ChaosKind::Drop {
                    rate: rate(&e, at.param)?,
                },
                "dup" => ChaosKind::Dup {
                    rate: rate(&e, at.param)?,
                },
                "reorder" => ChaosKind::Reorder {
                    rate: rate(&e, at.param)?,
                },
                "delay" => {
                    let (slots, jitter_slots) = slots(&e, at.param)?;
                    ChaosKind::Delay {
                        slots,
                        jitter_slots,
                    }
                }
                "partition" if at.param.is_some() => {
                    return Err(e.bad("partition takes no `=PARAM`"));
                }
                "partition" => ChaosKind::Partition,
                "gray" => match slots(&e, at.param)? {
                    (slots, 0) => ChaosKind::Gray { slots },
                    _ => return Err(e.bad("gray takes `=SLOTS` with no jitter")),
                },
                other => {
                    return Err(format!(
                        "unknown --chaos fault kind `{other}`; valid kinds are: drop, dup, reorder, delay, \
                         partition, gray"
                    ))
                }
            };
            let misfit = match (kind, target) {
                (ChaosKind::Partition, ChaosTarget::Pair(a, b)) => {
                    (a == b).then_some("partition needs two distinct nodes")
                }
                (ChaosKind::Partition, _) => Some("partition takes a node pair A/B"),
                (_, ChaosTarget::Pair(..)) => Some("only partition takes a node pair A/B"),
                (ChaosKind::Gray { .. }, ChaosTarget::Link(..)) => {
                    Some("gray targets a whole node, not a link")
                }
                _ => None,
            };
            if let Some(why) = misfit {
                return Err(e.bad(why));
            }
            Ok(ChaosSpec {
                kind,
                target,
                start,
                duration,
            })
        })
        .collect()
}

/// Render a fault list back to the `--chaos` syntax (the proptest
/// round-trip partner of [`parse_chaos_spec`]).
pub fn format_chaos_spec(specs: &[ChaosSpec]) -> String {
    let mut out = String::new();
    for s in specs {
        let target = match s.target {
            ChaosTarget::Node(n) => n.to_string(),
            ChaosTarget::Link(a, b) => format!("{a}>{b}"),
            ChaosTarget::Pair(a, b) => format!("{a}/{b}"),
        };
        let param = match s.kind {
            ChaosKind::Drop { rate } | ChaosKind::Dup { rate } | ChaosKind::Reorder { rate } => {
                Some(rate.to_string())
            }
            ChaosKind::Delay {
                slots,
                jitter_slots: j @ 1..,
            } => Some(format!("{slots}~{j}")),
            ChaosKind::Delay { slots, .. } | ChaosKind::Gray { slots } => Some(slots.to_string()),
            ChaosKind::Partition => None,
        };
        let parts = [
            Some(&target as _),
            Some(&s.start as _),
            s.duration.as_ref().map(|d| d as _),
            param.as_ref().map(|p| p as _),
        ];
        spec::push_entry(&mut out, &s.kind.label(), parts);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_every_kind() {
        let specs = parse_chaos_spec(
            "drop:3@10+40=0.05, dup:2@0=0.3, reorder:0>5@4+8=0.25, \
             delay:4@8+32=2~1, partition:2/5@20+30, gray:4@0=3",
        )
        .unwrap();
        assert_eq!(specs.len(), 6);
        assert_eq!(
            specs[0],
            ChaosSpec {
                kind: ChaosKind::Drop { rate: 0.05 },
                target: ChaosTarget::Node(3),
                start: 10,
                duration: Some(40),
            }
        );
        assert_eq!(specs[2].target, ChaosTarget::Link(0, 5));
        assert_eq!(specs[4].kind, ChaosKind::Partition);
        assert_eq!(specs[4].target, ChaosTarget::Pair(2, 5));
        assert_eq!(specs[5].duration, None);
    }

    #[test]
    fn unknown_kind_lists_valid_kinds() {
        let err = parse_chaos_spec("scramble:3@0=0.5").unwrap_err();
        assert!(
            err.contains("unknown --chaos fault kind `scramble`"),
            "{err}"
        );
        for k in ["drop", "dup", "reorder", "delay", "partition", "gray"] {
            assert!(err.contains(k), "missing `{k}` in: {err}");
        }
    }

    #[test]
    fn malformed_entries_name_the_entry_and_the_format() {
        for bad in ["", "drop", "drop:3", "3@4", "drop:@4=0.5", "drop:3@x=0.5"] {
            let err = parse_chaos_spec(bad).unwrap_err();
            assert!(err.contains("bad --chaos"), "`{bad}` → {err}");
        }
        let err = parse_chaos_spec("drop:3@1=0.5,bogus").unwrap_err();
        assert!(err.contains("`bogus`"), "{err}");
        assert!(err.contains("KIND:TARGET@START"), "{err}");
    }

    #[test]
    fn rates_are_bounded_and_numeric() {
        for bad in ["drop:3@0=1.5", "drop:3@0=-0.1", "drop:3@0=zeal", "dup:3@0"] {
            let err = parse_chaos_spec(bad).unwrap_err();
            assert!(
                err.contains("RATE") || err.contains("needs `=RATE`"),
                "`{bad}` → {err}"
            );
        }
        // Boundary rates are fine.
        assert!(parse_chaos_spec("drop:3@0=0").is_ok());
        assert!(parse_chaos_spec("drop:3@0=1").is_ok());
    }

    #[test]
    fn target_shapes_are_validated_per_kind() {
        let err = parse_chaos_spec("partition:3@0").unwrap_err();
        assert!(err.contains("node pair A/B"), "{err}");
        let err = parse_chaos_spec("partition:3/3@0").unwrap_err();
        assert!(err.contains("distinct"), "{err}");
        let err = parse_chaos_spec("drop:2/5@0=0.5").unwrap_err();
        assert!(err.contains("only partition"), "{err}");
        let err = parse_chaos_spec("gray:2>5@0=3").unwrap_err();
        assert!(err.contains("whole node"), "{err}");
        let err = parse_chaos_spec("partition:2/5@0=0.5").unwrap_err();
        assert!(err.contains("no `=PARAM`"), "{err}");
    }

    #[test]
    fn windows_and_matching() {
        let s = parse_chaos_spec("drop:3@10+5=0.5").unwrap()[0];
        assert!(!s.active(9));
        assert!(s.active(10));
        assert!(s.active(14));
        assert!(!s.active(15));
        assert!(s.applies(3, 7, 12));
        assert!(!s.applies(7, 3, 12), "Node target is outbound-only");

        let p = parse_chaos_spec("partition:2/5@0").unwrap()[0];
        assert!(
            p.applies(2, 5, 0) && p.applies(5, 2, 0),
            "pairs are bidirectional"
        );
        assert!(!p.applies(2, 6, 0));
    }

    /// Build one valid spec from raw sampled integers: `kind_sel` picks
    /// the fault, `target_sel` the target shape (coerced to whatever the
    /// kind allows), rates come from `rate_raw / 10_000` so every value
    /// is exactly representable and survives the decimal round-trip.
    #[allow(clippy::too_many_arguments)]
    fn build_spec(
        kind_sel: u32,
        a: u32,
        b: u32,
        start: u64,
        dur_raw: u64,
        rate_raw: u32,
        slots: u64,
        target_sel: u32,
    ) -> ChaosSpec {
        let rate = rate_raw as f64 / 10_000.0;
        let jitter = (rate_raw % 10) as u64;
        let link_target = if target_sel.is_multiple_of(2) {
            ChaosTarget::Node(a)
        } else {
            ChaosTarget::Link(a, b)
        };
        let (kind, target) = match kind_sel {
            0 => (ChaosKind::Drop { rate }, link_target),
            1 => (ChaosKind::Dup { rate }, link_target),
            2 => (ChaosKind::Reorder { rate }, link_target),
            3 => (
                ChaosKind::Delay {
                    slots,
                    jitter_slots: jitter,
                },
                link_target,
            ),
            4 => {
                let b = if a == b { a + 1 } else { b };
                (ChaosKind::Partition, ChaosTarget::Pair(a, b))
            }
            _ => (ChaosKind::Gray { slots }, ChaosTarget::Node(a)),
        };
        ChaosSpec {
            kind,
            target,
            start,
            duration: (dur_raw > 0).then_some(dur_raw),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// format → parse is the identity on any valid chaos list.
        #[test]
        fn roundtrips(
            raw in proptest::collection::vec(
                ((0u32..6, 0u32..300, 0u32..300, 0u64..10_000),
                 (0u64..500, 0u32..=10_000, 0u64..20, 0u32..3)),
                1..6,
            ),
        ) {
            let specs: Vec<ChaosSpec> = raw
                .into_iter()
                .map(|((k, a, b, start), (dur, rate, slots, tsel))| {
                    build_spec(k, a, b, start, dur, rate, slots, tsel)
                })
                .collect();
            let rendered = format_chaos_spec(&specs);
            prop_assert_eq!(parse_chaos_spec(&rendered).unwrap(), specs);
        }
    }
}

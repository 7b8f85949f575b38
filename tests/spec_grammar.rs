//! The five spec grammars against their hand-written predecessors.
//!
//! `--kill`, `--chaos`, `--scenario`, `--classes` and `plan --clusters`
//! each had a tokenizer of their own before they shared
//! `clustream_core::spec`. Those parsers are kept below verbatim as
//! references, and for each grammar a proptest requires that the shared
//! tokenizer's version returns exactly what the reference returns — the
//! same `Ok` value or the same error text — on arbitrary strings and on
//! grammar-shaped ones (quirks included: `--scenario` trims its numbers,
//! `--kill` and `--chaos` do not, `--classes` trims name and capacity,
//! `plan --clusters` trims nothing, and every split is at the first
//! delimiter).

use clustream::net::{parse_chaos_spec, parse_kill_spec};
use clustream::workloads::ScenarioPlan;
use clustream_cli::commands::parse_clusters;
use clustream_des::CapacityClassPlan;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// `parse_kill_spec` before the shared tokenizer.
mod kill {
    use clustream::net::KillSpec;

    pub fn parse_kill_spec(s: &str) -> Result<Vec<KillSpec>, String> {
        let mut kills = Vec::new();
        for entry in s.split(',') {
            let entry = entry.trim();
            let Some((node, slot)) = entry.split_once('@') else {
                return Err(format!(
                    "bad --kill entry `{entry}`: expected NODE@SLOT (e.g. 5@40, comma-separated)"
                ));
            };
            let node: u32 = node.parse().map_err(|_| {
                format!("bad --kill entry `{entry}`: NODE must be a non-negative integer")
            })?;
            let slot: u64 = slot.parse().map_err(|_| {
                format!("bad --kill entry `{entry}`: SLOT must be a non-negative integer")
            })?;
            if node == 0 {
                return Err("bad --kill entry: node 0 is the source and cannot be killed".into());
            }
            if kills.iter().any(|k: &KillSpec| k.node == node) {
                return Err(format!("bad --kill spec: node {node} is killed twice"));
            }
            kills.push(KillSpec { node, slot });
        }
        Ok(kills)
    }
}

/// `parse_chaos_spec` before the shared tokenizer.
mod chaos {
    use clustream::net::{ChaosKind, ChaosSpec, ChaosTarget};

    const VALID_KINDS: &str = "drop, dup, reorder, delay, partition, gray";
    const FORMAT_HINT: &str =
        "expected KIND:TARGET@START[+DUR][=PARAM] (e.g. drop:3@10+40=0.05, comma-separated)";

    fn bad(entry: &str, why: &str) -> String {
        format!("bad --chaos entry `{entry}`: {why}")
    }

    fn parse_node(entry: &str, s: &str, what: &str) -> Result<u32, String> {
        s.parse()
            .map_err(|_| bad(entry, &format!("{what} must be a non-negative integer")))
    }

    fn parse_rate(entry: &str, s: Option<&str>) -> Result<f64, String> {
        let s = s.ok_or_else(|| bad(entry, "this kind needs `=RATE`"))?;
        let rate: f64 = s
            .parse()
            .map_err(|_| bad(entry, "RATE must be a number in [0,1]"))?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(bad(entry, "RATE must be a number in [0,1]"));
        }
        Ok(rate)
    }

    fn parse_slots(entry: &str, s: Option<&str>) -> Result<(u64, u64), String> {
        let s = s.ok_or_else(|| {
            bad(
                entry,
                "this kind needs `=SLOTS` (optionally `=SLOTS~JITTER`)",
            )
        })?;
        let (fixed, jitter) = match s.split_once('~') {
            Some((f, j)) => (f, Some(j)),
            None => (s, None),
        };
        let fixed: u64 = fixed
            .parse()
            .map_err(|_| bad(entry, "SLOTS must be a non-negative integer"))?;
        let jitter: u64 = match jitter {
            Some(j) => j
                .parse()
                .map_err(|_| bad(entry, "JITTER must be a non-negative integer"))?,
            None => 0,
        };
        Ok((fixed, jitter))
    }

    pub fn parse_chaos_spec(s: &str) -> Result<Vec<ChaosSpec>, String> {
        let mut specs = Vec::new();
        for entry in s.split(',') {
            let entry = entry.trim();
            let Some((kind, rest)) = entry.split_once(':') else {
                return Err(bad(entry, FORMAT_HINT));
            };
            let Some((target, when)) = rest.split_once('@') else {
                return Err(bad(entry, FORMAT_HINT));
            };
            let (when, param) = match when.split_once('=') {
                Some((w, p)) => (w, Some(p)),
                None => (when, None),
            };
            let (start, duration) = match when.split_once('+') {
                Some((s, d)) => {
                    let dur: u64 = d
                        .parse()
                        .map_err(|_| bad(entry, "DUR must be a non-negative integer"))?;
                    (s, Some(dur))
                }
                None => (when, None),
            };
            let start: u64 = start
                .parse()
                .map_err(|_| bad(entry, "START must be a non-negative integer"))?;

            let pair = |sep: char| -> Option<(&str, &str)> { target.split_once(sep) };
            let parsed_target = if let Some((a, b)) = pair('/') {
                ChaosTarget::Pair(
                    parse_node(entry, a, "TARGET")?,
                    parse_node(entry, b, "TARGET")?,
                )
            } else if let Some((a, b)) = pair('>') {
                ChaosTarget::Link(
                    parse_node(entry, a, "TARGET")?,
                    parse_node(entry, b, "TARGET")?,
                )
            } else {
                ChaosTarget::Node(parse_node(entry, target, "TARGET")?)
            };

            let kind = match kind {
                "drop" => ChaosKind::Drop {
                    rate: parse_rate(entry, param)?,
                },
                "dup" => ChaosKind::Dup {
                    rate: parse_rate(entry, param)?,
                },
                "reorder" => ChaosKind::Reorder {
                    rate: parse_rate(entry, param)?,
                },
                "delay" => {
                    let (slots, jitter_slots) = parse_slots(entry, param)?;
                    ChaosKind::Delay {
                        slots,
                        jitter_slots,
                    }
                }
                "partition" => {
                    if param.is_some() {
                        return Err(bad(entry, "partition takes no `=PARAM`"));
                    }
                    ChaosKind::Partition
                }
                "gray" => {
                    let (slots, jitter) = parse_slots(entry, param)?;
                    if jitter != 0 {
                        return Err(bad(entry, "gray takes `=SLOTS` with no jitter"));
                    }
                    ChaosKind::Gray { slots }
                }
                other => {
                    return Err(format!(
                        "unknown --chaos fault kind `{other}`; valid kinds are: {VALID_KINDS}"
                    ))
                }
            };
            match (kind, parsed_target) {
                (ChaosKind::Partition, ChaosTarget::Pair(a, b)) if a == b => {
                    return Err(bad(entry, "partition needs two distinct nodes"));
                }
                (ChaosKind::Partition, ChaosTarget::Pair(..)) => {}
                (ChaosKind::Partition, _) => {
                    return Err(bad(entry, "partition takes a node pair A/B"));
                }
                (_, ChaosTarget::Pair(..)) => {
                    return Err(bad(entry, "only partition takes a node pair A/B"));
                }
                (ChaosKind::Gray { .. }, ChaosTarget::Link(..)) => {
                    return Err(bad(entry, "gray targets a whole node, not a link"));
                }
                _ => {}
            }
            specs.push(ChaosSpec {
                kind,
                target: parsed_target,
                start,
                duration,
            });
        }
        Ok(specs)
    }
}

/// `ScenarioPlan::parse` before the shared tokenizer.
mod scenario {
    use clustream::workloads::{JoinCurve, RegionalFailure, ScenarioPlan};

    const VALID_KINDS: &str = "step, ramp, spikes, fail";
    const FORMAT_HINT: &str = "expected KIND:ARGS@START[+DUR][=PARAM] \
         (e.g. step:1000@20, ramp:1000@20+50, spikes:200@10+30=5, fail:3-6@40, comma-separated)";

    fn bad(entry: &str, why: &str) -> String {
        format!("bad --scenario entry `{entry}`: {why}")
    }

    fn parse_u64(entry: &str, s: &str, what: &str) -> Result<u64, String> {
        s.trim()
            .parse()
            .map_err(|_| bad(entry, &format!("{what} must be a non-negative integer")))
    }

    pub fn parse(s: &str) -> Result<ScenarioPlan, String> {
        const IDS: u64 = u32::MAX as u64;
        let mut plan = ScenarioPlan::default();
        let (mut joined, mut failed) = (0u64, 0u64);
        for entry in s.split(',') {
            let entry = entry.trim();
            let Some((kind, rest)) = entry.split_once(':') else {
                return Err(bad(entry, FORMAT_HINT));
            };
            let Some((args, when)) = rest.split_once('@') else {
                return Err(bad(entry, FORMAT_HINT));
            };
            let (when, param) = match when.split_once('=') {
                Some((w, p)) => (w, Some(p)),
                None => (when, None),
            };
            let (start, dur) = match when.split_once('+') {
                Some((s0, d)) => (s0, Some(parse_u64(entry, d, "DUR")?)),
                None => (when, None),
            };
            let start = parse_u64(entry, start, "START")?;
            let (added, span) = match kind {
                "step" => {
                    let joins = parse_u64(entry, args, "JOINS")?;
                    if joins == 0 {
                        return Err(bad(entry, "JOINS must be at least 1"));
                    }
                    if dur.is_some() || param.is_some() {
                        return Err(bad(entry, "step takes no `+DUR` or `=PARAM`"));
                    }
                    plan.curves.push(JoinCurve::Step { joins, at: start });
                    (Some(joins), Some(1))
                }
                "ramp" => {
                    let joins = parse_u64(entry, args, "JOINS")?;
                    if joins == 0 {
                        return Err(bad(entry, "JOINS must be at least 1"));
                    }
                    let duration =
                        dur.ok_or_else(|| bad(entry, "ramp needs `+DUR` (slots spanned)"))?;
                    if duration == 0 {
                        return Err(bad(entry, "DUR must be at least 1"));
                    }
                    if param.is_some() {
                        return Err(bad(entry, "ramp takes no `=PARAM`"));
                    }
                    plan.curves.push(JoinCurve::Ramp {
                        joins,
                        start,
                        duration,
                    });
                    (Some(joins), Some(duration))
                }
                "spikes" => {
                    let joins = parse_u64(entry, args, "JOINS")?;
                    if joins == 0 {
                        return Err(bad(entry, "JOINS must be at least 1"));
                    }
                    let period =
                        dur.ok_or_else(|| bad(entry, "spikes needs `+PERIOD` (slots between)"))?;
                    if period == 0 {
                        return Err(bad(entry, "PERIOD must be at least 1"));
                    }
                    let count = parse_u64(
                        entry,
                        param.ok_or_else(|| bad(entry, "spikes needs `=COUNT`"))?,
                        "COUNT",
                    )?;
                    if count == 0 {
                        return Err(bad(entry, "COUNT must be at least 1"));
                    }
                    plan.curves.push(JoinCurve::SpikeTrain {
                        joins,
                        start,
                        period,
                        count,
                    });
                    (joins.checked_mul(count), period.checked_mul(count))
                }
                "fail" => {
                    let Some((lo, hi)) = args.split_once('-') else {
                        return Err(bad(entry, "fail needs an id range `LO-HI`"));
                    };
                    let (lo, hi) = (parse_u64(entry, lo, "LO")?, parse_u64(entry, hi, "HI")?);
                    if lo == 0 {
                        return Err(bad(entry, "LO must be at least 1 (node 0 is the source)"));
                    }
                    if lo > hi {
                        return Err(bad(entry, "LO must not exceed HI"));
                    }
                    if dur.is_some() || param.is_some() {
                        return Err(bad(entry, "fail takes no `+DUR` or `=PARAM`"));
                    }
                    if hi > IDS {
                        return Err(bad(entry, "HI must fit the u32 node id space"));
                    }
                    failed = failed
                        .checked_add(hi - lo + 1)
                        .ok_or_else(|| bad(entry, "regional failures overflow a u64 count"))?;
                    plan.failures.push(RegionalFailure { lo, hi, at: start });
                    (Some(0), Some(1))
                }
                other => {
                    return Err(format!(
                        "unknown --scenario curve kind `{other}`; valid kinds are: {VALID_KINDS}"
                    ));
                }
            };
            joined = added
                .and_then(|j| joined.checked_add(j))
                .filter(|&total| total <= IDS)
                .ok_or_else(|| bad(entry, "total joins must fit the u32 node id space"))?;
            if span.and_then(|d| start.checked_add(d)).is_none() {
                return Err(bad(entry, "START plus the slots spanned overflows u64"));
            }
        }
        Ok(plan)
    }
}

/// `CapacityClassPlan::parse` before the shared tokenizer.
mod capacity {
    use clustream_des::capacity::{
        default_capacity, CapacityClass, CapacityClassPlan, VALID_CLASSES,
    };

    fn bad(entry: &str, why: &str) -> String {
        format!("bad --classes entry `{entry}`: {why}")
    }

    pub fn parse(s: &str) -> Result<CapacityClassPlan, String> {
        let mut classes = Vec::new();
        for entry in s.split(',') {
            let entry = entry.trim();
            let (name, cap) = match entry.split_once(':') {
                Some((n, c)) => (n.trim(), Some(c.trim())),
                None => (entry, None),
            };
            let Some(default) = default_capacity(name) else {
                return Err(format!(
                    "unknown --classes capacity class `{name}`; valid classes are: {VALID_CLASSES}"
                ));
            };
            let capacity = match cap {
                Some(c) => {
                    let c: usize = c
                        .parse()
                        .map_err(|_| bad(entry, "CAPACITY must be a positive integer"))?;
                    if c == 0 {
                        return Err(bad(entry, "CAPACITY must be at least 1"));
                    }
                    c
                }
                None => default,
            };
            if classes.iter().any(|c: &CapacityClass| c.name == name) {
                return Err(bad(entry, "class declared twice"));
            }
            classes.push(CapacityClass {
                name: name.to_string(),
                capacity,
            });
        }
        Ok(CapacityClassPlan {
            classes,
            zipf_exponent: 1.0,
            seed: 0,
        })
    }
}

/// `plan --clusters`' closure in `cli::commands::plan` before the shared
/// tokenizer.
mod clusters {
    use clustream_cli::CliError;
    use clustream_overlay::ClusterRequirement;

    pub fn parse(spec: &str) -> Result<Vec<ClusterRequirement>, CliError> {
        spec.split(',')
            .map(|part| {
                let (size, budget) = match part.split_once(':') {
                    Some((s, b)) => (s, Some(b)),
                    None => (part, None),
                };
                let size = size
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad cluster size `{size}`")))?;
                let buffer_budget = match budget {
                    None => None,
                    Some("none") => None,
                    Some(b) => Some(
                        b.parse()
                            .map_err(|_| CliError::Usage(format!("bad buffer budget `{b}`")))?,
                    ),
                };
                Ok(ClusterRequirement {
                    size,
                    buffer_budget,
                })
            })
            .collect::<Result<_, CliError>>()
    }
}

/// A string of up to 24 characters drawn from the delimiters, digits,
/// letters, signs, whitespace and a multi-byte character.
fn arbitrary(rng: &mut ChaCha8Rng) -> String {
    const CHARS: &[char] = &[
        ',', ':', '@', '+', '=', '-', '>', '/', '~', ' ', '\t', '0', '1', '2', '3', '5', '9', 'a',
        'd', 'e', 'f', 'i', 'l', 'n', 'p', 'r', 's', 't', 'x', '.', 'é',
    ];
    let len = rng.gen_range(0..25);
    (0..len)
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect()
}

/// Small well-formed field values.
const WELL: &[&str] = &["0", "1", "2", "3", "5", "12", "40", "0.5"];

/// Field values at the integer bounds, signed, padded, empty, fractional,
/// garbage and in every sub-shape.
const ODD: &[&str] = &[
    "007",
    "+5",
    "-1",
    "",
    " 7",
    "7 ",
    "x",
    "0.5",
    "1.5",
    "-0.1",
    "NaN",
    "inf",
    "1e0",
    "4294967295",
    "4294967296",
    "18446744073709551614",
    "18446744073709551615",
    "18446744073709551616",
    "none",
    "2~1",
    "3~x",
    "~",
    "1-4",
    "0-3",
    "7-3",
    "1-4294967296",
    "2/5",
    "3/3",
    "0>5",
    "2>2",
    "a/b",
];

/// One field: well-formed half the time.
fn field(rng: &mut ChaCha8Rng) -> &'static str {
    let pool = if rng.gen_bool(0.5) { WELL } else { ODD };
    pool[rng.gen_range(0..pool.len())]
}

/// What grammar-shaped inputs of one grammar look like.
struct Shape {
    /// The parts an entry has, as in `H:T@S+D=P` (the full form).
    parts: &'static str,
    /// Values of `H`.
    heads: &'static [&'static str],
    /// Well-formed entries.
    valid: &'static [&'static str],
}

const KILL: Shape = Shape {
    parts: "T@S",
    heads: &[],
    valid: &["5@40", "9@60", "1@0", "12@3"],
};
const CHAOS: Shape = Shape {
    parts: "H:T@S+D=P",
    heads: &[
        "drop",
        "dup",
        "reorder",
        "delay",
        "partition",
        "gray",
        " drop",
    ],
    valid: &[
        "drop:3@10+40=0.05",
        "dup:2@0=0.3",
        "reorder:0>5@4+8=0.25",
        "delay:4@8+32=2~1",
        "partition:2/5@20+30",
        "gray:4@0=3",
        "drop:0>5@0=1",
    ],
};
const SCENARIO: Shape = Shape {
    parts: "H:T@S+D=P",
    heads: &["step", "ramp", "spikes", "fail", "step "],
    valid: &[
        "step:1000@20",
        "ramp:1000@20+50",
        "spikes:200@10+30=5",
        "fail:3-6@40",
        "step: 5 @ 2 ",
        "ramp:3@1+18446744073709551613",
    ],
};
const CLASSES: Shape = Shape {
    parts: "HT",
    heads: &["fiber", "cable", "mobile", " cable", "dsl"],
    valid: &["fiber", "cable:3", "mobile", "fiber: 8 ", " cable "],
};
const CLUSTERS: Shape = Shape {
    parts: "HT",
    heads: &["20", "5", " 5", "x"],
    valid: &["20", "15:2", "25:none", "40:none"],
};

/// A comma-separated spec of 1–3 entries like `shape`'s. Half the
/// entries are well-formed ones; in the others each part `shape` names
/// is present with probability 0.85 and each other part with 0.1, `H`
/// is drawn from the heads (or is a [`field`]) and the rest are
/// [`field`]s. One entry in five then gets a stray delimiter or blank
/// inserted somewhere.
fn shaped(rng: &mut ChaCha8Rng, shape: &Shape) -> String {
    let pick = |rng: &mut ChaCha8Rng, pool: &[&'static str]| pool[rng.gen_range(0..pool.len())];
    let n = rng.gen_range(1..4);
    let mut entries = Vec::new();
    for _ in 0..n {
        let mut e = String::new();
        if rng.gen_bool(0.5) {
            e += pick(rng, shape.valid);
        } else {
            let mut has = |part: char| {
                rng.gen_bool(if shape.parts.contains(part) {
                    0.85
                } else {
                    0.1
                })
            };
            let (h, t, s, d, p) = (has('H'), has('T'), has('S'), has('D'), has('P'));
            if h {
                e += match shape.heads.is_empty() || rng.gen_bool(0.2) {
                    true => field(rng),
                    false => pick(rng, shape.heads),
                };
                e.push(':');
            }
            if t {
                e += field(rng);
            }
            if s {
                e.push('@');
                e += field(rng);
                if d {
                    e.push('+');
                    e += field(rng);
                }
            }
            if p {
                e.push('=');
                e += field(rng);
            }
        }
        if rng.gen_bool(0.2) {
            const STRAY: &[char] = &[',', ':', '@', '+', '=', '-', '>', '/', '~', ' '];
            let at = e
                .char_indices()
                .map(|(i, _)| i)
                .chain([e.len()])
                .collect::<Vec<_>>();
            e.insert(
                at[rng.gen_range(0..at.len())],
                STRAY[rng.gen_range(0..STRAY.len())],
            );
        }
        entries.push(e);
    }
    entries.join(if rng.gen_bool(0.2) { ", " } else { "," })
}

/// The inputs one case checks: an arbitrary string and a grammar-shaped one.
fn inputs(seed: u64, shape: &Shape) -> [String; 2] {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    [arbitrary(&mut rng), shaped(&mut rng, shape)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn kill_matches_the_reference(seed in any::<u64>()) {
        for s in inputs(seed, &KILL) {
            prop_assert_eq!(parse_kill_spec(&s), kill::parse_kill_spec(&s), "`{}`", s);
        }
    }

    #[test]
    fn chaos_matches_the_reference(seed in any::<u64>()) {
        for s in inputs(seed, &CHAOS) {
            prop_assert_eq!(parse_chaos_spec(&s), chaos::parse_chaos_spec(&s), "`{}`", s);
        }
    }

    #[test]
    fn scenario_matches_the_reference(seed in any::<u64>()) {
        for s in inputs(seed, &SCENARIO) {
            prop_assert_eq!(ScenarioPlan::parse(&s), scenario::parse(&s), "`{}`", s);
        }
    }

    #[test]
    fn classes_match_the_reference(seed in any::<u64>()) {
        for s in inputs(seed, &CLASSES) {
            prop_assert_eq!(CapacityClassPlan::parse(&s), capacity::parse(&s), "`{}`", s);
        }
    }

    #[test]
    fn clusters_match_the_reference(seed in any::<u64>()) {
        for s in inputs(seed, &CLUSTERS) {
            let reference = clusters::parse(&s).map_err(|e| e.to_string());
            let got = parse_clusters(&s).map_err(|e| clustream_cli::CliError::Usage(e).to_string());
            prop_assert_eq!(got, reference, "`{}`", s);
        }
    }
}

/// The shaped inputs reach both outcomes of every grammar often enough
/// for the differential cases above to compare parsed values, not only
/// error texts.
#[test]
fn shaped_inputs_reach_both_outcomes() {
    let share = |ok: fn(&str) -> bool, shape: &Shape| {
        let oks = (0..1024u64)
            .filter(|&seed| ok(&inputs(seed, shape)[1]))
            .count();
        oks as f64 / 1024.0
    };
    for (name, ok) in [
        ("kill", share(|s| parse_kill_spec(s).is_ok(), &KILL)),
        ("chaos", share(|s| parse_chaos_spec(s).is_ok(), &CHAOS)),
        (
            "scenario",
            share(|s| ScenarioPlan::parse(s).is_ok(), &SCENARIO),
        ),
        (
            "classes",
            share(|s| CapacityClassPlan::parse(s).is_ok(), &CLASSES),
        ),
        ("clusters", share(|s| parse_clusters(s).is_ok(), &CLUSTERS)),
    ] {
        assert!(
            (0.1..0.9).contains(&ok),
            "{name}: {ok:.3} of shaped inputs parse"
        );
    }
}

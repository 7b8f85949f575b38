//! [`SchemeSpec`]: the workspace's only scheme-family → constructor match,
//! and its only family → delay-theorem match ([`DelayBound`]).

use crate::args::{ArgMap, CliError};
use clustream_analysis::{grouped_worst_delay, thm2_worst_delay_bound};
use clustream_baselines::{ChainScheme, SingleTreeScheme};
use clustream_core::{CoreError, QosReport, Scheme};
use clustream_hypercube::HypercubeStream;
use clustream_multitree::{build_forest, Construction, MultiTreeScheme, StreamMode};
use clustream_recovery::DynamicMultiTree;
use clustream_workloads::ScenarioPlan;
use serde::{Deserialize, Serialize};

/// The four scheme families (the `--scheme` choices). The serde shape is
/// the model checker's corpus encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Family {
    /// §2 interior-disjoint multi-trees.
    MultiTree,
    /// §3 chained hypercubes with a `d`-way source split.
    Hypercube,
    /// The chain strawman.
    Chain,
    /// The elevated-capacity single tree strawman.
    SingleTree,
}

impl Family {
    /// All four families, in enumeration order.
    pub const ALL: [Family; 4] = [
        Family::MultiTree,
        Family::Hypercube,
        Family::Chain,
        Family::SingleTree,
    ];

    /// Stable lowercase label (the `--scheme` spelling).
    pub fn label(self) -> &'static str {
        match self {
            Family::MultiTree => "multitree",
            Family::Hypercube => "hypercube",
            Family::Chain => "chain",
            Family::SingleTree => "singletree",
        }
    }

    /// The family `label` names, if any.
    pub fn parse(label: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.label() == label)
    }
}

/// The flags a [`SchemeSpec`] is parsed from (the first usage lines of
/// `simulate` and `trace`).
pub const SCHEME_USAGE: [&str; 2] = [
    "--scheme <multitree|hypercube|chain|singletree> --n <N>",
    "[--d <D>] [--mode <pre|buffered|pipelined>]",
];

/// A proven bound on a scheme's worst playback delay: its value and the
/// result that proves it.
///
/// Playback delay is `max_j (usable(i, j) − j)`, so under a bound `B`
/// packet `j` is usable by slot `j + B`, the last of `track` tracked
/// packets by `track − 1 + B`, and a run that stops once every receiver
/// holds them stops within [`DelayBound::completion_horizon`] slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayBound {
    /// The result that proves the bound.
    pub theorem: &'static str,
    /// The bound, in slots.
    pub slots: u64,
}

impl DelayBound {
    /// Theorem 1's bound on a multi-cluster session: `slots` is the
    /// backbone's hops times `T_c`, the `S_i → S'_i` hop and the worst
    /// intra-cluster delay.
    pub fn session(slots: u64) -> DelayBound {
        DelayBound {
            theorem: "Theorem 1's session delay",
            slots,
        }
    }

    /// The slot horizon of a run that stops once every receiver holds
    /// `track` packets: exactly enough for the last one under the bound.
    pub fn completion_horizon(self, track: u64) -> u64 {
        track.saturating_add(self.slots)
    }

    /// What a run on [`DelayBound::completion_horizon`] failing with `e`
    /// means: a packet that never arrived within it broke the bound,
    /// which the error names. Every other error passes through.
    pub fn blame(self, e: CoreError) -> CliError {
        let CoreError::Hiccup { node, packet } = e else {
            return e.into();
        };
        let (theorem, bound) = (self.theorem, self.slots);
        let usable = packet.seq().saturating_add(bound);
        CliError::Model(format!(
            "{node} breaks {theorem} = {bound} slots: {packet} is not usable by slot {usable}"
        ))
    }

    /// What a completed run the bound covers means node by node: the
    /// first receiver whose playback delay exceeds the bound broke it,
    /// and the message names that receiver in [`DelayBound::blame`]'s
    /// words.
    pub fn check(self, qos: &QosReport) -> Result<(), String> {
        match qos.nodes.iter().find(|q| q.playback_delay > self.slots) {
            Some(q) => Err(format!(
                "{} breaks {} = {} slots: its playback delay is {} slots",
                q.node, self.theorem, self.slots, q.playback_delay
            )),
            None => Ok(()),
        }
    }
}

/// Which scheme a run streams through: family, population, degree and
/// the multi-tree-only mode and construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeSpec {
    /// Scheme family.
    pub family: Family,
    /// Receiver population.
    pub n: usize,
    /// Forest degree (multi-tree, single tree) or source split
    /// (hypercube, capped at `n`); ignored by the chain.
    pub d: usize,
    /// Stream mode (multi-tree only).
    pub mode: StreamMode,
    /// Forest construction (multi-tree only).
    pub construction: Construction,
}

impl SchemeSpec {
    /// A pre-recorded, greedy-construction spec.
    pub fn new(family: Family, n: usize, d: usize) -> SchemeSpec {
        SchemeSpec {
            family,
            n,
            d,
            mode: StreamMode::PreRecorded,
            construction: Construction::Greedy,
        }
    }

    /// Parse the [`SCHEME_USAGE`] flags. Every value is checked, whether or not the
    /// chosen family reads it; `--d` defaults to 1 for hypercubes (a
    /// single chain) and 2 elsewhere.
    pub fn from_args(args: &ArgMap) -> Result<SchemeSpec, CliError> {
        let n = args.required_usize("n")?;
        let scheme = args.required("scheme")?;
        let family = Family::parse(scheme).ok_or_else(|| {
            CliError::Usage(format!(
                "--scheme must be multitree|hypercube|chain|singletree, got `{scheme}`"
            ))
        })?;
        let d = args.usize_or("d", if family == Family::Hypercube { 1 } else { 2 })?;
        let mode = match args.optional("mode").unwrap_or("pre") {
            "pre" => StreamMode::PreRecorded,
            "buffered" => StreamMode::LivePrebuffered,
            "pipelined" => StreamMode::LivePipelined,
            other => {
                return Err(CliError::Usage(format!(
                    "--mode must be pre|buffered|pipelined, got `{other}`"
                )))
            }
        };
        Ok(SchemeSpec {
            mode,
            ..SchemeSpec::new(family, n, d)
        })
    }

    /// Construct the scheme. Total: parameters outside a family's domain
    /// are a [`CoreError::InvalidConfig`], never a constructor assert.
    pub fn build(&self) -> Result<Box<dyn Scheme>, CoreError> {
        self.check_ids(0)?;
        let (n, d) = (self.n, self.d);
        let invalid = |what: &str| Err(CoreError::InvalidConfig(what.into()));
        Ok(match self.family {
            Family::Chain | Family::SingleTree if n == 0 => {
                return invalid("need at least one receiver")
            }
            Family::SingleTree if d == 0 => return invalid("tree degree d must be ≥ 1"),
            Family::MultiTree => Box::new(self.multitree()?),
            Family::Hypercube => Box::new(HypercubeStream::with_groups(n, d.min(n))?),
            Family::Chain => Box::new(ChainScheme::new(n)),
            Family::SingleTree => Box::new(SingleTreeScheme::new(n, d)),
        })
    }

    /// The paper's bound on this scheme's worst playback delay. Total: a
    /// spec [`SchemeSpec::build`] refuses (`n` or `d` zero) gets its
    /// family's bound at 1.
    pub fn worst_delay_bound(&self) -> DelayBound {
        let (n, d) = (self.n.max(1), self.d.max(1));
        let bound = |theorem, slots| DelayBound { theorem, slots };
        match self.family {
            // Live modes shift the schedule: prebuffered by exactly d,
            // pipelined by at most 2d (pinned by tests/properties.rs).
            Family::MultiTree => {
                let (theorem, shift) = match self.mode {
                    StreamMode::PreRecorded => ("Theorem 2's h·d", 0),
                    StreamMode::LivePrebuffered => ("Theorem 2's h·d + d (prebuffered)", d),
                    StreamMode::LivePipelined => ("Theorem 2's h·d + 2d (pipelined)", 2 * d),
                };
                bound(theorem, thm2_worst_delay_bound(n, d) + shift as u64)
            }
            // Proposition 2 per source group (`HypercubeStream::with_groups`).
            Family::Hypercube => bound(
                "Proposition 2's chained-cube delay",
                grouped_worst_delay(n, d.min(n)),
            ),
            Family::Chain => bound("the chain's N", n as u64),
            // BFS layout: the last node is deepest.
            Family::SingleTree => bound(
                "the single tree's depth",
                SingleTreeScheme::bfs_depth(d, u32::try_from(n).unwrap_or(u32::MAX)).max(1),
            ),
        }
    }

    /// The slot horizon of a completing run of this scheme:
    /// `track` + [`SchemeSpec::worst_delay_bound`].
    pub fn completion_horizon(&self, track: u64) -> u64 {
        self.worst_delay_bound().completion_horizon(track)
    }

    /// [`CoreError::InvalidConfig`] unless the ids `0..=n + joins` — the
    /// source, `n` receivers and a scenario's joiners — fit the 32-bit
    /// [`clustream_core::NodeId`].
    fn check_ids(&self, joins: u64) -> Result<(), CoreError> {
        let (n, max) = (self.n, u32::MAX);
        let overflow = match joins {
            _ if (n as u64).saturating_add(joins) < max as u64 => return Ok(()),
            0 => {
                format!("n = {n} receivers overflow the 32-bit node id space (n < {max} required)")
            }
            j => format!(
                "n = {n} receivers plus {j} scenario joins overflow the 32-bit node id space \
                 (n + joins < {max} required)"
            ),
        };
        Err(CoreError::InvalidConfig(overflow))
    }

    /// The static multi-tree scheme over this spec's forest.
    pub fn multitree(&self) -> Result<MultiTreeScheme, CoreError> {
        self.check_ids(0)?;
        let forest = build_forest(self.n, self.d, self.construction)?;
        Ok(MultiTreeScheme::new(forest, self.mode))
    }

    /// The dynamic multi-tree over this spec's forest: scripted by
    /// `scenario` (the flash crowd), or with no script — the self-healing
    /// tree the recovery layer repairs online.
    pub fn dynamic(&self, scenario: Option<&ScenarioPlan>) -> Result<DynamicMultiTree, CoreError> {
        // The parser bounds a scenario's joins alone; the ids they mint
        // must fit with `n`'s, checked before the script is compiled.
        self.check_ids(scenario.map_or(0, ScenarioPlan::total_joins))?;
        let (n, d, mode, construction) = (self.n, self.d, self.mode, self.construction);
        match scenario {
            Some(plan) => DynamicMultiTree::from_plan(n, d, mode, construction, plan),
            None => DynamicMultiTree::new(n, d, mode, construction),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_builds_and_labels_round_trip() {
        for family in Family::ALL {
            assert_eq!(Family::parse(family.label()), Some(family));
            let s = SchemeSpec::new(family, 9, 2).build().unwrap();
            assert_eq!(s.num_receivers(), 9, "{family:?}");
        }
        assert_eq!(Family::parse("warp"), None);
    }

    #[test]
    fn out_of_domain_parameters_are_errors_not_asserts() {
        for (family, n, d, needle) in [
            (Family::Chain, 0, 2, "need at least one receiver"),
            (Family::SingleTree, 0, 2, "need at least one receiver"),
            (Family::SingleTree, 5, 0, "tree degree d must be ≥ 1"),
            (Family::MultiTree, 0, 2, "need at least one receiver"),
            (Family::MultiTree, 5, 0, "tree degree d must be ≥ 1"),
            (Family::Hypercube, 0, 1, "need at least one receiver"),
            (Family::Hypercube, 5, 0, "group count d=0"),
        ]
        .into_iter()
        .chain(Family::ALL.map(|f| (f, u32::MAX as usize, 3, "32-bit node id space")))
        {
            let err = match SchemeSpec::new(family, n, d).build() {
                Ok(_) => panic!("{family:?} n={n} d={d} must not build"),
                Err(e) => e.to_string(),
            };
            assert!(err.starts_with("invalid configuration: "), "{err}");
            assert!(err.contains(needle), "{family:?} n={n} d={d}: {err}");
        }
        let huge = SchemeSpec::new(Family::MultiTree, 1 << 32, 3);
        assert!(huge.dynamic(None).is_err() && huge.multitree().is_err());
    }

    #[test]
    fn the_hypercube_bound_is_the_built_chains_prediction() {
        for n in 1..=200 {
            for d in 1..=8 {
                let built = HypercubeStream::with_groups(n, d.min(n)).unwrap();
                let predicted = built.cubes().map(|c| c.predicted_delay()).max();
                let bound = SchemeSpec::new(Family::Hypercube, n, d).worst_delay_bound();
                assert_eq!(Some(bound.slots), predicted, "n={n} d={d}");
            }
        }
    }

    #[test]
    fn every_family_states_its_theorem_and_a_horizon() {
        for (family, n, d, theorem, slots) in [
            (Family::MultiTree, 40, 3, "Theorem 2's h·d", 12),
            (
                Family::Hypercube,
                100,
                1,
                "Proposition 2's chained-cube delay",
                19,
            ),
            (Family::Chain, 12, 2, "the chain's N", 12),
            (Family::SingleTree, 12, 2, "the single tree's depth", 3),
        ] {
            let spec = SchemeSpec::new(family, n, d);
            assert_eq!(spec.worst_delay_bound(), DelayBound { theorem, slots });
            assert_eq!(spec.completion_horizon(48), 48 + slots);
        }
        let live = |mode| SchemeSpec {
            mode,
            ..SchemeSpec::new(Family::MultiTree, 40, 3)
        };
        assert_eq!(
            live(StreamMode::LivePrebuffered).worst_delay_bound().slots,
            15
        );
        assert_eq!(
            live(StreamMode::LivePipelined).worst_delay_bound().slots,
            18
        );
        // Total where `build` refuses, and saturating past u64.
        for family in Family::ALL {
            for (n, d) in [(0, 2), (5, 0), (u32::MAX as usize + 9, 3)] {
                let _ = SchemeSpec::new(family, n, d).completion_horizon(u64::MAX);
            }
        }
    }

    #[test]
    fn only_a_hiccup_is_blamed_on_the_bound() {
        let bound = DelayBound::session(30);
        let (node, packet) = (clustream_core::NodeId(4), clustream_core::PacketId(7));
        assert_eq!(
            bound.blame(CoreError::Hiccup { node, packet }).to_string(),
            "model error: n4 breaks Theorem 1's session delay = 30 slots: p7 is not usable by slot 37"
        );
        let other = CoreError::UnknownNode { node };
        assert_eq!(bound.blame(other.clone()), other.into());
    }

    #[test]
    fn hypercube_split_is_capped_at_the_population() {
        let s = SchemeSpec::new(Family::Hypercube, 3, 8).build().unwrap();
        assert_eq!(s.num_receivers(), 3);
    }
}

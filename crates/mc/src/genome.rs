//! The model checker's configuration genome.
//!
//! A [`Genome`] is a fully serializable description of one simulation
//! configuration: scheme family, population, degree, construction, stream
//! mode, tracked window, optional fault plan and optional sabotage. It is
//! the unit the exhaustive driver enumerates, the explorer mutates, the
//! shrinker minimizes and the corpus persists — so it must serialize to
//! byte-identical JSON for identical values (guaranteed by the serde
//! shim's insertion-ordered objects).

use crate::sabotage::{Sabotage, SabotagedScheme};
use clustream_core::{CoreError, Scheme};
use clustream_multitree::{Construction, StreamMode};
pub use clustream_plan::Family;
use clustream_plan::{RunPlan, SchemeSpec};
use clustream_sim::{FaultPlan, SimConfig};
use serde::{Deserialize, Serialize};

/// The largest receiver count the checker takes (`check --max-n` and
/// corpus genomes): well past the lattice's 64 and the explorer's 192,
/// well short of a lattice that cannot be allocated.
pub const MAX_N: usize = 1024;

/// The largest tree degree a corpus genome may carry: the lattice
/// enumerates `d ≤ 4` and the explorer draws `d ≤ 6`.
pub const MAX_D: usize = 64;

/// The longest tracked window a corpus genome may carry: the lattice's
/// windows stay below 16 and the explorer draws at most 48.
pub const MAX_TRACK: u64 = 256;

/// Serializable mirror of [`Construction`] (which has no serde derives).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConstructionChoice {
    /// §2.2.1 group-rotation construction.
    Structured,
    /// §2.2.2 parity-greedy construction.
    Greedy,
}

impl ConstructionChoice {
    /// Both constructions, in enumeration order.
    pub const ALL: [ConstructionChoice; 2] =
        [ConstructionChoice::Structured, ConstructionChoice::Greedy];

    /// The `clustream-multitree` selector this mirrors.
    pub fn construction(self) -> Construction {
        match self {
            ConstructionChoice::Structured => Construction::Structured,
            ConstructionChoice::Greedy => Construction::Greedy,
        }
    }
}

/// Serializable mirror of [`StreamMode`] (which has no serde derives).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModeChoice {
    /// Pre-recorded: every packet available at slot 0.
    Pre,
    /// Live, source pre-buffers `d` packets.
    Buffered,
    /// Live, per-tree pipelined start.
    Pipelined,
}

impl ModeChoice {
    /// The `clustream-multitree` mode this mirrors.
    pub fn mode(self) -> StreamMode {
        match self {
            ModeChoice::Pre => StreamMode::PreRecorded,
            ModeChoice::Buffered => StreamMode::LivePrebuffered,
            ModeChoice::Pipelined => StreamMode::LivePipelined,
        }
    }
}

/// One fully specified model-checking configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Genome {
    /// Scheme family.
    pub family: Family,
    /// Receiver population.
    pub n: usize,
    /// Degree / source split (interpreted per family, as in the CLI).
    pub d: usize,
    /// Forest construction (multi-tree only; ignored elsewhere).
    pub construction: ConstructionChoice,
    /// Stream mode (multi-tree only; ignored elsewhere).
    pub mode: ModeChoice,
    /// Packets tracked for QoS measurement.
    pub track: u64,
    /// Optional fault plan (link loss / crashes).
    pub faults: Option<FaultPlan>,
    /// Optional deliberate schedule defect (see [`Sabotage`]) used to
    /// prove the checker catches real bugs.
    pub sabotage: Option<Sabotage>,
}

impl Genome {
    /// `Err` naming the bounds when `n`, `d` or `track` lies past
    /// [`MAX_N`], [`MAX_D`] or [`MAX_TRACK`] — sizes the checker never
    /// generates and could not replay in bounded time and memory.
    pub fn check_domain(&self) -> Result<(), String> {
        if self.n <= MAX_N && self.d <= MAX_D && self.track <= MAX_TRACK {
            return Ok(());
        }
        Err(format!(
            "genome outside the checker's domain: n = {}, d = {}, track = {} \
             (n ≤ {MAX_N}, d ≤ {MAX_D}, track ≤ {MAX_TRACK} required)",
            self.n, self.d, self.track
        ))
    }

    /// A clean (fault-free, unsabotaged) genome with a family-appropriate
    /// tracked window.
    pub fn clean(family: Family, n: usize, d: usize, construction: ConstructionChoice) -> Genome {
        Genome {
            family,
            n,
            d,
            construction,
            mode: ModeChoice::Pre,
            track: (2 * d as u64 + 6).max(8),
            faults: None,
            sabotage: None,
        }
    }

    /// The scheme coordinates of this genome.
    pub fn spec(&self) -> SchemeSpec {
        SchemeSpec {
            mode: self.mode.mode(),
            construction: self.construction.construction(),
            ..SchemeSpec::new(self.family, self.n, self.d)
        }
    }

    /// Instantiate the scheme this genome describes (wrapped in the
    /// sabotage layer when one is present).
    pub fn build_scheme(&self) -> Result<Box<dyn Scheme>, CoreError> {
        let inner = self.spec().build()?;
        Ok(match &self.sabotage {
            Some(s) => Box::new(SabotagedScheme::new(inner, *s)),
            None => inner,
        })
    }

    /// The slot horizon the checker runs this genome for: its scheme's
    /// [`SchemeSpec::completion_horizon`] plus 64 slots of slack, scaled
    /// up when sabotage stretches latencies. A correct scheme completes
    /// inside the completion horizon; the slack lets a run that breaks its
    /// delay bound by a little complete too, so `DelayBound` measures the
    /// violation instead of a hiccup cutting it off. The corpus records
    /// those measurements, so its bytes depend on the slack.
    pub fn horizon(&self) -> u64 {
        let base = self.spec().completion_horizon(self.track) + 64;
        match self.sabotage {
            Some(Sabotage::DelaySkew(extra)) => base * (extra as u64 + 1),
            _ => base,
        }
    }

    /// The [`SimConfig`] the checker runs this genome under. The trace is
    /// always recorded so `CollisionFree` can be re-validated
    /// independently of the engine's own checks.
    pub fn sim_config(&self) -> SimConfig {
        let horizon = self.horizon();
        let cfg = match &self.faults {
            // Fault plans are no CLI flag, so no `RunPlan` carries one.
            Some(f) => SimConfig::with_faults(self.track, horizon, f.clone()),
            None => RunPlan {
                horizon: Some(horizon),
                ..RunPlan::new(self.spec(), self.track)
            }
            .sim_config(),
        };
        cfg.traced()
    }

    /// Canonical single-line JSON encoding (byte-identical for equal
    /// genomes — the shrinker's determinism contract relies on this).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("genome is serializable")
    }

    /// Parse a genome from its JSON encoding.
    pub fn from_json(text: &str) -> Result<Genome, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genome_json_round_trips_byte_identically() {
        let g = Genome {
            family: Family::MultiTree,
            n: 17,
            d: 3,
            construction: ConstructionChoice::Greedy,
            mode: ModeChoice::Buffered,
            track: 12,
            faults: Some(FaultPlan::loss(0.25, 7)),
            sabotage: Some(Sabotage::DelaySkew(2)),
        };
        let j = g.to_json();
        let back = Genome::from_json(&j).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.to_json(), j, "encoding is canonical");
    }

    #[test]
    fn every_family_builds() {
        for family in Family::ALL {
            let g = Genome::clean(family, 9, 2, ConstructionChoice::Structured);
            let s = g.build_scheme().unwrap();
            assert_eq!(s.num_receivers(), 9, "{family:?}");
        }
    }

    /// The constructor match and config assembly `Genome` carried before
    /// it delegated to `SchemeSpec` / `RunPlan`, kept as the oracle.
    fn hand_written(g: &Genome) -> (Box<dyn Scheme>, SimConfig) {
        use clustream_baselines::{ChainScheme, SingleTreeScheme};
        use clustream_hypercube::HypercubeStream;
        use clustream_multitree::{build_forest, MultiTreeScheme};
        let scheme: Box<dyn Scheme> = match g.family {
            Family::MultiTree => Box::new(MultiTreeScheme::new(
                build_forest(g.n, g.d, g.construction.construction()).unwrap(),
                g.mode.mode(),
            )),
            Family::Hypercube => Box::new(HypercubeStream::with_groups(g.n, g.d.min(g.n)).unwrap()),
            Family::Chain => Box::new(ChainScheme::new(g.n)),
            Family::SingleTree => Box::new(SingleTreeScheme::new(g.n, g.d)),
        };
        let horizon = g.horizon();
        let cfg = match &g.faults {
            Some(f) => SimConfig::with_faults(g.track, horizon, f.clone()),
            None => SimConfig::until_complete(g.track, horizon),
        };
        (scheme, cfg.traced())
    }

    #[test]
    fn every_lattice_genome_builds_what_the_hand_written_factory_built() {
        use crate::lattice::{enumerate, LatticeOptions};
        let mut genomes = enumerate(&LatticeOptions::default());
        // The live modes are off the lattice (the explorer reaches them).
        for mode in [ModeChoice::Buffered, ModeChoice::Pipelined] {
            let mut g = Genome::clean(Family::MultiTree, 21, 3, ConstructionChoice::Greedy);
            g.mode = mode;
            genomes.push(g);
        }
        assert!(genomes.len() > 3000);
        for g in genomes {
            let (want, want_cfg) = hand_written(&g);
            let got = g.build_scheme().unwrap();
            assert_eq!(got.name(), want.name(), "{}", g.to_json());
            assert_eq!(got.num_receivers(), want.num_receivers());
            assert_eq!(
                format!("{:?}", g.sim_config()),
                format!("{want_cfg:?}"),
                "{}",
                g.to_json()
            );
        }
    }

    #[test]
    fn out_of_domain_genomes_are_errors_not_asserts() {
        // The checker's own domain check runs first; the factory must not
        // depend on it.
        for (family, n, d, needle) in [
            (Family::Chain, 0, 2, "need at least one receiver"),
            (Family::SingleTree, 0, 2, "need at least one receiver"),
            (Family::SingleTree, 6, 0, "tree degree d must be ≥ 1"),
        ] {
            let g = Genome::clean(family, n, d, ConstructionChoice::Greedy);
            let err = g.build_scheme().map(|_| ()).unwrap_err();
            assert!(matches!(err, CoreError::InvalidConfig(_)), "{err}");
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn sabotage_horizon_is_stretched() {
        let mut g = Genome::clean(Family::Chain, 5, 2, ConstructionChoice::Greedy);
        let clean = g.horizon();
        assert_eq!(clean, g.track + 5 + 64, "track + the chain's N + slack");
        g.sabotage = Some(Sabotage::DelaySkew(3));
        assert!(g.horizon() >= 4 * clean);
    }
}

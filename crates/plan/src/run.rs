//! [`RunPlan`]: one typed description of a `simulate` run — parsed once,
//! validated by one rule book, dispatched by one `match`.

use crate::args::{ArgMap, CliError, Usage};
use crate::scheme::{Family, SchemeSpec, SCHEME_USAGE};
use clustream_core::{CoreError, NodeId, PacketId, Scheme};
use clustream_des::{
    CapacityClassPlan, DesConfig, DesEngine, DesOracle, DesStats, LatencyModel, QueueKind,
    UplinkModel,
};
use clustream_recovery::{DynamicMultiTree, RecoveryConfig, RecoveryMode};
use clustream_sim::{DiffHarness, FastSimulator, MegaSimulator, RunResult, SimConfig, Simulator};
use clustream_telemetry::Telemetry;
use clustream_workloads::{ChurnTrace, ChurnTraceConfig, NodeTimeline, ScenarioPlan};

/// Which runtime model drives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// Lockstep slot execution (pick the engine with [`Engine`]).
    Slot,
    /// Discrete-event runtime with pluggable latency/uplink models.
    Des,
    /// DES in the slot-faithful configuration, field-checked against the
    /// fast slot engine.
    DesChecked,
}

/// Which slot engine executes a [`Runtime::Slot`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The readable reference engine.
    Reference,
    /// The allocation-light fast engine (bit-identical results).
    Fast,
    /// The scale-oriented mega engine: columnar state, steady-state
    /// schedule lowering and optional in-run sharding.
    Mega,
    /// Reference, fast and mega together, with a field-by-field
    /// equality check.
    Checked,
}

/// `simulate`'s usage text, and so its flag vocabulary.
pub const SIMULATE_USAGE: Usage = &[
    SCHEME_USAGE[0],
    SCHEME_USAGE[1],
    "[--track <P>] [--runtime <slot|des|des-checked>] [--metrics-out <FILE.jsonl>]",
    "[--engine <fast|reference|mega|checked>] [--shards <K>]    (slot runtime; shards: mega)",
    "[--queue <heap|wheel|checked>]    (des and des-checked runtimes)",
    "[--latency <fixed|jitter|heavytail>] [--jitter <SLOTS>]    (des runtime)",
    "[--scale <S>] [--alpha <A>] [--cap <C>] [--des-seed <SEED>]",
    "[--uplink <unconstrained|serialized>] [--classes <NAME[:CAPACITY],…>]",
    "[--classes-zipf <S>] [--classes-seed <SEED>]",
    "[--recovery <off|repair|repair+nack>]    (des runtime, multitree)",
    "[--churn-leave <PROB>] [--churn-join <PROB>] [--churn-rejoin <PROB>]    (des runtime)",
    "[--churn-slots <SLOTS>] [--churn-seed <SEED>]",
    "[--scenario <KIND:ARGS@START[+DUR][=PARAM],…>]    (multitree, any runtime)",
    "[--horizon <SLOTS>]    (with churn or a scenario)",
];

/// An enumerated flag: the entry of `table` that `--key` names, `None`
/// when the flag is absent. An unknown value is a usage error listing
/// the valid ones.
pub fn choice<T: Clone>(
    args: &ArgMap,
    key: &str,
    table: &[(&str, T)],
) -> Result<Option<T>, CliError> {
    let Some(value) = args.optional(key) else {
        return Ok(None);
    };
    match table.iter().find(|(name, _)| *name == value) {
        Some((_, t)) => Ok(Some(t.clone())),
        None => {
            let names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
            Err(CliError::Usage(format!(
                "unknown --{key} `{value}`; valid options are: {}",
                names.join(", ")
            )))
        }
    }
}

/// One run of `clustream simulate`, as data. Every field is a flag; a
/// field the chosen runtime cannot use stays representable so that
/// [`RunPlan::validate`] — not the parser — owns every cross-field rule.
#[derive(Debug, Clone, PartialEq)]
pub struct RunPlan {
    /// The scheme streamed.
    pub scheme: SchemeSpec,
    /// Packets tracked for QoS measurement.
    pub track: u64,
    /// Slot horizon; `None` derives it (see [`RunPlan::horizon_slots`]).
    pub horizon: Option<u64>,
    /// Runtime model.
    pub runtime: Runtime,
    /// Slot engine.
    pub engine: Engine,
    /// In-run shards of the mega engine; `None` = not asked for.
    pub shards: Option<usize>,
    /// DES event queue; `None` = not asked for (the heap).
    pub queue: Option<QueueKind>,
    /// DES per-link latency model.
    pub latency: LatencyModel,
    /// DES uplink contention model.
    pub uplink: UplinkModel,
    /// DES per-node uplink capacity classes.
    pub classes: Option<CapacityClassPlan>,
    /// Seed of the latency model's noise.
    pub des_seed: u64,
    /// DES recovery tier.
    pub recovery: RecoveryConfig,
    /// Parameters of the seeded churn trace the DES replays.
    pub churn: Option<ChurnTraceConfig>,
    /// Flash-crowd script; switches the run to the crowd dynamics, the
    /// fault-tolerant regime and a finite horizon.
    pub scenario: Option<ScenarioPlan>,
    /// Where the CLI writes the run's metrics as JSONL.
    pub metrics_out: Option<String>,
}

/// `(engine label, result, DES counters)` of a finished run.
pub type Outcome = (String, RunResult, Option<DesStats>);

impl RunPlan {
    /// The default run of `scheme`: fast slot engine, fixed latency, no
    /// recovery, churn or scenario.
    pub fn new(scheme: SchemeSpec, track: u64) -> RunPlan {
        RunPlan {
            scheme,
            track,
            horizon: None,
            runtime: Runtime::Slot,
            engine: Engine::Fast,
            shards: None,
            queue: None,
            latency: LatencyModel::Fixed,
            uplink: UplinkModel::Unconstrained,
            classes: None,
            des_seed: 0,
            recovery: RecoveryConfig::default(),
            churn: None,
            scenario: None,
            metrics_out: None,
        }
    }

    /// Parse `simulate`'s flags. Total: any key/value input is a plan or
    /// a usage error, and no number read here sizes an allocation (the
    /// churn trace is generated by [`RunPlan::des_config`]).
    pub fn from_args(args: &ArgMap) -> Result<RunPlan, CliError> {
        args.check_known(SIMULATE_USAGE)?;
        let scheme = SchemeSpec::from_args(args)?;
        let track = args.usize_or("track", 48)? as u64;
        let runtimes = [
            ("slot", Runtime::Slot),
            ("des", Runtime::Des),
            ("des-checked", Runtime::DesChecked),
        ];
        let runtime = choice(args, "runtime", &runtimes)?.unwrap_or(Runtime::Slot);
        let engines = [
            ("reference", Engine::Reference),
            ("fast", Engine::Fast),
            ("mega", Engine::Mega),
            ("checked", Engine::Checked),
        ];
        let engine = choice(args, "engine", &engines)?.unwrap_or(Engine::Fast);
        let shards = args.parsed("shards", "an integer")?;
        let latency = parse_latency(args)?;
        let uplinks = [
            ("unconstrained", UplinkModel::Unconstrained),
            ("serialized", UplinkModel::Serialized),
        ];
        let uplink = choice(args, "uplink", &uplinks)?.unwrap_or(UplinkModel::Unconstrained);
        let queues = [
            ("heap", QueueKind::Heap),
            ("wheel", QueueKind::Wheel),
            ("checked", QueueKind::Checked),
        ];
        let queue = choice(args, "queue", &queues)?;
        let recovery = parse_recovery(args)?;
        let churn = parse_churn(args, scheme.n)?;
        let scenario = args
            .optional("scenario")
            .map(ScenarioPlan::parse)
            .transpose()
            .map_err(CliError::Usage)?;
        let classes = parse_classes(args)?;
        // `--horizon` bounds the runs that never complete, and (today's
        // behaviour) is not read by the others; likewise `--des-seed`.
        let horizon = match churn.is_some() || scenario.is_some() {
            true => args.parsed("horizon", "a non-negative integer")?,
            false => None,
        };
        let des_seed = match runtime {
            Runtime::Des => args.u64_or("des-seed", 0)?,
            _ => 0,
        };
        Ok(RunPlan {
            horizon,
            runtime,
            engine,
            shards,
            queue,
            latency,
            uplink,
            classes,
            des_seed,
            recovery,
            churn,
            scenario,
            metrics_out: args.optional("metrics-out").map(str::to_string),
            ..RunPlan::new(scheme, track)
        })
    }

    /// The rule book: every cross-field constraint of a run, first
    /// violation first.
    pub fn validate(&self) -> Result<(), CliError> {
        let usage = |msg: &str| Err(CliError::Usage(msg.into()));
        let multitree = self.scheme.family == Family::MultiTree;
        let relaxed_net =
            !self.latency.is_slot_exact() || self.uplink != UplinkModel::Unconstrained;
        if self.shards == Some(0) {
            return usage("--shards must be at least 1");
        }
        if self.shards.is_some() && self.engine != Engine::Mega {
            return usage(
                "--shards partitions the mega engine's node range; it needs --engine mega",
            );
        }
        if self.scenario.is_some() && !multitree {
            return usage(
                "--scenario replays the flash-crowd add dynamics; it requires --scheme multitree",
            );
        }
        if self.scenario.is_some() && self.churn.is_some() {
            return usage("--scenario compiles its own churn trace; drop the --churn-* flags");
        }
        if self.scenario.is_some() && self.recovery.mode.enabled() {
            return usage(
                "--scenario scripts its own joins and repairs; drop --recovery (detecting \
                 scripted failures is not modelled)",
            );
        }
        if self.classes.is_some() && self.runtime == Runtime::Slot {
            return usage(
                "--classes shapes per-node DES uplink credit; it needs --runtime des \
                 (and --uplink serialized)",
            );
        }
        if self.queue.is_some() && self.runtime == Runtime::Slot {
            return usage(
                "--queue selects the DES event queue; it needs --runtime des or des-checked",
            );
        }
        if (self.recovery.mode.enabled() || self.churn.is_some()) && self.runtime != Runtime::Des {
            return usage(
                "--recovery/--churn-* need --runtime des (failure detection and churn are \
                 asynchronous processes)",
            );
        }
        if self.recovery.mode.enabled() && !multitree {
            return usage(
                "--recovery repair heals the appendix multi-tree dynamics; it requires \
                 --scheme multitree",
            );
        }
        if self.churn.is_some() && self.scheme.n < 2 {
            return usage("--churn-* thin a population of at least 2 members; raise --n");
        }
        if let Some(plan) = self.scenario.as_ref().filter(|s| self.drained(s).is_none()) {
            return Err(CliError::Usage(format!(
                "bad --scenario `{plan}`: its last event slot plus the 4·track drain \
                 overflows u64"
            )));
        }
        match self.runtime {
            Runtime::Slot if relaxed_net => usage(
                "--latency/--uplink models need --runtime des (the slot runtime is \
                 synchronous by construction)",
            ),
            Runtime::DesChecked if relaxed_net || self.classes.is_some() => usage(
                "--runtime des-checked verifies the slot-faithful configuration; drop \
                 --latency/--uplink/--classes or use --runtime des",
            ),
            Runtime::Des => self
                .des_config_over(self.sim_config(), None)
                .validate()
                .map_err(CliError::Usage),
            _ => Ok(()),
        }
    }

    /// A scenario's default horizon: its last event (at least one tracked
    /// window in) plus a 4·track drain. `None` when that overflows.
    fn drained(&self, scenario: &ScenarioPlan) -> Option<u64> {
        let drain = self.track.checked_mul(4)?;
        scenario
            .last_event_slot()
            .max(self.track)
            .checked_add(drain)
    }

    /// The slot horizon: [`RunPlan::horizon`] when set; else the churn
    /// trace's length or a scenario's drained end (churned and crowd runs
    /// never "complete"), else a bound no completing run reaches.
    pub fn horizon_slots(&self) -> u64 {
        self.horizon
            .unwrap_or_else(|| match (&self.churn, &self.scenario) {
                (Some(churn), _) => churn.slots.max(self.track.saturating_mul(4)),
                (None, Some(s)) => self.drained(s).unwrap_or(u64::MAX),
                (None, None) => 1_000_000,
            })
    }

    /// The slot-engine configuration. A scenario runs in the
    /// fault-tolerant regime: late joiners necessarily miss the head of
    /// the window, which must be reported as loss, not a fatal hiccup.
    pub fn sim_config(&self) -> SimConfig {
        match self.scenario {
            Some(_) => SimConfig::lossy_regime(self.track, self.horizon_slots()),
            None => SimConfig::until_complete(self.track, self.horizon_slots()),
        }
    }

    /// The DES configuration, churn trace generated.
    pub fn des_config(&self) -> DesConfig {
        self.des_config_over(self.sim_config(), self.churn.map(ChurnTrace::generate))
    }

    fn des_config_over(&self, sim: SimConfig, churn: Option<ChurnTrace>) -> DesConfig {
        DesConfig {
            latency: self.latency,
            uplink: self.uplink,
            capacity_classes: self.classes.clone(),
            latency_seed: self.des_seed,
            churn,
            recovery: self.recovery,
            queue: self.queue.unwrap_or_default(),
            ..DesConfig::slot_faithful(sim)
        }
    }

    /// A fresh instance of what the engines drive: the dynamic multi-tree
    /// under a scenario (scripted) or recovery (repaired online by the
    /// layer) — the rule book keeps the two apart — else the static scheme.
    pub fn build_scheme(&self) -> Result<Box<dyn Scheme>, CoreError> {
        match self.scenario.is_some() || self.recovery.mode.enabled() {
            true => Ok(Box::new(self.scheme.dynamic(self.scenario.as_ref())?)),
            false => self.scheme.build(),
        }
    }

    /// The `engine` line of the report.
    pub fn label(&self) -> String {
        let queue = match self.queue.unwrap_or_default() {
            QueueKind::Heap => String::new(),
            q => format!(", {} queue", q.label()),
        };
        match (self.runtime, self.engine) {
            (Runtime::Slot, Engine::Reference) => "reference".into(),
            (Runtime::Slot, Engine::Fast) => "fast".into(),
            (Runtime::Slot, Engine::Mega) => match self.shards {
                Some(k) if k > 1 => format!("mega ({k} shards)"),
                _ => "mega".into(),
            },
            (Runtime::Slot, Engine::Checked) => "checked (reference ≡ fast ≡ mega)".into(),
            (Runtime::DesChecked, _) => format!("des-checked (slot ≡ des{queue})"),
            (Runtime::Des, _) => {
                let latency = match self.latency {
                    LatencyModel::Fixed => "fixed latency".to_string(),
                    LatencyModel::UniformJitter { jitter } => format!("jitter ≤ {jitter} slots"),
                    LatencyModel::HeavyTail { scale, alpha, cap } => {
                        format!("heavy tail scale={scale} α={alpha} cap={cap}")
                    }
                };
                let heal = match self.recovery.mode {
                    RecoveryMode::Off => "",
                    RecoveryMode::Repair => ", self-healing repair",
                    RecoveryMode::RepairNack => ", self-healing repair+nack",
                };
                format!("des ({latency}{heal}){queue}")
            }
        }
    }

    /// Build the scheme and run it: each scheme instance is built once
    /// per engine that consumes one.
    pub fn run(&self, telemetry: &Telemetry) -> Result<Outcome, CliError> {
        let mut scheme = self.build_scheme()?;
        let what = match (self.runtime, self.engine) {
            (Runtime::Slot, Engine::Checked) => "differential check",
            (Runtime::DesChecked, _) => "slot/DES differential check",
            _ => return self.run_scheme(scheme.as_mut(), telemetry),
        };
        // The checked modes take one fresh instance per engine: the one
        // built above first, then more from the same (valid) plan.
        let cfg = self.sim_config().with_telemetry(telemetry.clone());
        let mut built = Some(scheme);
        let factory = || {
            built.take().unwrap_or_else(|| {
                self.build_scheme()
                    .expect("this plan built a scheme a moment ago")
            })
        };
        let checked = match self.runtime {
            Runtime::Slot => DiffHarness::check(factory, &cfg),
            _ => DesOracle::check_with_queue(factory, &cfg, self.queue.unwrap_or_default()),
        };
        match checked {
            Ok(r) => Ok((self.label(), r, None)),
            Err(Some(divergence)) => Err(CliError::Model(format!("{what} failed: {divergence}"))),
            // Every engine rejected the run identically: re-run the
            // reference engine to surface the model error itself.
            Err(None) => Err(Simulator::run(self.build_scheme()?.as_mut(), &cfg)
                .expect_err("all engines failed")
                .into()),
        }
    }

    /// Run an already-built `scheme` on this plan's single engine, for
    /// callers that read the scheme's state afterwards. The checked
    /// modes compare fresh instances and go through [`RunPlan::run`].
    pub fn run_scheme(
        &self,
        scheme: &mut dyn Scheme,
        telemetry: &Telemetry,
    ) -> Result<Outcome, CliError> {
        let cfg = self.sim_config().with_telemetry(telemetry.clone());
        let mut des_stats = None;
        let r = match (self.runtime, self.engine) {
            (Runtime::Slot, Engine::Reference) => Simulator::run(scheme, &cfg)?,
            (Runtime::Slot, Engine::Fast) => FastSimulator::run(scheme, &cfg)?,
            (Runtime::Slot, Engine::Mega) => {
                MegaSimulator::run_sharded(scheme, &cfg, self.shards.unwrap_or(1))?
            }
            (Runtime::Des, _) => {
                let mut engine = DesEngine::new();
                let des_cfg = self.des_config_over(cfg, self.churn.map(ChurnTrace::generate));
                let r = engine.run(scheme, &des_cfg)?;
                des_stats = Some(*engine.stats());
                r
            }
            (Runtime::Slot, Engine::Checked) | (Runtime::DesChecked, _) => {
                return Err(CliError::Usage(
                    "a checked run compares fresh scheme instances; it cannot drive a \
                     caller-built one"
                        .into(),
                ))
            }
        };
        Ok((self.label(), r, des_stats))
    }
}

/// `--latency fixed|jitter|heavytail` with `--jitter` (span, slots) or
/// `--scale`/`--alpha`/`--cap`; the table holds the defaults.
fn parse_latency(args: &ArgMap) -> Result<LatencyModel, CliError> {
    let models = [
        ("fixed", LatencyModel::Fixed),
        ("jitter", LatencyModel::UniformJitter { jitter: 0.5 }),
        (
            "heavytail",
            LatencyModel::HeavyTail {
                scale: 0.5,
                alpha: 1.5,
                cap: 8.0,
            },
        ),
    ];
    let mut model = choice(args, "latency", &models)?.unwrap_or(LatencyModel::Fixed);
    match &mut model {
        LatencyModel::Fixed => {}
        LatencyModel::UniformJitter { jitter } => *jitter = args.f64_or("jitter", *jitter)?,
        LatencyModel::HeavyTail { scale, alpha, cap } => {
            *scale = args.f64_or("scale", *scale)?;
            *alpha = args.f64_or("alpha", *alpha)?;
            *cap = args.f64_or("cap", *cap)?;
        }
    }
    model.validate().map_err(CliError::Usage)?;
    Ok(model)
}

/// `--recovery off|repair|repair+nack`.
fn parse_recovery(args: &ArgMap) -> Result<RecoveryConfig, CliError> {
    let tiers = [
        ("off", RecoveryConfig::default()),
        ("repair", RecoveryConfig::repair()),
        ("repair+nack", RecoveryConfig::repair_nack()),
    ];
    Ok(choice(args, "recovery", &tiers)?.unwrap_or_default())
}

/// `--churn-leave/--churn-join/--churn-rejoin` (per-slot per-member
/// probabilities) describe a seeded trace over `--churn-slots`. `None`
/// when no churn flag is given.
fn parse_churn(args: &ArgMap, n: usize) -> Result<Option<ChurnTraceConfig>, CliError> {
    let rate = |name| args.f64_or(name, 0.0).map(|r| (name, r));
    let rates = [
        rate("churn-leave")?,
        rate("churn-join")?,
        rate("churn-rejoin")?,
    ];
    let requested = rates.iter().any(|&(_, r)| r != 0.0)
        || args.optional("churn-slots").is_some()
        || args.optional("churn-seed").is_some();
    if !requested {
        return Ok(None);
    }
    for (name, r) in rates {
        if !(r.is_finite() && (0.0..=1.0).contains(&r)) {
            return Err(CliError::Usage(format!(
                "--{name} must be a probability in [0, 1], got {r}"
            )));
        }
    }
    Ok(Some(ChurnTraceConfig {
        initial_members: n,
        slots: args.u64_or("churn-slots", 200)?,
        leave_rate: rates[0].1,
        join_rate: rates[1].1,
        rejoin_rate: rates[2].1,
        seed: args.u64_or("churn-seed", 0)?,
    }))
}

/// `--classes NAME[:CAPACITY],…` — named per-node uplink capacity
/// classes, with the `--classes-zipf` and `--classes-seed` knobs.
fn parse_classes(args: &ArgMap) -> Result<Option<CapacityClassPlan>, CliError> {
    let Some(spec) = args.optional("classes") else {
        return Ok(None);
    };
    let plan = CapacityClassPlan::parse(spec)
        .map_err(CliError::Usage)?
        .with_zipf(args.f64_or("classes-zipf", 1.0)?)
        .seeded(args.u64_or("classes-seed", 0)?);
    plan.validate().map_err(CliError::Usage)?;
    Ok(Some(plan))
}

/// Per-node arrival timelines of a finished crowd run, for the QoE
/// frontiers: one per id of `crowd`'s id space that `survivor` keeps
/// (QoE is a survivors' metric — the departed have no player to stall).
/// Join slots come from `crowd`, whose id assignment is deterministic,
/// so a fresh replica serves as well as the instance that ran.
pub fn member_timelines(
    r: &RunResult,
    crowd: &DynamicMultiTree,
    track: u64,
    survivor: impl Fn(u64) -> bool,
) -> Vec<NodeTimeline> {
    let join_slots = crowd.join_slots();
    (1..=crowd.num_receivers() as u64)
        .filter(|&id| survivor(id))
        .map(|id| NodeTimeline {
            node: id,
            join_slot: join_slots.get(id as usize).copied().unwrap_or(0),
            usable: (0..track)
                .map(|p| {
                    r.arrivals
                        .usable_slot(NodeId(id as u32), PacketId(p))
                        .map(|s| s.t())
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn plan_of(flags: &str) -> Result<RunPlan, CliError> {
        let argv: Vec<String> = flags.split_whitespace().map(str::to_string).collect();
        RunPlan::from_args(&ArgMap::parse(&argv)?)
    }

    /// One row per rule of [`RunPlan::validate`], in rule order, each with
    /// the message `simulate` printed for it before the rules moved here
    /// (recorded from the binary of commit 1812eb7).
    #[test]
    fn every_cross_field_rule_keeps_its_message() {
        let mt = "--scheme multitree --n 12";
        let chain = "--scheme chain --n 8";
        for (flags, message) in [
            (
                format!("{mt} --engine mega --shards 0"),
                "--shards must be at least 1",
            ),
            (
                format!("{chain} --shards 2"),
                "--shards partitions the mega engine's node range; it needs --engine mega",
            ),
            (
                format!("{chain} --scenario step:4@1"),
                "--scenario replays the flash-crowd add dynamics; it requires --scheme multitree",
            ),
            (
                format!("{mt} --scenario step:4@1 --runtime des --churn-leave 0.01"),
                "--scenario compiles its own churn trace; drop the --churn-* flags",
            ),
            (
                format!("{mt} --scenario step:4@1 --runtime des --recovery repair"),
                "--scenario scripts its own joins and repairs; drop --recovery (detecting \
                 scripted failures is not modelled)",
            ),
            (
                format!("{mt} --classes fiber"),
                "--classes shapes per-node DES uplink credit; it needs --runtime des \
                 (and --uplink serialized)",
            ),
            (
                format!("{chain} --queue wheel"),
                "--queue selects the DES event queue; it needs --runtime des or des-checked",
            ),
            (
                format!("{mt} --recovery repair"),
                "--recovery/--churn-* need --runtime des (failure detection and churn are \
                 asynchronous processes)",
            ),
            (
                format!("{chain} --runtime des-checked --churn-slots 50"),
                "--recovery/--churn-* need --runtime des (failure detection and churn are \
                 asynchronous processes)",
            ),
            (
                format!("{chain} --runtime des --recovery repair"),
                "--recovery repair heals the appendix multi-tree dynamics; it requires \
                 --scheme multitree",
            ),
            (
                format!("{mt} --scenario step:1@18446744073709551614"),
                "bad --scenario `step:1@18446744073709551614`: its last event slot plus the \
                 4·track drain overflows u64",
            ),
            (
                format!("{chain} --latency jitter"),
                "--latency/--uplink models need --runtime des (the slot runtime is \
                 synchronous by construction)",
            ),
            (
                format!("{chain} --uplink serialized"),
                "--latency/--uplink models need --runtime des (the slot runtime is \
                 synchronous by construction)",
            ),
            (
                format!("{chain} --runtime des-checked --uplink serialized"),
                "--runtime des-checked verifies the slot-faithful configuration; drop \
                 --latency/--uplink/--classes or use --runtime des",
            ),
            (
                format!("{mt} --runtime des-checked --classes fiber"),
                "--runtime des-checked verifies the slot-faithful configuration; drop \
                 --latency/--uplink/--classes or use --runtime des",
            ),
            (
                // Lives in `DesConfig::validate`; reached through this one.
                format!("{mt} --runtime des --classes fiber"),
                "--classes requires the serialized uplink model (--uplink serialized): \
                 capacity classes reshape uplink credit, which the unconstrained model ignores",
            ),
        ] {
            let plan = plan_of(&flags).unwrap_or_else(|e| panic!("`{flags}` must parse: {e}"));
            assert_eq!(
                plan.validate(),
                Err(CliError::Usage(message.to_string())),
                "{flags}"
            );
        }
    }

    #[test]
    fn churn_needs_a_population_to_thin() {
        // `ChurnTrace::generate` asserts two initial members; the rule
        // book answers first.
        let plan = plan_of("--scheme chain --n 1 --runtime des --churn-leave 0.1").unwrap();
        let err = plan.validate().unwrap_err().to_string();
        assert!(err.contains("at least 2 members"), "{err}");
    }

    #[test]
    fn valid_plans_pass_the_rule_book_and_lower_as_the_cli_did() {
        let plan = plan_of(
            "--scheme multitree --n 30 --d 3 --track 32 --runtime des --queue wheel \
             --latency jitter --uplink serialized --recovery repair+nack --churn-leave 0.002 \
             --churn-slots 160 --des-seed 7",
        )
        .unwrap();
        plan.validate().unwrap();
        assert_eq!(plan.horizon_slots(), 160);
        assert_eq!(
            plan.label(),
            "des (jitter ≤ 0.5 slots, self-healing repair+nack), wheel queue"
        );
        let des = plan.des_config();
        assert_eq!(des.latency_seed, 7);
        assert_eq!(des.churn.unwrap().config.slots, 160);
        assert!(des.sim.stop_when_complete && des.sim.faults.is_none());

        // A scenario switches to the fault-tolerant regime and drains
        // 4·track past its last event; --horizon overrides.
        let crowd = plan_of("--scheme multitree --n 12 --track 10 --scenario step:6@50").unwrap();
        crowd.validate().unwrap();
        assert_eq!(crowd.horizon_slots(), 90);
        assert!(crowd.sim_config().faults.is_some());
        let short = plan_of("--scheme multitree --n 12 --scenario step:6@50 --horizon 70").unwrap();
        assert_eq!(short.horizon_slots(), 70);

        // Plain runs ignore --horizon, as they always have.
        let plain = plan_of("--scheme chain --n 5 --horizon 3").unwrap();
        assert_eq!(plain.horizon, None);
        assert_eq!(plain.sim_config().max_slots, 1_000_000);
    }

    #[test]
    fn the_ledger_workloads_too_heavy_for_the_golden_test_still_parse() {
        // benchmark/src/workloads.rs: scale_multitree, scale_observed,
        // des_plain, des_recovery (cli_mix is replayed in full by
        // tests/cli_golden.rs), and ci.sh's N = 10^5 sharded smoke.
        for flags in [
            "--scheme multitree --n 100000 --d 3 --track 256 --engine mega",
            "--scheme multitree --n 100000 --d 3 --track 256 --engine mega --metrics-out m.jsonl",
            "--scheme multitree --n 20000 --d 3 --track 128 --runtime des --queue wheel",
            "--scheme multitree --n 2000 --d 3 --track 128 --runtime des --queue wheel \
             --latency jitter --jitter 0.5 --uplink serialized --recovery repair+nack \
             --churn-leave 0.0005 --churn-slots 200 --des-seed 7",
            "--scheme multitree --n 100000 --d 3 --track 64 --engine mega --shards 4",
        ] {
            let plan = plan_of(flags).unwrap_or_else(|e| panic!("`{flags}`: {e}"));
            plan.validate().unwrap_or_else(|e| panic!("`{flags}`: {e}"));
        }
    }

    #[test]
    fn unknown_flags_and_unread_values_are_rejected() {
        let err = plan_of("--scheme multitree --n 30 --trak 64")
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown flag `--trak`"), "{err}");
        assert!(
            err.contains("--track") && err.contains("--horizon"),
            "{err}"
        );
        // The chain reads neither --mode nor --d; their values are still
        // checked.
        let err = plan_of("--scheme chain --n 5 --mode nonsense").unwrap_err();
        assert!(err.to_string().contains("--mode must be"), "{err}");
        assert!(plan_of("--scheme chain --n 5 --d x").is_err());
    }

    /// Keys the soup draws from: the whole vocabulary plus strangers.
    fn soup_keys() -> Vec<&'static str> {
        let known = crate::args::usage_flags(SIMULATE_USAGE);
        known.chain(["trak", "bogus", "", "-n"]).collect()
    }

    const SOUP_VALUES: &[&str] = &[
        "",
        "0",
        "1",
        "2",
        "7",
        "64",
        "-1",
        "0.5",
        "1.5",
        "1e308",
        "NaN",
        "inf",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "340282366920938463463374607431768211456",
        "multitree",
        "hypercube",
        "chain",
        "singletree",
        "pre",
        "pipelined",
        "slot",
        "des",
        "des-checked",
        "fast",
        "mega",
        "checked",
        "wheel",
        "jitter",
        "heavytail",
        "serialized",
        "repair+nack",
        "2.5slots",
        "18446744073709551615ticks",
        "1e30slots",
        "3yr",
        "step:6@2",
        "step:1@18446744073709551614",
        "ramp:4294967295@0+1,fail:1-4294967295@3",
        "fiber,cable:3,mobile",
        "fiber:18446744073709551615",
        "out.jsonl",
        "💥",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// `from_args` is total over key/value soup: a plan or a
        /// `CliError`, never a panic — and what it accepts validates,
        /// labels and lowers to a slot config without one either. No
        /// flag value sizes an allocation on the way (a `--n` or
        /// `--churn-slots` of `u64::MAX` would abort right here).
        fn from_args_is_total_over_flag_soup(
            picks in proptest::collection::vec((0usize..64, 0usize..64, any::<bool>()), 0..12),
            anchor in any::<bool>(),
        ) {
            let keys = soup_keys();
            let mut argv: Vec<String> = Vec::new();
            let mut seen: Vec<&str> = Vec::new();
            // Half the soups start from a valid core, to reach the depths.
            if anchor {
                argv.extend(["--scheme", "multitree", "--n", "12"].map(str::to_string));
                seen.extend(["scheme", "n"]);
            }
            for (k, v, raw_number) in picks {
                let key = keys[k % keys.len()];
                if seen.contains(&key) {
                    continue;
                }
                seen.push(key);
                argv.push(format!("--{key}"));
                argv.push(match raw_number {
                    true => (v as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).to_string(),
                    false => SOUP_VALUES[v % SOUP_VALUES.len()].to_string(),
                });
            }
            let args = ArgMap::parse(&argv).expect("distinct --key value pairs");
            match RunPlan::from_args(&args) {
                Err(CliError::Usage(_)) => {}
                Err(CliError::Model(m)) => prop_assert!(false, "parsing is not a model matter: {}", m),
                Ok(plan) => {
                    let _ = plan.validate();
                    let _ = plan.label();
                    let cfg = plan.sim_config();
                    prop_assert_eq!(cfg.max_slots, plan.horizon_slots());
                    prop_assert!(seen.iter().all(|k| keys[..keys.len() - 4].contains(k)));
                }
            }
        }
    }
}

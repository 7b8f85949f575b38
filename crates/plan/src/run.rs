//! [`RunPlan`]: one typed description of a `simulate` run — parsed once,
//! validated by one rule book, dispatched by one `match`.

use crate::args::{ArgMap, CliError, Usage};
use crate::scheme::{DelayBound, Family, SchemeSpec, SCHEME_USAGE};
use clustream_core::{CoreError, NodeId, PacketId, Scheme};
use clustream_des::{
    disagreement, CapacityClassPlan, Column, DesConfig, DesEngine, DesStats, LatencyModel,
    QueueKind, UplinkModel,
};
use clustream_recovery::{DynamicMultiTree, RecoveryConfig, RecoveryMode};
use clustream_sim::{MegaSimulator, RunResult, SimConfig, Simulator};
use clustream_telemetry::Telemetry;
use clustream_workloads::{ChurnTrace, ChurnTraceConfig, NodeTimeline, ScenarioPlan};

/// The horizon of a run that should complete but that no proven delay
/// bound covers (see [`RunPlan::delay_bound`]): far past any delay such a
/// run shows.
const UNPROVEN_HORIZON: u64 = 1_000_000;

/// Which runtime model drives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// Lockstep slot execution (pick the engine with [`Engine`]).
    Slot,
    /// Discrete-event runtime with pluggable latency/uplink models.
    Des,
}

/// Which slot engine executes a [`Runtime::Slot`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The readable reference engine.
    Reference,
    /// The default: the slot kernel with steady-state schedule lowering
    /// and optional in-run sharding (bit-identical results).
    Mega,
}

/// `simulate`'s usage text, and so its flag vocabulary.
pub const SIMULATE_USAGE: Usage = &[
    SCHEME_USAGE[0],
    SCHEME_USAGE[1],
    "[--track <P>] [--runtime <slot|des>] [--metrics-out <FILE.jsonl>]",
    "[--check]    (diff the run against every oracle it admits; one shard)",
    "[--engine <mega|reference>] [--shards <K>]    (slot runtime; shards: mega)",
    "[--queue <wheel>]    (des runtime; the default, kept for the benchmark's argv)",
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
    /// Slot engine; `None` = not asked for (mega).
    pub engine: Option<Engine>,
    /// Run every oracle the plan admits beside it (`--check`; see
    /// [`RunPlan::run`]).
    pub check: bool,
    /// In-run shards of the mega engine; `None` = not asked for.
    pub shards: Option<usize>,
    /// DES event queue; `None` = not asked for (the wheel, unnamed in
    /// the `engine` line).
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

/// One column's raw outcome and, when the DES ran, its counters.
type Ran = (Result<RunResult, CoreError>, Option<DesStats>);

impl RunPlan {
    /// The default run of `scheme`: mega slot engine, fixed latency, no
    /// recovery, churn or scenario.
    pub fn new(scheme: SchemeSpec, track: u64) -> RunPlan {
        RunPlan {
            scheme,
            track,
            horizon: None,
            runtime: Runtime::Slot,
            engine: None,
            check: false,
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
        let runtimes = [("slot", Runtime::Slot), ("des", Runtime::Des)];
        let runtime = choice(args, "runtime", &runtimes)?.unwrap_or(Runtime::Slot);
        let engines = [("reference", Engine::Reference), ("mega", Engine::Mega)];
        let engine = choice(args, "engine", &engines)?;
        let shards = args.parsed("shards", "an integer")?;
        let latency = parse_latency(args)?;
        let uplinks = [
            ("unconstrained", UplinkModel::Unconstrained),
            ("serialized", UplinkModel::Serialized),
        ];
        let uplink = choice(args, "uplink", &uplinks)?.unwrap_or(UplinkModel::Unconstrained);
        let queue = choice(args, "queue", &[("wheel", QueueKind::Wheel)])?;
        let tiers = [
            ("off", RecoveryConfig::default()),
            ("repair", RecoveryConfig::repair()),
            ("repair+nack", RecoveryConfig::repair_nack()),
        ];
        let recovery = choice(args, "recovery", &tiers)?.unwrap_or_default();
        let churn = parse_churn(args, scheme.n)?;
        let scenario = args
            .optional("scenario")
            .map(ScenarioPlan::parse)
            .transpose()
            .map_err(CliError::Usage)?;
        let classes = parse_classes(args)?;
        // Every valued flag given is parsed, whether or not the run reads
        // it: `--horizon` bounds only the runs that never complete, and
        // `--des-seed` seeds only the DES.
        let horizon = args.parsed("horizon", "a non-negative integer")?;
        let horizon = horizon.filter(|_| churn.is_some() || scenario.is_some());
        let des_seed = args.u64_or("des-seed", 0)?;
        let des_seed = if runtime == Runtime::Des { des_seed } else { 0 };
        Ok(RunPlan {
            horizon,
            runtime,
            engine,
            check: args.switch("check"),
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
        if self.shards == Some(0) {
            return usage("--shards must be at least 1");
        }
        if (self.engine.is_some() || self.shards.is_some()) && self.runtime == Runtime::Des {
            return usage("--engine/--shards pick the slot engine; they need --runtime slot");
        }
        if self.shards.is_some() && self.engine == Some(Engine::Reference) {
            return usage(
                "--shards partitions the mega engine's node range; it needs --engine mega",
            );
        }
        if self.shards.is_some() && self.check {
            return usage("--check runs mega on one shard; drop --shards");
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
            return usage("--queue selects the DES event queue; it needs --runtime des");
        }
        if (self.recovery.mode.enabled() || self.churn.is_some()) && self.runtime == Runtime::Slot {
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
            Runtime::Slot if self.relaxed_net() => usage(
                "--latency/--uplink models need --runtime des (the slot runtime is \
                 synchronous by construction)",
            ),
            Runtime::Slot => Ok(()),
            Runtime::Des => self
                .des_config_over(self.sim_config(), None)
                .validate()
                .map_err(CliError::Usage),
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
    /// never "complete"); else, for a run the paper's bound covers, its
    /// [`DelayBound::completion_horizon`]; else 10⁶ slots.
    pub fn horizon_slots(&self) -> u64 {
        self.horizon
            .unwrap_or_else(|| match (&self.churn, &self.scenario) {
                (Some(churn), _) => churn.slots.max(self.track.saturating_mul(4)),
                (None, Some(s)) => self.drained(s).unwrap_or(u64::MAX),
                (None, None) => self
                    .delay_bound()
                    .map_or(UNPROVEN_HORIZON, |b| b.completion_horizon(self.track)),
            })
    }

    /// The scheme's [`SchemeSpec::worst_delay_bound`] when this run is one
    /// it covers: a completing run in the paper's synchronous model, on
    /// the derived horizon. `None` for runs with their own horizon, for
    /// churn, scenarios and recovery (membership changes the bound does
    /// not cover) and for relaxed DES runs (latency or uplink models,
    /// capacity classes: Theorem 2 assumes unit-latency slots).
    fn delay_bound(&self) -> Option<DelayBound> {
        let own_horizon = self.horizon.is_some() || self.churn.is_some() || self.scenario.is_some();
        (!self.relaxed() && !own_horizon).then(|| self.scheme.worst_delay_bound())
    }

    /// Whether a latency or uplink model relaxes the synchronous slot.
    fn relaxed_net(&self) -> bool {
        !self.latency.is_slot_exact() || self.uplink != UplinkModel::Unconstrained
    }

    /// Whether the run leaves the paper's synchronous model: a relaxed
    /// network, capacity classes or recovery.
    fn relaxed(&self) -> bool {
        self.relaxed_net() || self.classes.is_some() || self.recovery.mode.enabled()
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
            queue: self.des_queue(),
            ..DesConfig::slot_faithful(sim)
        }
    }

    /// The event queue the DES drains: the wheel, or under `--check` the
    /// heap popping beside it, pop for pop ([`QueueKind::Checked`]).
    fn des_queue(&self) -> QueueKind {
        self.check
            .then_some(QueueKind::Checked)
            .or(self.queue)
            .unwrap_or_default()
    }

    /// The engine column this plan reports, and the only one that records
    /// its telemetry.
    fn column(&self) -> Column {
        match (self.runtime, self.engine) {
            (Runtime::Slot, Some(Engine::Reference)) => Column::Reference,
            (Runtime::Slot, _) => Column::Mega,
            (Runtime::Des, _) => Column::Des(self.des_queue()),
        }
    }

    /// The columns `--check` diffs the reported one against, field for
    /// field: the other slot engine, or mega beside a DES in strict mode
    /// ([`DesConfig::is_slot_faithful`]; a scenario's dynamics live in the
    /// scheme and keep it strict). A relaxed DES has no slot twin; its
    /// oracle is the heap queue inside the run ([`RunPlan::des_queue`]).
    fn oracles(&self) -> &'static [Column] {
        match self.column() {
            _ if !self.check => &[],
            Column::Reference => &[Column::Mega],
            Column::Mega => &[Column::Reference],
            Column::Des(_) if !self.relaxed() && self.churn.is_none() => &[Column::Mega],
            Column::Des(_) => &[],
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

    /// The `engine` line of the report: the reported column, and under
    /// `--check` what it was diffed against.
    pub fn label(&self) -> String {
        match (self.column(), self.check) {
            (Column::Des(_), _) => {
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
                let queue = self
                    .queue
                    .map_or(String::new(), |q| format!(", {} queue", q.label()));
                let check = match self.oracles() {
                    _ if !self.check => "",
                    [] => ", checked (heap ≡ wheel)",
                    _ => ", checked (heap ≡ wheel ≡ mega)",
                };
                format!("des ({latency}{heal}){queue}{check}")
            }
            (_, true) => "checked (reference ≡ mega)".into(),
            (Column::Reference, false) => "reference".into(),
            (Column::Mega, false) => match self.shards {
                Some(k) if k > 1 => format!("mega ({k} shards)"),
                _ => "mega".into(),
            },
        }
    }

    /// Build the scheme and run it on the reported column; under
    /// `--check`, run a fresh instance on each oracle column too, without
    /// telemetry, and demand the same outcome field for field
    /// ([`disagreement`]: equal results, or identically rendered errors).
    pub fn run(&self, telemetry: &Telemetry) -> Result<Outcome, CliError> {
        let ran = self.run_column(self.build_scheme()?.as_mut(), telemetry);
        for &oracle in self.oracles() {
            let other = oracle.run(self.build_scheme()?.as_mut(), &self.sim_config());
            if let Some(d) = disagreement((self.column(), &ran.0), (oracle, &other)) {
                return Err(CliError::Model(format!("differential check failed: {d}")));
            }
        }
        self.finish(ran)
    }

    /// Run an already-built `scheme` on the reported column, for callers
    /// that read the scheme's state afterwards. A plan with oracle
    /// columns compares fresh instances and goes through [`RunPlan::run`].
    pub fn run_scheme(
        &self,
        scheme: &mut dyn Scheme,
        telemetry: &Telemetry,
    ) -> Result<Outcome, CliError> {
        if !self.oracles().is_empty() {
            return Err(CliError::Usage(
                "a checked run compares fresh scheme instances".into(),
            ));
        }
        self.finish(self.run_column(scheme, telemetry))
    }

    /// Run `scheme` on the reported column, recording `telemetry`: its
    /// outcome, and the event counters when the DES ran.
    fn run_column(&self, scheme: &mut dyn Scheme, telemetry: &Telemetry) -> Ran {
        let cfg = self.sim_config().with_telemetry(telemetry.clone());
        let shards = self.shards.unwrap_or(1);
        match self.column() {
            Column::Reference => (Simulator::run(scheme, &cfg), None),
            Column::Mega => (MegaSimulator::run_sharded(scheme, &cfg, shards), None),
            Column::Des(_) => {
                let mut engine = DesEngine::new();
                let des = self.des_config_over(cfg, self.churn.map(ChurnTrace::generate));
                (engine.run(scheme, &des), Some(*engine.stats()))
            }
        }
    }

    /// A finished run as the report takes it. A run its delay bound sizes
    /// is held to the bound: an error is blamed on it
    /// ([`DelayBound::blame`]), and so is any receiver that completed
    /// past it ([`DelayBound::check`]).
    fn finish(&self, (r, des_stats): Ran) -> Result<Outcome, CliError> {
        let Some(bound) = self.delay_bound() else {
            return Ok((self.label(), r?, des_stats));
        };
        let r = r.map_err(|e| bound.blame(e))?;
        bound.check(&r.qos).map_err(CliError::Model)?;
        Ok((self.label(), r, des_stats))
    }
}

/// `--latency fixed|jitter|heavytail` with `--jitter` (span, slots) or
/// `--scale`/`--alpha`/`--cap`; the table holds the defaults. Each knob
/// given is parsed, whichever model reads it.
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
    let knob = |name| args.parsed::<f64>(name, "a number");
    let [jitter_knob, scale_knob, alpha_knob, cap_knob] = [
        knob("jitter")?,
        knob("scale")?,
        knob("alpha")?,
        knob("cap")?,
    ];
    match &mut model {
        LatencyModel::Fixed => {}
        LatencyModel::UniformJitter { jitter } => *jitter = jitter_knob.unwrap_or(*jitter),
        LatencyModel::HeavyTail { scale, alpha, cap } => {
            *scale = scale_knob.unwrap_or(*scale);
            *alpha = alpha_knob.unwrap_or(*alpha);
            *cap = cap_knob.unwrap_or(*cap);
        }
    }
    model.validate().map_err(CliError::Usage)?;
    Ok(model)
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
/// classes, with the `--classes-zipf` and `--classes-seed` knobs (parsed
/// when given, with `--classes` or without).
fn parse_classes(args: &ArgMap) -> Result<Option<CapacityClassPlan>, CliError> {
    let zipf = args.f64_or("classes-zipf", 1.0)?;
    let seed = args.u64_or("classes-seed", 0)?;
    let Some(spec) = args.optional("classes") else {
        return Ok(None);
    };
    let plan = CapacityClassPlan::parse(spec)
        .map_err(CliError::Usage)?
        .with_zipf(zipf)
        .seeded(seed);
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
                format!("{chain} --runtime des --engine reference"),
                "--engine/--shards pick the slot engine; they need --runtime slot",
            ),
            (
                format!("{chain} --engine reference --shards 2"),
                "--shards partitions the mega engine's node range; it needs --engine mega",
            ),
            (
                format!("{chain} --check --shards 2"),
                "--check runs mega on one shard; drop --shards",
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
                "--queue selects the DES event queue; it needs --runtime des",
            ),
            (
                format!("{mt} --recovery repair"),
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
    fn shards_need_the_mega_engine_which_is_the_default() {
        for engine in ["", " --engine mega"] {
            let plan = plan_of(&format!("--scheme chain --n 8{engine} --shards 2")).unwrap();
            plan.validate().unwrap();
            assert_eq!(plan.column(), Column::Mega);
            assert_eq!(plan.label(), "mega (2 shards)");
        }
        for flags in ["--engine reference", "--check", "--runtime des"] {
            let plan = plan_of(&format!("--scheme chain --n 8 {flags} --shards 2"));
            assert!(plan.unwrap().validate().is_err(), "{flags}");
        }
    }

    /// Every plan `--check` admits says in its `engine` line what it
    /// compared: the slot engines, the DES's two queues and mega, or the
    /// two queues alone where the DES has no slot twin.
    #[test]
    fn every_check_names_what_it_compared() {
        let mt = "--scheme multitree --n 12 --d 3 --track 8";
        let slot = "checked (reference ≡ mega)";
        let strict = ", checked (heap ≡ wheel ≡ mega)";
        let relaxed = ", checked (heap ≡ wheel)";
        for (flags, label, oracles) in [
            ("", slot.to_string(), &[Column::Reference][..]),
            ("--engine mega", slot.into(), &[Column::Reference]),
            ("--engine reference", slot.into(), &[Column::Mega]),
            (
                "--runtime des",
                format!("des (fixed latency){strict}"),
                &[Column::Mega],
            ),
            (
                "--runtime des --queue wheel",
                format!("des (fixed latency), wheel queue{strict}"),
                &[Column::Mega],
            ),
            (
                "--runtime des --scenario step:4@2",
                format!("des (fixed latency){strict}"),
                &[Column::Mega],
            ),
            (
                "--runtime des --latency jitter",
                format!("des (jitter ≤ 0.5 slots){relaxed}"),
                &[],
            ),
            (
                "--runtime des --uplink serialized --classes fiber",
                format!("des (fixed latency){relaxed}"),
                &[],
            ),
            (
                "--runtime des --recovery repair",
                format!("des (fixed latency, self-healing repair){relaxed}"),
                &[],
            ),
            (
                "--runtime des --churn-slots 40",
                format!("des (fixed latency){relaxed}"),
                &[],
            ),
        ] {
            let unchecked = plan_of(&format!("{mt} {flags}")).unwrap();
            let plan = plan_of(&format!("{mt} {flags} --check")).unwrap();
            plan.validate().unwrap_or_else(|e| panic!("`{flags}`: {e}"));
            assert_eq!(plan.label(), label, "`{flags}`");
            assert_eq!(plan.oracles(), oracles, "`{flags}`");
            assert!(unchecked.oracles().is_empty(), "`{flags}`");
            if plan.runtime == Runtime::Des {
                assert_eq!(plan.des_config().queue, QueueKind::Checked, "`{flags}`");
                assert!(label.starts_with(&unchecked.label()), "`{flags}`");
            }
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

        // Plain runs ignore --horizon, as they always have, and stop at
        // the default 48 tracked packets plus the chain's bound N = 5.
        let plain = plan_of("--scheme chain --n 5 --horizon 3").unwrap();
        assert_eq!(plain.horizon, None);
        assert_eq!(plain.sim_config().max_slots, 53);
    }

    #[test]
    fn only_runs_the_bound_covers_get_its_horizon() {
        let mt = "--scheme multitree --n 40 --d 3 --track 32";
        let covered = plan_of(mt).unwrap();
        let bound = covered.scheme.worst_delay_bound();
        assert_eq!((bound.theorem, bound.slots), ("Theorem 2's h·d", 12));
        assert_eq!(covered.delay_bound(), Some(bound));
        assert_eq!(covered.horizon_slots(), 32 + 12);
        for runtime in [
            "--engine mega",
            "--check",
            "--runtime des",
            "--runtime des --check",
        ] {
            let plan = plan_of(&format!("{mt} {runtime}")).unwrap();
            assert_eq!(plan.horizon_slots(), 44, "{runtime}");
        }
        // Runs whose bound the paper does not prove keep the fallback:
        // relaxed DES timing and recovery. Churn and scenarios size their
        // own horizon.
        for flags in [
            "--runtime des --latency jitter",
            "--runtime des --uplink serialized",
            "--runtime des --uplink serialized --classes fiber",
            "--runtime des --recovery repair",
        ] {
            let plan = plan_of(&format!("{mt} {flags}")).unwrap();
            assert_eq!(plan.delay_bound(), None, "{flags}");
            assert_eq!(plan.horizon_slots(), UNPROVEN_HORIZON, "{flags}");
        }
        for flags in ["--runtime des --churn-slots 160", "--scenario step:6@50"] {
            let plan = plan_of(&format!("{mt} {flags}")).unwrap();
            assert_eq!(plan.delay_bound(), None, "{flags}");
            assert_ne!(plan.horizon_slots(), UNPROVEN_HORIZON, "{flags}");
        }
    }

    #[test]
    fn a_malformed_value_is_refused_whether_or_not_the_run_reads_it() {
        let plain = "--scheme multitree --n 100 --d 3";
        for (flag, value, what) in [
            ("horizon", "abc", "a non-negative integer"),
            ("des-seed", "xyz", "a non-negative integer"),
            ("jitter", "abc", "a number"),
            ("scale", "abc", "a number"),
            ("alpha", "abc", "a number"),
            ("cap", "abc", "a number"),
            ("classes-seed", "abc", "a non-negative integer"),
            ("classes-zipf", "abc", "a number"),
        ] {
            for runtime in ["", " --runtime des"] {
                let flags = format!("{plain}{runtime} --{flag} {value}");
                assert_eq!(
                    plan_of(&flags).unwrap_err(),
                    CliError::Usage(format!("--{flag} must be {what}")),
                    "`{flags}`"
                );
            }
        }
        // A well-formed value the run ignores is still accepted.
        for flag in ["horizon 120", "des-seed 7", "jitter 0.5", "classes-seed 3"] {
            let plan = plan_of(&format!("{plain} --{flag}")).unwrap();
            assert_eq!((plan.horizon, plan.des_seed), (None, 0), "--{flag}");
        }
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
        #[test]
        fn from_args_is_total_over_flag_soup(
            picks in proptest::collection::vec((0usize..64, 0usize..64, 0u8..8), 0..12),
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
            for (k, v, form) in picks {
                let key = keys[k % keys.len()];
                if seen.contains(&key) {
                    continue;
                }
                seen.push(key);
                argv.push(format!("--{key}"));
                // One key in eight comes bare: a switch, or a valued flag
                // missing its value.
                argv.extend(match form {
                    0 => None,
                    1..=4 => Some(SOUP_VALUES[v % SOUP_VALUES.len()].to_string()),
                    _ => Some((v as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).to_string()),
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

//! The pinned workloads: what each timed unit runs, what it must print,
//! and how much oracle-pinned work it does.
//!
//! Every simulate command is described once, as a [`SimSpec`]; the worker
//! argv and the traced pass's direct library calls are both derived from
//! it, so the two cannot drift apart.

use crate::check::Pins;
use clustream_multitree::StreamMode;

/// The seed `run.sh` uses when none is given.
pub const DEFAULT_SEED: u64 = 7;

/// Frames one `net_framepump` unit sends.
pub const PUMP_FRAMES: u64 = 1_000_000;

/// What `work_per_s` counts for a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkUnit {
    /// Simulated transmissions (the pinned `transmissions` lines).
    Transmissions,
    /// CLI commands completed.
    Commands,
    /// Frames received and checked.
    Frames,
}

pub struct Workload {
    pub name: &'static str,
    pub work_unit: WorkUnit,
    /// Timed units per round when every workload runs interleaved.
    pub units_per_round: u32,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "cli_mix",
        work_unit: WorkUnit::Commands,
        units_per_round: 3,
    },
    Workload {
        name: "scale_multitree",
        work_unit: WorkUnit::Transmissions,
        units_per_round: 1,
    },
    Workload {
        name: "scale_observed",
        work_unit: WorkUnit::Transmissions,
        units_per_round: 1,
    },
    Workload {
        name: "des_plain",
        work_unit: WorkUnit::Transmissions,
        units_per_round: 2,
    },
    Workload {
        name: "des_recovery",
        work_unit: WorkUnit::Transmissions,
        units_per_round: 1,
    },
    Workload {
        name: "net_framepump",
        work_unit: WorkUnit::Frames,
        units_per_round: 1,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeSpec {
    MultiTree {
        n: usize,
        d: usize,
        mode: StreamMode,
    },
    Hypercube {
        n: usize,
    },
    Chain {
        n: usize,
    },
    SingleTree {
        n: usize,
        d: usize,
    },
    /// `--scenario`: the flash-crowd dynamics over a multi-tree.
    Crowd {
        n: usize,
        d: usize,
        scenario: &'static str,
    },
}

impl SchemeSpec {
    /// Receivers at slot 0.
    pub fn n(&self) -> usize {
        match *self {
            SchemeSpec::MultiTree { n, .. }
            | SchemeSpec::Hypercube { n }
            | SchemeSpec::Chain { n }
            | SchemeSpec::SingleTree { n, .. }
            | SchemeSpec::Crowd { n, .. } => n,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// The default slot engine (`sim::fast`).
    Fast,
    /// `--engine mega`.
    Mega,
    /// `--runtime des --queue wheel`, fixed latency, no recovery.
    DesPlain,
    /// The wheel DES under jitter, a serialized uplink, churn and
    /// `repair+nack` recovery; parameters in the `RECOVERY_*` constants.
    DesRecovery,
}

pub const RECOVERY_JITTER: f64 = 0.5;
pub const RECOVERY_CHURN_LEAVE: f64 = 0.0005;
pub const RECOVERY_CHURN_SLOTS: u64 = 200;
pub const RECOVERY_DES_SEED: u64 = 7;

/// One `clustream simulate` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimSpec {
    pub scheme: SchemeSpec,
    pub track: u64,
    pub runtime: Runtime,
}

impl SimSpec {
    /// The CLI arguments, `simulate` first.
    pub fn argv(&self) -> Vec<String> {
        let mut flags: Vec<(&str, String)> = Vec::new();
        let mut flag = |k: &'static str, v: &dyn ToString| flags.push((k, v.to_string()));
        match self.scheme {
            SchemeSpec::MultiTree { n, d, mode } => {
                flag("scheme", &"multitree");
                flag("n", &n);
                flag("d", &d);
                match mode {
                    StreamMode::PreRecorded => {}
                    StreamMode::LivePrebuffered => flag("mode", &"buffered"),
                    StreamMode::LivePipelined => flag("mode", &"pipelined"),
                }
            }
            SchemeSpec::Hypercube { n } => {
                flag("scheme", &"hypercube");
                flag("n", &n);
            }
            SchemeSpec::Chain { n } => {
                flag("scheme", &"chain");
                flag("n", &n);
            }
            SchemeSpec::SingleTree { n, d } => {
                flag("scheme", &"singletree");
                flag("n", &n);
                flag("d", &d);
            }
            SchemeSpec::Crowd { n, d, scenario } => {
                flag("scheme", &"multitree");
                flag("n", &n);
                flag("d", &d);
                flag("scenario", &scenario);
            }
        }
        flag("track", &self.track);
        match self.runtime {
            Runtime::Fast => {}
            Runtime::Mega => flag("engine", &"mega"),
            Runtime::DesPlain | Runtime::DesRecovery => {
                flag("runtime", &"des");
                flag("queue", &"wheel");
            }
        }
        if self.runtime == Runtime::DesRecovery {
            flag("latency", &"jitter");
            flag("jitter", &RECOVERY_JITTER);
            flag("uplink", &"serialized");
            flag("recovery", &"repair+nack");
            flag("churn-leave", &RECOVERY_CHURN_LEAVE);
            flag("churn-slots", &RECOVERY_CHURN_SLOTS);
            flag("des-seed", &RECOVERY_DES_SEED);
        }
        std::iter::once("simulate".to_string())
            .chain(flags.into_iter().flat_map(|(k, v)| [format!("--{k}"), v]))
            .collect()
    }
}

/// What one fresh worker process does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    Simulate {
        spec: SimSpec,
        /// Add `--metrics-out <file>`; the next step reports on the file.
        observed: bool,
    },
    /// Any other CLI command, verbatim.
    Cli(&'static [&'static str]),
    /// `report <file>` on the previous step's metrics file.
    Report,
    /// The two-thread frame pump over a Unix socket.
    Pump,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Short id; names the `cli.cmd.<key>.ms` metric and the trace spans.
    pub key: &'static str,
    pub action: Action,
    pub pins: Pins,
}

impl Step {
    /// The arguments `clustream_cli::run` gets for this step, with
    /// `metrics_file` where an observed `simulate` writes and `report`
    /// reads; `None` for the pump, which is not a CLI command.
    pub fn cli_argv(&self, metrics_file: &str) -> Option<Vec<String>> {
        match self.action {
            Action::Simulate { spec, observed } => {
                let mut argv = spec.argv();
                if observed {
                    argv.extend(["--metrics-out".to_string(), metrics_file.to_string()]);
                }
                Some(argv)
            }
            Action::Cli(args) => Some(args.iter().map(|a| a.to_string()).collect()),
            Action::Report => Some(vec!["report".to_string(), metrics_file.to_string()]),
            Action::Pump => None,
        }
    }
}

/// The six QoS lines every `simulate` prints.
macro_rules! qos {
    ($slots:literal, $max_delay:literal, $avg_delay:literal, $buffer:literal, $peers:literal, $tx:literal) => {
        &[
            ("slots run", $slots),
            ("max delay", concat!($max_delay, " slots")),
            ("avg delay", concat!($avg_delay, " slots")),
            ("max buffer", concat!($buffer, " packets")),
            ("max peers", $peers),
            ("transmissions", $tx),
        ]
    };
}

const fn multitree(n: usize, d: usize, mode: StreamMode, track: u64, runtime: Runtime) -> SimSpec {
    SimSpec {
        scheme: SchemeSpec::MultiTree { n, d, mode },
        track,
        runtime,
    }
}

const fn simulate(key: &'static str, spec: SimSpec, pins: Pins) -> Step {
    Step {
        key,
        action: Action::Simulate {
            spec,
            observed: false,
        },
        pins,
    }
}

const PRE: StreamMode = StreamMode::PreRecorded;

/// What someone reproducing the paper's Table 1 / Fig. 4 types, plus the
/// three non-simulate commands. 48 is the CLI's default `--track`.
const CLI_MIX: [Step; 12] = [
    simulate(
        "mt2000d3",
        multitree(2000, 3, PRE, 48, Runtime::Fast),
        qos!("65", "19", "13.22", "9", "6", "108002"),
    ),
    simulate(
        "mt2000d2",
        multitree(2000, 2, PRE, 48, Runtime::Fast),
        qos!("66", "19", "14.55", "9", "4", "106132"),
    ),
    simulate(
        "mt1023buf",
        multitree(1023, 3, StreamMode::LivePrebuffered, 48, Runtime::Fast),
        qos!("66", "20", "14.93", "8", "6", "54414"),
    ),
    simulate(
        "mt1023pipe",
        multitree(1023, 3, StreamMode::LivePipelined, 48, Runtime::Fast),
        qos!("68", "20", "14.15", "9", "6", "57414"),
    ),
    simulate(
        "hc1023",
        SimSpec {
            scheme: SchemeSpec::Hypercube { n: 1023 },
            track: 48,
            runtime: Runtime::Fast,
        },
        qos!("59", "11", "11.00", "3", "10", "50127"),
    ),
    simulate(
        "hc2000",
        SimSpec {
            scheme: SchemeSpec::Hypercube { n: 2000 },
            track: 48,
            runtime: Runtime::Fast,
        },
        qos!("104", "56", "19.18", "3", "26", "171628"),
    ),
    simulate(
        "chain1023",
        SimSpec {
            scheme: SchemeSpec::Chain { n: 1023 },
            track: 8,
            runtime: Runtime::Fast,
        },
        qos!("1031", "1023", "512.00", "2", "2", "530937"),
    ),
    simulate(
        "st1023",
        SimSpec {
            scheme: SchemeSpec::SingleTree { n: 1023, d: 3 },
            track: 48,
            runtime: Runtime::Fast,
        },
        qos!("54", "6", "5.48", "2", "4", "49641"),
    ),
    simulate(
        "crowd1000",
        SimSpec {
            scheme: SchemeSpec::Crowd {
                n: 2000,
                d: 3,
                scenario: "step:1000@20",
            },
            track: 96,
            runtime: Runtime::Mega,
        },
        &[
            ("slots run", "480"),
            ("max delay", "20 slots"),
            ("avg delay", "13.74 slots"),
            ("max buffer", "10 packets"),
            ("max peers", "11"),
            ("transmissions", "1398008"),
            ("missing", "9973 packets across 1222 nodes"),
        ],
    ),
    Step {
        key: "analyze",
        action: Action::Cli(&["analyze", "--n", "2000"]),
        pins: &[(
            "hypercube chain",
            "delay ≤ 56, avg ≤ 19.19, buffer 2 resident",
        )],
    },
    Step {
        key: "plan",
        action: Action::Cli(&["plan", "--clusters", "40:none,25:2", "--tc", "10"]),
        pins: &[(
            "simulated",
            "worst startup 23 slots, max buffer 5 packets, 0 hiccups",
        )],
    },
    Step {
        key: "trace",
        action: Action::Cli(&[
            "trace",
            "--scheme",
            "multitree",
            "--n",
            "2000",
            "--d",
            "3",
            "--node",
            "1999",
        ]),
        pins: &[(
            "packet 0 → node 1999",
            "S → n2 → n7 → n24 → n73 → n221 → n666 → n1999",
        )],
    },
];

const SCALE: SimSpec = multitree(100_000, 3, PRE, 256, Runtime::Mega);
const SCALE_PINS: Pins = qos!("287", "31", "20.79", "11", "6", "26862784");

/// Labels `report` shares with `simulate`; on `scale_observed` the two
/// outputs must agree on each.
pub const REPORT_LABELS: [&str; 5] = [
    "slots run",
    "max delay",
    "avg delay",
    "max buffer",
    "transmissions",
];

/// A splitmix64 stream: the benchmark's only randomness.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The steps of one timed unit of `name`, generated from `seed`.
///
/// The paper's model is deterministic and every simulated statistic is
/// pinned, so the seed never reaches a simulator: it would change the
/// amount of work (±10 % events across `--des-seed` values on
/// `des_recovery`) and with it every timing. It orders `cli_mix`'s
/// commands and generates `net_framepump`'s frames.
pub fn steps(name: &str, seed: u64) -> Vec<Step> {
    match name {
        "cli_mix" => {
            let mut steps = CLI_MIX.to_vec();
            let mut rng = Rng(seed);
            for i in (1..steps.len()).rev() {
                steps.swap(i, (rng.next() % (i as u64 + 1)) as usize);
            }
            steps
        }
        "scale_multitree" => vec![simulate("scale", SCALE, SCALE_PINS)],
        "scale_observed" => vec![
            Step {
                key: "scale",
                action: Action::Simulate {
                    spec: SCALE,
                    observed: true,
                },
                pins: SCALE_PINS,
            },
            Step {
                key: "report",
                action: Action::Report,
                pins: &[("receivers", "100000"), ("deliveries", "26862784")],
            },
        ],
        "des_plain" => vec![simulate(
            "des",
            multitree(20_000, 3, PRE, 128, Runtime::DesPlain),
            qos!("153", "26", "17.53", "11", "6", "2753989"),
        )],
        "des_recovery" => vec![simulate(
            "des",
            multitree(2000, 3, PRE, 128, Runtime::DesRecovery),
            &[
                ("slots run", "512"),
                ("max delay", "114 slots"),
                ("avg delay", "44.15 slots"),
                ("max buffer", "84 packets"),
                ("max peers", "53"),
                ("transmissions", "675847"),
                ("missing", "10790 packets across 162 nodes"),
                ("failures det", "27"),
                ("repairs", "27 committed, 17883 nodes displaced"),
                (
                    "nacks",
                    "71331 sent, 68826 retransmissions, 71247 repaired, 0 abandoned",
                ),
                ("control msgs", "283638"),
            ],
        )],
        "net_framepump" => vec![Step {
            key: "pump",
            action: Action::Pump,
            pins: &[
                ("frames received", "1000000"),
                ("decoded equal in order", "1000000"),
            ],
        }],
        other => panic!("unknown workload `{other}`"),
    }
}

/// The oracle-pinned work one unit does, in the workload's unit.
pub fn work_per_unit(w: &Workload, steps: &[Step]) -> u64 {
    match w.work_unit {
        WorkUnit::Commands => steps.len() as u64,
        WorkUnit::Frames => PUMP_FRAMES,
        WorkUnit::Transmissions => steps
            .iter()
            .filter(|s| matches!(s.action, Action::Simulate { .. }))
            .flat_map(|s| s.pins.iter())
            .filter(|(label, _)| *label == "transmissions")
            .map(|(_, v)| v.parse::<u64>().expect("pinned transmissions is a count"))
            .sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_steps_and_the_mix_is_a_permutation() {
        assert_eq!(steps("cli_mix", 3), steps("cli_mix", 3));
        assert_ne!(steps("cli_mix", 3), steps("cli_mix", 4));
        let mut keys: Vec<_> = steps("cli_mix", 11).iter().map(|s| s.key).collect();
        keys.sort_unstable();
        let mut want: Vec<_> = CLI_MIX.iter().map(|s| s.key).collect();
        want.sort_unstable();
        assert_eq!(keys, want);
    }

    #[test]
    fn work_counts_come_from_the_pins() {
        let count = |name: &str| work_per_unit(workload(name).unwrap(), &steps(name, 1));
        assert_eq!(count("cli_mix"), 12);
        assert_eq!(count("scale_multitree"), 26_862_784);
        assert_eq!(count("scale_observed"), 26_862_784);
        assert_eq!(count("des_plain"), 2_753_989);
        assert_eq!(count("des_recovery"), 675_847);
        assert_eq!(count("net_framepump"), PUMP_FRAMES);
    }

    #[test]
    fn argv_spells_the_command_a_user_types() {
        assert_eq!(
            SCALE.argv().join(" "),
            "simulate --scheme multitree --n 100000 --d 3 --track 256 --engine mega"
        );
        let des = steps("des_recovery", 1)[0];
        let Action::Simulate { spec, .. } = des.action else {
            panic!("des_recovery is a simulate step");
        };
        assert_eq!(
            spec.argv().join(" "),
            "simulate --scheme multitree --n 2000 --d 3 --track 128 --runtime des --queue wheel \
             --latency jitter --jitter 0.5 --uplink serialized --recovery repair+nack \
             --churn-leave 0.0005 --churn-slots 200 --des-seed 7"
        );
    }
}

//! The traced pass: where a workload's time goes, layer by layer.
//!
//! It runs once, in a fresh worker, after the timed units. For each step
//! of the workload it records a `step.<key>` span whose children are
//! `cli.run` around the real `clustream_cli::run(argv)` and then the
//! layer calls that command makes, re-issued with the same inputs
//! through each crate's public functions: argument parsing, scheme
//! construction, the engine run, result teardown, telemetry export. A
//! last child, `compare`, holds the runs the command does *not* make —
//! the other engines and queues on the same input — which are the
//! evidence for ROADMAP's delete-or-default questions. A step is invoked
//! [`LIGHT_REPS`] times, or [`HEAVY_REPS`] times when an invocation takes
//! over a second, and each span reports its quietest repetition: single
//! in-process timings on this machine vary by tens of percent, minima by
//! a few.
//!
//! Counts (`sim.*`, `des.*`, `recovery.*` without a time unit) come from
//! the re-issued run's own result and repeat exactly.

use crate::metrics::{Values, PER_LAYER};
use crate::pump::{config4k_frames, packet_frames, pump};
use crate::trace::{min_over_invocations_ms, Span, TraceFile, Tracer};
use crate::workloads::{
    steps, Action, Runtime, SchemeSpec, SimSpec, Step, PUMP_FRAMES, RECOVERY_CHURN_LEAVE,
    RECOVERY_CHURN_SLOTS, RECOVERY_DES_SEED, RECOVERY_JITTER,
};
use clustream_baselines::{ChainScheme, SingleTreeScheme};
use clustream_cli::ArgMap;
use clustream_core::{NodeId, PacketId, Scheme};
use clustream_des::{DesConfig, DesEngine, DesStats, LatencyModel, QueueKind, UplinkModel};
use clustream_hypercube::HypercubeStream;
use clustream_multitree::{greedy_forest, Construction, MultiTreeScheme, StreamMode};
use clustream_net::{
    lower_schedule, parse_chaos_spec, read_frame, write_frame, ChaosPolicy, Frame, SchemeParams,
    Transport,
};
use clustream_recovery::{FlashCrowdScheme, RecoveryConfig, SelfHealingMultiTree};
use clustream_sim::{FastSimulator, MegaEngine, RunResult, SimConfig, Simulator};
use clustream_telemetry::{from_jsonl, to_jsonl, MemoryRecorder};
use clustream_workloads::{
    summarize, ChurnTrace, ChurnTraceConfig, NodeTimeline, PlayPolicy, ScenarioPlan,
};
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Invocations of a step whose first one takes under a second.
const LIGHT_REPS: u32 = 5;

/// Invocations of any other step.
const HEAVY_REPS: u32 = 3;

/// At and above this population the comparison runs are the scale ones
/// (two shards, telemetry on); below it, the reference engine.
const SCALE_N: usize = 100_000;

fn ms(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// The traced pass over `workload`. Writes `trace-<workload>.json` into
/// `out` and returns every per-layer value it measured.
pub fn traced_pass(workload: &str, seed: u64, out: &Path) -> io::Result<Values> {
    let mut pass = Pass {
        t: Tracer::new(),
        m: Values::default(),
        workload,
        seed,
        out,
        metrics_file: out.join(format!("trace-metrics-{workload}.jsonl")),
        traced_ms: 0.0,
        untraced_ms: 0.0,
    };
    if workload == "net_framepump" {
        pass.trace_net()?;
    } else {
        for step in steps(workload, seed) {
            pass.trace_step(&step);
        }
        let _ = std::fs::remove_file(&pass.metrics_file);
    }
    pass.finish()
}

struct Pass<'a> {
    t: Tracer,
    m: Values,
    workload: &'a str,
    seed: u64,
    out: &'a Path,
    metrics_file: PathBuf,
    /// In-process time of the whole unit with tracing on and off.
    traced_ms: f64,
    untraced_ms: f64,
}

/// Exact counts of one re-issued run.
#[derive(Default)]
struct Counts {
    slots_run: u64,
    transmissions: u64,
    steady_slots: u64,
    jsonl_bytes: u64,
    des: Option<DesStats>,
    resilience: Option<clustream_sim::ResilienceMetrics>,
}

/// A slot engine as `simulate --engine` (and `--shards`, `--metrics-out`)
/// selects it; the span each run is recorded under.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Engine {
    Reference,
    Fast,
    Mega,
    MegaShards2,
    MegaObserved,
}

impl Engine {
    fn span(self) -> &'static str {
        match self {
            Engine::Reference => "sim.reference.run",
            Engine::Fast => "sim.fast.run",
            Engine::Mega => "sim.mega.run",
            Engine::MegaShards2 => "sim.mega.run_shards2",
            Engine::MegaObserved => "sim.mega.run_observed",
        }
    }
}

/// The slot engine a `simulate` command selects; `None` on the DES
/// runtime.
fn slot_engine(spec: &SimSpec, observed: bool) -> Option<Engine> {
    match (spec.runtime, observed) {
        (Runtime::Fast, _) => Some(Engine::Fast),
        (Runtime::Mega, false) => Some(Engine::Mega),
        (Runtime::Mega, true) => Some(Engine::MegaObserved),
        (Runtime::DesPlain | Runtime::DesRecovery, _) => None,
    }
}

struct SlotRun {
    result: RunResult,
    steady_slots: u64,
    recorder: Option<Arc<MemoryRecorder>>,
}

fn slot_run(t: &mut Tracer, engine: Engine, scheme: &mut dyn Scheme, cfg: &SimConfig) -> SlotRun {
    let mut steady_slots = 0;
    let mut recorder = None;
    let result = match engine {
        Engine::Reference => t.time(engine.span(), || Simulator::run(scheme, cfg)),
        Engine::Fast => t.time(engine.span(), || FastSimulator::run(scheme, cfg)),
        Engine::Mega | Engine::MegaShards2 | Engine::MegaObserved => {
            let mut cfg = cfg.clone();
            if engine == Engine::MegaObserved {
                let (rec, telemetry) = MemoryRecorder::handle();
                cfg = cfg.with_telemetry(telemetry);
                recorder = Some(rec);
            }
            let shards = if engine == Engine::MegaShards2 { 2 } else { 1 };
            let mut mega = MegaEngine::with_shards(shards);
            let r = t.time(engine.span(), || mega.run(scheme, &cfg));
            steady_slots = mega.steady_slots();
            r
        }
    };
    SlotRun {
        result: result.expect("pinned workload runs on every engine"),
        steady_slots,
        recorder,
    }
}

/// What `simulate --metrics-out` does after the run, and what `report`
/// does to read it back. Returns the JSONL size.
fn telemetry_export(t: &mut Tracer, recorder: &MemoryRecorder) -> u64 {
    let snapshot = t.time("telemetry.snapshot", || recorder.snapshot());
    let text = t.time("telemetry.to_jsonl", || to_jsonl(&snapshot));
    t.time("telemetry.from_jsonl", || from_jsonl(&text))
        .expect("exported metrics parse back");
    text.len() as u64
}

/// Build the scheme `simulate` runs, one span per constructor.
fn build_scheme(t: &mut Tracer, spec: &SimSpec) -> Box<dyn Scheme> {
    let build = t.open("scheme.build");
    let scheme: Box<dyn Scheme> = match spec.scheme {
        SchemeSpec::MultiTree { n, d, mode } if spec.runtime == Runtime::DesRecovery => Box::new(
            t.time("recovery.selfheal_new", || {
                SelfHealingMultiTree::new(n, d, mode, Construction::Greedy)
            })
            .expect("pinned parameters are valid"),
        ),
        SchemeSpec::MultiTree { n, d, mode } => Box::new(static_multitree(t, n, d, mode)),
        SchemeSpec::Hypercube { n } => Box::new(
            t.time("hypercube.new", || HypercubeStream::with_groups(n, 1))
                .expect("pinned parameters are valid"),
        ),
        SchemeSpec::Chain { n } => Box::new(t.time("baselines.new", || ChainScheme::new(n))),
        SchemeSpec::SingleTree { n, d } => {
            Box::new(t.time("baselines.new", || SingleTreeScheme::new(n, d)))
        }
        SchemeSpec::Crowd { n, d, scenario } => {
            let plan = t
                .time("workloads.scenario_parse", || ScenarioPlan::parse(scenario))
                .expect("pinned scenario parses");
            Box::new(crowd_scheme(t, n, d, &plan))
        }
    };
    t.close(build);
    scheme
}

fn static_multitree(t: &mut Tracer, n: usize, d: usize, mode: StreamMode) -> MultiTreeScheme {
    let forest = t
        .time("multitree.greedy_forest", || greedy_forest(n, d))
        .expect("pinned parameters are valid");
    t.time("multitree.scheme_new", || {
        MultiTreeScheme::new(forest, mode)
    })
}

fn crowd_scheme(t: &mut Tracer, n: usize, d: usize, plan: &ScenarioPlan) -> FlashCrowdScheme {
    t.time("recovery.crowd_new", || {
        FlashCrowdScheme::from_plan(n, d, StreamMode::PreRecorded, Construction::Greedy, plan)
    })
    .expect("pinned parameters are valid")
}

/// The slot-engine configuration `simulate` derives from its flags.
fn sim_config(spec: &SimSpec) -> SimConfig {
    match spec.scheme {
        SchemeSpec::Crowd { scenario, .. } => {
            let plan = ScenarioPlan::parse(scenario).expect("pinned scenario parses");
            let horizon = plan.last_event_slot().max(spec.track) + 4 * spec.track;
            SimConfig::lossy_regime(spec.track, horizon)
        }
        _ if spec.runtime == Runtime::DesRecovery => {
            SimConfig::until_complete(spec.track, RECOVERY_CHURN_SLOTS.max(4 * spec.track))
        }
        _ => SimConfig::until_complete(spec.track, 1_000_000),
    }
}

/// The DES configuration `simulate --runtime des` derives from its flags.
/// `recovery` off gives the same latency and uplink with no churn and no
/// recovery layer.
fn des_config(t: &mut Tracer, spec: &SimSpec, queue: QueueKind, recovery: bool) -> DesConfig {
    let base = DesConfig::slot_faithful(if recovery {
        sim_config(spec)
    } else {
        SimConfig::until_complete(spec.track, 1_000_000)
    })
    .with_queue(queue);
    if spec.runtime != Runtime::DesRecovery {
        return base;
    }
    let SchemeSpec::MultiTree { n, .. } = spec.scheme else {
        unreachable!("the recovery layer heals multi-trees only");
    };
    let cfg = base
        .with_latency(LatencyModel::UniformJitter {
            jitter: RECOVERY_JITTER,
        })
        .with_uplink(UplinkModel::Serialized)
        .seeded(RECOVERY_DES_SEED);
    if !recovery {
        return cfg;
    }
    let churn = t.time("workloads.churn_generate", || {
        ChurnTrace::generate(ChurnTraceConfig {
            initial_members: n,
            slots: RECOVERY_CHURN_SLOTS,
            join_rate: 0.0,
            leave_rate: RECOVERY_CHURN_LEAVE,
            rejoin_rate: 0.0,
            seed: 0,
        })
    });
    cfg.with_recovery(RecoveryConfig::repair_nack())
        .with_churn(churn)
}

/// `simulate --scenario` scores the survivors' QoE after the run.
fn crowd_qoe(t: &mut Tracer, spec: &SimSpec, r: &RunResult) {
    let SchemeSpec::Crowd { n, d, scenario } = spec.scheme else {
        return;
    };
    let qoe = t.open("qoe");
    let plan = ScenarioPlan::parse(scenario).expect("pinned scenario parses");
    let crowd = crowd_scheme(t, n, d, &plan);
    let join_slots = crowd.join_slots();
    let timelines: Vec<NodeTimeline> = (1..=crowd.num_receivers() as u64)
        .map(|id| NodeTimeline {
            node: id,
            join_slot: join_slots.get(id as usize).copied().unwrap_or(0),
            usable: (0..spec.track)
                .map(|p| {
                    r.arrivals
                        .usable_slot(NodeId(id as u32), PacketId(p))
                        .map(|s| s.t())
                })
                .collect(),
        })
        .collect();
    let bound = clustream_analysis::thm2_worst_delay_bound(timelines.len(), d);
    t.time("workloads.qoe_summarize", || {
        black_box(summarize(&timelines, PlayPolicy::Wait, bound))
    });
    t.close(qoe);
}

impl Pass<'_> {
    fn trace_step(&mut self, step: &Step) {
        let argv = step
            .cli_argv(&self.metrics_file.to_string_lossy())
            .expect("every traced step but the pump is a CLI command");
        let run_cli = || black_box(clustream_cli::run(&argv)).expect("pinned command runs");
        let first_span = self.t.spans().len();
        let mut untraced = Vec::new();
        let mut counts = Counts::default();
        let (mut rep, mut reps) = (0, LIGHT_REPS);
        while rep < reps {
            let started = Instant::now();
            self.t.next_invocation();
            self.t.set_enabled(false);
            let t0 = Instant::now();
            self.t.time("cli.run", run_cli);
            untraced.push(ms(t0.elapsed()));
            self.t.set_enabled(true);

            let root = self.t.open(&format!("step.{}", step.key));
            self.t.time("cli.run", run_cli);
            if let Action::Simulate { spec, observed } = step.action {
                self.t
                    .time("cli.parse", || black_box(ArgMap::parse(&argv[1..])))
                    .expect("pinned flags parse");
                counts = self.reissue_simulate(&spec, observed);
            }
            self.t.close(root);
            if rep == 0 && started.elapsed() >= Duration::from_secs(1) {
                reps = HEAVY_REPS;
            }
            rep += 1;
        }
        self.account(step, first_span, &untraced, &counts);
    }

    /// The layer calls one `simulate` makes, then the comparison runs.
    fn reissue_simulate(&mut self, spec: &SimSpec, observed: bool) -> Counts {
        let t = &mut self.t;
        let mut scheme = build_scheme(t, spec);
        let mut counts = Counts::default();
        let result = match slot_engine(spec, observed) {
            Some(own) => {
                let run = slot_run(t, own, scheme.as_mut(), &sim_config(spec));
                counts.steady_slots = run.steady_slots;
                if let Some(recorder) = &run.recorder {
                    counts.jsonl_bytes = telemetry_export(t, recorder);
                }
                crowd_qoe(t, spec, &run.result);
                run.result
            }
            None => {
                let cfg = des_config(t, spec, QueueKind::Wheel, true);
                let mut des = DesEngine::new();
                let r = t
                    .time("des.run.wheel", || des.run(scheme.as_mut(), &cfg))
                    .expect("pinned workload runs");
                counts.des = Some(*des.stats());
                r
            }
        };
        counts.slots_run = result.slots_run;
        counts.transmissions = result.total_transmissions;
        counts.resilience = result.resilience;
        t.time("sim.result_drop", || drop(result));
        drop(scheme);

        let compare = t.open("compare");
        let jsonl_bytes = self.compare_runs(spec, observed);
        self.t.close(compare);
        counts.jsonl_bytes = counts.jsonl_bytes.max(jsonl_bytes);
        counts
    }

    /// Runs `simulate` did not make, on its input: the evidence columns.
    /// Each gets a fresh scheme, built with tracing off so construction
    /// is counted once.
    fn compare_runs(&mut self, spec: &SimSpec, observed: bool) -> u64 {
        let t = &mut self.t;
        let fresh = |t: &mut Tracer, spec: &SimSpec| {
            t.set_enabled(false);
            let scheme = build_scheme(t, spec);
            t.set_enabled(true);
            scheme
        };
        let mut jsonl_bytes = 0;
        match slot_engine(spec, observed) {
            Some(own) => {
                let others: &[Engine] = if spec.scheme.n() >= SCALE_N {
                    &[
                        Engine::Fast,
                        Engine::Mega,
                        Engine::MegaShards2,
                        Engine::MegaObserved,
                    ]
                } else {
                    &[Engine::Reference, Engine::Fast, Engine::Mega]
                };
                let cfg = sim_config(spec);
                for &engine in others.iter().filter(|&&e| e != own) {
                    let mut scheme = fresh(t, spec);
                    let run = slot_run(t, engine, scheme.as_mut(), &cfg);
                    if let Some(recorder) = &run.recorder {
                        jsonl_bytes = telemetry_export(t, recorder);
                    }
                }
            }
            None => {
                let mut scheme = fresh(t, spec);
                t.set_enabled(false);
                let heap = des_config(t, spec, QueueKind::Heap, true);
                t.set_enabled(true);
                t.time("des.run.heap", || {
                    DesEngine::new().run(scheme.as_mut(), &heap)
                })
                .expect("pinned workload runs on the heap queue");

                let SchemeSpec::MultiTree { n, d, mode } = spec.scheme else {
                    unreachable!("the DES workloads run multi-trees");
                };
                t.set_enabled(false);
                let mut plain = static_multitree(t, n, d, mode);
                t.set_enabled(true);
                let slot_cfg = SimConfig::until_complete(spec.track, 1_000_000);
                slot_run(t, Engine::Fast, &mut plain, &slot_cfg);
                if spec.runtime == Runtime::DesRecovery {
                    t.set_enabled(false);
                    let mut plain = static_multitree(t, n, d, mode);
                    let off = des_config(t, spec, QueueKind::Wheel, false);
                    t.set_enabled(true);
                    t.time("des.run.wheel.recovery_off", || {
                        DesEngine::new().run(&mut plain, &off)
                    })
                    .expect("the static scheme runs under jitter");
                }
            }
        }
        jsonl_bytes
    }

    /// Turn the step's spans and counts into metric values.
    fn account(&mut self, step: &Step, first_span: usize, untraced: &[f64], counts: &Counts) {
        let spans = &self.t.spans()[first_span..];
        let span_ms = |name: &str| min_over_invocations_ms(spans, name).unwrap_or(0.0);
        let m = &mut self.m;

        // Every `.ms`/`.us` metric named after a span.
        for def in PER_LAYER.iter() {
            let scaled = [(".ms", 1.0), (".us", 1e3)]
                .iter()
                .find_map(|(suffix, scale)| Some((def.name.strip_suffix(suffix)?, scale)));
            if let Some((span, scale)) = scaled {
                if let Some(v) = min_over_invocations_ms(spans, span) {
                    m.add(def.name, v * scale);
                }
            }
        }

        let run_ms = span_ms("cli.run");
        self.traced_ms += run_ms;
        self.untraced_ms += untraced.iter().copied().fold(f64::INFINITY, f64::min);
        if self.workload == "cli_mix" {
            m.set(&format!("cli.cmd.{}.ms", step.key), run_ms);
        }
        if step.action == Action::Report {
            m.set("cli.report.ms", run_ms);
        }
        let Action::Simulate { spec, observed } = step.action else {
            return;
        };

        let engine_ms = span_ms(slot_engine(&spec, observed).map_or("des.run.wheel", Engine::span));
        let export_ms = if observed {
            span_ms("telemetry.snapshot") + span_ms("telemetry.to_jsonl")
        } else {
            0.0
        };
        // What is left of `cli.run` is the CLI's own: flag validation, the
        // second `build_scheme`, rendering, dropping the result.
        m.add(
            "cli.self.ms",
            run_ms - span_ms("scheme.build") - engine_ms - export_ms,
        );
        // `cli.run` minus every call re-issued under the step: what the
        // decomposition cannot name.
        let root = root_of(spans);
        let mut reissued: Vec<&str> = spans
            .iter()
            .filter(|s| s.parent == root && !matches!(&*s.name, "cli.run" | "compare"))
            .map(|s| s.name.as_str())
            .collect();
        reissued.sort_unstable();
        reissued.dedup();
        let reissued_ms: f64 = reissued.iter().map(|name| span_ms(name)).sum();
        m.add("harness.unattributed.ms", run_ms - reissued_ms);

        m.add("sim.slots_run", counts.slots_run as f64);
        m.add("sim.transmissions", counts.transmissions as f64);
        m.add("sim.mega.steady_slots", counts.steady_slots as f64);
        m.add("telemetry.jsonl_bytes", counts.jsonl_bytes as f64);
        // Accumulated as nanoseconds; divided by the counts in `finish`.
        m.add("sim.ns_per_tx", engine_ms * 1e6);
        if let Some(des) = &counts.des {
            m.add("des.events_processed", des.events_processed as f64);
            m.add("des.events_scheduled", des.events_scheduled as f64);
            m.add("des.deferred_sends", des.deferred_sends as f64);
            m.add("des.released_sends", des.released_sends as f64);
        }
        if spec.runtime == Runtime::DesRecovery {
            m.add(
                "recovery.added.ms",
                engine_ms - span_ms("des.run.wheel.recovery_off"),
            );
        }
        if let Some(r) = &counts.resilience {
            m.add("recovery.failures_detected", r.failures_detected as f64);
            m.add("recovery.repairs_committed", r.repairs_committed as f64);
            m.add("recovery.displaced_total", r.displaced_total as f64);
            m.add("recovery.nacks_sent", r.nacks_sent as f64);
            m.add("recovery.retransmissions", r.retransmissions as f64);
            m.add("recovery.repaired_packets", r.repaired_packets as f64);
            m.add("recovery.abandoned_packets", r.abandoned_packets as f64);
            m.add("recovery.control_messages", r.control_messages as f64);
        }
    }

    /// `crates/net` from the codec up: per-frame costs in memory, then
    /// the pump on both transports and at both ends of the frame-size
    /// range, then the schedule lowering and chaos decisions a cluster
    /// run makes per node and per frame.
    fn trace_net(&mut self) -> io::Result<()> {
        const CODEC_FRAMES: u64 = 200_000;
        const CONFIG_FRAMES: u64 = 50_000;
        const CALLS: u32 = 1_000;
        let (t, m, out, seed) = (&mut self.t, &mut self.m, self.out, self.seed);
        let ns_per = |d: Duration, n: u64| d.as_nanos() as f64 / n as f64;

        t.set_enabled(false);
        let untraced = pump(
            Transport::Uds,
            out,
            "trace.sock",
            PUMP_FRAMES,
            (packet_frames(seed), packet_frames(seed)),
        )?;
        t.set_enabled(true);
        self.untraced_ms = ms(untraced.elapsed);

        t.next_invocation();
        let root = t.open("step.pump");
        let mut make = packet_frames(seed);
        let frames: Vec<Frame> = (0..CODEC_FRAMES).map(&mut make).collect();
        let bodies: Vec<Vec<u8>> = frames.iter().map(Frame::encode_body).collect();
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f)?;
        }

        let timed = |t: &mut Tracer, name: &str, f: &mut dyn FnMut()| {
            let t0 = Instant::now();
            t.time(name, f);
            t0.elapsed()
        };
        let d = timed(t, "net.encode", &mut || {
            for f in &frames {
                black_box(f.encode_body());
            }
        });
        m.set("net.encode.ns_per_frame", ns_per(d, CODEC_FRAMES));
        let d = timed(t, "net.decode", &mut || {
            for b in &bodies {
                black_box(Frame::decode_body(b)).expect("encoded frames decode");
            }
        });
        m.set("net.decode.ns_per_frame", ns_per(d, CODEC_FRAMES));
        let d = timed(t, "net.write_frame", &mut || {
            for f in &frames {
                black_box(write_frame(&mut io::sink(), f)).expect("a sink accepts every write");
            }
        });
        m.set("net.write_frame.ns_per_frame", ns_per(d, CODEC_FRAMES));
        let d = timed(t, "net.read_frame", &mut || {
            let mut r = wire.as_slice();
            while black_box(read_frame(&mut r))
                .expect("written frames read back")
                .is_some()
            {}
        });
        m.set("net.read_frame.ns_per_frame", ns_per(d, CODEC_FRAMES));
        m.set(
            "net.bytes_per_frame",
            wire.len() as f64 / CODEC_FRAMES as f64,
        );

        for (transport, span, metric) in [
            (Transport::Uds, "net.pump.uds", "net.pump.uds.frames_per_s"),
            (Transport::Tcp, "net.pump.tcp", "net.pump.tcp.frames_per_s"),
        ] {
            let id = t.open(span);
            let o = pump(
                transport,
                out,
                "trace.sock",
                PUMP_FRAMES,
                (packet_frames(seed), packet_frames(seed)),
            )?;
            t.close(id);
            assert_eq!(o.equal_in_order, PUMP_FRAMES, "{span} lost or reordered");
            m.set(metric, o.received as f64 / o.elapsed.as_secs_f64());
            if transport == Transport::Uds {
                self.traced_ms = ms(o.elapsed);
            }
        }
        let id = t.open("net.pump.config4k");
        let o = pump(
            Transport::Uds,
            out,
            "trace.sock",
            CONFIG_FRAMES,
            (config4k_frames(seed), config4k_frames(seed)),
        )?;
        t.close(id);
        assert_eq!(
            o.equal_in_order, CONFIG_FRAMES,
            "config4k lost or reordered"
        );
        m.set(
            "net.pump.config4k.mib_per_s",
            o.bytes as f64 / (1 << 20) as f64 / o.elapsed.as_secs_f64(),
        );

        let params = SchemeParams {
            family: "multitree".into(),
            n: 64,
            d: 3,
        };
        let d = timed(t, "net.lower_schedule", &mut || {
            black_box(lower_schedule(&params, 256)).expect("pinned parameters lower");
        });
        m.set("net.lower_schedule.ms", ms(d));

        let spec = "drop:3@10+40=0.05,delay:4@8+32=2~1,partition:2/5@20+30";
        let d = timed(t, "net.faultspec_parse", &mut || {
            for _ in 0..CALLS {
                black_box(parse_chaos_spec(black_box(spec))).expect("pinned spec parses");
            }
        });
        m.set("net.faultspec_parse.us", ns_per(d, CALLS as u64) / 1e3);

        let specs = parse_chaos_spec(spec).expect("pinned spec parses");
        let mut policy = ChaosPolicy::new(specs, seed, 3, 3_000);
        let d = timed(t, "net.chaos_plan", &mut || {
            for i in 0..CODEC_FRAMES {
                black_box(policy.plan((i % 8) as u32, i / 64));
            }
        });
        m.set("net.chaos_plan.ns_per_call", ns_per(d, CODEC_FRAMES));
        t.close(root);
        Ok(())
    }

    fn finish(mut self) -> io::Result<Values> {
        let m = &mut self.m;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        m.set(
            "sim.ns_per_tx",
            ratio(m.get("sim.ns_per_tx"), m.get("sim.transmissions")),
        );
        m.set(
            "sim.mega.steady_share",
            ratio(m.get("sim.mega.steady_slots"), m.get("sim.slots_run")),
        );
        m.set(
            "telemetry.tax_ratio",
            ratio(m.get("sim.mega.run_observed.ms"), m.get("sim.mega.run.ms")),
        );
        m.set(
            "des.ns_per_event",
            ratio(
                m.get("des.run.wheel.ms") * 1e6,
                m.get("des.events_processed"),
            ),
        );
        m.set(
            "des.slowdown_vs_fast",
            if m.get("des.run.wheel.ms") > 0.0 {
                ratio(m.get("des.run.wheel.ms"), m.get("sim.fast.run.ms"))
            } else {
                0.0
            },
        );
        m.set(
            "recovery.nack_useful_ratio",
            ratio(
                m.get("recovery.repaired_packets"),
                m.get("recovery.nacks_sent"),
            ),
        );
        m.set(
            "harness.trace_overhead_ratio",
            ratio(self.traced_ms, self.untraced_ms),
        );
        let file = TraceFile {
            workload: self.workload.to_string(),
            seed: self.seed,
            spans: self.t.finish(),
        };
        let text = serde_json::to_string_pretty(&file).map_err(io::Error::other)?;
        std::fs::write(self.out.join(format!("trace-{}.json", self.workload)), text)?;
        Ok(self.m)
    }
}

/// The id of the last `step.*` span: the parent of the decomposition.
fn root_of(spans: &[Span]) -> Option<u64> {
    spans
        .iter()
        .rev()
        .find(|s| s.name.starts_with("step."))
        .map(|s| s.id)
}

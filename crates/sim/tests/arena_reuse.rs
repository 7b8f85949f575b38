//! The slot kernel's `begin` must reset a reused arena completely:
//! `sim::sweep` runs a whole grid through one engine per
//! worker. Whatever the previous run left behind — an early error at
//! any validation step, a larger id space, a grown arrival ring — the
//! next run must equal a fresh arena's, field by field, clean and under
//! a fault plan, on both engines that drive the kernel.

use clustream_core::{
    Availability, CoreError, NodeId, PacketId, SchedulePeriod, Scheme, Slot, StateView,
    Transmission,
};
use clustream_sim::{
    diff_fields, FastEngine, FastSimulator, FaultPlan, MegaEngine, MegaSimulator, RunResult,
    SimConfig,
};

/// How (and whether) the chain breaks the model.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Bad {
    Nothing,
    EmptyIdSpace,
    UnknownReceiver,
    UnknownSender,
    UnknownTarget,
    ZeroLatency,
    NotProduced,
    NotHeld,
    OverCapacity,
    Collision,
}

impl Bad {
    const EARLY_ERRORS: [Bad; 9] = [
        Bad::EmptyIdSpace,
        Bad::UnknownReceiver,
        Bad::UnknownSender,
        Bad::UnknownTarget,
        Bad::ZeroLatency,
        Bad::NotProduced,
        Bad::NotHeld,
        Bad::OverCapacity,
        Bad::Collision,
    ];

    /// Whether `err` is the model error this misbehaviour must raise.
    fn raises(self, err: &CoreError) -> bool {
        use CoreError as E;
        match self {
            Bad::Nothing => false,
            Bad::EmptyIdSpace | Bad::ZeroLatency => matches!(err, E::InvalidConfig(_)),
            Bad::UnknownReceiver | Bad::UnknownSender | Bad::UnknownTarget => {
                matches!(err, E::UnknownNode { .. })
            }
            Bad::NotProduced => matches!(err, E::PacketNotProduced { .. }),
            Bad::NotHeld => matches!(err, E::PacketNotHeld { .. }),
            Bad::OverCapacity => matches!(err, E::SendCapacityExceeded { .. }),
            Bad::Collision => matches!(err, E::ReceiveCollision { .. }),
        }
    }
}

/// S → 1 → 2 → … → n with a fixed per-hop latency, declaring its
/// period so the mega engine's steady gears engage. A `bad` chain
/// misbehaves once, at the first slot its last node holds packet 0, as
/// the last transmission of that slot — so the arena is well used by
/// the time the run errors.
struct Chain {
    n: usize,
    latency: u32,
    bad: Bad,
}

impl Chain {
    fn good(n: usize, latency: u32) -> Chain {
        Chain {
            n,
            latency,
            bad: Bad::Nothing,
        }
    }
}

impl Scheme for Chain {
    fn name(&self) -> String {
        format!("chain({}, {})", self.n, self.latency)
    }
    fn num_receivers(&self) -> usize {
        self.n
    }
    fn id_space(&self) -> usize {
        if self.bad == Bad::EmptyIdSpace {
            0
        } else {
            self.n + 1
        }
    }
    fn receivers(&self) -> Vec<NodeId> {
        let extra = (self.bad == Bad::UnknownReceiver).then_some(self.n as u32 + 7);
        (1..=self.n as u32).chain(extra).map(NodeId).collect()
    }
    fn availability(&self) -> Availability {
        if self.bad == Bad::NotProduced {
            Availability::Live
        } else {
            Availability::PreRecorded
        }
    }
    fn transmissions(&mut self, slot: Slot, view: &dyn StateView, out: &mut Vec<Transmission>) {
        let (t, l) = (slot.t(), self.latency as u64);
        let last = self.n as u32;
        if t < self.n as u64 * l {
            // The pipeline has not reached the last node yet; anything it
            // appears to hold leaked in from the arena's previous run.
            assert_eq!(view.newest(NodeId(last)), None, "slot {t}");
            assert!(!view.holds(NodeId(last), PacketId(0)), "slot {t}");
        }
        let hop = |from: u32, to: u32, seq: u64| Transmission {
            from: NodeId(from),
            to: NodeId(to),
            packet: PacketId(seq),
            latency: self.latency,
        };
        out.push(hop(0, 1, t));
        for i in 1..self.n as u64 {
            if t >= i * l {
                out.push(hop(i as u32, i as u32 + 1, t - i * l));
            }
        }
        if t != self.n as u64 * l {
            return;
        }
        match self.bad {
            Bad::Nothing | Bad::EmptyIdSpace | Bad::UnknownReceiver => {}
            Bad::UnknownSender => out.push(hop(last + 5, 1, 0)),
            Bad::UnknownTarget => out.push(hop(last, last + 5, 0)),
            Bad::ZeroLatency => out.push(Transmission {
                latency: 0,
                ..hop(last, 1, 0)
            }),
            Bad::NotProduced => out.insert(0, hop(0, 2, t + 10)),
            Bad::NotHeld => out.push(hop(last, 1, 999)),
            Bad::OverCapacity => out.push(hop(0, 2, t)),
            // The last node relays nothing, so its capacity is free; its
            // copy of packet 0 lands on node 1 together with the source's.
            Bad::Collision => out.push(hop(last, 1, 0)),
        }
    }
    fn schedule_period(&self) -> Option<SchedulePeriod> {
        Some(SchedulePeriod {
            warmup: self.n as u64 * self.latency as u64,
            period: 1,
        })
    }
}

type Runner<'a> = &'a mut dyn FnMut(&mut dyn Scheme, &SimConfig) -> Result<RunResult, CoreError>;
type Fresh = fn(&mut dyn Scheme, &SimConfig) -> Result<RunResult, CoreError>;

/// The two regimes every reuse is checked under.
fn regimes() -> [SimConfig; 2] {
    [
        SimConfig::until_complete(24, 400),
        SimConfig::with_faults(
            24,
            120,
            FaultPlan {
                stop_crashes: vec![(NodeId(3), 9)],
                ..FaultPlan::loss(0.1, 11)
            },
        ),
    ]
}

/// After `dirty` has run on the arena behind `reused`, a good chain must
/// come out exactly as on a fresh arena.
fn assert_reuse_is_fresh(
    label: &str,
    reused: Runner<'_>,
    fresh: Fresh,
    dirty: &mut dyn FnMut(Runner<'_>),
) {
    for cfg in regimes() {
        dirty(reused);
        let got = reused(&mut Chain::good(5, 1), &cfg).unwrap();
        let want = fresh(&mut Chain::good(5, 1), &cfg).unwrap();
        assert_eq!(
            diff_fields(&want, &got),
            Vec::<&str>::new(),
            "{label}, faults: {}",
            cfg.faults.is_some()
        );
    }
}

fn reuse_after_each_early_error(reused: Runner<'_>, fresh: Fresh) {
    let clean = SimConfig::until_complete(24, 400);
    for bad in Bad::EARLY_ERRORS {
        assert_reuse_is_fresh(&format!("{bad:?}"), reused, fresh, &mut |run| {
            let mut scheme = Chain {
                n: 6,
                latency: 2,
                bad,
            };
            let err = run(&mut scheme, &clean).unwrap_err();
            assert!(bad.raises(&err), "{bad:?} raised `{err}`");
        });
    }
    // The one error `finish` raises: the horizon ends before the tracked
    // window completes, with arrivals still queued in the ring.
    assert_reuse_is_fresh("Hiccup", reused, fresh, &mut |run| {
        let short = SimConfig::until_complete(24, 8);
        let err = run(&mut Chain::good(6, 2), &short).unwrap_err();
        assert!(matches!(err, CoreError::Hiccup { .. }), "{err}");
    });
}

fn reuse_after_larger_run(reused: Runner<'_>, fresh: Fresh) {
    // 40 ids where the checked run has 6, and a latency past the ring's
    // initial 64-slot window. No early stop, so both runs end with the
    // grown ring still loaded: one past the tracked window, one short of
    // it (a hiccup).
    for max_slots in [4_100, 3_850] {
        assert_reuse_is_fresh("larger run", reused, fresh, &mut |run| {
            let cfg = SimConfig {
                max_slots,
                track_packets: 100,
                ..SimConfig::default()
            };
            let res = run(&mut Chain::good(39, 100), &cfg);
            assert_eq!(res.is_ok(), max_slots == 4_100, "{:?}", res.err());
        });
    }
}

#[test]
fn fast_arena_reused_after_early_errors_equals_fresh() {
    let mut eng = FastEngine::new();
    reuse_after_each_early_error(&mut |s, c| eng.run(s, c), FastSimulator::run);
}

#[test]
fn fast_arena_reused_after_larger_run_equals_fresh() {
    let mut eng = FastEngine::new();
    reuse_after_larger_run(&mut |s, c| eng.run(s, c), FastSimulator::run);
}

#[test]
fn mega_arena_reused_after_early_errors_equals_fresh() {
    let mut eng = MegaEngine::new();
    reuse_after_each_early_error(&mut |s, c| eng.run(s, c), MegaSimulator::run);
}

#[test]
fn mega_arena_reused_after_larger_run_equals_fresh() {
    let mut eng = MegaEngine::new();
    reuse_after_larger_run(&mut |s, c| eng.run(s, c), MegaSimulator::run);
}

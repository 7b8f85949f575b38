//! DES run configuration: a [`SimConfig`] plus network-model knobs.

use crate::capacity::CapacityClassPlan;
use crate::latency::LatencyModel;
use crate::replay::RecordedLatencies;
use crate::uplink::UplinkModel;
use clustream_recovery::RecoveryConfig;
use clustream_sim::SimConfig;
use clustream_workloads::ChurnTrace;

/// Which [`crate::EventQueue`] implementation the engine drains.
///
/// Every choice pops the identical `(time, class, seq)` event sequence,
/// so the [`clustream_sim::RunResult`] is bit-identical across kinds.
/// The wheel is the runtime's queue; the heap is its obviously correct
/// counterpart, run beside it by `Checked` (the CLI offers `wheel` and
/// `checked` only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// Binary min-heap ([`crate::HeapQueue`]): the original, obviously
    /// correct `O(log n)` queue; the oracle half of `Checked`.
    Heap,
    /// Hierarchical timing wheel ([`crate::WheelQueue`]): O(1) pushes,
    /// batched same-tick drains, allocation-free hot loop. The default.
    #[default]
    Wheel,
    /// Both in lockstep ([`crate::CheckedQueue`]), panicking on any pop
    /// divergence: the queue-level differential oracle.
    Checked,
}

impl QueueKind {
    /// CLI label (`--queue <label>`).
    pub fn label(&self) -> &'static str {
        match self {
            QueueKind::Heap => "heap",
            QueueKind::Wheel => "wheel",
            QueueKind::Checked => "checked",
        }
    }
}

/// Configuration of a discrete-event run.
///
/// Embeds the slot-engine [`SimConfig`] (horizon, tracked window, faults,
/// tracing) and adds the knobs the slot model cannot express: a per-link
/// [`LatencyModel`], an uplink contention model, and an optional churn
/// trace. The degenerate combination — fixed latency, unconstrained
/// uplinks, no churn — is **slot-faithful**: the DES reproduces the slot
/// engines' [`clustream_sim::RunResult`] field for field (see the crate
/// docs for the argument, and `tests/des_differential.rs` for the
/// enforcement).
#[derive(Debug, Clone)]
pub struct DesConfig {
    /// Horizon, tracked window, early stop, faults, tracing.
    pub sim: SimConfig,
    /// Per-link wire-time model.
    pub latency: LatencyModel,
    /// Uplink contention model.
    pub uplink: UplinkModel,
    /// Named per-node capacity classes (heterogeneity). Requires the
    /// [`UplinkModel::Serialized`] gate — classes reshape uplink credit,
    /// which the unconstrained model ignores; [`DesConfig::validate`]
    /// rejects the combination. Non-source nodes draw a class by seeded
    /// zipf; the source keeps the scheme's capacity.
    pub capacity_classes: Option<CapacityClassPlan>,
    /// Seed for the latency model's noise process (unused by
    /// [`LatencyModel::Fixed`]).
    pub latency_seed: u64,
    /// Optional churn trace; members leave fail-silent at slot boundaries.
    pub churn: Option<ChurnTrace>,
    /// Recovery layer: failure detection, tree repair, NACK
    /// retransmission. Defaults to [`clustream_recovery::RecoveryMode::Off`],
    /// which schedules no recovery events and keeps runs bit-identical to
    /// the fail-silent engine.
    pub recovery: RecoveryConfig,
    /// Event-queue implementation. Result-invariant (every kind pops the
    /// identical sequence); deliberately ignored by
    /// [`DesConfig::is_slot_faithful`].
    pub queue: QueueKind,
    /// Observed per-link latencies from a networked run
    /// ([`crate::replay::RecordedLatencies`]). When present, every `Send`
    /// consumes its link's next recorded sample instead of drawing from
    /// `latency`, and the engine runs relaxed (recorded wire times are
    /// not slot-exact and networked nodes are reactive) — the replay
    /// oracle for `clustream cluster`.
    pub recorded: Option<RecordedLatencies>,
}

impl DesConfig {
    /// The degenerate configuration equivalent to the slot engines.
    pub fn slot_faithful(sim: SimConfig) -> Self {
        DesConfig {
            sim,
            latency: LatencyModel::Fixed,
            uplink: UplinkModel::Unconstrained,
            capacity_classes: None,
            latency_seed: 0,
            churn: None,
            recovery: RecoveryConfig::default(),
            queue: QueueKind::default(),
            recorded: None,
        }
    }

    /// Replace the latency model.
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Replace the uplink model.
    pub fn with_uplink(mut self, uplink: UplinkModel) -> Self {
        self.uplink = uplink;
        self
    }

    /// Install per-node capacity classes (implies a serialized uplink;
    /// validation enforces it).
    pub fn with_capacity_classes(mut self, plan: CapacityClassPlan) -> Self {
        self.capacity_classes = Some(plan);
        self
    }

    /// Install a churn trace.
    pub fn with_churn(mut self, churn: ChurnTrace) -> Self {
        self.churn = Some(churn);
        self
    }

    /// Enable the recovery layer.
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = recovery;
        self
    }

    /// Set the latency-noise seed.
    pub fn seeded(mut self, seed: u64) -> Self {
        self.latency_seed = seed;
        self
    }

    /// Select the event-queue implementation.
    pub fn with_queue(mut self, queue: QueueKind) -> Self {
        self.queue = queue;
        self
    }

    /// Install recorded per-link latencies (the networked replay oracle).
    pub fn with_recorded_latencies(mut self, recorded: RecordedLatencies) -> Self {
        self.recorded = Some(recorded);
        self
    }

    /// Whether this configuration is in the degenerate slot-equivalent
    /// regime (fixed latencies, no uplink contention, no churn) where the
    /// engine runs in strict mode and must match the slot engines exactly.
    pub fn is_slot_faithful(&self) -> bool {
        self.latency.is_slot_exact()
            && self.uplink == UplinkModel::Unconstrained
            && self.capacity_classes.is_none()
            && self.churn.is_none()
            && !self.recovery.mode.enabled()
            && self.recorded.is_none()
    }

    /// Validate model parameters.
    pub fn validate(&self) -> Result<(), String> {
        self.latency.validate()?;
        if let Some(classes) = &self.capacity_classes {
            classes.validate()?;
            if self.uplink != UplinkModel::Serialized {
                return Err(
                    "--classes requires the serialized uplink model (--uplink serialized): \
                     capacity classes reshape uplink credit, which the unconstrained model ignores"
                        .into(),
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_faithful_detection() {
        let cfg = DesConfig::slot_faithful(SimConfig::until_complete(8, 100));
        assert!(cfg.is_slot_faithful());
        assert!(cfg.validate().is_ok());

        let jittered = cfg
            .clone()
            .with_latency(LatencyModel::UniformJitter { jitter: 0.25 });
        assert!(!jittered.is_slot_faithful());

        let gated = cfg.clone().with_uplink(UplinkModel::Serialized);
        assert!(!gated.is_slot_faithful());

        // Recorded latencies are concrete numbers but not slot-exact, and
        // replayed nodes are reactive: the engine must run relaxed.
        let replayed = cfg
            .clone()
            .with_recorded_latencies(crate::replay::RecordedLatencies::new());
        assert!(!replayed.is_slot_faithful());

        let recovering = cfg
            .clone()
            .with_recovery(clustream_recovery::RecoveryConfig::repair());
        assert!(!recovering.is_slot_faithful());

        let churned = cfg.with_churn(ChurnTrace::generate(
            clustream_workloads::ChurnTraceConfig {
                initial_members: 4,
                slots: 10,
                join_rate: 0.0,
                leave_rate: 0.1,
                rejoin_rate: 0.0,
                seed: 1,
            },
        ));
        assert!(!churned.is_slot_faithful());
    }

    #[test]
    fn queue_choice_does_not_affect_slot_faithfulness() {
        // The queue is result-invariant, so picking the wheel must not
        // kick the engine out of strict mode.
        for queue in [QueueKind::Heap, QueueKind::Wheel, QueueKind::Checked] {
            let cfg = DesConfig::slot_faithful(SimConfig::until_complete(8, 100)).with_queue(queue);
            assert!(cfg.is_slot_faithful(), "{queue:?}");
            assert!(cfg.validate().is_ok());
        }
        assert_eq!(QueueKind::default(), QueueKind::Wheel);
        assert_eq!(QueueKind::Wheel.label(), "wheel");
    }

    #[test]
    fn capacity_classes_require_the_serialized_uplink() {
        let plan = crate::capacity::CapacityClassPlan::parse("fiber,mobile").unwrap();
        let cfg = DesConfig::slot_faithful(SimConfig::until_complete(8, 100))
            .with_capacity_classes(plan.clone());
        assert!(!cfg.is_slot_faithful());
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("serialized uplink"), "{err}");

        let ok = cfg.with_uplink(UplinkModel::Serialized);
        assert!(ok.validate().is_ok());
        assert!(!ok.is_slot_faithful());
    }
}

//! Recovery-layer configuration: the tier a run enables, and the fixed
//! parameters of the detection / repair / NACK machinery.
//!
//! Every run varies only the tier; the parameters below are constants.
//! All times are in DES ticks (`clustream_des::TICKS_PER_SLOT` = 1024
//! per slot). DESIGN.md §9 gives the reason for each value.

use serde::{Deserialize, Serialize};

/// Silence on a delivering link for this long (6 slots) makes the
/// watcher suspect the sender.
pub const SUSPECT_TIMEOUT_TICKS: u64 = 6 * 1024;
/// Distinct watchers that must suspect a node before its failure is
/// confirmed and repair triggers.
pub const SUSPICION_THRESHOLD: usize = 2;
/// Base NACK retry timeout, 4 slots (backoff starts here).
pub const NACK_TIMEOUT_TICKS: u64 = 4 * 1024;
/// Exponential backoff multiplier per retry.
pub const NACK_BACKOFF: f64 = 2.0;
/// Hard cap on the backoff delay, 64 slots.
pub const NACK_CAP_TICKS: u64 = 64 * 1024;
/// Uniform jitter added to each backoff delay, `[0, jitter)` ticks
/// (seeded; decorrelates retry storms).
pub const NACK_JITTER_TICKS: u64 = 256;
/// Retries per gap packet before giving up (graceful degradation: the
/// packet is skipped and a hiccup recorded).
pub const MAX_RETRIES: u32 = 6;
/// Per-node repair buffer capacity in packets; non-source nodes only
/// serve retransmissions still in their buffer.
pub const REPAIR_BUFFER: usize = 64;
/// A packet is considered a gap once `newest − seq` exceeds this many
/// packets (absorbs normal round-robin reordering).
pub const GAP_SLACK: u64 = 16;
/// Seed for recovery-layer randomness (retransmit loss draws, backoff
/// jitter); independent of the fault-plan seed so enabling recovery
/// never perturbs the main loss process.
pub const RECOVERY_SEED: u64 = 0;

/// Which parts of the recovery layer a run enables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RecoveryMode {
    /// No detection, no repair, no retransmission: departures stay
    /// permanently fail-silent (PR 2 behavior, bit-identical).
    #[default]
    Off,
    /// Detect failures and repair the tree; gap packets from the
    /// detection window stay missing.
    Repair,
    /// Repair plus NACK-based retransmission of gap packets.
    RepairNack,
}

impl RecoveryMode {
    /// Whether any recovery machinery is active.
    pub fn enabled(&self) -> bool {
        !matches!(self, RecoveryMode::Off)
    }

    /// Whether NACK retransmission is active.
    pub fn nack(&self) -> bool {
        matches!(self, RecoveryMode::RepairNack)
    }
}

/// The recovery tier of a DES run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// What to enable.
    pub mode: RecoveryMode,
}

impl RecoveryConfig {
    /// The repair-only tier.
    pub fn repair() -> Self {
        RecoveryConfig {
            mode: RecoveryMode::Repair,
        }
    }

    /// The repair + NACK tier.
    pub fn repair_nack() -> Self {
        RecoveryConfig {
            mode: RecoveryMode::RepairNack,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        let c = RecoveryConfig::default();
        assert_eq!(c.mode, RecoveryMode::Off);
        assert!(!c.mode.enabled());
    }

    #[test]
    fn mode_predicates() {
        assert!(RecoveryConfig::repair().mode.enabled());
        assert!(!RecoveryConfig::repair().mode.nack());
        assert!(RecoveryConfig::repair_nack().mode.nack());
    }
}

//! Field-by-field comparison of two [`RunResult`]s.
//!
//! [`crate::MegaEngine`] promises *bit-identical* results to
//! [`crate::Simulator`], and so does the DES in its slot-faithful
//! configuration. [`diff_fields`] names every
//! field on which two results differ — arrivals, QoS, traffic
//! statistics, loss reports, traces, everything on [`RunResult`]. The
//! differential oracle that runs the engines side by side
//! (`clustream_des::oracle`: `Column` and `agree`) and the
//! `debug_assertions` cross-check in the experiment binaries both diff
//! through it.

use crate::engine::RunResult;

/// Names of [`RunResult`] fields that differ between two results.
/// Empty iff the results are identical.
pub fn diff_fields(reference: &RunResult, other: &RunResult) -> Vec<&'static str> {
    let mut d = Vec::new();
    if reference.scheme != other.scheme {
        d.push("scheme");
    }
    if reference.slots_run != other.slots_run {
        d.push("slots_run");
    }
    if reference.arrivals != other.arrivals {
        d.push("arrivals");
    }
    if reference.qos != other.qos {
        d.push("qos");
    }
    if reference.total_transmissions != other.total_transmissions {
        d.push("total_transmissions");
    }
    if reference.duplicate_deliveries != other.duplicate_deliveries {
        d.push("duplicate_deliveries");
    }
    if reference.loss != other.loss {
        d.push("loss");
    }
    if reference.trace != other.trace {
        d.push("trace");
    }
    if reference.upload_counts != other.upload_counts {
        d.push("upload_counts");
    }
    if reference.resilience != other.resilience {
        d.push("resilience");
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulator};
    use clustream_core::{NodeId, PacketId, Scheme, Slot, StateView, Transmission, SOURCE};

    /// Chain scheme (same shape as the engine's test scheme): S → 1 → … → N.
    struct Chain {
        n: usize,
    }

    impl Scheme for Chain {
        fn name(&self) -> String {
            format!("chain({})", self.n)
        }
        fn num_receivers(&self) -> usize {
            self.n
        }
        fn transmissions(&mut self, slot: Slot, _: &dyn StateView, out: &mut Vec<Transmission>) {
            let t = slot.t();
            out.push(Transmission::local(SOURCE, NodeId(1), PacketId(t)));
            for i in 1..self.n as u64 {
                if t >= i {
                    out.push(Transmission::local(
                        NodeId(i as u32),
                        NodeId(i as u32 + 1),
                        PacketId(t - i),
                    ));
                }
            }
        }
    }

    #[test]
    fn diff_fields_pinpoints_mutation() {
        let cfg = SimConfig::until_complete(8, 100);
        let a = Simulator::run(&mut Chain { n: 3 }, &cfg).unwrap();
        let mut b = a.clone();
        assert!(diff_fields(&a, &b).is_empty());
        b.total_transmissions += 1;
        b.slots_run += 1;
        assert_eq!(
            diff_fields(&a, &b),
            vec!["slots_run", "total_transmissions"]
        );
    }
}

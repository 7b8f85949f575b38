//! Churn traces: node arrivals and departures over slot time.
//!
//! Arrivals follow a Poisson process (exponential inter-arrival times);
//! each member's lifetime is exponential. Departures name their victim by
//! *rank* among the members currently present (in ascending external-id
//! order), so a trace replays identically against any membership-tracking
//! structure regardless of how it assigns identities.

use clustream_core::CoreError;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// What happens at a churn event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnAction {
    /// A new node joins.
    Join,
    /// The member with this rank (ascending id order, 0-based) leaves.
    Leave {
        /// Rank of the departing member among current members.
        victim_rank: usize,
    },
    /// A previously departed member comes back (same identity — the
    /// recovery layer readmits it rather than treating it as a stranger).
    Rejoin {
        /// Rank of the returning member among currently departed members
        /// (ascending id order, 0-based).
        departed_rank: usize,
    },
}

/// One timestamped churn event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// Slot at which the event fires.
    pub slot: u64,
    /// The action.
    pub action: ChurnAction,
}

/// Parameters of a generated trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnTraceConfig {
    /// Members present at slot 0.
    pub initial_members: usize,
    /// Horizon in slots.
    pub slots: u64,
    /// Expected joins per slot.
    pub join_rate: f64,
    /// Expected per-member departure probability per slot
    /// (1 / mean lifetime).
    pub leave_rate: f64,
    /// Expected per-departed-member return probability per slot
    /// (1 / mean downtime). Zero (the default for existing traces)
    /// means nobody comes back.
    pub rejoin_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

/// A replayable churn trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnTrace {
    /// Generation parameters.
    pub config: ChurnTraceConfig,
    /// Events ordered by slot.
    pub events: Vec<ChurnEvent>,
}

/// A churn action resolved against a concrete membership: abstract
/// victim *ranks* become external node ids. Produced by
/// [`ChurnTrace::resolve`]; consumed by runtimes that need to know *who*
/// left (e.g. the DES engine silencing a departed member).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ResolvedChurnAction {
    /// A new node joined and was assigned this external id.
    Join {
        /// The id assigned to the joiner (greater than every prior id).
        ext: u64,
    },
    /// The member with this external id left.
    Leave {
        /// The departing member's id.
        ext: u64,
    },
    /// The previously departed member with this external id returned.
    Rejoin {
        /// The returning member's id.
        ext: u64,
    },
}

/// One timestamped resolved churn event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResolvedChurnEvent {
    /// Slot at which the event fires.
    pub slot: u64,
    /// The resolved action.
    pub action: ResolvedChurnAction,
}

/// Exponential sample with rate `lambda` (mean `1/lambda`).
fn exp_sample(rng: &mut ChaCha8Rng, lambda: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() / lambda
}

impl ChurnTrace {
    /// Generate a trace. The membership count is tracked so `Leave`
    /// events always name a valid rank and the population never drops
    /// below 2 (the dynamics refuse to empty the forest).
    pub fn generate(config: ChurnTraceConfig) -> Self {
        assert!(config.initial_members >= 2);
        assert!(config.join_rate >= 0.0 && config.leave_rate >= 0.0);
        assert!(config.rejoin_rate >= 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut events = Vec::new();

        // Next-arrival sampling; departures are sampled per-slot from the
        // aggregate rate members·leave_rate (thinned Poisson), rejoins
        // likewise from departed·rejoin_rate. With rejoin_rate = 0 the
        // draw sequence is identical to pre-rejoin traces.
        let mut members = config.initial_members;
        let mut departed = 0usize;
        let mut next_join = if config.join_rate > 0.0 {
            exp_sample(&mut rng, config.join_rate)
        } else {
            f64::INFINITY
        };
        for slot in 0..config.slots {
            while next_join < (slot + 1) as f64 {
                events.push(ChurnEvent {
                    slot,
                    action: ChurnAction::Join,
                });
                members += 1;
                next_join += exp_sample(&mut rng, config.join_rate);
            }
            if config.leave_rate > 0.0 && members > 2 {
                let p = (members as f64 * config.leave_rate).min(1.0);
                if rng.gen_bool(p) {
                    let victim_rank = rng.gen_range(0..members);
                    events.push(ChurnEvent {
                        slot,
                        action: ChurnAction::Leave { victim_rank },
                    });
                    members -= 1;
                    departed += 1;
                }
            }
            if config.rejoin_rate > 0.0 && departed > 0 {
                let p = (departed as f64 * config.rejoin_rate).min(1.0);
                if rng.gen_bool(p) {
                    let departed_rank = rng.gen_range(0..departed);
                    events.push(ChurnEvent {
                        slot,
                        action: ChurnAction::Rejoin { departed_rank },
                    });
                    departed -= 1;
                    members += 1;
                }
            }
        }
        ChurnTrace { config, events }
    }

    /// Resolve abstract ranks against a concrete membership.
    ///
    /// `initial` is the external ids of the members present at slot 0;
    /// joins are assigned fresh ids above every id seen so far. Members
    /// listed in `protected` (the source, super nodes — anything whose
    /// departure the replaying structure cannot absorb) are **never**
    /// chosen as departure victims: the victim is picked among the
    /// unprotected members by `victim_rank % eligible`, and a `Leave`
    /// with no eligible victim is dropped. Deterministic: same trace,
    /// same inputs, same resolution. [`CoreError::InvalidConfig`] when the
    /// resolved script does not fit in memory.
    pub fn resolve(
        &self,
        initial: &[u64],
        protected: &[u64],
    ) -> Result<Vec<ResolvedChurnEvent>, CoreError> {
        let mut next = initial.iter().max().map_or(1, |m| m + 1);
        // The members a departure may pick, ascending: kept current across
        // events instead of re-filtered per `Leave` (protected members
        // never leave, so nothing else about them is needed).
        let mut eligible: Vec<u64> = initial.to_vec();
        eligible.retain(|m| !protected.contains(m));
        eligible.sort_unstable();
        // Currently departed ids in ascending order; rejoins pick from it.
        let mut gone: Vec<u64> = Vec::new();
        let (mut out, events) = (Vec::new(), self.events.len());
        out.try_reserve_exact(events).map_err(|_| {
            CoreError::InvalidConfig(format!(
                "a churn script of {events} events does not fit in memory"
            ))
        })?;
        for e in &self.events {
            let action = match e.action {
                ChurnAction::Join => {
                    let ext = next;
                    next += 1;
                    // Fresh ids grow monotonically, so pushing keeps the
                    // list sorted.
                    if !protected.contains(&ext) {
                        eligible.push(ext);
                    }
                    ResolvedChurnAction::Join { ext }
                }
                ChurnAction::Leave { .. } if eligible.is_empty() => continue,
                ChurnAction::Leave { victim_rank } => {
                    let ext = eligible.remove(victim_rank % eligible.len());
                    let at = gone.binary_search(&ext).unwrap_err();
                    gone.insert(at, ext);
                    ResolvedChurnAction::Leave { ext }
                }
                ChurnAction::Rejoin { .. } if gone.is_empty() => continue,
                ChurnAction::Rejoin { departed_rank } => {
                    let ext = gone.remove(departed_rank % gone.len());
                    let at = eligible.binary_search(&ext).unwrap_err();
                    eligible.insert(at, ext);
                    ResolvedChurnAction::Rejoin { ext }
                }
            };
            out.push(ResolvedChurnEvent {
                slot: e.slot,
                action,
            });
        }
        Ok(out)
    }

    /// Net membership at the end of the trace.
    pub fn final_members(&self) -> usize {
        let mut m = self.config.initial_members as isize;
        for e in &self.events {
            match e.action {
                ChurnAction::Join | ChurnAction::Rejoin { .. } => m += 1,
                ChurnAction::Leave { .. } => m -= 1,
            }
        }
        m as usize
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trace serializes")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> ChurnTraceConfig {
        ChurnTraceConfig {
            initial_members: 20,
            slots: 500,
            join_rate: 0.1,
            leave_rate: 0.005,
            rejoin_rate: 0.0,
            seed,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = ChurnTrace::generate(cfg(7));
        let b = ChurnTrace::generate(cfg(7));
        assert_eq!(a, b);
        let c = ChurnTrace::generate(cfg(8));
        assert_ne!(a, c);
    }

    #[test]
    fn events_are_time_ordered_and_ranks_valid() {
        let t = ChurnTrace::generate(ChurnTraceConfig {
            rejoin_rate: 0.02,
            ..cfg(3)
        });
        let mut members = t.config.initial_members;
        let mut departed = 0usize;
        let mut last = 0u64;
        for e in &t.events {
            assert!(e.slot >= last);
            last = e.slot;
            match e.action {
                ChurnAction::Join => members += 1,
                ChurnAction::Leave { victim_rank } => {
                    assert!(victim_rank < members, "rank {victim_rank} of {members}");
                    members -= 1;
                    departed += 1;
                }
                ChurnAction::Rejoin { departed_rank } => {
                    assert!(
                        departed_rank < departed,
                        "rank {departed_rank} of {departed} departed"
                    );
                    departed -= 1;
                    members += 1;
                }
            }
        }
        assert_eq!(members, t.final_members());
        assert!(members >= 2);
    }

    #[test]
    fn rates_shape_the_trace() {
        let joins_only = ChurnTrace::generate(ChurnTraceConfig {
            leave_rate: 0.0,
            ..cfg(1)
        });
        assert!(joins_only
            .events
            .iter()
            .all(|e| matches!(e.action, ChurnAction::Join)));
        assert!(joins_only.final_members() > 20);

        let heavy = ChurnTrace::generate(ChurnTraceConfig {
            join_rate: 1.0,
            ..cfg(2)
        });
        let light = ChurnTrace::generate(ChurnTraceConfig {
            join_rate: 0.01,
            ..cfg(2)
        });
        assert!(heavy.events.len() > light.events.len());
    }

    #[test]
    fn json_roundtrip() {
        let t = ChurnTrace::generate(cfg(5));
        let back = ChurnTrace::from_json(&t.to_json()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn resolve_maps_ranks_to_ids() {
        // Members 1..=4, no protection: Leave{rank 1} at the start names
        // id 2; a join gets id 5.
        let t = ChurnTrace {
            config: ChurnTraceConfig {
                initial_members: 4,
                slots: 10,
                join_rate: 0.0,
                leave_rate: 0.0,
                rejoin_rate: 0.0,
                seed: 0,
            },
            events: vec![
                ChurnEvent {
                    slot: 1,
                    action: ChurnAction::Leave { victim_rank: 1 },
                },
                ChurnEvent {
                    slot: 2,
                    action: ChurnAction::Join,
                },
                ChurnEvent {
                    slot: 3,
                    action: ChurnAction::Leave { victim_rank: 0 },
                },
            ],
        };
        let resolved = t.resolve(&[1, 2, 3, 4], &[]).unwrap();
        assert_eq!(
            resolved,
            vec![
                ResolvedChurnEvent {
                    slot: 1,
                    action: ResolvedChurnAction::Leave { ext: 2 },
                },
                ResolvedChurnEvent {
                    slot: 2,
                    action: ResolvedChurnAction::Join { ext: 5 },
                },
                ResolvedChurnEvent {
                    slot: 3,
                    action: ResolvedChurnAction::Leave { ext: 1 },
                },
            ]
        );
        // Protecting id 2 deflects the first departure to the next
        // eligible member.
        let shielded = t.resolve(&[1, 2, 3, 4], &[2]).unwrap();
        assert_eq!(
            shielded[0].action,
            ResolvedChurnAction::Leave { ext: 3 },
            "rank 1 among eligible [1, 3, 4] is id 3"
        );
    }

    #[test]
    fn rejoin_returns_the_departed_identity() {
        let mk = |action, slot| ChurnEvent { slot, action };
        let t = ChurnTrace {
            config: ChurnTraceConfig {
                initial_members: 4,
                slots: 10,
                join_rate: 0.0,
                leave_rate: 0.0,
                rejoin_rate: 0.0,
                seed: 0,
            },
            events: vec![
                mk(ChurnAction::Leave { victim_rank: 2 }, 1), // id 3 leaves
                mk(ChurnAction::Leave { victim_rank: 0 }, 2), // id 1 leaves
                // Rank 1 among departed [1, 3] is id 3.
                mk(ChurnAction::Rejoin { departed_rank: 1 }, 4),
                // Rank 0 among departed [1] is id 1.
                mk(ChurnAction::Rejoin { departed_rank: 0 }, 5),
                // Nobody is departed any more: dropped.
                mk(ChurnAction::Rejoin { departed_rank: 0 }, 6),
            ],
        };
        let resolved = t.resolve(&[1, 2, 3, 4], &[]).unwrap();
        let actions: Vec<ResolvedChurnAction> = resolved.iter().map(|e| e.action).collect();
        assert_eq!(
            actions,
            vec![
                ResolvedChurnAction::Leave { ext: 3 },
                ResolvedChurnAction::Leave { ext: 1 },
                ResolvedChurnAction::Rejoin { ext: 3 },
                ResolvedChurnAction::Rejoin { ext: 1 },
            ]
        );
    }

    #[test]
    fn rejoin_rate_brings_members_back() {
        let churny = ChurnTrace::generate(ChurnTraceConfig {
            leave_rate: 0.02,
            rejoin_rate: 0.1,
            ..cfg(13)
        });
        assert!(
            churny
                .events
                .iter()
                .any(|e| matches!(e.action, ChurnAction::Rejoin { .. })),
            "expected at least one rejoin"
        );
        // Zero rejoin rate keeps the pre-rejoin draw sequence intact.
        let a = ChurnTrace::generate(cfg(13));
        let b = ChurnTrace::generate(ChurnTraceConfig {
            rejoin_rate: 0.0,
            ..cfg(13)
        });
        assert_eq!(a, b);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// `ChurnTrace::resolve` as it was before the eligible list
        /// became incremental: every `Leave` re-filters all members
        /// against `protected`. Kept verbatim as the model.
        fn resolve_reference(
            trace: &ChurnTrace,
            initial: &[u64],
            protected: &[u64],
        ) -> Vec<ResolvedChurnEvent> {
            let mut members: Vec<u64> = initial.to_vec();
            members.sort_unstable();
            let mut next = members.last().map_or(1, |m| m + 1);
            // Currently departed ids in ascending order; rejoins pick from it.
            let mut gone: Vec<u64> = Vec::new();
            let mut out = Vec::with_capacity(trace.events.len());
            for e in &trace.events {
                match e.action {
                    ChurnAction::Join => {
                        // Fresh ids grow monotonically, so pushing keeps the
                        // member list sorted.
                        members.push(next);
                        out.push(ResolvedChurnEvent {
                            slot: e.slot,
                            action: ResolvedChurnAction::Join { ext: next },
                        });
                        next += 1;
                    }
                    ChurnAction::Leave { victim_rank } => {
                        let eligible: Vec<usize> = members
                            .iter()
                            .enumerate()
                            .filter(|(_, m)| !protected.contains(m))
                            .map(|(i, _)| i)
                            .collect();
                        if eligible.is_empty() {
                            continue;
                        }
                        let idx = eligible[victim_rank % eligible.len()];
                        let ext = members.remove(idx);
                        let at = gone.binary_search(&ext).unwrap_err();
                        gone.insert(at, ext);
                        out.push(ResolvedChurnEvent {
                            slot: e.slot,
                            action: ResolvedChurnAction::Leave { ext },
                        });
                    }
                    ChurnAction::Rejoin { departed_rank } => {
                        if gone.is_empty() {
                            continue;
                        }
                        let ext = gone.remove(departed_rank % gone.len());
                        let at = members.binary_search(&ext).unwrap_err();
                        members.insert(at, ext);
                        out.push(ResolvedChurnEvent {
                            slot: e.slot,
                            action: ResolvedChurnAction::Rejoin { ext },
                        });
                    }
                }
            }
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Generated traces are time-sorted — the contract slot
            /// replay (and the DES event queue) relies on.
            #[test]
            fn generated_traces_are_time_sorted(
                initial in 2usize..40,
                slots in 1u64..400,
                join_permille in 0u32..500,
                leave_permille in 0u32..50,
                rejoin_permille in 0u32..200,
                seed in any::<u64>(),
            ) {
                let t = ChurnTrace::generate(ChurnTraceConfig {
                    initial_members: initial,
                    slots,
                    join_rate: join_permille as f64 / 1000.0,
                    leave_rate: leave_permille as f64 / 1000.0,
                    rejoin_rate: rejoin_permille as f64 / 1000.0,
                    seed,
                });
                for w in t.events.windows(2) {
                    prop_assert!(w[0].slot <= w[1].slot, "events out of order");
                }
                for e in &t.events {
                    prop_assert!(e.slot < slots);
                }
            }

            /// Resolution never departs the source or a protected super
            /// node, joins get fresh ids, and event times are preserved
            /// in order — the guarantees DES churn handling builds on.
            #[test]
            fn resolution_never_removes_protected_nodes(
                initial in 2usize..40,
                slots in 1u64..400,
                join_permille in 0u32..500,
                leave_permille in 1u32..80,
                rejoin_permille in 0u32..200,
                seed in any::<u64>(),
                n_protected in 0usize..5,
            ) {
                let t = ChurnTrace::generate(ChurnTraceConfig {
                    initial_members: initial,
                    slots,
                    join_rate: join_permille as f64 / 1000.0,
                    leave_rate: leave_permille as f64 / 1000.0,
                    rejoin_rate: rejoin_permille as f64 / 1000.0,
                    seed,
                });
                // Members 1..=initial; the source is id 0 (never a
                // member), supers are the first few receivers.
                let members: Vec<u64> = (1..=initial as u64).collect();
                let mut protected: Vec<u64> = vec![0];
                protected.extend(1..=(n_protected.min(initial) as u64));
                let resolved = t.resolve(&members, &protected).unwrap();

                let mut away = std::collections::HashSet::new();
                let mut last_slot = 0u64;
                let mut max_id = initial as u64;
                for e in &resolved {
                    prop_assert!(e.slot >= last_slot, "resolution reordered events");
                    last_slot = e.slot;
                    match e.action {
                        ResolvedChurnAction::Leave { ext } => {
                            prop_assert!(
                                !protected.contains(&ext),
                                "protected node {ext} departed"
                            );
                            prop_assert!(
                                away.insert(ext),
                                "node {ext} departed while already away"
                            );
                        }
                        ResolvedChurnAction::Join { ext } => {
                            prop_assert!(ext > max_id, "join id {ext} not fresh");
                            max_id = ext;
                        }
                        ResolvedChurnAction::Rejoin { ext } => {
                            prop_assert!(
                                away.remove(&ext),
                                "node {ext} rejoined without departing"
                            );
                        }
                    }
                }
                // Determinism.
                prop_assert_eq!(resolved, t.resolve(&members, &protected).unwrap());
            }

            /// Model-based: the incremental resolution names the same
            /// victims in the same order as the re-filtering reference,
            /// over hand-rolled event soups — ranks past the population,
            /// rejoins with nobody away, leaves with nobody eligible — an
            /// unsorted initial membership, and protected sets that name
            /// members, strangers and ids no join has minted yet.
            #[test]
            fn incremental_resolution_matches_the_refiltering_reference(
                initial in proptest::collection::vec(1u64..40, 0..12),
                protected in proptest::collection::vec(0u64..48, 0..6),
                ops in proptest::collection::vec((0u8..3, 0usize..64), 0..80),
            ) {
                let mut initial = initial;
                initial.sort_unstable();
                initial.dedup();
                initial.reverse();
                let events = ops
                    .iter()
                    .enumerate()
                    .map(|(i, &(kind, rank))| ChurnEvent {
                        slot: i as u64 / 3,
                        action: match kind {
                            0 => ChurnAction::Join,
                            1 => ChurnAction::Leave { victim_rank: rank },
                            _ => ChurnAction::Rejoin { departed_rank: rank },
                        },
                    })
                    .collect();
                let config = ChurnTraceConfig {
                    initial_members: initial.len(),
                    slots: 30,
                    join_rate: 0.0,
                    leave_rate: 0.0,
                    rejoin_rate: 0.0,
                    seed: 0,
                };
                let t = ChurnTrace { config, events };
                prop_assert_eq!(
                    t.resolve(&initial, &protected).unwrap(),
                    resolve_reference(&t, &initial, &protected)
                );
            }
        }
    }

    #[test]
    fn replays_against_dynamic_membership() {
        // A minimal membership tracker replaying the trace: the contract
        // every consumer relies on.
        let t = ChurnTrace::generate(ChurnTraceConfig {
            rejoin_rate: 0.03,
            ..cfg(11)
        });
        let mut members: Vec<u64> = (1..=t.config.initial_members as u64).collect();
        let mut away: Vec<u64> = Vec::new();
        let mut next = members.len() as u64 + 1;
        for e in &t.events {
            match e.action {
                ChurnAction::Join => {
                    members.push(next);
                    next += 1;
                }
                ChurnAction::Leave { victim_rank } => {
                    let ext = members.remove(victim_rank);
                    let at = away.binary_search(&ext).unwrap_err();
                    away.insert(at, ext);
                }
                ChurnAction::Rejoin { departed_rank } => {
                    let ext = away.remove(departed_rank);
                    let at = members.binary_search(&ext).unwrap_err();
                    members.insert(at, ext);
                }
            }
        }
        assert_eq!(members.len(), t.final_members());
    }
}

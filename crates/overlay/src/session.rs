//! The composed multi-cluster streaming session.
//!
//! Global node-id layout: `0` is the source `S`; then, per cluster `i` in
//! order, `[S_i, S'_i, member_1 … member_{N_i}]`. Packets flow
//! `S → S_i → (backbone children, S'_i) → intra-cluster scheme`:
//!
//! * `S` sends packet `t` to each depth-1 cluster's `S_i` in slot `t`
//!   (latency `T_c`);
//! * `S_i` can forward packet `p` from slot `u_i + p` on, where
//!   `u_i = depth_i · T_c`; each slot it relays one packet to every
//!   backbone child (latency `T_c`) and to `S'_i` (latency 1) — `≤ D`
//!   sends;
//! * `S'_i` roots the chosen intra-cluster scheme, run at local time
//!   `τ = t − σ_i` with `σ_i = u_i + 1` (the slot `S'_i` starts holding
//!   the stream prefix). Multi-tree sessions run in the live-prebuffered
//!   mode so the local schedule never outruns the backbone feed.

use crate::supertree::Backbone;
use clustream_analysis::{grouped_worst_delay, thm2_worst_delay_bound};
use clustream_core::{
    Availability, CoreError, NodeId, PacketId, SchedulePeriod, Scheme, Slot, StateView,
    Transmission, SOURCE,
};
use clustream_hypercube::HypercubeStream;
use clustream_multitree::{build_forest, Construction, MultiTreeScheme, StreamMode};

/// Which scheme runs inside each cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntraScheme {
    /// Interior-disjoint multi-trees of degree `d` (§2).
    MultiTree {
        /// Tree degree.
        d: usize,
        /// Which §2.2 construction builds the forest.
        construction: Construction,
    },
    /// Chained hypercubes split into `d` groups (§3).
    Hypercube {
        /// Source-split group count.
        d: usize,
    },
}

impl IntraScheme {
    /// The scheme's worst playback delay over `n` members, counted from
    /// the slot it starts: Theorem 2's `h·d` plus the live prebuffer `d`,
    /// or Proposition 2 over the source's groups.
    pub fn worst_delay_bound(self, n: usize) -> u64 {
        match self {
            IntraScheme::MultiTree { d, .. } => thm2_worst_delay_bound(n, d) + d as u64,
            IntraScheme::Hypercube { d } => grouped_worst_delay(n, d.min(n)),
        }
    }
}

struct ClusterInst {
    s_i: u32,
    s_prime: u32,
    member_base: u32,
    n_members: usize,
    /// `S'_i`'s send capacity: this cluster's `d`.
    intra_d: usize,
    /// The intra-cluster scheme's worst-delay bound, counted from `sigma`.
    intra_bound: u64,
    /// Slot from which `S_i` holds (and can forward) packet 0.
    u: u64,
    /// Slot from which the intra-cluster scheme runs (local slot 0).
    sigma: u64,
    backbone_children: Vec<usize>,
    inner: Box<dyn Scheme + Send>,
}

/// A `K`-cluster streaming session: backbone `τ` + intra-cluster schemes.
///
/// ```
/// use clustream_overlay::{ClusterSession, IntraScheme};
/// use clustream_multitree::Construction;
/// use clustream_sim::{SimConfig, Simulator};
///
/// // Three clusters, inter-cluster latency T_c = 5, multi-trees inside.
/// let mut session = ClusterSession::new(
///     &[12, 9, 15],
///     3, // D
///     5, // T_c
///     IntraScheme::MultiTree { d: 2, construction: Construction::Greedy },
/// )?;
/// let predicted = session.worst_delay_bound();
/// let run = Simulator::run(&mut session, &SimConfig::until_complete(16, 100_000))?;
/// assert!(run.qos.max_delay() <= predicted); // Theorem 1 in action
/// # Ok::<(), clustream_core::CoreError>(())
/// ```
pub struct ClusterSession {
    t_c: u32,
    big_d: usize,
    clusters: Vec<ClusterInst>,
    n_ids: usize,
}

impl ClusterSession {
    /// Build a session over `cluster_sizes` (members per cluster), source
    /// degree `big_d = D ≥ 3`, inter-cluster latency `t_c > 1`, and one
    /// intra-cluster scheme used by every cluster.
    pub fn new(
        cluster_sizes: &[usize],
        big_d: usize,
        t_c: u32,
        intra: IntraScheme,
    ) -> Result<Self, CoreError> {
        let specs: Vec<(usize, IntraScheme)> = cluster_sizes.iter().map(|&n| (n, intra)).collect();
        Self::new_mixed(&specs, big_d, t_c)
    }

    /// Build a **heterogeneous** session: each cluster picks its own
    /// intra-cluster scheme — e.g. multi-trees where startup latency
    /// matters, hypercube chains where receivers are memory-constrained.
    /// (The backbone relays one packet per slot regardless, so clusters
    /// compose freely.)
    pub fn new_mixed(
        cluster_specs: &[(usize, IntraScheme)],
        big_d: usize,
        t_c: u32,
    ) -> Result<Self, CoreError> {
        if big_d < 3 {
            return Err(CoreError::InvalidConfig(
                "source degree D must be ≥ 3".into(),
            ));
        }
        if t_c < 2 {
            return Err(CoreError::InvalidConfig(
                "inter-cluster latency T_c must be > 1".into(),
            ));
        }
        let backbone = Backbone::new(cluster_specs.len(), big_d)?;

        let mut clusters = Vec::with_capacity(cluster_specs.len());
        let mut next_id = 1u32;
        for (i, &(n_i, intra)) in cluster_specs.iter().enumerate() {
            if n_i == 0 {
                return Err(CoreError::InvalidConfig(format!("cluster {i} is empty")));
            }
            let s_i = next_id;
            let s_prime = next_id + 1;
            let member_base = next_id + 2;
            next_id += 2 + n_i as u32;
            let (inner, intra_d): (Box<dyn Scheme + Send>, usize) = match intra {
                IntraScheme::MultiTree { d, construction } => {
                    let forest = build_forest(n_i, d, construction)?;
                    (
                        Box::new(MultiTreeScheme::new(forest, StreamMode::LivePrebuffered)),
                        d,
                    )
                }
                IntraScheme::Hypercube { d } => {
                    let d = d.min(n_i);
                    (Box::new(HypercubeStream::with_groups(n_i, d)?), d)
                }
            };
            let u = backbone.depth(i) as u64 * t_c as u64;
            clusters.push(ClusterInst {
                s_i,
                s_prime,
                member_base,
                n_members: n_i,
                intra_d,
                intra_bound: intra.worst_delay_bound(n_i),
                u,
                sigma: u + 1,
                backbone_children: backbone.children(i),
                inner,
            });
        }
        Ok(ClusterSession {
            t_c,
            big_d,
            clusters,
            n_ids: next_id as usize,
        })
    }

    /// Translate cluster `i`'s scheme-local id to the global id space.
    fn tr(&self, i: usize, local: NodeId) -> NodeId {
        let c = &self.clusters[i];
        if local.is_source() {
            NodeId(c.s_prime)
        } else {
            NodeId(c.member_base + local.0 - 1)
        }
    }

    /// Global ids of cluster `i`'s members.
    pub fn members_of(&self, i: usize) -> std::ops::RangeInclusive<u32> {
        let c = &self.clusters[i];
        c.member_base..=c.member_base + c.n_members as u32 - 1
    }

    /// Global id of `S_i` / `S'_i`.
    pub fn supers_of(&self, i: usize) -> (NodeId, NodeId) {
        (
            NodeId(self.clusters[i].s_i),
            NodeId(self.clusters[i].s_prime),
        )
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.clusters.len()
    }

    /// Slot from which cluster `i`'s intra scheme runs.
    pub fn sigma(&self, i: usize) -> u64 {
        self.clusters[i].sigma
    }

    /// Theorem 1's bound on the session's worst playback delay: over the
    /// clusters, `σ_i` plus the intra-cluster scheme's bound.
    pub fn worst_delay_bound(&self) -> u64 {
        let bounds = self.clusters.iter().map(|c| c.sigma + c.intra_bound);
        bounds.max().unwrap_or(0)
    }
}

/// View adapter exposing the engine's ground truth to an intra-cluster
/// scheme in its local id space.
struct LocalView<'a> {
    outer: &'a dyn StateView,
    s_prime: u32,
    member_base: u32,
    sigma: u64,
}

impl StateView for LocalView<'_> {
    fn holds(&self, node: NodeId, packet: PacketId) -> bool {
        let global = if node.is_source() {
            NodeId(self.s_prime)
        } else {
            NodeId(self.member_base + node.0 - 1)
        };
        self.outer.holds(global, packet)
    }

    fn newest(&self, node: NodeId) -> Option<PacketId> {
        let global = if node.is_source() {
            NodeId(self.s_prime)
        } else {
            NodeId(self.member_base + node.0 - 1)
        };
        self.outer.newest(global)
    }

    fn slot(&self) -> Slot {
        Slot(self.outer.slot().t().saturating_sub(self.sigma))
    }
}

impl Scheme for ClusterSession {
    fn name(&self) -> String {
        format!(
            "clusters(K={}, D={}, T_c={}, intra={})",
            self.clusters.len(),
            self.big_d,
            self.t_c,
            self.clusters[0].inner.name()
        )
    }

    fn num_receivers(&self) -> usize {
        self.clusters.iter().map(|c| c.n_members).sum()
    }

    fn id_space(&self) -> usize {
        self.n_ids
    }

    fn receivers(&self) -> Vec<NodeId> {
        (0..self.clusters.len())
            .flat_map(|i| self.members_of(i).map(NodeId))
            .collect()
    }

    fn send_capacity(&self, node: NodeId) -> usize {
        if node.is_source() {
            return self.big_d;
        }
        for c in &self.clusters {
            if node.0 == c.s_i {
                return self.big_d; // D − 1 backbone children + S'_i
            }
            if node.0 == c.s_prime {
                return c.intra_d;
            }
        }
        1
    }

    fn availability(&self) -> Availability {
        Availability::Live
    }

    fn schedule_period(&self) -> Option<SchedulePeriod> {
        // The backbone relays one packet per slot per super node (period 1,
        // delta 1); each intra scheme runs shifted by σ_i, so the session
        // is periodic iff every inner scheme is, with period lcm(inner
        // periods) and warmup max(σ_i + inner warmup_i).
        fn gcd(a: u64, b: u64) -> u64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let mut period = 1u64;
        let mut warmup = 0u64;
        for c in &self.clusters {
            let inner = c.inner.schedule_period()?;
            period = period / gcd(period, inner.period) * inner.period;
            warmup = warmup.max(c.sigma + inner.warmup);
        }
        Some(SchedulePeriod { warmup, period })
    }

    fn transmissions(&mut self, slot: Slot, view: &dyn StateView, out: &mut Vec<Transmission>) {
        let t = slot.t();
        let t_c = self.t_c;

        // S → depth-1 clusters: packet t.
        for (i, c) in self.clusters.iter().enumerate() {
            if c.u == t_c as u64 {
                let _ = i;
                out.push(Transmission::remote(
                    SOURCE,
                    NodeId(c.s_i),
                    PacketId(t),
                    t_c,
                ));
            }
        }

        // S_i relays packet t − u_i to backbone children and S'_i.
        let relays: Vec<(u32, u64, Vec<usize>, u32)> = self
            .clusters
            .iter()
            .filter(|c| t >= c.u)
            .map(|c| (c.s_i, t - c.u, c.backbone_children.clone(), c.s_prime))
            .collect();
        for (s_i, p, children, s_prime) in relays {
            for child in children {
                let target = self.clusters[child].s_i;
                out.push(Transmission::remote(
                    NodeId(s_i),
                    NodeId(target),
                    PacketId(p),
                    t_c,
                ));
            }
            out.push(Transmission::local(
                NodeId(s_i),
                NodeId(s_prime),
                PacketId(p),
            ));
        }

        // Intra-cluster schemes at local time τ = t − σ_i.
        let mut local = Vec::new();
        for i in 0..self.clusters.len() {
            let sigma = self.clusters[i].sigma;
            if t < sigma {
                continue;
            }
            let lv = LocalView {
                outer: view,
                s_prime: self.clusters[i].s_prime,
                member_base: self.clusters[i].member_base,
                sigma,
            };
            local.clear();
            self.clusters[i]
                .inner
                .transmissions(Slot(t - sigma), &lv, &mut local);
            for tx in &local {
                out.push(Transmission {
                    from: self.tr(i, tx.from),
                    to: self.tr(i, tx.to),
                    packet: tx.packet,
                    latency: tx.latency,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustream_sim::{RunResult, SimConfig, Simulator};

    fn run(s: &mut ClusterSession, track: u64) -> RunResult {
        Simulator::run(s, &SimConfig::until_complete(track, 100_000)).unwrap()
    }

    #[test]
    fn two_cluster_multitree_session_streams() {
        let mut s = ClusterSession::new(
            &[9, 9],
            3,
            5,
            IntraScheme::MultiTree {
                d: 3,
                construction: Construction::Greedy,
            },
        )
        .unwrap();
        let r = run(&mut s, 24);
        assert_eq!(r.duplicate_deliveries, 0);
        assert_eq!(r.qos.n, 18);
        // Depth-1 clusters: members start after the backbone feed (T_c)
        // plus the local multi-tree warm-up.
        assert!(r.qos.max_delay() >= 5, "T_c alone is 5 slots");
    }

    #[test]
    fn hypercube_intra_session_streams() {
        let mut s =
            ClusterSession::new(&[7, 10, 5], 3, 4, IntraScheme::Hypercube { d: 2 }).unwrap();
        let r = run(&mut s, 40);
        assert_eq!(r.duplicate_deliveries, 0);
        assert_eq!(r.qos.n, 22);
    }

    #[test]
    fn deeper_clusters_start_later() {
        // K = 9, D = 3: clusters 0..3 at depth 1, 3..9 at depth 2.
        let sizes = vec![6usize; 9];
        let mut s = ClusterSession::new(
            &sizes,
            3,
            6,
            IntraScheme::MultiTree {
                d: 2,
                construction: Construction::Structured,
            },
        )
        .unwrap();
        assert!(s.sigma(3) > s.sigma(0));
        let r = run(&mut s, 16);
        let shallow = s.members_of(0).map(NodeId).collect::<Vec<_>>();
        let deep = s.members_of(8).map(NodeId).collect::<Vec<_>>();
        let max = |ids: &[NodeId]| {
            ids.iter()
                .map(|n| r.qos.node(*n).unwrap().playback_delay)
                .max()
                .unwrap()
        };
        assert!(
            max(&deep) >= max(&shallow) + 6,
            "deep {} vs shallow {}",
            max(&deep),
            max(&shallow)
        );
    }

    #[test]
    fn theorem1_shape_tc_term_scales_with_backbone_depth() {
        // Worst delay ≈ T_c·depth + intra; doubling T_c adds
        // ~depth·ΔT_c to the worst cluster.
        let sizes = vec![5usize; 9]; // depth 2 backbone at D = 3
        let mk = |t_c: u32| {
            let mut s = ClusterSession::new(
                &sizes,
                3,
                t_c,
                IntraScheme::MultiTree {
                    d: 2,
                    construction: Construction::Greedy,
                },
            )
            .unwrap();
            run(&mut s, 12).qos.max_delay()
        };
        let d5 = mk(5);
        let d10 = mk(10);
        assert_eq!(d10 - d5, 2 * 5, "two backbone hops × ΔT_c");
    }

    #[test]
    fn super_nodes_use_expected_capacities() {
        let s = ClusterSession::new(
            &[5, 5],
            4,
            3,
            IntraScheme::MultiTree {
                d: 2,
                construction: Construction::Greedy,
            },
        )
        .unwrap();
        assert_eq!(s.send_capacity(SOURCE), 4);
        let (s_1, s_1p) = s.supers_of(0);
        assert_eq!(s.send_capacity(s_1), 4);
        assert_eq!(s.send_capacity(s_1p), 2);
        assert_eq!(s.send_capacity(NodeId(s_1p.0 + 1)), 1);
    }

    #[test]
    fn member_delays_track_sigma_plus_local_profile() {
        let mut s = ClusterSession::new(
            &[15],
            3,
            7,
            IntraScheme::MultiTree {
                d: 3,
                construction: Construction::Structured,
            },
        )
        .unwrap();
        let sigma = s.sigma(0);
        let r = run(&mut s, 24);
        // Local profile: node 1's live-prebuffered delay is 2 + d = 5;
        // globally shifted by σ.
        let member1 = NodeId(s.members_of(0).next().unwrap());
        assert_eq!(
            r.qos.node(member1).unwrap().playback_delay,
            sigma + 5,
            "σ = {sigma}"
        );
    }

    #[test]
    fn predicted_delay_bounds_measurement() {
        for intra in [
            IntraScheme::MultiTree {
                d: 2,
                construction: Construction::Greedy,
            },
            IntraScheme::Hypercube { d: 1 },
        ] {
            let mut s = ClusterSession::new(&[11, 9, 13], 3, 6, intra).unwrap();
            let predicted = s.worst_delay_bound();
            let r = run(&mut s, 2 * predicted + 8);
            assert!(
                r.qos.max_delay() <= predicted,
                "{intra:?}: measured {} > predicted {predicted}",
                r.qos.max_delay()
            );
            // Prediction is no looser than 2× for these shapes.
            assert!(r.qos.max_delay() * 2 >= predicted);
        }
    }

    #[test]
    fn mixed_session_composes_schemes_per_cluster() {
        // Cluster 0: latency-sensitive (multi-tree); cluster 1: memory-
        // constrained set-top boxes (hypercube); cluster 2: multi-tree.
        let mut s = ClusterSession::new_mixed(
            &[
                (
                    12,
                    IntraScheme::MultiTree {
                        d: 2,
                        construction: Construction::Greedy,
                    },
                ),
                (10, IntraScheme::Hypercube { d: 1 }),
                (
                    8,
                    IntraScheme::MultiTree {
                        d: 3,
                        construction: Construction::Structured,
                    },
                ),
            ],
            3,
            4,
        )
        .unwrap();
        // Per-cluster S'_i capacities follow each cluster's d.
        assert_eq!(s.send_capacity(s.supers_of(0).1), 2);
        assert_eq!(s.send_capacity(s.supers_of(1).1), 1);
        assert_eq!(s.send_capacity(s.supers_of(2).1), 3);

        let r = run(&mut s, 24);
        assert_eq!(r.duplicate_deliveries, 0);
        assert_eq!(r.qos.n, 30);
        // The hypercube cluster's members keep O(1) buffers even while
        // multi-tree clusters buffer more.
        let hc_buf = s
            .members_of(1)
            .map(|m| r.qos.node(NodeId(m)).unwrap().max_buffer)
            .max()
            .unwrap();
        assert!(hc_buf <= 3, "hypercube cluster buffer {hc_buf}");
    }

    #[test]
    fn invalid_sessions_rejected() {
        let intra = IntraScheme::Hypercube { d: 1 };
        assert!(ClusterSession::new(&[], 3, 5, intra).is_err());
        assert!(ClusterSession::new(&[5], 2, 5, intra).is_err());
        assert!(ClusterSession::new(&[5], 3, 1, intra).is_err());
        assert!(ClusterSession::new(&[5, 0], 3, 5, intra).is_err());
    }
}

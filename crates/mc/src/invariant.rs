//! The invariant registry: the paper's theorems as pluggable checks.
//!
//! Each [`Invariant`] inspects one finished [`RunResult`] (plus the
//! genome that produced it and the family's closed-form [`Bounds`]) and
//! reports a human-readable violation when the run contradicts the
//! paper's guarantees:
//!
//! * `CollisionFree` — ≤ 1 arrival per node per slot, re-derived from the
//!   transmission trace independently of the engine's own collision
//!   check;
//! * `DelayBound` — worst-case playback delay within the scheme's own
//!   proven bound, `SchemeSpec::worst_delay_bound` (Theorem 2 `h·d` for
//!   multi-trees, the chained-cube prediction for hypercubes, `N` for the
//!   chain, BFS depth for the single tree);
//! * `BufferBound` — buffer occupancy within the family's bound (`h·d+1`
//!   for multi-trees, 3 for hypercubes, 2 for the chains);
//! * `InOrderPlayback` — every tracked packet arrives (or is accounted as
//!   a fault loss), per-packet usable slots are consistent with the
//!   reported delay, and nothing is delivered twice;
//! * `NeighborDegree` — `O(d)` neighbors for trees, `O(log N)` for
//!   hypercubes.
//!
//! Engine hard errors (`ReceiveCollision`, `Hiccup`, …) are mapped onto
//! the same invariant names by [`violation_from_error`], so a sabotaged
//! schedule the engine rejects outright and one that merely degrades QoS
//! surface through one reporting channel.

use crate::genome::{Family, Genome};
use clustream_core::CoreError;
use clustream_hypercube::HypercubeStream;
use clustream_sim::RunResult;
use std::collections::HashMap;

/// Closed-form per-family buffer and neighbor bounds for one genome. The
/// delay bound is the scheme's own, [`clustream_plan::SchemeSpec::worst_delay_bound`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bounds {
    /// Worst-case resident buffer (packets).
    pub buffer: u64,
    /// Worst-case neighbor count.
    pub neighbors: u64,
}

/// Compute the family's closed-form bounds for `g`.
///
/// Errors only when the genome is outside the scheme's domain (the same
/// configurations whose schemes fail to build).
pub fn bounds_for(g: &Genome) -> Result<Bounds, CoreError> {
    if g.n == 0 || g.d == 0 {
        return Err(CoreError::InvalidConfig(format!(
            "n = {} and d = {} must both be ≥ 1",
            g.n, g.d
        )));
    }
    Ok(match g.family {
        // `h·d + 1`, shifted by the live modes as the delay bound is.
        Family::MultiTree => Bounds {
            buffer: g.spec().worst_delay_bound().slots + 1,
            neighbors: 2 * g.d as u64,
        },
        Family::Hypercube => {
            let s = HypercubeStream::with_groups(g.n, g.d.min(g.n))?;
            let max_cube = s.cubes().map(|c| c.size()).max().unwrap_or(1);
            // A node in a cube of size 2^k − 1 exchanges with ≤ k cube
            // partners plus the inter-cube chain links.
            let k = (usize::BITS - (max_cube + 1).leading_zeros()) as u64;
            Bounds {
                buffer: 3,
                neighbors: 3 * k + 4,
            }
        }
        Family::Chain => Bounds {
            buffer: 2,
            neighbors: 2,
        },
        Family::SingleTree => Bounds {
            buffer: 2,
            neighbors: g.d as u64 + 1,
        },
    })
}

/// One invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the violated invariant (e.g. `"DelayBound"`).
    pub invariant: String,
    /// Engine label the violation was observed on.
    pub engine: String,
    /// Human-readable description of what went wrong.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.engine, self.invariant, self.detail)
    }
}

/// Everything an invariant may inspect about one finished run.
pub struct CheckContext<'a> {
    /// The genome that produced the run.
    pub genome: &'a Genome,
    /// Closed-form bounds for the genome's family.
    pub bounds: &'a Bounds,
    /// Engine label (`"reference"`, `"mega"`, `"des-wheel"`).
    pub engine: &'a str,
    /// The finished run.
    pub result: &'a RunResult,
}

/// A pluggable per-run invariant.
pub trait Invariant {
    /// Stable name used in violation reports and corpus entries.
    fn name(&self) -> &'static str;
    /// Check one finished run; `Err` carries the violation detail.
    fn check(&self, ctx: &CheckContext<'_>) -> Result<(), String>;
}

/// ≤ 1 arrival per node per slot, re-derived from the trace.
pub struct CollisionFree;

impl Invariant for CollisionFree {
    fn name(&self) -> &'static str {
        "CollisionFree"
    }

    fn check(&self, ctx: &CheckContext<'_>) -> Result<(), String> {
        let Some(trace) = &ctx.result.trace else {
            return Ok(()); // nothing to re-validate without a trace
        };
        let mut arrivals: HashMap<(u64, u32), u64> = HashMap::new();
        for ev in &trace.events {
            let arrival = ev.slot + ev.latency as u64 - 1;
            let c = arrivals.entry((arrival, ev.to)).or_insert(0);
            *c += 1;
            if *c > 1 {
                return Err(format!(
                    "node {} receives {} packets in arrival slot {arrival}",
                    ev.to, *c
                ));
            }
        }
        Ok(())
    }
}

/// Worst-case playback delay within the scheme's proven bound
/// ([`clustream_plan::SchemeSpec::worst_delay_bound`]).
pub struct DelayBound;

impl Invariant for DelayBound {
    fn name(&self) -> &'static str {
        "DelayBound"
    }

    fn check(&self, ctx: &CheckContext<'_>) -> Result<(), String> {
        let (measured, bound) = (
            ctx.result.qos.max_delay(),
            ctx.genome.spec().worst_delay_bound(),
        );
        if measured > bound.slots {
            return Err(format!(
                "max playback delay {measured} exceeds bound {}",
                bound.slots
            ));
        }
        Ok(())
    }
}

/// Buffer occupancy within the family bound.
pub struct BufferBound;

impl Invariant for BufferBound {
    fn name(&self) -> &'static str {
        "BufferBound"
    }

    fn check(&self, ctx: &CheckContext<'_>) -> Result<(), String> {
        let measured = ctx.result.qos.max_buffer() as u64;
        if measured > ctx.bounds.buffer {
            return Err(format!(
                "max buffer {measured} exceeds bound {}",
                ctx.bounds.buffer
            ));
        }
        Ok(())
    }
}

/// Strictly in-order playback: completeness (or fault-accounted losses),
/// per-packet consistency with the reported delay, no duplicates.
pub struct InOrderPlayback;

impl Invariant for InOrderPlayback {
    fn name(&self) -> &'static str {
        "InOrderPlayback"
    }

    fn check(&self, ctx: &CheckContext<'_>) -> Result<(), String> {
        let r = ctx.result;
        if r.duplicate_deliveries > 0 {
            return Err(format!("{} duplicate deliveries", r.duplicate_deliveries));
        }
        for q in &r.qos.nodes {
            let mut missing = 0usize;
            for j in 0..r.arrivals.track_packets() {
                match r.arrivals.usable_slot(q.node, clustream_core::PacketId(j)) {
                    Some(s) => {
                        // a(i) = max_j (usable(i,j) − j): no packet may be
                        // later than the node's reported delay admits.
                        if s.t() > q.playback_delay + j {
                            return Err(format!(
                                "node {} packet {j} usable at {} > delay {} + {j}",
                                q.node,
                                s.t(),
                                q.playback_delay
                            ));
                        }
                    }
                    None => missing += 1,
                }
            }
            match &r.loss {
                None => {
                    if missing > 0 {
                        return Err(format!(
                            "node {} missing {missing} tracked packets in a fault-free run",
                            q.node
                        ));
                    }
                }
                Some(loss) => {
                    let reported = loss
                        .missing
                        .iter()
                        .find(|(n, _)| *n == q.node)
                        .map_or(0, |(_, m)| *m);
                    if reported != missing {
                        return Err(format!(
                            "node {} loss report claims {reported} missing, arrivals show {missing}",
                            q.node
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Neighbor count within the family bound (footnote 2: `O(d)` for trees).
pub struct NeighborDegree;

impl Invariant for NeighborDegree {
    fn name(&self) -> &'static str {
        "NeighborDegree"
    }

    fn check(&self, ctx: &CheckContext<'_>) -> Result<(), String> {
        let measured = ctx.result.qos.max_neighbors() as u64;
        if measured > ctx.bounds.neighbors {
            return Err(format!(
                "max neighbor count {measured} exceeds bound {}",
                ctx.bounds.neighbors
            ));
        }
        Ok(())
    }
}

/// The default registry: every per-run invariant the checker knows.
pub fn registry() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(CollisionFree),
        Box::new(DelayBound),
        Box::new(BufferBound),
        Box::new(InOrderPlayback),
        Box::new(NeighborDegree),
    ]
}

/// Run every registry invariant against one finished run.
pub fn check_result(
    g: &Genome,
    bounds: &Bounds,
    engine: &str,
    result: &RunResult,
) -> Vec<Violation> {
    let ctx = CheckContext {
        genome: g,
        bounds,
        engine,
        result,
    };
    registry()
        .iter()
        .filter_map(|inv| {
            inv.check(&ctx).err().map(|detail| Violation {
                invariant: inv.name().to_string(),
                engine: engine.to_string(),
                detail,
            })
        })
        .collect()
}

/// Map an engine hard error onto the invariant it contradicts.
pub fn violation_from_error(e: &CoreError, engine: &str) -> Violation {
    let invariant = match e {
        CoreError::ReceiveCollision { .. } | CoreError::SendCapacityExceeded { .. } => {
            "CollisionFree"
        }
        CoreError::Hiccup { .. } => "InOrderPlayback",
        _ => "ModelValidity",
    };
    Violation {
        invariant: invariant.to_string(),
        engine: engine.to_string(),
        detail: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{ConstructionChoice, ModeChoice};
    use clustream_analysis::{thm2_worst_delay_bound, tree_height};

    #[test]
    fn multitree_bounds_match_theorem2() {
        let g = Genome::clean(Family::MultiTree, 40, 3, ConstructionChoice::Greedy);
        let b = bounds_for(&g).unwrap();
        let delay = g.spec().worst_delay_bound().slots;
        assert_eq!(delay, thm2_worst_delay_bound(40, 3));
        assert_eq!(b.buffer, tree_height(40, 3) * 3 + 1);
        assert_eq!(b.neighbors, 6);
    }

    #[test]
    fn live_modes_widen_the_delay_bound() {
        let mut g = Genome::clean(Family::MultiTree, 40, 3, ConstructionChoice::Greedy);
        let delay = |g: &Genome| g.spec().worst_delay_bound().slots;
        let buffer = |g: &Genome| bounds_for(g).unwrap().buffer;
        let (pre, pre_buffer) = (delay(&g), buffer(&g));
        g.mode = ModeChoice::Buffered;
        assert_eq!((delay(&g), buffer(&g)), (pre + 3, pre_buffer + 3));
        g.mode = ModeChoice::Pipelined;
        assert_eq!((delay(&g), buffer(&g)), (pre + 6, pre_buffer + 6));
    }

    #[test]
    fn chain_bounds_are_tight() {
        let g = Genome::clean(Family::Chain, 12, 2, ConstructionChoice::Greedy);
        let b = bounds_for(&g).unwrap();
        let delay = g.spec().worst_delay_bound().slots;
        assert_eq!((delay, b.buffer, b.neighbors), (12, 2, 2));
    }
}

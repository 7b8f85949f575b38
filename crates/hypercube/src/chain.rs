//! The hypercube streaming protocol: special `N`, chained cubes for
//! arbitrary `N`, and the `d`-group source split — all as one
//! [`HypercubeStream`] scheme.
//!
//! The protocol per cube (local receiver ids `1..2^k − 1`, virtual vertex
//! `0` = the cube's logical source):
//!
//! * in slot `t`, communication pairs vertices along dimension
//!   `j = t mod k`;
//! * the logical source injects stream packet `t − start` to its partner
//!   `2^j` (for `HC_1` this is the real source `S`; for `HC_{m+1}` it is
//!   the spare node of `HC_m`, forwarding the packet it consumes in this
//!   very slot);
//! * every other pair `{a, b}` *exchanges*: each sends the newest packet
//!   it holds that its partner lacks (nothing if the partner is up to
//!   date) — each node transmits ≤ 1 and receives ≤ 1 packet per slot;
//! * every node of a cube with start `s` consumes packet `c` during slot
//!   `c + s + k + 1`, i.e. playback begins `k + 1` slots after the cube's
//!   logical source starts (Proposition 1).
//!
//! The scheme mirrors the nodes' buffers internally (one 64-bit window
//! per node over the `O(1)` live window of `k + 2 ≤ 34` packets) so the
//! transmission rule is deterministic; the simulator independently
//! validates every send against its own ground truth.

use clustream_core::{
    Availability, CoreError, NodeId, PacketId, Scheme, Slot, StateView, Transmission, SOURCE,
};

/// One hypercube in a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CubeSpec {
    /// Cube dimension; the cube holds `2^k − 1` receivers.
    pub k: usize,
    /// Global ids of this cube's receivers are `offset + 1 ..= offset + 2^k − 1`.
    pub offset: u32,
    /// Slot at which this cube's logical source starts injecting.
    pub start: u64,
}

impl CubeSpec {
    /// Number of receivers in the cube.
    pub fn size(&self) -> usize {
        (1usize << self.k) - 1
    }

    /// Predicted playback delay of every node in this cube: `start + k + 1`.
    pub fn predicted_delay(&self) -> u64 {
        self.start + self.k as u64 + 1
    }
}

/// Greedy decomposition of `n` receivers into cube dimensions
/// `k_m = ⌊log₂(rem + 1)⌋` (§3.2).
pub fn decompose(n: usize) -> Vec<usize> {
    let mut ks = Vec::new();
    let mut rem = n;
    while rem > 0 {
        let k = usize::BITS as usize - 1 - (rem + 1).leading_zeros() as usize;
        ks.push(k);
        rem -= (1 << k) - 1;
    }
    ks
}

/// The hypercube streaming scheme over `n` receivers split into one or
/// more independent chains of cubes.
///
/// ```
/// use clustream_hypercube::HypercubeStream;
/// use clustream_sim::{SimConfig, Simulator};
///
/// // Arbitrary N = 100: cubes of 63, 31, 3 and 3 chained together.
/// let mut scheme = HypercubeStream::new(100)?;
/// let worst = scheme.cubes().map(|c| c.predicted_delay()).max().unwrap();
/// let run = Simulator::run(&mut scheme, &SimConfig::until_complete(2 * worst, 10_000))?;
/// assert!(run.qos.max_delay() <= worst);   // Proposition 2
/// assert!(run.qos.max_buffer() <= 3);      // O(1) buffers
/// # Ok::<(), clustream_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HypercubeStream {
    n: usize,
    chains: Vec<Vec<CubeSpec>>,
    /// Mirrored buffers, indexed by global node id (entry 0 unused): bit
    /// `i` of a node's window is packet `floor + i`, where `floor` is
    /// the live-window floor its cube was last advanced to.
    held: Vec<u64>,
    /// Each cube's window floor (chain-major, like [`Self::cubes`]).
    floors: Vec<u64>,
}

impl HypercubeStream {
    /// Single-chain scheme for arbitrary `n ≥ 1` (§3.2). For
    /// `n = 2^k − 1` this degenerates to the one-cube scheme of §3.1.
    pub fn new(n: usize) -> Result<Self, CoreError> {
        Self::with_groups(n, 1)
    }

    /// Split `n` receivers into `d` balanced groups, each streamed through
    /// its own chain directly from the source (requires source send
    /// capacity `d`).
    pub fn with_groups(n: usize, d: usize) -> Result<Self, CoreError> {
        if n == 0 {
            return Err(CoreError::InvalidConfig(
                "need at least one receiver".into(),
            ));
        }
        if d == 0 || d > n {
            return Err(CoreError::InvalidConfig(format!(
                "group count d={d} must be in 1..=N={n}"
            )));
        }
        let mut chains = Vec::with_capacity(d);
        let mut offset = 0u32;
        for g in 0..d {
            // Balanced split: the first n % d groups get one extra node.
            let size = n / d + usize::from(g < n % d);
            let mut chain = Vec::new();
            let mut start = 0u64;
            for k in decompose(size) {
                chain.push(CubeSpec { k, offset, start });
                offset += (1u32 << k) - 1;
                start += k as u64 + 1;
            }
            chains.push(chain);
        }
        debug_assert_eq!(offset as usize, n);
        let cubes = chains.iter().map(Vec::len).sum();
        Ok(HypercubeStream {
            n,
            chains,
            held: vec![0; n + 1],
            floors: vec![0; cubes],
        })
    }

    /// The cube chains (group-major, then chain order).
    pub fn chains(&self) -> &[Vec<CubeSpec>] {
        &self.chains
    }

    /// All cubes flattened.
    pub fn cubes(&self) -> impl Iterator<Item = &CubeSpec> {
        self.chains.iter().flatten()
    }

    /// The cube containing global node id `id`.
    pub fn cube_of(&self, id: u32) -> &CubeSpec {
        self.cubes()
            .find(|c| id > c.offset && id <= c.offset + c.size() as u32)
            .expect("id within population")
    }

    /// Predicted playback delay of node `id` (`start + k + 1` of its cube).
    pub fn predicted_delay(&self, id: u32) -> u64 {
        self.cube_of(id).predicted_delay()
    }

    /// Predicted average playback delay over all receivers; Theorem 4
    /// bounds this by `2 log₂ N` per chain.
    pub fn predicted_avg_delay(&self) -> f64 {
        let total: u64 = self
            .cubes()
            .map(|c| c.predicted_delay() * c.size() as u64)
            .sum();
        total as f64 / self.n as f64
    }

    /// Largest packet in `a`'s window that `b` lacks, if any, for a
    /// cube whose window starts at `floor`.
    fn newest_lacking(&self, a: u32, b: u32, floor: u64) -> Option<u64> {
        let lacking = self.held[a as usize] & !self.held[b as usize];
        (lacking != 0).then(|| floor + u64::from(63 - lacking.leading_zeros()))
    }
}

impl Scheme for HypercubeStream {
    fn name(&self) -> String {
        if self.chains.len() == 1 {
            format!("hypercube(N={})", self.n)
        } else {
            format!("hypercube(N={}, d={})", self.n, self.chains.len())
        }
    }

    fn num_receivers(&self) -> usize {
        self.n
    }

    fn send_capacity(&self, node: NodeId) -> usize {
        if node.is_source() {
            self.chains.len()
        } else {
            1
        }
    }

    fn availability(&self) -> Availability {
        // The source injects packet t during slot t: valid live streaming.
        Availability::Live
    }

    fn transmissions(&mut self, slot: Slot, _view: &dyn StateView, out: &mut Vec<Transmission>) {
        let t = slot.t();
        let mut first_cube = 0;
        for ci in 0..self.chains.len() {
            for m in 0..self.chains[ci].len() {
                let cube = self.chains[ci][m];
                if t < cube.start {
                    break; // later cubes start even later
                }
                let ix = first_cube + m;
                let j = (t % cube.k as u64) as usize;
                let bit = 1u32 << j;

                // Packets below the consumption point are dead: advance
                // the cube's windows to this slot's floor.
                let floor = (t - cube.start).saturating_sub(cube.k as u64 + 1);
                let shift = floor - self.floors[ix];
                if shift > 0 {
                    for id in cube.offset + 1..=cube.offset + cube.size() as u32 {
                        let w = &mut self.held[id as usize];
                        *w = if shift < 64 { *w >> shift } else { 0 };
                    }
                    self.floors[ix] = floor;
                }

                // Injection from the logical source to vertex 2^j.
                let target = NodeId(cube.offset + bit);
                let packet = PacketId(t - cube.start);
                let from = if m == 0 {
                    SOURCE
                } else {
                    let prev = self.chains[ci][m - 1];
                    let jp = (t % prev.k as u64) as usize;
                    NodeId(prev.offset + (1u32 << jp))
                };
                out.push(Transmission::local(from, target, packet));

                // Intra-cube exchanges along dimension j, both read before
                // either lands. Vertex 2^j pairs with the logical source,
                // so no exchange reads the injected packet's target.
                for a_local in 1u32..(1u32 << cube.k) {
                    if a_local & bit != 0 {
                        continue;
                    }
                    let b_local = a_local | bit;
                    let a = cube.offset + a_local;
                    let b = cube.offset + b_local;
                    let to_b = self.newest_lacking(a, b, floor);
                    let to_a = self.newest_lacking(b, a, floor);
                    if let Some(p) = to_b {
                        out.push(Transmission::local(NodeId(a), NodeId(b), PacketId(p)));
                        self.held[b as usize] |= 1 << (p - floor);
                    }
                    if let Some(p) = to_a {
                        out.push(Transmission::local(NodeId(b), NodeId(a), PacketId(p)));
                        self.held[a as usize] |= 1 << (p - floor);
                    }
                }
                // Mirror the injection (usable from t + 1, i.e. any later
                // slot).
                self.held[target.index()] |= 1 << (packet.seq() - floor);
            }
            first_cube += self.chains[ci].len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clustream_sim::{RunResult, SimConfig, Simulator};

    fn run(scheme: &mut HypercubeStream, track: u64) -> RunResult {
        Simulator::run(scheme, &SimConfig::until_complete(track, 100_000)).unwrap()
    }

    #[test]
    fn decompose_matches_paper_rule() {
        assert_eq!(decompose(7), vec![3]);
        assert_eq!(decompose(1), vec![1]);
        assert_eq!(decompose(2), vec![1, 1]);
        assert_eq!(decompose(6), vec![2, 2]);
        assert_eq!(decompose(10), vec![3, 2]);
        assert_eq!(decompose(100), vec![6, 5, 2, 2]);
        for n in 1..200 {
            let total: usize = decompose(n).iter().map(|&k| (1 << k) - 1).sum();
            assert_eq!(total, n, "decomposition must cover N={n}");
        }
    }

    /// Proposition 1 for N = 2^k − 1: playback delay k + 1, two resident
    /// packets (three at the in-slot peak under our counting convention),
    /// exactly k neighbors.
    #[test]
    fn proposition1_special_n() {
        for k in 1..=8usize {
            let n = (1 << k) - 1;
            let mut s = HypercubeStream::new(n).unwrap();
            assert_eq!(s.chains()[0].len(), 1, "N = 2^k − 1 is a single cube");
            let r = run(&mut s, (4 * (k + 2)) as u64);
            assert_eq!(r.duplicate_deliveries, 0, "k={k}");
            for q in &r.qos.nodes {
                assert!(
                    q.playback_delay <= k as u64 + 1,
                    "k={k} node {}: delay {} > k+1",
                    q.node,
                    q.playback_delay
                );
                assert!(
                    q.max_buffer <= 3,
                    "k={k} node {}: buffer {} (paper: 2 resident + 1 in-slot)",
                    q.node,
                    q.max_buffer
                );
                assert!(
                    q.neighbors <= k,
                    "k={k} node {}: {} neighbors > k",
                    q.node,
                    q.neighbors
                );
            }
            // The worst node needs the full k + 1 warm-up (k ≥ 2).
            if k >= 2 {
                assert_eq!(r.qos.max_delay(), k as u64 + 1, "k={k}");
            }
        }
    }

    #[test]
    fn steady_state_consumption_is_hiccup_free() {
        // Track a long window: every node must keep receiving packet c by
        // slot c + k + 1 forever.
        let k = 4;
        let n = 15;
        let mut s = HypercubeStream::new(n).unwrap();
        let r = run(&mut s, 64);
        for node in 1..=n as u32 {
            for p in 0..64u64 {
                let usable = r
                    .arrivals
                    .usable_slot(NodeId(node), PacketId(p))
                    .unwrap_or_else(|| panic!("node {node} never got p{p}"));
                assert!(
                    usable.t() <= p + k as u64 + 1,
                    "node {node} got p{p} at {usable}, too late"
                );
            }
            assert!(r.arrivals.steady_state_for(NodeId(node)));
        }
    }

    /// Proposition 2: arbitrary N via chained cubes.
    #[test]
    fn proposition2_arbitrary_n() {
        for n in [1usize, 2, 4, 5, 6, 10, 20, 33, 100] {
            let mut s = HypercubeStream::new(n).unwrap();
            let predicted_worst = s.cubes().map(|c| c.predicted_delay()).max().unwrap();
            let r = run(&mut s, 2 * predicted_worst + 8);
            assert_eq!(r.duplicate_deliveries, 0, "N={n}");
            // Every node's measured delay equals its cube's prediction.
            let sc = s.clone();
            for q in &r.qos.nodes {
                assert!(
                    q.playback_delay <= sc.predicted_delay(q.node.0),
                    "N={n} node {}: {} > predicted {}",
                    q.node,
                    q.playback_delay,
                    sc.predicted_delay(q.node.0)
                );
                assert!(q.max_buffer <= 3, "N={n} node {}", q.node);
            }
            // O(log N) neighbors: a power-of-two vertex touches its own
            // cube (k), upstream spares (≤ k_{m−1}) and downstream
            // injection targets (≤ k_{m+1}).
            let max_k = sc.cubes().map(|c| c.k).max().unwrap();
            assert!(
                r.qos.max_neighbors() <= 3 * max_k,
                "N={n}: {} neighbors",
                r.qos.max_neighbors()
            );
        }
    }

    /// Theorem 4: average delay ≤ 2 log₂ N (single chain, N ≥ 2).
    #[test]
    fn theorem4_average_delay() {
        for n in 2..=256usize {
            let s = HypercubeStream::new(n).unwrap();
            let avg = s.predicted_avg_delay();
            let bound = 2.0 * (n as f64).log2();
            assert!(
                avg <= bound + 1.0 + f64::EPSILON,
                "N={n}: predicted avg {avg:.2} > 2·log₂N + 1 = {bound:.2}"
            );
        }
    }

    #[test]
    fn measured_average_matches_prediction() {
        let n = 23;
        let mut s = HypercubeStream::new(n).unwrap();
        let predicted = s.predicted_avg_delay();
        let worst = s.cubes().map(|c| c.predicted_delay()).max().unwrap();
        let r = run(&mut s, 2 * worst + 8);
        assert!(
            r.qos.avg_delay() <= predicted + f64::EPSILON,
            "measured {} vs predicted {}",
            r.qos.avg_delay(),
            predicted
        );
    }

    /// The d-group variant: delays shrink to the largest group's chain.
    #[test]
    fn d_group_split_reduces_delay() {
        let n = 60;
        let mut whole = HypercubeStream::new(n).unwrap();
        let mut split = HypercubeStream::with_groups(n, 4).unwrap();
        let worst_whole = whole.cubes().map(|c| c.predicted_delay()).max().unwrap();
        let worst_split = split.cubes().map(|c| c.predicted_delay()).max().unwrap();
        assert!(worst_split < worst_whole);

        let rw = run(&mut whole, 2 * worst_whole + 8);
        let rs = run(&mut split, 2 * worst_split + 8);
        assert!(rs.qos.max_delay() < rw.qos.max_delay());
        assert_eq!(rs.duplicate_deliveries, 0);
    }

    #[test]
    fn group_split_validates_source_capacity() {
        // Source must send one packet per group per slot — capacity d.
        let s = HypercubeStream::with_groups(10, 3).unwrap();
        assert_eq!(s.send_capacity(SOURCE), 3);
        assert_eq!(s.send_capacity(NodeId(1)), 1);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(HypercubeStream::new(0).is_err());
        assert!(HypercubeStream::with_groups(5, 0).is_err());
        assert!(HypercubeStream::with_groups(5, 6).is_err());
    }

    #[test]
    fn cube_lookup_is_consistent() {
        let s = HypercubeStream::new(10).unwrap(); // cubes of 7 and 3 (k = 3, 2)
        assert_eq!(s.cube_of(1).k, 3);
        assert_eq!(s.cube_of(7).k, 3);
        assert_eq!(s.cube_of(8).k, 2);
        assert_eq!(s.cube_of(10).k, 2);
        assert_eq!(s.cube_of(8).start, 4); // k₁ + 1
        assert_eq!(s.cube_of(1).start, 0);
    }
}

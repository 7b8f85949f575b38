//! Closed-form QoS bounds from Chow, Golubchik, Khuller & Yao (IPPS 2009).
//!
//! * [`multitree`] — Theorem 2 (worst-case delay `≤ h·d` and the matching
//!   buffer bound), Theorem 3 (average-delay lower bound), and the §2.3
//!   `F(d)` analysis showing degree 2 or 3 is always optimal;
//! * [`hypercube`] — Propositions 1 and 2 and Theorem 4 (`avg ≤ 2 log₂N`);
//! * [`overlay`] — Theorem 1 (multi-cluster worst-case delay).
//!
//! Everything here is pure arithmetic; the experiment harness compares
//! these predictions against measured simulation results.

#![warn(missing_docs)]

pub mod hypercube;
pub mod multitree;
pub mod overlay;
pub mod tradeoff;

pub use hypercube::{chained_avg_delay, chained_worst_delay, grouped_worst_delay, thm4_avg_bound};
pub use multitree::{
    optimal_degree, thm2_worst_delay_bound, thm3_avg_delay_lower_bound, tree_height,
};
pub use overlay::thm1_delay_bound;
pub use tradeoff::{candidates, pareto_frontier, TradeoffPoint};

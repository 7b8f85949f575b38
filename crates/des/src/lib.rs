//! Discrete-event network runtime for `clustream` overlays.
//!
//! The paper's analysis — and both slot engines — assume a synchronous
//! world: slots are perfectly aligned, intra-cluster transfers take
//! exactly one slot (`T_i = 1`), inter-cluster transfers exactly `T_c`,
//! and capacity is enforced by fiat. Real networks are none of that. This
//! crate executes the *same* schemes (multi-tree, hypercube, overlay,
//! baselines — anything implementing [`clustream_core::Scheme`]) on an
//! asynchronous event loop so the gap can be measured:
//!
//! * **Event queue** ([`event`], [`wheel`]) — `Send` (relaxed runs
//!   only), `Deliver`, `PlaybackTick` and `Churn` events over fixed-point
//!   tick time ([`TICKS_PER_SLOT`] ticks per slot), deterministically
//!   ordered by `(time, class, insertion)`. The [`EventQueue`] trait has three
//!   implementations popping that identical order: [`HeapQueue`] (binary
//!   min-heap, the reference), [`WheelQueue`] (hierarchical timing wheel
//!   — O(1) pushes, recycled payload slots, batched same-tick drains — an
//!   order of magnitude faster at scale), and [`CheckedQueue`] (both in
//!   lockstep, asserting identical pops), selected by
//!   [`config::QueueKind`] (the wheel by default).
//! * **Latency models** ([`latency`]) — fixed (the paper's model),
//!   uniform jitter, shifted-heavy-tail; seeded and reproducible.
//! * **Uplink gates** ([`uplink`]) — per-node serialization: capacity-`c`
//!   uplinks fit `c` sends per slot, later sends queue.
//! * **Churn** — [`clustream_workloads::ChurnTrace`]s resolve to concrete
//!   departures (never the source or a super node) applied at slot
//!   boundaries; departed members fall silent mid-run.
//!
//! # The equivalence anchor
//!
//! In the degenerate configuration ([`DesConfig::slot_faithful`]: fixed
//! latencies, unconstrained uplinks, no churn) every event lands on a
//! slot boundary and the DES drives the slot engines' own kernel
//! ([`clustream_sim::kernel`]): each tick admits its calendar through the
//! kernel's admission rule, receive guard and fault ledger, so validation
//! order, RNG draw order, rendered errors and the
//! [`clustream_sim::RunResult`], field for field, are the slot engines'.
//! [`agree`] over a [`Column::Des`] and [`Column::Mega`] enforces
//! this continuously (property-based suite in
//! `tests/des_differential.rs`, smoke run in `ci.sh`, `simulate --runtime
//! des --check`), which is what licenses trusting the *relaxed* results:
//! any delay/buffer inflation measured under jitter or contention is
//! attributable to the network model, not to engine drift.

#![warn(missing_docs)]

pub mod capacity;
pub mod config;
pub mod engine;
pub mod event;
pub mod hot;
pub mod latency;
pub mod oracle;
pub mod replay;
pub mod uplink;
pub mod wheel;

pub use capacity::{CapacityClass, CapacityClassPlan};
pub use config::{DesConfig, QueueKind};
pub use engine::{DesEngine, DesStats};
pub use event::{Event, EventKind, EventQueue, HeapQueue, TICKS_PER_SLOT};
pub use latency::LatencyModel;
pub use oracle::{agree, disagreement, Column};
pub use replay::RecordedLatencies;
pub use uplink::{UplinkGate, UplinkModel};
pub use wheel::{CheckedQueue, WheelQueue};

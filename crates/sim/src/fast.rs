//! The bare kernel loop as an engine of its own: `Kernel::run_slots`
//! over the whole horizon, then the flush and the result — mega's full
//! mode with no steady-state gears.
//!
//! No production path runs it: the CLI, the experiments, the sweep and
//! the oracle columns all run [`crate::MegaEngine`]. It is kept only
//! because the performance ledger times it (`sim.fast.run`) and because
//! tests compare mega with the plain loop; it goes once the ledger
//! stops calling it. Results and errors are bit-identical to
//! [`crate::Simulator::run`].

use crate::engine::{RunResult, SimConfig};
use crate::kernel::Kernel;
use clustream_core::{CoreError, Scheme};
use clustream_telemetry::names as tm;

/// Reusable arena for the bare kernel loop.
#[derive(Default)]
pub struct FastEngine {
    kernel: Kernel,
}

impl FastEngine {
    /// A fresh engine arena.
    pub fn new() -> FastEngine {
        FastEngine::default()
    }

    /// Run `scheme` under `cfg`. Semantics, results and errors are
    /// bit-identical to [`crate::Simulator::run`].
    pub fn run(
        &mut self,
        scheme: &mut dyn Scheme,
        cfg: &SimConfig,
    ) -> Result<RunResult, CoreError> {
        let _span = cfg.telemetry.span(tm::ENGINE_RUN);
        let k = &mut self.kernel;
        let mut run = k.begin(scheme, cfg)?;
        k.run_slots(scheme, &mut run, cfg.max_slots)?;
        k.flush_ring(&mut run);
        k.finish(scheme, run)
    }
}

/// Stateless façade over [`FastEngine`] matching the
/// [`crate::Simulator`] API shape exactly.
pub struct FastSimulator;

impl FastSimulator {
    /// Run `scheme` under `cfg` on a fresh [`FastEngine`] arena.
    pub fn run(scheme: &mut dyn Scheme, cfg: &SimConfig) -> Result<RunResult, CoreError> {
        FastEngine::new().run(scheme, cfg)
    }
}

//! The fast slot engine: the slot kernel (module `kernel`) driven slot
//! by slot, and nothing else.
//!
//! Produces **bit-identical** [`RunResult`]s (and identical errors) to
//! [`crate::Simulator::run`] — the differential harness in
//! [`crate::diff`] holds the engines to that contract. The kernel's
//! module docs say what it does differently underneath, holdings
//! included: the same columnar rows the mega engine replays into.

use crate::engine::{RunResult, SimConfig};
use crate::kernel::Kernel;
use clustream_core::{CoreError, Scheme};
use clustream_telemetry::names as tm;

/// Reusable fast-engine arena. One instance can run many simulations
/// (e.g. a whole sweep) without re-allocating its internal state.
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
        for t in 0..cfg.max_slots {
            if k.deliver(&mut run, t) {
                break;
            }
            k.dispatch(scheme, t);
            k.admit(scheme, &mut run, t)?;
        }
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

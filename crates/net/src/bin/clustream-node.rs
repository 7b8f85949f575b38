//! The `clustream-node` binary: one process, one node of a networked
//! cluster. Spawned by the orchestrator (`clustream cluster`); not meant
//! to be driven by hand, though it can be for debugging.

use clustream_net::{run_node, NodeOptions};
use clustream_plan::ArgMap;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match ArgMap::parse(&argv).and_then(|args| NodeOptions::from_args(&args)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("clustream-node: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run_node(&opts) {
        eprintln!("clustream-node {}: {e}", opts.node);
        std::process::exit(1);
    }
}

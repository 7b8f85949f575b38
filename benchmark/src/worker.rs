//! The worker side: what a fresh process does when the harness
//! re-executes itself as `worker <kind> …`.

use crate::layers::traced_pass;
use crate::pump::{packet_frames, pump};
use crate::workloads::PUMP_FRAMES;
use clustream_net::Transport;
use std::path::Path;
use std::process::ExitCode;

/// Label of the line a worker ends its output with: its own peak
/// resident set, read from `/proc/self/status` after the work is done.
pub const VMHWM_LABEL: &str = "worker vmhwm kib";

fn vmhwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn print_vmhwm() {
    if let Some(kib) = vmhwm_kib() {
        println!("{VMHWM_LABEL} : {kib}");
    }
}

/// `worker cli <argv…>`: exactly what `crates/cli/src/main.rs` does.
fn cli(argv: &[String]) -> ExitCode {
    match clustream_cli::run(argv) {
        Ok(out) => {
            print!("{out}");
            print_vmhwm();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// `worker pump <dir> <seed>`: the `net_framepump` unit.
fn frame_pump(dir: &str, seed: u64) -> ExitCode {
    let frames = (packet_frames(seed), packet_frames(seed));
    match pump(
        Transport::Uds,
        Path::new(dir),
        "pump.sock",
        PUMP_FRAMES,
        frames,
    ) {
        Ok(o) => {
            println!("frames received : {}", o.received);
            println!("decoded equal in order : {}", o.equal_in_order);
            println!("bytes received : {}", o.bytes);
            print_vmhwm();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pump failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `worker trace <workload> <seed> <dir>`: the traced pass; prints one
/// `metric <name> <value>` line per value.
fn trace(workload: &str, seed: u64, dir: &str) -> ExitCode {
    match traced_pass(workload, seed, Path::new(dir)) {
        Ok(values) => {
            for (name, value) in values.iter() {
                println!("metric {name} {value}");
            }
            print_vmhwm();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("traced pass failed: {e}");
            ExitCode::FAILURE
        }
    }
}

pub fn main(args: &[String]) -> ExitCode {
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    match strs.as_slice() {
        ["cli", ..] => cli(&args[1..]),
        ["pump", dir, seed] => match seed.parse() {
            Ok(seed) => frame_pump(dir, seed),
            Err(_) => ExitCode::FAILURE,
        },
        ["trace", workload, seed, dir] => match seed.parse() {
            Ok(seed) => trace(workload, seed, dir),
            Err(_) => ExitCode::FAILURE,
        },
        _ => {
            eprintln!(
                "usage: worker cli <argv…> | pump <dir> <seed> | trace <workload> <seed> <dir>"
            );
            ExitCode::FAILURE
        }
    }
}

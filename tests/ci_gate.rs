//! Guard rails for the tiered CI gate itself: `ci.sh` must reject an
//! unknown tier up front (before any cargo command burns minutes) with
//! an error naming the valid tiers, and the script must keep advertising
//! all three tiers so the cheap pre-flight here stays honest.

use std::path::Path;
use std::process::Command;

fn ci_script() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/ci.sh"))
}

#[test]
fn unknown_tier_fails_fast_and_lists_valid_tiers() {
    let out = Command::new("bash")
        .arg(ci_script())
        .arg("nightly")
        .output()
        .expect("ci.sh should be runnable through bash");
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown tier must exit 2, got {:?}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown tier"), "stderr: {stderr}");
    assert!(
        stderr.contains("nightly"),
        "must echo the bad tier: {stderr}"
    );
    assert!(
        stderr.contains("quick, full, scale"),
        "must list the valid tiers: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "no stage may start under a bad tier: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn script_parses_and_defines_both_tiers() {
    let out = Command::new("bash")
        .arg("-n")
        .arg(ci_script())
        .output()
        .expect("bash -n");
    assert!(out.status.success(), "ci.sh has a syntax error");

    let text = std::fs::read_to_string(ci_script()).unwrap();
    for needle in [
        "quick | full | scale)",
        "TIER=\"${1:-full}\"",
        "RUSTDOCFLAGS=\"-D warnings\"",
        // The scale smoke: the mega-engine CLI runs (sequential and
        // sharded) against the committed golden stdout — N=10^5 and
        // N=10^6 in both tiers that run it — under the per-stage
        // wall-clock budget with its machine-readable timing artifact.
        "--engine mega --shards 4",
        "diff \"$golden/scale_n100000_mega.txt\" \"$base-mega.txt\"",
        "diff \"$golden/scale_n1000000_mega.txt\" \"$base-mega-1m.txt\"",
        // …and the observed run: --metrics-out moves no line of mega's
        // stdout, records its committed golden (which the reference
        // records too), and `report` reads the delivery total back.
        "--engine mega --metrics-out \"$base-mega.jsonl\" >\"$base-mega-observed.txt\"",
        "diff \"$golden/scale_n100000_mega.txt\" <(grep -v '^metrics' \"$base-mega-observed.txt\")",
        "diff \"$golden/scale_n100000_metrics.jsonl\" <(grep -v '\"span\"' \"$base-mega.jsonl\")",
        "grep -x 'deliveries  : 26862784'",
        "CI_STAGE_BUDGET_SECS",
        "target/ci-timings.json",
        // The independent checker at scale: mega's per-node delay and
        // buffer at N=10^5 against the closed-form schedule, in release.
        "cargo test --release -q --test scale_checker --offline -- --ignored",
        // The model-checker stages: corpus replay guards every tier's
        // edit loop; the exhaustive lattice and the fixed-seed explore
        // smoke guard the merge gate.
        "check --replay-corpus --corpus tests/corpus",
        "check --exhaustive",
        "check --explore --budget 500 --seed 7",
        // The networked deployment stages: a loopback cluster smoke in
        // every tier, and the 32-node kill-injection acceptance run in
        // the merge gate — both closed by the DES replay oracle.
        "cluster --nodes 8 --transport uds",
        "cluster --nodes 32 --transport tcp",
        "--kill 5@2",
        "replay --trace \"$trace\" --min-concordance 0.85",
        // The chaos-transport stages: seeded loss plus a gray node in
        // every tier, and the partition-and-heal run with live
        // in-network repair in the merge gate.
        "--chaos drop:0@0=0.05,gray:2@0=1",
        "--chaos partition:0/1@2+4,partition:0/2@4+4",
        "--repair",
        // The scenario-suite stages: a 10^3-join flash crowd closed by
        // the slot/DES oracle in every tier, and the 10^5-join crowd on
        // the mega engine (the default) plus the capacity-class
        // heterogeneity sweep in the merge gate.
        "--joins 1000 --oracle",
        "--n0 1000 --d 3 --joins 100000 \\\n",
        "ext_heterogeneity",
        // …and the settled crowd on mega's steady gears: the ledger's
        // crowd1000 line runs checked against the reference and prints
        // its golden; the 1024-packet crowd meets its golden.
        "local crowd=(simulate --scheme multitree --n 2000 --d 3 --scenario step:1000@20 --track 96)",
        "target/release/clustream \"${crowd[@]}\" --engine checked >\"$base-checked.txt\"",
        "diff <(grep -v '^engine' \"$golden/crowd1000.txt\") <(grep -v '^engine' \"$base-checked.txt\")",
        "diff \"$golden/crowd_t1024.txt\" \"$base-t1024.txt\"",
        // The recovery fault matrix ends with the benchmark's
        // des_recovery command line on the checked queue (heap and
        // wheel in lockstep).
        "--n 500 --d 3 --track 128 --runtime des",
        "--queue checked --latency jitter --jitter 0.5 --uplink serialized",
        "--recovery repair+nack --churn-leave 0.0005 --churn-slots 200 --des-seed 7",
        // …and the ledger's N=2000 des_recovery run in release: its
        // stdout equals the committed golden, and the checked queue's
        // (heap and wheel in lockstep) equals it but for the engine line.
        "local golden=tests/cli_golden/des_recovery_n2000.txt out=target/ci-des-recovery",
        "target/release/clustream \"${des_recovery[@]}\" --queue wheel >\"$out-wheel.txt\"",
        "target/release/clustream \"${des_recovery[@]}\" --queue checked >\"$out-checked.txt\"",
        "diff \"$golden\" \"$out-wheel.txt\"",
        "diff <(grep -v '^engine' \"$golden\") <(grep -v '^engine' \"$out-checked.txt\")",
        // The CLI input boundary: a misspelt flag is rejected by name,
        // and out-of-domain scheme parameters exit 1 (a model error),
        // never 101 (an assert in crates/baselines).
        "stage \"cli flag hygiene\" cli_flag_hygiene",
        "simulate --scheme multitree --n 30 --trak 64",
        "unknown flag `--trak`",
        "simulate --scheme chain --n 0",
        "cluster --nodes 4 --scheme singletree --d 0",
        "[ \"$status\" -ne 1 ]",
        // …and so are sizes past the 32-bit id space or the memory (an
        // allocator abort, 134, before the arrival table was fallible).
        "simulate --scheme multitree --n 10 --d 2 --track 99999999999999",
        "simulate --scheme multitree --n 4294967296 --d 3",
        "simulate --scheme chain --n 99999999999",
        // …and so are a node id past u32 (it used to be truncated) and a
        // latency the arrival ring cannot grow to (an allocator abort).
        "trace --scheme multitree --n 10 --node 4294967297",
        "'^usage error: --node must be an integer in 0..=4294967295$'",
        "plan --clusters 5 --tc 2000000000",
        "'^model error: invalid configuration: a transmission latency of 2000000000 slots'",
        // …and so are `analyze` sizes that panicked or ran for minutes.
        "expect_error '^usage error: ' analyze --n 0",
        "expect_error '^usage error: ' analyze --n 10 --max-d 100000000",
        // …and so are `check` lattice sizes that reported an empty sweep
        // clean or aborted in the allocator.
        "check --exhaustive --max-n 100000000",
        "check --exhaustive --max-n 0",
        "'^usage error: --max-n must be an integer in 1..=1024$'",
        // …and so is a plan the rule book must refuse: recovery over a
        // scripted scenario (it used to panic or run another plan).
        "--recovery repair --scenario step:10@5",
        "--recovery repair+nack --scenario fail:3-6@40",
        // …and so is a malformed value for a flag the run does not read
        // (it used to be ignored).
        "simulate --scheme multitree --n 100 --d 3 --horizon abc",
        "'^usage error: --horizon must be a non-negative integer$'",
        "simulate --scheme multitree --n 100 --d 3 --des-seed xyz",
        "'^usage error: --des-seed must be a non-negative integer$'",
        // …and so are a traced packet past what a trace keeps and a
        // cluster streaming nothing (an oversized table, spawned
        // processes).
        "trace --scheme multitree --n 15 --d 3 --node 6 --packet 100000000",
        "'^usage error: --packet 100000000 is too late to trace: '",
        "cluster --nodes 2 --track 0",
        "'^usage error: --track must be at least 1'",
        // The ledger harness is a workspace of its own: the merge gate
        // builds and unit-tests it against this tree's public API, then
        // pumps 10^6 frames through the buffered `Conn` and fails on a
        // lost or reordered frame (a missed flush)…
        "stage \"benchmark harness (ledger build + unit tests + frame pump + des_recovery peak)\" benchmark_harness",
        "env CARGO_TARGET_DIR=benchmark/target",
        "cargo test --release --offline --manifest-path benchmark/Cargo.toml",
        "bash benchmark/run.sh --workload net_framepump --seed 7 --seconds 3 --trace 0",
        "*'\"correct\": true'*'\"failed\": 0'[,}]*) ;;",
        // …and runs des_recovery once, failing on a failed invocation or
        // a peak RSS past 17 MiB (the DES's event-loop containers holding
        // more than their live entries).
        "bash benchmark/run.sh --workload des_recovery --seed 7 --seconds 3 --trace 0",
        "rss=$(sed -n 's/.*\"peak_rss_mib\": {\"value\": \\([0-9.]*\\).*/\\1/p' <<<\"$line\")",
        "awk -v rss=\"$rss\" 'BEGIN { exit !(rss <= 17) }'",
    ] {
        assert!(text.contains(needle), "ci.sh lost `{needle}`");
    }
}

#[test]
fn scenario_stages_sit_on_the_right_tiers() {
    // The 10^3-join oracle-closed crowd smoke and the checked mega crowd
    // smoke belong to the edit loop (before the full-tier gate); the
    // 10^5-join mega crowd and the heterogeneity sweep are merge-gate-only
    // (after it).
    let text = std::fs::read_to_string(ci_script()).unwrap();
    let smoke = text
        .find("stage \"flash-crowd smoke (10^3 joins, oracle-closed)\"")
        .expect("ci.sh lost the flash-crowd smoke stage");
    let crowd_mega = text
        .find("stage \"crowd smoke (mega = reference = golden, step:1000@20)\" crowd_mega_smoke")
        .expect("ci.sh lost the mega crowd smoke stage");
    let build = text
        .find("stage \"build (release)\"")
        .expect("ci.sh lost the release build stage");
    let crowd = text
        .find("stage \"flash-crowd acceptance (10^5 joins, mega + QoE frontiers)\"")
        .expect("ci.sh lost the 10^5-join flash-crowd stage");
    let hetero = text
        .find("stage \"heterogeneity sweep (capacity classes + per-class QoE)\"")
        .expect("ci.sh lost the heterogeneity sweep stage");
    let full_gate = text
        .find("[ \"$TIER\" = full ]")
        .expect("ci.sh lost the full-tier gate");
    assert!(
        smoke < full_gate,
        "the flash-crowd smoke must run in the quick tier"
    );
    assert!(
        build < crowd_mega && crowd_mega < full_gate,
        "the mega crowd smoke drives the release binary, in the quick tier"
    );
    assert!(
        crowd > full_gate && hetero > full_gate,
        "the acceptance crowd and heterogeneity sweep are merge-gate-only"
    );
}

#[test]
fn flag_hygiene_runs_in_the_quick_tier() {
    let text = std::fs::read_to_string(ci_script()).unwrap();
    let hygiene = text
        .find("stage \"cli flag hygiene\"")
        .expect("ci.sh lost the cli flag hygiene stage");
    let build = text
        .find("stage \"build (release)\"")
        .expect("ci.sh lost the release build stage");
    let full_gate = text
        .find("[ \"$TIER\" = full ]")
        .expect("ci.sh lost the full-tier gate");
    assert!(
        build < hygiene && hygiene < full_gate,
        "flag hygiene drives the release binary, in every tier"
    );
}

#[test]
fn the_loc_metric_prints_in_the_quick_tier() {
    // One command for the size metric change notes quote: it runs in
    // every tier, and its pipeline is the one the notes have used since
    // it was introduced (test tails and comments excluded).
    let text = std::fs::read_to_string(ci_script()).unwrap();
    let loc = text
        .find("stage \"loc (informational)\" loc")
        .expect("ci.sh lost the loc stage");
    let full_gate = text
        .find("[ \"$TIER\" = full ]")
        .expect("ci.sh lost the full-tier gate");
    assert!(loc < full_gate, "the loc stage must run in the quick tier");
    for needle in [
        "find crates/*/src -name '*.rs' -print0 | sort -z |",
        r"xargs -0 awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// {n++} END{print n}'",
    ] {
        assert!(text.contains(needle), "ci.sh's loc stage lost `{needle}`");
    }
}

#[test]
fn corpus_replay_runs_in_the_quick_tier() {
    // The replay stage must sit outside the full-tier block so `ci.sh
    // quick` exercises it: it appears before the `[ "$TIER" = full ]`
    // guard in the script text.
    let text = std::fs::read_to_string(ci_script()).unwrap();
    let replay = text
        .find("stage \"repro-corpus replay\"")
        .expect("ci.sh lost the repro-corpus replay stage");
    let full_gate = text
        .find("[ \"$TIER\" = full ]")
        .expect("ci.sh lost the full-tier gate");
    assert!(
        replay < full_gate,
        "repro-corpus replay must run in the quick tier"
    );
}

#[test]
fn cluster_smokes_sit_on_the_right_tiers() {
    // The cheap 8-node loopback cluster smokes — clean and chaos —
    // belong to the edit loop (before the full-tier gate); the 32-node
    // kill-injection and partition-and-heal acceptance runs are
    // merge-gate-only (after it).
    let text = std::fs::read_to_string(ci_script()).unwrap();
    let quick = text
        .find("stage \"cluster smoke (8 nodes, uds + replay oracle)\"")
        .expect("ci.sh lost the quick cluster smoke stage");
    let chaos = text
        .find("stage \"cluster chaos smoke (8 nodes, uds + loss/gray + replay oracle)\"")
        .expect("ci.sh lost the quick chaos smoke stage");
    let kill = text
        .find("stage \"cluster kill-injection smoke (32 nodes, tcp + replay oracle)\"")
        .expect("ci.sh lost the kill-injection cluster stage");
    let heal = text
        .find("stage \"cluster partition-and-heal smoke (32 nodes, tcp + live repair)\"")
        .expect("ci.sh lost the partition-and-heal cluster stage");
    let full_gate = text
        .find("[ \"$TIER\" = full ]")
        .expect("ci.sh lost the full-tier gate");
    assert!(
        quick < full_gate && chaos < full_gate,
        "the loopback cluster smokes must run in the quick tier"
    );
    assert!(
        kill > full_gate && heal > full_gate,
        "the 32-node cluster smokes are merge-gate-only"
    );
}

#[test]
fn mega_scale_smoke_runs_in_scale_and_full_tiers() {
    // The mega smoke is gated on `scale || full`, sitting between the
    // quick stages and the full-only block; the N=10^6 run and its golden
    // diff are part of it, in both tiers (no scale-only block is left).
    let text = std::fs::read_to_string(ci_script()).unwrap();
    let smoke_gate = text
        .find("[ \"$TIER\" = scale ] || [ \"$TIER\" = full ]")
        .expect("ci.sh lost the scale/full smoke gate");
    let smoke = text
        .find("stage \"mega scale smoke")
        .expect("ci.sh lost the mega scale smoke stage");
    let body = text
        .find("mega_scale_smoke() {")
        .expect("ci.sh lost the mega scale smoke function");
    let body = &text[body..body + text[body..].find("\n}\n").unwrap()];
    assert!(smoke > smoke_gate, "smoke must sit in the scale/full gate");
    assert!(
        body.contains("--n 1000000 ")
            && body.contains("diff \"$golden/scale_n1000000_mega.txt\" \"$base-mega-1m.txt\""),
        "the N=10^6 golden diff is part of the mega smoke"
    );
    // …and so is the chain whose far rows outgrow a byte of lateness:
    // the widening path through the release CLI, mega against the
    // reference.
    for needle in [
        "target/release/clustream simulate --scheme chain --n 400 --track 512 --engine checked >/dev/null",
        // …and a hypercube whose ten-dimension link rows spill past the
        // inline row, held to the reference by the checked engine.
        "target/release/clustream simulate --scheme hypercube --n 2000 --engine checked >/dev/null",
    ] {
        assert!(body.contains(needle), "the mega smoke lost `{needle}`");
    }
    assert!(
        !text.contains("[ \"$TIER\" = scale ];"),
        "no stage is scale-tier-only"
    );
}

#[test]
fn reproduction_record_gates_the_merge_on_the_whole_catalog() {
    // Bare `experiments` (no id: every item, non-zero exit on a failed
    // verdict) runs on the release build, in the full tier only.
    let text = std::fs::read_to_string(ci_script()).unwrap();
    let record = text
        .find("stage \"reproduction record (experiments)\"")
        .expect("ci.sh lost the reproduction record stage");
    let full_gate = text
        .find("[ \"$TIER\" = full ]")
        .expect("ci.sh lost the full-tier gate");
    assert!(record > full_gate, "the record is merge-gate-only");
    assert!(
        text[record..].starts_with(
            "stage \"reproduction record (experiments)\" \\\n        \
             cargo run -q --release --offline -p clustream-bench --bin experiments\n"
        ),
        "the stage must run bare `experiments` and gate on its exit status"
    );
}

#[test]
fn the_des_recovery_golden_is_the_ledger_run() {
    // ci.sh runs the ledger's des_recovery command line (the queue flag
    // aside) against a golden that is not in cases.txt: pin both halves,
    // so neither can drift into a different run unnoticed.
    let text = std::fs::read_to_string(ci_script()).unwrap();
    let argv =
        "local des_recovery=(simulate --scheme multitree --n 2000 --d 3 --track 128\n        \
                --runtime des --latency jitter --jitter 0.5 --uplink serialized\n        \
                --recovery repair+nack --churn-leave 0.0005 --churn-slots 200 --des-seed 7)";
    assert!(text.contains(argv), "ci.sh lost the des_recovery argv");
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/cli_golden/des_recovery_n2000.txt");
    let golden = std::fs::read_to_string(golden).expect("the des_recovery golden exists");
    for line in [
        "engine      : des (jitter ≤ 0.5 slots, self-healing repair+nack), wheel queue",
        "des events  : 2598046",
        "des deferred: 960390 sends (643071 released on arrival)",
        "nacks       : 71331 sent, 68826 retransmissions, 71247 repaired, 0 abandoned",
        "control msgs: 283638",
    ] {
        assert!(golden.lines().any(|l| l == line), "golden lost `{line}`");
    }
}

#[test]
fn the_des_plain_golden_is_the_ledger_run() {
    // ci.sh's des_smoke runs the ledger's des_plain command line (the
    // queue flag aside) against a golden that is not in cases.txt: pin
    // both halves, as for des_recovery.
    let text = std::fs::read_to_string(ci_script()).unwrap();
    let argv = "local des_plain=(simulate --scheme multitree --n 20000 --d 3 --track 128\n        \
                --runtime des)";
    assert!(text.contains(argv), "ci.sh lost the des_plain argv");
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/cli_golden/des_plain_n20000.txt");
    let golden = std::fs::read_to_string(golden).expect("the des_plain golden exists");
    // 2 753 989 transmissions + 153 slots: one queue event each.
    for line in [
        "engine      : des (fixed latency), wheel queue",
        "transmissions: 2753989",
        "des events  : 2754142",
    ] {
        assert!(golden.lines().any(|l| l == line), "golden lost `{line}`");
    }
}

#[test]
fn the_cli_error_table_is_seeded() {
    // `tests/cli_golden.rs` replays `errors.txt` line by line; an empty
    // (or comment-only) table would make that replay vacuous.
    let table = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/cli_golden/errors.txt");
    let text = std::fs::read_to_string(table).expect("tests/cli_golden/errors.txt exists");
    let cases = text.lines().filter(|l| !l.starts_with('#'));
    assert!(cases.count() > 0, "the CLI error table has no cases");
}

/// The intra-workspace edges of each `crates/*/Cargo.toml`
/// `[dependencies]` table (dev-dependencies aside), crate by directory.
/// A new edge needs an edit here; `multitree` sits on `core` and `sim`
/// only, so the dynamics cannot come to depend on the workloads again.
const CRATE_GRAPH: &[(&str, &[&str])] = &[
    ("analysis", &["core"]),
    ("baselines", &["core", "sim"]),
    (
        "bench",
        &[
            "analysis",
            "baselines",
            "core",
            "des",
            "hypercube",
            "multitree",
            "npc",
            "overlay",
            "plan",
            "recovery",
            "sim",
            "telemetry",
            "workloads",
        ],
    ),
    (
        "cli",
        &[
            "analysis",
            "core",
            "des",
            "mc",
            "multitree",
            "net",
            "overlay",
            "plan",
            "sim",
            "telemetry",
            "workloads",
        ],
    ),
    ("core", &[]),
    (
        "des",
        &["core", "recovery", "sim", "telemetry", "workloads"],
    ),
    ("hypercube", &["core", "sim"]),
    (
        "mc",
        &[
            "analysis",
            "baselines",
            "core",
            "des",
            "hypercube",
            "multitree",
            "plan",
            "recovery",
            "sim",
            "telemetry",
            "workloads",
        ],
    ),
    ("multitree", &["core", "sim"]),
    (
        "net",
        &["core", "des", "plan", "recovery", "sim", "telemetry"],
    ),
    ("npc", &["core"]),
    (
        "overlay",
        &["analysis", "core", "hypercube", "multitree", "sim"],
    ),
    (
        "plan",
        &[
            "analysis",
            "baselines",
            "core",
            "des",
            "hypercube",
            "multitree",
            "recovery",
            "sim",
            "telemetry",
            "workloads",
        ],
    ),
    ("recovery", &["core", "multitree", "workloads"]),
    ("sim", &["core", "telemetry"]),
    ("telemetry", &[]),
    ("workloads", &["core"]),
];

#[test]
fn the_crate_graph_is_the_documented_one() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut graph: Vec<(String, Vec<String>)> = std::fs::read_dir(&crates)
        .expect("crates/ is readable")
        .map(|e| e.unwrap().path())
        .filter(|dir| dir.join("Cargo.toml").is_file())
        .map(|dir| {
            let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
            let mut section = "";
            let mut deps: Vec<String> = manifest
                .lines()
                .map(str::trim)
                .filter(|line| {
                    if line.starts_with('[') {
                        section = line;
                    }
                    section == "[dependencies]"
                })
                .filter_map(|line| line.strip_prefix("clustream-"))
                .map(|dep| dep.split(['.', ' ', '=']).next().unwrap().to_string())
                .collect();
            deps.sort();
            let name = dir.file_name().unwrap().to_string_lossy().into_owned();
            (name, deps)
        })
        .collect();
    graph.sort();
    let want: Vec<(String, Vec<String>)> = CRATE_GRAPH
        .iter()
        .map(|(c, deps)| (c.to_string(), deps.iter().map(|d| d.to_string()).collect()))
        .collect();
    assert_eq!(
        graph, want,
        "the crate graph moved; update CRATE_GRAPH and DESIGN.md §3"
    );
}

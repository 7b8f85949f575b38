#!/usr/bin/env bash
# Offline CI gate for the clustream workspace. Everything here must pass
# before merging; no network access is required (all external-looking
# dependencies resolve to the in-tree `shims/` crates via path deps, and
# Cargo.lock is committed).
#
# Tiers:
#   ci.sh quick   fmt + loc (prints the source line count, gates
#                 nothing) + clippy + build + workspace tests + CLI flag
#                 hygiene (unknown flags and out-of-domain scheme
#                 parameters are errors, not silence or aborts) +
#                 repro-corpus replay + loopback cluster smoke
#                 + chaos-transport smoke (5% loss + a gray node), both
#                 closed by the DES replay oracle + flash-crowd smoke
#                 (10^3 joins, slot = DES oracle-closed) + crowd smoke
#                 (a settled step:1000@20 crowd on mega: checked against
#                 the reference and equal to its goldens) (the edit loop)
#   ci.sh scale   quick + the mega-engine scale smoke through the real
#                 CLI: at N=10^5 the mega report, sequential and
#                 sharded, equals its committed golden stdout, with
#                 --metrics-out too, whose JSONL equals its committed
#                 golden (spans aside); a chain whose rows outgrow a
#                 byte of lateness runs checked against the reference;
#                 a hypercube whose link rows spill (N=2000) runs
#                 checked against the reference; at N=10^6 (485 MiB,
#                 6.6-9.1 s on a busy 2-core container) the mega report
#                 equals its golden stdout too
#   ci.sh full    quick + doc lint + differential oracles + the N=10^5
#                 closed-form checker of mega's per-node playback + CLI smoke
#                 matrix + exhaustive invariant lattice + coverage-guided
#                 explore smoke + 32-node kill-injection cluster smoke +
#                 32-node partition-and-heal chaos run with live repair +
#                 mega scale smoke (N=10^5 and 10^6) + 10^5-join flash
#                 crowd on mega + heterogeneity capacity-class sweep + the
#                 reproduction record (bare `experiments`: every catalog
#                 item's verdict) + the benchmark/ ledger harness build,
#                 unit tests, one net_framepump correctness run and one
#                 des_recovery run checked for correctness and a 17 MiB
#                 peak RSS (the merge gate; default when no tier is given)
#
# No stage compares a measured time or rate against a floor: exact
# counts are golden files (tests/cli_golden, crates/bench/tests/golden),
# and speed is gated only by `bash benchmark/run.sh --compare` over the
# benchmark/ ledger.
#
# Per-stage wall-clock timings are printed at the end of the run and
# written to target/ci-timings.json. Every stage must finish inside
# STAGE_BUDGET_SECS; override with CI_STAGE_BUDGET_SECS (0 disables).
set -euo pipefail
cd "$(dirname "$0")"

# Per-stage wall-clock budget, seconds. Generous on purpose: it exists
# to catch hangs and pathological slowdowns, not routine jitter.
STAGE_BUDGET_SECS="${CI_STAGE_BUDGET_SECS:-900}"

TIER="${1:-full}"
case "$TIER" in
quick | full | scale) ;;
*)
    echo "ci.sh: unknown tier \`$TIER\` (valid tiers: quick, full, scale)" >&2
    exit 2
    ;;
esac

export CARGO_NET_OFFLINE=true

STAGE_NAMES=()
STAGE_SECS=()

# stage <name> <command...>: run one gate stage, record its wall time,
# and fail the run when it blows the per-stage budget.
stage() {
    local name="$1"
    shift
    echo "== $name =="
    local t0=$SECONDS
    "$@"
    local secs=$((SECONDS - t0))
    STAGE_NAMES+=("$name")
    STAGE_SECS+=("$secs")
    if [ "$STAGE_BUDGET_SECS" -gt 0 ] && [ "$secs" -gt "$STAGE_BUDGET_SECS" ]; then
        echo "ci.sh: stage \`$name\` exceeded its ${STAGE_BUDGET_SECS}s budget (took ${secs}s)" >&2
        exit 1
    fi
}

benchmark_harness() {
    # benchmark/ is its own workspace, so the other stages never compile
    # it: build it against this tree's public API and run its unit tests,
    # so a refactor that breaks what benchmark/src calls fails here and
    # not at the next benchmark run.
    env CARGO_TARGET_DIR=benchmark/target \
        cargo test --release --offline --manifest-path benchmark/Cargo.toml
    # One short pump of 10^6 frames through the buffered Conn, checked
    # for correctness only: a missed flush shows up here as a short
    # count, not only as a hung cluster smoke.
    local line
    line=$(bash benchmark/run.sh --workload net_framepump --seed 7 --seconds 3 --trace 0 | tail -n 1)
    echo "$line"
    case "$line" in
        *'"correct": true'*'"failed": 0'[,}]*) ;;
        *)
            echo "ci.sh: net_framepump lost or reordered frames" >&2
            return 1
            ;;
    esac
    # One short des_recovery pass, checked for correctness and for peak
    # RSS: the DES's wheel buckets and parked sends hold memory in
    # proportion to their live entries (≈ 13.5 MiB here); a container
    # that keeps more than that shows up as a peak past 17 MiB (18.4 MiB
    # while parked-send rows stayed dense and the leftover walk copied
    # every parked key, 51 MiB while drained wheel buckets were pooled).
    line=$(bash benchmark/run.sh --workload des_recovery --seed 7 --seconds 3 --trace 0 | tail -n 1)
    echo "$line"
    case "$line" in
        *'"correct": true'*'"failed": 0'[,}]*) ;;
        *)
            echo "ci.sh: des_recovery failed an invocation" >&2
            return 1
            ;;
    esac
    local rss
    rss=$(sed -n 's/.*"peak_rss_mib": {"value": \([0-9.]*\).*/\1/p' <<<"$line")
    if [ -z "$rss" ] || ! awk -v rss="$rss" 'BEGIN { exit !(rss <= 17) }'; then
        echo "ci.sh: des_recovery peaked at ${rss:-?} MiB of RSS (bound 17 MiB)" >&2
        return 1
    fi
}

loc() {
    # Informational, never a gate: the non-blank, non-comment lines of
    # crates/*/src outside #[cfg(test)] tails, the one size metric
    # change notes quote.
    find crates/*/src -name '*.rs' -print0 | sort -z |
        xargs -0 awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && !/^[[:space:]]*$/ && !/^[[:space:]]*\/\// {n++} END{print n}'
}

des_smoke() {
    # The small DES runs (checked, jittered, serialized) are
    # tests/cli_golden cases, checked byte for byte by the test stage.
    # The ledger's des_plain command line (too slow for tests/cli_golden's
    # debug build): one event per delivery and per slot, every count of
    # it pinned by the golden; under --check (the heap beside the wheel,
    # pop for pop, and mega beside the DES, field for field) it prints the
    # same but for the engine line.
    local golden=tests/cli_golden/des_plain_n20000.txt out=target/ci-des-plain
    local des_plain=(simulate --scheme multitree --n 20000 --d 3 --track 128
        --runtime des)
    target/release/clustream "${des_plain[@]}" --queue wheel >"$out-wheel.txt"
    target/release/clustream "${des_plain[@]}" --check >"$out-checked.txt"
    diff "$golden" "$out-wheel.txt"
    diff <(grep -v '^engine' "$golden") <(grep -v '^engine' "$out-checked.txt")
}

telemetry_smoke() {
    # The metrics pipeline end to end: instrumented run -> JSONL file ->
    # offline report. First through a checked DES run, which doubles as
    # the zero-cost-off oracle (the recorded run must stay bit-identical
    # to the bare mega engine); then through a recovery run, which
    # populates the recovery.* series.
    local out=target/ci-metrics.jsonl
    cargo run -q --release --offline -p clustream-cli --bin clustream -- \
        simulate --scheme hypercube --n 25 --runtime des --check \
        --metrics-out "$out"
    cargo run -q --release --offline -p clustream-cli --bin clustream -- \
        report "$out"
    cargo run -q --release --offline -p clustream-cli --bin clustream -- \
        simulate --scheme multitree --n 30 --d 3 --runtime des \
        --recovery repair+nack --churn-leave 0.002 --churn-slots 120 \
        --churn-seed 7 --metrics-out "$out"
    cargo run -q --release --offline -p clustream-cli --bin clustream -- \
        report "$out"
}

recovery_smoke() {
    # Every recovery tier across a small churn/loss matrix through the
    # real CLI — under --check, so the binary heap and the timing wheel
    # run the whole fault matrix in lockstep (the first divergent pop
    # panics).
    local rec
    for rec in off repair repair+nack; do
        cargo run -q --release --offline -p clustream-cli --bin clustream -- \
            simulate --scheme multitree --n 30 --d 3 --track 32 --runtime des \
            --check \
            --recovery "$rec" --churn-leave 0.002 --churn-rejoin 0.001 \
            --churn-slots 160 --churn-seed 7
    done
    # The benchmark's des_recovery command line (jitter + serialized
    # uplink + churn + repair+nack) at N=500, same lockstep: the heap and
    # the wheel must pop every event of the workload the ledger times in
    # the same order.
    cargo run -q --release --offline -p clustream-cli --bin clustream -- \
        simulate --scheme multitree --n 500 --d 3 --track 128 --runtime des \
        --check --latency jitter --jitter 0.5 --uplink serialized \
        --recovery repair+nack --churn-leave 0.0005 --churn-slots 200 --des-seed 7
    # The ledger's des_recovery command line itself, at N=2000 (too slow
    # for tests/cli_golden's debug build): its stdout is the committed
    # golden, every count of it, and under --check it prints the same but
    # for the engine line.
    local golden=tests/cli_golden/des_recovery_n2000.txt out=target/ci-des-recovery
    local des_recovery=(simulate --scheme multitree --n 2000 --d 3 --track 128
        --runtime des --latency jitter --jitter 0.5 --uplink serialized
        --recovery repair+nack --churn-leave 0.0005 --churn-slots 200 --des-seed 7)
    target/release/clustream "${des_recovery[@]}" --queue wheel >"$out-wheel.txt"
    target/release/clustream "${des_recovery[@]}" --check >"$out-checked.txt"
    diff "$golden" "$out-wheel.txt"
    diff <(grep -v '^engine' "$golden") <(grep -v '^engine' "$out-checked.txt")
}

recovery_off_regression() {
    # With recovery off the DES must stay bit-identical to the slot
    # engines (the recovery_off_regression case of tests/cli_golden runs
    # the DES under --check, which enforces it field by field).
    cargo test -q --test recovery --offline
    cargo test -q --test faults --offline
}

cli_flag_hygiene() {
    # The CLI's input boundary through the release binary: a misspelt
    # flag is a usage error naming it (it used to be ignored, the run
    # silently falling back to the default), and scheme parameters
    # outside a family's domain are model errors (they used to reach an
    # assert in crates/baselines). Status 1 is a reported error; 101
    # would be a panic.
    expect_error() {
        local pattern="$1" out status=0
        shift
        out=$(target/release/clustream "$@" 2>&1) || status=$?
        if [ "$status" -ne 1 ] || ! grep -q "$pattern" <<<"$out"; then
            echo "ci.sh: \`clustream $*\` must exit 1 with \`$pattern\` (got $status): $out" >&2
            return 1
        fi
    }
    expect_error 'unknown flag `--trak`' \
        simulate --scheme multitree --n 30 --trak 64
    expect_error '^model error: invalid configuration: ' \
        simulate --scheme chain --n 0
    expect_error '^model error: invalid configuration: ' \
        cluster --nodes 4 --scheme singletree --d 0
    # Sizes the id type or the memory cannot hold used to abort in the
    # allocator (134): a petabyte arrival table, ids past 2^32.
    expect_error '^model error: ' \
        simulate --scheme multitree --n 10 --d 2 --track 99999999999999
    expect_error '^model error: ' \
        simulate --scheme multitree --n 4294967296 --d 3
    expect_error '^model error: ' \
        simulate --scheme chain --n 99999999999
    # A node id past u32 used to be truncated (node 4294967297 traced node
    # 1, exit 0), and a latency the arrival ring cannot grow to aborted in
    # the allocator (134).
    expect_error '^usage error: --node must be an integer in 0..=4294967295$' \
        trace --scheme multitree --n 10 --node 4294967297
    expect_error '^model error: invalid configuration: a transmission latency of 2000000000 slots' \
        plan --clusters 5 --tc 2000000000
    # `analyze --n 0` used to hit an assert (101), and `--max-d 10^8`
    # built 10^8 candidates and ran a quadratic frontier over them.
    expect_error '^usage error: ' analyze --n 0
    expect_error '^usage error: ' analyze --n 10 --max-d 100000000
    # `check --max-n 0` swept an empty lattice and reported it clean (0),
    # and `--max-n 10^8` aborted in the allocator enumerating it (134).
    expect_error '^usage error: --max-n must be an integer in 1..=1024$' \
        check --exhaustive --max-n 100000000
    expect_error '^usage error: --max-n must be an integer in 1..=1024$' \
        check --exhaustive --max-n 0
    # `--recovery` with `--scenario` used to pass the rule book and then
    # panic in the report (101) or silently run no failure at all (0).
    expect_error '^usage error: --scenario scripts its own joins and repairs' \
        simulate --scheme multitree --n 40 --d 3 --track 32 --runtime des \
        --recovery repair --scenario step:10@5
    expect_error '^usage error: --scenario scripts its own joins and repairs' \
        simulate --scheme multitree --n 40 --d 3 --track 32 --runtime des \
        --recovery repair+nack --scenario fail:3-6@40
    # A malformed value for a flag the slot run does not read used to be
    # ignored (0); it is refused like the same value where it is read.
    expect_error '^usage error: --horizon must be a non-negative integer$' \
        simulate --scheme multitree --n 100 --d 3 --horizon abc
    expect_error '^usage error: --des-seed must be a non-negative integer$' \
        simulate --scheme multitree --n 100 --d 3 --des-seed xyz
    # `trace --packet` sized its table from the flag (10^8 allocated
    # 1.6 GB and ran 2.8 s to print a hiccup), and `cluster --track 0`
    # spawned its processes only to report no survivor complete.
    expect_error '^usage error: --packet 100000000 is too late to trace: ' \
        trace --scheme multitree --n 15 --d 3 --node 6 --packet 100000000
    expect_error '^usage error: --track must be at least 1' \
        cluster --nodes 2 --track 0
    # The node binary parses with the same grammar: an unknown flag is a
    # usage error naming it, exit 2.
    local node_out node_status=0
    node_out=$(target/release/clustream-node --bogus 1 2>&1) || node_status=$?
    if [ "$node_status" -ne 2 ] || ! grep -q 'unknown flag `--bogus`' <<<"$node_out"; then
        echo "ci.sh: \`clustream-node --bogus 1\` must exit 2 naming the flag (got $node_status): $node_out" >&2
        return 1
    fi
    # Under a 2 GB address-space cap, a scenario script that does not fit
    # and a corpus genome of 4·10^9 receivers are model errors; both used
    # to abort in the allocator (134).
    local corpus=target/ci-corpus-out-of-domain
    mkdir -p "$corpus"
    printf '%s\n' '{"id":"huge","note":"n past MAX_N","invariant":null,"expect_violation":false,"genome":{"family":"MultiTree","n":4000000000,"d":2,"construction":"Greedy","mode":"Pre","track":10,"faults":null,"sabotage":null}}' \
        >"$corpus/huge.jsonl"
    (
        ulimit -v 2000000
        expect_error '^model error: invalid configuration: a scenario of 100 initial members and 100000000 joins does not fit in memory$' \
            simulate --scheme multitree --n 100 --d 3 --scenario step:100000000@5
        expect_error "^model error: $corpus/huge.jsonl:1: genome outside the checker's domain: n = 4000000000" \
            check --replay-corpus --corpus "$corpus"
    )
}

corpus_replay() {
    # Every counterexample ever shrunk into tests/corpus/ must keep
    # reproducing exactly as recorded, on every engine column.
    cargo run -q --release --offline -p clustream-cli --bin clustream -- \
        check --replay-corpus --corpus tests/corpus
}

model_check_exhaustive() {
    # The full bounded lattice: d ∈ {2,3,4}, N ≤ 64, both constructions,
    # all four families, canonical fault plans, the three engine columns
    # of `Column::ALL` (reference, mega, timing-wheel DES) — plus the
    # recovery-repair sweep. Runs in a few seconds in release.
    cargo run -q --release --offline -p clustream-cli --bin clustream -- \
        check --exhaustive
}

model_check_explore() {
    # Fixed-seed coverage-guided exploration smoke: 500 genomes, and any
    # counterexample found fails the gate with its shrunk repro.
    cargo run -q --release --offline -p clustream-cli --bin clustream -- \
        check --explore --budget 500 --seed 7
}

cluster_smoke() {
    # The networked deployment end to end over loopback: 8 real
    # clustream-node processes on Unix sockets deliver a short stream,
    # the orchestrator records the per-link latency trace, and the DES
    # replays it under the recorded latencies with a delivery-order
    # concordance floor (the replay oracle).
    local trace=target/ci-cluster-trace.json
    cargo run -q --release --offline -p clustream-cli --bin clustream -- \
        cluster --nodes 8 --transport uds --track 12 --slot-us 3000 \
        --trace-out "$trace"
    cargo run -q --release --offline -p clustream-cli --bin clustream -- \
        replay --trace "$trace" --min-concordance 0.85
}

cluster_chaos_smoke() {
    # Chaos transport in the edit loop: 8 node processes on Unix sockets
    # with seeded 5% loss on the source and one slow-but-alive (gray)
    # interior node. The NACK path must fill every gap — the run only
    # prints `complete : N/N` on success — and the recorded trace,
    # dropped copies included, must replay concordantly through the
    # drop-aware DES oracle.
    local trace=target/ci-cluster-chaos-trace.json
    cargo run -q --release --offline -p clustream-cli --bin clustream -- \
        cluster --nodes 8 --transport uds --track 12 --slot-us 3000 \
        --chaos drop:0@0=0.05,gray:2@0=1 --chaos-seed 7 \
        --trace-out "$trace"
    cargo run -q --release --offline -p clustream-cli --bin clustream -- \
        replay --trace "$trace" --min-concordance 0.85
}

flash_crowd_smoke() {
    # The flash-crowd scenario suite in the edit loop: grow a 100-node
    # forest by 10^3 joins through the appendix add dynamics, score the
    # QoE frontiers, and close the run against the DES (--oracle: slot
    # engine and event world must replay the same plan bit for bit).
    cargo run -q --release --offline -p clustream-bench --bin ext_flash_crowd -- \
        --n0 100 --d 3 --joins 1000 --oracle \
        --out target/ci-flash-crowd.json
}

crowd_mega_smoke() {
    # The settled flash crowd on mega's steady gears through the real
    # CLI: the ledger's crowd1000 shape (the forest stops changing at slot
    # 20 of 480, and the zero-rate loss plan only reports) runs checked
    # (mega against the reference, field by field, in-process) and prints
    # its committed golden, engine label aside. Then the same crowd
    # tracking 256 packets to a horizon of 150 slots, which cuts the
    # analytic gear's periodic rows mid-window (360 211 packets missing):
    # checked again. Last, 1024 tracked packets, where the analysis cuts
    # most of each periodic row's implied run (late joiners' rows miss
    # their first packets): the reference takes ≈ 15 s there, so mega
    # meets the golden alone.
    local base=target/ci-crowd golden=tests/cli_golden
    local crowd=(simulate --scheme multitree --n 2000 --d 3 --scenario step:1000@20 --track 96)
    local cut=(simulate --scheme multitree --n 2000 --d 3 --scenario step:1000@20 --track 256 --horizon 150)
    local long=(simulate --scheme multitree --n 2000 --d 3 --scenario step:1000@20 --track 1024)
    target/release/clustream "${crowd[@]}" --check >"$base-checked.txt"
    diff <(grep -v '^engine' "$golden/crowd1000.txt") <(grep -v '^engine' "$base-checked.txt")
    target/release/clustream "${cut[@]}" --check >"$base-h150-checked.txt"
    diff <(grep -v '^engine' "$golden/crowd_h150.txt") <(grep -v '^engine' "$base-h150-checked.txt")
    target/release/clustream "${long[@]}" >"$base-t1024.txt"
    diff "$golden/crowd_t1024.txt" "$base-t1024.txt"
}

flash_crowd_full() {
    # The acceptance-scale crowd: 10^5 joins within a few hundred slots
    # on the mega engine, frontier tables plus the JSON QoE report. The
    # default 256-slot tracked window outlasts the ramp (ends slot 210),
    # so the interruption frontier must close at the paper's h*d bound.
    # Past the ramp mega replays its steady table: about 5 s on a 2-core
    # container (it took 13-14 s while the zero-rate loss plan kept the
    # whole run in full mode).
    cargo run -q --release --offline -p clustream-bench --bin ext_flash_crowd -- \
        --n0 1000 --d 3 --joins 100000 \
        --out target/ci-flash-crowd-100k.json
}

heterogeneity_sweep() {
    # The heterogeneity sweep through the serialized DES uplink gate:
    # fiber baseline, zipf fiber/cable/mobile mix, and a mobile-heavy
    # tail, with latency jitter (what makes class capacity bite),
    # per-class QoE at the h*d budget, and the JSON report array.
    cargo run -q --release --offline -p clustream-bench --bin ext_heterogeneity -- \
        --n 400 --d 3 --jitter 0.75 \
        --out target/ci-heterogeneity.json
}

cluster_chaos_heal_smoke() {
    # The chaos acceptance run: 32 node processes over TCP loopback with
    # two transient source-link partitions plus a SIGKILL with live
    # in-network repair on. Survivors refill the blackout gaps over the
    # NACK path, the orchestrator heals the forest around the killed
    # node by shipping spliced schedules, and the recorded trace must
    # replay concordantly through the drop-aware DES oracle. Slots are
    # deliberately long (20 ms) and the silence horizon wide (240 ms):
    # with live repair on, a false suspect does not just misreport — it
    # triggers a structural repair of a healthy node, so the horizon
    # must sit well above shared-container scheduling stalls, while the
    # 4-slot blackouts stay far inside it.
    local trace=target/ci-cluster-chaos-heal-trace.json
    cargo run -q --release --offline -p clustream-cli --bin clustream -- \
        cluster --nodes 32 --transport tcp --track 24 --slot-us 20000 \
        --chaos partition:0/1@2+4,partition:0/2@4+4 --chaos-seed 11 \
        --kill 5@2 --suspect-timeout-slots 12 --repair \
        --trace-out "$trace"
    cargo run -q --release --offline -p clustream-cli --bin clustream -- \
        replay --trace "$trace" --min-concordance 0.85
}

mega_scale_smoke() {
    # The scale-oriented mega engine at N=10^5 through the real CLI, on
    # the ledger's scale_multitree command line: the mega report is its
    # committed golden stdout (slots run, transmissions and every QoS
    # line, recorded before mega was the default), and the 4-shard run
    # prints the same but the engine label. Then the ledger's
    # scale_observed command line: asking for --metrics-out changes
    # nothing mega prints but the `metrics` line, and what it records is
    # its committed golden (wall-clock spans aside; recorded from the
    # bare kernel loop, and the reference records the same).
    local base=target/ci-scale golden=tests/cli_golden
    cargo run -q --release --offline -p clustream-cli --bin clustream -- \
        simulate --scheme multitree --n 100000 --d 3 --track 256 \
        --engine mega >"$base-mega.txt"
    cargo run -q --release --offline -p clustream-cli --bin clustream -- \
        simulate --scheme multitree --n 100000 --d 3 --track 256 \
        --engine mega --shards 4 >"$base-mega-sharded.txt"
    cargo run -q --release --offline -p clustream-cli --bin clustream -- \
        simulate --scheme multitree --n 100000 --d 3 --track 256 \
        --engine mega --metrics-out "$base-mega.jsonl" >"$base-mega-observed.txt"
    diff "$golden/scale_n100000_mega.txt" "$base-mega.txt"
    diff <(grep -v engine "$base-mega.txt") <(grep -v engine "$base-mega-sharded.txt")
    diff "$golden/scale_n100000_mega.txt" <(grep -v '^metrics' "$base-mega-observed.txt")
    diff "$golden/scale_n100000_metrics.jsonl" <(grep -v '"span"' "$base-mega.jsonl")
    cargo run -q --release --offline -p clustream-cli --bin clustream -- \
        report "$base-mega.jsonl" | grep -x 'deliveries  : 26862784'
    # A chain plays node i i slots late, so at N=400 the rows past a
    # byte of lateness (~190) widen, and the steady gears write them:
    # --check holds mega to the reference field by field.
    target/release/clustream simulate --scheme chain --n 400 --track 512 --check >/dev/null
    # Hypercube vertices at N=2000 send along ten dimensions, past the
    # seven receivers a link row keeps inline: --check holds the spilled
    # rows' neighbor counts to the reference's link set.
    target/release/clustream simulate --scheme hypercube --n 2000 --check >/dev/null
    # N=10^6: one-byte arrival cells, periodic rows that store only
    # their 64-cell heads, and one 32-byte link row per sender keep it
    # at 485 MiB.
    cargo run -q --release --offline -p clustream-cli --bin clustream -- \
        simulate --scheme multitree --n 1000000 --d 3 --track 256 \
        --engine mega >"$base-mega-1m.txt"
    diff "$golden/scale_n1000000_mega.txt" "$base-mega-1m.txt"
}

cluster_kill_smoke() {
    # The full acceptance run: 32 node processes over TCP loopback with
    # a SIGKILL injected mid-stream. Every survivor must still complete
    # the tracked window (gap-chase NACKs to the source), the kill must
    # be detected and repaired with reported wall-clocks, and the
    # recorded trace must replay concordantly through the DES.
    local trace=target/ci-cluster-kill-trace.json
    cargo run -q --release --offline -p clustream-cli --bin clustream -- \
        cluster --nodes 32 --transport tcp --track 24 --slot-us 5000 \
        --kill 5@2 --suspect-timeout-slots 4 --trace-out "$trace"
    cargo run -q --release --offline -p clustream-cli --bin clustream -- \
        replay --trace "$trace" --min-concordance 0.85
}

stage "fmt" cargo fmt --all --check
stage "loc (informational)" loc
stage "clippy" cargo clippy --workspace --all-targets --offline -- -D warnings
stage "build (release)" cargo build --workspace --release --offline
stage "test" cargo test --workspace -q --offline
stage "cli flag hygiene" cli_flag_hygiene
stage "repro-corpus replay" corpus_replay
stage "cluster smoke (8 nodes, uds + replay oracle)" cluster_smoke
stage "cluster chaos smoke (8 nodes, uds + loss/gray + replay oracle)" cluster_chaos_smoke
stage "flash-crowd smoke (10^3 joins, oracle-closed)" flash_crowd_smoke
stage "crowd smoke (mega = reference = golden, step:1000@20)" crowd_mega_smoke

if [ "$TIER" = scale ] || [ "$TIER" = full ]; then
    stage "mega scale smoke (mega = sharded = golden)" mega_scale_smoke
fi

if [ "$TIER" = full ]; then
    stage "doc (-D warnings)" \
        env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline -q
    stage "differential oracle" cargo test -q --test differential --offline
    stage "slot/DES differential oracle" cargo test -q --test des_differential --offline
    # Mega's per-node delay and buffer at N=10^5 against the multi-tree's
    # closed-form schedule scored by the reference's own scorer (d 2 and
    # 3, both constructions, 256 packets; the N=2000 case runs in `test`).
    stage "scale checker (N=10^5, closed form = mega)" \
        cargo test --release -q --test scale_checker --offline -- --ignored
    stage "DES smoke (des_plain golden, wheel and --check)" des_smoke
    stage "telemetry smoke (metrics-out + report)" telemetry_smoke
    stage "recovery fault-matrix smoke" recovery_smoke
    stage "recovery-off DES equivalence regression" recovery_off_regression
    stage "model check (exhaustive lattice)" model_check_exhaustive
    stage "model check (explore smoke, seed 7)" model_check_explore
    stage "cluster kill-injection smoke (32 nodes, tcp + replay oracle)" cluster_kill_smoke
    stage "cluster partition-and-heal smoke (32 nodes, tcp + live repair)" cluster_chaos_heal_smoke
    stage "flash-crowd acceptance (10^5 joins, mega + QoE frontiers)" flash_crowd_full
    stage "heterogeneity sweep (capacity classes + per-class QoE)" heterogeneity_sweep
    # Every display item of the paper at its one parameter set (Fig. 4,
    # Table 1, Thm 1-4, Prop 1-2, the extensions): a verdict that fails
    # is named and exits non-zero.
    stage "reproduction record (experiments)" \
        cargo run -q --release --offline -p clustream-bench --bin experiments
    stage "benchmark harness (ledger build + unit tests + frame pump + des_recovery peak)" benchmark_harness
fi

# Machine-readable stage timings for trend tracking across runs.
mkdir -p target
{
    printf '{\n  "tier": "%s",\n  "stage_budget_secs": %s,\n  "stages": [\n' \
        "$TIER" "$STAGE_BUDGET_SECS"
    for i in "${!STAGE_NAMES[@]}"; do
        sep=","
        [ "$i" -eq $((${#STAGE_NAMES[@]} - 1)) ] && sep=""
        printf '    {"name": "%s", "secs": %s}%s\n' \
            "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}" "$sep"
    done
    printf '  ]\n}\n'
} >target/ci-timings.json

echo
echo "stage timings ($TIER tier, budget ${STAGE_BUDGET_SECS}s/stage):"
for i in "${!STAGE_NAMES[@]}"; do
    printf '  %-48s %4ds\n' "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}"
done
echo "artifacts:"
for f in target/ci-timings.json target/ci-metrics.jsonl \
    target/ci-cluster-trace.json target/ci-cluster-chaos-trace.json \
    target/ci-cluster-kill-trace.json target/ci-cluster-chaos-heal-trace.json \
    target/ci-scale-mega.txt target/ci-scale-mega-sharded.txt \
    target/ci-scale-mega-observed.txt target/ci-scale-mega.jsonl target/ci-scale-mega-1m.txt \
    target/ci-des-recovery-wheel.txt target/ci-des-recovery-checked.txt \
    target/ci-crowd-checked.txt target/ci-crowd-t1024.txt; do
    [ -f "$f" ] || continue
    printf '  %-48s %8d bytes\n' "$f" "$(wc -c <"$f")"
done
echo "CI gate passed ($TIER tier)."

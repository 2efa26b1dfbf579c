#!/usr/bin/env sh
# Offline CI for the EPOC workspace.
#
# The workspace is hermetic: every dependency is a path dependency on a
# sibling crate (see `epoc-rt`), so this script must succeed with no
# network access and no crates-io registry. Run it before every push.
#
#   ./ci.sh            # build + test + (if installed) clippy
#   ./ci.sh --quick    # skip the release build

set -eu

cd "$(dirname "$0")"

quick=0
for arg in "$@"; do
    case "$arg" in
    --quick) quick=1 ;;
    *)
        echo "usage: ./ci.sh [--quick]" >&2
        exit 2
        ;;
    esac
done

run() {
    echo "==> $*"
    "$@"
}

export CARGO_NET_OFFLINE=true

if [ "$quick" -eq 0 ]; then
    run cargo build --workspace --release
fi

run cargo test --workspace -q
# examples: `cargo test` builds the four examples but never runs them, so
# run each once (dev profile; about 5 s together on a 2-CPU host).
for example in quickstart zx_optimize pulse_compile hw_constraints; do
    run cargo run -q -p epoc --example "$example"
done
# replay-oracle-8q: the exact replay oracle on the four 8-qubit builtins,
# which tests/replay_oracle.rs ignores in the plain test run for their
# cost (about 110 s in the test profile on a 2-CPU host). The `_exact`
# filter leaves out ham7_n7's ESP reproducer, which fails by design.
if [ "$quick" -eq 0 ]; then
    run cargo test -q --test replay_oracle -- --ignored _exact
fi
# The [[bench]] target is excluded from `cargo test`; make sure it still builds.
run cargo test --workspace -q --benches --no-run
# perfbench/ is a cargo package of its own that builds against the
# workspace crates' public API; build it so an API change that breaks the
# end-to-end benchmark fails here.
run cargo build --release --offline --manifest-path perfbench/Cargo.toml \
    --target-dir target/perfbench

# Clippy is optional tooling: warn-only if the component is missing.
if cargo clippy --version >/dev/null 2>&1; then
    run cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy not installed; skipping lint step" >&2
fi

# simd-matrix: the linalg kernels must agree bit-for-bit between the
# vector and scalar dispatch paths, so run the linalg tests with each
# path force-selected via EPOC_SIMD (the normal test run above covers
# auto-detection; EPOC_SIMD=1 is "auto", which on AVX2 hardware is the
# vector path, and EPOC_SIMD=0 forces the portable fallback). GRAPE's
# tests and its pinned pulse durations run on the scalar path too, and so
# do the statevector's (its 1-qubit gates run on the pair-mix kernels) and
# the ZX pass's, which probes its rewrites on that statevector. So do
# the synthesis tests: QSearch's template evaluator runs on mix_pair,
# mix_adjacent and mixed_pair_trace, and its pinned result digests must
# hold on both paths.
run env EPOC_SIMD=1 cargo test -q -p epoc-linalg
run env EPOC_SIMD=0 cargo test -q -p epoc-linalg
run env EPOC_SIMD=0 cargo test -q -p epoc-qoc
run env EPOC_SIMD=0 cargo test -q -p epoc --test grape_durations
run env EPOC_SIMD=0 cargo test -q -p epoc-circuit -p epoc-zx
run env EPOC_SIMD=0 cargo test -q -p epoc-synth

# bench-check: a quick bench run (3 samples per stage) writes
# target/BENCH_stages.json and fails if any stage's median regressed more
# than 2x against the committed BENCH_baseline.json. The bench binary
# skips the comparison (with a notice) when no baseline is committed.
run env EPOC_BENCH_QUICK=1 EPOC_BENCH_CHECK=1 cargo bench -p epoc-bench --bench stages

# trace-smoke: compile a benchmark with telemetry enabled and validate the
# exported Chrome trace structurally — malformed or empty traces (or a
# compile that lost one of the five stage spans) fail the build. Needs the
# release binaries, so it rides with the non-quick path.
if [ "$quick" -eq 0 ]; then
    run ./target/release/epocc --trace target/trace-smoke.json bench:ghz_n8
    run ./target/release/trace_check --require-qoc target/trace-smoke.json
fi

# chaos-smoke: compile under a fixed-seed failure storm (QSearch budgets
# and GRAPE convergence both injected to fail on every attempt) and
# demand that the exported trace carries recovery.* counters — the
# recovery ladder must both rescue the compile (the run exits 0 with a
# verified report) and leave an audit trail, or degradation happened
# silently.
if [ "$quick" -eq 0 ]; then
    run ./target/release/epocc \
        --faults "grape.converge=always,qsearch.budget=always" --fault-seed 7 \
        --trace target/chaos-smoke.json bench:ghz_n8
    run ./target/release/trace_check --require-recovery target/chaos-smoke.json
fi

# service-smoke: pipe three identical jobs into the epocd compilation
# service with a persistent library. Every report must verify; the second
# must be served entirely from the warm cache (zero misses, zero GRAPE
# iterations), and the third must skip ZX, synthesis and verification
# (`stats` counts one front-half memo hit). Then restart the daemon on the
# persisted library file, with the journal and `--checkpoint-every 1` the
# benchmark's warm daemons use, and demand the warm start survives the
# process boundary and the warm-only session leaves the library file's
# bytes as they were.
if [ "$quick" -eq 0 ]; then
    rm -f target/service-smoke-lib.json
    echo "==> epocd service-smoke (cold run, 3 jobs)" >&2
    printf '%s\n' \
        '{"id":1,"bench":"qaoa_n6"}' \
        '{"id":2,"bench":"qaoa_n6"}' \
        '{"id":3,"bench":"qaoa_n6"}' \
        '{"cmd":"stats"}' \
        '{"cmd":"shutdown"}' \
        | ./target/release/epocd --grape 1 --no-regroup \
            --library target/service-smoke-lib.json \
        > target/service-smoke.out
    [ "$(grep -c '"ok":true' target/service-smoke.out)" -ge 5 ] \
        || { echo "service-smoke: a job, stats or the shutdown checkpoint failed" >&2; exit 1; }
    sed -n 2p target/service-smoke.out | grep -q '"cache_misses":0' \
        || { echo "service-smoke: second job missed the warm cache" >&2; exit 1; }
    sed -n 2p target/service-smoke.out | grep -q '"grape_iterations":0' \
        || { echo "service-smoke: second job re-ran GRAPE" >&2; exit 1; }
    sed -n 4p target/service-smoke.out | grep -q '"memo_hits":1' \
        || { echo "service-smoke: the third job did not hit the front-half memo" >&2; exit 1; }
    echo "==> epocd service-smoke (restarted daemon, warm library)" >&2
    cp target/service-smoke-lib.json target/service-smoke-lib.before
    rm -f target/service-smoke.journal
    printf '%s\n' '{"id":3,"bench":"qaoa_n6"}' \
        | ./target/release/epocd --grape 1 --no-regroup \
            --library target/service-smoke-lib.json \
            --journal target/service-smoke.journal --checkpoint-every 1 \
        > target/service-smoke-warm.out
    grep -q '"cache_misses":0' target/service-smoke-warm.out \
        || { echo "service-smoke: restarted daemon compiled cold" >&2; exit 1; }
    grep -q '"grape_iterations":0' target/service-smoke-warm.out \
        || { echo "service-smoke: restarted daemon re-ran GRAPE" >&2; exit 1; }
    cmp target/service-smoke-lib.before target/service-smoke-lib.json \
        || { echo "service-smoke: the warm-only session changed the library file" >&2; exit 1; }
    echo "==> service-smoke OK (warm cache survived the restart)"
fi

# obs-smoke: run the epocd service over two jobs with a structured JSONL
# log, fetch the live Prometheus exposition over the line protocol, and
# validate the whole observability surface (trace_check --require-jobs):
# the log must attribute lifecycle events to per-service job ids, and the
# exposition must carry latency summary quantiles and no job="N" series,
# which would grow with every job a long-running daemon serves. The
# one-shot epocc --metrics-file exposition must validate as well.
if [ "$quick" -eq 0 ]; then
    echo "==> epocd obs-smoke (2 jobs, metrics command, JSONL log)" >&2
    rm -f target/obs-smoke.log target/obs-smoke-metrics.json
    printf '%s\n' \
        '{"id":1,"bench":"qaoa_n6"}' \
        '{"id":2,"bench":"qaoa_n6"}' \
        '{"cmd":"metrics"}' \
        '{"cmd":"shutdown"}' \
        | ./target/release/epocd --grape 1 --no-regroup \
            --log target/obs-smoke.log \
        > target/obs-smoke.out
    grep '"metrics"' target/obs-smoke.out > target/obs-smoke-metrics.json \
        || { echo "obs-smoke: no metrics response line" >&2; exit 1; }
    run ./target/release/trace_check --require-jobs \
        --log target/obs-smoke.log --metrics target/obs-smoke-metrics.json
    run ./target/release/epocc --metrics-file target/obs-smoke-epocc.prom bench:ghz_n8
    run ./target/release/trace_check --metrics target/obs-smoke-epocc.prom
fi

# resilience-smoke: exercise the service's failure-handling surface end
# to end. (1) Flood a --queue-limit 1 daemon and demand typed queue_full
# rejections alongside at least one completed job, with the job.rejected
# event in the structured log (trace_check --require-event). (2) A job
# with an impossible deadline must fail typed while the next job on the
# same connection succeeds. (3) kill -9 the daemon mid-batch (library
# checkpoint never ran, journal has the inserts) and demand the restarted
# daemon replays the journal into a fully warm cache — zero misses, zero
# GRAPE iterations — proving no completed insert was lost.
if [ "$quick" -eq 0 ]; then
    echo "==> epocd resilience-smoke (queue flood, --queue-limit 1)" >&2
    rm -f target/resilience-flood.log
    printf '%s\n' \
        '{"id":1,"bench":"qaoa_n6"}' \
        '{"id":2,"bench":"qaoa_n6"}' \
        '{"id":3,"bench":"qaoa_n6"}' \
        '{"id":4,"bench":"qaoa_n6"}' \
        | ./target/release/epocd --grape 1 --no-regroup --queue-limit 1 \
            --log target/resilience-flood.log \
        > target/resilience-flood.out
    grep -q '"rejected":"queue_full"' target/resilience-flood.out \
        || { echo "resilience-smoke: flood produced no queue_full rejection" >&2; exit 1; }
    grep -q '"ok":true' target/resilience-flood.out \
        || { echo "resilience-smoke: no job completed under the flood" >&2; exit 1; }
    run ./target/release/trace_check --require-event job.rejected \
        --log target/resilience-flood.log
    echo "==> epocd resilience-smoke (deadline job fails typed, daemon survives)" >&2
    printf '%s\n' \
        '{"id":5,"bench":"qaoa_n6","deadline_ms":0}' \
        '{"id":6,"bench":"ghz_n4"}' \
        '{"cmd":"shutdown"}' \
        | ./target/release/epocd --grape 0 \
        > target/resilience-deadline.out
    sed -n 1p target/resilience-deadline.out | grep -q 'deadline' \
        || { echo "resilience-smoke: deadline job did not fail typed" >&2; exit 1; }
    sed -n 2p target/resilience-deadline.out | grep -q '"ok":true' \
        || { echo "resilience-smoke: daemon did not survive the deadline job" >&2; exit 1; }
    echo "==> epocd resilience-smoke (kill -9 mid-batch, journal replay)" >&2
    rm -f target/resilience-lib.json target/resilience-journal.jsonl
    mkfifo target/resilience-stdin.fifo
    ./target/release/epocd --grape 1 --no-regroup \
        --library target/resilience-lib.json \
        --journal target/resilience-journal.jsonl \
        < target/resilience-stdin.fifo > target/resilience-cold.out &
    epocd_pid=$!
    exec 9> target/resilience-stdin.fifo
    printf '%s\n' '{"id":7,"bench":"qaoa_n6"}' >&9
    for _ in $(seq 1 100); do
        grep -q '"id":7' target/resilience-cold.out 2>/dev/null && break
        sleep 0.2
    done
    grep -q '"id":7.*"ok":true' target/resilience-cold.out \
        || { echo "resilience-smoke: cold journal job failed" >&2; exit 1; }
    kill -9 "$epocd_pid"
    wait "$epocd_pid" 2>/dev/null || true
    exec 9>&-
    rm -f target/resilience-stdin.fifo
    [ ! -e target/resilience-lib.json ] \
        || { echo "resilience-smoke: checkpoint ran before kill -9 (test is vacuous)" >&2; exit 1; }
    [ -s target/resilience-journal.jsonl ] \
        || { echo "resilience-smoke: journal is empty after kill -9" >&2; exit 1; }
    printf '%s\n' '{"id":8,"bench":"qaoa_n6"}' '{"cmd":"shutdown"}' \
        | ./target/release/epocd --grape 1 --no-regroup \
            --library target/resilience-lib.json \
            --journal target/resilience-journal.jsonl \
        > target/resilience-warm.out
    grep -q '"id":8.*"cache_misses":0' target/resilience-warm.out \
        || { echo "resilience-smoke: journal replay lost inserts (cache misses on warm restart)" >&2; exit 1; }
    grep -q '"id":8.*"grape_iterations":0' target/resilience-warm.out \
        || { echo "resilience-smoke: warm restart re-ran GRAPE" >&2; exit 1; }
    echo "==> resilience-smoke OK (typed shedding, typed deadlines, lossless kill -9 restart)"
fi

# sim-smoke: compile a small benchmark with the default hybrid flow, dump
# the schedule, validate it structurally (payloads included — the epoc
# flow must emit simulatable schedules), and replay it at pulse level
# asserting >= 0.99 noiseless process fidelity against the circuit
# unitary. This is the end-to-end digital-twin check: it fails on
# scheduling bugs and wrong block embeddings that GRAPE's own per-block
# fidelity cannot see. It checks one circuit through the CLI; suite-wide
# replay coverage (every circuit of EXPERIMENTS.md's replay table, each
# held to >= 0.98 fidelity and to within 2e-3 of its ESP) is the
# tests/replay_oracle.rs integration test in the test step above.
if [ "$quick" -eq 0 ]; then
    run ./target/release/epocc --simulate --sim-check 0.99 \
        --schedule target/sim-smoke-schedule.json bench:wstate_n3
    run ./target/release/schedule_check --require-payloads \
        target/sim-smoke-schedule.json
fi

# hw-smoke: compile under the transmon_awg_8bit control-electronics model
# (8-bit DAC, Gaussian line filter, neighbour crosstalk, slew limit) and
# replay the *conditioned* schedule at pulse level. Constrained GRAPE must
# recover >= 0.95 simulated process fidelity — post-hoc conditioning of
# ideal-electronics pulses lands well below that on the same benchmark
# (see EXPERIMENTS.md), so this gate fails if constraint-aware
# optimization regresses.
if [ "$quick" -eq 0 ]; then
    run ./target/release/epocc --hw transmon_awg_8bit \
        --simulate --sim-check 0.95 bench:wstate_n3
fi

echo "CI OK"

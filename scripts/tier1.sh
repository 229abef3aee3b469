#!/usr/bin/env bash
# Tier-1 gate: everything that must stay green on every commit.
#
#   scripts/tier1.sh
#
# Checks formatting, builds the workspace in release mode (the benches
# depend on it), runs the full test suite, holds the code to a
# warning-free clippy bar, and emits a metrics snapshot artifact from a
# short instrumented bench run (BENCH_store_concurrency_metrics.{json,prom})
# so every gate run leaves behind an inspectable picture of the commit
# path's counters and latency histograms.
set -euo pipefail

cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo build --release --workspace
cargo test -q --workspace
cargo clippy --all-targets --workspace -- -D warnings

# Commit-path herd, again in release mode (the debug run above is too slow
# to shake out interleavings): 8 threads on hot keys at every isolation
# level, asserting no lost updates and per-row monotonic, globally unique
# commit timestamps, plus the SSI window soak (bounded without gc()).
cargo test -q --release -p wsi-store --test commit_stress

# Version-store gates: the adaptive layout must be observationally
# equivalent to its flat reference (proptest over randomized
# interleavings, both isolation levels), and the 8-thread invariant herd
# runs in release mode against both — with a concurrent GC/reclamation
# thread — plus the metrics exposition.
cargo test -q -p wsi-store --test store_equivalence
cargo test -q --release -p wsi-store --test store_stress

# Adaptive-arena bench smoke: the packed-node claim/seal/spill/consolidate
# protocol must drain a contended multi-thread sweep end-to-end (a
# liveness bug in seal's claim-drain spin or the consolidation splice
# hangs here, not in the single-threaded unit tests). Scratch dir so the
# reduced-scale artifact never clobbers the committed full-scale one.
mvcc_scaling_bin="$(pwd)/target/release/mvcc_scaling"
adaptive_scratch="$(mktemp -d)"
(cd "$adaptive_scratch" && "$mvcc_scaling_bin" 100 5 >/dev/null)
rm -rf "$adaptive_scratch"

# Lock-free protocol models, fast configuration: chain-head CAS publish
# vs. concurrent readers, epoch advance vs. retire/free, the packed-node
# claim/seal occupancy protocol, and the migration splice vs. a mid-chain
# reader. 32 fuzzed schedules per model keeps the gate seconds-scale; the
# default (64) runs when the suite is invoked without LOOM_MAX_ITERS.
LOOM_MAX_ITERS=32 cargo test -q --release -p wsi-store --features loom --test loom_protocols

# Deterministic simulation gate: the seeded fault matrix (one Db at every
# isolation level × every fault plan × three seeds, every oracle armed on
# every run) plus
# the same-seed replay regression and the planted-bug canary. Any oracle
# panic prints a DST_SEED=… repro line — copy-paste it verbatim to replay
# the failing schedule byte-for-byte, and dumps the flight-recorder
# journal tail alongside it.
cargo test -q -p wsi-dst

# Flight-recorder gates: journal/counter/WAL reconciliation at all three
# isolation levels, culprit-attributed abort forensics for each conflict class
# (WW under SI, RW under WSI, pivot under SSI), and the retry-report
# surface of Db::run. These run in the workspace suite above too; naming
# them here makes the observability bar explicit and keeps a local
# `cargo test -p wsi-store` green insufficient to skip them.
cargo test -q -p wsi-store --test obs_reconcile
cargo test -q -p wsi-store --test explain_abort
cargo test -q -p wsi-store --test retry_report

# Metrics snapshot artifact: small op count — this is an exposition smoke
# test, not a benchmark run.
./target/release/store_concurrency 200 0

# Every bench harness still runs and emits parseable artifacts.
scripts/bench_smoke.sh

# End-to-end smoke: a traced 1-second run of every BENCHMARK.json workload
# through the benchmark's own command. A run exits nonzero when any of its
# content, tally, span or recovery checks fails.
mapfile -t e2e_cmd < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
e2e_log="$(mktemp)"
for workload in $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))'); do
    if ! "${e2e_cmd[@]}" --workload "$workload" --seed 1 --seconds 1 --trace 1 >"$e2e_log" 2>&1; then
        cat "$e2e_log"
        echo "error: e2e smoke failed on $workload" >&2
        exit 1
    fi
done
rm -f "$e2e_log"

#!/usr/bin/env bash
# Tier-1 verification: build, test, and a bounded deterministic sweep of
# the paper's safety matrix. Fully offline — all dependencies are
# path-vendored and feral-sim uses no network, wall-clock, or timing.
set -euo pipefail
cd "$(dirname "$0")"

echo "== tier1: release build =="
cargo build --release

echo "== tier1: clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier1: rustfmt check =="
cargo fmt --check

echo "== tier1: test suite =="
# `default-members` is the whole workspace, so the bare command runs
# every crate's suites: the commit-path invariants of the engine, the
# wire tier and the service layer (visible => durable, ack => durable,
# no orphaned commit tail and no lost flush lead, a worker that never
# sleeps in an fsync, the overload contract, no lost wake-up, an inline
# reply that makes no hand-off), the planner-vs-all-serializable
# ablation served over the socket with the runtime auditor attached
# (crates/net/tests/served_ablation.rs), the ORM's read-path bounds, and
# the simulator, sdg, plan, audit and racer suites that used to be gated
# by nothing.
cargo test -q

echo "== tier1: feral-sim bounded systematic sweep =="
# The full matrix is exhaustive in < 10k schedules per cell; the bound
# only guards against regressions that explode the schedule space.
# Cells default to sleep-set DPOR — safe cells must report a complete
# sweep with the pruning counters intact.
cargo run --release -q -p feral-sim -- matrix --max-runs 50000

echo "== tier1: DPOR sweep beyond the full-enumeration budget =="
# 4 concurrent uniqueness transactions at serializable: the schedule
# tree has ~2.18e12 interleavings, so plain DFS cannot finish inside
# any tier-1 budget (it exhausts 200k runs without completing). The
# sleep-set DPOR explorer covers the space *exactly* in ~4k executed
# runs; gate on completeness, the exact Mazurkiewicz accounting, and a
# wall-clock ceiling so the reduction itself never regresses.
DPOR_OUT=$(mktemp /tmp/SIM_dpor.XXXXXX.json)
DPOR_START=$SECONDS
cargo run --release -q -p feral-sim -- systematic --scenario uniqueness \
  --isolation serializable --workers 4 --strategy dpor \
  --max-runs 200000 --json > "$DPOR_OUT"
DPOR_ELAPSED=$(( SECONDS - DPOR_START ))
grep -q '"complete":true' "$DPOR_OUT"
grep -q '"pruned_exact":true' "$DPOR_OUT"
grep -q '"schedules_pruned":2176957547132' "$DPOR_OUT"
rm -f "$DPOR_OUT"
if [ "$DPOR_ELAPSED" -gt 60 ]; then
  echo "DPOR sweep took ${DPOR_ELAPSED}s (budget 60s)" >&2
  exit 1
fi

echo "== tier1: feral-sdg static matrix, cross-validated =="
# Static dependency-graph verdicts for 4 template pairs x 4 isolation
# levels. --validate replays a feral-sim witness for every UNSAFE cell
# (directed DPOR, seeded-random fallback), exhaustively sweeps every
# SAFE cell under DPOR, and diffs each row against the iconfluence
# model checker; any disagreement exits non-zero. The JSON artifact —
# including the per-cell validation evidence: witness provenance and
# the sweep's pruning counters, all deterministic — must be
# byte-identical to the checked-in golden.
SDG_OUT=$(mktemp /tmp/BENCH_sdg.XXXXXX.json)
cargo run --release -q -p feral-sdg -- matrix --validate --json --out "$SDG_OUT"
diff "$SDG_OUT" results/BENCH_sdg.golden.json
rm -f "$SDG_OUT"

echo "== tier1: feral-racer self-hosting concurrency discipline =="
# Lock-order and atomics discipline for the workspace's own concurrency
# core, statically checked: zero findings on the live tree, every
# FERALRS rule proven live against its seeded-fault fixture
# (mutation-style — a rule that stops firing fails the gate), and the
# full acquisition inventory byte-identical to the checked-in golden.
RACER_OUT=$(mktemp /tmp/BENCH_racer.XXXXXX.json)
cargo run --release -q -p feral-racer -- check --json --validate --out "$RACER_OUT"
diff "$RACER_OUT" results/BENCH_racer.golden.json
rm -f "$RACER_OUT"

echo "== tier1: feral-trace docs (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q -p feral-trace

echo "== tier1: trace smoke gate (table1 --smoke) =="
# table1 self-validates the report (exits non-zero on schema or
# histogram-integrity failure); re-check the artifact from the outside
# too: parseable, non-zero commits, well-formed histograms, and at
# least one explained race with a replayable witness.
SMOKE_OUT=$(mktemp /tmp/BENCH_table1.XXXXXX.json)
cargo run --release -q -p feral-bench --bin table1 -- --smoke --out "$SMOKE_OUT" > /dev/null
cargo run --release -q -p feral-bench --bin checkreport -- "$SMOKE_OUT"
rm -f "$SMOKE_OUT"

echo "== tier1: commit pipeline smoke gate (commitbench --smoke) =="
# Gates on its own exit code: the sharded group-commit pipeline must
# beat the single-latch baseline >= 2x at 8 workers (uniform keys,
# synced WAL), every feral-sim sweep must agree with the feral-sdg
# verdict for its lock-rmw cell, and statically-safe isolation levels
# must lose zero updates in a live 2-thread RMW race.
COMMIT_OUT=$(mktemp /tmp/BENCH_commit.XXXXXX.json)
cargo run --release -q -p feral-bench --bin commitbench -- --smoke --out "$COMMIT_OUT" > /dev/null
rm -f "$COMMIT_OUT"

echo "== tier1: certified isolation plan (feral-plan certify --validate) =="
# Re-derive the corpus plan, re-validate every cell's certificate
# (static gate + per-slot minimality, complete DPOR sweep at the
# assigned levels, replaying witness at the next-weaker configuration
# for every escalated cell), and byte-diff the certified artifact
# against the checked-in golden. Any drift exits non-zero.
cargo run --release -q -p feral-plan -- certify \
  --validate results/BENCH_plan.golden.json --out /dev/null

echo "== tier1: planner ablation smoke gate (commitbench planner --smoke) =="
# Gates on its own exit code: every plan cell re-certifies through
# feral-sim, the planned execution meets all-serializable throughput
# at 8 workers (paired per-pass median, 5% noise allowance), both
# run with a clean end-of-run integrity audit
# (the all-read-committed ablation is reported, not gated — its
# anomalies are the point), and the planner configuration reports
# index_probes >= scans: a template whose probe lost its index walks a
# table, and the workload would measure the walk again, not coordination.
PLANNER_OUT=$(mktemp /tmp/BENCH_planner.XXXXXX.json)
cargo run --release -q -p feral-bench --bin commitbench -- planner --smoke --out "$PLANNER_OUT" > /dev/null
rm -f "$PLANNER_OUT"

echo "== tier1: runtime audit smoke gate (commitbench audit --smoke) =="
# Gates on its own exit code: sampled-mode auditing must stay within 5%
# of auditor-off throughput at 8 workers (median of per-pass ratios,
# each pass bracketing the audited runs between two auditor-off runs
# so drift cancels), every audited run of the certified plan must
# finish with
# zero anomaly cycles and zero integrity anomalies, and every captured
# snapshot must pass the audit export schema. The artifact is then
# re-gated from the outside by checkreport --audit.
AUDIT_OUT=$(mktemp /tmp/BENCH_audit.XXXXXX.json)
cargo run --release -q -p feral-bench --bin commitbench -- audit --smoke --out "$AUDIT_OUT" > /dev/null
cargo run --release -q -p feral-bench --bin checkreport -- --audit "$AUDIT_OUT"
rm -f "$AUDIT_OUT"

echo "== tier1: end-to-end benchmark smoke gate (feral-benchmark all --smoke) =="
# Gates on its own exit code: the four BENCHMARK.json workloads (durable
# signup over TCP, read-mostly over TCP and in process, planner-hot in
# process) at tiny counts, each in a process of its own — output checks,
# sent == correct + failed accounting, the durable workload's "0
# acknowledged signups missing after recovery", integrity_audit() == 0.
# benchmark/ is a package of its own (own lock file and target dir), so
# this is also the only gate that notices an engine or wire API change
# the benchmark no longer compiles against. --locked fails the gate when a
# change would make cargo rewrite benchmark/Cargo.lock (a dependency added
# to or dropped from a crate the benchmark resolves), instead of editing
# a file under benchmark/ as a side effect.
cargo run --release --offline --locked -q --manifest-path benchmark/Cargo.toml -- all --smoke > /dev/null

echo "== tier1: OK =="

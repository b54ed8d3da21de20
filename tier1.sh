#!/usr/bin/env bash
# Tier-1 verification: build, test, and a bounded deterministic sweep of
# the paper's safety matrix. Fully offline — all dependencies are
# path-vendored and feral-sim uses no network, wall-clock, or timing.
set -euo pipefail
cd "$(dirname "$0")"

# Each stanza starts with `stanza NAME`, which first prints the wall
# seconds the previous stanza took, so a slow run names its slow stanza.
STANZA=""
STANZA_START=$SECONDS
stanza() {
  if [ -n "$STANZA" ]; then
    echo "-- tier1: $STANZA took $(( SECONDS - STANZA_START )) s"
  fi
  STANZA=$1
  STANZA_START=$SECONDS
  echo "== tier1: $1 =="
}

stanza "release build"
cargo build --release

stanza "clippy (deny warnings)"
# Every `unsafe` block carries a `// SAFETY:` comment that says why it
# is sound: clippy's undocumented_unsafe_blocks, over every workspace
# crate, its tests and the vendored shims.
cargo clippy --workspace --all-targets -- -D warnings \
  -D clippy::undocumented_unsafe_blocks

stanza "rustfmt check"
cargo fmt --check

stanza "test suite"
# `default-members` is the whole workspace, so the bare command runs
# every crate's suites: the commit-path invariants of the engine, the
# wire tier and the service layer (visible => durable, ack => durable,
# no orphaned commit tail and no lost flush lead, a worker that never
# sleeps in an fsync, the overload contract, no lost wake-up, an inline
# reply that makes no hand-off), the planner-vs-all-serializable
# ablation served over the socket with the runtime auditor attached
# (crates/net/tests/served_ablation.rs), the ORM's read-path bounds, and
# the simulator, sdg, plan and audit suites that used to be gated by
# nothing. Three count tests stand where wall-clock ratios used to gate:
# concurrent commits piled up behind a stalled WAL writer share flushes,
# at most two per round of four
# (feraldb/tests/group_commit_recovery.rs::group_commit_batches_concurrent_commits),
# the certified plan allocates no more per transaction than
# all-serializable and less where it weakens a template
# (net/tests/planner_templates.rs), and sampled auditing adds at most an
# eighth of what full auditing adds to a committing thread
# (feraldb/tests/audit_live.rs). A live two-thread read-modify-write race
# loses no update at Snapshot or Serializable
# (feraldb/tests/isolation.rs). Serializable validation reads version
# chains, not a commit history: isolation.rs's
# serializable_validation_sees_every_conflict_kind_with_and_without_an_index
# and a_conflict_behind_many_unrelated_commits_still_aborts_the_reader
# check each conflict kind, and commit.rs's
# a_commit_never_computes_the_horizon that no commit takes another
# thread's active-stripe lock. commit.rs's
# racing_synchronous_publishes_each_return_at_their_timestamp races
# committers that yield before they park on a predecessor's publish,
# lock.rs's sequential_keys_spread_over_every_stripe checks that the
# seedless lock-table hash spreads sequential keys over every stripe,
# and constraints.rs's
# an_index_built_under_an_open_snapshot_serves_it_what_a_walk_does
# checks that an index backfill posts every version's key. Tests build
# with debug assertions, so every lock they take
# goes through the parking_lot shim's lock validator: an acquisition
# that could deadlock against an order seen earlier aborts the test
# binary naming both sites (vendor/parking_lot/tests/lockdep.rs). The
# trace ring's seqlock is raced by a test of its own
# (crates/trace/src/ring.rs).
cargo test -q

stanza "feral-sim bounded systematic sweep"
# The full matrix is exhaustive in < 10k schedules per cell; the bound
# only guards against regressions that explode the schedule space.
# Cells default to sleep-set DPOR — safe cells must report a complete
# sweep with the pruning counters intact.
cargo run --release -q -p feral-sim -- matrix --max-runs 50000

stanza "DPOR sweep beyond the full-enumeration budget"
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

stanza "feral-sdg static matrix, cross-validated"
# Static dependency-graph verdicts for 4 template pairs x 4 isolation
# levels. --validate replays a feral-sim witness for every UNSAFE cell
# (a directed DPOR sweep), exhaustively sweeps every
# SAFE cell under DPOR, and diffs each row against the iconfluence
# model checker; any disagreement exits non-zero. The JSON artifact —
# including the per-cell validation evidence: witness provenance and
# the sweep's pruning counters, all deterministic — must be
# byte-identical to the checked-in golden.
SDG_OUT=$(mktemp /tmp/BENCH_sdg.XXXXXX.json)
cargo run --release -q -p feral-sdg -- matrix --validate --json --out "$SDG_OUT"
diff "$SDG_OUT" results/BENCH_sdg.golden.json
rm -f "$SDG_OUT"

stanza "workspace docs (deny warnings)"
# Every workspace crate's rustdoc, broken intra-doc links included. The
# vendored dependency shims are not ours (proptest's has an ambiguous
# `vec` link of its own), so they are left out — except parking_lot,
# which carries the workspace's own lock validator.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q --workspace --exclude proptest \
  --exclude crossbeam --exclude rand

stanza "trace smoke gate (table1 --smoke)"
# table1 self-validates the report (exits non-zero on schema or
# histogram-integrity failure); `check` re-checks the artifact from the
# outside too: parseable, non-zero commits, well-formed histograms, and
# at least one explained race with a replayable witness.
SMOKE_OUT=$(mktemp /tmp/BENCH_table1.XXXXXX.json)
cargo run --release -q -p feral-bench --bin feral-paper -- table1 --smoke --out "$SMOKE_OUT" > /dev/null
cargo run --release -q -p feral-bench --bin feral-paper -- check "$SMOKE_OUT"
rm -f "$SMOKE_OUT"

stanza "certified isolation plan (feral-plan certify --validate)"
# Re-derive the corpus plan, re-validate every cell's certificate
# (static gate + per-slot minimality, complete DPOR sweep at the
# assigned levels, replaying witness at the next-weaker configuration
# for every escalated cell), and byte-diff the certified artifact
# against the checked-in golden. Any drift exits non-zero.
cargo run --release -q -p feral-plan -- certify \
  --validate results/BENCH_plan.golden.json --out /dev/null

stanza "end-to-end benchmark smoke gate (feral-benchmark all --smoke)"
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

stanza "OK"

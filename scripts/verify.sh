#!/usr/bin/env sh
# Tier-1 verification: the workspace must build and test fully offline.
# The --offline flags double as a hermeticity check — any registry
# dependency that sneaks back in fails resolution immediately (see also
# tests/hermetic.rs, which reports the offending manifest line).
set -eu
cd "$(dirname "$0")/.."

# Per-gate wall-time accounting: every stage below reports how long it
# took, so a CI slowdown points at its stage instead of the whole run.
GATE_T0=$(date +%s)
gate_time() {
    GATE_NOW=$(date +%s)
    echo "[verify] $1: $((GATE_NOW - GATE_T0))s"
    GATE_T0=$GATE_NOW
}

# Fast CI profile: cap property-test cases per property unless the
# caller pins their own value. A plain `cargo test` (outside this
# script) keeps the full default of 64 cases; the coverage smoke test
# in crates/core/tests/proptest_pipeline.rs guards that this reduced
# profile still exercises every query class.
DBPAL_CHECK_CASES="${DBPAL_CHECK_CASES:-16}"
export DBPAL_CHECK_CASES

# Static hygiene first: a determinism hazard invalidates everything the
# test run would tell us about reproducibility. lint_gate (dbpal-lint)
# lexes every workspace source, applies the L### rule catalog under the
# justified allowlist (scripts/lint_allowlist.txt), checks for stale
# entries, and writes BENCH_lint.json for the report lint at the end.
DBPAL_BENCH_JSON="$PWD/BENCH_lint.json" \
  cargo run --release --offline -p dbpal-bench --bin lint_gate
cargo fmt --check
gate_time "lint_gate + fmt"

cargo build --release --offline --workspace
gate_time "build"
cargo test -q --offline --workspace
gate_time "test"

# Fast-profile generation under the default Reject analyzer policy:
# every generated pair must analyze clean (zero rejects, zero E-codes).
cargo run --release --offline -p dbpal-bench --bin analyze_gate -- --quick
gate_time "analyze_gate"

# Seeded fixed-budget fuzz over the three differential oracles
# (roundtrip, canonicalizer soundness, analyzer coherence). Runs the
# same budget at 1 and 8 worker threads and requires byte-identical
# reports; any finding prints its minimized corpus case and fails.
DBPAL_FUZZ_ITERS="${DBPAL_FUZZ_ITERS:-200}"
export DBPAL_FUZZ_ITERS
cargo run --release --offline -p dbpal-bench --bin fuzz_smoke
gate_time "fuzz_smoke"

# Serving-layer gate: seeded mixed workload through dbpal-serve must hit
# the cache above the seeded floor, shed nothing at the default queue
# depth, export byte-identical deterministic metrics at 1 and 8 workers
# (for the single-tenant workload and the interleaved three-tenant one),
# and shed exactly the over-limit tail (typed errors) under saturation.
cargo run --release --offline -p dbpal-bench --bin serve_gate -- --quick
gate_time "serve_gate"

# Multi-tenant gate: the seeded three-tenant workload must export
# deterministic per-tenant counters at any worker count, quota sheds
# must be exact (typed TenantOverloaded, neighbors untouched), and a
# database hot-swap must invalidate only the swapped tenant's cache
# shard. Writes BENCH_tenant.json with the `tenants` section the lint
# below requires.
DBPAL_BENCH_JSON="$PWD/BENCH_tenant.json" \
  cargo run --release --offline -p dbpal-bench --bin tenant_gate -- --quick
gate_time "tenant_gate"

# Machine-readable perf trajectory: regenerate the bench reports in
# quick mode and lint them against the schema in DESIGN.md with the
# in-repo JSON parser. (cargo bench runs binaries with the package dir
# as cwd, so the output paths are pinned via DBPAL_BENCH_JSON.)
# The committed baselines are snapshotted first so the compare gate
# below can diff fresh-vs-committed after regeneration overwrites them.
BASELINE_DIR="$(mktemp -d)"
trap 'rm -rf "$BASELINE_DIR"' EXIT
cp BENCH_pipeline.json BENCH_serve.json BENCH_corpus.json "$BASELINE_DIR/"
DBPAL_BENCH_JSON="$PWD/BENCH_pipeline.json" \
  cargo bench --offline -q -p dbpal-bench --bench pipeline -- --quick
DBPAL_BENCH_JSON="$PWD/BENCH_serve.json" \
  cargo bench --offline -q -p dbpal-bench --bench serve -- --quick
DBPAL_BENCH_JSON="$PWD/BENCH_corpus.json" \
  cargo bench --offline -q -p dbpal-bench --bench corpus -- --quick
gate_time "bench regen"

# Network load gate: closed-loop clients against a live dbpal-server
# socket, twice. Requires zero protocol errors / mismatches / sheds, a
# byte-identical deterministic payload across the two runs, and the QPS
# floor (DBPAL_LOAD_QPS_FLOOR, default 200). Merges the `load` section
# into BENCH_serve.json, which the lint below then requires and checks.
# DBPAL_LOAD_CLIENTS / _WARMUP / _REQUESTS / _BATCH / _SEED tune the
# reduced --quick profile.
DBPAL_BENCH_JSON="$PWD/BENCH_serve.json" \
  cargo run --release --offline -p dbpal-bench --bin load_gate -- --quick
gate_time "load_gate"

# Streaming-corpus gate: bounded-memory multi-round generation into a
# JSONL sink. Asserts the pair target (10k quick; DBPAL_CORPUS_PAIRS
# overrides, 100k default for full runs), zero analyzer rejects, the
# DBPAL_CORPUS_MEM_MB ceiling against the kernel's VmRSS, byte-identical
# JSONL digests at 1 vs 8 threads, a JSONL round-trip, and
# deterministic provenance-weighted splits. Merges the
# `corpus` section into BENCH_corpus.json, which the lint below
# requires for the corpus group.
DBPAL_BENCH_JSON="$PWD/BENCH_corpus.json" \
  cargo run --release --offline -p dbpal-bench --bin corpus_gate -- --quick
gate_time "corpus_gate"

cargo run --release --offline -p dbpal-bench --bin bench_json_lint -- \
  BENCH_pipeline.json BENCH_serve.json BENCH_tenant.json BENCH_lint.json \
  BENCH_corpus.json

# Perf regression gate: the fresh medians must sit within their group's
# tolerance band (default x3; wider x4 for the whole-run corpus group;
# DBPAL_BENCH_TOLERANCE / DBPAL_BENCH_TOLERANCE_<GROUP> override, both
# directions) of the committed baselines, and the thread-scaling pairs
# must satisfy threads4 <= threads1 x DBPAL_BENCH_PARITY (default
# x1.05) — the persistent worker pool keeps fan-out from costing
# wall-clock.
cargo run --release --offline -p dbpal-bench --bin bench_json_lint -- --compare \
  "$BASELINE_DIR/BENCH_pipeline.json" BENCH_pipeline.json \
  "$BASELINE_DIR/BENCH_serve.json" BENCH_serve.json \
  "$BASELINE_DIR/BENCH_corpus.json" BENCH_corpus.json
gate_time "bench lint + compare"

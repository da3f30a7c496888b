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
# test run would tell us about reproducibility. The self-lint test
# (crates/lint/tests/selflint.rs) lexes every workspace source, applies
# the L### rule catalog under the justified allowlist
# (scripts/lint_allowlist.txt), fails on any violation or stale entry,
# and requires a byte-identical report at 1 and 8 threads.
cargo test -q --offline -p dbpal-lint --test selflint
cargo fmt --check
gate_time "selflint + fmt"

cargo build --release --offline --workspace
gate_time "build"
# The test suite also holds the serving, analyzer and fuzz checks:
# seeded single- and three-tenant request sequences whose deterministic
# metrics exports are pinned by digest, with hit-rate, shed and
# per-tenant counter asserts (crates/serve/tests/{serve,tenants}.rs),
# a request served entirely on its caller's thread, exact typed sheds
# under saturation and tenant quotas, shard-scoped hot-swaps, clean
# Reject-policy generation
# (crates/core/tests/proptest_analyze.rs), and a seeded 200-iteration
# fuzz run over the three differential oracles that must come back
# clean and byte-identical at 1 and 8 threads
# (crates/fuzz/tests/fuzz_smoke.rs).
cargo test -q --offline --workspace
gate_time "test"

# The benchmark (e2ebench/, its own workspace) calls the program's
# public API and pins its own lock file. Building and testing it on
# every change catches a removed call it makes, and --locked fails if a
# workspace edit would rewrite e2ebench/Cargo.lock.
cargo test -q --offline --locked --manifest-path e2ebench/Cargo.toml \
  --target-dir target/e2ebench
gate_time "e2ebench test"

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
# byte-identical deterministic payload across the two runs, and a
# 200-QPS floor. Merges the `load` section into BENCH_serve.json, which
# the lint below then requires and checks.
DBPAL_BENCH_JSON="$PWD/BENCH_serve.json" \
  cargo run --release --offline -p dbpal-bench --bin load_gate -- --quick
gate_time "load_gate"

# Streaming-corpus gate: bounded-memory multi-round generation into a
# JSONL sink. Asserts the pair target (10k quick; DBPAL_CORPUS_PAIRS
# overrides, 100k default for full runs), zero analyzer rejects, the
# 2048 MiB ceiling against the kernel's VmRSS, byte-identical
# JSONL digests at 1 vs 8 threads, a JSONL round-trip, and
# deterministic provenance-weighted splits. Merges the
# `corpus` section into BENCH_corpus.json, which the lint below
# requires for the corpus group.
DBPAL_BENCH_JSON="$PWD/BENCH_corpus.json" \
  cargo run --release --offline -p dbpal-bench --bin corpus_gate -- --quick
gate_time "corpus_gate"

cargo run --release --offline -p dbpal-bench --bin bench_json_lint -- \
  BENCH_pipeline.json BENCH_serve.json BENCH_corpus.json

# Perf regression gate: the fresh medians must sit within their group's
# tolerance band (default x3; wider x4 for the whole-run corpus group;
# DBPAL_BENCH_TOLERANCE / DBPAL_BENCH_TOLERANCE_<GROUP> override, both
# directions) of the committed baselines, and the pipeline's
# thread-scaling pair must satisfy threads4 <= threads1 x
# DBPAL_BENCH_PARITY (default x1.05) — the persistent worker pool keeps
# fan-out from costing wall-clock. The serve rows have no pair: a
# request runs on its caller's thread.
cargo run --release --offline -p dbpal-bench --bin bench_json_lint -- --compare \
  "$BASELINE_DIR/BENCH_pipeline.json" BENCH_pipeline.json \
  "$BASELINE_DIR/BENCH_serve.json" BENCH_serve.json \
  "$BASELINE_DIR/BENCH_corpus.json" BENCH_corpus.json
gate_time "bench lint + compare"

#!/usr/bin/env bash
# The benchmark gate: run every bench group that bench_gate checks into
# a fresh BENCH_latest.json, then compare it with BENCH_baseline.json
# (regression, overhead, speedup and per-element ceilings) and append
# the result to BENCH_history.ndjson. bench_gate fails any gated row the
# run did not produce, so this list is the one place the gated set is
# kept. Both ci.sh and the GitHub Actions workflow run it, after
# ci/stream_gate.sh: the history row joins to that gate's run manifest,
# <manifest> (relative to the repository root).
# Usage: ci/bench_gate.sh <manifest>
set -euo pipefail
cd "$(dirname "$0")/.."
MANIFEST="${1:?usage: ci/bench_gate.sh <manifest>}"

BENCHES=(
  trace_io
  pipeline
  streaming_pipeline
  trace_overhead
  window_overhead
  sketch_overhead
  filter_engine
  detector_overhead
)

echo "==> cargo bench (gated: ${BENCHES[*]})"
rm -f BENCH_latest.json
for bench in "${BENCHES[@]}"; do
  BENCH_JSON="$PWD/BENCH_latest.json" cargo bench -p bench --bench "$bench"
done

echo "==> bench_gate (regression + overhead + compiled-engine speedup/throughput floors)"
# --manifest joins the history row to the streaming run that the stream
# gate just verified: the row carries that run's config_fnv and dataset fnv.
cargo run --release -q -p bench --bin bench_gate -- BENCH_baseline.json BENCH_latest.json \
  --stamp "$(git rev-parse --short HEAD 2>/dev/null || echo local)" \
  --manifest "$MANIFEST"

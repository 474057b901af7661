#!/usr/bin/env bash
# The streaming checkpoint gate: stream-classify the small RBN-1 trace
# under a 256 MiB RSS ceiling, kill it (deterministically at ~50% of the
# chunks, then with a real SIGKILL), resume, and require byte-identical
# output; then replay the run manifests through `experiments verify`.
# It is the only end-to-end check of the checkpoint format. Both ci.sh
# and the GitHub Actions workflow run it; artifacts land in <dir>
# (relative to the repository root), whose full.manifest.json
# ci/bench_gate.sh then reads. Needs `cargo build --release` first.
# Usage: ci/stream_gate.sh <dir>
set -euo pipefail
cd "$(dirname "$0")/.."
STREAM_DIR="${1:?usage: ci/stream_gate.sh <dir>}"

echo "==> experiments stream (bounded memory + kill/resume gate)"
rm -rf "$STREAM_DIR"
mkdir -p "$STREAM_DIR"
# Generate the RBN-1 trace to disk slice by slice (never materialized),
# then stream-classify it. Stderr carries the machine-parseable peak-RSS
# line backing the flat-memory claim.
./target/release/experiments stream --rbn1 --scale small \
  --write-trace "$STREAM_DIR/rbn1.trace" \
  --quarantine "$STREAM_DIR/quarantine.ndjson" \
  --report "$STREAM_DIR/full.report" \
  --windows "$STREAM_DIR/full.windows" \
  --manifest "$STREAM_DIR/full.manifest.json" 2>"$STREAM_DIR/full.stderr"
grep -q '^trace RBN-1 ' "$STREAM_DIR/full.report"
rss="$(sed -n 's/^\[stream\] peak_rss_bytes=//p' "$STREAM_DIR/full.stderr")"
test -n "$rss"
# RSS ceiling: the small-scale pass must stay under 256 MiB. (The
# materialized path holds the whole trace; streaming must not.)
test "$rss" -lt $((256 * 1024 * 1024))
echo "    peak RSS $((rss / 1024 / 1024)) MiB (ceiling 256 MiB)"
# Deterministic kill at ~50% of the chunk count ("as if SIGKILLed"),
# then resume on a different thread count: the resumed report must be
# byte-identical to the uninterrupted run.
chunks="$(sed -n 's/.* chunks \([0-9][0-9]*\)$/\1/p' "$STREAM_DIR/full.report")"
half=$((chunks / 2))
[ "$half" -ge 1 ] || half=1
./target/release/experiments stream --trace "$STREAM_DIR/rbn1.trace" \
  --checkpoint-dir "$STREAM_DIR/ck" --checkpoint-every 1 \
  --stop-after-chunks "$half" --threads 3 >/dev/null 2>&1
./target/release/experiments stream --trace "$STREAM_DIR/rbn1.trace" \
  --checkpoint-dir "$STREAM_DIR/ck" --resume --threads 2 \
  --report "$STREAM_DIR/resumed.report" \
  --windows "$STREAM_DIR/resumed.windows" \
  --manifest "$STREAM_DIR/resumed.manifest.json" >/dev/null 2>&1
cmp "$STREAM_DIR/full.report" "$STREAM_DIR/resumed.report"
cmp "$STREAM_DIR/full.windows" "$STREAM_DIR/resumed.windows"
echo "    kill at chunk $half/$chunks + resume: report + windows byte-identical"
# A real SIGKILL mid-run (atomic checkpoint writes mean the survivor is
# always loadable): throttle the run, kill -9 once the first checkpoint
# lands, resume, byte-compare again.
./target/release/experiments stream --trace "$STREAM_DIR/rbn1.trace" \
  --checkpoint-dir "$STREAM_DIR/ck2" --checkpoint-every 2 \
  --throttle-ms 40 >/dev/null 2>&1 &
STREAM_PID=$!
for _ in $(seq 1 200); do
  [ -s "$STREAM_DIR/ck2/checkpoint.ndjson" ] && break
  sleep 0.05
done
test -s "$STREAM_DIR/ck2/checkpoint.ndjson"
kill -9 "$STREAM_PID" 2>/dev/null || true
wait "$STREAM_PID" 2>/dev/null || true
./target/release/experiments stream --trace "$STREAM_DIR/rbn1.trace" \
  --checkpoint-dir "$STREAM_DIR/ck2" --resume \
  --report "$STREAM_DIR/killed.report" >/dev/null 2>&1
cmp "$STREAM_DIR/full.report" "$STREAM_DIR/killed.report"
echo "    SIGKILL mid-run + resume: report byte-identical"

echo "==> experiments verify (run-manifest replay gate)"
# Layer 1: every digest recorded in the manifest still matches the bytes
# on disk. Layer 2: re-run the manifest's replay argv into a scratch dir
# and byte-compare — all-PASS or the gate fails. The resumed manifest is
# the acceptance proof: a checkpointed run that was killed and resumed
# must verify byte-identical against an uninterrupted replay.
./target/release/experiments verify --manifest "$STREAM_DIR/full.manifest.json" \
  --scratch "$STREAM_DIR/verify-full"
./target/release/experiments verify --manifest "$STREAM_DIR/resumed.manifest.json" \
  --scratch "$STREAM_DIR/verify-resumed"
echo "    full + resumed manifests verify all-PASS"

#!/usr/bin/env bash
# Local CI: every gate the GitHub Actions workflow runs, plus the ones it
# does not (the live population/alerts planes of the serve smoke test,
# and the population, alerts and stream-health gates). The streaming
# kill/resume + verify gate lives in ci/stream_gate.sh and the bench
# list + bench_gate in ci/bench_gate.sh; both this script and the
# workflow call them.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# Parallel == sequential must hold at the thread counts CI machines
# actually have, beyond the suite's built-in {1, 2, 8} grid.
for t in 1 4; do
  echo "==> parallel equivalence at ANNOYED_THREADS=$t"
  ANNOYED_THREADS=$t cargo test -q -p adscope --test parallel_equivalence
done

echo "==> compiled-engine differential gates (byte-identical classifications)"
cargo test -q -p abp-filter --test differential_compiled
cargo test -q --test engine_differential

echo "==> experiments metrics --scale small (exposition gate)"
# Capture, then grep: `... | grep -q` would close the pipe mid-print and
# kill the binary with SIGPIPE before it writes the artifacts.
metrics_out="$(./target/release/experiments metrics --scale small)"
grep -q "exposition: VALID" <<<"$metrics_out"
test -s target/experiments/metrics.prom
grep -q '^# TYPE ' target/experiments/metrics.prom
grep -q '^adscope_requests_classified_total ' target/experiments/metrics.prom
test -s target/experiments/events.ndjson

echo "==> experiments explain (provenance gate)"
explain_out="$(./target/release/experiments explain --url http://niceads.example/banner.gif)"
grep -q "trace: VALID" <<<"$explain_out"
grep -q "verdict: whitelisted" <<<"$explain_out"
test -s target/experiments/explain_trace.ndjson

echo "==> experiments serve smoke test (live scrape gate)"
rm -f target/experiments/serve.port
./target/release/experiments serve --port 0 --port-file target/experiments/serve.port \
  --scale small &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s target/experiments/serve.port ] && break
  sleep 0.1
done
test -s target/experiments/serve.port
SERVE_PORT="$(cat target/experiments/serve.port)"
healthz="$(./target/release/experiments fetch --port "$SERVE_PORT" --path /healthz --retries 20)"
grep -q '"status":"ok"' <<<"$healthz"
./target/release/experiments fetch --port "$SERVE_PORT" --path /metrics --retries 20 \
  --check-metrics >target/experiments/serve_metrics.prom
grep -q '^obs_serve_starts_total ' target/experiments/serve_metrics.prom
# Population plane: published once the RBN-1 replay lands; poll until
# the real table replaces the placeholder, then require the NDJSON body
# to parse line by line.
saw_pop=0
for _ in $(seq 1 300); do
  pop="$(./target/release/experiments fetch --port "$SERVE_PORT" --path /population --retries 2 2>/dev/null || true)"
  case "$pop" in *'# population'*) saw_pop=1; break ;; esac
  sleep 0.1
done
test "$saw_pop" = 1
./target/release/experiments fetch --port "$SERVE_PORT" --path /population/ndjson --retries 5 \
  --check-ndjson >target/experiments/serve_population.ndjson
grep -q '"event":"population"' target/experiments/serve_population.ndjson
grep -q '"event":"class"' target/experiments/serve_population.ndjson
# Alert plane: published right after the population plane; the rendered
# rule table must be live, the NDJSON body must parse line by line, and
# the alert gauges must appear in a fresh scrape.
saw_alerts=0
for _ in $(seq 1 100); do
  al="$(./target/release/experiments fetch --port "$SERVE_PORT" --path /alerts --retries 2 2>/dev/null || true)"
  case "$al" in *'alerts rules='*) saw_alerts=1; break ;; esac
  sleep 0.1
done
test "$saw_alerts" = 1
./target/release/experiments fetch --port "$SERVE_PORT" --path /alerts/ndjson --retries 5 \
  --check-ndjson >target/experiments/serve_alerts.ndjson
grep -q '"event":"alerts"' target/experiments/serve_alerts.ndjson
alerts_metrics="$(./target/release/experiments fetch --port "$SERVE_PORT" --path /metrics --retries 5 --check-metrics)"
grep -q '^obs_alerts_firing' <<<"$alerts_metrics"
./target/release/experiments fetch --port "$SERVE_PORT" --path /quitz >/dev/null
wait "$SERVE_PID"

# Artifacts of the stream gate, reused by the gates below.
STREAM_DIR=target/experiments/stream
./ci/stream_gate.sh "$STREAM_DIR"

echo "==> experiments population (streamed sketches vs materialized exact gate)"
# Stream-classify RBN-1 with population sketches on, then re-run the
# materialized exact path over the identical records: renders must be
# byte-identical and every sketch quantile within its error bound.
./target/release/experiments population --scale small --exact-check \
  --out "$STREAM_DIR/population.txt" --ndjson "$STREAM_DIR/population.ndjson" \
  --manifest "$STREAM_DIR/population.manifest.json" \
  >/dev/null 2>"$STREAM_DIR/population.stderr"
grep -q 'exact-check ok' "$STREAM_DIR/population.stderr"
grep -q '^# population' "$STREAM_DIR/population.txt"
grep -q '"event":"population"' "$STREAM_DIR/population.ndjson"
./target/release/experiments verify --manifest "$STREAM_DIR/population.manifest.json" \
  --scratch "$STREAM_DIR/verify-population"
echo "    streamed render == materialized exact render; manifest verifies"

echo "==> experiments alerts (drift detection + deterministic timeline gate)"
# The filter-list-lag drill: --check asserts the page rule is quiet
# before the injected cut-over, goes pending within the CUSUM ramp and
# fires, and that the timeline is byte-identical across thread counts
# and chunk sizes. The manifest then replays byte-identically.
./target/release/experiments alerts --scale small --check \
  --out "$STREAM_DIR/alerts.txt" --ndjson "$STREAM_DIR/alerts.ndjson" \
  --manifest "$STREAM_DIR/alerts.manifest.json" \
  >/dev/null 2>"$STREAM_DIR/alerts.stderr"
grep -q 'check: blocked_share_drop pending' "$STREAM_DIR/alerts.stderr"
grep -q 'byte-identical across threads' "$STREAM_DIR/alerts.stderr"
grep -q 'rule blocked_share_drop firing' "$STREAM_DIR/alerts.txt"
grep -q '"event":"alert"' "$STREAM_DIR/alerts.ndjson"
./target/release/experiments verify --manifest "$STREAM_DIR/alerts.manifest.json" \
  --scratch "$STREAM_DIR/verify-alerts"
echo "    list-lag drill fired at the cut-over; timeline deterministic; manifest verifies"

echo "==> stream health plane (stall watchdog gate)"
# Deterministic stall injection: the router sleeps 1.2 s after chunk 2
# against a 250 ms watchdog budget. /healthz must flip to "stalled"
# while the sleep holds, then recover to "ok" once the run finishes.
rm -f "$STREAM_DIR/health.port"
./target/release/experiments stream --rbn1 --scale small --chunk-records 2048 \
  --throttle-ms 60 --watchdog-ms 250 --stall-after-chunks 2 --stall-ms 1200 \
  --population \
  --serve-port 0 --serve-port-file "$STREAM_DIR/health.port" --serve-linger \
  >/dev/null 2>"$STREAM_DIR/health.stderr" &
HEALTH_PID=$!
for _ in $(seq 1 100); do
  [ -s "$STREAM_DIR/health.port" ] && break
  sleep 0.1
done
test -s "$STREAM_DIR/health.port"
HEALTH_PORT="$(cat "$STREAM_DIR/health.port")"
saw_stall=0
for _ in $(seq 1 100); do
  hz="$(./target/release/experiments fetch --port "$HEALTH_PORT" --path /healthz --retries 2 2>/dev/null || true)"
  case "$hz" in *'"status":"stalled"'*) saw_stall=1; break ;; esac
  sleep 0.1
done
test "$saw_stall" = 1
# While stalled the run is still live: /statusz must show the manifest
# header and per-worker progress rows.
statusz="$(./target/release/experiments fetch --port "$HEALTH_PORT" --path /statusz --retries 2)"
grep -q 'stream config_fnv=' <<<"$statusz"
grep -q 'health:' <<<"$statusz"
saw_ok=0
for _ in $(seq 1 300); do
  hz="$(./target/release/experiments fetch --port "$HEALTH_PORT" --path /healthz --retries 2 2>/dev/null || true)"
  case "$hz" in *'"status":"ok"'*'"run_active":false'*) saw_ok=1; break ;; esac
  sleep 0.2
done
test "$saw_ok" = 1
# The run streamed with --population: the lingering endpoint must hold
# the final published population plane.
pop="$(./target/release/experiments fetch --port "$HEALTH_PORT" --path /population --retries 5)"
grep -q '# population' <<<"$pop"
./target/release/experiments fetch --port "$HEALTH_PORT" --path /population/ndjson --retries 5 \
  --check-ndjson >/dev/null
./target/release/experiments fetch --port "$HEALTH_PORT" --path /quitz >/dev/null
wait "$HEALTH_PID"
echo "    watchdog flagged the stall, /healthz recovered, /population live"

./ci/bench_gate.sh "$STREAM_DIR/full.manifest.json"

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "CI OK"

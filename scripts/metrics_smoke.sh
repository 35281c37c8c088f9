#!/bin/sh
# Metrics smoke: start `isecustom serve` (the resident daemon) with a
# domain pool and its /metrics surface, send the golden corpus through
# `batch --connect` twice, scrape /metrics and /healthz, and assert the
# exposition is well-formed with labeled families from every
# instrumented subsystem.  Cache hits need a warm persistent cache, so
# they are asserted on a second `stats f3.3 --prometheus` run over one
# cache directory.  Finally run a faulted curve and assert the crash
# flight recorder dumped JSONL containing the injected-fault and guard
# events.  Shared by `make metrics-smoke` and the CI metrics-smoke job.
set -eu

PORT="${PORT:-9464}"
TMP="$(mktemp -d)"
SOCK="$TMP/solver.sock"
SERVE_PID=""
cleanup() {
  if [ -n "$SERVE_PID" ]; then kill "$SERVE_PID" 2>/dev/null || true; fi
  rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

dune build bin/isecustom.exe
BIN="_build/default/bin/isecustom.exe"

# ----- live scrape of the daemon over a pooled workload ----------------
ISECUSTOM_CACHE_DIR="$TMP/cache" \
  "$BIN" serve --unix "$SOCK" --jobs 2 \
  --metrics-port "$PORT" 2>"$TMP/serve.log" &
SERVE_PID=$!

ok=0
i=0
while [ "$i" -lt 50 ]; do
  if [ -S "$SOCK" ] && curl -fsS "http://127.0.0.1:$PORT/healthz" \
      >"$TMP/healthz" 2>/dev/null; then
    ok=1
    break
  fi
  i=$((i + 1))
  sleep 0.2
done
if [ "$ok" != 1 ]; then
  echo "metrics-smoke: /healthz never came up" >&2
  cat "$TMP/serve.log" >&2
  exit 1
fi
grep -qx ok "$TMP/healthz"

# two passes put samples behind every family: the first solves, the
# second answers from the daemon's memo
for pass in 1 2; do
  ISECUSTOM_CACHE_DIR="$TMP/cache-client" \
    "$BIN" batch --connect "$SOCK" --out "$TMP/pass$pass.jsonl" \
    test/golden/cases.jsonl
done
curl -fsS "http://127.0.0.1:$PORT/metrics" >"$TMP/metrics"

# typed, labeled families from batch, memo, pool, curves and the guards
# (batch_requests_total cells are written by Batch.Service.run, which
# the daemon does not call: test/test_obs.ml asserts them instead)
for pat in \
  '^# TYPE batch_requests_total counter$' \
  '^# TYPE guard_exhausted_total counter$' \
  '^# TYPE fault_injected_total counter$' \
  '^memo_hits_total{namespace="' \
  '^pool_items_total{mode="local"} [1-9]' \
  '^pool_items_total{mode="stolen"} ' \
  '^pool_jobs 2$' \
  '^curve_generate_s_count [1-9]' \
  '^curve_generate_s_bucket{le="+Inf"} '
do
  if ! grep -q "$pat" "$TMP/metrics"; then
    echo "metrics-smoke: missing '$pat' in /metrics" >&2
    head -40 "$TMP/metrics" >&2
    exit 1
  fi
done

# every sample line belongs to a family announced by a TYPE line
if ! grep -cq '^# TYPE ' "$TMP/metrics"; then
  echo "metrics-smoke: no TYPE lines in /metrics" >&2
  exit 1
fi

kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
echo "metrics-smoke: /metrics and /healthz OK ($(grep -c '^# TYPE ' "$TMP/metrics") families)"

# ----- persistent-cache hits on a warm rerun ----------------------------
for run in 1 2; do
  ISECUSTOM_CACHE_DIR="$TMP/cache-stats" \
    "$BIN" stats f3.3 --jobs 2 --prometheus >"$TMP/stats$run.prom" 2>/dev/null
done
pat='^cache_hits_total{namespace="'
if ! grep -q "$pat" "$TMP/stats2.prom"; then
  echo "metrics-smoke: missing '$pat' on a warm stats rerun" >&2
  grep '^cache' "$TMP/stats2.prom" >&2 || true
  exit 1
fi
echo "metrics-smoke: warm cache hits OK ($(grep "$pat" "$TMP/stats2.prom"))"

# ----- crash flight recorder on a faulted run --------------------------
ISECUSTOM_FLIGHT_DIR="$TMP/flight" ISECUSTOM_CACHE_DIR="$TMP/cache2" \
  dune exec bin/isecustom.exe -- curve aes --max-nodes 20 \
  --fault-spec "seed=3,cache.write=0.5" >/dev/null 2>&1 || true

FLIGHT="$(ls "$TMP"/flight/flight-*.jsonl 2>/dev/null | head -1 || true)"
if [ -z "$FLIGHT" ] || [ ! -s "$FLIGHT" ]; then
  echo "metrics-smoke: faulted run left no flight recording" >&2
  exit 1
fi
grep -q '"kind": "fault.injected"' "$FLIGHT"
grep -q '"kind": "guard.exhausted"' "$FLIGHT"
echo "metrics-smoke: flight recorder OK ($(wc -l <"$FLIGHT") events)"

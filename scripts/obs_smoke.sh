#!/bin/sh
# obs_smoke.sh - end-to-end check of the introspection server: start
# `pathfinder -serve` on a random port, require 200s with real content from
# /metrics, /status, /trace and /flight, then shut the server down.  Run
# from the repo root (CI's obs-smoke step and `make obs-smoke` both do).
# Needs curl and python3.
set -eu

log=$(mktemp)
bin=$(mktemp)
bundle=$(mktemp)
trap 'kill $pid 2>/dev/null || true; rm -f "$log" "$bin" "$bundle"' EXIT

# Two apps on one machine, so the event engine interleaves two cores'
# steps.  The flight recorder rides along at its default sizing and dumps
# its postmortem bundle to $bundle on SIGQUIT.
go build -o "$bin" ./cmd/pathfinder
"$bin" -serve 127.0.0.1:0 -apps LBM:cxl,MCF:local -epochs 2 \
    -epoch-kcycles 200 -report flows -flight-dump "$bundle" >"$log" 2>&1 &
pid=$!

# The bound address is printed as "pathfinder: serving on http://HOST:PORT".
url=""
for _ in $(seq 1 50); do
    url=$(sed -n 's/^pathfinder: serving on \(http:\/\/[^ ]*\)$/\1/p' "$log" | head -1)
    [ -n "$url" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "obs-smoke: pathfinder exited early:"; cat "$log"; exit 1; }
    sleep 0.2
done
[ -n "$url" ] || { echo "obs-smoke: no serving line in output:"; cat "$log"; exit 1; }

fail() { echo "obs-smoke: $1"; cat "$log"; exit 1; }

code=$(curl -s -o /tmp/obs_smoke_metrics -w '%{http_code}' "$url/metrics")
[ "$code" = 200 ] || fail "/metrics returned $code"
grep -q '^pf_' /tmp/obs_smoke_metrics || fail "/metrics has no pf_ series (empty registry)"

# The event engine must be live on both of its paths: ops stepped inline
# by the run-ahead fast path (a zero means every op went through the
# engine) and events dispatched through the engine (a zero means no miss
# ever left a core).
inline=$(sed -n 's/^pf_engine_inline_steps \([0-9][0-9]*\)$/\1/p' /tmp/obs_smoke_metrics)
[ -n "$inline" ] || fail "/metrics lacks pf_engine_inline_steps"
[ "$inline" -gt 0 ] || fail "pf_engine_inline_steps is 0 (run-ahead fast path inactive)"
dispatched=$(sed -n 's/^pf_engine_dispatched_events \([0-9][0-9]*\)$/\1/p' /tmp/obs_smoke_metrics)
[ -n "$dispatched" ] || fail "/metrics lacks pf_engine_dispatched_events"
[ "$dispatched" -gt 0 ] || fail "pf_engine_dispatched_events is 0 (event engine dispatched nothing)"

code=$(curl -s -o /tmp/obs_smoke_status -w '%{http_code}' "$url/status")
[ "$code" = 200 ] || fail "/status returned $code"
grep -q '"epochs"' /tmp/obs_smoke_status || fail "/status JSON lacks epoch fields"
grep -q '"inline_steps"' /tmp/obs_smoke_status || fail "/status JSON lacks engine section"

# /trace renders the flight recorder's rings as Chrome trace_event JSON:
# it must parse, and the LBM:cxl core's demand misses must show their CXL
# device-queue stage.
code=$(curl -s -o /tmp/obs_smoke_trace -w '%{http_code}' "$url/trace")
[ "$code" = 200 ] || fail "/trace returned $code"
devq=$(python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
print(sum(ev["name"] == "cxl_devq" for ev in doc["traceEvents"]))
' /tmp/obs_smoke_trace) || fail "/trace is not parseable Chrome trace JSON"
[ "$devq" -gt 0 ] || fail "/trace has no cxl_devq event (no CXL waterfall from the LBM:cxl run)"

# The flight recorder must be live: /flight serves its snapshot with real
# records filed by the run.
code=$(curl -s -o /tmp/obs_smoke_flight -w '%{http_code}' "$url/flight")
[ "$code" = 200 ] || fail "/flight returned $code"
grep -q '"enabled": *true' /tmp/obs_smoke_flight || fail "/flight reports the recorder disabled"
grep -q '"records"' /tmp/obs_smoke_flight || fail "/flight JSON lacks a records count"
records=$(sed -n 's/.*"records": *\([0-9][0-9]*\).*/\1/p' /tmp/obs_smoke_flight | head -1)
[ -n "$records" ] && [ "$records" -gt 0 ] || fail "/flight shows zero records after a run"

# SIGQUIT dumps a postmortem bundle (and keeps the process running): the
# artifact must appear at -flight-dump and parse as a schema-1 bundle.
kill -QUIT "$pid"
for _ in $(seq 1 50); do
    grep -q '^pathfinder: flight bundle (sigquit) written' "$log" && break
    kill -0 "$pid" 2>/dev/null || fail "pathfinder died on SIGQUIT"
    sleep 0.2
done
grep -q '^pathfinder: flight bundle (sigquit) written' "$log" || fail "no flight-bundle notice after SIGQUIT"
kill -0 "$pid" 2>/dev/null || fail "SIGQUIT terminated the process (want dump-and-continue)"
[ -s "$bundle" ] || fail "SIGQUIT bundle $bundle is missing or empty"
grep -q '"schema": *1' "$bundle" || fail "bundle lacks the schema marker"
grep -q '"trigger": *"sigquit"' "$bundle" || fail "bundle trigger is not sigquit"
grep -q '"flight"' "$bundle" || fail "bundle lacks the flight section"
grep -q '"tail"' "$bundle" || fail "bundle lacks the promoted tail store"

# Graceful shutdown: SIGTERM drains and exits 0 rather than being killed.
# Wait for the run to finish first — the signal handler is installed once
# the post-run serving loop begins.
for _ in $(seq 1 50); do
    grep -q '^pathfinder: run complete' "$log" && break
    sleep 0.2
done
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
[ "$rc" = 0 ] || fail "SIGTERM exit status $rc (want clean drain)"
grep -q '^pathfinder: shutting down' "$log" || fail "no graceful-shutdown line after SIGTERM"

echo "obs-smoke: OK ($url: /metrics has $(grep -c '^pf_' /tmp/obs_smoke_metrics) pf_ series, /trace has $devq cxl_devq events)"

#!/usr/bin/env bash
# Smoke test for the rrserved daemon: build it, boot it, submit a tiny
# sweep over HTTP, poll to completion, verify cache + metrics
# counters, then check that SIGTERM drains cleanly and persists the
# result store. A second daemon booted on the same store dir must
# answer the resubmission from the persisted report without running
# the engine. Run via `make serve-smoke`.
set -euo pipefail

ADDR="${RRSERVED_ADDR:-127.0.0.1:18347}"
BASE="http://$ADDR"
TMP="$(mktemp -d)"
BIN="$TMP/rrserved"
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

echo "== building rrserved"
go build -o "$BIN" ./cmd/rrserved

# field body name — the first "name":"string" value in a compact JSON
# body. The status envelope's fields come first, so a report spliced in
# after them cannot shadow its "id".
field() {
    local rest=${1#*\"$2\":\"}
    [ "$rest" = "$1" ] || printf '%s' "${rest%%\"*}"
}

# boot starts a daemon on the shared store dir and waits for readiness.
boot() {
    echo "== starting rrserved on $ADDR"
    "$BIN" -addr "$ADDR" -queue 8 -workers 2 -point-cache-dir "$TMP/store" &
    PID=$!
    for i in $(seq 1 50); do
        if curl -fsS "$BASE/readyz" >/dev/null 2>&1; then break; fi
        if ! kill -0 "$PID" 2>/dev/null; then echo "rrserved died during boot" >&2; exit 1; fi
        sleep 0.2
    done
    curl -fsS "$BASE/readyz" >/dev/null
}

# drain sends SIGTERM and requires a clean exit within 15s.
drain() {
    echo "== draining via SIGTERM"
    kill -TERM "$PID"
    WAITED=0
    while kill -0 "$PID" 2>/dev/null; do
        sleep 0.2
        WAITED=$((WAITED + 1))
        [ "$WAITED" -lt 75 ] || { echo "daemon did not exit within 15s of SIGTERM" >&2; exit 1; }
    done
    wait "$PID" && RC=0 || RC=$?
    [ "$RC" -eq 0 ] || { echo "daemon exited $RC after SIGTERM" >&2; exit 1; }
}

boot

REQ='{"experiment":"figure5","seed":1,"scale":"quick","f":[64],"r":[8],"l":[16,32]}'

echo "== submitting tiny sweep"
SUBMIT=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$REQ" "$BASE/v1/jobs")
JOB=$(field "$SUBMIT" id)
[ -n "$JOB" ] || { echo "no job id in: $SUBMIT" >&2; exit 1; }

echo "== polling job $JOB"
for i in $(seq 1 150); do
    STATUS=$(curl -fsS "$BASE/v1/jobs/$JOB?result=false")
    STATE=$(field "$STATUS" state)
    case "$STATE" in
        done) break ;;
        failed|canceled) echo "job ended $STATE: $STATUS" >&2; exit 1 ;;
    esac
    sleep 0.2
done
[ "$STATE" = done ] || { echo "job stuck in state '$STATE'" >&2; exit 1; }

echo "== verifying result and cache behaviour"
curl -fsS "$BASE/v1/jobs/$JOB" | grep -q '"panel"' || { echo "result missing points" >&2; exit 1; }
RESUBMIT=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$REQ" "$BASE/v1/jobs")
printf '%s' "$RESUBMIT" | grep -q '"cached": *true' || { echo "resubmission not cached: $RESUBMIT" >&2; exit 1; }

echo "== verifying metrics counters"
METRICS=$(curl -fsS "$BASE/metrics")
printf '%s\n' "$METRICS" | grep -q '^rrserve_engine_runs_total 1$' || { echo "expected exactly one engine run" >&2; printf '%s\n' "$METRICS" >&2; exit 1; }
printf '%s\n' "$METRICS" | grep -q '^rrserve_cache_hits_total 1$' || { echo "expected one cache hit" >&2; exit 1; }
printf '%s\n' "$METRICS" | grep -q 'rrserve_jobs_total{state="done"} 2' || { echo "expected two done jobs" >&2; exit 1; }

drain
[ -f "$TMP/store/points.json" ] || { echo "result store index not persisted on shutdown" >&2; exit 1; }

echo "== restarting on the same store dir"
boot
RESUBMIT=$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$REQ" "$BASE/v1/jobs")
printf '%s' "$RESUBMIT" | grep -q '"cached": *true' || { echo "restarted daemon did not answer from the persisted report: $RESUBMIT" >&2; exit 1; }
METRICS=$(curl -fsS "$BASE/metrics")
printf '%s\n' "$METRICS" | grep -q '^rrserve_engine_runs_total 0$' || { echo "restarted daemon ran the engine" >&2; printf '%s\n' "$METRICS" >&2; exit 1; }
drain

echo "serve-smoke: OK"

#!/usr/bin/env bash
# Smoke test for distributed sweep execution (docs/cluster.md): run the
# same sweep through a single-node rrserved and through a coordinator
# fanning out to three workers, and require byte-identical results.
# Also checks the point-cache advisory lock, the quorum readiness gate,
# the cluster metrics, and an rrload burst against the coordinator.
# Run via `make cluster-smoke`.
set -euo pipefail

BASE_PORT="${RRCLUSTER_BASE_PORT:-18440}"
SINGLE="127.0.0.1:$BASE_PORT"
W1="127.0.0.1:$((BASE_PORT + 1))"
W2="127.0.0.1:$((BASE_PORT + 2))"
W3="127.0.0.1:$((BASE_PORT + 3))"
COORD="127.0.0.1:$((BASE_PORT + 4))"
TMP="$(mktemp -d)"
PIDS=()
trap 'for p in "${PIDS[@]:-}"; do kill "$p" 2>/dev/null || true; done; rm -rf "$TMP"' EXIT

REQUEST='{"experiment":"figure5","seed":1,"scale":"quick","f":[32,64],"r":[8,32],"l":[16]}'

wait_ready() { # addr [tries]
    local addr=$1 tries=${2:-50} i
    for i in $(seq 1 "$tries"); do
        if curl -fsS "http://$addr/readyz" >/dev/null 2>&1; then return 0; fi
        sleep 0.2
    done
    echo "daemon at $addr never became ready" >&2
    return 1
}

# field body name — the first "name":"string" value in a compact JSON
# body. The status envelope's fields come first, so a report spliced in
# after them cannot shadow its "id".
field() {
    local rest=${1#*\"$2\":\"}
    [ "$rest" = "$1" ] || printf '%s' "${rest%%\"*}"
}

run_job() { # addr outfile — submit REQUEST, poll to done, extract the result object
    local addr=$1 out=$2 id state status result
    status=$(curl -fsS -X POST "http://$addr/v1/jobs" -d "$REQUEST")
    id=$(field "$status" id)
    [ -n "$id" ] || { echo "submit to $addr returned no job id: $status" >&2; return 1; }
    for _ in $(seq 1 300); do
        status=$(curl -fsS "http://$addr/v1/jobs/$id")
        state=$(field "$status" state)
        case "$state" in
            done)
                # "result" is the envelope's last field: take what follows
                # its key, less the envelope's closing brace.
                result=${status#*\"result\":}
                [ "$result" != "$status" ] || { echo "done job $id on $addr has no result: $status" >&2; return 1; }
                result=${result%\}}
                [ -n "$result" ] || { echo "job $id on $addr returned an empty result" >&2; return 1; }
                printf '%s' "$result" > "$out"
                return 0 ;;
            failed|canceled) echo "job $id on $addr ended $state: $status" >&2; return 1 ;;
        esac
        sleep 0.2
    done
    echo "job $id on $addr never finished" >&2
    return 1
}

stop_daemon() { # pid
    kill -TERM "$1" 2>/dev/null || true
    local waited=0
    while kill -0 "$1" 2>/dev/null; do
        sleep 0.2
        waited=$((waited + 1))
        [ "$waited" -lt 150 ] || { echo "daemon $1 did not exit within 30s of SIGTERM" >&2; return 1; }
    done
    return 0
}

echo "== building rrserved + rrload"
go build -o "$TMP/rrserved" ./cmd/rrserved
go build -o "$TMP/rrload" ./cmd/rrload

echo "== phase 1: single-node baseline on $SINGLE"
mkdir -p "$TMP/points-single"
"$TMP/rrserved" -addr "$SINGLE" -workers 2 -point-cache-dir "$TMP/points-single" &
SINGLE_PID=$!
PIDS+=("$SINGLE_PID")
wait_ready "$SINGLE"

echo "== checking the point-cache advisory lock rejects a second daemon"
if "$TMP/rrserved" -addr "127.0.0.1:$((BASE_PORT + 9))" -point-cache-dir "$TMP/points-single" \
        2>"$TMP/lock-err.txt"; then
    echo "second daemon on a locked point-cache dir should have failed" >&2
    exit 1
fi
grep -q 'locked by another process' "$TMP/lock-err.txt" \
    || { echo "missing lock diagnostic:"; cat "$TMP/lock-err.txt"; exit 1; } >&2

run_job "$SINGLE" "$TMP/single.json"
stop_daemon "$SINGLE_PID"

echo "== phase 2: 3 workers + coordinator"
for i in 1 2 3; do
    addr_var="W$i"
    mkdir -p "$TMP/points-w$i"
    "$TMP/rrserved" -addr "${!addr_var}" -role worker -workers 1 \
        -point-cache-dir "$TMP/points-w$i" &
    PIDS+=($!)
done
for i in 1 2 3; do addr_var="W$i"; wait_ready "${!addr_var}"; done

"$TMP/rrserved" -addr "$COORD" -role coordinator \
    -cluster-workers "http://$W1,http://$W2,http://$W3" \
    -cluster-quorum 2 -cluster-batch 2 -workers 2 &
COORD_PID=$!
PIDS+=("$COORD_PID")
wait_ready "$COORD"

run_job "$COORD" "$TMP/cluster.json"

echo "== comparing single-node vs cluster results"
for f in "$TMP/single.json" "$TMP/cluster.json"; do
    [ -s "$f" ] || { echo "extracted result $f is empty" >&2; exit 1; }
done
diff "$TMP/single.json" "$TMP/cluster.json" \
    || { echo "cluster result differs from single-node result" >&2; exit 1; }
echo "   byte-identical ($(wc -c < "$TMP/cluster.json") bytes)"

echo "== verifying cluster metrics"
METRICS=$(curl -fsS "http://$COORD/metrics")
UP_COUNT=$(printf '%s\n' "$METRICS" | grep -c '^rrserve_cluster_worker_up{.*} 1$' || true)
[ "$UP_COUNT" -eq 3 ] || { echo "worker_up reports $UP_COUNT/3 healthy workers" >&2; exit 1; }
printf '%s\n' "$METRICS" | grep -q '^rrserve_cluster_points_total [1-9]' \
    || { echo "coordinator accepted no points from the fleet" >&2; exit 1; }
printf '%s\n' "$METRICS" | grep -q '^rrserve_cluster_batch_seconds_count{' \
    || { echo "per-worker batch latency histogram missing" >&2; exit 1; }

echo "== rrload burst against the coordinator"
"$TMP/rrload" -addr "$COORD" -clients 8 -duration 2s -overlap 0.5 \
    -label cluster-smoke -out "$TMP/load.json" > "$TMP/load-summary.txt"
grep -q '"label": *"cluster-smoke"' "$TMP/load.json" \
    || { echo "-label did not name the snapshot" >&2; exit 1; }

echo "== draining the fleet"
stop_daemon "$COORD_PID"
for p in "${PIDS[@]}"; do
    [ "$p" = "$SINGLE_PID" ] || [ "$p" = "$COORD_PID" ] && continue
    stop_daemon "$p"
done

echo "cluster-smoke: OK"

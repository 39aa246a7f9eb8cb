#!/usr/bin/env bash
# SLO-asserted soak smoke of the robust serve stack (make soak-smoke).
#
# One server with every robustness feature on — stall timeouts, a
# worker supervisor, a bounded node table, session-journal spooling —
# under seeded kernel faults, plus a deliberately wedged worker domain
# mid-run (--hang-worker-after).  Against it, the open-loop soak load
# generator: scheduled arrivals, connection churn over durable keyed
# sessions, per-request deadlines, client-side wire faults (torn,
# corrupted, stalled frames) from the same seed family, and a p99 SLO.
#
# The assertions, in order of importance:
#   1. the server never exits under fault load (loadgen probes it after
#      the soak; SIGTERM afterwards must still drain to exit 0);
#   2. every reply is Exact, Degraded or a typed Error — zero oracle
#      contradictions (loadgen exits 1 on any `wrong`);
#   3. p99 latency holds the SLO (generous here: this is a smoke, not a
#      benchmark — the bar is "no collapse", not "fast");
#   4. the drain summary shows the supervisor actually fired (respawns
#      >= 1) so the soak exercised quarantine, not just happy paths;
#   5. BENCH_serve_soak.json and the metrics snapshot validate, including
#      the soak section and the serve.* impossibility rules.
#
# Artifacts live under _build/smoke/ (removed by dune clean).

set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=_build/smoke
SERVE=_build/default/bin/serve_main.exe
LOADGEN=_build/default/bench/loadgen.exe
OBS_CHECK=_build/default/bin/obs_check.exe

SOAK_SECS=${SOAK_SECS:-6}

mkdir -p "$SMOKE" "$SMOKE/soak_spool"
rm -f "$SMOKE"/soak*.sock "$SMOKE"/soak_*.json "$SMOKE"/soak_spool/* \
    "$SMOKE"/BENCH_serve_soak.json

wait_for_socket() {
    local sock=$1
    for _ in $(seq 1 100); do
        [ -S "$sock" ] && return 0
        sleep 0.1
    done
    echo "soak_smoke: server never bound $sock" >&2
    return 1
}

echo "== soak: ${SOAK_SECS}s open-loop under wire+kernel faults, worker wedged mid-run =="
"$SERVE" --socket "$SMOKE/soak.sock" --workers 2 --queue-depth 64 \
    --io-timeout 2 --hang-timeout 0.5 --hang-worker-after 2 \
    --session-linger 15 --table-capacity 200000 \
    --session-spool "$SMOKE/soak_spool" \
    --metrics "$SMOKE/soak_metrics.json" \
    --faults 'seed=7,node_limit=0.01,cache_wipe=0.01,abort=0.005' \
    > "$SMOKE/soak_server.log" 2>&1 &
SERVER_PID=$!
wait_for_socket "$SMOKE/soak.sock"

"$LOADGEN" --socket "$SMOKE/soak.sock" --connections 4 \
    --soak "$SOAK_SECS" --arrival-rate 250 --churn 40 \
    --deadline-ms 500 --slo-p99-ms 2000 --seed 7 --expect-faults \
    --faults 'seed=7,wire_cut=0.01,wire_flip=0.01,wire_stall=0.005,wire_delay=0.01' \
    -o "$SMOKE/BENCH_serve_soak.json"

# SIGTERM after the soak must still drain gracefully (exit 0)
kill -TERM "$SERVER_PID"
status=0
wait "$SERVER_PID" || status=$?
if [ "$status" -ne 0 ]; then
    echo "soak_smoke: server exited $status on SIGTERM (want 0)" >&2
    exit 1
fi
cat "$SMOKE/soak_server.log"

# the wedged worker must have been caught: no respawn means the soak
# never exercised the supervisor and proves nothing
RESPAWNS=$(sed -n 's/.*respawns=\([0-9]*\).*/\1/p' "$SMOKE/soak_server.log")
if [ -z "$RESPAWNS" ] || [ "$RESPAWNS" -eq 0 ]; then
    echo "soak_smoke: supervisor never respawned the wedged worker" >&2
    exit 1
fi

"$OBS_CHECK" --serve-bench "$SMOKE/BENCH_serve_soak.json" \
    --metrics "$SMOKE/soak_metrics.json"

echo "soak_smoke: OK (respawns=$RESPAWNS, SLO held, server survived)"

#!/usr/bin/env bash
# End-to-end smoke test of the serve layer (make serve-smoke).
#
# Phase 1 — normal operation: a 4-worker server on a Unix socket, pinged,
# then hit by the closed-loop load generator (4 connections x 250
# requests, every reply checked against an in-process oracle).  The
# BENCH_serve.json report and the serve.* metrics snapshot are both
# structurally validated, and the server must drain cleanly on SIGTERM
# (exit 0).
#
# Phase 2 — chaos: the same server with seeded fault injection armed and a
# per-request node budget.  Injected crashes must surface as Error
# replies or Degraded certificates, never as a server exit: the loadgen
# (--expect-faults) still requires zero wrong replies, the drain summary
# must show faults were actually injected, and SIGTERM must still exit 0.
#
# All artifacts live under _build/smoke/ (removed by dune clean).  The
# binaries are invoked directly from _build/default so the backgrounded
# server never contends for the dune build lock.

set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=_build/smoke
SERVE=_build/default/bin/serve_main.exe
CLIENT=_build/default/bin/bdd_client.exe
LOADGEN=_build/default/bench/loadgen.exe
OBS_CHECK=_build/default/bin/obs_check.exe

mkdir -p "$SMOKE"
rm -f "$SMOKE"/serve*.sock "$SMOKE"/serve_*.json "$SMOKE"/BENCH_serve.json

wait_for_socket() {
    local sock=$1
    for _ in $(seq 1 100); do
        [ -S "$sock" ] && return 0
        sleep 0.1
    done
    echo "serve_smoke: server never bound $sock" >&2
    return 1
}

terminate() {
    # SIGTERM must produce a graceful drain and exit status 0
    local pid=$1 name=$2
    kill -TERM "$pid"
    local status=0
    wait "$pid" || status=$?
    if [ "$status" -ne 0 ]; then
        echo "serve_smoke: $name exited $status on SIGTERM (want 0)" >&2
        exit 1
    fi
}

echo "== phase 1: normal operation =="
"$SERVE" --socket "$SMOKE/serve.sock" --workers 4 --queue-depth 64 \
    --metrics "$SMOKE/serve_metrics.json" --trace "$SMOKE/serve_trace.json" \
    > "$SMOKE/serve_phase1.log" 2>&1 &
SERVER_PID=$!
wait_for_socket "$SMOKE/serve.sock"

"$CLIENT" --socket "$SMOKE/serve.sock" ping
"$LOADGEN" --socket "$SMOKE/serve.sock" --smoke --seed 7 \
    -o "$SMOKE/BENCH_serve.json"
"$CLIENT" --socket "$SMOKE/serve.sock" stats > "$SMOKE/serve_stats.txt"

terminate "$SERVER_PID" "server"
cat "$SMOKE/serve_phase1.log"

"$OBS_CHECK" --serve-bench "$SMOKE/BENCH_serve.json"
"$OBS_CHECK" --metrics "$SMOKE/serve_metrics.json" \
    --trace "$SMOKE/serve_trace.json" --min-tracks 4

echo "== phase 2: chaos (seeded fault injection) =="
"$SERVE" --socket "$SMOKE/serve_chaos.sock" --workers 4 --queue-depth 64 \
    --request-node-budget 2000 \
    --faults 'seed=11,node_limit=0.01,cache_wipe=0.01,abort=0.005,job_crash=0.02' \
    > "$SMOKE/serve_phase2.log" 2>&1 &
CHAOS_PID=$!
wait_for_socket "$SMOKE/serve_chaos.sock"

"$LOADGEN" --socket "$SMOKE/serve_chaos.sock" --smoke --seed 13 --expect-faults

terminate "$CHAOS_PID" "chaos server"
cat "$SMOKE/serve_phase2.log"

# the chaos run is pointless if nothing was injected: the seeded config
# above reliably fires with these loadgen seeds
INJECTED=$(sed -n 's/.*faults_injected=\([0-9]*\).*/\1/p' "$SMOKE/serve_phase2.log")
if [ -z "$INJECTED" ] || [ "$INJECTED" -eq 0 ]; then
    echo "serve_smoke: chaos phase injected no faults" >&2
    exit 1
fi

echo "serve_smoke: OK (chaos injected $INJECTED faults, server survived)"

#!/usr/bin/env bash
# End-to-end smoke test of the out-of-core tiered store (make ooc-smoke).
#
# Phase 1 — oracle: an unrestricted in-RAM BFS reach run over johnson8
# saves its reached set (checksummed, atomic).
#
# Phase 2 — out-of-core: the same circuit under --hot-node-budget 160,
# far below the ~445-node in-RAM peak, with the cold tier hosted in a
# visible --store-dir.  The run must migrate at least once, stay Exact
# (no "(INCOMPLETE)" marker), agree with the oracle bit-for-bit
# (--check-reached exits 2 on mismatch), and leave no cold/spill files
# behind after the store is closed.  Its obs-metrics snapshot must
# validate and carry the store.* counters.
#
# Phase 3 — report: bench/ooc.exe --smoke writes a bdd-ooc-bench/v1
# report (oracle vs out-of-core on two circuits) which must pass its own
# schema + semantics validator.
#
# All artifacts live under _build/smoke/ (removed by dune clean).  The
# binaries are invoked directly from _build/default so nothing contends
# for the dune build lock.

set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=_build/smoke
REACH=_build/default/bin/reach_main.exe
OOC=_build/default/bench/ooc.exe
OBS_CHECK=_build/default/bin/obs_check.exe

mkdir -p "$SMOKE"
rm -rf "$SMOKE"/ooc_store
rm -f "$SMOKE"/ooc_oracle.bdd "$SMOKE"/ooc_metrics.json "$SMOKE"/BENCH_ooc.json
mkdir -p "$SMOKE"/ooc_store

echo "== ooc_smoke: phase 1 (in-RAM oracle) =="
"$REACH" --circuit johnson --param bits=8 --engine bfs \
    --save-reached "$SMOKE"/ooc_oracle.bdd

echo "== ooc_smoke: phase 2 (out-of-core under a 160-node hot budget) =="
out=$("$REACH" --circuit johnson --param bits=8 --engine bfs \
    --hot-node-budget 160 --store-dir "$SMOKE"/ooc_store \
    --check-reached "$SMOKE"/ooc_oracle.bdd \
    --metrics "$SMOKE"/ooc_metrics.json)
echo "$out"
case "$out" in
    *INCOMPLETE*)
        echo "ooc_smoke: run was not exact" >&2; exit 1 ;;
esac
case "$out" in
    *migrations=0*)
        echo "ooc_smoke: run never migrated to the cold tier" >&2; exit 1 ;;
esac
case "$out" in
    *"matches this run"*) ;;
    *)
        echo "ooc_smoke: reached set was not checked against the oracle" >&2
        exit 1 ;;
esac
leftovers=$(find "$SMOKE"/ooc_store -type f | wc -l)
if [ "$leftovers" -ne 0 ]; then
    echo "ooc_smoke: $leftovers file(s) left in the store dir:" >&2
    find "$SMOKE"/ooc_store -type f >&2
    exit 1
fi
metrics=$("$OBS_CHECK" --metrics "$SMOKE"/ooc_metrics.json)
echo "$metrics" >&2
grep -q "store" <<< "$metrics" \
    || { echo "ooc_smoke: metrics carry no store section" >&2; exit 1; }

echo "== ooc_smoke: phase 3 (bdd-ooc-bench/v1 report) =="
"$OOC" --smoke -o "$SMOKE"/BENCH_ooc.json
"$OOC" --validate "$SMOKE"/BENCH_ooc.json

echo "ooc_smoke: OK"

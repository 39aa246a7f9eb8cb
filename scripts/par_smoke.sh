#!/usr/bin/env bash
# End-to-end smoke test of the parallel shared-memory kernel
# (make par-smoke).
#
# Phase 1 — test matrix: every alcotest suite that reads PAR_TEST_DOMAINS
# (par, kernel, mt and obs) re-runs with PAR_TEST_DOMAINS="1 D" for D in
# 2 and 8, so the qcheck par-vs-oracle bit-identity properties, the
# shared-manager stress test and the job runner exercise both a modest
# and an oversubscribed domain count.  This is the repository's one
# domain matrix; CI runs it through `make check`.  (On a 1-core host
# every D > 1 oversubscribes; the point is correctness under preemption,
# which oversubscription makes more likely, not speedup.)
#
# Phase 2 — engine round trip: a sequential BFS reach run saves its
# reached set, then a --jobs 2 run on a shared manager must compute the
# same set bit for bit (--check-reached exits 2 on mismatch).  Its
# metrics snapshot must validate and pass obs_check's parallel-kernel
# impossibility checks (kernel.* counters present and consistent).
#
# All artifacts live under _build/smoke/ (removed by dune clean).  The
# binaries are invoked directly from _build/default so nothing contends
# for the dune build lock.

set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=_build/smoke
TEST=_build/default/test/test_main.exe
REACH=_build/default/bin/reach_main.exe
OBS_CHECK=_build/default/bin/obs_check.exe

mkdir -p "$SMOKE"
rm -f "$SMOKE"/par_oracle.bdd "$SMOKE"/par_metrics.json

for D in 2 8; do
    echo "== par_smoke: phase 1 (test suites at $D domains) =="
    PAR_TEST_DOMAINS="1 $D" "$TEST" test par -q
    PAR_TEST_DOMAINS="1 $D" "$TEST" test kernel -q
    PAR_TEST_DOMAINS="1 $D" "$TEST" test mt -q
    PAR_TEST_DOMAINS="1 $D" "$TEST" test obs -q
done

echo "== par_smoke: phase 2 (sequential vs --jobs 2 round trip) =="
"$REACH" --circuit microsequencer --param addr=3 --param stack=2 \
    --engine bfs --jobs 1 --save-reached "$SMOKE"/par_oracle.bdd
"$REACH" --circuit microsequencer --param addr=3 --param stack=2 \
    --engine bfs --jobs 2 --check-reached "$SMOKE"/par_oracle.bdd \
    --metrics "$SMOKE"/par_metrics.json
metrics=$("$OBS_CHECK" --metrics "$SMOKE"/par_metrics.json)
echo "$metrics" >&2
grep -q "parallel-kernel" <<< "$metrics" \
    || { echo "par_smoke: metrics carry no parallel-kernel section" >&2; exit 1; }

echo "par_smoke: OK"

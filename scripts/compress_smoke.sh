#!/usr/bin/env bash
# End-to-end smoke test of the compressed decision-diagram subsystem
# (make compress-smoke).
#
# Phase 1 — bench: bench/compress.exe --smoke builds the chain-heavy
# generator family plus the parity-spread mirror in all four modes
# (bdd/zdd/cbdd/czdd), with every instance round-trip verified against
# the plain-BDD kernel and its minterm oracle.  The run itself asserts
# the acceptance gate: CBDD and CZDD at least halve the generator
# family's plain-BDD node counts.
#
# Phase 2 — validate: obs_check --compress-bench checks the emitted
# bdd-compress-bench/v1 report — schema tag, host_cpus, per-row fields,
# and the structural invariants (chained representation never larger
# than its plain counterpart, chain folds never exceeding mk calls).
#
# Phase 3 — reach: a reach run with --dd-mode all converts its reached
# set into every mode, each conversion round-trip verified in-process,
# and the metrics snapshot must carry the bdd.stats.chain_* keys fed by
# the conversion's chain counters.
#
# All artifacts live under _build/smoke/ (removed by dune clean).  The
# binaries are invoked directly from _build/default so nothing contends
# for the dune build lock.

set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=_build/smoke
COMPRESS=_build/default/bench/compress.exe
OBS_CHECK=_build/default/bin/obs_check.exe
REACH=_build/default/bin/reach_main.exe

mkdir -p "$SMOKE"
rm -f "$SMOKE"/BENCH_compress_smoke.json "$SMOKE"/compress_metrics.json

echo "== compress_smoke: phase 1 (four-mode bench + reduction gate) =="
"$COMPRESS" --smoke -o "$SMOKE"/BENCH_compress_smoke.json

echo "== compress_smoke: phase 2 (bdd-compress-bench/v1 validation) =="
"$OBS_CHECK" --compress-bench "$SMOKE"/BENCH_compress_smoke.json

echo "== compress_smoke: phase 3 (reach --dd-mode all) =="
out=$("$REACH" --circuit johnson --param bits=8 --engine bfs \
    --dd-mode all --metrics "$SMOKE"/compress_metrics.json)
echo "$out"
for mode in bdd zdd cbdd czdd; do
    case "$out" in
        *"reached as $mode"*) ;;
        *)
            echo "compress_smoke: no $mode row in the reach output" >&2
            exit 1 ;;
    esac
done
metrics=$("$OBS_CHECK" --metrics "$SMOKE"/compress_metrics.json)
echo "$metrics" >&2
grep -q "metrics" <<< "$metrics" \
    || { echo "compress_smoke: metrics snapshot invalid" >&2; exit 1; }
grep -q "bdd.stats.chain_mk" "$SMOKE"/compress_metrics.json \
    || { echo "compress_smoke: metrics carry no chain counters" >&2; exit 1; }

echo "compress_smoke: OK"

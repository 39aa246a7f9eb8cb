.PHONY: all build test bench bench-smoke smoke trace-smoke chaos-smoke serve-smoke soak-smoke ooc-smoke par-smoke compress-smoke pipeline-smoke perfbench-selftest check clean

all: build

build:
	dune build

test: build
	dune runtest

# A few-second benchmark smoke run exercising the parallel path end to end
# (2 workers; output is byte-identical for every --jobs value).
smoke: build
	dune exec bench/main.exe -- --smoke --jobs 2

# Seconds-long kernel microbenchmark; validates the emitted JSON against
# the bdd-kernel-bench/v2 schema (exit 1 on malformed output).  The
# smoke-sized report lands under _build/smoke/, never over the committed
# BENCH_kernel.json.
bench-smoke: build
	mkdir -p _build/smoke
	dune exec bench/micro.exe -- --smoke -o _build/smoke/BENCH_kernel.json
	dune exec bench/micro.exe -- --validate _build/smoke/BENCH_kernel.json

# Record a 4-worker span trace + metrics snapshot of the bench smoke run,
# then structurally validate both: balanced begin/end spans and
# nondecreasing timestamps on every track, at least 4 tracks (one lane
# per worker domain), and a well-formed obs-metrics/v1 snapshot.
# Artifacts land under _build/smoke/ (removed by dune clean).
trace-smoke: build
	mkdir -p _build/smoke
	dune exec bench/main.exe -- --smoke --jobs 4 \
	  --trace _build/smoke/_obs_trace.json \
	  --metrics _build/smoke/_obs_metrics.json > /dev/null
	dune exec bin/obs_check.exe -- --trace _build/smoke/_obs_trace.json \
	  --min-tracks 4 --metrics _build/smoke/_obs_metrics.json

# Seeded fault-injection campaign: ~300 reach runs with forced node limits
# and cache wipes (soundness vs a fault-free oracle), kill-and-resume from
# checkpoints (bit-for-bit), and the runner under dispatch crashes.
# TMPDIR keeps the checkpoint litter inside _build/smoke/.
chaos-smoke: build
	mkdir -p _build/smoke
	TMPDIR=$(abspath _build/smoke) dune exec test/chaos/chaos.exe

# End-to-end smoke of the serve layer: a 4-worker server under the
# closed-loop load generator (>= 1000 oracle-checked requests), graceful
# SIGTERM drain, validated BENCH_serve.json / metrics / trace artifacts
# (all under _build/smoke/), then the same under seeded fault injection
# (the server must survive).
serve-smoke: build
	scripts/serve_smoke.sh

# SLO-asserted soak: an open-loop load generator (scheduled arrivals,
# connection churn over durable sessions, per-request deadlines, seeded
# client-side wire faults) against a supervised server with a worker
# deliberately wedged mid-run.  Asserts zero server exits, zero oracle
# contradictions, a held p99 SLO, at least one supervisor respawn, and a
# validated soak section in _build/smoke/BENCH_serve_soak.json.
soak-smoke: build
	scripts/soak_smoke.sh

# Out-of-core reachability end to end: an in-RAM oracle run, then the
# same circuit under a hot-node budget far below its in-RAM peak — must
# migrate to the cold tier, finish Exact, match the oracle bit-for-bit,
# and leave no cold/spill files behind; plus the validated
# bdd-ooc-bench/v1 report from bench/ooc.exe --smoke.
ooc-smoke: build
	scripts/ooc_smoke.sh

# Parallel shared-memory kernel end to end: the par/kernel/mt suites
# re-run at 2 and 8 domains (PAR_TEST_DOMAINS), then a sequential BFS
# reach run vs --jobs 2 on a shared manager — bit-identical reached set,
# validated metrics with consistent kernel.* contention counters.
par-smoke: build
	scripts/par_smoke.sh

# Compressed decision diagrams end to end: the four-mode bench with its
# >= 2x chain-reduction gate on the generator family, schema validation
# of the bdd-compress-bench/v1 report, and a reach run whose reached set
# is converted into every mode (round-trip verified) with the chain
# counters surfaced in the metrics snapshot.
compress-smoke: build
	scripts/compress_smoke.sh

# Shared arena + pipelined wire end to end: a pipelined closed-loop run
# against an arena-backed server (byte-identity preflight, oracle-checked
# batches, exactly one publish of the benchmark circuit with catalog
# hits for every later Compile, validated report + arena.* metrics),
# then a seeded wire-fault soak that the poll event-loop front end must
# survive with zero oracle contradictions.
pipeline-smoke: build
	scripts/pipeline_smoke.sh

# The repository benchmark's self-test (under a second once built): every
# checker must catch the wrong answer planted in front of it, and the
# metric table must match BENCHMARK.json.
perfbench-selftest: build
	bash perfbench/run.sh --self-test

check: build test smoke bench-smoke trace-smoke chaos-smoke serve-smoke soak-smoke ooc-smoke par-smoke compress-smoke pipeline-smoke perfbench-selftest

bench: build
	dune exec bench/main.exe

clean:
	dune clean
	rm -f _obs_trace.json _obs_metrics.json

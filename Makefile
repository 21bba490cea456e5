# Tier-1: the correctness suite the CI gate runs.
test:
	PYTHONPATH=src python -m pytest -x -q

# Tier-2: slower checks that are not part of the tier-1 gate.
# bench-smoke runs the perf-regression, observability, fault-recovery,
# durable-journal, and multi-node comm harnesses at tiny sizes, plus a
# short traced run of each perfbench workload — it
# exercises the whole measure/assert/emit pipeline and rewrites
# BENCH_perf_engine.json / BENCH_obs_overhead.json /
# BENCH_fault_recovery.json / BENCH_journal.json / BENCH_comm.json /
# BENCH_sched.json in seconds.
# The full-size engine speedup gates are skipped at smoke sizes, but
# the PF2 warm-pool batch gate is enforced even here: the run fails
# if the persistent warm-cache dispatcher stops beating the reference
# interpreter by at least 2x the old 2.44x cold-dispatch baseline.
bench-smoke: obs-smoke faults-smoke runtime-smoke ensemble-smoke journal-smoke comm-smoke sched-smoke perfbench-smoke
	python benchmarks/bench_perf_engine.py --smoke

# The repo benchmark's workloads, traced, for a few seconds each: the
# three gated ones plus the ungated sweep_small, the only one that runs
# journaled:supervised:serial.  Traced runs patch or call private seams
# (_submit_entries, submit_chunk, warm, lower_machine), so a refactor
# that renames one fails here first.  Each run is checked for
# correctness only: it must end in a JSON line with "correct": true.
PERFBENCH_WORKLOADS = sweep_large session_stream census sweep_small
perfbench-smoke:
	for w in $(PERFBENCH_WORKLOADS); do \
		python3 perfbench/run.py --workload $$w --seconds 3 --trace 1 | tail -n 1 \
			| python3 -c 'import json, sys; sys.exit(json.load(sys.stdin).get("correct") is not True)' \
			|| { echo "perfbench-smoke: $$w failed"; exit 1; }; \
	done

# Workload-generic runtime gate at tiny sizes: the TM path through
# repro.runtime keeps the PF2 warm-batch win, and the complang adapter
# beats its naive parse+compile+run loop >= 2x on a warm pool, with
# results exactly equal to each adapter's per-job run_direct.
runtime-smoke:
	python benchmarks/bench_runtime_mixed.py --smoke

# Full-size mixed-workload runtime run (same gates, stabler timings).
bench-runtime:
	python benchmarks/bench_runtime_mixed.py

# Ensemble census gate at tiny sizes: the lock-step numpy backend must
# match the compiled per-machine path exactly and keep a relaxed
# warm-speedup floor.  The full 5x census gate is bench-ensemble.
ensemble-smoke:
	python benchmarks/bench_ensemble.py --smoke

# Full-size ensemble census: a 10^4-machine enumerated family must sweep
# >= 5x faster warm than the serial runtime, exactly equal.
bench-ensemble:
	python benchmarks/bench_ensemble.py

# Observability gate at tiny sizes: the obs test files (metrics,
# telemetry piggyback, flight recorder, report, metric-name hygiene),
# the ops report on a demo snapshot, then the overhead bench —
# disabled-path < 5% on the compiled-engine hot loop, fully-traced
# run_many exact, and cross-process telemetry within 10% of off.
obs-smoke:
	PYTHONPATH=src python -m pytest -x -q tests/test_obs_metrics.py tests/test_obs_instrument.py tests/test_obs_telemetry.py tests/test_obs_flight.py tests/test_obs_report.py tests/test_obs_hygiene.py
	PYTHONPATH=src python -m repro.obs.report
	python benchmarks/bench_obs_overhead.py --smoke

# Full-size observability gate (same assertions, stabler timings).
bench-obs:
	python benchmarks/bench_obs_overhead.py

# Render the ops report — by default from a live demo sweep, or from
# a saved snapshot: make obs-report ARGS="--snapshot obs.json".
obs-report:
	PYTHONPATH=src python -m repro.obs.report $(ARGS)

# Fault-recovery gate at tiny sizes: fault-free supervised overhead
# < 10% vs the bare backend, and a chaos run (crash + hang +
# corruption + poison job) returns results identical to a clean run
# with exactly the poison job quarantined.
faults-smoke:
	python benchmarks/bench_fault_recovery.py --smoke

# Full-size fault-recovery gate (same assertions, stabler timings).
bench-faults:
	python benchmarks/bench_fault_recovery.py

# Durable-journal gate at tiny sizes: fault-free journaled overhead
# < 10% vs the bare backend; a sweep hard-killed (os._exit, no
# cleanup) mid-way resumes byte-identically with every durable
# completion served from the journal and zero re-executions; a
# journaled dead letter survives the restart and replays after a fix.
journal-smoke:
	python benchmarks/bench_journal_resume.py --smoke

# Full-size journal resume gate (same assertions, stabler timings).
bench-journal:
	python benchmarks/bench_journal_resume.py

# Multi-node comm gate at tiny sizes: a two-node sharded sweep is
# byte-identical to SerialBackend, a chaos node-kill recovers exactly
# (nothing lost, nothing duplicated), and at >= 4 CPUs a 2-node x
# 2-worker hierarchical sweep beats a single process pool >= 1.6x
# (the throughput gate skips gracefully below 4 CPUs).
comm-smoke:
	python benchmarks/bench_comm.py --smoke

# Full-size comm gate (same assertions, stabler timings).
bench-comm:
	python benchmarks/bench_comm.py

# Incremental-scheduler gate at tiny sizes: staggered one-at-a-time
# session submission (group-commit batching, no window) reaches >= 70%
# of one-shot execute() throughput as the median of 3 alternating
# pairs (the full-size run holds the real 80% floor over 5 pairs),
# every pair pickle-byte-identical, and latency-class singles
# submitted mid-sweep settle without waiting for the bulk sweep
# (the latency leg skips gracefully below 2 CPUs, CM1-style).
sched-smoke:
	python benchmarks/bench_scheduler.py --smoke

# Full-size scheduler gate (10^4 staggered jobs, 5 alternating pairs).
bench-sched:
	python benchmarks/bench_scheduler.py

# Full-size perf run: regenerates BENCH_perf_engine.json and fails
# unless a >=1e5-step workload shows >=5x compiled speedup.
bench-perf:
	python benchmarks/bench_perf_engine.py

# The experiment-table benches (regenerate benchmarks/reports/).
bench:
	PYTHONPATH=src python -m pytest benchmarks -q

.PHONY: test bench bench-smoke perfbench-smoke bench-perf obs-smoke bench-obs obs-report faults-smoke bench-faults journal-smoke bench-journal comm-smoke bench-comm runtime-smoke bench-runtime ensemble-smoke bench-ensemble sched-smoke bench-sched

"""Tests for the warm-pool batch dispatcher: payload interning,
persistent worker state, the warm()/invalidate() lifecycle, generation
tags, the fork guard, and the adaptive work-stealing dispatch.

The load-bearing property throughout: the batch layer changes the
cost, never the answer — every dispatch strategy must return results
identical and in-order vs :class:`SerialBackend`.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.dist import DistBackend
from repro.machines.turing import (
    TuringMachine,
    binary_increment,
    copier,
    palindrome_checker,
    unary_adder,
)
from repro.obs.instrument import observed
from repro.perf.batch import run_many
from repro.perf.engine import program_key
from repro.runtime import ProcessBackend, ProgramNotResident, SerialBackend, intern_jobs
from repro.runtime.core import (
    TABLE_SIZE,
    _execute_entries,
    _resident_table,
    _run_workload_chunk,
)
from repro.runtime.workloads.machines import MACHINES as TM_WORKLOAD

MACHINES = [binary_increment, palindrome_checker, copier, unary_adder]


def reference_results(jobs, fuel=10_000):
    return [machine.run(tape, fuel=fuel) for machine, tape in jobs]


class CountingMachine(TuringMachine):
    """A machine that counts how many times it crosses a pickle
    boundary — the probe for 'each program ships at most once'."""

    pickles = 0

    def __reduce__(self):
        type(self).pickles += 1
        return (
            CountingMachine,
            (dict(self.delta), self.initial, self.accept_states, self.reject_states),
        )


def counting_machine():
    base = binary_increment()
    return CountingMachine(base.delta, base.initial, base.accept_states, base.reject_states)


# -- payload interning (pure) -------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    plan=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), st.integers(0, 5)),
        min_size=0,
        max_size=24,
    )
)
def test_intern_batch_reconstructs_every_job(plan):
    """Property: slots map every job to a unique job of identical
    content, and unique jobs are distinct by (program, tape)."""
    jobs = [(MACHINES[i](), "1" * n) for i, n in plan]
    unique, slots, keys = intern_jobs(TM_WORKLOAD, jobs)
    assert len(slots) == len(jobs)
    assert len(keys) == len(unique)
    for (machine, tape), s in zip(jobs, slots):
        u_machine, u_tape = unique[s]
        assert program_key(machine) == program_key(u_machine)
        assert tape == u_tape
    seen = {(key, tape) for key, (_, tape) in zip(keys, unique)}
    assert len(seen) == len(unique)  # unique really is unique


@settings(max_examples=8, deadline=None)
@given(
    plan=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), st.integers(0, 5)),
        min_size=1,
        max_size=16,
    )
)
def test_adaptive_process_matches_serial_property(plan):
    """Property: adaptive dispatch over a persistent warm pool returns
    results identical and in-order vs SerialBackend, duplicates and
    all.  One pool serves every example — that *is* the warm path."""
    global _PROPERTY_BACKEND
    if _PROPERTY_BACKEND is None:
        _PROPERTY_BACKEND = ProcessBackend(TM_WORKLOAD, workers=2)
    jobs = [(MACHINES[i](), "1" * n) for i, n in plan]
    expected = run_many(jobs, backend=SerialBackend(TM_WORKLOAD))
    assert run_many(jobs, backend=_PROPERTY_BACKEND) == expected


_PROPERTY_BACKEND: ProcessBackend | None = None


def teardown_module():
    if _PROPERTY_BACKEND is not None:
        _PROPERTY_BACKEND.close()


# -- shipping discipline ------------------------------------------------------


def test_seeded_program_ships_at_most_once_per_worker():
    machine = counting_machine()
    jobs = [(machine, "1" * (i + 1)) for i in range(12)]
    backend = ProcessBackend(TM_WORKLOAD, workers=2)
    try:
        CountingMachine.pickles = 0
        results = run_many(jobs, backend=backend)
        assert results == reference_results(jobs)
        # The program is registered before the pool exists, so it is
        # seeded through the pool initializer: at most one pickle per
        # worker (zero under a forking start method — seeds transfer
        # by memory inheritance), and never in a chunk payload.
        assert CountingMachine.pickles <= backend.workers
        assert backend.last_dispatch["payload_bytes"] > 0
    finally:
        backend.close()


def test_late_program_ships_at_most_once_per_chunk():
    backend = ProcessBackend(TM_WORKLOAD, workers=2, chunksize=3)
    try:
        backend.warm(programs=[palindrome_checker()])  # pool exists now
        machine = counting_machine()
        jobs = [(machine, "1" * (i + 1)) for i in range(9)]
        CountingMachine.pickles = 0
        results = run_many(jobs, backend=backend)
        assert results == reference_results(jobs)
        # Discovered after warm-up, the program rides inside chunk
        # payloads — once per chunk however many jobs reference it.
        assert CountingMachine.pickles == backend.last_dispatch["chunks"] == 3
    finally:
        backend.close()


def test_warm_is_idempotent_and_returns_self():
    backend = ProcessBackend(TM_WORKLOAD, workers=2)
    try:
        assert backend.warm(jobs=[(binary_increment(), "1")]) is backend
        generation = backend.generation
        backend.warm(jobs=[(binary_increment(), "11")])  # same program: no rebuild
        assert backend.generation == generation
        backend.warm(programs=[copier()])  # new program: rebuild, re-seeded
        assert backend.generation == generation + 1
    finally:
        backend.close()


# -- warm memo and lifecycle --------------------------------------------------


def test_warm_memo_answers_repeats_without_the_pool():
    backend = ProcessBackend(TM_WORKLOAD, workers=2)
    try:
        jobs = [(m(), "101") for m in MACHINES] * 2
        first = run_many(jobs, backend=backend)
        assert backend.last_dispatch["memo_hits"] == 0
        with observed() as obs:
            second = run_many(jobs, backend=backend)
        assert second == first
        summary = backend.last_dispatch
        # memo_hits is the explicit disambiguator: a memo-served batch
        # reports chunks=0 and payload_bytes=0 *plus* memo_hits=N, so
        # "nothing ran" and "everything was memoed" read differently.
        assert summary["memo_hits"] == len(jobs)
        assert summary["chunks"] == 0 and summary["payload_bytes"] == 0
        assert obs.registry.value("batch_warm_hits", backend="process") == len(jobs)
    finally:
        backend.close()


@pytest.mark.parametrize(
    "make_backend",
    [
        lambda: ProcessBackend(TM_WORKLOAD, workers=2),
        lambda: DistBackend(TM_WORKLOAD, nodes=2, topology="single_node", workers_per_node=0),
    ],
    ids=["process", "dist"],
)
def test_invalidate_drops_memo_and_tables(make_backend):
    backend = make_backend()
    try:
        jobs = [(binary_increment(), "1" * (i + 1)) for i in range(4)]
        first = run_many(jobs, backend=backend)
        backend.invalidate()
        assert backend._memo == {} and backend._known == {} and backend._cost == {}
        again = run_many(jobs, backend=backend)  # rebuilt from nothing
        assert again == first
        assert backend.last_dispatch["memo_hits"] == 0
    finally:
        backend.close()


def test_recover_bumps_generation_and_reseeds():
    backend = ProcessBackend(TM_WORKLOAD, workers=2)
    try:
        jobs = [(copier(), "1" * (i + 1)) for i in range(4)]
        first = run_many(jobs, backend=backend)
        generation = backend.generation
        backend.recover()
        fresh_jobs = [(copier(), "11" * (i + 3)) for i in range(4)]  # dodge the memo
        assert run_many(fresh_jobs, backend=backend) == reference_results(fresh_jobs)
        assert backend.generation == generation + 1
        assert run_many(jobs, backend=backend) == first  # memo survives recover
    finally:
        backend.close()


def test_stale_generation_payload_resets_worker_table():
    # Worker-side check, no pool: a payload from generation 2 must not
    # be served by tables installed for generation 1.
    machine = binary_increment()
    key_jobs = [(0, "1")]
    old = _run_workload_chunk((TM_WORKLOAD, 1, key_jobs, {0: machine}, 10_000))
    fresh = _run_workload_chunk((TM_WORKLOAD, 2, key_jobs, {0: machine}, 10_000))
    assert old[0] == fresh[0]
    assert fresh[1]["misses"] == 1  # recompiled: the gen-1 table was dropped


def test_worker_rejects_unknown_program_id():
    with pytest.raises(ProgramNotResident):
        _run_workload_chunk((TM_WORKLOAD, 7, [(99, "1")], {}, 10_000))


def one_rule_machine(i: int) -> TuringMachine:
    return TuringMachine.from_rules([(f"q{i}", "1", f"q{i}", "0", "R")], initial=f"q{i}")


def test_worker_table_stays_bounded_across_rounds():
    # Four rounds of 3,000 distinct programs, each sharing 1,500 with
    # the round before: the worker keeps at most TABLE_SIZE residents.
    machines = [one_rule_machine(i) for i in range(7_500)]
    backend = ProcessBackend(TM_WORKLOAD, workers=1)
    try:
        for start in range(0, 6_000, 1_500):
            jobs = [(m, "11") for m in machines[start : start + 3_000]]
            expected = [TM_WORKLOAD.run_direct(m, tape, 100) for m, tape in jobs]
            assert backend.execute(jobs, fuel=100) == expected
            assert backend.last_cache_stats["size"] <= TABLE_SIZE
    finally:
        backend.close()


def test_worker_table_evicts_least_recently_used_programs():
    n = TABLE_SIZE + 10
    seeded = one_rule_machine(0)
    shipped = {pid: one_rule_machine(pid) for pid in range(1, n + 1)}
    table = _resident_table(3, [(0, seeded)])
    # One chunk names n distinct programs twice: the second pass finds
    # each evicted source again in the chunk's own shipped map.
    entries = [(0, "1")] + [(pid, "1") for pid in shipped] * 2
    results, stats, _ = _execute_entries(TM_WORKLOAD, 3, entries, shipped, 100, table)
    programs = {0: seeded, **shipped}
    assert results == [TM_WORKLOAD.run_direct(programs[pid], "1", 100) for pid, _ in entries]
    assert stats == {"hits": 0, "misses": len(entries), "size": TABLE_SIZE}
    # The evicted seeded program is prepared again from its seeded source...
    results, stats, _ = _execute_entries(TM_WORKLOAD, 3, [(0, "11")], {}, 100, table)
    assert results == [seeded.run("11", fuel=100)]
    assert stats == {"hits": 0, "misses": 1, "size": TABLE_SIZE}
    # ...while an evicted shipped program is gone until it ships again.
    with pytest.raises(ProgramNotResident):
        _execute_entries(TM_WORKLOAD, 3, [(1, "1")], {}, 100, table)
    results, stats, _ = _execute_entries(TM_WORKLOAD, 3, [(n, "1")], {}, 100, table)
    assert stats["hits"] == 1  # recently used programs stay resident


def test_fork_pid_guard_rebuilds_pool():
    backend = ProcessBackend(TM_WORKLOAD, workers=2)
    try:
        jobs = [(binary_increment(), "1" * (i + 1)) for i in range(4)]
        run_many(jobs, backend=backend)
        old_pool = backend._pool
        generation = backend.generation
        # Simulate waking up inside an os.fork() child: the recorded
        # owner pid no longer matches.  The guard must drop the
        # (parent-owned) pool reference without shutting it down and
        # build a fresh pool under a new generation.
        backend._owner_pid = backend._owner_pid - 1
        fresh_jobs = [(binary_increment(), "10" * (i + 4)) for i in range(4)]
        assert run_many(fresh_jobs, backend=backend) == reference_results(fresh_jobs)
        assert backend._pool is not old_pool
        assert backend.generation == generation + 1
        assert backend._owner_pid == os.getpid()
    finally:
        backend.close()
        old_pool.shutdown()  # the "parent's" pool, orphaned by the guard


# -- adaptive dispatch --------------------------------------------------------


def test_guided_dispatch_chunk_plan_is_deterministic():
    # With no cost history every job estimates 1.0, so the guided
    # split depends only on the pop sequence, never on which worker
    # finishes first: 20 jobs over 2 workers pop as
    # 5,4,3,2,2,1,1,1,1 — geometric decay to single-job tails.
    backend = ProcessBackend(TM_WORKLOAD, workers=2)
    try:
        jobs = [(binary_increment(), "1" * (i + 1)) for i in range(20)]
        results = run_many(jobs, backend=backend)
        assert results == reference_results(jobs)
        summary = backend.last_dispatch
        assert summary["chunks"] == 9
        assert summary["steals"] == 7  # every pull beyond the first wave of 2
    finally:
        backend.close()


def test_steals_and_summary_metrics_recorded():
    backend = ProcessBackend(TM_WORKLOAD, workers=2)
    try:
        jobs = [(m(), "1" * (i + 1)) for i in range(5) for m in MACHINES]
        with observed() as obs:
            run_many(jobs, backend=backend)
        summary = backend.last_dispatch
        assert summary["steals"] >= 1
        assert obs.registry.value("batch_steal_total", backend="process") == summary["steals"]
        assert (
            obs.registry.value("batch_payload_bytes", backend="process")
            == summary["payload_bytes"]
            > 0
        )
        (tree,) = [
            t for t in obs.tracer.span_trees() if t["name"] == "batch.run_many"
        ]
        events = [e for e in tree["events"] if e["name"] == "batch.dispatch_summary"]
        assert len(events) == 1
        assert events[0]["attributes"]["chunks"] == summary["chunks"]
        assert events[0]["attributes"]["steals"] == summary["steals"]
    finally:
        backend.close()


def test_explicit_chunksize_keeps_static_split():
    backend = ProcessBackend(TM_WORKLOAD, workers=2, chunksize=4)
    try:
        jobs = [(binary_increment(), "1" * (i + 1)) for i in range(8)]
        run_many(jobs, backend=backend)
        assert backend.last_dispatch["chunks"] == 2
        assert backend.last_dispatch["steals"] == 0
    finally:
        backend.close()


def test_process_uncompilable_machine_falls_back_in_worker():
    symbols = [chr(0x100 + i) for i in range(300)]
    weird = TuringMachine({("s", c): ("s", c, "R") for c in symbols}, "s")
    jobs = [(weird, symbols[0] * 2), (binary_increment(), "11"), (weird, symbols[0] * 2)]
    backend = ProcessBackend(TM_WORKLOAD, workers=2)
    try:
        assert run_many(jobs, fuel=20, backend=backend) == reference_results(jobs, fuel=20)
    finally:
        backend.close()


# -- static chunking edge cases (satellite) -----------------------------------


def test_chunks_rejects_nonpositive_chunksize():
    with pytest.raises(ValueError):
        ProcessBackend(TM_WORKLOAD, workers=2, chunksize=0)
    with pytest.raises(ValueError):
        ProcessBackend(TM_WORKLOAD, workers=2, chunksize=-3)
    backend = ProcessBackend(TM_WORKLOAD, workers=2)
    backend.chunksize = 0  # a mutated attribute must still be caught
    with pytest.raises(ValueError):
        backend._chunks([(binary_increment(), "1")] * 4)


def test_chunks_merges_degenerate_trailing_job():
    backend = ProcessBackend(TM_WORKLOAD, workers=2, chunksize=2)
    jobs = [(binary_increment(), str(i)) for i in range(5)]
    chunks = backend._chunks(jobs)
    assert [len(c) for c in chunks] == [2, 3]  # never a trailing 1-job chunk
    assert [job for chunk in chunks for job in chunk] == jobs
    # A 1-job batch is still one (1-job) chunk.
    assert [len(c) for c in backend._chunks(jobs[:1])] == [1]

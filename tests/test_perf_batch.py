"""Tests for batched execution, compile caching, backends, and the
consumers wired onto them (universal machine, busy-beaver scoring,
the simulated multicore)."""

import pytest

from repro.machines.busybeaver import (
    BB_CHAMPIONS,
    busy_beaver_machine,
    halting_survey,
    score,
)
from repro.machines.turing import (
    TuringMachine,
    binary_increment,
    copier,
    palindrome_checker,
    unary_adder,
)
from repro.machines.universal import UniversalMachine, decode_tm, encode_tm
from repro.parallel.multicore import Multicore
from repro.perf.batch import run_many
from repro.perf.engine import program_key
from repro.runtime import (
    ProcessBackend,
    ResidentCache,
    SerialBackend,
    create_backend,
)
from repro.runtime.workloads.machines import MACHINES

JOBS = [
    (binary_increment(), "1011"),
    (palindrome_checker(), "abba"),
    (unary_adder(), "111+11"),
    (copier(), "111"),
    (busy_beaver_machine(3), ""),
    (binary_increment(), "111"),
]


def reference_results(jobs, fuel=10_000):
    return [machine.run(tape, fuel=fuel) for machine, tape in jobs]


def test_run_many_matches_reference_in_order():
    assert run_many(JOBS) == reference_results(JOBS)


def test_run_many_empty():
    assert run_many([]) == []


def test_run_many_respects_fuel():
    spin = TuringMachine.from_rules([("s", "_", "s", "_", "R")], initial="s")
    results = run_many([(spin, "")] * 3, fuel=17)
    assert all(not r.halted and r.steps == 17 for r in results)


def test_machine_key_is_content_based():
    a = binary_increment()
    b = decode_tm(encode_tm(binary_increment()))  # equal content, new object
    assert a is not b
    assert program_key(a) == program_key(b)
    assert program_key(a) != program_key(palindrome_checker())


def test_compile_cache_hits_across_equal_machines():
    cache = ResidentCache(MACHINES)
    a = binary_increment()
    b = decode_tm(encode_tm(binary_increment()))
    first = cache.get(a)
    second = cache.get(b)
    assert first is second  # content key, not identity
    assert cache.stats() == {"hits": 1, "misses": 1, "size": 1}


def test_compile_cache_lru_eviction():
    cache = ResidentCache(MACHINES, maxsize=2)
    machines = [binary_increment(), palindrome_checker(), copier()]
    for m in machines:
        cache.get(m)
    assert len(cache) == 2
    cache.get(machines[0])  # evicted earlier -> fresh miss
    assert cache.misses == 4
    with pytest.raises(ValueError):
        ResidentCache(MACHINES, maxsize=0)


def test_run_many_shares_caller_cache():
    backend = SerialBackend(MACHINES)
    jobs = [(binary_increment(), f"1{'0' * i}") for i in range(6)]
    results = run_many(jobs, backend=backend)
    assert results == reference_results(jobs)
    cache = backend.residents
    assert cache.stats()["misses"] == 1
    assert cache.stats()["hits"] == 5


def test_backend_factory():
    assert isinstance(create_backend("serial"), SerialBackend)
    backend = create_backend("process", workers=2, chunksize=3)
    assert isinstance(backend, ProcessBackend)
    assert backend.workers == 2 and backend.chunksize == 3
    with pytest.raises(ValueError, match="unknown backend"):
        create_backend("gpu")


def test_process_backend_rejects_zero_workers():
    for workers in (0, -1):
        with pytest.raises(ValueError, match="need at least one worker"):
            ProcessBackend(MACHINES, workers=workers)


def test_process_backend_chunking():
    backend = ProcessBackend(MACHINES, workers=2, chunksize=2)
    chunks = backend._chunks(JOBS)
    assert [len(c) for c in chunks] == [2, 2, 2]
    assert [job for chunk in chunks for job in chunk] == JOBS


def test_process_backend_chunk_count_clamped():
    # Without an explicit chunksize the old heuristic produced one
    # chunk per len(jobs)//workers jobs — hundreds of tiny pickled
    # chunks for large batches.  The clamp targets <= workers * 4.
    backend = ProcessBackend(MACHINES, workers=2)
    for n in (1, 7, 30, 800):
        jobs = [(binary_increment(), "1")] * n
        chunks = backend._chunks(jobs)
        assert len(chunks) <= backend.workers * 4
        assert [job for chunk in chunks for job in chunk] == jobs
    assert len(backend._chunks([(binary_increment(), "1")] * 800)) == 8


def test_process_backend_surfaces_worker_cache_stats():
    backend = ProcessBackend(MACHINES, workers=2, chunksize=4)
    try:
        jobs = [(binary_increment(), "1" * i) for i in range(8)]
        run_many(jobs, backend=backend)
        # Two chunks over one distinct machine.  Each *worker* that
        # sees the program compiles it exactly once into its resident
        # table — whether both chunks land on one worker or one each
        # is a scheduling race, so only the bounds are deterministic.
        stats = backend.last_cache_stats
        assert stats["hits"] + stats["misses"] == len(jobs)
        assert 1 <= stats["misses"] <= 2
    finally:
        backend.close()


def test_serial_backend_reports_delta_not_history():
    backend = SerialBackend(MACHINES)
    jobs = [(binary_increment(), "1")] * 4
    run_many(jobs, backend=backend)
    assert backend.last_cache_stats == {"hits": 3, "misses": 1, "size": 1}
    run_many(jobs, backend=backend)  # all hits now
    assert backend.last_cache_stats == {"hits": 4, "misses": 0, "size": 1}


def test_serial_submit_chunk_returns_settled_future():
    future = SerialBackend(MACHINES).submit_chunk(JOBS, fuel=10_000)
    assert future.done()
    results, stats, elapsed = future.result()
    assert results == reference_results(JOBS)
    assert stats["misses"] >= 1 and elapsed >= 0


def test_process_submit_chunk_and_recover():
    backend = ProcessBackend(MACHINES, workers=2)
    try:
        first = backend.submit_chunk(JOBS[:2], fuel=10_000)
        assert first.result()[0] == reference_results(JOBS[:2])
        backend.recover()  # discard the pool; the next submit starts fresh
        second = backend.submit_chunk(JOBS[2:4], fuel=10_000)
        assert second.result()[0] == reference_results(JOBS[2:4])
    finally:
        backend.close()


class RaisingMachine(TuringMachine):
    """A job whose execution raises (not a worker crash): the whole
    chunk fails and ``execute`` propagates the error."""

    def run(self, tape_input, *, fuel=10_000):
        raise RuntimeError("job blew up")


def raising_job():
    # 300 symbols: unpreparable, so the job runs through run_direct.
    symbols = [chr(0x100 + i) for i in range(300)]
    machine = RaisingMachine({("s", c): ("s", c, "R") for c in symbols}, "s")
    return (machine, symbols[0])


@pytest.mark.parametrize("backend_cls", [SerialBackend, ProcessBackend])
def test_backend_cache_stats_reset_on_failure(backend_cls):
    # A chunk raising mid-batch used to leave last_cache_stats stale
    # from the previous, successful run.
    backend = (
        backend_cls(MACHINES, workers=2)
        if backend_cls is ProcessBackend
        else backend_cls(MACHINES)
    )
    run_many(JOBS, backend=backend)
    assert backend.last_cache_stats["misses"] > 0
    with pytest.raises(RuntimeError, match="job blew up"):
        run_many([raising_job()] * 2, backend=backend)
    assert backend.last_cache_stats == {"hits": 0, "misses": 0, "size": 0}


def test_process_backend_matches_serial():
    jobs = JOBS * 2
    expected = run_many(jobs, backend="serial")
    got = run_many(jobs, backend=ProcessBackend(MACHINES, workers=2, chunksize=4))
    assert got == expected


def test_run_many_uncompilable_machine_falls_back():
    symbols = [chr(0x100 + i) for i in range(300)]
    weird = TuringMachine({("s", c): ("s", c, "R") for c in symbols}, "s")
    jobs = [(weird, symbols[0] * 2), (binary_increment(), "11")]
    assert run_many(jobs, fuel=20) == reference_results(jobs, fuel=20)


# -- universal machine -------------------------------------------------------


def test_universal_compiled_equivalence():
    plain = UniversalMachine()
    fast = UniversalMachine(compiled=True)
    for machine, tape in JOBS:
        desc = encode_tm(machine)
        assert fast.run(desc, tape) == plain.run(desc, tape)


def test_universal_compiled_charges_decode_overhead():
    fast = UniversalMachine(compiled=True)
    machine = busy_beaver_machine(2)
    direct = machine.run("")
    via_u = fast.run(encode_tm(machine), "")
    assert via_u.steps == direct.steps + UniversalMachine.DECODE_OVERHEAD


def test_universal_cache_eviction_stays_correct():
    fast = UniversalMachine(compiled=True, cache_size=1)
    d1, d2 = encode_tm(binary_increment()), encode_tm(palindrome_checker())
    for _ in range(2):  # alternate to force evictions
        assert fast.run(d1, "1").tape == "10"
        assert fast.run(d2, "aba").accepted
    with pytest.raises(ValueError):
        UniversalMachine(cache_size=0)


# -- busy beavers ------------------------------------------------------------


@pytest.mark.parametrize("n", sorted(BB_CHAMPIONS))
def test_compiled_score_matches_champions(n):
    sigma, steps = BB_CHAMPIONS[n]
    assert score(busy_beaver_machine(n), compiled=True) == (sigma, steps)


def test_halting_survey_compiled_matches_reference():
    family = [busy_beaver_machine(n) for n in (1, 2, 3, 4)] + [
        TuringMachine.from_rules([("s", "_", "s", "_", "R")], initial="s")
    ]
    for fuel in (5, 200):
        ref = halting_survey(family, fuel=fuel)
        fast = halting_survey(family, fuel=fuel, compiled=True)
        assert (fast.halted, fast.running, fast.total) == (
            ref.halted,
            ref.running,
            ref.total,
        )


# -- simulated multicore -----------------------------------------------------


def test_multicore_run_machines_outputs():
    machines = [m for m, _ in JOBS]
    inputs = [tape for _, tape in JOBS]
    run = Multicore(4).run_machines(machines, inputs)
    assert run.outputs == reference_results(JOBS)
    assert run.total_steps == sum(r.steps for r in run.outputs)
    assert run.makespan > 0


def test_multicore_run_machines_parallel_speedup():
    machines = [palindrome_checker() for _ in range(4)]
    inputs = ["a" * 30] * 4
    serial = Multicore(1).run_machines(machines, inputs)
    parallel = Multicore(4).run_machines(machines, inputs)
    assert parallel.outputs == serial.outputs
    assert parallel.makespan < serial.makespan


def test_multicore_run_machines_validates_lengths():
    with pytest.raises(ValueError):
        Multicore(2).run_machines([binary_increment()], [])

"""Tests for the deterministic chaos harness (schedules, injection,
payload validation, and the unsupervised failure modes it reproduces)."""

import pytest

from repro.faults.chaos import (
    FAULT_KINDS,
    ChaosBackend,
    ChaosSchedule,
    ChunkCorruption,
    ChunkTimeout,
    WorkerCrash,
    job_key,
    valid_payload,
)
from repro.machines.turing import binary_increment, copier, palindrome_checker
from repro.machines.universal import decode_tm, encode_tm
from repro.perf.batch import run_many
from repro.runtime import ProcessBackend, SerialBackend
from repro.runtime.workloads.machines import MACHINES

JOBS = [
    (binary_increment(), "1011"),
    (palindrome_checker(), "abba"),
    (copier(), "111"),
    (binary_increment(), "111"),
]


def reference_results(jobs, fuel=10_000):
    return [machine.run(tape, fuel=fuel) for machine, tape in jobs]


# -- ChaosSchedule -----------------------------------------------------------


def test_schedule_explicit_kinds():
    schedule = ChaosSchedule(kinds={0: "crash", 2: "timeout", 3: "corrupt"})
    assert [schedule.next_fault() for _ in range(5)] == [
        "crash",
        None,
        "timeout",
        "corrupt",
        None,
    ]
    assert schedule.operations_seen == 5


def test_schedule_boolean_compat():
    schedule = ChaosSchedule(kinds={1: "crash"})
    assert [schedule.next_faults() for _ in range(3)] == [False, True, False]


def test_schedule_rates_deterministic():
    a = ChaosSchedule(rates={"crash": 0.3, "timeout": 0.2}, seed=7)
    b = ChaosSchedule(rates={"crash": 0.3, "timeout": 0.2}, seed=7)
    draws = [a.next_fault() for _ in range(60)]
    assert draws == [b.next_fault() for _ in range(60)]
    assert set(draws) <= {None, "crash", "timeout"}
    assert any(k is not None for k in draws)


def test_schedule_validation():
    with pytest.raises(ValueError):
        ChaosSchedule()  # neither
    with pytest.raises(ValueError):
        ChaosSchedule(kinds={0: "crash"}, rates={"crash": 0.5})  # both
    with pytest.raises(ValueError):
        ChaosSchedule(kinds={0: "meteor"})
    with pytest.raises(ValueError):
        ChaosSchedule(rates={"meteor": 0.5})
    with pytest.raises(ValueError):
        ChaosSchedule(rates={"crash": 0.8, "timeout": 0.5})  # sums past 1
    assert ChaosSchedule.never().next_fault() is None


# -- payload validation ------------------------------------------------------


def test_valid_payload_accepts_real_chunk():
    payload = SerialBackend(MACHINES).submit_chunk(JOBS, fuel=1000).result()
    assert valid_payload(payload, len(JOBS))


def test_valid_payload_rejects_corruption():
    results, stats, elapsed = (
        SerialBackend(MACHINES).submit_chunk(JOBS, fuel=1000).result()
    )
    assert not valid_payload((results[:-1], stats, elapsed), len(JOBS))  # truncated
    assert not valid_payload((results + ["junk"], stats, elapsed), len(JOBS) + 1)
    assert not valid_payload("garbage", len(JOBS))
    assert not valid_payload((results, stats), len(JOBS))


# -- ChaosBackend ------------------------------------------------------------


def test_chaos_backend_passthrough_when_fault_free():
    chaos = ChaosBackend(SerialBackend(MACHINES))
    assert run_many(JOBS, backend=chaos) == reference_results(JOBS)
    assert chaos.last_cache_stats["misses"] > 0
    assert chaos.injected == {kind: 0 for kind in FAULT_KINDS}


def test_chaos_backend_reports_table_size_not_a_sum():
    """Each chunk reports its worker's persisting table; chaos keeps the
    largest, so eight jobs of one machine read one resident, as bare."""
    machine = binary_increment()
    jobs = [(machine, "1" * (n + 1)) for n in range(8)]
    inner = ProcessBackend(MACHINES, workers=2, chunksize=2)
    try:
        chaos = ChaosBackend(inner)
        assert chaos.execute(jobs, fuel=1000) == reference_results(jobs, 1000)
        assert chaos.last_dispatch["chunks"] == 4
        assert chaos.last_cache_stats["size"] == 1
    finally:
        inner.close()


def test_chaos_backend_crash_aborts_unsupervised_batch():
    chaos = ChaosBackend(SerialBackend(MACHINES), schedule=ChaosSchedule(kinds={0: "crash"}))
    with pytest.raises(WorkerCrash):
        chaos.execute(JOBS, fuel=1000)
    assert chaos.injected["crash"] == 1


def test_chaos_backend_timeout_aborts_unsupervised_batch():
    chaos = ChaosBackend(SerialBackend(MACHINES), schedule=ChaosSchedule(kinds={0: "timeout"}))
    with pytest.raises(ChunkTimeout):
        chaos.execute(JOBS, fuel=1000)


def test_chaos_backend_corruption_aborts_unsupervised_batch():
    chaos = ChaosBackend(SerialBackend(MACHINES), schedule=ChaosSchedule(kinds={0: "corrupt"}))
    with pytest.raises(ChunkCorruption):
        chaos.execute(JOBS, fuel=1000)


def test_poison_matched_by_content_not_identity():
    machine, tape = JOBS[0]
    clone = (decode_tm(encode_tm(machine)), tape)  # equal content, new object
    assert job_key(clone) == job_key(JOBS[0])
    chaos = ChaosBackend(SerialBackend(MACHINES), poison_jobs=[clone])
    with pytest.raises(WorkerCrash):
        chaos.execute(JOBS, fuel=1000)
    assert chaos.injected["crash"] >= 1


def test_chaos_backend_requires_chunk_interface():
    class NoChunks:
        pass

    with pytest.raises(TypeError):
        ChaosBackend(NoChunks())


# -- hard kills --------------------------------------------------------------


def test_kill_exit_code_is_sigkill_shaped():
    from repro.faults.chaos import KILL_EXIT_CODE

    assert KILL_EXIT_CODE == 137  # 128 + SIGKILL


def test_schedule_accepts_kill_kind():
    schedule = ChaosSchedule(kinds={1: "kill"})
    assert [schedule.next_fault() for _ in range(3)] == [None, "kill", None]


def test_kill_action_seam_observes_the_kill():
    from repro.faults.chaos import KILL_EXIT_CODE

    seen = []
    chaos = ChaosBackend(
        SerialBackend(MACHINES),
        schedule=ChaosSchedule(kinds={0: "kill"}),
        kill_action=seen.append,
    )
    # When the seam returns (a real kill never does), the dispatch
    # settles as a crash, so the batch aborts like any dead worker.
    with pytest.raises(WorkerCrash):
        chaos.execute(JOBS, fuel=1000)
    assert seen == [KILL_EXIT_CODE]
    assert chaos.injected["kill"] == 1


def test_kill_code_override_reaches_the_action():
    seen = []
    chaos = ChaosBackend(
        SerialBackend(MACHINES),
        schedule=ChaosSchedule(kinds={0: "kill"}),
        kill_action=seen.append,
        kill_code=9,
    )
    with pytest.raises(WorkerCrash):
        chaos.execute(JOBS, fuel=1000)
    assert seen == [9]


def test_supervisor_survives_observed_kill():
    """With the seam in place a kill looks like a worker crash, and the
    supervisor recovers the chunk exactly as it would any dead pool."""
    from repro.faults.supervisor import SupervisedBackend, SupervisorPolicy

    chaos = ChaosBackend(
        SerialBackend(MACHINES),
        schedule=ChaosSchedule(kinds={0: "kill"}),
        kill_action=lambda code: None,
    )
    backend = SupervisedBackend(inner=chaos, policy=SupervisorPolicy(max_chunk_retries=2))
    assert backend.execute(JOBS, fuel=10_000) == reference_results(JOBS)
    assert backend.last_report.retries >= 1
    assert chaos.injected["kill"] == 1

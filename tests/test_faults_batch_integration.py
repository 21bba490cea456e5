"""Fault injection composed with the batch layer.

The job *stream* itself comes through faulty components — machine
descriptions on a :class:`FaultyDisk`, tapes from a
:class:`FlakyServer` — guarded by :class:`RetryPolicy`, then executed
under each backend; and supervised chaos runs are property-checked to
equal clean runs job-for-job.
"""

import pytest

from repro.faults.chaos import ChaosBackend, ChaosSchedule
from repro.faults.injection import FaultSchedule, FaultyDisk, FlakyServer
from repro.faults.retry import RetryPolicy
from repro.faults.supervisor import SupervisedBackend, SupervisorPolicy
from repro.machines.busybeaver import busy_beaver_machine
from repro.machines.turing import binary_increment, copier, palindrome_checker
from repro.machines.universal import decode_tm, encode_tm
from repro.perf.batch import run_many
from repro.runtime import ProcessBackend, SerialBackend
from repro.runtime.workloads.machines import MACHINES

JOBS = [
    (binary_increment(), "1011"),
    (palindrome_checker(), "abba"),
    (copier(), "111"),
    (busy_beaver_machine(3), ""),
    (binary_increment(), "111"),
    (palindrome_checker(), "aba"),
]
REFERENCE = [machine.run(tape) for machine, tape in JOBS]


def test_job_stream_from_faulty_disk_runs_on_both_backends():
    """Machine descriptions survive transient disk faults via retry,
    then run identically under the serial and process backends."""
    n = len(JOBS)
    # Ops 0..n-1 are the writes; reads (ops n..) hit two transient faults.
    disk = FaultyDisk(10_000, schedule=FaultSchedule(failing=[n, n + 3]))
    for i, (machine, tape) in enumerate(JOBS):
        # Newline-framed: the TM encoding itself uses "|" separators.
        disk.write(f"job{i}", f"{encode_tm(machine)}\n{tape}".encode())
    policy = RetryPolicy(max_attempts=4)
    jobs = []
    for i in range(n):
        outcome = policy.call(lambda name=f"job{i}": disk.read(name))
        assert outcome.succeeded
        desc, _, tape = outcome.result.decode().partition("\n")
        jobs.append((decode_tm(desc), tape))
    assert run_many(jobs, backend=SerialBackend(MACHINES)) == REFERENCE
    assert run_many(jobs, backend=ProcessBackend(MACHINES, workers=2, chunksize=2)) == REFERENCE


def test_job_stream_from_flaky_server_runs_on_both_backends():
    """Tapes fetched from a server that keeps timing out, guarded by
    retry, still produce the exact reference batch."""
    tapes = {i: tape for i, (_, tape) in enumerate(JOBS)}
    server = FlakyServer(lambda i: tapes[i], schedule=FaultSchedule(rate=0.4, seed=11))
    policy = RetryPolicy(max_attempts=8, jitter="decorrelated", seed=3)
    jobs = []
    for i, (machine, _) in enumerate(JOBS):
        outcome = policy.call(lambda i=i: server.request(i))
        assert outcome.succeeded
        jobs.append((machine, outcome.result))
    assert server.requests_served == len(JOBS)
    assert run_many(jobs, backend=SerialBackend(MACHINES)) == REFERENCE
    assert run_many(jobs, backend=ProcessBackend(MACHINES, workers=2, chunksize=3)) == REFERENCE


@pytest.mark.parametrize("seed", range(5))
def test_property_supervised_chaos_equals_clean_run(seed):
    """For seeded random crash/corrupt storms, the supervised run equals
    the clean run job-for-job, with nothing quarantined."""
    jobs = JOBS * 4  # 24 jobs
    clean = run_many(jobs, backend="serial")
    chaos = ChaosBackend(
        SerialBackend(MACHINES),
        schedule=ChaosSchedule(rates={"crash": 0.12, "corrupt": 0.1}, seed=seed),
    )
    backend = SupervisedBackend(
        inner=chaos,
        policy=SupervisorPolicy(chunksize=4, max_chunk_retries=5, max_pool_restarts=1000),
    )
    assert run_many(jobs, backend=backend) == clean
    assert backend.last_report.quarantined == []

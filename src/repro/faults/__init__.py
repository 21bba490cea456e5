"""Edge cases and failure cases (paper §1a).

    "Because our abstractions are ultimately implemented to work
    within the constraints of the physical world, we have to worry
    about edge cases and failure cases.  What happens when the disk is
    full or the server is not responding?"

:mod:`repro.faults.injection` provides exactly those two canonical
faulty components — a :class:`FaultyDisk` that fills up and a
:class:`FlakyServer` that stops responding — driven by deterministic
fault schedules so tests are reproducible.
:mod:`repro.faults.retry` provides the defensive patterns (retry with
backoff, circuit breaker) whose value experiment C24 measures.
:mod:`repro.faults.chaos` scales the same discipline up to the batch
layer — scheduled worker crashes, hung chunks, corrupted payloads,
hard kills (``os._exit``, the ``kill -9`` stand-in), killed nodes and
poison jobs — and :mod:`repro.faults.supervisor` provides the recovery
path that survives them: deadlines, bounded retries, hedged dispatch,
pool and node restarts with graceful degradation, and poison
quarantine by bisection.  :mod:`repro.faults.recovery` is the
deliberate half of the durable job journal
(:mod:`repro.runtime.journal`): it replays the append-only log after a
hard crash, tolerating torn tails, so sweeps resume exactly-once, and
the journal's ``replay_dead_letters`` re-runs quarantined jobs after a
fix.
"""

from repro.faults.chaos import (
    FAULT_KINDS,
    KILL_EXIT_CODE,
    ChaosBackend,
    ChaosSchedule,
    ChunkCorruption,
    ChunkTimeout,
    WorkerCrash,
    job_key,
    valid_payload,
)
from repro.faults.injection import DiskFullError, FaultSchedule, FaultyDisk, FlakyServer, ServerTimeout
from repro.faults.recovery import RecoveredState, recover_journal, replay_record_job
from repro.faults.retry import CircuitBreaker, CircuitOpenError, RetryPolicy
from repro.faults.supervisor import (
    DeadLetter,
    SupervisedBackend,
    SupervisionReport,
    SupervisorPolicy,
)

__all__ = [
    "FaultyDisk",
    "FlakyServer",
    "FaultSchedule",
    "DiskFullError",
    "ServerTimeout",
    "RetryPolicy",
    "CircuitBreaker",
    "CircuitOpenError",
    "FAULT_KINDS",
    "KILL_EXIT_CODE",
    "ChaosSchedule",
    "ChaosBackend",
    "RecoveredState",
    "recover_journal",
    "replay_record_job",
    "job_key",
    "valid_payload",
    "WorkerCrash",
    "ChunkTimeout",
    "ChunkCorruption",
    "SupervisedBackend",
    "SupervisorPolicy",
    "SupervisionReport",
    "DeadLetter",
]

"""Deterministic chaos for the batch layer: crash, timeout, corruption.

The paper's question — "how difficult is the problem and what is the
best way to solve it?" — gets sharper when the substrate misbehaves.
:class:`ChaosSchedule` extends :class:`repro.faults.injection.FaultSchedule`
so that a fault also carries a *kind*, and :class:`ChaosBackend` sits
between a supervisor and a real execution backend, injecting the
scheduled fault at the chunk-dispatch boundary:

* ``"crash"`` — the dispatch settles with :class:`WorkerCrash`, the
  in-process stand-in for ``BrokenProcessPool`` (the worker died
  mid-chunk);
* ``"timeout"`` — the dispatch returns a future that is simply never
  resolved; only a supervisor deadline, never a sleep, turns it into a
  fault, so tests stay fast and deterministic;
* ``"corrupt"`` — the dispatch settles with a payload that fails
  :func:`valid_payload` (a truncated result list), the shape a torn
  IPC message would take;
* ``"kill"`` — the process dies *hard*, without cleanup: by default
  :func:`os._exit`, so no ``finally`` blocks, no ``atexit``, no
  buffered writes survive — the deterministic stand-in for ``kill -9``
  that the journal's resume gate is built on.  Run the victim in a
  child process (see ``benchmarks/bench_journal_resume.py``); tests
  that must survive pass ``kill_action=`` to observe the kill instead,
  in which case the dispatch settles as a :class:`WorkerCrash`;
* ``"node_kill"`` — one whole *node* of a multi-node backend dies
  (SIGKILL of a ``repro.comm`` node subprocess, or the loopback
  equivalent).  When the inner backend exposes a ``kill_node`` seam
  (:class:`repro.comm.dist.DistBackend` does) the node really dies and
  the chunk is dispatched into the dying fabric — the loss surfaces
  exactly as it would in production, through the backend's own
  node-loss detection and restart.  Inner backends without the seam
  see a plain ``"crash"`` instead, so schedules stay portable.

A *poison job* is nastier than a scheduled fault: any chunk containing
it crashes, every time, no matter how often it is retried — which is
exactly the behaviour that forces a supervisor to bisect the chunk and
quarantine the job.  Poison is matched by job *content* — the
workload adapter's ``content_key`` (for Turing machines,
:func:`repro.perf.engine.program_key` plus the tape) — not identity, so
a job decoded twice from the same description is still poison, for any
workload kind.

Nothing here sleeps, forks, or consults a wall clock: chaos runs are
reproducible bit-for-bit, which is what lets the recovery gate assert
that a chaos run equals a clean run job-for-job.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Mapping, Sequence
from concurrent.futures import Future

from repro.faults.injection import FaultSchedule
from repro.obs.instrument import OBS
from repro.obs.telemetry import absorb_chunk_telemetry
from repro.runtime.core import _ZERO_STATS
from repro.runtime.lifecycle import ChunkSettler
from repro.runtime.workload import Job, Workload
from repro.runtime.workloads.machines import MACHINES

__all__ = [
    "FAULT_KINDS",
    "KILL_EXIT_CODE",
    "WorkerCrash",
    "ChunkTimeout",
    "ChunkCorruption",
    "ChaosSchedule",
    "ChaosBackend",
    "job_key",
    "valid_payload",
]

FAULT_KINDS = ("crash", "timeout", "corrupt", "kill", "node_kill")

#: Exit status a hard kill reports, mirroring a SIGKILL's ``128 + 9``.
KILL_EXIT_CODE = 137


def _hard_kill(code: int = KILL_EXIT_CODE) -> None:  # pragma: no cover - dies
    """Die without cleanup — the real ``"kill"`` action.

    ``os._exit`` skips ``finally`` blocks, ``atexit`` handlers and
    stdio/file flushes, which is the point: anything not already
    fsynced is lost, exactly like ``kill -9``.
    """
    os._exit(code)


class WorkerCrash(RuntimeError):
    """The worker executing a chunk died (simulated ``BrokenProcessPool``)."""


class ChunkTimeout(TimeoutError):
    """A chunk missed its deadline."""


class ChunkCorruption(RuntimeError):
    """A chunk's payload failed shape validation."""


class ChaosSchedule(FaultSchedule):
    """A :class:`FaultSchedule` whose faults carry a kind.

    Either ``kinds`` (an explicit ``{dispatch_index: kind}`` script) or
    ``rates`` (``{kind: probability}``, seeded Bernoulli with total
    probability at most 1) — not both.  :meth:`next_fault` consumes one
    slot per dispatch and returns the kind or ``None``; the inherited
    boolean :meth:`next_faults` stays consistent with it.
    """

    def __init__(
        self,
        *,
        kinds: Mapping[int, str] | None = None,
        rates: Mapping[str, float] | None = None,
        seed: int | None = 0,
    ) -> None:
        if (kinds is None) == (rates is None):
            raise ValueError("specify exactly one of kinds= or rates=")
        unknown = (set(kinds.values()) if kinds is not None else set(rates or {})) - set(
            FAULT_KINDS
        )
        if unknown:
            raise ValueError(f"unknown fault kinds {sorted(unknown)}; choose from {FAULT_KINDS}")
        if kinds is not None:
            super().__init__(failing=set(kinds))
            self._kinds: dict[int, str] | None = dict(kinds)
            self._kind_rates: list[tuple[str, float]] | None = None
        else:
            assert rates is not None
            total = float(sum(rates.values()))
            if any(r < 0 for r in rates.values()) or total > 1.0:
                raise ValueError("rates must be nonnegative and sum to at most 1")
            super().__init__(rate=total, seed=seed)
            self._kinds = None
            self._kind_rates = sorted(rates.items())

    @staticmethod
    def never() -> "ChaosSchedule":
        return ChaosSchedule(kinds={})

    def next_fault(self) -> str | None:
        """Consume one dispatch slot; return the fault kind or ``None``."""
        i = self._index
        self._index += 1
        if self._kinds is not None:
            return self._kinds.get(i)
        assert self._kind_rates is not None
        draw = float(self._rng.random())
        acc = 0.0
        for kind, rate in self._kind_rates:
            acc += rate
            if draw < acc:
                return kind
        return None

    def next_faults(self) -> bool:
        return self.next_fault() is not None


def job_key(job: Job, workload: Workload | None = None) -> tuple:
    """Content key of a ``(program, input)`` job — how poison is matched.

    Defaults to the Turing-machine adapter (``(program_key(machine),
    tape)``, the historical key); pass the job's workload for any
    other kind.
    """
    return (workload if workload is not None else MACHINES).content_key(job)


def valid_payload(payload: object, njobs: int, workload: Workload | None = None) -> bool:
    """True iff ``payload`` has the ``(results, stats, seconds)`` chunk
    shape with exactly one valid result per job — valid in the eyes of
    ``workload`` (the Turing-machine adapter by default, whose check is
    an ``isinstance(r, TMResult)``).  The supervisor treats anything
    else as corruption and retries the chunk."""
    if not (isinstance(payload, tuple) and len(payload) == 3):
        return False
    results, stats, elapsed = payload
    checker = workload if workload is not None else MACHINES
    return (
        isinstance(results, list)
        and len(results) == njobs
        and all(checker.valid_result(r) for r in results)
        and isinstance(stats, Mapping)
        and isinstance(elapsed, (int, float))
    )


class ChaosBackend:
    """Inject scheduled faults between a supervisor and ``inner``.

    Satisfies the same chunk-level interface as the real backends
    (``submit_chunk``/``recover``/``close``), so a
    :class:`~repro.faults.supervisor.SupervisedBackend` cannot tell
    chaos from genuine misbehaviour.  Its own :meth:`execute` is the
    *unsupervised* control: the first injected fault aborts the batch,
    which is exactly the brittleness supervision exists to fix.
    """

    name = "chaos"

    def __init__(
        self,
        inner,
        *,
        schedule: ChaosSchedule | None = None,
        poison_jobs: Iterable[Job] = (),
        kill_action: Callable[[int], None] | None = None,
        kill_code: int = KILL_EXIT_CODE,
    ) -> None:
        if not hasattr(inner, "submit_chunk"):
            raise TypeError(f"inner backend {inner!r} has no submit_chunk")
        self.inner = inner
        # Chaos is workload-transparent: poison matching and payload
        # validation use the inner backend's adapter, so a supervisor
        # over chaos over any workload behaves like one over the bare
        # backend.
        self.workload: Workload = getattr(inner, "workload", None) or MACHINES
        self.schedule = schedule if schedule is not None else ChaosSchedule.never()
        self._kill_action = kill_action
        self.kill_code = kill_code
        self._poison = {job_key(job, self.workload) for job in poison_jobs}
        self.dispatches = 0
        self.recoveries = 0
        self.injected: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self.last_cache_stats: dict[str, int] = dict(_ZERO_STATS)
        self.last_dispatch: dict[str, int] = {}
        self._hung: set[Future] = set()

    def submit_chunk(self, chunk: Sequence[Job], *, fuel: int) -> Future:
        self.dispatches += 1
        kind = self.schedule.next_fault()
        if self._poison and any(
            job_key(job, self.workload) in self._poison for job in chunk
        ):
            kind = "crash"  # poison beats the schedule, every time
        if kind is None:
            return self.inner.submit_chunk(chunk, fuel=fuel)
        self.injected[kind] += 1
        OBS.event("chaos.inject", kind=kind, jobs=len(chunk), dispatch=self.dispatches)
        if kind == "node_kill":
            killer = getattr(self.inner, "kill_node", None)
            if killer is not None:
                # Kill a real node, then dispatch the chunk into the
                # dying fabric: the loss surfaces through the inner
                # backend's own detection (WorkerCrash on the future),
                # never as a synthetic fault.
                killer()
                return self.inner.submit_chunk(chunk, fuel=fuel)
            kind = "crash"  # no node seam: portable degradation
        fault: Future = Future()
        if kind == "kill":
            # Hard death, no cleanup.  The default action never
            # returns; a test-seam kill_action that does return sees
            # the dispatch settle as a crash, so the supervisor's view
            # stays deterministic either way.
            action = self._kill_action if self._kill_action is not None else _hard_kill
            action(self.kill_code)
            fault.set_exception(WorkerCrash("chaos: process hard-killed mid-chunk"))
        elif kind == "crash":
            fault.set_exception(WorkerCrash("chaos: worker lost mid-chunk"))
        elif kind == "corrupt":
            fault.set_result(([], dict(_ZERO_STATS), 0.0))
        else:  # "timeout": never resolved; a deadline must catch it
            self._hung.add(fault)
        return fault

    def recover(self) -> None:
        self.recoveries += 1
        recover = getattr(self.inner, "recover", None)
        if recover is not None:
            recover()

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()

    def _chunks(self, jobs: Sequence[Job]) -> list[Sequence[Job]]:
        chunker = getattr(self.inner, "_chunks", None)
        return chunker(jobs) if chunker is not None else [tuple(jobs)]

    def execute(self, jobs: Sequence[Job], *, fuel: int) -> list:
        self.last_cache_stats = dict(_ZERO_STATS)
        self.last_dispatch = {}
        if not jobs:
            return []
        settler = ChunkSettler(self.name)
        out: list = []
        injected_before = sum(self.injected.values())
        chunks = self._chunks(jobs)
        if OBS.enabled:
            OBS.gauge("batch_queue_depth", len(chunks), backend=self.name)
        for chunk in chunks:
            future = self.submit_chunk(chunk, fuel=fuel)
            if future in self._hung:
                future.cancel()
                raise ChunkTimeout("chaos: chunk hung with no supervisor deadline")
            payload = future.result()  # raises WorkerCrash on a crash fault
            if not valid_payload(payload, len(chunk), workload=self.workload):
                raise ChunkCorruption("chaos: chunk payload failed validation")
            results, stats, _ = payload
            absorb_chunk_telemetry(stats)
            settler.absorb_stats(stats)  # size: the largest table, not a sum
            out.extend(results)
        self.last_cache_stats = settler.aggregate
        self.last_dispatch = {
            "jobs": len(jobs),
            "unique_jobs": len(jobs),  # chaos does not intern; the inner does
            "deduped": 0,
            "chunks": len(chunks),
            "steals": 0,
            "payload_bytes": 0,
            "memo_hits": 0,
            "injected": sum(self.injected.values()) - injected_before,
        }
        return out

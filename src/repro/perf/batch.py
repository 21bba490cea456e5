"""Batched execution of (machine, input) jobs with compile caching.

This module is the Turing-machine *frontend* of the workload-generic
runtime (:mod:`repro.runtime`): the interning, warm-pool and adaptive
dispatch machinery that grew up here now lives in
:mod:`repro.runtime.core`, parameterized by a
:class:`~repro.runtime.workload.Workload` adapter, and the TM path is
the :data:`~repro.runtime.workloads.machines.MACHINES` adapter bound
back into the same public surface.  Nothing observable changed:
``run_many`` keeps its signature, its spans and metrics, and its
byte-identical results; :class:`CompileCache`, :class:`SerialBackend`
and :class:`ProcessBackend` are the generic machinery with the TM
workload pre-bound.

Busy-beaver sweeps, halting surveys and universal-machine replays run
the *same* machines over and over; compiling once and reusing the
tables is where batching wins.  :class:`CompileCache` is a keyed LRU
over machine *content* (not identity), so a machine decoded twice from
the same description still hits.

Execution backends are pluggable in the style of ChainerMN's
communicators: ``create_backend("serial")`` or
``create_backend("process", workers=4)`` both satisfy the same
interface, and :func:`run_many` accepts either a name or an instance.
See the :mod:`repro.runtime.core` docstring for the three mechanisms —
payload interning, persistent warm workers, adaptive dispatch with a
work-stealing tail — that make the batch layer change the cost but
never the answer.

Migration note for importers: everything exported here keeps working.
New code that is not TM-specific should import the generic pieces from
:mod:`repro.runtime` (``run_jobs``, ``SerialBackend(workload)``,
``ProcessBackend(workload, ...)``, ``resolve_backend``) instead.
"""

from __future__ import annotations

import pickle
from collections.abc import Sequence

from repro.machines.turing import TMResult, TuringMachine
from repro.obs.instrument import OBS
from repro.perf.engine import program_key
from repro.runtime import core as _core
from repro.runtime.core import (
    Backend,
    ProgramNotResident,
    ResidentCache,
    _execute_entries,
    _record_cache_metrics,
    _worker_warm,
    _ZERO_STATS,
    resolve_backend,
)
from repro.runtime.workloads.machines import MACHINES

__all__ = [
    "TMJob",
    "CompileCache",
    "ProgramNotResident",
    "TMSession",
    "machine_key",
    "open_session",
    "run_many",
    "create_backend",
    "BACKENDS",
    "SerialBackend",
    "ProcessBackend",
]

TMJob = tuple[TuringMachine, str]

# The batch layer's content key is the engine's intern surface; the
# old name stays exported because poison matching (faults.chaos) and
# tests key on it.
machine_key = program_key

# Worker-side sentinel for machines whose alphabet the engine rejects;
# re-exported for compatibility (the generic name is _UNPREPARABLE).
_UNCOMPILABLE = _core._UNPREPARABLE
_WORKER = _core._WORKER


class CompileCache(ResidentCache):
    """A keyed LRU cache of compiled transition tables.

    The TM-bound :class:`~repro.runtime.core.ResidentCache`: keys are
    :func:`machine_key` content keys, values the compiled tables of
    :func:`repro.perf.engine.compile_tm`.
    """

    def __init__(self, maxsize: int = 128) -> None:
        super().__init__(MACHINES, maxsize)


def _intern_batch(jobs: Sequence[TMJob]) -> tuple[list[TMJob], list[int], list[tuple]]:
    """Dedup jobs by content: ``(unique_jobs, slots, unique_keys)``.

    ``slots[i]`` is the index into ``unique_jobs`` whose result job
    ``i`` shares; ``unique_keys[u]`` is the content key of unique job
    ``u``'s machine.  Equal jobs (same program content, same tape)
    execute once — determinism of the machines makes sharing exact.
    """
    return _core.intern_jobs(MACHINES, jobs)


def _run_jobs(
    jobs: Sequence[TMJob], fuel: int, compiled: bool, cache: CompileCache | None = None
) -> list[TMResult]:
    """The shared inner loop: run jobs in order, reusing compiles."""
    return _core.run_job_loop(MACHINES, jobs, fuel, compiled, cache)


def _run_chunk(
    payload: tuple[Sequence[TMJob], int, bool],
) -> tuple[list[TMResult], dict[str, int], float]:
    """Uninterned chunk entry point, in the legacy TM payload shape."""
    jobs, fuel, compiled = payload
    return _core._run_chunk((MACHINES, jobs, fuel, compiled))


def _run_interned_chunk(
    payload: tuple,
) -> tuple[list[TMResult], dict[str, int], float]:
    """Interned chunk entry point: ``(results, cache stats, seconds)``.

    ``payload`` is ``(generation, entries, shipped, fuel, compiled)``
    with ``entries`` a sequence of ``(program_id, tape)`` and
    ``shipped`` the machine sources for ids the master could not
    assume resident — the legacy TM shape; the pool itself now submits
    :func:`repro.runtime.core._run_workload_chunk`, whose payload also
    carries the workload.  A generation older than the worker table's
    means the table belongs to a pre-restart pool: it is dropped
    wholesale before any entry is served.
    """
    if isinstance(payload, bytes):
        payload = pickle.loads(payload)
    generation, entries, shipped, fuel, compiled = payload
    return _execute_entries(MACHINES, generation, entries, shipped, fuel, compiled)


class SerialBackend(_core.SerialBackend):
    """In-process execution of TM jobs; the default and the baseline."""

    def __init__(self) -> None:
        super().__init__(MACHINES)


class ProcessBackend(_core.ProcessBackend):
    """TM jobs chunked onto a persistent warm process pool.

    The TM-bound :class:`repro.runtime.core.ProcessBackend`; see there
    for the warm lifecycle (``warm``/``invalidate``/``recover``/
    ``close``), the resident program tables and the adaptive dispatch.
    """

    def __init__(
        self,
        workers: int | None = None,
        chunksize: int | None = None,
        *,
        memo_size: int = 4096,
    ) -> None:
        super().__init__(MACHINES, workers, chunksize, memo_size=memo_size)

    def warm(
        self,
        *,
        jobs: Sequence[TMJob] = (),
        machines: Sequence[TuringMachine] = (),
    ) -> "ProcessBackend":
        """Register machines and build the pool with them seeded."""
        super().warm(jobs=jobs, programs=machines)
        return self


def _supervised_backend(**kwargs):
    # Imported late: the supervisor lives in the faults layer and
    # itself imports this module.
    from repro.faults.supervisor import SupervisedBackend

    return SupervisedBackend(**kwargs)


BACKENDS = {
    "serial": SerialBackend,
    "process": ProcessBackend,
    "supervised": _supervised_backend,
}


def create_backend(name: str = "serial", **kwargs) -> Backend:
    """Factory over :data:`BACKENDS`, by name."""
    return _core.create_backend(name, registry=BACKENDS, **kwargs)


def run_many(
    jobs: Sequence[TMJob],
    *,
    fuel: int = 10_000,
    compiled: bool = True,
    backend: str | Backend = "serial",
    cache: CompileCache | None = None,
) -> list[TMResult]:
    """Run every (machine, tape_input) job; results keep job order.

    Each result equals what ``machine.run(tape_input, fuel=fuel)``
    would return — the batch layer changes the cost, never the answer
    (instrumentation included: enabling :data:`OBS` adds a span and
    counters, and ``tm_steps_total{backend=...}`` is defined to equal
    the sum of per-result step counts).  Equal jobs share one result
    object; machine runs are deterministic, so sharing is exact.  The
    one exception is the ``supervised`` backend, which may quarantine a
    poison job rather than fail the batch: its slot holds ``None`` and
    the dead letter is recorded on ``backend.last_report``.

    A backend named by string is created — and closed — by this call;
    pass an instance to keep its pool (and warm caches) alive across
    calls.
    """
    backend, owned = resolve_backend(backend, registry=BACKENDS)
    try:
        with OBS.span(
            "batch.run_many", backend=backend.name, jobs=len(jobs), compiled=compiled
        ):
            results = backend.execute(jobs, fuel=fuel, compiled=compiled, cache=cache)
            if OBS.enabled:
                # One atomic burst: a concurrent snapshot never sees
                # tm_jobs_total bumped with tm_steps_total still stale.
                with OBS.atomic():
                    OBS.count("tm_jobs_total", len(jobs), backend=backend.name)
                    OBS.count(
                        "tm_steps_total",
                        sum(r.steps for r in results if r is not None),
                        backend=backend.name,
                    )
                    OBS.count(
                        "tm_halts_total",
                        sum(1 for r in results if r is not None and r.halted),
                        backend=backend.name,
                    )
                # Log-visible dispatch record: chunks, steals, payload
                # bytes and memo hits land in the trace, so a dispatch
                # regression is diagnosable from a single run's spans.
                summary = getattr(backend, "last_dispatch", None)
                if summary:
                    OBS.event("batch.dispatch_summary", backend=backend.name, **summary)
    finally:
        if owned:
            close = getattr(backend, "close", None)
            if close is not None:
                close()
    return results


class TMSession:
    """The TM-bound face of :class:`repro.runtime.session.Session`.

    Same incremental lifecycle — submit one ``(machine, tape_input)``
    job at a time, get a per-job future, micro-batching and interning
    behind it — with the workload kind pinned to ``"machines"`` so TM
    callers never name it.  ``run_many`` over a list and a drained
    session over the same submissions return pickle-byte-identical
    results.
    """

    def __init__(self, session) -> None:
        self._session = session

    def submit(
        self,
        job: TMJob,
        *,
        fuel: int = 10_000,
        compiled: bool = True,
        priority: str = "bulk",
    ):
        return self._session.submit(
            "machines", job, fuel=fuel, compiled=compiled, priority=priority
        )

    def run_many(
        self, jobs: Sequence[TMJob], *, fuel: int = 10_000, compiled: bool = True
    ) -> list[TMResult]:
        return self._session.execute("machines", jobs, fuel=fuel, compiled=compiled)

    def drain(self) -> None:
        self._session.drain()

    def stats(self) -> dict:
        return self._session.stats()

    def close(self) -> None:
        self._session.close()

    def __enter__(self) -> "TMSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def open_session(backend: str | Backend = "serial", **kwargs) -> TMSession:
    """Open an incremental TM session over any backend string.

    Keyword arguments pass through to
    :class:`repro.runtime.session.Session` (``max_batch``, ``window``,
    ``backend_kwargs=...``, …).
    """
    from repro.runtime.session import Session

    return TMSession(Session(backend, **kwargs))

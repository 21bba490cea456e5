"""Supervised batch execution: deadlines, retries, hedging, quarantine.

The bare backends in :mod:`repro.runtime.core` are the optimistic fast
path: one poison job, lost worker, or hung chunk aborts the whole
batch.  :class:`SupervisedBackend` is the deliberate recovery path
layered on top — the two-systems split from PAPERS.md — and it drives
any chunk-submitting backend through an event loop of futures
(``concurrent.futures.wait``, never a bare ``pool.map``) that adds:

* **per-chunk deadlines** — a chunk that outlives
  ``SupervisorPolicy.chunk_timeout`` wall seconds is abandoned and
  treated as failed;
* **bounded retries with virtual backoff** — failed chunks are
  resubmitted up to ``max_chunk_retries`` times; the exponential
  backoff is *accounted* (``report.virtual_backoff``) in the style of
  :class:`repro.faults.retry.RetryPolicy`, never slept;
* **hedged dispatch** — a straggler past ``hedge_delay`` gets a
  duplicate submission; the first copy to finish wins and the loser is
  cancelled;
* **pool recovery and graceful degradation** — a crash
  (``BrokenProcessPool``, or :class:`~repro.faults.chaos.WorkerCrash`:
  a lost ``dist`` node or its chaos stand-in) restarts the inner pool
  or node via ``recover()``; a restart that itself fails counts as
  one spent.  Once restarts exhaust ``max_pool_restarts``, or a
  resubmit still crashes after two of them, the supervisor degrades
  to a fresh in-process :class:`~repro.runtime.core.SerialBackend`
  bound to the same workload and finishes the batch.
  This composes with :class:`~repro.runtime.core.ProcessBackend`'s warm
  state for free: ``recover()`` bumps the pool generation, the next
  ``submit_chunk`` re-seeds worker program tables from the master
  registry, and a generation-tagged payload can never be served from a
  pre-restart resident table;
* **poison quarantine by bisection** — a chunk that keeps dying is
  split in half until the offending job sits alone, and that single-job
  chunk, once its retries are spent, is quarantined into a dead-letter
  list.  Every other job still returns its exact result, in order.

``execute`` therefore *never raises* for job-level failures: a
quarantined slot surfaces as ``None`` in the result list and as a
:class:`DeadLetter` on ``backend.last_report``.  Replaying dead
letters after a fix is the journal's job
(:meth:`repro.runtime.journal.JournaledBackend.replay_dead_letters`
over ``"journaled:supervised:<inner>"``).  A fault-free
supervised run returns results identical to the bare backend's, within
the <10% overhead budget gated by ``benchmarks/bench_fault_recovery.py``.

Supervision is workload-generic: the supervisor reads its
:class:`~repro.runtime.workload.Workload` off the inner backend (or
takes one explicitly via ``workload=`` when ``inner`` is a name),
interns and validates through the adapter, and quarantines poison by
the adapter's ``content_key`` — nothing here assumes Turing machines.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.faults.chaos import ChunkCorruption, ChunkTimeout, WorkerCrash, valid_payload
from repro.obs.instrument import OBS
from repro.obs.telemetry import job_digest
from repro.runtime import core as _core
from repro.runtime.core import _record_cache_metrics, _ZERO_STATS, intern_jobs
from repro.runtime import lifecycle as _lifecycle
from repro.runtime.lifecycle import ChunkSettler, enter_close, plan_chunks
from repro.runtime.workload import Job, Workload, get_workload

__all__ = [
    "SupervisorPolicy",
    "SupervisionReport",
    "DeadLetter",
    "SupervisedBackend",
    "CRASH_TYPES",
]

# What counts as "the worker died" rather than "the job failed".
CRASH_TYPES = (BrokenProcessPool, WorkerCrash)


@dataclass
class SupervisorPolicy:
    """Knobs of the recovery path.

    ``max_chunk_retries`` bounds *resubmissions* of one chunk task:
    after ``max_chunk_retries + 1`` failed attempts a multi-job chunk is
    bisected and a single-job chunk is quarantined.  ``chunk_timeout``
    and ``hedge_delay`` are wall-clock seconds (``None`` disables);
    backoff between retries is virtual time, never slept.
    """

    max_chunk_retries: int = 2
    chunk_timeout: float | None = None
    hedge_delay: float | None = None
    base_delay: float = 0.05
    max_delay: float = 2.0
    max_pool_restarts: int = 4
    chunksize: int | None = None

    def __post_init__(self) -> None:
        if self.max_chunk_retries < 0:
            raise ValueError("max_chunk_retries must be >= 0")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError("chunk_timeout must be positive (or None)")
        if self.hedge_delay is not None and self.hedge_delay <= 0:
            raise ValueError("hedge_delay must be positive (or None)")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ValueError("need 0 <= base_delay <= max_delay")
        if self.max_pool_restarts < 0:
            raise ValueError("max_pool_restarts must be >= 0")
        if self.chunksize is not None and self.chunksize < 1:
            raise ValueError("chunksize must be >= 1 (or None)")


@dataclass
class DeadLetter:
    """One quarantined job: where it sat, what it was, why it died."""

    index: int
    job: Job
    reason: str


@dataclass
class SupervisionReport:
    """What one supervised ``execute`` had to do to finish the batch."""

    jobs: int = 0
    chunks: int = 0
    retries: int = 0
    hedges: int = 0
    bisections: int = 0
    pool_restarts: int = 0
    degraded: bool = False
    virtual_backoff: float = 0.0
    quarantined: list[DeadLetter] = field(default_factory=list)

    @property
    def quarantined_indices(self) -> list[int]:
        return sorted(letter.index for letter in self.quarantined)


class _Task:
    """One in-flight chunk: a contiguous, disjoint slice of the batch."""

    __slots__ = (
        "offset",
        "jobs",
        "attempts",
        "hedged",
        "deadline",
        "hedge_at",
        "futures",
        "generation",
    )

    def __init__(self, offset: int, jobs: Sequence[Job]) -> None:
        self.offset = offset
        self.jobs = tuple(jobs)
        self.attempts = 0
        self.hedged = False
        self.deadline: float | None = None
        self.hedge_at: float | None = None
        self.futures: list[Future] = []
        self.generation = 0


class _Supervision:
    """The event loop of one supervised ``execute`` call."""

    def __init__(self, backend: "SupervisedBackend", fuel: int) -> None:
        self.backend = backend
        self.policy = backend.policy
        self.active = backend.inner  # swapped for a SerialBackend on degradation
        self.fuel = fuel
        self.report = SupervisionReport()
        self.settler = ChunkSettler(backend.name)
        self.aggregate = self.settler.aggregate
        self.out: list[Any] = []
        self.pending: dict[Future, _Task] = {}
        # Bumped on every pool restart; a crash from a pre-restart
        # submission must not trigger another restart (when one worker
        # dies, every pending future fails with BrokenProcessPool).
        self.generation = 0

    # -- driving ------------------------------------------------------------

    def run(self, jobs: Sequence[Job]) -> list[Any]:
        self.out = [None] * len(jobs)
        self.report.jobs = len(jobs)
        tasks = [
            _Task(offset, chunk) for offset, chunk in self.backend.iter_chunks(jobs)
        ]
        self.report.chunks = len(tasks)
        if OBS.enabled:
            OBS.gauge("batch_queue_depth", len(tasks), backend=self.backend.name)
        for task in tasks:
            self._submit(task)
        while self.pending:
            done, _ = wait(
                set(self.pending), timeout=self._next_timeout(), return_when=FIRST_COMPLETED
            )
            # ``done`` is a set; settle in batch order so retries,
            # bisections and merged telemetry land deterministically.
            for future in sorted(
                done,
                key=lambda f: self.pending[f].offset if f in self.pending else -1,
            ):
                task = self.pending.pop(future, None)
                if task is None:
                    continue  # retired by a deadline or a winning hedge
                self._complete(task, future)
            self._check_clocks()
        return self.out

    def _submit(self, task: _Task) -> None:
        task.attempts += 1
        future = self._dispatch_traced(task)
        task.generation = self.generation
        now = time.monotonic()
        task.futures = [future]
        task.hedged = False
        timeout, hedge = self.policy.chunk_timeout, self.policy.hedge_delay
        task.deadline = now + timeout if timeout is not None else None
        task.hedge_at = now + hedge if hedge is not None else None
        self.pending[future] = task

    def _dispatch_traced(self, task: _Task, *, hedge: bool = False) -> Future:
        """Dispatch one task under a ``supervisor.dispatch`` span.

        The span is open *at submit time*, which is when the payload
        builders read :func:`~repro.obs.telemetry.current_context` —
        so every worker's ``worker.chunk`` span adopts under exactly
        the dispatch that submitted it, and the span's content-key
        digests tie each job to that attempt in the merged trace.
        """
        if not OBS.enabled:
            return self._dispatch(task.jobs)
        keys = [job_digest(self.backend.workload, job) for job in task.jobs]
        with OBS.span(
            "supervisor.dispatch",
            offset=task.offset,
            jobs=len(task.jobs),
            attempt=task.attempts,
            hedge=hedge,
            keys=keys,
        ):
            return self._dispatch(task.jobs)

    def _dispatch(self, jobs: Sequence[Job]) -> Future:
        """Submit to the active backend; survive a broken submit path."""
        for _ in range(2):
            try:
                return self.active.submit_chunk(jobs, fuel=self.fuel)
            except CRASH_TYPES:
                self._recover()
        self._degrade()
        return self.active.submit_chunk(jobs, fuel=self.fuel)

    # -- completion ---------------------------------------------------------

    def _complete(self, task: _Task, future: Future) -> None:
        if future in task.futures:
            task.futures.remove(future)
        if future.cancelled():
            return  # a retired straggler; nothing to learn
        error = future.exception()
        if error is None:
            payload = future.result()
            if valid_payload(payload, len(task.jobs), workload=self.backend.workload):
                self._settle(task, payload)
                return
            error = ChunkCorruption(
                f"chunk payload failed validation ({type(payload).__name__})"
            )
        self._failed(task, error)

    def _settle(self, task: _Task, payload: tuple) -> None:
        # The settler pops-and-merges the piggybacked telemetry before
        # aggregating; the pop also keeps a losing hedge twin (same
        # stats dict never reaches here twice) honest.
        results = self.settler.settle(payload)
        self.out[task.offset : task.offset + len(task.jobs)] = results
        self._retire(task)  # cancel and forget the losing hedge twin, if any

    def _retire(self, task: _Task) -> None:
        for future in task.futures:
            future.cancel()
            self.pending.pop(future, None)
        task.futures = []

    def _failed(self, task: _Task, error: BaseException) -> None:
        kind = type(error).__name__
        if isinstance(error, CRASH_TYPES) and task.generation == self.generation:
            self._recover()
        if any(f in self.pending for f in task.futures):
            return  # a hedge twin is still racing; let it finish the chunk
        if task.attempts <= self.policy.max_chunk_retries:
            delay = min(
                self.policy.max_delay, self.policy.base_delay * 2 ** (task.attempts - 1)
            )
            self.report.retries += 1
            self.report.virtual_backoff += delay
            if OBS.enabled:
                OBS.count("batch_chunk_retries_total", kind=kind)
                OBS.event(
                    "supervisor.retry",
                    offset=task.offset,
                    jobs=len(task.jobs),
                    attempt=task.attempts,
                    kind=kind,
                    backoff=delay,
                )
            self._submit(task)
        elif len(task.jobs) > 1:
            self._retire(task)
            mid = len(task.jobs) // 2
            self.report.bisections += 1
            OBS.event("supervisor.bisect", offset=task.offset, jobs=len(task.jobs), kind=kind)
            self._postmortem(
                "retry_exhausted",
                offset=task.offset,
                jobs=len(task.jobs),
                attempts=task.attempts,
                error=kind,
            )
            self._submit(_Task(task.offset, task.jobs[:mid]))
            self._submit(_Task(task.offset + mid, task.jobs[mid:]))
        else:
            self.report.quarantined.append(
                DeadLetter(task.offset, task.jobs[0], f"{kind}: {error}")
            )
            if OBS.enabled:
                OBS.count("batch_quarantined_jobs")
                OBS.event("supervisor.quarantine", index=task.offset, reason=kind)
                self._postmortem(
                    "quarantine",
                    key=job_digest(self.backend.workload, task.jobs[0]),
                    index=task.offset,
                    attempts=task.attempts,
                    error=kind,
                )

    # -- post-mortems --------------------------------------------------------

    def _postmortem(self, reason: str, *, key: str | None = None, **context) -> None:
        """Dump the flight ring as one deterministic JSONL post-mortem.

        The ring holds the recent event tail from *every* process —
        worker entries arrived with the merged telemetry deltas — so
        the dump reconstructs the lead-up to a quarantine, retry
        exhaustion or pool restart without any always-on log volume.
        ``key`` is the poison job's content-key digest when there is
        one, matching the ``keys`` attribute on dispatch spans.
        """
        if not OBS.enabled:
            return
        jsonl = OBS.flight.dump_jsonl(reason=reason, key=key, **context)
        record: dict[str, Any] = {"reason": reason, "key": key, "jsonl": jsonl}
        directory = self.backend.flight_dir
        if directory is not None:
            path = Path(directory) / (
                f"flight-{len(self.backend.last_postmortems):03d}"
                f"-{reason}{'-' + key if key else ''}.jsonl"
            )
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(jsonl, encoding="utf-8")
            record["path"] = str(path)
        self.backend.last_postmortems.append(record)

    # -- clocks -------------------------------------------------------------

    def _next_timeout(self) -> float | None:
        """Seconds until the earliest deadline or hedge point, if any."""
        marks = []
        for task in set(self.pending.values()):
            if task.deadline is not None:
                marks.append(task.deadline)
            if task.hedge_at is not None and not task.hedged:
                marks.append(task.hedge_at)
        if not marks:
            return None
        return max(0.0, min(marks) - time.monotonic())

    def _check_clocks(self) -> None:
        now = time.monotonic()
        for task in list(dict.fromkeys(self.pending.values())):
            if task.deadline is not None and now >= task.deadline:
                self._retire(task)
                self._failed(
                    task,
                    ChunkTimeout(
                        f"chunk missed its {self.policy.chunk_timeout}s deadline"
                    ),
                )
            elif task.hedge_at is not None and not task.hedged and now >= task.hedge_at:
                self._hedge(task)

    def _hedge(self, task: _Task) -> None:
        task.hedged = True
        future = self._dispatch_traced(task, hedge=True)
        task.futures.append(future)
        self.pending[future] = task
        self.report.hedges += 1
        if OBS.enabled:
            OBS.count("batch_hedged_total", backend=self.backend.name)
            OBS.event("supervisor.hedge", offset=task.offset, jobs=len(task.jobs))

    # -- recovery -----------------------------------------------------------

    def _recover(self) -> None:
        self.generation += 1
        self.report.pool_restarts += 1
        if OBS.enabled:
            OBS.count("batch_pool_restarts_total", backend=self.backend.name)
            OBS.event("supervisor.pool_restart", restarts=self.report.pool_restarts)
            self._postmortem("pool_restart", restarts=self.report.pool_restarts)
        if self.report.pool_restarts > self.policy.max_pool_restarts:
            self._degrade()
            return
        recover = getattr(self.active, "recover", None)
        if recover is not None:
            try:
                recover()
            except (*CRASH_TYPES, OSError):
                # The restart is spent; the next dispatch finds the
                # pool or node still down and fails towards degrading.
                pass

    def _degrade(self) -> None:
        if self.report.degraded:
            return
        self.report.degraded = True
        close = getattr(self.active, "close", None)
        if close is not None:
            close()
        # Degrade within the same workload: in-process, but still the
        # adapter's semantics.
        self.active = _core.SerialBackend(self.backend.workload)
        OBS.event("supervisor.degraded", to="serial")


class SupervisedBackend:
    """A :class:`~repro.runtime.core.Backend` that survives its inner one.

    ``inner`` may be a backend name (resolved through
    :func:`repro.runtime.core.resolve_backend` with ``inner_kwargs``)
    or any instance exposing ``submit_chunk``.  The supervised workload
    is read off the inner backend; pass ``workload=`` (an adapter or a
    kind name) to pick one when ``inner`` is a name — omitted, it is
    the Turing-machine adapter, as for every backend name.  ``execute``
    returns one slot per job, in order: the exact result for every job
    that could be completed, ``None`` for the (rare) quarantined ones,
    detailed in ``last_report``.
    """

    name = "supervised"

    def __init__(
        self,
        inner="process",
        *,
        policy: SupervisorPolicy | None = None,
        workload: Workload | str | None = None,
        flight_dir: str | Path | None = None,
        **inner_kwargs,
    ) -> None:
        if isinstance(workload, str):
            workload = get_workload(workload)
        inner, _ = _core.resolve_backend(inner, workload=workload, **inner_kwargs)
        if not hasattr(inner, "submit_chunk"):
            raise TypeError(f"inner backend {inner!r} has no submit_chunk")
        self.inner = inner
        self.workload: Workload = (
            workload
            if workload is not None
            else getattr(inner, "workload", None) or get_workload("machines")
        )
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.flight_dir = Path(flight_dir) if flight_dir is not None else None
        self.last_cache_stats: dict[str, int] = dict(_ZERO_STATS)
        self.last_report = SupervisionReport()
        self.last_dispatch: dict[str, Any] = {}
        self.last_postmortems: list[dict[str, Any]] = []

    def recover(self) -> None:
        """Restart the inner backend's pool (next submit re-seeds it)."""
        recover = getattr(self.inner, "recover", None)
        if recover is not None:
            recover()

    def close(self) -> None:
        """Release the inner backend's pool and resident tables."""
        if not enter_close(self):
            return
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()

    def iter_chunks(self, jobs: Sequence[Job]):
        """Yield ``(offset, chunk)`` slices honouring the policy size.

        The split (including the trailing 1-job merge — one leftover
        job is never worth a chunk's dispatch and supervision cost) is
        the shared planner in :mod:`repro.runtime.lifecycle`, the same
        one :meth:`ProcessBackend._chunks` uses.
        """
        workers = getattr(self.inner, "workers", None) or getattr(
            getattr(self.inner, "inner", None), "workers", None
        )
        for plan in plan_chunks(
            jobs, chunksize=self.policy.chunksize, workers=workers or 2
        ):
            yield plan.offset, plan.jobs

    def execute(self, jobs: Sequence[Job], *, fuel: int) -> list[Any]:
        self.last_cache_stats = dict(_ZERO_STATS)
        self.last_report = SupervisionReport(jobs=len(jobs))
        self.last_dispatch = {}
        self.last_postmortems = []
        if not jobs:
            return []
        # Executing re-acquires resources through the inner backend
        # (its pool rebuilds lazily), so the close guard resets here.
        _lifecycle.mark_open(self)
        # Intern like the bare backends: equal jobs are supervised (and
        # potentially retried, bisected, quarantined) exactly once, so
        # the fault-free supervised run keeps pace with the interned
        # fast path.  Poison is matched by the adapter's content key,
        # so deduplication can never hide it — it just quarantines
        # every duplicate slot.
        unique, slots, _ = intern_jobs(self.workload, jobs)
        run = _Supervision(self, fuel)
        try:
            with OBS.span("batch.supervised", backend=self.name, jobs=len(jobs)):
                out_unique = run.run(unique)
        finally:
            run.report.jobs = len(jobs)
            if len(unique) != len(jobs) and run.report.quarantined:
                run.report.quarantined = [
                    DeadLetter(i, letter.job, letter.reason)
                    for letter in run.report.quarantined
                    for i, s in enumerate(slots)
                    if s == letter.index
                ]
            self.last_report = run.report
            self.last_cache_stats = dict(run.aggregate)
            self.last_dispatch = {
                "jobs": len(jobs),
                "unique_jobs": len(unique),
                "deduped": len(jobs) - len(unique),
                "chunks": run.report.chunks,
                "steals": 0,
                "payload_bytes": 0,
                "memo_hits": 0,
                "retries": run.report.retries,
                "hedges": run.report.hedges,
                "bisections": run.report.bisections,
                "pool_restarts": run.report.pool_restarts,
                "degraded": run.report.degraded,
                "quarantined": len(run.report.quarantined),
            }
            # Close only a backend the supervision created itself (the
            # degraded SerialBackend); the caller's inner backend stays
            # open so its warm pool and resident program tables survive
            # into the next execute.  (_degrade already closed inner.)
            if run.active is not self.inner:
                close = getattr(run.active, "close", None)
                if close is not None:
                    close()
        if OBS.enabled:
            _record_cache_metrics(
                self.name, run.aggregate["hits"], run.aggregate["misses"]
            )
        return [out_unique[s] for s in slots]

"""Incremental job lifecycle: sessions, per-job futures, group commit.

Every backend behind the narrow waist is a batch engine: hand
``execute()`` a complete list, get a complete list back.  That shape
is right for sweeps and wrong for *arrival*: requests that trickle in
over time cannot join in-flight work, and a latency-sensitive single
has to wait behind whatever bulk list happens to be executing.  This
module is the incremental face over the same backends:

* :meth:`Session.submit` accepts one job at a time and returns a
  :class:`JobFuture` immediately.  Submissions are **interned on
  arrival** — an equal job (same workload kind, content key and
  fuel) already pending or in flight joins the existing
  future instead of executing twice, and a bounded settled-result memo
  extends the same guarantee across flushes.
* A :class:`Scheduler` batches by **group commit**: whenever its
  dispatcher has no unit to run it flushes every open group at once
  (reason ``idle``), so a submission into an idle session goes out
  immediately, and submissions that arrive while a unit runs coalesce
  and leave together when it returns.  Batches grow exactly when the
  per-flush cost exceeds the gap between arrivals, with no clock to
  tune.  A group also flushes when it reaches ``max_batch`` jobs
  (reason ``size``); :meth:`Session.drain` and :meth:`Session.close`
  force the rest out (reasons ``drain`` / ``close``).
* Flushes obey a **two-class policy**: ``priority="latency"``
  submissions skip the buckets entirely (reason ``priority``) and
  jump the dispatch queue, while bulk flushes are split into at most
  ``bulk_chunk``-job units — so a latency single submitted mid-sweep
  waits for at most one bulk unit, never the whole sweep.  This is
  the two-systems split (PAPERS.md) turned into a scheduling policy:
  reflexive latency-class singles, deliberate bulk-class sweeps.

The scheduler executes flush units through the ordinary
``backend.execute`` of whatever backend string the session was opened
with — ``"serial"``, ``"process"``, ``"supervised:process"``,
``"journaled:dist"``, any registered chain — so supervision, journal
durability and multi-node sharding all apply to the incremental path
unchanged, and ``Session.execute`` (submit-all-then-drain) is
pickle-byte-identical to a one-shot ``backend.execute`` of the same
jobs.  Results keep the runtime's sharing semantics: duplicate
submissions resolve to the *same* result object.

Telemetry: ``runtime_inflight_jobs`` gauges the jobs accepted but not
yet settled, ``runtime_flush_total`` counts flushes by reason, every
flush runs under a ``scheduler.flush`` span, and per-job queue age
lands in the ``runtime_queue_age_seconds`` histogram the ops report
renders as queue-age p50/p99.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, OrderedDict, deque
from collections.abc import Mapping, Sequence
from concurrent.futures import Future
from typing import Any

from repro.obs.instrument import OBS
from repro.runtime.core import Backend, resolve_backend
from repro.runtime.lifecycle import chunk_offsets, enter_close
from repro.runtime.workload import Job, Workload, get_workload

__all__ = [
    "BULK",
    "LATENCY",
    "JobFuture",
    "Scheduler",
    "Session",
]

#: The two scheduling classes.  ``BULK`` submissions coalesce while
#: the dispatcher is busy; ``LATENCY`` submissions flush at once and
#: preempt queued bulk units.
BULK = "bulk"
LATENCY = "latency"
_PRIORITIES = frozenset({BULK, LATENCY})

#: Flush reasons, the label set of ``runtime_flush_total``.
FLUSH_REASONS = ("size", "idle", "priority", "drain", "close")


class JobFuture:
    """One submitted job's handle through its lifecycle.

    A thin, read-only face over a :class:`concurrent.futures.Future`
    plus the submission metadata the scheduler stamped on it.  Several
    submissions of the same job (by content) share one settlement:
    their ``JobFuture``\\ s resolve to the same result object.
    """

    __slots__ = ("kind", "priority", "submitted_at", "_future")

    def __init__(self, kind: str, priority: str, submitted_at: float) -> None:
        self.kind = kind
        self.priority = priority
        self.submitted_at = submitted_at
        self._future: Future = Future()

    def done(self) -> bool:
        return self._future.done()

    def result(self, timeout: float | None = None) -> Any:
        return self._future.result(timeout)

    def exception(self, timeout: float | None = None) -> BaseException | None:
        return self._future.exception(timeout)

    def add_done_callback(self, fn) -> None:
        self._future.add_done_callback(lambda _f: fn(self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self._future.done() else "pending"
        return f"JobFuture(kind={self.kind!r}, priority={self.priority!r}, {state})"


class _Entry:
    """One in-flight unique job: every duplicate submission joins it."""

    __slots__ = ("key", "job", "future", "joined")

    def __init__(self, key: tuple, job: Job, future: JobFuture) -> None:
        self.key = key
        self.job = job
        self.future = future
        self.joined = 1  # submissions sharing this settlement


class _Bucket:
    """An open batch: entries accumulating toward one flush."""

    __slots__ = ("group", "entries")

    def __init__(self, group: tuple) -> None:
        self.group = group  # (kind, fuel)
        self.entries: list[_Entry] = []


class _FlushUnit:
    """One dispatchable unit: a flushed group slice, ready to execute."""

    __slots__ = ("group", "entries", "reason", "priority")

    def __init__(
        self, group: tuple, entries: list[_Entry], reason: str, priority: str
    ) -> None:
        self.group = group
        self.entries = entries
        self.reason = reason
        self.priority = priority


class Scheduler:
    """The group-commit engine behind a :class:`Session`.

    Owns the intern table, the settled-result memo, the open buckets,
    the two-class dispatch queue and the single dispatcher thread that
    drives ``backend.execute`` over flush units.  The dispatcher runs
    urgent units first, then ready ones; with neither queued it
    flushes every open bucket (reason ``idle``), and with nothing at
    all it sleeps until a submission wakes it.  All public methods are
    thread-safe; execution is serialized on the dispatcher thread, so
    the (not thread-safe) backends are only ever driven from one
    thread.
    """

    def __init__(
        self,
        backend_for,
        *,
        max_batch: int = 256,
        bulk_chunk: int | None = None,
        memo_size: int = 4096,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if bulk_chunk is not None and bulk_chunk < 1:
            raise ValueError("bulk_chunk must be >= 1 (or None)")
        if memo_size < 0:
            raise ValueError("memo_size must be >= 0")
        self._backend_for = backend_for
        self.max_batch = max_batch
        self.bulk_chunk = bulk_chunk if bulk_chunk is not None else max_batch
        self.memo_size = memo_size
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._thread: threading.Thread | None = None
        self._stopped = False
        # Lifecycle state: submitted → interned → chunked (buckets /
        # units) → dispatched → settled.  _intern holds every unique
        # job not yet settled; _memo the settled results.
        self._intern: dict[tuple, _Entry] = {}
        self._memo: OrderedDict[tuple, Any] = OrderedDict()
        self._buckets: dict[tuple, _Bucket] = {}
        self._urgent: deque[_FlushUnit] = deque()
        self._ready: deque[_FlushUnit] = deque()
        self._running = 0  # units currently executing
        self._inflight_jobs = 0  # accepted, not yet settled
        # Counters surfaced by stats() and asserted by tests.
        self.submitted = 0
        self.dedup_joins = 0
        self.memo_hits = 0
        self.executed_jobs = 0
        self.flushes: Counter = Counter()

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        workload: Workload,
        job: Job,
        *,
        fuel: int,
        priority: str = BULK,
    ) -> JobFuture:
        """Intern one job; returns its (possibly shared) future."""
        if priority not in _PRIORITIES:
            raise ValueError(f"priority must be one of {sorted(_PRIORITIES)}")
        key = (workload.kind, workload.content_key(job), fuel)
        now = time.monotonic()
        with self._lock:
            if self._stopped:
                raise RuntimeError("session is closed")
            self.submitted += 1
            entry = self._intern.get(key)
            if entry is not None:
                # Dedup join: the duplicate rides the in-flight future.
                self.dedup_joins += 1
                entry.joined += 1
                return entry.future
            memoed = self._memo.get(key)
            if memoed is not None or key in self._memo:
                # Settled in an earlier flush: same result object,
                # no execution, future born resolved.
                self._memo.move_to_end(key)
                self.memo_hits += 1
                future = JobFuture(workload.kind, priority, now)
                future._future.set_result(memoed)
                return future
            future = JobFuture(workload.kind, priority, now)
            entry = _Entry(key, job, future)
            self._intern[key] = entry
            self._inflight_jobs += 1
            if OBS.enabled:
                OBS.gauge("runtime_inflight_jobs", self._inflight_jobs)
            group = (workload.kind, fuel)
            # Wake the dispatcher only when its wait state changed — a
            # new bucket or a dispatchable unit.  An open bucket means
            # the dispatcher is running a unit or already woken, and
            # it looks at every bucket before it sleeps again; on the
            # hot staggered-submit path that is nearly every call.
            wake = True
            if priority == LATENCY:
                # Latency class: no bucket — one urgent unit, queued
                # ahead of every bulk unit.
                self._enqueue(_FlushUnit(group, [entry], "priority", LATENCY))
            else:
                bucket = self._buckets.get(group)
                if bucket is None:
                    bucket = self._buckets[group] = _Bucket(group)
                else:
                    wake = False
                bucket.entries.append(entry)
                if len(bucket.entries) >= self.max_batch:
                    self._flush_bucket(bucket, "size")
                    wake = True
            if wake:
                self._ensure_thread()
                self._wake.notify_all()
            return future

    # -- flushing (lock held) -------------------------------------------------

    def _flush_bucket(self, bucket: _Bucket, reason: str) -> None:
        self._buckets.pop(bucket.group, None)
        entries = bucket.entries
        if not entries:
            return
        # Bulk preemption granularity: a big flush becomes several
        # units of at most bulk_chunk jobs, so an urgent unit waits for
        # one unit's execution, never the whole flushed sweep.
        for n, start in enumerate(offsets := chunk_offsets(len(entries), self.bulk_chunk)):
            end = offsets[n + 1] if n + 1 < len(offsets) else len(entries)
            self._enqueue(_FlushUnit(bucket.group, entries[start:end], reason, BULK))

    def _flush_all(self, reason: str) -> None:
        for bucket in list(self._buckets.values()):
            self._flush_bucket(bucket, reason)

    def _enqueue(self, unit: _FlushUnit) -> None:
        self.flushes[unit.reason] += 1
        if OBS.enabled:
            OBS.count("runtime_flush_total", reason=unit.reason)
        if unit.priority == LATENCY:
            self._urgent.append(unit)
        else:
            self._ready.append(unit)

    # -- the dispatcher thread ------------------------------------------------

    def _ensure_thread(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._loop, daemon=True, name="session-dispatch"
            )
            self._thread.start()

    def _loop(self) -> None:
        while True:
            with self._lock:
                unit = None
                while unit is None:
                    if self._urgent:
                        unit = self._urgent.popleft()
                    elif self._ready:
                        unit = self._ready.popleft()
                    elif self._buckets:
                        # Group commit: whatever arrived while the last
                        # unit ran leaves now, in one flush per group.
                        self._flush_all("idle")
                    elif self._stopped:
                        return
                    else:
                        self._wake.wait()
                self._running += 1
            try:
                self._run_unit(unit)
            finally:
                with self._lock:
                    self._running -= 1
                    self._idle.notify_all()

    def _run_unit(self, unit: _FlushUnit) -> None:
        kind, fuel = unit.group
        entries = unit.entries
        now = time.monotonic()
        if OBS.enabled:
            for entry in entries:
                OBS.observe(
                    "runtime_queue_age_seconds",
                    max(0.0, now - entry.future.submitted_at),
                    priority=unit.priority,
                )
        try:
            backend = self._backend_for(kind)
            with OBS.span(
                "scheduler.flush",
                kind=kind,
                jobs=len(entries),
                reason=unit.reason,
                priority=unit.priority,
            ):
                results = backend.execute([entry.job for entry in entries], fuel=fuel)
        except BaseException as exc:
            self._settle_error(entries, exc)
            return
        self._settle(entries, results)

    def _settle(self, entries: list[_Entry], results: Sequence[Any]) -> None:
        with self._lock:
            for entry, result in zip(entries, results):
                self._intern.pop(entry.key, None)
                self._inflight_jobs -= 1
                self.executed_jobs += 1
                # A None slot is a quarantined job (supervised inner):
                # the future resolves to None exactly like the
                # execute() path's slot, but poison never enters the
                # memo — a later equal submission gets a fresh chance.
                if self.memo_size and result is not None:
                    self._memo[entry.key] = result
                    while len(self._memo) > self.memo_size:
                        self._memo.popitem(last=False)
            if OBS.enabled:
                OBS.gauge("runtime_inflight_jobs", self._inflight_jobs)
        for entry, result in zip(entries, results):
            entry.future._future.set_result(result)

    def _settle_error(self, entries: list[_Entry], exc: BaseException) -> None:
        with self._lock:
            for entry in entries:
                self._intern.pop(entry.key, None)
                self._inflight_jobs -= 1
            if OBS.enabled:
                OBS.gauge("runtime_inflight_jobs", self._inflight_jobs)
        for entry in entries:
            if not entry.future._future.done():
                entry.future._future.set_exception(exc)

    # -- draining -------------------------------------------------------------

    def flush(self, reason: str = "drain") -> None:
        """Force every open bucket into the dispatch queue."""
        with self._lock:
            self._flush_all(reason)
            if self._urgent or self._ready:
                self._ensure_thread()
            self._wake.notify_all()

    def drain(self) -> None:
        """Flush, then block until every accepted job has settled."""
        with self._lock:
            self._flush_all("drain")
            if self._urgent or self._ready:
                self._ensure_thread()
            self._wake.notify_all()
            while self._urgent or self._ready or self._running or self._buckets:
                self._idle.wait(0.05)

    def stop(self) -> None:
        """Flush the rest (reason ``close``), run it down, stop the thread."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            self._flush_all("close")
            self._wake.notify_all()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join()

    def stats(self) -> dict[str, Any]:
        with self._lock:
            return {
                "submitted": self.submitted,
                "executed_jobs": self.executed_jobs,
                "dedup_joins": self.dedup_joins,
                "memo_hits": self.memo_hits,
                "inflight_jobs": self._inflight_jobs,
                "flushes": dict(self.flushes),
            }


class Session:
    """The incremental front door over the runtime's backends.

    ::

        with Session(backend="process") as session:
            future = session.submit("machines", (machine, "101"), fuel=4_000)
            ...
            result = future.result()

    ``backend`` is any registered backend string (wrapper chains
    included) — one backend per workload kind is created lazily and
    closed with the session — or a ready backend *instance*, which the
    session drives for its own workload kind and leaves open.
    ``backend_kwargs`` pass through to backend construction
    (``journal_dir=...``, ``nodes=...``, …).

    Bulk submissions go out as soon as the dispatcher is idle and
    coalesce only while it runs a unit (see :class:`Scheduler`).
    Scheduling knobs: ``max_batch`` (size-triggered flush),
    ``bulk_chunk`` (bulk preemption granularity; defaults to
    ``max_batch``), ``memo_size`` (settled results remembered for
    dedup across flushes).
    """

    def __init__(
        self,
        backend: str | Backend = "serial",
        *,
        max_batch: int = 256,
        bulk_chunk: int | None = None,
        memo_size: int = 4096,
        backend_kwargs: Mapping[str, Any] | None = None,
    ) -> None:
        self._backend_spec = backend
        self._backend_kwargs = dict(backend_kwargs or {})
        if not isinstance(backend, str) and self._backend_kwargs:
            raise ValueError("backend_kwargs only apply when backend is a name")
        self._backends: dict[str, tuple[Backend, bool]] = {}
        self._backends_lock = threading.Lock()
        self._workloads: dict[str, Workload] = {}
        self.scheduler = Scheduler(
            self._backend_for,
            max_batch=max_batch,
            bulk_chunk=bulk_chunk,
            memo_size=memo_size,
        )

    # -- backend plumbing -----------------------------------------------------

    def _workload(self, kind: str) -> Workload:
        workload = self._workloads.get(kind)
        if workload is None:
            workload = self._workloads[kind] = get_workload(kind)
        return workload

    def _backend_for(self, kind: str) -> Backend:
        with self._backends_lock:
            held = self._backends.get(kind)
            if held is not None:
                return held[0]
            if isinstance(self._backend_spec, str):
                backend, owned = resolve_backend(
                    self._backend_spec,
                    workload=self._workload(kind),
                    **self._backend_kwargs,
                )
            else:
                backend, owned = self._backend_spec, False
                bound = getattr(backend, "workload", None)
                if bound is not None and bound.kind != kind:
                    raise ValueError(
                        f"session backend is bound to workload {bound.kind!r};"
                        f" cannot execute {kind!r} jobs through it"
                    )
            self._backends[kind] = (backend, owned)
            return backend

    # -- the public lifecycle -------------------------------------------------

    def submit(
        self,
        kind: str,
        payload: Job,
        *,
        fuel: int = 10_000,
        priority: str = BULK,
    ) -> JobFuture:
        """Submit one ``(program, input)`` job; returns its future.

        ``priority="latency"`` puts the job in the latency class: it
        skips the buckets and preempts queued bulk work.
        """
        return self.scheduler.submit(self._workload(kind), payload, fuel=fuel, priority=priority)

    def flush(self) -> None:
        """Force open buckets out without waiting for settlement."""
        self.scheduler.flush()

    def drain(self) -> None:
        """Block until every submitted job has settled."""
        self.scheduler.drain()

    def execute(
        self,
        kind: str,
        jobs: Sequence[Job],
        *,
        fuel: int = 10_000,
    ) -> list[Any]:
        """One-shot convenience: submit all, drain, results in job order.

        This is literally the batch ``execute()`` rebuilt as
        submit-all-then-drain — property-tested pickle-byte-identical
        to driving ``backend.execute`` directly, for every adapter and
        every backend string.
        """
        futures = [self.submit(kind, job, fuel=fuel) for job in jobs]
        self.flush()
        return [future.result() for future in futures]

    def stats(self) -> dict[str, Any]:
        """Scheduler counters: submissions, joins, memo hits, flushes."""
        return self.scheduler.stats()

    def close(self) -> None:
        """Run the queue down, stop the dispatcher, close owned backends."""
        if not enter_close(self):
            return
        self.scheduler.stop()
        with self._backends_lock:
            backends, self._backends = self._backends, {}
        for backend, owned in backends.values():
            if owned:
                close = getattr(backend, "close", None)
                if close is not None:
                    close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

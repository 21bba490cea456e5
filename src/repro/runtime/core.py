"""The narrow-waist execution core: one batch stack, any workload.

The warm batch machinery — payload interning, resident program tables,
persistent warm process pools, adaptive work-stealing dispatch — with
every mechanism parameterized by a
:class:`~repro.runtime.workload.Workload` adapter instead of
hard-coded Turing-machine compile/run calls.  Turing machines are one
adapter among several (``MACHINES``, the default of
:func:`create_backend`); complang VM runs, DPLL solves and busy-beaver
sweeps plug in through their own adapters and get the same
amortisation and the same supervision hooks for free.  Every backend
name resolves through the one :data:`BACKENDS` registry.

The mechanisms, workload-generically:

* **Payload interning.**  :func:`intern_jobs` dedups jobs by the
  adapter's ``content_key`` — equal jobs execute once and share the
  result — and backends assign every unique program a compact integer
  id.  Workers hold a resident table keyed by those ids, so
  steady-state chunk payloads are ``(program_id, input)`` tuples: the
  dominant payload (the program) crosses the process boundary at most
  once per worker, at pool warm-up.
* **Persistent warm workers.**  A :class:`ProcessBackend`'s pool and
  its per-worker resident tables survive across ``execute()`` calls,
  generation-tagged so a restart can never serve stale state.
* **Adaptive dispatch with a work-stealing tail.**  Chunk sizes follow
  a per-program EWMA cost model fed by ``workload.cost(result)`` and
  decay geometrically toward single jobs at the tail.

All three live once, in :class:`Coordinator` (registry, result memo,
cost model, ``execute`` and the dispatch loop); its transports only
move chunks — :class:`ProcessBackend` over one local pool,
:class:`repro.comm.dist.DistBackend` over a communicator's nodes.

Metric and span names are kept identical to the batch layer's
(``batch_chunk_seconds``, ``compile_cache_hits_total``, ``batch.pool``
…) so dashboards and the obs test-suite see one unchanged namespace
whichever workload is running; the workload-labelled ``runtime_*``
series are emitted by :func:`run_jobs` on top.
"""

from __future__ import annotations

import os
import pickle
import time
from collections import OrderedDict, deque
from collections.abc import Iterable, Mapping, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Any, Protocol

from repro.obs.instrument import OBS
from repro.obs.telemetry import current_context, run_captured
from repro.runtime.lifecycle import (
    ChunkSettler,
    close_when_collected,
    enter_close,
    mark_open,
    plan_chunks,
)
from repro.runtime.workload import Job, Workload, get_workload

__all__ = [
    "Backend",
    "BACKENDS",
    "Coordinator",
    "TABLE_SIZE",
    "WRAPPER_BACKENDS",
    "ProcessBackend",
    "ProgramNotResident",
    "ResidentCache",
    "SerialBackend",
    "create_backend",
    "intern_jobs",
    "resolve_backend",
    "run_job_loop",
    "run_jobs",
]


class ProgramNotResident(RuntimeError):
    """A worker was handed a program id it has no resident or source for.

    Only reachable through torn dispatch state (e.g. a hand-built
    payload); ``execute`` and ``submit_chunk`` always ship the program
    alongside any id the pool was not warmed with.  A supervisor
    treats it like any other chunk failure and retries.
    """


#: The resident of a program whose ``prepare`` raised ``ValueError``
#: (the TM adapter's answer to an uncompilable alphabet): its jobs run
#: on ``run_direct``.  Tables keep it like any resident.
_UNPREPARABLE = object()


def _prepare(workload: Workload, program: Any) -> Any:
    """``program``'s resident, or :data:`_UNPREPARABLE` if ``prepare``
    raises ``ValueError``: the one place a job's run path is decided.
    Every resident table calls it once per program."""
    try:
        return workload.prepare(program)
    except ValueError:
        return _UNPREPARABLE


def _run_resident(workload: Workload, resident: Any, program: Any, input: Any, fuel: int) -> Any:
    """One job on its resident; on ``run_direct`` if there is none."""
    if resident is _UNPREPARABLE:
        return workload.run_direct(program, input, fuel)
    return workload.execute(resident, input, fuel)


class ResidentCache:
    """A keyed LRU cache of prepared (resident) programs.

    Keys are the workload's ``program_key`` — program *content*, not
    identity — so a program decoded twice from the same description
    still hits.  A program whose ``prepare`` raised ``ValueError`` is
    cached too, as :data:`_UNPREPARABLE`: ``resident`` returns that
    marker and ``get`` raises ``ValueError`` on every probe, while
    ``prepare`` ran only on the first.
    """

    def __init__(self, workload: Workload, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.workload = workload
        self.maxsize = maxsize
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def resident(self, program: Any) -> Any:
        """The program's resident or :data:`_UNPREPARABLE`, prepared on
        the first probe of its key."""
        key = self.workload.program_key(program)
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        entry = self._entries[key] = _prepare(self.workload, program)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return entry

    def get(self, program: Any) -> Any:
        """The program's resident; ``ValueError`` if it is unpreparable."""
        entry = self.resident(program)
        if entry is _UNPREPARABLE:
            raise ValueError(f"{self.workload.kind} program is unpreparable")
        return entry

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "size": len(self._entries)}


_ZERO_STATS = {"hits": 0, "misses": 0, "size": 0}


def _record_cache_metrics(backend: str, hits: int, misses: int) -> None:
    # One atomic burst: a snapshot can never see hits updated while
    # the paired misses still hold the previous batch's value.
    with OBS.atomic():
        OBS.count("compile_cache_hits_total", hits, backend=backend)
        OBS.count("compile_cache_misses_total", misses, backend=backend)


def intern_jobs(
    workload: Workload, jobs: Sequence[Job]
) -> tuple[list[Job], list[int], list[Any]]:
    """Dedup jobs by content: ``(unique_jobs, slots, unique_keys)``.

    ``slots[i]`` is the index into ``unique_jobs`` whose result job
    ``i`` shares; ``unique_keys[u]`` is the program key of unique job
    ``u``.  Equal jobs (same program content, same input) execute once
    — determinism of the workload makes sharing exact.
    """
    index: dict[Any, int] = {}
    unique: list[Job] = []
    unique_keys: list[Any] = []
    slots: list[int] = []
    for job in jobs:
        program, _input = job
        key = workload.program_key(program)
        ckey = (key, _input)
        u = index.get(ckey)
        if u is None:
            u = index[ckey] = len(unique)
            unique.append(job)
            unique_keys.append(key)
        slots.append(u)
    return unique, slots, unique_keys


def run_job_loop(
    workload: Workload,
    jobs: Sequence[Job],
    fuel: int,
    *,
    cache: ResidentCache | None = None,
) -> list[Any]:
    """The shared inner loop: run jobs in order, reusing residents."""
    cache = cache if cache is not None else ResidentCache(workload)
    return [
        _run_resident(workload, cache.resident(program), program, input, fuel)
        for program, input in jobs
    ]


def _run_chunk(
    workload: Workload,
    jobs: Sequence[Job],
    fuel: int,
    cache: ResidentCache,
) -> tuple[list[Any], dict[str, int], float]:
    """Run one chunk in-process through ``cache``: ``(results, stats, seconds)``.

    The payload shape a pool worker returns, so a supervisor settles
    in-process chunks exactly like pooled ones.  ``cache`` may hold
    residents from earlier chunks: ``hits``/``misses`` count this
    chunk's probes only, and ``size`` is the table's size after it.
    """
    hits, misses = cache.hits, cache.misses
    start = time.perf_counter()
    results = run_job_loop(workload, jobs, fuel, cache=cache)
    stats = {"hits": cache.hits - hits, "misses": cache.misses - misses, "size": len(cache)}
    return results, stats, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Worker-side resident state (process-pool side of payload interning)
# ---------------------------------------------------------------------------

#: Program ids a coordinator keeps registered between batches, and
#: residents a worker or node table keeps.  A batch may use more ids;
#: the registry is trimmed back once it settles.
TABLE_SIZE = 4096


def _resident_table(generation: int = -1, seeds: Iterable[tuple[int, Any]] = ()) -> dict:
    """A worker's or node's resident table for one generation.

    ``programs`` maps program id -> ``(resident, source)`` in
    least-recently-used order, at most :data:`TABLE_SIZE` of them;
    ``machines`` holds the seeded sources.  Sources arrive either
    through the pool initializer (warm seeding — under fork they
    transfer by inheritance, zero pickles) or shipped inside a chunk
    payload, which the coordinator does for an unseeded program in
    every chunk that uses it.  So an evicted shipped program is simply
    forgotten, and an evicted seeded one is prepared again from its
    seeded source.  Preparation is lazy and counted as a miss in the
    chunk that triggers it; later jobs on the same table are hits.
    """
    return {"generation": generation, "programs": OrderedDict(), "machines": dict(seeds)}


# One resident table per worker process.
_WORKER: dict = _resident_table()


def _worker_warm(generation: int, seeds: Sequence[tuple[int, Any]]) -> None:
    """Pool initializer: install this generation's seeded sources."""
    _WORKER.update(_resident_table(generation, seeds))


def _execute_entries(
    workload: Workload,
    generation: int,
    entries: Sequence[tuple[int, Any]],
    shipped: Mapping[int, Any],
    fuel: int,
    table: dict | None = None,
) -> tuple[list[Any], dict[str, int], float]:
    """Serve interned entries from the worker's resident table.

    ``entries`` is a sequence of ``(program_id, input)`` and
    ``shipped`` the program sources for ids the master could not
    assume resident.  A generation older than the payload's means the
    table belongs to a pre-restart pool: it is dropped wholesale
    before any entry is served.  A source is looked up in ``shipped``
    first, so an entry still finds it after an earlier entry of the
    same chunk evicted its program.

    ``table`` defaults to the per-process :data:`_WORKER` state; the
    comm layer's in-process loopback nodes pass their own tables so two
    node threads sharing one process never share (and never thrash)
    one generation-tagged table.
    """
    start = time.perf_counter()
    worker = table if table is not None else _WORKER
    if worker["generation"] != generation:
        worker.update(_resident_table(generation))
    seeded = worker["machines"]
    programs = worker["programs"]
    hits = misses = 0
    results: list[Any] = []
    for pid, input in entries:
        entry = programs.get(pid)
        if entry is None:
            source = shipped.get(pid)
            if source is None:
                source = seeded.get(pid)
                if source is None:
                    raise ProgramNotResident(f"program {pid} not resident (gen {generation})")
            misses += 1
            entry = programs[pid] = (_prepare(workload, source), source)
            if len(programs) > TABLE_SIZE:
                programs.popitem(last=False)
        else:
            hits += 1
            programs.move_to_end(pid)
        results.append(_run_resident(workload, *entry, input, fuel))
    stats = {"hits": hits, "misses": misses, "size": len(programs)}
    return results, stats, time.perf_counter() - start


def _run_workload_chunk(payload) -> tuple[list[Any], dict[str, int], float]:
    """Interned chunk entry point: ``(results, cache stats, seconds)``.

    ``payload`` is ``(workload, generation, entries, shipped, fuel)``
    plus an optional trailing
    :class:`~repro.obs.telemetry.TraceContext`, possibly pre-pickled:
    the master pickles it up front to measure the bytes it ships (and
    to pickle shipped programs exactly once), so unwrap before
    dispatching.  A riding context wraps execution in a worker-side
    telemetry capture whose delta piggybacks home in the stats dict.
    """
    if isinstance(payload, bytes):
        payload = pickle.loads(payload)
    workload, generation, entries, shipped, fuel = payload[:5]
    ctx = payload[5] if len(payload) > 5 else None
    if ctx is None:
        return _execute_entries(workload, generation, entries, shipped, fuel)
    return run_captured(
        ctx,
        lambda: _execute_entries(workload, generation, entries, shipped, fuel),
        kind=workload.kind,
        jobs=len(entries),
    )


class Backend(Protocol):
    """The pluggable execution interface (cf. ChainerMN communicators).

    ``workload`` is the adapter the backend is bound to;
    ``last_cache_stats`` holds the resident-cache hit/miss/size tallies
    of the most recent ``execute``; ``last_dispatch`` summarises how
    that call was dispatched (jobs, unique jobs, chunks, steals,
    payload bytes, memo hits).

    Beyond ``execute``, the built-in backends expose a chunk-level API
    (``submit_chunk``/``recover``/``close``) returning
    :class:`concurrent.futures.Future` objects; that is the surface
    :class:`repro.faults.supervisor.SupervisedBackend` drives to add
    deadlines, retries, hedging, and quarantine on top.
    """

    name: str
    workload: Workload
    last_cache_stats: dict[str, int]

    def execute(self, jobs: Sequence[Job], *, fuel: int) -> list[Any]: ...


class SerialBackend:
    """In-process execution; the default and the baseline.

    Jobs are interned (equal jobs run once, results shared), and both
    ``execute`` and ``submit_chunk`` run through one
    :class:`ResidentCache` the backend keeps for its lifetime, as a
    pool worker keeps its resident table: a program prepared by one
    call is reused by every later one.  ``close()`` drops it.
    """

    name = "serial"

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.residents = ResidentCache(workload)
        self.last_cache_stats: dict[str, int] = dict(_ZERO_STATS)
        self.last_dispatch: dict[str, int] = {}

    def submit_chunk(self, chunk: Sequence[Job], *, fuel: int) -> Future:
        """Run one chunk inline; return it as an already-settled future.

        Same payload as the process backend's workers (stats and wall
        time ride home with the results, a riding trace context
        captures worker-side telemetry), so a supervisor can drive
        either backend through one interface.
        """
        future: Future = Future()
        try:
            # No per-job key digests on the worker span: hashing every
            # job's content key would dwarf a small chunk's real work.
            # The supervisor stamps digests on its dispatch spans.
            future.set_result(
                run_captured(
                    current_context(),
                    lambda: _run_chunk(self.workload, chunk, fuel, self.residents),
                    kind=self.workload.kind,
                    jobs=len(chunk),
                )
            )
        except BaseException as exc:  # settled, never raised here
            future.set_exception(exc)
        return future

    def recover(self) -> None:
        """Nothing to restart: in-process execution has no pool."""

    def close(self) -> None:
        """Drop the resident programs; idempotent like every backend's close."""
        enter_close(self)
        self.residents = ResidentCache(self.workload)

    def execute(self, jobs: Sequence[Job], *, fuel: int) -> list[Any]:
        # Reset at entry so a failing run can't leave the previous
        # run's tallies visible.
        self.last_cache_stats = dict(_ZERO_STATS)
        self.last_dispatch = {}
        unique, slots, _ = intern_jobs(self.workload, jobs)
        with OBS.span("batch.chunk", backend=self.name, jobs=len(jobs)):
            unique_results, stats, elapsed = _run_chunk(
                self.workload, unique, fuel, self.residents
            )
        results = [unique_results[s] for s in slots]
        # A deduped duplicate reused a prepared program without even a
        # cache probe — the purest hit there is — so it counts as one.
        deduped = len(jobs) - len(unique)
        self.last_cache_stats = {
            "hits": stats["hits"] + deduped,
            "misses": stats["misses"],
            "size": stats["size"],
        }
        self.last_dispatch = {
            "jobs": len(jobs),
            "unique_jobs": len(unique),
            "deduped": deduped,
            "chunks": 1 if jobs else 0,
            "steals": 0,
            "payload_bytes": 0,
            "memo_hits": 0,  # no cross-call result memo in-process
            "ensemble_jobs": 0,
        }
        if OBS.enabled:
            OBS.gauge("batch_queue_depth", 1, backend=self.name)
            OBS.observe("batch_chunk_seconds", elapsed, backend=self.name)
            _record_cache_metrics(
                self.name, self.last_cache_stats["hits"], self.last_cache_stats["misses"]
            )
        return results


class Coordinator:
    """The master side of interned, chunked execution, written once.

    Subclasses are transports: they move chunks of ``(program_id,
    input)`` entries to a lane and back, and never change what the
    caller sees.  A transport sets ``lanes``, ``window`` (chunks in
    flight per lane) and ``lane_workers`` (the adaptive split's
    divisor) and implements ``_open``, ``_submit_entries``,
    ``_reseed``, ``recover`` and ``close``; with several lanes it homes
    programs through ``_place``.  A chunk whose lane fails raises out
    of ``execute``, whatever the transport: restarting the lane is
    ``recover()``'s job, and the supervisor is what calls it.
    """

    #: Extra ``batch.pool`` span attributes.
    _labels: dict[str, Any] = {}

    def __init__(
        self,
        workload: Workload,
        *,
        lanes: int,
        window: int,
        lane_workers: int,
        chunksize: int | None,
        memo_size: int,
    ) -> None:
        if chunksize is not None and chunksize < 1:
            raise ValueError("chunksize must be >= 1 (or None for adaptive dispatch)")
        if memo_size < 0:
            raise ValueError("memo_size must be >= 0")
        self.workload = workload
        self.lanes = lanes
        self.window = window
        self.lane_workers = lane_workers
        self.chunksize = chunksize
        self.memo_size = memo_size
        self.last_cache_stats: dict[str, int] = dict(_ZERO_STATS)
        self.last_dispatch: dict[str, Any] = {}
        # _known maps program id -> (content key, program, home lane),
        # in least-recently-registered order; _seeded[lane] is the
        # subset the lane's current incarnation holds resident.
        self._key_ids: dict[Any, int] = {}
        self._next_id = 0
        self._known: OrderedDict[int, tuple[Any, Any, int]] = OrderedDict()
        self._seeded: list[set[int]] = [set() for _ in range(lanes)]
        self._memo: OrderedDict[tuple, Any] = OrderedDict()
        self._cost: dict[int, float] = {}

    # -- program registry ----------------------------------------------------

    def _register(self, program: Any, key: Any = None) -> int:
        """Intern a program, keyed by ``key`` if the caller already
        computed it; returns its compact program id."""
        if key is None:
            key = self.workload.program_key(program)
        pid = self._key_ids.get(key)
        if pid is None:
            pid = self._key_ids[key] = self._next_id
            self._next_id += 1
            home = self._place(key)
        else:
            home = self._known[pid][2]
        self._known[pid] = (key, program, home)
        self._known.move_to_end(pid)
        return pid

    def _trim(self) -> None:
        """Forget the least recently registered programs beyond
        :data:`TABLE_SIZE`.  Called only once nothing in flight on
        this side still resolves their ids."""
        while len(self._known) > TABLE_SIZE:
            pid, (key, _, _) = self._known.popitem(last=False)
            del self._key_ids[key]
            self._cost.pop(pid, None)
            for seeded in self._seeded:
                seeded.discard(pid)

    def _place(self, key: Any) -> int:
        """The home lane of a newly registered program."""
        return 0

    def _home(self, pid: int) -> int:
        """The lane that owns this program's resident state."""
        return self._known[pid][2]

    def _shipped(self, lane: int, entries: Sequence[tuple[int, Any]]) -> dict[int, Any]:
        """Sources for the entries' programs the lane does not hold
        resident — at most once per chunk, however many entries
        reference each."""
        seeded = self._seeded[lane]
        shipped: dict[int, Any] = {}
        for pid, _ in entries:
            if pid not in seeded and pid not in shipped:
                shipped[pid] = self._known[pid][1]
        return shipped

    # -- warm lifecycle ------------------------------------------------------

    def warm(self, *, jobs: Sequence[Job] = (), programs: Sequence[Any] = ()) -> "Coordinator":
        """Register programs and seed every lane with its share.

        Seeded programs never ride in a chunk payload.  Only lanes
        that gained a program are re-seeded; warming twice with the
        same programs is a no-op.
        """
        stale: set[int] = set()
        for program in [*programs, *(program for program, _ in jobs)]:
            pid = self._register(program)
            home = self._home(pid)
            if pid not in self._seeded[home]:
                stale.add(home)
        self._trim()
        self._reseed(stale)
        return self

    def invalidate(self) -> None:
        """Drop every warm table: transport, program registry, memo, costs."""
        self.close()
        self._key_ids.clear()
        self._known.clear()
        self._memo.clear()
        self._cost.clear()

    # -- transport hooks -----------------------------------------------------

    def _mark(self) -> Any:
        """Transport counters at the start of an ``execute``."""
        return None

    def _since(self, mark: Any) -> dict[str, Any]:
        """Transport fields for ``last_dispatch``, relative to ``mark``."""
        return {}

    def _record(self, mark: Any) -> None:
        """Transport metrics for one ``execute``, relative to ``mark``."""

    # -- chunk-level API (the supervision surface) ---------------------------

    def _intern_chunk(self, chunk: Sequence[Job]) -> tuple[list[tuple[int, Any]], int]:
        """``chunk``'s ``(program_id, input)`` entries and its lane: the
        home of its first program.  The one place a chunk is routed."""
        entries = [(self._register(program), input) for program, input in chunk]
        return entries, (self._home(entries[0][0]) if entries else 0)

    def route(self, chunk: Sequence[Job]) -> int:
        """The lane :meth:`submit_chunk` sends ``chunk`` to."""
        return self._intern_chunk(chunk)[1]

    def submit_chunk(self, chunk: Sequence[Job], *, fuel: int) -> Future:
        """Submit one chunk to the lane :meth:`route` names.

        The chunk is interned on the way in (compact ids, resident
        tables), so a supervisor composes with warm lanes for free:
        hedged duplicates re-ship nothing, and after ``recover()`` the
        next submit re-seeds under a fresh generation.  Callers driving
        this directly own the transport's lifetime: call :meth:`close`
        (or let ``run_jobs`` close backends it created by name).
        """
        entries, lane = self._intern_chunk(chunk)
        self._open()
        future, _ = self._submit_entries(lane, entries, fuel=fuel)
        self._trim()
        return future

    # -- cost model ----------------------------------------------------------

    def _estimate(self, pid: int) -> float:
        """Estimated relative cost of one job of program ``pid``."""
        est = self._cost.get(pid)
        if est is not None:
            return max(est, 1.0)
        if self._cost:
            return max(sum(self._cost.values()) / len(self._cost), 1.0)
        return 1.0

    def _observe_cost(self, pid: int, cost: float) -> None:
        self._cost[pid] = 0.5 * self._cost.get(pid, float(cost)) + 0.5 * cost

    # -- execution -----------------------------------------------------------

    def execute(self, jobs: Sequence[Job], *, fuel: int) -> list[Any]:
        # Reset at entry: a chunk that raises mid-batch used to leave
        # the previous run's tallies behind.
        self.last_cache_stats = dict(_ZERO_STATS)
        self.last_dispatch = {}
        if not jobs:
            return []
        unique, slots, keys = intern_jobs(self.workload, jobs)
        pids = [self._register(program, key) for (program, _), key in zip(unique, keys)]

        # Warm memo: a (program, input, fuel) triple this backend has
        # already answered never goes back to the transport.
        unique_results: list[Any] = [None] * len(unique)
        pending: list[int] = []
        for u, (pid, (_, input)) in enumerate(zip(pids, unique)):
            memoed = self._memo.get((pid, input, fuel))
            if memoed is not None:
                self._memo.move_to_end((pid, input, fuel))
                unique_results[u] = memoed
            else:
                pending.append(u)

        settler = ChunkSettler(self.name)
        aggregate = settler.aggregate
        chunks = steals = payload_bytes = 0
        mark = self._mark()
        try:
            if pending:
                with OBS.span(
                    "batch.pool",
                    backend=self.name,
                    jobs=len(jobs),
                    pending=len(pending),
                    **self._labels,
                ):
                    chunks, steals, payload_bytes = self._dispatch(
                        pending, unique, pids, unique_results, settler, fuel
                    )
        finally:
            # The batch has settled, so no id it used is needed again.
            self._trim()
            # Failure-safe: on an exception this reflects exactly the
            # chunks that completed, never the previous run.  A duplicate
            # of a job whose chunk completed reused its resident: a hit.
            executed = set(pending)
            ran = {u for u in pending if unique_results[u] is not None}
            memo_hits = sum(1 for s in slots if s not in executed)
            self.last_cache_stats = {
                "hits": aggregate["hits"] + sum(1 for s in slots if s in ran) - len(ran),
                "misses": aggregate["misses"],
                "size": aggregate["size"],
            }
            # A memo-served batch reports chunks=0, payload_bytes=0
            # *and* memo_hits=N rather than looking like an empty
            # dispatch.
            self.last_dispatch = {
                "jobs": len(jobs),
                "unique_jobs": len(unique),
                "deduped": len(jobs) - len(unique),
                "chunks": chunks,
                "steals": steals,
                "payload_bytes": payload_bytes,
                "memo_hits": memo_hits,
                "ensemble_jobs": 0,
                **self._since(mark),
            }
        out = [unique_results[s] for s in slots]
        if any(r is None for r in out):  # pragma: no cover - defensive
            raise RuntimeError("dispatch completed with unfilled result slots")
        for u, (pid, (_, input)) in enumerate(zip(pids, unique)):
            if self.memo_size and unique_results[u] is not None:
                self._memo[(pid, input, fuel)] = unique_results[u]
        while len(self._memo) > self.memo_size:
            self._memo.popitem(last=False)
        if OBS.enabled:
            OBS.gauge("batch_queue_depth", chunks, backend=self.name)
            _record_cache_metrics(
                self.name, self.last_cache_stats["hits"], self.last_cache_stats["misses"]
            )
            if steals:
                OBS.count("batch_steal_total", steals, backend=self.name)
            if payload_bytes:
                OBS.count("batch_payload_bytes", payload_bytes, backend=self.name)
            if memo_hits:
                OBS.count("batch_warm_hits", memo_hits, backend=self.name)
            self._record(mark)
        return out

    def _dispatch(
        self,
        pending: list[int],
        unique: Sequence[Job],
        pids: Sequence[int],
        unique_results: list[Any],
        settler: ChunkSettler,
        fuel: int,
    ) -> tuple[int, int, int]:
        """Drive the lanes over ``pending``; ``(chunks, steals, payload_bytes)``.

        Each lane pulls spans off the front of its straggler queue, at
        most ``window`` in flight: a ``chunksize`` slice, or adaptively
        a ``1/(2·lane_workers)`` share of the lane's remaining estimated
        cost, so chunk *contents* are deterministic and decay toward
        single jobs at the tail.  A steal is a pull beyond the first
        wave.  The first chunk to fail cancels the rest and raises.
        """
        if self.chunksize is not None and self.chunksize < 1:
            raise ValueError("chunksize must be >= 1 (or None for adaptive dispatch)")
        self._open()
        queues: list[deque[int]] = [deque() for _ in range(self.lanes)]
        lane_cost = [0.0] * self.lanes
        estimates = {u: self._estimate(pids[u]) for u in pending}
        for u in pending:
            lane = self._home(pids[u])
            queues[lane].append(u)
            lane_cost[lane] += estimates[u]

        def next_span(lane: int) -> list[int] | None:
            q = queues[lane]
            if not q:
                return None
            if self.chunksize is not None:
                span = [q.popleft() for _ in range(min(self.chunksize, len(q)))]
                if len(q) == 1:  # never ship a 1-job leftover chunk
                    span.append(q.popleft())
                return span
            share = max(1.0, lane_cost[lane] / (2 * self.lane_workers))
            span = []
            acc = 0.0
            while q and (not span or acc < share):
                u = q.popleft()
                span.append(u)
                acc += estimates[u]
            lane_cost[lane] -= acc
            return span

        def scatter(span: list[int], results: Sequence[Any]) -> None:
            for u, result in zip(span, results):
                unique_results[u] = result
                self._observe_cost(pids[u], self.workload.cost(result))

        chunks = steals = payload_bytes = 0
        in_flight: dict[Future, tuple[int, list[int]]] = {}
        busy = [0] * self.lanes
        try:
            while True:
                for lane in range(self.lanes):
                    while busy[lane] < self.window:
                        span = next_span(lane)
                        if span is None:
                            break
                        entries = [(pids[u], unique[u][1]) for u in span]
                        future, size = self._submit_entries(lane, entries, fuel=fuel)
                        if chunks >= self.lanes * self.window:
                            steals += 1  # a pull beyond the initial wave
                        chunks += 1
                        payload_bytes += size
                        in_flight[future] = (lane, span)
                        busy[lane] += 1
                if not in_flight:
                    break
                done, _ = wait(set(in_flight), return_when=FIRST_COMPLETED)
                for future in done:
                    lane, span = in_flight.pop(future)
                    busy[lane] -= 1
                    scatter(span, settler.settle(future.result()))
        except BaseException:
            for future in in_flight:
                future.cancel()
            raise
        return chunks, steals, payload_bytes


class ProcessBackend(Coordinator):
    """The coordinator over a persistent local ``concurrent.futures`` pool.

    One lane, ``workers`` chunks in flight.  The pool — and every
    worker's resident program table — survives across ``execute()``
    calls.  Lifecycle:

    * ``warm(jobs=..., programs=...)`` registers programs and (re)builds
      the pool with them seeded, so workers never see those programs
      in a chunk payload at all;
    * ``execute`` registers any new programs as it meets them (seeding
      them if the pool is not built yet, shipping them at most once per
      chunk otherwise) and keeps a bounded memo of results, so a warm
      backend answers repeated jobs without touching the pool;
    * ``recover()`` discards a (possibly broken) pool; the next submit
      builds a fresh one, re-seeded, under a new generation;
    * ``invalidate()`` additionally drops the program registry, the
      result memo and the cost model;
    * ``close()`` releases the pool but keeps the warm master state, so
      reopening re-seeds automatically.

    A broken pool raises out of ``execute``; restarting it is the
    supervisor's call.  ``chunksize=None`` enables adaptive dispatch
    (see :meth:`Coordinator._dispatch`); an explicit ``chunksize``
    keeps the static split of :meth:`_chunks`.
    """

    name = "process"

    def __init__(
        self,
        workload: Workload,
        workers: int | None = None,
        chunksize: int | None = None,
        *,
        memo_size: int = 4096,
    ) -> None:
        self.workers = (os.cpu_count() or 1) if workers is None else workers
        if self.workers < 1:
            raise ValueError("need at least one worker")
        self.generation = 0
        self._pool: ProcessPoolExecutor | None = None
        self._owner_pid = os.getpid()
        Coordinator.__init__(
            self,
            workload,
            lanes=1,
            window=self.workers,
            lane_workers=self.workers,
            chunksize=chunksize,
            memo_size=memo_size,
        )

    # -- the local pool transport ---------------------------------------------

    def _open(self) -> None:
        if self._pool is not None and os.getpid() != self._owner_pid:
            # Fork-unsafe state: this object was copied into a child
            # process.  The pool's queues and worker processes belong
            # to the parent — drop the reference (never shut the
            # parent's workers down from here) and rebuild.
            self._pool = None
        if self._pool is None:
            self.generation += 1
            # Every registered program is seeded.  Under a forking start
            # method the seeds transfer to workers by memory inheritance —
            # zero pickles; under spawn they are pickled once per worker.
            # A dropped pool's set lingers until the next build replaces
            # it; no payload is built before that build.
            seeds = [(pid, program) for pid, (_, program, _) in self._known.items()]
            self._seeded = [{pid for pid, _ in seeds}]
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_worker_warm,
                initargs=(self.generation, seeds),
            )
            self._owner_pid = os.getpid()
            mark_open(self)

    def recover(self) -> None:
        """Discard the pool — broken or not — so the next submit starts
        a fresh one under a new generation.  This is the restart step
        after a worker crash surfaces as
        :class:`~concurrent.futures.process.BrokenProcessPool`."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        if not enter_close(self):
            return
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    __del__ = close_when_collected

    def _reseed(self, lanes: set[int]) -> None:
        if self._pool is not None and lanes:
            self.close()  # rebuild below so the new programs are seeded
        self._open()

    def _submit_entries(
        self,
        lane: int,
        entries: Sequence[tuple[int, Any]],
        *,
        fuel: int,
    ) -> tuple[Future, int]:
        """Submit interned entries; returns ``(future, payload_bytes)``."""
        shipped = self._shipped(lane, entries)
        ctx = current_context()
        payload = (self.workload, self.generation, tuple(entries), shipped, fuel)
        if ctx is not None:
            payload = (*payload, ctx)
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        return self._pool.submit(_run_workload_chunk, blob), len(blob)

    def _chunks(self, jobs: Sequence) -> list[Sequence]:
        """Static split via the shared planner, order-preserving.

        ``chunksize=None`` targets roughly 4 chunks per worker and
        never more; the trailing 1-job merge lives in
        :func:`repro.runtime.lifecycle.plan_chunks` now, shared with
        the supervisor and the session scheduler.
        """
        return [
            list(plan.jobs)
            for plan in plan_chunks(jobs, chunksize=self.chunksize, workers=self.workers)
        ]


def _supervised_backend(workload: Workload, **kwargs):
    # Imported late: the supervisor lives in the faults layer and
    # itself imports this module.
    from repro.faults.supervisor import SupervisedBackend

    return SupervisedBackend(workload=workload, **kwargs)


def _ensemble_backend(workload: Workload, **kwargs):
    # Late import: the ensemble layer pulls in numpy and the lock-step
    # engine, which plain serial/process users never need.
    from repro.runtime.ensemble import EnsembleBackend

    return EnsembleBackend(workload, **kwargs)


def _journaled_backend(workload: Workload, **kwargs):
    # Late import: the journal layer is only paid for when asked for.
    from repro.runtime.journal import JournaledBackend

    return JournaledBackend(workload=workload, **kwargs)


def _dist_backend(workload: Workload, **kwargs):
    # Late import: the comm layer (sockets, node subprocesses) is only
    # paid for when a distributed backend is asked for.
    from repro.comm.dist import DistBackend

    return DistBackend(workload, **kwargs)


BACKENDS = {
    "serial": SerialBackend,
    "process": ProcessBackend,
    "supervised": _supervised_backend,
    "ensemble": _ensemble_backend,
    "journaled": _journaled_backend,
    "dist": _dist_backend,
}

#: Backend names whose factories wrap another backend (they accept
#: ``inner=``).  Only these may appear as prefixes in a composite name
#: like ``"journaled:supervised:dist"``; any registry entry may be the
#: leaf.
WRAPPER_BACKENDS = frozenset({"journaled", "supervised"})


def _check_composite(name: str) -> None:
    """Validate a composite backend name's whole prefix chain up front.

    ``create_backend`` resolves composites recursively, one wrapper at
    a time — so without this check a typo deep in the chain (or a
    non-wrapper used as a prefix, like ``"process:serial"``) would only
    surface after the outer wrappers were already constructed, as a
    confusing unknown-backend or unexpected-kwarg error.  Every error
    names the full requested chain, not just the offending segment, so
    a failure deep inside ``"journaled:supervised:dist"`` still points
    at the string the caller actually wrote.

    Ordering is validated too: ``supervised`` drives its inner
    backend's chunk-level ``submit_chunk`` surface, which the wrapper
    backends themselves do not expose — so ``"supervised:journaled"``
    (or ``"supervised:supervised"``) is rejected here with the valid
    ordering spelled out, instead of surfacing later as a bare
    ``TypeError`` from the supervisor's constructor.
    """
    parts = name.split(":")
    wrappers = sorted(WRAPPER_BACKENDS)
    for part in parts[:-1]:
        if part in WRAPPER_BACKENDS:
            continue
        if part in BACKENDS:
            raise ValueError(
                f"backend {part!r} cannot wrap another backend in {name!r};"
                f" composable wrapper prefixes are {wrappers}"
            )
        raise ValueError(
            f"unknown wrapper prefix {part!r} in composite backend {name!r};"
            f" composable wrapper prefixes are {wrappers}"
        )
    leaf = parts[-1]
    if leaf not in BACKENDS:
        raise ValueError(
            f"unknown leaf backend {leaf!r} in composite backend {name!r};"
            f" choose from {sorted(BACKENDS)}"
        )
    for outer, inner in zip(parts, parts[1:]):
        if outer == "supervised" and inner in WRAPPER_BACKENDS:
            raise ValueError(
                f"wrapper {inner!r} cannot sit under 'supervised' in composite"
                f" backend {name!r}: 'supervised' drives its inner backend's"
                f" submit_chunk surface, which wrapper backends do not expose;"
                f" order the chain as 'journaled:supervised:{parts[-1]}' instead"
            )


def create_backend(
    name: str = "serial",
    *,
    workload: Workload | str | None = None,
    **kwargs,
) -> Backend:
    """Factory over :data:`BACKENDS`, by name.

    Every factory is called with the resolved workload (by default the
    ``machines`` adapter) as its first argument.

    Composite names stack wrapping backends left to right as a generic
    prefix chain: every segment before the last must be a registered
    wrapper (one of :data:`WRAPPER_BACKENDS` — they accept ``inner=``)
    and the last segment any registered leaf, so
    ``"journaled:supervised:process"``, ``"journaled:dist"`` and
    ``"journaled:ensemble"`` all compose the same way.  The
    chain is validated up front — an unknown prefix, a non-wrapper
    prefix, or an unknown leaf each fail with an error naming the
    offending segment — then the head factory is called with ``inner=``
    set to the rest of the name, which the wrapper resolves recursively
    through this same function (wrapper-specific kwargs like
    ``journal_dir`` still pass through ``kwargs``).
    """
    factory = BACKENDS.get(name)
    if factory is None and ":" in name:
        _check_composite(name)
        head, _, rest = name.partition(":")
        factory = BACKENDS.get(head)
        if factory is not None:
            if "inner" in kwargs:
                raise ValueError(
                    f"composite backend name {name!r} conflicts with inner= kwarg"
                )
            kwargs["inner"] = rest
    if factory is None:
        raise ValueError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
            " (wrappers compose as 'journaled:<inner>' / 'supervised:<inner>')"
        )
    if isinstance(workload, str):
        workload = get_workload(workload)
    elif workload is None:
        workload = get_workload("machines")
    return factory(workload, **kwargs)


def resolve_backend(
    backend: str | Backend,
    *,
    workload: Workload | str | None = None,
    **kwargs,
) -> tuple[Backend, bool]:
    """Resolve ``str | Backend`` to ``(backend, owned)``.

    The single home of the string-resolution logic every entry point
    and wrapper shares (``run_jobs``, ``run_many``, the supervisor's
    and the journal's ``inner``): a name is created through
    :func:`create_backend` (and ``owned=True`` tells the caller to
    close it); an instance passes through untouched — in which case
    backend kwargs are rejected rather than silently dropped.
    """
    if isinstance(backend, str):
        return create_backend(backend, workload=workload, **kwargs), True
    if kwargs:
        raise ValueError("backend kwargs only apply when backend is a name")
    return backend, False


def run_jobs(
    workload: Workload | str,
    jobs: Sequence[Job],
    *,
    fuel: int = 10_000,
    backend: str | Backend = "serial",
) -> list[Any]:
    """Run every ``(program, input)`` job; results keep job order.

    The workload-generic face of :func:`repro.perf.batch.run_many`
    (which adds only its TM span and counters): each result equals
    what ``workload.run_direct(program, input, fuel)`` would return —
    the runtime changes the cost, never the answer.  Equal jobs (by
    ``content_key``) share one result object; workload purity makes
    sharing exact.  The one exception is the ``supervised`` backend,
    which may quarantine a poison job rather than fail the batch: its
    slot holds ``None`` and the dead letter is recorded on
    ``backend.last_report``.

    A backend named by string is created — and closed — by this call;
    pass an instance (bound to the same workload) to keep its pool,
    resident programs and result memo alive across calls.
    """
    if isinstance(workload, str):
        workload = get_workload(workload)
    backend, owned = resolve_backend(backend, workload=workload)
    try:
        with OBS.span(
            "runtime.run_jobs", workload=workload.kind, backend=backend.name, jobs=len(jobs)
        ):
            results = backend.execute(jobs, fuel=fuel)
            if OBS.enabled:
                labels = {"workload": workload.kind, "backend": backend.name}
                summary = getattr(backend, "last_dispatch", None)
                total_cost = sum(workload.cost(r) for r in results if r is not None)
                # One atomic burst per run: a concurrent snapshot sees
                # all three runtime_* series updated or none of them.
                with OBS.atomic():
                    OBS.count("runtime_jobs_total", len(jobs), **labels)
                    OBS.count("runtime_cost_total", total_cost, **labels)
                    OBS.count(
                        "runtime_unique_jobs_total",
                        summary.get("unique_jobs", len(jobs)) if summary else len(jobs),
                        **labels,
                    )
                if summary:
                    OBS.event(
                        "runtime.dispatch_summary",
                        workload=workload.kind,
                        backend=backend.name,
                        **summary,
                    )
                else:
                    OBS.event(
                        "runtime.dispatch_summary",
                        workload=workload.kind,
                        backend=backend.name,
                        jobs=len(jobs),
                    )
    finally:
        if owned:
            close = getattr(backend, "close", None)
            if close is not None:
                close()
    return results

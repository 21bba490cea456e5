"""The ensemble backend: whole-population lock-step execution behind
the runtime's narrow waist.

:mod:`repro.perf.ensemble_engine` knows how to step a dense family of
Turing machines in numpy lock-step; this module plugs that engine into
the workload-generic runtime as one in-process
:class:`~repro.runtime.core.Backend`, :class:`EnsembleBackend`
(``backend="ensemble"``).  Jobs whose adapter can surface a
:class:`~repro.machines.turing.TuringMachine` (the
:class:`EnsembleCapable` hooks) are lowered, stacked into one family
and stepped together; everything else — oversized machines, exotic
inputs, straggler rows abandoned at the cutoff — falls back to the
warm compiled per-machine path (:class:`~repro.runtime.core.SerialBackend`)
with *identical* results.  The honest halted / still-running
trichotomy, step counts and tapes are preserved exactly: the property
tests drive both paths over randomized enumerated families.

The lowering is also the batch's dedup: equal jobs share one family
row and one result object, grouped from the ids the lowering builds
anyway, so a census makes no ``program_key`` call.  Only the jobs the
family does not settle are content-interned
(:func:`~repro.runtime.core.intern_jobs`) for the fallback loop.

The backend exposes the chunk-level ``submit_chunk``/``recover``/
``close`` surface, so :class:`repro.faults.supervisor.SupervisedBackend`
drives it unchanged: a crashed chunk is retried and the census comes
back without a result lost.  A census sharded over nodes runs through
``backend="dist"`` (``examples/sharded_census.py``).
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from concurrent.futures import Future
from typing import Any, Protocol, runtime_checkable

from repro.obs.instrument import OBS
from repro.obs.telemetry import current_context, run_captured
from repro.perf.ensemble_engine import (
    EnsembleIneligible,
    EnsembleOutcome,
    compile_family,
    lower_machine,  # noqa: F401 - re-exported: perfbench's census trace wraps it
    run_family,
)
from repro.runtime.core import (
    ResidentCache,
    _ZERO_STATS,
    _record_cache_metrics,
    _run_chunk,
    intern_jobs,
)
from repro.runtime.lifecycle import enter_close
from repro.runtime.workload import Job, Workload

__all__ = [
    "EnsembleCapable",
    "EnsembleBackend",
]


@runtime_checkable
class EnsembleCapable(Protocol):
    """The adapter hooks that admit a workload to lock-step batching.

    A workload that implements these joins the ensemble backend; one
    that does not simply cannot be bound to it (``run_jobs`` raises
    at backend construction).  The contract mirrors the rest of the
    :class:`~repro.runtime.workload.Workload` protocol: pure hooks,
    results *identical* to ``run_direct``.

    One condition more: the lowered machine's content (its class,
    initial state, accept and reject states and ``delta``) must
    determine the adapter's ``program_key``.  The backend dedups the
    jobs it lowers by that content instead of keying them, so two
    programs whose machines are content-equal must be one program to
    the adapter.  Both adapters that implement the hooks (``machines``,
    ``busybeaver``) key a program by its machine's
    :func:`~repro.perf.engine.program_key`.
    """

    def ensemble_program(self, program: Any) -> Any:
        """The :class:`TuringMachine` behind ``program`` (raise
        :exc:`EnsembleIneligible` when there is none)."""
        ...

    def ensemble_results(self, outcome: EnsembleOutcome) -> list[Any]:
        """One result object per family row, equal to ``run_direct``'s."""
        ...


def _same_jobs(old: list[Job], new: list[Job]) -> bool:
    return len(old) == len(new) and all(
        a[0] is b[0] and a[1] == b[1] for a, b in zip(old, new)
    )


class EnsembleBackend:
    """In-process lock-step execution with an exact per-machine fallback.

    A batch is lowered and deduped in one family pass
    (:func:`~repro.perf.ensemble_engine.compile_family`); nothing is
    cached or keyed per machine.  The backend keeps only its *last*
    family, reused when every job's program ``is`` the previous call's
    (a census re-swept under a higher fuel).  The fallback loop runs
    through one :class:`~repro.runtime.core.ResidentCache`
    (``.residents``) kept for the backend's lifetime, as
    :class:`~repro.runtime.core.SerialBackend` keeps its own.
    ``close()`` releases both.  ``min_population`` keeps tiny batches
    on the fallback path where per-job dispatch is already optimal (it
    counts the distinct jobs that fit); the straggler cutoff (default
    ``population // 64``) hands the long tail back to the compiled
    engine, whose macro-stepping handles lone spinners better than
    lock-step arrays do.
    """

    name = "ensemble"

    def __init__(
        self,
        workload: Workload,
        *,
        min_population: int = 16,
        max_states: int = 64,
        max_symbols: int = 32,
        straggler_cutoff: int | None = None,
    ) -> None:
        if not hasattr(workload, "ensemble_program"):
            raise TypeError(
                f"workload {getattr(workload, 'kind', workload)!r} is not "
                "EnsembleCapable; use the serial/process backends instead"
            )
        if min_population < 1:
            raise ValueError("min_population must be >= 1")
        self.workload = workload
        self.min_population = min_population
        self.max_states = max_states
        self.max_symbols = max_symbols
        self.straggler_cutoff = straggler_cutoff
        # The previous lowering, ``(jobs, family)``, or None.
        self._last: tuple[list[Job], Any] | None = None
        self.residents = ResidentCache(workload)
        self.last_cache_stats: dict[str, int] = dict(_ZERO_STATS)
        self.last_dispatch: dict[str, int] = {}

    # -- chunk-level API (the supervision surface) ---------------------------

    def submit_chunk(self, chunk: Sequence[Job], *, fuel: int) -> Future:
        """Run one chunk inline; settled-future semantics like
        :meth:`SerialBackend.submit_chunk`, so a supervisor can drive
        the ensemble path through the same event loop."""
        future: Future = Future()

        def body() -> tuple[list[Any], dict[str, int], float]:
            start = time.perf_counter()
            results, stats = self._run(chunk, fuel=fuel)
            return results, stats, time.perf_counter() - start

        try:
            future.set_result(
                run_captured(
                    current_context(),
                    body,
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
        """Release the last family and the residents; there is no pool."""
        enter_close(self)
        self._last = None
        self.residents = ResidentCache(self.workload)

    # -- execution -----------------------------------------------------------

    def _run(self, jobs: Sequence[Job], *, fuel: int) -> tuple[list[Any], dict[str, int]]:
        """Lower, run the family, fall back.

        Returns ``(results, stats)``: one exact result per job in
        order, and the cache tallies plus the
        ``unique_jobs``/``deduped``/``ensemble_jobs``/``fallback_jobs``/
        ``lock_steps`` accounting.  The tallies count each job once: a
        deduped duplicate is a hit; a job whose family row ran is a
        miss of a fresh lowering or a hit of a reused one; a job the
        fallback loop ran is its probe of the residents.  ``size`` is
        the residents' table size.

        The lowering keys the jobs: jobs with equal ``(program,
        input)`` content share one family row and *one result object*,
        exactly as :func:`~repro.runtime.core.intern_jobs` would pair
        them, with no ``program_key`` per job.  Only the jobs the
        family does not settle (ineligible programs, rows over the
        caps, abandoned stragglers, or every job when no family runs)
        are content-interned, by ``intern_jobs``, for the fallback loop.

        When every job's program ``is`` the one at the same position
        in the previous lowering (with an equal input), that family
        runs again; otherwise the new lowering replaces it.
        """
        workload = self.workload
        jobs = list(jobs)
        stats = {
            "hits": 0,
            "misses": 0,
            "size": 0,
            "unique_jobs": 0,
            "deduped": 0,
            "ensemble_jobs": 0,
            "fallback_jobs": 0,
            "lock_steps": 0,
        }
        if not jobs:
            return [], stats
        results: list[Any] = [None] * len(jobs)
        fallback = list(range(len(jobs)))
        first: list[int] = []

        # -- lower the whole family at once, lock-step the rows that fit -----
        if len(jobs) >= self.min_population:
            get_machine = workload.ensemble_program
            lowered = []
            for job in jobs:
                try:
                    machine = get_machine(job[0])
                except EnsembleIneligible:
                    machine = None
                # The job itself when it lowers to its own program: a new
                # tuple per job can set off a full garbage collection.
                lowered.append(job if machine is job[0] else (machine, job[1]))
            reused = self._last is not None and _same_jobs(self._last[0], lowered)
            if reused:
                family = self._last[1]
            else:
                family, _ = compile_family(
                    lowered, max_states=self.max_states, max_symbols=self.max_symbols
                )
                self._last = (lowered, family)
            # Too few distinct rows fit to amortise array setup: all take the warm path.
            if family is not None and family.population >= self.min_population:
                cutoff = (
                    self.straggler_cutoff
                    if self.straggler_cutoff is not None
                    else max(0, family.population // 64)
                )
                outcome = run_family(family, fuel=fuel, straggler_cutoff=cutoff)
                family_results = workload.ensemble_results(outcome)
                row = family.job_row.copy()
                fits = row >= 0
                row[fits & outcome.abandoned[row]] = -1  # rerun from scratch below
                row = row.tolist()
                results = [family_results[e] if e >= 0 else None for e in row]
                fallback = [j for j, e in enumerate(row) if e < 0]
                first = family.job_first.tolist()
                settled = family.population - int(outcome.abandoned.sum())
                stats["unique_jobs"] = settled
                # The rest are counted by the fallback loop's probes.
                stats["hits" if reused else "misses"] += settled
                stats["ensemble_jobs"] = len(jobs) - len(fallback)
                stats["lock_steps"] = outcome.lock_steps

        # -- the fallback loop: the exact warm per-machine path --------------
        if fallback:
            # Run every job on the first program with its content, as the
            # serial path runs them all on that program's one resident:
            # content-equal machines then decode to the same objects.  The
            # family names that program for the machines it grouped, the
            # keys for the rest, which no grouped machine can equal.
            fb_jobs = [
                (jobs[first[j]][0], jobs[j][1]) if first and first[j] >= 0 else jobs[j]
                for j in fallback
            ]
            unique, slots, keys = intern_jobs(workload, fb_jobs)
            by_key: dict[Any, Any] = {}
            for u, key in enumerate(keys):
                program, input = unique[u]
                if by_key.setdefault(key, program) is not program:
                    unique[u] = (by_key[key], input)
            fb_results, fb, _ = _run_chunk(workload, unique, fuel, self.residents)
            for j, s in zip(fallback, slots):
                results[j] = fb_results[s]
            stats["unique_jobs"] += len(unique)
            stats["hits"] += fb["hits"]
            stats["misses"] += fb["misses"]
            stats["size"] = fb["size"]
            stats["fallback_jobs"] = len(fallback)
        stats["deduped"] = len(jobs) - stats["unique_jobs"]
        # A deduped duplicate reuses a settled row without even a cache
        # probe — the purest hit there is (mirrors SerialBackend).
        stats["hits"] += stats["deduped"]
        return results, stats

    def execute(self, jobs: Sequence[Job], *, fuel: int) -> list[Any]:
        self.last_cache_stats = dict(_ZERO_STATS)
        self.last_dispatch = {}
        start = time.perf_counter()
        with OBS.span("batch.ensemble", backend=self.name, jobs=len(jobs)):
            results, stats = self._run(jobs, fuel=fuel)
        elapsed = time.perf_counter() - start
        self.last_cache_stats = {
            "hits": stats["hits"],
            "misses": stats["misses"],
            "size": stats["size"],
        }
        self.last_dispatch = {
            "jobs": len(jobs),
            "unique_jobs": stats["unique_jobs"],
            "deduped": stats["deduped"],
            "chunks": 1 if jobs else 0,
            "steals": 0,
            "payload_bytes": 0,
            "memo_hits": 0,
            "ensemble_jobs": stats["ensemble_jobs"],
            "fallback_jobs": stats["fallback_jobs"],
        }
        if OBS.enabled:
            batches = 1 if jobs else 0
            OBS.gauge("batch_queue_depth", batches, backend=self.name)
            OBS.observe("batch_chunk_seconds", elapsed, backend=self.name)
            _record_cache_metrics(self.name, stats["hits"], stats["misses"])
            OBS.count("ensemble_batches_total", batches, backend=self.name)
            OBS.count("ensemble_machines_total", stats["ensemble_jobs"], backend=self.name)
            OBS.count("ensemble_lock_steps_total", stats["lock_steps"], backend=self.name)
            OBS.count("ensemble_fallback_jobs_total", stats["fallback_jobs"], backend=self.name)
        return results

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

    A batch is lowered in one family pass
    (:func:`~repro.perf.ensemble_engine.compile_family`); nothing is
    cached per machine.  The backend keeps only its *last* family,
    reused when every job's program ``is`` the previous call's (a
    census re-swept under a higher fuel).  The fallback loop runs
    through one :class:`~repro.runtime.core.ResidentCache`
    (``.residents``) kept for the backend's lifetime, as
    :class:`~repro.runtime.core.SerialBackend` keeps its own.
    ``close()`` releases both.
    ``min_population`` keeps tiny batches on the fallback path
    where per-job dispatch is already optimal; the straggler cutoff
    (default ``population // 64``) hands the long tail back to the
    compiled engine, whose macro-stepping handles lone spinners better
    than lock-step arrays do.
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
        # The previous lowering, ``(jobs, family, rows)``, or None.
        self._last: tuple[list[Job], Any, list[int]] | None = None
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
        """Lower, partition, run, fall back.

        Returns ``(results, stats)``: one exact result per job in
        order, and the cache tallies plus the
        ``unique_jobs``/``deduped``/``ensemble_jobs``/``fallback_jobs``/
        ``lock_steps`` accounting.  The tallies count each job once: a
        deduped duplicate is a hit; a job whose family row ran is a
        miss of a fresh lowering or a hit of a reused one; a job the
        fallback loop ran is its probe of the residents.  ``size`` is
        the residents' table size.

        Jobs are content-interned first, exactly like the serial and
        process backends: equal ``(program, input)`` jobs map to one
        family row and *share one result object*.

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
        unique, slots, keys = intern_jobs(workload, jobs)
        stats["unique_jobs"] = len(unique)
        stats["deduped"] = len(jobs) - len(unique)
        # A deduped duplicate reuses a settled row without even a
        # cache probe — the purest hit there is (mirrors SerialBackend).
        stats["hits"] += stats["deduped"]
        # Run every job on the first program with its key, as the
        # serial path runs them all on that program's one resident:
        # content-equal machines then decode to the same objects.
        # In place: a new list of 10^4 job tuples can set off a
        # full garbage collection mid-census.
        first: dict[Any, Any] = {}
        for u, key in enumerate(keys):
            program, input = unique[u]
            if first.setdefault(key, program) is not program:
                unique[u] = (first[key], input)
        unique_results: list[Any] = [None] * len(unique)
        row_of_unique = [-1] * len(unique)

        # -- lower the whole family at once, lock-step the rows that fit -----
        ran_family = False
        if len(unique) >= self.min_population:
            get_machine = workload.ensemble_program
            lowered = []
            for program, input in unique:
                try:
                    lowered.append((get_machine(program), input))
                except EnsembleIneligible:
                    lowered.append((None, input))
            reused = self._last is not None and _same_jobs(self._last[0], lowered)
            if reused:
                _, family, rows = self._last
            else:
                family, rows = compile_family(
                    lowered, max_states=self.max_states, max_symbols=self.max_symbols
                )
                self._last = (lowered, family, rows)
            # Too few rows fit to amortise array setup: all take the warm path.
            if len(rows) >= self.min_population:
                cutoff = (
                    self.straggler_cutoff
                    if self.straggler_cutoff is not None
                    else max(0, len(rows) // 64)
                )
                outcome = run_family(family, fuel=fuel, straggler_cutoff=cutoff)
                family_results = workload.ensemble_results(outcome)
                settled = 0
                for row, (u, abandoned) in enumerate(zip(rows, outcome.abandoned.tolist())):
                    if not abandoned:  # abandoned rows rerun from scratch below
                        unique_results[u] = family_results[row]
                        row_of_unique[u] = row
                        settled += 1
                # The rest are counted by the fallback loop's probes.
                stats["hits" if reused else "misses"] += settled
                stats["lock_steps"] = outcome.lock_steps
                ran_family = True

        # -- the fallback loop: the exact warm per-machine path --------------
        fallback = [u for u, row in enumerate(row_of_unique) if row < 0]
        if fallback:
            fb_jobs = [unique[u] for u in fallback]
            fb_results, fb, _ = _run_chunk(workload, fb_jobs, fuel, self.residents)
            for u, result in zip(fallback, fb_results):
                unique_results[u] = result
            stats["hits"] += fb["hits"]
            stats["misses"] += fb["misses"]
            stats["size"] = fb["size"]

        # -- expand back to job order (duplicates share one object) ----------
        results = [unique_results[s] for s in slots]
        if ran_family:
            stats["ensemble_jobs"] = sum(1 for s in slots if row_of_unique[s] >= 0)
            stats["fallback_jobs"] = len(jobs) - stats["ensemble_jobs"]
        elif fallback:
            stats["fallback_jobs"] = len(jobs)
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

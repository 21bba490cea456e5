"""The shared chunk lifecycle: plan → dispatch → settle, once.

Every backend in the stack used to re-implement the same three-beat
chunk state machine with small local variations:

* **planning** — :class:`~repro.runtime.core.ProcessBackend` and
  :class:`~repro.faults.supervisor.SupervisedBackend` each carried a
  private copy of the static split (size-targeted slices, trailing
  1-job chunk merged into its predecessor);
* **settling** — :class:`~repro.runtime.core.ProcessBackend`,
  :class:`~repro.comm.dist.DistBackend` and the supervisor's event
  loop each repeated the absorb-telemetry / aggregate-cache-stats /
  record-chunk-latency dance over the standard
  ``(results, stats, elapsed)`` payload;
* **closing** — six backends each guarded double-``close()`` with
  their own private state (or not at all).

This module is that state machine extracted once.  The session
scheduler (:mod:`repro.runtime.session`) drives the same pieces for
its micro-batched flush units, so "one chunk's life" means the same
thing whether it was born from a one-shot ``execute()`` or a stream of
``Session.submit()`` calls.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from repro.obs.instrument import OBS
from repro.obs.telemetry import absorb_chunk_telemetry

__all__ = [
    "ChunkPlan",
    "ChunkSettler",
    "chunk_offsets",
    "close_when_collected",
    "plan_chunks",
    "enter_close",
    "mark_open",
]


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChunkPlan:
    """One planned chunk: a contiguous, disjoint slice of a batch."""

    offset: int
    jobs: tuple


def chunk_offsets(total: int, size: int) -> list[int]:
    """Start offsets of ``size``-sized slices over ``total`` jobs.

    A trailing 1-job chunk (``total % size == 1``) is merged into its
    predecessor: a chunk's fixed dispatch cost is never paid to ship a
    single leftover job.  This is the one split rule every layer
    agrees on — the process pool, the supervisor and the scheduler all
    plan through here.
    """
    if size < 1:
        raise ValueError("chunksize must be >= 1")
    offsets = list(range(0, total, size))
    if len(offsets) >= 2 and total - offsets[-1] == 1:
        offsets.pop()
    return offsets


def plan_chunks(
    jobs: Sequence,
    *,
    chunksize: int | None,
    workers: int,
    per_worker: int = 4,
) -> list[ChunkPlan]:
    """Split ``jobs`` into :class:`ChunkPlan` slices, order-preserving.

    ``chunksize=None`` targets roughly ``per_worker`` chunks per
    worker and never more; an explicit size keeps fixed slices.
    Either way the trailing 1-job merge of :func:`chunk_offsets`
    applies.
    """
    if not jobs:
        return []
    size = chunksize
    if size is None:
        target = min(len(jobs), max(1, workers) * per_worker)
        size = -(-len(jobs) // target) if target else 1
    offsets = chunk_offsets(len(jobs), size)
    plans: list[ChunkPlan] = []
    for n, start in enumerate(offsets):
        end = offsets[n + 1] if n + 1 < len(offsets) else len(jobs)
        plans.append(ChunkPlan(start, tuple(jobs[start:end])))
    return plans


# ---------------------------------------------------------------------------
# Settling
# ---------------------------------------------------------------------------


class ChunkSettler:
    """The shared settle step over ``(results, stats, elapsed)`` payloads.

    One of these lives for the duration of one ``execute`` (or one
    scheduler flush): every landing chunk passes through
    :meth:`settle`, which absorbs the piggybacked worker telemetry
    delta, folds the chunk's resident-cache stats into ``aggregate``,
    and records the chunk's wall time under the owning backend's
    label.  Scatter (where the results go) stays at the call site —
    the dispatch loops address slots differently — but the
    bookkeeping they used to copy from each other lives here.

    Hits and misses add up; ``size`` keeps the largest chunk's
    table size, because chunks report the size of a resident table
    that persists (a pool worker's, or an in-process backend's) and
    summing would count one table once per chunk.
    """

    __slots__ = ("backend", "aggregate", "settled")

    def __init__(self, backend: str) -> None:
        self.backend = backend
        self.aggregate: dict[str, int] = {"hits": 0, "misses": 0, "size": 0}
        self.settled = 0

    def settle(self, payload: tuple) -> list[Any]:
        """Absorb one chunk payload; returns its results for scattering."""
        results, stats, elapsed = payload
        absorb_chunk_telemetry(stats)
        self.absorb_stats(stats)
        self.settled += 1
        if OBS.enabled:
            OBS.observe("batch_chunk_seconds", elapsed, backend=self.backend)
        return results

    def absorb_stats(self, stats: dict) -> None:
        """Fold one chunk's cache stats in (no telemetry, no latency).

        The seam for locally-executed remainders — the coordinator's
        degrade-to-serial path aggregates its local cache through here
        without fabricating a chunk latency observation.
        """
        self.aggregate["hits"] += stats.get("hits", 0)
        self.aggregate["misses"] += stats.get("misses", 0)
        self.aggregate["size"] = max(self.aggregate["size"], stats.get("size", 0))


# ---------------------------------------------------------------------------
# Closing
# ---------------------------------------------------------------------------

_CLOSED_FLAG = "_lifecycle_closed"


def enter_close(backend: Any) -> bool:
    """Shared idempotent-``close()`` guard; ``True`` on the first call.

    Backends open their ``close()`` with ``if not enter_close(self):
    return`` so a double close is a no-op by construction rather than
    by each backend's private state happening to tolerate it.  Reopen
    points (the process and dist backends' ``_open``) call
    :func:`mark_open` so the close-execute-close lifecycle still works
    for backends that rebuild lazily.
    """
    if getattr(backend, _CLOSED_FLAG, False):
        return False
    try:
        setattr(backend, _CLOSED_FLAG, True)
    except AttributeError:  # pragma: no cover - __slots__ backends opt out
        return True
    return True


def close_when_collected(backend: Any) -> None:  # pragma: no cover - GC timing
    """``__del__`` for backends owning processes, sockets or threads:
    close them — unless this is a forked copy, whose resources belong
    to the parent (``_owner_pid``)."""
    try:
        if os.getpid() == backend._owner_pid:
            backend.close()
    except Exception:
        pass


def mark_open(backend: Any) -> None:
    """Clear the close guard: the backend (re)acquired live resources."""
    try:
        setattr(backend, _CLOSED_FLAG, False)
    except AttributeError:  # pragma: no cover - __slots__ backends opt out
        pass

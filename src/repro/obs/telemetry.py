"""Cross-process telemetry: trace propagation and piggybacked deltas.

Since the runtime moved its hot path onto warm worker pools, a
worker's counters, spans and flight events died with the child
process: the parent's registry showed dispatch accounting, but the
*execution* story — cache hits inside the chunk, the engine's
step counters, the worker's own span — was invisible.  This module
closes that gap without a single extra IPC message:

* :class:`TraceContext` — the two integers that tie a chunk to its
  submitter: the parent's trace id and the dispatching span's id.
  :func:`current_context` reads them off the live
  :data:`~repro.obs.instrument.OBS` tracer (``None`` while disabled, so
  the disabled path ships exactly what it shipped before).  The context
  rides as one extra trailing element of the existing chunk payloads.
* :func:`run_captured` — the worker side.  It swaps a fresh
  process-local registry/tracer/flight ring into ``OBS``, opens a
  ``worker.chunk`` span, runs the chunk body, restores the previous
  hook, and stores the resulting **delta** (metric snapshot + finished
  spans + flight entries) under :data:`TELEMETRY_KEY` *inside the chunk
  payload's stats dict*.  The payload keeps its
  ``(results, stats, elapsed)`` shape, so
  :func:`~repro.faults.chaos.valid_payload` and the supervisor's
  settle path compose unchanged — the delta piggybacks on bytes that
  were crossing the boundary anyway.
* :func:`absorb_chunk_telemetry` — the parent side.  Whoever consumes
  a chunk future pops the delta and merges it: counters add into the
  parent registry (:meth:`~repro.obs.metrics.MetricsRegistry.merge`),
  worker spans graft under the dispatching span
  (:meth:`~repro.obs.trace.Tracer.adopt`), flight entries extend the
  parent ring.  ``snapshot()``/Prometheus export then reflect the whole
  pool, and ``to_jsonl()`` exports one merged, causally-linked trace.

Merge exactness is the contract: the sum of worker deltas plus the
parent's own counters equals what a serial in-process run records —
property-tested in ``tests/test_obs_telemetry.py``.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable, MutableMapping
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from repro.obs.flight import FlightRecorder
from repro.obs.instrument import OBS, Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.util.framing import key_digest

__all__ = [
    "TELEMETRY_KEY",
    "TraceContext",
    "absorb_chunk_telemetry",
    "current_context",
    "job_digest",
    "merge_delta",
    "run_captured",
]

# The reserved stats-dict slot the delta piggybacks in.  Every existing
# consumer aggregates fixed keys ("hits", "misses", "size", ...), so an
# unpopped delta is invisible to them; the dunder shape keeps it out of
# any plausible future stats namespace.
TELEMETRY_KEY = "__telemetry__"

_DELTA_VERSION = 1


@dataclass(frozen=True)
class TraceContext:
    """What a chunk needs to join its submitter's trace: nothing else.

    Both fields may be ``None`` — a parent with telemetry on but no
    open span still wants worker metrics home; the worker spans then
    start their own trace on adoption.
    """

    trace_id: int | None = None
    parent_span_id: int | None = None


def current_context() -> TraceContext | None:
    """The dispatch-time context, or ``None`` while OBS is disabled.

    ``None`` is the whole disabled-path cost: payload builders append
    nothing, workers skip capture entirely, and the wire format is
    byte-identical to a build without this module.
    """
    if not OBS.enabled:
        return None
    current = OBS.tracer.current
    if current is None:
        return TraceContext()
    return TraceContext(current.trace_id, current.span_id)


def job_digest(workload: Any, job: Any) -> str:
    """A short stable digest of a job's content key.

    Content keys are arbitrary tuples (machine tables, tapes, CNF
    clauses); post-mortems and span attributes want a fixed-width,
    JSON-safe token for them.  The digest is
    :func:`~repro.util.framing.key_digest`'s, cut to 12 hex chars —
    plenty against collision at batch scale.
    """
    return key_digest(workload.content_key(job)).hex()[:12]


class _Capture:
    """The worker-side sinks of one captured chunk, plus its context."""

    __slots__ = ("context", "registry", "tracer", "flight")

    def __init__(
        self,
        context: TraceContext,
        registry: MetricsRegistry,
        tracer: Tracer,
        flight: FlightRecorder,
    ) -> None:
        self.context = context
        self.registry = registry
        self.tracer = tracer
        self.flight = flight

    def delta(self) -> dict:
        """The JSON-able/picklable delta that rides home in the stats."""
        return {
            "v": _DELTA_VERSION,
            "pid": os.getpid(),
            "trace_id": self.context.trace_id,
            "parent_span_id": self.context.parent_span_id,
            "metrics": self.registry.snapshot(),
            "spans": [span.as_dict(nested=False) for span in self.tracer.finished],
            "flight": self.flight.snapshot(),
        }


@contextmanager
def _capture(ctx: TraceContext, **attributes: object):
    """Swap fresh sinks into OBS around a chunk body.

    The capture tracer shares the previous tracer's clock, so an
    in-process chunk under a :class:`~repro.obs.trace.VirtualClock`
    stays on the deterministic timeline; a pool worker's previous
    tracer is the default (disabled) one, whose clock is
    ``perf_counter`` — also right.
    """
    previous = (OBS.enabled, OBS.registry, OBS.tracer, OBS.flight)
    cap = _Capture(
        ctx,
        MetricsRegistry(),
        Tracer(clock=OBS.tracer.clock),
        FlightRecorder(capacity=OBS.flight.capacity),
    )
    OBS.enable(registry=cap.registry, tracer=cap.tracer, flight=cap.flight)
    started = time.perf_counter()
    try:
        with cap.tracer.span("worker.chunk", pid=os.getpid(), **attributes):
            yield cap
    finally:
        busy = time.perf_counter() - started
        OBS.enabled, OBS.registry, OBS.tracer, OBS.flight = previous
        # Per-worker utilisation, recorded into the capture registry
        # (after restore, so a crash mid-restore can't leak sinks).
        worker = str(os.getpid())
        cap.registry.counter("runtime_worker_chunks_total", worker=worker).inc(1)
        cap.registry.counter("runtime_worker_busy_seconds_total", worker=worker).inc(busy)


def run_captured(
    ctx: TraceContext | None,
    fn: Callable[[], tuple[list, dict, float]],
    *,
    kind: str,
    jobs: int,
) -> tuple[list, dict, float]:
    """Run a chunk body, capturing its telemetry when a context rides.

    ``fn`` returns the standard ``(results, stats, elapsed)`` payload.
    With ``ctx is None`` (telemetry off at dispatch time) this is a
    plain call — no sinks, no copies, no new keys.  Otherwise the body
    runs under :func:`_capture` and the delta is stored in a *copy* of
    the stats dict under :data:`TELEMETRY_KEY`.
    """
    if ctx is None:
        return fn()
    with _capture(ctx, kind=kind, jobs=jobs) as cap:
        results, stats, elapsed = fn()
    stats = dict(stats)
    stats[TELEMETRY_KEY] = cap.delta()
    return results, stats, elapsed


def merge_delta(instr: Instrumentation, delta: dict) -> None:
    """Fold one worker delta into an instrumentation hub's sinks."""
    metrics = delta.get("metrics")
    if metrics:
        instr.registry.merge(metrics)
    spans = delta.get("spans")
    if spans:
        instr.tracer.adopt(
            spans,
            trace_id=delta.get("trace_id"),
            parent_id=delta.get("parent_span_id"),
        )
    flight = delta.get("flight")
    if flight:
        instr.flight.extend(flight)
    instr.registry.counter("telemetry_deltas_merged_total").inc(1)


def absorb_chunk_telemetry(stats: MutableMapping | None) -> dict | None:
    """Pop a chunk's piggybacked delta and merge it into :data:`OBS`.

    Called by whoever consumes a chunk future's result — the process
    dispatcher, the supervisor's settle path, the ensemble execute loop
    — always on the consuming thread, never in a done-callback.  The
    pop makes merging idempotent: a hedged twin or a re-inspected
    payload can't double-count.  Returns the delta (merged or not) for
    the tests.
    """
    if not isinstance(stats, MutableMapping):
        return None
    delta = stats.pop(TELEMETRY_KEY, None)
    if delta is None:
        return None
    if OBS.enabled:
        merge_delta(OBS, delta)
    return delta

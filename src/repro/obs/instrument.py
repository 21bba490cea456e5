"""The instrumentation hub: one global hook, off by default, null-cheap.

Hot subsystems (:mod:`repro.perf.engine`, :mod:`repro.perf.batch`, the
netstack, the fault layer, the simulated multicore) do not import the
registry or the tracer directly.  They import :data:`OBS` — a single
shared :class:`Instrumentation` object — and guard every recording
site with ``if OBS.enabled:`` (or call the forgiving methods below,
which perform the same check first).

The null-object discipline, stated as invariants:

* **Disabled is the default** and the steady state; ``import repro``
  never turns instrumentation on.
* **The disabled path is one attribute load and one branch.**  No hot
  *loop* contains even that much — the engine records per *run*, the
  batch layer per *chunk* — so the disabled-path overhead on the
  compiled engine is gated below 5% by
  ``benchmarks/bench_obs_overhead.py``.
* **Enabling never changes answers.**  Instrumentation reads results
  and durations; it cannot influence them (property-tested in
  ``tests/test_obs_instrument.py``).

``enable()``/``disable()`` mutate :data:`OBS` in place, so modules that
bound it at import time observe the switch.  Tests use the
:func:`observed` context manager, which installs a fresh registry and
tracer and restores the previous state on exit.

Anything that quacks like :class:`ObsHook` can stand in for the real
:class:`Instrumentation` (e.g. a test double that asserts on calls).
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from typing import ContextManager, Protocol, runtime_checkable

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer

__all__ = [
    "ObsHook",
    "Instrumentation",
    "OBS",
    "enable",
    "disable",
    "observed",
    "NULL_SPAN",
    "KNOWN_METRICS",
]

# The metric namespace, documented in one place.  Purely descriptive —
# the registry stays schemaless so experiments can add series freely —
# but dashboards, docs and tests treat this as the source of truth for
# what each series means.  Kinds: counter | gauge | histogram.
KNOWN_METRICS: dict[str, tuple[str, str]] = {
    # engine (per compiled run, never per step)
    "engine_runs_total": ("counter", "compiled-machine runs started"),
    "engine_steps_total": ("counter", "steps executed by compiled runs"),
    "engine_halts_total": ("counter", "compiled runs that halted"),
    "engine_macro_skips_total": ("counter", "macro-stepped self-scan cells skipped"),
    # batch (per chunk / per execute)
    "tm_jobs_total": ("counter", "jobs submitted through run_many"),
    "tm_steps_total": ("counter", "sum of per-result step counts"),
    "tm_halts_total": ("counter", "jobs whose machine halted"),
    "compile_cache_hits_total": ("counter", "jobs served from a compiled table"),
    "compile_cache_misses_total": ("counter", "jobs that forced a compile"),
    "batch_chunk_seconds": ("histogram", "wall time of each dispatched chunk"),
    "batch_queue_depth": ("gauge", "chunks planned by the last dispatch"),
    "batch_steal_total": ("counter", "chunk pulls beyond the initial one-per-worker wave"),
    "batch_payload_bytes": ("counter", "pickled bytes shipped to pool workers"),
    "batch_warm_hits": ("counter", "jobs answered from the warm result memo, pool untouched"),
    # faults (supervision)
    "batch_chunk_retries_total": ("counter", "chunk resubmissions after failure"),
    "batch_hedged_total": ("counter", "duplicate submissions for stragglers"),
    "batch_pool_restarts_total": ("counter", "inner pool restarts after crashes"),
    "batch_quarantined_jobs": ("counter", "jobs dead-lettered by bisection"),
    # runtime (workload-generic, labelled {workload=..., backend=...})
    "runtime_jobs_total": ("counter", "jobs submitted through runtime.run_jobs"),
    "runtime_unique_jobs_total": ("counter", "jobs left after content-key dedup"),
    "runtime_cost_total": ("counter", "sum of per-result workload.cost units"),
    # session scheduler (incremental job lifecycle, micro-batching)
    "runtime_inflight_jobs": ("gauge", "jobs accepted by a session, not yet settled"),
    "runtime_flush_total": ("counter", "scheduler flushes, labelled by reason"),
    "runtime_queue_age_seconds": ("histogram", "submit-to-dispatch wait, labelled by priority"),
    # ensemble (lock-step population execution, labelled {backend=...})
    "ensemble_batches_total": ("counter", "ensemble execute batches run"),
    "ensemble_machines_total": ("counter", "jobs answered by lock-step families"),
    "ensemble_lock_steps_total": ("counter", "lock-step iterations across families"),
    "ensemble_fallback_jobs_total": ("counter", "jobs routed to the per-machine fallback"),
    # engine internals (per compiled run)
    "engine_macro_cells_total": ("counter", "tape cells crossed by macro-stepped scans"),
    "engine_tape_grows_total": ("counter", "tape window extensions during compiled runs"),
    # busy-beaver sweeps and halting surveys
    "bb_runs_total": ("counter", "busy-beaver candidate runs started"),
    "bb_steps_total": ("counter", "steps executed by busy-beaver candidates"),
    "bb_halts_total": ("counter", "busy-beaver candidates that halted"),
    "bb_survey_machines_total": ("counter", "machines enumerated by halting surveys"),
    "bb_survey_halted_total": ("counter", "survey machines that halted in fuel"),
    "bb_survey_running_total": ("counter", "survey machines still running at fuel"),
    # universal machine (encoded-program replays)
    "universal_runs_total": ("counter", "universal-machine replays started"),
    "universal_steps_total": ("counter", "steps executed by universal replays"),
    "universal_halts_total": ("counter", "universal replays that halted"),
    "universal_cache_hits_total": ("counter", "replays served from the decode cache"),
    "universal_cache_misses_total": ("counter", "replays that forced a decode"),
    # netstack (layered packet simulation)
    "net_hops_total": ("counter", "router hops taken by forwarded packets"),
    "net_delivered_total": ("counter", "packets delivered to their destination"),
    "net_ttl_expired_total": ("counter", "packets dropped on TTL expiry"),
    "net_frames_dropped_total": ("counter", "link frames lost to injected noise"),
    "transport_segments_sent_total": ("counter", "transport segments put on the wire"),
    "transport_retransmits_total": ("counter", "segments re-sent after a loss"),
    "transport_rounds_total": ("counter", "stop-and-wait rounds driven"),
    "transport_failures_total": ("counter", "transfers abandoned after max retries"),
    # faults (retry / circuit breaker)
    "retry_calls_total": ("counter", "calls wrapped by a retry policy"),
    "retry_attempts_total": ("counter", "individual attempts across retries"),
    "retry_backoff_virtual_time": ("histogram", "virtual backoff accounted per call"),
    "circuit_rejected_total": ("counter", "calls rejected by an open circuit"),
    "circuit_transitions_total": ("counter", "circuit-breaker state transitions"),
    # simulated multicore
    "multicore_steps_total": ("counter", "machine steps driven by the scheduler"),
    "multicore_utilisation": ("gauge", "fraction of core slots doing work"),
    "multicore_core_utilisation": ("gauge", "per-core fraction of time doing work"),
    # cross-process telemetry (worker deltas merged by the parent)
    "runtime_worker_chunks_total": ("counter", "chunks executed, labelled per worker pid"),
    "runtime_worker_busy_seconds_total": ("counter", "wall seconds workers spent in chunks"),
    "telemetry_deltas_merged_total": ("counter", "worker telemetry deltas merged by parents"),
    # durable job journal (append-only segments + crash resume)
    "journal_records_total": ("counter", "journal records appended, labelled by kind"),
    "journal_bytes_total": ("counter", "framed bytes appended to journal segments"),
    "journal_fsyncs_total": ("counter", "durability barriers (flush+fsync) performed"),
    "journal_segments_total": ("counter", "journal segment files opened or rotated"),
    "journal_hits_total": ("counter", "jobs served from the journal memo, 0 re-executions"),
    "journal_replayed_total": ("counter", "dead-lettered jobs recovered by replay"),
    "journal_torn_total": ("counter", "torn segment tails truncated during recovery"),
    # multi-node communicator (sharded dispatch over framed TCP)
    "comm_chunks_total": ("counter", "chunks dispatched to comm nodes, labelled per node"),
    "comm_bytes_sent_total": ("counter", "framed bytes sent to comm nodes"),
    "comm_bytes_recv_total": ("counter", "framed bytes received from comm nodes"),
    "comm_shards_total": ("counter", "program-table shard messages barriered to nodes"),
    "comm_node_restarts_total": ("counter", "comm nodes restarted after a loss"),
    "comm_nodes": ("gauge", "live nodes attached to the distributed backend"),
}


class _NullSpan:
    """Inert stand-in yielded by ``span()`` while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def event(self, name: str, **attributes: object) -> None:
        pass

    def set_attribute(self, key: str, value: object) -> None:
        pass


NULL_SPAN = _NullSpan()


@runtime_checkable
class ObsHook(Protocol):
    """What instrumented call sites require of a hook."""

    enabled: bool

    def count(self, name: str, value: int | float = 1, **labels: object) -> None: ...

    def gauge(self, name: str, value: int | float, **labels: object) -> None: ...

    def observe(self, name: str, value: int | float, **labels: object) -> None: ...

    def span(self, name: str, **attributes: object) -> ContextManager: ...

    def event(self, name: str, **attributes: object) -> None: ...


class Instrumentation:
    """A registry + tracer pair behind an ``enabled`` switch.

    Every method checks ``enabled`` first and is a no-op while off;
    call sites on genuinely hot paths should still guard with
    ``if OBS.enabled:`` to also skip argument building.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        flight: FlightRecorder | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.flight = flight if flight is not None else FlightRecorder()
        self.enabled = False

    # -- switching ----------------------------------------------------------

    def enable(
        self,
        *,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        flight: FlightRecorder | None = None,
    ) -> "Instrumentation":
        """Turn recording on, optionally swapping in sinks; idempotent."""
        if registry is not None:
            self.registry = registry
        if tracer is not None:
            self.tracer = tracer
        if flight is not None:
            self.flight = flight
        self.enabled = True
        return self

    def disable(self) -> None:
        self.enabled = False

    # -- recording ----------------------------------------------------------

    def count(self, name: str, value: int | float = 1, **labels: object) -> None:
        if self.enabled:
            self.registry.counter(name, **labels).inc(value)

    def gauge(self, name: str, value: int | float, **labels: object) -> None:
        if self.enabled:
            self.registry.gauge(name, **labels).set(value)

    def observe(self, name: str, value: int | float, **labels: object) -> None:
        if self.enabled:
            self.registry.histogram(name, **labels).observe(value)

    def span(self, name: str, **attributes: object) -> ContextManager[Span | _NullSpan]:
        if self.enabled:
            return self.tracer.span(name, **attributes)
        return NULL_SPAN

    def event(self, name: str, **attributes: object) -> None:
        if self.enabled:
            record = self.tracer.event(name, **attributes)
            if record is None:
                # No open span to live in — the flight ring still
                # keeps it (one clock reading, same as a span event).
                record = {"name": name, "time": self.tracer.clock()}
                if attributes:
                    record["attributes"] = attributes
            self.flight.append(record)

    def atomic(self) -> ContextManager:
        """Registry-lock scope for multi-series bursts; no-op while
        disabled (see :meth:`MetricsRegistry.atomic`)."""
        if self.enabled:
            return self.registry.atomic()
        return nullcontext()

    def render_prometheus(self) -> str:
        """Prometheus text export with ``KNOWN_METRICS`` HELP lines."""
        return self.registry.render_prometheus(
            help={name: doc for name, (_, doc) in KNOWN_METRICS.items()}
        )


OBS = Instrumentation()


def enable(
    *,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    flight: FlightRecorder | None = None,
) -> Instrumentation:
    """Turn the global hook on (see :meth:`Instrumentation.enable`)."""
    return OBS.enable(registry=registry, tracer=tracer, flight=flight)


def disable() -> None:
    """Turn the global hook off; sinks are kept for later inspection."""
    OBS.disable()


@contextmanager
def observed(
    *,
    registry: MetricsRegistry | None = None,
    tracer: Tracer | None = None,
    flight: FlightRecorder | None = None,
) -> Iterator[Instrumentation]:
    """Scoped enable with fresh sinks; restores prior state on exit.

    Yields a handle that owns the fresh sinks — not :data:`OBS` itself —
    so assertions can read ``obs.registry`` / ``obs.tracer`` after the
    block exits and the global hook has been restored.  The test-suite
    idiom::

        with observed() as obs:
            run_many(jobs)
        assert obs.registry.total("tm_steps_total") == ...
    """
    handle = Instrumentation(
        registry=registry if registry is not None else MetricsRegistry(),
        tracer=tracer if tracer is not None else Tracer(),
        flight=flight if flight is not None else FlightRecorder(),
    )
    handle.enabled = True
    previous = (OBS.enabled, OBS.registry, OBS.tracer, OBS.flight)
    OBS.enable(registry=handle.registry, tracer=handle.tracer, flight=handle.flight)
    try:
        yield handle
    finally:
        OBS.enabled, OBS.registry, OBS.tracer, OBS.flight = previous

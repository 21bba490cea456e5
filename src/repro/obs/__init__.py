"""``repro.obs`` — measurement for the repro's abstractions.

Wing (2008) folds "measurement of our abstractions" into the very
definition of computational thinking; this package is that layer:

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  labelled counters, gauges and fixed-bucket histograms, with JSON and
  Prometheus-text exporters.
* :mod:`repro.obs.trace` — a :class:`Tracer` of nested spans over a
  pluggable clock; :class:`VirtualClock` makes traces deterministic in
  the same virtual-time convention as :mod:`repro.faults.retry`.
* :mod:`repro.obs.instrument` — the global :data:`OBS` hook the hot
  subsystems check; off by default and null-object cheap (the gate in
  ``benchmarks/bench_obs_overhead.py`` keeps it honest).
* :mod:`repro.obs.telemetry` — cross-process trace propagation: chunk
  payloads carry a :class:`TraceContext`, workers capture into
  process-local sinks, and the deltas piggyback home on the existing
  chunk result tuples for the parent to merge.
* :mod:`repro.obs.flight` — a bounded :class:`FlightRecorder` ring of
  recent events, dumped as deterministic JSONL post-mortems by the
  supervisor on retry exhaustion, pool restart or quarantine.
* :mod:`repro.obs.report` — :func:`repro.obs.report.render` turns a
  merged snapshot into the operator-facing summary behind
  ``make obs-report``.

From the rest of ``repro`` the package imports only
:mod:`repro.util.framing` (for the shared content digest), which
imports nothing else of ``repro``, so every subsystem may depend on it
without cycles (the report demo imports the runtime lazily, inside its
CLI entry point only).
"""

from repro.obs.flight import FlightRecorder
from repro.obs.instrument import (
    KNOWN_METRICS,
    NULL_SPAN,
    OBS,
    Instrumentation,
    ObsHook,
    disable,
    enable,
    observed,
)
from repro.obs.telemetry import (
    TELEMETRY_KEY,
    TraceContext,
    absorb_chunk_telemetry,
    current_context,
    job_digest,
    merge_delta,
    run_captured,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import Span, Tracer, VirtualClock

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "Span",
    "Tracer",
    "VirtualClock",
    "Instrumentation",
    "ObsHook",
    "OBS",
    "NULL_SPAN",
    "KNOWN_METRICS",
    "enable",
    "disable",
    "observed",
    "FlightRecorder",
    "TELEMETRY_KEY",
    "TraceContext",
    "absorb_chunk_telemetry",
    "current_context",
    "job_digest",
    "merge_delta",
    "run_captured",
]

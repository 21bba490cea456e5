"""Tests for cross-process telemetry: context propagation, worker-side
capture, piggybacked deltas, and the merge-exactness contract (worker
deltas summed equal a serial in-process run)."""

import pickle
import random

import pytest

from repro.machines.busybeaver import busy_beaver_machine
from repro.machines.turing import binary_increment, copier, palindrome_checker
from repro.obs.instrument import OBS, observed
from repro.obs.telemetry import (
    TELEMETRY_KEY,
    TraceContext,
    absorb_chunk_telemetry,
    current_context,
    job_digest,
    run_captured,
)
from repro.runtime.core import create_backend, run_jobs
from repro.runtime.workload import get_workload


def _jobs(n=4):
    base = [
        (binary_increment(), "1" * 5),
        (palindrome_checker(), "abba"),
        (copier(), "101"),
        (busy_beaver_machine(3), ""),
    ]
    return (base * -(-n // len(base)))[:n]


def test_context_is_none_while_disabled():
    assert not OBS.enabled
    assert current_context() is None


def test_context_carries_the_open_span():
    with observed() as obs:
        assert current_context() == TraceContext(None, None)
        with obs.tracer.span("dispatch") as sp:
            ctx = current_context()
            assert ctx == TraceContext(sp.trace_id, sp.span_id)
    assert current_context() is None  # restored


def test_context_pickles():
    ctx = TraceContext(3, 7)
    assert pickle.loads(pickle.dumps(ctx)) == ctx


def test_job_digest_stable_and_content_based():
    wl = get_workload("machines")
    a1 = (binary_increment(), "111")
    a2 = (binary_increment(), "111")  # distinct objects, same content
    b = (binary_increment(), "110")
    assert job_digest(wl, a1) == job_digest(wl, a2)
    assert job_digest(wl, a1) != job_digest(wl, b)
    assert len(job_digest(wl, a1)) == 12


def test_run_captured_without_context_is_passthrough():
    stats = {"hits": 1}
    out = run_captured(None, lambda: ([1], stats, 0.5), kind="machines", jobs=1)
    assert out == ([1], {"hits": 1}, 0.5)
    assert out[1] is stats  # not copied
    assert TELEMETRY_KEY not in stats


def test_run_captured_piggybacks_a_delta():
    def body():
        OBS.count("engine_runs_total", 2, backend="test")
        OBS.event("unit.test", detail=1)
        return (["r"], {"hits": 3}, 0.25)

    with observed():
        ctx = current_context()
    # Capture works even with the parent hook since disabled again:
    # the worker side only needs the ctx object.
    results, stats, elapsed = run_captured(ctx, body, kind="machines", jobs=1)
    assert results == ["r"] and elapsed == 0.25
    assert stats["hits"] == 3
    delta = stats[TELEMETRY_KEY]
    assert delta["v"] == 1 and isinstance(delta["pid"], int)
    metrics = delta["metrics"]
    assert metrics["engine_runs_total"]["series"][0]["value"] == 2
    assert metrics["runtime_worker_chunks_total"]["series"][0]["value"] == 1
    assert "runtime_worker_busy_seconds_total" in metrics
    spans = delta["spans"]
    assert [s["name"] for s in spans] == ["worker.chunk"]
    assert [e["name"] for e in spans[0]["events"]] == ["unit.test"]
    assert [e["name"] for e in delta["flight"]] == ["unit.test"]


def test_run_captured_restores_hook_on_crash():
    with observed() as obs:
        ctx = current_context()
        with pytest.raises(RuntimeError, match="boom"):
            run_captured(ctx, lambda: (_ for _ in ()).throw(RuntimeError("boom")),
                         kind="machines", jobs=1)
        assert OBS.registry is obs.registry
        assert OBS.tracer is obs.tracer


def test_absorb_pops_and_merges_idempotently():
    def body():
        OBS.count("engine_runs_total", 5)
        return ([], {"hits": 0}, 0.0)

    with observed() as obs:
        with obs.tracer.span("dispatch"):
            _, stats, _ = run_captured(current_context(), body, kind="machines", jobs=0)
            first = absorb_chunk_telemetry(stats)
            second = absorb_chunk_telemetry(stats)
        assert first is not None and second is None  # popped exactly once
        assert obs.registry.value("engine_runs_total") == 5
        assert obs.registry.value("telemetry_deltas_merged_total") == 1
        names = [s.name for s in obs.tracer.finished]
        assert "worker.chunk" in names
        worker = next(s for s in obs.tracer.finished if s.name == "worker.chunk")
        dispatch = next(s for s in obs.tracer.finished if s.name == "dispatch")
        assert worker.parent_id == dispatch.span_id
        assert worker.trace_id == dispatch.trace_id


def test_absorb_tolerates_junk():
    assert absorb_chunk_telemetry(None) is None
    assert absorb_chunk_telemetry({"hits": 1}) is None
    assert absorb_chunk_telemetry("not a mapping") is None


def test_absorb_while_disabled_still_pops():
    # A disabled parent (telemetry turned off between dispatch and
    # settle) must not leak the delta into downstream stats consumers.
    stats = {"hits": 1, TELEMETRY_KEY: {"v": 1, "metrics": {}}}
    assert not OBS.enabled
    delta = absorb_chunk_telemetry(stats)
    assert delta is not None and TELEMETRY_KEY not in stats


def test_merge_exactness_synthetic_property():
    """Sum of worker deltas == the same increments applied directly."""
    rng = random.Random(7)
    names = ["engine_runs_total", "engine_steps_total", "universal_steps_total"]
    expected: dict[tuple, int] = {}
    with observed() as obs:
        with obs.tracer.span("dispatch"):
            for _ in range(12):  # 12 simulated worker chunks
                plan = [
                    (rng.choice(names), rng.choice(["a", "b"]), rng.randrange(1, 9))
                    for _ in range(rng.randrange(1, 6))
                ]

                def body(plan=plan):
                    for name, label, amount in plan:
                        OBS.count(name, amount, backend=label)
                    return ([], {}, 0.0)

                for name, label, amount in plan:
                    key = (name, label)
                    expected[key] = expected.get(key, 0) + amount
                _, stats, _ = run_captured(
                    current_context(), body, kind="machines", jobs=0
                )
                absorb_chunk_telemetry(stats)
        for (name, label), value in expected.items():
            assert obs.registry.value(name, backend=label) == value


def test_merge_exactness_process_pool_matches_serial():
    """The acceptance property: engine counters merged home from a
    process pool equal the totals of a serial in-process run."""
    jobs = _jobs(12)

    def totals(backend_name, **kwargs):
        with observed() as obs:
            backend = create_backend(backend_name, workload="machines", **kwargs)
            try:
                results = run_jobs("machines", jobs, fuel=2_000, backend=backend)
            finally:
                backend.close()
            snap = obs.registry.snapshot()
        engine = {
            name: sum(e["value"] for e in payload["series"])
            for name, payload in snap.items()
            if name.startswith(("engine_", "bb_", "universal_"))
        }
        return results, engine

    serial_results, serial_totals = totals("serial")
    process_results, process_totals = totals("process", workers=2, memo_size=0)
    assert process_results == serial_results
    assert serial_totals, "serial run recorded no engine metrics"
    assert process_totals == serial_totals


def test_process_backend_merges_worker_spans_and_utilisation():
    jobs = _jobs(8)
    with observed() as obs:
        backend = create_backend("process", workload="machines", workers=2)
        try:
            run_jobs("machines", jobs, fuel=2_000, backend=backend)
        finally:
            backend.close()
        snap = obs.registry.snapshot()
        assert obs.registry.total("telemetry_deltas_merged_total") >= 1
        assert "runtime_worker_chunks_total" in snap
        workers = [s.name for s in obs.tracer.finished if s.name == "worker.chunk"]
        assert workers  # worker spans came home and were adopted
        by_id = {s.span_id: s for s in obs.tracer.finished}
        for span in obs.tracer.finished:
            if span.name == "worker.chunk":
                assert span.parent_id in by_id  # grafted, not orphaned


def test_disabled_path_payloads_are_byte_identical():
    """With OBS off the chunk payload carries no context and no delta —
    the wire format matches a build without the telemetry module."""
    from repro.runtime.core import SerialBackend

    backend = SerialBackend(get_workload("machines"))
    future = backend.submit_chunk(_jobs(2), fuel=500)
    results, stats, elapsed = future.result()
    assert TELEMETRY_KEY not in stats

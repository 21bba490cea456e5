"""Tests for the instrumentation hub and its wiring into the engine,
batch, machines, netstack, fault and multicore layers.

The load-bearing invariants: disabled is a no-op, enabling never
changes answers (property-tested over run_many), and the recorded
numbers agree exactly with the returned results.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.retry import CircuitBreaker, RetryPolicy
from repro.machines.busybeaver import busy_beaver_machine, halting_survey, score
from repro.machines.turing import (
    binary_increment,
    copier,
    palindrome_checker,
    unary_adder,
)
from repro.machines.universal import UniversalMachine, encode_tm
from repro.netstack.ip import Datagram, TTLExpired
from repro.netstack.network import Network
from repro.obs import OBS, Instrumentation, MetricsRegistry, ObsHook, Tracer, VirtualClock
from repro.obs.instrument import NULL_SPAN, observed
from repro.parallel.multicore import Multicore
from repro.perf.batch import run_many
from repro.perf.engine import compile_tm
from repro.runtime import ProcessBackend
from repro.runtime.workloads.machines import MACHINES as TM_WORKLOAD

MACHINES = [binary_increment, palindrome_checker, copier, unary_adder]


# -- the hub itself ----------------------------------------------------------


def test_disabled_hub_is_inert():
    hub = Instrumentation()
    assert not hub.enabled
    hub.count("c_total", 5)
    hub.gauge("g", 1)
    hub.observe("h", 0.5)
    hub.event("e")
    assert hub.span("s") is NULL_SPAN
    with hub.span("s") as sp:
        sp.event("inside")
        sp.set_attribute("k", "v")
    assert hub.registry.snapshot() == {}
    assert hub.tracer.finished == []


def test_null_span_does_not_swallow_exceptions():
    with pytest.raises(RuntimeError):
        with NULL_SPAN:
            raise RuntimeError("boom")


def test_global_hub_starts_disabled_and_satisfies_protocol():
    assert not OBS.enabled
    assert isinstance(OBS, ObsHook)


def test_observed_restores_previous_state():
    registry_before, tracer_before = OBS.registry, OBS.tracer
    with observed() as obs:
        assert OBS.enabled
        assert OBS.registry is obs.registry  # fresh sinks installed globally
        assert obs.registry is not registry_before
        obs.count("c_total")
    assert not OBS.enabled
    assert OBS.registry is registry_before and OBS.tracer is tracer_before
    assert obs.registry.value("c_total") == 1  # handle's sinks survive exit


def test_enable_disable_roundtrip():
    reg = MetricsRegistry()
    try:
        OBS.enable(registry=reg)
        OBS.count("c_total", 3)
    finally:
        OBS.disable()
    assert reg.value("c_total") == 3
    OBS.count("c_total", 99)  # disabled again: dropped
    assert reg.value("c_total") == 3


# -- engine ------------------------------------------------------------------


def test_engine_records_per_run_counters():
    compiled = compile_tm(copier())
    expected = compiled.run("111", fuel=10_000)
    with observed() as obs:
        result = compiled.run("111", fuel=10_000)
    assert result == expected  # instrumentation never changes the answer
    reg = obs.registry
    assert reg.total("engine_runs_total") == 1
    assert reg.total("engine_steps_total") == result.steps
    assert reg.total("engine_halts_total") == 1
    assert reg.total("engine_macro_skips_total") > 0  # copier self-scans


def test_engine_core_is_uninstrumented():
    compiled = compile_tm(binary_increment())
    with observed() as obs:
        compiled._run_core("101", 100)
    assert obs.registry.snapshot() == {}


# -- batch -------------------------------------------------------------------


def test_run_many_steps_counter_is_exact_serial():
    jobs = [(m(), "11") for m in MACHINES] * 3
    with observed() as obs:
        results = run_many(jobs)
    assert obs.registry.value("tm_steps_total", backend="serial") == sum(
        r.steps for r in results
    )
    assert obs.registry.value("tm_jobs_total", backend="serial") == len(jobs)
    assert obs.registry.value("tm_halts_total", backend="serial") == sum(
        1 for r in results if r.halted
    )


def test_run_many_steps_counter_is_exact_process():
    jobs = [(m(), "101") for m in MACHINES] * 4
    with observed() as obs:
        results = run_many(jobs, backend=ProcessBackend(TM_WORKLOAD, workers=2, chunksize=4))
    assert obs.registry.value("tm_steps_total", backend="process") == sum(
        r.steps for r in results
    )


def test_run_many_span_tree():
    with observed(tracer=Tracer(clock=VirtualClock(tick=1.0))) as obs:
        run_many([(binary_increment(), "1")])
    (tree,) = obs.tracer.span_trees()
    assert tree["name"] == "batch.run_many"
    assert tree["attributes"]["backend"] == "serial"
    assert [c["name"] for c in tree["children"]] == ["batch.chunk"]


def test_batch_records_chunk_durations_and_queue_depth():
    # Distinct tapes: identical jobs would be interned down to one.
    jobs = [(binary_increment(), "1" * (i + 1)) for i in range(16)]
    backend = ProcessBackend(TM_WORKLOAD, workers=2, chunksize=4)
    try:
        with observed() as obs:
            run_many(jobs, backend=backend)
    finally:
        backend.close()
    snap = obs.registry.snapshot()
    chunk = snap["batch_chunk_seconds"]["series"][0]
    assert chunk["labels"] == {"backend": "process"}
    assert chunk["count"] == 4  # 16 jobs / chunksize 4
    assert obs.registry.value("batch_queue_depth", backend="process") == 4


@settings(max_examples=20, deadline=None)
@given(
    plan=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), st.integers(0, 7)),
        min_size=1,
        max_size=8,
    ),
    fuel=st.integers(min_value=1, max_value=300),
)
def test_traced_run_many_identical_to_untraced(plan, fuel):
    """Property: tracing is observation only — results are unchanged
    and the steps counter equals the sum of per-result steps."""
    jobs = [(MACHINES[i](), "1" * n) for i, n in plan]
    untraced = run_many(jobs, fuel=fuel)
    with observed(tracer=Tracer(clock=VirtualClock(tick=1.0))) as obs:
        traced = run_many(jobs, fuel=fuel)
    assert traced == untraced
    assert obs.registry.total("tm_steps_total") == sum(r.steps for r in traced)
    assert len(obs.tracer.finished) > 0


# -- cache stats surfacing (satellite) ---------------------------------------


def test_cache_metrics_recorded_per_backend():
    jobs = [(binary_increment(), "1")] * 6
    backend = ProcessBackend(TM_WORKLOAD, workers=2, chunksize=3)
    try:
        with observed() as obs:
            run_many(jobs)
            run_many(jobs, backend=backend)
    finally:
        backend.close()
    assert obs.registry.value("compile_cache_misses_total", backend="serial") == 1
    assert obs.registry.value("compile_cache_hits_total", backend="serial") == 5
    # Six identical jobs intern down to one program compiled once on
    # one worker; the five duplicates are hits without even a probe.
    assert obs.registry.value("compile_cache_misses_total", backend="process") == 1
    assert obs.registry.value("compile_cache_hits_total", backend="process") == 5


# -- machines ----------------------------------------------------------------


def test_universal_machine_counters():
    u = UniversalMachine(compiled=True)
    desc = encode_tm(binary_increment())
    with observed() as obs:
        first = u.run(desc, "1")
        u.run(desc, "11")
    reg = obs.registry
    assert reg.value("universal_runs_total", mode="compiled") == 2
    assert reg.value("universal_cache_misses_total") == 1
    assert reg.value("universal_cache_hits_total") == 1
    assert reg.total("universal_steps_total") >= first.steps
    assert reg.value("universal_halts_total", mode="compiled") == 2


def test_busy_beaver_counters_match_champions():
    with observed() as obs:
        for n in range(1, 5):
            score(busy_beaver_machine(n), compiled=True)
    assert obs.registry.total("bb_steps_total") == 1 + 6 + 14 + 107
    assert obs.registry.total("bb_halts_total") == 4


def test_halting_survey_counters():
    family = [busy_beaver_machine(n) for n in (1, 2, 3)]
    with observed() as obs:
        report = halting_survey(family, fuel=100, compiled=True)
    assert obs.registry.total("bb_survey_machines_total") == report.total
    assert obs.registry.total("bb_survey_halted_total") == report.halted
    assert obs.registry.total("bb_survey_running_total") == report.running


# -- netstack ----------------------------------------------------------------


def _line_network():
    net = Network()
    for host in ("a", "b", "c"):
        net.add_host(host)
    net.connect("a", "b")
    net.connect("b", "c")
    return net


def test_network_delivery_spans_and_counters():
    net = _line_network()
    with observed(tracer=Tracer(clock=VirtualClock(tick=1.0))) as obs:
        delivered = net.deliver(Datagram("a", "c", b"payload"))
    assert delivered is not None
    (tree,) = obs.tracer.span_trees()
    assert tree["name"] == "net.deliver"
    assert [c["name"] for c in tree["children"]] == ["net.hop", "net.hop"]
    assert [c["attributes"]["link"] for c in tree["children"]] == ["a->b", "b->c"]
    assert obs.registry.total("net_hops_total") == 2
    assert obs.registry.total("net_delivered_total") == 1


def test_network_ttl_expiry_counted_and_raised():
    net = _line_network()
    with observed() as obs:
        with pytest.raises(TTLExpired):
            net.deliver(Datagram("a", "c", b"x", ttl=1))
    assert obs.registry.total("net_ttl_expired_total") == 1
    assert obs.registry.total("net_delivered_total") == 0


# -- faults ------------------------------------------------------------------


def test_retry_metrics_and_events():
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise OSError("transient")
        return "ok"

    with observed(tracer=Tracer(clock=VirtualClock(tick=1.0))) as obs:
        outcome = RetryPolicy(max_attempts=5, base_delay=1.0).call(flaky)
    assert outcome.succeeded and outcome.attempts == 3
    reg = obs.registry
    assert reg.total("retry_attempts_total") == 3
    assert reg.value("retry_calls_total", outcome="success") == 1
    snap = reg.snapshot()
    assert snap["retry_backoff_virtual_time"]["series"][0]["count"] == 1
    (tree,) = obs.tracer.span_trees()
    assert tree["name"] == "retry.call"
    assert [e["name"] for e in tree["events"]] == ["retry.attempt_failed"] * 2


def test_circuit_breaker_transition_counters():
    breaker = CircuitBreaker(failure_threshold=2, reset_timeout=10.0)

    def failing():
        raise RuntimeError("down")

    with observed() as obs:
        for _ in range(2):
            with pytest.raises(RuntimeError):
                breaker.call(failing)
        with pytest.raises(Exception):
            breaker.call(lambda: "never")  # rejected while open
        breaker.advance(10.0)
        breaker.call(lambda: "probe")  # half-open -> closed
    reg = obs.registry
    assert reg.value("circuit_transitions_total", from_state="closed", to_state="open") == 1
    assert (
        reg.value("circuit_transitions_total", from_state="open", to_state="half-open") == 1
    )
    assert (
        reg.value("circuit_transitions_total", from_state="half-open", to_state="closed")
        == 1
    )
    assert reg.total("circuit_rejected_total") == 1


# -- multicore ---------------------------------------------------------------


def test_multicore_utilisation_gauges():
    machines = [binary_increment() for _ in range(4)]
    with observed() as obs:
        run = Multicore(2).run_machines(machines, ["1"] * 4)
    reg = obs.registry
    for core in range(2):
        gauge = reg.value("multicore_core_utilisation", core=str(core), cores="2")
        assert gauge is not None and 0.0 <= gauge <= 1.0
    assert reg.value("multicore_utilisation", cores="2") == pytest.approx(run.utilisation)
    assert reg.value("multicore_steps_total", cores="2") == run.total_steps

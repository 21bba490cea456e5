"""Tests for the incremental job-lifecycle scheduler (sessions).

The load-bearing equivalence: ``Session.submit`` + ``drain`` over any
backend string — wrapper chains included — produces pickle-byte-
identical results to a one-shot ``backend.execute`` of the same jobs,
for every workload adapter.  On top of that sit the lifecycle
properties: interning joins duplicate submissions to one in-flight
future, the settled-result memo extends dedup across flushes, an idle
dispatcher flushes at once while a busy one lets arrivals coalesce
(group commit), latency-class submissions run ahead of queued bulk
units, errors settle futures instead of wedging them, and the
journal / node-kill recovery stories hold through the session path.

Tests that must observe a bucket before it flushes hold the session's
one dispatcher inside a unit with :class:`HeldBackend`: arrivals then
coalesce deterministically until the test releases it.
"""

import pickle
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.complexity.sat import CNF
from repro.machines.busybeaver import busy_beaver_machine
from repro.machines.turing import (
    binary_increment,
    copier,
    palindrome_checker,
    unary_adder,
)
from repro.machines.universal import encode_tm
from repro.obs.instrument import observed
from repro.obs.report import render
from repro.runtime import SerialBackend, create_backend
from repro.runtime.session import BULK, LATENCY, Scheduler, Session
from repro.runtime.workloads.busybeaver import BUSYBEAVER
from repro.runtime.workloads.complang import COMPLANG, complang_job
from repro.runtime.workloads.machines import ENCODED_MACHINES, MACHINES
from repro.runtime.workloads.sat import SAT, sat_job

FUEL = 5_000

# -- concrete job pools, one per adapter -------------------------------------

_TM_POOL = [
    (binary_increment(), "1011"),
    (palindrome_checker(), "abba"),
    (copier(), "111"),
    (unary_adder(), "11"),
    (binary_increment(), "111"),
]

_ENCODED_POOL = [(encode_tm(machine), tape) for machine, tape in _TM_POOL]

_COMPLANG_POOL = [
    complang_job("s = 0; while n > 0 { s = s + n; n = n - 1; } print s;", {"n": 4}),
    complang_job("x = n * n + 1; print x;", {"n": 3}),
    complang_job("if n > 2 { print n; } else { print 0; }", {"n": 1}),
]

_SAT_POOL = [
    sat_job(CNF.of([(1, 2), (-1, 2), (1, -2)])),
    sat_job(CNF.of([(1,), (-1,)])),
    sat_job(CNF.of([(1, 2, 3), (-1, -2), (2, 3), (-3, 1)])),
]

_BB_POOL = [(busy_beaver_machine(n), "") for n in (1, 2, 3)]

CASES = [
    pytest.param(MACHINES, _TM_POOL, id="machines"),
    pytest.param(ENCODED_MACHINES, _ENCODED_POOL, id="encoded_machines"),
    pytest.param(COMPLANG, _COMPLANG_POOL, id="complang"),
    pytest.param(SAT, _SAT_POOL, id="sat"),
    pytest.param(BUSYBEAVER, _BB_POOL, id="busybeaver"),
]

plans = st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=8)


def one_shot(workload, jobs, **kwargs):
    """The batch oracle: a plain backend.execute of the same jobs."""
    backend = create_backend("serial", workload=workload, **kwargs)
    try:
        return backend.execute(jobs, fuel=FUEL)
    finally:
        backend.close()


# -- holding the dispatcher --------------------------------------------------

#: The job that occupies the dispatcher; distinct from every pool job.
BLOCKER = (copier(), "1")


class HeldBackend(SerialBackend):
    """A serial backend whose ``execute`` waits for ``release``.

    ``units`` records the jobs of every ``execute`` call in order, and
    ``running`` is set once the first call has started.
    """

    def __init__(self, workload=MACHINES):
        super().__init__(workload)
        self.running = threading.Event()
        self.release = threading.Event()
        self.units = []

    def execute(self, jobs, *, fuel):
        self.units.append(list(jobs))
        self.running.set()
        if not self.release.wait(timeout=10.0):
            raise TimeoutError("held backend was never released")
        return super().execute(jobs, fuel=fuel)


@pytest.fixture
def held():
    backend = HeldBackend()
    yield backend
    backend.release.set()
    backend.close()


def hold(session, backend):
    """Occupy the idle dispatcher with ``BLOCKER`` until ``backend.release``."""
    session.submit("machines", BLOCKER, fuel=FUEL)
    assert backend.running.wait(timeout=5.0)


# -- byte-identity: session path vs one-shot execute -------------------------


@pytest.mark.parametrize("workload,pool", CASES)
@settings(max_examples=20, deadline=None)
@given(plan=plans)
def test_session_matches_execute_every_adapter(workload, pool, plan):
    """Submit-all-then-drain is pickle-byte-identical to execute()."""
    jobs = [pool[i % len(pool)] for i in plan]
    expected = one_shot(workload, jobs)
    with Session("serial") as session:
        got = session.execute(workload.kind, jobs, fuel=FUEL)
    assert pickle.dumps(got) == pickle.dumps(expected)


CHAIN_KWARGS = [
    pytest.param("process", {"workers": 2}, id="process"),
    pytest.param("supervised:process", {"workers": 2}, id="supervised-process"),
    pytest.param("journaled:serial", {}, id="journaled-serial"),
    pytest.param(
        "journaled:dist",
        {"nodes": 2, "topology": "single_node", "workers_per_node": 0},
        id="journaled-dist",
    ),
]


@pytest.mark.parametrize("spec,kwargs", CHAIN_KWARGS)
def test_session_matches_execute_wrapper_chains(spec, kwargs, tmp_path):
    """The equivalence holds for every backend string, chains included."""
    if spec.startswith("journaled"):
        kwargs = dict(kwargs, journal_dir=tmp_path)
    jobs = [_TM_POOL[i % len(_TM_POOL)] for i in range(9)]
    expected = one_shot(MACHINES, jobs)
    with Session(spec, backend_kwargs=kwargs) as session:
        got = session.execute("machines", jobs, fuel=FUEL)
    assert [pickle.dumps(r) for r in got] == [pickle.dumps(r) for r in expected]


@pytest.mark.parametrize("workload,pool", CASES)
def test_session_through_wrapper_per_adapter(workload, pool, tmp_path):
    """Every adapter works through a wrapper chain on the session path."""
    jobs = list(pool) * 2
    expected = one_shot(workload, jobs)
    session = Session(
        "journaled:serial", backend_kwargs={"journal_dir": tmp_path}
    )
    try:
        got = session.execute(workload.kind, jobs, fuel=FUEL)
    finally:
        session.close()
    assert [pickle.dumps(r) for r in got] == [pickle.dumps(r) for r in expected]


# -- interning: dedup within and across flush windows ------------------------


def test_duplicate_submissions_join_one_future(held):
    with Session(held, max_batch=64) as session:
        hold(session, held)
        first = session.submit("machines", _TM_POOL[0], fuel=FUEL)
        second = session.submit("machines", _TM_POOL[0], fuel=FUEL)
        assert second is first  # joined the in-flight entry
        held.release.set()
        session.drain()
        stats = session.stats()
    assert stats["submitted"] == 3  # the two, plus the blocker
    assert stats["executed_jobs"] == 2
    assert stats["dedup_joins"] == 1


@pytest.mark.parametrize("workload,pool", CASES)
@settings(max_examples=10, deadline=None)
@given(index=st.integers(min_value=0, max_value=2))
def test_dedup_across_flush_windows_every_adapter(workload, pool, index):
    """Equal jobs in different flush windows execute once; both futures
    resolve to the same pickled bytes (satellite: session-path interning)."""
    job = pool[index % len(pool)]
    with Session("serial") as session:
        first = session.submit(workload.kind, job, fuel=FUEL)
        session.drain()  # first window settled
        second = session.submit(workload.kind, job, fuel=FUEL)
        session.drain()  # second window: served from the memo
        stats = session.stats()
        a, b = first.result(), second.result()
    assert stats["executed_jobs"] == 1
    assert stats["memo_hits"] == 1
    assert pickle.dumps(a) == pickle.dumps(b)
    assert a is b  # sharing, not just equality


def test_memo_disabled_re_executes():
    with Session("serial", memo_size=0) as session:
        session.submit("machines", _TM_POOL[0], fuel=FUEL)
        session.drain()
        session.submit("machines", _TM_POOL[0], fuel=FUEL)
        session.drain()
        stats = session.stats()
    assert stats["executed_jobs"] == 2
    assert stats["memo_hits"] == 0


def test_different_fuel_is_a_different_job():
    with Session("serial") as session:
        first = session.submit("machines", _TM_POOL[0], fuel=FUEL)
        second = session.submit("machines", _TM_POOL[0], fuel=FUEL + 1)
        session.drain()
        stats = session.stats()
    assert first is not second
    assert stats["executed_jobs"] == 2


# -- group commit and the two-class policy -----------------------------------


def test_size_trigger_flushes_full_buckets(held):
    with Session(held, max_batch=2) as session:
        hold(session, held)
        for job in _TM_POOL[:4]:
            session.submit("machines", job, fuel=FUEL)
        held.release.set()
        session.drain()
        stats = session.stats()
    assert stats["flushes"].get("size", 0) == 2


def test_idle_trigger_flushes_without_drain():
    with Session("serial", max_batch=64) as session:
        future = session.submit("machines", _TM_POOL[0], fuel=FUEL)
        # No drain: an idle dispatcher alone must flush the bucket.
        assert future.result(timeout=5.0) is not None
        stats = session.stats()
    assert stats["flushes"].get("idle", 0) == 1


def test_group_commit_coalesces_arrivals_behind_a_running_unit(held):
    """Bulk arrivals during a running unit leave as one idle flush."""
    with Session(held, max_batch=64) as session:
        hold(session, held)
        futures = [session.submit("machines", job, fuel=FUEL) for job in _TM_POOL]
        held.release.set()
        assert all(f.result(timeout=5.0) is not None for f in futures)
        stats = session.stats()
    assert [len(unit) for unit in held.units] == [1, len(_TM_POOL)]
    assert stats["flushes"] == {"idle": 2}  # the blocker's, then the k jobs'


def test_latency_single_runs_before_queued_bulk(held):
    """A latency-class submission runs ahead of bulk work queued before it."""
    with Session(held, max_batch=1024) as session:
        hold(session, held)
        bulk = [
            session.submit("machines", job, fuel=FUEL, priority=BULK)
            for job in _TM_POOL
        ]
        probe = (copier(), "11")
        urgent = session.submit("machines", probe, fuel=FUEL, priority=LATENCY)
        # Futures settle on the dispatcher before it takes the next unit.
        bulk_done_at_settle = []
        urgent.add_done_callback(
            lambda _f: bulk_done_at_settle.extend(f.done() for f in bulk)
        )
        held.release.set()
        assert urgent.result(timeout=5.0).halted
        stats = session.stats()
        assert stats["flushes"].get("priority", 0) == 1
        session.drain()
        assert all(f.done() for f in bulk)
    assert bulk_done_at_settle == [False] * len(bulk)  # bulk still queued
    assert held.units[:2] == [[BLOCKER], [probe]]
    assert sum(len(unit) for unit in held.units[2:]) == len(bulk)


def test_bulk_chunk_bounds_flush_units(held):
    with Session(held, max_batch=64, bulk_chunk=2) as session:
        hold(session, held)
        for job in _TM_POOL[:5]:  # five unique jobs, one bucket
            session.submit("machines", job, fuel=FUEL)
        session.flush()  # forced out while the dispatcher is held
        held.release.set()
        session.drain()
        stats = session.stats()
    # One drain flush of 5 entries → units of ≤2 jobs (trailing-merge
    # rule: 2+3), counted once per unit.
    assert stats["flushes"].get("drain", 0) == 2


def test_window_knob_is_gone():
    with pytest.raises(TypeError):
        Session("serial", window=0.002)
    with pytest.raises(TypeError):
        Scheduler(lambda kind: None, window=0.002)


def test_invalid_priority_rejected():
    with Session("serial") as session:
        with pytest.raises(ValueError, match="priority"):
            session.submit("machines", _TM_POOL[0], fuel=FUEL, priority="soon")


# -- error lifecycle ---------------------------------------------------------


class ExplodingBackend(SerialBackend):
    def execute(self, jobs, *, fuel):
        raise RuntimeError("boom")


def test_backend_error_settles_futures_with_exception():
    session = Session(ExplodingBackend(MACHINES))
    try:
        future = session.submit("machines", _TM_POOL[0], fuel=FUEL)
        session.drain()
        assert isinstance(future.exception(timeout=5.0), RuntimeError)
        # The scheduler survives the error: later submissions still run.
        stats = session.stats()
        assert stats["inflight_jobs"] == 0
    finally:
        session.close()


def test_submit_after_close_raises():
    session = Session("serial")
    session.close()
    with pytest.raises(RuntimeError, match="closed"):
        session.submit("machines", _TM_POOL[0], fuel=FUEL)


def test_session_close_is_idempotent():
    session = Session("serial")
    session.submit("machines", _TM_POOL[0], fuel=FUEL)
    session.close()
    session.close()  # second close is a no-op, not an error


def test_instance_backend_stays_open_and_kind_checked():
    backend = SerialBackend(MACHINES)
    with Session(backend) as session:
        got = session.execute("machines", _TM_POOL[:3], fuel=FUEL)
        assert len(got) == 3
        with pytest.raises(ValueError, match="bound to workload"):
            session.submit("sat", _SAT_POOL[0], fuel=FUEL).result(timeout=5.0)
    # The session never owned it: still usable after session close.
    assert backend.execute(_TM_POOL[:1], fuel=FUEL)


# -- recovery stories through the session path -------------------------------


def test_journal_resume_through_session_path(tmp_path):
    jobs = [_TM_POOL[i % len(_TM_POOL)] for i in range(6)]
    kwargs = {"journal_dir": tmp_path}
    with Session("journaled:serial", backend_kwargs=kwargs) as session:
        first = session.execute("machines", jobs, fuel=FUEL)
    # A fresh session over the same journal serves from the log.
    with Session("journaled:serial", backend_kwargs=kwargs) as session:
        again = session.execute("machines", jobs, fuel=FUEL)
        backend = session._backend_for("machines")
        assert backend.inner.last_dispatch.get("chunks", 0) == 0  # replayed
    assert [pickle.dumps(r) for r in again] == [pickle.dumps(r) for r in first]


def test_node_kill_recovery_through_session_path():
    jobs = [_TM_POOL[i % len(_TM_POOL)] for i in range(8)]
    expected = one_shot(MACHINES, jobs)
    from repro.comm.dist import DistBackend
    from repro.faults.supervisor import SupervisedBackend

    dist = DistBackend(MACHINES, nodes=2, topology="single_node", workers_per_node=0)
    backend = SupervisedBackend(inner=dist)
    try:
        with Session(backend) as session:
            first = session.execute("machines", jobs[:4], fuel=FUEL)
            assert dist.kill_node(dist.route(jobs[4:]))
            second = session.execute("machines", jobs[4:], fuel=FUEL)
        got = first + second
        assert [pickle.dumps(r) for r in got] == [pickle.dumps(r) for r in expected]
        assert dist.node_restarts == 1
    finally:
        backend.close()


# -- observability -----------------------------------------------------------


def test_session_emits_scheduler_metrics_and_report_section(held):
    with observed() as obs:
        with Session(held, max_batch=2) as session:
            hold(session, held)
            for job in _TM_POOL:
                session.submit("machines", job, fuel=FUEL)
            session.submit(
                "machines", (copier(), "11"), fuel=FUEL, priority=LATENCY
            )
            session.flush()  # the odd fifth job, forced out while held
            held.release.set()
            session.drain()
        snapshot = obs.registry.snapshot()
    reasons = {
        entry["labels"].get("reason")
        for entry in snapshot["runtime_flush_total"]["series"]
    }
    assert {"size", "priority", "drain"} <= reasons
    ages = snapshot["runtime_queue_age_seconds"]["series"]
    assert sum(entry["count"] for entry in ages) == 7  # one per unique job + blocker
    inflight = snapshot["runtime_inflight_jobs"]["series"]
    assert inflight and inflight[0]["value"] == 0  # all settled at drain
    report = render(snapshot)
    assert "-- scheduler --" in report
    assert "queue age" in report and "flushes:" in report


def test_flush_span_wraps_execution():
    with observed() as obs:
        with Session("serial") as session:
            session.execute("machines", _TM_POOL[:2], fuel=FUEL)
        spans = [s.name for s in obs.tracer.finished]
    assert "scheduler.flush" in spans


def test_concurrent_submitters_one_dispatcher():
    """Many submitting threads share one scheduler without corruption."""
    jobs = [(binary_increment(), "1" * (n % 6 + 1)) for n in range(30)]
    expected = one_shot(MACHINES, jobs)
    with Session("serial", max_batch=4) as session:
        futures = [None] * len(jobs)

        def submit(span):
            for i in span:
                futures[i] = session.submit("machines", jobs[i], fuel=FUEL)

        threads = [
            threading.Thread(target=submit, args=(range(k, len(jobs), 3),))
            for k in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        session.drain()
        got = [f.result() for f in futures]
    assert [pickle.dumps(r) for r in got] == [pickle.dumps(r) for r in expected]


def test_submitters_racing_idle_flushes_execute_each_job_once():
    """More submitters than cores, a short switch interval, duplicates:
    every submission settles to the one-shot result, and each unique
    job executes exactly once however the idle flushes interleave."""
    jobs = [(binary_increment(), "1" * (n % 12 + 1)) for n in range(240)]
    expected = one_shot(MACHINES, jobs)
    futures = [None] * len(jobs)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with Session("serial", max_batch=8) as session:

            def submit(k):
                for i in range(k, len(jobs), 4):
                    futures[i] = session.submit("machines", jobs[i], fuel=FUEL)

            threads = [threading.Thread(target=submit, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
            got = [f.result(timeout=30.0) for f in futures]
            stats = session.stats()
    finally:
        sys.setswitchinterval(interval)
    assert [pickle.dumps(r) for r in got] == [pickle.dumps(r) for r in expected]
    assert stats["executed_jobs"] == 12
    assert stats["executed_jobs"] + stats["dedup_joins"] + stats["memo_hits"] == len(jobs)

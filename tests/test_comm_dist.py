"""Tests for the communicator abstraction and the ``dist`` backend.

The load-bearing properties of multi-node sharded execution:

* a two-node sharded sweep is byte-identical (per-result pickles) to
  ``SerialBackend`` for every workload adapter;
* killing one node mid-sweep yields *exactly* the clean run's results
  — nothing lost, nothing duplicated — through both the backend's own
  chaos seam and the ``ChaosBackend``/``SupervisedBackend`` stack;
* composite backend names compose generically (``"journaled:dist"``,
  ``"journaled:ensemble"``) and broken chains fail up front
  with an error naming the offending segment.

Most tests run the ``single_node`` loopback topology — real sockets
and the real wire protocol, node servers as in-process threads — so
they are cheap enough for tier 1; one test drives real ``naive``
subprocess nodes end to end.
"""

import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import NodeLost, create_communicator
from repro.comm.dist import DistBackend
from repro.complexity.sat import CNF
from repro.faults.chaos import ChaosBackend, ChaosSchedule
from repro.faults.supervisor import SupervisedBackend, SupervisorPolicy
from repro.machines.turing import (
    binary_increment,
    copier,
    palindrome_checker,
    unary_adder,
)
from repro.runtime import run_jobs
from repro.runtime.core import create_backend
from repro.runtime.workloads.complang import COMPLANG, complang_job
from repro.runtime.workloads.machines import MACHINES
from repro.runtime.workloads.sat import SAT, sat_job

FUEL = 10_000

_TM_POOL = [
    (binary_increment(), "1011"),
    (palindrome_checker(), "abba"),
    (copier(), "111"),
    (unary_adder(), "11"),
    (palindrome_checker(), "aba"),
]

_COMPLANG_POOL = [
    complang_job(src, {"n": n})
    for src in (
        "s = 0; while n > 0 { s = s + n; n = n - 1; } print s;",
        "x = n * n + 1; print x;",
    )
    for n in (0, 3, 5)
]

_SAT_POOL = [
    sat_job(CNF.of([(1, 2), (-1, 2), (1, -2)])),
    sat_job(CNF.of([(1,), (-1,)])),
    sat_job(CNF.of([(1, 2, 3), (-1, -2), (2, 3), (-3, 1)])),
]

CASES = [
    pytest.param(MACHINES, _TM_POOL, id="machines"),
    pytest.param(COMPLANG, _COMPLANG_POOL, id="complang"),
    pytest.param(SAT, _SAT_POOL, id="sat"),
]


def loopback_backend(workload, **kwargs):
    """A two-node dist backend on in-process loopback nodes."""
    kwargs.setdefault("nodes", 2)
    kwargs.setdefault("topology", "single_node")
    kwargs.setdefault("workers_per_node", 0)
    return DistBackend(workload, **kwargs)


def per_result_pickles(results):
    return [pickle.dumps(r) for r in results]


# -- communicator primitives -------------------------------------------------


def test_create_communicator_rejects_unknown_topology():
    with pytest.raises(ValueError, match="unknown communicator"):
        create_communicator("ring", nodes=2)


def test_loopback_ping_all_gather_returns_in_node_order():
    with create_communicator("single_node", nodes=3) as comm:
        replies = comm.all_gather([("ping", {})] * 3, timeout=10.0)
        assert [body["node"] for op, body in replies] == [0, 1, 2]
        assert all(op == "pong" for op, _ in replies)
        assert comm.bytes_sent > 0 and comm.bytes_recv > 0


def test_loopback_kill_surfaces_nodelost_then_restart_recovers():
    with create_communicator("single_node", nodes=2) as comm:
        comm.kill_node(0)
        with pytest.raises(NodeLost) as excinfo:
            for _ in range(100):
                comm.recv(timeout=0.1)
        assert excinfo.value.node == 0
        assert comm.alive_nodes() == [1]
        comm.restart_node(0)
        assert comm.alive_nodes() == [0, 1]
        comm.send(0, ("ping", {}))
        node, message = comm.recv(timeout=10.0)
        assert node == 0 and message[0] == "pong"
        assert comm.restarts == 1


# -- sharded sweeps are byte-identical to serial -----------------------------


@pytest.mark.parametrize("workload,pool", CASES)
def test_two_node_sweep_byte_identical_to_serial(workload, pool):
    jobs = [pool[i % len(pool)] for i in (0, 1, 2, 0, 3 % len(pool), 1)]
    clean = run_jobs(workload, jobs, fuel=FUEL)
    backend = loopback_backend(workload)
    try:
        out = run_jobs(workload, jobs, fuel=FUEL, backend=backend)
        assert per_result_pickles(out) == per_result_pickles(clean)
        dispatch = backend.last_dispatch
        assert dispatch["nodes"] == 2
        assert dispatch["deduped"] == len(jobs) - dispatch["unique_jobs"]
    finally:
        backend.close()


def test_warm_second_sweep_serves_from_memo_without_chunks():
    jobs = [(palindrome_checker(), "abba"), (binary_increment(), "1011")]
    backend = loopback_backend(MACHINES)
    try:
        first = backend.execute(jobs, fuel=FUEL)
        assert backend.last_dispatch["chunks"] >= 1
        again = backend.execute(jobs, fuel=FUEL)
        assert per_result_pickles(again) == per_result_pickles(first)
        assert backend.last_dispatch["chunks"] == 0
        assert backend.last_dispatch["memo_hits"] == len(jobs)
    finally:
        backend.close()


def test_sharding_by_content_key_is_stable_across_backends():
    a = loopback_backend(MACHINES)
    b = loopback_backend(MACHINES)
    try:
        programs = [program for program, _ in _TM_POOL]
        homes_a = [a._home(a._register(p)) for p in programs]
        homes_b = [b._home(b._register(p)) for p in programs]
        assert homes_a == homes_b
    finally:
        a.close()
        b.close()


@pytest.mark.skipif(os.cpu_count() is None, reason="cpu_count unavailable")
def test_real_subprocess_nodes_match_serial():
    """One end-to-end run over real TCP subprocess nodes."""
    jobs = [_TM_POOL[i % len(_TM_POOL)] for i in range(7)]
    clean = run_jobs(MACHINES, jobs, fuel=FUEL)
    backend = DistBackend(
        MACHINES, nodes=2, topology="naive", workers_per_node=0, connect_timeout=60.0
    )
    try:
        out = run_jobs(MACHINES, jobs, fuel=FUEL, backend=backend)
        assert per_result_pickles(out) == per_result_pickles(clean)
    finally:
        backend.close()


# -- node failure: chaos-killed == clean, exactly ----------------------------


@settings(max_examples=5, deadline=None)
@given(
    plan=st.lists(st.integers(min_value=0, max_value=4), min_size=4, max_size=12),
    kill_at=st.integers(min_value=0, max_value=3),
)
def test_node_kill_mid_sweep_equals_clean_run_exactly(plan, kill_at):
    """The issue's headline property: a chaos-killed-node sweep returns
    exactly the clean run's results — nothing lost to the dead node,
    nothing double-counted by the redispatch."""
    jobs = [_TM_POOL[i] for i in plan]
    clean = run_jobs(MACHINES, jobs, fuel=FUEL)
    backend = loopback_backend(
        MACHINES, chaos=ChaosSchedule(kinds={kill_at: "node_kill"})
    )
    try:
        out = run_jobs(MACHINES, jobs, fuel=FUEL, backend=backend)
        assert per_result_pickles(out) == per_result_pickles(clean)
        assert backend.duplicate_results == 0
        # the kill only lands when the schedule slot was actually drawn
        assert backend.last_dispatch["node_restarts"] >= (
            1 if kill_at < backend.last_dispatch["chunks"] else 0
        )
    finally:
        backend.close()


def test_node_kill_through_chaosbackend_and_supervisor():
    """`node_kill` as a first-class chaos kind: the ChaosBackend maps
    it onto the inner backend's ``kill_node`` seam and the supervisor
    retries the crashed chunk against the restarted node."""
    jobs = [_TM_POOL[i % len(_TM_POOL)] for i in range(8)]
    clean = run_jobs(MACHINES, jobs, fuel=FUEL)
    inner = loopback_backend(MACHINES)
    chaotic = ChaosBackend(inner, schedule=ChaosSchedule(kinds={1: "node_kill"}))
    backend = SupervisedBackend(
        inner=chaotic, workload=MACHINES, policy=SupervisorPolicy(chunksize=3)
    )
    try:
        out = run_jobs(MACHINES, jobs, fuel=FUEL, backend=backend)
        assert per_result_pickles(out) == per_result_pickles(clean)
        assert chaotic.injected["node_kill"] == 1
        assert backend.last_report.quarantined == []
    finally:
        backend.close()


def test_chaosbackend_degrades_node_kill_to_crash_without_seam():
    """Against an inner backend with no ``kill_node``, the kind stays
    portable by degrading to a plain crash injection."""
    from repro.runtime import SerialBackend

    inner = SerialBackend(MACHINES)
    chaotic = ChaosBackend(inner, schedule=ChaosSchedule(kinds={0: "node_kill"}))
    backend = SupervisedBackend(
        inner=chaotic, workload=MACHINES, policy=SupervisorPolicy(chunksize=3)
    )
    try:
        jobs = _TM_POOL[:4]
        out = run_jobs(MACHINES, jobs, fuel=FUEL, backend=backend)
        assert out == run_jobs(MACHINES, jobs, fuel=FUEL)
        assert chaotic.injected["node_kill"] == 1
    finally:
        backend.close()


# -- composition -------------------------------------------------------------


def test_journaled_dist_composes_and_replays(tmp_path):
    jobs = [_TM_POOL[i % len(_TM_POOL)] for i in range(6)]
    clean = run_jobs(MACHINES, jobs, fuel=FUEL)
    backend = create_backend(
        "journaled:dist",
        workload="machines",
        journal_dir=tmp_path,
        nodes=2,
        topology="single_node",
        workers_per_node=0,
    )
    try:
        out = run_jobs(MACHINES, jobs, fuel=FUEL, backend=backend)
        assert per_result_pickles(out) == per_result_pickles(clean)
    finally:
        backend.close()
    # a fresh journaled:dist over the same directory replays from the log
    again = create_backend(
        "journaled:dist",
        workload="machines",
        journal_dir=tmp_path,
        nodes=2,
        topology="single_node",
        workers_per_node=0,
    )
    try:
        out = run_jobs(MACHINES, jobs, fuel=FUEL, backend=again)
        assert per_result_pickles(out) == per_result_pickles(clean)
        assert again.inner.last_dispatch.get("chunks", 0) == 0  # all replayed
    finally:
        again.close()


def test_supervised_dist_composes_by_name():
    jobs = _TM_POOL[:4]
    backend = create_backend(
        "supervised:dist",
        workload="machines",
        nodes=2,
        topology="single_node",
        workers_per_node=0,
    )
    try:
        assert run_jobs(MACHINES, jobs, fuel=FUEL, backend=backend) == run_jobs(
            MACHINES, jobs, fuel=FUEL
        )
    finally:
        backend.close()


def test_journaled_ensemble_composes_by_name(tmp_path):
    jobs = _TM_POOL
    backend = create_backend("journaled:ensemble", workload="machines", journal_dir=tmp_path)
    try:
        assert backend.inner.name == "ensemble"
        assert run_jobs(MACHINES, jobs, fuel=FUEL, backend=backend) == run_jobs(
            MACHINES, jobs, fuel=FUEL
        )
    finally:
        backend.close()


def test_composite_chain_rejects_non_wrapper_prefix():
    with pytest.raises(ValueError, match="'process' cannot wrap"):
        create_backend("process:serial", workload="machines")


def test_composite_chain_rejects_unknown_prefix():
    with pytest.raises(ValueError, match="unknown wrapper prefix 'jurnaled'"):
        create_backend("jurnaled:dist", workload="machines")


def test_composite_chain_rejects_unknown_leaf():
    with pytest.raises(ValueError, match="unknown leaf backend 'dost'"):
        create_backend("journaled:dost", workload="machines")

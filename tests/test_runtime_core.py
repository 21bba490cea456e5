"""Tests for the workload-generic runtime core: the adapter registry,
backend factories/resolution, interning, the resident cache, and the
``runtime_*`` observability surface.

The adapter machinery is exercised through a tiny self-contained test
workload so these tests pin the *generic* contracts; the real adapters
(machines, complang, sat, busybeaver) get their exact-equality property
tests in ``test_runtime_workloads.py``.
"""

import pytest

from repro.obs.instrument import KNOWN_METRICS, observed
from repro.runtime import (
    BACKENDS,
    ProcessBackend,
    ResidentCache,
    SerialBackend,
    Session,
    create_backend,
    intern_jobs,
    resolve_backend,
    run_job_loop,
    run_jobs,
)
from repro.runtime.workload import (
    Workload,
    WorkloadBase,
    get_workload,
    register_workload,
)


class ScaleResult:
    """A fresh object per execution, so sharing is observable by identity."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __eq__(self, other) -> bool:
        return isinstance(other, ScaleResult) and self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)


class ScaleWorkload(WorkloadBase):
    """Programs are integer scale factors; ``prepare`` doubles them so
    the compiled path is distinguishable from ``run_direct``'s maths."""

    kind = "scale-test"
    result_type = ScaleResult

    def prepare(self, program: int) -> int:
        if program < 0:
            raise ValueError("negative scales are unpreparable")
        return program * 2

    def execute(self, resident: int, input: int, fuel: int) -> ScaleResult:
        return ScaleResult(resident * input)

    def run_direct(self, program: int, input: int, fuel: int) -> ScaleResult:
        return ScaleResult(program * 2 * input)


SCALE = ScaleWorkload()


# -- the adapter registry ----------------------------------------------------


def test_get_workload_resolves_every_builtin_kind():
    for kind in ("machines", "encoded_machines", "complang", "sat", "busybeaver"):
        workload = get_workload(kind)
        assert workload.kind == kind
        assert isinstance(workload, Workload)  # runtime-checkable protocol
        assert get_workload(kind) is workload  # registry caches the singleton


def test_get_workload_unknown_kind_lists_choices():
    with pytest.raises(ValueError, match="unknown workload 'starfleet'"):
        get_workload("starfleet")
    with pytest.raises(ValueError, match="machines"):
        get_workload("starfleet")


def test_register_workload_roundtrip():
    register_workload(SCALE)
    assert get_workload("scale-test") is SCALE


def test_workload_base_defaults():
    class Plain(WorkloadBase):
        kind = "plain-test"

        def execute(self, resident, input, fuel):
            return (resident, input)

    plain = Plain()
    assert plain.program_key("p") == "p"  # the program is its own key
    assert plain.content_key(("p", "x")) == ("p", "x")
    assert plain.prepare("p") == "p"
    assert plain.run_direct("p", "x", 9) == ("p", "x")
    assert plain.cost(object()) == 1.0
    assert plain.valid_result("anything") and not plain.valid_result(None)
    # result_type sharpens valid_result into an isinstance check.
    assert SCALE.valid_result(ScaleResult(1)) and not SCALE.valid_result("fake")


# -- backend factory and resolution ------------------------------------------


def test_create_backend_unknown_name():
    with pytest.raises(ValueError, match="unknown backend 'quantum'"):
        create_backend("quantum")


def test_create_backend_defaults_to_machines_workload():
    backend = create_backend()
    assert isinstance(backend, SerialBackend)
    assert backend.workload.kind == "machines"


def test_create_backend_accepts_workload_by_kind_or_instance():
    by_name = create_backend("serial", workload="sat")
    assert by_name.workload.kind == "sat"
    by_instance = create_backend("serial", workload=SCALE)
    assert by_instance.workload is SCALE


def test_resolve_backend_name_is_owned():
    backend, owned = resolve_backend("serial", workload=SCALE)
    assert owned and isinstance(backend, SerialBackend)
    assert backend.workload is SCALE


def test_resolve_backend_instance_passes_through_unowned():
    mine = SerialBackend(SCALE)
    backend, owned = resolve_backend(mine)
    assert backend is mine and not owned


def test_resolve_backend_rejects_kwargs_with_instance():
    with pytest.raises(ValueError, match="backend kwargs only apply"):
        resolve_backend(SerialBackend(SCALE), workers=2)


# -- interning ---------------------------------------------------------------


def test_intern_jobs_dedups_by_content():
    jobs = [(3, 1), (4, 1), (3, 1), (3, 2), (4, 1)]
    unique, slots, keys = intern_jobs(SCALE, jobs)
    assert unique == [(3, 1), (4, 1), (3, 2)]
    assert slots == [0, 1, 0, 2, 1]
    assert keys == [3, 4, 3]
    for job, s in zip(jobs, slots):
        assert unique[s] == job


def test_intern_jobs_empty():
    assert intern_jobs(SCALE, []) == ([], [], [])


# -- the resident cache ------------------------------------------------------


def test_resident_cache_hit_miss_and_lru_eviction():
    cache = ResidentCache(SCALE, maxsize=2)
    assert cache.get(3) == 6 and cache.misses == 1
    assert cache.get(3) == 6 and cache.hits == 1
    cache.get(4)
    cache.get(5)  # evicts 3 (least recently used)
    assert len(cache) == 2
    cache.get(3)
    assert cache.misses == 4  # 3, 4, 5, and 3 again after eviction
    assert cache.stats() == {"hits": 1, "misses": 4, "size": 2}


def test_resident_cache_rejects_bad_maxsize():
    with pytest.raises(ValueError, match="maxsize"):
        ResidentCache(SCALE, maxsize=0)


def test_resident_cache_lets_prepare_raise():
    cache = ResidentCache(SCALE)
    with pytest.raises(ValueError, match="unpreparable"):
        cache.get(-1)
    assert cache.misses == 1  # the failed probe still counted


def test_run_job_loop_falls_back_to_run_direct_on_unpreparable():
    jobs = [(3, 2), (-3, 2)]  # -3 is unpreparable: ValueError from prepare
    results = run_job_loop(SCALE, jobs, 10)
    assert results == [ScaleResult(12), ScaleResult(-12)]


# -- run_jobs: semantics -----------------------------------------------------


def test_unpreparable_program_is_prepared_once_per_key(monkeypatch):
    """A program ``prepare`` refuses is remembered like any resident:
    the serial backend prepares it once, as a pool worker does, and
    both report the same tallies."""
    from repro.complexity.sat import CNF
    from repro.runtime.workloads.sat import SAT, SatWorkload, sat_job

    formula = CNF.of([range(1, 301), [-1, -2]])  # 300 literals: unpreparable
    jobs = [sat_job(formula), sat_job(formula, pure_literals=False)]
    prepared = []
    prepare = SatWorkload.prepare

    def counting_prepare(self, program):
        prepared.append(program)
        return prepare(self, program)

    monkeypatch.setattr(SatWorkload, "prepare", counting_prepare)
    serial = SerialBackend(SAT)
    assert serial.execute(jobs, fuel=10) == [SAT.run_direct(p, x, 10) for p, x in jobs]
    assert len(prepared) == 1
    process = ProcessBackend(SAT, workers=1)
    try:
        assert process.execute(jobs, fuel=10) == [SAT.run_direct(p, x, 10) for p, x in jobs]
    finally:
        process.close()
    stats = {"hits": 1, "misses": 1, "size": 1}
    assert serial.last_cache_stats == process.last_cache_stats == stats


def test_run_jobs_matches_run_direct_and_shares_duplicates():
    jobs = [(2, 5), (3, 5), (2, 5), (2, 7)]
    results = run_jobs(SCALE, jobs, backend="serial")
    assert results == [SCALE.run_direct(p, x, 10_000) for p, x in jobs]
    assert results[0] is results[2]  # interned duplicates share one object
    assert results[0] is not results[3]


def test_run_jobs_accepts_workload_by_kind():
    from repro.machines.turing import binary_increment

    machine = binary_increment()
    results = run_jobs("machines", [(machine, "101")])
    assert results == [machine.run("101", fuel=10_000)]


def test_run_jobs_reuses_caller_backend_without_closing_it():
    backend = SerialBackend(SCALE)
    run_jobs(SCALE, [(2, 1)], backend=backend)
    assert backend.last_dispatch["jobs"] == 1  # same instance did the work


def test_run_jobs_shared_cache_carries_residents_across_calls():
    backend = SerialBackend(SCALE)
    run_jobs(SCALE, [(2, 1)], backend=backend)
    run_jobs(SCALE, [(2, 9)], backend=backend)
    cache = backend.residents
    assert cache.hits == 1 and cache.misses == 1


class CountingScale(ScaleWorkload):
    """The scale adapter, counting ``prepare`` calls per program."""

    kind = "scale-count-test"

    def __init__(self) -> None:
        self.prepared: dict[int, int] = {}

    def prepare(self, program: int) -> int:
        self.prepared[program] = self.prepared.get(program, 0) + 1
        return super().prepare(program)


def test_serial_backend_keeps_its_residents():
    """One backend prepares each distinct program once, whether its
    jobs arrive through ``execute``, ``submit_chunk`` or a Session's
    one-job flushes."""
    workload = register_workload(CountingScale())
    backend = SerialBackend(workload)
    assert backend.execute([(2, 1), (3, 1)], fuel=10) == [
        ScaleResult(4),
        ScaleResult(6),
    ]
    backend.execute([(2, 2), (4, 1)], fuel=10)
    results, _, _ = backend.submit_chunk([(3, 2), (5, 1)], fuel=10).result()
    assert results == [ScaleResult(12), ScaleResult(10)]
    backend.submit_chunk([(4, 2), (5, 2)], fuel=10).result()
    with Session(backend) as session:
        for job in [(2, 3), (5, 3), (6, 1)]:
            future = session.submit(workload.kind, job, fuel=10)
            assert future.result(timeout=30) == ScaleResult(job[0] * 2 * job[1])
        assert session.stats()["executed_jobs"] == 3
    assert workload.prepared == {2: 1, 3: 1, 4: 1, 5: 1, 6: 1}


# -- run_jobs: observability -------------------------------------------------


def test_runtime_metrics_are_registered():
    for name in ("runtime_jobs_total", "runtime_unique_jobs_total", "runtime_cost_total"):
        assert name in KNOWN_METRICS
        kind, help_text = KNOWN_METRICS[name]
        assert kind == "counter" and help_text


def test_run_jobs_emits_workload_labelled_metrics():
    jobs = [(2, 5), (3, 5), (2, 5)]
    with observed() as obs:
        run_jobs(SCALE, jobs, backend="serial")
    reg = obs.registry
    labels = {"workload": "scale-test", "backend": "serial"}
    assert reg.value("runtime_jobs_total", **labels) == 3
    assert reg.value("runtime_unique_jobs_total", **labels) == 2
    assert reg.value("runtime_cost_total", **labels) == 3.0  # cost defaults to 1/job


def test_run_jobs_emits_dispatch_summary_event_with_workload():
    with observed() as obs:
        run_jobs(SCALE, [(2, 5), (2, 5)], backend="serial")
    (tree,) = [t for t in obs.tracer.span_trees() if t["name"] == "runtime.run_jobs"]
    assert tree["attributes"]["workload"] == "scale-test"
    assert tree["attributes"]["backend"] == "serial"
    events = [e for e in tree["events"] if e["name"] == "runtime.dispatch_summary"]
    assert len(events) == 1
    attrs = events[0]["attributes"]
    assert attrs["workload"] == "scale-test"
    assert attrs["jobs"] == 2 and attrs["unique_jobs"] == 1 and attrs["deduped"] == 1


# -- the process backend, generically ----------------------------------------


def test_process_backend_binds_workload_and_matches_serial():
    jobs = [(2, i % 3) for i in range(8)] + [(5, 4), (2, 1)]
    expected = run_jobs(SCALE, jobs, backend="serial")
    backend = ProcessBackend(SCALE, workers=2)
    try:
        backend.warm(jobs=jobs)
        assert backend.workload is SCALE
        got = run_jobs(SCALE, jobs, backend=backend)
        assert got == expected
        # Warm memo: the second call never touches the pool.
        again = run_jobs(SCALE, jobs, backend=backend)
        assert again == expected
        assert backend.last_dispatch["memo_hits"] == len(jobs)
    finally:
        backend.close()


@pytest.mark.parametrize(
    "name,kwargs",
    [
        pytest.param("process", {"workers": 2}, id="process"),
        pytest.param(
            "dist",
            {"nodes": 2, "topology": "single_node", "workers_per_node": 0},
            id="dist",
        ),
    ],
)
def test_batch_larger_than_program_table_matches_serial(name, kwargs):
    """A batch with more distinct programs than the registry keeps
    between batches (4096) must still resolve every id it uses."""
    from repro.machines.busybeaver import enumerate_machines

    jobs = [(machine, "") for machine in enumerate_machines(3, 5000)]
    expected = run_jobs("machines", jobs, fuel=64)
    backend = create_backend(name, workload="machines", **kwargs)
    try:
        assert run_jobs("machines", jobs, fuel=64, backend=backend) == expected
    finally:
        backend.close()


def test_dist_chunk_on_the_wire_cannot_be_cancelled():
    """A retired hedge twin (or an unwinding dispatch loop) cancels
    futures; a dist chunk already sent must refuse, so its reply lands
    normally instead of racing into a cancelled future."""
    from repro.machines.turing import binary_increment, copier

    jobs = [(binary_increment(), "1011"), (copier(), "111")]
    backend = create_backend(
        "dist", workload="machines", nodes=2, topology="single_node", workers_per_node=0
    )
    try:
        future = backend.submit_chunk(jobs, fuel=1_000)
        assert not future.cancel()
        results, _, _ = future.result(timeout=30)
        assert results == run_jobs("machines", jobs, fuel=1_000)
        assert backend.duplicate_results == 0
    finally:
        backend.close()


def test_supervised_backend_by_name_carries_workload():
    backend = create_backend("supervised", workload=SCALE, inner="serial")
    try:
        assert backend.workload is SCALE
        jobs = [(2, 3), (2, 3), (4, 1)]
        assert backend.execute(jobs, fuel=10) == [
            ScaleResult(12),
            ScaleResult(12),
            ScaleResult(8),
        ]
    finally:
        backend.close()


# -- composite chain validation (full-chain error naming, ordering) ----------


def test_composite_error_names_full_requested_chain():
    """A typo deep in a chain points at the string the caller wrote."""
    with pytest.raises(ValueError, match=r"'journaled:supervised:dost'"):
        create_backend("journaled:supervised:dost", workload="machines")
    with pytest.raises(ValueError, match=r"'process:serial'"):
        create_backend("process:serial", workload="machines")


def test_supervised_cannot_wrap_another_wrapper():
    """Ordering matters: 'supervised' drives submit_chunk, which the
    wrapper backends do not expose — the error spells out the fix."""
    with pytest.raises(ValueError) as err:
        create_backend("supervised:journaled", workload="machines")
    message = str(err.value)
    assert "'supervised:journaled'" in message  # the full requested chain
    assert "journaled:supervised:" in message  # the valid ordering


def test_journaled_supervised_dist_chain_composes(tmp_path):
    jobs = [(3, 2), (4, 1), (3, 2), (5, 5)]
    expected = run_jobs(SCALE, jobs, backend="serial")
    backend = create_backend(
        "journaled:supervised:dist",
        workload=SCALE,
        journal_dir=tmp_path,
        nodes=2,
        topology="single_node",
        workers_per_node=0,
    )
    try:
        assert run_jobs(SCALE, jobs, backend=backend) == expected
    finally:
        backend.close()


# -- idempotent close across every backend -----------------------------------

CLOSE_SPECS = [
    pytest.param("serial", {}, id="serial"),
    pytest.param("process", {"workers": 2}, id="process"),
    pytest.param("supervised", {"inner": "serial"}, id="supervised"),
    pytest.param("ensemble", {}, id="ensemble"),
    pytest.param("journaled:serial", {}, id="journaled"),
    pytest.param(
        "dist",
        {"nodes": 2, "topology": "single_node", "workers_per_node": 0},
        id="dist",
    ),
]


@pytest.mark.parametrize("spec,kwargs", CLOSE_SPECS)
def test_backend_close_is_idempotent(spec, kwargs, tmp_path):
    if spec.startswith("journaled"):
        kwargs = dict(kwargs, journal_dir=tmp_path)
    backend = create_backend(spec, workload="machines", **kwargs)
    backend.close()
    backend.close()  # double close is a no-op by the shared guard


def test_compiled_knob_is_gone(tmp_path):
    """Every job runs prepared, on ``run_direct`` only when ``prepare``
    refuses it; no entry point takes a ``compiled=`` switch."""
    from repro.machines.turing import binary_increment
    from repro.perf.batch import run_many

    jobs = [(binary_increment(), "1")]
    with pytest.raises(TypeError):
        run_jobs("machines", jobs, compiled=True)
    with pytest.raises(TypeError):
        run_many(jobs, compiled=True)
    with Session("serial") as session:
        with pytest.raises(TypeError):
            session.submit("machines", jobs[0], compiled=True)
        with pytest.raises(TypeError):
            session.execute("machines", jobs, compiled=True)
    assert {param.values[0].split(":")[0] for param in CLOSE_SPECS} == set(BACKENDS)
    for param in CLOSE_SPECS:
        spec, kwargs = param.values
        if spec.startswith("journaled"):
            kwargs = dict(kwargs, journal_dir=tmp_path)
        backend = create_backend(spec, workload="machines", **kwargs)
        try:
            with pytest.raises(TypeError):
                backend.execute(jobs, fuel=10, compiled=True)
        finally:
            backend.close()


def test_process_backend_close_execute_close_reopens():
    """The close guard resets when the pool lazily rebuilds."""
    from repro.machines.turing import binary_increment

    backend = create_backend("process", workload="machines", workers=2)
    jobs = [(binary_increment(), "11")]
    try:
        backend.close()
        first = backend.execute(jobs, fuel=1_000)
        backend.close()  # must actually release the rebuilt pool
        again = backend.execute(jobs, fuel=1_000)
        assert [r.tape for r in again] == [r.tape for r in first]
    finally:
        backend.close()

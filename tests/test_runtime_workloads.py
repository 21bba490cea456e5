"""Property tests for the runtime's workload adapters.

The load-bearing contract of the narrow waist: for **every** adapter,
every backend returns exactly what the adapter's own ``run_direct``
would — the runtime changes the cost, never the answer.  Hypothesis
drives job plans (with duplicates, so the interning/dedup path is always
in play) through ``SerialBackend``, a persistent warm ``ProcessBackend``
and ``SupervisedBackend``, and the chaos harness must converge to the
same results for non-TM workloads too.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.complexity.sat import CNF, dpll_sat
from repro.faults.chaos import ChaosBackend, ChaosSchedule
from repro.faults.supervisor import SupervisedBackend, SupervisorPolicy
from repro.machines.busybeaver import busy_beaver_machine, score_sweep
from repro.machines.turing import (
    binary_increment,
    copier,
    palindrome_checker,
    unary_adder,
)
from repro.machines.universal import UniversalMachine, encode_tm
from repro.perf.sat_engine import CompiledSat
from repro.runtime import ProcessBackend, SerialBackend, run_jobs
from repro.runtime.workloads.busybeaver import BBScore, BUSYBEAVER
from repro.runtime.workloads.complang import COMPLANG, complang_job
from repro.runtime.workloads.machines import ENCODED_MACHINES, MACHINES
from repro.runtime.workloads.sat import SAT, sat_input, sat_job

FUEL = 10_000

# -- concrete job pools, one per adapter -------------------------------------

_TM_POOL = [
    (binary_increment(), "1011"),
    (palindrome_checker(), "abba"),
    (copier(), "111"),
    (unary_adder(), "11"),
    (binary_increment(), "111"),
]

_ENCODED_POOL = [(encode_tm(machine), tape) for machine, tape in _TM_POOL]

_COMPLANG_SOURCES = [
    "s = 0; while n > 0 { s = s + n; n = n - 1; } print s;",
    "x = n * n + 1; print x;",
    "if n > 2 { print n; } else { print 0; }",
]
_COMPLANG_POOL = [
    complang_job(src, {"n": n}) for src in _COMPLANG_SOURCES for n in (0, 3)
]

_SAT_POOL = [
    sat_job(CNF.of([(1, 2), (-1, 2), (1, -2)])),
    sat_job(CNF.of([(1,), (-1,)])),  # unsatisfiable
    sat_job(CNF.of([(1, 2, 3), (-1, -2), (2, 3), (-3, 1)]), unit_propagation=False),
    sat_job(CNF.of([(1, 2), (-1, 2), (1, -2)]), pure_literals=False),
    # Repeated and complementary literals: (1, 1) is no unit.
    sat_job(CNF.of([(1, 1), (-1, 2, -1), (2, -2, 3), (-3, -3, 1)])),
]

_BB_POOL = [(busy_beaver_machine(n), "") for n in (1, 2, 3, 4)]

CASES = [
    pytest.param(MACHINES, _TM_POOL, id="machines"),
    pytest.param(ENCODED_MACHINES, _ENCODED_POOL, id="encoded_machines"),
    pytest.param(COMPLANG, _COMPLANG_POOL, id="complang"),
    pytest.param(SAT, _SAT_POOL, id="sat"),
    pytest.param(BUSYBEAVER, _BB_POOL, id="busybeaver"),
]


def direct(workload, jobs):
    """The semantic oracle: the adapter's own per-job path."""
    return [workload.run_direct(program, input, FUEL) for program, input in jobs]


# Indices into a pool, taken modulo its size: 0-4 reaches every entry
# of the five-entry pools.
plans = st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=10)


# -- serial and supervised backends match run_direct -------------------------


@pytest.mark.parametrize("workload,pool", CASES)
@settings(max_examples=25, deadline=None)
@given(plan=plans)
def test_serial_matches_direct(workload, pool, plan):
    jobs = [pool[i % len(pool)] for i in plan]
    assert run_jobs(workload, jobs, fuel=FUEL) == direct(workload, jobs)


@pytest.mark.parametrize("workload,pool", CASES)
@settings(max_examples=10, deadline=None)
@given(plan=plans)
def test_supervised_matches_direct(workload, pool, plan):
    jobs = [pool[i % len(pool)] for i in plan]
    backend = SupervisedBackend(
        inner=SerialBackend(workload), policy=SupervisorPolicy(chunksize=3)
    )
    try:
        assert run_jobs(workload, jobs, fuel=FUEL, backend=backend) == direct(
            workload, jobs
        )
        assert backend.last_report.quarantined == []
    finally:
        backend.close()


# -- warm process pools match run_direct -------------------------------------

# One persistent pool per adapter serves every Hypothesis example —
# crossing examples through a warm pool *is* the property under test.
_POOLS: dict[str, ProcessBackend] = {}


def _pool_backend(workload) -> ProcessBackend:
    backend = _POOLS.get(workload.kind)
    if backend is None:
        backend = _POOLS[workload.kind] = ProcessBackend(workload, workers=2)
    return backend


def teardown_module():
    for backend in _POOLS.values():
        backend.close()


@pytest.mark.parametrize("workload,pool", CASES)
@settings(max_examples=5, deadline=None)
@given(plan=plans)
def test_warm_process_matches_direct(workload, pool, plan):
    jobs = [pool[i % len(pool)] for i in plan]
    backend = _pool_backend(workload)
    assert run_jobs(workload, jobs, fuel=FUEL, backend=backend) == direct(
        workload, jobs
    )


# -- interning/dedup: equal jobs share one result object ---------------------


@pytest.mark.parametrize("workload,pool", CASES)
def test_duplicate_jobs_share_one_result(workload, pool):
    jobs = [pool[0], pool[1], pool[0]]
    results = run_jobs(workload, jobs, fuel=FUEL)
    assert results[0] is results[2]
    assert results == direct(workload, jobs)


def test_dedup_matches_by_content_not_identity():
    # A freshly-built equal job (new machine object, new string) still
    # dedups: content keys, not object identity.
    jobs = [(binary_increment(), "10" + "1"), (binary_increment(), "101")]
    results = run_jobs(MACHINES, jobs, fuel=FUEL)
    assert results[0] is results[1]


# -- chaos == clean for non-TM workloads (supervision is workload-generic) ---


@pytest.mark.parametrize(
    "workload,pool",
    [
        pytest.param(COMPLANG, _COMPLANG_POOL, id="complang"),
        pytest.param(SAT, _SAT_POOL, id="sat"),
        pytest.param(BUSYBEAVER, _BB_POOL, id="busybeaver"),
    ],
)
def test_supervised_chaos_equals_clean(workload, pool):
    jobs = list(pool) + [pool[0], pool[-1]]  # duplicates ride along
    clean = direct(workload, jobs)
    schedule = ChaosSchedule(kinds={0: "crash", 2: "corrupt", 4: "crash"})
    inner = ChaosBackend(SerialBackend(workload), schedule=schedule)
    backend = SupervisedBackend(
        inner=inner, policy=SupervisorPolicy(chunksize=2, max_chunk_retries=3)
    )
    try:
        assert run_jobs(workload, jobs, fuel=FUEL, backend=backend) == clean
        report = backend.last_report
        assert report.retries >= 1  # the faults really fired
        assert report.quarantined == []
    finally:
        backend.close()


def test_poison_quarantined_by_content_key_including_duplicate_slots():
    poison_src = "boom = n; print boom;"
    jobs = [
        _COMPLANG_POOL[0],
        complang_job(poison_src, {"n": 7}),
        _COMPLANG_POOL[1],
        # Equal content built from fresh objects: matching is by the
        # adapter's content_key, not identity.
        complang_job("boom = n; print " + "boom;", {"n": 7}),
        _COMPLANG_POOL[2],
    ]
    clean = direct(COMPLANG, jobs)
    inner = ChaosBackend(
        SerialBackend(COMPLANG), poison_jobs=[complang_job(poison_src, {"n": 7})]
    )
    backend = SupervisedBackend(
        inner=inner, policy=SupervisorPolicy(chunksize=2, max_chunk_retries=1)
    )
    try:
        results = run_jobs(COMPLANG, jobs, fuel=FUEL, backend=backend)
        assert results[1] is None and results[3] is None
        assert [results[i] for i in (0, 2, 4)] == [clean[i] for i in (0, 2, 4)]
        report = backend.last_report
        assert report.quarantined_indices == [1, 3]
        for letter in report.quarantined:
            assert COMPLANG.content_key(letter.job) == COMPLANG.content_key(jobs[1])
    finally:
        backend.close()


# -- the sat adapter: prepare compiles, run_direct is the reference ----------


def test_sat_prepare_compiles_the_formula():
    assert isinstance(SAT.prepare(CNF.of([(1, -2), (2,)])), CompiledSat)


def test_sat_empty_clause_runs_on_the_reference():
    formula = CNF(((1, 2), ()))
    with pytest.raises(ValueError):
        SAT.prepare(formula)
    with pytest.raises(Exception) as reference:
        dpll_sat(formula)
    with pytest.raises(Exception) as runtime:
        run_jobs("sat", [sat_job(formula)], fuel=FUEL)
    assert type(runtime.value) is type(reference.value)


def test_sat_option_sweep_shares_one_compilation(monkeypatch):
    formula = CNF.of([(1, 2, 3), (-1, -2), (2, 3), (-3, 1), (-2, -3)])
    jobs = [
        (formula, sat_input(unit_propagation=up, pure_literals=pl))
        for up in (True, False)
        for pl in (True, False)
    ]
    prepared = []
    prepare = SAT.prepare

    def counting_prepare(program):
        prepared.append(program)
        return prepare(program)

    monkeypatch.setattr(SAT, "prepare", counting_prepare)
    backend = SerialBackend(SAT)
    try:
        # Two calls on one backend: the second reuses the first's resident.
        results = run_jobs(SAT, jobs[:2], fuel=FUEL, backend=backend)
        results += run_jobs(SAT, jobs[2:], fuel=FUEL, backend=backend)
    finally:
        backend.close()
    assert prepared == [formula]
    assert results == direct(SAT, jobs)


# -- consumers routed through the runtime ------------------------------------


def test_universal_run_batch_matches_run():
    um = UniversalMachine(compiled=True)
    jobs = [(desc, tape) for desc, tape in _ENCODED_POOL] + [_ENCODED_POOL[0]]
    expected = [um.run(desc, tape, fuel=FUEL) for desc, tape in jobs]
    assert um.run_batch(jobs, fuel=FUEL) == expected


def test_score_sweep_matches_reference_scores():
    machines = [busy_beaver_machine(n) for n in (3, 2, 3, 1)]
    scores = score_sweep(machines, fuel=FUEL)
    for machine, got in zip(machines, scores):
        result = machine.run("", fuel=FUEL)
        assert got == BBScore(
            ones=result.tape.count("1"), steps=result.steps, halted=result.halted
        )
    assert scores[0] is scores[2]  # equal candidates intern to one score

"""Tests for the ensemble backend: lock-step exactness against the
per-machine reference, content interning, fault recovery, and the
deterministic machine enumerator."""

import gc
import pickle
import random
import weakref
from collections import defaultdict

import pytest

from repro.faults.chaos import ChaosBackend, ChaosSchedule
from repro.faults.supervisor import SupervisedBackend, SupervisorPolicy
from repro.machines.busybeaver import (
    busy_beaver_machine,
    enumerate_machines,
    halting_survey,
    score_sweep,
)
from repro.machines.turing import (
    BLANK,
    TuringMachine,
    binary_increment,
    copier,
    palindrome_checker,
    unary_adder,
)
from repro.obs.instrument import observed
from repro.perf import ensemble_engine
from repro.perf.engine import program_key
from repro.perf.ensemble_engine import (
    EnsembleIneligible,
    compile_family,
    lower_machine,
    run_family,
)
from repro.runtime import ensemble, run_jobs
from repro.runtime.ensemble import EnsembleBackend
from repro.runtime.workloads.busybeaver import BUSYBEAVER
from repro.runtime.workloads.machines import MACHINES

FUEL = 128


def family_jobs(n, pop, seed, input=""):
    return [(m, input) for m in enumerate_machines(n, pop, seed=seed)]


def reference(workload, jobs, fuel=FUEL):
    return [workload.run_direct(program, input, fuel) for program, input in jobs]


LIBRARY = [binary_increment, palindrome_checker, unary_adder, copier]


def _renamed(machine, suffix):
    """The machine with every state renamed; each occurrence of a name
    is its own ``str`` object, equal to the others but not identical."""

    def n(state):
        return state + suffix

    return TuringMachine(
        delta={(n(s), c): (n(t), w, m) for (s, c), (t, w, m) in machine.delta.items()},
        initial=n(machine.initial),
        accept_states=frozenset(n(s) for s in machine.accept_states),
        reject_states=frozenset(n(s) for s in machine.reject_states),
    )


# -- the enumerator ----------------------------------------------------------


def test_enumerate_machines_deterministic():
    a = enumerate_machines(3, 50, seed=11)
    b = enumerate_machines(3, 50, seed=11)
    assert len(a) == 50
    assert [BUSYBEAVER.program_key(m) for m in a] == [
        BUSYBEAVER.program_key(m) for m in b
    ]
    c = enumerate_machines(3, 50, seed=12)
    assert [BUSYBEAVER.program_key(m) for m in a] != [
        BUSYBEAVER.program_key(m) for m in c
    ]


def test_enumerate_machines_distinct():
    machines = enumerate_machines(2, 300, seed=5)
    keys = {BUSYBEAVER.program_key(m) for m in machines}
    assert len(keys) == 300


def test_enumerate_machines_exhaustive_small_space():
    # n=1: base 4*(1+1)=8 choices per slot, 2 slots -> 64 machines total.
    machines = enumerate_machines(1, 64, seed=0)
    assert len(machines) == 64
    assert len({BUSYBEAVER.program_key(m) for m in machines}) == 64
    # Covering limit ignores the seed: canonical order is canonical.
    again = enumerate_machines(1, 10_000, seed=99)
    assert [BUSYBEAVER.program_key(m) for m in machines] == [
        BUSYBEAVER.program_key(m) for m in again
    ]


def test_enumerate_machines_structure():
    for machine in enumerate_machines(2, 20, seed=3):
        assert machine.initial == "A"
        assert machine.accept_states == frozenset({"Z"})
        assert set(machine.delta) == {(s, c) for s in "AB" for c in (BLANK, "1")}


def test_enumerate_machines_validation():
    with pytest.raises(ValueError):
        enumerate_machines(0, 10)
    with pytest.raises(ValueError):
        enumerate_machines(26, 10)
    with pytest.raises(ValueError):
        enumerate_machines(2, -1)


# -- lock-step exactness (the property the whole engine stands on) ----------


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [2, 3])
def test_ensemble_matches_reference_over_random_families(n, seed):
    """Verdicts, scores and step counts equal run_direct exactly —
    including never-halters (fuel exhaustion) and tape escapers."""
    jobs = family_jobs(n, 120, seed)
    expected = reference(BUSYBEAVER, jobs)
    got = run_jobs("busybeaver", jobs, fuel=FUEL, backend="ensemble")
    assert got == expected
    # The family must exercise the honest trichotomy, not just halters.
    assert any(r.halted for r in expected)
    assert any(not r.halted for r in expected)


def test_ensemble_matches_reference_full_results():
    """The machines adapter returns full TMResults: tapes and final
    states from the lock-step arrays equal the reference renderer."""
    jobs = family_jobs(3, 80, seed=7, input="11")
    expected = reference(MACHINES, jobs)
    got = run_jobs("machines", jobs, fuel=FUEL, backend="ensemble")
    assert got == expected


@pytest.mark.parametrize("fuel", [0, 1, 2, 107])
def test_ensemble_fuel_edges(fuel):
    jobs = family_jobs(2, 60, seed=9) + [(busy_beaver_machine(4), "")]
    expected = [BUSYBEAVER.run_direct(m, i, fuel) for m, i in jobs]
    assert run_jobs("busybeaver", jobs, fuel=fuel, backend="ensemble") == expected


def test_ensemble_window_escapers_grow_exactly():
    """Machines that run off either side of the seed window force
    window reallocation; results stay identical to the reference."""
    runner = {("A", BLANK): ("A", "1", "L")}  # escapes left forever
    walker = {("A", BLANK): ("B", "1", "R"), ("B", BLANK): ("A", BLANK, "R")}
    escapers = [
        TuringMachine(delta=runner, initial="A", accept_states=frozenset({"Z"})),
        TuringMachine(delta=walker, initial="A", accept_states=frozenset({"Z"})),
    ]
    jobs = [(m, "") for m in escapers] * 10 + family_jobs(2, 40, seed=4)
    expected = reference(BUSYBEAVER, jobs, fuel=512)
    assert run_jobs("busybeaver", jobs, fuel=512, backend="ensemble") == expected


def test_engine_outcome_reports_growth():
    runner = TuringMachine(
        delta={("A", BLANK): ("A", "1", "L")},
        initial="A",
        accept_states=frozenset({"Z"}),
    )
    assert lower_machine(runner).population == 1
    family, rows = compile_family([(runner, "")] * 20)
    assert rows == list(range(20))
    outcome = run_family(family, fuel=200)
    assert outcome.grows > 0
    assert not outcome.halted.any()
    assert (outcome.steps == 200).all()
    # The family is left untouched, so it runs again to the same tapes.
    again = run_family(family, fuel=200)
    assert (again.tape == outcome.tape).all()
    assert again.tape_string(0) == runner.run("", fuel=200).tape


def test_count_symbol_matches_rendered_tapes():
    """The vectorised count equals counting the rendered tape, for
    symbols in a row's alphabet, input-only extras and absent ones."""
    jobs = []
    for n, tape in ((2, ""), (2, "1x1"), (3, "+11"), (3, "x")):
        jobs += family_jobs(n, 30, seed=n, input=tape)
    jobs += [(copier(), "111"), (unary_adder(), "11+1")]
    family, rows = compile_family(jobs)
    assert rows == list(range(len(jobs)))
    outcome = run_family(family, fuel=FUEL)
    for char in "1x+q":
        expected = [outcome.tape_string(r).count(char) for r in range(len(jobs))]
        assert outcome.count_symbol(char).tolist() == expected
    with pytest.raises(ValueError):
        outcome.count_symbol(BLANK)


def test_sparse_ranking_lowers_identically(monkeypatch):
    """Past the dense-matrix budget names are ranked from a sorted
    pair list instead; the lowered family is the same array for array."""
    renamed = [_renamed(make(), f"_{i}") for i, make in enumerate(LIBRARY * 3)]
    jobs = [(machine, tape) for machine in renamed for tape in ("", "1011", "ab")]
    jobs += family_jobs(3, 60, seed=3, input="1x")
    dense, rows = compile_family(jobs, max_symbols=8)
    monkeypatch.setattr(ensemble_engine, "_DENSE_CELLS", 0)
    sparse, sparse_rows = compile_family(jobs, max_symbols=8)
    assert sparse_rows == rows
    for name in ("table", "accept", "initial", "tape", "head", "alphabet"):
        assert (getattr(sparse, name) == getattr(dense, name)).all(), name
    assert pickle.dumps(
        EnsembleBackend(MACHINES, max_symbols=8).execute(jobs, fuel=FUEL)
    ) == pickle.dumps(run_jobs("machines", jobs, fuel=FUEL, backend="serial"))


def _mixed_family():
    jobs = []
    for n in range(1, 5):
        machines = enumerate_machines(n, 24, seed=n)
        for tape in ("", "1", "11_1", "1x1"):
            jobs += [(m, tape) for m in machines]
    for make in LIBRARY:
        for suffix in ("_p", "_q"):
            machine = _renamed(make(), suffix)
            jobs += [(machine, tape) for tape in ("", "1", "11+1", "1011", "abba", "1x1")]
    return jobs


@pytest.mark.parametrize("fuel", [0, 1, 7, 64, 300])
@pytest.mark.parametrize(
    "caps",
    [{}, {"max_states": 4}, {"max_symbols": 3}, {"min_population": 1}],
    ids=["default", "max_states=4", "max_symbols=3", "min_population=1"],
)
def test_machines_results_pickle_identical_to_serial(caps, fuel):
    """Full TMResults (tapes, final-state ``str`` objects) pickle to
    the same bytes as the serial runtime's: enumerated families on
    several inputs, renamed library machines with reject states,
    ``+``/``x`` symbols and state names held in distinct ``str``
    objects, under caps that split the batch between both paths."""
    jobs = _mixed_family()
    serial = run_jobs("machines", jobs, fuel=fuel, backend="serial")
    backend = EnsembleBackend(MACHINES, **caps)
    assert pickle.dumps(backend.execute(jobs, fuel=fuel)) == pickle.dumps(serial)
    assert backend.last_dispatch["ensemble_jobs"] > 0


def test_content_equal_machines_results_pickle_identical_to_serial():
    """Content-equal but distinct machines on different inputs in one
    batch: each job's final-state ``str`` comes from the first machine
    with that content, as on the serial path's one resident per key."""
    jobs = []
    for n in range(20):
        make = LIBRARY[n % len(LIBRARY)]
        first, second = _renamed(make(), f"_{n}"), _renamed(make(), f"_{n}")
        jobs += [(first, "1"), (second, "11"), (first, "101"), (second, "")]
    serial = run_jobs("machines", jobs, fuel=FUEL, backend="serial")
    backend = EnsembleBackend(MACHINES)
    assert pickle.dumps(backend.execute(jobs, fuel=FUEL)) == pickle.dumps(serial)
    assert backend.last_dispatch["ensemble_jobs"] > 0


# -- interning: equal jobs share one result object ---------------------------


def test_ensemble_interns_equal_jobs():
    machines = enumerate_machines(3, 40, seed=2)
    jobs = [(m, "") for m in machines] + [(machines[4], ""), (machines[8], "")]
    backend = EnsembleBackend(BUSYBEAVER)
    results = backend.execute(jobs, fuel=FUEL)
    assert results[40] is results[4]
    assert results[41] is results[8]
    assert backend.last_dispatch["unique_jobs"] == 40
    assert backend.last_dispatch["deduped"] == 2


# -- fallback routing --------------------------------------------------------


def test_ineligible_machines_fall_back_exactly():
    """Machines over the state cap mix into the family untouched: the
    ensemble runs what fits, the warm compiled path runs the rest."""
    jobs = family_jobs(3, 50, seed=6)
    backend = EnsembleBackend(BUSYBEAVER, max_states=2)  # 3-state: ineligible
    assert backend.execute(jobs, fuel=FUEL) == reference(BUSYBEAVER, jobs)
    assert backend.last_dispatch["fallback_jobs"] == 50
    assert backend.last_dispatch["ensemble_jobs"] == 0


def test_fallback_residents_persist_across_executes(monkeypatch):
    """The fallback loop prepares each program once per backend, not
    once per call, and ``close()`` drops what it prepared."""
    prepared = []
    prepare = type(BUSYBEAVER).prepare

    def counting_prepare(self, program):
        prepared.append(program)
        return prepare(self, program)

    monkeypatch.setattr(type(BUSYBEAVER), "prepare", counting_prepare)
    jobs = family_jobs(3, 40, seed=6)
    backend = EnsembleBackend(BUSYBEAVER, max_states=2)  # 3-state: all fall back
    first = backend.execute(jobs, fuel=FUEL)
    second = backend.execute(jobs, fuel=FUEL)
    assert first == second == reference(BUSYBEAVER, jobs)
    assert len(prepared) == 40
    assert backend.last_cache_stats["misses"] == 0
    assert backend.last_cache_stats["size"] == 40
    backend.close()
    assert len(backend.residents) == 0


def test_cache_stats_count_each_job_once():
    """A job is one hit or one miss: an ineligible machine is not also
    counted as a miss of the lowering it could not join."""
    jobs = family_jobs(3, 40, seed=6)
    backend = EnsembleBackend(BUSYBEAVER, max_states=2)  # 3-state: all fall back
    backend.execute(jobs, fuel=FUEL)
    assert (backend.last_cache_stats["hits"], backend.last_cache_stats["misses"]) == (0, 40)
    backend.execute(jobs, fuel=FUEL)
    assert (backend.last_cache_stats["hits"], backend.last_cache_stats["misses"]) == (40, 0)
    # Mixed: 40 rows lock-step, one exotic input falls back, one repeats.
    mixed = family_jobs(2, 40, seed=8)
    mixed += [(mixed[0][0], "xyz"), mixed[1]]
    backend = EnsembleBackend(BUSYBEAVER, max_symbols=2)
    for _ in range(2):
        backend.execute(mixed, fuel=FUEL)
        stats = backend.last_cache_stats
        assert stats["hits"] + stats["misses"] == len(mixed)


def test_exotic_input_falls_back_exactly():
    """An input symbol outside the symbol budget keeps that one job on
    the fallback path while the rest of the family lock-steps."""
    jobs = family_jobs(2, 40, seed=8)
    exotic = [(jobs[0][0], "xyz")]
    backend = EnsembleBackend(BUSYBEAVER, max_symbols=2)
    got = backend.execute(jobs + exotic, fuel=FUEL)
    assert got == reference(BUSYBEAVER, jobs + exotic)
    assert backend.last_dispatch["fallback_jobs"] == 1
    assert backend.last_dispatch["ensemble_jobs"] == 40


def test_min_population_routes_small_batches_to_fallback():
    jobs = family_jobs(2, 30, seed=1)
    backend = EnsembleBackend(BUSYBEAVER, min_population=1000)
    assert backend.execute(jobs, fuel=FUEL) == reference(BUSYBEAVER, jobs)
    assert backend.last_dispatch["ensemble_jobs"] == 0
    assert backend.last_dispatch["fallback_jobs"] == 30


def test_straggler_cutoff_reruns_abandoned_rows_exactly():
    """An aggressive cutoff abandons the long tail mid-flight; the
    rerun through the per-machine path keeps results exact."""
    jobs = family_jobs(3, 80, seed=3)
    backend = EnsembleBackend(BUSYBEAVER, straggler_cutoff=40)
    assert backend.execute(jobs, fuel=FUEL) == reference(BUSYBEAVER, jobs)


def test_incapable_workload_rejected():
    from repro.runtime.workloads.machines import ENCODED_MACHINES

    with pytest.raises(TypeError):
        EnsembleBackend(ENCODED_MACHINES)


def test_last_family_reused_only_for_the_same_machines():
    jobs = family_jobs(2, 40, seed=5)
    backend = EnsembleBackend(BUSYBEAVER)
    first = backend.execute(jobs, fuel=FUEL)
    assert backend.last_cache_stats["misses"] == 40
    # The very same machine objects: the last family runs again.
    second = backend.execute(jobs, fuel=FUEL)
    assert second == first
    assert pickle.dumps(second) == pickle.dumps(first)
    assert backend.last_cache_stats["hits"] == 40
    assert backend.last_cache_stats["misses"] == 0
    # Equal machines in new objects, or a changed input, re-lower.
    copies = pickle.loads(pickle.dumps(jobs))
    assert pickle.dumps(backend.execute(copies, fuel=FUEL)) == pickle.dumps(first)
    assert backend.last_cache_stats["misses"] == 40
    assert backend.last_cache_stats["hits"] == 0
    retaped = [(m, "1") for m, _ in copies]
    assert backend.execute(retaped, fuel=FUEL) == reference(BUSYBEAVER, retaped)
    assert backend.last_cache_stats["misses"] == 40
    # close() releases the family, and with it the machines.
    probe = weakref.ref(copies[0][0])
    del copies, retaped
    backend.close()
    gc.collect()
    assert probe() is None


# -- the engine's own guardrails ---------------------------------------------


def test_compile_family_caps():
    big = {("S%d" % i, BLANK): ("S%d" % (i + 1), "1", "R") for i in range(10)}
    machine = TuringMachine(delta=big, initial="S0", accept_states=frozenset())
    with pytest.raises(EnsembleIneligible):
        lower_machine(machine, max_states=4)
    assert compile_family([(machine, "")], max_states=4) == (None, [])
    assert lower_machine(machine).population == 1  # default caps admit it
    # Input symbols outside the alphabet extend it past the cap; an
    # input symbol the machine already has does not.
    family, rows = compile_family(
        [(machine, ""), (machine, "abcdef"), (machine, "1_1")], max_symbols=2
    )
    assert rows == [0, 2]
    # Programs that are not machines and inputs that are not strings
    # never join the family.
    assert compile_family([("S0", ""), (machine, 7), (machine, "")])[1] == [2]
    # State names of unlike types order only within their own machine,
    # so such a mix stays on the per-machine path, with exact results.
    numbered = TuringMachine(
        delta={(0, BLANK): (1, "1", "R")}, initial=0, accept_states=frozenset({1})
    )
    assert compile_family([(numbered, "")])[1] == [0]
    assert compile_family([(numbered, ""), (machine, "")]) == (None, [])
    mixed = [(numbered, ""), (machine, "")] * 10
    assert EnsembleBackend(MACHINES, min_population=1).execute(mixed, fuel=FUEL) == (
        reference(MACHINES, mixed)
    )


# -- supervision and fault recovery ------------------------------------------


def test_supervised_ensemble_survives_crashes():
    """A crashed chunk recovers through SupervisedBackend: it is retried
    after a restart and the census is unchanged."""
    jobs = family_jobs(3, 60, seed=13)
    expected = run_jobs("busybeaver", jobs, fuel=FUEL, backend="ensemble")
    inner = ChaosBackend(
        EnsembleBackend(BUSYBEAVER),
        schedule=ChaosSchedule(kinds={0: "crash"}),
    )
    backend = SupervisedBackend(
        inner=inner, policy=SupervisorPolicy(chunksize=30, max_chunk_retries=3)
    )
    try:
        got = backend.execute(jobs, fuel=FUEL)
        assert pickle.dumps(got) == pickle.dumps(expected)
        report = backend.last_report
        assert report.retries >= 1
        assert report.pool_restarts >= 1
        assert report.quarantined == []
    finally:
        backend.close()


def test_supervised_serial_ensemble_fault_free():
    jobs = family_jobs(2, 40, seed=14)
    backend = SupervisedBackend(
        inner=EnsembleBackend(BUSYBEAVER), policy=SupervisorPolicy(chunksize=20)
    )
    try:
        assert backend.execute(jobs, fuel=FUEL) == reference(BUSYBEAVER, jobs)
        assert backend.last_report.retries == 0
    finally:
        backend.close()


# -- the sweep front doors and observability ---------------------------------


def test_sweeps_default_to_ensemble_and_match_serial():
    machines = enumerate_machines(3, 60, seed=15)
    assert score_sweep(machines, fuel=FUEL) == score_sweep(
        machines, fuel=FUEL, backend="serial"
    )
    report = halting_survey(machines, fuel=FUEL, compiled=True)
    against = halting_survey(machines, fuel=FUEL, compiled=True, backend="serial")
    assert (report.halted, report.running) == (against.halted, against.running)
    assert report.total == 60


def test_ensemble_observability_counters():
    jobs = family_jobs(2, 40, seed=16)
    with observed() as obs:
        run_jobs("busybeaver", jobs, fuel=FUEL, backend="ensemble")
    assert obs.registry.total("ensemble_batches_total") == 1
    assert obs.registry.total("ensemble_machines_total") == 40
    assert obs.registry.total("ensemble_lock_steps_total") > 0
    assert obs.registry.total("ensemble_fallback_jobs_total") == 0


# -- keying in the lowering: groups instead of a program_key per job ---------


class _SubMachine(TuringMachine):
    """Equal content under another class: its key is never the base's."""


def _halting_variants(machine, suffix):
    """The renamed machine under several accept and reject sets, some
    naming states no rule reaches."""
    base = _renamed(machine, suffix)
    accept, reject = set(base.accept_states), set(base.reject_states)
    spare = {"halt" + suffix, "stop" + suffix}
    return [
        TuringMachine(base.delta, base.initial, frozenset(a), frozenset(r))
        for a, r in (
            (accept, reject),
            (accept | spare, reject),
            (accept, reject | spare),
            (accept | {"halt" + suffix}, reject | {"stop" + suffix, "fail" + suffix}),
        )
    ]


def _grouping_jobs(seed):
    rng = random.Random(seed)
    tapes = ("", "1", "11", "1x1", "ab", "1+1", "abcdefgh")
    jobs = []
    for n in (2, 3, 4):
        jobs += [(m, rng.choice(tapes)) for m in enumerate_machines(n, 12, seed=seed + n)]
    for i, make in enumerate(LIBRARY):
        for _ in range(2):  # content-equal copies whose names are distinct objects
            jobs += [(m, rng.choice(tapes)) for m in _halting_variants(make(), f"_{i}")]
    for machine, tape in rng.sample(jobs, 8):
        jobs.append((_SubMachine(machine.delta, machine.initial,
                                 machine.accept_states, machine.reject_states), tape))
    jobs += rng.sample(jobs, 20)  # the very same objects again
    jobs += pickle.loads(pickle.dumps(rng.sample(jobs, 20)))
    jobs += [(machine, rng.choice(tapes)) for machine, _ in rng.sample(jobs, 20)]
    rng.shuffle(jobs)
    return jobs


@pytest.mark.parametrize(
    "caps", [{}, {"max_states": 5, "max_symbols": 4}], ids=["default", "tight"]
)
@pytest.mark.parametrize("seed", range(4))
def test_family_groups_are_program_key_groups(seed, caps):
    """Two fitting jobs share a family row exactly when their
    ``(program_key(machine), input)`` are equal, and every job's
    ``job_first`` is the first job whose machine has its key: over
    same-object duplicates, pickled copies, renamed machines with
    several accept and reject states, a subclass and mixed inputs."""
    jobs = _grouping_jobs(seed)
    family, rows = compile_family(jobs, **caps)
    keys = [(program_key(m), tape) for m, tape in jobs]
    by_row, by_key = defaultdict(list), defaultdict(list)
    for j in rows:
        by_row[int(family.job_row[j])].append(j)
        by_key[keys[j]].append(j)
    assert sorted(by_row.values()) == sorted(by_key.values())
    assert family.population == len(by_row)
    assert any(len({id(jobs[j][0]) for j in group}) > 1 for group in by_row.values())
    first = {}
    for j, (machine, _) in enumerate(jobs):
        first.setdefault(program_key(machine), j)
    for j in rows:
        f = int(family.job_first[j])
        assert f == first[keys[j][0]]
        assert family.jobs[int(family.job_row[j])][0] is jobs[f][0]
    assert (family.job_row < 0).sum() == len(jobs) - len(rows)
    if caps:  # over the caps: some by their own machine, some by their input
        assert len(rows) < len(jobs)


def _count_keys(monkeypatch, workload):
    keyed = []
    key = type(workload).program_key

    def counting_key(self, program):
        keyed.append(program)
        return key(self, program)

    monkeypatch.setattr(type(workload), "program_key", counting_key)
    return keyed


def test_fitting_census_makes_no_program_key_calls(monkeypatch):
    """The lowering keys a census that fits: no ``program_key`` call
    through the backend or ``score_sweep``; ineligible jobs are the
    only ones keyed, and the results stay exact."""
    keyed = _count_keys(monkeypatch, BUSYBEAVER)
    machines = enumerate_machines(4, 200, seed=21)
    jobs = [(m, "") for m in machines]
    backend = EnsembleBackend(BUSYBEAVER)
    assert backend.execute(jobs, fuel=FUEL) == reference(BUSYBEAVER, jobs)
    assert backend.last_dispatch["ensemble_jobs"] == 200
    assert score_sweep(machines, fuel=FUEL) == score_sweep(machines, fuel=FUEL, backend="serial")
    del keyed[:]  # the serial sweep keys its own jobs
    score_sweep(machines, fuel=FUEL)
    assert keyed == []
    # 3-state machines fit under max_states=4; 5-state ones do not.
    small = family_jobs(3, 60, seed=22)
    big = family_jobs(4, 6, seed=23)
    mixed = small[:30] + big + small[30:] + big[:2]
    backend = EnsembleBackend(BUSYBEAVER, max_states=4)
    got = backend.execute(mixed, fuel=FUEL)
    assert {id(program) for program in keyed} == {id(m) for m, _ in big}
    assert got == reference(BUSYBEAVER, mixed)
    assert got[-2] is got[30] and got[-1] is got[31]
    assert backend.last_dispatch["fallback_jobs"] == 8
    assert backend.last_dispatch["unique_jobs"] == 66
    assert backend.last_dispatch["deduped"] == 2


def test_content_equal_machines_split_between_family_and_fallback():
    """Content-equal renamed machines, some on an input with too many
    symbols for the family or on a tape that is not a ``str``: every
    job decodes from the first machine with its content, whichever
    path ran it, as on the serial path."""
    jobs = []
    for n in range(24):
        make = LIBRARY[n % len(LIBRARY)]
        first, second = _renamed(make(), f"_state{n}"), _renamed(make(), f"_state{n}")
        if n % 3 == 0:  # the fallback job comes first
            jobs += [(second, "1a1b1+x"), (first, "1"), (second, "11"), (first, "")]
        elif n % 3 == 1:
            jobs += [(first, "1"), (second, "1a1b1+x"), (first, ""), (second, "11")]
        else:
            jobs += [(second, tuple("11")), (first, "1"), (second, ""), (first, "1a1b1+x")]
    serial = run_jobs("machines", jobs, fuel=FUEL, backend="serial")
    backend = EnsembleBackend(MACHINES, max_symbols=4)
    assert pickle.dumps(backend.execute(jobs, fuel=FUEL)) == pickle.dumps(serial)
    assert backend.last_dispatch["ensemble_jobs"] > 0
    assert backend.last_dispatch["fallback_jobs"] >= 24


def test_census_trace_seams_are_module_globals(monkeypatch):
    """perfbench's census trace wraps ``compile_family``, ``run_family``
    and ``lower_machine`` on :mod:`repro.runtime.ensemble`: the backend
    must call the first two through those module globals, or the traced
    ``ensemble.*`` layers read zero with nothing failing."""
    for name in ("compile_family", "run_family", "lower_machine"):
        assert callable(getattr(ensemble, name))
    calls = defaultdict(int)
    for name in ("compile_family", "run_family"):
        real = getattr(ensemble, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(ensemble, name, counted)
    jobs = family_jobs(3, 40, seed=24)
    backend = EnsembleBackend(BUSYBEAVER)
    first = backend.execute(jobs, fuel=FUEL)
    assert dict(calls) == {"compile_family": 1, "run_family": 1}
    assert backend.execute(jobs, fuel=FUEL) == first  # the last family, run again
    assert dict(calls) == {"compile_family": 1, "run_family": 2}

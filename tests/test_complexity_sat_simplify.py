"""``dpll_sat`` against a verbatim copy of its earlier self, and the
compiled engine against ``dpll_sat``.

``_simplify`` keeps every clause it does not change instead of
rebuilding it.  The solver's observable results must not move: the
same verdict, the same ``nodes_explored`` and the same assignment in
the same insertion order, under every ablation setting.  The runtime
benchmark checks sat jobs against ``dpll_sat`` itself, so only this
comparison can catch a divergence.

:func:`repro.perf.sat_engine.compile_sat` promises the same trace as
``dpll_sat``, and the runtime runs it for every prepared sat job, so
it is held to the same observation here.
"""

import itertools
import random

import pytest

from repro.complexity.sat import CNF, SatResult, dpll_sat, random_ksat
from repro.perf.sat_engine import CompiledSat, compile_sat
from repro.runtime import run_jobs
from repro.runtime.workloads.sat import sat_job

# -- the solver before clauses were kept, verbatim ---------------------------


def _simplify(clauses: list[tuple[int, ...]], literal: int) -> list[tuple[int, ...]] | None:
    """Assign ``literal`` true; None signals an empty clause (conflict)."""
    out: list[tuple[int, ...]] = []
    for clause in clauses:
        if literal in clause:
            continue  # clause satisfied
        reduced = tuple(lit for lit in clause if lit != -literal)
        if not reduced:
            return None
        out.append(reduced)
    return out


def reference_dpll_sat(
    formula: CNF,
    *,
    unit_propagation: bool = True,
    pure_literals: bool = True,
) -> SatResult:
    """DPLL backtracking search.

    ``nodes_explored`` counts decision/propagation points, the metric
    the C21 bench compares against brute force and across ablations.
    """
    counter = {"nodes": 0}

    def solve(clauses: list[tuple[int, ...]], assignment: dict[int, bool]) -> dict[int, bool] | None:
        counter["nodes"] += 1
        while True:
            if not clauses:
                return assignment
            if unit_propagation:
                unit = next((c[0] for c in clauses if len(c) == 1), None)
                if unit is not None:
                    nxt = _simplify(clauses, unit)
                    if nxt is None:
                        return None
                    assignment = {**assignment, abs(unit): unit > 0}
                    clauses = nxt
                    counter["nodes"] += 1
                    continue
            if pure_literals:
                literals = {lit for clause in clauses for lit in clause}
                pure = next((lit for lit in literals if -lit not in literals), None)
                if pure is not None:
                    nxt = _simplify(clauses, pure)
                    assert nxt is not None  # assigning a pure literal never conflicts
                    assignment = {**assignment, abs(pure): pure > 0}
                    clauses = nxt
                    counter["nodes"] += 1
                    continue
            break
        # Branch on the first literal of the shortest clause.
        branch_lit = min(clauses, key=len)[0]
        for choice in (branch_lit, -branch_lit):
            nxt = _simplify(clauses, choice)
            if nxt is not None:
                result = solve(nxt, {**assignment, abs(choice): choice > 0})
                if result is not None:
                    return result
        return None

    model = solve(list(formula.clauses), {})
    if model is None:
        return SatResult(False, None, counter["nodes"])
    # Unreferenced variables default to False for a total assignment.
    for v in formula.variables():
        model.setdefault(v, False)
    return SatResult(True, model, counter["nodes"])


# -- the comparison ----------------------------------------------------------

SETTINGS = [
    {"unit_propagation": up, "pure_literals": pl}
    for up, pl in itertools.product((True, False), repeat=2)
]


def observe(solver, formula: CNF, options: dict):
    try:
        result = solver(formula, **options)
    except Exception as exc:  # noqa: BLE001 - the exception is the observation
        return ("raised", type(exc))
    assignment = None if result.assignment is None else list(result.assignment.items())
    return (result.satisfiable, result.nodes_explored, assignment)


@pytest.mark.parametrize("options", SETTINGS, ids=lambda o: "up={unit_propagation},pl={pure_literals}".format(**o))
def test_threshold_formulas_solve_identically(options):
    verdicts = set()
    for num_vars in (6, 10, 14, 18, 24, 30):
        for seed in range(12):
            formula = random_ksat(num_vars, round(4.26 * num_vars), seed=1000 * num_vars + seed)
            ref = observe(reference_dpll_sat, formula, options)
            assert observe(dpll_sat, formula, options) == ref, (num_vars, seed)
            verdicts.add(ref[0])
    assert verdicts == {True, False}  # both outcomes covered


@pytest.mark.parametrize("options", SETTINGS, ids=lambda o: "up={unit_propagation},pl={pure_literals}".format(**o))
@pytest.mark.parametrize(
    "clauses",
    [
        (),
        ((),),
        ((1, 2), (), (-1,)),
        ((1,), (-1, 2), ()),
        ((1, 1, -2), (-1, -1), (2, 2)),
        ((3, -3), (1, -2), (2, 1)),
        ((1, 1), (-1, 2), (-2, -2, 1)),
        ((2, -2, 2), (-1,), (1, 3, 3)),
    ],
)
def test_degenerate_formulas_behave_identically(clauses, options):
    # Empty clauses and repeated or complementary literals, which
    # random_ksat never draws.  The runtime's path, the compiled engine
    # or its fallback to dpll_sat, must observe the same.
    formula = CNF(clauses)
    ref = observe(reference_dpll_sat, formula, options)
    assert observe(dpll_sat, formula, options) == ref
    assert observe(through_adapter, formula, options) == ref


# -- the compiled engine against dpll_sat -------------------------------------


def engine(formula: CNF, **options) -> SatResult:
    return compile_sat(formula).run(**options)


def through_adapter(formula: CNF, **options) -> SatResult:
    # prepare compiles, execute runs; an unpreparable formula falls
    # back to run_direct, which is dpll_sat.
    return run_jobs("sat", [sat_job(formula, **options)], fuel=1)[0]


def _odd_ksat(rng: random.Random, num_vars: int, num_clauses: int, k: int) -> CNF:
    """Random k-SAT where each clause may repeat a literal or hold one
    beside its complement, which ``random_ksat`` never draws."""
    clauses = []
    for _ in range(num_clauses):
        clause = [v * rng.choice((1, -1)) for v in rng.sample(range(1, num_vars + 1), k)]
        roll = rng.random()
        if roll < 0.3:
            clause.insert(rng.randrange(k + 1), rng.choice(clause))
        elif roll < 0.45:
            clause.insert(rng.randrange(k + 1), -rng.choice(clause))
        clauses.append(clause)
    return CNF.of(clauses)


@pytest.mark.parametrize("options", SETTINGS, ids=lambda o: "up={unit_propagation},pl={pure_literals}".format(**o))
def test_engine_matches_dpll_on_threshold_formulas(options):
    for num_vars in (6, 10, 14, 18, 24, 30):
        for seed in range(12):
            formula = random_ksat(num_vars, round(4.26 * num_vars), seed=1000 * num_vars + seed)
            ref = observe(dpll_sat, formula, options)
            assert observe(engine, formula, options) == ref, (num_vars, seed)


def test_engine_matches_dpll_on_random_small_formulas():
    # 600 formulas x 4 settings; every third formula repeats literals
    # or pairs one with its complement.
    rng = random.Random(20_081)
    verdicts = set()
    for case in range(600):
        k = rng.randint(2, 4)
        num_vars = rng.randint(k, 12)
        num_clauses = rng.randint(1, round(5.5 * num_vars))
        if case % 3 == 0:
            formula = _odd_ksat(rng, num_vars, num_clauses, k)
        else:
            formula = random_ksat(num_vars, num_clauses, k, seed=rng.randrange(1 << 30))
        for options in SETTINGS:
            ref = observe(dpll_sat, formula, options)
            assert observe(engine, formula, options) == ref, (case, formula, options)
            verdicts.add(ref[0])
    assert verdicts == {True, False}


@pytest.mark.parametrize("options", SETTINGS, ids=lambda o: "up={unit_propagation},pl={pure_literals}".format(**o))
def test_engine_matches_dpll_on_40_variable_threshold_formulas(options):
    # The size perfbench's sweep_large draws: 40 variables, 170 clauses.
    for seed in range(8):
        formula = random_ksat(40, 170, seed=40_000 + seed)
        assert observe(engine, formula, options) == observe(dpll_sat, formula, options), seed


def test_engine_replays_on_dpll_when_its_search_fails(monkeypatch):
    # A RecursionError on a deep search, say: run() answers with the
    # reference's own result instead of raising.
    formula = random_ksat(12, 51, seed=12_000)
    compiled = compile_sat(formula)

    def fail(self, unit_propagation, pure_literals):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(CompiledSat, "_search", fail)
    for options in SETTINGS:
        assert observe(lambda f, **o: compiled.run(**o), formula, options) == observe(
            dpll_sat, formula, options
        )

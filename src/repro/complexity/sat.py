"""Boolean satisfiability: CNF formulas and two solvers.

Literals are nonzero integers (DIMACS convention: ``-3`` is the
negation of variable 3).  :func:`brute_force_sat` enumerates all 2^n
assignments; :func:`dpll_sat` is Davis–Putnam–Logemann–Loveland with
optional unit propagation and pure-literal elimination — the switches
are DESIGN.md ablation #3.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.util.rng import make_rng

__all__ = ["CNF", "SatResult", "brute_force_sat", "dpll_sat", "random_ksat"]


@dataclass(frozen=True)
class CNF:
    """A CNF formula: a tuple of clauses, each a tuple of literals."""

    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for clause in self.clauses:
            for lit in clause:
                if lit == 0:
                    raise ValueError("0 is not a valid literal")

    @staticmethod
    def of(clauses: Iterable[Sequence[int]]) -> "CNF":
        return CNF(tuple(tuple(c) for c in clauses))

    def variables(self) -> list[int]:
        return sorted({abs(lit) for clause in self.clauses for lit in clause})

    def num_variables(self) -> int:
        return len(self.variables())

    def evaluate(self, assignment: dict[int, bool]) -> bool:
        """True iff every clause has a satisfied literal."""
        for clause in self.clauses:
            if not any(
                assignment.get(abs(lit), False) == (lit > 0) for lit in clause
            ):
                return False
        return True


@dataclass
class SatResult:
    satisfiable: bool
    assignment: dict[int, bool] | None = None
    nodes_explored: int = field(default=0)

    def __bool__(self) -> bool:
        return self.satisfiable


def brute_force_sat(formula: CNF) -> SatResult:
    """Try all 2^n assignments (the horsepower non-answer of §1a)."""
    variables = formula.variables()
    n = len(variables)
    explored = 0
    for mask in range(1 << n):
        explored += 1
        assignment = {v: bool(mask >> i & 1) for i, v in enumerate(variables)}
        if formula.evaluate(assignment):
            return SatResult(True, assignment, explored)
    return SatResult(False, None, explored)


def _simplify(clauses: list[tuple[int, ...]], literal: int) -> list[tuple[int, ...]] | None:
    """Assign ``literal`` true; None signals an empty clause (conflict).

    A clause that does not mention ``-literal`` is kept as the same
    object: most clauses survive a step unchanged, and rebuilding each
    one was most of the solver's time.
    """
    out: list[tuple[int, ...]] = []
    negated = -literal
    for clause in clauses:
        if literal in clause:
            continue  # clause satisfied
        if negated in clause:
            clause = tuple(lit for lit in clause if lit != negated)
        if not clause:
            return None
        out.append(clause)
    return out


def dpll_sat(
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


def random_ksat(
    num_vars: int,
    num_clauses: int,
    k: int = 3,
    *,
    seed: int | None = 0,
) -> CNF:
    """Uniform random k-SAT (distinct variables per clause)."""
    if k > num_vars:
        raise ValueError("k cannot exceed the number of variables")
    rng = make_rng(seed)
    clauses = []
    for _ in range(num_clauses):
        chosen = rng.choice(num_vars, size=k, replace=False) + 1
        signs = rng.integers(0, 2, size=k) * 2 - 1
        clauses.append(tuple(int(v * s) for v, s in zip(chosen, signs)))
    return CNF.of(clauses)

"""Compile a CNF formula for DPLL search with an exact trace.

:func:`repro.complexity.sat.dpll_sat` is the specification: readable,
and it rebuilds the whole clause list at every propagation step.
:func:`compile_sat` is its counterpart to
:func:`repro.perf.engine.compile_tm`.  It indexes the formula once
into the standard structures of Davis–Logemann–Loveland search (DLL
1962): an occurrence list per literal, and per clause its remaining
length (one byte, so finding a unit is a ``memchr``) and remaining
literals.  Assigning a literal touches only the clauses that mention
its variable.  A branch copies the two per-clause lists, so
propagation keeps no undo log.

Equivalence contract: ``compile_sat(formula).run(**options)`` returns
what ``dpll_sat(formula, **options)`` returns — the same verdict, the
same ``nodes_explored`` and the same assignment in the same insertion
order — under every ablation setting.  To get there it makes the
reference's choices in the reference's order:

* the unit is the lowest-index live clause of length 1, where length
  counts repeated literals, so ``(1, 1)`` is not a unit;
* the pure literal is the first, in iteration order, of a set built
  from the live clauses' remaining literals in clause order whose
  complement is not in the set: ``set().union(*cur)`` inserts in the
  reference comprehension's sequence, so it iterates in its order;
* the branch literal is the first remaining literal of the
  lowest-index live clause of minimum length, tried before its
  negation;
* nodes are counted where the reference's ``solve`` counts them, and
  the model lists the path's assignments in order, then every
  unassigned variable, ascending, as ``False``.

:func:`compile_sat` raises ``ValueError`` on an empty clause, a clause
of 255 or more literals, or a literal that is not exactly ``int``, so
the runtime runs such a formula on the reference.  ``run`` never
reports an error itself: on any exception (a ``RecursionError`` on a
deep search, say) it replays the job on ``dpll_sat``.
``tests/test_complexity_sat_simplify.py`` checks the contract against
``dpll_sat``.
"""

from __future__ import annotations

from repro.complexity.sat import CNF, SatResult, dpll_sat

__all__ = ["CompiledSat", "compile_sat"]

# ``length`` holds one byte per clause.  A satisfied clause reads
# _DONE, above every real length, so it is never a unit and never the
# shortest clause; a longer clause makes the formula unindexable.
_DONE = 255


class CompiledSat:
    """A :class:`CNF` indexed for DPLL; ``formula`` is the reference
    it refines."""

    __slots__ = ("formula", "_occurs", "_length", "_done", "_variables")

    def __init__(self, formula: CNF) -> None:
        clauses = formula.clauses
        occurs: dict[int, list[int]] = {}
        for i, clause in enumerate(clauses):
            if not 0 < len(clause) < _DONE:
                raise ValueError(f"clause {i} has {len(clause)} literals")
            for lit in clause:
                if type(lit) is not int:
                    raise ValueError(f"clause {i}: literal {lit!r} is not exactly int")
                seen = occurs.get(lit)
                if seen is None:
                    occurs[lit] = [i]
                elif seen[-1] != i:  # a repeated literal is listed once
                    seen.append(i)
        self._variables = formula.variables()
        for v in self._variables:
            occurs.setdefault(v, [])
            occurs.setdefault(-v, [])
        self.formula = formula
        self._occurs = occurs
        self._length = bytearray(map(len, clauses))
        self._done = bytes([_DONE]) * len(clauses)  # every clause satisfied

    def run(self, *, unit_propagation: bool = True, pure_literals: bool = True) -> SatResult:
        """Exactly ``dpll_sat(self.formula, ...)`` with these options."""
        try:
            return self._search(unit_propagation, pure_literals)
        except Exception:
            # A RecursionError on a deep search, anything: the reference
            # raises its own error for it, or returns its result.
            return dpll_sat(
                self.formula, unit_propagation=unit_propagation, pure_literals=pure_literals
            )

    def _search(self, unit_propagation: bool, pure_literals: bool) -> SatResult:
        occurs = self._occurs
        done = self._done
        # Per literal: remaining literals -> the same without it.  Kept
        # for one run only, so a resident holds no more than its index.
        shrink: dict[int, dict] = {lit: {} for lit in occurs}
        nodes = 0

        def assign(length: bytearray, cur: list, lit: int) -> bool:
            """Make ``lit`` true in place; False on a conflict (the
            lists are then garbage)."""
            for i in occurs[lit]:
                cur[i] = ()
                length[i] = _DONE
            neg = -lit
            table = shrink[neg]
            for i in occurs[neg]:
                remaining = cur[i]
                if remaining:
                    fewer = table.get(remaining)
                    if fewer is None:
                        fewer = table[remaining] = tuple([x for x in remaining if x != neg])
                    if not fewer:
                        return False
                    cur[i] = fewer
                    length[i] = len(fewer)
            return True

        def solve(length: bytearray, cur: list, path: list) -> list | None:
            nonlocal nodes
            nodes += 1
            while True:
                # No live clause leaves no unit and no pure literal, so
                # the reference's emptiness test can wait for the branch.
                if unit_propagation:
                    i = length.find(1)
                    if i >= 0:
                        unit = cur[i][0]
                        if not assign(length, cur, unit):
                            return None
                        path.append(unit)
                        nodes += 1
                        continue
                if pure_literals:
                    literals = set().union(*cur)
                    pure = next((x for x in literals if -x not in literals), None)
                    if pure is not None:
                        assign(length, cur, pure)
                        path.append(pure)
                        nodes += 1
                        continue
                break
            if length == done:
                return path
            size = 1
            i = length.find(1)
            while i < 0:  # the first clause of the smallest length
                size += 1
                i = length.find(size)
            lit = cur[i][0]
            for choice in (lit, -lit):
                child_length = length[:]
                child_cur = cur[:]
                if assign(child_length, child_cur, choice):
                    found = solve(child_length, child_cur, path + [choice])
                    if found is not None:
                        return found
            return None

        path = solve(self._length[:], list(self.formula.clauses), [])
        if path is None:
            return SatResult(False, None, nodes)
        model = {abs(lit): lit > 0 for lit in path}
        for v in self._variables:
            model.setdefault(v, False)
        return SatResult(True, model, nodes)


def compile_sat(formula: CNF) -> CompiledSat:
    """Index ``formula`` for :meth:`CompiledSat.run`.

    Raises ``ValueError`` on an empty clause, a clause of 255 or more
    literals, or a literal that is not exactly ``int``; the caller then
    runs the formula on ``dpll_sat``, whose outcome with an empty
    clause (an ``IndexError``, an ``AssertionError`` or a conflict) the
    engine does not model.
    """
    return CompiledSat(formula)

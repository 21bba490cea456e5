"""DPLL SAT solves as a runtime workload.

Programs are :class:`~repro.complexity.sat.CNF` formulas (frozen, so
their own content key); inputs are solver-option tuples built by
:func:`sat_input` — ``(("pure_literals", True), ("unit_propagation",
True))`` and friends — so one formula swept across ablation settings
interns like one program across many tapes.  ``prepare`` compiles the
formula once through :func:`repro.perf.sat_engine.compile_sat`, so an
option sweep over one formula shares one compilation; a formula the
engine refuses (one with an empty clause, say) runs on the reference
instead.  ``run_direct`` calls :func:`~repro.complexity.sat.dpll_sat`
itself: it is the reference and the oracle the compiled path must
match exactly.  DPLL takes no fuel parameter; the runtime's fuel bound
is ignored, which keeps the adapter honest about what the solver
actually guarantees.

``nodes_explored`` is the cost signal: it is what the C21 bench
already treats as the solver's work measure, and it feeds the adaptive
dispatcher's per-formula cost model.
"""

from __future__ import annotations

from repro.complexity.sat import CNF, SatResult, dpll_sat
from repro.perf.sat_engine import CompiledSat, compile_sat
from repro.runtime.workload import Job, WorkloadBase, register_workload

__all__ = ["SatWorkload", "SAT", "sat_input", "sat_job"]

SatInput = tuple[tuple[str, bool], ...]


def sat_input(*, unit_propagation: bool = True, pure_literals: bool = True) -> SatInput:
    """Normalise solver options into a hashable job input."""
    return (("pure_literals", pure_literals), ("unit_propagation", unit_propagation))


def sat_job(formula: CNF, **options: bool) -> Job:
    """Build a runtime job from a formula and solver options."""
    return (formula, sat_input(**options))


class SatWorkload(WorkloadBase):
    """(CNF, option_tuple) jobs through the DPLL solver."""

    kind = "sat"
    result_type = SatResult

    def prepare(self, program: CNF) -> CompiledSat:
        return compile_sat(program)

    def execute(self, resident: CompiledSat, input: SatInput, fuel: int) -> SatResult:
        return resident.run(**dict(input))

    def run_direct(self, program: CNF, input: SatInput, fuel: int) -> SatResult:
        # The reference itself, not execute(prepare(...)): the oracle
        # must not be the engine it checks.
        return dpll_sat(program, **dict(input))

    def cost(self, result: SatResult) -> float:
        # At least 1: a unit-propagated-to-death formula still cost a call.
        return max(1.0, float(result.nodes_explored))


SAT = register_workload(SatWorkload())

"""Busy-beaver sweeps as a runtime workload.

Programs are candidate :class:`~repro.machines.turing.TuringMachine`
instances; the input is the starting tape (``""`` for the classical
blank-tape game, but any tape works).  The result is a
:class:`BBScore` — the ``(ones, steps, halted)`` triple a sweep ranks
by — rather than a full :class:`~repro.machines.turing.TMResult`: a
champion hunt over thousands of candidates wants the score, not the
final tape, crossing the process boundary.

``prepare`` compiles through :mod:`repro.perf.engine`, so a sweep pays
one compile per candidate and the runtime's interning makes re-scoring
a champion under several fuels hit its resident table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.machines.turing import TMResult, TuringMachine
from repro.perf.engine import compile_tm, program_key
from repro.runtime.workload import WorkloadBase, register_workload

__all__ = ["BBScore", "BusyBeaverWorkload", "BUSYBEAVER"]


@dataclass(frozen=True)
class BBScore:
    """What the busy-beaver game ranks: ones written, steps taken."""

    ones: int
    steps: int
    halted: bool


def _score_of(result: TMResult) -> BBScore:
    return BBScore(ones=result.tape.count("1"), steps=result.steps, halted=result.halted)


class BusyBeaverWorkload(WorkloadBase):
    """(TuringMachine, tape) jobs scored as :class:`BBScore`.

    The adapter is :class:`~repro.runtime.ensemble.EnsembleCapable`: a
    whole census scores in one lock-step family.  ``tolist()`` in
    ``ensemble_results`` matters: it yields Python ``int``/``bool``
    (not numpy scalars), keeping results byte-identical to the
    per-machine path under pickling.
    """

    kind = "busybeaver"
    result_type = BBScore

    def program_key(self, program: TuringMachine) -> Any:
        return program_key(program)

    def prepare(self, program: TuringMachine):
        return compile_tm(program)

    def execute(self, resident, input: str, fuel: int) -> BBScore:
        return _score_of(resident.run(input, fuel=fuel))

    def run_direct(self, program: TuringMachine, input: str, fuel: int) -> BBScore:
        return _score_of(program.run(input, fuel=fuel))

    def cost(self, result: BBScore) -> float:
        return result.steps

    # -- EnsembleCapable -----------------------------------------------------

    def ensemble_program(self, program: TuringMachine) -> TuringMachine:
        return program  # compile_family type-checks and caps it

    def ensemble_results(self, outcome) -> list[BBScore]:
        return [
            BBScore(o, s, h)
            for o, s, h in zip(
                outcome.count_symbol("1").tolist(),
                outcome.steps.tolist(),
                outcome.halted.tolist(),
            )
        ]


BUSYBEAVER = register_workload(BusyBeaverWorkload())

"""MiniLang programs as a runtime workload.

Programs are :class:`~repro.complang.ast.Program` trees (or source
strings — both are hashable, so either can serve as its own content
key); inputs are initial environments, normalised by :func:`env_input`
to sorted ``(name, value)`` tuples so jobs stay hashable for the
runtime's memo and dedup.  ``prepare`` lowers the program once through
:func:`repro.complang.compile.compile_program` and
:func:`repro.perf.vm_engine.compile_vm` into a reusable
:class:`~repro.perf.vm_engine.CompiledVM` (a program whose bytecode
does not lower keeps its plain :class:`~repro.complang.vm.VM`);
``run_direct`` re-parses, re-compiles and interprets per job — exactly
the naive loop subsystem code used to write, the baseline the
runtime's ≥2× warm-pool gate is measured against, and the oracle the
compiled path must match.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from repro.complang.ast import Program
from repro.complang.compile import compile_program
from repro.complang.vm import VM, VMOutcome
from repro.perf.vm_engine import CompiledVM, compile_vm
from repro.runtime.workload import Job, WorkloadBase, register_workload

__all__ = ["ComplangWorkload", "COMPLANG", "env_input", "complang_job"]

EnvInput = tuple[tuple[str, int], ...]


def env_input(env: Mapping[str, int] | None = None) -> EnvInput:
    """Normalise an initial environment into a hashable job input."""
    return tuple(sorted((env or {}).items()))


def complang_job(program: Program | str, env: Mapping[str, int] | None = None) -> Job:
    """Build a runtime job from a program and an initial environment."""
    return (program, env_input(env))


def _ast(program: Program | str) -> Program:
    if isinstance(program, str):
        from repro.complang.parser import parse

        return parse(program)
    return program


class ComplangWorkload(WorkloadBase):
    """(Program | source, env_input) jobs through the bytecode VM."""

    kind = "complang"
    result_type = VMOutcome

    def prepare(self, program: Program | str) -> CompiledVM | VM:
        vm = VM(compile_program(_ast(program)))
        try:
            return compile_vm(vm)
        except ValueError:  # bytecode the lowering refuses
            return vm

    def execute(self, resident: CompiledVM | VM, input: EnvInput, fuel: int) -> VMOutcome:
        return resident.run(env=dict(input), fuel=fuel)

    def run_direct(self, program: Program | str, input: EnvInput, fuel: int) -> VMOutcome:
        # The honest per-job path: parse + compile + assemble every time.
        return VM(compile_program(_ast(program))).run(env=dict(input), fuel=fuel)

    def cost(self, result: VMOutcome) -> float:
        return result.steps

    def valid_result(self, result: Any) -> bool:
        return isinstance(result, VMOutcome)


COMPLANG = register_workload(ComplangWorkload())

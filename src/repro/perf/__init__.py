"""The compiled machine engine (paper §1a refinement, §2a multicore).

The reference interpreters in :mod:`repro.machines` and
:mod:`repro.core.statemachine` are the *specification*: readable,
dict-of-strings, one small step at a time.  This package is their
*refinement*: :mod:`repro.perf.engine` compiles a machine into dense
integer tables (states and symbols interned to small ints, transitions
flattened into flat lists, the tape a growable ``bytearray``) and runs
a tight hot loop that is step-for-step equivalent to the reference —
the equivalence is property-tested, which is what licenses the speed.
:mod:`repro.perf.vm_engine` does the same for :mod:`repro.complang`
bytecode, lowering a VM program's basic blocks into Python, and
:mod:`repro.perf.sat_engine` for DPLL search, indexing a CNF formula
so that a solve reproduces :func:`repro.complexity.sat.dpll_sat`'s
trace exactly.

:func:`~repro.perf.batch.run_many` executes batches of (machine, input)
jobs through any :mod:`repro.runtime` backend (serial, a warm process
pool, …), so universal-machine replays and busy-beaver sweeps amortise
compilation and can use every core.  The backends, resident caches and
sessions themselves are the runtime's — the workload-generic execution
layer every subsystem shares.
"""

from repro.perf.batch import run_many
from repro.perf.engine import (
    CompiledDFA,
    CompiledMachine,
    CompiledStateMachine,
    CompiledTM,
    compile_dfa,
    compile_machine,
    compile_statemachine,
    compile_tm,
    run_compiled,
)

__all__ = [
    "CompiledMachine",
    "CompiledTM",
    "CompiledDFA",
    "CompiledStateMachine",
    "compile_machine",
    "compile_tm",
    "compile_dfa",
    "compile_statemachine",
    "run_compiled",
    "run_many",
]

"""Differential tests: the block-compiled VM against ``VM.run``.

``VM.run`` is the specification and :class:`CompiledVM` its refinement.
A run *matches* when both return equal output, the same final
environment in the same key order, and the same step count — compared
with value types, so a ``bool`` where the VM keeps an ``int`` fails —
or when both raise the same exception type with the same message.
"""

import io
import keyword
import pickle
import random
import re
import tokenize

import pytest

from repro.complang.ast import Num, Print, Program
from repro.complang.compile import compile_program
from repro.complang.equiv import random_program
from repro.complang.opt import optimize
from repro.complang.parser import parse
from repro.complang.vm import VM, Op
from repro.perf.vm_engine import _EFFECT, CompiledVM, compile_vm
from repro.runtime.workloads.complang import COMPLANG, complang_job

FUELS = [5, 37, 300, 5_000, 100_000]


def observe(run):
    try:
        out = run()
    except Exception as exc:  # noqa: BLE001 - the exception is the observation
        return ("raised", type(exc), str(exc))
    return (
        [(type(v), v) for v in out.output],
        [(k, type(v), v) for k, v in out.env.items()],
        out.steps,
    )


def assert_matches(vm: VM, compiled: CompiledVM, env, fuel) -> bool:
    """Assert one run matches; return whether the reference finished."""
    ref = observe(lambda: vm.run(env=env, fuel=fuel))
    got = observe(lambda: compiled.run(env=env, fuel=fuel))
    assert got == ref, f"{vm.code} env={env} fuel={fuel}"
    return ref[0] != "raised"


def track(compiled: CompiledVM) -> list[bool]:
    """Record, per run, whether the compiled path returned the result
    (an exception or a ``None`` replays on the reference)."""
    inner = compiled._run
    finished: list[bool] = []

    def run(env, fuel):
        finished.append(False)
        done = inner(env, fuel)
        finished[-1] = done is not None
        return done

    compiled._run = run
    return finished


def branchy_loop(ifs: int) -> str:
    """A loop whose body holds ``ifs`` one-armed ``if`` statements."""
    arms = " ".join(
        f"if i % {k + 2} == {k % 3} {{ s = s + {k + 1}; }}" for k in range(ifs)
    )
    return f"s = 0; i = 0; while i < n {{ {arms} i = i + 1; }} print s;"


# -- 1. random source programs, plain and optimised --------------------------


@pytest.mark.parametrize("chunk", range(4))
def test_random_programs_match(chunk):
    rng = random.Random(chunk)
    finished, expected = [], []
    for seed in range(chunk * 300, (chunk + 1) * 300):
        program = random_program(seed)
        for code in (compile_program(program), optimize(program)):
            vm = VM(code)
            compiled = compile_vm(vm)
            runs = track(compiled)
            for fuel in FUELS:
                env = {
                    name: rng.randint(-20, 20)
                    for name in ("x", "y", "z", "w")
                    if rng.random() < 0.8
                }
                expected.append(assert_matches(vm, compiled, env, fuel))
            finished += runs
    # Every run the reference finishes, and no other, finishes compiled:
    # faults, fuel overruns and missing variables replay.
    assert finished == expected and sum(finished) > 0.2 * len(finished)


# -- 2. random raw bytecode --------------------------------------------------

_NULLARY = ["ADD", "SUB", "MUL", "DIV", "MOD", "LT", "LE", "GT", "GE", "EQ", "NE",
            "NEG", "NOT", "DUP", "POP", "PRINT", "HALT"]


def random_bytecode(rng: random.Random) -> list[Op]:
    """Random code that mostly keeps its straight-line stack depth
    valid, with underflows, leftovers and odd joins mixed in."""
    n = rng.randint(1, 12)
    code = []
    depth = 0
    for _ in range(n):
        roll = rng.random()
        if roll < 0.25 or (depth == 0 and rng.random() < 0.8):
            op = Op("PUSH", rng.randint(-3, 3)) if roll < 0.6 else Op("LOAD", rng.choice("xxyyz"))
        elif roll < 0.35:
            op = Op("STORE", rng.choice("xyz"))
        elif roll < 0.5:
            op = Op(rng.choice(["JMP", "JZ", "JNZ"]), rng.randint(0, n))
        else:
            op = Op(rng.choice(_NULLARY))
        code.append(op)
        pops, pushes = _EFFECT[op.code]
        depth = max(0, depth - pops) + pushes
    return code


def test_random_bytecode_refuses_or_matches():
    rng = random.Random(7)
    refused = 0
    finished, expected = [], []
    for _ in range(2500):
        vm = VM(random_bytecode(rng))
        try:
            compiled = compile_vm(vm)
        except ValueError:
            refused += 1
            continue
        runs = track(compiled)
        for fuel in (0, 3, 40, 400):
            env = {name: rng.randint(-2, 2) for name in "xy" if rng.random() < 0.85}
            expected.append(assert_matches(vm, compiled, env, fuel))
        finished += runs
    assert refused > 50 and len(finished) > 4 * 1500
    # Most raw programs fault or spin; a few hundred runs still finish.
    assert finished == expected and sum(finished) >= 200


@pytest.mark.parametrize(
    "code, env",
    [
        # stack underflow, on the only path and on one branch
        ([Op("ADD")], {}),
        ([Op("LOAD", "x"), Op("JZ", 3), Op("HALT"), Op("POP")], {"x": 0}),
        # values left on the stack at HALT and at the end of the code
        ([Op("PUSH", 1), Op("HALT")], {}),
        ([Op("PUSH", 1), Op("PUSH", 2)], {}),
        # jumps to len(code) leave the program
        ([Op("LOAD", "x"), Op("JNZ", 5), Op("PUSH", 7), Op("PRINT"), Op("JMP", 5)], {"x": 0}),
        ([Op("LOAD", "x"), Op("JNZ", 5), Op("PUSH", 7), Op("PRINT"), Op("JMP", 5)], {"x": 3}),
        ([Op("JMP", 1)], {}),
        # DIV and MOD by zero, used and dropped
        ([Op("PUSH", 1), Op("PUSH", 0), Op("DIV"), Op("PRINT")], {}),
        ([Op("PUSH", 1), Op("LOAD", "x"), Op("MOD"), Op("STORE", "y")], {"x": 0}),
        ([Op("PUSH", 1), Op("PUSH", 0), Op("DIV"), Op("POP")], {}),
        ([Op("PUSH", 1), Op("LOAD", "x"), Op("MOD"), Op("DUP"), Op("POP"), Op("POP")], {"x": 0}),
        # POP of an unbound variable, and a value kept across a store
        ([Op("LOAD", "x"), Op("POP")], {}),
        ([Op("LOAD", "x"), Op("PUSH", 5), Op("STORE", "x"), Op("PRINT")], {"x": 2}),
        # a comparison carried across a join, then stored and printed
        (
            [Op("LOAD", "x"), Op("PUSH", 3), Op("LT"), Op("LOAD", "x"), Op("JZ", 7),
             Op("PUSH", 1), Op("STORE", "c"), Op("DUP"), Op("PRINT"), Op("STORE", "d")],
            {"x": 0},
        ),
        # empty program, and fuel running out mid-loop
        ([], {"x": 1}),
        ([Op("LOAD", "x"), Op("PUSH", 1), Op("ADD"), Op("STORE", "x"), Op("JMP", 0)], {"x": 0}),
    ],
)
def test_edge_cases_match(code, env):
    vm = VM(code)
    compiled = compile_vm(vm)
    for fuel in (0, 1, 2, 3, 10, 1000):
        assert_matches(vm, compiled, env, fuel)


def test_joins_at_different_depths_refuse():
    code = [Op("LOAD", "x"), Op("JZ", 3), Op("PUSH", 5), Op("HALT")]
    with pytest.raises(ValueError, match="stack depths"):
        compile_vm(VM(code))


@pytest.mark.parametrize(
    "op",
    [Op("PUSH", True), Op("PUSH", 1.5), Op("PUSH", None), Op("PUSH", "1"),
     Op("LOAD", 3), Op("STORE", b"x"), Op("JMP", True)],
)
def test_non_exact_operands_refuse(op):
    with pytest.raises(ValueError, match="exactly"):
        compile_vm(VM([op, Op("HALT")]))


def test_huge_constants_match():
    # Constants are arguments, never source text, so no size limit on
    # an int's decimal form applies.
    vm = VM([Op("PUSH", 10**5000), Op("PUSH", -(10**4400)), Op("ADD"), Op("PRINT")])
    assert_matches(vm, compile_vm(vm), {}, 10)


def test_new_keys_keep_first_store_order():
    # y is first stored on one branch and x on the other, so the final
    # key order depends on the path taken.
    vm = VM(compile_program(parse(
        "if c { y = 1; x = 2; } else { x = 3; y = 4; } i = 0;"
        " while i < 3 { x = x + y; y = y + 1; i = i + 1; } print x;"
    )))
    compiled = compile_vm(vm)
    for c in (0, 1):
        for fuel in FUELS:
            assert_matches(vm, compiled, {"c": c}, fuel)


# -- 3. non-int inputs take the reference path -------------------------------


@pytest.mark.parametrize("env", [{"x": True}, {"x": 2.5}, {"x": 3, "y": False}, {"x": 1, "y": 0.0}])
def test_non_int_inputs_replay_on_the_reference(env):
    vm = VM(compile_program(parse("z = x + 1; print z == 2; print not y; print y / 1;")))
    compiled = compile_vm(vm)
    runs = track(compiled)
    for fuel in FUELS:
        assert_matches(vm, compiled, env, fuel)
    assert runs == []


# -- 4. pickling recompiles from the source ----------------------------------


def test_pickle_round_trip_recompiles():
    vm = VM(compile_program(random_program(11)))
    compiled = compile_vm(vm)
    clone = pickle.loads(pickle.dumps(compiled))
    assert isinstance(clone, CompiledVM)
    assert clone.lowered == compiled.lowered
    assert clone.describe() == compiled.describe()
    for fuel in FUELS:
        env = {"x": 3, "y": -4, "z": 7, "w": 0}
        assert observe(lambda: clone.run(env=env, fuel=fuel)) == observe(
            lambda: vm.run(env=env, fuel=fuel)
        )


# -- 5. a loop over many blocks ----------------------------------------------


def test_branchy_loop_matches():
    vm = VM(compile_program(parse(branchy_loop(120))))
    compiled = compile_vm(vm)
    assert compiled.describe()["blocks"] > 240
    runs = track(compiled)
    expected = [
        assert_matches(vm, compiled, {"n": n}, fuel)
        for n in (0, 1, 7, 40)
        for fuel in (10, 5_000, 100_000)
    ]
    assert runs == expected and sum(runs) >= 6


# -- safety and the adapter --------------------------------------------------


def test_lowered_source_holds_only_its_own_names_and_variable_reprs():
    names = ["it's \"quoted\"\n", "é", "x"]
    vm = VM([Op("PUSH", 12345), Op("STORE", names[0]), Op("LOAD", names[1]),
             Op("LOAD", names[2]), Op("ADD"), Op("PRINT")])
    lowered = compile_vm(vm).lowered
    own = re.compile(r"[vstk]\d+|b|env|fuel|out|put|append|steps|run")
    for token in tokenize.generate_tokens(io.StringIO(lowered).readline):
        if token.type == tokenize.STRING:
            assert token.string in {repr(name) for name in names}
        elif token.type == tokenize.NUMBER:
            assert token.string.isdigit()
        elif token.type == tokenize.NAME:
            assert keyword.iskeyword(token.string) or own.fullmatch(token.string)
    assert "12345" not in lowered  # constants are arguments, never source


def test_programs_of_one_shape_share_code():
    template = "s = {b}; i = 0; while i < n {{ s = (s * {a} + i) % 65521; i = i + 1; }} print s;"
    vms = [VM(compile_program(parse(template.format(a=a, b=b)))) for a, b in ((3, 1), (7, 2))]
    first, second = (compile_vm(vm) for vm in vms)
    assert first._run.__code__ is second._run.__code__
    for vm, compiled in zip(vms, (first, second)):
        assert_matches(vm, compiled, {"n": 50}, 10_000)
    assert first.run(env={"n": 50}).output != second.run(env={"n": 50}).output


def test_adapter_prepares_compiled_programs_and_keeps_vm_otherwise():
    source = "s = 0; i = 0; while i < n { s = s + i; i = i + 1; } print s;"
    resident = COMPLANG.prepare(source)
    assert isinstance(resident, CompiledVM)
    job = complang_job(source, {"n": 50})
    assert COMPLANG.execute(resident, job[1], 10_000) == COMPLANG.run_direct(*job, 10_000)
    odd = Program((Print(Num(1.5)),))
    resident = COMPLANG.prepare(odd)
    assert type(resident) is VM
    assert COMPLANG.execute(resident, (), 100) == COMPLANG.run_direct(odd, (), 100)

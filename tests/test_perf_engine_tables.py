"""The compiled TM engine's per-machine tables against the reference.

``CompiledTM`` interns its input through ``str.translate`` tables built
once per machine, finds symbols the machine never mentions with a
second table, renders through a third, and pads the tape for the input
rather than the fuel.  Each case below is one the tables have to get
right on their own: unknown input symbols, the empty tape, non-ASCII
and multi-character symbol names, long tapes and head walks past the
padding.  Every result must equal ``TuringMachine.run`` field for field.
"""

import pickle

import pytest

from repro.machines.busybeaver import busy_beaver_machine
from repro.machines.turing import (
    BLANK,
    TuringMachine,
    binary_increment,
    copier,
    palindrome_checker,
    unary_adder,
)
from repro.perf.engine import compile_tm

FUELS = [0, 1, 2, 5, 17, 100, 5_000, 100_000]


def assert_same(machine: TuringMachine, tape_input, fuels=FUELS) -> None:
    compiled = compile_tm(machine)
    for fuel in fuels:
        ref = machine.run(tape_input, fuel=fuel)
        got = compiled.run(tape_input, fuel=fuel)
        assert got == ref, f"{tape_input!r} fuel={fuel}: {got} != {ref}"
        assert type(got.tape) is str and type(got.final_state) is type(ref.final_state)


def eater() -> TuringMachine:
    """Walks right over 0/1, rewriting 1 -> x, and halts on anything else."""
    return TuringMachine.from_rules(
        [("s", "0", "s", "0", "R"), ("s", "1", "s", "x", "R"), ("s", BLANK, "t", BLANK, "L")],
        initial="s",
        accept=["t"],
    )


@pytest.mark.parametrize(
    "tape_input",
    ["z", "10z1", "1z0z1y", "zzz", "_z_", "é", "10é1", "é1ß0", "1" * 30 + "€" + "0" * 30, "a€b€c"],
)
def test_unknown_input_symbols(tape_input):
    for machine in (eater(), binary_increment(), copier()):
        assert_same(machine, tape_input)


def test_unknown_symbols_past_the_byte_fall_back():
    machine = eater()
    tape = "01" + "".join(chr(0x400 + i) for i in range(300))
    assert_same(machine, tape, fuels=[0, 3, 1000])


def test_runs_with_unknown_symbols_leave_the_tables_alone():
    machine = eater()
    compiled = compile_tm(machine)
    for tape in ("10z1", "1011", "é0", "0110", ""):
        assert compiled.run(tape, fuel=1000) == machine.run(tape, fuel=1000)
    assert compiled.intern == compile_tm(machine).intern


@pytest.mark.parametrize(
    "factory",
    [eater, binary_increment, copier, palindrome_checker, unary_adder,
     lambda: busy_beaver_machine(2), lambda: busy_beaver_machine(4)],
)
def test_empty_tape(factory):
    assert_same(factory(), "")


def test_non_ascii_one_character_symbols():
    machine = TuringMachine.from_rules(
        [
            ("s", "é", "s", "ß", "R"),
            ("s", "a", "s", "€", "R"),
            ("s", BLANK, "back", "ü", "L"),
            ("back", "ß", "back", "ß", "L"),
            ("back", "€", "back", "a", "L"),
            ("back", BLANK, "done", BLANK, "R"),
        ],
        initial="s",
        accept=["done"],
    )
    compiled = compile_tm(machine)
    assert compiled.render is None  # non-ASCII names decode symbol by symbol
    for tape in ("", "é", "aéa", "ééaa", "éxa", "aaé" * 20):
        assert_same(machine, tape)


def test_multi_character_symbol_name():
    # The constructor checks one-character symbols; a table edited
    # afterwards can still hold a longer one, written to a cell whole.
    machine = TuringMachine.from_rules(
        [("s", "1", "s", "1", "R"), ("s", BLANK, "w", BLANK, "S")],
        initial="s",
        accept=["done"],
    )
    machine.delta[("w", BLANK)] = ("done", "<end>", "L")
    machine.delta[("s", "0")] = ("s", "zz", "R")
    compiled = compile_tm(machine)
    assert "<end>" in compiled.symbol_names and compiled.render is None
    for tape in ("", "1", "101", "1" * 50, "10x1", "é"):
        assert_same(machine, tape)


def test_long_tapes_and_walks_past_the_padding():
    walker = TuringMachine.from_rules(
        [("s", "1", "s", "1", "L"), ("s", BLANK, "w", "1", "L"), ("w", BLANK, "w", "1", "L")],
        initial="s",
    )
    for tape in ("", "1", "1" * 16, "1" * 17, "1" * 5000):
        assert_same(walker, tape, fuels=[0, 15, 16, 17, 40, 4097, 20_000])
    assert_same(binary_increment(), "1" * 72_767, fuels=[10, 72_768, 200_000])
    assert_same(copier(), "1" * 60, fuels=[100, 10_000])


def test_sequence_tapes_run_on_the_reference():
    machine = eater()
    compiled = compile_tm(machine)
    for tape in (["1", "0", "1"], ("0", "0"), []):
        assert compiled.run(tape, fuel=100) == machine.run(tape, fuel=100)


def test_pickled_engine_keeps_its_tables():
    machine = TuringMachine.from_rules(
        [("s", "é", "s", "a", "R"), ("s", "a", "s", "é", "R")], initial="s"
    )
    clone = pickle.loads(pickle.dumps(compile_tm(machine)))
    assert clone.intern == compile_tm(machine).intern
    for tape in ("éa", "aaéz", ""):
        assert clone.run(tape, fuel=50) == machine.run(tape, fuel=50)

"""Equivalence tests for the compiled machine engine.

The reference interpreters are the specification; the compiled tables
are the refinement.  Every test here asserts *identical observable
results* — all five ``TMResult`` fields, acceptance booleans, reached
states — across both paths, over the standard machine library and
randomly generated machines, including fuel-exhaustion edge cases.
"""

import gc
import pickle
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.statemachine import StateMachine
from repro.machines.automata import DFA, NFA
from repro.machines.busybeaver import busy_beaver_machine, enumerate_machines
from repro.machines.turing import (
    BLANK,
    TuringMachine,
    binary_increment,
    copier,
    palindrome_checker,
    unary_adder,
)
from repro.perf import engine
from repro.perf.engine import (
    CompiledMachine,
    CompiledTM,
    compile_dfa,
    compile_machine,
    compile_statemachine,
    compile_tm,
    program_key,
    run_compiled,
)

LIBRARY = {
    "binary_increment": binary_increment,
    "palindrome_checker": palindrome_checker,
    "unary_adder": unary_adder,
    "copier": copier,
    "bb2": lambda: busy_beaver_machine(2),
    "bb3": lambda: busy_beaver_machine(3),
    "bb4": lambda: busy_beaver_machine(4),
}

INPUTS = ["", "1011", "abba", "ab", "111+11", "111", "_x_", "a" * 40, "1" * 25, "0"]
FUELS = [0, 1, 3, 50, 1000, 100_000]


def assert_same_result(machine: TuringMachine, tape_input: str, fuel: int) -> None:
    ref = machine.run(tape_input, fuel=fuel)
    got = run_compiled(machine, tape_input, fuel=fuel)
    assert (ref.halted, ref.accepted, ref.steps, ref.tape, ref.final_state) == (
        got.halted,
        got.accepted,
        got.steps,
        got.tape,
        got.final_state,
    ), f"{tape_input!r} fuel={fuel}: {ref} != {got}"


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_library_equivalence(name):
    machine = LIBRARY[name]()
    compiled = compile_tm(machine)
    for tape_input in INPUTS:
        for fuel in FUELS:
            ref = machine.run(tape_input, fuel=fuel)
            got = compiled.run(tape_input, fuel=fuel)
            assert ref == got, f"{name}({tape_input!r}, fuel={fuel})"


def test_fuel_exhaustion_spinner():
    spinner = TuringMachine.from_rules([("s", BLANK, "s", BLANK, "S")], initial="s")
    for fuel in (0, 1, 7, 50_000):
        ref = spinner.run("", fuel=fuel)
        got = run_compiled(spinner, "", fuel=fuel)
        assert ref == got
        assert not got.halted
        assert got.steps == fuel


def test_fuel_exhaustion_mid_scan():
    # Cut the fuel in the middle of a long macro-accelerated scan: the
    # compiled engine must stop at exactly the same cell and count.
    machine = palindrome_checker()
    full = machine.run("a" * 60, fuel=100_000)
    for fuel in (0, 1, 2, 30, 59, 60, 61, 500, full.steps - 1, full.steps):
        assert_same_result(machine, "a" * 60, fuel)


def test_unknown_input_symbols_halt_identically():
    machine = binary_increment()
    for tape_input in ("10z1", "zzz", "1_0", "é1"):
        for fuel in (0, 5, 100):
            assert_same_result(machine, tape_input, fuel)


def test_initial_state_is_accepting():
    machine = TuringMachine.from_rules(
        [("ok", "1", "ok", "1", "R")], initial="ok", accept=["ok"]
    )
    for fuel in (0, 1, 10):
        assert_same_result(machine, "111", fuel)


def test_uncompilable_alphabet_falls_back():
    # >256 symbols cannot intern into a tape byte; run_compiled must
    # transparently use the reference interpreter instead.
    symbols = [chr(0x100 + i) for i in range(300)]
    delta = {("s", c): ("s", c, "R") for c in symbols}
    machine = TuringMachine(delta, "s")
    with pytest.raises(ValueError):
        compile_tm(machine)
    ref = machine.run(symbols[0] * 3, fuel=10)
    got = run_compiled(machine, symbols[0] * 3, fuel=10)
    assert ref == got


STATES = [f"q{i}" for i in range(5)]
SYMBOLS = list("_01a")


@st.composite
def random_machines(draw):
    states = STATES[: draw(st.integers(1, 5))]
    symbols = SYMBOLS[: draw(st.integers(2, 4))]
    delta = draw(
        st.dictionaries(
            st.tuples(st.sampled_from(states), st.sampled_from(symbols)),
            st.tuples(
                st.sampled_from(states),
                st.sampled_from(symbols),
                st.sampled_from(["L", "R", "S"]),
            ),
            max_size=20,
        )
    )
    accept = draw(st.frozensets(st.sampled_from(states), max_size=2))
    reject = draw(st.frozensets(st.sampled_from(states), max_size=2)) - accept
    return TuringMachine(delta, draw(st.sampled_from(states)), accept, reject)


@settings(deadline=None, max_examples=150)
@given(
    machine=random_machines(),
    tape_input=st.text(alphabet="01a_x", max_size=10),
    fuel=st.sampled_from([0, 1, 7, 100, 3000]),
)
def test_random_machine_equivalence(machine, tape_input, fuel):
    assert_same_result(machine, tape_input, fuel)


def test_compiled_tm_describe():
    compiled = compile_tm(binary_increment())
    info = compiled.describe()
    assert info["states"] >= 3
    assert info["symbols"] >= 3  # blank, 0, 1
    assert info["rules"] == 6


def test_compiled_is_reusable():
    compiled = compile_tm(binary_increment())
    assert compiled.run("1").tape == "10"
    assert compiled.run("11").tape == "100"
    assert compiled.run("1").tape == "10"  # no state leaks between runs


# -- DFAs -------------------------------------------------------------------


@st.composite
def random_dfas(draw):
    states = [f"s{i}" for i in range(draw(st.integers(1, 5)))]
    alphabet = list("abc")[: draw(st.integers(1, 3))]
    transitions = []
    for s in states:
        for a in alphabet:
            if draw(st.booleans()):
                transitions.append((s, a, draw(st.sampled_from(states))))
    accepting = draw(st.lists(st.sampled_from(states), max_size=3, unique=True))
    return DFA.build(transitions, initial=states[0], accepting=accepting)


@settings(deadline=None, max_examples=100)
@given(dfa=random_dfas(), word=st.text(alphabet="abcz", max_size=12))
def test_dfa_equivalence(dfa, word):
    assert compile_dfa(dfa).accepts(word) == dfa.accepts(word)


def test_dfa_non_string_word():
    dfa = DFA.build([("p", "a", "q"), ("q", "a", "p")], initial="p", accepting=["q"])
    compiled = compile_dfa(dfa)
    assert compiled.accepts(["a"]) == dfa.accepts(["a"])
    assert compiled.accepts(["a", "a"]) == dfa.accepts(["a", "a"])
    assert compiled.accepts([]) == dfa.accepts([])


def test_dfa_from_subset_construction():
    # The classic "2nd symbol from the end is a" family via determinize.
    nfa = NFA.build(
        [("p", "a", "p"), ("p", "b", "p"), ("p", "a", "q"), ("q", "a", "r"), ("q", "b", "r")],
        initial=["p"],
        accepting=["r"],
    )
    dfa = nfa.determinize()
    compiled = compile_dfa(dfa)
    for word in ("", "a", "ab", "aa", "ba", "abab", "aab" * 20, "b" * 50 + "ab"):
        assert compiled.accepts(word) == dfa.accepts(word)


# -- Labelled transition systems -------------------------------------------


def test_statemachine_equivalence():
    machine = StateMachine(
        initial=0,
        transitions=[(i, "t", (i + 1) % 5) for i in range(5)] + [(i, "r", 0) for i in range(5)],
    )
    compiled = compile_statemachine(machine)
    for seq in ([], ["t"], ["t", "t", "r"], ["r", "x"], ["t"] * 12, ["x"]):
        ref = machine.run(seq)
        got = compiled.run(seq)
        assert (set() if got is None else {got}) == ref
        assert compiled.accepts(seq) == machine.accepts(seq)


def test_statemachine_nondeterministic_refused():
    machine = StateMachine(initial=0, transitions=[(0, "a", 1), (0, "a", 2)])
    with pytest.raises(ValueError, match="deterministic"):
        compile_statemachine(machine)


# -- The shared protocol ----------------------------------------------------


def test_compile_machine_dispatch():
    tm = compile_machine(binary_increment())
    assert isinstance(tm, CompiledTM)
    dfa = compile_machine(
        DFA.build([("p", "a", "p")], initial="p", accepting=["p"])
    )
    lts = compile_machine(StateMachine(initial=0, transitions=[(0, "a", 1)]))
    for compiled in (tm, dfa, lts):
        assert isinstance(compiled, CompiledMachine)
        info = compiled.describe()
        assert info["states"] >= 1 and info["rules"] >= 1


def test_compile_machine_unknown_type():
    with pytest.raises(TypeError):
        compile_machine(42)


# -- The program_key memo ----------------------------------------------------


def _fresh_key(machine):
    """The key computed from scratch: an equal machine in a new object."""
    return program_key(pickle.loads(pickle.dumps(machine)))


def test_program_key_concurrent_hot_machine_and_stream():
    """Threads re-key a hot machine while others key streams of machines
    that die right after keying, so entries come and go under the hot
    lookups: no exception, and every key is the fresh one."""
    hot = busy_beaver_machine(4)
    stream = enumerate_machines(3, 20_000, seed=1)
    hot_keys, stream_keys, errors = [], {}, []
    done = threading.Event()

    def keep_hot():
        try:
            while not done.is_set():
                hot_keys.append(program_key(hot))
        except Exception as exc:  # pragma: no cover - the regression
            errors.append(exc)

    def key_stream(part):
        try:
            stream_keys[part] = [
                program_key(TuringMachine(dict(m.delta), m.initial, m.accept_states))
                for m in stream[part::2]
            ]
        except Exception as exc:  # pragma: no cover - the regression
            errors.append(exc)

    hot_threads = [threading.Thread(target=keep_hot) for _ in range(2)]
    streams = [threading.Thread(target=key_stream, args=(part,)) for part in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in hot_threads + streams:
            thread.start()
        for thread in streams:
            thread.join(timeout=120)
    finally:
        done.set()
        for thread in hot_threads:
            thread.join(timeout=120)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in hot_threads + streams)
    assert not errors
    assert hot_keys
    fresh = _fresh_key(hot)
    assert all(key == fresh for key in hot_keys)
    for part in (0, 1):
        assert stream_keys[part] == [program_key(m) for m in stream[part::2]]


def test_program_key_memo_does_not_keep_machines_alive():
    gc.collect()
    before = len(engine._KEY_MEMO)
    machines = enumerate_machines(3, 500, seed=2)
    keys = [program_key(m) for m in machines]
    assert len(engine._KEY_MEMO) == before + 500
    refs = [weakref.ref(m) for m in machines]
    del machines
    gc.collect()
    assert len(engine._KEY_MEMO) == before
    assert all(ref() is None for ref in refs)
    assert len(keys) == 500

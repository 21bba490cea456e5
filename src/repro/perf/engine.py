"""Compile machine models into dense integer tables.

The reference interpreters (``TuringMachine.run``, ``DFA.accepts``,
``StateMachine.run``) walk dict-of-strings transition maps: every step
pays tuple construction, string hashing and two dict probes.  The
compilers here intern states and symbols to small integers once, per
machine, and flatten the transition map into a flat list indexed by
``(state << 8) | symbol`` (Turing machines) or ``state * n + symbol``
(automata), so the hot loop is a list index and a tuple unpack.

The Turing-machine tape becomes a growable ``bytearray`` with
amortised doubling at both ends instead of a dict-per-cell, which is
both faster and cache-friendly.  Same-state runs — a state sliding
its head one way over symbols it rewrites (or leaves alone) without
changing state, like a scan or a carry — are macro-stepped: one
C-speed ``find``/``rfind`` for the run's end and one slice
``translate`` for its rewrites, instead of one loop iteration per cell
(the standard busy-beaver simulator acceleration; Marxen & Buntrock,
"Attacking the Busy Beaver 5", 1990).

Equivalence contract: for every machine and input,
``compile_tm(m).run(x, fuel=f)`` returns a :class:`TMResult` whose
fields are *identical* to ``m.run(x, fuel=f)`` — including the
fuel-exhaustion case (``halted=False``) and the missing-rule case.
``tests/test_perf_engine.py`` property-tests this over the machine
library and randomly generated machines; the reference interpreter is
the specification, the compiled engine its refinement (paper §1a).

Machines whose alphabet cannot be interned into a byte (more than 256
distinct symbols, counting run-time input symbols) fall back to the
reference interpreter transparently.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import singledispatch
from typing import Any, Hashable, Protocol, runtime_checkable

from repro.core.statemachine import StateMachine
from repro.machines.automata import DFA
from repro.machines.turing import BLANK, MOVE_OFFSET, TMResult, TuringMachine
from repro.obs.instrument import OBS

__all__ = [
    "CompiledMachine",
    "CompiledTM",
    "CompiledDFA",
    "CompiledStateMachine",
    "compile_machine",
    "compile_tm",
    "compile_dfa",
    "compile_statemachine",
    "program_key",
    "run_compiled",
    "tm_symbols",
]

# Symbols intern into one tape byte; every state row has 256 slots so
# a tape byte addresses its slot directly with no range check.
_MAX_SYMBOLS = 256
_IDENTITY = bytes(range(_MAX_SYMBOLS))  # the translate table that rewrites nothing

# Minimum head-to-edge margin before a segment starts; below this the
# tape doubles.  Also the cap on the initial padding of each side.
_MIN_MARGIN = 4096


@runtime_checkable
class CompiledMachine(Protocol):
    """What every compiled machine exposes: its reference ``source``
    (the specification it refines) and a ``describe()`` summary."""

    source: Any

    def describe(self) -> dict[str, int]: ...


# ---------------------------------------------------------------------------
# Content keys — the intern surface shared with the batch layer
# ---------------------------------------------------------------------------

# program_key is called once per job by the batch layer, and sorting a
# transition table per call costs more than many compiled runs save.
# An entry is an id-keyed weak reference carrying the key; a shared
# callback drops it when its machine dies, before the id can be reused,
# so the memo never keeps a machine (or a census of them) alive.
_KEY_MEMO: dict[int, _KeyRef] = {}


class _KeyRef(weakref.ref):
    __slots__ = ("mid", "key")


def _forget(entry: _KeyRef, memo: dict = _KEY_MEMO) -> None:
    memo.pop(entry.mid, None)  # memo bound early: module globals clear at exit


def program_key(machine: TuringMachine) -> tuple:
    """A hashable content key: equal machines share compiled tables.

    The key covers the class as well as the content, so a subclass
    that overrides ``run`` (a test double, say) never aliases the base
    machine in a content-keyed cache.  Keying assumes ``delta`` is not
    mutated after the first call — the same assumption every compiled
    table already makes.

    The halting-state sets are sorted into tuples: a frozenset of
    ``str`` iterates in per-process hash order, and the journal key,
    the trace digest and dist's home node all hash this key's pickle
    (:func:`repro.util.framing.key_digest`), so it must pickle the same
    in every process.
    """
    entry = _KEY_MEMO.get(id(machine))
    if entry is not None and entry() is machine:
        return entry.key
    cls = type(machine)
    key = (
        f"{cls.__module__}.{cls.__qualname__}",
        machine.initial,
        tuple(sorted(machine.accept_states)),
        tuple(sorted(machine.reject_states)),
        tuple(sorted(machine.delta.items())),
    )
    entry = _KeyRef(machine, _forget)
    entry.mid, entry.key = id(machine), key  # complete before it is visible
    _KEY_MEMO[entry.mid] = entry
    return key


# ---------------------------------------------------------------------------
# Turing machines
# ---------------------------------------------------------------------------


@dataclass
class CompiledTM:
    """A :class:`TuringMachine` lowered to integer tables.

    Each state owns a 256-slot row indexed directly by the tape byte;
    a slot holds ``(next_row, write_symbol, move_offset)`` — the next
    *row object itself*, so the hot loop never maps state ids — or
    ``None`` when the machine stops there.  Halting states
    (accept/reject) have all-``None`` rows, which makes "reached a
    halt state" and "no rule" the same single event: unpacking ``None``
    raises ``TypeError``, so the steady state pays no halt branch at
    all (zero-cost exceptions).

    Same-state runs compile to *macro* slots.  State ``q``'s run set
    in direction ``d`` (L or R) is the symbols ``c`` with
    ``delta[q, c] == (q, w_c, d)``: on any of them the machine writes
    ``w_c``, moves on and stays in ``q``.  A macro slot is the 4-tuple
    ``(move_offset, terminator_bytes, rewrite_table, row)``; unpacking
    it into three names raises ``ValueError``, and the handler takes
    the whole maximal run at once — a C-speed ``find``/``rfind`` for
    the nearest terminator (a symbol outside the run set), one slice
    ``bytearray.translate`` through the 256-byte ``rewrite_table``
    (``None`` for identity scans, which skip it), one step charged per
    cell — and resumes in ``row``, ``q``'s own row.  A scan or a carry
    costs O(1) Python operations instead of one interpreter iteration
    per cell, which is where the bulk of the speedup comes from; the
    observable result — steps, tape, state — is unchanged.

    A run's first cell stays a plain step: ``q``'s row sends each
    run-set symbol into ``q``'s *continuation row*, a copy of the row
    whose run-set slots are the macros, so a macro fires only on a
    run's second cell and a one-cell run never pays its exception.
    ``rows`` holds the state rows only (``describe`` counts their
    rules); ``row_ids`` maps every row, continuation rows included, to
    its state id.  Identity spins ``(q, c) -> (q, c, S)`` are macros
    with offset 0 that burn the remaining fuel; other STAY rules are
    plain steps.
    """

    source: TuringMachine
    state_names: list[str]
    symbol_names: list[str]  # symbol_names[0] == BLANK
    rows: list[list[tuple | None]] = field(repr=False)
    initial_id: int = 0
    accept_flags: list[bool] = field(default_factory=list)
    state_ids: dict[str, int] = field(repr=False, default_factory=dict)
    symbol_ids: dict[str, int] = field(repr=False, default_factory=dict)
    row_ids: dict[int, int] = field(repr=False, default_factory=dict)
    # Per-machine ``str.translate`` tables, built once so a run never
    # walks its input or the alphabet in Python: one-character symbol
    # -> its id as a character, one-character symbol -> deleted, and
    # id -> ASCII byte for ``_render`` (None unless every symbol is one
    # ASCII character).
    intern: dict[int, str] = field(repr=False, default_factory=dict)
    known: dict[int, None] = field(repr=False, default_factory=dict)
    render: bytes | None = field(repr=False, default=None)

    def __reduce__(self):
        # Rows are interlinked by object identity (row_ids is keyed by
        # id()); recompiling from the source machine is the only
        # pickle representation that survives the round trip.
        return (compile_tm, (self.source,))

    def describe(self) -> dict[str, int]:
        return {
            "states": len(self.state_names),
            "symbols": len(self.symbol_names),
            "rules": sum(1 for row in self.rows for a in row if a is not None),
        }

    def run(self, tape_input: str, *, fuel: int = 10_000) -> TMResult:
        """Step-for-step equivalent of ``self.source.run``.

        Instrumentation records once per *run*, never per step: the hot
        loop lives in :meth:`_run_core` untouched, and the disabled
        path here costs one attribute load and one branch (gated < 5%
        by ``benchmarks/bench_obs_overhead.py``).
        """
        result, grows, skips, skipped_cells = self._run_core(tape_input, fuel)
        if OBS.enabled:
            OBS.count("engine_runs_total")
            OBS.count("engine_steps_total", result.steps)
            if result.halted:
                OBS.count("engine_halts_total")
            if grows:
                OBS.count("engine_tape_grows_total", grows)
            if skips:
                OBS.count("engine_macro_skips_total", skips)
                OBS.count("engine_macro_cells_total", skipped_cells)
        return result

    def _run_core(self, tape_input: str, fuel: int) -> tuple[TMResult, int, int, int]:
        """The uninstrumented hot loop; returns ``(result, tape_grows,
        macro_skips, macro_cells_skipped)`` — the diagnostics are
        tallied only on the rare grow/macro branches."""
        if not isinstance(tape_input, str):  # a sequence of symbols
            return self.source.run(tape_input, fuel=fuel), 0, 0, 0
        names = self.symbol_names
        intern = self.intern
        render = self.render
        # Input may contain symbols the transition table never mentions;
        # intern them at run time (the machine halts on reading one, but
        # they must survive onto the rendered tape).
        unknown = tape_input.translate(self.known)
        if unknown:
            extra = list(dict.fromkeys(unknown))
            if len(names) + len(extra) > _MAX_SYMBOLS:
                return self.source.run(tape_input, fuel=fuel), 0, 0, 0
            intern = dict(intern)
            intern.update((ord(c), chr(i)) for i, c in enumerate(extra, len(names)))
            names = names + extra
            render = _render_table(names)

        # The growth path below doubles the tape, so padding for the
        # input's own length (not the fuel's) keeps growth amortised
        # without zeroing and stripping thousands of cells per run.
        pad = min(_MIN_MARGIN, max(16, min(len(tape_input), fuel)))
        tape = bytearray(pad)
        tape += tape_input.translate(intern).encode("latin-1")
        tape.extend(bytes(pad))
        head = pad
        row = self.rows[self.initial_id]
        # Run-time interned symbols terminate scans (they have no rules).
        extras = tuple(range(len(self.symbol_names), len(names)))
        steps = 0
        size = len(tape)
        halted = False
        grows = skips = skipped_cells = 0
        # Segmented execution: each segment runs unguarded for at most
        # as many steps as the head's distance to the nearest tape
        # edge, so the inner loop needs no bounds checks (the head
        # moves at most one cell per step and a negative index would
        # silently wrap on a bytearray).  When the margin runs low the
        # tape doubles; total growth work is amortised O(steps).
        while steps < fuel:
            margin = head if head < size - head - 1 else size - head - 1
            if margin < pad and margin < fuel - steps:
                if head < size - head - 1:
                    tape[:0] = bytes(size)
                    head += size
                else:
                    tape.extend(bytes(size))
                size += size
                grows += 1
                continue
            remaining = fuel - steps
            segment_end = steps + (margin if margin < remaining else remaining)
            try:
                for steps in range(steps, segment_end):
                    row, write, move = row[tape[head]]
                    tape[head] = write
                    head += move
                steps = segment_end  # segment (or the fuel) exhausted
            except TypeError:  # unpacked None: halt state or missing rule
                halted = True
                break
            except ValueError:  # unpacked a 4-tuple: a same-state run
                move, terms, table, row = row[tape[head]]
                remaining = fuel - steps
                if extras:
                    terms += extras
                # The run ends at the nearest terminator; with none on
                # the tape it reaches the edge, and after the tape grows
                # the next cell starts a new run.
                if move == 1:
                    stop = size
                    for t in terms:
                        j = tape.find(t, head, stop)
                        if j >= 0:
                            stop = j
                    k = stop - head if stop - head < remaining else remaining
                    if table is not None:
                        tape[head : head + k] = tape[head : head + k].translate(table)
                elif move == -1:
                    stop = -1
                    for t in terms:
                        j = tape.rfind(t, stop + 1, head + 1)
                        if j >= 0:
                            stop = j
                    k = head - stop if head - stop < remaining else remaining
                    if table is not None:
                        start = head + 1 - k
                        tape[start : head + 1] = tape[start : head + 1].translate(table)
                else:  # in-place spin: burns the rest of the fuel
                    k = remaining
                head += move * k
                steps += k
                skips += 1
                skipped_cells += k
        state = self.row_ids[id(row)]
        accepted = halted and self.accept_flags[state]
        result = TMResult(
            halted, accepted, steps, _render(tape, names, render), self.state_names[state]
        )
        return result, grows, skips, skipped_cells


def _render(tape: bytearray, names: list[str], table: bytes | None) -> str:
    """Interned tape -> the same trimmed string the reference renders.

    The blank symbol interns to byte 0, so the reference's
    ``strip(BLANK)`` is a C-speed strip of zero bytes — done *first*,
    because the tape carries padding that the symbol-by-symbol decode
    must never scan.  ``table`` is :func:`_render_table` of ``names``.
    """
    core = tape.strip(b"\x00")
    if not core:
        return ""
    if table is not None:
        return core.translate(table).decode("ascii")
    return "".join(names[b] for b in core)


def _render_table(names: list[str]) -> bytes | None:
    """Symbol id -> ASCII byte, when every symbol is one ASCII character."""
    if all(isinstance(n, str) and len(n) == 1 and ord(n) < 128 for n in names):
        return bytes(ord(names[i]) if i < len(names) else 0 for i in range(256))
    return None


def tm_symbols(machine: TuringMachine) -> list[str]:
    """The tape alphabet in interning order: ``BLANK`` first, then the
    sorted rule symbols (states intern as ``sorted(machine.states())``)."""
    symbols = {BLANK}
    for (_, sym), (_, wsym, _) in machine.delta.items():
        symbols.add(sym)
        symbols.add(wsym)
    return [BLANK] + sorted(symbols - {BLANK})


def compile_tm(machine: TuringMachine) -> CompiledTM:
    """Intern states/symbols and flatten ``delta`` into a flat table.

    Every rule fills one slot of its state's row.  A same-state rule
    that moves fills two (see :class:`CompiledTM`): a plain step into
    the state's continuation row, and there the run's macro, whose
    terminators are the alphabet symbols outside the run set and whose
    rewrite table sends each run-set symbol to the symbol it writes.

    Raises ``ValueError`` for machines whose tape alphabet exceeds 256
    symbols (they cannot be interned into a byte; use the reference
    interpreter or :func:`run_compiled`, which falls back).
    """
    state_names = sorted(machine.states())
    state_ids = {s: i for i, s in enumerate(state_names)}
    symbol_names = tm_symbols(machine)
    if len(symbol_names) > _MAX_SYMBOLS:
        raise ValueError(
            f"alphabet has {len(symbol_names)} symbols; at most {_MAX_SYMBOLS} compile"
        )
    symbol_ids = {c: i for i, c in enumerate(symbol_names)}

    halting = machine.accept_states | machine.reject_states
    rows: list[list[tuple | None]] = [[None] * _MAX_SYMBOLS for _ in state_names]
    # runs[q, offset] is q's run set in that direction: symbol -> write.
    runs: dict[tuple[int, int], dict[int, int]] = {}
    for (s, sym), (t, wsym, move) in machine.delta.items():
        if s in halting:
            continue  # the reference checks halt states before rules
        q, c, w, offset = state_ids[s], symbol_ids[sym], symbol_ids[wsym], MOVE_OFFSET[move]
        if t == s and offset:
            runs.setdefault((q, offset), {})[c] = w
        elif t == s and w == c:  # identity spin: a macro that burns the fuel
            rows[q][c] = (0, (), None, rows[q])
        else:
            rows[q][c] = (rows[state_ids[t]], w, offset)
    row_ids = {id(row): q for q, row in enumerate(rows)}
    continuations: dict[int, list[tuple | None]] = {}
    for (q, offset), rewrites in runs.items():
        row = rows[q]
        cont = continuations.get(q)
        if cont is None:  # copied before any run-set slot is filled
            cont = continuations[q] = list(row)
            row_ids[id(cont)] = q
        terms = tuple(b for b in range(len(symbol_names)) if b not in rewrites)
        table = bytearray(_IDENTITY)
        for c, w in rewrites.items():
            table[c] = w
        macro = (offset, terms, None if table == _IDENTITY else bytes(table), row)
        for c, w in rewrites.items():
            row[c] = (cont, w, offset)
            cont[c] = macro
    accept_flags = [s in machine.accept_states for s in state_names]
    chars = [(ord(c), i) for c, i in symbol_ids.items() if isinstance(c, str) and len(c) == 1]
    return CompiledTM(
        source=machine,
        state_names=state_names,
        symbol_names=symbol_names,
        rows=rows,
        initial_id=state_ids[machine.initial],
        accept_flags=accept_flags,
        state_ids=state_ids,
        symbol_ids=symbol_ids,
        row_ids=row_ids,
        intern={code: chr(i) for code, i in chars},
        known=dict.fromkeys(code for code, _ in chars),
        render=_render_table(symbol_names),
    )


def run_compiled(
    machine: TuringMachine | CompiledTM, tape_input: str, *, fuel: int = 10_000
) -> TMResult:
    """Run through the compiled engine, compiling on the fly if needed.

    Falls back to the reference interpreter for machines that cannot
    be compiled, so it is total over the same domain as ``run``.
    """
    if isinstance(machine, CompiledTM):
        return machine.run(tape_input, fuel=fuel)
    try:
        compiled = compile_tm(machine)
    except ValueError:
        return machine.run(tape_input, fuel=fuel)
    return compiled.run(tape_input, fuel=fuel)


# ---------------------------------------------------------------------------
# Finite automata
# ---------------------------------------------------------------------------


class _InternTable(dict):
    """``str.translate`` table that sends unknown characters to the
    reserved dead byte 255 instead of passing them through (a passed-
    through character whose code point is below 256 would collide with
    a real symbol id)."""

    def __missing__(self, key: int) -> int:
        return 255


@dataclass
class CompiledDFA:
    """A :class:`DFA` lowered to a flat 256-stride table of state ids,
    with ``-1`` as the implicit dead state.

    For string words the whole input is interned in one C-speed
    ``str.translate`` + ``encode`` pass, so the per-symbol cost is a
    shift, an index and a sign check — no tuple building, no hashing.
    """

    source: DFA
    state_names: list[str]
    symbol_names: list[str]
    table: list[int]
    initial_id: int
    accepting_flags: list[bool]
    symbol_ids: dict[str, int] = field(repr=False)
    trans: _InternTable | None = field(repr=False, default=None)

    def describe(self) -> dict[str, int]:
        return {
            "states": len(self.state_names),
            "symbols": len(self.symbol_names),
            "rules": sum(1 for t in self.table if t >= 0),
        }

    def accepts(self, word: Any) -> bool:
        """Equivalent to ``self.source.accepts``."""
        if self.trans is not None and isinstance(word, str):
            data = word.translate(self.trans).encode("latin-1")
            table = self.table
            state = self.initial_id
            for b in data:
                state = table[(state << 8) | b]
                if state < 0:
                    return False
            return self.accepting_flags[state]
        return self._accepts_general(word)

    def _accepts_general(self, word: Any) -> bool:
        """Per-symbol path for non-string words (or huge alphabets)."""
        ids = self.symbol_ids
        table = self.table
        state = self.initial_id
        for symbol in word:
            i = ids.get(symbol, -1)
            if i < 0:
                return False
            state = table[(state << 8) | i]
            if state < 0:
                return False
        return self.accepting_flags[state]


def compile_dfa(dfa: DFA) -> CompiledDFA:
    """Intern states/symbols and flatten ``delta`` into a flat table.

    Raises ``ValueError`` when the alphabet has more than 255 symbols
    (byte 255 is the reserved dead byte for unknown characters).
    """
    state_names = sorted(dfa.states)
    state_ids = {s: i for i, s in enumerate(state_names)}
    symbol_names = sorted(dfa.alphabet)
    if len(symbol_names) > 255:
        raise ValueError(f"alphabet has {len(symbol_names)} symbols; at most 255 compile")
    symbol_ids = {c: i for i, c in enumerate(symbol_names)}
    table = [-1] * (len(state_names) << 8)
    for (s, a), t in dfa.delta.items():
        table[(state_ids[s] << 8) | symbol_ids[a]] = state_ids[t]
    single_char = all(len(c) == 1 for c in symbol_names)
    trans = _InternTable({ord(c): i for c, i in symbol_ids.items()}) if single_char else None
    return CompiledDFA(
        source=dfa,
        state_names=state_names,
        symbol_names=symbol_names,
        table=table,
        initial_id=state_ids[dfa.initial],
        accepting_flags=[s in dfa.accepting for s in state_names],
        symbol_ids=symbol_ids,
        trans=trans,
    )


# ---------------------------------------------------------------------------
# Labelled transition systems
# ---------------------------------------------------------------------------


@dataclass
class CompiledStateMachine:
    """A deterministic :class:`StateMachine` lowered to a flat table.

    States and actions are arbitrary hashables, so both are interned
    in first-seen order rather than sorted.
    """

    source: StateMachine
    state_names: list[Hashable]
    action_names: list[Hashable]
    table: list[int]
    initial_id: int
    action_ids: dict[Hashable, int] = field(repr=False)

    def describe(self) -> dict[str, int]:
        return {
            "states": len(self.state_names),
            "symbols": len(self.action_names),
            "rules": sum(1 for t in self.table if t >= 0),
        }

    def run(self, actions: Any) -> Hashable | None:
        """The unique state reached via ``actions``, or None if the
        sequence is not executable — ``source.run`` returns the same
        thing as a ≤1-element set."""
        ids = self.action_ids
        table = self.table
        n = len(self.action_names)
        state = self.initial_id
        for action in actions:
            i = ids.get(action, -1)
            if i < 0:
                return None
            state = table[state * n + i]
            if state < 0:
                return None
        return self.state_names[state]

    def accepts(self, actions: Any) -> bool:
        """Equivalent to ``self.source.accepts``."""
        return self.run(actions) is not None


def compile_statemachine(machine: StateMachine) -> CompiledStateMachine:
    """Compile a deterministic LTS; raises ``ValueError`` otherwise."""
    if not machine.is_deterministic():
        raise ValueError("only deterministic state machines compile to a dense table")
    state_ids: dict[Hashable, int] = {}
    state_names: list[Hashable] = []
    action_ids: dict[Hashable, int] = {}
    action_names: list[Hashable] = []

    def intern_state(s: Hashable) -> int:
        if s not in state_ids:
            state_ids[s] = len(state_names)
            state_names.append(s)
        return state_ids[s]

    intern_state(machine.initial)
    triples = []
    for tr in machine.transitions():
        triples.append((intern_state(tr.source), tr.action, intern_state(tr.target)))
        if tr.action not in action_ids:
            action_ids[tr.action] = len(action_names)
            action_names.append(tr.action)
    n = len(action_names)
    table = [-1] * (len(state_names) * n)
    for sid, action, tid in triples:
        table[sid * n + action_ids[action]] = tid
    return CompiledStateMachine(
        source=machine,
        state_names=state_names,
        action_names=action_names,
        table=table,
        initial_id=state_ids[machine.initial],
        action_ids=action_ids,
    )


# ---------------------------------------------------------------------------
# The shared entry point
# ---------------------------------------------------------------------------


@singledispatch
def compile_machine(machine: Any) -> CompiledMachine:
    """Compile any supported machine model into its table form."""
    raise TypeError(f"don't know how to compile {type(machine).__name__}")


@compile_machine.register
def _(machine: TuringMachine) -> CompiledTM:
    return compile_tm(machine)


@compile_machine.register
def _(machine: DFA) -> CompiledDFA:
    return compile_dfa(machine)


@compile_machine.register
def _(machine: StateMachine) -> CompiledStateMachine:
    return compile_statemachine(machine)

"""Compile stack-machine bytecode into Python basic blocks.

:class:`repro.complang.vm.VM` decodes one instruction per loop
iteration: a chain of string compares, a list push and pop per operand,
a dict probe per variable and a fuel check per step.
:func:`compile_vm` is the bytecode counterpart of
:func:`repro.perf.engine.compile_tm`.  It splits the code into basic
blocks, checks that every reachable block is always entered at the same
stack depth, and lowers each block once into straight-line Python over
a *symbolic* stack:

* operands become nested expressions (``(((v0 * k1) + v1) % k2)``), and
  a comparison feeding ``JZ``/``JNZ`` becomes the ``if`` test itself;
* stack slots live across blocks in locals ``s0, s1, ...`` and
  variables in locals ``v0, v1, ...``; the environment dict is written
  only by a store that may be its variable's first on the path (which
  fixes the key order) and once more when the program ends;
* a block with a single incoming edge is inlined where that edge
  leaves its predecessor, so a loop body runs inside its loop test;
* every other block is a dispatch target, picked by a balanced
  ``if b < k`` tree inside one ``while True``;
* fuel is charged once per dispatch, as the static sum of the inlined
  blocks' lengths, and checked before the next dispatch or the return.

The ``PUSH`` constants are the function's default arguments
``k0, k1, ...``, so the Python source depends only on the program's
*shape*: its opcodes, jump targets and variable names.  Programs of one
shape (a template filled with different constants) share one code
object, and only the first of them pays for Python's ``compile()``.

Equivalence contract: ``compile_vm(vm).run(env=e, fuel=f)`` returns
what ``vm.run(env=e, fuel=f)`` returns — output, final environment in
the same key order, and step count — or raises what it raises.  The
compiled path runs only when the fuel and every input value are exactly
``int``.  It never reports an error itself: on any exception, fuel
overrun or value left on the stack it replays the job on ``VM.run``
from the start, so every error and its message come from the reference.
``tests/test_perf_vm_engine.py`` checks this against ``VM.run`` over
random programs and random raw bytecode.

Safety: the generated source holds only fixed text, names and numbers
of its own, and the ``repr`` of exact-``str`` variable names; constants
must be exactly ``int`` and never enter the source.  Any other operand
makes :func:`compile_vm` raise ``ValueError``.  The source runs with no
builtins.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from types import FunctionType
from typing import Any, NamedTuple

from repro.complang.vm import VM, VMOutcome

__all__ = ["CompiledVM", "compile_vm"]

_ARITH = {"ADD": "+", "SUB": "-", "MUL": "*", "DIV": "//", "MOD": "%"}
_COMPARE = {"LT": "<", "LE": "<=", "GT": ">", "GE": ">=", "EQ": "==", "NE": "!="}
_JUMPS = ("JMP", "JZ", "JNZ")
# The exact operand type of every opcode that reads its operand.
_OPERAND = {"PUSH": int, "LOAD": str, "STORE": str, **dict.fromkeys(_JUMPS, int)}

# (pops, pushes) per opcode; a terminator's jump is not a stack effect.
_EFFECT = {
    "PUSH": (0, 1), "LOAD": (0, 1), "STORE": (1, 0), "NEG": (1, 1),
    "NOT": (1, 1), "DUP": (1, 2), "POP": (1, 0), "PRINT": (1, 0),
    "JMP": (0, 0), "JZ": (1, 0), "JNZ": (1, 0), "HALT": (0, 0),
    **dict.fromkeys([*_ARITH, *_COMPARE], (2, 1)),
}

# Parenthesis depth at which an expression is evaluated into a
# temporary first (CPython's parser refuses about 200 levels).
_MAX_NEST = 32
# Longest chain of blocks inlined below one dispatch target; past it
# the next block dispatches (CPython allows 100 indent levels).
_MAX_INLINE = 32
# Distinct program shapes whose code objects stay cached.
_SHAPES = 256


class _Val(NamedTuple):
    """One symbolic stack entry: Python source for its value."""

    text: str
    refs: frozenset = frozenset()  # locals the text reads
    nest: int = 0  # parenthesis depth; 0 is a name
    is_bool: bool = False  # a comparison or NOT, still a Python bool
    settled: bool = True  # dropping it unevaluated skips no fault


def _int(value: _Val) -> str:
    """Source for ``value`` as the VM's int (comparisons give 0/1)."""
    return f"(1 if {value.text} else 0)" if value.is_bool else value.text


class CompiledVM:
    """A :class:`VM` lowered to one Python function over its basic
    blocks; ``source`` is the reference it refines."""

    __slots__ = ("source", "lowered", "blocks", "regions", "_run")

    def __init__(self, source: VM, lowered: str, blocks: int, regions: int, run) -> None:
        self.source = source
        self.lowered = lowered  # the generated Python source
        self.blocks = blocks
        self.regions = regions
        self._run = run

    def __reduce__(self):
        # Functions do not pickle; lowering again from the VM does.
        return (compile_vm, (self.source,))

    def describe(self) -> dict[str, int]:
        return {"ops": len(self.source.code), "blocks": self.blocks, "regions": self.regions}

    def run(self, *, env: dict[str, int] | None = None, fuel: int = 1_000_000) -> VMOutcome:
        """Exactly ``self.source.run(env=env, fuel=fuel)``."""
        start = dict(env or {})
        if type(fuel) is int:
            for value in start.values():
                if type(value) is not int:
                    break
            else:
                try:
                    done = self._run(start, fuel)
                except Exception:
                    # A zero divisor, an unbound variable (an unbound
                    # local here), anything: the replay below raises
                    # the VM's own error for it, or returns its result.
                    done = None
                if done is not None:
                    return VMOutcome(done[0], start, done[1])
        return self.source.run(env=env, fuel=fuel)


def compile_vm(vm: VM) -> CompiledVM:
    """Lower ``vm``'s bytecode into a :class:`CompiledVM`.

    Raises ``ValueError`` when a ``PUSH`` operand or jump target is not
    exactly ``int``, a variable name is not exactly ``str``, or two
    paths reach one block at different stack depths.
    """
    shape = []
    constants = []
    for i, op in enumerate(vm.code):
        want = _OPERAND.get(op.code)
        if want is not None and type(op.arg) is not want:
            raise ValueError(f"{op!r} at {i}: operand is not exactly {want.__name__}")
        if op.code == "PUSH":
            shape.append(("PUSH", len(constants)))
            constants.append(op.arg)
        else:
            shape.append((op.code, op.arg if want else None))
    template, lowered, blocks, regions = _lower(tuple(shape))
    run = FunctionType(template.__code__, template.__globals__, "run", tuple(constants))
    return CompiledVM(vm, lowered, blocks, regions, run)


@lru_cache(maxsize=_SHAPES)
def _lower(shape: tuple) -> tuple[Any, str, int, int]:
    """One code object per shape: ``(run, source, blocks, regions)``."""
    lowering = _Lowering(shape)
    lowered = lowering.source()
    namespace: dict[str, Any] = {"__builtins__": {}}
    try:
        exec(compile(lowered, f"<compiled vm: {len(shape)} ops>", "exec"), namespace)
    except (SyntaxError, RecursionError, MemoryError) as exc:
        raise ValueError(f"cannot lower {len(shape)} ops: {exc}") from exc
    return namespace["run"], lowered, len(lowering.depth), len(lowering.regions)


def _split(code: tuple) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Basic blocks: start -> (end, successor starts).  ``len(code)``
    stands for the exit, which ``HALT`` also reaches."""
    n = len(code)
    leaders = {0}
    for i, (op, arg) in enumerate(code):
        if op in _JUMPS:
            leaders.add(arg)
        if op in _JUMPS or op == "HALT":
            leaders.add(i + 1)
    starts = sorted(s for s in leaders if s < n)
    blocks = {}
    for s, end in zip(starts, starts[1:] + [n]):
        op, arg = code[end - 1]
        if op == "JMP":
            succs = (arg,)
        elif op in _JUMPS:
            succs = (arg, end)  # (taken, fall through)
        elif op == "HALT":
            succs = (n,)
        else:
            succs = (end,)
        blocks[s] = (end, succs)
    return blocks


class _Lowering:
    """The analyses, then the Python source, for one program shape."""

    def __init__(self, code: tuple) -> None:
        self.code = code
        self.n = n = len(code)
        self.blocks = _split(code)
        # Entry depth of every reachable block; blocks that underflow.
        self.depth: dict[int, int] = {0: 0} if n else {}
        self.faults: set[int] = set()
        work = list(self.depth)
        while work:
            s = work.pop()
            end, succs = self.blocks[s]
            d = self.depth[s]
            for op, _ in code[s:end]:
                pops, pushes = _EFFECT[op]
                if d < pops:
                    self.faults.add(s)
                    break
                d += pushes - pops
            else:
                for t in succs:
                    if t == n:
                        continue
                    if t not in self.depth:
                        self.depth[t] = d
                        work.append(t)
                    elif self.depth[t] != d:
                        raise ValueError(
                            f"block {t} is entered at stack depths {self.depth[t]} and {d}"
                        )
        live = [s for s in sorted(self.depth) if s not in self.faults]
        # Incoming edges per block; the entry counts the function start.
        self.preds = Counter(t for s in live for t in self.blocks[s][1] if t != n)
        self.preds[0] += 1
        self.var: dict[str, str] = {}  # variable name -> its local
        stores = {}
        for s in sorted(self.depth):
            body = code[s : self.blocks[s][0]]
            stores[s] = frozenset(arg for op, arg in body if op == "STORE")
            for op, arg in body:
                if op in ("LOAD", "STORE") and arg not in self.var:
                    self.var[arg] = f"v{len(self.var)}"
        stored = frozenset().union(*stores.values())
        self.stored = [name for name in self.var if name in stored]
        self.assigned = self._assigned_on_entry(live, stores, stored)
        self.temps = 0
        self.regions: dict[int, list[tuple[int, str]]] = {}
        self.pending = [0] if n else []
        self.targets = set(self.pending)
        while self.pending:
            t = self.pending.pop()
            self.regions[t] = lines = []
            self._block(t, lines, 0, 0, 0)

    def _assigned_on_entry(self, live, stores, stored) -> dict[int, frozenset]:
        """Variables stored on every path to each block (a must-analysis):
        their keys are in the environment there already."""
        into: dict[int, list[int]] = {s: [] for s in self.depth}
        for s in live:
            for t in self.blocks[s][1]:
                if t != self.n:
                    into[t].append(s)
        assigned = dict.fromkeys(self.depth, stored)
        assigned[0] = frozenset()
        changed = True
        while changed:
            changed = False
            for s in sorted(self.depth)[1:]:
                new = frozenset.intersection(*(assigned[p] | stores[p] for p in into[s]))
                if new != assigned[s]:
                    assigned[s] = new
                    changed = True
        return assigned

    # -- a region: one dispatch target and the blocks inlined below it -----

    def _block(self, s: int, out: list, ind: int, steps: int, inlined: int) -> None:
        end, succs = self.blocks[s]
        steps += end - s
        if s in self.faults:
            out.append((ind, "return None"))  # underflow: the reference raises
            return
        stack = [_Val(f"s{i}", frozenset({f"s{i}"})) for i in range(self.depth[s])]
        assigned = set(self.assigned[s])
        last = self.code[end - 1][0]
        jumps = last in _JUMPS or last == "HALT"
        for op, arg in self.code[s : end - 1 if jumps else end]:
            self._op(op, arg, stack, assigned, out, ind)
        if last in ("JZ", "JNZ"):
            # The flush may reassign a slot the condition reads only if
            # that slot's position was overwritten, which pops every
            # entry above it; DUP moves a compound value into a
            # temporary, so no copy of the slot survives up there.
            cond = stack.pop()
            self._flush(stack, out, ind)
            taken, fall = succs
            nonzero, zero = (taken, fall) if last == "JNZ" else (fall, taken)
            out.append((ind, f"if {cond.text}:"))
            self._goto(nonzero, stack, assigned, out, ind + 1, steps, inlined)
            out.append((ind, "else:"))
            self._goto(zero, stack, assigned, out, ind + 1, steps, inlined)
        else:
            self._flush(stack, out, ind)
            self._goto(succs[0], stack, assigned, out, ind, steps, inlined)

    def _goto(self, t, stack, assigned, out, ind, steps, inlined) -> None:
        """Leave a block for ``t`` with its stack already in slots."""
        if t == self.n:
            if stack:
                out.append((ind, "return None"))  # values left on the stack
                return
            out.append((ind, f"steps += {steps}"))
            out.append((ind, "if steps > fuel: return None"))
            for name in self.stored:
                put = f"env[{name!r}] = {self.var[name]}"
                out.append((ind, put if name in assigned else f"if {name!r} in env: {put}"))
            out.append((ind, "return out, steps"))
        elif self.preds[t] == 1 and inlined < _MAX_INLINE:
            self._block(t, out, ind, steps, inlined + 1)
        else:
            if t not in self.targets:
                self.targets.add(t)
                self.pending.append(t)
            out.append((ind, f"steps += {steps}"))
            out.append((ind, "if steps > fuel: return None"))
            out.append((ind, f"b = {t}"))

    def _op(self, op: str, arg, stack: list[_Val], assigned: set, out, ind: int) -> None:
        if op == "PUSH":
            stack.append(_Val(f"k{arg}"))
        elif op == "LOAD":
            name = self.var[arg]
            stack.append(_Val(name, frozenset({name}), settled=False))
        elif op == "STORE":
            value = stack.pop()
            name = self.var[arg]
            for i, entry in enumerate(stack):
                if name in entry.refs:  # it read the old value
                    stack[i] = self._temp(entry, out, ind)
            out.append((ind, f"{name} = {_int(value)}"))
            if arg not in assigned:
                assigned.add(arg)
                out.append((ind, f"env[{arg!r}] = {name}"))
        elif op in _ARITH or op in _COMPARE:
            b = self._shallow(stack.pop(), out, ind)
            a = self._shallow(stack.pop(), out, ind)
            symbol = _ARITH.get(op) or _COMPARE[op]
            nest = max(a.nest, b.nest) + 1
            text = f"({a.text} {symbol} {b.text})"
            stack.append(_Val(text, a.refs | b.refs, nest, op in _COMPARE, settled=False))
        elif op == "NEG" or op == "NOT":
            a = self._shallow(stack.pop(), out, ind)
            text = f"(-{a.text})" if op == "NEG" else f"(not {a.text})"
            stack.append(_Val(text, a.refs, a.nest + 1, op == "NOT", settled=False))
        elif op == "DUP":
            if stack[-1].nest:
                stack[-1] = self._temp(stack[-1], out, ind)
            stack.append(stack[-1])
        elif op == "POP":
            value = stack.pop()
            if not value.settled:
                out.append((ind, value.text))  # evaluated for its faults
        elif op == "PRINT":
            out.append((ind, f"put({_int(stack.pop())})"))

    def _temp(self, value: _Val, out, ind: int) -> _Val:
        name = f"t{self.temps}"
        self.temps += 1
        out.append((ind, f"{name} = {value.text}"))
        return _Val(name, is_bool=value.is_bool)

    def _shallow(self, value: _Val, out, ind: int) -> _Val:
        return self._temp(value, out, ind) if value.nest >= _MAX_NEST else value

    def _flush(self, stack: list[_Val], out, ind: int) -> None:
        """Move the symbolic stack into its slot locals, all at once."""
        moves = [(f"s{i}", _int(v)) for i, v in enumerate(stack) if v.text != f"s{i}"]
        if moves:
            names, values = zip(*moves)
            out.append((ind, f"{', '.join(names)} = {', '.join(values)}"))
        stack[:] = [_Val(f"s{i}", frozenset({f"s{i}"})) for i in range(len(stack))]

    # -- the function --------------------------------------------------------

    def source(self) -> str:
        constants = sum(op == "PUSH" for op, _ in self.code)
        params = ", ".join(["env", "fuel"] + [f"k{i}" for i in range(constants)])
        lines = [f"def run({params}):", "  out = []", "  put = out.append", "  steps = 0"]
        if not self.n:
            return "\n".join(lines + ["  return out, steps", ""])
        for name, local in self.var.items():
            lines.append(f"  if {name!r} in env: {local} = env[{name!r}]")
        lines += ["  b = 0", "  while True:"]
        self._tree(sorted(self.regions), 2, lines)
        return "\n".join(lines) + "\n"

    def _tree(self, ids: list[int], ind: int, lines: list[str]) -> None:
        """A balanced ``if b < k`` tree over the dispatch targets."""
        if len(ids) == 1:
            lines.extend("  " * (ind + i) + text for i, text in self.regions[ids[0]])
            return
        mid = len(ids) // 2
        lines.append(f"{'  ' * ind}if b < {ids[mid]}:")
        self._tree(ids[:mid], ind + 1, lines)
        lines.append(f"{'  ' * ind}else:")
        self._tree(ids[mid:], ind + 1, lines)

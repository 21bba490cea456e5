"""Lock-step numpy execution of whole Turing-machine populations.

The compiled engine (:mod:`repro.perf.engine`) makes *one* machine
fast; the paper's "what is computable?" exemplars — busy-beaver
censuses, fuel-bounded halting surveys — run *millions of small
machines*, and there the per-machine path's Python overhead (a
``program_key`` sort to dedup, a ``compile_tm`` table build, a result
object) dominates the actual stepping.  This module turns the
population itself into the unit of execution:

* the one pass that reads every ``delta`` also dedups the population:
  jobs with equal ``(program_key(machine), input)`` are grouped by a
  ``lexsort`` over the ids that pass builds, and share one row, so no
  machine is sorted into a ``program_key``;
* every machine's transition table is lowered into one shared dense
  array ``table[pop, states, symbols]`` of packed int32 *codes*
  (``(next_state+1) << 16 | write << 8 | (move+1)``, with ``0``
  meaning "no rule / halting state" — the same all-``None``-row trick
  :class:`~repro.perf.engine.CompiledTM` uses);
* the population's live state is three arrays — ``state``, ``head``
  and a shared growable tape *window* ``tape[pop, W]`` of interned
  symbol bytes;
* one survey step is a handful of fancy-indexing operations across the
  whole live population: gather the read symbols, gather the codes,
  settle the machines whose code is 0, scatter the writes, add the
  moves.  Halted and escaped machines are masked out of the live index
  so later lock steps touch only the survivors; when any head hits the
  window edge the window is reallocated (amortised doubling, like the
  compiled engine's segmented tape).

Equivalence contract: for every machine in the family and every input,
the outcome row is *identical* to ``machine.run(input, fuel=fuel)`` —
the same honest halted / still-running trichotomy, the same step
count, the same rendered tape and final state.  The property tests in
``tests/test_runtime_ensemble.py`` check this against both the
reference interpreter and the compiled per-machine path over
randomized enumerated families, including machines that escape the
initial window and machines that never halt under the fuel bound.

A machine is *ensemble-eligible* when its states and its (input-
extended) alphabet fit the family's caps; :func:`compile_family`
lowers the whole population at once and reports which rows fit, and
the caller routes the rest back to the per-machine warm path.  Long-tail
stragglers can be abandoned mid-flight (``straggler_cutoff``): the
survivors' partial work is discarded and the caller reruns them
through the per-machine path, so macro-step acceleration — which the
lock-step loop deliberately does not replicate — still covers lone
spinners under huge fuels.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, count, repeat
from operator import attrgetter, methodcaller

import numpy as np

from repro.machines.turing import BLANK, MOVE_OFFSET, TuringMachine
from repro.perf.engine import tm_symbols

__all__ = [
    "EnsembleIneligible",
    "EnsembleFamily",
    "EnsembleOutcome",
    "lower_machine",
    "compile_family",
    "run_family",
]

# Hard ceiling: tape cells are uint8, so a row's alphabet (including
# symbols interned from the input at load time) can never exceed 256.
_MAX_SYMBOLS = 256

# Initial padding on each side of the widest input; the window doubles
# on a boundary hit, so a small margin only costs a few reallocations.
_PAD = 16

# Per-row ranking uses a dense (rows x names) presence matrix up to
# this many cells, and a sorted pair list beyond it (families whose
# machines bring their own state names).
_DENSE_CELLS = 1 << 22


class EnsembleIneligible(ValueError):
    """This job cannot join the lock-step family (caps, types); run it
    through the per-machine path instead."""


@dataclass
class EnsembleFamily:
    """A whole population compiled into dense lock-step arrays.

    :func:`run_family` never mutates it, so one family can be run
    again.  Names are not stored per row: a row decodes them from its
    machine (``jobs``) only when a result needs them.

    A row stands for one content group of the lowered jobs: every job
    with an equal ``(program_key(machine), input)`` runs on it
    (``job_row``).  Its machine is the first job's machine with equal
    content (``job_first``), so content-equal machines decode to the
    very same state-name objects, as on the per-machine path.
    """

    table: np.ndarray        # (E, S, K) int32 packed codes; 0 = halt/no rule
    accept: np.ndarray       # (E, S) bool
    initial: np.ndarray      # (E,) int32
    tape: np.ndarray         # (E, W) uint8 window, blank == 0
    head: np.ndarray         # (E,) int64 window positions
    jobs: list[tuple[TuringMachine, str]]  # each row's decoding machine and input
    symbols: list[str]       # family-wide symbol names: BLANK, then sorted
    alphabet: np.ndarray     # (E, K) row symbol id -> symbols index, -1 past the row's
    job_row: np.ndarray      # (J,) per lowered job: its row, -1 if it does not fit
    job_first: np.ndarray    # (J,) the first job with an equal machine, -1 if not grouped

    @property
    def population(self) -> int:
        return self.table.shape[0]


def _rank(rows: np.ndarray, ids: np.ndarray, pop: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank each ``(row, id)`` pair among its row's distinct ids (ids
    number a sorted family-wide name list, so the rank is the id the row
    interns that name to on its own); also count each row's ids."""
    cells = rows * n + ids
    if pop * n <= _DENSE_CELLS:
        used = np.zeros(pop * n, dtype=bool)
        used[cells] = True
        ranks = used.reshape(pop, n).cumsum(axis=1, dtype=np.int32)
        return ranks.ravel()[cells] - 1, ranks[:, -1]
    present = np.unique(cells)
    starts = np.searchsorted(present, np.arange(pop + 1) * n)
    return np.searchsorted(present, cells) - starts[rows], np.diff(starts)


def _ids(names: dict, values, n: int) -> np.ndarray:
    return np.fromiter(map(names.__getitem__, values), dtype=np.int64, count=n)


def compile_family(
    jobs: list[tuple], *, max_states: int = 64, max_symbols: int = 32
) -> tuple[EnsembleFamily | None, list[int]]:
    """Lower ``(machine, input)`` jobs into one lock-step family.

    Returns ``(family, rows)``: ``rows`` lists the jobs that fit, in
    order, job ``j`` runs on family row ``family.job_row[j]``, and
    ``family`` is ``None`` when no job fits.  A job fits when its
    program is a :class:`TuringMachine`, its input a ``str``, and its
    states and input-extended alphabet are within the caps; the rest
    belong on the per-machine path.

    Every ``delta`` is read once, into flat per-rule columns.  Names
    are interned family-wide in sorted order and ranked per row, so a
    row's ids are exactly :func:`~repro.perf.engine.compile_tm`'s:
    sorted states; ``BLANK``, then the sorted rule symbols, then input
    symbols outside that alphabet in first-seen order.  The caps and
    the halting-state rule skip are masks over those columns, and one
    scatter stamps every surviving rule into the table.

    The same ids key the jobs without a ``program_key``: one
    ``lexsort`` over each machine's class, initial state and sorted
    rule, accept and reject ids, then its input, groups the jobs whose
    ``(program_key(machine), input)`` are equal (the class itself
    stands in for its name, which is at least as strict).  Only the
    first job of each group that fits is stamped, so duplicates cost
    no lock steps.  Machines over the caps themselves stay ungrouped:
    none of them can equal a machine that fits.
    """
    cand = [i for i, (machine, _) in enumerate(jobs) if isinstance(machine, TuringMachine)]
    pop = len(cand)
    if not pop or max_symbols < 1:
        return None, []
    machines = [jobs[i][0] for i in cand]
    inputs = [jobs[i][1] for i in cand]
    text = np.fromiter(map(isinstance, inputs, repeat(str)), dtype=bool, count=pop)
    if not text.all():  # such a job never fits, but its machine still groups
        inputs = [x if t else "" for x, t in zip(inputs, text.tolist())]
    deltas = list(map(attrgetter("delta"), machines))
    accepts = list(map(attrgetter("accept_states"), machines))
    rejects = list(map(attrgetter("reject_states"), machines))
    every = np.arange(pop)

    # -- one read of every delta: each distinct rule gets a small id ---------
    rule_row = np.repeat(every, np.fromiter(map(len, deltas), dtype=np.int64, count=pop))
    n_rules = rule_row.size
    rules: dict = defaultdict(count().__next__)
    rule_of = _ids(rules, chain.from_iterable(map(methodcaller("items"), deltas)), n_rules)
    src = [s for (s, _), _ in rules]
    read = [c for (_, c), _ in rules]
    nxt = [t for _, (t, _, _) in rules]
    write = [w for _, (_, w, _) in rules]
    move = np.array([MOVE_OFFSET[m] + 1 for _, (_, _, m) in rules], dtype=np.int32)

    # -- family-wide sorted names ---------------------------------------------
    initial = list(map(attrgetter("initial"), machines))
    try:  # names of unlike types (int and str states, say) sort only per machine
        state_names = sorted({*src, *nxt, *initial}.union(*accepts, *rejects))
        symbol_names = [BLANK, *sorted({*read, *write}.union(*inputs) - {BLANK})]
    except TypeError:
        return None, []
    state_id = dict(zip(state_names, count()))
    symbol_id = dict(zip(symbol_names, count()))

    # -- states: rank per row, cap ----------------------------------------
    acc_row = np.repeat(every, list(map(len, accepts)))
    rej_row = np.repeat(every, list(map(len, rejects)))
    init_id = _ids(state_id, initial, pop)
    acc_id = _ids(state_id, chain.from_iterable(accepts), acc_row.size)
    rej_id = _ids(state_id, chain.from_iterable(rejects), rej_row.size)
    state_ids = np.concatenate([
        _ids(state_id, src, len(rules))[rule_of],
        _ids(state_id, nxt, len(rules))[rule_of],
        init_id,
        acc_id,
        rej_id,
    ])
    local, n_states = _rank(
        np.concatenate([rule_row, rule_row, every, acc_row, rej_row]),
        state_ids, pop, len(state_names),
    )
    s_loc, t_loc, init_loc, acc_loc, rej_loc = np.split(
        local, np.cumsum([n_rules, n_rules, pop, acc_row.size])
    )

    # -- symbols: rank per row, then input extras after the alphabet ------
    sym_row = np.concatenate([every, rule_row, rule_row])
    sym_ids = np.concatenate([
        np.zeros(pop, dtype=np.int64),  # BLANK: every row's symbol 0
        _ids(symbol_id, read, len(rules))[rule_of],
        _ids(symbol_id, write, len(rules))[rule_of],
    ])
    local, n_syms = _rank(sym_row, sym_ids, pop, len(symbol_names))
    c_loc, w_loc = np.split(local[pop:], 2)
    cap = min(max_symbols, _MAX_SYMBOLS)
    sized = (n_states <= max_states) & (n_syms <= cap)  # the machine fits
    width = int(min(n_syms.max(), cap))
    alphabet = np.full((pop, cap), -1, dtype=np.int32)
    inside = local < width  # rows over the cap are dropped below anyway
    alphabet[sym_row[inside], local[inside]] = sym_ids[inside]

    lengths = np.fromiter(map(len, inputs), dtype=np.int64, count=pop)
    char_row = np.repeat(every, lengths)
    char_ids = _ids(symbol_id, chain.from_iterable(inputs), char_row.size)
    hit = alphabet[char_row, :width] == char_ids[:, None]
    char_loc = hit.argmax(axis=1)
    miss = np.flatnonzero(~hit.any(axis=1))
    _, first, group = np.unique(
        char_row[miss] * len(symbol_names) + char_ids[miss],
        return_index=True,
        return_inverse=True,
    )
    seen = miss[np.sort(first)]  # each extra's first cell, rows ascending
    owner = char_row[seen]
    slot = n_syms[owner] + np.arange(seen.size) - np.searchsorted(owner, owner)
    char_loc[miss] = slot[np.argsort(np.argsort(first))[group]]
    n_extra = np.bincount(owner, minlength=pop)
    fit = sized & text & (n_syms + n_extra <= cap)
    if not fit.any():
        return None, []
    ok = slot < cap
    alphabet[owner[ok], slot[ok]] = char_ids[seen[ok]]

    # -- group the machines that fit: equal ids are equal names, so rows
    # with the same class, initial state and sorted rule, accept and reject
    # ids (in disjoint ranges) are machines with equal program_keys ---------
    grouped = np.flatnonzero(sized)
    compact = np.full(pop, -1)
    compact[grouped] = np.arange(grouped.size)
    span = len(rules) + 2 * len(state_names)
    tok_row = compact[np.concatenate([rule_row, acc_row, rej_row])]
    tok = np.concatenate([rule_of, acc_id + len(rules), rej_id + len(rules) + len(state_names)])
    tok_row, tok = np.divmod(np.sort((tok_row * span + tok)[tok_row >= 0]), span)
    per_row = np.bincount(tok_row, minlength=grouped.size)
    # A sized machine has at most one rule per (state, symbol) slot, so a
    # row here is about as wide as a table row.
    program = np.full((grouped.size, 2 + int(per_row.max())), -1, dtype=np.int64)
    program[:, 0] = _ids(defaultdict(count().__next__), map(type, machines), pop)[grouped]
    program[:, 1] = init_id[grouped]
    program[tok_row, 2 + np.arange(tok.size) - (np.cumsum(per_row) - per_row)[tok_row]] = tok
    input_id = np.where(text, _ids(defaultdict(count().__next__), inputs, pop), -1)[grouped]
    order = np.lexsort(np.vstack([input_id, program[:, ::-1].T]))  # by program, then input
    ranked = program[order]
    new_program = np.ones(grouped.size, dtype=bool)
    new_program[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    new_job = new_program.copy()
    new_job[1:] |= input_id[order][1:] != input_id[order][:-1]
    # The sort is stable, so a job group's first row comes first in its
    # run; a program's rows sort by input, so take the least of its run.
    program_first = np.full(pop, -1)
    program_first[grouped[order]] = grouped[
        np.minimum.reduceat(order, np.flatnonzero(new_program))
    ][np.cumsum(new_program) - 1]
    group_first = np.full(pop, -1)
    group_first[grouped[order]] = grouped[order[new_job]][np.cumsum(new_job) - 1]

    # -- stamp one row per group that fits --------------------------------
    stamp = fit & (group_first == every)
    keep = np.flatnonzero(stamp)
    row_of = np.cumsum(stamp) - 1
    n_states_max = int(n_states[keep].max())
    accept = np.zeros((keep.size, n_states_max), dtype=bool)
    a = stamp[acc_row]
    accept[row_of[acc_row[a]], acc_loc[a]] = True
    halting = accept.copy()
    r = stamp[rej_row]
    halting[row_of[rej_row[r]], rej_loc[r]] = True  # the reference checks halt states first

    rule = np.flatnonzero(stamp[rule_row])
    rule = rule[~halting[row_of[rule_row[rule]], s_loc[rule]]]
    table = np.zeros(
        (keep.size, n_states_max, int((n_syms + n_extra)[keep].max())), dtype=np.int32
    )
    table[row_of[rule_row[rule]], s_loc[rule], c_loc[rule]] = (
        ((t_loc[rule] + 1) << 16) | (w_loc[rule] << 8) | move[rule_of[rule]]
    )

    tape = np.zeros((keep.size, int(lengths[keep].max()) + 2 * _PAD), dtype=np.uint8)
    cells = np.flatnonzero(stamp[char_row])
    offset = np.arange(char_row.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    tape[row_of[char_row[cells]], _PAD + offset[cells]] = char_loc[cells]
    cand = np.asarray(cand)
    fitting = np.flatnonzero(fit)
    job_row = np.full(len(jobs), -1, dtype=np.int64)
    job_row[cand[fitting]] = row_of[group_first[fitting]]
    job_first = np.full(len(jobs), -1, dtype=np.int64)
    job_first[cand[grouped]] = cand[program_first[grouped]]
    family = EnsembleFamily(
        table=table,
        accept=accept,
        initial=init_loc[keep].astype(np.int32),
        tape=tape,
        head=np.full(keep.size, _PAD, dtype=np.int64),
        jobs=[
            jobs[cand[i]] if f == i else (machines[f], inputs[i])
            for i, f in zip(keep.tolist(), program_first[keep].tolist())
        ],
        symbols=symbol_names,
        alphabet=alphabet[keep, : table.shape[2]],
        job_row=job_row,
        job_first=job_first,
    )
    return family, cand[fitting].tolist()


def lower_machine(
    machine: TuringMachine, *, max_states: int = 64, max_symbols: int = 32
) -> EnsembleFamily:
    """One machine on a blank tape as a one-row family; raises
    :exc:`EnsembleIneligible` when it does not fit the caps."""
    family, _ = compile_family([(machine, "")], max_states=max_states, max_symbols=max_symbols)
    if family is None:
        raise EnsembleIneligible(f"{machine!r:.60} does not fit the ensemble caps")
    return family


@dataclass
class EnsembleOutcome:
    """Per-row outcomes plus lazy decoders for tapes and state names.

    Rows flagged ``abandoned`` hit the straggler cutoff: their
    ``halted``/``steps`` values are meaningless and the caller must
    rerun them from scratch through the per-machine path.
    """

    family: EnsembleFamily
    tape: np.ndarray         # (E, W) final tape window
    halted: np.ndarray       # (E,) bool
    accepted: np.ndarray     # (E,) bool
    steps: np.ndarray        # (E,) int64
    final_state: np.ndarray  # (E,) int32
    abandoned: np.ndarray    # (E,) bool
    lock_steps: int
    grows: int
    _trans_memo: dict = field(default_factory=dict, repr=False)
    _count_memo: dict = field(default_factory=dict, repr=False)

    def state_name(self, row: int) -> str:
        """The final state's name, interned from the row's own machine
        exactly as ``compile_tm`` interns it (the very same ``str``)."""
        machine = self.family.jobs[row][0]
        return sorted(machine.states())[int(self.final_state[row])]

    def tape_string(self, row: int) -> str:
        """The same trimmed tape string the reference renders."""
        core = self.tape[row].tobytes().strip(b"\x00")
        if not core:
            return ""
        machine, tape_input = self.family.jobs[row]
        names = tm_symbols(machine)
        known = set(names)
        names += [c for c in dict.fromkeys(tape_input) if c not in known]
        key = tuple(names)
        trans = self._trans_memo.get(key)
        if trans is None:
            if all(len(n) == 1 and ord(n) < 128 for n in names):
                trans = "".join(names).encode("ascii").ljust(256, b"\x00")
            else:
                trans = False  # multi-char or non-ascii symbols: slow path
            self._trans_memo[key] = trans
        if trans is False:
            return "".join(names[b] for b in core)
        return core.translate(trans).decode("ascii")

    def count_symbol(self, char: str) -> np.ndarray:
        """Per-row occurrences of ``char`` on the final tape.

        Vectorised across the whole population — the busy-beaver sigma
        count without rendering a single tape string.  ``BLANK`` is
        indistinguishable from window padding, so it cannot be counted.
        """
        if char == BLANK:
            raise ValueError("cannot count the blank symbol: it is the window padding")
        counts = self._count_memo.get(char)
        if counts is None:
            symbols = self.family.symbols
            wanted = symbols.index(char) if char in symbols else -2  # -1 is padding
            hit = self.family.alphabet == wanted
            target = hit.argmax(axis=1).astype(np.uint8)[:, None]
            counts = np.count_nonzero(self.tape == target, axis=1)
            counts[~hit.any(axis=1)] = 0  # char outside the row's alphabet
            self._count_memo[char] = counts
        return counts


def run_family(
    family: EnsembleFamily, *, fuel: int, straggler_cutoff: int = 0
) -> EnsembleOutcome:
    """Step the whole population in lock-step until everyone settles.

    One iteration = one transition for every live machine: two gathers
    (read symbol, packed code), a zero-test that settles halters, a
    scatter of the writes, and vectorised head/state updates.  The
    window grows (amortised doubling, on whichever side was hit) the
    moment any live head steps off an edge.

    With ``straggler_cutoff > 0`` the loop stops early once at most
    that many machines remain live before the fuel runs out; they come
    back flagged ``abandoned`` with no partial state leaked.
    """
    pop = family.population
    tape = family.tape.copy()
    halted = np.zeros(pop, dtype=bool)
    accepted = np.zeros(pop, dtype=bool)
    steps = np.zeros(pop, dtype=np.int64)
    final_state = family.initial.astype(np.int32, copy=True)
    abandoned = np.zeros(pop, dtype=bool)

    idx = np.arange(pop)
    st = family.initial.astype(np.int32, copy=True)
    h = family.head.copy()  # live heads, compacted alongside idx/st
    table, accept = family.table, family.accept
    width = tape.shape[1]
    t = 0
    grows = 0
    while t < fuel and idx.size:
        if straggler_cutoff and idx.size <= straggler_cutoff:
            abandoned[idx] = True
            idx = idx[:0]
            break
        sym = tape[idx, h]
        code = table[idx, st, sym]
        if not code.min():  # some machine has no rule: settle it now
            live = code != 0
            dead_idx = idx[~live]
            dead_st = st[~live]
            halted[dead_idx] = True
            steps[dead_idx] = t
            accepted[dead_idx] = accept[dead_idx, dead_st]
            final_state[dead_idx] = dead_st
            idx, st, code, h = idx[live], st[live], code[live], h[live]
            if not idx.size:
                break
        tape[idx, h] = (code >> 8) & 0xFF
        h += (code & 0xFF) - 1
        st = (code >> 16) - 1
        t += 1
        lo = h.min()
        hi = h.max()
        if lo < 0 or hi >= width:
            left = width if lo < 0 else 0
            right = width if hi >= width else 0
            wider = np.zeros((pop, width + left + right), dtype=np.uint8)
            wider[:, left : left + width] = tape
            tape = wider
            if left:
                h += left
            width = tape.shape[1]
            grows += 1
    if idx.size:  # fuel exhausted: the honest "still running" verdict
        final_state[idx] = st
        steps[idx] = fuel
    return EnsembleOutcome(
        family=family,
        tape=tape,
        halted=halted,
        accepted=accepted,
        steps=steps,
        final_state=final_state,
        abandoned=abandoned,
        lock_steps=t,
        grows=grows,
    )

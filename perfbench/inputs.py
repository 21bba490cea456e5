"""Seeded inputs for the four benchmark workloads, and their oracle.

Everything here runs before any timing starts.  A workload's inputs
are a pure function of ``(workload, seed)``; the program under test
only ever sees the generated jobs.  The oracle is each adapter's
``run_direct`` (the reference interpreter, a fresh parse+compile for
complang, DPLL for sat), computed once per run over the unique jobs.

Sizes are fixed per workload so that every seed asks for the same
amount of work: seeds change *which* tapes, sources and formulas run,
not how many or how long.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.complexity.sat import random_ksat
from repro.machines.busybeaver import enumerate_machines
from repro.machines.turing import (
    TuringMachine,
    binary_increment,
    copier,
    palindrome_checker,
    unary_adder,
)
from repro.runtime import get_workload
from repro.runtime.workloads.complang import complang_job
from repro.runtime.workloads.sat import sat_job

__all__ = ["Batch", "Inputs", "Stream", "generate"]

# -- sizes (jobs per measured round) ------------------------------------------

SMALL_JOBS = {"machines": 2800, "complang": 800, "sat": 400}  # 70/20/10
SMALL_DUP_SHARE = 0.25
SMALL_FUEL = 10_000

LARGE_JOBS = {"machines": 48, "complang": 24, "sat": 24}
LARGE_FUEL = 1_000_000

# Submissions per second: one constant the parent commit sustains
# without a growing backlog, never derived from a measured capacity.
# At 200/s a 2-CPU shared host's slow phases built backlogs (p99 of
# 60-100 ms); at 100/s none were seen.
STREAM_RATE = 100.0
STREAM_SECONDS = 5.0  # length of one measured stream
STREAM_REPEAT_SHARE = 0.25
STREAM_LATENCY_SHARE = 0.05
STREAM_FUEL = 10_000

CENSUS_MACHINES = 10_000
CENSUS_STATES = 4
CENSUS_FUEL = 256


@dataclass
class Batch:
    """One ``run_jobs`` call: a kind, its jobs and their fuel bound."""

    kind: str
    jobs: list
    fuel: int


@dataclass
class Stream:
    """An open-loop schedule: ``(due offset s, job index, priority)``."""

    kind: str
    jobs: list  # the distinct jobs
    schedule: list  # (offset_s, job_index, priority) in due order
    fuel: int
    warmup: list  # one job per program, none of them in ``jobs``


@dataclass
class Inputs:
    """A workload's generated inputs plus the declared shape of them."""

    workload: str
    seed: int
    batches: list[Batch] = field(default_factory=list)
    stream: Stream | None = None
    warmup: list[Batch] = field(default_factory=list)
    programs: dict[str, list] = field(default_factory=dict)
    expected: dict[str, list] = field(default_factory=dict)  # kind -> per-job oracle

    def jobs(self) -> int:
        if self.stream is not None:
            return len(self.stream.schedule)
        return sum(len(b.jobs) for b in self.batches)

    def unique_jobs(self) -> int:
        if self.stream is not None:
            return len(self.stream.jobs)
        return sum(_unique(b.kind, b.jobs) for b in self.batches)


def _unique(kind: str, jobs: list) -> int:
    workload = get_workload(kind)
    return len({workload.content_key(job) for job in jobs})


def _with_duplicates(rng: random.Random, distinct: list, total: int) -> list:
    """``distinct`` plus exact repeats of its members, shuffled."""
    jobs = list(distinct)
    jobs += [rng.choice(distinct) for _ in range(total - len(distinct))]
    rng.shuffle(jobs)
    return jobs


def _distinct(rng: random.Random, kind: str, count: int, make) -> list:
    """``count`` jobs from ``make(rng)``, no two with equal content."""
    workload = get_workload(kind)
    seen: set = set()
    out: list = []
    for _ in range(50 * count):
        if len(out) == count:
            return out
        job = make(rng)
        key = workload.content_key(job)
        if key in seen:
            continue
        seen.add(key)
        out.append(job)
    if len(out) < count:
        raise ValueError(f"only {len(out)} distinct {kind} jobs, wanted {count}")
    return out


# -- Turing-machine tapes ------------------------------------------------------


def _palindrome_tape(rng: random.Random, length: int) -> str:
    """A palindrome over {a, b}, or one with a single mismatched pair.

    Palindromes bounce end to end (~length²/2 steps); a mismatch stops
    the machine at the pair it breaks, so step counts spread out.
    """
    half = "".join(rng.choice("ab") for _ in range(length // 2))
    middle = rng.choice("ab") if length % 2 else ""
    tape = list(half + middle + half[::-1])
    if rng.random() < 0.5:
        i = rng.randrange(length // 2)
        tape[i] = "b" if tape[i] == "a" else "a"
    return "".join(tape)


def _renamed(machine: TuringMachine, suffix: str) -> TuringMachine:
    """The same machine with every state renamed: a distinct program."""

    def n(state: str) -> str:
        return state + suffix

    return TuringMachine(
        delta={(n(s), c): (n(t), w, m) for (s, c), (t, w, m) in machine.delta.items()},
        initial=n(machine.initial),
        accept_states=frozenset(n(s) for s in machine.accept_states),
        reject_states=frozenset(n(s) for s in machine.reject_states),
    )


# -- complang sources ----------------------------------------------------------

_SMALL_TEMPLATES = (
    "s = 0; i = 0; while i < n {{ s = s + i * {a} + {b}; i = i + 1; }} print s;",
    "f = 1; i = 0; while i < n {{ f = (f * {a} + {b}) % 1009; i = i + 1; }} print f;",
    "x = n * {a} + {b}; y = 0; while x > 0 {{ y = y + x % 10; x = x / 10; }} print y;",
)
_LOOP_TEMPLATE = (
    "s = {b}; i = 0; while i < n {{ s = (s * {a} + i) % 65521; i = i + 1; }} print s;"
)


def _small_source(rng: random.Random) -> str:
    template = rng.choice(_SMALL_TEMPLATES)
    return template.format(a=rng.randrange(2, 50), b=rng.randrange(0, 50))


# -- generators ----------------------------------------------------------------


def _sweep_small(seed: int) -> Inputs:
    rng = random.Random(seed * 1_000_003 + 11)
    inputs = Inputs("sweep_small", seed)
    pal = palindrome_checker()
    sources = sorted({_small_source(rng) for _ in range(80)})
    distinct = {
        "machines": _distinct(
            rng,
            "machines",
            round(SMALL_JOBS["machines"] * (1 - SMALL_DUP_SHARE)),
            lambda r: (pal, _palindrome_tape(r, r.randrange(12, 17))),
        ),
        "complang": _distinct(
            rng,
            "complang",
            round(SMALL_JOBS["complang"] * (1 - SMALL_DUP_SHARE)),
            lambda r: complang_job(r.choice(sources), {"n": r.randrange(3, 15)}),
        ),
        "sat": _distinct(
            rng,
            "sat",
            round(SMALL_JOBS["sat"] * (1 - SMALL_DUP_SHARE)),
            lambda r: sat_job(random_ksat(10, 42, seed=r.randrange(1 << 62))),
        ),
    }
    for kind, jobs in distinct.items():
        inputs.batches.append(
            Batch(kind, _with_duplicates(rng, jobs, SMALL_JOBS[kind]), SMALL_FUEL)
        )
    inputs.warmup = [
        Batch("machines", [(pal, "ab")], SMALL_FUEL),
        Batch("complang", [complang_job("print 7;", {})], SMALL_FUEL),
        Batch("sat", [sat_job(random_ksat(3, 2, seed=0))], SMALL_FUEL),
    ]
    return inputs


def _strata(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` integers from ``[lo, hi)``, one per equal-width stratum,
    shuffled: distinct values whose sum barely moves with the seed."""
    width = (hi - lo) // count
    values = [lo + k * width + rng.randrange(width) for k in range(count)]
    rng.shuffle(values)
    return values


def _hard_formulas(rng: random.Random, count: int) -> tuple[list, list]:
    """Distinct 40-variable 3-SAT formulas at the 4.26 clauses/variable
    threshold, kept when DPLL explores 150–700 nodes, and their solves.

    DPLL effort near the threshold varies over two orders of magnitude
    from formula to formula; the band keeps each job near ~10^5 basic
    steps and every seed's total close to every other's.  The solves
    made to select them are the oracle.
    """
    sat = get_workload("sat")
    seen: set = set()
    jobs: list = []
    solved: list = []
    while len(jobs) < count:
        job = sat_job(random_ksat(40, 170, seed=rng.randrange(1 << 62)))
        if job in seen:
            continue
        seen.add(job)
        result = sat.run_direct(*job, LARGE_FUEL)
        if 150 <= result.nodes_explored <= 700:
            jobs.append(job)
            solved.append(result)
    return jobs, solved


def _sweep_large(seed: int) -> Inputs:
    rng = random.Random(seed * 1_000_003 + 23)
    inputs = Inputs("sweep_large", seed)
    inc, cop = binary_increment(), copier()
    half = LARGE_JOBS["machines"] // 2

    def binary_tape(length: int) -> str:
        # Random bits, then a run of ones the carry ripples back
        # through: about 1.5 × length steps.
        ones = length // 2
        bits = length - ones - 1
        return format(rng.getrandbits(bits), f"0{bits}b") + "0" + "1" * ones

    tm = [(inc, binary_tape(n)) for n in _strata(rng, half, 55_000, 80_000)]
    tm += [(cop, "1" * n) for n in _strata(rng, half, 180, 260)]
    rng.shuffle(tm)
    loops = [
        complang_job(
            _LOOP_TEMPLATE.format(a=rng.randrange(2, 500), b=rng.randrange(0, 500)),
            {"n": n},
        )
        for n in _strata(rng, LARGE_JOBS["complang"], 5_000, 7_000)
    ]
    formulas, solved = _hard_formulas(rng, LARGE_JOBS["sat"])
    inputs.expected["sat"] = solved
    inputs.batches = [
        Batch("machines", tm, LARGE_FUEL),
        Batch("complang", loops, LARGE_FUEL),
        Batch("sat", formulas, LARGE_FUEL),
    ]
    inputs.programs = {
        batch.kind: list({id(p): p for p, _ in batch.jobs}.values())
        for batch in inputs.batches
    }
    inputs.warmup = [
        Batch("machines", [(inc, "1")], LARGE_FUEL),
        Batch("complang", [complang_job("print 7;", {})], LARGE_FUEL),
        Batch("sat", [sat_job(random_ksat(3, 2, seed=0))], LARGE_FUEL),
    ]
    return inputs


def _stream_programs() -> list[tuple[TuringMachine, Any, str]]:
    """``(program, tape maker, warm-up tape)`` for the stream.

    Each maker draws tapes of ~10² steps; each warm-up tape is shorter
    than any tape its maker draws, so warm-up jobs never recur in the
    measured stream.  Two renamed copies of each of three library
    machines make nine distinct programs, so content-hash sharding
    homes programs on both nodes.
    """
    makers = [
        (palindrome_checker(), lambda r: _palindrome_tape(r, r.choice((10, 11, 12))), "a"),
        (
            binary_increment(),
            lambda r: "".join(r.choice("01") for _ in range(r.randrange(30, 44)))
            + "1" * r.randrange(4, 12),
            "1",
        ),
        (
            unary_adder(),
            lambda r: "1" * r.randrange(30, 60) + "+" + "1" * r.randrange(30, 60),
            "1+1",
        ),
    ]
    return [
        (_renamed(machine, suffix) if suffix else machine, make, warm)
        for suffix in ("", "'", "''")
        for machine, make, warm in makers
    ]


def _session_stream(seed: int) -> Inputs:
    rng = random.Random(seed * 1_000_003 + 37)
    inputs = Inputs("session_stream", seed)
    programs = _stream_programs()
    total = int(STREAM_RATE * STREAM_SECONDS)
    fresh = total - round(total * STREAM_REPEAT_SHARE)

    def make(r: random.Random):
        machine, tape, _ = r.choice(programs)
        return (machine, tape(r))

    jobs = _distinct(rng, "machines", fresh, make)
    # Which submissions repeat an earlier job: never the first one.
    repeat_at = set(rng.sample(range(1, total), total - fresh))
    schedule = []
    issued: list[int] = []
    fresh_index = 0
    for n in range(total):
        if n in repeat_at:
            index = rng.choice(issued)
        else:
            index, fresh_index = fresh_index, fresh_index + 1
        issued.append(index)
        priority = "latency" if rng.random() < STREAM_LATENCY_SHARE else "bulk"
        schedule.append((n / STREAM_RATE, index, priority))
    warmup = [(machine, warm) for machine, _, warm in programs]
    inputs.stream = Stream("machines", jobs, schedule, STREAM_FUEL, warmup)
    inputs.programs = {"machines": [machine for machine, _, _ in programs]}
    return inputs


def _census(seed: int) -> Inputs:
    inputs = Inputs("census", seed)
    machines = enumerate_machines(CENSUS_STATES, CENSUS_MACHINES, seed=seed * 2 + 1)
    inputs.batches = [Batch("busybeaver", [(m, "") for m in machines], CENSUS_FUEL)]
    # Another enumeration seed; score_sweep builds a fresh backend per
    # call, so the warm-up sweep leaves nothing the measured one reuses.
    warm = enumerate_machines(CENSUS_STATES, 32, seed=seed * 2)
    inputs.warmup = [Batch("busybeaver", [(m, "") for m in warm], CENSUS_FUEL)]
    return inputs


_GENERATORS = {
    "sweep_small": _sweep_small,
    "sweep_large": _sweep_large,
    "session_stream": _session_stream,
    "census": _census,
}


def generate(workload: str, seed: int) -> Inputs:
    """The workload's inputs for ``seed``, with the oracle attached."""
    inputs = _GENERATORS[workload](seed)
    if inputs.stream is not None:
        stream = inputs.stream
        inputs.expected[stream.kind] = _oracle(stream.kind, stream.jobs, stream.fuel)
    for batch in inputs.batches:
        if batch.kind not in inputs.expected:
            inputs.expected[batch.kind] = _oracle(batch.kind, batch.jobs, batch.fuel)
    return inputs


def _oracle(kind: str, jobs: list, fuel: int) -> list:
    """``run_direct`` for every job, computed once per distinct job."""
    workload = get_workload(kind)
    memo: dict = {}
    out = []
    for job in jobs:
        key = workload.content_key(job)
        if key not in memo:
            program, input = job
            memo[key] = workload.run_direct(program, input, fuel)
        out.append(memo[key])
    return out

"""PERF1 — the compiled-engine perf-regression harness.

Measures the compiled engine (:mod:`repro.perf`) against the reference
interpreters on fixed workloads, asserts the two paths agree result-
for-result, and writes a machine-readable ``BENCH_perf_engine.json``
at the repo root so perf regressions show up as a diff.

Standalone — not a pytest bench — because CI and humans both want one
command with one artifact:

    python benchmarks/bench_perf_engine.py            # full sizes
    python benchmarks/bench_perf_engine.py --smoke    # seconds, tiny sizes

Acceptance gates:

* full mode: at least one workload with >= 1e5 interpreter steps must
  show >= 5x speedup, or the script exits 1;
* full mode: the block-compiled complang VM must run ``sweep_large``'s
  loop template (about 1e5 steps) >= 5x faster than ``VM.run`` and a
  loop whose body holds 120 ``if`` statements >= 2x faster, and the
  compiled ``bb4`` run (about 1e2 steps) must be no slower than the
  reference interpreter — the small-job floor;
* full mode: the compiled DPLL engine must solve 40-variable 3-SAT
  formulas at the 4.26 clauses/variable threshold (``sweep_large``'s
  size) >= 1.5x faster than ``dpll_sat``, timing executed solves on
  freshly prepared formulas, with compilation reported apart;
* every mode (PF2, smoke included): the warm-pool batch workload must
  beat the per-job reference interpreter by more than twice the old
  2.44x cold-dispatch baseline — the regression tripwire for payload
  interning, the warm result memo, and resident program tables —
  with results byte-identical to ``SerialBackend``'s.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))                 # _common
sys.path.insert(0, str(_HERE.parent / "src"))  # repro without installing

from _common import Table, emit  # noqa: E402

from repro.complang.compile import compile_program  # noqa: E402
from repro.complang.parser import parse  # noqa: E402
from repro.complang.vm import VM  # noqa: E402
from repro.complexity.sat import dpll_sat, random_ksat  # noqa: E402
from repro.machines.automata import DFA  # noqa: E402
from repro.machines.busybeaver import busy_beaver_machine  # noqa: E402
from repro.machines.turing import (  # noqa: E402
    binary_increment,
    copier,
    palindrome_checker,
)
from repro.perf.batch import run_many  # noqa: E402
from repro.perf.engine import compile_dfa, compile_tm  # noqa: E402
from repro.perf.sat_engine import compile_sat  # noqa: E402
from repro.perf.vm_engine import compile_vm  # noqa: E402
from repro.runtime import ProcessBackend, SerialBackend, intern_jobs  # noqa: E402
from repro.runtime.workloads.machines import MACHINES  # noqa: E402
from repro.util.timing import time_callable  # noqa: E402

ROOT = _HERE.parent
REQUIRED_SPEEDUP = 5.0
REQUIRED_STEPS = 100_000
# The warm-pool batch gate: the pre-interning dispatcher managed 2.44x
# over the reference interpreter on this workload; the warm path must
# clear at least double that, and never less than the engine gate.
COLD_BASELINE_SPEEDUP = 2.44
WARM_REQUIRED_SPEEDUP = max(REQUIRED_SPEEDUP, 2 * COLD_BASELINE_SPEEDUP)
# Rows gated by name at full sizes: the complang block engine on a
# ~1e5-step loop and on a 120-if loop, the small-job floor (a ~1e2-step
# compiled bb4 run must not lose to the interpreter), and the DPLL
# engine on threshold 3-SAT.
ROW_REQUIRED_SPEEDUP = {
    "complang_loop": 5.0,
    "complang_branchy": 2.0,
    "bb4": 1.0,
    "sat_threshold": 1.5,
}
# Each timed repeat runs for at least this long, so ~10 us runs are
# averaged over many calls rather than timed one call at a time.
MIN_TIME = 0.02

# perfbench's sweep_large complang template, with one fixed (a, b).
LOOP_TEMPLATE = (
    "s = {b}; i = 0; while i < n {{ s = (s * {a} + i) % 65521; i = i + 1; }} print s;"
)


def parity_dfa() -> DFA:
    return DFA.build(
        [("even", "1", "odd"), ("odd", "1", "even"), ("even", "0", "even"), ("odd", "0", "odd")],
        initial="even",
        accepting=["even"],
    )


def tm_workloads(smoke: bool) -> list[dict]:
    scale = 20 if smoke else 1
    return [
        {
            "name": "palindrome",
            "machine": palindrome_checker(),
            "input": "a" * (600 // scale),
            "fuel": 2_000_000 // scale,
        },
        {
            "name": "copier",
            "machine": copier(),
            "input": "1" * (300 // scale),
            "fuel": 1_000_000 // scale,
        },
        {
            "name": "binary_increment",
            "machine": binary_increment(),
            "input": "1" * (50_000 // scale),
            "fuel": 200_000 // scale,
        },
        {
            "name": "bb4",
            "machine": busy_beaver_machine(4),
            "input": "",
            "fuel": 1_000,
        },
    ]


def measure_tm(workload: dict, *, repeats: int) -> dict:
    machine, tape, fuel = workload["machine"], workload["input"], workload["fuel"]
    compiled = compile_tm(machine)
    ref_result = machine.run(tape, fuel=fuel)
    fast_result = compiled.run(tape, fuel=fuel)
    assert fast_result == ref_result, f"{workload['name']}: compiled engine diverged"
    ref_s = time_callable(lambda: machine.run(tape, fuel=fuel), repeats=repeats, min_time=MIN_TIME)
    fast_s = time_callable(lambda: compiled.run(tape, fuel=fuel), repeats=repeats, min_time=MIN_TIME)
    return {
        "name": workload["name"],
        "kind": "turing",
        "steps": ref_result.steps,
        "reference_seconds": ref_s,
        "compiled_seconds": fast_s,
        "speedup": ref_s / fast_s,
    }


def branchy_loop(ifs: int) -> str:
    """A loop whose body holds ``ifs`` one-armed ``if`` statements
    (about two basic blocks each)."""
    arms = " ".join(
        f"if i % {k + 2} == {k % 3} {{ s = s + {k + 1}; }}" for k in range(ifs)
    )
    return f"s = 0; i = 0; while i < n {{ {arms} i = i + 1; }} print s;"


def vm_workloads(smoke: bool) -> list[dict]:
    scale = 20 if smoke else 1
    return [
        {
            "name": "complang_loop",
            "source": LOOP_TEMPLATE.format(a=271, b=42),
            "env": {"n": 6_000 // scale},
        },
        {
            "name": "complang_branchy",
            "source": branchy_loop(120),
            "env": {"n": 100 // scale},
        },
    ]


def measure_vm(workload: dict, *, repeats: int) -> dict:
    """``CompiledVM.run`` against ``VM.run`` on one prepared program:
    both execute every step (no memo sits in front of either)."""
    vm = VM(compile_program(parse(workload["source"])))
    compiled = compile_vm(vm)
    env, fuel = workload["env"], 1_000_000
    ref_result = vm.run(env=env, fuel=fuel)
    fast_result = compiled.run(env=env, fuel=fuel)
    assert (fast_result.output, list(fast_result.env.items()), fast_result.steps) == (
        ref_result.output,
        list(ref_result.env.items()),
        ref_result.steps,
    ), f"{workload['name']}: compiled VM diverged"
    ref_s = time_callable(lambda: vm.run(env=env, fuel=fuel), repeats=repeats, min_time=MIN_TIME)
    fast_s = time_callable(lambda: compiled.run(env=env, fuel=fuel), repeats=repeats, min_time=MIN_TIME)
    return {
        "name": workload["name"],
        "kind": "complang",
        "steps": ref_result.steps,
        "blocks": compiled.describe()["blocks"],
        "reference_seconds": ref_s,
        "compiled_seconds": fast_s,
        "speedup": ref_s / fast_s,
    }


def sat_observation(result) -> tuple:
    """What the engine must reproduce: verdict, nodes, model order."""
    model = None if result.assignment is None else list(result.assignment.items())
    return (result.satisfiable, result.nodes_explored, model)


def measure_sat(smoke: bool, *, repeats: int) -> dict:
    """``CompiledSat.run`` against ``dpll_sat`` on fixed seeded
    40-variable 3-SAT formulas at 4.26 clauses per variable.

    Both sides execute every solve.  Each timed engine pass runs on
    formulas prepared just before it, untimed, so no solve reuses what
    an earlier run of the same formula built; compilation is timed on
    its own.
    """
    formulas = [random_ksat(40, 170, seed=seed) for seed in range(2 if smoke else 12)]
    nodes = 0
    for formula in formulas:
        reference = sat_observation(dpll_sat(formula))
        assert sat_observation(compile_sat(formula).run()) == reference, (
            "sat_threshold: compiled DPLL engine diverged"
        )
        nodes += reference[1]
    ref_s = time_callable(lambda: [dpll_sat(f) for f in formulas], repeats=repeats)
    compile_s = time_callable(lambda: [compile_sat(f) for f in formulas], repeats=repeats)
    fast_s = float("inf")
    for _ in range(repeats):
        prepared = [compile_sat(f) for f in formulas]
        start = time.perf_counter()
        for compiled in prepared:
            compiled.run()
        fast_s = min(fast_s, time.perf_counter() - start)
    return {
        "name": "sat_threshold",
        "kind": "sat",
        "steps": nodes,
        "formulas": len(formulas),
        "reference_seconds": ref_s,
        "compiled_seconds": fast_s,
        "compile_seconds": compile_s,
        "speedup": ref_s / fast_s,
    }


def measure_dfa(smoke: bool, *, repeats: int) -> dict:
    dfa = parity_dfa()
    compiled = compile_dfa(dfa)
    word = "10" * (2_500 if smoke else 250_000)
    assert compiled.accepts(word) == dfa.accepts(word)
    ref_s = time_callable(lambda: dfa.accepts(word), repeats=repeats)
    fast_s = time_callable(lambda: compiled.accepts(word), repeats=repeats)
    return {
        "name": "dfa_parity",
        "kind": "dfa",
        "steps": len(word),
        "reference_seconds": ref_s,
        "compiled_seconds": fast_s,
        "speedup": ref_s / fast_s,
    }


def measure_batch(smoke: bool, *, repeats: int) -> dict:
    """Batch layer: compile-once-run-many versus interpret-every-job."""
    copies = 8 if smoke else 64
    fuel = 100_000
    jobs = [(palindrome_checker(), "a" * 60)] * copies + [
        (copier(), "1" * 40)
    ] * copies

    def reference() -> list:
        # The deduplicated reference: each unique job interpreted once.
        unique, slots, _ = intern_jobs(MACHINES, jobs)
        results = [machine.run(tape, fuel=fuel) for machine, tape in unique]
        return [results[s] for s in slots]

    expected = [machine.run(tape, fuel=fuel) for machine, tape in jobs]
    assert run_many(jobs, fuel=fuel) == reference() == expected
    ref_s = time_callable(reference, repeats=repeats)
    fast_s = time_callable(lambda: run_many(jobs, fuel=fuel), repeats=repeats)
    backend = SerialBackend(MACHINES)
    run_many(jobs, fuel=fuel, backend=backend)
    return {
        "name": "batch_palindrome+copier",
        "kind": "batch",
        "jobs": len(jobs),
        "reference_seconds": ref_s,
        "compiled_seconds": fast_s,
        "speedup": ref_s / fast_s,
        "cache": backend.last_cache_stats,
    }


def measure_batch_warm(smoke: bool, *, repeats: int) -> dict:
    """PF2 — the warm-pool batch gate.

    Same job mix as ``batch_palindrome+copier``, but executed on a
    persistent :class:`ProcessBackend` whose pool, resident program
    tables, result memo and cost model survive across ``run_many``
    calls.  The baseline is the honest per-job reference interpreter —
    a bare ``machine.run`` loop with no batch-layer amortisation —
    i.e. the same denominator the old 2.44x cold number was measured
    against.  Results must be byte-identical to ``SerialBackend``'s.
    """
    import pickle

    copies = 8 if smoke else 64
    fuel = 100_000
    jobs = [(palindrome_checker(), "a" * 60)] * copies + [
        (copier(), "1" * 40)
    ] * copies
    serial = run_many(jobs, fuel=fuel, backend=SerialBackend(MACHINES))

    # Cold: one-shot dispatch on a fresh backend, pool build included.
    cold_backend = ProcessBackend(MACHINES, workers=2)
    try:
        import time as _time

        t0 = _time.perf_counter()
        cold_results = run_many(jobs, fuel=fuel, backend=cold_backend)
        cold_s = _time.perf_counter() - t0
    finally:
        cold_backend.close()
    assert cold_results == serial, "cold warm-pool dispatch diverged from SerialBackend"

    backend = ProcessBackend(MACHINES, workers=2)
    try:
        warm_results = run_many(jobs, fuel=fuel, backend=backend)  # prime
        assert pickle.dumps(warm_results) == pickle.dumps(serial), (
            "warm-pool results are not byte-identical to SerialBackend's"
        )
        ref_s = time_callable(
            lambda: [m.run(t, fuel=fuel) for m, t in jobs], repeats=repeats
        )
        warm_s = time_callable(
            lambda: run_many(jobs, fuel=fuel, backend=backend), repeats=repeats
        )
        dispatch = dict(backend.last_dispatch)
    finally:
        backend.close()
    return {
        "name": "batch_warm_palindrome+copier",
        "kind": "batch_warm",
        "jobs": len(jobs),
        "reference_seconds": ref_s,
        "cold_seconds": cold_s,
        "compiled_seconds": warm_s,
        "speedup": ref_s / warm_s,
        "cold_speedup": ref_s / cold_s,
        "dispatch": dispatch,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes: exercises the full pipeline in seconds, skips the speedup gate",
    )
    parser.add_argument(
        "--output",
        type=Path,
        help="write the JSON artifact here and the report table beside it"
        " (default: BENCH_perf_engine.json at the repo root, the table under"
        " benchmarks/reports/)",
    )
    args = parser.parse_args(argv)
    repeats = 1 if args.smoke else 3

    results = [measure_tm(w, repeats=repeats) for w in tm_workloads(args.smoke)]
    results += [measure_vm(w, repeats=repeats) for w in vm_workloads(args.smoke)]
    results.append(measure_sat(args.smoke, repeats=repeats))
    results.append(measure_dfa(args.smoke, repeats=repeats))
    batch = measure_batch(args.smoke, repeats=repeats)
    batch_warm = measure_batch_warm(args.smoke, repeats=repeats)

    gated = [r for r in results if r["kind"] == "turing" and r["steps"] >= REQUIRED_STEPS]
    best = max(gated, key=lambda r: r["speedup"], default=None)
    accepted = best is not None and best["speedup"] >= REQUIRED_SPEEDUP
    warm_accepted = batch_warm["speedup"] >= WARM_REQUIRED_SPEEDUP
    by_name = {r["name"]: r for r in results}
    row_failures = [
        f"{name} {by_name[name]['speedup']:.2f}x < {required}x"
        for name, required in ROW_REQUIRED_SPEEDUP.items()
        if by_name[name]["speedup"] < required
    ]

    table = Table(
        ["workload", "steps/jobs", "reference s", "compiled s", "compile s", "speedup"],
        caption=f"PERF1: compiled engine vs reference interpreters"
        f" ({'smoke' if args.smoke else 'full'} sizes)",
    )
    for r in results:
        table.add_row(r["name"], r["steps"], r["reference_seconds"], r["compiled_seconds"], r.get("compile_seconds", "-"), f"{r['speedup']:.1f}x")
    table.add_row(batch["name"], batch["jobs"], batch["reference_seconds"], batch["compiled_seconds"], "-", f"{batch['speedup']:.1f}x")
    table.add_row(batch_warm["name"], batch_warm["jobs"], batch_warm["reference_seconds"], batch_warm["compiled_seconds"], "-", f"{batch_warm['speedup']:.1f}x")
    emit("PERF1", table, beside=args.output)

    payload = {
        "harness": "benchmarks/bench_perf_engine.py",
        "mode": "smoke" if args.smoke else "full",
        "python": platform.python_version(),
        "workloads": results,
        "batch": batch,
        "batch_warm": batch_warm,
        "acceptance": {
            "required_speedup": REQUIRED_SPEEDUP,
            "required_steps": REQUIRED_STEPS,
            "best_workload": best["name"] if best else None,
            "best_speedup": best["speedup"] if best else None,
            "warm_required_speedup": WARM_REQUIRED_SPEEDUP,
            "warm_speedup": batch_warm["speedup"],
            "warm_passed": warm_accepted,
            "row_required_speedups": ROW_REQUIRED_SPEEDUP,
            "row_failures": row_failures,
            "passed": accepted and warm_accepted and not row_failures,
        },
    }
    output = args.output or ROOT / "BENCH_perf_engine.json"
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {output}")

    # PF2 runs in smoke mode too: warm-pool dispatch is cheap enough
    # to gate on every CI pass, unlike the full-size engine workloads.
    if not warm_accepted:
        print(
            f"FAIL: warm-pool batch speedup {batch_warm['speedup']:.2f}x"
            f" <= required {WARM_REQUIRED_SPEEDUP}x"
            f" (cold baseline {COLD_BASELINE_SPEEDUP}x)",
            file=sys.stderr,
        )
        return 1
    if args.smoke:
        return 0
    if not accepted:
        print(
            f"FAIL: no >= {REQUIRED_STEPS}-step workload reached"
            f" {REQUIRED_SPEEDUP}x (best: {best})",
            file=sys.stderr,
        )
        return 1
    if row_failures:
        print(f"FAIL: {'; '.join(row_failures)}", file=sys.stderr)
        return 1
    print(
        f"PASS: {best['name']} ({best['steps']} steps) ran"
        f" {best['speedup']:.1f}x faster compiled;"
        f" warm batch {batch_warm['speedup']:.1f}x"
        f" (>= {WARM_REQUIRED_SPEEDUP}x); "
        + ", ".join(f"{name} {by_name[name]['speedup']:.1f}x" for name in ROW_REQUIRED_SPEEDUP)
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""RT1 — the mixed-workload runtime harness.

Measures the workload-generic runtime (:mod:`repro.runtime`) across
four adapters — Turing machines, complang bytecode, DPLL SAT, and
busy-beaver scoring — against each adapter's honest per-job baseline
(``run_direct``: no interning, no resident tables, no warm pool), and
writes ``BENCH_runtime_mixed.json`` at the repo root.

Standalone, like the other harnesses:

    python benchmarks/bench_runtime_mixed.py            # full sizes
    python benchmarks/bench_runtime_mixed.py --smoke    # seconds, tiny sizes

Acceptance gates (enforced in smoke mode too — this is the regression
tripwire for the narrow-waist extraction):

* the TM path through ``run_jobs`` on a warm :class:`ProcessBackend`
  must keep the PF2 warm-batch win — more than twice the old 2.44x
  cold-dispatch baseline over the per-job reference interpreter, with
  results byte-identical to ``SerialBackend``'s;
* the complang adapter under the same warm pool must beat its naive
  parse+compile+run per-job loop by >= 2x, results exactly equal.

The sat and busybeaver rows are measured and equality-asserted but not
speed-gated.  Their jobs repeat a few tiny formulas and machines, so
the runtime's win there is mostly dedup; the sat adapter's compiled
DPLL engine is gated where its work is, in PERF1's ``sat_threshold``
row.
"""

from __future__ import annotations

import argparse
import json
import pickle
import platform
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))                 # _common
sys.path.insert(0, str(_HERE.parent / "src"))  # repro without installing

from _common import Table, emit  # noqa: E402

from repro.complexity.sat import CNF  # noqa: E402
from repro.machines.busybeaver import busy_beaver_machine  # noqa: E402
from repro.machines.turing import copier, palindrome_checker  # noqa: E402
from repro.runtime import ProcessBackend, SerialBackend, run_jobs  # noqa: E402
from repro.runtime.workloads.busybeaver import BUSYBEAVER  # noqa: E402
from repro.runtime.workloads.complang import COMPLANG, complang_job  # noqa: E402
from repro.runtime.workloads.machines import MACHINES  # noqa: E402
from repro.runtime.workloads.sat import SAT, sat_job  # noqa: E402
from repro.util.timing import time_callable  # noqa: E402

ROOT = _HERE.parent

# Same tripwire as bench_perf_engine's PF2 gate: the runtime extraction
# must not cost the TM path its warm-batch win.
COLD_BASELINE_SPEEDUP = 2.44
TM_REQUIRED_SPEEDUP = max(5.0, 2 * COLD_BASELINE_SPEEDUP)
COMPLANG_REQUIRED_SPEEDUP = 2.0

_COMPLANG_SOURCES = [
    "s = 0; while n > 0 { s = s + n; n = n - 1; } print s;",
    "x = n * n + n + 1; print x;",
    "f = 1; i = 1; while i < n { i = i + 1; f = f * i; } print f;",
]


def mixed_workloads(smoke: bool) -> list[dict]:
    """One entry per adapter: jobs (with duplicates), fuel, gate."""
    copies = 8 if smoke else 64
    tm_jobs = [(palindrome_checker(), "a" * 60)] * copies + [
        (copier(), "1" * 40)
    ] * copies
    cl_jobs = [
        complang_job(src, {"n": n})
        for src in _COMPLANG_SOURCES
        for n in (5, 17, 30)
    ] * copies
    sat_jobs = [
        sat_job(CNF.of([(1, 2, 3), (-1, -2), (2, 3), (-3, 1), (-2, -3)])),
        sat_job(CNF.of([(1, 2), (-1, 2), (1, -2), (-1, -2)])),  # unsat
        sat_job(CNF.of([(1, 2, 3), (-1, -2), (2, 3), (-3, 1), (-2, -3)]),
                unit_propagation=False),
    ] * copies
    bb_jobs = [(busy_beaver_machine(n), "") for n in (2, 3, 4)] * copies
    return [
        {"workload": MACHINES, "jobs": tm_jobs, "fuel": 100_000,
         "required_speedup": TM_REQUIRED_SPEEDUP, "pool": True},
        {"workload": COMPLANG, "jobs": cl_jobs, "fuel": 100_000,
         "required_speedup": COMPLANG_REQUIRED_SPEEDUP, "pool": True},
        {"workload": SAT, "jobs": sat_jobs, "fuel": 100_000,
         "required_speedup": None, "pool": False},
        {"workload": BUSYBEAVER, "jobs": bb_jobs, "fuel": 100_000,
         "required_speedup": None, "pool": False},
    ]


def measure(case: dict, *, repeats: int) -> dict:
    """One adapter through the runtime vs its per-job baseline.

    The baseline is the adapter's own ``run_direct`` loop — exactly the
    naive code each subsystem wrote before the narrow waist existed
    (re-interpret the TM, re-parse + re-compile the program, …).  The
    runtime path must return *exactly* the same results; the gated
    adapters run on a primed warm pool, the rest through SerialBackend.
    """
    workload, jobs, fuel = case["workload"], case["jobs"], case["fuel"]

    def naive():
        return [workload.run_direct(p, i, fuel) for p, i in jobs]

    baseline = naive()
    serial = run_jobs(workload, jobs, fuel=fuel, backend=SerialBackend(workload))
    assert serial == baseline, f"{workload.kind}: serial runtime diverged from run_direct"

    if case["pool"]:
        backend = ProcessBackend(workload, workers=2)
        try:
            warm = run_jobs(workload, jobs, fuel=fuel, backend=backend)  # prime
            assert pickle.dumps(warm) == pickle.dumps(serial), (
                f"{workload.kind}: warm-pool results not byte-identical to serial"
            )
            ref_s = time_callable(naive, repeats=repeats)
            fast_s = time_callable(
                lambda: run_jobs(workload, jobs, fuel=fuel, backend=backend),
                repeats=repeats,
            )
            dispatch = dict(backend.last_dispatch)
            backend_name = "process(warm)"
        finally:
            backend.close()
    else:
        ref_s = time_callable(naive, repeats=repeats)
        fast_s = time_callable(
            lambda: run_jobs(workload, jobs, fuel=fuel), repeats=repeats
        )
        serial_backend = SerialBackend(workload)
        run_jobs(workload, jobs, fuel=fuel, backend=serial_backend)
        dispatch = dict(serial_backend.last_dispatch)
        backend_name = "serial"

    return {
        "workload": workload.kind,
        "backend": backend_name,
        "jobs": len(jobs),
        "unique_jobs": dispatch.get("unique_jobs"),
        "reference_seconds": ref_s,
        "runtime_seconds": fast_s,
        "speedup": ref_s / fast_s,
        "required_speedup": case["required_speedup"],
        "dispatch": dispatch,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes: exercises every adapter and both gates in seconds",
    )
    parser.add_argument(
        "--output",
        type=Path,
        help="write the JSON artifact here and the report table beside it"
        " (default: BENCH_runtime_mixed.json at the repo root, the table under"
        " benchmarks/reports/)",
    )
    args = parser.parse_args(argv)
    repeats = 1 if args.smoke else 3

    results = [measure(c, repeats=repeats) for c in mixed_workloads(args.smoke)]

    table = Table(
        ["workload", "backend", "jobs", "unique", "naive s", "runtime s", "speedup"],
        caption="RT1: the workload-generic runtime vs per-job baselines"
        f" ({'smoke' if args.smoke else 'full'} sizes)",
    )
    for r in results:
        table.add_row(
            r["workload"], r["backend"], r["jobs"], r["unique_jobs"],
            r["reference_seconds"], r["runtime_seconds"], f"{r['speedup']:.1f}x",
        )
    emit("RT1", table, beside=args.output)

    failures = [
        r for r in results
        if r["required_speedup"] is not None and r["speedup"] < r["required_speedup"]
    ]
    payload = {
        "harness": "benchmarks/bench_runtime_mixed.py",
        "mode": "smoke" if args.smoke else "full",
        "python": platform.python_version(),
        "workloads": results,
        "acceptance": {
            "tm_required_speedup": TM_REQUIRED_SPEEDUP,
            "complang_required_speedup": COMPLANG_REQUIRED_SPEEDUP,
            "failed": [r["workload"] for r in failures],
            "passed": not failures,
        },
    }
    output = args.output or ROOT / "BENCH_runtime_mixed.json"
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {output}")

    if failures:
        for r in failures:
            print(
                f"FAIL: {r['workload']} through the runtime managed"
                f" {r['speedup']:.2f}x < required {r['required_speedup']}x",
                file=sys.stderr,
            )
        return 1
    gated = {r["workload"]: r for r in results if r["required_speedup"] is not None}
    print(
        "PASS: "
        + "; ".join(
            f"{kind} {r['speedup']:.1f}x (>= {r['required_speedup']}x)"
            for kind, r in gated.items()
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""FT1 — the fault-recovery gate.

A recovery path nobody exercises is a recovery path that doesn't work,
and a recovery path that taxes the fault-free fast path gets turned
off.  This harness keeps both promises of
:mod:`repro.faults.supervisor` honest:

1. **Fault-free overhead gate** — ``run_many`` under
   ``SupervisedBackend(SerialBackend(MACHINES))`` vs the bare
   ``SerialBackend`` on the same batch, timed as alternating pairs
   (5 at full size, 3 at smoke).  The supervision event loop
   (futures, deadlines, per-chunk accounting) must cost < 10% in the
   median per-pair overhead or the script exits 1.
2. **Chaos recovery gate** — one batch under a deterministic
   :class:`ChaosSchedule` injecting a worker crash, a hung chunk, and a
   corrupted payload, plus one poison job that kills any chunk
   containing it.  The supervised run must return results *identical*
   (order and content) to a fault-free run for every non-quarantined
   job, quarantine exactly the poison job, and never raise.

Standalone, one command, one artifact (cf. bench_obs_overhead.py):

    python benchmarks/bench_fault_recovery.py            # full sizes
    python benchmarks/bench_fault_recovery.py --smoke    # seconds, tiny sizes

Writes ``BENCH_fault_recovery.json`` at the repo root and the ``[FT1]``
table under ``benchmarks/reports/``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))                 # _common
sys.path.insert(0, str(_HERE.parent / "src"))  # repro without installing

from _common import Table, emit  # noqa: E402

from repro.faults.chaos import ChaosBackend, ChaosSchedule  # noqa: E402
from repro.faults.supervisor import SupervisedBackend, SupervisorPolicy  # noqa: E402
from repro.machines.busybeaver import busy_beaver_machine  # noqa: E402
from repro.machines.turing import (  # noqa: E402
    binary_increment,
    copier,
    palindrome_checker,
)
from repro.perf.batch import run_many  # noqa: E402
from repro.runtime import SerialBackend  # noqa: E402
from repro.runtime.workloads.machines import MACHINES  # noqa: E402
from repro.util.timing import time_callable  # noqa: E402

ROOT = _HERE.parent
MAX_OVERHEAD_PCT = 10.0
# Bare/supervised pairs timed for the fault-free overhead gate.
PAIRS = 5
SMOKE_PAIRS = 3


def measure_supervision_overhead(smoke: bool) -> dict:
    """Bare serial vs supervised serial on a fault-free batch.

    One machine over long, *distinct* tapes: per-job work dominates,
    so the measurement isolates the supervisor's per-chunk cost
    (futures, wait loop, payload validation) — the thing the budget
    bounds.  Distinct tapes matter: identical jobs intern down to one
    on both sides, leaving nothing for the per-chunk cost to amortize
    against.

    The two legs are timed as alternating pairs, each leg best-of-3
    within its pair, and the gate reads the median per-pair overhead:
    host drift between pairs then taxes both legs alike.
    """
    tape_len = 2_400 if smoke else 3_000
    njobs = 32 if smoke else 64
    jobs = [(binary_increment(), "1" * (tape_len + i)) for i in range(njobs)]
    fuel = 200_000
    bare = SerialBackend(MACHINES)
    supervised = SupervisedBackend(
        inner=SerialBackend(MACHINES), policy=SupervisorPolicy(chunksize=max(1, njobs // 8))
    )
    expected = run_many(jobs, fuel=fuel, backend=bare)
    assert run_many(jobs, fuel=fuel, backend=supervised) == expected, (
        "supervision changed the answers"
    )
    legs = {
        "bare": lambda: run_many(jobs, fuel=fuel, backend=bare),
        "supervised": lambda: run_many(jobs, fuel=fuel, backend=supervised),
    }
    # A smoke batch is ~10 ms; accumulate several per repeat or
    # scheduler jitter at that scale swamps the overhead signal.
    min_time = 0.05 if smoke else 0.1
    pairs = []
    for n in range(SMOKE_PAIRS if smoke else PAIRS):
        # Alternate which leg runs first, so host drift taxes both.
        order = ("bare", "supervised") if n % 2 == 0 else ("supervised", "bare")
        seconds = {
            leg: time_callable(legs[leg], repeats=3, min_time=min_time, warmup=0)
            for leg in order
        }
        pairs.append(
            {
                "first": order[0],
                "bare_seconds": seconds["bare"],
                "supervised_seconds": seconds["supervised"],
                "overhead_pct": (seconds["supervised"] - seconds["bare"])
                / seconds["bare"]
                * 100.0,
            }
        )
    return {
        "name": "fault_free_supervised_overhead",
        "jobs": njobs,
        "pairs": pairs,
        "bare_seconds": statistics.median(p["bare_seconds"] for p in pairs),
        "supervised_seconds": statistics.median(p["supervised_seconds"] for p in pairs),
        "overhead_pct": max(0.0, statistics.median(p["overhead_pct"] for p in pairs)),
    }


def chaos_recovery_check(smoke: bool) -> dict:
    """The acceptance scenario: crash + hang + corruption + poison."""
    reps = 4 if smoke else 10
    base = [
        (binary_increment(), "1"),
        (palindrome_checker(), "ab"),
        (copier(), "1"),
        (busy_beaver_machine(3), ""),
    ]
    # Distinct tapes throughout: poison is matched by job content.
    jobs = [(machine, tape * (i + 1)) for i, (machine, tape) in enumerate(base * reps)]
    poison_index = len(jobs) // 2
    fuel = 20_000
    clean = run_many(jobs, fuel=fuel, backend="serial")

    schedule = ChaosSchedule(kinds={1: "crash", 3: "timeout", 6: "corrupt"})
    chaos = ChaosBackend(
        SerialBackend(MACHINES), schedule=schedule, poison_jobs=[jobs[poison_index]]
    )
    supervised = SupervisedBackend(
        inner=chaos,
        policy=SupervisorPolicy(
            chunksize=5,
            max_chunk_retries=2,
            chunk_timeout=0.5,
            hedge_delay=0.05,
            max_pool_restarts=1_000,  # quarantine, don't degrade, in this scenario
        ),
    )
    results = run_many(jobs, fuel=fuel, backend=supervised)
    report = supervised.last_report
    survivors_exact = all(
        results[i] == clean[i] for i in range(len(jobs)) if i != poison_index
    )
    return {
        "name": "chaos_recovery",
        "jobs": len(jobs),
        "poison_index": poison_index,
        "injected": dict(chaos.injected),
        "survivors_exact": survivors_exact,
        "poison_slot_none": results[poison_index] is None,
        "quarantined_indices": report.quarantined_indices,
        "quarantine_exact": report.quarantined_indices == [poison_index],
        "retries": report.retries,
        "hedges": report.hedges,
        "bisections": report.bisections,
        "pool_restarts": report.pool_restarts,
        "degraded": report.degraded,
        "virtual_backoff": report.virtual_backoff,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes: exercises the full pipeline in seconds",
    )
    parser.add_argument(
        "--output",
        type=Path,
        help="write the JSON artifact here and the report table beside it"
        " (default: BENCH_fault_recovery.json at the repo root, the table under"
        " benchmarks/reports/)",
    )
    args = parser.parse_args(argv)

    overhead = measure_supervision_overhead(args.smoke)
    chaos = chaos_recovery_check(args.smoke)

    overhead_ok = overhead["overhead_pct"] < MAX_OVERHEAD_PCT
    chaos_ok = (
        chaos["survivors_exact"]
        and chaos["poison_slot_none"]
        and chaos["quarantine_exact"]
        and not chaos["degraded"]
    )

    table = Table(
        ["check", "measured", "budget", "verdict"],
        caption=f"FT1: fault-free supervision overhead and chaos recovery"
        f" ({'smoke' if args.smoke else 'full'} sizes)",
    )
    per_pair = sorted(p["overhead_pct"] for p in overhead["pairs"])
    table.add_row(
        "fault-free overhead",
        f"median {overhead['overhead_pct']:.2f}% of {len(per_pair)} pairs"
        f" ({per_pair[0]:.2f}..{per_pair[-1]:.2f}%)",
        f"< {MAX_OVERHEAD_PCT:.0f}% median",
        "PASS" if overhead_ok else "FAIL",
    )
    table.add_row(
        "chaos survivors == clean",
        str(chaos["survivors_exact"]),
        "True",
        "PASS" if chaos["survivors_exact"] else "FAIL",
    )
    table.add_row(
        "quarantine == {poison}",
        f"{chaos['quarantined_indices']} == [{chaos['poison_index']}]",
        "exact",
        "PASS" if chaos["quarantine_exact"] and chaos["poison_slot_none"] else "FAIL",
    )
    table.add_row(
        "recovery actions",
        f"{chaos['retries']} retries, {chaos['hedges']} hedge,"
        f" {chaos['bisections']} bisections, {chaos['pool_restarts']} restarts",
        "(informational)",
        "-",
    )
    emit("FT1", table, beside=args.output)

    payload = {
        "harness": "benchmarks/bench_fault_recovery.py",
        "mode": "smoke" if args.smoke else "full",
        "python": platform.python_version(),
        "fault_free": overhead,
        "chaos": chaos,
        "acceptance": {
            "max_overhead_pct": MAX_OVERHEAD_PCT,
            "overhead_pct": overhead["overhead_pct"],
            "overhead_passed": overhead_ok,
            "chaos_passed": chaos_ok,
            "passed": overhead_ok and chaos_ok,
        },
    }
    output = args.output or ROOT / "BENCH_fault_recovery.json"
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {output}")

    if not overhead_ok:
        print(
            f"FAIL: fault-free supervised overhead {overhead['overhead_pct']:.2f}%"
            f" >= {MAX_OVERHEAD_PCT}%",
            file=sys.stderr,
        )
        return 1
    if not chaos_ok:
        print(f"FAIL: chaos recovery invariants violated: {chaos}", file=sys.stderr)
        return 1
    print(
        f"PASS: fault-free overhead {overhead['overhead_pct']:.2f}%"
        f" (< {MAX_OVERHEAD_PCT}%); chaos batch of {chaos['jobs']} jobs recovered"
        f" exactly, quarantining only job {chaos['poison_index']}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""SC1 — the incremental-scheduler gate.

A session front door that throttles the sweeps it was built to serve
is a regression, and a "latency class" that still waits behind a bulk
sweep is a label, not a policy.  This harness keeps the two promises
of :mod:`repro.runtime.session` honest:

1. **Throughput gate** — submitting 10^4 *staggered* jobs one at a
   time through ``Session.submit`` (group-commit batching, interning,
   per-job futures, the works) must reach >= 80% of the throughput of
   a one-shot ``backend.execute`` over the same list, with
   pickle-byte-identical results (relaxed to 70% at smoke sizes,
   where the fixed per-submit cost is a visible share of each tiny
   job).  The two legs run as five alternating pairs at either size,
   every pair must be byte-identical, and the gate reads the median
   per-pair ratio: one run's ratio swings too widely on a
   shared host to decide alone.  Runs on any CPU count: the
   comparison is against the same backend, so the gate measures
   scheduler overhead, not parallelism.
2. **Latency gate** — while a bulk sweep is in flight, latency-class
   singles submitted mid-sweep must settle long before the sweep
   finishes; headline number is the p99 single-job latency under
   concurrent bulk load.  Needs a submitter thread making real
   progress against the dispatcher: **skipped (and recorded as
   skipped, CM1-style) below 2 CPUs.**

Standalone, one command, one artifact (cf. bench_comm.py):

    python benchmarks/bench_scheduler.py            # full sizes
    python benchmarks/bench_scheduler.py --smoke    # seconds, tiny sizes

Writes ``BENCH_sched.json`` at the repo root and the ``[SC1]`` table
under ``benchmarks/reports/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import statistics
import sys
import threading
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))                 # _common
sys.path.insert(0, str(_HERE.parent / "src"))  # repro without installing

from _common import Table, emit  # noqa: E402

from repro.machines.turing import palindrome_checker  # noqa: E402
from repro.runtime.core import create_backend  # noqa: E402
from repro.runtime.session import LATENCY, Session  # noqa: E402

ROOT = _HERE.parent
MIN_RATIO = 0.8
# Smoke sizes run jobs light enough that the scheduler's fixed
# per-submit cost is a visible fraction of each job, and timing noise
# on a loaded box spans the 0.8 line.  The smoke gate still catches
# real regressions; the 0.8 floor is held at full sizes, where per-job
# work dominates.
SMOKE_MIN_RATIO = 0.7
# One-shot/session pairs timed per throughput run.
PAIRS = 5
SMOKE_PAIRS = 5
MIN_CPUS_LATENCY = 2
FUEL = 100_000


def _irregular_half(i: int, half: int) -> str:
    """``half`` incompressible-looking symbols, distinct per ``i``.

    A fixed-width binary index (distinct for any i < 2^20) followed by
    the binary expansion of an odd-multiplier hash — aperiodic digits,
    so the compiled engine's run/pattern compression finds nothing to
    macro-step over.
    """
    bits = format(i, "020b")
    while len(bits) < half:
        bits += bin((int(bits, 2) * 2654435761 + i + 1) ** 3)[2:]
    return "".join("ab"[int(c)] for c in bits[:half])


def staggered_jobs(njobs: int, half: int):
    """Distinct irregular *palindromes* (``w + reversed(w)``): every job
    unique (no dedup shortcut for either path), accepted only after the
    checker's full quadratic zig-zag, and symbol-incompressible (no
    macro-step shortcut) — so per-job engine work, not scheduler
    bookkeeping, dominates both sides of the comparison."""
    machine = palindrome_checker()
    jobs = []
    for i in range(njobs):
        w = _irregular_half(i, half)
        jobs.append((machine, w + w[::-1]))
    return jobs


def one_shot_leg(jobs) -> tuple[list, float]:
    """``(results, seconds)`` of one ``backend.execute``."""
    backend = create_backend("serial", workload="machines")
    try:
        t0 = time.perf_counter()
        results = backend.execute(jobs, fuel=FUEL)
        return results, time.perf_counter() - t0
    finally:
        backend.close()


def session_leg(jobs) -> tuple[list, float, dict]:
    """``(results, seconds, stats)`` of one-at-a-time ``Session.submit``."""
    with Session("serial", max_batch=256) as session:
        t0 = time.perf_counter()
        futures = [session.submit("machines", job, fuel=FUEL) for job in jobs]
        session.drain()
        results = [f.result() for f in futures]
        seconds = time.perf_counter() - t0
        stats = session.stats()
    return results, seconds, stats


def throughput_gate(smoke: bool) -> dict:
    """One-at-a-time session submission vs one-shot execute, same backend,
    timed as alternating pairs and judged on the median per-pair ratio."""
    njobs = 2_000 if smoke else 10_000
    half = 30 if smoke else 60
    jobs = staggered_jobs(njobs, half)

    pairs = []
    for n in range(SMOKE_PAIRS if smoke else PAIRS):
        # Alternate which leg runs first, so host drift taxes both.
        if n % 2 == 0:
            expected, one_shot_s = one_shot_leg(jobs)
            got, session_s, stats = session_leg(jobs)
        else:
            got, session_s, stats = session_leg(jobs)
            expected, one_shot_s = one_shot_leg(jobs)
        pairs.append(
            {
                "first": "one_shot" if n % 2 == 0 else "session",
                "one_shot_seconds": one_shot_s,
                "session_seconds": session_s,
                "throughput_ratio": one_shot_s / session_s if session_s else float("inf"),
                "byte_identical": [pickle.dumps(r) for r in got]
                == [pickle.dumps(r) for r in expected],
                "flushes": stats["flushes"],
                "executed_jobs": stats["executed_jobs"],
            }
        )
    return {
        "name": "session_throughput",
        "jobs": njobs,
        "pairs": pairs,
        "one_shot_seconds": statistics.median(p["one_shot_seconds"] for p in pairs),
        "session_seconds": statistics.median(p["session_seconds"] for p in pairs),
        "throughput_ratio": statistics.median(p["throughput_ratio"] for p in pairs),
        "byte_identical": all(p["byte_identical"] for p in pairs),
    }


def latency_gate(smoke: bool) -> dict:
    """p99 latency-class settle time while a bulk sweep is in flight."""
    cpus = os.cpu_count() or 1
    if cpus < MIN_CPUS_LATENCY:
        # CM1-style skip record: detected CPUs plus the exact gate the
        # leg would have been held to.
        return {
            "name": "latency_preemption",
            "skipped": True,
            "reason": (
                f"needs >= {MIN_CPUS_LATENCY} CPUs for a submitter thread"
                f" against the dispatcher, have {cpus}"
            ),
            "cpus": cpus,
            "min_cpus": MIN_CPUS_LATENCY,
            "gate": {
                "p99_budget": "p99 single latency <= 25% of bulk sweep wall time"
            },
        }
    bulk_jobs = staggered_jobs(1_000 if smoke else 4_000, 30 if smoke else 60)
    probes = 10 if smoke else 25
    latencies: list[float] = []
    with Session("serial", max_batch=256, bulk_chunk=64) as session:
        bulk_futures: list = []
        done = threading.Event()

        def pump():
            for job in bulk_jobs:
                bulk_futures.append(session.submit("machines", job, fuel=FUEL))
            done.set()

        sweep_t0 = time.perf_counter()
        pumper = threading.Thread(target=pump)
        pumper.start()
        machine = palindrome_checker()
        for p in range(probes):
            probe = (machine, "b" * (p + 2))  # distinct from every bulk tape
            t0 = time.perf_counter()
            future = session.submit("machines", probe, fuel=FUEL, priority=LATENCY)
            future.result()
            latencies.append(time.perf_counter() - t0)
            time.sleep(0.005)
        pumper.join()
        session.drain()
        sweep_s = time.perf_counter() - sweep_t0
        assert all(f.done() for f in bulk_futures)
        stats = session.stats()
    latencies.sort()
    p50 = latencies[len(latencies) // 2]
    p99 = latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))]
    return {
        "name": "latency_preemption",
        "skipped": False,
        "cpus": cpus,
        "bulk_jobs": len(bulk_jobs),
        "probes": probes,
        "sweep_seconds": sweep_s,
        "single_p50_seconds": p50,
        "single_p99_seconds": p99,
        "priority_flushes": stats["flushes"].get("priority", 0),
        # The gate: a single never waits for the sweep.
        "preempts": p99 <= 0.25 * sweep_s,
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
        " (default: BENCH_sched.json at the repo root, the table under"
        " benchmarks/reports/)",
    )
    args = parser.parse_args(argv)

    throughput = throughput_gate(args.smoke)
    latency = latency_gate(args.smoke)

    min_ratio = SMOKE_MIN_RATIO if args.smoke else MIN_RATIO
    throughput_ok = (
        throughput["byte_identical"] and throughput["throughput_ratio"] >= min_ratio
    )
    latency_skipped = latency.get("skipped", False)
    latency_ok = latency_skipped or latency["preempts"]

    table = Table(
        ["check", "measured", "budget", "verdict"],
        caption=f"SC1: staggered-submission throughput, latency-class preemption"
        f" ({'smoke' if args.smoke else 'full'} sizes)",
    )
    ratios = sorted(p["throughput_ratio"] for p in throughput["pairs"])
    table.add_row(
        f"session >= {min_ratio:.0%} of one-shot",
        f"median {throughput['throughput_ratio']:.2f}x of {len(ratios)} pairs"
        f" ({ratios[0]:.2f}-{ratios[-1]:.2f}x;"
        f" {throughput['one_shot_seconds']:.3f}s one-shot ->"
        f" {throughput['session_seconds']:.3f}s session medians,"
        f" identical={throughput['byte_identical']})",
        f">= {min_ratio}x median, every pair byte-identical",
        "PASS" if throughput_ok else "FAIL",
    )
    if latency_skipped:
        table.add_row(
            "latency single preempts bulk",
            latency["reason"],
            "p99 <= 25% of sweep",
            "SKIP",
        )
    else:
        table.add_row(
            "latency single preempts bulk",
            f"p99={latency['single_p99_seconds'] * 1e3:.1f}ms"
            f" p50={latency['single_p50_seconds'] * 1e3:.1f}ms"
            f" over a {latency['sweep_seconds']:.2f}s sweep",
            "p99 <= 25% of sweep",
            "PASS" if latency_ok else "FAIL",
        )
    emit("SC1", table, beside=args.output)

    payload = {
        "harness": "benchmarks/bench_scheduler.py",
        "mode": "smoke" if args.smoke else "full",
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "throughput": throughput,
        "latency": latency,
        "acceptance": {
            "min_throughput_ratio": min_ratio,
            "min_throughput_ratio_full": MIN_RATIO,
            "throughput_pairs": len(throughput["pairs"]),
            "min_cpus_latency": MIN_CPUS_LATENCY,
            "throughput_passed": throughput_ok,
            "latency_skipped": latency_skipped,
            "latency_passed": latency_ok,
            "passed": throughput_ok and latency_ok,
        },
    }
    output = args.output or ROOT / "BENCH_sched.json"
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {output}")

    if not throughput_ok:
        print(
            f"FAIL: median session throughput {throughput['throughput_ratio']:.2f}x"
            f" < {min_ratio}x of one-shot (or a pair's results diverged)",
            file=sys.stderr,
        )
        return 1
    if not latency_ok:
        print(
            f"FAIL: latency-class p99 {latency['single_p99_seconds']:.3f}s did not"
            f" preempt the {latency['sweep_seconds']:.2f}s bulk sweep",
            file=sys.stderr,
        )
        return 1
    verdicts = [
        f"staggered session submission at a median {throughput['throughput_ratio']:.2f}x"
        f" of one-shot execute ({throughput['jobs']} jobs,"
        f" {len(throughput['pairs'])} byte-identical pairs)"
    ]
    if latency_skipped:
        verdicts.append(f"latency gate skipped ({latency['reason']})")
    else:
        verdicts.append(
            f"latency-class p99 {latency['single_p99_seconds'] * 1e3:.1f}ms"
            f" under a {latency['sweep_seconds']:.2f}s bulk sweep"
        )
    print("PASS: " + "; ".join(verdicts))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
